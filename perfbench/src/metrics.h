// Arithmetic the benchmark reports with: the canonical output digest,
// order statistics, sweep-scheduling figures, span self time, and the
// event-heap sanity check. Pure functions, unit-tested in
// perfbench/tests/metrics_test.cc.

#ifndef PERFBENCH_SRC_METRICS_H_
#define PERFBENCH_SRC_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/exp/run_record.h"

namespace perfbench {

inline constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;

// 64-bit FNV-1a over `bytes`, continuing from `hash`.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = kFnvOffset);

// EncodeRunRecord of `record` with the two host-time fields (wall_ms,
// events_per_sec) zeroed. Every simulated field stays.
std::string CanonicalRecord(const dibs::RunRecord& record);

// FNV-1a over the canonical records in order, each followed by '\n'.
uint64_t DigestRecords(const std::vector<dibs::RunRecord>& records);

// 16 lower-case hex digits.
std::string Hex(uint64_t value);

// Median of `values` (mean of the middle two for an even count); 0 if empty.
double Median(std::vector<double> values);

// Nearest-rank percentile: the smallest sample with at least p% of the
// samples at or below it. `p` in (0, 100]; 0 if empty.
double Percentile(std::vector<double> values, double p);

// The highest of 99.9, 99, 90 and 50 that leaves at least ten of `n`
// samples beyond it, capped at `want`; 0 when even the median lacks ten.
double SupportedPercentile(size_t n, double want);

// Σ cell wall ÷ (workers × workload wall). 0 for a zero denominator.
double WorkerUtil(double sum_cell_wall_s, int workers, double wall_s);

struct CellSpan {
  int worker = 0;     // 0-based worker that ran the cell
  double start = 0;   // seconds from the workload's start
  double end = 0;
};

// Worker-seconds idle after the last cell was claimed: for every worker,
// from the later of its last cell's end and the last claim, to `wall_end`.
// A worker that ran no cell idles from the last claim.
double TailIdle(const std::vector<CellSpan>& cells, int workers, double wall_end);

struct Interval {
  double start = 0;
  double end = 0;
};

// Length of [start, end] minus the part of it the (possibly overlapping)
// child intervals cover.
double SelfTime(Interval parent, std::vector<Interval> children);

// A sampled pending-event count is sane only if it does not exceed the
// number of ids the simulator has issued, so a wrapped count fails loudly.
bool PendingSane(size_t pending, uint64_t next_event_id);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_METRICS_H_

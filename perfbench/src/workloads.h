// The benchmark's three workloads and one block of each, untraced or
// traced. Every measurement is taken from outside the library: timers
// around calls into public functions, a NetworkObserver added to each
// Scenario's network, and a sampler installed with
// Simulator::SetInterruptCheck.

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/src/metrics.h"
#include "src/exp/run_record.h"
#include "src/harness/config.h"

namespace perfbench {

// One scenario of a workload's fixed cell list.
struct Cell {
  std::vector<dibs::AxisPoint> points;
  dibs::ExperimentConfig config;
};

struct Workload {
  std::string name;
  // True: cells run through SweepEngine::RunAll on `workers` threads.
  // False: cells run one after another on the calling thread, bypassing
  // the sweep engine.
  bool sweep = false;
  int workers = 1;
  std::vector<Cell> cells;
};

// The names MakeWorkload accepts, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

// Builds block `block` of workload `name`: one pass of its matrix, every
// cell seeded from (`seed`, `block`, its position), so blocks are
// independent draws. `window_ms` > 0 replaces the simulated load window
// (tests use tiny ones). Throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, uint64_t seed, int block = 0,
                      int64_t window_ms = 0);

// Blocks a run measures for `seconds`: the workload's calibrated block time
// divides `seconds`, so the count depends on the arguments only and two
// builds measure the same inputs. At least 3.
int BlocksFor(const std::string& name, double seconds);

// Cores this process may run on (sched_getaffinity), at least 1.
int AvailableCores();

// Deterministic work counted by the traced run's observer and sampler,
// summed over a block's cells.
struct Counts {
  uint64_t enqueues = 0;
  uint64_t dequeues = 0;
  uint64_t drops = 0;
  uint64_t detours = 0;
  uint64_t switch_hops = 0;       // enqueues at switch ports
  uint64_t switch_depth_sum = 0;  // switch queue depth summed over those enqueues
  uint64_t peak_queue_pkts = 0;   // deepest switch output queue
  uint64_t observer_calls = 0;
  uint64_t peak_pending = 0;      // sampled every 4096 events
};

// Host-time trace of one cell: its span boundaries (seconds from the
// block's start) and its 4096-event slices.
struct CellTrace {
  int cell = 0;
  int worker = 0;
  double start = 0;      // runner entry; set-up begins
  double setup_end = 0;  // Scenario constructed; run begins
  double run_end = 0;    // Scenario::Run returned
  double end = 0;        // Scenario destroyed; runner returns
  std::vector<Interval> slices;
  std::vector<uint64_t> slice_events;
  Counts counts;
};

struct BlockResult {
  double wall_s = 0;  // workload start to its last RunRecord
  std::vector<dibs::RunRecord> records;
  uint64_t digest = 0;
  uint64_t delivered = 0;  // packets delivered to hosts, all cells
  int failed = 0;          // cells not ok
  // Traced blocks only.
  std::vector<CellTrace> cells;
};

// Runs one block. With `traced`, cells are driven through
// RunSpec::runner (sweep) or directly (serial) with a probe attached.
BlockResult RunBlock(const Workload& workload, bool traced);

// Σ over cells of the Scenario constructor's host seconds (a Scenario is
// built and destroyed per cell, not run).
double MeasureSetup(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_

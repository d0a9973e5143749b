#include "perfbench/src/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/exp/record_codec.h"

namespace perfbench {

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::string CanonicalRecord(const dibs::RunRecord& record) {
  dibs::RunRecord copy = record;
  copy.wall_ms = 0;
  copy.events_per_sec = 0;
  return dibs::EncodeRunRecord(copy);
}

uint64_t DigestRecords(const std::vector<dibs::RunRecord>& records) {
  uint64_t hash = kFnvOffset;
  for (const dibs::RunRecord& r : records) {
    hash = Fnv1a(CanonicalRecord(r), hash);
    hash = Fnv1a("\n", hash);
  }
  return hash;
}

std::string Hex(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double SupportedPercentile(size_t n, double want) {
  for (const double p : {99.9, 99.0, 90.0, 50.0}) {
    // Integer test of n * (100 - p) / 100 >= 10, in tenths of a percent.
    const auto beyond_tenths = static_cast<uint64_t>(std::llround((100.0 - p) * 10));
    if (p <= want && n * beyond_tenths >= 10 * 1000) {
      return p;
    }
  }
  return 0;
}

double WorkerUtil(double sum_cell_wall_s, int workers, double wall_s) {
  const double capacity = workers * wall_s;
  return capacity > 0 ? sum_cell_wall_s / capacity : 0;
}

double TailIdle(const std::vector<CellSpan>& cells, int workers, double wall_end) {
  double last_claim = 0;
  for (const CellSpan& c : cells) {
    last_claim = std::max(last_claim, c.start);
  }
  std::vector<double> busy_until(static_cast<size_t>(std::max(workers, 0)), last_claim);
  for (const CellSpan& c : cells) {
    if (c.worker >= 0 && c.worker < workers) {
      double& until = busy_until[static_cast<size_t>(c.worker)];
      until = std::max(until, c.end);
    }
  }
  double idle = 0;
  for (const double until : busy_until) {
    idle += std::max(0.0, wall_end - until);
  }
  return idle;
}

double SelfTime(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  double covered = 0;
  double reach = parent.start;  // everything before `reach` is accounted for
  for (const Interval& c : children) {
    const double start = std::max(c.start, reach);
    const double end = std::min(c.end, parent.end);
    if (end > start) {
      covered += end - start;
      reach = end;
    }
  }
  return (parent.end - parent.start) - covered;
}

bool PendingSane(size_t pending, uint64_t next_event_id) {
  return static_cast<uint64_t>(pending) <= next_event_id;
}

}  // namespace perfbench

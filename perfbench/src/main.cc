// perfbench_workload: runs one benchmark workload in this process and
// prints what it measured as one JSON line (the last line of stdout).
// perfbench/run.py builds and drives it; see perfbench/README.md.
//
//   perfbench_workload --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> [--spans-out <path>]
//
// A run first repeats the check block (block 0 at the default seed, whose
// digest run.py compares with the recorded one; it also warms up). It then
// measures BlocksFor(--seconds) blocks, each an independent draw of the
// workload's matrix seeded from --seed, and reports medians over blocks.
// Untraced (--trace 0): set-up measured, then every block untraced; reports
// the end-to-end metrics. Traced (--trace 1): half as many blocks, each run
// untraced and then traced; then the layer drivers; reports the per-layer
// metrics and writes the spans.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/src/drivers.h"
#include "perfbench/src/metrics.h"
#include "perfbench/src/workloads.h"
#include "src/util/json.h"

extern char** environ;

namespace perfbench {
namespace {

// The seed whose digests every run checks before measuring.
constexpr uint64_t kCheckSeed = 1;
// Set-up is measured at least this many times per run; the median is
// reported.
constexpr int kSetupReps = 15;

struct Args {
  std::string workload;
  uint64_t seed = kCheckSeed;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// Library code overlays DIBS_* variables onto configs and sweep options
// (validation, tracing, checkpoints, journals, isolation, retries, test
// hooks). Any of them would change what runs or what it costs.
std::vector<std::string> DibsEnvironment() {
  std::vector<std::string> found;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "DIBS_", 5) == 0) {
      found.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  return found;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

using Report = std::vector<Metric>;

std::vector<double> Column(const std::vector<BlockResult>& reps, double (*f)(const BlockResult&)) {
  std::vector<double> out;
  for (const BlockResult& r : reps) {
    out.push_back(f(r));
  }
  return out;
}

double Events(const BlockResult& result) {
  double total = 0;
  for (const dibs::RunRecord& r : result.records) {
    total += static_cast<double>(r.result.events_processed);
  }
  return total;
}

Counts SumCounts(const BlockResult& result) {
  Counts total;
  for (const CellTrace& c : result.cells) {
    total.enqueues += c.counts.enqueues;
    total.dequeues += c.counts.dequeues;
    total.drops += c.counts.drops;
    total.detours += c.counts.detours;
    total.switch_hops += c.counts.switch_hops;
    total.switch_depth_sum += c.counts.switch_depth_sum;
    total.peak_queue_pkts = std::max(total.peak_queue_pkts, c.counts.peak_queue_pkts);
    total.observer_calls += c.counts.observer_calls;
    total.peak_pending = std::max(total.peak_pending, c.counts.peak_pending);
  }
  return total;
}

struct Span {
  std::string name;
  Interval at;
  int parent = -1;
  int cell = -1;
};

// workload -> cell -> set-up / run -> 4096-event slice.
std::vector<Span> BuildSpans(const BlockResult& result) {
  std::vector<Span> spans;
  spans.push_back({"workload", {0, result.wall_s}, -1, -1});
  for (const CellTrace& c : result.cells) {
    const int cell = static_cast<int>(spans.size());
    spans.push_back({"cell", {c.start, c.end}, 0, c.cell});
    spans.push_back({"setup", {c.start, c.setup_end}, cell, c.cell});
    const int run = static_cast<int>(spans.size());
    spans.push_back({"run", {c.setup_end, c.run_end}, cell, c.cell});
    for (const Interval& s : c.slices) {
      spans.push_back({"slice", s, run, c.cell});
    }
  }
  return spans;
}

std::map<std::string, double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<Interval>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back(s.at);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans.size(); ++i) {
    self[spans[i].name] += SelfTime(spans[i].at, children[i]);
  }
  return self;
}

void WriteSpans(const std::string& path, const std::vector<BlockResult>& traced) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::cerr << "perfbench: cannot write spans to " << path << "\n";
    return;
  }
  for (size_t r = 0; r < traced.size(); ++r) {
    const std::vector<Span> spans = BuildSpans(traced[r]);
    for (size_t i = 0; i < spans.size(); ++i) {
      out << "{\"block\":" << r << ",\"id\":" << i << ",\"name\":\"" << spans[i].name
          << "\",\"start\":" << dibs::json::Num(spans[i].at.start)
          << ",\"end\":" << dibs::json::Num(spans[i].at.end)
          << ",\"parent\":" << spans[i].parent << ",\"cell\":" << spans[i].cell << "}\n";
    }
  }
}

// wall_s is the median block. pkts_per_s divides the run's delivered
// packets by its total block wall: blocks differ in how many packets their
// heavy-tailed background flows carry, and the ratio of totals weighs each
// by its work.
void EndToEnd(const std::vector<BlockResult>& blocks, const std::vector<double>& setup_samples,
              Report* report) {
  double wall = 0, delivered = 0;
  for (const BlockResult& b : blocks) {
    wall += b.wall_s;
    delivered += static_cast<double>(b.delivered);
  }
  report->push_back({"wall_s", Median(Column(blocks, [](const BlockResult& r) { return r.wall_s; })),
                     "s"});
  report->push_back({"setup_s", Median(setup_samples), "s"});
  report->push_back({"pkts_per_s", delivered / wall, "1/s"});
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  report->push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"});
}

void PerLayer(const Workload& w, const std::vector<BlockResult>& untraced,
              const std::vector<BlockResult>& traced, Report* report) {
  // exp: sweep scheduling, from RunRecord wall times and runner spans.
  std::vector<double> util, critical, idle, overhead_ms, setup_ms, run_s, ns_per_event;
  std::vector<double> slice_ns;
  std::map<std::string, double> self;
  for (const BlockResult& result : traced) {
    double sum_cell = 0, longest = 0, run_total = 0;
    std::vector<CellSpan> cells;
    for (size_t i = 0; i < result.records.size(); ++i) {
      const CellTrace& c = result.cells[i];
      const double cell_s = result.records[i].wall_ms / 1e3;
      sum_cell += cell_s;
      longest = std::max(longest, cell_s);
      cells.push_back({c.worker, c.start, c.end});
      overhead_ms.push_back(result.records[i].wall_ms - (c.run_end - c.start) * 1e3);
      setup_ms.push_back((c.setup_end - c.start) * 1e3);
      run_total += c.run_end - c.setup_end;
      for (size_t s = 0; s < c.slices.size(); ++s) {
        slice_ns.push_back((c.slices[s].end - c.slices[s].start) * 1e9 /
                           static_cast<double>(c.slice_events[s]));
      }
    }
    util.push_back(WorkerUtil(sum_cell, w.workers, result.wall_s));
    critical.push_back(longest);
    idle.push_back(TailIdle(cells, w.workers, result.wall_s));
    run_s.push_back(run_total);
    const double events = Events(result);
    ns_per_event.push_back(events > 0 ? run_total * 1e9 / events : 0);
    for (const auto& [name, s] : SelfTimes(BuildSpans(result))) {
      self[name] += s / static_cast<double>(traced.size());
    }
  }
  report->push_back({"exp.worker_util", Median(util), "ratio"});
  report->push_back({"exp.critical_cell_s", Median(critical), "s"});
  report->push_back({"exp.tail_idle_s", Median(idle), "s"});
  report->push_back({"exp.cell_overhead_ms", Median(overhead_ms), "ms"});
  report->push_back({"harness.setup_ms", Median(setup_ms), "ms"});
  report->push_back({"harness.run_s", Median(run_s), "s"});

  const dibs::ExperimentConfig& config = w.cells.front().config;
  report->push_back({"topo.build_ms", BuildFatTreeMs(config), "ms"});
  report->push_back({"topo.fib_ms", FibComputeMs(config), "ms"});
  report->push_back({"topo.ecmp_lookup_ns", EcmpLookupNs(config), "ns"});

  // Counts are summed over the traced blocks.
  BlockResult all;
  for (const BlockResult& result : traced) {
    all.records.insert(all.records.end(), result.records.begin(), result.records.end());
    all.cells.insert(all.cells.end(), result.cells.begin(), result.cells.end());
    all.delivered += result.delivered;
  }
  const Counts k = SumCounts(all);
  const double delivered = std::max<double>(1, static_cast<double>(all.delivered));
  const double events = Events(all);
  report->push_back({"sim.events", events, "count"});
  report->push_back({"sim.events_per_pkt", events / delivered, "ratio"});
  report->push_back({"sim.ns_per_event", Median(ns_per_event), "ns"});
  report->push_back({"sim.peak_pending", static_cast<double>(k.peak_pending), "count"});
  const double p99 = SupportedPercentile(slice_ns.size(), 99);
  if (p99 < 99) {
    std::cerr << "perfbench: only " << slice_ns.size()
              << " slices; sim.slice_ns_p99 reports p" << p99 << "\n";
  }
  report->push_back({"sim.slice_ns_p50", Percentile(slice_ns, 50), "ns"});
  report->push_back({"sim.slice_ns_p99", Percentile(slice_ns, p99 > 0 ? p99 : 50), "ns"});
  report->push_back({"sim.slices", static_cast<double>(slice_ns.size()), "count"});
  const size_t depth = std::max<size_t>(k.peak_pending, 1);
  report->push_back({"sim.schedule_pop_ns", SchedulePopNs(depth), "ns"});
  report->push_back({"sim.cancel_ns", CancelNs(depth), "ns"});

  const size_t occupancy =
      k.switch_hops == 0 ? 1
                         : std::max<size_t>(1, static_cast<size_t>(std::llround(
                                                   static_cast<double>(k.switch_depth_sum) /
                                                   static_cast<double>(k.switch_hops))));
  report->push_back({"net.enqueues", static_cast<double>(k.enqueues), "count"});
  report->push_back({"net.dequeues", static_cast<double>(k.dequeues), "count"});
  report->push_back({"net.drops", static_cast<double>(k.drops), "count"});
  report->push_back({"net.peak_queue_pkts", static_cast<double>(k.peak_queue_pkts), "pkts"});
  report->push_back({"net.droptail_ns", DropTailNs(config, occupancy), "ns"});
  report->push_back({"net.pfabric_ns", PfabricNs(config, occupancy), "ns"});

  report->push_back({"device.switch_hops", static_cast<double>(k.switch_hops), "count"});
  report->push_back(
      {"device.observer_calls", static_cast<double>(k.observer_calls), "count"});
  report->push_back({"device.hop_ns", HopNs(config), "ns"});

  report->push_back({"core.detours", static_cast<double>(k.detours), "count"});
  report->push_back(
      {"core.detours_per_pkt", static_cast<double>(k.detours) / delivered, "ratio"});
  report->push_back({"stats.detour_record_ns", DetourRecordNs(), "ns"});

  double flows = 0, retransmits = 0, timeouts = 0, trips = 0, suppressed_ms = 0;
  for (const dibs::RunRecord& rec : all.records) {
    flows += static_cast<double>(rec.result.flows_started);
    retransmits += static_cast<double>(rec.result.retransmits);
    timeouts += static_cast<double>(rec.result.timeouts);
    trips += static_cast<double>(rec.result.guard_trips);
    suppressed_ms += rec.result.guard_time_suppressed_ms;
  }
  report->push_back({"transport.flows", flows, "count"});
  report->push_back({"transport.retransmits", retransmits, "count"});
  report->push_back({"transport.timeouts", timeouts, "count"});
  report->push_back({"guard.trips", trips, "count"});
  report->push_back({"guard.suppressed_ms", suppressed_ms, "ms"});

  std::vector<double> overhead;
  for (size_t i = 0; i < traced.size(); ++i) {
    overhead.push_back((traced[i].wall_s / untraced[i].wall_s - 1) * 100);
  }
  report->push_back({"bench.trace_overhead_pct", Median(overhead), "%"});

  for (const char* name : {"workload", "cell", "setup", "run", "slice"}) {
    report->push_back({std::string("span.") + name + ".self_s", self[name], "s"});
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_workload --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--spans-out <path>]\n";
    return 2;
  }
  if (const std::vector<std::string> env = DibsEnvironment(); !env.empty()) {
    std::cerr << "perfbench: refusing to run with " << env.front()
              << " set; unset every DIBS_* variable\n";
    return 2;
  }

  // Correctness first: the check block's outputs must match the recorded
  // digest (perfbench/run.py compares). It also warms the process up.
  const BlockResult check = RunBlock(MakeWorkload(args.workload, kCheckSeed, 0), /*traced=*/false);
  const int blocks = args.trace ? std::max(2, BlocksFor(args.workload, args.seconds) / 2)
                                : BlocksFor(args.workload, args.seconds);
  const Workload shape = MakeWorkload(args.workload, args.seed, 0);

  // Set-up samples are spread over the run: the host's speed drifts over
  // seconds, and construction (allocation-heavy) swings with it the most.
  std::vector<double> setup_samples;
  const int setup_per_block = (kSetupReps + blocks - 1) / blocks;
  std::vector<BlockResult> untraced, traced;
  for (int b = 0; b < blocks; ++b) {
    const Workload block = MakeWorkload(args.workload, args.seed, b);
    for (int i = 0; !args.trace && i < setup_per_block; ++i) {
      setup_samples.push_back(MeasureSetup(block));
    }
    untraced.push_back(RunBlock(block, /*traced=*/false));
    if (args.trace) {
      traced.push_back(RunBlock(block, /*traced=*/true));
    }
  }

  int attempted = static_cast<int>(check.records.size());
  int failed = check.failed;
  std::vector<std::string> errors;
  std::vector<dibs::RunRecord> all;
  for (const std::vector<BlockResult>* reps : {&untraced, &traced}) {
    for (const BlockResult& r : *reps) {
      attempted += static_cast<int>(r.records.size());
      failed += r.failed;
      for (const dibs::RunRecord& rec : r.records) {
        if (rec.status != dibs::RunStatus::kOk) {
          errors.push_back(rec.error);
        }
      }
    }
  }
  for (const BlockResult& r : untraced) {
    all.insert(all.end(), r.records.begin(), r.records.end());
  }
  bool traced_match = true;
  for (size_t i = 0; i < traced.size(); ++i) {
    traced_match = traced_match && traced[i].digest == untraced[i].digest;
  }

  Report report;
  if (args.trace) {
    PerLayer(shape, untraced, traced, &report);
    if (!args.spans_out.empty()) {
      WriteSpans(args.spans_out, traced);
    }
  } else {
    EndToEnd(untraced, setup_samples, &report);
  }

  for (const Metric& m : report) {
    std::printf("%-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("blocks %d (%s), cells per block %zu, workers %d\n", blocks,
              args.trace ? "each untraced and traced" : "untraced", shape.cells.size(),
              shape.workers);

  std::ostringstream json;
  json << "{\"workload\":\"" << dibs::json::Escape(args.workload)
       << "\",\"seed\":" << args.seed << ",\"blocks\":" << blocks
       << ",\"check_digest\":\"" << Hex(check.digest) << "\",\"digest\":\""
       << Hex(DigestRecords(all)) << "\",\"traced_match\":" << (traced_match ? "true" : "false")
       << ",\"attempted\":" << attempted << ",\"failed\":" << failed << ",\"errors\":[";
  for (size_t i = 0; i < errors.size(); ++i) {
    json << (i == 0 ? "\"" : ",\"") << dibs::json::Escape(errors[i]) << "\"";
  }
  json << "],\"metrics\":{";
  for (size_t i = 0; i < report.size(); ++i) {
    const Metric& m = report[i];
    json << (i == 0 ? "\"" : ",\"") << m.name << "\":{\"value\":" << dibs::json::Num(m.value)
         << ",\"unit\":\"" << m.unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

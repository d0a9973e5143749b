#include "perfbench/src/workloads.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "src/exp/sweep_engine.h"
#include "src/harness/scenario.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dibs::ExperimentConfig;
using dibs::Time;

// Simulated load window of each workload's cells, and the host seconds one
// block (one pass of the matrix) takes on a 4-core 2.1 GHz container; see
// perfbench/README.md.
constexpr int64_t kIncastWindowMs = 75;
constexpr double kIncastBlockSeconds = 2.4;
constexpr int64_t kExtremeWindowMs = 10;
constexpr double kExtremeBlockSeconds = 7.3;
constexpr int64_t kPfabricWindowMs = 100;
constexpr double kPfabricBlockSeconds = 2.0;

constexpr uint64_t kSampleEvery = 4096;
// Cell i of block b of a run with --seed s uses seed
// s * kSeedStride + b * (cells per block) + i.
constexpr uint64_t kSeedStride = 1000000;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// The figure benches' shared run control (bench/bench_util.h Standard()).
ExperimentConfig Standard(ExperimentConfig c, int64_t window_ms) {
  c.duration = Time::Millis(window_ms);
  c.drain = Time::Millis(150);
  return c;
}

// The fig11 matrix: {DCTCP, DCTCP+DIBS} x incast degree {40, 60, 80, 100}.
std::vector<Cell> IncastMatrix(int64_t window_ms) {
  std::vector<Cell> cells;
  const std::pair<const char*, ExperimentConfig> schemes[] = {
      {"dctcp", dibs::DctcpConfig()}, {"dibs", dibs::DibsConfig()}};
  for (const auto& [label, preset] : schemes) {
    for (const int degree : {40, 60, 80, 100}) {
      Cell cell;
      cell.points = {{"scheme", label}, {"degree", std::to_string(degree)}};
      cell.config = Standard(preset, window_ms);
      cell.config.incast_degree = degree;
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

// The fig14 row at 16000 qps: DCTCP, DIBS and DIBS+guard, watchdog on.
std::vector<Cell> ExtremeMatrix(int64_t window_ms) {
  std::vector<Cell> cells;
  const std::pair<const char*, ExperimentConfig> schemes[] = {
      {"dctcp", dibs::DctcpConfig()},
      {"dibs", dibs::DibsConfig()},
      {"dibs-guard", dibs::DibsGuardConfig()}};
  for (const auto& [label, preset] : schemes) {
    Cell cell;
    cell.points = {{"scheme", label}, {"qps", "16000"}};
    cell.config = Standard(preset, window_ms);
    cell.config.net.guard.watchdog = true;
    cell.config.qps = 16000;
    cell.config.drain = Time::Millis(400);
    cells.push_back(std::move(cell));
  }
  return cells;
}

// The fig16 pFabric point at 2000 qps.
std::vector<Cell> PfabricMatrix(int64_t window_ms) {
  Cell cell;
  cell.points = {{"scheme", "pfabric"}, {"qps", "2000"}};
  cell.config = Standard(dibs::PfabricExperimentConfig(), window_ms);
  cell.config.qps = 2000;
  return {std::move(cell)};
}

// Counts one cell's work through the public observer hook and samples the
// event core every 4096 events through the interrupt check. Lives on the
// thread that runs its cell, so it needs no locking.
class CellProbe : public dibs::NetworkObserver {
 public:
  CellProbe(dibs::Scenario* scenario, Clock::time_point origin, CellTrace* out)
      : sim_(&scenario->sim()), origin_(origin), out_(out) {
    for (const dibs::TopoNode& n : scenario->network().topology().nodes()) {
      is_switch_.push_back(dibs::IsSwitchKind(n.kind));
    }
    scenario->network().AddObserver(this);
    sim_->SetInterruptCheck([this] { return Sample(); }, kSampleEvery);
  }

  void StartRun(Clock::time_point at) {
    slice_start_ = at;
    slice_events_ = sim_->events_processed();
  }

  void OnHostSend(dibs::HostId, const dibs::Packet&, Time) override { ++c().observer_calls; }
  void OnDetour(int, uint16_t, const dibs::Packet&, Time) override {
    ++c().observer_calls;
    ++c().detours;
  }
  void OnDrop(int, const dibs::Packet&, dibs::DropReason, Time) override {
    ++c().observer_calls;
    ++c().drops;
  }
  void OnHostDeliver(dibs::HostId, const dibs::Packet&, Time) override { ++c().observer_calls; }
  void OnEnqueue(int node, uint16_t, size_t depth, Time) override {
    Counts& k = c();
    ++k.observer_calls;
    ++k.enqueues;
    if (is_switch_[static_cast<size_t>(node)]) {
      ++k.switch_hops;
      k.switch_depth_sum += depth;
      k.peak_queue_pkts = std::max<uint64_t>(k.peak_queue_pkts, depth);
    }
  }
  void OnDequeue(int, uint16_t, const dibs::Packet&, size_t, Time) override {
    ++c().observer_calls;
    ++c().dequeues;
  }
  void OnGuardTransition(int, dibs::GuardState, dibs::GuardState, Time) override {
    ++c().observer_calls;
  }

 private:
  Counts& c() { return out_->counts; }

  // The simulator polls this whenever its event count is a multiple of
  // 4096, possibly more than once per count (cancelled entries are skipped
  // without counting); each new count closes one slice.
  bool Sample() {
    const uint64_t events = sim_->events_processed();
    if (events == slice_events_) {
      return false;
    }
    const Clock::time_point now = Clock::now();
    out_->slices.push_back({Seconds(origin_, slice_start_), Seconds(origin_, now)});
    out_->slice_events.push_back(events - slice_events_);
    slice_start_ = now;
    slice_events_ = events;
    const size_t pending = sim_->pending_events();
    if (!PendingSane(pending, sim_->next_event_id())) {
      throw std::runtime_error("perfbench: pending_events() = " + std::to_string(pending) +
                               " exceeds next_event_id() = " +
                               std::to_string(sim_->next_event_id()) +
                               " (event-count underflow)");
    }
    c().peak_pending = std::max<uint64_t>(c().peak_pending, pending);
    return false;
  }

  dibs::Simulator* sim_;
  Clock::time_point origin_;
  CellTrace* out_;
  std::vector<bool> is_switch_;
  Clock::time_point slice_start_;
  uint64_t slice_events_ = 0;
};

// Builds, probes and runs one cell, recording its spans into `trace`.
dibs::ScenarioResult RunTracedCell(const ExperimentConfig& config, Clock::time_point origin,
                                   CellTrace* trace) {
  trace->start = Seconds(origin, Clock::now());
  dibs::ScenarioResult result;
  {
    dibs::Scenario scenario(config);
    const Clock::time_point built = Clock::now();
    trace->setup_end = Seconds(origin, built);
    CellProbe probe(&scenario, origin, trace);
    probe.StartRun(built);
    result = scenario.Run();
    trace->run_end = Seconds(origin, Clock::now());
  }
  trace->end = Seconds(origin, Clock::now());
  return result;
}

dibs::RunRecord SerialRecord(const Workload& w, size_t i) {
  dibs::RunRecord rec;
  rec.index = static_cast<int>(i);
  rec.sweep = w.name;
  rec.points = w.cells[i].points;
  rec.seed = w.cells[i].config.seed;
  return rec;
}

// Hermetic sweep options: nothing resolves from the environment that the
// benchmark can set itself.
dibs::SweepOptions BenchSweepOptions(int workers) {
  dibs::SweepOptions opts;
  opts.jobs = workers;
  opts.isolate = dibs::IsolationMode::kThread;
  opts.progress = false;
  opts.run_timeout_sec = 0;
  opts.event_budget = 0;
  opts.retry.max_attempts = 1;
  opts.retry.initial_ms = 0;
  opts.watchdog_grace_sec = 0;
  opts.resume = 0;
  opts.ckpt_interval_ms = 100;
  return opts;
}

void RunSweep(const Workload& w, bool traced, BlockResult* result) {
  std::vector<dibs::RunSpec> runs;
  std::mutex mu;
  std::map<std::thread::id, int> worker_of;
  const Clock::time_point origin = Clock::now();
  if (traced) {
    result->cells.resize(w.cells.size());
  }
  for (size_t i = 0; i < w.cells.size(); ++i) {
    dibs::RunSpec run;
    run.config = w.cells[i].config;
    run.points = w.cells[i].points;
    if (traced) {
      CellTrace* trace = &result->cells[i];
      trace->cell = static_cast<int>(i);
      run.runner = [trace, origin, &mu, &worker_of](const ExperimentConfig& config) {
        {
          std::lock_guard<std::mutex> lock(mu);
          const auto [it, inserted] = worker_of.emplace(
              std::this_thread::get_id(), static_cast<int>(worker_of.size()));
          trace->worker = it->second;
        }
        return RunTracedCell(config, origin, trace);
      };
    }
    runs.push_back(std::move(run));
  }
  dibs::SweepEngine engine(BenchSweepOptions(w.workers));
  result->records = engine.RunAll(w.name, std::move(runs));
  result->wall_s = Seconds(origin, Clock::now());
}

void RunSerial(const Workload& w, bool traced, BlockResult* result) {
  const Clock::time_point origin = Clock::now();
  if (traced) {
    result->cells.resize(w.cells.size());
  }
  for (size_t i = 0; i < w.cells.size(); ++i) {
    dibs::RunRecord rec = SerialRecord(w, i);
    const Clock::time_point start = Clock::now();
    try {
      if (traced) {
        result->cells[i].cell = static_cast<int>(i);
        rec.result = RunTracedCell(w.cells[i].config, origin, &result->cells[i]);
      } else {
        rec.result = dibs::Scenario(w.cells[i].config).Run();
      }
    } catch (const std::exception& e) {
      rec.status = dibs::RunStatus::kFailed;
      rec.error = e.what();
    }
    rec.wall_ms = Seconds(start, Clock::now()) * 1e3;
    result->records.push_back(std::move(rec));
  }
  result->wall_s = Seconds(origin, Clock::now());
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"incast_sweep", "extreme_qps",
                                                 "pfabric_incast"};
  return names;
}

Workload MakeWorkload(const std::string& name, uint64_t seed, int block,
                      int64_t window_ms) {
  Workload w;
  w.name = name;
  if (name == "incast_sweep") {
    w.sweep = true;
    w.workers = std::min(4, AvailableCores());
    w.cells = IncastMatrix(window_ms > 0 ? window_ms : kIncastWindowMs);
  } else if (name == "extreme_qps") {
    w.cells = ExtremeMatrix(window_ms > 0 ? window_ms : kExtremeWindowMs);
  } else if (name == "pfabric_incast") {
    w.cells = PfabricMatrix(window_ms > 0 ? window_ms : kPfabricWindowMs);
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  // Every cell draws its own seed. Cells sharing one seed would share their
  // background flows, whose heavy-tailed sizes dominate a cell's cost, so a
  // block's cost would swing with a single draw.
  const uint64_t first = seed * kSeedStride + static_cast<uint64_t>(block) * w.cells.size();
  for (size_t i = 0; i < w.cells.size(); ++i) {
    w.cells[i].config.seed = first + i;
    w.cells[i].points.push_back({"block", std::to_string(block)});
  }
  return w;
}

int BlocksFor(const std::string& name, double seconds) {
  const double block_seconds = name == "incast_sweep"  ? kIncastBlockSeconds
                               : name == "extreme_qps" ? kExtremeBlockSeconds
                                                       : kPfabricBlockSeconds;
  return std::max(3, static_cast<int>(seconds / block_seconds));
}

int AvailableCores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return 1;
  }
  return std::max(1, CPU_COUNT(&set));
}

BlockResult RunBlock(const Workload& workload, bool traced) {
  BlockResult result;
  if (workload.sweep) {
    RunSweep(workload, traced, &result);
  } else {
    RunSerial(workload, traced, &result);
  }
  result.digest = DigestRecords(result.records);
  for (const dibs::RunRecord& r : result.records) {
    result.delivered += r.result.delivered_packets;
    if (r.status != dibs::RunStatus::kOk) {
      ++result.failed;
    }
  }
  return result;
}

double MeasureSetup(const Workload& workload) {
  double total = 0;
  for (const Cell& cell : workload.cells) {
    const Clock::time_point start = Clock::now();
    const dibs::Scenario scenario(cell.config);
    total += Seconds(start, Clock::now());
  }
  return total;
}

}  // namespace perfbench

#include "perfbench/src/drivers.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <utility>
#include <vector>

#include "perfbench/src/metrics.h"
#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/net/droptail_queue.h"
#include "src/net/pfabric_queue.h"
#include "src/sim/simulator.h"
#include "src/stats/detour_recorder.h"
#include "src/topo/builders.h"
#include "src/topo/routing.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using dibs::Time;

constexpr int kBatches = 5;

// Results land here so the compiler cannot drop the timed work.
volatile uint64_t g_sink = 0;

// xorshift64: deterministic inputs without touching the simulator's Rng.
struct XorShift {
  uint64_t x = 88172645463325252ull;
  uint64_t Next() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
};

// Median over kBatches of `batch()`'s host ns divided by the op count it
// returns.
double MedianNsPerOp(const std::function<uint64_t()>& batch) {
  std::vector<double> per_op;
  for (int b = 0; b < kBatches; ++b) {
    const Clock::time_point start = Clock::now();
    const uint64_t ops = batch();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - start).count();
    per_op.push_back(ops > 0 ? ns / static_cast<double>(ops) : 0);
  }
  return Median(per_op);
}

dibs::FatTreeOptions TreeOptions(const dibs::ExperimentConfig& config) {
  dibs::FatTreeOptions opts;
  opts.k = config.fat_tree_k;
  opts.host_rate_bps = config.link_rate_bps;
  opts.oversubscription = config.oversubscription;
  return opts;
}

// A closed population of `depth` self-rescheduling events. With `timers`,
// each firing also re-arms one timer, cancelling the previous one.
class HoldLoop {
 public:
  HoldLoop(size_t depth, bool timers)
      : spread_ns_(static_cast<int64_t>(std::max<size_t>(depth, 1)) * 100),
        timers_(timers) {
    for (size_t i = 0; i < depth; ++i) {
      sim_.Schedule(Delay(), [this] { Fire(); });
    }
  }

  // Runs `events` more firings (plus the drain of the population).
  uint64_t Run(uint64_t events) {
    left_ = events;
    const uint64_t before = sim_.events_processed();
    sim_.Run();
    return sim_.events_processed() - before;
  }

 private:
  Time Delay() { return Time::Nanos(1 + static_cast<int64_t>(rng_.Next() % spread_ns_)); }

  void Fire() {
    if (left_ == 0) {
      return;
    }
    --left_;
    sim_.Schedule(Delay(), [this] { Fire(); });
    if (timers_) {
      sim_.Cancel(timer_);
      timer_ = sim_.Schedule(Time::Nanos(spread_ns_ / 2), [] {});
    }
  }

  dibs::Simulator sim_;
  XorShift rng_;
  int64_t spread_ns_;
  bool timers_;
  uint64_t left_ = 0;
  dibs::EventId timer_ = dibs::kInvalidEventId;
};

double HoldNs(size_t depth, bool timers) {
  constexpr uint64_t kEvents = 400000;
  return MedianNsPerOp([&] {
    HoldLoop loop(depth, timers);
    return loop.Run(kEvents);
  });
}

template <typename Queue>
double QueuePairNs(Queue* q, size_t occupancy) {
  constexpr uint64_t kPairs = 1000000;
  XorShift rng;
  auto packet = [&rng] {
    dibs::Packet p;
    p.size_bytes = dibs::kMtuBytes;
    p.ect = true;
    p.priority = static_cast<int64_t>(rng.Next() % 100000) + 1;
    p.flow = rng.Next() % 64;
    return p;
  };
  for (size_t i = 0; i < occupancy; ++i) {
    q->Enqueue(packet());
  }
  return MedianNsPerOp([&] {
    uint64_t bytes = 0;
    for (uint64_t i = 0; i < kPairs; ++i) {
      q->Enqueue(packet());
      bytes += q->Dequeue()->size_bytes;
    }
    g_sink = g_sink + bytes;
    return kPairs;
  });
}

}  // namespace

double BuildFatTreeMs(const dibs::ExperimentConfig& config) {
  return MedianNsPerOp([&] {
           g_sink = g_sink + static_cast<uint64_t>(
                                 dibs::BuildFatTree(TreeOptions(config)).num_nodes());
           return uint64_t{1};
         }) /
         1e6;
}

double FibComputeMs(const dibs::ExperimentConfig& config) {
  const dibs::Topology topo = dibs::BuildFatTree(TreeOptions(config));
  return MedianNsPerOp([&] {
           g_sink = g_sink + static_cast<uint64_t>(dibs::Fib::Compute(topo).num_nodes());
           return uint64_t{1};
         }) /
         1e6;
}

double EcmpLookupNs(const dibs::ExperimentConfig& config) {
  constexpr uint64_t kLookups = 2000000;
  const dibs::Topology topo = dibs::BuildFatTree(TreeOptions(config));
  const dibs::Fib fib = dibs::Fib::Compute(topo);
  std::vector<int> switches;
  for (const dibs::TopoNode& n : topo.nodes()) {
    if (dibs::IsSwitchKind(n.kind)) {
      switches.push_back(n.id);
    }
  }
  const auto hosts = static_cast<uint64_t>(topo.num_hosts());
  return MedianNsPerOp([&] {
    uint64_t acc = 0;
    for (uint64_t i = 0; i < kLookups; ++i) {
      acc += fib.EcmpPort(switches[i % switches.size()],
                          static_cast<dibs::HostId>((i * 31) % hosts), i);
    }
    g_sink = g_sink + acc;
    return kLookups;
  });
}

double SchedulePopNs(size_t depth) { return HoldNs(depth, /*timers=*/false); }

double CancelNs(size_t depth) {
  return std::max(0.0, HoldNs(depth, /*timers=*/true) - HoldNs(depth, /*timers=*/false));
}

double DropTailNs(const dibs::ExperimentConfig& config, size_t occupancy) {
  const size_t cap = config.net.switch_buffer_packets;
  dibs::DropTailQueue q(cap, config.net.ecn_threshold_packets);
  return QueuePairNs(&q, cap == 0 ? occupancy : std::min(occupancy, cap - 1));
}

double PfabricNs(const dibs::ExperimentConfig& config, size_t occupancy) {
  const size_t cap = std::max<size_t>(config.net.pfabric_buffer_packets, 1);
  dibs::PfabricQueue q(cap);
  return QueuePairNs(&q, std::min(occupancy, cap - 1));
}

double HopNs(const dibs::ExperimentConfig& config) {
  constexpr uint64_t kPackets = 20000;
  dibs::Simulator sim(config.seed);
  dibs::Network net(&sim, dibs::BuildFatTree(TreeOptions(config)), config.net);
  const auto half = static_cast<uint64_t>(net.num_hosts() / 2);
  uint64_t sent = 0;
  return MedianNsPerOp([&] {
    for (uint64_t i = 0; i < kPackets; ++i, ++sent) {
      dibs::Packet p;
      p.uid = net.NextPacketUid();
      p.src = static_cast<dibs::HostId>(sent % half);
      p.dst = static_cast<dibs::HostId>(2 * half - 1 - sent % half);
      p.size_bytes = dibs::kMtuBytes;
      p.ttl = 64;
      p.flow = sent;
      net.host(p.src).Send(std::move(p));
      sim.Run();
    }
    return kPackets;
  });
}

double DetourRecordNs() {
  constexpr uint64_t kPairs = 1000000;
  return MedianNsPerOp([&] {
    dibs::DetourRecorder recorder;
    dibs::Packet p;
    p.size_bytes = dibs::kMtuBytes;
    for (uint64_t i = 0; i < kPairs; ++i) {
      const Time at = Time::Nanos(static_cast<int64_t>(i) * 100);
      const int node = static_cast<int>((i * 7) % 80);
      const auto port = static_cast<uint16_t>(i % 8);
      recorder.OnDetour(node, port, p, at);
      p.enqueued_at = at;
      recorder.OnDequeue(node, port, p, i % 100, at + Time::Micros(5));
    }
    g_sink = g_sink + recorder.total_detours();
    return kPairs;
  });
}

}  // namespace perfbench

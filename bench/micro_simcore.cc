// Simulator-core micro-benchmarks: event queue throughput (shallow, held at
// fig11/fig14 heap depths, and under timer re-arm churn), FIB/ECMP lookup,
// queue disciplines, and the end-to-end packet-hop rate through a switch.
// These bound how much simulated traffic the figure benches can afford.

#include <benchmark/benchmark.h>

#include <vector>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/net/droptail_queue.h"
#include "src/net/pfabric_queue.h"
#include "src/sim/simulator.h"
#include "src/stats/detour_recorder.h"
#include "src/stats/guard_recorder.h"
#include "src/topo/builders.h"
#include "src/topo/routing.h"
#include "src/trace/flight_recorder.h"
#include "src/trace/trace_bus.h"
#include "src/util/stats_util.h"

namespace dibs {
namespace {

void BM_EventScheduleAndRun(benchmark::State& state) {
  Simulator sim;
  int64_t t = 1;
  for (auto _ : state) {
    sim.Schedule(Time::Nanos(t++ % 1000), [] {});
    if (t % 64 == 0) {
      sim.Run();
    }
  }
  sim.Run();
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventScheduleAndRun);

// Pseudo-random 0-1023 ns delay from a 64-bit LCG: cheaper than the
// simulator Rng, so the event core dominates the measurement.
Time NextDelay(uint64_t* lcg) {
  *lcg = *lcg * 6364136223846793005ULL + 1442695040888963407ULL;
  return Time::Nanos(static_cast<int64_t>(*lcg >> 54));
}

// Hold model at a steady heap depth: `depth` self-rescheduling events, each
// firing re-arms itself 0-1023 ns ahead, so every pop sifts a heap of that
// size. 1k and 24k pending match the fig11 and fig14 peak heap depths.
struct HoldModel {
  Simulator sim;
  uint64_t lcg = 1;
  int64_t budget = 0;

  void Fire() {
    sim.Schedule(NextDelay(&lcg), [this] { Fire(); });
    if (--budget == 0) {
      sim.Stop();
    }
  }
};

void BM_EventHold(benchmark::State& state) {
  HoldModel m;
  for (int64_t i = 0; i < state.range(0); ++i) {
    m.sim.Schedule(NextDelay(&m.lcg), [&m] { m.Fire(); });
  }
  constexpr int64_t kBatch = 1024;
  while (state.KeepRunningBatch(kBatch)) {
    m.budget = kBatch;
    m.sim.Run();
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EventHold)->Arg(1000)->Arg(24000);

// Retransmission-timer churn: 1k flows each send every 0-1023 ns, and every
// send cancels the flow's pending RTO timer (20 us out, so it never fires)
// and arms a new one. One iteration = one event = one cancel + two schedules;
// about 40k cancelled timers sit in the heap until their time comes up.
struct RearmModel {
  Simulator sim;
  std::vector<EventId> timers;
  uint64_t lcg = 1;
  int64_t budget = 0;
  uint64_t timeouts = 0;

  void Send(size_t flow) {
    sim.Cancel(timers[flow]);
    timers[flow] = sim.Schedule(Time::Micros(20), [this] { ++timeouts; });
    sim.Schedule(NextDelay(&lcg), [this, flow] { Send(flow); });
    if (--budget == 0) {
      sim.Stop();
    }
  }
};

void BM_TimerRearm(benchmark::State& state) {
  RearmModel m;
  m.timers.assign(1000, kInvalidEventId);
  for (size_t flow = 0; flow < m.timers.size(); ++flow) {
    m.sim.Schedule(NextDelay(&m.lcg), [&m, flow] { m.Send(flow); });
  }
  constexpr int64_t kBatch = 1024;
  while (state.KeepRunningBatch(kBatch)) {
    m.budget = kBatch;
    m.sim.Run();
  }
  if (m.timeouts != 0) {
    state.SkipWithError("an RTO timer fired; the model no longer measures re-arming");
  }
  state.counters["events/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TimerRearm);

void BM_FibCompute(benchmark::State& state) {
  const Topology topo = BuildPaperFatTree();
  for (auto _ : state) {
    const Fib fib = Fib::Compute(topo);
    benchmark::DoNotOptimize(fib.num_nodes());
  }
}
BENCHMARK(BM_FibCompute);

void BM_EcmpLookup(benchmark::State& state) {
  const Topology topo = BuildPaperFatTree();
  const Fib fib = Fib::Compute(topo);
  FlowId flow = 1;
  for (auto _ : state) {
    const uint16_t port = fib.EcmpPort(/*node=*/16, static_cast<HostId>(flow % 128), flow);
    benchmark::DoNotOptimize(port);
    ++flow;
  }
  state.counters["lookups/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EcmpLookup);

void BM_DropTailEnqueueDequeue(benchmark::State& state) {
  DropTailQueue q(/*capacity=*/128, /*mark=*/20);
  for (auto _ : state) {
    Packet p;
    p.size_bytes = 1500;
    p.ect = true;
    q.Enqueue(std::move(p));
    benchmark::DoNotOptimize(q.Dequeue());
  }
}
BENCHMARK(BM_DropTailEnqueueDequeue);

void BM_PfabricEnqueueDequeue(benchmark::State& state) {
  PfabricQueue q(24);
  int64_t prio = 1;
  for (auto _ : state) {
    Packet p;
    p.size_bytes = 1500;
    p.priority = (prio = prio * 2654435761 % 100000) + 1;
    p.flow = static_cast<FlowId>(prio % 40);
    q.Enqueue(std::move(p));
    if (prio % 2 == 0) {
      benchmark::DoNotOptimize(q.Dequeue());
    }
  }
}
BENCHMARK(BM_PfabricEnqueueDequeue);

// End-to-end cost of pushing one packet across the fat-tree (5 switch hops),
// amortized: events per packet-hop including transmission events. Every
// BM_SwitchPacketHop* variant runs this loop; they differ only in which
// observers are registered on `net`.
void RunPacketHops(benchmark::State& state, Simulator& sim, Network& net) {
  uint64_t batch = 0;
  for (auto _ : state) {
    Packet p;
    p.uid = net.NextPacketUid();
    p.src = static_cast<HostId>(batch % 64);
    p.dst = static_cast<HostId>(127 - batch % 64);
    p.size_bytes = 1500;
    p.ttl = 64;
    p.flow = batch;
    net.host(p.src).Send(std::move(p));
    if (++batch % 32 == 0) {
      sim.Run();
    }
  }
  sim.Run();
  state.counters["pkts/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_SwitchPacketHop(benchmark::State& state) {
  // No observers: the floor every hook pays when nothing subscribes.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  RunPacketHops(state, sim, net);
}
BENCHMARK(BM_SwitchPacketHop);

void BM_SwitchPacketHopRecorders(benchmark::State& state) {
  // The two recorders every Scenario registers: the per-hop cost of the
  // observer hooks (most of them no-ops for these two) per attached observer.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  DetourRecorder detours;
  GuardRecorder guard;
  net.AddObserver(&detours);
  net.AddObserver(&guard);
  RunPacketHops(state, sim, net);
}
BENCHMARK(BM_SwitchPacketHopRecorders);

void BM_SwitchPacketHopTraceFiltered(benchmark::State& state) {
  // Same hop loop with a trace bus registered but filtering everything out
  // (sample=0): the cost of *armed* tracing that emits nothing. This is the
  // price paid per hook call when a user traces one flow out of millions.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  TraceBus bus(&net.topology());
  TraceFilter filter;
  filter.sample = 0.0;
  bus.SetFilter(filter);
  net.AddObserver(&bus);
  RunPacketHops(state, sim, net);
}
BENCHMARK(BM_SwitchPacketHopTraceFiltered);

void BM_SwitchPacketHopTraceRing(benchmark::State& state) {
  // Same hop loop with full tracing into a flight-recorder ring (pass-all
  // filter): the in-memory cost ceiling, with no file I/O on the hot path.
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  TraceBus bus(&net.topology());
  FlightRecorder ring(/*capacity=*/65536);
  bus.AddSink(&ring);
  net.AddObserver(&bus);
  RunPacketHops(state, sim, net);
  benchmark::DoNotOptimize(ring.total_events());
}
BENCHMARK(BM_SwitchPacketHopTraceRing);

void BM_PercentileOf100k(benchmark::State& state) {
  std::vector<double> values;
  values.reserve(100000);
  uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 100000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    values.push_back(static_cast<double>(x % 1000000));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Percentile(values, 99));
  }
}
BENCHMARK(BM_PercentileOf100k);

}  // namespace
}  // namespace dibs

BENCHMARK_MAIN();

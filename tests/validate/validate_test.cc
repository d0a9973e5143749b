// DIBS_VALIDATE fault-injection tests: deliberately corrupt simulator and
// queue state and assert the invariant checker catches each fault with the
// expected structured diagnostic — plus positive end-to-end runs proving the
// conservation ledger balances on healthy traffic.

#include <gtest/gtest.h>

#include <vector>

#include "src/device/host_node.h"
#include "src/device/invariant_checker.h"
#include "src/device/network.h"
#include "src/device/port.h"
#include "src/device/switch_node.h"
#include "src/net/droptail_queue.h"
#include "src/net/packet_debug.h"
#include "src/net/pfabric_queue.h"
#include "src/topo/builders.h"
#include "src/transport/flow_manager.h"
#include "src/util/validation.h"

namespace dibs {
namespace {

Packet MakePacket(uint64_t uid, uint32_t size_bytes = 1500) {
  Packet p;
  p.uid = uid;
  p.src = 0;
  p.dst = 1;
  p.size_bytes = size_bytes;
  p.flow = 1;
  return p;
}

// Runs `fn`, captures the ValidationError it must throw, and returns it.
template <typename Fn>
ValidationError CaptureViolation(Fn&& fn) {
  try {
    fn();
  } catch (const ValidationError& e) {
    return e;
  }
  ADD_FAILURE() << "expected a ValidationError, none was thrown";
  return ValidationError("none", "none");
}

// Fault injection 1: a skewed queue byte counter must trip queue.bytes on the
// next validated queue operation.
TEST(ValidateFaultInjection, CorruptDropTailByteCountIsCaught) {
  validate::ScopedEnable on;
  DropTailQueue q(/*capacity_packets=*/10);
  ASSERT_TRUE(q.Enqueue(MakePacket(1)));
  q.TestOnlyCorruptBytes(64);
  const ValidationError e = CaptureViolation([&] { q.Dequeue(); });
  EXPECT_EQ(e.invariant(), "queue.bytes");
  EXPECT_NE(e.detail().find("byte counter"), std::string::npos) << e.what();
}

TEST(ValidateFaultInjection, CorruptPfabricByteCountIsCaught) {
  validate::ScopedEnable on;
  PfabricQueue q(/*capacity_packets=*/24);
  ASSERT_TRUE(q.Enqueue(MakePacket(1)));
  q.TestOnlyCorruptBytes(-7);
  const ValidationError e = CaptureViolation([&] { q.Enqueue(MakePacket(2)); });
  EXPECT_EQ(e.invariant(), "queue.bytes");
}

// Fault injection 2: scheduling an event into the simulated past must throw
// sim.schedule-past instead of silently reordering time.
TEST(ValidateFaultInjection, ScheduleIntoPastIsCaught) {
  validate::ScopedEnable on;
  Simulator sim;
  sim.RunUntil(Time::Millis(5));
  const ValidationError e =
      CaptureViolation([&] { sim.ScheduleAt(Time::Millis(1), [] {}); });
  EXPECT_EQ(e.invariant(), "sim.schedule-past");
  EXPECT_NE(e.detail().find("past"), std::string::npos) << e.what();
}

// Fault injection 3: a packet that is injected but never reaches a terminal
// state is a leak; CheckQuiescent must name the leaked uid.
TEST(ValidateFaultInjection, LeakedPacketIsCaught) {
  validate::ScopedEnable on;
  InvariantChecker checker;
  checker.OnHostSend(0, MakePacket(/*uid=*/7), Time::Zero());
  EXPECT_EQ(checker.injected(), 1u);
  const ValidationError e = CaptureViolation([&] { checker.CheckQuiescent(); });
  EXPECT_EQ(e.invariant(), "ledger.leak");
  EXPECT_NE(e.detail().find("7"), std::string::npos) << e.what();

  // The same leak is visible mid-run as a balance violation: the packet is
  // neither buffered anywhere nor on any wire.
  const ValidationError b = CaptureViolation([&] { checker.CheckBalanced(0); });
  EXPECT_EQ(b.invariant(), "ledger.balance");
}

TEST(ValidateFaultInjection, DoubleDeliveryIsCaught) {
  validate::ScopedEnable on;
  InvariantChecker checker;
  checker.OnHostSend(0, MakePacket(3), Time::Zero());
  checker.OnHostDeliver(1, MakePacket(3), Time::Zero());
  const ValidationError e = CaptureViolation(
      [&] { checker.OnHostDeliver(1, MakePacket(3), Time::Zero()); });
  EXPECT_EQ(e.invariant(), "ledger.terminal-reuse");
  EXPECT_NE(e.detail().find("delivered"), std::string::npos) << e.what();
}

TEST(ValidateFaultInjection, DuplicateUidInjectionIsCaught) {
  validate::ScopedEnable on;
  InvariantChecker checker;
  checker.OnHostSend(0, MakePacket(9), Time::Zero());
  const ValidationError e =
      CaptureViolation([&] { checker.OnHostSend(0, MakePacket(9), Time::Zero()); });
  EXPECT_EQ(e.invariant(), "ledger.duplicate-uid");
}

TEST(ValidateFaultInjection, TtlGrowthIsCaught) {
  validate::ScopedEnable on;
  InvariantChecker checker;
  Packet p = MakePacket(4);
  p.ttl = 8;
  checker.OnHostSend(0, p, Time::Zero());
  p.ttl = 9;
  const ValidationError e =
      CaptureViolation([&] { checker.OnHostDeliver(1, p, Time::Zero()); });
  EXPECT_EQ(e.invariant(), "ledger.ttl-grew");
}

// Fault injection 4: a packet delivered through a DOWN port must trip the
// dead-port-delivery invariant. Down ports drain their queue and blackhole
// new enqueues, so a correct device never transmits on a dead link; here we
// simulate the device bug by pushing straight into the queue (bypassing
// EnqueueAndTransmit's blackhole) and kicking the transmitter.
TEST(ValidateFaultInjection, DeliveryThroughDownPortIsCaught) {
  validate::ScopedEnable on;
  Topology t;
  const int sw = t.AddNode(NodeKind::kSwitch, "sw");
  for (int i = 0; i < 2; ++i) {
    const int h = t.AddHost("h" + std::to_string(i));
    t.AddLink(h, sw, kGbps, Time::Micros(1));
  }
  Simulator sim;
  Network net(&sim, std::move(t), NetworkConfig{});
  ASSERT_NE(net.invariant_checker(), nullptr);

  net.SetLinkAdminState(/*link=*/1, false);  // sw -- host1
  Port& port = net.switch_at(sw).port(1);
  ASSERT_FALSE(port.link_up());
  ASSERT_TRUE(port.queue().Enqueue(MakePacket(net.NextPacketUid())));
  const ValidationError e = CaptureViolation([&] { port.SetPaused(false); });
  EXPECT_EQ(e.invariant(), "ledger.dead-port-delivery");
  EXPECT_NE(e.detail().find("down"), std::string::npos) << e.what();
}

// The diagnostic identifies the packet by uid — the key that looks up its
// full path in a flight-recorder dump (per-packet path traces now live in
// src/trace, not on the Packet).
TEST(ValidateDiagnostics, DescriptionIdentifiesPacketByUid) {
  Packet p = MakePacket(11);
  p.detour_count = 3;
  const std::string desc = DescribePacket(p);
  EXPECT_NE(desc.find("uid=11"), std::string::npos) << desc;
  EXPECT_NE(desc.find("detours=3"), std::string::npos) << desc;
}

// pFabric destroys packets internally on overflow; the eviction handler is
// how those losses reach the conservation ledger.
TEST(ValidateDiagnostics, PfabricEvictionHandlerSeesDestroyedPackets) {
  PfabricQueue q(/*capacity_packets=*/2);
  std::vector<uint64_t> evicted;
  q.SetEvictionHandler([&](const Packet& dead) { evicted.push_back(dead.uid); });
  Packet a = MakePacket(1);
  a.priority = 10;
  Packet b = MakePacket(2);
  b.priority = 20;
  ASSERT_TRUE(q.Enqueue(std::move(a)));
  ASSERT_TRUE(q.Enqueue(std::move(b)));
  // Higher-priority (lower value) arrival evicts uid 2, the buffered worst.
  Packet c = MakePacket(3);
  c.priority = 5;
  ASSERT_TRUE(q.Enqueue(std::move(c)));
  // Lower-priority arrival loses outright and is destroyed itself.
  Packet d = MakePacket(4);
  d.priority = 99;
  EXPECT_FALSE(q.Enqueue(std::move(d)));
  EXPECT_EQ(evicted, (std::vector<uint64_t>{2, 4}));
}

// Positive end-to-end: a healthy run injects real traffic through host NICs
// and the ledger balances to zero at quiescence.
TEST(ValidateEndToEnd, HealthyFlowBalancesLedger) {
  validate::ScopedEnable on;
  Simulator sim;
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  ASSERT_NE(net.invariant_checker(), nullptr);
  FlowManager flows(&net, TransportKind::kDctcp);
  bool done = false;
  flows.StartFlow(0, 5, 200000, TrafficClass::kBackground,
                  [&](const FlowResult&) { done = true; });
  sim.Run();
  ASSERT_TRUE(done);
  const InvariantChecker& checker = *net.invariant_checker();
  EXPECT_GT(checker.injected(), 0u);
  EXPECT_EQ(checker.injected(), checker.delivered() + checker.dropped());
  EXPECT_EQ(checker.on_wire(), 0u);
  EXPECT_NO_THROW(checker.CheckQuiescent());
  EXPECT_NO_THROW(checker.CheckBalanced(net.TotalBufferedPackets()));
}

// Positive end-to-end under heavy detouring: tiny switch buffers force DIBS
// detours (and TTL drops), and the ledger still balances — detoured packets
// are never double-counted and TTL expiries land as drops.
TEST(ValidateEndToEnd, DetourStormBalancesLedger) {
  validate::ScopedEnable on;
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 3;
  cfg.detour_policy = "random";
  Simulator sim(31);
  Network net(&sim, BuildPaperFatTree(), cfg);
  ASSERT_NE(net.invariant_checker(), nullptr);
  for (HostId src = 1; src <= 20; ++src) {
    for (int i = 0; i < 5; ++i) {
      Packet p = MakePacket(net.NextPacketUid());
      p.src = src;
      p.dst = 0;
      p.ttl = 20;
      p.flow = static_cast<FlowId>(src);
      net.host(src).Send(std::move(p));
    }
  }
  sim.Run();
  EXPECT_GT(net.total_detours(), 0u);
  const InvariantChecker& checker = *net.invariant_checker();
  EXPECT_EQ(checker.injected(), 100u);
  EXPECT_EQ(checker.injected(), checker.delivered() + checker.dropped());
  EXPECT_NO_THROW(checker.CheckQuiescent());
  EXPECT_NO_THROW(checker.CheckBalanced(net.TotalBufferedPackets()));
}

// Positive end-to-end over a lossy link: a packet is on the wire from its
// wire-enter until it lands or the loss draw kills it, so the balance holds
// at every mid-flight event boundary, not only at quiescence.
TEST(ValidateEndToEnd, LossyLinkBalancesLedgerMidFlight) {
  validate::ScopedEnable on;
  Simulator sim(17);
  Network net(&sim, BuildEmulabTestbed(), NetworkConfig{});
  ASSERT_NE(net.invariant_checker(), nullptr);
  const Topology& topo = net.topology();
  net.SetLinkDegraded(topo.ports(topo.host_node(0))[0].link, 0.5, Time::Zero());
  for (int i = 0; i < 100; ++i) {
    Packet p = MakePacket(net.NextPacketUid());
    p.dst = 5;
    net.host(0).Send(std::move(p));
  }
  const InvariantChecker& checker = *net.invariant_checker();
  int mid_flight_checks = 0;
  for (Time t = Time::Micros(5); sim.pending_events() > 0; t = t + Time::Micros(50)) {
    sim.RunUntil(t);
    ASSERT_NO_THROW(checker.CheckBalanced(net.TotalBufferedPackets())) << "at " << t.nanos();
    mid_flight_checks += checker.in_flight() > 0 && checker.on_wire() > 0 ? 1 : 0;
  }
  EXPECT_GE(mid_flight_checks, 3);
  EXPECT_GT(checker.fault_dropped(), 0u);
  EXPECT_EQ(checker.injected(), 100u);
  EXPECT_EQ(checker.on_wire(), 0u);
  EXPECT_NO_THROW(checker.CheckQuiescent());
}

}  // namespace
}  // namespace dibs

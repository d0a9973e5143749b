#include "src/device/port.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/device/network.h"
#include "src/device/host_node.h"
#include "src/net/droptail_queue.h"
#include "src/topo/builders.h"

namespace dibs {
namespace {

// Two hosts hanging off one switch: host0 -- sw -- host1, 1Gbps, 1us delay.
Topology TwoHostTopology() {
  Topology t;
  const int sw = t.AddNode(NodeKind::kSwitch, "sw");
  for (int i = 0; i < 2; ++i) {
    const int h = t.AddHost("h" + std::to_string(i));
    t.AddLink(h, sw, kGbps, Time::Micros(1));
  }
  return t;
}

Packet RawPacket(Network& net, HostId src, HostId dst, uint32_t size = 1500) {
  Packet p;
  p.uid = net.NextPacketUid();
  p.src = src;
  p.dst = dst;
  p.size_bytes = size;
  p.ttl = 64;
  p.flow = 1;
  p.sent_time = net.sim().Now();
  return p;
}

TEST(PortTest, EndToEndLatencyIsSerializationPlusPropagation) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  Time delivered;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { delivered = sim.Now(); });

  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  // Two hops: (12us serialization + 1us propagation) each = 26us.
  EXPECT_EQ(delivered, Time::Micros(26));
}

TEST(PortTest, SmallPacketsAreFaster) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  Time delivered;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { delivered = sim.Now(); });

  net.host(0).Send(RawPacket(net, 0, 1, /*size=*/40));  // ACK-sized
  sim.Run();
  // 40B at 1Gbps = 320ns per hop + 1us delay: 2*(320ns + 1us) = 2.64us.
  EXPECT_EQ(delivered, Time::Nanos(2640));
}

TEST(PortTest, BackToBackPacketsPipelineAtLineRate) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  std::vector<Time> arrivals;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { arrivals.push_back(sim.Now()); });

  for (int i = 0; i < 10; ++i) {
    net.host(0).Send(RawPacket(net, 0, 1));
  }
  sim.Run();
  ASSERT_EQ(arrivals.size(), 10u);
  // Consecutive deliveries exactly one serialization time (12us) apart.
  for (size_t i = 1; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i] - arrivals[i - 1], Time::Micros(12));
  }
}

TEST(PortTest, TransmitCountersAdvance) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  net.host(0).Send(RawPacket(net, 0, 1));
  net.host(0).Send(RawPacket(net, 0, 1));
  sim.Run();
  EXPECT_EQ(net.host(0).nic().packets_sent(), 2u);
  EXPECT_EQ(net.host(0).nic().bytes_sent(), 3000u);
}

TEST(PortTest, BoundedHostQueueDropsBurst) {
  NetworkConfig cfg;
  cfg.host_queue_packets = 5;
  Simulator sim;
  Network net(&sim, TwoHostTopology(), cfg);
  // 1 in flight + 5 queued = 6 accepted; the rest are NIC drops.
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    accepted += net.host(0).Send(RawPacket(net, 0, 1)) ? 1 : 0;
  }
  sim.Run();
  EXPECT_EQ(accepted, 6);
  EXPECT_EQ(net.host(0).nic_drops(), 14u);
  EXPECT_EQ(net.total_delivered(), 6u);
}

TEST(PortTest, StrayPacketsCounted) {
  Simulator sim;
  Network net(&sim, TwoHostTopology(), NetworkConfig{});
  net.host(0).Send(RawPacket(net, 0, 1));  // no receiver registered for flow 1
  sim.Run();
  EXPECT_EQ(net.host(1).stray_packets(), 1u);
  EXPECT_EQ(net.total_delivered(), 1u);
}

// Records every packet it receives, with its arrival time.
class SinkNode : public Node {
 public:
  SinkNode(int id, Simulator* sim) : Node(id), sim_(sim) {}
  void HandleReceive(Packet&& p, uint16_t /*in_port*/) override {
    arrivals.push_back({p.uid, sim_->Now()});
  }

  struct Arrival {
    uint64_t uid;
    Time at;
  };
  std::vector<Arrival> arrivals;

 private:
  Simulator* sim_;
};

// A bare jittered link: 40-byte packets (320 ns at 1 Gbps) leave every 1 us,
// while the jitter is 5 us, so later packets can overtake earlier ones on
// the wire. Returns the peer's arrival log; `sent_at` gets each uid's
// transmit-start time.
std::vector<SinkNode::Arrival> RunJitteredLink(uint64_t seed, int packets, Time jitter,
                                               std::map<uint64_t, Time>* sent_at) {
  Simulator sim(seed);
  SinkNode sender(0, &sim);
  SinkNode peer(1, &sim);
  Port port(&sim, &sender, 0, std::make_unique<DropTailQueue>(packets), kGbps,
            Time::Micros(1));
  port.Connect(&peer, 0, /*peer_is_switch=*/false);
  port.SetDegraded(/*loss_probability=*/0, jitter);
  for (int i = 0; i < packets; ++i) {
    sim.ScheduleAt(Time::Micros(i), [&sim, &port, sent_at, i] {
      Packet p;
      p.uid = static_cast<uint64_t>(i) + 1;
      p.size_bytes = 40;
      (*sent_at)[p.uid] = sim.Now();
      ASSERT_TRUE(port.EnqueueAndTransmit(std::move(p)));
    });
  }
  sim.Run();
  return peer.arrivals;
}

TEST(PortTest, JitteredLinkDeliversEveryPacketOnceWithinItsWindow) {
  constexpr int kPackets = 200;
  const Time jitter = Time::Micros(5);
  const Time base = SerializationDelay(40, kGbps) + Time::Micros(1);
  std::map<uint64_t, Time> sent_at;
  const std::vector<SinkNode::Arrival> arrivals =
      RunJitteredLink(/*seed=*/7, kPackets, jitter, &sent_at);

  ASSERT_EQ(arrivals.size(), static_cast<size_t>(kPackets));
  std::map<uint64_t, int> deliveries;
  bool reordered = false;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    const SinkNode::Arrival& a = arrivals[i];
    ++deliveries[a.uid];
    ASSERT_EQ(sent_at.count(a.uid), 1u) << "uid " << a.uid << " was never sent";
    const Time latency = a.at - sent_at[a.uid];
    EXPECT_GE(latency, base) << "uid " << a.uid;
    EXPECT_LE(latency, base + jitter) << "uid " << a.uid;
    if (i > 0 && a.uid < arrivals[i - 1].uid) {
      reordered = true;
    }
  }
  EXPECT_EQ(deliveries.size(), static_cast<size_t>(kPackets));
  for (const auto& [uid, count] : deliveries) {
    EXPECT_EQ(count, 1) << "uid " << uid;
  }
  // The jitter exceeds the send spacing, so the wire must have reordered
  // something; otherwise this test does not exercise out-of-order delivery.
  EXPECT_TRUE(reordered);
}

TEST(PortTest, JitteredLinkOrderIsSeedDeterministic) {
  auto order = [](uint64_t seed) {
    std::map<uint64_t, Time> sent_at;
    std::vector<uint64_t> uids;
    for (const SinkNode::Arrival& a : RunJitteredLink(seed, 200, Time::Micros(5), &sent_at)) {
      uids.push_back(a.uid);
    }
    return uids;
  };
  EXPECT_EQ(order(7), order(7));
  EXPECT_NE(order(7), order(8));
}

}  // namespace
}  // namespace dibs

#include "src/device/switch_node.h"

#include <gtest/gtest.h>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/stats/detour_recorder.h"
#include "src/topo/builders.h"
#include "src/trace/journey.h"
#include "src/trace/trace_bus.h"

namespace dibs {
namespace {

Packet RawPacket(Network& net, HostId src, HostId dst, uint8_t ttl = 64, FlowId flow = 1) {
  Packet p;
  p.uid = net.NextPacketUid();
  p.src = src;
  p.dst = dst;
  p.size_bytes = 1500;
  p.ttl = ttl;
  p.flow = flow;
  p.sent_time = net.sim().Now();
  return p;
}

TEST(SwitchTest, ForwardsAcrossFatTree) {
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  bool got = false;
  net.host(127).RegisterFlowReceiver(1, [&](Packet&& p) { got = true; });
  net.host(0).Send(RawPacket(net, 0, 127));
  sim.Run();
  EXPECT_TRUE(got);
  EXPECT_EQ(net.total_drops(), 0u);
}

TEST(SwitchTest, TtlDecrementsPerSwitchHop) {
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  uint8_t arrived_ttl = 0;
  net.host(127).RegisterFlowReceiver(1, [&](Packet&& p) { arrived_ttl = p.ttl; });
  net.host(0).Send(RawPacket(net, 0, 127, /*ttl=*/64));
  sim.Run();
  // Cross-pod path: edge, aggr, core, aggr, edge = 5 switch hops.
  EXPECT_EQ(arrived_ttl, 64 - 5);
}

TEST(SwitchTest, TtlExpiryDropsPacket) {
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  DetourRecorder rec;
  net.AddObserver(&rec);
  bool got = false;
  net.host(127).RegisterFlowReceiver(1, [&](Packet&& p) { got = true; });
  net.host(0).Send(RawPacket(net, 0, 127, /*ttl=*/3));  // needs 5 switch hops
  sim.Run();
  EXPECT_FALSE(got);
  EXPECT_EQ(rec.drops(DropReason::kTtlExpired), 1u);
}

TEST(SwitchTest, IntraPodTrafficStaysCheap) {
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  uint8_t arrived_ttl = 0;
  net.host(1).RegisterFlowReceiver(1, [&](Packet&& p) { arrived_ttl = p.ttl; });
  // Hosts 0 and 1 share an edge switch: 1 switch hop.
  net.host(0).Send(RawPacket(net, 0, 1, /*ttl=*/64));
  sim.Run();
  EXPECT_EQ(arrived_ttl, 63);
}

class OverflowFixture : public ::testing::Test {
 protected:
  // Small 10-packet buffers force overflow with a modest burst. All senders
  // target host 0 through its edge switch. (Buffers of 1-2 packets are so
  // small that even DIBS legitimately drops when every eligible port fills —
  // 10 leaves the fabric enough detour capacity to be lossless.)
  void Run(const std::string& policy, int senders = 5, int packets_each = 10) {
    NetworkConfig cfg;
    cfg.switch_buffer_packets = 10;
    cfg.ecn_threshold_packets = 0;
    cfg.detour_policy = policy;
    sim_ = std::make_unique<Simulator>(7);
    net_ = std::make_unique<Network>(sim_.get(), BuildPaperFatTree(), cfg);
    net_->AddObserver(&rec_);
    net_->host(0).RegisterFlowReceiver(1, [&](Packet&& p) { ++received_; });
    for (int s = 1; s <= senders; ++s) {
      for (int i = 0; i < packets_each; ++i) {
        // Distinct flows so ECMP spreads them; same flow id for demux (all
        // flows use id 1 here since we only count arrivals).
        Packet p = RawPacket(*net_, static_cast<HostId>(s), 0, 255, /*flow=*/1);
        net_->host(static_cast<HostId>(s)).Send(std::move(p));
      }
    }
    sim_->Run();
  }

  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  DetourRecorder rec_;
  int received_ = 0;
};

TEST_F(OverflowFixture, DropTailDropsUnderBurst) {
  Run("none");
  EXPECT_GT(net_->total_drops(), 0u);
  EXPECT_EQ(net_->total_detours(), 0u);
  EXPECT_LT(received_, 50);
}

TEST_F(OverflowFixture, DibsDetoursInsteadOfDropping) {
  Run("random");
  EXPECT_GT(net_->total_detours(), 0u);
  EXPECT_EQ(net_->total_drops(), 0u);
  EXPECT_EQ(received_, 50);  // every packet eventually arrives
}

TEST_F(OverflowFixture, DetouredPacketsGetCeMarkOnlyIfEct) {
  Run("random");
  // Raw packets had ect=false: no CE marks despite detours.
  EXPECT_GT(net_->total_detours(), 0u);
  EXPECT_EQ(rec_.delivered_marked(), 0u);
}

TEST(SwitchTest, DetouredEctPacketsAreCeMarked) {
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 10;
  cfg.detour_policy = "random";
  Simulator sim(7);
  Network net(&sim, BuildPaperFatTree(), cfg);
  DetourRecorder rec;
  net.AddObserver(&rec);
  int received = 0;
  net.host(0).RegisterFlowReceiver(1, [&](Packet&& p) { ++received; });
  for (int s = 1; s <= 5; ++s) {
    for (int i = 0; i < 10; ++i) {
      Packet p;
      p.uid = net.NextPacketUid();
      p.src = static_cast<HostId>(s);
      p.dst = 0;
      p.size_bytes = 1500;
      p.ttl = 64;
      p.ect = true;
      p.flow = 1;
      net.host(static_cast<HostId>(s)).Send(std::move(p));
    }
  }
  sim.Run();
  EXPECT_GT(net.total_detours(), 0u);
  EXPECT_GT(rec.delivered_marked(), 0u);
  EXPECT_EQ(received, 50);
}

TEST(SwitchTest, DetourCountsRecordedOnPackets) {
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 1;
  cfg.detour_policy = "random";
  Simulator sim(11);
  Network net(&sim, BuildPaperFatTree(), cfg);
  uint32_t max_detours = 0;
  net.host(0).RegisterFlowReceiver(1, [&](Packet&& p) {
    max_detours = std::max<uint32_t>(max_detours, p.detour_count);
  });
  for (int s = 1; s <= 8; ++s) {
    for (int i = 0; i < 10; ++i) {
      Packet p;
      p.uid = net.NextPacketUid();
      p.src = static_cast<HostId>(s);
      p.dst = 0;
      p.size_bytes = 1500;
      p.ttl = 255;
      p.flow = static_cast<FlowId>(s);
      net.host(static_cast<HostId>(s)).Send(std::move(p));
    }
  }
  sim.Run();
  EXPECT_GT(max_detours, 0u);
}

TEST(SwitchTest, JourneyRecordsDetourHops) {
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 1;
  cfg.detour_policy = "random";
  Simulator sim(13);
  Network net(&sim, BuildPaperFatTree(), cfg);
  TraceBus bus(&net.topology());
  JourneyBuilder journeys;
  bus.AddSink(&journeys);
  net.AddObserver(&bus);
  for (int s = 1; s <= 8; ++s) {
    for (int i = 0; i < 10; ++i) {
      Packet p;
      p.uid = net.NextPacketUid();
      p.src = static_cast<HostId>(s);
      p.dst = 0;
      p.size_bytes = 1500;
      p.ttl = 255;
      p.flow = static_cast<FlowId>(s);
      net.host(static_cast<HostId>(s)).Send(std::move(p));
    }
  }
  sim.Run();
  // At least one delivered packet was detoured, and its reconstructed
  // journey shows the detoured hop with non-decreasing hop times.
  const PacketJourney* detoured = nullptr;
  for (const auto& [uid, j] : journeys.journeys()) {
    if (j.delivered && j.detour_count > 0) {
      detoured = &j;
      break;
    }
  }
  ASSERT_NE(detoured, nullptr);
  bool any_detoured_hop = false;
  for (const JourneyHop& hop : detoured->hops) {
    any_detoured_hop |= hop.detoured;
  }
  EXPECT_TRUE(any_detoured_hop);
  for (size_t i = 1; i < detoured->hops.size(); ++i) {
    EXPECT_GE(detoured->hops[i].enqueue_at, detoured->hops[i - 1].enqueue_at);
  }
}

TEST(SwitchTest, PfcStormWithAllUplinksPausedDropsAsNoEligibleDetour) {
  // Fabric-wide PFC storm seen from one edge switch: every switch-facing
  // port is paused, so when the host-facing queue overflows the eligible
  // detour set is structurally empty. That is kNoEligibleDetour — distinct
  // from kNoDetourAvailable, which means live candidates existed but all
  // were full.
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 2;
  cfg.ecn_threshold_packets = 0;
  cfg.detour_policy = "random";
  Simulator sim(7);
  Network net(&sim, BuildPaperFatTree(), cfg);
  DetourRecorder rec;
  net.AddObserver(&rec);
  int received = 0;
  net.host(0).RegisterFlowReceiver(1, [&](Packet&&) { ++received; });
  SwitchNode& edge =
      net.switch_at(net.topology().ports(net.topology().host_node(0))[0].neighbor);
  for (uint16_t i = 0; i < edge.num_ports(); ++i) {
    if (edge.port(i).peer_is_switch()) {
      edge.SetPortPaused(i, true);
    }
  }
  // 3:1 overload on host 0's port from rack-mates; the 2-packet queue fills
  // and every overflow packet reaches the detour decision point.
  for (HostId s = 1; s <= 3; ++s) {
    for (int i = 0; i < 10; ++i) {
      net.host(s).Send(RawPacket(net, s, 0));
    }
  }
  sim.Run();
  EXPECT_GT(rec.drops(DropReason::kNoEligibleDetour), 0u);
  EXPECT_EQ(rec.drops(DropReason::kNoDetourAvailable), 0u);
  EXPECT_EQ(net.total_detours(), 0u);  // nothing eligible, so nothing moved
  EXPECT_GT(received, 0);              // the desired queue still drains
}

TEST(SwitchTest, PartialPauseStillDetoursWithoutEligibilityDrops) {
  // Same burst, but one uplink stays live: the eligible set is non-empty, so
  // overflow detours instead of dying as no-eligible-detour.
  NetworkConfig cfg;
  cfg.switch_buffer_packets = 2;
  cfg.ecn_threshold_packets = 0;
  cfg.detour_policy = "random";
  Simulator sim(7);
  Network net(&sim, BuildPaperFatTree(), cfg);
  DetourRecorder rec;
  net.AddObserver(&rec);
  net.host(0).RegisterFlowReceiver(1, [](Packet&&) {});
  SwitchNode& edge =
      net.switch_at(net.topology().ports(net.topology().host_node(0))[0].neighbor);
  bool spared_one = false;
  for (uint16_t i = 0; i < edge.num_ports(); ++i) {
    if (edge.port(i).peer_is_switch()) {
      if (!spared_one) {
        spared_one = true;
        continue;
      }
      edge.SetPortPaused(i, true);
    }
  }
  for (HostId s = 1; s <= 3; ++s) {
    for (int i = 0; i < 10; ++i) {
      net.host(s).Send(RawPacket(net, s, 0));
    }
  }
  sim.Run();
  EXPECT_GT(net.total_detours(), 0u);
  EXPECT_EQ(rec.drops(DropReason::kNoEligibleDetour), 0u);
}

TEST(SwitchTest, BufferedPacketAccounting) {
  Simulator sim;
  Network net(&sim, BuildPaperFatTree(), NetworkConfig{});
  // K=8 switch: 8 ports * 100 packets.
  SwitchNode& sw = net.switch_at(net.switch_ids()[0]);
  EXPECT_EQ(sw.num_ports(), 8u);
  EXPECT_EQ(sw.buffer_capacity_packets(), 800u);
  EXPECT_EQ(sw.buffered_packets(), 0u);
}

}  // namespace
}  // namespace dibs

// Figure 1 reproduction: the path of a single packet that DIBS detoured many
// times on its way to a hot destination. Prints the hop-by-hop trace and the
// arc multiset (how often each switch-to-switch arc was traversed), which is
// exactly what the paper's Figure 1 visualizes.
//
// Doubles as the minimal manual-wiring example for the trace subsystem: a
// TraceBus feeding a JourneyBuilder, registered straight on the Network —
// no Scenario, no env vars.

#include <iostream>
#include <map>

#include "src/device/host_node.h"
#include "src/device/network.h"
#include "src/topo/builders.h"
#include "src/trace/journey.h"
#include "src/trace/trace_bus.h"
#include "src/transport/flow_manager.h"
#include "src/workload/query.h"

using namespace dibs;

int main() {
  // Small buffers + a 100-way incast make heavy detouring certain.
  NetworkConfig net_cfg;
  net_cfg.detour_policy = "random";
  net_cfg.switch_buffer_packets = 20;
  net_cfg.ecn_threshold_packets = 10;

  Simulator sim(7);
  Network net(&sim, BuildPaperFatTree(), net_cfg);
  FlowManager flows(&net, TransportKind::kDctcp, TcpConfig::DibsDefault());

  // Reconstruct every packet's journey from the event stream.
  TraceBus bus(&net.topology());
  JourneyBuilder journeys;
  bus.AddSink(&journeys);
  net.AddObserver(&bus);

  QueryWorkload::Options q;
  q.qps = 50;
  q.degree = 100;
  q.response_bytes = 20000;
  q.max_queries = 3;
  QueryWorkload queries(&net, &flows, q, nullptr);
  queries.Start();

  sim.RunUntil(Time::Millis(200));

  // Grab the most-detoured delivered packet.
  const PacketJourney* best = nullptr;
  for (const auto& [uid, j] : journeys.journeys()) {
    if (j.delivered && (best == nullptr || j.detour_count > best->detour_count)) {
      best = &j;
    }
  }
  if (best == nullptr || best->detour_count == 0) {
    std::cout << "no packet was detoured — increase the load\n";
    return 1;
  }

  const Topology& topo = net.topology();
  std::cout << "Most-detoured delivered packet: uid " << best->uid << ", flow "
            << best->flow << ", " << best->detour_count << " detours, src host "
            << best->src << " -> dst host " << best->dst
            << "\n  in network " << best->TotalTime() << " (queueing "
            << best->QueueingTime() << ", wire " << best->WireTime()
            << ", detour overhead " << best->DetourOverhead() << ")"
            << (best->HasLoop() ? ", looped" : "")
            << "\n\nHop-by-hop (node, enqueue time, depth-after, detoured?):\n";
  for (const JourneyHop& hop : best->hops) {
    std::cout << "  " << topo.node(hop.node).name << " port " << hop.port << " @ "
              << hop.enqueue_at << "  depth " << hop.depth_at_enqueue
              << (hop.detoured ? "  [detour]" : "") << "\n";
  }

  // Figure 1 proper: arc traversal counts.
  std::cout << "\nArc multiset (Figure 1's edge weights):\n";
  std::map<std::pair<int, int>, int> arcs;
  for (size_t i = 1; i < best->hops.size(); ++i) {
    arcs[{best->hops[i - 1].node, best->hops[i].node}]++;
  }
  for (const auto& [arc, count] : arcs) {
    std::cout << "  " << topo.node(arc.first).name << " -> " << topo.node(arc.second).name
              << "  x" << count << "\n";
  }
  return 0;
}

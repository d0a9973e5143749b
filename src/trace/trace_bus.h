// TraceBus: a NetworkObserver (register it with Network::AddObserver) that
// turns each hook into a TraceEvent, applies the runtime filter (node set,
// flow set, traffic class, head-sampling rate) once per event, and forwards
// survivors to every registered sink. Sampling is a pure hash of the packet
// uid — no RNG state is consumed, so attaching a bus can never perturb the
// simulation, and the same uids are sampled on every run of a given workload.

#ifndef SRC_TRACE_TRACE_BUS_H_
#define SRC_TRACE_TRACE_BUS_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/device/observer.h"
#include "src/topo/topology.h"
#include "src/trace/trace_event.h"
#include "src/trace/trace_sink.h"

namespace dibs {

struct TraceFilter {
  // Empty = all nodes / all flows. Kept sorted for binary search.
  std::vector<int32_t> nodes;
  std::vector<FlowId> flows;
  int tclass = -1;      // -1 = all traffic classes
  double sample = 1.0;  // head-sampling fraction of packet uids, [0,1]

  void Normalize() {
    std::sort(nodes.begin(), nodes.end());
    std::sort(flows.begin(), flows.end());
    sample = std::max(0.0, std::min(1.0, sample));
  }

  bool pass_all() const {
    return nodes.empty() && flows.empty() && tclass < 0 && sample >= 1.0;
  }
};

// Deterministic per-uid coin flip: a multiplicative hash of the uid compared
// against sample * 2^53. Fibonacci-hashing constant spreads sequential uids.
inline bool SampledUid(uint64_t uid, double sample) {
  if (sample >= 1.0) {
    return true;
  }
  if (sample <= 0.0) {
    return false;
  }
  const uint64_t h = (uid * 0x9E3779B97F4A7C15ull) >> 11;  // top 53 bits
  return static_cast<double>(h) < sample * 9007199254740992.0;  // 2^53
}

class TraceBus : public NetworkObserver {
 public:
  // `topology` (not owned) maps host ids to node ids for host and transport
  // events; it may be null for a bus that is only fed through Emit.
  explicit TraceBus(const Topology* topology = nullptr) : topo_(topology) {}

  void SetFilter(TraceFilter filter) {
    filter_ = std::move(filter);
    filter_.Normalize();
    pass_all_ = filter_.pass_all();
  }
  const TraceFilter& filter() const { return filter_; }

  // Sinks are not owned; callers keep them alive for the bus's lifetime.
  void AddSink(TraceSink* sink) { sinks_.push_back(sink); }

  void Emit(const TraceEvent& e) {
    if (!pass_all_ && !Passes(e)) {
      return;
    }
    for (TraceSink* sink : sinks_) {
      sink->OnEvent(e);
    }
  }

  void Finish() {
    for (TraceSink* sink : sinks_) {
      sink->Finish();
    }
  }

  // ---- NetworkObserver hooks ----

  void OnHostSend(HostId host, const Packet& p, Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kHostSend, at, topo_->host_node(host), -1, p));
  }

  void OnHostDeliver(HostId host, const Packet& p, Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kHostDeliver, at, topo_->host_node(host), -1, p));
  }

  void OnEnqueuePacket(int node, uint16_t port, const Packet& p, size_t queue_depth,
                       Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kEnqueue, at, node, port, p,
                              static_cast<int32_t>(queue_depth)));
  }

  void OnDequeue(int node, uint16_t port, const Packet& p, size_t queue_depth,
                 Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kDequeue, at, node, port, p,
                              static_cast<int32_t>(queue_depth)));
  }

  void OnWireEnter(int node, uint16_t port, const Packet& p, bool link_up, Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kWireEnter, at, node, port, p));
  }

  void OnWireExit(int node, uint16_t port, const Packet& p, Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kWireExit, at, node, port, p));
  }

  void OnDetour(int node, uint16_t detour_port, const Packet& p, Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kDetour, at, node, detour_port, p));
  }

  void OnDrop(int node, const Packet& p, DropReason reason, Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kDrop, at, node, -1, p, -1,
                              static_cast<uint8_t>(reason)));
  }

  void OnEvict(int node, const Packet& p, Time at) override {
    Emit(MakeTracePacketEvent(TraceEventType::kDrop, at, node, -1, p, -1, kTraceEvictionReason));
  }

  void OnTcpTimeout(HostId host, FlowId flow, uint32_t seq, Time at) override {
    EmitTransport(TraceEventType::kTcpTimeout, host, flow, seq, at);
  }

  void OnTcpRetransmit(HostId host, FlowId flow, uint32_t seq, Time at) override {
    EmitTransport(TraceEventType::kTcpRetransmit, host, flow, seq, at);
  }

  void OnPause(int node, uint16_t port, bool paused, Time at) override {
    Emit(ControlEvent(paused ? TraceEventType::kPause : TraceEventType::kUnpause, at, node, port));
  }

  // Link-scoped: port carries the link id, node stays -1.
  void OnLinkState(int link, bool up, Time at) override {
    Emit(ControlEvent(up ? TraceEventType::kLinkUp : TraceEventType::kLinkDown, at, -1, link));
  }

  void OnSwitchState(int node, bool up, Time at) override {
    Emit(ControlEvent(up ? TraceEventType::kSwitchUp : TraceEventType::kSwitchDown, at, node, -1));
  }

  // The from/to states ride the numeric port/queue_depth fields.
  void OnGuardTransition(int node, GuardState from, GuardState to, Time at) override {
    Emit(ControlEvent(TraceEventType::kGuardTransition, at, node, static_cast<int32_t>(from),
                      static_cast<int32_t>(to)));
  }

 private:
  // A non-packet event (uid 0).
  static TraceEvent ControlEvent(TraceEventType type, Time at, int32_t node, int32_t port,
                                 int32_t queue_depth = -1) {
    TraceEvent ev;
    ev.at = at;
    ev.type = type;
    ev.node = node;
    ev.port = port;
    ev.queue_depth = queue_depth;
    return ev;
  }

  // Sender-state events: attributed to the sending host's node, with a flow
  // but no packet identity.
  void EmitTransport(TraceEventType type, HostId host, FlowId flow, uint32_t seq, Time at) {
    TraceEvent ev = ControlEvent(type, at, topo_->host_node(host), -1);
    ev.flow = flow;
    ev.src = host;
    ev.seq = seq;
    Emit(ev);
  }

  bool Passes(const TraceEvent& e) const {
    if (!filter_.nodes.empty() && e.node >= 0 &&
        !std::binary_search(filter_.nodes.begin(), filter_.nodes.end(), e.node)) {
      return false;
    }
    const bool flow_passes =
        filter_.flows.empty() ||
        std::binary_search(filter_.flows.begin(), filter_.flows.end(), e.flow);
    // Non-packet events (uid 0) bypass the class/sampling dimensions. Control
    // events (pause, link/switch/guard transitions) carry no flow either;
    // transport events do, and honor the flow allow-list.
    if (e.uid == 0) {
      return flow_passes || (e.type != TraceEventType::kTcpTimeout &&
                             e.type != TraceEventType::kTcpRetransmit);
    }
    if (!flow_passes) {
      return false;
    }
    if (filter_.tclass >= 0 && e.tclass != static_cast<uint8_t>(filter_.tclass)) {
      return false;
    }
    return SampledUid(e.uid, filter_.sample);
  }

  const Topology* topo_;
  TraceFilter filter_;
  bool pass_all_ = true;
  std::vector<TraceSink*> sinks_;
};

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_BUS_H_

// Structured event-tracing taxonomy for the packet lifecycle.
//
// A TraceEvent is a fixed-size POD snapshot of one forwarding-path moment:
// host send/deliver, queue enqueue/dequeue (with queue depth), wire
// enter/exit, DIBS detour, drop (with reason), TCP timeout/retransmit,
// Ethernet pause/unpause, and fault up/down transitions. Events carry only
// simulation-time state (no wall clocks, no RNG draws), so a trace is
// bit-identical for a given seed regardless of worker count or process
// isolation — the same contract the rest of the simulator keeps.
//
// TraceBus builds these inside its NetworkObserver hooks; a run with no bus
// registered builds none.

#ifndef SRC_TRACE_TRACE_EVENT_H_
#define SRC_TRACE_TRACE_EVENT_H_

#include <cstddef>
#include <cstdint>

#include "src/net/drop_reason.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace dibs {

enum class TraceEventType : uint8_t {
  kHostSend = 0,       // host NIC accepted the packet for transmission
  kHostDeliver = 1,    // destination host received the packet
  kEnqueue = 2,        // packet admitted to an output queue (depth = after)
  kDequeue = 3,        // packet left an output queue (depth = after)
  kWireEnter = 4,      // serialization onto the link began
  kWireExit = 5,       // packet landed at the peer node
  kDetour = 6,         // DIBS detoured the packet out of `port`
  kDrop = 7,           // terminal drop (reason in drop_reason)
  kTcpTimeout = 8,     // sender RTO fired
  kTcpRetransmit = 9,  // sender retransmitted segment `seq`
  kPause = 10,         // Ethernet flow control paused a transmitter
  kUnpause = 11,       // ... and resumed it
  kLinkUp = 12,        // link (id in `port`) became effectively up
  kLinkDown = 13,      // ... effectively down (admin or crash)
  kSwitchUp = 14,      // switch restarted
  kSwitchDown = 15,    // switch crashed
  // Overload-guard breaker transition (src/guard). Not a packet event: uid
  // is 0 and the from/to GuardState values ride the numeric `port` and
  // `queue_depth` fields (the codec round-trips every numeric field; the
  // "reason" string is reserved for kDrop).
  kGuardTransition = 16,
};

inline constexpr size_t kNumTraceEventTypes = 17;

inline const char* TraceEventTypeName(TraceEventType t) {
  switch (t) {
    case TraceEventType::kHostSend:
      return "host-send";
    case TraceEventType::kHostDeliver:
      return "host-deliver";
    case TraceEventType::kEnqueue:
      return "enqueue";
    case TraceEventType::kDequeue:
      return "dequeue";
    case TraceEventType::kWireEnter:
      return "wire-enter";
    case TraceEventType::kWireExit:
      return "wire-exit";
    case TraceEventType::kDetour:
      return "detour";
    case TraceEventType::kDrop:
      return "drop";
    case TraceEventType::kTcpTimeout:
      return "tcp-timeout";
    case TraceEventType::kTcpRetransmit:
      return "tcp-retransmit";
    case TraceEventType::kPause:
      return "pause";
    case TraceEventType::kUnpause:
      return "unpause";
    case TraceEventType::kLinkUp:
      return "link-up";
    case TraceEventType::kLinkDown:
      return "link-down";
    case TraceEventType::kSwitchUp:
      return "switch-up";
    case TraceEventType::kSwitchDown:
      return "switch-down";
    case TraceEventType::kGuardTransition:
      return "guard-transition";
  }
  return "?";
}

// pFabric destroys packets inside Enqueue (priority eviction); those losses
// are queue-internal and deliberately NOT routed through NotifyDrop (the
// aggregate drop tables would change shape), but the trace still records them
// as kDrop events with this sentinel reason so journeys terminate correctly.
inline constexpr uint8_t kTraceEvictionReason = 255;

inline const char* TraceDropReasonName(uint8_t reason) {
  if (reason == kTraceEvictionReason) {
    return "pfabric-eviction";
  }
  if (reason < kNumDropReasons) {
    return DropReasonName(static_cast<DropReason>(reason));
  }
  return "?";
}

struct TraceEvent {
  Time at;  // simulation time
  TraceEventType type = TraceEventType::kHostSend;
  uint8_t ttl = 0;
  uint8_t tclass = 0;
  uint8_t drop_reason = 0;  // DropReason value or kTraceEvictionReason (kDrop only)
  bool is_ack = false;
  uint16_t detour_count = 0;
  int32_t node = -1;         // topology node id; -1 for link-scoped events
  int32_t port = -1;         // port index; link id for kLinkUp/kLinkDown; -1 n/a
  int32_t queue_depth = -1;  // depth after the operation (enqueue/dequeue); -1 n/a
  uint64_t uid = 0;          // packet uid; 0 for non-packet events
  FlowId flow = 0;
  HostId src = kInvalidHost;
  HostId dst = kInvalidHost;
  uint32_t seq = 0;  // data seq or cumulative ack, per is_ack
};

// A packet event: the packet-derived fields plus the operation's own.
inline TraceEvent MakeTracePacketEvent(TraceEventType type, Time at, int32_t node,
                                       int32_t port, const Packet& p,
                                       int32_t queue_depth = -1, uint8_t drop_reason = 0) {
  TraceEvent e;
  e.at = at;
  e.type = type;
  e.node = node;
  e.port = port;
  e.queue_depth = queue_depth;
  e.drop_reason = drop_reason;
  e.uid = p.uid;
  e.flow = p.flow;
  e.src = p.src;
  e.dst = p.dst;
  e.seq = p.is_ack ? p.ack_seq : p.seq;
  e.is_ack = p.is_ack;
  e.ttl = p.ttl;
  e.tclass = static_cast<uint8_t>(p.traffic_class);
  e.detour_count = p.detour_count;
  return e;
}

}  // namespace dibs

#endif  // SRC_TRACE_TRACE_EVENT_H_

// Observer hooks: the one instrumentation channel. The stats recorders, the
// DIBS_VALIDATE ledger and the trace bus all subscribe (Network::AddObserver)
// and hear every event through Network::Notify*. Hooks default to no-ops;
// observers never mutate simulation state (the observer-purity rule).

#ifndef SRC_DEVICE_OBSERVER_H_
#define SRC_DEVICE_OBSERVER_H_

#include <cstddef>

#include "src/guard/guard_config.h"
#include "src/net/drop_reason.h"
#include "src/net/packet.h"
#include "src/sim/time.h"

namespace dibs {

class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;

  // A host's NIC accepted `p` for transmission — the packet is now the
  // network's responsibility (the injection edge of the conservation ledger).
  virtual void OnHostSend(HostId host, const Packet& p, Time at) {}

  // A switch decided to detour `p` out of `detour_port` instead of dropping.
  virtual void OnDetour(int node, uint16_t detour_port, const Packet& p, Time at) {}

  // A switch dropped `p`, or a fault killed it at node's port.
  virtual void OnDrop(int node, const Packet& p, DropReason reason, Time at) {}

  // A host received a packet addressed to it.
  virtual void OnHostDeliver(HostId host, const Packet& p, Time at) {}

  // A packet was admitted to node's output queue `port`; `queue_depth` is the
  // occupancy right after admission. The Network dispatches the packet-
  // carrying form, whose default forwards to the packet-less one.
  virtual void OnEnqueue(int node, uint16_t port, size_t queue_depth, Time at) {}
  virtual void OnEnqueuePacket(int node, uint16_t port, const Packet& p, size_t queue_depth,
                               Time at) {
    OnEnqueue(node, port, queue_depth, at);
  }

  // A packet left node's output queue `port` (transmission start, or a
  // fault-drain); `queue_depth` is the occupancy right after removal.
  virtual void OnDequeue(int node, uint16_t port, const Packet& p, size_t queue_depth,
                         Time at) {}

  // The overload guard's circuit breaker for switch `node` moved from state
  // `from` to state `to` (src/guard; ARMED/SUPPRESSED/PROBING).
  virtual void OnGuardTransition(int node, GuardState from, GuardState to, Time at) {}

  // Serialization of `p` out of node's `port` began, with the port's link
  // state. Fires before the degraded-link loss draw: a kFaultLossy OnDrop of
  // `p` may follow at once.
  virtual void OnWireEnter(int node, uint16_t port, const Packet& p, bool link_up, Time at) {}

  // `p` came off the wire at the receiving node's `port`.
  virtual void OnWireExit(int node, uint16_t port, const Packet& p, Time at) {}

  // A pFabric queue destroyed `p` on overflow: terminal, but not an OnDrop.
  virtual void OnEvict(int node, const Packet& p, Time at) {}

  // Flow control paused or resumed a transmitter; a link (by topology id) or
  // a switch went effectively up or down.
  virtual void OnPause(int node, uint16_t port, bool paused, Time at) {}
  virtual void OnLinkState(int link, bool up, Time at) {}
  virtual void OnSwitchState(int node, bool up, Time at) {}

  // A sender's RTO fired (`seq` = oldest unacked segment), or it resent `seq`.
  virtual void OnTcpTimeout(HostId host, FlowId flow, uint32_t seq, Time at) {}
  virtual void OnTcpRetransmit(HostId host, FlowId flow, uint32_t seq, Time at) {}
};

}  // namespace dibs

#endif  // SRC_DEVICE_OBSERVER_H_

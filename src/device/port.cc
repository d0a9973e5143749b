#include "src/device/port.h"

#include <optional>
#include <utility>

#include "src/device/network.h"
#include "src/util/logging.h"

namespace dibs {

bool Port::EnqueueAndTransmit(Packet&& p) {
  if (!link_up_) {
    // Blackhole: the port owns the packet's terminal state. Returning true
    // tells the caller the port took responsibility — the drop has already
    // been accounted.
    FaultDrop(p, DropReason::kFaultLinkDown);
    return true;
  }
  p.enqueued_at = sim_->Now();
  // The queue admits a copy, so `p` is still the admitted packet afterwards.
  if (!queue_->Enqueue(p)) {
    return false;
  }
  if (network_ != nullptr) {
    network_->NotifyEnqueue(owner_->id(), index_, p, queue_->size_packets());
  }
  MaybeTransmit();
  return true;
}

void Port::SetPaused(bool paused) {
  if (paused_ != paused) {
    paused_ = paused;
    if (network_ != nullptr) {
      network_->NotifyPause(owner_->id(), index_, paused);
    }
  }
  if (!paused_) {
    MaybeTransmit();
  }
}

void Port::SetLinkUp(bool up) {
  if (link_up_ == up) {
    return;
  }
  link_up_ = up;
  if (up) {
    MaybeTransmit();
    return;
  }
  // Link died: everything buffered behind it is lost. Each drained packet
  // reaches its terminal state as a fault drop, and the owner hears the
  // dequeue so flow-control watermarks re-evaluate.
  while (true) {
    std::optional<Packet> dead = queue_->Dequeue();
    if (!dead.has_value()) {
      break;
    }
    owner_->OnPortDequeue(index_);
    if (network_ != nullptr) {
      network_->NotifyDequeue(owner_->id(), index_, *dead, queue_->size_packets());
    }
    FaultDrop(*dead, DropReason::kFaultLinkDown);
  }
}

void Port::FaultDrop(const Packet& p, DropReason reason) {
  if (network_ != nullptr) {
    network_->NotifyDrop(owner_->id(), p, reason);
  }
}

void Port::MaybeTransmit() {
  // Note: deliberately no link_up_ guard here. SetLinkUp(false) drains the
  // queue and EnqueueAndTransmit blackholes while down, so a correct device
  // never has anything to transmit on a dead link; if a bug does push one
  // through, the conservation ledger's dead-port-delivery invariant trips.
  if (transmitting_ || paused_) {
    return;
  }
  std::optional<Packet> next = queue_->Dequeue();
  if (!next.has_value()) {
    return;
  }
  DIBS_CHECK(peer_ != nullptr) << "port transmitted before Connect()";
  owner_->OnPortDequeue(index_);
  if (network_ != nullptr) {
    network_->NotifyDequeue(owner_->id(), index_, *next, queue_->size_packets());
  }
  transmitting_ = true;
  const Time serialization = SerializationDelay(next->size_bytes, rate_bps_);
  bytes_sent_ += next->size_bytes;
  ++packets_sent_;

  // Transmitter frees up after serialization; the packet lands at the peer
  // one propagation delay later. Two events so back-to-back packets pipeline
  // onto the wire correctly.
  sim_->Schedule(serialization, [this] { OnTxDone(); });

  if (network_ != nullptr) {
    network_->NotifyWireEnter(owner_->id(), index_, *next, link_up_);
  }

  // Degraded link: the frame may be corrupted in flight. The wire slot is
  // still consumed (the serialization event above stands), but the packet
  // never lands — it dies here as a fault-lossy terminal drop.
  if (loss_probability_ > 0 && sim_->rng().Bernoulli(loss_probability_)) {
    FaultDrop(*next, DropReason::kFaultLossy);
    return;
  }
  Time prop = prop_delay_;
  if (extra_jitter_ > Time::Zero()) {
    prop = prop + Time::Nanos(sim_->rng().UniformInt(0, extra_jitter_.nanos()));
  }

  // The delivery closure carries the packet itself: with jitter, packets in
  // flight may land out of transmit order, and each event owns its own.
  sim_->Schedule(serialization + prop, [this, pkt = std::move(*next)]() mutable {
    if (network_ != nullptr) {
      network_->NotifyWireExit(peer_->id(), peer_port_, pkt);
    }
    peer_->HandleReceive(std::move(pkt), peer_port_);
  });
}

void Port::OnTxDone() {
  transmitting_ = false;
  MaybeTransmit();
}

}  // namespace dibs

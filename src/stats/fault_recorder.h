// Fault-impact instrumentation: how many packets died to faults (and why),
// which flows a fault touched and whether they eventually finished, and how
// long the network took to deliver again after each repair.
//
// Observer half: counts fault-attributed drops (DropReason::kFault*) and
// remembers the flows they belonged to. Fault half: OnFaultEvent hears each
// plan event the FaultInjector fires; each repair opens a recovery window
// that the next network-wide delivery closes — "per-event recovery time" is
// repair -> first packet delivered anywhere afterwards.
// Scenario half: NoteFlowCompleted marks flows that finished, so at the end
// fault-touched flows split into recovered (completed anyway) vs stalled.

#ifndef SRC_STATS_FAULT_RECORDER_H_
#define SRC_STATS_FAULT_RECORDER_H_

#include <array>
#include <cstdint>
#include <set>
#include <vector>

#include "src/device/observer.h"

namespace dibs {

class FaultRecorder : public NetworkObserver {
 public:
  // NetworkObserver: only fault-attributed events are recorded.
  void OnDrop(int node, const Packet& p, DropReason reason, Time at) override;
  void OnHostDeliver(HostId host, const Packet& p, Time at) override;
  // A breakage (down/crash/degrade) counts as applied; a repair
  // (up/restart/restore) counts as repaired and opens a recovery window.
  void OnFaultEvent(bool breakage, Time at) override;

  // Scenario wiring: flow `id` ran to completion.
  void NoteFlowCompleted(FlowId id);

  // Packets that died to any fault (blackholed at dead ports, eaten by
  // crashed switches, lost on degraded links, or routeless due to faults).
  uint64_t blackholed_packets() const { return blackholed_; }
  uint64_t drops(DropReason reason) const {
    return drops_by_reason_[static_cast<size_t>(reason)];
  }

  uint64_t events_applied() const { return applied_; }
  uint64_t events_repaired() const { return repaired_; }

  // Fault-touched flows that completed anyway (retransmission recovered
  // them) vs never completed within the run.
  uint64_t FlowsRecovered() const;
  uint64_t FlowsStalled() const { return fault_flows_.size() - FlowsRecovered(); }

  // Closed recovery windows, in repair order, in milliseconds.
  const std::vector<double>& recovery_ms() const { return recovery_ms_; }
  double MaxRecoveryMs() const;

 private:
  std::array<uint64_t, kNumDropReasons> drops_by_reason_{};
  uint64_t blackholed_ = 0;
  uint64_t applied_ = 0;
  uint64_t repaired_ = 0;
  std::vector<Time> open_repairs_;      // repairs awaiting the next delivery
  std::vector<double> recovery_ms_;
  // std::set: ordered, so any future iteration stays deterministic.
  std::set<FlowId> fault_flows_;        // flows that lost >= 1 packet to a fault
  std::set<FlowId> completed_flows_;
};

}  // namespace dibs

#endif  // SRC_STATS_FAULT_RECORDER_H_

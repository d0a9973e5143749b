// Layer drivers for the traced run: each times one public API of a layer
// directly, at the operating point (heap depth, queue occupancy, network
// config) the workload's traced blocks observed. Every driver returns
// the median of several batches.

#ifndef PERFBENCH_SRC_DRIVERS_H_
#define PERFBENCH_SRC_DRIVERS_H_

#include <cstddef>

#include "src/harness/config.h"

namespace perfbench {

// ms per BuildFatTree / Fib::Compute on the config's fat-tree.
double BuildFatTreeMs(const dibs::ExperimentConfig& config);
double FibComputeMs(const dibs::ExperimentConfig& config);

// ns per Fib::EcmpPort lookup from a switch toward a host.
double EcmpLookupNs(const dibs::ExperimentConfig& config);

// ns per event of a hold loop at `depth` pending events: each event pops
// and schedules one successor (Simulator::Schedule + Run).
double SchedulePopNs(size_t depth);

// Extra ns per event when every event of the same hold loop also re-arms a
// timer, cancelling the previous one (the retransmission-timer pattern).
double CancelNs(size_t depth);

// ns per Enqueue + Dequeue pair at a steady occupancy of `occupancy`.
double DropTailNs(const dibs::ExperimentConfig& config, size_t occupancy);
double PfabricNs(const dibs::ExperimentConfig& config, size_t occupancy);

// ns for one packet to cross the idle fat-tree host to host, in a Network
// built with the config's NetworkConfig.
double HopNs(const dibs::ExperimentConfig& config);

// ns per DetourRecorder::OnDetour + OnDequeue pair, called directly.
double DetourRecordNs();

}  // namespace perfbench

#endif  // PERFBENCH_SRC_DRIVERS_H_

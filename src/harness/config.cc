#include "src/harness/config.h"

#include "src/workload/distributions.h"

namespace dibs {

namespace {

// Hosts in the topology Scenario builds for `config`, in closed form from
// the same builder options, so estimating a run's load builds nothing and
// cannot trip a builder check outside the run.
double HostCount(const ExperimentConfig& config) {
  switch (config.topology) {
    case TopologyKind::kFatTree: {
      const double k = config.fat_tree_k;
      return k * k * k / 4;
    }
    case TopologyKind::kEmulabTestbed:
      return 6;  // 3 edge switches x 2 hosts
    case TopologyKind::kLeafSpine: {
      const LeafSpineOptions opts;
      return opts.leaves * opts.hosts_per_leaf;
    }
    case TopologyKind::kLinear:
      return 8 * 2;  // Scenario's BuildLinear(8 switches, 2 hosts each)
    case TopologyKind::kJellyFish: {
      const JellyFishOptions opts;
      return opts.switches * opts.hosts_per_switch;
    }
  }
  return 0;
}

}  // namespace

double OfferedLoadBytes(const ExperimentConfig& config) {
  const double window_s = config.duration.ToSeconds();
  double bytes = 0;
  if (config.enable_query) {
    bytes += config.qps * window_s * config.incast_degree *
             static_cast<double>(config.response_bytes);
  }
  if (config.enable_background && config.bg_interarrival > Time::Zero()) {
    static const double kMeanFlowBytes = WebSearchFlowSizes().Mean();
    bytes += HostCount(config) * window_s / config.bg_interarrival.ToSeconds() * kMeanFlowBytes;
  }
  return bytes;
}

ExperimentConfig DctcpConfig() {
  ExperimentConfig c;
  c.label = "DCTCP";
  c.net.detour_policy = "none";
  c.tcp = TcpConfig::DctcpDefault();
  c.transport = TransportKind::kDctcp;
  return c;
}

ExperimentConfig DibsConfig() {
  ExperimentConfig c;
  c.label = "DCTCP+DIBS";
  c.net.detour_policy = "random";
  c.tcp = TcpConfig::DibsDefault();
  c.transport = TransportKind::kDctcp;
  return c;
}

ExperimentConfig DibsGuardConfig() {
  ExperimentConfig c = DibsConfig();
  c.label = "DCTCP+DIBS+guard";
  c.net.guard.enabled = true;
  c.net.guard.adaptive_ttl = true;
  c.net.guard.watchdog = true;
  return c;
}

ExperimentConfig InfiniteBufferConfig() {
  ExperimentConfig c;
  c.label = "DCTCP w/ inf";
  c.net.detour_policy = "none";
  c.net.switch_buffer_packets = 0;  // unbounded
  c.tcp = TcpConfig::DctcpDefault();
  c.transport = TransportKind::kDctcp;
  return c;
}

ExperimentConfig PfabricExperimentConfig() {
  ExperimentConfig c;
  c.label = "pFabric";
  c.net.detour_policy = "none";
  c.net.pfabric_queues = true;
  c.net.ecn_threshold_packets = 0;
  c.transport = TransportKind::kPfabric;
  return c;
}

}  // namespace dibs

// Shared network/workload configuration helpers for the harness-level test
// suites (integration, failure injection, chaos, harness, baselines). All of
// them run with fast simulated signatures — wire sizes are unchanged, only
// the crypto cost disappears — and the paper's 32-city latency model.
#pragma once

#include <string>

#include "harness/lo_network.hpp"
#include "workload/txgen.hpp"

namespace lo::test {

constexpr auto kFastSig = crypto::SignatureMode::kSimFast;

inline harness::NetworkConfig net_cfg(std::size_t n, std::uint64_t seed,
                                      double malicious_fraction = 0.0) {
  harness::NetworkConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.city_latency = true;
  cfg.node.sig_mode = kFastSig;
  cfg.node.prevalidation.sig_mode = kFastSig;
  cfg.malicious_fraction = malicious_fraction;
  return cfg;
}

inline workload::WorkloadConfig load_cfg(double tps, std::uint64_t seed) {
  workload::WorkloadConfig w;
  w.tps = tps;
  w.seed = seed;
  w.sig_mode = kFastSig;
  return w;
}

// A per-node registry counter: node i's cell ("lo.retries_sent{node=i}"),
// or its sum over the network. Both throw on a name no node counts.
inline std::uint64_t node_counter(harness::LoNetwork& net,
                                  const std::string& name, std::size_t i) {
  const auto id = obs::metric_id(name, {{"node", std::to_string(i)}});
  return net.sim().obs().registry.snapshot().at(id).counter;
}
inline std::uint64_t counter_total(harness::LoNetwork& net,
                                   const std::string& name) {
  return obs::rollup(net.sim().obs().registry.snapshot()).at(name).counter;
}

}  // namespace lo::test

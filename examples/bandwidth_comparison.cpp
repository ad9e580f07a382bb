// Bandwidth comparison walkthrough: runs the same workload through LØ and
// the classical flooding mempool and prints a per-message-class breakdown —
// a narrated, smaller-scale companion to bench_fig9_bandwidth.
//
//   $ ./build/examples/bandwidth_comparison
#include <cstdio>

#include "baselines/flood.hpp"
#include "harness/lo_network.hpp"

int main() {
  using namespace lo;
  const std::size_t kNodes = 64;
  const double kTps = 20.0;
  const double kSeconds = 20.0;

  std::printf("== LO vs Flood bandwidth breakdown: %zu nodes, %.0f tps, "
              "%.0f s ==\n\n",
              kNodes, kTps, kSeconds);

  // --- LØ ---
  harness::NetworkConfig lo_cfg;
  lo_cfg.num_nodes = kNodes;
  lo_cfg.seed = 7;
  lo_cfg.node.sig_mode = crypto::SignatureMode::kSimFast;
  lo_cfg.node.prevalidation.sig_mode = crypto::SignatureMode::kSimFast;
  harness::LoNetwork lo_net(lo_cfg);

  workload::WorkloadConfig load;
  load.tps = kTps;
  load.seed = 99;
  load.sig_mode = crypto::SignatureMode::kSimFast;
  lo_net.start_workload(load, 1);
  lo_net.run_for(kSeconds);

  std::printf("LO message classes:\n");
  for (const auto& [name, stats] : lo_net.sim().bandwidth().by_class()) {
    std::printf("  %-18s msgs=%-8llu bytes=%-10llu avg=%llu B\n", name.c_str(),
                static_cast<unsigned long long>(stats.messages),
                static_cast<unsigned long long>(stats.bytes),
                static_cast<unsigned long long>(
                    stats.messages ? stats.bytes / stats.messages : 0));
  }
  const auto lo_overhead =
      lo_net.sim().bandwidth().bytes_excluding({"lo.txs"});

  // --- Flood, on the same network scaffold settings ---
  baselines::FloodNode::Config fl_node;
  fl_node.prevalidation.sig_mode = crypto::SignatureMode::kSimFast;
  harness::Network<baselines::FloodNode> fl_net(lo_cfg, fl_node);
  fl_net.start_workload(load, 1);
  fl_net.run_for(kSeconds);

  std::printf("\nFlood message classes:\n");
  for (const auto& [name, stats] : fl_net.sim().bandwidth().by_class()) {
    std::printf("  %-18s msgs=%-8llu bytes=%-10llu avg=%llu B\n", name.c_str(),
                static_cast<unsigned long long>(stats.messages),
                static_cast<unsigned long long>(stats.bytes),
                static_cast<unsigned long long>(
                    stats.messages ? stats.bytes / stats.messages : 0));
  }
  const auto fl_overhead =
      fl_net.sim().bandwidth().bytes_excluding({"flood.tx"});

  const auto lo_bytes = static_cast<double>(lo_overhead);
  const auto fl_bytes = static_cast<double>(fl_overhead);
  std::printf("\noverhead (tx bodies excluded):\n");
  std::printf("  LO    : %.1f KiB total, %.1f B/s/node\n",
              lo_bytes / 1024.0, lo_bytes / kSeconds / kNodes);
  std::printf("  Flood : %.1f KiB total, %.1f B/s/node\n",
              fl_bytes / 1024.0, fl_bytes / kSeconds / kNodes);
  std::printf("  ratio : Flood / LO = %.2fx  (paper: >= 4x)\n",
              static_cast<double>(fl_overhead) /
                  static_cast<double>(lo_overhead));
  std::printf(
      "\nwhy: flooding announces every tx hash on every edge; LØ's sketches\n"
      "make the per-round cost proportional to the set difference, and the\n"
      "same messages double as accountability commitments.\n");
  return 0;
}

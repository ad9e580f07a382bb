// Shared helpers for the figure-reproduction benches. Each bench binary
// regenerates one table/figure of the paper's evaluation (Sec. 6) and prints
// the same series the paper reports. Scales default to laptop-friendly sizes
// (see DESIGN.md, substitution 3) and are overridable via argv:
//   bench_figX [num_nodes] [seconds] [seed]
// Stdout carries only seeded, simulated-time values, so the same argv prints
// the same bytes in every build (the golden.* ctest entries pin it; see
// bench/CMakeLists.txt). Wall-clock values go to stderr.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/lo_network.hpp"

namespace lo::bench {

struct Args {
  std::size_t num_nodes;
  double seconds;
  std::uint64_t seed;
};

inline Args parse_args(int argc, char** argv, std::size_t def_nodes,
                       double def_seconds, std::uint64_t def_seed = 1) {
  Args a{def_nodes, def_seconds, def_seed};
  if (argc > 1) a.num_nodes = static_cast<std::size_t>(std::atoll(argv[1]));
  if (argc > 2) a.seconds = std::atof(argv[2]);
  if (argc > 3) a.seed = static_cast<std::uint64_t>(std::atoll(argv[3]));
  return a;
}

// All benches run with kSimFast signatures: identical wire sizes and protocol
// behavior, no curve arithmetic dominating wall-clock (bench_crypto measures
// the real Ed25519 separately).
inline harness::NetworkConfig base_config(std::size_t n, std::uint64_t seed) {
  harness::NetworkConfig cfg;
  cfg.num_nodes = n;
  cfg.seed = seed;
  cfg.city_latency = true;
  cfg.node.sig_mode = crypto::SignatureMode::kSimFast;
  cfg.node.prevalidation.sig_mode = crypto::SignatureMode::kSimFast;
  return cfg;
}

inline workload::WorkloadConfig base_workload(double tps, std::uint64_t seed) {
  workload::WorkloadConfig w;
  w.tps = tps;
  w.seed = seed;
  w.sig_mode = crypto::SignatureMode::kSimFast;
  return w;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

}  // namespace lo::bench

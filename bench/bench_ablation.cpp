// Ablation bench — quantifies the design choices DESIGN.md calls out:
//
//  (a) two-stage consistency checking (Bloom Clock screen, then Minisketch
//      decode) vs decoding on every observed commitment (Sec. 4.2's claimed
//      benefit of combining the two structures);
//  (b) difference-sized wire sketches (PinSketch prefix truncation) vs
//      fixed full-capacity sketches (the paper's 1,000-byte commitments);
//  (c) commitment-gossip probability vs how fast equivocation evidence meets
//      at a correct node (detection latency / bandwidth trade-off).
//
// Not a paper figure — this is the "why is the protocol shaped this way"
// companion to Figs. 9/10.
#include <chrono>

#include "bench_common.hpp"

namespace lo {
namespace {

struct AblationRow {
  std::uint64_t decodes = 0;
  double wall_s = 0;
  double overhead_bps_node = 0;
  double latency_s = 0;
};

AblationRow run_variant(bool two_stage, bool adaptive_sketch, std::size_t n,
                        double seconds, std::uint64_t seed) {
  auto cfg = bench::base_config(n, seed);
  cfg.node.two_stage_checks = two_stage;
  cfg.node.adaptive_wire_sketch = adaptive_sketch;
  harness::LoNetwork net(cfg);
  net.start_workload(bench::base_workload(20.0, seed * 3), 1);
  // lolint:allow(banned-source) reason=wall-clock stopwatch for the wall column printed on stderr; never feeds protocol state or the simulation
  const auto t0 = std::chrono::steady_clock::now();
  net.run_for(seconds);
  AblationRow row;
  // lolint:allow(banned-source) reason=wall-clock stopwatch read for the wall column printed on stderr; never feeds protocol state or the simulation
  const auto t1 = std::chrono::steady_clock::now();
  row.wall_s = std::chrono::duration<double>(t1 - t0).count();
  row.decodes = net.total_sketch_decodes();
  row.overhead_bps_node =
      static_cast<double>(net.sim().bandwidth().bytes_excluding({"lo.txs"})) /
      seconds / static_cast<double>(n);
  row.latency_s = net.mempool_latency().mean();
  return row;
}

double exposure_time(double gossip_probability, std::size_t n, double seconds,
                     std::uint64_t seed) {
  auto cfg = bench::base_config(n, seed);
  cfg.node.gossip_probability = gossip_probability;
  cfg.node.gossip_headers = gossip_probability > 0 ? 1 : 0;
  cfg.malicious_fraction = 0.1;
  cfg.malicious.equivocate = true;
  harness::LoNetwork net(cfg);
  net.start_workload(bench::base_workload(20.0, seed * 7), 1);
  net.run_for(seconds);
  return net.detection_times().exposure_complete_s;
}

}  // namespace
}  // namespace lo

int main(int argc, char** argv) {
  const auto args = lo::bench::parse_args(argc, argv, 100, 30.0);
  lo::bench::print_header(
      "Ablations — two-stage checks, adaptive sketches, gossip probability",
      "design choices of Sec. 4.2 (not a paper figure)");

  std::printf("[a+b] nodes=%zu horizon=%.0fs tps=20\n\n", args.num_nodes,
              args.seconds);
  std::printf("%-34s %-12s %-18s %-10s\n", "variant", "decodes",
              "overhead[B/s/node]", "lat[s]");
  struct Variant {
    const char* name;
    bool two_stage;
    bool adaptive;
  };
  for (const auto& v :
       {Variant{"paper design (clock+adaptive)", true, true},
        Variant{"decode-always", false, true},
        Variant{"fixed full-size sketches", true, false},
        Variant{"both ablated", false, false}}) {
    const auto row = lo::run_variant(v.two_stage, v.adaptive, args.num_nodes,
                                     args.seconds, args.seed);
    std::printf("%-34s %-12llu %-18.1f %-10.2f\n", v.name,
                static_cast<unsigned long long>(row.decodes),
                row.overhead_bps_node, row.latency_s);
    std::fprintf(stderr, "[a+b] %-34s wall[s] %.2f\n", v.name, row.wall_s);
  }
  std::printf(
      "\nexpected: disabling the clock screen multiplies decodes and wall\n"
      "time (wall[s] on stderr) at identical protocol behavior; fixed-size\n"
      "sketches multiply bandwidth at identical latency.\n\n");

  std::printf("[c] exposure-completion time vs gossip probability "
              "(10%% equivocators):\n\n");
  std::printf("%-22s %-22s\n", "gossip probability", "exposure-complete[s]");
  for (double p : {0.0, 0.1, 0.34, 1.0}) {
    const double t = lo::exposure_time(p, args.num_nodes, 60.0, args.seed);
    std::printf("%-22.2f %-22s\n", p,
                t < 0 ? "incomplete" : std::to_string(t).substr(0, 6).c_str());
  }
  std::printf(
      "\nfinding: exposure completion is nearly flat in the gossip\n"
      "probability — a redundancy result. Sec. 5.2 lists several commitment\n"
      "dissemination channels (sync responses, blame messages with attached\n"
      "last-known commitments, suspicion self-defense); disabling the sync\n"
      "gossip alone leaves the blame channel carrying the evidence.\n");
  return 0;
}

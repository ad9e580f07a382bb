// LoNetwork — a full LØ deployment on the shared network scaffold
// (harness/network.hpp): LoNodes with keys, the shared verify tier and the
// faulty population's behavior, plus what only LØ has: rotation and SWIM
// wiring, the consensus stub and the invariant checker. Every evaluation
// figure and all integration tests drive the protocol through this class.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "consensus/chain.hpp"
#include "consensus/leader.hpp"
#include "core/config.hpp"
#include "core/node.hpp"
#include "harness/network.hpp"
#include "sim/metrics.hpp"

namespace lo::harness {

// LØ's network: the shared scaffold's fields plus the LØ node config and the
// behavior of the faulty population (ScaffoldConfig::malicious_fraction).
struct NetworkConfig : ScaffoldConfig {
  core::LoConfig node;
  core::MaliciousBehavior malicious;
};

class LoNetwork : public Network<core::LoNode> {
 public:
  explicit LoNetwork(const NetworkConfig& config);

  // --- consensus stub ---
  // Emits block.start and schedules block production: random leaders at the
  // configured cadence. From then on a tx settles at its first block
  // inclusion, not its first admit.
  void start_block_production(const consensus::LeaderConfig& cfg,
                              bool correct_leaders_only = false);
  const consensus::Chain& chain() const noexcept { return chain_; }

  // --- invariant checking ---
  // One synchronous sweep over all correct nodes; returns human-readable
  // violation descriptions (empty = healthy). Checks: no correct node is
  // exposed anywhere, no log double-commits an id, every held mempool tx of
  // a correct node is committed in its log.
  std::vector<std::string> check_invariants() const;
  // Runs check_invariants() every `period`; with fail_fast the first
  // violation throws std::runtime_error out of run_for(), failing the
  // enclosing test immediately. All violations are also recorded.
  void start_invariant_checker(sim::Duration period, bool fail_fast = true);
  const std::vector<std::string>& invariant_violations() const noexcept {
    return invariant_violations_;
  }

  // Aggregate verification-cache hit/miss counters over all nodes (perf
  // diagnostics for the verify fast path; see DESIGN.md).
  crypto::VerifyCacheStats total_verify_cache_stats() const;
  // The verdicts and decompressed keys every node's verify cache shares.
  const crypto::VerifyTier& verify_tier() const noexcept {
    return *verify_tier_;
  }

  // --- metrics ---
  // Fig. 8: creation -> first block inclusion, seconds.
  sim::Samples& block_latency() noexcept { return analyzer_.block_latency; }
  // Folds harness-level measurements (latency samples, injection counters)
  // into the simulator's metrics registry so one snapshot/export covers the
  // whole run. Only samples recorded since the previous call are observed,
  // so repeated calls never double-count.
  void publish_metrics();
  // Fig. 6: detection completeness over the whole faulty population.
  DetectionTimes detection_times() const {
    return analyzer_.detection_times(malicious_);
  }
  // Fraction of correct nodes holding the tx with the given id.
  double coverage(const core::TxId& id) const;
  // Sketch decodes over all nodes.
  std::uint64_t total_sketch_decodes() const;

 private:
  void schedule_next_block();
  void schedule_invariant_check();

  // One verdict and key tier behind every node's verify cache: a verdict is
  // a pure function of its bytes, so each distinct signature is checked once
  // per simulation (DESIGN.md §3c).
  std::shared_ptr<crypto::VerifyTier> verify_tier_ =
      std::make_shared<crypto::VerifyTier>();

  std::unique_ptr<consensus::LeaderSchedule> leaders_;
  bool correct_leaders_only_ = false;
  consensus::Chain chain_;

  sim::Duration invariant_period_ = 0;
  bool invariant_fail_fast_ = true;
  std::vector<std::string> invariant_violations_;

  std::size_t published_mempool_ = 0;  // publish_metrics() high-water marks
  std::size_t published_block_ = 0;
  std::size_t published_detection_ = 0;
};

}  // namespace lo::harness

// LoNetwork — a full LØ deployment on the shared network scaffold
// (harness/network.hpp): LoNodes with keys, the shared verify tier and the
// faulty population's behavior, plus what only LØ has: rotation and SWIM
// wiring, the consensus stub, the invariant checker and the blame and member
// feeds, which it reads from the tracer's sink like the scaffold's own.
// Every evaluation figure and all integration tests drive the protocol
// through this class.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
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

struct DetectionTimes {
  // For each faulty node: the time by which EVERY correct node had
  // suspected/learned-exposure of it; <0 when incomplete.
  double suspicion_complete_s = -1.0;
  double exposure_complete_s = -1.0;
  double first_exposure_s = -1.0;  // first detection anywhere
  // The paper's Fig. 6 "Exposure" series measures dissemination: the time
  // from the FIRST node detecting a given attacker until ALL correct nodes
  // know that attacker, maximized over attackers; <0 when incomplete.
  double exposure_spread_s = -1.0;
  bool operator==(const DetectionTimes&) const = default;
};

class LoNetwork : public Network<core::LoNode> {
 public:
  explicit LoNetwork(const NetworkConfig& config);

  // --- consensus stub ---
  // Schedules block production: random leaders at the configured cadence.
  // From then on a tx settles at its first block inclusion, not its first
  // admit.
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
  sim::Samples& block_latency() noexcept { return block_latency_; }
  // Folds harness-level measurements (latency samples, injection counters)
  // into the simulator's metrics registry so one snapshot/export covers the
  // whole run. Only samples recorded since the previous call are observed,
  // so repeated calls never double-count.
  void publish_metrics();
  // Fig. 6: detection completeness over the whole faulty population.
  DetectionTimes detection_times() const;
  // Fraction of correct nodes holding the tx with the given id.
  double coverage(const core::TxId& id) const;
  // Sketch decodes over all nodes.
  std::uint64_t total_sketch_decodes() const;

  // Raw event feeds for custom analyses: one entry per kSuspected and per
  // kExpose event (see obs::EventKind).
  struct BlameEvent {
    core::NodeId observer;
    core::NodeId accused;
    double when_s;
    bool operator==(const BlameEvent&) const = default;
  };
  const std::vector<BlameEvent>& suspicion_events() const noexcept {
    return suspicion_events_;
  }
  const std::vector<BlameEvent>& exposure_events() const noexcept {
    return exposure_events_;
  }

  // Membership (SWIM) observations; empty unless config.node.membership is
  // enabled. One entry per kMemberState event (a SWIM state transition).
  struct MemberEvent {
    core::NodeId observer;
    core::NodeId member;
    membership::MemberState state;
    double when_s;
    bool operator==(const MemberEvent&) const = default;
  };
  const std::vector<MemberEvent>& member_events() const noexcept {
    return member_events_;
  }
  // Crash -> first-confirmation latency samples, seconds: one per (observer,
  // crashed member) confirmation while the member was actually down. Also
  // published to the registry histogram "membership.detection_latency_s".
  const sim::Samples& membership_detection_latency() const noexcept {
    return membership_detection_latency_;
  }

 private:
  void on_inject(const core::Transaction& tx) override;
  void on_event(const obs::TraceEvent& ev) override;
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
  std::unordered_map<core::TxId, std::int64_t, core::TxIdHash> tx_created_;
  std::unordered_set<core::TxId, core::TxIdHash> tx_settled_;

  sim::Duration invariant_period_ = 0;
  bool invariant_fail_fast_ = true;
  std::vector<std::string> invariant_violations_;

  sim::Samples block_latency_;
  std::size_t published_mempool_ = 0;  // publish_metrics() high-water marks
  std::size_t published_block_ = 0;
  std::vector<BlameEvent> suspicion_events_;
  std::vector<BlameEvent> exposure_events_;
  std::vector<MemberEvent> member_events_;
  sim::Samples membership_detection_latency_;
};

}  // namespace lo::harness

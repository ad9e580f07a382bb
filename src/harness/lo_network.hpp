// LoNetwork — experiment harness assembling a full LØ deployment:
// simulator + latency model + overlay topology + LoNodes + workload +
// consensus stub + metric collection. Every evaluation figure and all
// integration tests drive the protocol through this class.
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
#include "harness/anomaly.hpp"
#include "overlay/topology.hpp"
#include "sim/faults.hpp"
#include "sim/metrics.hpp"
#include "sim/simulator.hpp"
#include "workload/txgen.hpp"

namespace lo::harness {

struct NetworkConfig {
  std::size_t num_nodes = 64;
  std::uint64_t seed = 1;

  core::LoConfig node;
  overlay::TopologyConfig topology;

  // Latency model: true = 32-city geographic model (paper setup); false =
  // constant latency (useful for deterministic unit tests).
  bool city_latency = true;
  sim::Duration constant_latency = 50 * sim::kMillisecond;

  // Malicious population: the first ceil(fraction*n) node ids after shuffling
  // by seed are faulty with `malicious` behavior. Honest-subgraph
  // connectivity is enforced as in Sec. 6.2.
  double malicious_fraction = 0.0;
  core::MaliciousBehavior malicious;
  bool connect_malicious_clique = true;  // paper: all malicious interconnected
  bool ensure_honest_connected = true;

  // Observability: enable the simulator's deterministic event tracer before
  // any node is constructed (so node-construction events are captured too).
  // `trace_capacity` sizes the ring; 0 keeps the tracer default.
  bool trace = false;
  std::size_t trace_capacity = 0;
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
};

class LoNetwork {
 public:
  explicit LoNetwork(const NetworkConfig& config);

  sim::Simulator& sim() noexcept { return sim_; }
  std::size_t size() const noexcept { return nodes_.size(); }
  core::LoNode& node(std::size_t i) { return *nodes_.at(i); }
  const std::vector<bool>& malicious_mask() const noexcept { return malicious_; }
  std::size_t malicious_count() const noexcept { return malicious_count_; }
  std::size_t correct_count() const noexcept {
    return nodes_.size() - malicious_count_;
  }
  const overlay::Topology& topology() const noexcept { return topology_; }

  // --- workload ---
  // Starts Poisson transaction injection: each tx is submitted to
  // `submit_fanout` random correct nodes. Runs until the simulation stops.
  void start_workload(const workload::WorkloadConfig& cfg,
                      std::size_t submit_fanout = 1);
  // Stops injection after the currently scheduled arrival (for drain phases).
  void stop_workload() noexcept { workload_stopped_ = true; }
  std::uint64_t txs_injected() const noexcept { return txs_injected_; }

  // --- consensus stub ---
  // Schedules block production: random leaders at the configured cadence.
  void start_block_production(const consensus::LeaderConfig& cfg,
                              bool correct_leaders_only = false);
  const consensus::Chain& chain() const noexcept { return chain_; }

  // --- fault injection ---
  // Crashes node i: marks it down in the simulator (suppressing its timers
  // and dropping its traffic) and wipes its volatile state; the commitment
  // log survives as "disk". No-op when already down.
  void crash_node(std::size_t i, bool wipe_mempool = false);
  // Restarts node i: marks it up, re-arms its periodic machinery and lets it
  // rejoin through the ordinary sync path. No-op when already up.
  void restart_node(std::size_t i);
  bool node_down(std::size_t i) const { return !sim_.node_up(static_cast<core::NodeId>(i)); }
  // Lazily constructed deterministic fault injector (seeded from the network
  // seed) with its crash/restart handlers wired to the two methods above.
  sim::FaultInjector& faults();
  // Convenience: random crash/restart churn through the fault injector.
  void start_churn(const sim::ChurnConfig& cfg) { faults().start_churn(cfg); }
  void stop_churn() {
    if (faults_) faults_->stop_churn();
  }

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

  // --- online anomaly detection ---
  // Arms the streaming accountability anomaly detectors (DESIGN.md §5):
  // censor-dwell watermark, suspicion-spike, reconcile-failure-rate and
  // commit-latency SLO. Alerts land in anomaly()->alerts(), lo.anomaly.*
  // counters and kAnomaly trace events. Settle is block inclusion when block
  // production runs, first mempool admit otherwise. Idempotent.
  AnomalyMonitor& start_anomaly_monitor(const AnomalyConfig& cfg = {});
  const AnomalyMonitor* anomaly() const noexcept { return anomaly_.get(); }

  // Aggregate retry/timeout/blame mechanism counters over all nodes.
  core::NodeStats total_stats() const;

  // Aggregate verification-cache hit/miss counters over all nodes (perf
  // diagnostics for the verify fast path; see DESIGN.md).
  crypto::VerifyCacheStats total_verify_cache_stats() const;

  // --- running ---
  void run_for(double seconds);

  // --- metrics ---
  // Fig. 7: per-(node, tx) mempool admission latencies, seconds.
  sim::Samples& mempool_latency() noexcept { return mempool_latency_; }
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
  // Average number of correct nodes' mempools that converged on all txs.
  std::uint64_t total_sketch_decodes() const;

  // Raw event feeds for custom analyses.
  struct BlameEvent {
    core::NodeId observer;
    core::NodeId accused;
    double when_s;
  };
  const std::vector<BlameEvent>& suspicion_events() const noexcept {
    return suspicion_events_;
  }
  const std::vector<BlameEvent>& exposure_events() const noexcept {
    return exposure_events_;
  }

  // Membership (SWIM) observations; empty unless config.node.membership is
  // enabled. One event per failure-detector state transition at any node.
  struct MemberEvent {
    core::NodeId observer;
    core::NodeId member;
    membership::MemberState state;
    double when_s;
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
  bool ever_crashed(std::size_t i) const { return ever_crashed_.at(i); }

 private:
  void schedule_next_tx();
  void schedule_next_block();
  void schedule_invariant_check();

  NetworkConfig config_;
  sim::Simulator sim_;
  overlay::Topology topology_;
  std::vector<std::unique_ptr<core::LoNode>> nodes_;
  std::vector<bool> malicious_;
  std::size_t malicious_count_ = 0;
  core::Hooks hooks_;

  std::unique_ptr<workload::TxGenerator> txgen_;
  std::size_t submit_fanout_ = 1;
  std::uint64_t txs_injected_ = 0;
  bool workload_stopped_ = false;

  std::unique_ptr<consensus::LeaderSchedule> leaders_;
  bool correct_leaders_only_ = false;
  consensus::Chain chain_;
  std::unordered_map<core::TxId, std::int64_t, core::TxIdHash> tx_created_;
  std::unordered_set<core::TxId, core::TxIdHash> tx_settled_;

  std::unique_ptr<AnomalyMonitor> anomaly_;
  std::unique_ptr<sim::FaultInjector> faults_;
  sim::Duration invariant_period_ = 0;
  bool invariant_fail_fast_ = true;
  std::vector<std::string> invariant_violations_;

  sim::Samples mempool_latency_;
  sim::Samples block_latency_;
  std::size_t published_mempool_ = 0;  // publish_metrics() high-water marks
  std::size_t published_block_ = 0;
  std::vector<BlameEvent> suspicion_events_;
  std::vector<BlameEvent> exposure_events_;
  std::vector<MemberEvent> member_events_;
  sim::Samples membership_detection_latency_;
  std::vector<double> crash_time_s_;  // per node; < 0 while the node is up
  std::vector<bool> ever_crashed_;
};

}  // namespace lo::harness

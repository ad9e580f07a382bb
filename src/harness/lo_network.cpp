#include "harness/lo_network.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "util/ordered.hpp"

namespace lo::harness {

LoNetwork::LoNetwork(const NetworkConfig& config)
    : config_(config), sim_(config.seed) {
  const std::size_t n = config.num_nodes;

  // Tracing goes live before nodes exist so construction-time events (cache
  // binds, first timers) land in the stream too.
  if (config.trace_capacity > 0) {
    sim_.obs().tracer.set_capacity(config.trace_capacity);
  }
  if (config.trace) sim_.obs().tracer.enable(true);

  if (config.city_latency) {
    sim_.set_latency_model(std::make_shared<sim::CityLatencyModel>());
  } else {
    sim_.set_latency_model(
        std::make_shared<sim::ConstantLatency>(config.constant_latency));
  }

  // Malicious assignment: random subset of the requested size.
  malicious_.assign(n, false);
  malicious_count_ = static_cast<std::size_t>(
      config.malicious_fraction * static_cast<double>(n) + 0.5);
  if (malicious_count_ > 0) {
    auto idx = sim_.rng().sample_indices(n, malicious_count_);
    for (auto i : idx) malicious_[i] = true;
  }

  // Topology with the paper's degree limits, then the Sec. 6.2 preconditions.
  topology_ = overlay::Topology::random(n, config.topology, sim_.rng());
  if (config.ensure_honest_connected && malicious_count_ > 0) {
    std::vector<bool> honest(n);
    for (std::size_t i = 0; i < n; ++i) honest[i] = !malicious_[i];
    topology_.ensure_connected_among(honest, sim_.rng());
  }
  if (config.connect_malicious_clique && malicious_count_ > 1) {
    std::vector<core::NodeId> bad;
    for (std::size_t i = 0; i < n; ++i) {
      if (malicious_[i]) bad.push_back(static_cast<core::NodeId>(i));
    }
    for (std::size_t i = 0; i + 1 < bad.size(); ++i) {
      topology_.add_edge(bad[i], bad[i + 1]);  // ring suffices for collusion
    }
  }

  // Metric hooks.
  hooks_.on_mempool_admit = [this](core::NodeId, const core::Transaction& tx,
                                   sim::TimePoint when) {
    mempool_latency_.add(sim::to_seconds(when - tx.created_at));
    // Without a consensus stub, "settled" means first mempool admission
    // anywhere; with block production, schedule_next_block() settles at
    // first inclusion instead (and on_settle is first-wins either way).
    if (anomaly_ && !leaders_) {
      anomaly_->on_settle(core::txid_short(tx.id), when);
    }
  };
  hooks_.on_suspect = [this](core::NodeId node, core::NodeId suspect,
                             sim::TimePoint when) {
    suspicion_events_.push_back(
        BlameEvent{node, suspect, sim::to_seconds(when)});
    if (anomaly_) anomaly_->on_suspicion();
  };
  hooks_.on_reconcile = [this](core::NodeId, std::size_t, bool decode_ok) {
    if (anomaly_) anomaly_->on_reconcile(decode_ok);
  };
  hooks_.on_exposure = [this](core::NodeId node, core::NodeId accused,
                              sim::TimePoint when) {
    exposure_events_.push_back(
        BlameEvent{node, accused, sim::to_seconds(when)});
  };
  hooks_.on_member_state = [this](core::NodeId node, core::NodeId member,
                                  membership::MemberState state,
                                  sim::TimePoint when) {
    member_events_.push_back(
        MemberEvent{node, member, state, sim::to_seconds(when)});
    // Crash -> confirmation latency: only counted while the member is in
    // fact down (a confirm of a node that already restarted is stale news,
    // not a detection).
    if (state == membership::MemberState::kConfirmed &&
        member < crash_time_s_.size() && crash_time_s_[member] >= 0.0) {
      const double latency_s = sim::to_seconds(when) - crash_time_s_[member];
      membership_detection_latency_.add(latency_s);
      sim_.obs().registry.histogram("membership.detection_latency_s")
          .observe(latency_s);
    }
  };
  crash_time_s_.assign(n, -1.0);
  ever_crashed_.assign(n, false);

  nodes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto keys = crypto::derive_keypair(config.seed * 0x10001ULL + i,
                                       config.node.sig_mode);
    auto node = std::make_unique<core::LoNode>(
        sim_, static_cast<core::NodeId>(i), config.node, keys, &hooks_);
    if (malicious_[i]) node->behavior() = config.malicious;
    node->set_verify_tier(verify_tier_);
    const core::NodeId id = sim_.add_node(node.get());
    (void)id;
    nodes_.push_back(std::move(node));
  }
  for (std::size_t i = 0; i < n; ++i) {
    nodes_[i]->set_neighbors(topology_.neighbors(static_cast<core::NodeId>(i)));
  }
  if (config.node.rotate_interval > 0 || config.node.membership.enabled) {
    std::vector<core::NodeId> everyone(n);
    for (std::size_t i = 0; i < n; ++i) everyone[i] = static_cast<core::NodeId>(i);
    if (config.node.rotate_interval > 0) {
      for (std::size_t i = 0; i < n; ++i) nodes_[i]->set_peer_candidates(everyone);
    }
    if (config.node.membership.enabled) {
      // SWIM probes the full universe, not just overlay neighbors: liveness
      // is a property of the member, not of one overlay edge, and the full
      // rotation is what bounds worst-case detection time.
      for (std::size_t i = 0; i < n; ++i) nodes_[i]->set_member_universe(everyone);
    }
  }
}

void LoNetwork::start_workload(const workload::WorkloadConfig& cfg,
                               std::size_t submit_fanout) {
  txgen_ = std::make_unique<workload::TxGenerator>(cfg);
  submit_fanout_ = std::max<std::size_t>(1, submit_fanout);
  schedule_next_tx();
}

void LoNetwork::schedule_next_tx() {
  sim_.schedule(txgen_->next_gap_us(), [this] {
    if (workload_stopped_) return;
    auto tx = txgen_->next(sim_.now());
    tx_created_.emplace(tx.id, tx.created_at);
    ++txs_injected_;
    // Submit to random correct nodes (clients would avoid known-bad peers;
    // submitting to a censoring node would only measure the censorship).
    std::size_t placed = 0;
    int guard = 0;
    while (placed < submit_fanout_ && guard < 200) {
      ++guard;
      const auto i = sim_.rng().next_below(nodes_.size());
      if (malicious_[i]) continue;
      // Clients cannot reach a down node; they pick another correct peer.
      if (!sim_.node_up(static_cast<core::NodeId>(i))) continue;
      sim_.obs().tracer.emit(obs::EventKind::kTxSubmit,
                             static_cast<std::uint32_t>(i), 0,
                             core::txid_short(tx.id));
      nodes_[i]->submit_transaction(tx);
      ++placed;
    }
    if (anomaly_ && placed > 0) {
      anomaly_->on_submit(core::txid_short(tx.id), tx.created_at);
    }
    schedule_next_tx();
  });
}

void LoNetwork::start_block_production(const consensus::LeaderConfig& cfg,
                                       bool correct_leaders_only) {
  leaders_ = std::make_unique<consensus::LeaderSchedule>(nodes_.size(), cfg);
  correct_leaders_only_ = correct_leaders_only;
  schedule_next_block();
}

void LoNetwork::schedule_next_block() {
  sim_.schedule(leaders_->next_interval(), [this] {
    std::vector<bool> eligible;
    const std::vector<bool>* filter = nullptr;
    if (correct_leaders_only_ && malicious_count_ > 0) {
      eligible.resize(nodes_.size());
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        eligible[i] = !malicious_[i];
      }
      filter = &eligible;
    }
    // Sharded pipeline (DESIGN.md §7): one proposer draw per shard, ascending
    // shard order, all from the same slot. Every leader is drawn before any
    // block is built so the RNG stream depends only on k, never on liveness;
    // k = 1 is exactly the single pre-sharding draw.
    const std::uint32_t k = nodes_.empty() ? 1 : nodes_[0]->shard_count();
    const auto leaders = leaders_->next_leaders(k, filter);
    const double now_s = sim::to_seconds(sim_.now());
    for (std::uint32_t s = 0; s < k; ++s) {
      const auto leader = leaders[s];
      // A down proposer simply misses its shard's slot — the other shards
      // still produce; the thin combiner below just sees fewer blocks.
      if (!sim_.node_up(leader)) continue;
      // Cross-shard combiner: shard blocks are totally ordered into the one
      // global chain by (slot, shard) — each append extends the tip the
      // previous shard's block just created.
      const auto block = nodes_[leader]->create_block(chain_.height() + 1,
                                                      chain_.tip_hash(), s);
      chain_.append(block);
      // First-inclusion latency per transaction (Fig. 8 left).
      for (const auto& seg : block.segments) {
        for (const auto& id : seg.txids) {
          if (!tx_settled_.insert(id).second) continue;
          sim_.obs().tracer.emit(obs::EventKind::kTxFinalize, leader, 0,
                                 core::txid_short(id), block.height);
          if (anomaly_) anomaly_->on_settle(core::txid_short(id), sim_.now());
          auto it = tx_created_.find(id);
          if (it == tx_created_.end()) continue;
          block_latency_.add(now_s - sim::to_seconds(it->second));
        }
      }
    }
    schedule_next_block();
  });
}

void LoNetwork::run_for(double seconds) {
  sim_.run_until(sim_.now() + sim::from_seconds(seconds));
}

// --------------------------------------------------------- fault injection ----

void LoNetwork::crash_node(std::size_t i, bool wipe_mempool) {
  const auto id = static_cast<core::NodeId>(i);
  if (!sim_.node_up(id)) return;
  // Order matters: marking the node down first bumps its epoch, so nothing
  // the dying node scheduled can fire; then the node wipes volatile state.
  sim_.set_node_up(id, false);
  nodes_.at(i)->crash(wipe_mempool);
  crash_time_s_.at(i) = sim::to_seconds(sim_.now());
  ever_crashed_.at(i) = true;
}

void LoNetwork::restart_node(std::size_t i) {
  const auto id = static_cast<core::NodeId>(i);
  if (sim_.node_up(id)) return;
  // Up first: restart() re-arms timers under the current (live) epoch.
  sim_.set_node_up(id, true);
  nodes_.at(i)->restart();
  crash_time_s_.at(i) = -1.0;
}

AnomalyMonitor& LoNetwork::start_anomaly_monitor(const AnomalyConfig& cfg) {
  if (!anomaly_) {
    anomaly_ = std::make_unique<AnomalyMonitor>(sim_, cfg);
    anomaly_->start();
  }
  return *anomaly_;
}

sim::FaultInjector& LoNetwork::faults() {
  if (!faults_) {
    faults_ = std::make_unique<sim::FaultInjector>(
        sim_, config_.seed ^ 0x9e3779b97f4a7c15ULL,
        [this](core::NodeId id, bool wipe) { crash_node(id, wipe); },
        [this](core::NodeId id) { restart_node(id); });
  }
  return *faults_;
}

// ------------------------------------------------------ invariant checking ----

std::vector<std::string> LoNetwork::check_invariants() const {
  std::vector<std::string> out;
  const std::size_t n = nodes_.size();
  auto note = [&out](std::string msg) { out.push_back(std::move(msg)); };

  for (std::size_t i = 0; i < n; ++i) {
    if (malicious_[i]) continue;  // a faulty node's registry proves nothing
    // Accuracy (Sec. 3.2): no correct node may ever be *exposed* — exposure
    // requires cryptographic evidence no asynchrony or crash can fabricate.
    // Sorted so violation reports (and the determinism trace digest built
    // over them) do not depend on hash-set iteration order.
    for (core::NodeId accused : util::sorted_keys(nodes_[i]->registry().exposed())) {
      if (accused < n && !malicious_[accused]) {
        note("node " + std::to_string(i) + " falsely exposed correct node " +
             std::to_string(accused));
      }
    }
    // No double-commit: each append-only shard log holds each id at most
    // once, and no id appears in more than one shard's log (the partition
    // invariant: shard s may only commit ids with shard_of(id) == s).
    const std::uint32_t k = nodes_[i]->shard_count();
    std::unordered_set<core::TxId, core::TxIdHash> uniq;
    std::size_t total_committed = 0;
    bool partition_ok = true;
    for (std::uint32_t s = 0; s < k; ++s) {
      const auto& order = nodes_[i]->log(s).order();
      total_committed += order.size();
      uniq.insert(order.begin(), order.end());
      for (const auto& id : order) {
        if (nodes_[i]->shard_of(id) != s) partition_ok = false;
      }
    }
    if (uniq.size() != total_committed) {
      note("node " + std::to_string(i) + " double-committed " +
           std::to_string(total_committed - uniq.size()) + " id(s)");
    }
    if (!partition_ok) {
      note("node " + std::to_string(i) +
           " committed an id outside its content-hash shard");
    }
    // Log/mempool consistency: everything a correct node holds it has also
    // committed to (admission commits immediately; only malicious nodes
    // stealth-store content off the record). The committing log must be the
    // id's own shard log.
    for (const auto& [id, tx] : nodes_[i]->mempool()) {
      if (!nodes_[i]->log(nodes_[i]->shard_of(id)).contains(id)) {
        note("node " + std::to_string(i) +
             " holds a mempool tx missing from its commitment log");
        break;
      }
    }
    // Membership accuracy: a correct node that is up and has never crashed
    // answers every probe (directly or through proxies), so no correct
    // observer may hold it *confirmed* faulty. (Transient suspicion is fine
    // — that is what the refutation window is for; and a node that did crash
    // may legitimately stay confirmed until its rejoin gossip lands.)
    if (const auto* det = nodes_[i]->swim()) {
      for (const auto& [member, ms] : det->members()) {
        if (ms.state != membership::MemberState::kConfirmed) continue;
        if (member < n && !malicious_[member] &&
            sim_.node_up(member) && !ever_crashed_[member]) {
          note("node " + std::to_string(i) +
               " confirmed live correct node " + std::to_string(member) +
               " as faulty");
        }
      }
    }
  }
  return out;
}

void LoNetwork::start_invariant_checker(sim::Duration period, bool fail_fast) {
  invariant_period_ = std::max<sim::Duration>(1, period);
  invariant_fail_fast_ = fail_fast;
  schedule_invariant_check();
}

void LoNetwork::schedule_invariant_check() {
  sim_.schedule(invariant_period_, [this] {
    auto violations = check_invariants();
    if (!violations.empty()) {
      std::string joined;
      for (const auto& v : violations) {
        if (!joined.empty()) joined += "; ";
        joined += v;
      }
      invariant_violations_.insert(invariant_violations_.end(),
                                   violations.begin(), violations.end());
      if (invariant_fail_fast_) {
        throw std::runtime_error("invariant violation at t=" +
                                 std::to_string(sim::to_seconds(sim_.now())) +
                                 "s: " + joined);
      }
    }
    schedule_invariant_check();
  });
}

core::NodeStats LoNetwork::total_stats() const {
  core::NodeStats sum;
  for (const auto& n : nodes_) sum += n->stats();
  return sum;
}

crypto::VerifyCacheStats LoNetwork::total_verify_cache_stats() const {
  crypto::VerifyCacheStats sum;
  for (const auto& n : nodes_) sum += n->verify_cache_stats();
  return sum;
}

void LoNetwork::publish_metrics() {
  auto& reg = sim_.obs().registry;
  reg.gauge("harness.txs_injected") = static_cast<double>(txs_injected_);
  reg.gauge("harness.txs_settled") = static_cast<double>(tx_settled_.size());
  reg.gauge("harness.chain_height") = static_cast<double>(chain_.height());
  auto& mempool_h = reg.histogram("harness.mempool_latency_s");
  for (std::size_t i = published_mempool_; i < mempool_latency_.count(); ++i) {
    mempool_h.observe(mempool_latency_.values()[i]);
  }
  published_mempool_ = mempool_latency_.count();
  auto& block_h = reg.histogram("harness.block_latency_s");
  for (std::size_t i = published_block_; i < block_latency_.count(); ++i) {
    block_h.observe(block_latency_.values()[i]);
  }
  published_block_ = block_latency_.count();
}

double LoNetwork::coverage(const core::TxId& id) const {
  std::size_t holders = 0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (malicious_[i]) continue;
    ++correct;
    if (nodes_[i]->has_tx(id)) ++holders;
  }
  return correct == 0 ? 0.0
                      : static_cast<double>(holders) /
                            static_cast<double>(correct);
}

std::uint64_t LoNetwork::total_sketch_decodes() const {
  std::uint64_t sum = 0;
  for (const auto& n : nodes_) sum += n->sketch_decodes();
  return sum;
}

DetectionTimes LoNetwork::detection_times() const {
  DetectionTimes out;
  if (malicious_count_ == 0) return out;

  // For completeness we need, for every (correct node, faulty node) pair, the
  // first time the correct node blamed the faulty one.
  const std::size_t n = nodes_.size();
  auto pair_key = [n](core::NodeId a, core::NodeId b) {
    return static_cast<std::uint64_t>(a) * n + b;
  };

  auto complete_time = [&](const std::vector<BlameEvent>& events) {
    std::unordered_map<std::uint64_t, double> first;
    for (const auto& ev : events) {
      if (ev.observer >= n || ev.accused >= n) continue;
      if (malicious_[ev.observer] || !malicious_[ev.accused]) continue;
      auto [it, inserted] = first.emplace(pair_key(ev.observer, ev.accused), ev.when_s);
      if (!inserted && ev.when_s < it->second) it->second = ev.when_s;
    }
    const std::size_t want = (n - malicious_count_) * malicious_count_;
    if (first.size() < want) return -1.0;
    double latest = 0.0;
    for (const auto& [k, t] : first) latest = std::max(latest, t);
    return latest;
  };

  out.suspicion_complete_s = complete_time(suspicion_events_);
  out.exposure_complete_s = complete_time(exposure_events_);
  if (!exposure_events_.empty()) {
    double first = exposure_events_.front().when_s;
    for (const auto& ev : exposure_events_) first = std::min(first, ev.when_s);
    out.first_exposure_s = first;
  }

  // Per-attacker dissemination lag (paper's Fig. 6 "Exposure" measurement).
  if (out.exposure_complete_s >= 0) {
    std::unordered_map<core::NodeId, double> first_by;
    std::unordered_map<core::NodeId, double> last_by;
    std::unordered_map<core::NodeId, std::size_t> seen_by;
    std::unordered_map<std::uint64_t, bool> pair_seen;
    for (const auto& ev : exposure_events_) {
      if (ev.observer >= n || ev.accused >= n) continue;
      if (malicious_[ev.observer] || !malicious_[ev.accused]) continue;
      if (!pair_seen.emplace(pair_key(ev.observer, ev.accused), true).second) {
        continue;
      }
      auto [fit, fnew] = first_by.emplace(ev.accused, ev.when_s);
      if (!fnew) fit->second = std::min(fit->second, ev.when_s);
      auto [lit, lnew] = last_by.emplace(ev.accused, ev.when_s);
      if (!lnew) lit->second = std::max(lit->second, ev.when_s);
      ++seen_by[ev.accused];
    }
    double spread = 0.0;
    bool all = true;
    for (std::size_t i = 0; i < n; ++i) {
      if (!malicious_[i]) continue;
      const auto id = static_cast<core::NodeId>(i);
      if (seen_by[id] < n - malicious_count_) {
        all = false;
        break;
      }
      spread = std::max(spread, last_by[id] - first_by[id]);
    }
    if (all) out.exposure_spread_s = spread;
  }
  return out;
}

}  // namespace lo::harness

#include "harness/lo_network.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "util/ordered.hpp"

namespace lo::harness {

LoNetwork::LoNetwork(const NetworkConfig& config) : Network(config) {
  const std::size_t n = config.num_nodes;
  add_nodes([&](core::NodeId id) {
    auto keys = crypto::derive_keypair(config.seed * 0x10001ULL + id,
                                       config.node.sig_mode);
    auto node = std::make_unique<core::LoNode>(sim_, id, config.node, keys);
    if (malicious_[id]) node->behavior() = config.malicious;
    node->set_verify_tier(verify_tier_);
    return node;
  });
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

void LoNetwork::on_inject(const core::Transaction& tx) {
  tx_created_.emplace(tx.id, tx.created_at);
}

void LoNetwork::on_event(const obs::TraceEvent& ev) {
  switch (static_cast<obs::EventKind>(ev.kind)) {
    case obs::EventKind::kSuspected:
      suspicion_events_.push_back({ev.node, ev.peer, sim::to_seconds(ev.at)});
      if (anomaly_) anomaly_->on_suspicion();
      break;
    case obs::EventKind::kExpose:
      exposure_events_.push_back({ev.node, ev.peer, sim::to_seconds(ev.at)});
      break;
    case obs::EventKind::kReconcileRound:
      if (anomaly_) anomaly_->on_reconcile(ev.a != obs::kReconcileOverflow);
      break;
    case obs::EventKind::kMemberState: {
      const auto state = static_cast<membership::MemberState>(ev.a);
      const double when_s = sim::to_seconds(ev.at);
      member_events_.push_back({ev.node, ev.peer, state, when_s});
      // Crash -> confirmation latency: only counted while the member is in
      // fact down (a confirm of a node that already restarted is stale
      // news, not a detection).
      if (state == membership::MemberState::kConfirmed &&
          ev.peer < crash_time_s_.size() && crash_time_s_[ev.peer] >= 0.0) {
        const double latency_s = when_s - crash_time_s_[ev.peer];
        membership_detection_latency_.add(latency_s);
        sim_.obs().registry.histogram("membership.detection_latency_s")
            .observe(latency_s);
      }
      break;
    }
    default:
      Network::on_event(ev);
  }
}

void LoNetwork::start_block_production(const consensus::LeaderConfig& cfg,
                                       bool correct_leaders_only) {
  leaders_ = std::make_unique<consensus::LeaderSchedule>(nodes_.size(), cfg);
  correct_leaders_only_ = correct_leaders_only;
  settle_at_admit_ = false;
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
    // lolint:allow(unordered-iter) reason=stops at the first miss and names no tx, so the order cannot show
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
            sim_.node_up(member) && !ever_crashed(member)) {
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

crypto::VerifyCacheStats LoNetwork::total_verify_cache_stats() const {
  crypto::VerifyCacheStats sum;
  for (const auto& n : nodes_) sum += n->verify_cache_stats();
  return sum;
}

void LoNetwork::publish_metrics() {
  auto& reg = sim_.obs().registry;
  reg.gauge("harness.txs_injected") = static_cast<double>(txs_injected());
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
    // lolint:allow(unordered-iter) reason=a max does not depend on the order
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

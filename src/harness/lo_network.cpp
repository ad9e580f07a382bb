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

void LoNetwork::start_block_production(const consensus::LeaderConfig& cfg,
                                       bool correct_leaders_only) {
  leaders_ = std::make_unique<consensus::LeaderSchedule>(nodes_.size(), cfg);
  correct_leaders_only_ = correct_leaders_only;
  sim_.obs().tracer.emit(obs::EventKind::kBlockStart, 0);
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
      // One tx.finalize per tx, at its first inclusion: the analyzer takes
      // its block latency (Fig. 8 left) and settles it there.
      for (const auto& seg : block.segments) {
        for (const auto& id : seg.txids) {
          const auto txid = core::txid_short(id);
          if (analyzer_.finalized(txid)) continue;
          sim_.obs().tracer.emit(obs::EventKind::kTxFinalize, leader, 0, txid,
                                 block.height);
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
            sim_.node_up(member) && analyzer_.crashed.count(member) == 0) {
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

namespace {

// Observes the samples recorded since the high-water mark `published`.
void observe_new(obs::LogHistogram& h, const sim::Samples& samples,
                 std::size_t& published) {
  for (std::size_t i = published; i < samples.count(); ++i) {
    h.observe(samples.values()[i]);
  }
  published = samples.count();
}

}  // namespace

void LoNetwork::publish_metrics() {
  auto& reg = sim_.obs().registry;
  const auto& txs = analyzer_.txs;
  reg.gauge("harness.txs_injected") = static_cast<double>(txs_injected());
  // Txs included in a block; a run without blocks reports 0.
  reg.gauge("harness.txs_settled") = static_cast<double>(
      std::count_if(txs.begin(), txs.end(),
                    [](const auto& kv) { return kv.second.finalize_at >= 0; }));
  reg.gauge("harness.chain_height") = static_cast<double>(chain_.height());
  observe_new(reg.histogram("harness.mempool_latency_s"),
              analyzer_.mempool_latency, published_mempool_);
  observe_new(reg.histogram("harness.block_latency_s"),
              analyzer_.block_latency, published_block_);
  // Only a run with a confirmed crash has this histogram.
  const auto& detection = analyzer_.membership_detection_latency;
  if (published_detection_ < detection.count()) {
    observe_new(reg.histogram("membership.detection_latency_s"), detection,
                published_detection_);
  }
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

}  // namespace lo::harness

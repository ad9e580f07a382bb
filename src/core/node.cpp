#include "core/node.hpp"

#include <algorithm>
#include <string>

#include "membership/messages.hpp"
#include "minisketch/partitioned.hpp"
#include "util/ordered.hpp"

namespace lo::core {

namespace {

std::uint64_t suspicion_key(NodeId reporter, std::uint64_t epoch) {
  return (static_cast<std::uint64_t>(reporter) << 32) ^ (epoch & 0xffffffffULL);
}

// Per-(peer, shard) map key — same packing as the registry's commitment key.
std::uint64_t ps_key(NodeId peer, std::uint32_t shard) {
  return AccountabilityRegistry::key(peer, shard);
}

}  // namespace

LoNode::LoNode(sim::Simulator& sim, NodeId id, const LoConfig& config,
               crypto::KeyPair keys, Hooks* hooks)
    : sim_(sim),
      id_(id),
      config_(config),
      signer_(keys, config.sig_mode),
      hooks_(hooks),
      registry_(config.sig_mode, config.two_stage_checks) {
  // Fold the shard count into the commitment params so every wire codec
  // (headers, bundles, blocks) sees it; at k=1 nothing changes on the wire.
  k_ = static_cast<std::uint32_t>(
      config_.mempool_shards == 0 ? 1 : config_.mempool_shards);
  config_.commitment.shards = k_;
  // Fail fast on configs that would silently break retry/backoff or the
  // membership timing; no node may be built on a nonsensical config.
  config_.validate();
  logs_.reserve(k_);
  content_clocks_.reserve(k_);
  for (std::uint32_t s = 0; s < k_; ++s) {
    logs_.emplace_back(id_, config_.commitment, s);
    content_clocks_.emplace_back(config_.commitment.clock_cells,
                                 config_.commitment.clock_hashes);
  }
  registry_.set_verify_cache(&verify_cache_);
  // Observability: mechanism counters live in the simulator's registry as
  // per-node labeled cells; protocol events go to the shared tracer.
  obs::Registry& reg = sim_.obs().registry;
  const obs::Labels node_label{{"node", std::to_string(id_)}};
  tracer_ = &sim_.obs().tracer;
  c_requests_sent_ = &reg.counter("lo.requests_sent", node_label);
  c_retries_sent_ = &reg.counter("lo.retries_sent", node_label);
  c_timeouts_fired_ = &reg.counter("lo.timeouts_fired", node_label);
  c_suspicions_raised_ = &reg.counter("lo.suspicions_raised", node_label);
  c_suspicions_retracted_ = &reg.counter("lo.suspicions_retracted", node_label);
  c_crashes_ = &reg.counter("lo.crashes", node_label);
  c_restarts_ = &reg.counter("lo.restarts", node_label);
  c_member_suspects_ = &reg.counter("lo.member_suspects", node_label);
  c_member_confirms_ = &reg.counter("lo.member_confirms", node_label);
  c_suspicions_absolved_ = &reg.counter("lo.suspicions_absolved", node_label);
  // Per-shard cells for the hot accountability counters. At k=1 the labels
  // (and therefore the exported ids) are exactly the per-node ones — sharded
  // attribution appears only when a run actually shards.
  c_commits_.reserve(k_);
  c_sync_rounds_.reserve(k_);
  c_suspicions_.reserve(k_);
  for (std::uint32_t s = 0; s < k_; ++s) {
    obs::Labels labels = node_label;
    if (k_ > 1) labels.emplace_back("shard", std::to_string(s));
    c_commits_.push_back(&reg.counter("lo.commits", labels));
    c_sync_rounds_.push_back(&reg.counter("lo.sync_rounds", labels));
    c_suspicions_.push_back(&reg.counter("lo.suspicions", labels));
  }
  verify_cache_.bind(obs::Scope(&reg, node_label));
  verify_cache_.set_tracer(tracer_, id_);
}

void LoNode::set_neighbors(std::vector<NodeId> neighbors) {
  neighbors_ = std::move(neighbors);
}

void LoNode::set_peer_candidates(std::vector<NodeId> candidates) {
  peer_candidates_ = std::move(candidates);
}

void LoNode::set_member_universe(std::vector<NodeId> members) {
  member_universe_ = std::move(members);
}

const Transaction* LoNode::get_tx(const TxId& id) const {
  auto it = store_.find(id);
  return it == store_.end() ? nullptr : &it->second;
}

BundleMap LoNode::mirror_of(NodeId creator, std::uint32_t shard) const {
  BundleMap out;
  auto it = mirrors_.find(ps_key(creator, shard));
  if (it == mirrors_.end()) return out;
  // lolint:allow(unordered-iter) reason=copies map-to-map; the result's content is order-independent and callers never observe insertion order
  for (const auto& [seqno, sb] : it->second) out[seqno] = sb.txids;
  return out;
}

std::size_t LoNode::accountability_memory_bytes() const noexcept {
  std::size_t sum = registry_.memory_bytes();
  // lolint:allow(unordered-iter) reason=commutative byte-count fold; the sum is order-independent and never leaves local metrics
  for (const auto& [key, bundles] : mirrors_) {
    sum += sizeof(key);
    // lolint:allow(unordered-iter) reason=commutative byte-count fold over the inner map; order cannot escape a sum
    for (const auto& [seqno, sb] : bundles) sum += 8 + sb.wire_size();
  }
  // Commitment-log bookkeeping beyond the plain mempool contents.
  for (const auto& l : logs_) sum += l.memory_bytes();
  return sum;
}

// ------------------------------------------------------------- Stage I ----

void LoNode::submit_transaction(const Transaction& tx) {
  if (crashed_) return;  // a down miner accepts no client traffic
  admit_transaction(tx, id_);
}

void LoNode::stealth_store(const Transaction& tx) {
  // Sec. 5.3 collusion: the transaction arrives off-channel — content is
  // stored but deliberately NOT committed and NOT acknowledged, leaving no
  // trace in this miner's commitment log.
  if (store_.count(tx.id) != 0) return;
  store_.emplace(tx.id, tx);
  valid_.insert(tx.id);
  stealth_txs_.push_back(tx.id);
}

void LoNode::admit_transaction(const Transaction& tx, NodeId source) {
  if (store_.count(tx.id) != 0) return;
  if (invalid_.count(tx.id) != 0) return;
  if (!prevalidate(tx, config_.prevalidation, &verify_cache_)) {
    invalid_.insert(tx.id);
    return;
  }
  const std::uint32_t shard = shard_of(tx.id);
  // Mempool censorship: a censoring miner silently refuses foreign txs
  // (Sec. 2.2 "Mempool Censorship" — it neither commits nor relays them).
  // The cross-shard variant censors only one shard's foreign txs.
  if (censors_shard(shard) && source != id_) return;

  store_.emplace(tx.id, tx);
  valid_.insert(tx.id);
  content_clocks_[shard].add(txid_short(tx.id));
  commit_batch({tx.id}, source, shard);
  tracer_->emit(obs::EventKind::kTxAdmit, id_, source, txid_short(tx.id),
                logs_[shard].seqno(), 0, shard);
  if (hooks_ && hooks_->on_mempool_admit) {
    hooks_->on_mempool_admit(id_, tx, sim_.now());
  }
}

void LoNode::commit_batch(const std::vector<TxId>& ids, NodeId source,
                          std::uint32_t shard) {
  if (ids.empty()) return;
  logs_[shard].append(ids, source);
  ++*c_commits_[shard];
  tracer_->emit(obs::EventKind::kCommitCreate, id_, source, ids.size(),
                logs_[shard].seqno(), 0, shard);
  if (tracer_->enabled()) {
    // Per-transaction commit marker: loscope keys lineage on the short tx
    // id, so the batch-level kCommitCreate alone cannot attribute a commit
    // to a transaction. The dispatch's causal span links it to the message
    // or submission that delivered the ids.
    for (const TxId& id : ids) {
      tracer_->emit(obs::EventKind::kTxCommit, id_, source, txid_short(id),
                    logs_[shard].seqno(), 0, shard);
    }
  }
  if (!fork_logs_.empty()) {
    // The fork tells a censored story: ids with an even short hash vanish
    // (own transactions are always kept — the fork must stay plausible).
    // At k>1 the parity is taken after dividing out the shard factor:
    // within a shard txid_short % k is constant, so the raw parity would
    // censor everything or nothing for even k.
    std::vector<TxId> fork_part;
    for (const auto& id : ids) {
      const std::uint64_t raw = txid_short(id);
      const std::uint64_t parity = k_ > 1 ? (raw / k_) % 2 : raw % 2;
      if (source == id_ || parity != 0) fork_part.push_back(id);
    }
    fork_logs_[shard].append(fork_part, source);
  }
}

// ----------------------------------------------------------- crash/restart ----

void LoNode::crash(bool wipe_mempool) {
  if (crashed_) return;
  crashed_ = true;
  ++*c_crashes_;
  // Volatile state dies with the process. The commitment log (log_ and an
  // equivocator's fork_log_) persists as "disk"; so do suspicion_epoch_ and
  // own_nonce_ — monotonic counters a real implementation would fsync to
  // avoid reusing epochs or tx nonces after a reboot.
  pending_.clear();
  outstanding_sync_.clear();
  coverage_.clear();
  suspected_by_.clear();
  suspicion_snapshot_.clear();
  seen_suspicions_.clear();
  seen_exposures_.clear();
  mirrors_.clear();
  seen_blocks_.clear();
  blocks_awaiting_bundles_.clear();
  stealth_txs_.clear();
  invalid_.clear();
  // The failure detector's member table is volatile; only member_incarnation_
  // persists (like suspicion_epoch_, a counter a real node would fsync so a
  // reboot re-joins with a strictly higher incarnation).
  swim_.reset();
  registry_ = AccountabilityRegistry(config_.sig_mode, config_.two_stage_checks);
  // The verify cache deliberately survives the crash: it memoizes pure
  // functions of message bytes, so replaying it cannot leak pre-crash state
  // into any decision a fresh node would make differently.
  registry_.set_verify_cache(&verify_cache_);
  if (wipe_mempool) {
    store_.clear();
    valid_.clear();
  }
  // The content clocks describe the content we can actually serve — rebuild
  // them per shard from what survived (BloomClock addition commutes, so
  // iteration order of the unordered map cannot affect the result).
  for (std::uint32_t s = 0; s < k_; ++s) {
    content_clocks_[s] = bloom::BloomClock(config_.commitment.clock_cells,
                                           config_.commitment.clock_hashes);
  }
  // lolint:allow(unordered-iter) reason=BloomClock::add is a commutative counter increment; the rebuilt clocks are identical for any visit order
  for (const auto& [id, tx] : store_) {
    content_clocks_[shard_of(id)].add(txid_short(id));
  }
}

void LoNode::restart() {
  if (!crashed_) return;
  crashed_ = false;
  ++*c_restarts_;
  // Fresh random phase, exactly like a cold start; the pre-crash timers were
  // invalidated by the epoch bump when the simulator marked us down.
  const sim::Duration phase = static_cast<sim::Duration>(
      sim_.node_rng(id_).next_below(static_cast<std::uint64_t>(config_.recon_interval)));
  sim_.schedule_for(id_, phase, [this] { sync_round(); });
  if (config_.rotate_interval > 0 && view_) {
    sim_.schedule_for(id_, config_.rotate_interval, [this] { rotate_neighbors(); });
  }
  // Re-join the membership protocol under a strictly higher incarnation: our
  // next alive update overrides any suspect/confirm issued against the
  // previous life (the SWIM rejoin path).
  if (config_.membership.enabled) {
    ++member_incarnation_;
    init_membership();
  }
  // Committed ids whose content was lost with the volatile mempool are
  // re-fetched explicitly; commitments missed while down arrive through the
  // ordinary sketch/bulk-sync rounds.
  request_missing_content();
}

// -------------------------------------------------------------- membership ----

void LoNode::init_membership() {
  swim_.reset();
  if (!config_.membership.enabled) return;
  membership::SwimDetector::Callbacks cb;
  cb.send = [this](NodeId to, sim::PayloadPtr msg) {
    sim_.send(id_, to, std::move(msg));
  };
  cb.timer = [this](sim::Duration delay, std::function<void()> fn) {
    // Epoch-scoped: timers armed before a crash never fire into the new life.
    sim_.schedule_for(id_, delay, std::move(fn));
  };
  cb.rand_below = [this](std::uint64_t bound) {
    return sim_.node_rng(id_).next_below(bound);
  };
  cb.on_state = [this](NodeId node, membership::MemberState state,
                       std::uint64_t /*incarnation*/) {
    if (state == membership::MemberState::kSuspect) ++*c_member_suspects_;
    if (state == membership::MemberState::kConfirmed) ++*c_member_confirms_;
    if (hooks_ && hooks_->on_member_state) {
      hooks_->on_member_state(id_, node, state, sim_.now());
    }
  };
  cb.on_incarnation = [this](std::uint64_t incarnation) {
    member_incarnation_ = incarnation;
  };
  swim_ = std::make_unique<membership::SwimDetector>(id_, config_.membership,
                                                     std::move(cb), tracer_);
  swim_->set_members(member_universe_.empty() ? neighbors_ : member_universe_);
  swim_->start(member_incarnation_);
}

bool LoNode::presumed_live(NodeId peer) const {
  return swim_ == nullptr || swim_->presumed_live(peer);
}

void LoNode::request_missing_content() {
  std::vector<TxId> missing;
  for (const auto& l : logs_) {
    for (const auto& id : l.order()) {
      if (store_.count(id) == 0 && invalid_.count(id) == 0) missing.push_back(id);
    }
  }
  if (missing.empty() || neighbors_.empty()) return;
  for (std::size_t off = 0; off < missing.size(); off += config_.max_delta) {
    const std::size_t end = std::min(missing.size(), off + config_.max_delta);
    auto txreq = std::make_shared<TxRequest>();
    txreq->want.assign(missing.begin() + static_cast<std::ptrdiff_t>(off),
                       missing.begin() + static_cast<std::ptrdiff_t>(end));
    const NodeId peer = neighbors_[sim_.node_rng(id_).next_below(neighbors_.size())];
    const std::uint64_t rid = register_pending(peer, RequestKind::kContent, txreq);
    txreq->request_id = rid;
    sim_.send(id_, peer, txreq);
  }
}

// --------------------------------------------------------- reconciliation ----

void LoNode::on_start() {
  if (behavior_.equivocate && fork_logs_.empty()) {
    fork_logs_.reserve(k_);
    for (std::uint32_t s = 0; s < k_; ++s) {
      fork_logs_.emplace_back(id_, config_.commitment, s);
    }
  }
  // Random phase so the network's sync rounds do not beat in lockstep.
  const sim::Duration phase = static_cast<sim::Duration>(
      sim_.node_rng(id_).next_below(static_cast<std::uint64_t>(config_.recon_interval)));
  sim_.schedule_for(id_, phase, [this] { sync_round(); });

  init_membership();

  if (config_.rotate_interval > 0) {
    view_ = std::make_unique<overlay::BasaltView>(id_, config_.view_size,
                                                  sim_.node_rng(id_).next());
    for (NodeId n : neighbors_) view_->offer(n);
    sim_.schedule_for(id_, config_.rotate_interval, [this] { rotate_neighbors(); });
  }
}

void LoNode::rotate_neighbors() {
  // Basalt-style continuous sampling: offer fresh candidates, reseed one
  // slot, and adopt the view as the active neighbor set, filtering blamed
  // peers (Sec. 5.1: rotation continues until enough non-suspected,
  // non-exposed peers are present).
  if (view_ && !peer_candidates_.empty()) {
    const std::size_t offers = std::min<std::size_t>(8, peer_candidates_.size());
    for (std::size_t k = 0; k < offers; ++k) {
      const NodeId c = peer_candidates_[sim_.node_rng(id_).next_below(
          peer_candidates_.size())];
      if (!registry_.is_exposed(c) && !registry_.is_suspected(c)) {
        view_->offer(c);
      }
    }
    view_->refresh();
    for (NodeId n : neighbors_) {
      if (registry_.is_exposed(n) || registry_.is_suspected(n)) {
        view_->evict(n);
      }
    }
    auto next = view_->view();
    std::erase_if(next, [this](NodeId n) {
      return n == id_ || registry_.is_exposed(n);
    });
    if (!next.empty()) neighbors_ = std::move(next);
  }
  sim_.schedule_for(id_, config_.rotate_interval, [this] { rotate_neighbors(); });
}

void LoNode::schedule_sync() {
  sim_.schedule_for(id_, config_.recon_interval, [this] { sync_round(); });
}

void LoNode::sync_round() {
  if (!neighbors_.empty()) {
    std::vector<NodeId> candidates;
    candidates.reserve(neighbors_.size());
    for (NodeId n : neighbors_) {
      if (registry_.is_exposed(n)) continue;
      // Peers the failure detector has confirmed faulty are skipped: syncing
      // with a dead process only burns the retry budget and, absent the
      // membership gate, would end in a bogus accountability suspicion.
      if (swim_ != nullptr && swim_->confirmed_faulty(n)) continue;
      candidates.push_back(n);
    }
    sim_.node_rng(id_).shuffle(candidates);
    const std::size_t fanout = std::min(config_.recon_fanout, candidates.size());
    // One candidate shuffle per round regardless of k (identical RNG stream
    // at every shard count); each chosen peer reconciles every shard, and the
    // per-shard in-sync check inside send_sync_request skips settled ones.
    for (std::size_t i = 0; i < fanout; ++i) {
      for (std::uint32_t s = 0; s < k_; ++s) {
        send_sync_request(candidates[i], s);
      }
    }
  }
  schedule_sync();
}

CommitmentLog& LoNode::log_for_peer(NodeId peer, std::uint32_t shard) {
  // Equivocators show the censored fork to every even peer id.
  if (behavior_.equivocate && !fork_logs_.empty() && (peer % 2 == 0)) {
    return fork_logs_[shard];
  }
  return logs_[shard];
}

std::size_t LoNode::wire_capacity_for(NodeId peer, const CommitmentLog& log,
                                      std::size_t delta_hint) const {
  // Size the transmitted sketch prefix to the estimated set difference with
  // the peer: the Bloom-Clock L1 distance estimates it when we have seen a
  // commitment from the peer, otherwise a conservative default. A 2x margin
  // plus slack keeps the decode success rate high; the full local sketch is
  // the upper bound.
  if (!config_.adaptive_wire_sketch) return config_.commitment.sketch_capacity;
  std::size_t estimate = 24;
  // Per-shard estimate: the Bloom-clock distance is taken against the peer's
  // commitment for THIS log's shard, so small shards transmit small sketch
  // prefixes instead of paying for the global backlog.
  if (const auto* h = registry_.latest(peer, log.shard())) {
    estimate =
        static_cast<std::size_t>(log.clock().estimate_difference(h->clock));
  }
  estimate = std::max(estimate, delta_hint);
  return sketch::adaptive_capacity(estimate, config_.commitment.sketch_capacity);
}

void LoNode::send_sync_request(NodeId peer, std::uint32_t shard) {
  CommitmentLog& use_log = log_for_peer(peer, shard);
  // Alg. 1 line 13: request only while the sets differ. Count and clock
  // equality alone can be fooled by cell collisions, so the sketch prefix is
  // compared too; any mismatch means C_i \ C_j or C_j \ C_i is non-empty.
  if (const auto* ph = registry_.latest(peer, shard)) {
    if (ph->count == use_log.count() && ph->clock == use_log.clock()) {
      const auto trunc = use_log.sketch().truncated(ph->sketch.capacity());
      if (trunc.syndromes() == ph->sketch.syndromes()) return;  // in sync
    }
  }
  // One in flight per (peer, shard) pair.
  if (outstanding_sync_.count(ps_key(peer, shard)) != 0) return;

  auto req = std::make_shared<SyncRequest>();
  req->commitment =
      use_log.make_header(signer_, wire_capacity_for(peer, use_log, 0));
  const std::uint64_t rid = register_pending(peer, RequestKind::kSync, req);
  pending_.at(rid).shard = shard;
  pending_.at(rid).snapshot_clock = content_clocks_[shard];
  outstanding_sync_.insert(ps_key(peer, shard));
  req->request_id = rid;
  ++*c_sync_rounds_[shard];
  sim_.send(id_, peer, req);
}

void LoNode::handle_sync_request(NodeId from, const SyncRequest& req) {
  if (behavior_.ignore_requests) return;
  // The shard rides inside the embedded commitment; reject out-of-range ids
  // (a malicious peer could address a shard pipeline we do not run).
  const std::uint32_t shard = req.commitment.shard;
  if (shard >= k_) return;
  observe_header(from, req.commitment);
  // The embedded commitment came straight from the peer, so it also answers
  // any open challenge we hold against it (see handle_challenge_response):
  // without this, a node that crashed past its reporters' coverage re-probes
  // stays suspected forever even after a full recovery, because the original
  // suspicion floods were swallowed by the dead process and are never
  // re-delivered.
  handle_challenge_response(from, req.commitment);
  if (registry_.is_exposed(from)) return;

  CommitmentLog& use_log = log_for_peer(from, shard);
  // Full mempool censorship, or the cross-shard attack on this shard.
  const bool censoring = censors_shard(shard);

  // Set reconciliation: our sketch (truncated to the request's capacity)
  // XOR theirs encodes the exact symmetric difference.
  sketch::Sketch merged =
      use_log.sketch().truncated(req.commitment.sketch.capacity());
  merged.merge(req.commitment.sketch);
  ++sketch_decodes_;
  const auto diff = merged.decode();
  if (hooks_ && hooks_->on_reconcile) {
    hooks_->on_reconcile(id_, diff.has_value());
  }
  if (tracer_->enabled()) {
    const std::uint64_t outcome = !diff ? obs::kReconcileOverflow
                                  : diff->empty() ? obs::kReconcileEmpty
                                                  : obs::kReconcileDecoded;
    tracer_->emit(obs::EventKind::kReconcileRound, id_, from, outcome,
                  diff ? diff->size() : merged.capacity(), 0, shard);
  }

  auto resp = std::make_shared<SyncResponse>();
  resp->request_id = req.request_id;
  if (!behavior_.drop_gossip) resp->gossip = pick_gossip_headers();

  if (!diff) {
    // Difference exceeds the transmitted capacity: answer with our full
    // sketch so the requester can reconcile locally, plus a bounded window
    // of our ids. The window position is randomized so that successive
    // rounds cover the whole backlog even when it dwarfs max_delta (a fixed
    // window would resend the same ids forever during bulk catch-up).
    resp->decode_failed = true;
    resp->commitment = use_log.make_header(signer_);
    const auto& order = use_log.order();
    const std::size_t window = std::min(config_.max_delta, order.size());
    const std::size_t max_offset = order.size() - window;
    const std::size_t offset =
        max_offset == 0
            ? 0
            : static_cast<std::size_t>(sim_.node_rng(id_).next_below(max_offset + 1));
    resp->delta_back.assign(
        order.begin() + static_cast<std::ptrdiff_t>(offset),
        order.begin() + static_cast<std::ptrdiff_t>(offset + window));
  } else {
    if (!diff->empty()) ++sync_recons_;
    // Split the difference: ids we can name are ours (the requester lacks
    // them); unresolvable elements belong to the requester (we want them).
    std::vector<TxId> ours;
    for (const auto elem : *diff) {
      if (auto id = use_log.resolve_element(elem)) {
        ours.push_back(*id);
      } else if (!censoring) {
        resp->want_short.push_back(elem);
      }
    }
    std::sort(ours.begin(), ours.end(), [&use_log](const TxId& a, const TxId& b) {
      return use_log.position_of(a) < use_log.position_of(b);
    });
    if (ours.size() > config_.max_delta) ours.resize(config_.max_delta);
    resp->delta_back = std::move(ours);
    resp->commitment = use_log.make_header(
        signer_, wire_capacity_for(from, use_log, diff->size()));
  }
  sim_.send(id_, from, resp);

  // Eager content push: ship the bodies of the delta_back ids we hold right
  // away instead of waiting for a TxRequest round trip (Bitcoin-style tx
  // push; same bytes, one RTT less).
  if (!resp->delta_back.empty() && !censoring) {
    auto bundle = std::make_shared<TxBundleMsg>();
    for (const auto& id : resp->delta_back) {
      auto it2 = store_.find(id);
      if (it2 != store_.end()) bundle->txs.push_back(it2->second);
    }
    if (!bundle->txs.empty()) sim_.send(id_, from, bundle);
  }
}

void LoNode::handle_sync_response(NodeId from, const SyncResponse& resp) {
  const std::uint32_t shard = resp.commitment.shard;
  if (shard >= k_) return;
  auto it = pending_.find(resp.request_id);
  Pending pending;
  bool had_pending = false;
  if (it != pending_.end() && it->second.peer == from) {
    pending = it->second;
    pending_.erase(it);
    outstanding_sync_.erase(ps_key(from, pending.shard));
    had_pending = true;
  }
  observe_header(from, resp.commitment);
  // Direct commitment doubles as a challenge answer (same rule as
  // handle_sync_request): resolve or re-arm the coverage watch.
  handle_challenge_response(from, resp.commitment);
  for (const auto& h : resp.gossip) {
    if (h.node != from && h.node != id_) observe_header(from, h);
  }
  if (registry_.is_exposed(from)) return;

  CommitmentLog& use_log = log_for_peer(from, shard);
  const bool censoring = censors_shard(shard);

  // 1. Ship the transactions the responder asked for. Once it has them, it
  //    owes us a commitment covering our snapshot (coverage watch).
  if (!censoring && !behavior_.ignore_requests) {
    serve_elements(from, shard, resp.want_short, resp.request_id);
  }
  if (had_pending && !resp.decode_failed && pending.snapshot_clock) {
    register_coverage(from, pending.shard, *pending.snapshot_clock);
  }

  // 2. Commit to the ids the responder says we lack — one bundle, in the
  //    responder's order ("Transaction Selection in Received Order") — and
  //    fetch the content. Ids outside the response's shard are dropped: the
  //    partition invariant (log s holds only shard-s ids) must hold even
  //    against a malicious responder.
  std::vector<TxId> fresh;
  for (const auto& id : resp.delta_back) {
    if (invalid_.count(id) != 0) continue;
    if (censoring) continue;
    if (shard_of(id) != shard) continue;
    if (!logs_[shard].contains(id) &&
        std::find(fresh.begin(), fresh.end(), id) == fresh.end()) {
      fresh.push_back(id);
    }
  }
  if (!fresh.empty()) {
    commit_batch(fresh, from, shard);
    std::vector<TxId> want;
    for (const auto& id : fresh) {
      if (store_.count(id) == 0) want.push_back(id);
    }
    if (!want.empty()) {
      // The responder eagerly pushes this content alongside its response, so
      // the explicit request stays latent: it goes out only if the bundle
      // has not arrived by the first timeout.
      auto txreq = std::make_shared<TxRequest>();
      txreq->want = std::move(want);
      const std::uint64_t rid =
          register_pending(from, RequestKind::kContent, txreq);
      txreq->request_id = rid;
    }
  }

  // 3. Recovery path: the responder could not decode our sketch. Its reply
  //    carries a full-capacity sketch; reconcile locally and exchange both
  //    directions explicitly.
  if (resp.decode_failed) {
    sketch::Sketch merged =
        use_log.sketch().truncated(resp.commitment.sketch.capacity());
    merged.merge(resp.commitment.sketch);
    ++sketch_decodes_;
    const auto recovery_diff = merged.decode();
    if (hooks_ && hooks_->on_reconcile) {
      hooks_->on_reconcile(id_, recovery_diff.has_value());
    }
    if (tracer_->enabled()) {
      const std::uint64_t outcome =
          !recovery_diff ? obs::kReconcileOverflow
          : recovery_diff->empty() ? obs::kReconcileEmpty
                                   : obs::kReconcileDecoded;
      tracer_->emit(obs::EventKind::kReconcileRound, id_, from, outcome,
                    recovery_diff ? recovery_diff->size() : merged.capacity(),
                    0, shard);
    }
    if (const auto& diff = recovery_diff) {
      std::vector<std::uint64_t> ours;
      std::vector<std::uint64_t> theirs;
      for (const auto elem : *diff) {
        if (use_log.resolve_element(elem).has_value()) {
          ours.push_back(elem);
        } else {
          theirs.push_back(elem);
        }
      }
      if (!censoring) {
        serve_elements(from, shard, ours, 0);
        if (!theirs.empty()) {
          auto txreq = std::make_shared<TxRequest>();
          txreq->want_short = std::move(theirs);
          const std::uint64_t rid =
              register_pending(from, RequestKind::kContent, txreq);
          txreq->request_id = rid;
          sim_.send(id_, from, txreq);
        }
      }
    }
    // If even the full-capacity decode fails, the bounded delta_back tails
    // shrink the difference every round until it becomes decodable.
  }
}

void LoNode::serve_elements(NodeId to, std::uint32_t shard,
                            const std::vector<std::uint64_t>& elements,
                            std::uint64_t request_id) {
  if (elements.empty()) return;
  CommitmentLog& use_log = log_for_peer(to, shard);
  std::vector<TxId> ids;
  for (const auto elem : elements) {
    if (auto id = use_log.resolve_element(elem)) {
      if (store_.count(*id) != 0) ids.push_back(*id);
    }
  }
  std::sort(ids.begin(), ids.end(), [&use_log](const TxId& a, const TxId& b) {
    return use_log.position_of(a) < use_log.position_of(b);
  });
  auto bundle = std::make_shared<TxBundleMsg>();
  bundle->request_id = request_id;
  for (const auto& id : ids) bundle->txs.push_back(store_.at(id));
  if (!bundle->txs.empty()) sim_.send(id_, to, bundle);
}

void LoNode::handle_tx_request(NodeId from, const TxRequest& req) {
  if (behavior_.ignore_requests || behavior_.censor_txs) return;
  auto bundle = std::make_shared<TxBundleMsg>();
  bundle->request_id = req.request_id;
  for (const auto& id : req.want) {
    if (behavior_.censors(txid_short(id), k_)) continue;
    auto s = store_.find(id);
    if (s != store_.end()) bundle->txs.push_back(s->second);
  }
  // TxRequest stays shard-free on the wire: sketch elements are resolved
  // against every shard log (ascending shard order, so the reply order is
  // deterministic — shard first, then commitment position).
  std::vector<TxId> resolved;
  for (std::uint32_t s = 0; s < k_; ++s) {
    if (censors_shard(s)) continue;
    std::vector<TxId> in_shard;
    for (const auto elem : req.want_short) {
      if (auto id = logs_[s].resolve_element(elem)) {
        if (store_.count(*id) != 0) in_shard.push_back(*id);
      }
    }
    std::sort(in_shard.begin(), in_shard.end(),
              [this, s](const TxId& a, const TxId& b) {
                return logs_[s].position_of(a) < logs_[s].position_of(b);
              });
    resolved.insert(resolved.end(), in_shard.begin(), in_shard.end());
  }
  for (const auto& id : resolved) bundle->txs.push_back(store_.at(id));
  // An empty bundle is still sent: it acknowledges liveness so the requester
  // keeps polling instead of suspecting a peer that is itself waiting for
  // the content to arrive.
  sim_.send(id_, from, bundle);
}

void LoNode::handle_tx_bundle(NodeId from, const TxBundleMsg& msg) {
  // Admit content and commit all new valid ids of a shard as ONE bundle in
  // the received order — this is the "transaction bundle" of Sec. 4.1 whose
  // intra-bundle order the canonical shuffle later randomizes. At k>1 the
  // bundle may span shards, so the batch splits per shard (still one bundle
  // per shard, received order preserved within each).
  std::vector<std::vector<TxId>> batches(k_);
  bool any_committed = false;
  for (const auto& tx : msg.txs) {
    if (invalid_.count(tx.id) != 0) continue;
    if (store_.count(tx.id) != 0) continue;
    if (!prevalidate(tx, config_.prevalidation, &verify_cache_)) {
      invalid_.insert(tx.id);
      continue;
    }
    const std::uint32_t shard = shard_of(tx.id);
    if (censors_shard(shard) && from != id_) continue;
    store_.emplace(tx.id, tx);
    valid_.insert(tx.id);
    content_clocks_[shard].add(txid_short(tx.id));
    if (!logs_[shard].contains(tx.id)) batches[shard].push_back(tx.id);
    // Gossip-hop admissions were invisible to the trace (only the direct
    // submit path emitted kTxAdmit), leaving lineage gaps at every relay.
    tracer_->emit(obs::EventKind::kTxAdmit, id_, from, txid_short(tx.id),
                  logs_[shard].seqno(), 0, shard);
    if (hooks_ && hooks_->on_mempool_admit) {
      hooks_->on_mempool_admit(id_, tx, sim_.now());
    }
  }
  for (std::uint32_t s = 0; s < k_; ++s) {
    if (batches[s].empty()) continue;
    commit_batch(batches[s], from, s);
    any_committed = true;
  }
  // Publish the fresh commitments to the sender when the bundle moved a log
  // forward; stale-view cases are handled by the coverage re-probe.
  if (any_committed && !behavior_.ignore_requests && !behavior_.drop_gossip) {
    // Publish the fresh commitment right away; this is what lets the
    // sender's coverage watch clear without waiting for the next round.
    auto g = std::make_shared<HeaderGossip>();
    for (std::uint32_t s = 0; s < k_; ++s) {
      if (batches[s].empty()) continue;
      g->headers.push_back(log_for_peer(from, s).make_header(
          signer_, wire_capacity_for(from, log_for_peer(from, s), 8)));
    }
    sim_.send(id_, from, g);
  }

  // A bundle (even an empty liveness ack) marks progress on content waits,
  // but a pending is only dismissed once every wanted item is accounted for —
  // the sender may legitimately still be fetching the content itself.
  // lolint:allow(unordered-iter) reason=independent per-entry flag update; no cross-entry state and nothing is emitted
  for (auto& [rid, p] : pending_) {
    if (p.peer == from && p.kind == RequestKind::kContent) p.got_partial = true;
  }
  std::vector<std::uint64_t> done;
  // lolint:allow(unordered-iter) reason=collects ids only to erase them below; erasure is order-independent and resolve_suspicion fires once regardless
  for (auto& [rid, p] : pending_) {
    if (p.peer != from || p.kind != RequestKind::kContent) continue;
    auto* txreq = dynamic_cast<const TxRequest*>(p.payload.get());
    if (txreq == nullptr) continue;
    bool satisfied = true;
    for (const auto& id : txreq->want) {
      if (store_.count(id) == 0 && invalid_.count(id) == 0) {
        satisfied = false;
        break;
      }
    }
    for (const auto elem : txreq->want_short) {
      bool known = false;
      for (std::uint32_t s = 0; !known && s < k_; ++s) {
        known = logs_[s].resolve_element(elem).has_value();
      }
      if (satisfied && !known) satisfied = false;
    }
    if (satisfied) done.push_back(rid);
  }
  for (auto rid : done) pending_.erase(rid);
  if (!done.empty()) resolve_suspicion_content(from);
}

// -------------------------------------------------------- accountability ----

void LoNode::observe_header(NodeId from, const CommitmentHeader& header) {
  if (header.shard >= k_) return;  // not a shard pipeline we run
  tracer_->emit(obs::EventKind::kCommitObserve, id_, header.node, header.count);
  bool used_decode = false;
  auto evidence = registry_.observe_commitment(header, &used_decode);
  if (used_decode) {
    ++sketch_decodes_;
    if (hooks_ && hooks_->on_reconcile) hooks_->on_reconcile(id_, true);
  }
  if (evidence) {
    auto msg = std::make_shared<ExposureMsg>();
    msg->accused = evidence->accused;
    msg->verdict = 0xff;
    msg->equivocation = std::move(*evidence);
    if (seen_exposures_.insert(msg->accused).second) {
      tracer_->emit(obs::EventKind::kExpose, id_, msg->accused, msg->verdict);
      if (hooks_ && hooks_->on_exposure) {
        hooks_->on_exposure(id_, msg->accused, sim_.now());
      }
    }
    broadcast_exposure(*msg);
    return;
  }
  (void)from;
  clear_coverage_if_met(header.node, header.shard);
}

void LoNode::register_coverage(NodeId peer, std::uint32_t shard,
                               const bloom::BloomClock& snapshot) {
  // Keep an existing (older, therefore weaker) watch — it resolves first.
  if (coverage_.count(ps_key(peer, shard)) != 0) return;
  CoverageWatch watch;
  watch.snapshot = snapshot;
  watch.deadline = sim_.now() + config_.coverage_timeout;
  coverage_.emplace(ps_key(peer, shard), std::move(watch));
  arm_coverage_deadline(peer, shard);
  clear_coverage_if_met(peer, shard);
}

void LoNode::arm_coverage_deadline(NodeId peer, std::uint32_t shard) {
  sim_.schedule_for(id_, config_.coverage_timeout, [this, peer, shard] {
    auto it = coverage_.find(ps_key(peer, shard));
    if (it == coverage_.end()) return;
    if (sim_.now() < it->second.deadline) return;  // superseded
    const auto* h = registry_.latest(peer, shard);
    const bool covered =
        h != nullptr && it->second.snapshot.dominated_by(h->clock);
    if (covered) {
      coverage_.erase(it);
      resolve_suspicion(peer, shard);
      return;
    }
    if (!it->second.reprobed) {
      // The paper resends requests before suspecting: our view of the peer's
      // commitments may simply be stale (peers are sampled randomly, the
      // refresh may not have come around yet). Probe directly once.
      it->second.reprobed = true;
      it->second.deadline = sim_.now() + config_.coverage_timeout;
      send_sync_request(peer, shard);
      arm_coverage_deadline(peer, shard);
      return;
    }
    coverage_.erase(it);
    if (presumed_live(peer)) {
      suspect_peer(peer, shard);
    } else {
      ++*c_suspicions_absolved_;
    }
  });
}

void LoNode::clear_coverage_if_met(NodeId peer, std::uint32_t shard) {
  auto it = coverage_.find(ps_key(peer, shard));
  if (it == coverage_.end()) return;
  const auto* h = registry_.latest(peer, shard);
  if (h != nullptr && it->second.snapshot.dominated_by(h->clock)) {
    coverage_.erase(it);
    resolve_suspicion(peer, shard);
  }
}

void LoNode::broadcast_exposure(const ExposureMsg& msg) {
  auto copy = std::make_shared<ExposureMsg>(msg);
  flood(copy, id_);
}

void LoNode::suspect_peer(NodeId peer, std::uint32_t shard) {
  if (registry_.is_exposed(peer)) return;
  // Remember what we were covering when we complained: any later commitment
  // from the suspect that dominates this shard snapshot moots the complaint
  // (the suspect caught up), letting observe_header retract it even when the
  // logs are already back in sync and no further requests will ever be sent.
  // The snapshot is per (peer, shard); the public complaint below composes
  // across shards — one flood per peer, lifted when the last shard resolves.
  suspicion_snapshot_.emplace(ps_key(peer, shard), content_clocks_[shard]);
  auto& reporters = suspected_by_[peer];
  if (!reporters.insert(id_).second) return;  // we already reported
  ++*c_suspicions_raised_;
  ++*c_suspicions_[shard];
  tracer_->emit(obs::EventKind::kSuspect, id_, peer, shard, 0, 0, shard);
  const bool was_suspected = registry_.is_suspected(peer);
  registry_.suspect(peer);
  if (!was_suspected && hooks_ && hooks_->on_suspect) {
    hooks_->on_suspect(id_, peer, sim_.now());
  }
  auto msg = std::make_shared<SuspicionMsg>();
  msg->suspect = peer;
  msg->reporter = id_;
  msg->epoch = ++suspicion_epoch_;
  if (const auto* h = registry_.latest(peer, shard)) msg->last_known = *h;
  seen_suspicions_.insert(suspicion_key(id_, msg->epoch));
  flood(msg, id_);
}

void LoNode::resolve_suspicion(NodeId peer, std::uint32_t shard) {
  auto it = suspected_by_.find(peer);
  if (it == suspected_by_.end()) return;
  // Only our own complaint can be resolved by evidence we observed; other
  // reporters retract for themselves.
  if (it->second.count(id_) == 0) return;
  suspicion_snapshot_.erase(ps_key(peer, shard));
  // The public complaint is per peer: it stands while any shard complaint
  // remains open (composable accountability, DESIGN.md §7).
  for (std::uint32_t s = 0; s < k_; ++s) {
    if (suspicion_snapshot_.count(ps_key(peer, s)) != 0) return;
  }
  it->second.erase(id_);
  ++*c_suspicions_retracted_;
  tracer_->emit(obs::EventKind::kRetract, id_, peer);
  auto msg = std::make_shared<SuspicionMsg>();
  msg->suspect = peer;
  msg->reporter = id_;
  msg->epoch = ++suspicion_epoch_;
  msg->retract = true;
  seen_suspicions_.insert(suspicion_key(id_, msg->epoch));
  flood(msg, id_);
  if (it->second.empty()) {
    suspected_by_.erase(it);
    registry_.unsuspect(peer);
  }
}

void LoNode::resolve_suspicion_content(NodeId peer) {
  if (k_ == 1) {
    resolve_suspicion(peer, 0);
    return;
  }
  // Content service is shard-blind, so it cannot clear a shard complaint by
  // itself: only shards whose latest commitment has caught up with the
  // complaint snapshot resolve. A cross-shard censor that diligently serves
  // the other shards therefore stays suspected on the censored one.
  for (std::uint32_t s = 0; s < k_; ++s) {
    auto sit = suspicion_snapshot_.find(ps_key(peer, s));
    if (sit == suspicion_snapshot_.end()) continue;
    const auto* h = registry_.latest(peer, s);
    if (h != nullptr && sit->second.dominated_by(h->clock)) {
      resolve_suspicion(peer, s);
    }
  }
}

void LoNode::handle_challenge_response(NodeId from, const CommitmentHeader& h) {
  // A suspicion we flooded is a public challenge; a header received DIRECTLY
  // from the suspect is its answer. The complaint is lifted only when the
  // answered commitment covers the snapshot we complained about — so a
  // censoring node (whose clock never advances past the snapshot) stays
  // suspected no matter how promptly it replies, while a recovered node is
  // cleared as soon as it has caught up. If it has not caught up yet, a
  // coverage watch keeps the challenge alive: the watch re-probes and either
  // clears or re-confirms the suspicion at its deadline.
  if (from != h.node) return;  // relayed headers are not an answer
  if (h.shard >= k_) return;
  auto it = suspicion_snapshot_.find(ps_key(h.node, h.shard));
  if (it == suspicion_snapshot_.end()) return;
  const auto* latest = registry_.latest(h.node, h.shard);
  if (latest != nullptr && it->second.dominated_by(latest->clock)) {
    resolve_suspicion(h.node, h.shard);
    return;
  }
  register_coverage(h.node, h.shard, it->second);
}

void LoNode::handle_suspicion(NodeId from, const SuspicionMsg& msg) {
  if (!seen_suspicions_.insert(suspicion_key(msg.reporter, msg.epoch)).second) {
    return;
  }
  if (msg.suspect == id_) {
    // Respond publicly with our current commitments — one per shard, since
    // the complaint does not say which shard pipeline fell behind — so the
    // reporter (and the relayer) can lift the suspicion. A node that ignores
    // requests ignores the accusation too — that is exactly what keeps it
    // suspected.
    if (behavior_.ignore_requests) return;
    auto g = std::make_shared<HeaderGossip>();
    for (std::uint32_t s = 0; s < k_; ++s) {
      g->headers.push_back(logs_[s].make_header(
          signer_, wire_capacity_for(msg.reporter, logs_[s], 8)));
    }
    sim_.send(id_, msg.reporter, g);
    if (from != msg.reporter) sim_.send(id_, from, g);
    return;
  }
  if (msg.last_known) observe_header(from, *msg.last_known);

  if (msg.retract) {
    auto it = suspected_by_.find(msg.suspect);
    if (it != suspected_by_.end()) {
      it->second.erase(msg.reporter);
      if (it->second.empty()) {
        suspected_by_.erase(it);
        registry_.unsuspect(msg.suspect);
      }
    }
  } else {
    // Fig. 4: if we hold a newer commitment from the suspect (same shard as
    // the complaint's evidence), share it with the reporter instead of
    // escalating; the suspicion is adopted either way until the reporter
    // retracts.
    const auto* ours =
        msg.last_known ? registry_.latest(msg.suspect, msg.last_known->shard)
                       : nullptr;
    if (ours != nullptr && msg.last_known &&
        ours->seqno > msg.last_known->seqno) {
      auto g = std::make_shared<HeaderGossip>();
      g->headers.push_back(*ours);
      sim_.send(id_, msg.reporter, g);
    }
    if (!registry_.is_exposed(msg.suspect)) {
      suspected_by_[msg.suspect].insert(msg.reporter);
      if (!registry_.is_suspected(msg.suspect)) {
        registry_.suspect(msg.suspect);
        if (hooks_ && hooks_->on_suspect) {
          hooks_->on_suspect(id_, msg.suspect, sim_.now());
        }
      }
    }
  }
  if (!behavior_.drop_gossip) {
    flood(std::make_shared<SuspicionMsg>(msg), from);
  }
}

void LoNode::handle_exposure(NodeId from, const ExposureMsg& msg) {
  if (seen_exposures_.count(msg.accused) != 0) {
    return;
  }
  if (!msg.verify(config_.sig_mode, &verify_cache_)) return;
  seen_exposures_.insert(msg.accused);
  registry_.expose(msg.accused);
  tracer_->emit(obs::EventKind::kExpose, id_, msg.accused, msg.verdict);
  if (hooks_ && hooks_->on_exposure) {
    hooks_->on_exposure(id_, msg.accused, sim_.now());
  }
  if (!behavior_.drop_gossip) {
    flood(std::make_shared<ExposureMsg>(msg), from);
  }
}

// ----------------------------------------------------------------- blocks ----

bool LoNode::tx_includeable(const TxId& id) const {
  if (valid_.count(id) == 0) return false;
  auto it = store_.find(id);
  return it != store_.end() && it->second.fee >= config_.block_min_fee;
}

Block LoNode::create_block(std::uint64_t height,
                           const crypto::Digest256& prev_hash,
                           std::uint32_t shard) {
  auto include = [this](const TxId& id) { return tx_includeable(id); };
  Block block = build_block(logs_[shard], signer_, height, prev_hash, include);

  bool resign = false;
  if (behavior_.reorder_block) {
    // MEV-style manipulation: order by fee (descending) inside each segment,
    // violating the canonical shuffle.
    for (auto& seg : block.segments) {
      std::sort(seg.txids.begin(), seg.txids.end(),
                [this](const TxId& a, const TxId& b) {
                  const auto* ta = get_tx(a);
                  const auto* tb = get_tx(b);
                  const std::uint64_t fa = ta ? ta->fee : 0;
                  const std::uint64_t fb = tb ? tb->fee : 0;
                  if (fa != fb) return fa > fb;
                  return a < b;
                });
    }
    resign = true;
  }
  if (behavior_.inject_uncommitted) {
    // Slip a never-committed transaction ahead of committed ones. Colluding
    // miners use one obtained off-channel (Sec. 5.3); otherwise mint a fresh
    // one (front-running style).
    TxId inject_id{};
    if (!stealth_txs_.empty()) {
      inject_id = stealth_txs_.back();
    } else {
      Transaction tx = make_transaction(signer_, ++own_nonce_ + (1ULL << 40),
                                        /*fee=*/1000000, sim_.now());
      store_.emplace(tx.id, tx);
      valid_.insert(tx.id);
      inject_id = tx.id;
    }
    if (block.segments.empty()) {
      Block::Segment seg;
      seg.seqno = std::max<std::uint64_t>(1, block.commit_seqno);
      block.segments.push_back(seg);
      if (block.commit_seqno == 0) block.commit_seqno = 1;
    }
    auto& front = block.segments.front().txids;
    front.insert(front.begin(), inject_id);
    resign = true;
  }
  if (behavior_.censor_blockspace && block.tx_count() > 0) {
    // Drop the highest-fee transaction from the block (block-space
    // censorship, e.g. to snipe it in the miner's own later block).
    TxId victim{};
    std::uint64_t best = 0;
    for (const auto& seg : block.segments) {
      for (const auto& id : seg.txids) {
        const auto* t = get_tx(id);
        if (t != nullptr && t->fee >= best) {
          best = t->fee;
          victim = id;
        }
      }
    }
    for (auto& seg : block.segments) {
      std::erase(seg.txids, victim);
    }
    std::erase_if(block.segments,
                  [](const Block::Segment& s) { return s.txids.empty(); });
    resign = true;
  }
  if (resign) {
    auto msg = block.signing_bytes();
    block.sig =
        signer_.sign(std::span<const std::uint8_t>(msg.data(), msg.size()));
  }

  auto bm = std::make_shared<BlockMsg>();
  bm->block = block;
  const auto& block_hash = bm->hash();
  tracer_->emit(obs::EventKind::kBlockBuild, id_, 0,
                obs::short_id(std::span<const std::uint8_t>(
                    block_hash.data(), block_hash.size())),
                block.tx_count(), 0, block.shard);
  seen_blocks_.emplace(block_hash, bm);
  flood(bm, id_);
  return block;
}

void LoNode::handle_block(NodeId from, std::shared_ptr<const BlockMsg> msg) {
  const Block& block = msg->block;
  if (block.shard >= k_) return;
  if (!seen_blocks_.emplace(msg->hash(), msg).second) return;
  if (!block.verify(config_.sig_mode, &verify_cache_)) return;
  if (!behavior_.drop_gossip) flood(msg, from);
  if (block.creator == id_) return;
  inspect_known_block(*msg);
}

void LoNode::inspect_known_block(const BlockMsg& bm) {
  const Block& block = bm.block;
  const BundleMap mirrored = mirror_of(block.creator, block.shard);
  auto includeable = [this](const TxId& id) { return tx_includeable(id); };
  const InspectionResult res = inspect_block(block, mirrored, includeable);

  if (res.verdict == BlockVerdict::kNeedBundles) {
    auto req = std::make_shared<BundleRequest>();
    req->creator = block.creator;
    req->shard = block.shard;
    req->shards = k_;
    req->seqnos = res.missing_bundles;
    const std::uint64_t rid =
        register_pending(block.creator, RequestKind::kBundles, req);
    pending_.at(rid).shard = block.shard;
    req->request_id = rid;
    sim_.send(id_, block.creator, req);
    blocks_awaiting_bundles_[ps_key(block.creator, block.shard)].push_back(
        bm.hash());
    return;
  }

  if (tracer_->enabled()) {
    const auto& block_hash = bm.hash();
    tracer_->emit(obs::EventKind::kBlockInspect, id_, block.creator,
                  obs::short_id(std::span<const std::uint8_t>(
                      block_hash.data(), block_hash.size())),
                  static_cast<std::uint64_t>(res.verdict), 0, block.shard);
  }

  switch (res.verdict) {
    case BlockVerdict::kReordered:
    case BlockVerdict::kInjected:
    case BlockVerdict::kBadStructure: {
      // Transferable evidence: block + the creator-signed bundles.
      auto msg = std::make_shared<ExposureMsg>();
      msg->accused = block.creator;
      msg->verdict = static_cast<std::uint8_t>(res.verdict);
      BlockEvidence ev;
      ev.accused = block.creator;
      ev.block = block;
      auto mit = mirrors_.find(ps_key(block.creator, block.shard));
      if (mit != mirrors_.end()) {
        for (const auto& seg : block.segments) {
          auto bit = mit->second.find(seg.seqno);
          if (bit != mit->second.end()) ev.bundles.push_back(bit->second);
        }
      }
      msg->block_evidence = std::move(ev);
      if (seen_exposures_.insert(block.creator).second) {
        registry_.expose(block.creator);
        if (hooks_ && hooks_->on_exposure) {
          hooks_->on_exposure(id_, block.creator, sim_.now());
        }
      }
      broadcast_exposure(*msg);
      break;
    }
    case BlockVerdict::kCensored:
      // Not transferable without sharing tx content; raise a suspicion blame
      // (Sec. 5.2 treats undisclosed omissions through the suspicion path).
      // The blame carries the block's shard: the canonical lowest-seqno
      // witness rule holds within that shard's bundle namespace.
      if (tracer_->enabled()) {
        tracer_->emit(obs::EventKind::kTxCensored, id_, block.creator,
                      txid_short(res.offending_tx), res.offending_seqno, 0,
                      block.shard);
      }
      suspect_peer(block.creator, block.shard);
      break;
    case BlockVerdict::kOk:
    case BlockVerdict::kNeedBundles:
      break;
  }
}

void LoNode::handle_bundle_request(NodeId from, const BundleRequest& req) {
  if (behavior_.ignore_requests) return;
  if (req.shard >= k_) return;
  auto resp = std::make_shared<BundleResponse>();
  resp->request_id = req.request_id;
  for (std::uint64_t seqno : req.seqnos) {
    if (req.creator == id_) {
      const auto* b = logs_[req.shard].bundle_by_seqno(seqno);
      if (b == nullptr) continue;
      SignedBundle sb;
      sb.owner = id_;
      sb.seqno = seqno;
      sb.shard = req.shard;
      sb.shards = k_;
      sb.txids = b->txids;
      sb.key = signer_.public_key();
      auto [memo, fresh] = own_bundle_sigs_.try_emplace((seqno << 8) | req.shard);
      if (fresh) {
        auto bytes = sb.signing_bytes();
        memo->second = signer_.sign(
            std::span<const std::uint8_t>(bytes.data(), bytes.size()));
      }
      sb.sig = memo->second;
      resp->bundles.push_back(std::move(sb));
    } else {
      // Relay signed bundles we hold for third parties.
      auto mit = mirrors_.find(ps_key(req.creator, req.shard));
      if (mit == mirrors_.end()) continue;
      auto bit = mit->second.find(seqno);
      if (bit != mit->second.end()) resp->bundles.push_back(bit->second);
    }
  }
  if (!resp->bundles.empty()) sim_.send(id_, from, resp);
}

void LoNode::handle_bundle_response(NodeId from, const BundleResponse& resp) {
  if (resp.request_id != 0) clear_pending(resp.request_id);
  resolve_suspicion_content(from);
  std::unordered_set<std::uint64_t> touched;
  for (const auto& sb : resp.bundles) {
    if (sb.shard >= k_) continue;
    if (!sb.verify(config_.sig_mode, &verify_cache_)) continue;
    // The bundle key must match the owner's known commitment key, if any
    // (per shard — that is the commitment the bundle claims membership of).
    if (const auto* h = registry_.latest(sb.owner, sb.shard)) {
      if (!(h->key == sb.key)) continue;
    }
    mirrors_[ps_key(sb.owner, sb.shard)][sb.seqno] = sb;
    touched.insert(ps_key(sb.owner, sb.shard));
  }
  // Sorted walk: inspect_known_block can emit suspicion/exposure messages,
  // so the per-(owner, shard) processing order is protocol-visible.
  for (std::uint64_t key : util::sorted_keys(touched)) {
    auto it = blocks_awaiting_bundles_.find(key);
    if (it == blocks_awaiting_bundles_.end()) continue;
    auto hashes = std::move(it->second);
    blocks_awaiting_bundles_.erase(it);
    for (const auto& h : hashes) {
      auto bit = seen_blocks_.find(h);
      if (bit != seen_blocks_.end()) inspect_known_block(*bit->second);
    }
  }
}

// --------------------------------------------------------------- plumbing ----

std::uint64_t LoNode::register_pending(NodeId peer, RequestKind kind,
                                       sim::PayloadPtr payload) {
  const std::uint64_t rid = next_request_id_++;
  Pending p;
  p.peer = peer;
  p.kind = kind;
  p.payload = std::move(payload);
  p.retries_left = config_.max_retries;
  pending_.emplace(rid, std::move(p));
  ++*c_requests_sent_;
  arm_timeout(rid);
  return rid;
}

sim::Duration LoNode::backoff_delay(int attempt) {
  double d = static_cast<double>(config_.request_timeout);
  for (int i = 0; i < attempt; ++i) d *= config_.backoff_factor;
  d = std::min(d, static_cast<double>(config_.backoff_cap));
  if (config_.backoff_jitter > 0.0) {
    // Deterministic jitter from the sim RNG, uniform in +/- jitter fraction:
    // desynchronizes the retry bursts that fixed intervals would phase-lock.
    const double u = sim_.node_rng(id_).next_double() * 2.0 - 1.0;
    d *= 1.0 + config_.backoff_jitter * u;
  }
  return std::max<sim::Duration>(1, static_cast<sim::Duration>(d));
}

void LoNode::arm_timeout(std::uint64_t request_id) {
  const auto pit = pending_.find(request_id);
  const int attempt = pit == pending_.end() ? 0 : pit->second.attempt;
  sim_.schedule_for(id_, backoff_delay(attempt), [this, request_id] {
    auto it = pending_.find(request_id);
    if (it == pending_.end()) return;
    Pending& p = it->second;
    ++*c_timeouts_fired_;
    if (p.retries_left > 0) {
      --p.retries_left;
      ++p.attempt;
      ++*c_retries_sent_;
      sim_.send(id_, p.peer, p.payload);
      arm_timeout(request_id);
      return;
    }
    const NodeId peer = p.peer;
    if (p.kind == RequestKind::kContent && p.got_partial) {
      // The peer answered but could not serve everything (it may itself be
      // waiting for the content). Re-request the remainder with a fresh
      // retry budget instead of suspecting a live peer.
      // Keep the payload alive across the erase: the map entry owns (possibly
      // the last) reference, and old_req points into it.
      const sim::PayloadPtr payload = p.payload;
      const auto* old_req = dynamic_cast<const TxRequest*>(payload.get());
      pending_.erase(it);
      if (old_req != nullptr) {
        auto txreq = std::make_shared<TxRequest>();
        for (const auto& id : old_req->want) {
          if (store_.count(id) == 0 && invalid_.count(id) == 0) {
            txreq->want.push_back(id);
          }
        }
        for (const auto elem : old_req->want_short) {
          bool resolved = false;
          for (std::uint32_t s = 0; s < k_ && !resolved; ++s) {
            resolved = logs_[s].resolve_element(elem).has_value();
          }
          if (!resolved) txreq->want_short.push_back(elem);
        }
        if (!txreq->want.empty() || !txreq->want_short.empty()) {
          const std::uint64_t rid =
              register_pending(peer, RequestKind::kContent, txreq);
          txreq->request_id = rid;
          sim_.send(id_, peer, txreq);
        }
      }
      return;
    }
    const std::uint32_t shard = p.shard;
    if (p.kind == RequestKind::kSync) outstanding_sync_.erase(ps_key(peer, shard));
    pending_.erase(it);
    if (presumed_live(peer)) {
      suspect_peer(peer, shard);
    } else {
      // Membership no longer presumes the peer alive: a dead process cannot
      // answer, so the exhausted retries are a liveness event, not protocol
      // misbehavior — absolve instead of blaming.
      ++*c_suspicions_absolved_;
    }
  });
}

void LoNode::clear_pending(std::uint64_t request_id) {
  auto it = pending_.find(request_id);
  if (it == pending_.end()) return;
  if (it->second.kind == RequestKind::kSync) {
    outstanding_sync_.erase(ps_key(it->second.peer, it->second.shard));
  }
  pending_.erase(it);
}

void LoNode::flood(const sim::PayloadPtr& msg, NodeId except) {
  for (NodeId n : neighbors_) {
    if (n == except) continue;
    sim_.send(id_, n, msg);
  }
}

std::vector<CommitmentHeader> LoNode::pick_gossip_headers() {
  std::vector<CommitmentHeader> out;
  if (config_.gossip_headers == 0) return out;
  if (!sim_.node_rng(id_).next_bool(config_.gossip_probability)) return out;
  const auto& all = registry_.latest_all();
  if (all.empty()) return out;
  // Reservoir-sample a few stored third-party headers. The selection is
  // already randomized by the seeded RNG; the map's iteration order only
  // permutes which random subset a given draw sequence picks, and for a
  // fixed binary and seed that order is stable, so seed-replay determinism
  // holds. The draw count (one per visited entry past the reservoir) is
  // independent of visit order, so the RNG stream position is too.
  std::size_t i = 0;
  // lolint:allow(unordered-iter) reason=reservoir sampling consumes one RNG draw per entry regardless of order; selection is RNG-randomized and replay-stable for a fixed binary+seed
  for (const auto& [key, header] : all) {
    if (static_cast<NodeId>(key >> 8) == id_) continue;
    if (out.size() < config_.gossip_headers) {
      out.push_back(header);
    } else {
      const std::size_t j =
          static_cast<std::size_t>(sim_.node_rng(id_).next_below(i + 1));
      if (j < out.size()) out[j] = header;
    }
    ++i;
  }
  return out;
}

void LoNode::on_message(NodeId from, const sim::PayloadPtr& msg) {
  // Belt and braces: the simulator already suppresses delivery to a down
  // node; a crashed process must not react to anything regardless.
  if (crashed_) return;
  if (const auto* m = dynamic_cast<const SyncRequest*>(msg.get())) {
    handle_sync_request(from, *m);
  } else if (const auto* m2 = dynamic_cast<const SyncResponse*>(msg.get())) {
    handle_sync_response(from, *m2);
  } else if (const auto* m3 = dynamic_cast<const TxRequest*>(msg.get())) {
    handle_tx_request(from, *m3);
  } else if (const auto* m4 = dynamic_cast<const TxBundleMsg*>(msg.get())) {
    handle_tx_bundle(from, *m4);
  } else if (const auto* m5 = dynamic_cast<const SuspicionMsg*>(msg.get())) {
    handle_suspicion(from, *m5);
  } else if (const auto* m6 = dynamic_cast<const ExposureMsg*>(msg.get())) {
    handle_exposure(from, *m6);
  } else if (const auto* m7 = dynamic_cast<const BlockMsg*>(msg.get())) {
    handle_block(from, std::shared_ptr<const BlockMsg>(msg, m7));
  } else if (const auto* m8 = dynamic_cast<const BundleRequest*>(msg.get())) {
    handle_bundle_request(from, *m8);
  } else if (const auto* m9 = dynamic_cast<const BundleResponse*>(msg.get())) {
    handle_bundle_response(from, *m9);
  } else if (const auto* m10 = dynamic_cast<const HeaderGossip*>(msg.get())) {
    for (const auto& h : m10->headers) {
      observe_header(from, h);
      handle_challenge_response(from, h);
    }
  } else if (const auto* mp = dynamic_cast<const membership::PingMsg*>(msg.get())) {
    if (swim_) swim_->on_ping(from, *mp);
  } else if (const auto* ma =
                 dynamic_cast<const membership::PingAckMsg*>(msg.get())) {
    if (swim_) swim_->on_ping_ack(from, *ma);
  } else if (const auto* mq =
                 dynamic_cast<const membership::PingReqMsg*>(msg.get())) {
    if (swim_) swim_->on_ping_req(from, *mq);
  }
}

}  // namespace lo::core

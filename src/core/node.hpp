// LoNode — one miner running the LØ accountable base layer (Alg. 1 + Sec. 5).
//
// Responsibilities:
//  * Stage I:  accept client transactions (submit_transaction), prevalidate,
//              commit them to the append-only log.
//  * Stage II: periodic sketch-driven mempool reconciliation with random
//              neighbors — the request carries only the signed commitment
//              (with a difference-sized sketch prefix); the responder decodes
//              the exact symmetric difference, returns the full ids the
//              requester lacks and asks (by sketch element) for the ones it
//              lacks itself. Only genuinely missing data crosses the wire.
//  * Stage III: canonical block building on leader election (create_block).
//  * Accountability: pending-request suspicion with retries and retractions,
//              commitment-coverage deadlines (a peer that receives our
//              transactions must commit to them or face suspicion),
//              equivocation detection on every observed commitment, blame
//              gossip, block inspection with signed-bundle retrieval.
//
// Adversarial variants are switched on through MaliciousBehavior; correct
// nodes and faulty nodes run the same class so that detection operates on
// real protocol traffic.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/accountability.hpp"
#include "core/block.hpp"
#include "core/commitment_log.hpp"
#include "core/config.hpp"
#include "core/inspection.hpp"
#include "core/messages.hpp"
#include "core/transaction.hpp"
#include "core/types.hpp"
#include "crypto/keys.hpp"
#include "crypto/verify_cache.hpp"
#include "membership/swim.hpp"
#include "obs/hub.hpp"
#include "overlay/sampler.hpp"
#include "sim/simulator.hpp"

namespace lo::core {

class LoNode final : public sim::INode {
 public:
  LoNode(sim::Simulator& sim, NodeId id, const LoConfig& config,
         crypto::KeyPair keys);

  void set_neighbors(std::vector<NodeId> neighbors);
  const std::vector<NodeId>& neighbors() const noexcept { return neighbors_; }

  // Candidate peers for the rotation sampler (typically the whole
  // membership); only consulted when config.rotate_interval > 0.
  void set_peer_candidates(std::vector<NodeId> candidates);

  // Full member universe for the SWIM failure detector (self is filtered
  // out). Must be set before on_start() when config.membership.enabled;
  // falls back to the neighbor set otherwise.
  void set_member_universe(std::vector<NodeId> members);

  // Shares `tier` (the verdicts and decompressed keys behind every node's
  // verify cache) with this node; the node's own cache counters and probes
  // are unchanged (see crypto::VerifyCache).
  void set_verify_tier(std::shared_ptr<crypto::VerifyTier> tier) noexcept {
    verify_cache_.set_tier(std::move(tier));
  }

  MaliciousBehavior& behavior() noexcept { return behavior_; }
  const MaliciousBehavior& behavior() const noexcept { return behavior_; }

  // Stage I: a client hands a transaction to this miner.
  void submit_transaction(const Transaction& tx);

  // Sec. 5.3 collusion modeling: receive a transaction off-channel, storing
  // the content without committing to it (no log entry, no acknowledgement).
  // Used by tests/examples to stage the collusion attack of Fig. 5.
  void stealth_store(const Transaction& tx);

  // Stage III: consensus elected this node; build, commit and broadcast the
  // block draining `shard`'s log. Returns the block actually produced
  // (honest or manipulated). In a sharded pipeline each shard elects its own
  // proposer per round (DESIGN.md §7); shard 0 is the whole mempool at k=1.
  Block create_block(std::uint64_t height, const crypto::Digest256& prev_hash,
                     std::uint32_t shard = 0);

  // --- crash/restart lifecycle (see DESIGN.md "Fault model") ---
  // Crash: wipes all volatile state — pending requests, coverage watches,
  // blame bookkeeping, observed commitments, mirrors, in-flight sync state,
  // and (optionally) the mempool content. The commitment log (and an
  // equivocator's fork) persists as "disk", as do the suspicion epoch and tx
  // nonce counters, so a restarted node can neither reuse a suspicion epoch
  // nor double-commit. The caller (harness) must also mark the node down in
  // the simulator, which suppresses this incarnation's timers.
  void crash(bool wipe_mempool = false);
  // Restart: re-arms the periodic machinery with a fresh phase and re-fetches
  // the content of committed-but-lost transactions from neighbors; missed
  // commitments catch up through the ordinary decode-failure/bulk-sync path.
  // Never fabricates blame: all complaint state died with the crash.
  // The caller must mark the node up in the simulator FIRST.
  void restart();
  bool crashed() const noexcept { return crashed_; }

  // sim::INode
  void on_start() override;
  void on_message(NodeId from, const sim::PayloadPtr& msg) override;

  // Introspection for tests and experiment harnesses.
  NodeId id() const noexcept { return id_; }
  // The shard a transaction id belongs to: content-hash partition
  // txid_short % k (DESIGN.md §7). Always 0 at k=1.
  std::uint32_t shard_of(const TxId& id) const noexcept {
    return static_cast<std::uint32_t>(txid_short(id) % k_);
  }
  std::uint32_t shard_count() const noexcept { return k_; }
  const CommitmentLog& log(std::uint32_t shard = 0) const noexcept {
    return logs_[shard];
  }
  // Committed ids across every shard log.
  std::uint64_t total_committed() const noexcept {
    std::uint64_t n = 0;
    for (const auto& l : logs_) n += l.count();
    return n;
  }
  const AccountabilityRegistry& registry() const noexcept { return registry_; }
  AccountabilityRegistry& registry() noexcept { return registry_; }
  std::size_t mempool_size() const noexcept { return store_.size(); }
  const std::unordered_map<TxId, Transaction, TxIdHash>& mempool() const noexcept {
    return store_;
  }
  bool has_tx(const TxId& id) const { return store_.count(id) != 0; }
  const Transaction* get_tx(const TxId& id) const;
  // The inspector's view of a creator's committed bundles in one shard (from
  // verified signed bundle responses).
  BundleMap mirror_of(NodeId creator, std::uint32_t shard = 0) const;
  // Approximate extra memory used by accountability state (Sec. 6.5).
  std::size_t accountability_memory_bytes() const noexcept;
  std::uint64_t sketch_decodes() const noexcept { return sketch_decodes_; }
  // Distinct blocks this node has received or built.
  std::size_t blocks_seen() const noexcept { return seen_blocks_.size(); }
  // Sync exchanges processed that actually moved data (Fig. 10 metric).
  std::uint64_t sync_reconciliations() const noexcept { return sync_recons_; }
  const crypto::PublicKey& public_key() const noexcept {
    return signer_.public_key();
  }
  // Hit/miss counters of the per-node verification cache (perf diagnostics),
  // read from its "verify_cache.*{node=i}" registry cells.
  crypto::VerifyCacheStats verify_cache_stats() const noexcept {
    return verify_cache_.stats();
  }
  // The SWIM failure detector, or nullptr when membership is disabled (or
  // the node is currently crashed — the detector is volatile state).
  const membership::SwimDetector* swim() const noexcept { return swim_.get(); }
  // Durable membership incarnation (survives crashes, grows on restart).
  std::uint64_t member_incarnation() const noexcept {
    return member_incarnation_;
  }

 private:
  enum class RequestKind : std::uint8_t { kSync, kContent, kBundles };

  struct Pending {
    NodeId peer = 0;
    RequestKind kind = RequestKind::kSync;
    std::uint32_t shard = 0;  // which shard pipeline the request belongs to
    sim::PayloadPtr payload;  // resent verbatim on timeout
    int retries_left = 0;
    int attempt = 0;           // resends so far; drives exponential backoff
    bool got_partial = false;  // peer answered at least partially
    // Our clock when the sync request was sent: everything under it must
    // eventually be covered by the peer's commitments (coverage check).
    std::optional<bloom::BloomClock> snapshot_clock;
  };

  // A peer that received our transactions owes us a commitment covering our
  // snapshot before the deadline — LØ's detection handle on mempool
  // censorship (Sec. 5.2).
  struct CoverageWatch {
    bloom::BloomClock snapshot;
    sim::TimePoint deadline = 0;
    bool reprobed = false;  // one direct re-probe before suspicion
  };

  // --- reconciliation (Stage II) ---
  void schedule_sync();
  void rotate_neighbors();
  void sync_round();
  void send_sync_request(NodeId peer, std::uint32_t shard);
  void handle_sync_request(NodeId from, const SyncRequest& req);
  void handle_sync_response(NodeId from, const SyncResponse& resp);
  void handle_tx_request(NodeId from, const TxRequest& req);
  void handle_tx_bundle(NodeId from, const TxBundleMsg& msg);
  // Resolves sketch elements of `shard` to transactions we hold and ships
  // them to `to`, ordered by our commitment-log position (preserving
  // received order).
  void serve_elements(NodeId to, std::uint32_t shard,
                      const std::vector<std::uint64_t>& elements,
                      std::uint64_t request_id);

  // --- accountability ---
  void observe_header(NodeId from, const CommitmentHeader& header);
  void broadcast_exposure(const ExposureMsg& msg);
  void handle_suspicion(NodeId from, const SuspicionMsg& msg);
  // A header received directly from a peer we reported answers our public
  // challenge; retracts when it covers the complaint snapshot.
  void handle_challenge_response(NodeId from, const CommitmentHeader& h);
  void handle_exposure(NodeId from, const ExposureMsg& msg);
  void suspect_peer(NodeId peer, std::uint32_t shard);
  // Called when `peer` satisfied our complaint about `shard`: drops that
  // shard's snapshot, and once no shard complaint remains lifts our own
  // suspicion and broadcasts a retraction if we had reported it.
  void resolve_suspicion(NodeId peer, std::uint32_t shard);
  // Content-serving acknowledgement (tx/bundle responses are shard-blind):
  // at k=1 clears the complaint outright (the pre-sharding rule); at k>1
  // clears only shard complaints whose snapshot the suspect's latest
  // commitment for that shard dominates, so a shard-censoring peer stays
  // suspected no matter how diligently it serves the other shards.
  void resolve_suspicion_content(NodeId peer);
  void register_coverage(NodeId peer, std::uint32_t shard,
                         const bloom::BloomClock& snapshot);
  void arm_coverage_deadline(NodeId peer, std::uint32_t shard);
  void clear_coverage_if_met(NodeId peer, std::uint32_t shard);

  // --- blocks (Stage III/IV) ---
  void handle_block(NodeId from, std::shared_ptr<const BlockMsg> msg);
  void handle_bundle_request(NodeId from, const BundleRequest& req);
  void handle_bundle_response(NodeId from, const BundleResponse& resp);
  void inspect_known_block(const BlockMsg& bm);
  bool tx_includeable(const TxId& id) const;

  // --- membership (liveness layer) ---
  // Builds and starts the SWIM detector (fresh volatile state, durable
  // incarnation). Called from on_start() and restart().
  void init_membership();
  // The accountability gate: true when membership still presumes the peer
  // alive (always true with membership disabled). Request timeouts escalate
  // to suspicion only through this gate.
  bool presumed_live(NodeId peer) const;

  // --- plumbing ---
  std::uint64_t register_pending(NodeId peer, RequestKind kind,
                                 sim::PayloadPtr payload);
  void arm_timeout(std::uint64_t request_id);
  sim::Duration backoff_delay(int attempt);
  void request_missing_content();
  void clear_pending(std::uint64_t request_id);
  void flood(const sim::PayloadPtr& msg, NodeId except);
  CommitmentLog& log_for_peer(NodeId peer, std::uint32_t shard);
  std::size_t wire_capacity_for(NodeId peer, const CommitmentLog& log,
                                std::size_t delta_hint) const;
  void admit_transaction(const Transaction& tx, NodeId source);
  // Commits a batch of same-shard ids as one bundle in `shard`'s log,
  // maintaining the equivocation fork.
  void commit_batch(const std::vector<TxId>& ids, NodeId source,
                    std::uint32_t shard);
  std::vector<CommitmentHeader> pick_gossip_headers();

  sim::Simulator& sim_;
  NodeId id_;
  LoConfig config_;
  crypto::Signer signer_;
  MaliciousBehavior behavior_;

  std::vector<NodeId> neighbors_;
  std::vector<NodeId> peer_candidates_;
  std::vector<NodeId> member_universe_;
  std::unique_ptr<membership::SwimDetector> swim_;
  // Durable across crash(): a restarted node re-joins with a strictly higher
  // incarnation, overriding any confirm issued against its previous life.
  std::uint64_t member_incarnation_ = 0;
  std::unique_ptr<overlay::BasaltView> view_;
  // Shard count k = LoConfig::mempool_shards (cached; 1 = unsharded).
  std::uint32_t k_ = 1;
  // One append-only commitment log per shard; logs_[0] is the whole mempool
  // at k=1. Per-(peer, shard) maps below are keyed by ps_key(peer, shard)
  // (the AccountabilityRegistry::key packing: shard ids fit in one byte).
  std::vector<CommitmentLog> logs_;
  // Equivocators maintain censored forks (one per shard) shown to half of
  // their peers. Empty unless behavior_.equivocate.
  std::vector<CommitmentLog> fork_logs_;

  // Per-node verification fast path: the peer keys and verdicts this node
  // has seen, over the simulation's shared tier. Pure memoization of
  // deterministic functions, so it survives crash() (a restarted node
  // re-deriving a verdict gets the same answer); it never consumes
  // randomness or alters message flow.
  crypto::VerifyCache verify_cache_;

  std::unordered_map<TxId, Transaction, TxIdHash> store_;
  // Per-shard clocks over the transactions whose content we hold and can
  // serve; this is what a peer can actually be expected to commit after an
  // exchange, so coverage snapshots are taken from them (not from the full
  // log, which may reference content still in flight to us).
  std::vector<bloom::BloomClock> content_clocks_;
  std::unordered_set<TxId, TxIdHash> valid_;
  std::unordered_set<TxId, TxIdHash> invalid_;

  AccountabilityRegistry registry_;
  std::unordered_map<std::uint64_t, Pending> pending_;
  // In-flight sync exchanges, keyed ps_key(peer, shard): one per pair.
  std::unordered_set<std::uint64_t> outstanding_sync_;
  // Coverage watches per (peer, shard) — a peer owes a commitment covering
  // the shard snapshot it received our transactions under.
  std::unordered_map<std::uint64_t, CoverageWatch> coverage_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t suspicion_epoch_ = 0;
  // Who currently accuses whom, from this node's point of view: suspect ->
  // reporters whose complaints are unresolved (id_ when we reported).
  // Deliberately global across shards — the public complaint composes.
  std::unordered_map<NodeId, std::unordered_set<NodeId>> suspected_by_;
  // Our per-shard content clock at the moment we reported each suspect,
  // keyed ps_key(suspect, shard); a commitment from the suspect dominating
  // the snapshot retracts that shard's complaint (the public suspicion lifts
  // when the last shard complaint resolves).
  std::unordered_map<std::uint64_t, bloom::BloomClock> suspicion_snapshot_;

  // Signed-bundle mirrors keyed ps_key(creator, shard): bundle seqnos are
  // per shard log, so shards must not share a seqno namespace.
  std::unordered_map<std::uint64_t,
                     std::unordered_map<std::uint64_t, SignedBundle>>
      mirrors_;
  // Our own bundle signatures, keyed (seqno << 8) | shard, kept from the
  // first request for that bundle on. A committed bundle never changes and
  // signing is deterministic, so the stored bytes are exactly what signing
  // again would produce; like verify_cache_, it survives crash().
  std::unordered_map<std::uint64_t, crypto::Signature> own_bundle_sigs_;
  // The payload each block arrived in (or was flooded in, for our own):
  // one copy per block, shared with every neighbour it is forwarded to, and
  // keyed on the payload's kept hash (BlockMsg::hash).
  std::unordered_map<crypto::Digest256, std::shared_ptr<const BlockMsg>,
                     TxIdHash>
      seen_blocks_;
  std::unordered_set<std::uint64_t> seen_suspicions_;  // key(reporter, epoch)
  std::unordered_map<std::uint64_t, std::vector<crypto::Digest256>>
      blocks_awaiting_bundles_;  // keyed ps_key(creator, shard)

  std::uint64_t sketch_decodes_ = 0;
  std::uint64_t sync_recons_ = 0;
  std::uint64_t own_nonce_ = 0;
  std::vector<TxId> stealth_txs_;  // off-channel content (Sec. 5.3)
  // Observability: the simulator's tracer (kTxAdmit, kCommitCreate,
  // kReconcileRound, blame and block events) plus handles of the registry
  // cells "lo.requests_sent{node=i}", ... (stable; see Registry::counter).
  obs::Tracer* tracer_;
  // Hot accountability counters with per-shard attribution: one cell per
  // shard, labeled {node} at k=1 (ids unchanged from the unsharded layout)
  // and {node, shard} at k>1 so snapshots and loscope reports roll up per
  // shard pipeline. Single-writer like every per-node cell.
  std::vector<std::uint64_t*> c_commits_;
  std::vector<std::uint64_t*> c_sync_rounds_;
  std::vector<std::uint64_t*> c_suspicions_;
  std::uint64_t* c_requests_sent_;
  std::uint64_t* c_retries_sent_;
  std::uint64_t* c_timeouts_fired_;
  std::uint64_t* c_suspicions_raised_;
  std::uint64_t* c_suspicions_retracted_;
  std::uint64_t* c_crashes_;
  std::uint64_t* c_restarts_;
  std::uint64_t* c_member_suspects_;
  std::uint64_t* c_member_confirms_;
  std::uint64_t* c_suspicions_absolved_;
  bool crashed_ = false;
};

}  // namespace lo::core

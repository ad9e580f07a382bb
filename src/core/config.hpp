// Protocol configuration and adversarial behavior flags.
#pragma once

#include <cstdint>

#include "core/commitment.hpp"
#include "core/transaction.hpp"
#include "membership/swim.hpp"
#include "sim/simulator.hpp"

namespace lo::core {

struct LoConfig {
  CommitmentParams commitment;

  // Sedna-style sharded commitment pipeline: the transaction space is
  // partitioned by content hash (txid_short % mempool_shards) into this many
  // shards, each with its own commitment log, Bloom-clock estimate and
  // reconciliation stream, and its own proposer per consensus round. 1 (the
  // default) is the paper's single-pipeline protocol — same bytes, same
  // digests. LoNode folds this value into commitment.shards so every wire
  // codec sees it. See DESIGN.md §7.
  std::size_t mempool_shards = 1;

  // Reconciliation cadence: every node reconciles with `recon_fanout` random
  // neighbors every `recon_interval` (paper: 3 neighbors, every second).
  sim::Duration recon_interval = sim::kSecond;
  std::size_t recon_fanout = 3;

  // Request handling: 1 s base timeout, resent up to 3 times, then suspicion
  // (Sec. 6.1). The k-th resend waits request_timeout * backoff_factor^k
  // (capped at backoff_cap) with +/- backoff_jitter relative jitter drawn
  // from the sim RNG — fixed-interval retries synchronize retransmission
  // bursts under loss. backoff_factor = 1 and backoff_jitter = 0 restore the
  // fixed-interval schedule.
  sim::Duration request_timeout = sim::kSecond;
  int max_retries = 3;
  double backoff_factor = 2.0;
  sim::Duration backoff_cap = 8 * sim::kSecond;
  double backoff_jitter = 0.2;

  PrevalidationPolicy prevalidation;
  crypto::SignatureMode sig_mode = crypto::SignatureMode::kEd25519;

  // Cap on full txids shipped per sync response (delta_back / recovery tail);
  // larger backlogs converge over multiple rounds.
  std::size_t max_delta = 256;

  // How long a peer that received our transactions has to publish a
  // commitment covering them before we suspect mempool censorship. Must
  // exceed one reconciliation round plus content-transfer round trips.
  sim::Duration coverage_timeout = 5 * sim::kSecond;

  // Third-party commitment headers piggybacked on sync responses (Sec. 5.2:
  // periodic sharing of most recent commitments). Attached with
  // `gossip_probability` per response; 0 headers disables.
  std::size_t gossip_headers = 1;
  double gossip_probability = 0.34;

  // Probability of escalating a clock-clean censorship check to a full
  // sketch decode anyway (random audit). The Bloom-Clock stage can be fooled
  // only by cell collisions; sampling decodes bounds how long such a
  // collision can hide (Sec. 4.2's two-stage reconciliation).
  double censorship_audit_probability = 0.05;

  // --- ablation knobs (defaults = the paper's design; see bench_ablation) ---
  // Two-stage consistency checking (Bloom Clock first, sketch decode only on
  // flags). false = decode on every observed commitment.
  bool two_stage_checks = true;
  // Difference-sized wire sketches (PinSketch prefix truncation). false =
  // always transmit the full-capacity sketch, as a fixed-size design would.
  bool adaptive_wire_sketch = true;

  // Periodic neighbor rotation via the Basalt-style hash-ranking view
  // (Sec. 3 "Continuous Sampling", Sec. 5.1: "each peer periodically rotates
  // its neighbors ... until it is provided with a sufficient number of
  // non-suspected and non-exposed peers"). 0 disables rotation (static
  // topology, the evaluation default).
  sim::Duration rotate_interval = 0;
  std::size_t view_size = 16;

  // Fee threshold for block inclusion (Sec. 4.3 step 2).
  std::uint64_t block_min_fee = 1;

  // SWIM-style membership failure detector (src/membership). Disabled by
  // default: the paper's pure timeout-driven suspicion semantics are
  // unchanged unless a deployment opts in. When enabled, membership becomes
  // the *liveness* signal and request timeouts stay the *protocol-misbehavior*
  // signal: a timed-out request only escalates to accountability suspicion
  // while the detector still presumes the peer alive (see DESIGN.md §6).
  membership::MembershipConfig membership;

  // Fails fast (std::invalid_argument) on parameters that would silently
  // break the retry/backoff or membership machinery: a shrinking backoff
  // (backoff_factor < 1), jitter outside [0, 1) (a negative or >= 100%
  // jitter can produce non-positive delays), a zero request timeout (spin
  // retries), and inconsistent membership timing. Called from the LoNode
  // constructor, so no node can be built on a nonsensical config.
  void validate() const;
};

// Transaction-manipulation primitives (Sec. 2.2) plus attacks on the
// detection mechanism itself (Sec. 5.3), composable per node.
struct MaliciousBehavior {
  bool censor_txs = false;          // mempool censorship: never commit/serve foreign txs
  bool ignore_requests = false;     // stay silent; drives suspicion (Fig. 6)
  bool equivocate = false;          // fork the commitment log between peers
  bool reorder_block = false;       // order block txs by fee, not canonically
  bool inject_uncommitted = false;  // slip an uncommitted tx ahead of committed ones
  bool censor_blockspace = false;   // drop committed valid txs from own blocks
  bool drop_gossip = false;         // do not forward blame/blocks/commitments
  // Cross-shard censorship (DESIGN.md §7): censor foreign txs of exactly this
  // shard while behaving honestly in every other shard. -1 disables. Only
  // meaningful when mempool_shards > 1; detection must converge per shard.
  std::int32_t censor_shard = -1;

  // True when this behavior censors the foreign txs of `shard` (of `shards`):
  // full mempool censorship, or the cross-shard attack on exactly that shard.
  bool censors(std::uint32_t shard, std::uint32_t shards) const noexcept {
    if (censor_txs) return true;
    return censor_shard >= 0 && shards > 1 &&
           shard == static_cast<std::uint32_t>(censor_shard);
  }

  bool any() const noexcept {
    return censor_txs || ignore_requests || equivocate || reorder_block ||
           inject_uncommitted || censor_blockspace || drop_gossip ||
           censor_shard >= 0;
  }
};

}  // namespace lo::core

// Blame bookkeeping (Sec. 3.2): suspicions and exposures.
//
// An exposure is verifiable proof of misbehavior, a suspicion is the lack of
// a timely response. This registry stores both, tracks the latest observed
// commitment per peer, and runs the consistency check that converts two
// conflicting commitments into transferable evidence.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/commitment.hpp"
#include "core/messages.hpp"
#include "core/types.hpp"

namespace lo::core {

enum class PeerStatus : std::uint8_t { kTrusted, kSuspected, kExposed };

class AccountabilityRegistry {
 public:
  explicit AccountabilityRegistry(crypto::SignatureMode mode,
                                  bool two_stage_checks = true)
      : mode_(mode), two_stage_checks_(two_stage_checks) {}

  // Optional verification cache (owned by the node); results are identical
  // with or without it. Must outlive the registry when set.
  void set_verify_cache(crypto::VerifyCache* cache) noexcept {
    verify_cache_ = cache;
  }

  // Records a commitment observation. If it conflicts with a previously
  // stored commitment of the same node, returns the equivocation evidence
  // (and marks the node exposed). Invalid signatures are ignored.
  //
  // Two-stage check (Sec. 4.2): the Bloom-Clock comparison runs first; the
  // Minisketch decode runs only when the clocks flag an inconsistency.
  // `used_decode` (optional) reports whether the expensive decode ran —
  // experiment harnesses count these for the Fig. 10 reconciliation metric.
  std::optional<EquivocationEvidence> observe_commitment(
      const CommitmentHeader& header, bool* used_decode = nullptr);

  // Per-(node, shard) storage key (DESIGN.md §7): commitments of different
  // shards describe disjoint logs and are never consistency-checked against
  // each other. Shard ids fit in one byte (LoConfig caps mempool_shards at
  // 64), so the key packs losslessly.
  static std::uint64_t key(NodeId node, std::uint32_t shard) noexcept {
    return (static_cast<std::uint64_t>(node) << 8) |
           static_cast<std::uint64_t>(shard & 0xff);
  }

  // The freshest commitment seen from `node` for `shard`, if any.
  const CommitmentHeader* latest(NodeId node, std::uint32_t shard = 0) const;

  // All stored latest commitments keyed by key(node, shard) (used for
  // commitment gossip).
  const std::unordered_map<std::uint64_t, CommitmentHeader>& latest_all()
      const noexcept {
    return latest_;
  }

  void suspect(NodeId node) { suspected_.insert(node); }
  void unsuspect(NodeId node) { suspected_.erase(node); }
  void expose(NodeId node) {
    exposed_.insert(node);
    suspected_.erase(node);
  }

  PeerStatus status(NodeId node) const {
    if (exposed_.count(node) != 0) return PeerStatus::kExposed;
    if (suspected_.count(node) != 0) return PeerStatus::kSuspected;
    return PeerStatus::kTrusted;
  }
  bool is_suspected(NodeId node) const { return suspected_.count(node) != 0; }
  bool is_exposed(NodeId node) const { return exposed_.count(node) != 0; }

  const std::unordered_set<NodeId>& suspected() const noexcept { return suspected_; }
  const std::unordered_set<NodeId>& exposed() const noexcept { return exposed_; }

  // Approximate resident memory of stored commitments (Sec. 6.5 accounting).
  std::size_t memory_bytes() const noexcept;

  std::size_t commitments_stored() const noexcept { return latest_.size(); }

 private:
  crypto::SignatureMode mode_;
  bool two_stage_checks_;
  crypto::VerifyCache* verify_cache_ = nullptr;
  std::unordered_map<std::uint64_t, CommitmentHeader> latest_;
  std::unordered_set<NodeId> suspected_;
  std::unordered_set<NodeId> exposed_;
};

}  // namespace lo::core

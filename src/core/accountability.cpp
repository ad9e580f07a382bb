#include "core/accountability.hpp"

namespace lo::core {

std::optional<EquivocationEvidence> AccountabilityRegistry::observe_commitment(
    const CommitmentHeader& header, bool* used_decode) {
  if (used_decode != nullptr) *used_decode = false;
  if (!header.verify(mode_, verify_cache_)) return std::nullopt;

  // Commitments are tracked per (node, shard): shard logs are disjoint
  // append-only histories, so only same-shard pairs can conflict. Exposure,
  // in contrast, composes globally — see expose().
  auto it = latest_.find(key(header.node, header.shard));
  if (it == latest_.end()) {
    latest_.emplace(key(header.node, header.shard), header);
    return std::nullopt;
  }
  CommitmentHeader& stored = it->second;

  // Key substitution is itself an inconsistency, but without both signatures
  // binding the same key it is not self-contained evidence; ignore the
  // imposter header (the signature check above already gates validity).
  if (!(stored.key == header.key)) return std::nullopt;

  Consistency c = two_stage_checks_ ? check_consistency_clocks(stored, header)
                                    : Consistency::kInconclusive;
  if (c != Consistency::kConsistent) {
    // The cheap stage flagged a discrepancy (or is disabled): escalate to the
    // sketch decode, which either clears it or yields transferable evidence.
    if (used_decode != nullptr) *used_decode = true;
    c = check_consistency(stored, header);
  }
  if (c == Consistency::kEquivocation) {
    EquivocationEvidence ev;
    ev.accused = header.node;
    ev.first = stored;
    ev.second = header;
    expose(header.node);
    return ev;
  }
  // Keep the freshest commitment; on inconclusive keep both endpoints by
  // retaining the newer one (older evidence value decays as history grows).
  if (header.seqno > stored.seqno) stored = header;
  return std::nullopt;
}

const CommitmentHeader* AccountabilityRegistry::latest(
    NodeId node, std::uint32_t shard) const {
  auto it = latest_.find(key(node, shard));
  return it == latest_.end() ? nullptr : &it->second;
}

std::size_t AccountabilityRegistry::memory_bytes() const noexcept {
  std::size_t sum = 0;
  // lolint:allow(unordered-iter) reason=commutative byte-count fold; the sum is order-independent and feeds only local memory metrics
  for (const auto& [id, h] : latest_) {
    sum += sizeof(id) + h.wire_size();
  }
  sum += suspected_.size() * sizeof(NodeId);
  sum += exposed_.size() * sizeof(NodeId);
  return sum;
}

}  // namespace lo::core

// Wire messages of the LØ base-layer protocol (Alg. 1 and Sec. 5.2).
//
// Message classes, for the Fig. 9 bandwidth accounting:
//   lo.sync_req    — NeighborsSync commitment request (header + explicit delta)
//   lo.sync_resp   — commitment response (new header + tx wants + return delta)
//   lo.tx_req      — content request for committed-but-unknown txids
//   lo.txs         — transaction bodies (EXCLUDED from "overhead" in Fig. 9,
//                    matching the paper: tx sharing cost is common to all
//                    protocols)
//   lo.suspicion   — blame: a peer ignored requests (Sec. 5.2)
//   lo.exposure    — blame: verifiable equivocation evidence
//   lo.block       — block dissemination
//   lo.bundle_req  — inspector asks a block creator for committed bundles
//   lo.bundle_resp — signed bundle contents
//   lo.header_gossip — periodic relay of third-party commitments (Sec. 5.2
//                    "nodes periodically share their most recent commitments")
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/block.hpp"
#include "core/commitment.hpp"
#include "core/transaction.hpp"
#include "core/types.hpp"
#include "sim/simulator.hpp"

namespace lo::core {

inline constexpr std::size_t kTxIdWire = 32;

// NeighborsSync (Alg. 1 lines 11-16): the requester sends only its signed
// commitment — the truncated sketch inside it lets the responder compute the
// exact symmetric difference, so no transaction ids travel redundantly.
struct SyncRequest final : sim::Payload {
  CommitmentHeader commitment;
  std::uint64_t request_id = 0;

  const char* type_name() const noexcept override { return "lo.sync_req"; }
  std::size_t wire_size() const noexcept override {
    return commitment.wire_size() + 8;
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<SyncRequest> deserialize(
      std::span<const std::uint8_t> data, const CommitmentParams& params);
};

// Reconciliation result from the responder:
//  - delta_back: full ids the requester lacks (responder resolves its side
//    of the decoded difference; the requester commits them in this order);
//  - want_short: sketch elements of txs the responder lacks (it cannot name
//    them; the requester resolves and ships them in a TxBundleMsg);
//  - decode_failed: the difference exceeded the request's sketch capacity;
//    the responder's own commitment (inside) carries a larger sketch so the
//    requester can reconcile locally and recover.
struct SyncResponse final : sim::Payload {
  CommitmentHeader commitment;
  std::vector<std::uint64_t> want_short;
  std::vector<TxId> delta_back;
  bool decode_failed = false;
  // Piggybacked third-party commitments (Sec. 5.2 commitment sharing); this
  // is what lets equivocation evidence meet at a correct node.
  std::vector<CommitmentHeader> gossip;
  std::uint64_t request_id = 0;

  const char* type_name() const noexcept override { return "lo.sync_resp"; }
  std::size_t wire_size() const noexcept override {
    std::size_t sz = commitment.wire_size() + 8 + 1 + 2 * 4 +
                     8 * want_short.size() + kTxIdWire * delta_back.size() + 4;
    for (const auto& h : gossip) sz += h.wire_size();
    return sz;
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<SyncResponse> deserialize(
      std::span<const std::uint8_t> data, const CommitmentParams& params);
};

struct TxRequest final : sim::Payload {
  std::vector<TxId> want;                 // known full ids
  std::vector<std::uint64_t> want_short;  // sketch elements (recovery path)
  std::uint64_t request_id = 0;

  const char* type_name() const noexcept override { return "lo.tx_req"; }
  std::size_t wire_size() const noexcept override {
    return 4 + kTxIdWire * want.size() + 4 + 8 * want_short.size() + 8;
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<TxRequest> deserialize(std::span<const std::uint8_t> data);
};

struct TxBundleMsg final : sim::Payload {
  std::vector<Transaction> txs;
  std::uint64_t request_id = 0;  // 0 when unsolicited

  const char* type_name() const noexcept override { return "lo.txs"; }
  std::size_t wire_size() const noexcept override {
    std::size_t sz = 4 + 8;
    for (const auto& tx : txs) sz += tx.wire_size();
    return sz;
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<TxBundleMsg> deserialize(
      std::span<const std::uint8_t> data);
};

struct SuspicionMsg final : sim::Payload {
  NodeId suspect = 0;
  NodeId reporter = 0;
  std::uint64_t epoch = 0;  // reporter-local dedup counter
  // true: the reporter's pending request was answered — lift the suspicion
  // this reporter raised earlier (Sec. 5.2: "once it publicly responds to all
  // pending requests, no correct node will suspect it").
  bool retract = false;
  std::optional<CommitmentHeader> last_known;  // suspect's last commitment

  const char* type_name() const noexcept override { return "lo.suspicion"; }
  std::size_t wire_size() const noexcept override {
    return 4 + 4 + 8 + 1 + 1 + (last_known ? last_known->wire_size() : 0);
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<SuspicionMsg> deserialize(
      std::span<const std::uint8_t> data, const CommitmentParams& params);
};

// Verifiable equivocation evidence: two signed commitments from the same
// miner that fail the consistency check. Self-contained and transferable.
struct EquivocationEvidence {
  NodeId accused = 0;
  CommitmentHeader first;
  CommitmentHeader second;

  bool verify(crypto::SignatureMode mode,
              crypto::VerifyCache* cache = nullptr) const {
    if (first.node != accused || second.node != accused) return false;
    // Commitments of different shards describe disjoint logs: a cross-shard
    // pair can never prove equivocation (DESIGN.md §7).
    if (first.shard != second.shard) return false;
    if (!(first.key == second.key)) return false;
    if (!first.verify(mode, cache) || !second.verify(mode, cache)) return false;
    return check_consistency(first, second) == Consistency::kEquivocation;
  }
  std::size_t wire_size() const noexcept {
    return 4 + first.wire_size() + second.wire_size();
  }
};

// A single committed bundle, signed by its owner so it can serve as evidence
// in block-inspection disputes.
struct SignedBundle {
  NodeId owner = 0;
  std::uint64_t seqno = 0;
  // Shard the bundle belongs to; signed and serialized only when shards > 1
  // so the k = 1 wire format stays byte-identical (DESIGN.md §7).
  std::uint32_t shard = 0;
  std::uint32_t shards = 1;
  std::vector<TxId> txids;
  crypto::PublicKey key{};
  crypto::Signature sig{};

  std::vector<std::uint8_t> signing_bytes() const;
  bool verify(crypto::SignatureMode mode,
              crypto::VerifyCache* cache = nullptr) const;
  std::size_t wire_size() const noexcept {
    return 4 + (shards > 1 ? 4 : 0) + 8 + 4 + kTxIdWire * txids.size() + 32 +
           64;
  }
  void write(util::Writer& w) const;
  static std::optional<SignedBundle> read(util::Reader& r,
                                          std::uint32_t shards = 1);
};

// Block-level violation evidence: the signed block plus the creator-signed
// bundles proving what the canonical content should have been.
struct BlockEvidence {
  NodeId accused = 0;
  Block block;
  std::vector<SignedBundle> bundles;

  // Re-runs inspection against the signed bundles; `claim` must reproduce.
  bool verify(crypto::SignatureMode mode, std::uint8_t claimed_verdict,
              crypto::VerifyCache* cache = nullptr) const;
  std::size_t wire_size() const noexcept {
    std::size_t sz = 4 + 2 + block.wire_size();
    for (const auto& b : bundles) sz += b.wire_size();
    return sz;
  }
  void write(util::Writer& w) const;
  static std::optional<BlockEvidence> read(util::Reader& r,
                                           std::uint32_t shards = 1);
};

struct ExposureMsg final : sim::Payload {
  NodeId accused = 0;
  std::uint8_t verdict = 0;  // BlockVerdict for block evidence; 0xff for equiv
  std::optional<EquivocationEvidence> equivocation;
  std::optional<BlockEvidence> block_evidence;

  const char* type_name() const noexcept override { return "lo.exposure"; }
  std::size_t wire_size() const noexcept override {
    return 4 + 1 + 2 +
           (equivocation ? equivocation->wire_size() : 0) +
           (block_evidence ? block_evidence->wire_size() : 0);
  }
  bool verify(crypto::SignatureMode mode,
              crypto::VerifyCache* cache = nullptr) const;
  std::vector<std::uint8_t> serialize() const;
  static std::optional<ExposureMsg> deserialize(
      std::span<const std::uint8_t> data, const CommitmentParams& params);
};

struct BlockMsg final : sim::Payload {
  Block block;

  // block.hash(), computed from `block` on the first call and kept. A flooded
  // block reaches every node as one shared payload, so the block is hashed
  // once per payload, not once per received copy. The hash is never taken
  // from the wire. `block` must not change after the first call.
  const crypto::Digest256& hash() const;

  const char* type_name() const noexcept override { return "lo.block"; }
  std::size_t wire_size() const noexcept override { return block.wire_size(); }
  std::vector<std::uint8_t> serialize() const { return block.serialize(); }
  static std::optional<BlockMsg> deserialize(std::span<const std::uint8_t> data,
                                             std::uint32_t shards = 1);

 private:
  mutable std::optional<crypto::Digest256> hash_;
};

struct BundleRequest final : sim::Payload {
  NodeId creator = 0;
  // Shard whose bundles are requested; on the wire only when shards > 1.
  std::uint32_t shard = 0;
  std::uint32_t shards = 1;
  std::vector<std::uint64_t> seqnos;
  std::uint64_t request_id = 0;

  const char* type_name() const noexcept override { return "lo.bundle_req"; }
  std::size_t wire_size() const noexcept override {
    return 4 + (shards > 1 ? 4 : 0) + 4 + 8 * seqnos.size() + 8;
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<BundleRequest> deserialize(
      std::span<const std::uint8_t> data, std::uint32_t shards = 1);
};

struct BundleResponse final : sim::Payload {
  std::vector<SignedBundle> bundles;
  std::uint64_t request_id = 0;

  const char* type_name() const noexcept override { return "lo.bundle_resp"; }
  std::size_t wire_size() const noexcept override {
    std::size_t sz = 4 + 8;
    for (const auto& b : bundles) sz += b.wire_size();
    return sz;
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<BundleResponse> deserialize(
      std::span<const std::uint8_t> data, std::uint32_t shards = 1);
};

// Periodic relay of the most recent third-party commitments.
struct HeaderGossip final : sim::Payload {
  std::vector<CommitmentHeader> headers;

  const char* type_name() const noexcept override { return "lo.header_gossip"; }
  std::size_t wire_size() const noexcept override {
    std::size_t sz = 4;
    for (const auto& h : headers) sz += h.wire_size();
    return sz;
  }
  std::vector<std::uint8_t> serialize() const;
  static std::optional<HeaderGossip> deserialize(
      std::span<const std::uint8_t> data, const CommitmentParams& params);
};

}  // namespace lo::core

#include "core/messages.hpp"

#include "core/inspection.hpp"
#include "crypto/verify_cache.hpp"
#include "util/serde.hpp"

namespace lo::core {

std::vector<std::uint8_t> SignedBundle::signing_bytes() const {
  util::Writer w;
  w.str("lo-bundle");
  w.u32(owner);
  // Shard id under the signature only at k > 1: single-shard bundles keep the
  // pre-sharding bytes, sharded ones cannot be replayed across shards.
  if (shards > 1) {
    w.str("shard");
    w.u32(shard);
  }
  w.u64(seqno);
  w.u32(static_cast<std::uint32_t>(txids.size()));
  for (const auto& id : txids) w.fixed(id);
  return w.take_u8();
}

bool SignedBundle::verify(crypto::SignatureMode mode,
                          crypto::VerifyCache* cache) const {
  auto msg = signing_bytes();
  const std::span<const std::uint8_t> m(msg.data(), msg.size());
  if (cache) return cache->verify(mode, key, m, sig);
  return crypto::Signer::verify(mode, key, m, sig);
}

bool BlockEvidence::verify(crypto::SignatureMode mode,
                           std::uint8_t claimed_verdict,
                           crypto::VerifyCache* cache) const {
  if (block.creator != accused) return false;
  if (!block.verify(mode, cache)) return false;
  BundleMap map;
  for (const auto& b : bundles) {
    if (b.owner != accused) return false;
    if (!(b.key == block.key)) return false;
    if (!b.verify(mode, cache)) return false;
    map[b.seqno] = b.txids;
  }
  // Censorship claims depend on tx content the verifier may not share, so the
  // transferable evidence covers structure, injection and reordering only;
  // pass no includeability knowledge.
  const auto res = inspect_block(block, map, nullptr);
  return static_cast<std::uint8_t>(res.verdict) == claimed_verdict &&
         (res.verdict == BlockVerdict::kReordered ||
          res.verdict == BlockVerdict::kInjected ||
          res.verdict == BlockVerdict::kBadStructure);
}

bool ExposureMsg::verify(crypto::SignatureMode mode,
                         crypto::VerifyCache* cache) const {
  if (equivocation) {
    return equivocation->accused == accused && equivocation->verify(mode, cache);
  }
  if (block_evidence) {
    return block_evidence->accused == accused &&
           block_evidence->verify(mode, verdict, cache);
  }
  return false;
}

// ------------------------------------------------------- wire encodings ----
//
// The serializers below are the byte-level ground truth for every wire_size()
// formula above; tests/test_messages.cpp asserts serialize().size() ==
// wire_size() for every message type.

std::vector<std::uint8_t> SyncRequest::serialize() const {
  util::Writer w;
  commitment.write(w);
  w.u64(request_id);
  return w.take_u8();
}

std::optional<SyncRequest> SyncRequest::deserialize(
    std::span<const std::uint8_t> data, const CommitmentParams& params) {
  try {
    util::Reader r(data);
    SyncRequest m;
    auto h = CommitmentHeader::read(r, params);
    if (!h) return std::nullopt;
    m.commitment = *h;
    m.request_id = r.u64();
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> SyncResponse::serialize() const {
  util::Writer w;
  commitment.write(w);
  w.u64(request_id);
  w.u8(decode_failed ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(want_short.size()));
  for (auto e : want_short) w.u64(e);
  w.u32(static_cast<std::uint32_t>(delta_back.size()));
  for (const auto& id : delta_back) w.fixed(id);
  w.u32(static_cast<std::uint32_t>(gossip.size()));
  for (const auto& h : gossip) h.write(w);
  return w.take_u8();
}

std::optional<SyncResponse> SyncResponse::deserialize(
    std::span<const std::uint8_t> data, const CommitmentParams& params) {
  try {
    util::Reader r(data);
    SyncResponse m;
    auto h = CommitmentHeader::read(r, params);
    if (!h) return std::nullopt;
    m.commitment = *h;
    m.request_id = r.u64();
    m.decode_failed = r.u8() != 0;
    const std::uint32_t nw = r.u32();
    for (std::uint32_t i = 0; i < nw; ++i) m.want_short.push_back(r.u64());
    const std::uint32_t nd = r.u32();
    for (std::uint32_t i = 0; i < nd; ++i) m.delta_back.push_back(r.fixed<32>());
    const std::uint32_t ng = r.u32();
    for (std::uint32_t i = 0; i < ng; ++i) {
      auto g = CommitmentHeader::read(r, params);
      if (!g) return std::nullopt;
      m.gossip.push_back(*g);
    }
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> TxRequest::serialize() const {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(want.size()));
  for (const auto& id : want) w.fixed(id);
  w.u32(static_cast<std::uint32_t>(want_short.size()));
  for (auto e : want_short) w.u64(e);
  w.u64(request_id);
  return w.take_u8();
}

std::optional<TxRequest> TxRequest::deserialize(
    std::span<const std::uint8_t> data) {
  try {
    util::Reader r(data);
    TxRequest m;
    const std::uint32_t nw = r.u32();
    for (std::uint32_t i = 0; i < nw; ++i) m.want.push_back(r.fixed<32>());
    const std::uint32_t ns = r.u32();
    for (std::uint32_t i = 0; i < ns; ++i) m.want_short.push_back(r.u64());
    m.request_id = r.u64();
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> TxBundleMsg::serialize() const {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(txs.size()));
  w.u64(request_id);
  for (const auto& tx : txs) tx.write(w);
  return w.take_u8();
}

std::optional<TxBundleMsg> TxBundleMsg::deserialize(
    std::span<const std::uint8_t> data) {
  try {
    util::Reader r(data);
    TxBundleMsg m;
    const std::uint32_t n = r.u32();
    m.request_id = r.u64();
    for (std::uint32_t i = 0; i < n; ++i) m.txs.push_back(Transaction::read(r));
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> SuspicionMsg::serialize() const {
  util::Writer w;
  w.u32(suspect);
  w.u32(reporter);
  w.u64(epoch);
  w.u8(retract ? 1 : 0);
  w.u8(last_known ? 1 : 0);
  if (last_known) last_known->write(w);
  return w.take_u8();
}

std::optional<SuspicionMsg> SuspicionMsg::deserialize(
    std::span<const std::uint8_t> data, const CommitmentParams& params) {
  try {
    util::Reader r(data);
    SuspicionMsg m;
    m.suspect = r.u32();
    m.reporter = r.u32();
    m.epoch = r.u64();
    m.retract = r.u8() != 0;
    if (r.u8() != 0) {
      auto h = CommitmentHeader::read(r, params);
      if (!h) return std::nullopt;
      m.last_known = *h;
    }
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

void SignedBundle::write(util::Writer& w) const {
  w.u32(owner);
  if (shards > 1) w.u32(shard);
  w.u64(seqno);
  w.u32(static_cast<std::uint32_t>(txids.size()));
  for (const auto& id : txids) w.fixed(id);
  w.fixed(key);
  w.fixed(sig);
}

std::optional<SignedBundle> SignedBundle::read(util::Reader& r,
                                               std::uint32_t shards) {
  try {
    SignedBundle sb;
    sb.shards = shards == 0 ? 1 : shards;
    sb.owner = r.u32();
    if (shards > 1) {
      sb.shard = r.u32();
      if (sb.shard >= shards) return std::nullopt;
    }
    sb.seqno = r.u64();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) sb.txids.push_back(r.fixed<32>());
    sb.key = r.fixed<32>();
    sb.sig = r.fixed<64>();
    return sb;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

void BlockEvidence::write(util::Writer& w) const {
  w.u32(accused);
  w.u16(static_cast<std::uint16_t>(bundles.size()));
  block.write(w);
  for (const auto& b : bundles) b.write(w);
}

std::optional<BlockEvidence> BlockEvidence::read(util::Reader& r,
                                                 std::uint32_t shards) {
  try {
    BlockEvidence ev;
    ev.accused = r.u32();
    const std::uint16_t n = r.u16();
    auto b = Block::read(r, shards);
    if (!b) return std::nullopt;
    ev.block = *b;
    for (std::uint16_t i = 0; i < n; ++i) {
      auto sb = SignedBundle::read(r, shards);
      if (!sb) return std::nullopt;
      ev.bundles.push_back(*sb);
    }
    return ev;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> ExposureMsg::serialize() const {
  util::Writer w;
  w.u32(accused);
  w.u8(verdict);
  w.u8(equivocation ? 1 : 0);
  w.u8(block_evidence ? 1 : 0);
  if (equivocation) {
    w.u32(equivocation->accused);
    equivocation->first.write(w);
    equivocation->second.write(w);
  }
  if (block_evidence) block_evidence->write(w);
  return w.take_u8();
}

std::optional<ExposureMsg> ExposureMsg::deserialize(
    std::span<const std::uint8_t> data, const CommitmentParams& params) {
  try {
    util::Reader r(data);
    ExposureMsg m;
    m.accused = r.u32();
    m.verdict = r.u8();
    const bool has_eq = r.u8() != 0;
    const bool has_be = r.u8() != 0;
    if (has_eq) {
      EquivocationEvidence eq;
      eq.accused = r.u32();
      auto h1 = CommitmentHeader::read(r, params);
      auto h2 = CommitmentHeader::read(r, params);
      if (!h1 || !h2) return std::nullopt;
      eq.first = *h1;
      eq.second = *h2;
      m.equivocation = std::move(eq);
    }
    if (has_be) {
      auto be = BlockEvidence::read(r, params.shards);
      if (!be) return std::nullopt;
      m.block_evidence = std::move(*be);
    }
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

const crypto::Digest256& BlockMsg::hash() const {
  if (!hash_) hash_ = block.hash();
  return *hash_;
}

std::optional<BlockMsg> BlockMsg::deserialize(
    std::span<const std::uint8_t> data, std::uint32_t shards) {
  auto b = Block::deserialize(data, shards);
  if (!b) return std::nullopt;
  BlockMsg m;
  m.block = std::move(*b);
  return m;
}

std::vector<std::uint8_t> BundleRequest::serialize() const {
  util::Writer w;
  w.u32(creator);
  if (shards > 1) w.u32(shard);
  w.u32(static_cast<std::uint32_t>(seqnos.size()));
  for (auto s : seqnos) w.u64(s);
  w.u64(request_id);
  return w.take_u8();
}

std::optional<BundleRequest> BundleRequest::deserialize(
    std::span<const std::uint8_t> data, std::uint32_t shards) {
  try {
    util::Reader r(data);
    BundleRequest m;
    m.shards = shards == 0 ? 1 : shards;
    m.creator = r.u32();
    if (shards > 1) {
      m.shard = r.u32();
      if (m.shard >= shards) return std::nullopt;
    }
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) m.seqnos.push_back(r.u64());
    m.request_id = r.u64();
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> BundleResponse::serialize() const {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(bundles.size()));
  w.u64(request_id);
  for (const auto& b : bundles) b.write(w);
  return w.take_u8();
}

std::optional<BundleResponse> BundleResponse::deserialize(
    std::span<const std::uint8_t> data, std::uint32_t shards) {
  try {
    util::Reader r(data);
    BundleResponse m;
    const std::uint32_t n = r.u32();
    m.request_id = r.u64();
    for (std::uint32_t i = 0; i < n; ++i) {
      auto sb = SignedBundle::read(r, shards);
      if (!sb) return std::nullopt;
      m.bundles.push_back(*sb);
    }
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

std::vector<std::uint8_t> HeaderGossip::serialize() const {
  util::Writer w;
  w.u32(static_cast<std::uint32_t>(headers.size()));
  for (const auto& h : headers) h.write(w);
  return w.take_u8();
}

std::optional<HeaderGossip> HeaderGossip::deserialize(
    std::span<const std::uint8_t> data, const CommitmentParams& params) {
  try {
    util::Reader r(data);
    HeaderGossip m;
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      auto h = CommitmentHeader::read(r, params);
      if (!h) return std::nullopt;
      m.headers.push_back(*h);
    }
    if (!r.done()) return std::nullopt;
    return m;
  } catch (const util::SerdeError&) {
    return std::nullopt;
  }
}

}  // namespace lo::core

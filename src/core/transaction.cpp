#include "core/transaction.hpp"

#include "crypto/verify_cache.hpp"
#include "util/serde.hpp"

namespace lo::core {

namespace {
// Fixed overhead: id(32) + creator(32) + nonce(8) + fee(8) + created(8)
// + body length prefix(4) + sig(64).
constexpr std::size_t kFixedOverhead = 32 + 32 + 8 + 8 + 8 + 4 + 64;
static_assert(kFixedOverhead < kTxWireSize, "tx overhead exceeds target size");
constexpr std::size_t kDefaultBodySize = kTxWireSize - kFixedOverhead;
}  // namespace

std::size_t Transaction::wire_size() const noexcept {
  return kFixedOverhead + body.size();
}

std::vector<std::uint8_t> Transaction::signing_bytes() const {
  util::Writer w;
  w.fixed(creator);
  w.u64(nonce);
  w.u64(fee);
  w.u64(static_cast<std::uint64_t>(created_at));
  w.var_bytes(body);
  return w.take_u8();
}

TxId Transaction::compute_id() const {
  auto bytes = signing_bytes();
  crypto::Sha256 h;
  h.update(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
  h.update(std::span<const std::uint8_t>(sig.data(), sig.size()));
  return h.finalize();
}

void Transaction::write(util::Writer& w) const {
  w.fixed(id);
  w.fixed(creator);
  w.u64(nonce);
  w.u64(fee);
  w.u64(static_cast<std::uint64_t>(created_at));
  w.var_bytes(body);
  w.fixed(sig);
}

std::vector<std::uint8_t> Transaction::serialize() const {
  util::Writer w;
  write(w);
  return w.take_u8();
}

Transaction Transaction::read(util::Reader& r) {
  Transaction tx;
  tx.id = r.fixed<32>();
  tx.creator = r.fixed<32>();
  tx.nonce = r.u64();
  tx.fee = r.u64();
  tx.created_at = static_cast<std::int64_t>(r.u64());
  tx.body = r.var_bytes();
  tx.sig = r.fixed<64>();
  return tx;
}

Transaction Transaction::deserialize(std::span<const std::uint8_t> data) {
  util::Reader r(data);
  return read(r);
}

Transaction make_transaction(const crypto::Signer& client, std::uint64_t nonce,
                             std::uint64_t fee, std::int64_t created_at) {
  Transaction tx;
  tx.creator = client.public_key();
  tx.nonce = nonce;
  tx.fee = fee;
  tx.created_at = created_at;
  tx.body.assign(kDefaultBodySize, 0);
  // Give the body deterministic non-trivial content derived from the fields.
  std::uint64_t s = nonce ^ (fee << 20);
  for (auto& b : tx.body) b = static_cast<std::uint8_t>(util::splitmix64(s));
  auto msg = tx.signing_bytes();
  tx.sig = client.sign(std::span<const std::uint8_t>(msg.data(), msg.size()));
  tx.id = tx.compute_id();
  return tx;
}

bool prevalidate(const Transaction& tx, const PrevalidationPolicy& policy,
                 crypto::VerifyCache* cache) {
  if (tx.fee < policy.min_fee) return false;
  if (tx.compute_id() != tx.id) return false;
  auto msg = tx.signing_bytes();
  const std::span<const std::uint8_t> m(msg.data(), msg.size());
  return cache ? cache->verify(policy.sig_mode, tx.creator, m, tx.sig)
               : crypto::Signer::verify(policy.sig_mode, tx.creator, m, tx.sig);
}

}  // namespace lo::core

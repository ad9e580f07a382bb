#include "crypto/verify_cache.hpp"

#include "obs/profile.hpp"

namespace lo::crypto {

namespace {
constexpr std::uint64_t kKeyTier = 0;
constexpr std::uint64_t kMemoTier = 1;
}  // namespace

const PreparedPublicKey* VerifyTier::prepared_key(const PublicKey& pub) {
  if (const PreparedPublicKey* key = keys_.find(pub)) return key;
  auto prepared = ed25519_prepare(pub);
  if (!prepared) return nullptr;
  return &keys_.insert(pub, *prepared);
}

bool VerifyTier::verify(const Digest256& memo_key, const PublicKey& pub,
                        std::span<const std::uint8_t> msg,
                        const Signature& sig) {
  if (const bool* ok = verdicts_.find(memo_key)) return *ok;
  const PreparedPublicKey* key = prepared_key(pub);
  const bool ok = key != nullptr && ed25519_verify_prepared(*key, msg, sig);
  verdicts_.insert(memo_key, ok);
  return ok;
}

void VerifyCache::probe(bool hit, std::uint64_t tier) noexcept {
  if (tier == kMemoTier) {
    ++*(hit ? c_memo_hits_ : c_memo_misses_);
  } else {
    ++*(hit ? c_key_hits_ : c_key_misses_);
  }
  if (tracer_ != nullptr) {
    tracer_->emit(obs::EventKind::kCacheProbe, trace_node_, 0, hit ? 1 : 0,
                  tier);
  }
}

bool VerifyCache::verify(SignatureMode mode, const PublicKey& pub,
                         std::span<const std::uint8_t> msg,
                         const Signature& sig) {
  if (mode != SignatureMode::kEd25519) return Signer::verify(mode, pub, msg, sig);
  obs::ScopedProfile prof(obs::ProfileSite::kVerifyCacheProbe);

  Sha256 h;
  h.update("lo-vmemo");
  h.update(std::span<const std::uint8_t>(pub.data(), pub.size()));
  h.update(std::span<const std::uint8_t>(sig.data(), sig.size()));
  h.update(msg);
  const Digest256 memo_key = h.finalize();

  if (const bool* ok = memo_.find(memo_key)) {
    probe(true, kMemoTier);
    return *ok;
  }
  probe(false, kMemoTier);

  // A node on its own would decompress here on a key miss; it keeps only
  // well-formed keys, so a malformed one misses every time.
  if (keys_.find(pub) != nullptr) {
    probe(true, kKeyTier);
  } else {
    probe(false, kKeyTier);
    if (tier_->prepared_key(pub) != nullptr) keys_.insert(pub, Seen{});
  }

  const bool ok = tier_->verify(memo_key, pub, msg, sig);
  memo_.insert(memo_key, ok);
  return ok;
}

void VerifyCache::clear() {
  keys_.clear();
  memo_.clear();
}

}  // namespace lo::crypto

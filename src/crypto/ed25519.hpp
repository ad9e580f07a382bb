// Ed25519 (RFC 8032) implemented from scratch: GF(2^255-19) field arithmetic
// with 51-bit limbs, twisted-Edwards point arithmetic in extended coordinates,
// and scalar arithmetic modulo the group order L.
//
// This implementation is NOT constant-time; it exists to make commitments and
// blocks third-party verifiable in the reproduction, not to protect live keys.
// Verification is the hot path at simulation scale, so it uses precomputed
// window tables for the base point and Straus/Shamir w-NAF interleaving for
// the double-scalar check (see DESIGN.md "verify fast path"); the generic
// algorithms are retained as differential-testing references.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

namespace lo::crypto {

using PublicKey = std::array<std::uint8_t, 32>;
using SecretSeed = std::array<std::uint8_t, 32>;
using Signature = std::array<std::uint8_t, 64>;

// Derives the public key for a 32-byte secret seed.
PublicKey ed25519_public_key(const SecretSeed& seed);

// Produces a deterministic RFC 8032 signature over `msg`.
Signature ed25519_sign(const SecretSeed& seed, std::span<const std::uint8_t> msg);

class ExpandedSecret;

// RFC 8032 key expansion: the clamped scalar a, the nonce prefix and the
// public key A = a*B, all from one seed. Costs what ed25519_public_key costs.
ExpandedSecret ed25519_expand(const SecretSeed& seed);

// Same signature bytes as ed25519_sign(seed, msg) for the seed `key` was
// expanded from, without re-deriving A (a base-point multiply and a field
// inversion) on every call.
Signature ed25519_sign(const ExpandedSecret& key,
                       std::span<const std::uint8_t> msg);

// Verifies a signature; returns false for malformed points, non-canonical
// scalars (S >= L) and, of course, wrong signatures.
bool ed25519_verify(const PublicKey& pub, std::span<const std::uint8_t> msg,
                    const Signature& sig);

// Pre-optimization verification algorithm (generic double-and-add plus R
// decompression). Retained as a differential-testing oracle and so
// bench_crypto can report the before/after verify throughput in one binary.
// Must accept/reject exactly the same inputs as ed25519_verify.
bool ed25519_verify_reference(const PublicKey& pub,
                              std::span<const std::uint8_t> msg,
                              const Signature& sig);

namespace detail {

// ---- Field GF(2^255 - 19) ----
// Limbs are 51 bits; values may be unnormalized between operations.
struct Fe {
  std::uint64_t v[5]{};
};

Fe fe_zero() noexcept;
Fe fe_one() noexcept;
Fe fe_add(const Fe& a, const Fe& b) noexcept;
Fe fe_sub(const Fe& a, const Fe& b) noexcept;
Fe fe_neg(const Fe& a) noexcept;
Fe fe_mul(const Fe& a, const Fe& b) noexcept;
Fe fe_sq(const Fe& a) noexcept;
// a^e where e is a 32-byte little-endian exponent.
Fe fe_pow(const Fe& a, const std::array<std::uint8_t, 32>& e_le) noexcept;
Fe fe_invert(const Fe& a) noexcept;        // a^(p-2)
Fe fe_pow2523(const Fe& a) noexcept;       // a^((p-5)/8), used for sqrt
Fe fe_from_bytes(const std::array<std::uint8_t, 32>& b) noexcept;  // ignores bit 255
std::array<std::uint8_t, 32> fe_to_bytes(const Fe& a) noexcept;    // canonical
bool fe_is_zero(const Fe& a) noexcept;
bool fe_is_negative(const Fe& a) noexcept;  // lsb of canonical form
bool fe_eq(const Fe& a, const Fe& b) noexcept;

// ---- Group: twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 ----
// Extended coordinates (X : Y : Z : T), T = XY/Z.
struct Ge {
  Fe X, Y, Z, T;
};

Ge ge_identity() noexcept;
Ge ge_add(const Ge& p, const Ge& q) noexcept;
Ge ge_double(const Ge& p) noexcept;
Ge ge_neg(const Ge& p) noexcept;
// Scalar is 32 little-endian bytes (up to 256 bits, no clamping applied here).
// Generic double-and-add; kept as the reference algorithm for the fast paths.
Ge ge_scalarmult(const Ge& p, const std::array<std::uint8_t, 32>& scalar) noexcept;
// Fixed-base multiply via a precomputed 4-bit window table (64 windows x 15
// odd/even multiples of 16^i * B); no doublings in the main loop.
Ge ge_scalarmult_base(const std::array<std::uint8_t, 32>& scalar) noexcept;
// a*A + b*B via Straus/Shamir interleaving: one shared doubling chain, w-NAF
// digits for both scalars (width 5 for A, width 7 for the static B table).
// Both scalars must be below 2^255 (verification passes k and S, both < L).
// Variable-time, like everything else here.
Ge ge_double_scalarmult_base_vartime(const std::array<std::uint8_t, 32>& a,
                                     const Ge& A,
                                     const std::array<std::uint8_t, 32>& b) noexcept;
std::array<std::uint8_t, 32> ge_to_bytes(const Ge& p) noexcept;
std::optional<Ge> ge_from_bytes(const std::array<std::uint8_t, 32>& b) noexcept;
bool ge_eq(const Ge& p, const Ge& q) noexcept;

// ---- Scalars modulo L = 2^252 + 27742317777372353535851937790883648493 ----
struct Sc {
  std::uint64_t v[4]{};  // little-endian limbs, always < L after reduction
};

Sc sc_zero() noexcept;
// Reduces a little-endian byte string of at most 64 bytes modulo L by
// Barrett reduction (μ = ⌊2^512 / L⌋). Throws std::length_error on a longer
// input, in every build type: the reduction is only exact below 2^512.
Sc sc_reduce(std::span<const std::uint8_t> bytes_le);
// Bit-serial reduction of any length (one shift-compare-subtract per input
// bit). The differential oracle for sc_reduce in tests and bench_crypto, and
// the reduction inside ed25519_verify_reference.
Sc sc_reduce_reference(std::span<const std::uint8_t> bytes_le) noexcept;
Sc sc_add(const Sc& a, const Sc& b) noexcept;
Sc sc_mul(const Sc& a, const Sc& b) noexcept;
Sc sc_neg(const Sc& a) noexcept;  // L - a (0 maps to 0)
std::array<std::uint8_t, 32> sc_to_bytes(const Sc& a) noexcept;
// True iff the 32 little-endian bytes encode a value < L (canonical S check).
bool sc_is_canonical(const std::array<std::uint8_t, 32>& b) noexcept;

}  // namespace detail

// The expanded form of a secret seed (see ed25519_expand). Only
// ed25519_expand builds one, so the A a signature hashes is always the one
// derived from the same seed as the scalar: signing one message under two
// different A values gives two S values for the same nonce r, and
// (S1 - S2) / (k1 - k2) = a recovers the secret scalar.
class ExpandedSecret {
 public:
  const PublicKey& public_key() const noexcept { return pub_; }

 private:
  ExpandedSecret() = default;
  friend ExpandedSecret ed25519_expand(const SecretSeed& seed);
  friend Signature ed25519_sign(const ExpandedSecret& key,
                                std::span<const std::uint8_t> msg);

  detail::Sc scalar_;                      // clamped a, reduced mod L
  std::array<std::uint8_t, 32> prefix_{};  // nonce prefix
  PublicKey pub_{};                        // encoding of A = a*B
};

// A public key decompressed once and reused across verifications. The
// expensive half of a cold verify is reconstructing A from its 32-byte
// encoding (a field exponentiation for the square root); peers sign many
// messages with the same key, so crypto::VerifyTier keeps these in an LRU
// that every node of a simulation shares.
struct PreparedPublicKey {
  PublicKey encoded;  // original wire encoding; feeds the challenge hash
  detail::Ge point;   // decompressed A
};

// Decompresses `pub`; nullopt on a malformed or non-canonical encoding
// (exactly the inputs ed25519_verify rejects before hashing anything).
std::optional<PreparedPublicKey> ed25519_prepare(const PublicKey& pub);

// Same accept/reject behavior as ed25519_verify(key.encoded, msg, sig) but
// skips the per-call decompression.
bool ed25519_verify_prepared(const PreparedPublicKey& key,
                             std::span<const std::uint8_t> msg,
                             const Signature& sig);

}  // namespace lo::crypto

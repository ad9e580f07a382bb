// Crypto substrate tests: FIPS 180-4 vectors for SHA-256/512, RFC 8032
// vectors and algebraic properties for the from-scratch Ed25519.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/verify_cache.hpp"
#include "util/hex.hpp"
#include "util/rng.hpp"

namespace lo::crypto {
namespace {

using util::from_hex_fixed;
using util::to_hex;

// ------------------------------------------------------------- SHA-256 ----

TEST(Sha256, NistVectors) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(sha256(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(to_hex(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  for (std::size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(msg.substr(0, split));
    h.update(msg.substr(split));
    EXPECT_EQ(h.finalize(), sha256(msg)) << "split at " << split;
  }
}

TEST(Sha256, PaddingBoundaries) {
  // Lengths around the 55/56/64-byte padding edge must all be distinct and
  // reproducible.
  std::set<std::string> seen;
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string m(len, 'x');
    const auto d = to_hex(sha256(m));
    EXPECT_TRUE(seen.insert(d).second);
    EXPECT_EQ(d, to_hex(sha256(m)));
  }
}

// ------------------------------------------------------------- SHA-512 ----

TEST(Sha512, NistVectors) {
  EXPECT_EQ(to_hex(sha512("")),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
  EXPECT_EQ(to_hex(sha512("abc")),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(
      to_hex(sha512("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                    "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")),
      "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
      "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, IncrementalAcrossBlockBoundary) {
  const std::string msg(300, 'q');
  Sha512 h;
  h.update(msg.substr(0, 127));
  h.update(msg.substr(127, 2));
  h.update(msg.substr(129));
  EXPECT_EQ(h.finalize(), sha512(msg));
}

// ------------------------------------------------------------- Ed25519 ----

struct Rfc8032Vector {
  const char* name;
  const char* seed;
  const char* pub;
  const char* msg_hex;
  const char* sig;
};

// gtest would otherwise name each case by a byte dump of the struct, i.e. of
// its pointers, which differ from build to build.
void PrintTo(const Rfc8032Vector& v, std::ostream* os) { *os << v.name; }

// Test vectors from RFC 8032 Sec. 7.1 (TEST 1, 2, 3).
const Rfc8032Vector kVectors[] = {
    {"test1",
     "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"test2",
     "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"test3",
     "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
     "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
};

class Rfc8032Test : public ::testing::TestWithParam<Rfc8032Vector> {};

TEST_P(Rfc8032Test, KeyGenSignVerify) {
  const auto& v = GetParam();
  const auto seed = from_hex_fixed<32>(v.seed);
  const auto msg = util::from_hex(v.msg_hex);

  const auto pub = ed25519_public_key(seed);
  EXPECT_EQ(to_hex(pub), v.pub);

  const auto sig = ed25519_sign(seed, msg);
  EXPECT_EQ(to_hex(sig), v.sig);

  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

INSTANTIATE_TEST_SUITE_P(Vectors, Rfc8032Test, ::testing::ValuesIn(kVectors));

TEST(Ed25519, TamperedMessageRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[2].seed);
  const auto pub = ed25519_public_key(seed);
  auto msg = util::from_hex(kVectors[2].msg_hex);
  const auto sig = ed25519_sign(seed, msg);
  msg[0] ^= 1;
  EXPECT_FALSE(ed25519_verify(pub, msg, sig));
}

TEST(Ed25519, TamperedSignatureRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  auto sig = ed25519_sign(seed, {});
  for (std::size_t pos : {0u, 31u, 32u, 63u}) {
    auto bad = sig;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(ed25519_verify(pub, {}, bad)) << "flip at " << pos;
  }
}

TEST(Ed25519, WrongKeyRejected) {
  const auto seed_a = from_hex_fixed<32>(kVectors[0].seed);
  const auto seed_b = from_hex_fixed<32>(kVectors[1].seed);
  const auto pub_b = ed25519_public_key(seed_b);
  const auto sig = ed25519_sign(seed_a, {});
  EXPECT_FALSE(ed25519_verify(pub_b, {}, sig));
}

TEST(Ed25519, NonCanonicalScalarRejected) {
  // S >= L must be rejected (malleability guard). Take a valid signature and
  // add L to S.
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  auto sig = ed25519_sign(seed, {});
  // L little-endian.
  const auto l_bytes = util::from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned sum = sig[32 + i] + l_bytes[static_cast<std::size_t>(i)] + carry;
    sig[32 + i] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  EXPECT_FALSE(ed25519_verify(pub, {}, sig));
}

TEST(Ed25519, SignatureIsDeterministic) {
  const auto seed = from_hex_fixed<32>(kVectors[1].seed);
  const auto msg = util::from_hex("deadbeef");
  EXPECT_EQ(ed25519_sign(seed, msg), ed25519_sign(seed, msg));
}

TEST(Ed25519, LargeMessage) {
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  std::vector<std::uint8_t> msg(10000);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i);
  const auto sig = ed25519_sign(seed, msg);
  EXPECT_TRUE(ed25519_verify(pub, msg, sig));
}

// Field and group internals.

TEST(Ed25519Internals, FieldArithmetic) {
  using namespace detail;
  const Fe two = fe_add(fe_one(), fe_one());
  const Fe four = fe_mul(two, two);
  EXPECT_TRUE(fe_eq(four, fe_sq(two)));
  EXPECT_TRUE(fe_eq(fe_sub(four, two), two));
  EXPECT_TRUE(fe_is_zero(fe_sub(two, two)));
  // Inverse: 2 * 2^-1 == 1.
  EXPECT_TRUE(fe_eq(fe_mul(two, fe_invert(two)), fe_one()));
}

TEST(Ed25519Internals, FieldBytesRoundTrip) {
  using namespace detail;
  std::array<std::uint8_t, 32> b{};
  b[0] = 42;
  b[13] = 0xaa;
  b[31] = 0x55;  // below p, top bit clear
  EXPECT_EQ(fe_to_bytes(fe_from_bytes(b)), b);
}

TEST(Ed25519Internals, GroupIdentityAndInverse) {
  using namespace detail;
  std::array<std::uint8_t, 32> k{};
  k[0] = 5;
  const Ge p = ge_scalarmult_base(k);
  EXPECT_TRUE(ge_eq(ge_add(p, ge_identity()), p));
  // p + (-p) == identity.
  EXPECT_TRUE(ge_eq(ge_add(p, ge_neg(p)), ge_identity()));
}

TEST(Ed25519Internals, ScalarMultDistributes) {
  using namespace detail;
  // (a+b)*B == a*B + b*B for small scalars.
  std::array<std::uint8_t, 32> a{}, b{}, ab{};
  a[0] = 100;
  b[0] = 55;
  ab[0] = 155;
  EXPECT_TRUE(ge_eq(ge_scalarmult_base(ab),
                    ge_add(ge_scalarmult_base(a), ge_scalarmult_base(b))));
}

TEST(Ed25519Internals, DoubleMatchesAdd) {
  using namespace detail;
  std::array<std::uint8_t, 32> k{};
  k[0] = 9;
  const Ge p = ge_scalarmult_base(k);
  EXPECT_TRUE(ge_eq(ge_double(p), ge_add(p, p)));
}

TEST(Ed25519Internals, PointCompressionRoundTrip) {
  using namespace detail;
  for (int s : {1, 2, 3, 77, 200}) {
    std::array<std::uint8_t, 32> k{};
    k[0] = static_cast<std::uint8_t>(s);
    const Ge p = ge_scalarmult_base(k);
    const auto enc = ge_to_bytes(p);
    const auto back = ge_from_bytes(enc);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(ge_eq(*back, p));
    EXPECT_EQ(ge_to_bytes(*back), enc);
  }
}

TEST(Ed25519Internals, InvalidPointRejected) {
  using namespace detail;
  // A y-coordinate whose curve equation has no solution.
  std::array<std::uint8_t, 32> bad{};
  bad[0] = 2;  // y=2: d*y^2+1 vs y^2-1 — not a square ratio for curve25519
  const auto p = ge_from_bytes(bad);
  // Either decodes (if on curve) or not; flip until one fails to decode.
  bool rejected_some = !p.has_value();
  for (std::uint8_t y = 3; y < 40 && !rejected_some; ++y) {
    std::array<std::uint8_t, 32> b{};
    b[0] = y;
    if (!ge_from_bytes(b)) rejected_some = true;
  }
  EXPECT_TRUE(rejected_some);
}

TEST(Ed25519Internals, DoubleScalarMultMatchesGenericAlgorithm) {
  // a*A + b*B through the w-NAF recoding and the completed-point chain
  // equals the generic double-and-add, for random scalars below 2^255 and
  // for digit patterns that stress the recoding's carries: all ones, runs
  // of ones across limb boundaries, a single top bit, and L - 1.
  using namespace detail;
  util::Rng rng(0xd5ca1a);
  std::vector<std::array<std::uint8_t, 32>> scalars;
  std::array<std::uint8_t, 32> s{};
  scalars.push_back(s);  // 0
  s.fill(0xff);
  s[31] = 0x7f;
  scalars.push_back(s);  // 2^255 - 1
  s.fill(0);
  s[31] = 0x40;
  scalars.push_back(s);  // 2^254
  s.fill(0);
  for (int i = 6; i < 10; ++i) s[static_cast<std::size_t>(i)] = 0xff;  // ones over bit 63/64
  scalars.push_back(s);
  s.fill(0x55);
  s[31] = 0x35;
  scalars.push_back(s);
  auto l_minus_1 = from_hex_fixed<32>(
      "ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  scalars.push_back(l_minus_1);
  for (int i = 0; i < 40; ++i) {
    for (auto& b : s) b = static_cast<std::uint8_t>(rng.next());
    s[31] &= 0x7f;
    scalars.push_back(s);
  }
  std::array<std::uint8_t, 32> seed;
  for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
  const Ge A = *ge_from_bytes(ed25519_public_key(seed));
  for (std::size_t i = 0; i < scalars.size(); ++i) {
    const auto& a = scalars[i];
    const auto& b = scalars[(i * 7 + 3) % scalars.size()];
    const Ge fast = ge_double_scalarmult_base_vartime(a, A, b);
    const Ge slow = ge_add(ge_scalarmult(A, a), ge_scalarmult_base(b));
    EXPECT_TRUE(ge_eq(fast, slow)) << "case " << i;
  }
}

TEST(Ed25519Internals, ScalarReduceMatchesKnownIdentity) {
  using namespace detail;
  // L reduces to 0.
  const auto l_bytes = util::from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  const Sc zero = sc_reduce(l_bytes);
  EXPECT_EQ(sc_to_bytes(zero), sc_to_bytes(sc_zero()));
}

TEST(Ed25519Internals, ScalarMulAddConsistency) {
  using namespace detail;
  // (3 * 5) + 2 == 17 mod L.
  auto sc_from_u64 = [](std::uint64_t v) {
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return sc_reduce(std::span<const std::uint8_t>(b, 8));
  };
  const Sc lhs = sc_add(sc_mul(sc_from_u64(3), sc_from_u64(5)), sc_from_u64(2));
  EXPECT_EQ(sc_to_bytes(lhs), sc_to_bytes(sc_from_u64(17)));
}

// Little-endian 64-byte encoding of a value given as eight 64-bit limbs.
std::array<std::uint8_t, 64> limbs_to_bytes(const std::uint64_t x[8]) {
  std::array<std::uint8_t, 64> out{};
  for (std::size_t i = 0; i < 64; ++i) {
    out[i] = static_cast<std::uint8_t>(x[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

void expect_reduce_matches_reference(std::span<const std::uint8_t> in) {
  using namespace detail;
  EXPECT_EQ(sc_to_bytes(sc_reduce(in)), sc_to_bytes(sc_reduce_reference(in)))
      << "input " << util::to_hex(in);
}

TEST(Ed25519Internals, BarrettReduceMatchesReferenceOnRandomInputs) {
  // 1,540 random inputs of each length 0..64 (100,100 in all), with every
  // byte value and the all-ones top byte over-represented so the carries
  // and the final subtractions of the Barrett step are exercised.
  util::Rng rng(0xba77e77);
  std::uint8_t buf[64];
  for (std::size_t len = 0; len <= 64; ++len) {
    for (int iter = 0; iter < 1540; ++iter) {
      for (std::size_t i = 0; i < len; ++i) {
        const std::uint64_t r = rng.next();
        buf[i] = (r & 0x300) == 0 ? 0xff : static_cast<std::uint8_t>(r);
      }
      expect_reduce_matches_reference(std::span<const std::uint8_t>(buf, len));
    }
  }
}

TEST(Ed25519Internals, BarrettReduceMatchesReferenceAtEdges) {
  const std::uint64_t l[8] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                              0x1000000000000000ULL, 0, 0, 0, 0};
  // x + d mod 2^512 for a small signed d (d sign-extended to 512 bits).
  auto add_small = [](std::uint64_t x[8], std::int64_t d) {
    const std::uint64_t ext = d < 0 ? ~0ULL : 0ULL;
    unsigned __int128 carry = 0;
    for (int i = 0; i < 8; ++i) {
      const unsigned __int128 cur = static_cast<unsigned __int128>(x[i]) +
                                    (i == 0 ? static_cast<std::uint64_t>(d) : ext) +
                                    carry;
      x[i] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
  };
  std::vector<std::array<std::uint8_t, 64>> cases;
  auto push = [&](const std::uint64_t base[8], std::int64_t d) {
    std::uint64_t x[8];
    std::copy(base, base + 8, x);
    add_small(x, d);
    cases.push_back(limbs_to_bytes(x));
  };
  const std::uint64_t zero[8] = {};
  std::uint64_t two_l[8];
  for (int i = 0; i < 8; ++i) {
    two_l[i] = (l[i] << 1) | (i > 0 ? l[i - 1] >> 63 : 0);
  }
  const std::uint64_t p256[8] = {~0ULL, ~0ULL, ~0ULL, ~0ULL, 0, 0, 0, 0};
  const std::uint64_t p512[8] = {~0ULL, ~0ULL, ~0ULL, ~0ULL,
                                 ~0ULL, ~0ULL, ~0ULL, ~0ULL};
  push(zero, 0);     // 0
  push(l, -1);       // L - 1
  push(l, 0);        // L
  push(l, 1);        // L + 1
  push(two_l, 0);    // 2L
  push(p256, 0);     // 2^256 - 1
  push(p512, 0);     // 2^512 - 1
  // q*L + {-1, 0, 1} for random q < 2^259: the inputs whose Barrett quotient
  // estimate lands closest to a multiple of L.
  util::Rng rng(0x5ca1a7);
  for (int iter = 0; iter < 2000; ++iter) {
    std::uint64_t q[5];
    for (auto& w : q) w = rng.next();
    q[4] &= 0x7;
    std::uint64_t x[8] = {};
    for (int i = 0; i < 5; ++i) {
      unsigned __int128 carry = 0;
      for (int j = 0; j < 4 && i + j < 8; ++j) {
        const unsigned __int128 cur =
            static_cast<unsigned __int128>(q[i]) * l[j] + x[i + j] + carry;
        x[i + j] = static_cast<std::uint64_t>(cur);
        carry = cur >> 64;
      }
      if (i + 4 < 8) x[i + 4] += static_cast<std::uint64_t>(carry);
    }
    for (std::int64_t d : {-1, 0, 1}) push(x, d);
  }
  using namespace detail;
  for (const auto& c : cases) expect_reduce_matches_reference(c);
  // The named edges reduce to the values they should.
  EXPECT_EQ(sc_to_bytes(sc_reduce(cases[2])), sc_to_bytes(sc_zero()));  // L
  EXPECT_EQ(sc_to_bytes(sc_reduce(cases[4])), sc_to_bytes(sc_zero()));  // 2L
  std::array<std::uint8_t, 32> one{};
  one[0] = 1;
  EXPECT_EQ(sc_to_bytes(sc_reduce(cases[3])), one);  // L + 1
}

TEST(Ed25519Internals, ScalarReduceRejectsMoreThan64Bytes) {
  using namespace detail;
  const std::vector<std::uint8_t> ok(64, 0xff);
  EXPECT_NO_THROW((void)sc_reduce(ok));
  for (std::size_t len : {65u, 96u, 128u}) {
    const std::vector<std::uint8_t> too_long(len, 0);
    EXPECT_THROW((void)sc_reduce(too_long), std::length_error) << len;
  }
}

// ----------------------------------------------------------------- keys ----

TEST(Keys, DeriveIsDeterministic) {
  const auto a = derive_keypair(7, SignatureMode::kEd25519);
  const auto b = derive_keypair(7, SignatureMode::kEd25519);
  EXPECT_EQ(a.pub, b.pub);
  EXPECT_EQ(a.seed, b.seed);
  const auto c = derive_keypair(8, SignatureMode::kEd25519);
  EXPECT_NE(a.pub, c.pub);
}

TEST(Keys, SignerRoundTripBothModes) {
  const std::vector<std::uint8_t> msg{1, 2, 3, 4};
  for (auto mode : {SignatureMode::kEd25519, SignatureMode::kSimFast}) {
    Signer s(derive_keypair(99, mode), mode);
    const auto sig = s.sign(msg);
    EXPECT_TRUE(Signer::verify(mode, s.public_key(), msg, sig));
    auto bad = msg;
    bad[0] ^= 1;
    EXPECT_FALSE(Signer::verify(mode, s.public_key(), bad, sig));
  }
}

TEST(Keys, SignerMatchesSeedSigning) {
  // Signing from the expanded secret gives the seed path's exact bytes, for
  // many keys and every message length across the SHA-512 block edges.
  for (std::uint64_t id = 0; id < 8; ++id) {
    const auto kp = derive_keypair(100 + id, SignatureMode::kEd25519);
    ASSERT_TRUE(kp.expanded.has_value());
    EXPECT_EQ(kp.expanded->public_key(), ed25519_public_key(kp.seed));
    Signer s(kp, SignatureMode::kEd25519);
    util::Rng rng(id);
    for (std::size_t len : {0u, 1u, 31u, 32u, 63u, 64u, 111u, 112u, 127u,
                            128u, 129u, 250u, 1000u}) {
      std::vector<std::uint8_t> msg(len);
      for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
      const auto sig = s.sign(msg);
      EXPECT_EQ(sig, ed25519_sign(kp.seed, msg)) << "key " << id << " len " << len;
      EXPECT_EQ(sig, ed25519_sign(*kp.expanded, msg));
      EXPECT_TRUE(ed25519_verify(s.public_key(), msg, sig));
    }
  }
}

TEST(Keys, Ed25519SignerNeedsDerivedKeyPair) {
  // A key pair without its expanded secret (built by hand, or derived for
  // kSimFast) cannot back a real signer: signing would need an A the signer
  // did not derive itself.
  KeyPair by_hand;
  by_hand.seed = from_hex_fixed<32>(kVectors[0].seed);
  by_hand.pub = from_hex_fixed<32>(kVectors[0].pub);
  EXPECT_THROW(Signer(by_hand, SignatureMode::kEd25519), std::invalid_argument);
  EXPECT_THROW(Signer(derive_keypair(5, SignatureMode::kSimFast),
                      SignatureMode::kEd25519),
               std::invalid_argument);
  EXPECT_NO_THROW(Signer(by_hand, SignatureMode::kSimFast));
}

TEST(Keys, SimFastRejectsWrongKey) {
  const std::vector<std::uint8_t> msg{9, 9, 9};
  Signer a(derive_keypair(1, SignatureMode::kSimFast), SignatureMode::kSimFast);
  Signer b(derive_keypair(2, SignatureMode::kSimFast), SignatureMode::kSimFast);
  const auto sig = a.sign(msg);
  EXPECT_FALSE(Signer::verify(SignatureMode::kSimFast, b.public_key(), msg, sig));
}

// ------------------------------------------------- negative vectors ---------
// Every rejection below is asserted three ways: the fast verify, the
// pre-optimization reference verify (differential oracle), and twice through
// a VerifyCache (cold, then memoized) — a cache must never turn a reject
// into an accept.

void expect_rejected_everywhere(const PublicKey& pub,
                                std::span<const std::uint8_t> msg,
                                const Signature& sig, const char* what) {
  EXPECT_FALSE(ed25519_verify(pub, msg, sig)) << what << " (fast)";
  EXPECT_FALSE(ed25519_verify_reference(pub, msg, sig)) << what << " (ref)";
  VerifyCache cache;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, msg, sig))
      << what << " (cache cold)";
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, msg, sig))
      << what << " (cache memoized)";
  EXPECT_EQ(cache.stats().memo_hits, 1u) << what;
}

// y = p + 2 little-endian: reduces to 2 but is a non-canonical encoding.
std::array<std::uint8_t, 32> non_canonical_encoding(bool sign_bit) {
  std::array<std::uint8_t, 32> enc;
  enc.fill(0xff);
  enc[0] = 0xef;  // (2^255 - 19) + 2
  enc[31] = sign_bit ? 0xff : 0x7f;
  return enc;
}

TEST(Ed25519Negative, NonCanonicalPointEncodingRejected) {
  using namespace detail;
  EXPECT_FALSE(ge_from_bytes(non_canonical_encoding(false)).has_value());
  EXPECT_FALSE(ge_from_bytes(non_canonical_encoding(true)).has_value());
}

TEST(Ed25519Negative, NonCanonicalPublicKeyRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto sig = ed25519_sign(seed, {});
  for (bool sign_bit : {false, true}) {
    const PublicKey bad_pub = non_canonical_encoding(sign_bit);
    expect_rejected_everywhere(bad_pub, {}, sig, "non-canonical pub");
    EXPECT_FALSE(ed25519_prepare(bad_pub).has_value());
  }
}

TEST(Ed25519Negative, NonCanonicalRRejected) {
  const auto seed = from_hex_fixed<32>(kVectors[1].seed);
  const auto pub = ed25519_public_key(seed);
  const auto msg = util::from_hex(kVectors[1].msg_hex);
  auto sig = ed25519_sign(seed, msg);
  const auto bad_r = non_canonical_encoding(false);
  std::copy(bad_r.begin(), bad_r.end(), sig.begin());
  expect_rejected_everywhere(pub, msg, sig, "non-canonical R");
}

TEST(Ed25519Negative, NonCanonicalScalarThroughCache) {
  // Same S >= L construction as NonCanonicalScalarRejected, plus the cache
  // and reference paths.
  const auto seed = from_hex_fixed<32>(kVectors[0].seed);
  const auto pub = ed25519_public_key(seed);
  auto sig = ed25519_sign(seed, {});
  const auto l_bytes = util::from_hex(
      "edd3f55c1a631258d69cf7a2def9de14000000000000000000000000000000"
      "10");
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned sum =
        sig[32 + static_cast<std::size_t>(i)] + l_bytes[static_cast<std::size_t>(i)] + carry;
    sig[32 + static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(sum);
    carry = sum >> 8;
  }
  expect_rejected_everywhere(pub, {}, sig, "S >= L");
}

TEST(Ed25519Negative, BitFlippedRfcVectorsRejected) {
  // Flip one bit in every byte of signature, message and public key of each
  // RFC 8032 vector; all must fail cold and through the caches.
  for (const auto& v : kVectors) {
    const auto pub = from_hex_fixed<32>(v.pub);
    const auto msg = util::from_hex(v.msg_hex);
    const auto sig = from_hex_fixed<64>(v.sig);
    ASSERT_TRUE(ed25519_verify(pub, msg, sig));

    VerifyCache cache;
    for (std::size_t i = 0; i < 64; ++i) {
      auto bad = sig;
      bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_FALSE(ed25519_verify(pub, msg, bad)) << "sig flip " << i;
      EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, msg, bad))
          << "sig flip " << i << " via cache";
    }
    for (std::size_t i = 0; i < msg.size(); ++i) {
      auto bad = msg;
      bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_FALSE(ed25519_verify(pub, bad, sig)) << "msg flip " << i;
      EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub, bad, sig))
          << "msg flip " << i << " via cache";
    }
    for (std::size_t i = 0; i < 32; ++i) {
      auto bad = pub;
      bad[i] ^= static_cast<std::uint8_t>(1u << (i % 8));
      EXPECT_FALSE(ed25519_verify(bad, msg, sig)) << "pub flip " << i;
      EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, bad, msg, sig))
          << "pub flip " << i << " via cache";
    }
    // The genuine vector still verifies through the same, now well-used,
    // cache — the negative entries did not poison it.
    EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, pub, msg, sig));
  }
}

TEST(Ed25519Negative, ReferenceAndFastVerifyAgree) {
  // Differential check across a batch of valid and corrupted inputs.
  util::Rng rng(515151);
  for (int iter = 0; iter < 20; ++iter) {
    std::array<std::uint8_t, 32> seed;
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
    const auto pub = ed25519_public_key(seed);
    std::vector<std::uint8_t> msg(1 + iter * 3);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    auto sig = ed25519_sign(seed, msg);
    EXPECT_EQ(ed25519_verify(pub, msg, sig),
              ed25519_verify_reference(pub, msg, sig));
    EXPECT_TRUE(ed25519_verify(pub, msg, sig));
    // Corrupt one random byte of the signature.
    sig[rng.next() % 64] ^= static_cast<std::uint8_t>(1 + rng.next() % 255);
    EXPECT_EQ(ed25519_verify(pub, msg, sig),
              ed25519_verify_reference(pub, msg, sig));
  }
}

TEST(Ed25519Negative, ReferenceAndFastVerifyAgreeOnSingleBitFlips) {
  // 3,000 signatures over random keys and messages, each with one bit
  // flipped in R, S, A or the message (750 of each). The fast verifier must
  // give the reference's answer on every one: the completed-point chain and
  // the Barrett reduction may not move a single accept/reject decision.
  util::Rng rng(0xf1195);
  int rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SecretSeed seed;
    for (auto& b : seed) b = static_cast<std::uint8_t>(rng.next());
    PublicKey pub = ed25519_public_key(seed);
    std::vector<std::uint8_t> msg(1 + rng.next_below(80));
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
    Signature sig = ed25519_sign(seed, msg);
    const auto bit = static_cast<std::uint8_t>(1u << rng.next_below(8));
    switch (iter % 4) {
      case 0: sig[rng.next_below(32)] ^= bit; break;        // R
      case 1: sig[32 + rng.next_below(32)] ^= bit; break;   // S
      case 2: pub[rng.next_below(32)] ^= bit; break;        // A
      default: msg[rng.next_below(msg.size())] ^= bit; break;
    }
    const bool fast = ed25519_verify(pub, msg, sig);
    ASSERT_EQ(fast, ed25519_verify_reference(pub, msg, sig))
        << "iteration " << iter << " field " << iter % 4;
    rejected += fast ? 0 : 1;
  }
  EXPECT_EQ(rejected, 3000);
}

// ----------------------------------------------------- verify cache ---------

TEST(VerifyCacheTest, MemoizesAcceptsAndRejects) {
  const auto kp = derive_keypair(3, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg{1, 2, 3};
  const auto sig = s.sign(msg);

  VerifyCache cache;
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_EQ(cache.stats().memo_misses, 1u);
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_EQ(cache.stats().memo_hits, 1u);

  auto bad = sig;
  bad[5] ^= 0x10;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, bad));
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, bad));
  EXPECT_EQ(cache.stats().memo_hits, 2u);
  EXPECT_EQ(cache.memo_size(), 2u);
  // One key decompression served all four calls.
  EXPECT_EQ(cache.stats().key_misses, 1u);
  EXPECT_EQ(cache.key_cache_size(), 1u);
}

TEST(VerifyCacheTest, MutatedDuplicateTakesColdPathAndRejects) {
  const auto kp = derive_keypair(4, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg{7, 7, 7, 7};
  const auto sig = s.sign(msg);

  VerifyCache cache;
  // Warm the memo with the genuine accept.
  ASSERT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  const auto warm = cache.stats();

  // A mutated duplicate must not ride the cached accept: every single-bit
  // mutation of msg/sig/pub hashes to a fresh memo key (memo_misses grows)
  // and is rejected.
  auto msg2 = msg;
  msg2[0] ^= 0x01;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg2, sig));
  auto sig2 = sig;
  sig2[63] ^= 0x80;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig2));
  auto pub2 = kp.pub;
  pub2[31] ^= 0x02;
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, pub2, msg, sig2));
  EXPECT_EQ(cache.stats().memo_misses, warm.memo_misses + 3);
  EXPECT_EQ(cache.stats().memo_hits, warm.memo_hits);

  // And the genuine one still verifies.
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
}

TEST(VerifyCacheTest, KeyCacheEvictsLeastRecentlyUsed) {
  VerifyCache cache(/*key_capacity=*/2, /*memo_capacity=*/4);
  const std::vector<std::uint8_t> msg{5};
  std::array<KeyPair, 3> kps = {derive_keypair(10, SignatureMode::kEd25519),
                                derive_keypair(11, SignatureMode::kEd25519),
                                derive_keypair(12, SignatureMode::kEd25519)};
  for (const auto& kp : kps) {
    Signer s(kp, SignatureMode::kEd25519);
    const auto sig = s.sign(msg);
    EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  }
  EXPECT_EQ(cache.key_cache_size(), 2u);
  EXPECT_EQ(cache.stats().key_misses, 3u);

  // Key 10 was evicted (LRU); re-verifying costs a fresh decompression but
  // still succeeds. 12 is resident and hits.
  Signer s10(kps[0], SignatureMode::kEd25519);
  const std::vector<std::uint8_t> other{6};
  const auto sig10b = s10.sign(other);
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kps[0].pub, other, sig10b));
  EXPECT_EQ(cache.stats().key_misses, 4u);
}

TEST(VerifyCacheTest, MemoEvictionForcesReverify) {
  VerifyCache cache(/*key_capacity=*/4, /*memo_capacity=*/2);
  const auto kp = derive_keypair(20, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  for (std::uint8_t i = 0; i < 3; ++i) {
    const std::vector<std::uint8_t> msg{i};
    EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, s.sign(msg)));
  }
  EXPECT_EQ(cache.memo_size(), 2u);
  // msg{0} was evicted; verifying again is a miss but still correct.
  const std::vector<std::uint8_t> msg0{0};
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg0, s.sign(msg0)));
  EXPECT_EQ(cache.stats().memo_hits, 0u);
}

TEST(VerifyCacheTest, MalformedKeyNeverCached) {
  VerifyCache cache;
  const auto bad_pub = non_canonical_encoding(false);
  const Signature sig{};
  const std::vector<std::uint8_t> msg{1};
  EXPECT_FALSE(cache.verify(SignatureMode::kEd25519, bad_pub, msg, sig));
  EXPECT_EQ(cache.key_cache_size(), 0u);
  EXPECT_EQ(cache.stats().key_misses, 1u);
}

TEST(VerifyCacheTest, SimFastBypassesCache) {
  VerifyCache cache;
  const auto kp = derive_keypair(30, SignatureMode::kSimFast);
  Signer s(kp, SignatureMode::kSimFast);
  const std::vector<std::uint8_t> msg{1, 2};
  const auto sig = s.sign(msg);
  EXPECT_TRUE(cache.verify(SignatureMode::kSimFast, kp.pub, msg, sig));
  EXPECT_TRUE(cache.verify(SignatureMode::kSimFast, kp.pub, msg, sig));
  EXPECT_EQ(cache.memo_size(), 0u);
  EXPECT_EQ(cache.key_cache_size(), 0u);
  EXPECT_EQ(cache.stats().memo_misses, 0u);
}

TEST(VerifyCacheTest, ClearKeepsCountersDropsEntries) {
  VerifyCache cache;
  const auto kp = derive_keypair(40, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg{9};
  const auto sig = s.sign(msg);
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  cache.clear();
  EXPECT_EQ(cache.memo_size(), 0u);
  EXPECT_EQ(cache.key_cache_size(), 0u);
  EXPECT_EQ(cache.stats().memo_misses, 1u);
  // Still correct after clear.
  EXPECT_TRUE(cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_EQ(cache.stats().memo_misses, 2u);
}

}  // namespace
}  // namespace lo::crypto

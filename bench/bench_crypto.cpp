// Crypto micro-benchmarks: SHA-256/512 throughput and Ed25519 operations.
// Supporting measurements — the paper's protocol signs every commitment and
// block, so these bound the non-simulated CPU cost per protocol message.
//
// SHA-256 runs on the body Sha256 picks for this CPU (BM_Sha256; the JSON's
// sha256_kernel context says "sha-ni" or "portable") and on the portable
// body (BM_Sha256Portable), so a speedup names its denominator.
//
// Signing is benchmarked from the seed (BM_Ed25519Sign) and from the
// expanded secret a node's Signer holds (BM_SignerSign); scalar reduction as
// Barrett (BM_ScReduce) against the bit-serial reference
// (BM_ScReduceReference). The Ed25519 verify path is benchmarked in four
// tiers (see DESIGN.md "verify fast path"):
//   BM_Ed25519VerifyReference — the pre-optimization generic double-and-add
//     verifier, kept in the tree as a differential oracle ("before");
//   BM_Ed25519Verify          — window-table + Straus verify ("after");
//   BM_Ed25519VerifyPrepared  — same, with the public key decompressed once;
//   BM_VerifyCache*           — the node-level LRU/memo layers on top;
//   BM_VerifyTierHit          — a node's memo miss served by the verdict
//     tier that every node of a simulation shares.
//
// Besides the console table, this binary always writes machine-readable
// results to BENCH_crypto.json in the working directory (google-benchmark
// JSON schema; items_per_second is the ops/s figure). CI uploads the file as
// an artifact so verify-throughput regressions show up in the history.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/ed25519.hpp"
#include "crypto/keys.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"
#include "crypto/verify_cache.hpp"
#include "util/rng.hpp"

namespace {

using namespace lo::crypto;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  lo::util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto d = sha256(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(250)->Arg(4096)->Arg(65536);

// BM_Sha256's denominator: the same hashes on the portable body.
void BM_Sha256Portable(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    auto d = detail::sha256_with(&detail::sha256_compress_portable, data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(250)->Arg(4096)->Arg(65536);

void BM_Sha512(benchmark::State& state) {
  const auto data = random_bytes(static_cast<std::size_t>(state.range(0)), 2);
  for (auto _ : state) {
    auto d = sha512(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha512)->Arg(64)->Arg(250)->Arg(4096)->Arg(65536);

void BM_Ed25519KeyGen(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    auto kp = derive_keypair(++i, SignatureMode::kEd25519);
    benchmark::DoNotOptimize(kp);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519KeyGen)->Unit(benchmark::kMicrosecond);

void BM_Ed25519Sign(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);  // one paper-sized transaction
  for (auto _ : state) {
    auto sig = ed25519_sign(kp.seed, msg);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519Sign)->Unit(benchmark::kMicrosecond);

// The node signing path: Signer::sign from the key pair's expanded secret,
// so A = a*B is not re-derived per signature (BM_Ed25519Sign re-derives it
// from the seed on every call).
void BM_SignerSign(benchmark::State& state) {
  const Signer s(derive_keypair(7, SignatureMode::kEd25519),
                 SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);
  for (auto _ : state) {
    auto sig = s.sign(msg);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SignerSign)->Unit(benchmark::kMicrosecond);

// Scalar reduction of one 64-byte SHA-512 digest mod L: Barrett reduction
// (sc_reduce) against the bit-serial oracle it replaced
// (sc_reduce_reference). Every verify reduces one digest, every sign two.
void BM_ScReduce(benchmark::State& state) {
  const auto digest = random_bytes(64, 6);
  for (auto _ : state) {
    auto r = detail::sc_reduce(digest);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScReduce);

void BM_ScReduceReference(benchmark::State& state) {
  const auto digest = random_bytes(64, 6);
  for (auto _ : state) {
    auto r = detail::sc_reduce_reference(digest);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScReduceReference);

// "Before": generic double-and-add for both scalar multiplications, no
// precomputed tables. This is the seed repo's verifier, preserved as
// ed25519_verify_reference for differential testing and this baseline.
void BM_Ed25519VerifyReference(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);
  const auto sig = ed25519_sign(kp.seed, msg);
  for (auto _ : state) {
    bool ok = ed25519_verify_reference(kp.pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519VerifyReference)->Unit(benchmark::kMicrosecond);

// "After": fixed-base window table + Straus interleaving, including the
// per-call public key decompression.
void BM_Ed25519Verify(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);
  const auto sig = ed25519_sign(kp.seed, msg);
  for (auto _ : state) {
    bool ok = ed25519_verify(kp.pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519Verify)->Unit(benchmark::kMicrosecond);

// Key decompressed once up front — the steady state for a peer whose key sits
// in the node's key cache.
void BM_Ed25519VerifyPrepared(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 3);
  const auto sig = ed25519_sign(kp.seed, msg);
  const auto prepared = ed25519_prepare(kp.pub);
  for (auto _ : state) {
    bool ok = ed25519_verify_prepared(*prepared, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Ed25519VerifyPrepared)->Unit(benchmark::kMicrosecond);

// Full VerifyCache path on fresh messages from one key: every call is a memo
// miss (capacity 1) but a key-cache hit — curve math plus cache overhead.
// The cache's verdict tier holds one verdict too, so it misses as well.
void BM_VerifyCacheKeyHitFreshMessage(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  constexpr std::size_t kBatch = 64;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<Signature> sigs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    msgs.push_back(random_bytes(250, 100 + i));
    sigs.push_back(s.sign(msgs.back()));
  }
  VerifyCache cache(/*key_capacity=*/8, /*memo_capacity=*/1);
  cache.set_tier(std::make_shared<VerifyTier>(/*key_capacity=*/8,
                                              /*verdict_capacity=*/1));
  std::size_t i = 0;
  for (auto _ : state) {
    bool ok = cache.verify(SignatureMode::kEd25519, kp.pub, msgs[i % kBatch],
                           sigs[i % kBatch]);
    benchmark::DoNotOptimize(ok);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VerifyCacheKeyHitFreshMessage)->Unit(benchmark::kMicrosecond);

// Duplicate delivery of one already-verified message: pure memo hit, the
// cost a node pays when the same signed commitment arrives via two peers.
void BM_VerifyCacheMemoHit(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  const auto msg = random_bytes(250, 5);
  const auto sig = s.sign(msg);
  VerifyCache cache;
  bool warm = cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig);
  benchmark::DoNotOptimize(warm);
  for (auto _ : state) {
    bool ok = cache.verify(SignatureMode::kEd25519, kp.pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VerifyCacheMemoHit);

// A node's memo miss on a verdict another node already paid for: the
// node's memo (capacity 1) misses on every call and the key hits, as in
// BM_VerifyCacheKeyHitFreshMessage, but the shared VerifyTier holds every
// verdict, so no call runs the curve check. Most fresh verifies of a
// 100-node run take this path (DESIGN.md "verify fast path").
void BM_VerifyTierHit(benchmark::State& state) {
  const auto kp = derive_keypair(7, SignatureMode::kEd25519);
  Signer s(kp, SignatureMode::kEd25519);
  constexpr std::size_t kBatch = 64;
  std::vector<std::vector<std::uint8_t>> msgs;
  std::vector<Signature> sigs;
  for (std::size_t i = 0; i < kBatch; ++i) {
    msgs.push_back(random_bytes(250, 100 + i));
    sigs.push_back(s.sign(msgs.back()));
  }
  const auto tier = std::make_shared<VerifyTier>();
  VerifyCache first;
  first.set_tier(tier);
  for (std::size_t i = 0; i < kBatch; ++i) {
    bool ok = first.verify(SignatureMode::kEd25519, kp.pub, msgs[i], sigs[i]);
    benchmark::DoNotOptimize(ok);
  }
  VerifyCache cache(/*key_capacity=*/8, /*memo_capacity=*/1);
  cache.set_tier(tier);
  std::size_t i = 0;
  for (auto _ : state) {
    bool ok = cache.verify(SignatureMode::kEd25519, kp.pub, msgs[i % kBatch],
                           sigs[i % kBatch]);
    benchmark::DoNotOptimize(ok);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_VerifyTierHit);

void BM_SimFastSign(benchmark::State& state) {
  const Signer s(derive_keypair(9, SignatureMode::kSimFast),
                 SignatureMode::kSimFast);
  const auto msg = random_bytes(250, 4);
  for (auto _ : state) {
    auto sig = s.sign(msg);
    benchmark::DoNotOptimize(sig);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SimFastSign);

}  // namespace

// Custom main: default --benchmark_out to BENCH_crypto.json (working
// directory) so CI and scripts get machine-readable numbers without having
// to remember the flag; an explicit --benchmark_out still wins. Console
// output is unchanged.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_crypto.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::AddCustomContext("bench_suite", "lo-crypto");
  benchmark::AddCustomContext("verify_before", "BM_Ed25519VerifyReference");
  benchmark::AddCustomContext("verify_after", "BM_Ed25519Verify");
  benchmark::AddCustomContext(
      "sha256_kernel",
      detail::sha256_compress_picked() == &detail::sha256_compress_portable
          ? "portable"
          : "sha-ni");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

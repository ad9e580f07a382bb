// Sec. 6.5 — Minisketch encode/decode CPU cost and the hash-partitioned
// optimization.
//
// Paper claim: decoding a 1,000-element set difference with one big sketch
// takes ~10 s; partitioning the space and decoding many small sketches takes
// <100 ms. This bench reproduces the *ratio* (two to three orders of
// magnitude) with google-benchmark timings of both strategies.
//
// The codec fast path (DESIGN.md §3d) is benchmarked before/after style
// against the retained seed kernels, in the same run:
//   BM_FieldMul32Reference / BM_FieldSqr32Reference / BM_FieldInv32Reference
//     — the seed portable kernels, kept as the differential oracle;
//   BM_FieldMul32 / BM_FieldSqr32 / BM_FieldInv32
//     — clmul+Barrett multiply, byte-sliced squaring, Itoh–Tsujii inverse;
//   BM_SingleSketchDecodeReference — full decode over the reference-kernel
//     field, versus BM_SingleSketchDecode on the fast field;
//   BM_SketchDecodeOverflow — the rejection of an overflowed sketch.
//
// Besides the console table, this binary always writes machine-readable
// results to BENCH_minisketch.json in the working directory (google-benchmark
// JSON schema; items_per_second is the ops/s figure). CI uploads the file as
// an artifact so codec-throughput regressions show up in the history.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "minisketch/partitioned.hpp"
#include "minisketch/sketch.hpp"
#include "util/rng.hpp"

namespace {

using lo::gf::Field;
using lo::sketch::PartitionedReconciler;
using lo::sketch::Sketch;

std::vector<std::uint64_t> random_items(std::size_t n, std::uint64_t seed) {
  lo::util::Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.next();
  return out;
}

// Nonzero elements of GF(2^32) for the kernel micro-benches.
std::vector<std::uint64_t> random_elements(std::size_t n, std::uint64_t seed) {
  const Field& f = Field::get(32);
  lo::util::Rng rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = f.map_nonzero(rng.next());
  return out;
}

constexpr std::size_t kKernelBatch = 1024;

void BM_FieldMul32(benchmark::State& state) {
  const Field& f = Field::get(32);
  const auto a = random_elements(kKernelBatch, 21);
  const auto b = random_elements(kKernelBatch, 22);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKernelBatch; ++i) acc ^= f.mul(a[i], b[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBatch));
}
BENCHMARK(BM_FieldMul32);

void BM_FieldMul32Reference(benchmark::State& state) {
  const Field& f = Field::get(32);
  const auto a = random_elements(kKernelBatch, 21);
  const auto b = random_elements(kKernelBatch, 22);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKernelBatch; ++i) {
      acc ^= f.mul_reference(a[i], b[i]);
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBatch));
}
BENCHMARK(BM_FieldMul32Reference);

void BM_FieldSqr32(benchmark::State& state) {
  const Field& f = Field::get(32);
  const auto a = random_elements(kKernelBatch, 23);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKernelBatch; ++i) acc ^= f.sqr(a[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBatch));
}
BENCHMARK(BM_FieldSqr32);

void BM_FieldSqr32Reference(benchmark::State& state) {
  const Field& f = Field::get(32);
  const auto a = random_elements(kKernelBatch, 23);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKernelBatch; ++i) acc ^= f.sqr_reference(a[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBatch));
}
BENCHMARK(BM_FieldSqr32Reference);

void BM_FieldInv32(benchmark::State& state) {
  const Field& f = Field::get(32);
  const auto a = random_elements(kKernelBatch, 24);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKernelBatch; ++i) acc ^= f.inv(a[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBatch));
}
BENCHMARK(BM_FieldInv32);

void BM_FieldInv32Reference(benchmark::State& state) {
  const Field& f = Field::get(32);
  const auto a = random_elements(kKernelBatch, 24);
  for (auto _ : state) {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kKernelBatch; ++i) acc ^= f.inv_reference(a[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kKernelBatch));
}
BENCHMARK(BM_FieldInv32Reference);

void BM_SketchAdd(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  Sketch s(32, capacity);
  lo::util::Rng rng(1);
  for (auto _ : state) {
    s.add(rng.next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchAdd)->Arg(16)->Arg(64)->Arg(128)->Arg(1024);

void BM_SketchAddAll(benchmark::State& state) {
  // Batched insertion: same capacities as BM_SketchAdd, 256 items per call.
  const auto capacity = static_cast<std::size_t>(state.range(0));
  Sketch s(32, capacity);
  const auto items = random_items(256, 2);
  for (auto _ : state) {
    s.add_all(items);
    benchmark::DoNotOptimize(s);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(items.size()));
}
BENCHMARK(BM_SketchAddAll)->Arg(16)->Arg(64)->Arg(128)->Arg(1024);

// Single-sketch decode of a difference of `diff` elements using a sketch of
// matching capacity — the "one big sketch" strategy.
void BM_SingleSketchDecode(benchmark::State& state) {
  const auto diff = static_cast<std::size_t>(state.range(0));
  const auto items = random_items(diff, 42);
  Sketch base(32, diff);
  for (auto v : items) base.add(v);
  for (auto _ : state) {
    Sketch copy = base;
    auto out = copy.decode();
    benchmark::DoNotOptimize(out);
    if (!out || out->size() != diff) state.SkipWithError("decode failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleSketchDecode)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Decode of an overflowed sketch: capacity c holding 3c/2 items. The locator
// Berlekamp–Massey emits does not split, and the root finder's first trace
// rejects it (DESIGN.md §3d). A node hits this path whenever a peer's
// difference outgrows the sketch it was sent.
void BM_SketchDecodeOverflow(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const auto items = random_items(3 * capacity / 2, 43);
  Sketch base(32, capacity);
  for (auto v : items) base.add(v);
  for (auto _ : state) {
    auto out = base.decode();
    benchmark::DoNotOptimize(out);
    if (out) state.SkipWithError("overflowed sketch decoded");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SketchDecodeOverflow)->Arg(32)->Arg(77)->Arg(128);

// The same decode over the reference-kernel field: seed loop multiply,
// sqr = mul, pow-ladder inverse. Kept to smaller sizes — the point is the
// per-size throughput ratio against BM_SingleSketchDecode, not the tail.
void BM_SingleSketchDecodeReference(benchmark::State& state) {
  const auto diff = static_cast<std::size_t>(state.range(0));
  const auto items = random_items(diff, 42);
  Sketch base(Field::get_reference(32), diff);
  for (auto v : items) base.add(v);
  for (auto _ : state) {
    Sketch copy = base;
    auto out = copy.decode();
    benchmark::DoNotOptimize(out);
    if (!out || out->size() != diff) state.SkipWithError("decode failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SingleSketchDecodeReference)
    ->Arg(10)
    ->Arg(50)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

// Partitioned reconciliation of the same difference with capacity-64
// sub-sketches — the paper's Sec. 6.5 optimization.
void BM_PartitionedReconcile(benchmark::State& state) {
  const auto diff = static_cast<std::size_t>(state.range(0));
  const auto shared = random_items(2000, 7);
  const auto extra = random_items(diff, 11);
  std::vector<std::uint64_t> a = shared;
  a.insert(a.end(), extra.begin(), extra.end());
  PartitionedReconciler pr(32, 64);
  for (auto _ : state) {
    auto out = pr.reconcile(a, shared, nullptr);
    benchmark::DoNotOptimize(out);
    if (!out || out->size() != diff) state.SkipWithError("reconcile failed");
  }
}
BENCHMARK(BM_PartitionedReconcile)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_SketchMerge(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  Sketch a(32, capacity), b(32, capacity);
  lo::util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    a.add(rng.next());
    b.add(rng.next());
  }
  for (auto _ : state) {
    Sketch c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c);
  }
}
BENCHMARK(BM_SketchMerge)->Arg(64)->Arg(128)->Arg(1024);

void BM_SketchSerialize(benchmark::State& state) {
  Sketch s(32, 128);
  lo::util::Rng rng(5);
  for (int i = 0; i < 100; ++i) s.add(rng.next());
  for (auto _ : state) {
    auto bytes = s.serialize();
    benchmark::DoNotOptimize(bytes);
  }
}
BENCHMARK(BM_SketchSerialize);

}  // namespace

// Custom main: default --benchmark_out to BENCH_minisketch.json (working
// directory) so CI and scripts get machine-readable numbers without having
// to remember the flag; an explicit --benchmark_out still wins. Console
// output is unchanged.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=BENCH_minisketch.json";
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
  benchmark::AddCustomContext("bench_suite", "lo-minisketch");
  benchmark::AddCustomContext("decode_before", "BM_SingleSketchDecodeReference");
  benchmark::AddCustomContext("decode_after", "BM_SingleSketchDecode");
  benchmark::AddCustomContext(
      "gf32_kernel", lo::gf::Field::get(32).uses_clmul() ? "clmul+barrett"
                                                         : "portable");
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

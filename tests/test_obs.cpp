// Observability layer tests: metrics registry semantics (ids, labels,
// scopes, snapshot/rollup), log-bucketed histograms (including the
// sim::Samples bridge), tracer ring/overflow/intern/binary round-trip, the
// Chrome-JSON golden file, profiling hooks, the verify-cache registry bind,
// and same-seed trace determinism for LØ and one baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "baselines/common.hpp"
#include "baselines/flood.hpp"
#include "crypto/verify_cache.hpp"
#include "harness/lo_network.hpp"
#include "obs/hub.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "sim/metrics.hpp"
#include "test_net_util.hpp"
#include "util/serde.hpp"

namespace lo {
namespace {

// ---------------------------------------------------------------- metric id ----

TEST(MetricId, CanonicalFormSortsLabels) {
  EXPECT_EQ(obs::metric_id("lo.retries", {}), "lo.retries");
  EXPECT_EQ(obs::metric_id("lo.retries", {{"node", "3"}}),
            "lo.retries{node=3}");
  // Label keys sort, so insertion order never leaks into the id.
  EXPECT_EQ(obs::metric_id("m", {{"b", "2"}, {"a", "1"}}), "m{a=1,b=2}");
  EXPECT_EQ(obs::metric_id("m", {{"a", "1"}, {"b", "2"}}), "m{a=1,b=2}");
}

TEST(MetricId, RejectsAmbiguousInput) {
  EXPECT_THROW(obs::metric_id("", {}), std::invalid_argument);
  EXPECT_THROW(obs::metric_id("m", {{"a", "1"}, {"a", "2"}}),
               std::invalid_argument);
  EXPECT_THROW(obs::metric_id("m{", {}), std::invalid_argument);
  EXPECT_THROW(obs::metric_id("m", {{"a", "x,y"}}), std::invalid_argument);
  EXPECT_THROW(obs::metric_id("m", {{"a=b", "1"}}), std::invalid_argument);
}

// ----------------------------------------------------------------- registry ----

TEST(Registry, CellsAreStableAndTyped) {
  obs::Registry reg;
  auto& c = reg.counter("a.count");
  c += 3;
  EXPECT_EQ(reg.counter("a.count"), 3u);  // get-or-create returns same cell
  reg.gauge("a.gauge") = 1.5;
  reg.histogram("a.hist").observe(2.0);
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_TRUE(reg.contains("a.count"));
  EXPECT_FALSE(reg.contains("a.count", {{"node", "1"}}));
  // Same id, different kind: programming error, loudly rejected.
  EXPECT_THROW(reg.gauge("a.count"), std::invalid_argument);
  EXPECT_THROW(reg.counter("a.hist"), std::invalid_argument);
}

TEST(Registry, SnapshotAndMergeAggregate) {
  // A snapshot is a value copy, and rollup() merges same-named cells:
  // counters and gauges add, histograms merge their buckets.
  obs::Registry reg;
  reg.counter("c", {{"node", "0"}}) = 2;
  reg.counter("c", {{"node", "1"}}) = 5;
  reg.gauge("g", {{"node", "0"}}) = 1.0;
  reg.gauge("g", {{"node", "1"}}) = 2.5;
  reg.histogram("h", {{"node", "0"}}).observe(1.0);
  reg.histogram("h", {{"node", "1"}}).observe(4.0);

  const auto snap = reg.snapshot();
  reg.counter("c", {{"node", "0"}}) = 100;  // stays out of the copy
  const auto global = obs::rollup(snap);
  EXPECT_EQ(global.at("c").counter, 7u);
  EXPECT_DOUBLE_EQ(global.at("g").gauge, 3.5);
  EXPECT_EQ(global.at("h").hist.count(), 2u);
  EXPECT_DOUBLE_EQ(global.at("h").hist.sum(), 5.0);
}

TEST(Registry, RollupStripsLabels) {
  obs::Registry reg;
  reg.counter("lo.retries", {{"node", "0"}}) = 2;
  reg.counter("lo.retries", {{"node", "1"}}) = 3;
  reg.counter("lo.timeouts") = 1;
  const auto global = obs::rollup(reg.snapshot());
  ASSERT_EQ(global.count("lo.retries"), 1u);
  EXPECT_EQ(global.at("lo.retries").counter, 5u);
  EXPECT_EQ(global.at("lo.timeouts").counter, 1u);
}

TEST(Registry, JsonAndCsvAreDeterministicallyOrdered) {
  obs::Registry reg;
  reg.counter("z.last") = 1;
  reg.counter("a.first") = 2;
  const std::string json = reg.to_json("suite");
  const std::string csv = reg.to_csv();
  EXPECT_LT(json.find("a.first"), json.find("z.last"));
  EXPECT_LT(csv.find("a.first"), csv.find("z.last"));
  EXPECT_NE(json.find("\"bench_suite\": \"suite\""), std::string::npos);
}

TEST(Registry, ExportCarriesHistogramPercentiles) {
  obs::Registry reg;
  auto& h = reg.histogram("lat");
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  reg.counter("c") = 7;

  // JSON: p50/p95/p99 fields present, bit-identical to the histogram's own
  // quantile estimator (the export must not re-derive them differently).
  const std::string json = reg.to_json("q");
  for (const auto& [key, q] : std::vector<std::pair<std::string, double>>{
           {"\"p50\": ", 0.5}, {"\"p95\": ", 0.95}, {"\"p99\": ", 0.99}}) {
    const auto pos = json.find(key);
    ASSERT_NE(pos, std::string::npos) << key << "missing from JSON export";
    EXPECT_DOUBLE_EQ(std::strtod(json.c_str() + pos + key.size(), nullptr),
                     h.quantile(q));
  }

  // CSV: widened header, percentile columns on histogram rows, and padded
  // scalar rows so every line keeps the same arity.
  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv.rfind("id,kind,value,count,sum,min,max,p50,p95,p99\n", 0), 0u);
  EXPECT_NE(csv.find("c,counter,7,,,,,,,\n"), std::string::npos);
  const auto header_cols =
      std::count(csv.begin(), csv.begin() + csv.find('\n'), ',');
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), header_cols)
        << "ragged CSV row: " << line;
  }
}

// -------------------------------------------------------------------- scope ----

TEST(Scope, AttachedScopePrefixesLabels) {
  obs::Registry reg;
  obs::Scope scope(&reg, {{"node", "3"}});
  scope.counter("lo.retries") += 4;
  scope.counter("lo.retries", {{"peer", "9"}}) += 1;
  EXPECT_EQ(reg.counter("lo.retries", {{"node", "3"}}), 4u);
  EXPECT_EQ(reg.counter("lo.retries", {{"node", "3"}, {"peer", "9"}}), 1u);
}

TEST(Scope, DetachedScopeKeepsPrivateStorageAcrossCopies) {
  obs::Scope scope;  // not attached to any registry
  EXPECT_FALSE(scope.attached());
  auto& c = scope.counter("x");
  c = 11;
  obs::Scope copy = scope;  // copies alias the same fallback registry
  EXPECT_EQ(copy.counter("x"), 11u);
}

// ------------------------------------------------------------ log histogram ----

TEST(LogHistogram, BucketBoundariesArePowersOfTwo) {
  obs::LogHistogram h;
  h.observe(1.0);   // [1, 2)  -> exp 0
  h.observe(1.99);  // [1, 2)  -> exp 0
  h.observe(2.0);   // [2, 4)  -> exp 1 (closed lower bound)
  h.observe(0.5);   // [0.5,1) -> exp -1
  h.observe(0.0);   // zero bucket
  h.observe(-3.0);  // zero bucket
  ASSERT_EQ(h.count(), 6u);
  EXPECT_EQ(h.buckets().at(0), 2u);
  EXPECT_EQ(h.buckets().at(1), 1u);
  EXPECT_EQ(h.buckets().at(-1), 1u);
  EXPECT_EQ(h.buckets().at(obs::LogHistogram::kZeroBucket), 2u);
  EXPECT_DOUBLE_EQ(h.min(), -3.0);
  EXPECT_DOUBLE_EQ(h.max(), 2.0);
}

TEST(LogHistogram, QuantileIsWithinOneOctaveAndClamped) {
  obs::LogHistogram h;
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  // Every sample sits in [1, 2): the geometric midpoint is sqrt(2), and the
  // estimate must clamp into the observed range.
  const double q = h.quantile(0.5);
  EXPECT_GE(q, 1.5);  // clamped to min
  EXPECT_LE(q, 1.5);  // clamped to max
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 1.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1.5);
}

TEST(LogHistogram, MergeAddsBuckets) {
  obs::LogHistogram a, b;
  a.observe(1.0);
  b.observe(1.5);
  b.observe(8.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_EQ(a.buckets().at(0), 2u);
  EXPECT_EQ(a.buckets().at(3), 1u);
  EXPECT_DOUBLE_EQ(a.max(), 8.0);
}

// ------------------------------------------------------------- sim::Samples ----

TEST(Samples, MergeAppendsInOrder) {
  sim::Samples a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  a.merge(b);
  ASSERT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.values()[2], 3.0);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
}

TEST(Samples, FixedBinBoundarySemanticsUnchanged) {
  // v == hi clamps into the last bin (documented Samples behavior; the log
  // histogram must not have disturbed it).
  sim::Samples s;
  s.add(0.0);
  s.add(1.0);
  const auto bins = s.histogram(4, 0.0, 1.0);
  ASSERT_EQ(bins.size(), 4u);
  EXPECT_EQ(bins.front().count, 1u);
  EXPECT_EQ(bins.back().count, 1u);
}

TEST(Samples, LogHistogramBridgeMatchesValues) {
  sim::Samples s;
  s.add(0.25);
  s.add(3.0);
  s.add(100.0);
  const obs::LogHistogram h = s.histogram_log();
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 103.25);
  EXPECT_EQ(h.buckets().at(-2), 1u);  // 0.25 in [0.25, 0.5)
  EXPECT_EQ(h.buckets().at(1), 1u);   // 3.0  in [2, 4)
  EXPECT_EQ(h.buckets().at(6), 1u);   // 100  in [64, 128)
}

// ------------------------------------------------------------------- tracer ----

TEST(Tracer, DisabledEmitRecordsNothing) {
  obs::Tracer t;
  t.emit(obs::EventKind::kTxSubmit, 1);
  EXPECT_EQ(t.size(), 0u);
  EXPECT_FALSE(t.enabled());
}

TEST(Tracer, StampsFromTheInjectedClock) {
  std::int64_t now = 0;
  obs::Tracer t;
  t.set_clock(&now);
  t.enable(true);
  t.emit(obs::EventKind::kTxSubmit, 1);
  now = 250;
  t.emit(obs::EventKind::kTxAdmit, 2, 1);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].at, 0);
  EXPECT_EQ(evs[1].at, 250);
  EXPECT_EQ(evs[1].peer, 1u);
}

TEST(Tracer, OverflowDropsOldestAndCounts) {
  obs::Tracer t(/*capacity=*/4);
  t.enable(true);
  for (std::uint64_t i = 0; i < 7; ++i) {
    t.emit(obs::EventKind::kTxSubmit, 0, 0, /*a=*/i);
  }
  EXPECT_EQ(t.size(), 4u);
  EXPECT_EQ(t.dropped(), 3u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Drop-oldest: the survivors are the most recent four, in order.
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(evs[i].a, i + 3);
  // clear() after a wrap restarts the ring at its first slot.
  t.clear();
  for (std::uint64_t i = 0; i < 3; ++i) {
    t.emit(obs::EventKind::kTxSubmit, 0, 0, /*a=*/10 + i);
  }
  const auto refill = t.events();
  ASSERT_EQ(refill.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) EXPECT_EQ(refill[i].a, 10 + i);

  // A partial fill, clear(), then an overfill: the ring restarts empty and
  // wraps exactly as it did from a fresh tracer.
  obs::Tracer u(/*capacity=*/4);
  u.enable(true);
  for (std::uint64_t i = 0; i < 2; ++i) {
    u.emit(obs::EventKind::kTxSubmit, 0, 0, /*a=*/100 + i);
  }
  EXPECT_EQ(u.size(), 2u);
  u.clear();
  EXPECT_EQ(u.size(), 0u);
  EXPECT_EQ(u.dropped(), 0u);
  EXPECT_TRUE(u.events().empty());
  for (std::uint64_t i = 0; i < 6; ++i) {
    u.emit(obs::EventKind::kTxSubmit, 0, 0, /*a=*/i);
  }
  EXPECT_EQ(u.size(), 4u);
  EXPECT_EQ(u.dropped(), 2u);
  const auto after = u.events();
  ASSERT_EQ(after.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(after[i].a, i + 2);
  EXPECT_EQ(obs::Tracer::from_bytes(u.bytes()).events.size(), 4u);
}

TEST(Tracer, InternIsStableAndClearKeepsNames) {
  obs::Tracer t;
  EXPECT_EQ(t.intern(""), 0u);
  const auto a = t.intern("lo.inv");
  const auto b = t.intern("lo.block");
  EXPECT_EQ(t.intern("lo.inv"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(t.name(a), "lo.inv");
  t.enable(true);
  t.emit(obs::EventKind::kMsgSend, 0, 1, 10, 20, a);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
  EXPECT_EQ(t.intern("lo.inv"), a);  // string table survives clear()
}

TEST(Tracer, BinaryRoundTrip) {
  std::int64_t now = 42;
  obs::Tracer t;
  t.set_clock(&now);
  t.enable(true);
  const auto inv = t.intern("lo.inv");
  t.emit(obs::EventKind::kMsgSend, 3, 4, 128, 55000, inv);
  now = 99;
  t.emit(obs::EventKind::kReconcileRound, 5, 6, obs::kReconcileDecoded, 2);

  const auto f = obs::Tracer::from_bytes(t.bytes());
  EXPECT_EQ(f.dropped, 0u);
  ASSERT_EQ(f.events.size(), 2u);
  ASSERT_GT(f.names.size(), inv);
  EXPECT_EQ(f.names[inv], "lo.inv");
  EXPECT_EQ(f.events[0].at, 42);
  EXPECT_EQ(f.events[0].kind,
            static_cast<std::uint16_t>(obs::EventKind::kMsgSend));
  EXPECT_EQ(f.events[0].a, 128u);
  EXPECT_EQ(f.events[0].b, 55000u);
  EXPECT_EQ(f.events[1].at, 99);
  EXPECT_EQ(f.events[1].node, 5u);
}

TEST(Tracer, FromBytesRejectsMalformedInput) {
  obs::Tracer t;
  t.enable(true);
  t.emit(obs::EventKind::kTxSubmit, 1);
  auto good = t.bytes();

  auto bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_THROW(obs::Tracer::from_bytes(bad_magic), util::SerdeError);

  auto trailing = good;
  trailing.push_back(0);
  EXPECT_THROW(obs::Tracer::from_bytes(trailing), util::SerdeError);

  auto truncated = good;
  truncated.resize(truncated.size() - 1);
  EXPECT_THROW(obs::Tracer::from_bytes(truncated), util::SerdeError);
}

TEST(Tracer, ReadsVersion1TracesWithoutCausalFields) {
  // Hand-built v1 stream: 40-byte events, no span/parent. Old captures must
  // keep parsing after the causal-layer upgrade, loading span/parent as 0.
  util::Writer w;
  for (char m : {'L', 'O', 'T', 'R'}) w.u8(static_cast<std::uint8_t>(m));
  w.u32(1);  // version 1
  w.u64(3);  // dropped
  w.u32(2);  // names: "", "inv"
  w.str("");
  w.str("inv");
  w.u64(1);  // one event
  w.u64(77);  // at
  w.u16(static_cast<std::uint16_t>(obs::EventKind::kTxSubmit));
  w.u16(1);  // name = "inv"
  w.u32(4);  // node
  w.u32(5);  // peer
  w.u32(6);  // aux
  w.u64(0xaa);
  w.u64(0xbb);

  const auto f = obs::Tracer::from_bytes(w.take_u8());
  EXPECT_EQ(f.dropped, 3u);
  ASSERT_EQ(f.names.size(), 2u);
  EXPECT_EQ(f.names[1], "inv");
  ASSERT_EQ(f.events.size(), 1u);
  EXPECT_EQ(f.events[0].at, 77);
  EXPECT_EQ(f.events[0].node, 4u);
  EXPECT_EQ(f.events[0].aux, 6u);
  EXPECT_EQ(f.events[0].b, 0xbbu);
  EXPECT_EQ(f.events[0].span, 0u);
  EXPECT_EQ(f.events[0].parent, 0u);
}

TEST(Tracer, FromBytesRejectsHostileHeaders) {
  // Unknown version.
  {
    util::Writer w;
    for (char m : {'L', 'O', 'T', 'R'}) w.u8(static_cast<std::uint8_t>(m));
    w.u32(99);
    EXPECT_THROW(obs::Tracer::from_bytes(w.take_u8()), util::SerdeError);
  }
  // Event naming a string-table id that was never written.
  {
    obs::Tracer t;
    t.enable(true);
    t.emit(obs::EventKind::kMsgSend, 0, 1, 0, 0, /*name=*/9);
    EXPECT_THROW(obs::Tracer::from_bytes(t.bytes()), util::SerdeError);
  }
  // Hostile event-count prefix far beyond the buffer: must throw (truncated),
  // not allocate terabytes. The reserve clamp is what this pins down.
  {
    util::Writer w;
    for (char m : {'L', 'O', 'T', 'R'}) w.u8(static_cast<std::uint8_t>(m));
    w.u32(2);
    w.u64(0);  // dropped
    w.u32(0);  // no names
    w.u64(0xffffffffffffull);  // claimed events, none present
    EXPECT_THROW(obs::Tracer::from_bytes(w.take_u8()), util::SerdeError);
  }
}

// ------------------------------------------------------------- chrome json ----

std::string read_golden(const std::string& name) {
  const std::string path = std::string(LO_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(ChromeJson, MatchesGoldenFile) {
  std::int64_t now = 5;
  obs::Tracer t;
  t.set_clock(&now);
  t.enable(true);
  const auto inv = t.intern("lo.inv");
  t.emit(obs::EventKind::kTxSubmit, 1, 0, 0xabc);
  now = 17;
  t.emit(obs::EventKind::kTxAdmit, 2, 1, 0xabc, 7);
  now = 30;
  t.emit(obs::EventKind::kMsgDrop, 3, 1, obs::kDropRandom, 0, inv);
  now = 44;
  t.emit(obs::EventKind::kTxFinalize, 2, 0, 0xabc, 9);
  EXPECT_EQ(obs::chrome_json(t), read_golden("chrome_trace_golden.json"));
}

// ----------------------------------------------------------------- profile ----

TEST(Profile, DisabledHitIsIgnoredEnabledCounts) {
  obs::profile::reset();
  obs::profile::set_enabled(false);
  obs::profile::hit(obs::ProfileSite::kSketchDecode, 10);
  EXPECT_EQ(obs::profile::counters(obs::ProfileSite::kSketchDecode).calls, 0u);

  obs::profile::set_enabled(true);
  {
    obs::ScopedProfile p(obs::ProfileSite::kSketchDecode, 4);
    p.add_items(6);
  }  // charged on destruction
  obs::profile::hit(obs::ProfileSite::kSketchDecode);
  const auto c = obs::profile::counters(obs::ProfileSite::kSketchDecode);
  EXPECT_EQ(c.calls, 2u);
  EXPECT_EQ(c.items, 11u);

  obs::Registry reg;
  obs::profile::publish(reg);
  EXPECT_EQ(reg.counter("profile.calls", {{"site", "sketch_decode"}}), 2u);
  EXPECT_EQ(reg.counter("profile.items", {{"site", "sketch_decode"}}), 11u);
  // publish() assigns totals (idempotent), it does not accumulate.
  obs::profile::publish(reg);
  EXPECT_EQ(reg.counter("profile.calls", {{"site", "sketch_decode"}}), 2u);

  obs::profile::set_enabled(false);
  obs::profile::reset();
}

TEST(Profile, InstrumentedSketchPathsCount) {
  obs::profile::reset();
  obs::profile::set_enabled(true);
  sketch::Sketch a(16, 4), b(16, 4);
  a.add_all(std::vector<std::uint64_t>{1, 2, 3});
  b.add(1);
  a.merge(b);
  (void)a.decode();
  EXPECT_EQ(obs::profile::counters(obs::ProfileSite::kSketchAddAll).calls, 1u);
  EXPECT_EQ(obs::profile::counters(obs::ProfileSite::kSketchAddAll).items, 3u);
  EXPECT_GE(obs::profile::counters(obs::ProfileSite::kSketchDecode).calls, 1u);
  obs::profile::set_enabled(false);
  obs::profile::reset();
}

// ------------------------------------------------------- verify-cache bind ----

TEST(VerifyCacheBind, CountersCarryOverIntoRegistry) {
  const auto kp = crypto::derive_keypair(3, crypto::SignatureMode::kEd25519);
  crypto::Signer s(kp, crypto::SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg = {1, 2, 3};
  const auto sig = s.sign(msg);

  crypto::VerifyCache cache;
  // Unbound: two verifies of the same triple -> one memo miss, one memo hit.
  EXPECT_TRUE(cache.verify(crypto::SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_TRUE(cache.verify(crypto::SignatureMode::kEd25519, kp.pub, msg, sig));
  const auto before = cache.stats();
  EXPECT_EQ(before.memo_misses, 1u);
  EXPECT_EQ(before.memo_hits, 1u);

  obs::Registry reg;
  cache.bind(obs::Scope(&reg, {{"node", "7"}}));
  // Pre-bind values carried into the registry cells...
  EXPECT_EQ(reg.counter("verify_cache.memo_hits", {{"node", "7"}}), 1u);
  // ...and post-bind activity lands there too, visible through both APIs.
  EXPECT_TRUE(cache.verify(crypto::SignatureMode::kEd25519, kp.pub, msg, sig));
  EXPECT_EQ(cache.stats().memo_hits, 2u);
  EXPECT_EQ(reg.counter("verify_cache.memo_hits", {{"node", "7"}}), 2u);
}

TEST(VerifyCacheBind, TracerSeesProbes) {
  const auto kp = crypto::derive_keypair(4, crypto::SignatureMode::kEd25519);
  crypto::Signer s(kp, crypto::SignatureMode::kEd25519);
  const std::vector<std::uint8_t> msg = {9};
  const auto sig = s.sign(msg);

  obs::Tracer t;
  t.enable(true);
  crypto::VerifyCache cache;
  cache.set_tracer(&t, /*node=*/5);
  EXPECT_TRUE(cache.verify(crypto::SignatureMode::kEd25519, kp.pub, msg, sig));
  const auto evs = t.events();
  ASSERT_FALSE(evs.empty());
  for (const auto& ev : evs) {
    EXPECT_EQ(ev.kind, static_cast<std::uint16_t>(obs::EventKind::kCacheProbe));
    EXPECT_EQ(ev.node, 5u);
  }
}

// ---------------------------------------------------- end-to-end determinism ----

std::vector<std::uint8_t> lo_trace_bytes(std::uint64_t seed) {
  auto cfg = test::net_cfg(12, seed);
  cfg.trace = true;
  harness::LoNetwork net(cfg);
  net.start_workload(test::load_cfg(15.0, seed + 1));
  net.run_for(8.0);
  return net.sim().obs().tracer.bytes();
}

TEST(TraceDeterminism, LoSameSeedByteIdenticalTrace) {
  const auto a = lo_trace_bytes(2024);
  const auto b = lo_trace_bytes(2024);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "same-seed LO event traces diverged";
  EXPECT_NE(a, lo_trace_bytes(2025)) << "trace is seed-blind";
}

TEST(TraceDeterminism, BaselineSameSeedByteIdenticalTrace) {
  const auto run = [](std::uint64_t seed) {
    baselines::BaselineNetConfig cfg;
    cfg.num_nodes = 10;
    cfg.seed = seed;
    cfg.trace = true;
    baselines::FloodNode::Config node_cfg;
    node_cfg.prevalidation.sig_mode = test::kFastSig;
    baselines::BaselineNetwork<baselines::FloodNode> net(cfg, node_cfg);
    net.start_workload(test::load_cfg(15.0, seed + 1));
    net.run_for(8.0);
    return net.sim().obs().tracer.bytes();
  };
  const auto a = run(7);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, run(7));
}

TEST(TraceDeterminism, HarnessRegistryExportIsReplayStable) {
  const auto run = [](std::uint64_t seed) {
    auto cfg = test::net_cfg(12, seed);
    cfg.trace = true;
    harness::LoNetwork net(cfg);
    net.start_workload(test::load_cfg(15.0, seed + 1));
    net.run_for(8.0);
    net.publish_metrics();
    return net.sim().obs().registry.to_json("det") +
           net.sim().obs().registry.to_csv();
  };
  const auto a = run(11);
  EXPECT_EQ(a, run(11)) << "metrics export diverged between same-seed runs";
  // The export actually observed the run: per-node cells and sim counters.
  EXPECT_NE(a.find("sim.dropped_sender_down"), std::string::npos);
  EXPECT_NE(a.find("verify_cache.memo_hits{node=0}"), std::string::npos);
  EXPECT_NE(a.find("harness.mempool_latency_s"), std::string::npos);
}

// Per-shard label policy on the hot accountability counters: sharded runs
// attribute lo.commits / lo.sync_rounds / lo.suspicions per shard, while a
// k=1 run keeps the exact pre-sharding per-node ids (no-change guarantee for
// existing dashboards and diff tooling).
TEST(TraceDeterminism, ShardLabelsAppearOnlyWhenSharded) {
  const auto registry_json = [](std::uint32_t k) {
    auto cfg = test::net_cfg(8, 31);
    cfg.node.mempool_shards = k;
    harness::LoNetwork net(cfg);
    net.start_workload(test::load_cfg(15.0, 32));
    net.run_for(5.0);
    return net.sim().obs().registry.to_json("shards");
  };

  const std::string flat = registry_json(1);
  EXPECT_NE(flat.find("lo.commits{node=0}"), std::string::npos);
  EXPECT_NE(flat.find("lo.sync_rounds{node=0}"), std::string::npos);
  EXPECT_NE(flat.find("lo.suspicions{node=0}"), std::string::npos);
  EXPECT_EQ(flat.find("shard="), std::string::npos)
      << "k=1 run leaked shard labels into metric ids";

  const std::string sharded = registry_json(4);
  for (int s = 0; s < 4; ++s) {
    const std::string want =
        "lo.commits{node=0,shard=" + std::to_string(s) + "}";
    EXPECT_NE(sharded.find(want), std::string::npos) << "missing " << want;
  }
  EXPECT_NE(sharded.find("lo.sync_rounds{node=0,shard=0}"), std::string::npos);
  EXPECT_NE(sharded.find("lo.suspicions{node=0,shard=0}"), std::string::npos);
  EXPECT_EQ(sharded.find("lo.commits{node=0}"), std::string::npos)
      << "sharded run still exports the unsharded commit counter";
}

}  // namespace
}  // namespace lo

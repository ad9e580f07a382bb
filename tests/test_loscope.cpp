// loscope analyzer tests: trace-model indexing, txid parsing, per-transaction
// lineage with causal critical paths, censorship dwell under both settle
// criteria, detection-latency decomposition, per-shard rollups, the three
// render formats (including a golden lineage file), and an end-to-end run
// over a real LØ harness trace.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "harness/lo_network.hpp"
#include "loscope.hpp"
#include "obs/trace.hpp"
#include "test_net_util.hpp"

namespace lo {
namespace {

using loscope::Format;
using loscope::TraceModel;
using obs::EventKind;
using obs::Tracer;

// A scripted censorship story with hand-assigned causal spans, so every
// derived quantity (hop latency, critical path, dwell, detection decomposition)
// has one known-correct answer:
//
//   span 1 (root):      t=1ms   node 0 submits tx 0x111, gossips to node 1
//   span 2 (parent 1):  t=3ms   node 1 receives, admits
//   span 3 (parent 2):  t=5ms   node 1 commits (bundle seqno 7)
//   span 4 (root):      t=8ms   node 2 (leader) builds block 0xb10c
//   span 5 (parent 4):  t=9ms   node 1 inspects, proves censorship, suspects
//   span 6 (parent 5):  t=12ms  node 1 exposes node 2
void emit_scripted_story(Tracer& t, std::int64_t& now) {
  const auto sync = t.intern("sync");
  t.set_cause({1, 0});
  now = 1000;
  t.emit(EventKind::kTxSubmit, 0, 0, 0x111);
  t.emit(EventKind::kMsgSend, 0, 1, 64, 2000, sync);
  t.set_cause({2, 1});
  now = 3000;
  t.emit(EventKind::kMsgRecv, 1, 0, 64, 0, sync);
  t.emit(EventKind::kTxAdmit, 1, 0, 0x111, 7);
  t.set_cause({3, 2});
  now = 5000;
  t.emit(EventKind::kTxCommit, 1, 0, 0x111, 7);
  t.set_cause({4, 0});
  now = 8000;
  t.emit(EventKind::kBlockBuild, 2, 0, 0xb10c, 3);
  t.set_cause({5, 4});
  now = 9000;
  t.emit(EventKind::kBlockInspect, 1, 2, 0xb10c, 7);
  t.emit(EventKind::kTxCensored, 1, 2, 0x111, 0xb10c);
  t.emit(EventKind::kSuspect, 1, 2, 0, 0);
  t.set_cause({6, 5});
  now = 12000;
  t.emit(EventKind::kExpose, 1, 2, 0, 0);
  t.set_cause({});
}

TraceModel scripted_model() {
  Tracer t;
  std::int64_t now = 0;
  t.set_clock(&now);
  t.enable(true);
  emit_scripted_story(t, now);
  return TraceModel::build(Tracer::from_bytes(t.bytes()));
}

// ---------------------------------------------------------------- indexing ----

TEST(LoscopeModel, IndexesSpansAndTransactions) {
  const TraceModel m = scripted_model();
  EXPECT_EQ(m.file.events.size(), 10u);
  EXPECT_EQ(m.by_span.size(), 6u);
  ASSERT_EQ(m.by_tx.count(0x111), 1u);
  // submit, admit, commit, censored — the lifecycle events only.
  EXPECT_EQ(m.by_tx.at(0x111).size(), 4u);
  EXPECT_EQ(m.end_at, 12000);
  // Span index holds stream order: span 5 emitted inspect, censored, suspect.
  const auto& s5 = m.by_span.at(5);
  ASSERT_EQ(s5.size(), 3u);
  EXPECT_EQ(m.ev(s5[0]).kind, static_cast<std::uint16_t>(EventKind::kBlockInspect));
  EXPECT_EQ(m.ev(s5[2]).kind, static_cast<std::uint16_t>(EventKind::kSuspect));
}

TEST(LoscopeModel, SummaryCountsCoverageAndLifecycles) {
  const auto s = loscope::summarize(scripted_model());
  EXPECT_EQ(s.events, 10u);
  EXPECT_EQ(s.dropped, 0u);
  EXPECT_EQ(s.with_cause, 10u);
  EXPECT_EQ(s.distinct_spans, 6u);
  EXPECT_EQ(s.txs_submitted, 1u);
  EXPECT_EQ(s.txs_committed, 1u);
  EXPECT_EQ(s.txs_finalized, 0u);
  EXPECT_EQ(s.txs_censor_proven, 1u);
  EXPECT_EQ(s.anomalies, 0u);
  EXPECT_DOUBLE_EQ(s.duration_s, 0.012);
  EXPECT_EQ(s.by_kind.at("tx.submit"), 1u);
  EXPECT_EQ(s.by_kind.at("msg.send"), 1u);
}

// ------------------------------------------------------------ txid parsing ----

TEST(LoscopeParseTxid, AcceptsDecimalHexAndPrefixedHex) {
  EXPECT_EQ(loscope::parse_txid("273"), 273u);         // plain digits: base 10
  EXPECT_EQ(loscope::parse_txid("0x111"), 0x111u);     // explicit prefix
  EXPECT_EQ(loscope::parse_txid("0X1f"), 0x1fu);
  EXPECT_EQ(loscope::parse_txid("be5a"), 0xbe5au);     // bare hex digits
  EXPECT_EQ(loscope::parse_txid("0000000000000abc"), 0xabcu);
}

TEST(LoscopeParseTxid, RejectsGarbage) {
  EXPECT_FALSE(loscope::parse_txid("").has_value());
  EXPECT_FALSE(loscope::parse_txid("12g").has_value());
  EXPECT_FALSE(loscope::parse_txid("0x").has_value());
  EXPECT_FALSE(loscope::parse_txid("tx 0x111").has_value());
}

// ----------------------------------------------------------------- lineage ----

TEST(LoscopeLineage, ReconstructsLifecycleWithHopLatencies) {
  const TraceModel m = scripted_model();
  const auto l = loscope::lineage(m, 0x111);
  ASSERT_TRUE(l.has_value());
  ASSERT_EQ(l->steps.size(), 4u);
  EXPECT_EQ(l->steps[0].kind, EventKind::kTxSubmit);
  EXPECT_EQ(l->steps[1].kind, EventKind::kTxAdmit);
  EXPECT_EQ(l->steps[2].kind, EventKind::kTxCommit);
  EXPECT_EQ(l->steps[3].kind, EventKind::kTxCensored);
  EXPECT_EQ(l->steps[0].hop_latency_us, 0);
  EXPECT_EQ(l->steps[1].hop_latency_us, 2000);
  EXPECT_EQ(l->steps[2].hop_latency_us, 2000);
  EXPECT_EQ(l->steps[3].hop_latency_us, 4000);
  EXPECT_TRUE(l->committed);
  EXPECT_TRUE(l->censored);
  EXPECT_FALSE(l->finalized);
  EXPECT_EQ(l->submit_at, 1000);
  EXPECT_EQ(l->first_commit_at, 5000);
  EXPECT_EQ(l->censored_at, 9000);
}

TEST(LoscopeLineage, CriticalPathWalksSpanParentsToRoot) {
  const TraceModel m = scripted_model();
  const auto l = loscope::lineage(m, 0x111);
  ASSERT_TRUE(l.has_value());
  // Terminal event is the censorship proof (span 5); its causing dispatch is
  // the block build (span 4), which is a root. Newest -> oldest order.
  ASSERT_EQ(l->critical_path.size(), 2u);
  EXPECT_EQ(l->critical_path[0].span, 5u);
  EXPECT_EQ(l->critical_path[0].kind, EventKind::kTxCensored);
  EXPECT_EQ(l->critical_path[1].span, 4u);
  EXPECT_EQ(l->critical_path[1].node, 2u);
  EXPECT_EQ(l->critical_path[1].kind, EventKind::kBlockBuild);
}

TEST(LoscopeLineage, UnknownTxidReturnsNullopt) {
  EXPECT_FALSE(loscope::lineage(scripted_model(), 0xdead).has_value());
}

// -------------------------------------------------------------- censorship ----

TEST(LoscopeCensorship, BlockTracesSettleOnFinalize) {
  const auto r = loscope::censorship(scripted_model());
  EXPECT_TRUE(r.uses_blocks);  // a kBlockBuild is present
  ASSERT_EQ(r.entries.size(), 1u);
  const auto& e = r.entries[0];
  EXPECT_EQ(e.txid, 0x111u);
  EXPECT_EQ(e.submit_at, 1000);
  EXPECT_EQ(e.first_commit_at, 5000);
  EXPECT_EQ(e.first_finalize_at, -1);
  // Never included in a block: dwell runs to the trace horizon.
  EXPECT_FALSE(e.settled);
  EXPECT_TRUE(e.censor_proof);
  EXPECT_DOUBLE_EQ(e.dwell_s, 0.011);
  EXPECT_EQ(r.never_settled, 1u);
  EXPECT_EQ(r.proven_censored, 1u);
  EXPECT_DOUBLE_EQ(r.max_dwell_s, 0.011);
}

TEST(LoscopeCensorship, BlocklessTracesSettleOnFirstCommit) {
  Tracer t;
  std::int64_t now = 0;
  t.set_clock(&now);
  t.enable(true);
  now = 1000;
  t.emit(EventKind::kTxSubmit, 0, 0, 0x22);
  now = 4000;
  t.emit(EventKind::kTxCommit, 1, 0, 0x22, 3);
  now = 9000;
  t.emit(EventKind::kTxSubmit, 0, 0, 0x33);  // never commits
  const auto m = TraceModel::build(Tracer::from_bytes(t.bytes()));
  const auto r = loscope::censorship(m);
  EXPECT_FALSE(r.uses_blocks);
  ASSERT_EQ(r.entries.size(), 2u);
  EXPECT_TRUE(r.entries[0].settled);
  EXPECT_DOUBLE_EQ(r.entries[0].dwell_s, 0.003);
  EXPECT_FALSE(r.entries[1].settled);
  EXPECT_EQ(r.never_settled, 1u);
}

TEST(LoscopeCensorship, BlocklessTracesSettleOnFirstAdmit) {
  // Flood, PeerReview and Narwhal emit kTxAdmit and never kTxCommit: their
  // txs settle at the first admit anywhere, like the harness settle rule.
  Tracer t;
  std::int64_t now = 0;
  t.set_clock(&now);
  t.enable(true);
  now = 1000;
  t.emit(EventKind::kTxSubmit, 0, 0, 0x44);
  now = 2500;
  t.emit(EventKind::kTxAdmit, 0, 0, 0x44);
  now = 6000;
  t.emit(EventKind::kTxAdmit, 1, 0, 0x44);
  now = 7000;
  t.emit(EventKind::kTxSubmit, 0, 0, 0x55);  // never admitted
  const auto m = TraceModel::build(Tracer::from_bytes(t.bytes()));
  const auto r = loscope::censorship(m);
  EXPECT_FALSE(r.uses_blocks);
  ASSERT_EQ(r.entries.size(), 2u);
  EXPECT_TRUE(r.entries[0].settled);
  EXPECT_DOUBLE_EQ(r.entries[0].dwell_s, 0.0015);
  EXPECT_FALSE(r.entries[1].settled);
  EXPECT_EQ(r.never_settled, 1u);
}

// --------------------------------------------------------------- detection ----

TEST(LoscopeDetection, DecomposesProofSuspicionExposure) {
  const auto d = loscope::detection(scripted_model());
  ASSERT_EQ(d.size(), 1u);
  EXPECT_EQ(d[0].accused, 2u);
  EXPECT_EQ(d[0].first_proof_at, 9000);
  EXPECT_EQ(d[0].first_suspicion_at, 9000);
  EXPECT_EQ(d[0].first_exposure_at, 12000);
  EXPECT_EQ(d[0].suspicion_count, 1u);
  EXPECT_EQ(d[0].exposure_count, 1u);
}

// ------------------------------------------------------------------ shards ----

TEST(LoscopeShards, RollsUpByAuxShardId) {
  Tracer t;
  t.enable(true);
  t.emit(EventKind::kTxCommit, 0, 0, 1, 0, 0, /*aux=*/0);
  t.emit(EventKind::kTxCommit, 1, 0, 2, 0, 0, /*aux=*/0);
  t.emit(EventKind::kBlockBuild, 2, 0, 3, 0, 0, /*aux=*/0);
  t.emit(EventKind::kTxCommit, 0, 0, 4, 0, 0, /*aux=*/1);
  t.emit(EventKind::kReconcileRound, 1, 2, 0, 0, 0, /*aux=*/1);
  t.emit(EventKind::kSuspect, 1, 2, 1, 0, 0, /*aux=*/1);
  const auto s =
      loscope::shards(TraceModel::build(Tracer::from_bytes(t.bytes())));
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s[0].shard, 0u);
  EXPECT_EQ(s[0].tx_commits, 2u);
  EXPECT_EQ(s[0].blocks, 1u);
  EXPECT_EQ(s[1].shard, 1u);
  EXPECT_EQ(s[1].tx_commits, 1u);
  EXPECT_EQ(s[1].reconciles, 1u);
  EXPECT_EQ(s[1].suspicions, 1u);
}

// --------------------------------------------------------------- rendering ----

std::string read_golden(const std::string& name) {
  const std::string path = std::string(LO_TESTDATA_DIR) + "/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(LoscopeRender, LineageTextMatchesGoldenFile) {
  const TraceModel m = scripted_model();
  const auto l = loscope::lineage(m, 0x111);
  ASSERT_TRUE(l.has_value());
  EXPECT_EQ(loscope::render_lineage(m, *l, Format::kText),
            read_golden("loscope_lineage_golden.txt"));
}

TEST(LoscopeRender, AllFormatsCarryTheStory) {
  const TraceModel m = scripted_model();
  const auto l = loscope::lineage(m, 0x111);
  ASSERT_TRUE(l.has_value());

  const auto json = loscope::render_lineage(m, *l, Format::kJson);
  EXPECT_NE(json.find("\"censored\": true"), std::string::npos);
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos);
  const auto csv = loscope::render_lineage(m, *l, Format::kCsv);
  EXPECT_EQ(csv.rfind("at_s,kind,node,peer,shard,hop_latency_s\n", 0), 0u);

  const auto sum = loscope::render_summary(loscope::summarize(m), Format::kJson);
  EXPECT_NE(sum.find("\"txs_submitted\": 1"), std::string::npos);
  EXPECT_NE(sum.find("\"distinct_spans\": 6"), std::string::npos);

  const auto cen = loscope::render_censorship(loscope::censorship(m),
                                              Format::kText);
  EXPECT_NE(cen.find("NEVER SETTLED"), std::string::npos);
  EXPECT_NE(cen.find("[censorship proven]"), std::string::npos);

  const auto det =
      loscope::render_detection(loscope::detection(m), Format::kText);
  EXPECT_NE(det.find("accused node 2"), std::string::npos);
  EXPECT_NE(det.find("suspicion -> exposure"), std::string::npos);

  const auto shd = loscope::render_shards(loscope::shards(m), Format::kCsv);
  EXPECT_EQ(shd.rfind("shard,commits,", 0), 0u);
}

// ------------------------------------------------------------- end-to-end ----

// Acceptance check from a real harness trace: lineage reconstructs full
// cross-node chains — a tx submitted on one node shows lifecycle events on at
// least one other node, with a non-trivial causal critical path.
TEST(LoscopeIntegration, LineageSpansNodesInHarnessTrace) {
  auto cfg = test::net_cfg(12, 99);
  cfg.trace = true;
  harness::LoNetwork net(cfg);
  net.start_workload(test::load_cfg(15.0, 100));
  net.run_for(8.0);
  const auto m = TraceModel::build(
      Tracer::from_bytes(net.sim().obs().tracer.bytes()));
  ASSERT_FALSE(m.by_tx.empty());

  std::size_t cross_node = 0;
  std::size_t deep_paths = 0;
  for (const auto& [txid, _] : m.by_tx) {
    const auto l = loscope::lineage(m, txid);
    ASSERT_TRUE(l.has_value());
    std::int64_t prev = -1;
    std::set<std::uint32_t> nodes;
    for (const auto& st : l->steps) {
      EXPECT_GE(st.at, prev) << "lineage steps out of order for tx " << txid;
      prev = st.at;
      nodes.insert(st.node);
    }
    if (l->committed && nodes.size() >= 2) ++cross_node;
    if (l->critical_path.size() >= 2) ++deep_paths;
  }
  EXPECT_GT(cross_node, 0u)
      << "no committed tx shows lifecycle events on more than one node";
  EXPECT_GT(deep_paths, 0u)
      << "no lineage has a causal critical path deeper than its own dispatch";
}

}  // namespace
}  // namespace lo

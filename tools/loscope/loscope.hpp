// loscope — causal transaction forensics over LOTR traces (DESIGN.md §5).
//
// Besides converting a trace to Chrome/Perfetto JSON for visual inspection
// (`loscope <trace> chrome`), loscope *answers questions*: it indexes the
// causal span layer (TraceEvent.span/parent) and the per-transaction
// lifecycle events into a queryable model, then derives
//
//   lineage     the full cross-node story of one transaction — submit,
//               gossip hops, commitment, reconcile/sync recovery, block
//               inclusion and (for censored txs) inspection -> suspicion ->
//               exposure — with per-hop latencies and the causal critical
//               path walked over span parents;
//   censorship  dwell-time report: submit -> settle per tx (first block
//               inclusion, or without blocks the first admit or commit),
//               plus the txs that never settled and the kTxCensored proofs;
//   detection   decomposition of accountability latency per accused node:
//               first censorship proof -> first suspicion -> first exposure;
//   shards      per-shard rollups of shard-scoped events;
//   summary     whole-trace totals and causal-layer coverage.
//
// The library is exercised directly by tests/test_loscope.cpp; the CLI in
// main.cpp is a thin argv wrapper.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace lo::loscope {

// Indexed view over a parsed trace. Indices refer into file.events.
struct TraceModel {
  obs::Tracer::File file;

  // Causal index: span id -> events emitted during that dispatch, in stream
  // order. Built from nonzero spans only.
  std::map<std::uint64_t, std::vector<std::size_t>> by_span;

  // Transaction index: short tx id -> lifecycle events (kTxSubmit..kTxCensored
  // carry the short id in `a`), in stream order.
  std::map<std::uint64_t, std::vector<std::size_t>> by_tx;

  std::int64_t end_at = 0;  // timestamp of the last event (trace horizon)

  static TraceModel build(obs::Tracer::File f);

  const obs::TraceEvent& ev(std::size_t i) const { return file.events[i]; }
};

// One step of a transaction's cross-node story.
struct LineageStep {
  std::size_t event_index = 0;
  std::int64_t at = 0;
  std::int64_t hop_latency_us = 0;  // delta from the previous step (0 first)
  obs::EventKind kind = obs::EventKind::kNone;
  std::uint32_t node = 0;
  std::uint32_t peer = 0;
  std::uint32_t shard = 0;
  std::uint64_t b = 0;
};

// One dispatch on the causal critical path (newest -> oldest walk order).
struct CausalHop {
  std::uint64_t span = 0;
  std::int64_t at = 0;          // timestamp of the span's first event
  std::uint32_t node = 0;       // node of the span's first event
  obs::EventKind kind = obs::EventKind::kNone;  // representative event kind
};

struct Lineage {
  std::uint64_t txid = 0;
  std::vector<LineageStep> steps;        // chronological lifecycle timeline
  std::vector<CausalHop> critical_path;  // terminal event -> root, via parents
  bool committed = false;
  bool finalized = false;
  bool censored = false;
  std::int64_t submit_at = 0;
  std::int64_t first_commit_at = -1;   // -1 = never
  std::int64_t finalize_at = -1;
  std::int64_t censored_at = -1;
};

// Per-tx censorship dwell entry. "Settled" is first block inclusion when the
// trace contains block production (kBlockBuild), and the first mempool admit
// or commit anywhere otherwise — matching the harness AnomalyMonitor's
// settle definition (a tx settles at its first admit until block production
// starts).
struct DwellEntry {
  std::uint64_t txid = 0;
  std::int64_t submit_at = 0;
  std::int64_t first_admit_at = -1;     // -1 = never admitted in-trace
  std::int64_t first_commit_at = -1;    // -1 = never committed in-trace
  std::int64_t first_finalize_at = -1;  // -1 = never included in a block
  double dwell_s = 0.0;  // submit -> settled, or -> trace end if never
  bool settled = false;
  bool censor_proof = false;  // a kTxCensored event names this tx
};

struct CensorshipReport {
  bool uses_blocks = false;  // settle = finalize (true), admit/commit (false)
  std::vector<DwellEntry> entries;  // ascending txid
  std::size_t never_settled = 0;
  std::size_t proven_censored = 0;
  double max_dwell_s = 0.0;
};

// Accountability latency decomposition for one accused node.
struct DetectionEntry {
  std::uint32_t accused = 0;
  std::int64_t first_proof_at = -1;      // first kTxCensored naming it
  std::int64_t first_suspicion_at = -1;  // first kSuspect naming it
  std::int64_t first_exposure_at = -1;   // first kExpose naming it
  std::size_t suspicion_count = 0;
  std::size_t exposure_count = 0;
};

struct ShardRollup {
  std::uint32_t shard = 0;
  std::uint64_t commits = 0;       // kCommitCreate
  std::uint64_t tx_commits = 0;    // kTxCommit
  std::uint64_t reconciles = 0;    // kReconcileRound
  std::uint64_t blocks = 0;        // kBlockBuild
  std::uint64_t inspections = 0;   // kBlockInspect
  std::uint64_t suspicions = 0;    // kSuspect
  std::uint64_t censor_proofs = 0; // kTxCensored
};

struct Summary {
  std::size_t events = 0;
  std::uint64_t dropped = 0;
  double duration_s = 0.0;
  std::size_t with_cause = 0;   // events with span != 0
  std::size_t distinct_spans = 0;
  std::size_t txs_submitted = 0;
  std::size_t txs_committed = 0;
  std::size_t txs_finalized = 0;
  std::size_t txs_censor_proven = 0;
  std::size_t anomalies = 0;
  std::map<std::string, std::size_t> by_kind;
};

// --- queries ---
Summary summarize(const TraceModel& m);
// nullopt when the trace holds no lifecycle event for `txid`.
std::optional<Lineage> lineage(const TraceModel& m, std::uint64_t txid);
CensorshipReport censorship(const TraceModel& m);
std::vector<DetectionEntry> detection(const TraceModel& m);
std::vector<ShardRollup> shards(const TraceModel& m);

// --- rendering (text / JSON / CSV as applicable) ---
enum class Format { kText, kJson, kCsv };

std::string render_summary(const Summary& s, Format f);
std::string render_lineage(const TraceModel& m, const Lineage& l, Format f);
std::string render_censorship(const CensorshipReport& r, Format f);
std::string render_detection(const std::vector<DetectionEntry>& d, Format f);
std::string render_shards(const std::vector<ShardRollup>& s, Format f);

// Accepts decimal or hex (with or without 0x). nullopt on parse failure.
std::optional<std::uint64_t> parse_txid(const std::string& s);

}  // namespace lo::loscope

#include "loscope.hpp"

#include <algorithm>
#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <set>

namespace lo::loscope {

namespace {

using obs::EventKind;

bool is_tx_lifecycle(EventKind k) noexcept {
  switch (k) {
    case EventKind::kTxSubmit:
    case EventKind::kTxAdmit:
    case EventKind::kTxFinalize:
    case EventKind::kTxCommit:
    case EventKind::kTxCensored:
      return true;
    default:
      return false;
  }
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  out += buf;
}

double to_s(std::int64_t us) { return static_cast<double>(us) / 1e6; }

}  // namespace

TraceModel TraceModel::build(obs::Tracer::File f) {
  TraceModel m;
  m.file = std::move(f);
  for (std::size_t i = 0; i < m.file.events.size(); ++i) {
    const auto& ev = m.file.events[i];
    if (ev.span != 0) m.by_span[ev.span].push_back(i);
    if (is_tx_lifecycle(static_cast<EventKind>(ev.kind))) {
      m.by_tx[ev.a].push_back(i);
    }
    m.end_at = std::max(m.end_at, ev.at);
  }
  return m;
}

std::optional<std::uint64_t> parse_txid(const std::string& s) {
  if (s.empty()) return std::nullopt;
  const bool hex_prefix = s.size() > 2 && s[0] == '0' &&
                          (s[1] == 'x' || s[1] == 'X');
  bool has_hex_digit = false;
  for (char c : s) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0 &&
        !(hex_prefix && (c == 'x' || c == 'X'))) {
      return std::nullopt;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) == 0) has_hex_digit = true;
  }
  errno = 0;
  char* end = nullptr;
  // Bare hex like "be5a91..." parses base-16; plain digits parse base-10;
  // an explicit 0x prefix always wins.
  const int base = hex_prefix ? 16 : (has_hex_digit ? 16 : 10);
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (errno != 0 || end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(v);
}

// ------------------------------------------------------------------ summary --

Summary summarize(const TraceModel& m) {
  Summary s;
  s.events = m.file.events.size();
  s.dropped = m.file.dropped;
  s.duration_s = to_s(m.end_at);
  std::set<std::uint64_t> spans;
  std::set<std::uint64_t> committed;
  std::set<std::uint64_t> finalized;
  std::set<std::uint64_t> submitted;
  std::set<std::uint64_t> censored;
  for (const auto& ev : m.file.events) {
    ++s.by_kind[obs::event_kind_name(static_cast<EventKind>(ev.kind))];
    if (ev.span != 0) {
      ++s.with_cause;
      spans.insert(ev.span);
    }
    switch (static_cast<EventKind>(ev.kind)) {
      case EventKind::kTxSubmit: submitted.insert(ev.a); break;
      case EventKind::kTxCommit: committed.insert(ev.a); break;
      case EventKind::kTxFinalize: finalized.insert(ev.a); break;
      case EventKind::kTxCensored: censored.insert(ev.a); break;
      case EventKind::kAnomaly: ++s.anomalies; break;
      default: break;
    }
  }
  s.distinct_spans = spans.size();
  s.txs_submitted = submitted.size();
  s.txs_committed = committed.size();
  s.txs_finalized = finalized.size();
  s.txs_censor_proven = censored.size();
  return s;
}

// ------------------------------------------------------------------ lineage --

std::optional<Lineage> lineage(const TraceModel& m, std::uint64_t txid) {
  auto it = m.by_tx.find(txid);
  if (it == m.by_tx.end() || it->second.empty()) return std::nullopt;

  Lineage l;
  l.txid = txid;
  std::int64_t prev_at = -1;
  for (std::size_t idx : it->second) {
    const auto& ev = m.ev(idx);
    LineageStep step;
    step.event_index = idx;
    step.at = ev.at;
    step.hop_latency_us = prev_at < 0 ? 0 : ev.at - prev_at;
    prev_at = ev.at;
    step.kind = static_cast<EventKind>(ev.kind);
    step.node = ev.node;
    step.peer = ev.peer;
    step.shard = ev.aux;
    l.steps.push_back(step);
    switch (step.kind) {
      case EventKind::kTxSubmit:
        l.submit_at = ev.at;
        break;
      case EventKind::kTxCommit:
        l.committed = true;
        if (l.first_commit_at < 0) l.first_commit_at = ev.at;
        break;
      case EventKind::kTxFinalize:
        l.finalized = true;
        if (l.finalize_at < 0) l.finalize_at = ev.at;
        break;
      case EventKind::kTxCensored:
        l.censored = true;
        if (l.censored_at < 0) l.censored_at = ev.at;
        break;
      default:
        break;
    }
  }

  // Causal critical path: from the terminal lifecycle event, walk parent
  // spans back to the root dispatch. Each hop is represented by the first
  // event the causing dispatch emitted (a send, a timer's own events, ...).
  const auto& terminal = m.ev(it->second.back());
  l.critical_path.push_back(CausalHop{
      terminal.span, terminal.at, terminal.node,
      static_cast<EventKind>(terminal.kind)});
  std::uint64_t parent = terminal.parent;
  std::set<std::uint64_t> seen;  // defensive: the DAG has no cycles by
                                 // construction, but a corrupt trace might
  while (parent != 0 && seen.insert(parent).second) {
    auto sit = m.by_span.find(parent);
    if (sit == m.by_span.end() || sit->second.empty()) break;
    const auto& rep = m.ev(sit->second.front());
    l.critical_path.push_back(CausalHop{
        parent, rep.at, rep.node, static_cast<EventKind>(rep.kind)});
    parent = rep.parent;
  }
  return l;
}

// --------------------------------------------------------------- censorship --

namespace {

// The file's events folded through the harness's own analyzer.
harness::Analyzer replay(const TraceModel& m) {
  harness::Analyzer a;
  for (const auto& ev : m.file.events) a.observe(ev);
  return a;
}

bool has_censor_proof(const TraceModel& m, std::uint64_t txid) {
  const auto it = m.by_tx.find(txid);
  if (it == m.by_tx.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(), [&](std::size_t i) {
    return static_cast<EventKind>(m.ev(i).kind) == EventKind::kTxCensored;
  });
}

}  // namespace

CensorshipReport censorship(const TraceModel& m) {
  const harness::Analyzer a = replay(m);
  CensorshipReport r;
  r.uses_blocks = a.blocks_started;
  for (const auto& [txid, tx] : a.txs) {
    if (tx.submit_at < 0) continue;  // trace fragment without the submission
    DwellEntry e;
    e.txid = txid;
    e.submit_at = tx.submit_at;
    e.first_admit_at = tx.admit_at;
    e.first_finalize_at = tx.finalize_at;
    e.settled = tx.settle_at >= 0;
    e.dwell_s = to_s((e.settled ? tx.settle_at : m.end_at) - tx.submit_at);
    e.censor_proof = has_censor_proof(m, txid);
    if (!e.settled) ++r.never_settled;
    if (e.censor_proof) ++r.proven_censored;
    r.max_dwell_s = std::max(r.max_dwell_s, e.dwell_s);
    r.entries.push_back(e);
  }
  return r;
}

// ---------------------------------------------------------------- detection --

std::vector<DetectionEntry> detection(const TraceModel& m) {
  std::map<std::uint32_t, DetectionEntry> by_accused;
  const auto entry = [&](std::uint32_t accused) -> DetectionEntry& {
    auto& e = by_accused[accused];
    e.accused = accused;
    return e;
  };
  for (const auto& ev : m.file.events) {
    if (static_cast<EventKind>(ev.kind) != EventKind::kTxCensored) continue;
    auto& e = entry(ev.peer);
    if (e.first_proof_s < 0) e.first_proof_s = to_s(ev.at);
  }
  const harness::Analyzer a = replay(m);
  for (const auto& b : a.suspicion_events) {
    auto& e = entry(b.accused);
    if (e.first_suspicion_s < 0) e.first_suspicion_s = b.when_s;
    ++e.suspicion_count;
  }
  for (const auto& b : a.exposure_events) {
    auto& e = entry(b.accused);
    if (e.first_exposure_s < 0) e.first_exposure_s = b.when_s;
    ++e.exposure_count;
  }
  std::vector<DetectionEntry> out;
  out.reserve(by_accused.size());
  for (const auto& [id, e] : by_accused) out.push_back(e);
  return out;
}

// ------------------------------------------------------------------- shards --

std::vector<ShardRollup> shards(const TraceModel& m) {
  std::map<std::uint32_t, ShardRollup> by_shard;
  for (const auto& ev : m.file.events) {
    auto bump = [&](std::uint64_t ShardRollup::* field) {
      auto& r = by_shard[ev.aux];
      r.shard = ev.aux;
      ++(r.*field);
    };
    switch (static_cast<EventKind>(ev.kind)) {
      case EventKind::kCommitCreate: bump(&ShardRollup::commits); break;
      case EventKind::kTxCommit: bump(&ShardRollup::tx_commits); break;
      case EventKind::kReconcileRound: bump(&ShardRollup::reconciles); break;
      case EventKind::kBlockBuild: bump(&ShardRollup::blocks); break;
      case EventKind::kBlockInspect: bump(&ShardRollup::inspections); break;
      case EventKind::kSuspect: bump(&ShardRollup::suspicions); break;
      case EventKind::kTxCensored: bump(&ShardRollup::censor_proofs); break;
      default: break;
    }
  }
  std::vector<ShardRollup> out;
  out.reserve(by_shard.size());
  for (const auto& [s, r] : by_shard) out.push_back(r);
  return out;
}

// ---------------------------------------------------------------- rendering --

std::string render_summary(const Summary& s, Format f) {
  std::string out;
  if (f == Format::kJson) {
    appendf(out,
            "{\n  \"events\": %zu,\n  \"dropped\": %" PRIu64
            ",\n  \"duration_s\": %.6f,\n  \"with_cause\": %zu,\n"
            "  \"distinct_spans\": %zu,\n  \"txs_submitted\": %zu,\n"
            "  \"txs_committed\": %zu,\n  \"txs_finalized\": %zu,\n"
            "  \"txs_censor_proven\": %zu,\n  \"anomalies\": %zu,\n"
            "  \"by_kind\": {\n",
            s.events, s.dropped, s.duration_s, s.with_cause, s.distinct_spans,
            s.txs_submitted, s.txs_committed, s.txs_finalized,
            s.txs_censor_proven, s.anomalies);
    std::size_t i = 0;
    for (const auto& [kind, count] : s.by_kind) {
      appendf(out, "    \"%s\": %zu%s\n", kind.c_str(), count,
              ++i < s.by_kind.size() ? "," : "");
    }
    out += "  }\n}\n";
    return out;
  }
  if (f == Format::kCsv) {
    out = "kind,count\n";
    for (const auto& [kind, count] : s.by_kind) {
      appendf(out, "%s,%zu\n", kind.c_str(), count);
    }
    return out;
  }
  appendf(out, "events            %zu (dropped %" PRIu64 ")\n", s.events,
          s.dropped);
  appendf(out, "duration          %.3fs\n", s.duration_s);
  appendf(out, "causal coverage   %zu events across %zu spans\n", s.with_cause,
          s.distinct_spans);
  appendf(out, "txs               %zu submitted, %zu committed, %zu finalized\n",
          s.txs_submitted, s.txs_committed, s.txs_finalized);
  appendf(out, "censorship proofs %zu tx(s)\n", s.txs_censor_proven);
  appendf(out, "anomaly alerts    %zu\n", s.anomalies);
  for (const auto& [kind, count] : s.by_kind) {
    appendf(out, "  %-18s %zu\n", kind.c_str(), count);
  }
  return out;
}

std::string render_lineage(const TraceModel& m, const Lineage& l, Format f) {
  std::string out;
  if (f == Format::kJson) {
    appendf(out,
            "{\n  \"txid\": \"%016" PRIx64
            "\",\n  \"committed\": %s,\n  \"finalized\": %s,\n"
            "  \"censored\": %s,\n  \"steps\": [\n",
            l.txid, l.committed ? "true" : "false",
            l.finalized ? "true" : "false", l.censored ? "true" : "false");
    for (std::size_t i = 0; i < l.steps.size(); ++i) {
      const auto& st = l.steps[i];
      appendf(out,
              "    {\"at_s\": %.6f, \"kind\": \"%s\", \"node\": %u, "
              "\"peer\": %u, \"shard\": %u, \"hop_latency_s\": %.6f}%s\n",
              to_s(st.at), obs::event_kind_name(st.kind), st.node, st.peer,
              st.shard, to_s(st.hop_latency_us),
              i + 1 < l.steps.size() ? "," : "");
    }
    out += "  ],\n  \"critical_path\": [\n";
    for (std::size_t i = 0; i < l.critical_path.size(); ++i) {
      const auto& h = l.critical_path[i];
      appendf(out,
              "    {\"span\": %" PRIu64
              ", \"at_s\": %.6f, \"node\": %u, \"kind\": \"%s\"}%s\n",
              h.span, to_s(h.at), h.node, obs::event_kind_name(h.kind),
              i + 1 < l.critical_path.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
  }
  if (f == Format::kCsv) {
    out = "at_s,kind,node,peer,shard,hop_latency_s\n";
    for (const auto& st : l.steps) {
      appendf(out, "%.6f,%s,%u,%u,%u,%.6f\n", to_s(st.at),
              obs::event_kind_name(st.kind), st.node, st.peer, st.shard,
              to_s(st.hop_latency_us));
    }
    return out;
  }
  appendf(out, "tx %016" PRIx64 ": %s\n", l.txid,
          l.censored    ? "CENSORED (proof in trace)"
          : l.finalized ? "finalized"
          : l.committed ? "committed (not yet in a block)"
                        : "submitted only");
  for (const auto& st : l.steps) {
    appendf(out, "  [%10.6fs] %-12s node=%-3u", to_s(st.at),
            obs::event_kind_name(st.kind), st.node);
    if (st.kind == EventKind::kTxAdmit && st.peer != st.node) {
      appendf(out, " from=%-3u", st.peer);
    } else if (st.kind == EventKind::kTxCensored) {
      appendf(out, " accused=%-3u", st.peer);
    } else {
      out += "         ";
    }
    appendf(out, " shard=%u", st.shard);
    if (st.hop_latency_us > 0) appendf(out, "  (+%.6fs)", to_s(st.hop_latency_us));
    out += "\n";
  }
  out += "critical path (terminal -> root):\n";
  for (const auto& h : l.critical_path) {
    appendf(out, "  span %-12" PRIu64 " [%10.6fs] node=%-3u via %s\n", h.span,
            to_s(h.at), h.node, obs::event_kind_name(h.kind));
  }
  (void)m;
  return out;
}

std::string render_censorship(const CensorshipReport& r, Format f) {
  std::string out;
  if (f == Format::kJson) {
    appendf(out,
            "{\n  \"settle\": \"%s\",\n  \"never_settled\": %zu,\n"
            "  \"proven_censored\": %zu,\n"
            "  \"max_dwell_s\": %.6f,\n  \"entries\": [\n",
            r.uses_blocks ? "block_inclusion" : "first_admit",
            r.never_settled, r.proven_censored, r.max_dwell_s);
    for (std::size_t i = 0; i < r.entries.size(); ++i) {
      const auto& e = r.entries[i];
      appendf(out,
              "    {\"txid\": \"%016" PRIx64
              "\", \"submit_s\": %.6f, \"settled\": %s, "
              "\"dwell_s\": %.6f, \"censor_proof\": %s}%s\n",
              e.txid, to_s(e.submit_at), e.settled ? "true" : "false",
              e.dwell_s, e.censor_proof ? "true" : "false",
              i + 1 < r.entries.size() ? "," : "");
    }
    out += "  ]\n}\n";
    return out;
  }
  if (f == Format::kCsv) {
    out = "txid,submit_s,settled,dwell_s,censor_proof\n";
    for (const auto& e : r.entries) {
      appendf(out, "%016" PRIx64 ",%.6f,%d,%.6f,%d\n", e.txid,
              to_s(e.submit_at), e.settled ? 1 : 0, e.dwell_s,
              e.censor_proof ? 1 : 0);
    }
    return out;
  }
  appendf(out, "settle criterion  %s\n",
          r.uses_blocks ? "first admit before block.start, first block "
                          "inclusion after"
                        : "first admit");
  appendf(out, "txs tracked       %zu\n", r.entries.size());
  appendf(out, "never settled     %zu\n", r.never_settled);
  appendf(out, "proven censored   %zu\n", r.proven_censored);
  appendf(out, "max dwell         %.6fs\n", r.max_dwell_s);
  for (const auto& e : r.entries) {
    if (e.settled && !e.censor_proof) continue;  // healthy tx
    appendf(out, "  tx %016" PRIx64 "  submit=%.3fs  dwell=%.3fs  %s%s\n",
            e.txid, to_s(e.submit_at), e.dwell_s,
            e.settled ? "settled" : "NEVER SETTLED",
            e.censor_proof ? "  [censorship proven]" : "");
  }
  return out;
}

std::string render_detection(const std::vector<DetectionEntry>& d, Format f) {
  std::string out;
  if (f == Format::kJson) {
    out = "[\n";
    for (std::size_t i = 0; i < d.size(); ++i) {
      const auto& e = d[i];
      appendf(out,
              "  {\"accused\": %u, \"first_proof_s\": %.6f, "
              "\"first_suspicion_s\": %.6f, \"first_exposure_s\": %.6f, "
              "\"suspicions\": %zu, \"exposures\": %zu}%s\n",
              e.accused, e.first_proof_s, e.first_suspicion_s,
              e.first_exposure_s, e.suspicion_count, e.exposure_count,
              i + 1 < d.size() ? "," : "");
    }
    out += "]\n";
    return out;
  }
  if (f == Format::kCsv) {
    out = "accused,first_proof_s,first_suspicion_s,first_exposure_s,"
          "suspicions,exposures\n";
    for (const auto& e : d) {
      appendf(out, "%u,%.6f,%.6f,%.6f,%zu,%zu\n", e.accused, e.first_proof_s,
              e.first_suspicion_s, e.first_exposure_s, e.suspicion_count,
              e.exposure_count);
    }
    return out;
  }
  if (d.empty()) return "no accountability events in trace\n";
  for (const auto& e : d) {
    appendf(out, "accused node %u:\n", e.accused);
    if (e.first_proof_s >= 0) {
      appendf(out, "  first censorship proof  %.6fs\n", e.first_proof_s);
    }
    if (e.first_suspicion_s >= 0) {
      appendf(out, "  first suspicion         %.6fs  (%zu total)\n",
              e.first_suspicion_s, e.suspicion_count);
    }
    if (e.first_exposure_s >= 0) {
      appendf(out, "  first exposure          %.6fs  (%zu total)\n",
              e.first_exposure_s, e.exposure_count);
      if (e.first_suspicion_s >= 0) {
        appendf(out, "  suspicion -> exposure   %.6fs\n",
                e.first_exposure_s - e.first_suspicion_s);
      }
    }
  }
  return out;
}

std::string render_shards(const std::vector<ShardRollup>& s, Format f) {
  std::string out;
  if (f == Format::kJson) {
    out = "[\n";
    for (std::size_t i = 0; i < s.size(); ++i) {
      const auto& r = s[i];
      appendf(out,
              "  {\"shard\": %u, \"commits\": %" PRIu64
              ", \"tx_commits\": %" PRIu64 ", \"reconciles\": %" PRIu64
              ", \"blocks\": %" PRIu64 ", \"inspections\": %" PRIu64
              ", \"suspicions\": %" PRIu64 ", \"censor_proofs\": %" PRIu64
              "}%s\n",
              r.shard, r.commits, r.tx_commits, r.reconciles, r.blocks,
              r.inspections, r.suspicions, r.censor_proofs,
              i + 1 < s.size() ? "," : "");
    }
    out += "]\n";
    return out;
  }
  if (f == Format::kCsv) {
    out = "shard,commits,tx_commits,reconciles,blocks,inspections,suspicions,"
          "censor_proofs\n";
    for (const auto& r : s) {
      appendf(out,
              "%u,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
              ",%" PRIu64 ",%" PRIu64 "\n",
              r.shard, r.commits, r.tx_commits, r.reconciles, r.blocks,
              r.inspections, r.suspicions, r.censor_proofs);
    }
    return out;
  }
  out = "shard  commits  tx_commits  reconciles  blocks  inspections  "
        "suspicions  censor_proofs\n";
  for (const auto& r : s) {
    appendf(out,
            "%5u  %7" PRIu64 "  %10" PRIu64 "  %10" PRIu64 "  %6" PRIu64
            "  %11" PRIu64 "  %10" PRIu64 "  %13" PRIu64 "\n",
            r.shard, r.commits, r.tx_commits, r.reconciles, r.blocks,
            r.inspections, r.suspicions, r.censor_proofs);
  }
  return out;
}

}  // namespace lo::loscope

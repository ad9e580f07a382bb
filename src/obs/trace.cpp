#include "obs/trace.hpp"

#include <cstdio>
#include <stdexcept>

#include "util/serde.hpp"

namespace lo::obs {

namespace {

constexpr std::uint8_t kMagic[4] = {'L', 'O', 'T', 'R'};
// v2: 56-byte events with the causal span/parent.
constexpr std::uint32_t kVersion = 2;
constexpr std::uint64_t kEventWireSize = 56;

void append_u64_dec(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

void append_i64_dec(std::string& out, std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  out += buf;
}

void json_escape_to(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back('?');  // trace names are ASCII identifiers in practice
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

const char* event_kind_name(EventKind k) noexcept {
  switch (k) {
    case EventKind::kNone: return "none";
    case EventKind::kMsgSend: return "msg.send";
    case EventKind::kMsgRecv: return "msg.recv";
    case EventKind::kMsgDrop: return "msg.drop";
    case EventKind::kTxSubmit: return "tx.submit";
    case EventKind::kTxAdmit: return "tx.admit";
    case EventKind::kTxFinalize: return "tx.finalize";
    case EventKind::kTxCommit: return "tx.commit";
    case EventKind::kTxCensored: return "tx.censored";
    case EventKind::kCommitCreate: return "commit.create";
    case EventKind::kCommitObserve: return "commit.observe";
    case EventKind::kReconcileRound: return "reconcile.round";
    case EventKind::kBlockBuild: return "block.build";
    case EventKind::kBlockInspect: return "block.inspect";
    case EventKind::kBlockStart: return "block.start";
    case EventKind::kSuspect: return "blame.suspect";
    case EventKind::kRetract: return "blame.retract";
    case EventKind::kExpose: return "blame.expose";
    case EventKind::kSuspected: return "blame.suspected";
    case EventKind::kFaultCrash: return "fault.crash";
    case EventKind::kFaultRestart: return "fault.restart";
    case EventKind::kCacheProbe: return "cache.probe";
    case EventKind::kMemberProbe: return "member.probe";
    case EventKind::kMemberState: return "member.state";
    case EventKind::kAnomaly: return "anomaly";
  }
  return "unknown";
}

const char* drop_reason_name(std::uint64_t r) noexcept {
  switch (r) {
    case kDropSenderDown: return "sender_down";
    case kDropRandom: return "random";
    case kDropFilter: return "filter";
    case kDropFaultFilter: return "fault_filter";
    case kDropReceiverDown: return "receiver_down";
  }
  return "unknown";
}

const char* reconcile_outcome_name(std::uint64_t r) noexcept {
  switch (r) {
    case kReconcileDecoded: return "decoded";
    case kReconcileOverflow: return "overflow";
    case kReconcileEmpty: return "empty";
  }
  return "unknown";
}

std::uint64_t short_id(std::span<const std::uint8_t> bytes) noexcept {
  std::uint64_t v = 0;
  const std::size_t n = bytes.size() < 8 ? bytes.size() : 8;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
  }
  return v;
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) throw std::invalid_argument("tracer capacity 0");
  names_.emplace_back();  // id 0 = ""
}

void Tracer::enable(bool on) { enabled_ = on; }

void Tracer::set_capacity(std::size_t capacity) {
  if (capacity == 0) throw std::invalid_argument("tracer capacity 0");
  capacity_ = capacity;
  ring_.clear();
  ring_.shrink_to_fit();
  head_ = 0;
  dropped_ = 0;
}

std::uint16_t Tracer::intern(std::string_view s) {
  if (s.empty()) return 0;
  auto it = intern_.find(s);
  if (it != intern_.end()) return it->second;
  if (names_.size() > 0xFFFF) throw std::length_error("tracer intern table full");
  const auto id = static_cast<std::uint16_t>(names_.size());
  names_.emplace_back(s);
  intern_.emplace(std::string(s), id);
  return id;
}

std::string Tracer::name(std::uint16_t id) const {
  if (id >= names_.size()) throw std::out_of_range("unknown interned name");
  return names_[id];
}

std::vector<std::string> Tracer::names() const { return names_; }

void Tracer::record(EventKind kind, std::uint32_t node, std::uint32_t peer,
                    std::uint64_t a, std::uint64_t b, std::uint16_t name,
                    std::uint32_t aux) {
  TraceEvent ev;
  ev.at = clock_ != nullptr ? *clock_ : 0;
  ev.kind = static_cast<std::uint16_t>(kind);
  ev.name = name;
  ev.node = node;
  ev.peer = peer;
  ev.aux = aux;
  ev.a = a;
  ev.b = b;
  ev.span = cause_.span;
  ev.parent = cause_.parent;
  if (enabled_) {
    if (ring_.size() < capacity_) {
      if (ring_.empty()) ring_.reserve(capacity_);
      ring_.push_back(ev);
    } else {
      ring_[head_] = ev;  // overwrite the oldest
      head_ = (head_ + 1) % capacity_;
      ++dropped_;
    }
  }
  if (sink_) sink_(ev);
}

std::vector<TraceEvent> Tracer::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

void Tracer::clear() {
  ring_.clear();  // keeps the reservation
  head_ = 0;
  dropped_ = 0;
}

std::vector<std::uint8_t> Tracer::bytes() const {
  util::Writer w;
  for (std::uint8_t m : kMagic) w.u8(m);
  w.u32(kVersion);
  w.u64(dropped_);
  w.u32(static_cast<std::uint32_t>(names_.size()));
  for (const auto& n : names_) w.str(n);
  w.u64(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const TraceEvent& ev = ring_[(head_ + i) % capacity_];
    w.u64(static_cast<std::uint64_t>(ev.at));
    w.u16(ev.kind);
    w.u16(ev.name);
    w.u32(ev.node);
    w.u32(ev.peer);
    w.u32(ev.aux);
    w.u64(ev.a);
    w.u64(ev.b);
    w.u64(ev.span);
    w.u64(ev.parent);
  }
  return w.take_u8();
}

bool Tracer::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> data = bytes();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(data.data(), 1, data.size(), f) == data.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
  return ok;
}

Tracer::File Tracer::from_bytes(std::span<const std::uint8_t> data) {
  util::Reader r(data);
  for (std::uint8_t m : kMagic) {
    if (r.u8() != m) throw util::SerdeError("bad trace magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kVersion) throw util::SerdeError("unsupported trace version");
  File f;
  f.dropped = r.u64();
  const std::uint32_t nnames = r.u32();
  f.names.reserve(std::min<std::size_t>(nnames, r.remaining()));
  for (std::uint32_t i = 0; i < nnames; ++i) f.names.push_back(r.str());
  const std::uint64_t nevents = r.u64();
  // Clamp reserve by what the buffer can hold so a hostile count prefix
  // cannot force a huge allocation.
  f.events.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(nevents, r.remaining() / kEventWireSize)));
  for (std::uint64_t i = 0; i < nevents; ++i) {
    TraceEvent ev;
    ev.at = static_cast<std::int64_t>(r.u64());
    ev.kind = r.u16();
    ev.name = r.u16();
    ev.node = r.u32();
    ev.peer = r.u32();
    ev.aux = r.u32();
    ev.a = r.u64();
    ev.b = r.u64();
    ev.span = r.u64();
    ev.parent = r.u64();
    if (ev.name >= f.names.size()) throw util::SerdeError("trace name id out of range");
    f.events.push_back(ev);
  }
  if (!r.done()) throw util::SerdeError("trailing bytes after trace");
  return f;
}

Tracer::File Tracer::read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw util::SerdeError("cannot open trace file: " + path);
  std::vector<std::uint8_t> data;
  std::uint8_t buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.insert(data.end(), buf, buf + n);
  }
  // A short read due to an I/O error would otherwise parse as a "truncated
  // trace" (or worse, silently as a smaller valid one) — fail loudly instead.
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw util::SerdeError("read error on trace file: " + path);
  return from_bytes(data);
}

namespace {

// One Chrome trace-event object. The async tx span ("b"/"n"/"e") shares
// id/cat/name across its three phases so the viewer stitches them.
void append_chrome_event(std::string& out, const Tracer::File& f,
                         const TraceEvent& ev, bool* first) {
  const auto kind = static_cast<EventKind>(ev.kind);
  const char* kname = event_kind_name(kind);

  const auto open = [&](const char* ph, const char* name_override) {
    if (!*first) out += ",\n";
    *first = false;
    out += "    {\"name\": \"";
    json_escape_to(out, name_override != nullptr ? name_override : kname);
    out += "\", \"ph\": \"";
    out += ph;
    out += "\", \"ts\": ";
    append_i64_dec(out, ev.at);
    out += ", \"pid\": 0, \"tid\": ";
    append_u64_dec(out, ev.node);
  };
  const auto args_common = [&] {
    out += ", \"args\": {\"peer\": ";
    append_u64_dec(out, ev.peer);
    out += ", \"a\": ";
    append_u64_dec(out, ev.a);
    out += ", \"b\": ";
    append_u64_dec(out, ev.b);
    if (ev.name != 0 && ev.name < f.names.size()) {
      out += ", \"label\": \"";
      json_escape_to(out, f.names[ev.name]);
      out += "\"";
    }
    if (kind == EventKind::kMsgDrop) {
      out += ", \"reason\": \"";
      out += drop_reason_name(ev.a);
      out += "\"";
    }
    if (kind == EventKind::kReconcileRound) {
      out += ", \"outcome\": \"";
      out += reconcile_outcome_name(ev.a);
      out += "\"";
    }
    if (ev.span != 0) {
      out += ", \"span\": ";
      append_u64_dec(out, ev.span);
      out += ", \"parent\": ";
      append_u64_dec(out, ev.parent);
    }
    if (ev.aux != 0) {
      out += ", \"shard\": ";
      append_u64_dec(out, ev.aux);
    }
    out += "}";
  };

  // Thread-scoped instant for every event.
  open("i", nullptr);
  out += ", \"s\": \"t\"";
  args_common();
  out += "}";

  // Transaction lifecycle additionally renders as an async span keyed by the
  // short tx id, so Perfetto draws submission -> inclusion as one bar.
  const char* span_ph = nullptr;
  if (kind == EventKind::kTxSubmit) span_ph = "b";
  if (kind == EventKind::kTxAdmit) span_ph = "n";
  if (kind == EventKind::kTxCommit) span_ph = "n";
  if (kind == EventKind::kTxCensored) span_ph = "n";
  if (kind == EventKind::kTxFinalize) span_ph = "e";
  if (span_ph != nullptr) {
    open(span_ph, "tx.lifespan");
    out += ", \"cat\": \"tx\", \"id\": \"0x";
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(ev.a));
    out += buf;
    out += "\"";
    args_common();
    out += "}";
  }
}

}  // namespace

std::string chrome_json(const Tracer::File& f) {
  std::string out = "{\n  \"displayTimeUnit\": \"ms\",\n";
  out += "  \"otherData\": {\"dropped_events\": ";
  append_u64_dec(out, f.dropped);
  out += "},\n  \"traceEvents\": [\n";
  out += "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, "
         "\"tid\": 0, \"args\": {\"name\": \"lo-sim\"}}";
  bool first = false;
  for (const TraceEvent& ev : f.events) {
    append_chrome_event(out, f, ev, &first);
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string chrome_json(const Tracer& t) {
  Tracer::File f;
  f.dropped = t.dropped();
  f.names = t.names();
  f.events = t.events();
  return chrome_json(f);
}

}  // namespace lo::obs

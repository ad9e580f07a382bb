#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace lo::obs {

namespace {

bool bad_id_char(char c) {
  return c == '{' || c == '}' || c == ',' || c == '=' || c == '"' ||
         c == '\n' || c == '\r';
}

void check_token(std::string_view s, const char* what) {
  if (s.empty()) throw std::invalid_argument(std::string("empty metric ") + what);
  for (char c : s) {
    if (bad_id_char(c)) {
      throw std::invalid_argument(std::string("reserved character in metric ") +
                                  what + ": " + std::string(s));
    }
  }
}

// Escapes the few characters metric ids can still contain that JSON strings
// cannot hold verbatim.
void json_escape_to(std::string& out, std::string_view s) {
  for (char c : s) {
    if (c == '\\' || c == '"') {
      out.push_back('\\');
      out.push_back(c);
    } else {
      out.push_back(c);
    }
  }
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  out += buf;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "obs: cannot write %s\n", path.c_str());
    return false;
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "obs: short write to %s\n", path.c_str());
  return ok;
}

// The name part of a canonical id ("lo.retries{node=3}" -> "lo.retries").
std::string_view id_name(std::string_view id) {
  const std::size_t brace = id.find('{');
  return brace == std::string_view::npos ? id : id.substr(0, brace);
}

}  // namespace

std::string metric_id(std::string_view name, const Labels& labels) {
  check_token(name, "name");
  if (labels.empty()) return std::string(name);
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string id(name);
  id.push_back('{');
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    check_token(sorted[i].first, "label key");
    check_token(sorted[i].second, "label value");
    if (i > 0) {
      if (sorted[i].first == sorted[i - 1].first) {
        throw std::invalid_argument("duplicate metric label key: " +
                                    sorted[i].first);
      }
      id.push_back(',');
    }
    id += sorted[i].first;
    id.push_back('=');
    id += sorted[i].second;
  }
  id.push_back('}');
  return id;
}

const char* metric_kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void LogHistogram::observe(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  int bucket = kZeroBucket;
  if (v > 0.0) {
    int e = 0;
    std::frexp(v, &e);  // v = m * 2^e, m in [0.5, 1)  =>  v in [2^(e-1), 2^e)
    bucket = e - 1;
  }
  ++buckets_[bucket];
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile out of range");
  // Rank of the q-th sample (1-based, nearest-rank).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count_))));
  std::uint64_t cum = 0;
  for (const auto& [e, c] : buckets_) {
    cum += c;
    if (cum >= rank) {
      if (e == kZeroBucket) return min_;
      const double mid = std::ldexp(std::sqrt(2.0), e);  // 2^(e + 0.5)
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (const auto& [e, c] : other.buckets_) buckets_[e] += c;
}

void LogHistogram::clear() {
  count_ = 0;
  sum_ = 0.0;
  min_ = 0.0;
  max_ = 0.0;
  buckets_.clear();
}

Registry::Cell& Registry::cell(std::string_view name, const Labels& labels,
                               MetricKind kind) {
  const std::string id = metric_id(name, labels);
  auto [it, inserted] = cells_.try_emplace(id);
  if (inserted) {
    it->second.kind = kind;
  } else if (it->second.kind != kind) {
    throw std::invalid_argument("metric kind mismatch for " + id + ": have " +
                                metric_kind_name(it->second.kind) +
                                ", requested " + metric_kind_name(kind));
  }
  return it->second;
}

std::uint64_t& Registry::counter(std::string_view name, const Labels& labels) {
  return cell(name, labels, MetricKind::kCounter).counter;
}

double& Registry::gauge(std::string_view name, const Labels& labels) {
  return cell(name, labels, MetricKind::kGauge).gauge;
}

LogHistogram& Registry::histogram(std::string_view name, const Labels& labels) {
  return cell(name, labels, MetricKind::kHistogram).hist;
}

bool Registry::contains(std::string_view name, const Labels& labels) const {
  return cells_.find(metric_id(name, labels)) != cells_.end();
}

std::size_t Registry::size() const { return cells_.size(); }

Registry::Snapshot Registry::snapshot() const { return cells_; }

void Registry::clear() { cells_.clear(); }

std::string Registry::to_json(std::string_view suite) const {
  std::string out;
  out += "{\n  \"context\": {\n    \"bench_suite\": \"";
  json_escape_to(out, suite);
  out += "\",\n    \"exporter\": \"lo_obs\"\n  },\n  \"metrics\": [\n";
  std::size_t i = 0;
  for (const auto& [id, c] : cells_) {
    out += "    {\n      \"id\": \"";
    json_escape_to(out, id);
    out += "\",\n      \"kind\": \"";
    out += metric_kind_name(c.kind);
    out += "\",\n";
    switch (c.kind) {
      case MetricKind::kCounter:
        out += "      \"value\": ";
        append_u64(out, c.counter);
        out += "\n";
        break;
      case MetricKind::kGauge:
        out += "      \"value\": ";
        append_double(out, c.gauge);
        out += "\n";
        break;
      case MetricKind::kHistogram: {
        out += "      \"count\": ";
        append_u64(out, c.hist.count());
        out += ",\n      \"sum\": ";
        append_double(out, c.hist.sum());
        out += ",\n      \"min\": ";
        append_double(out, c.hist.min());
        out += ",\n      \"max\": ";
        append_double(out, c.hist.max());
        out += ",\n      \"p50\": ";
        append_double(out, c.hist.quantile(0.5));
        out += ",\n      \"p95\": ";
        append_double(out, c.hist.quantile(0.95));
        out += ",\n      \"p99\": ";
        append_double(out, c.hist.quantile(0.99));
        out += ",\n      \"buckets\": [";
        std::size_t j = 0;
        for (const auto& [e, n] : c.hist.buckets()) {
          if (j++ > 0) out += ", ";
          out += "{\"exp\": ";
          char buf[16];
          std::snprintf(buf, sizeof(buf), "%d", e);
          out += buf;
          out += ", \"count\": ";
          append_u64(out, n);
          out += "}";
        }
        out += "]\n";
        break;
      }
    }
    out += "    }";
    if (++i < cells_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

std::string Registry::to_csv() const {
  std::string out = "id,kind,value,count,sum,min,max,p50,p95,p99\n";
  for (const auto& [id, c] : cells_) {
    out += id;
    out.push_back(',');
    out += metric_kind_name(c.kind);
    out.push_back(',');
    switch (c.kind) {
      case MetricKind::kCounter:
        append_u64(out, c.counter);
        out += ",,,,,,,";
        break;
      case MetricKind::kGauge:
        append_double(out, c.gauge);
        out += ",,,,,,,";
        break;
      case MetricKind::kHistogram:
        out.push_back(',');
        append_u64(out, c.hist.count());
        out.push_back(',');
        append_double(out, c.hist.sum());
        out.push_back(',');
        append_double(out, c.hist.min());
        out.push_back(',');
        append_double(out, c.hist.max());
        out.push_back(',');
        append_double(out, c.hist.quantile(0.5));
        out.push_back(',');
        append_double(out, c.hist.quantile(0.95));
        out.push_back(',');
        append_double(out, c.hist.quantile(0.99));
        break;
    }
    out.push_back('\n');
  }
  return out;
}

bool Registry::write_json(const std::string& path,
                          std::string_view suite) const {
  return write_text_file(path, to_json(suite));
}

bool Registry::write_csv(const std::string& path) const {
  return write_text_file(path, to_csv());
}

Registry::Snapshot rollup(const Registry::Snapshot& snap) {
  Registry::Snapshot out;
  for (const auto& [id, src] : snap) {
    const std::string name(id_name(id));
    auto [it, inserted] = out.try_emplace(name);
    Registry::Cell& dst = it->second;
    if (inserted) {
      dst.kind = src.kind;
    } else if (dst.kind != src.kind) {
      throw std::invalid_argument("metric kind conflict rolling up " + name);
    }
    dst.counter += src.counter;
    dst.gauge += src.gauge;
    dst.hist.merge(src.hist);
  }
  return out;
}

Registry& Scope::registry() {
  if (reg_ != nullptr) return *reg_;
  if (!fallback_) fallback_ = std::make_shared<Registry>();
  return *fallback_;
}

Labels Scope::merged(const Labels& extra) const {
  if (extra.empty()) return labels_;
  Labels out = labels_;
  out.insert(out.end(), extra.begin(), extra.end());
  return out;
}

}  // namespace lo::obs

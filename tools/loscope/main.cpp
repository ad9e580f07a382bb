// loscope CLI — causal transaction forensics over LOTR traces.
//
//   loscope <trace.lotrace> summary            [--json|--csv]
//   loscope <trace.lotrace> lineage <txid>     [--json|--csv]
//   loscope <trace.lotrace> censorship         [--json|--csv]
//   loscope <trace.lotrace> detection          [--json|--csv]
//   loscope <trace.lotrace> shards             [--json|--csv]
//   loscope <trace.lotrace> chrome             [out.json]
//
// Exit codes: 0 success, 1 bad input or output (unreadable/corrupt trace,
// unknown txid, unwritable out.json), 2 usage error.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <utility>

#include "loscope.hpp"
#include "obs/trace.hpp"

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: loscope <trace.lotrace> <command> [args] [--json|--csv]\n"
      "commands:\n"
      "  summary            whole-trace totals and causal coverage\n"
      "  lineage <txid>     cross-node story of one transaction\n"
      "  censorship         per-tx dwell times and censorship proofs\n"
      "  detection          accountability latency decomposition\n"
      "  shards             per-shard event rollups\n"
      "  chrome [out.json]  Chrome/Perfetto JSON (default <trace>.json)\n");
  return 2;
}

// Writes the Perfetto-loadable JSON form of a capture; JSON is an order of
// magnitude larger than the binary form, so it is made on demand only.
int write_chrome(const lo::obs::Tracer::File& f, const std::string& out) {
  const std::string json = lo::obs::chrome_json(f);
  std::FILE* fp = std::fopen(out.c_str(), "wb");
  if (fp == nullptr) {
    std::fprintf(stderr, "loscope: cannot open %s for writing\n", out.c_str());
    return 1;
  }
  const std::size_t n = std::fwrite(json.data(), 1, json.size(), fp);
  if (std::fclose(fp) != 0 || n != json.size()) {
    std::fprintf(stderr, "loscope: short write to %s\n", out.c_str());
    return 1;
  }
  std::printf("loscope: %zu events -> %s\n", f.events.size(), out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lo;
  if (argc < 3) return usage();
  const std::string path = argv[1];
  const std::string cmd = argv[2];

  loscope::Format fmt = loscope::Format::kText;
  std::string arg;  // lineage's txid or chrome's output path
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      fmt = loscope::Format::kJson;
    } else if (std::strcmp(argv[i], "--csv") == 0) {
      fmt = loscope::Format::kCsv;
    } else if (arg.empty()) {
      arg = argv[i];
    } else {
      return usage();
    }
  }

  try {
    auto file = obs::Tracer::read_file(path);
    if (cmd == "chrome") {
      return write_chrome(file, arg.empty() ? path + ".json" : arg);
    }
    const auto model = loscope::TraceModel::build(std::move(file));
    std::string out;
    if (cmd == "summary") {
      out = loscope::render_summary(loscope::summarize(model), fmt);
    } else if (cmd == "lineage") {
      const auto txid = loscope::parse_txid(arg);
      if (!txid) {
        std::fprintf(stderr, "loscope: bad or missing txid '%s'\n",
                     arg.c_str());
        return 2;
      }
      const auto l = loscope::lineage(model, *txid);
      if (!l) {
        std::fprintf(stderr,
                     "loscope: no lifecycle events for tx %016llx in %s\n",
                     static_cast<unsigned long long>(*txid), path.c_str());
        return 1;
      }
      out = loscope::render_lineage(model, *l, fmt);
    } else if (cmd == "censorship") {
      out = loscope::render_censorship(loscope::censorship(model), fmt);
    } else if (cmd == "detection") {
      out = loscope::render_detection(loscope::detection(model), fmt);
    } else if (cmd == "shards") {
      out = loscope::render_shards(loscope::shards(model), fmt);
    } else {
      return usage();
    }
    std::fputs(out.c_str(), stdout);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loscope: %s\n", e.what());
    return 1;
  }
}

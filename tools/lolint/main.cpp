// lolint CLI — scans src/, tests/ and bench/ of the repo rooted at --root
// (default: the current directory) and prints every finding as
//   <file>:<line>: error: [<rule>] <message>
// Exit status: 0 clean, 1 findings, 2 usage or I/O error.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lolint.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--root DIR] [subdir...]\n"
               "  Lints DIR/<subdir> for determinism & protocol-safety "
               "violations.\n"
               "  Default subdirs: src tests bench\n"
               "  Rules: banned-source unordered-iter float-in-protocol\n"
               "         relative-include serde-symmetry mutable-static\n"
               "         hot-path-alloc serde-field-coverage (+ bad-allow)\n"
               "  Suppress one finding with:\n"
               "    // lolint:allow(<rule-id>) reason=<why it is safe>\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  bool dump_names = false;
  std::vector<std::string> subdirs;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--dump-names") == 0) {
      dump_names = true;
    } else if (std::strcmp(argv[i], "--root") == 0) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        return 2;
      }
      root = argv[++i];
    } else if (std::strcmp(argv[i], "--help") == 0 ||
               std::strcmp(argv[i], "-h") == 0) {
      usage(argv[0]);
      return 0;
    } else if (argv[i][0] == '-') {
      usage(argv[0]);
      return 2;
    } else {
      subdirs.push_back(argv[i]);
    }
  }
  if (subdirs.empty()) subdirs = {"src", "tests", "bench"};

  std::vector<lolint::FileInput> files;
  std::string error;
  if (!lolint::load_tree(root, subdirs, &files, &error)) {
    std::fprintf(stderr, "lolint: %s\n", error.c_str());
    return 2;
  }
  if (files.empty()) {
    std::fprintf(stderr, "lolint: no sources found under %s\n", root.c_str());
    return 2;
  }

  if (dump_names) {
    const auto names = lolint::collect_unordered_names(files);
    for (const auto& n : names.global) std::printf("global %s\n", n.c_str());
    for (const auto& [file, set] : names.local) {
      for (const auto& n : set) {
        std::printf("local  %s  %s\n", file.c_str(), n.c_str());
      }
    }
    return 0;
  }

  const auto findings = lolint::lint_files(files);
  for (const auto& f : findings) {
    std::printf("%s:%d: error: [%s] %s\n", f.file.c_str(), f.line,
                f.rule.c_str(), f.message.c_str());
  }
  std::printf("lolint: %zu file(s) scanned, %zu finding(s)\n", files.size(),
              findings.size());
  return findings.empty() ? 0 : 1;
}

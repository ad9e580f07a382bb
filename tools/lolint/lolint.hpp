// lolint — determinism & protocol-safety static analysis for the LØ tree.
//
// A standalone, dependency-free lint pass that enforces the repo invariants
// backing the bit-for-bit replayability guarantee (DESIGN.md "Determinism
// rules"). It is deliberately a *text-level* analysis: fast, hermetic, and
// conservative. The dynamic same-seed replay test (tests/test_determinism.cpp)
// is the semantic backstop for whatever a textual pass cannot see.
//
// Rules (ids in brackets are what lolint:allow() takes):
//   [banned-source]     nondeterminism sources (std::rand, random_device,
//                       system_clock/steady_clock, getenv, raw time()) outside
//                       src/util/rng.* and src/sim/.
//   [unordered-iter]    range-for / iterator loops over unordered_{map,set}
//                       in protocol directories (core, enforcement, consensus,
//                       baselines, overlay, minisketch).
//   [float-in-protocol] float/double members in serialized structs, or f64()
//                       wire calls, in protocol directories.
//   [relative-include]  #include "../..." escaping the -Isrc include root.
//   [serde-symmetry]    a struct/TU with serialize() but no deserialize().
//   [bad-allow]         malformed lolint:allow annotation (unknown rule id or
//                       empty reason).
//
// Symbol-aware rules (v2 — see symbols.hpp):
//   [mutable-static]    non-const namespace-scope variable, class-level
//                       static, or function-local static or thread_local
//                       outside tests/ — state shared by every simulation
//                       in the process.
//   [hot-path-alloc]    new/make_unique/make_shared or vector growth
//                       (push_back/emplace_back/resize/reserve) inside a
//                       ScopedProfile-instrumented function body.
//   [serde-field-coverage] a field of a struct with write()/read() wire
//                       methods that appears in one body but not the other.
//
// Allow annotation grammar (suppresses exactly ONE rule, on the annotated
// line or, when written on a comment-only line, on the next code line):
//   // lolint:allow(<rule-id>) reason=<non-empty free text to end of line>
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "symbols.hpp"

namespace lolint {

struct Finding {
  std::string file;  // repo-relative path, '/' separators
  int line = 0;      // 1-based
  std::string rule;
  std::string message;

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    return rule < o.rule;
  }
};

struct FileInput {
  std::string path;  // repo-relative path, '/' separators
  std::string content;
};

// Identifiers known (or inferred) to denote unordered associative containers.
struct NameTable {
  // Members (trailing '_') and functions returning unordered containers —
  // visible across translation units.
  std::set<std::string> global;
  // File-scoped locals / parameters / `auto x = <unordered expr>` bindings.
  std::map<std::string, std::set<std::string>> local;

  bool contains(const std::string& file, const std::string& name) const;
};

// Cross-TU symbol knowledge for the v2 rules: which classes exist and their
// fields (declared in headers, possibly a different TU than the methods).
struct Symbols {
  struct Class {
    std::vector<FieldSymbol> fields;
  };
  NameTable names;
  std::map<std::string, Class> classes;  // key: ns::...::Class
};

// All valid rule ids (everything lolint:allow may name).
const std::vector<std::string>& rule_ids();

// Directory predicates, on repo-relative paths.
bool is_protocol_path(const std::string& path);
bool is_rng_exempt_path(const std::string& path);
bool is_test_path(const std::string& path);

// Replaces comments and string/char-literal bodies with spaces, preserving
// the line structure so offsets keep mapping to the same line numbers.
std::string strip_comments(const std::string& content);

// Pass 1a: harvest unordered-container names from every scanned file.
NameTable collect_unordered_names(const std::vector<FileInput>& files);

// Pass 1: full cross-TU symbol harvest (unordered names + class fields).
Symbols collect_symbols(const std::vector<FileInput>& files);

// Pass 2: lint one file against the global symbol table. Findings are sorted.
std::vector<Finding> lint_file(const FileInput& file, const Symbols& symbols);

// Convenience: both passes over a whole file set.
std::vector<Finding> lint_files(const std::vector<FileInput>& files);

// Loads every *.hpp/*.h/*.cpp/*.cc under root/<subdir> for each subdir, in
// sorted path order. Returns false and sets *error on I/O failure.
bool load_tree(const std::string& root, const std::vector<std::string>& subdirs,
               std::vector<FileInput>* out, std::string* error);

}  // namespace lolint

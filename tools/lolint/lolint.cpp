#include "lolint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace lolint {
namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool ident_start(char c) { return ident_char(c) && !(c >= '0' && c <= '9'); }

std::size_t skip_space(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
    ++i;
  }
  return i;
}

// Is s[pos..pos+tok.size()) the token `tok` with identifier boundaries?
bool token_at(const std::string& s, std::size_t pos, const std::string& tok) {
  if (pos + tok.size() > s.size()) return false;
  if (s.compare(pos, tok.size(), tok) != 0) return false;
  if (pos > 0 && ident_char(s[pos - 1])) return false;
  const std::size_t end = pos + tok.size();
  if (end < s.size() && ident_char(s[end])) return false;
  return true;
}

// Finds the next boundary-checked occurrence of `tok` at or after `from`.
std::size_t find_token(const std::string& s, const std::string& tok,
                       std::size_t from) {
  for (std::size_t i = s.find(tok, from); i != std::string::npos;
       i = s.find(tok, i + 1)) {
    if (token_at(s, i, tok)) return i;
  }
  return std::string::npos;
}

int line_of(const std::string& s, std::size_t pos) {
  return 1 + static_cast<int>(std::count(s.begin(),
                                         s.begin() + static_cast<std::ptrdiff_t>(
                                                         std::min(pos, s.size())),
                                         '\n'));
}

std::string read_ident(const std::string& s, std::size_t& i) {
  std::string out;
  if (i < s.size() && ident_start(s[i])) {
    while (i < s.size() && ident_char(s[i])) out.push_back(s[i++]);
  }
  return out;
}

// Skips a balanced <...> starting at the '<' at position i; returns the
// position just past the matching '>', or npos when unbalanced.
std::size_t skip_angle(const std::string& s, std::size_t i) {
  if (i >= s.size() || s[i] != '<') return std::string::npos;
  int depth = 0;
  for (; i < s.size(); ++i) {
    if (s[i] == '<') ++depth;
    else if (s[i] == '>') {
      if (--depth == 0) return i + 1;
    } else if (s[i] == ';') {
      return std::string::npos;  // statement ended inside: not a template arg
    }
  }
  return std::string::npos;
}

// Skips a balanced (...) starting at the '(' at position i; returns the
// position just past the matching ')', or npos.
std::size_t skip_paren(const std::string& s, std::size_t i) {
  if (i >= s.size() || s[i] != '(') return std::string::npos;
  int depth = 0;
  for (; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    else if (s[i] == ')') {
      if (--depth == 0) return i + 1;
    }
  }
  return std::string::npos;
}

std::vector<std::string> split_lines(const std::string& s) {
  std::vector<std::string> lines;
  std::string cur;
  for (char c : s) {
    if (c == '\n') {
      lines.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  lines.push_back(cur);
  return lines;
}

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// ------------------------------------------------------------------ allows --

struct AllowEntry {
  std::string rule;    // empty when malformed
  std::string reason;  // may be empty (malformed)
  bool well_formed = false;
};

// Parses every lolint:allow(...) annotation on one raw source line.
std::vector<AllowEntry> parse_allows(const std::string& raw_line) {
  std::vector<AllowEntry> out;
  const std::string kMarker = "lolint:allow";
  for (std::size_t i = raw_line.find(kMarker); i != std::string::npos;
       i = raw_line.find(kMarker, i + 1)) {
    AllowEntry e;
    std::size_t p = i + kMarker.size();
    p = skip_space(raw_line, p);
    if (p < raw_line.size() && raw_line[p] == '(') {
      const std::size_t close = raw_line.find(')', p);
      if (close != std::string::npos) {
        e.rule = trim(raw_line.substr(p + 1, close - p - 1));
        std::size_t q = skip_space(raw_line, close + 1);
        if (raw_line.compare(q, 7, "reason=") == 0) {
          e.reason = trim(raw_line.substr(q + 7));
        }
      }
    }
    const auto& ids = rule_ids();
    e.well_formed = !e.reason.empty() &&
                    std::find(ids.begin(), ids.end(), e.rule) != ids.end();
    out.push_back(std::move(e));
  }
  return out;
}

// Per-file allow index: line number -> set of allowed rule ids. An allow on a
// comment-only line also covers the next line that carries code.
struct AllowIndex {
  std::map<int, std::set<std::string>> by_line;
  std::vector<Finding> malformed;  // bad-allow findings

  bool allowed(int line, const std::string& rule) const {
    auto it = by_line.find(line);
    return it != by_line.end() && it->second.count(rule) != 0;
  }
};

AllowIndex build_allow_index(const FileInput& f, const std::string& stripped) {
  AllowIndex idx;
  const auto raw_lines = split_lines(f.content);
  const auto code_lines = split_lines(stripped);
  for (std::size_t li = 0; li < raw_lines.size(); ++li) {
    const auto allows = parse_allows(raw_lines[li]);
    if (allows.empty()) continue;
    const int line = static_cast<int>(li + 1);
    const bool comment_only =
        li < code_lines.size() && trim(code_lines[li]).empty();
    for (const auto& a : allows) {
      if (!a.well_formed) {
        idx.malformed.push_back(
            {f.path, line, "bad-allow",
             "malformed lolint:allow — expected lolint:allow(<rule-id>) "
             "reason=<non-empty text>; got rule='" +
                 a.rule + "', reason='" + a.reason + "'"});
        continue;
      }
      idx.by_line[line].insert(a.rule);
      if (comment_only) {
        // Attach to the next line carrying code (skipping the rest of the
        // comment block and blank lines).
        for (std::size_t lj = li + 1; lj < code_lines.size(); ++lj) {
          if (!trim(code_lines[lj]).empty()) {
            idx.by_line[static_cast<int>(lj + 1)].insert(a.rule);
            break;
          }
        }
      }
    }
  }
  return idx;
}

// ------------------------------------------------------------ name harvest --

// Classifies the declarator that follows a (possibly aliased) unordered
// container type ending at position `pos` in the stripped content.
void classify_declarator(const std::string& code, std::size_t pos,
                         const std::string& file, NameTable* table) {
  std::size_t i = skip_space(code, pos);
  bool is_ref = false;
  while (i < code.size() && (code[i] == '&' || code[i] == '*')) {
    is_ref = true;
    i = skip_space(code, i + 1);
  }
  const std::string name = read_ident(code, i);
  if (name.empty()) return;
  i = skip_space(code, i);
  if (i >= code.size()) return;
  const char next = code[i];
  if (next == '(') {
    // Function returning an unordered container (by ref or value), or a local
    // constructed in place — either way, iterating the result is hash-order.
    table->global.insert(name);
  } else if (next == ';' || next == '=' || next == '{' || next == ',' ||
             next == ')') {
    if (!name.empty() && name.back() == '_') {
      table->global.insert(name);  // member: visible from other TUs
    } else {
      table->local[file].insert(name);  // local / parameter
    }
  }
  (void)is_ref;
}

void harvest_file(const FileInput& f, const std::string& code,
                  NameTable* table, std::set<std::string>* aliases) {
  // Direct declarations: ... unordered_map<...> name / unordered_set<...> name
  for (const std::string& kw : {std::string("unordered_map"),
                                std::string("unordered_set")}) {
    for (std::size_t i = find_token(code, kw, 0); i != std::string::npos;
         i = find_token(code, kw, i + 1)) {
      std::size_t p = i + kw.size();
      if (p >= code.size() || code[p] != '<') continue;
      const std::size_t after = skip_angle(code, p);
      if (after == std::string::npos) continue;
      classify_declarator(code, after, f.path, table);
    }
  }
  // Type aliases: using Name = ... unordered_...<...>;
  for (std::size_t i = find_token(code, "using", 0); i != std::string::npos;
       i = find_token(code, "using", i + 1)) {
    std::size_t p = skip_space(code, i + 5);
    const std::string name = read_ident(code, p);
    if (name.empty()) continue;
    p = skip_space(code, p);
    if (p >= code.size() || code[p] != '=') continue;
    const std::size_t semi = code.find(';', p);
    if (semi == std::string::npos) continue;
    const std::string rhs = code.substr(p, semi - p);
    if (rhs.find("unordered_map<") != std::string::npos ||
        rhs.find("unordered_set<") != std::string::npos) {
      aliases->insert(name);
    }
  }
}

void harvest_alias_decls(const FileInput& f, const std::string& code,
                         const std::set<std::string>& aliases,
                         NameTable* table) {
  for (const auto& alias : aliases) {
    for (std::size_t i = find_token(code, alias, 0); i != std::string::npos;
         i = find_token(code, alias, i + 1)) {
      classify_declarator(code, i + alias.size(), f.path, table);
    }
  }
}

bool expr_mentions_unordered(const std::string& expr, const std::string& file,
                             const NameTable& table, std::string* which) {
  if (expr.find("unordered_") != std::string::npos) {
    *which = "unordered container expression";
    return true;
  }
  for (std::size_t i = 0; i < expr.size();) {
    if (ident_start(expr[i]) && (i == 0 || !ident_char(expr[i - 1]))) {
      std::size_t j = i;
      const std::string name = read_ident(expr, j);
      if (table.contains(file, name)) {
        *which = "'" + name + "'";
        return true;
      }
      i = j;
    } else {
      ++i;
    }
  }
  return false;
}

// Last identifier of an expression tail (e.g. "registry_.latest_all" ->
// "latest_all").
std::string last_ident(const std::string& s) {
  std::size_t e = s.size();
  while (e > 0 && !ident_char(s[e - 1])) --e;
  std::size_t b = e;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, e - b);
}

// `auto x = <unordered container expr>;` propagates unordered-ness to x.
//
// Deliberately narrow to avoid false positives: the initializer must *be* the
// container — a bare unordered name, a call whose callee's final identifier is
// an unordered accessor (`registry_.latest_all()`), or a `find()`/`at()` on an
// unordered name (the resulting iterator/reference exposes hash-ordered
// content for map-of-container types).
void propagate_auto_bindings(const FileInput& f, const std::string& code,
                             NameTable* table) {
  for (std::size_t i = find_token(code, "auto", 0); i != std::string::npos;
       i = find_token(code, "auto", i + 1)) {
    std::size_t p = skip_space(code, i + 4);
    while (p < code.size() && (code[p] == '&' || code[p] == '*')) {
      p = skip_space(code, p + 1);
    }
    const std::string name = read_ident(code, p);
    if (name.empty()) continue;
    p = skip_space(code, p);
    if (p >= code.size() || code[p] != '=') continue;
    // Initializer extent: up to ';', '{', or the ')' closing an enclosing
    // if/while condition — whichever comes first at depth zero.
    std::size_t q = p + 1;
    int depth = 0;
    for (; q < code.size(); ++q) {
      const char c = code[q];
      if (c == '(') ++depth;
      else if (c == ')') {
        if (depth == 0) break;
        --depth;
      } else if ((c == ';' || c == '{') && depth == 0) {
        break;
      }
    }
    std::string core = trim(code.substr(p + 1, q - p - 1));
    // Strip one trailing call-argument group: "expr(...)" -> "expr".
    if (!core.empty() && core.back() == ')') {
      int d = 0;
      std::size_t open = std::string::npos;
      for (std::size_t k = core.size(); k-- > 0;) {
        if (core[k] == ')') ++d;
        else if (core[k] == '(') {
          if (--d == 0) {
            open = k;
            break;
          }
        }
      }
      if (open == std::string::npos) continue;
      core = trim(core.substr(0, open));
    }
    const std::string tail = last_ident(core);
    if (tail.empty()) continue;
    bool unordered = table->contains(f.path, tail);
    if (!unordered && (tail == "find" || tail == "at")) {
      std::string base = core.substr(0, core.size() - tail.size());
      while (!base.empty() &&
             (base.back() == '.' || base.back() == '>' || base.back() == '-' ||
              std::isspace(static_cast<unsigned char>(base.back())))) {
        base.pop_back();
      }
      unordered = table->contains(f.path, last_ident(base));
    }
    if (unordered) table->local[f.path].insert(name);
  }
}

// ------------------------------------------------------------ struct scopes --

struct StructScope {
  std::string name;
  std::size_t body_begin = 0;  // position just past '{'
  std::size_t body_end = 0;    // position of matching '}'
  int line = 0;
};

std::vector<StructScope> find_struct_scopes(const std::string& code) {
  std::vector<StructScope> out;
  for (const std::string& kw : {std::string("struct"), std::string("class")}) {
    for (std::size_t i = find_token(code, kw, 0); i != std::string::npos;
         i = find_token(code, kw, i + 1)) {
      std::size_t p = skip_space(code, i + kw.size());
      const std::string name = read_ident(code, p);
      if (name.empty()) continue;
      // Walk to '{' allowing a base-clause; bail on ';' (fwd decl) or '('.
      std::size_t q = p;
      bool found_brace = false;
      for (; q < code.size(); ++q) {
        if (code[q] == '{') {
          found_brace = true;
          break;
        }
        if (code[q] == ';' || code[q] == '(' || code[q] == ')') break;
      }
      if (!found_brace) continue;
      int depth = 0;
      std::size_t r = q;
      for (; r < code.size(); ++r) {
        if (code[r] == '{') ++depth;
        else if (code[r] == '}') {
          if (--depth == 0) break;
        }
      }
      if (r >= code.size()) continue;
      out.push_back({name, q + 1, r, line_of(code, i)});
    }
  }
  return out;
}

// --------------------------------------------------------------- the rules --

void check_banned_sources(const FileInput& f, const std::string& code,
                          const AllowIndex& allows,
                          std::vector<Finding>* out) {
  if (is_rng_exempt_path(f.path)) return;
  static const struct {
    const char* token;
    const char* what;
  } kBanned[] = {
      {"rand", "std::rand"},
      {"srand", "std::srand"},
      {"random_device", "std::random_device"},
      {"system_clock", "std::chrono::system_clock"},
      {"steady_clock", "std::chrono::steady_clock"},
      {"high_resolution_clock", "std::chrono::high_resolution_clock"},
      {"getenv", "std::getenv"},
      {"time", "raw time()"},
  };
  for (const auto& b : kBanned) {
    const std::string tok = b.token;
    for (std::size_t i = find_token(code, tok, 0); i != std::string::npos;
         i = find_token(code, tok, i + 1)) {
      // `rand` and `time` only count as calls: require '(' right after.
      if (tok == "rand" || tok == "time" || tok == "srand" || tok == "getenv") {
        const std::size_t p = skip_space(code, i + tok.size());
        if (p >= code.size() || code[p] != '(') continue;
      }
      const int line = line_of(code, i);
      if (allows.allowed(line, "banned-source")) continue;
      out->push_back(
          {f.path, line, "banned-source",
           std::string(b.what) +
               " is a nondeterminism source; draw from lo::util::Rng (seeded) "
               "or the simulator clock instead"});
    }
  }
}

void check_unordered_iter(const FileInput& f, const std::string& code,
                          const NameTable& names, const AllowIndex& allows,
                          std::vector<Finding>* out) {
  if (!is_protocol_path(f.path)) return;
  for (std::size_t i = find_token(code, "for", 0); i != std::string::npos;
       i = find_token(code, "for", i + 1)) {
    const std::size_t open = skip_space(code, i + 3);
    if (open >= code.size() || code[open] != '(') continue;
    const std::size_t close = skip_paren(code, open);
    if (close == std::string::npos) continue;
    const std::string header = code.substr(open + 1, close - open - 2);
    const int line = line_of(code, i);

    // Find a top-level ':' (range-for separator), skipping '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t k = 0; k < header.size(); ++k) {
      const char c = header[k];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ':' && depth == 0) {
        if (k + 1 < header.size() && header[k + 1] == ':') { ++k; continue; }
        if (k > 0 && header[k - 1] == ':') continue;
        colon = k;
        break;
      }
    }

    std::string which;
    bool hit = false;
    if (colon != std::string::npos) {
      const std::string range = header.substr(colon + 1);
      // A range wrapped in the sorted extraction helpers IS the fix.
      if (find_token(range, "sorted_keys", 0) != std::string::npos ||
          find_token(range, "sorted_items", 0) != std::string::npos) {
        continue;
      }
      hit = expr_mentions_unordered(range, f.path, names, &which);
    } else {
      // Classic for: look for NAME.begin() / NAME.cbegin() iterator loops.
      for (const char* b : {".begin", ".cbegin"}) {
        const std::size_t bp = header.find(b);
        if (bp == std::string::npos || bp == 0) continue;
        std::size_t e = bp;
        while (e > 0 && ident_char(header[e - 1])) --e;
        const std::string name = header.substr(e, bp - e);
        if (names.contains(f.path, name)) {
          which = "'" + name + "'";
          hit = true;
          break;
        }
      }
    }
    if (!hit) continue;
    if (allows.allowed(line, "unordered-iter")) continue;
    out->push_back(
        {f.path, line, "unordered-iter",
         "iteration over unordered container " + which +
             " in a protocol directory — hash order is platform-dependent "
             "and must not reach messages, digests or peer selection; use "
             "lo::util::sorted_keys()/sorted_items() (util/ordered.hpp) or "
             "annotate: // lolint:allow(unordered-iter) reason=<why order "
             "cannot escape>"});
  }
}

void check_float_in_protocol(const FileInput& f, const std::string& code,
                             const AllowIndex& allows,
                             std::vector<Finding>* out) {
  if (!is_protocol_path(f.path)) return;
  // f64() wire reads/writes: floating point has no canonical wire semantics
  // across FPU modes; protocol messages must stay integral.
  for (std::size_t i = find_token(code, "f64", 0); i != std::string::npos;
       i = find_token(code, "f64", i + 1)) {
    if (i == 0 || (code[i - 1] != '.' && code[i - 1] != '>')) continue;
    const std::size_t p = i + 3;
    if (p >= code.size() || code[p] != '(') continue;
    const int line = line_of(code, i);
    if (allows.allowed(line, "float-in-protocol")) continue;
    out->push_back({f.path, line, "float-in-protocol",
                    "f64() wire field in a protocol directory — serialized "
                    "messages must use integral types (fixed-point if needed)"});
  }
  // float/double members inside serialized structs.
  for (const auto& scope : find_struct_scopes(code)) {
    const std::string body =
        code.substr(scope.body_begin, scope.body_end - scope.body_begin);
    if (find_token(body, "serialize", 0) == std::string::npos) continue;
    for (const std::string& kw : {std::string("float"), std::string("double")}) {
      for (std::size_t i = find_token(body, kw, 0); i != std::string::npos;
           i = find_token(body, kw, i + 1)) {
        std::size_t p = skip_space(body, i + kw.size());
        const std::string name = read_ident(body, p);
        if (name.empty()) continue;
        p = skip_space(body, p);
        if (p >= body.size()) continue;
        if (body[p] != ';' && body[p] != '=' && body[p] != '{') continue;
        const int line = line_of(code, scope.body_begin + i);
        if (allows.allowed(line, "float-in-protocol")) continue;
        out->push_back(
            {f.path, line, "float-in-protocol",
             kw + " member '" + name + "' in serialized struct '" + scope.name +
                 "' — protocol state must be integral (floating point "
                 "round-trips are platform/FPU-mode dependent)"});
      }
    }
  }
}

void check_relative_include(const FileInput& f, const AllowIndex& allows,
                            std::vector<Finding>* out) {
  const auto lines = split_lines(f.content);
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string t = trim(lines[li]);
    if (t.rfind("#include", 0) != 0) continue;
    if (t.find("\"../") == std::string::npos &&
        t.find("\"./") == std::string::npos) {
      continue;
    }
    const int line = static_cast<int>(li + 1);
    if (allows.allowed(line, "relative-include")) continue;
    out->push_back({f.path, line, "relative-include",
                    "relative #include escapes the include root — use a "
                    "root-relative path (e.g. \"core/node.hpp\")"});
  }
}

void check_serde_symmetry(const FileInput& f, const std::string& code,
                          const AllowIndex& allows,
                          std::vector<Finding>* out) {
  if (f.path.rfind("src/", 0) != 0) return;
  // (a) In-class: a struct declaring serialize() must declare deserialize
  //     in the same scope (or the TU must define Name::deserialize).
  for (const auto& scope : find_struct_scopes(code)) {
    const std::string body =
        code.substr(scope.body_begin, scope.body_end - scope.body_begin);
    const std::size_t ser = find_token(body, "serialize", 0);
    if (ser == std::string::npos) continue;
    if (find_token(body, "deserialize", 0) != std::string::npos) continue;
    if (code.find(scope.name + "::deserialize") != std::string::npos) continue;
    const int line = line_of(code, scope.body_begin + ser);
    if (allows.allowed(line, "serde-symmetry")) continue;
    out->push_back({f.path, line, "serde-symmetry",
                    "struct '" + scope.name +
                        "' has serialize() but no matching deserialize() in "
                        "this translation unit — round-trip coverage is how "
                        "wire-format drift gets caught"});
  }
  // (b) Out-of-line: every X::serialize definition needs an X::deserialize.
  std::map<std::string, int> ser_defs;
  std::set<std::string> deser_defs;
  const std::string kSer = "::serialize";
  for (std::size_t i = code.find(kSer); i != std::string::npos;
       i = code.find(kSer, i + 1)) {
    std::size_t e = i;
    while (e > 0 && ident_char(code[e - 1])) --e;
    const std::string qual = code.substr(e, i - e);
    if (!qual.empty() && ser_defs.find(qual) == ser_defs.end()) {
      ser_defs[qual] = line_of(code, i);
    }
  }
  const std::string kDeser = "::deserialize";
  for (std::size_t i = code.find(kDeser); i != std::string::npos;
       i = code.find(kDeser, i + 1)) {
    std::size_t e = i;
    while (e > 0 && ident_char(code[e - 1])) --e;
    deser_defs.insert(code.substr(e, i - e));
  }
  for (const auto& [qual, line] : ser_defs) {
    if (deser_defs.count(qual) != 0) continue;
    // The in-class pass already reports structs defined in this file.
    if (code.find("struct " + qual) != std::string::npos ||
        code.find("class " + qual) != std::string::npos) {
      continue;
    }
    if (allows.allowed(line, "serde-symmetry")) continue;
    out->push_back({f.path, line, "serde-symmetry",
                    "'" + qual +
                        "::serialize' is defined here but '" + qual +
                        "::deserialize' is not — keep both sides of the wire "
                        "format in one translation unit"});
  }
}

// ------------------------------------------------- v2 symbol-aware rules --

// Resolves a function's enclosing/qualifying class to a key in the global
// class map: exact "ns::qualifier" first, then a unique suffix match.
std::string resolve_class_key(const Symbols& syms, const FunctionSymbol& fn) {
  if (fn.cls.empty()) return "";
  const std::string exact = fn.ns.empty() ? fn.cls : fn.ns + "::" + fn.cls;
  if (syms.classes.count(exact) != 0) return exact;
  std::string found;
  const std::string suffix = "::" + fn.cls;
  for (const auto& [key, cls] : syms.classes) {
    (void)cls;
    const bool match =
        key == fn.cls ||
        (key.size() > suffix.size() &&
         key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0);
    if (!match) continue;
    if (!found.empty()) return "";  // ambiguous across namespaces: skip
    found = key;
  }
  return found;
}

// `.push_back(` / `->resize(` etc. — the grow-only container calls that can
// allocate on a hot path. tok k must be the method-name identifier.
bool is_growth_call(const std::vector<Token>& toks, std::size_t k,
                    std::size_t end) {
  static const std::set<std::string> kGrow = {"push_back", "emplace_back",
                                             "resize", "reserve"};
  if (kGrow.count(toks[k].text) == 0) return false;
  if (k == 0) return false;
  const std::string& prev = toks[k - 1].text;
  if (prev != "." && prev != "->") return false;
  return k + 1 < end && toks[k + 1].text == "(";
}

void check_mutable_static(const FileInput& f, const TuIndex& idx,
                          const AllowIndex& allows,
                          std::vector<Finding>* out) {
  if (is_test_path(f.path)) return;
  for (const auto& s : idx.statics) {
    if (s.is_const) continue;
    if (!allows.allowed(s.line, "mutable-static")) {
      const char* where =
          s.scope == StaticSymbol::Scope::kNamespace
              ? "namespace-scope variable"
              : (s.scope == StaticSymbol::Scope::kClassStatic
                     ? "static data member"
                     : "function-local static");
      out->push_back(
          {f.path, s.line, "mutable-static",
           std::string("mutable ") + where + " '" + s.name +
               "' — process-global mutable state is shared by every "
               "simulation in the process; make it const, move it into an "
               "owned object, or annotate: // lolint:allow(mutable-static) "
               "reason=<why sharing it across simulations is safe>"});
    }
  }
}

void check_hot_path_alloc(const FileInput& f, const TuIndex& idx,
                          const AllowIndex& allows,
                          std::vector<Finding>* out) {
  if (is_test_path(f.path)) return;
  const auto& toks = idx.tokens;
  for (const auto& fn : idx.functions) {
    if (fn.body_end <= fn.body_begin) continue;
    bool instrumented = false;
    for (std::size_t k = fn.body_begin; k < fn.body_end; ++k) {
      if (toks[k].kind == TokKind::kIdent && toks[k].text == "ScopedProfile") {
        instrumented = true;
        break;
      }
    }
    if (!instrumented) continue;
    for (std::size_t k = fn.body_begin; k < fn.body_end; ++k) {
      if (toks[k].kind != TokKind::kIdent) continue;
      const std::string& s = toks[k].text;
      std::string what;
      if (s == "new" &&
          (k == fn.body_begin ||
           (toks[k - 1].text != "." && toks[k - 1].text != "->"))) {
        what = "operator new";
      } else if ((s == "make_unique" || s == "make_shared") &&
                 k + 1 < fn.body_end &&
                 (toks[k + 1].text == "<" || toks[k + 1].text == "(")) {
        what = "std::" + s;
      } else if (is_growth_call(toks, k, fn.body_end)) {
        what = s + "()";
      }
      if (what.empty()) continue;
      const int line = toks[k].line;
      if (allows.allowed(line, "hot-path-alloc")) continue;
      out->push_back(
          {f.path, line, "hot-path-alloc",
           what + " inside ScopedProfile-instrumented function '" + fn.name +
               "' — hot paths must reuse warmed workspaces (PolyPool / "
               "Decoder buffers); hoist the allocation or annotate: "
               "// lolint:allow(hot-path-alloc) reason=<amortization "
               "argument>"});
    }
  }
}

void check_serde_field_coverage(const FileInput& f, const TuIndex& idx,
                                const Symbols& syms, const AllowIndex& allows,
                                std::vector<Finding>* out) {
  if (f.path.rfind("src/", 0) != 0) return;
  // Gather this TU's write()/read() bodies per resolved class.
  struct Bodies {
    std::vector<const FunctionSymbol*> write_fns, read_fns;
  };
  std::map<std::string, Bodies> per_class;
  for (const auto& fn : idx.functions) {
    if (fn.body_end <= fn.body_begin) continue;
    if (fn.name != "write" && fn.name != "read") continue;
    const std::string key = resolve_class_key(syms, fn);
    if (key.empty()) continue;
    if (fn.name == "write") {
      per_class[key].write_fns.push_back(&fn);
    } else {
      per_class[key].read_fns.push_back(&fn);
    }
  }
  const auto& toks = idx.tokens;
  const auto body_idents = [&](const std::vector<const FunctionSymbol*>& fns) {
    std::set<std::string> names;
    for (const auto* fn : fns) {
      for (std::size_t k = fn->body_begin; k < fn->body_end; ++k) {
        if (toks[k].kind == TokKind::kIdent) names.insert(toks[k].text);
      }
    }
    return names;
  };
  for (const auto& [key, bodies] : per_class) {
    if (bodies.write_fns.empty() || bodies.read_fns.empty()) continue;
    const auto cls_it = syms.classes.find(key);
    if (cls_it == syms.classes.end()) continue;
    const auto in_write = body_idents(bodies.write_fns);
    const auto in_read = body_idents(bodies.read_fns);
    for (const auto& fd : cls_it->second.fields) {
      if (fd.is_const) continue;
      const bool w = in_write.count(fd.name) != 0;
      const bool r = in_read.count(fd.name) != 0;
      if (w == r) continue;
      // Anchor at the body that is missing the field, so the allow sits on
      // the definition that owns the asymmetry.
      const FunctionSymbol* anchor =
          w ? bodies.read_fns.front() : bodies.write_fns.front();
      if (allows.allowed(anchor->line, "serde-field-coverage")) continue;
      out->push_back(
          {f.path, anchor->line, "serde-field-coverage",
           "field '" + fd.name + "' of '" + key + "' is " +
               (w ? "written by write() but never touched by read()"
                  : "read by read() but never emitted by write()") +
               " — wire coverage must be field-symmetric (or annotate the "
               "lagging side: // lolint:allow(serde-field-coverage) "
               "reason=<why the field is derived>)"});
    }
  }
}

}  // namespace

bool NameTable::contains(const std::string& file,
                         const std::string& name) const {
  if (global.count(name) != 0) return true;
  auto it = local.find(file);
  return it != local.end() && it->second.count(name) != 0;
}

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = {
      "banned-source",        "unordered-iter",
      "float-in-protocol",    "relative-include",
      "serde-symmetry",       "mutable-static",
      "hot-path-alloc",       "serde-field-coverage",
  };
  return kIds;
}

bool is_protocol_path(const std::string& path) {
  static const char* kDirs[] = {"src/core/",      "src/enforcement/",
                                "src/consensus/", "src/baselines/",
                                "src/overlay/",   "src/minisketch/",
                                "src/obs/",       "src/membership/",
                                "src/harness/"};
  for (const char* d : kDirs) {
    if (path.rfind(d, 0) == 0) return true;
  }
  return false;
}

bool is_rng_exempt_path(const std::string& path) {
  return path.rfind("src/util/rng.", 0) == 0 || path.rfind("src/sim/", 0) == 0;
}

bool is_test_path(const std::string& path) {
  return path.rfind("tests/", 0) == 0;
}

std::string strip_comments(const std::string& content) {
  std::string out;
  out.reserve(content.size());
  enum class State { kCode, kLine, kBlock, kString, kChar };
  State st = State::kCode;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char n = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (st) {
      case State::kCode:
        if (c == '/' && n == '/') {
          st = State::kLine;
          out += "  ";
          ++i;
        } else if (c == '/' && n == '*') {
          st = State::kBlock;
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = State::kString;
          out += '"';
        } else if (c == '\'') {
          st = State::kChar;
          out += '\'';
        } else {
          out += c;
        }
        break;
      case State::kLine:
        if (c == '\n') {
          st = State::kCode;
          out += '\n';
        } else {
          out += ' ';
        }
        break;
      case State::kBlock:
        if (c == '*' && n == '/') {
          st = State::kCode;
          out += "  ";
          ++i;
        } else {
          out += (c == '\n') ? '\n' : ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && n != '\0') {
          out += "  ";
          ++i;
        } else if (c == '"') {
          st = State::kCode;
          out += '"';
        } else {
          out += (c == '\n') ? '\n' : ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && n != '\0') {
          out += "  ";
          ++i;
        } else if (c == '\'') {
          st = State::kCode;
          out += '\'';
        } else {
          out += (c == '\n') ? '\n' : ' ';
        }
        break;
    }
  }
  return out;
}

NameTable collect_unordered_names(const std::vector<FileInput>& files) {
  NameTable table;
  std::set<std::string> aliases;
  std::vector<std::string> stripped;
  stripped.reserve(files.size());
  for (const auto& f : files) {
    stripped.push_back(strip_comments(f.content));
    harvest_file(f, stripped.back(), &table, &aliases);
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    harvest_alias_decls(files[i], stripped[i], aliases, &table);
  }
  // Two propagation rounds handle auto chains (a = m; b = a;).
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < files.size(); ++i) {
      propagate_auto_bindings(files[i], stripped[i], &table);
    }
  }
  return table;
}

Symbols collect_symbols(const std::vector<FileInput>& files) {
  Symbols syms;
  syms.names = collect_unordered_names(files);
  for (const auto& f : files) {
    TuIndex idx = index_tu(strip_comments(f.content));
    for (auto& fd : idx.fields) {
      syms.classes[fd.class_key].fields.push_back(std::move(fd));
    }
  }
  return syms;
}

std::vector<Finding> lint_file(const FileInput& file, const Symbols& symbols) {
  std::vector<Finding> out;
  const std::string code = strip_comments(file.content);
  const AllowIndex allows = build_allow_index(file, code);
  out.insert(out.end(), allows.malformed.begin(), allows.malformed.end());
  check_banned_sources(file, code, allows, &out);
  check_unordered_iter(file, code, symbols.names, allows, &out);
  check_float_in_protocol(file, code, allows, &out);
  check_relative_include(file, allows, &out);
  check_serde_symmetry(file, code, allows, &out);
  const TuIndex idx = index_tu(code);
  check_mutable_static(file, idx, allows, &out);
  check_hot_path_alloc(file, idx, allows, &out);
  check_serde_field_coverage(file, idx, symbols, allows, &out);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Finding> lint_files(const std::vector<FileInput>& files) {
  const Symbols symbols = collect_symbols(files);
  std::vector<Finding> out;
  for (const auto& f : files) {
    const auto fs = lint_file(f, symbols);
    out.insert(out.end(), fs.begin(), fs.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool load_tree(const std::string& root, const std::vector<std::string>& subdirs,
               std::vector<FileInput>* out, std::string* error) {
  namespace fs = std::filesystem;
  std::vector<fs::path> paths;
  for (const auto& sub : subdirs) {
    const fs::path dir = fs::path(root) / sub;
    if (!fs::exists(dir)) continue;
    std::error_code ec;
    for (auto it = fs::recursive_directory_iterator(dir, ec);
         !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".hpp" || ext == ".h" || ext == ".cpp" || ext == ".cc") {
        paths.push_back(it->path());
      }
    }
    if (ec) {
      if (error) *error = "cannot walk " + dir.string() + ": " + ec.message();
      return false;
    }
  }
  std::sort(paths.begin(), paths.end());
  for (const auto& p : paths) {
    std::ifstream in(p, std::ios::binary);
    if (!in) {
      if (error) *error = "cannot read " + p.string();
      return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string rel =
        fs::relative(p, fs::path(root)).generic_string();
    out->push_back({rel, ss.str()});
  }
  return true;
}

}  // namespace lolint

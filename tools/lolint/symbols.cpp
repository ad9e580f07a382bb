#include "symbols.hpp"

#include <algorithm>
#include <set>

namespace lolint {
namespace {

bool ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool ident_start(char c) { return ident_char(c) && !(c >= '0' && c <= '9'); }

bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }
bool is_text(const Token& t, const char* s) { return t.text == s; }

const char* const kMultiPunct[] = {
    "<<=", ">>=", "...", "::", "->", "++", "--", "+=", "-=", "*=", "/=",
    "%=",  "&=",  "|=",  "^=", "<<", ">>", "==", "!=", "<=", ">=", "&&",
    "||",
};

}  // namespace

std::vector<Token> tokenize(const std::string& stripped) {
  std::vector<Token> out;
  int line = 1;
  bool at_line_start = true;  // only whitespace seen on this line so far
  std::size_t i = 0;
  const std::size_t n = stripped.size();
  while (i < n) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor directive: drop through the end of the (continued) line.
      while (i < n) {
        if (stripped[i] == '\\' && i + 1 < n && stripped[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        if (stripped[i] == '\n') break;  // the '\n' itself is handled above
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(stripped[j])) ++j;
      out.push_back({TokKind::kIdent, stripped.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (c >= '0' && c <= '9') {
      // Swallow pp-number-ish spellings: hex, suffixes, floats, exponents.
      std::size_t j = i;
      while (j < n && (ident_char(stripped[j]) || stripped[j] == '.' ||
                       stripped[j] == '\'')) {
        const char d = stripped[j];
        ++j;
        if ((d == 'e' || d == 'E' || d == 'p' || d == 'P') && j < n &&
            (stripped[j] == '+' || stripped[j] == '-')) {
          ++j;
        }
      }
      out.push_back({TokKind::kNumber, stripped.substr(i, j - i), line});
      i = j;
      continue;
    }
    // Punctuation: longest match from the multi-char table, else one char.
    std::string text(1, c);
    for (const char* m : kMultiPunct) {
      const std::size_t len = std::char_traits<char>::length(m);
      if (stripped.compare(i, len, m) == 0) {
        text = m;
        break;
      }
    }
    out.push_back({TokKind::kPunct, text, line});
    i += text.size();
  }
  return out;
}

namespace {

// ------------------------------------------------------------------ parser --

struct Frame {
  enum class Kind { kNamespace, kClass, kFunction, kBlock };
  Kind kind = Kind::kBlock;
  std::string name;          // namespace / class name; "" otherwise
  int func_index = -1;       // into TuIndex::functions for kFunction
  std::size_t stmt_begin = 0;  // token index where the current statement began
};

const std::set<std::string>& control_keywords() {
  static const std::set<std::string> kSet = {
      "if",     "for",      "while",  "switch",   "catch",  "return",
      "sizeof", "alignof",  "decltype", "new",    "delete", "noexcept",
      "assert", "static_assert", "defined", "constexpr", "alignas",
  };
  return kSet;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> toks) : t_(std::move(toks)) {}

  TuIndex run() {
    const std::size_t n = t_.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Token& tok = t_[i];
      if (is_ident(tok) && tok.text == "namespace" && !in_function()) {
        i = handle_namespace(i);
        continue;
      }
      if (is_ident(tok) && (tok.text == "class" || tok.text == "struct" ||
                            tok.text == "union") &&
          !in_function()) {
        const std::size_t adv = handle_class(i);
        if (adv != i) {
          i = adv;
          continue;
        }
        continue;  // elaborated type / fwd decl: fall through harmlessly
      }
      if (is_ident(tok) && tok.text == "enum" && !in_function()) {
        i = skip_enum(i);
        continue;
      }
      if (is_ident(tok) &&
          (tok.text == "static" || tok.text == "thread_local") &&
          in_function()) {
        // `static thread_local` carries two trigger tokens; record the
        // declaration once, at its first one.
        const bool preceded_by_trigger =
            i > 0 && is_ident(t_[i - 1]) &&
            (t_[i - 1].text == "static" || t_[i - 1].text == "thread_local");
        if (!preceded_by_trigger) record_local_static(i);
        continue;  // lookahead only; scope tracking continues token-by-token
      }
      if (tok.text == "{") {
        open_brace(i);
        continue;
      }
      if (tok.text == "}") {
        close_brace(i);
        continue;
      }
      if (tok.text == ";") {
        end_statement(i);
        continue;
      }
      if (at_class_scope() && is_ident(tok) &&
          (tok.text == "public" || tok.text == "private" ||
           tok.text == "protected") &&
          i + 1 < n && t_[i + 1].text == ":") {
        set_stmt_begin(i + 2);
        ++i;
        continue;
      }
    }
    idx_.tokens = std::move(t_);
    return std::move(idx_);
  }

 private:
  std::vector<Token> t_;
  std::vector<Frame> stack_;
  TuIndex idx_;
  std::size_t top_stmt_begin_ = 0;  // statement tracking at file scope

  bool in_function() const {
    for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
      if (it->kind == Frame::Kind::kFunction) return true;
      if (it->kind == Frame::Kind::kClass ||
          it->kind == Frame::Kind::kNamespace) {
        return false;
      }
    }
    return false;
  }

  bool at_class_scope() const {
    return !stack_.empty() && stack_.back().kind == Frame::Kind::kClass;
  }

  bool at_namespace_scope() const {
    return stack_.empty() || stack_.back().kind == Frame::Kind::kNamespace;
  }

  std::size_t stmt_begin() const {
    return stack_.empty() ? top_stmt_begin_ : stack_.back().stmt_begin;
  }

  void set_stmt_begin(std::size_t i) {
    if (stack_.empty()) {
      top_stmt_begin_ = i;
    } else {
      stack_.back().stmt_begin = i;
    }
  }

  std::string namespace_chain() const {
    std::string out;
    for (const auto& f : stack_) {
      if (f.kind != Frame::Kind::kNamespace) continue;
      if (!out.empty()) out += "::";
      out += f.name.empty() ? "<anon>" : f.name;
    }
    return out;
  }

  std::string class_chain() const {
    std::string out;
    for (const auto& f : stack_) {
      if (f.kind != Frame::Kind::kClass) continue;
      if (!out.empty()) out += "::";
      out += f.name;
    }
    return out;
  }

  std::string class_key() const {
    const std::string ns = namespace_chain();
    const std::string cls = class_chain();
    if (ns.empty()) return cls;
    return cls.empty() ? ns : ns + "::" + cls;
  }

  // --- namespace / class / enum headers ---

  std::size_t handle_namespace(std::size_t i) {
    std::string name;
    std::size_t j = i + 1;
    while (j < t_.size() &&
           (is_ident(t_[j]) || is_text(t_[j], "::"))) {
      name += t_[j].text;
      ++j;
    }
    if (j < t_.size() && is_text(t_[j], "{")) {
      stack_.push_back({Frame::Kind::kNamespace, name, -1, j + 1});
      return j;
    }
    // namespace alias / using-directive tail: let the main loop continue.
    return i;
  }

  // Returns the index to resume from (the '{' when a definition was entered).
  std::size_t handle_class(std::size_t i) {
    std::size_t j = i + 1;
    // Skip attributes: [[...]]
    while (j + 1 < t_.size() && is_text(t_[j], "[") && is_text(t_[j + 1], "[")) {
      int depth = 0;
      for (; j < t_.size(); ++j) {
        if (t_[j].text == "[") ++depth;
        else if (t_[j].text == "]" && --depth == 0) { ++j; break; }
      }
    }
    std::string name;
    while (j < t_.size() && (is_ident(t_[j]) || is_text(t_[j], "::"))) {
      if (is_ident(t_[j]) && t_[j].text != "final" &&
          t_[j].text != "alignas") {
        name = t_[j].text;  // last identifier wins (skips macro-ish prefixes)
      }
      ++j;
    }
    // Walk to '{' allowing a base clause; bail on ';' (fwd/elaborated) or '('.
    int angle = 0;
    for (; j < t_.size(); ++j) {
      const std::string& s = t_[j].text;
      if (s == "<") ++angle;
      else if (s == ">") angle = std::max(0, angle - 1);
      else if (s == ">>") angle = std::max(0, angle - 2);
      else if (s == "{" && angle == 0) {
        stack_.push_back({Frame::Kind::kClass, name, -1, j + 1});
        return j;
      } else if ((s == ";" || s == "(" || s == ")" || s == "=") && angle == 0) {
        break;
      }
    }
    return i;
  }

  std::size_t skip_enum(std::size_t i) {
    std::size_t j = i + 1;
    for (; j < t_.size(); ++j) {
      if (is_text(t_[j], ";")) return j;  // opaque enum declaration
      if (is_text(t_[j], "{")) break;
    }
    if (j >= t_.size()) return t_.size();
    int depth = 0;
    for (; j < t_.size(); ++j) {
      if (t_[j].text == "{") ++depth;
      else if (t_[j].text == "}" && --depth == 0) break;
    }
    set_stmt_begin(j + 1);
    return j;
  }

  // --- braces ---

  // Walks back from the '{' at index i to decide whether it opens a function
  // body; fills *name_idx with the function-name token index when it does.
  bool is_function_body(std::size_t i, std::size_t* name_idx) const {
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
    bool seen_arrow_target = false;
    while (k >= 0) {
      const Token& tk = t_[static_cast<std::size_t>(k)];
      if (tk.text == ")") {
        const std::ptrdiff_t open = match_back(k, "(", ")");
        if (open <= 0) return false;
        const Token& before = t_[static_cast<std::size_t>(open - 1)];
        // Skip qualifier-position spec groups: noexcept(...), throw(),
        // __attribute__((...)).
        if (is_ident(before) &&
            (before.text == "noexcept" || before.text == "throw" ||
             before.text == "__attribute__")) {
          k = open - 2;
          continue;
        }
        if (is_ident(before)) {
          if (control_keywords().count(before.text) != 0) return false;
          // Member-initializer-list entry: `: a_(1), b_(2) {` — keep walking.
          const std::ptrdiff_t sep = open - 2;
          if (sep >= 0 &&
              (t_[static_cast<std::size_t>(sep)].text == "," ||
               (t_[static_cast<std::size_t>(sep)].text == ":" &&
                !(sep > 0 &&
                  t_[static_cast<std::size_t>(sep - 1)].text == ":")))) {
            if (t_[static_cast<std::size_t>(sep)].text == ",") {
              k = sep - 1;
              continue;
            }
            // Reached the ':' that starts the init list: the token before it
            // must close the parameter list.
            k = sep - 1;
            if (k >= 0 && t_[static_cast<std::size_t>(k)].text == ")") continue;
            return false;
          }
          *name_idx = static_cast<std::size_t>(open - 1);
          return true;
        }
        return false;  // lambda `](...)`, cast `)(...)`, etc.
      }
      if (is_ident(tk)) {
        if (tk.text == "const" || tk.text == "noexcept" ||
            tk.text == "override" || tk.text == "final" ||
            tk.text == "mutable" || tk.text == "try") {
          --k;
          continue;
        }
        if (control_keywords().count(tk.text) != 0) return false;
        // Possibly part of a trailing return type; keep walking only if an
        // `->` shows up before anything else surprising.
        seen_arrow_target = true;
        --k;
        continue;
      }
      if (tk.text == "::" || tk.text == "<" || tk.text == ">" ||
          tk.text == ">>" || tk.text == "*" || tk.text == "&" ||
          tk.text == "&&" || tk.text == ",") {
        seen_arrow_target = true;
        --k;
        continue;
      }
      if (tk.text == "->" && seen_arrow_target) {
        --k;
        continue;
      }
      return false;
    }
    return false;
  }

  // Finds the matching `open` for the `close` at index k, walking backwards.
  std::ptrdiff_t match_back(std::ptrdiff_t k, const char* open,
                            const char* close) const {
    int depth = 0;
    for (; k >= 0; --k) {
      const std::string& s = t_[static_cast<std::size_t>(k)].text;
      if (s == close) ++depth;
      else if (s == open && --depth == 0) return k;
    }
    return -1;
  }

  void open_brace(std::size_t i) {
    std::size_t name_idx = 0;
    if (is_function_body(i, &name_idx)) {
      FunctionSymbol fn;
      fn.ns = namespace_chain();
      fn.name = t_[name_idx].text;
      fn.line = t_[name_idx].line;
      fn.body_begin = i;
      // Qualifier chain: `A::B::name(`  →  cls = "A::B" (a destructor's
      // '~' sits between them).
      std::ptrdiff_t q = static_cast<std::ptrdiff_t>(name_idx) - 1;
      if (q >= 0 && t_[static_cast<std::size_t>(q)].text == "~") --q;
      std::string quals;
      while (q >= 1 && t_[static_cast<std::size_t>(q)].text == "::" &&
             is_ident(t_[static_cast<std::size_t>(q - 1)])) {
        const std::string& part = t_[static_cast<std::size_t>(q - 1)].text;
        quals = quals.empty() ? part : part + "::" + quals;
        q -= 2;
      }
      fn.cls = quals.empty() ? class_chain() : quals;
      idx_.functions.push_back(fn);
      stack_.push_back({Frame::Kind::kFunction, fn.name,
                        static_cast<int>(idx_.functions.size() - 1), i + 1});
      return;
    }
    stack_.push_back({Frame::Kind::kBlock, "", -1, i + 1});
  }

  void close_brace(std::size_t i) {
    if (stack_.empty()) return;
    const Frame top = stack_.back();
    stack_.pop_back();
    if (top.kind == Frame::Kind::kFunction) {
      idx_.functions[static_cast<std::size_t>(top.func_index)].body_end = i;
      set_stmt_begin(i + 1);
    } else if (top.kind == Frame::Kind::kClass ||
               top.kind == Frame::Kind::kNamespace) {
      set_stmt_begin(i + 1);
    }
    // kBlock: keep the enclosing statement accumulating (brace-init etc.).
  }

  // --- statements ---

  void end_statement(std::size_t i) {
    const std::size_t b = stmt_begin();
    if (at_class_scope()) {
      classify_member_statement(b, i);
    } else if (at_namespace_scope()) {
      classify_namespace_statement(b, i);
    }
    set_stmt_begin(i + 1);
  }

  struct DeclInfo {
    std::string name;
    int line = 0;
    bool found = false;
    bool is_function = false;
    bool is_const = false;
    bool is_static = false;
    bool is_extern = false;
    bool is_thread_local = false;
    bool skip = false;  // using/typedef/friend/nested-type/... statement
  };

  // Shared declaration scanner for class members and namespace-scope
  // variables: walks [b, e) at bracket depth 0, collecting decl-specifier
  // flags and locating the declarator name.
  DeclInfo scan_declaration(std::size_t b, std::size_t e) const {
    DeclInfo d;
    int angle = 0, paren = 0, brace = 0, square = 0;
    std::string last_ident;
    int last_ident_line = 0;
    bool prev_was_ident = false;
    for (std::size_t k = b; k < e; ++k) {
      const Token& tk = t_[k];
      const std::string& s = tk.text;
      if (s == "(") { ++paren; prev_was_ident = false; continue; }
      if (s == ")") { paren = std::max(0, paren - 1); prev_was_ident = false; continue; }
      if (s == "{") { ++brace; prev_was_ident = false; continue; }
      if (s == "}") { brace = std::max(0, brace - 1); prev_was_ident = false; continue; }
      if (s == "[") { ++square; prev_was_ident = false; continue; }
      if (s == "]") { square = std::max(0, square - 1); prev_was_ident = false; continue; }
      if (paren + brace + square > 0) { prev_was_ident = false; continue; }
      if (s == "<" && prev_was_ident) { ++angle; prev_was_ident = false; continue; }
      if (angle > 0) {
        if (s == ">") --angle;
        else if (s == ">>") angle = std::max(0, angle - 2);
        prev_was_ident = false;
        continue;
      }
      if (is_ident(tk)) {
        if (s == "using" || s == "typedef" || s == "friend" ||
            s == "template" || s == "static_assert" || s == "operator" ||
            s == "struct" || s == "class" || s == "enum" ||
            s == "namespace" || s == "union") {
          d.skip = true;
          return d;
        }
        if (s == "const" || s == "constexpr" || s == "consteval" ||
            s == "constinit") {
          d.is_const = true;
          prev_was_ident = false;
          continue;
        }
        if (s == "static") { d.is_static = true; prev_was_ident = false; continue; }
        if (s == "extern") { d.is_extern = true; prev_was_ident = false; continue; }
        if (s == "thread_local") { d.is_thread_local = true; prev_was_ident = false; continue; }
        if (s == "inline" || s == "virtual" || s == "explicit" ||
            s == "mutable" || s == "volatile" || s == "register" ||
            s == "unsigned" || s == "signed" || s == "long" || s == "short") {
          prev_was_ident = (s == "unsigned" || s == "signed" || s == "long" ||
                            s == "short");
          if (prev_was_ident) { last_ident = s; last_ident_line = tk.line; }
          continue;
        }
        last_ident = s;
        last_ident_line = tk.line;
        prev_was_ident = true;
        continue;
      }
      if (s == "=" || s == ";") {
        if (!d.found && !last_ident.empty()) {
          d.name = last_ident;
          d.line = last_ident_line;
          d.found = true;
        }
        if (s == "=") break;  // initializer follows; nothing more to learn
        prev_was_ident = false;
        continue;
      }
      prev_was_ident = false;
    }
    if (!d.found && !last_ident.empty()) {
      d.name = last_ident;
      d.line = last_ident_line;
      d.found = true;
    }
    return d;
  }

  // Did the declarator name come immediately before a '(' at depth 0 (i.e. a
  // function declaration rather than a variable)?
  bool looks_like_function_decl(std::size_t b, std::size_t e) const {
    int angle = 0, paren = 0, brace = 0, square = 0;
    bool prev_was_plain_ident = false;
    bool prev_was_ident_tok = false;
    for (std::size_t k = b; k < e; ++k) {
      const Token& tk = t_[k];
      const std::string& s = tk.text;
      if (angle > 0) {
        if (s == ">") --angle;
        else if (s == ">>") angle = std::max(0, angle - 2);
        else if (s == "<") ++angle;
        prev_was_plain_ident = prev_was_ident_tok = false;
        continue;
      }
      if (s == "(") {
        if (paren + brace + square == 0 && prev_was_plain_ident) return true;
        ++paren;
        prev_was_plain_ident = prev_was_ident_tok = false;
        continue;
      }
      if (s == ")") { paren = std::max(0, paren - 1); prev_was_plain_ident = prev_was_ident_tok = false; continue; }
      if (s == "{") { ++brace; prev_was_plain_ident = prev_was_ident_tok = false; continue; }
      if (s == "}") { brace = std::max(0, brace - 1); prev_was_plain_ident = prev_was_ident_tok = false; continue; }
      if (s == "[") { ++square; prev_was_plain_ident = prev_was_ident_tok = false; continue; }
      if (s == "]") { square = std::max(0, square - 1); prev_was_plain_ident = prev_was_ident_tok = false; continue; }
      if (paren + brace + square > 0) continue;
      if (s == "<" && prev_was_ident_tok) { ++angle; prev_was_plain_ident = prev_was_ident_tok = false; continue; }
      if (s == "=") return false;  // initializer: definitely a variable
      if (is_ident(tk)) {
        prev_was_ident_tok = true;
        // A '(' after these is their argument, not a parameter list.
        prev_was_plain_ident =
            !(tk.text == "noexcept" || tk.text == "__attribute__");
        continue;
      }
      prev_was_plain_ident = false;
      prev_was_ident_tok = false;
    }
    return false;
  }

  void classify_member_statement(std::size_t b, std::size_t e) {
    if (b >= e) return;
    DeclInfo d = scan_declaration(b, e);
    if (d.skip || !d.found) return;
    if (looks_like_function_decl(b, e)) return;
    // Anchor at the statement's first line so a comment-line allow above a
    // multi-line declaration covers it.
    d.line = t_[b].line;
    if (d.is_static) {
      if (!d.is_const) {
        idx_.statics.push_back({StaticSymbol::Scope::kClassStatic, d.name,
                                d.line, d.is_const, d.is_extern});
      }
      return;
    }
    FieldSymbol f;
    f.class_key = class_key();
    f.name = d.name;
    f.line = d.line;
    f.is_const = d.is_const;
    idx_.fields.push_back(f);
  }

  void classify_namespace_statement(std::size_t b, std::size_t e) {
    if (b >= e) return;
    // extern "C" linkage specs tokenize as `extern " ... "` — skip them.
    if (e - b >= 2 && is_text(t_[b], "extern") && t_[b + 1].text == "\"") {
      return;
    }
    const DeclInfo d = scan_declaration(b, e);
    if (d.skip || !d.found) return;
    if (looks_like_function_decl(b, e)) return;
    idx_.statics.push_back({StaticSymbol::Scope::kNamespace, d.name,
                            t_[b].line, d.is_const, d.is_extern});
  }

  // Function-local `static` / `thread_local` declaration at token i.
  void record_local_static(std::size_t i) {
    // Find the statement end without consuming (initializers may hold
    // lambdas whose braces the main loop still needs to see).
    std::size_t e = i;
    int paren = 0, brace = 0;
    for (; e < t_.size(); ++e) {
      const std::string& s = t_[e].text;
      if (s == "(") ++paren;
      else if (s == ")") paren = std::max(0, paren - 1);
      else if (s == "{") ++brace;
      else if (s == "}") {
        if (brace == 0) break;
        --brace;
      } else if ((s == ";" || s == "=") && paren + brace == 0) {
        break;
      }
    }
    const DeclInfo d = scan_declaration(i, e);
    if (d.skip || !d.found) return;
    // `static const Field f(8);` style ctor-init is a variable at function
    // scope, so no function-decl check here — but a name directly followed by
    // '(' with an empty flag set would be noise; require static/thread_local,
    // which the trigger token guarantees.
    if (!(d.is_static || d.is_thread_local)) return;
    idx_.statics.push_back({StaticSymbol::Scope::kFunctionLocal, d.name,
                            t_[i].line, d.is_const, d.is_extern});
  }
};

}  // namespace

TuIndex index_tu(const std::string& stripped) {
  Parser p(tokenize(stripped));
  return p.run();
}

}  // namespace lolint

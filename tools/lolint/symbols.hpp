// lolint v2 symbol layer — a preprocessor-aware tokenizer and a per-TU
// symbol index built by a scope-stack mini-parser.
//
// This is deliberately not a real C++ parser: it tracks just enough structure
// (namespace / class / function nesting, member-field declarations, static
// and thread_local declarations, function bodies) for the concurrency rules
// to reason about *symbols* instead of raw lines. Inputs are expected to be
// comment-stripped (lolint::strip_comments) so literals and comments cannot
// fake declarations; preprocessor directives are dropped during tokenization
// for the same reason.
//
// Known, accepted approximations (the dynamic tests are the backstop):
//   - constructors using member-initializer lists with brace-init are parsed
//     as plain blocks (their bodies are then invisible to the write scan —
//     conservative, since ctor writes are exempt anyway);
//   - multi-declarator statements (`int a, b;`) index the first name only;
//   - template metaprogramming beyond ordinary `template <...>` headers is
//     not modeled.
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

namespace lolint {

enum class TokKind { kIdent, kNumber, kPunct };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 0;  // 1-based
};

// Tokenizes comment-stripped C++ source. Preprocessor directives (from a
// line-leading '#' through the end of the line, following backslash
// continuations) produce no tokens.
std::vector<Token> tokenize(const std::string& stripped);

// A data member of a class/struct.
struct FieldSymbol {
  std::string class_key;  // fully scoped: ns::...::Class[::Nested]
  std::string name;
  int line = 0;
  bool is_const = false;      // const / constexpr anywhere in the decl-specifiers
  bool is_static = false;     // static data member
  bool is_mutable_kw = false; // declared C++ `mutable`
  bool is_mutex = false;      // type mentions Mutex/mutex/shared_mutex
  bool is_atomic = false;     // type mentions atomic
  bool guarded = false;       // LO_GUARDED_BY / LO_PT_GUARDED_BY present
};

// A function with a body in this TU (free function, in-class method, or
// out-of-line member definition).
struct FunctionSymbol {
  std::string ns;         // enclosing namespace chain ("lo::core"), may be ""
  std::string cls;        // enclosing class chain or the `X::` qualifier; ""
  std::string name;
  int line = 0;           // line of the function name token
  std::size_t body_begin = 0;  // token index of the opening '{'
  std::size_t body_end = 0;    // token index of the matching '}'
  bool is_ctor_or_dtor = false;
};

// A namespace-scope variable, class-level static, or function-local
// static/thread_local declaration.
struct StaticSymbol {
  enum class Scope { kNamespace, kClassStatic, kFunctionLocal };
  Scope scope = Scope::kNamespace;
  std::string name;
  int line = 0;
  bool is_const = false;
  bool is_thread_local = false;
  bool is_extern = false;
};

struct TuIndex {
  std::vector<Token> tokens;
  std::vector<FieldSymbol> fields;
  std::vector<FunctionSymbol> functions;
  std::vector<StaticSymbol> statics;
  // Class keys that declare at least one LO_GUARDED_BY/LO_PT_GUARDED_BY field
  // in this TU.
  std::set<std::string> capability_classes;
};

// Builds the symbol index for one comment-stripped translation unit.
TuIndex index_tu(const std::string& stripped);

}  // namespace lolint

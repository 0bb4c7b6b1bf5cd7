// mfa_lint: the repo's in-tree static checker.
//
// clang-tidy and -Wthread-safety see what the compiler sees; this tool
// checks the invariants that live *between* functions and files — the
// project conventions a generic checker has no vocabulary for:
//
//   serialize-determinism  nothing reachable from a serialization root
//                          (to_json / serialize*) may iterate unordered
//                          containers, call rand(), or key a map by
//                          pointer — serialized bytes are replay/WAL
//                          contracts and must be stable.
//   mutex-hygiene          in any class holding an mfa::Mutex member,
//                          every sibling data member must carry
//                          MFA_GUARDED_BY (or a justified suppression).
//   banned-io              std::cout / std::cerr / printf outside
//                          src/cli and bench code.
//   solver-clock           wall-clock reads (time(), clock(),
//                          system_clock, …) and bare rand() in solver /
//                          gp / core / alloc paths, which must stay
//                          deterministic under replay.
//
// Everything is lexical: a dependency-free tokenizer (comments, strings
// and preprocessor lines stripped; identifiers matched word-exact, so
// `time(` never matches `start_time(`), a per-file structural pass
// (function definitions, class bodies) and a name-based call graph over
// the scanned tree. Lexical means approximate — the tool prefers
// missing an exotic construct over false-positives on idiomatic code,
// and every rule supports explicit, justified suppression:
//
//   // mfa-lint: allow(rule-id) why this is fine
//
// A suppression attaches to the next line that holds code (or its own
// line, for trailing comments). On a function definition line it exempts
// the whole function and stops call-graph traversal into it.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mfa::lint {

struct Diagnostic {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind = Kind::kPunct;
  std::string text;
  int line = 0;
};

/// One tokenized translation unit (or header).
struct SourceFile {
  std::string path;
  std::vector<Token> tokens;
  /// Include targets, e.g. "unordered_map" for <unordered_map>.
  std::vector<std::pair<int, std::string>> includes;
  /// line -> rule ids allowed on that line (suppressions already
  /// attached to their target lines).
  std::multimap<int, std::string> allows;

  [[nodiscard]] bool allowed(int line, std::string_view rule) const;
};

/// A lexically-detected function definition.
struct Function {
  std::string name;          ///< unqualified (last :: component)
  std::size_t file = 0;      ///< index into Corpus::files
  int line = 0;              ///< line of the name token
  std::size_t body_begin = 0;  ///< token index just past '{'
  std::size_t body_end = 0;    ///< token index of the matching '}'
};

struct Corpus {
  std::vector<SourceFile> files;
  std::vector<Function> functions;
  /// name -> function indices (overloads and same-name definitions
  /// share a bucket; traversal follows all of them).
  std::map<std::string, std::vector<std::size_t>> by_name;
};

/// Tokenizes one file: strips comments / string literals / preprocessor
/// lines (recording includes and `mfa-lint: allow(...)` suppressions).
SourceFile tokenize(std::string path, std::string_view text);

/// Builds the function index + call-graph buckets over `files`.
Corpus index(std::vector<SourceFile> files);

/// Runs every rule; diagnostics come back sorted by (file, line, rule).
std::vector<Diagnostic> run_rules(const Corpus& corpus);

/// Convenience: tokenize + index + run_rules over (path, content) pairs.
std::vector<Diagnostic> run_lint(
    const std::vector<std::pair<std::string, std::string>>& sources);

/// "path:line: [rule] message" per diagnostic.
std::string format(const std::vector<Diagnostic>& diagnostics);

}  // namespace mfa::lint

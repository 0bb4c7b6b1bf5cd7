#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <deque>
#include <set>

namespace mfa::lint {
namespace {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Control keywords that look like calls (`while (`) or would otherwise
/// be mistaken for function names.
bool is_keyword(std::string_view s) {
  static const std::set<std::string_view> kKeywords = {
      "if",       "for",        "while",  "switch",        "catch",
      "return",   "sizeof",     "alignof", "decltype",     "throw",
      "new",      "delete",     "operator", "static_assert", "assert",
      "alignas",  "noexcept",   "defined",
  };
  return kKeywords.count(s) > 0;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.compare(0, prefix.size(), prefix) == 0;
}

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Extracts every `mfa-lint: allow(rule) ...` from a comment.
std::vector<std::string> parse_allows(std::string_view comment) {
  std::vector<std::string> rules;
  std::size_t at = 0;
  while ((at = comment.find("mfa-lint:", at)) != std::string_view::npos) {
    std::size_t open = comment.find("allow(", at);
    if (open == std::string_view::npos) break;
    open += 6;
    const std::size_t close = comment.find(')', open);
    if (close == std::string_view::npos) break;
    rules.emplace_back(comment.substr(open, close - open));
    at = close;
  }
  return rules;
}

}  // namespace

bool SourceFile::allowed(int line, std::string_view rule) const {
  for (auto [it, end] = allows.equal_range(line); it != end; ++it) {
    if (it->second == rule) return true;
  }
  return false;
}

SourceFile tokenize(std::string path, std::string_view text) {
  SourceFile out;
  out.path = std::move(path);
  int line = 1;
  int last_token_line = 0;  // trailing-comment suppressions attach here
  std::vector<std::string> pending;  // allows waiting for their code line

  auto emit = [&](Token::Kind kind, std::string t, int at) {
    if (!pending.empty()) {
      for (std::string& rule : pending) out.allows.emplace(at, std::move(rule));
      pending.clear();
    }
    last_token_line = at;
    out.tokens.push_back(Token{kind, std::move(t), at});
  };
  auto record_comment = [&](std::string_view body, int comment_line) {
    for (std::string& rule : parse_allows(body)) {
      if (last_token_line == comment_line) {
        out.allows.emplace(comment_line, std::move(rule));  // trailing
      } else {
        pending.push_back(std::move(rule));
      }
    }
  };

  std::size_t i = 0;
  const std::size_t n = text.size();
  bool at_line_start = true;  // only whitespace seen on this line so far
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      ++i;
      at_line_start = true;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      const std::size_t end = text.find('\n', i);
      const std::size_t stop = end == std::string_view::npos ? n : end;
      record_comment(text.substr(i, stop - i), line);
      i = stop;
      continue;
    }
    if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      const std::size_t end = text.find("*/", i + 2);
      const std::size_t stop = end == std::string_view::npos ? n : end + 2;
      const std::string_view body = text.substr(i, stop - i);
      record_comment(body, line);
      line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
      i = stop;
      continue;
    }
    if (c == '#' && at_line_start) {
      // Preprocessor line (with \-continuations). Only includes are kept.
      std::size_t j = i + 1;
      while (j < n && std::isspace(static_cast<unsigned char>(text[j])) != 0 &&
             text[j] != '\n') {
        ++j;
      }
      const bool is_include = text.compare(j, 7, "include") == 0;
      std::size_t stop = i;
      while (stop < n) {
        const std::size_t eol = text.find('\n', stop);
        if (eol == std::string_view::npos) {
          stop = n;
          break;
        }
        std::size_t back = eol;
        while (back > stop &&
               std::isspace(static_cast<unsigned char>(text[back - 1])) != 0 &&
               text[back - 1] != '\n') {
          --back;
        }
        if (back > stop && text[back - 1] == '\\') {
          ++line;
          stop = eol + 1;
          continue;
        }
        stop = eol;
        break;
      }
      if (is_include) {
        const std::string_view dir = text.substr(i, stop - i);
        std::size_t open = dir.find_first_of("<\"", 8);
        if (open != std::string_view::npos) {
          const char close_ch = dir[open] == '<' ? '>' : '"';
          const std::size_t close = dir.find(close_ch, open + 1);
          if (close != std::string_view::npos) {
            out.includes.emplace_back(
                line, std::string(dir.substr(open + 1, close - open - 1)));
          }
        }
      }
      i = stop;
      continue;
    }
    at_line_start = false;
    if (c == '"') {
      ++i;
      while (i < n && text[i] != '"') {
        if (text[i] == '\\') ++i;
        if (i < n && text[i] == '\n') ++line;
        ++i;
      }
      ++i;
      continue;
    }
    if (c == '\'') {
      ++i;
      while (i < n && text[i] != '\'') {
        if (text[i] == '\\') ++i;
        ++i;
      }
      ++i;
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && is_ident_char(text[j])) ++j;
      std::string word(text.substr(i, j - i));
      // Raw string literal R"delim( ... )delim".
      if (word == "R" && j < n && text[j] == '"') {
        std::size_t p = j + 1;
        while (p < n && text[p] != '(') ++p;
        const std::string close =
            ")" + std::string(text.substr(j + 1, p - j - 1)) + "\"";
        const std::size_t end = text.find(close, p);
        const std::size_t stop =
            end == std::string_view::npos ? n : end + close.size();
        const std::string_view body = text.substr(i, stop - i);
        line += static_cast<int>(std::count(body.begin(), body.end(), '\n'));
        i = stop;
        continue;
      }
      emit(Token::Kind::kIdent, std::move(word), line);
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t j = i + 1;
      while (j < n && (is_ident_char(text[j]) || text[j] == '.' ||
                       text[j] == '\'')) {
        ++j;
      }
      emit(Token::Kind::kNumber, std::string(text.substr(i, j - i)), line);
      i = j;
      continue;
    }
    emit(Token::Kind::kPunct, std::string(1, c), line);
    ++i;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Structural pass: function definitions + name-based call graph
// ---------------------------------------------------------------------------

namespace {

bool tok_is(const std::vector<Token>& t, std::size_t i, std::string_view s) {
  return i < t.size() && t[i].text == s;
}

std::size_t match_delim(const std::vector<Token>& t, std::size_t open,
                        std::string_view o, std::string_view c) {
  int depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == o) ++depth;
    if (t[i].text == c && --depth == 0) return i;
  }
  return kNpos;
}

std::size_t match_paren(const std::vector<Token>& t, std::size_t open) {
  return match_delim(t, open, "(", ")");
}
std::size_t match_brace(const std::vector<Token>& t, std::size_t open) {
  return match_delim(t, open, "{", "}");
}

/// Skips a balanced template-argument list starting at `<`; returns the
/// index past the matching `>`, or `from` unchanged when it does not
/// look like one (bails on ; to survive `a < b` comparisons).
std::size_t skip_angles(const std::vector<Token>& t, std::size_t from) {
  if (!tok_is(t, from, "<")) return from;
  int depth = 0;
  for (std::size_t i = from; i < t.size(); ++i) {
    if (t[i].text == "<") ++depth;
    if (t[i].text == ">" && --depth == 0) return i + 1;
    if (t[i].text == ";" || t[i].text == "{") break;
  }
  return from;
}

/// From the token after a parameter list's `)`, finds the `{` opening a
/// function body, walking the allowed trailing sequence (const,
/// noexcept, annotation macros, trailing return, ctor-init list).
/// Returns kNpos when this is not a definition.
std::size_t find_body(const std::vector<Token>& t, std::size_t k) {
  while (k < t.size()) {
    const std::string& s = t[k].text;
    if (s == "{") return k;
    if (s == ";" || s == "=") return kNpos;
    if (s == "const" || s == "final" || s == "override" || s == "mutable" ||
        s == "try") {
      ++k;
      continue;
    }
    if (s == "noexcept" || starts_with(s, "MFA_") ||
        starts_with(s, "[[")) {
      ++k;
      if (tok_is(t, k, "(")) {
        const std::size_t close = match_paren(t, k);
        if (close == kNpos) return kNpos;
        k = close + 1;
      }
      continue;
    }
    if (s == "[") {  // [[attribute]]
      while (k < t.size() && t[k].text != "]") ++k;
      ++k;
      continue;
    }
    if (s == "-" && tok_is(t, k + 1, ">")) {  // trailing return type
      k += 2;
      while (k < t.size() && t[k].text != "{" && t[k].text != ";") ++k;
      continue;
    }
    if (s == ":") {  // constructor initializer list
      ++k;
      while (k < t.size()) {
        if (t[k].kind != Token::Kind::kIdent) return kNpos;
        ++k;
        k = skip_angles(t, k);
        if (tok_is(t, k, "(")) {
          const std::size_t close = match_paren(t, k);
          if (close == kNpos) return kNpos;
          k = close + 1;
        } else if (tok_is(t, k, "{")) {
          const std::size_t close = match_brace(t, k);
          if (close == kNpos) return kNpos;
          k = close + 1;
        } else {
          return kNpos;
        }
        if (tok_is(t, k, ",")) {
          ++k;
          continue;
        }
        break;
      }
      continue;
    }
    return kNpos;
  }
  return kNpos;
}

}  // namespace

Corpus index(std::vector<SourceFile> files) {
  Corpus corpus;
  corpus.files = std::move(files);
  for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
    const std::vector<Token>& t = corpus.files[fi].tokens;
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent || !tok_is(t, i + 1, "(")) continue;
      if (is_keyword(t[i].text) || starts_with(t[i].text, "MFA_")) continue;
      if (i > 0 && t[i - 1].text == "operator") continue;
      const std::size_t close = match_paren(t, i + 1);
      if (close == kNpos) continue;
      const std::size_t open = find_body(t, close + 1);
      if (open == kNpos) continue;
      const std::size_t end = match_brace(t, open);
      if (end == kNpos) continue;
      Function fn;
      fn.name = t[i].text;
      fn.file = fi;
      fn.line = t[i].line;
      fn.body_begin = open + 1;
      fn.body_end = end;
      corpus.by_name[fn.name].push_back(corpus.functions.size());
      corpus.functions.push_back(std::move(fn));
      // Keep scanning from inside the signature so nested definitions
      // (rare) and body calls are still visited by the rules.
    }
  }
  return corpus;
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

namespace {

struct Call {
  std::string name;
  int line = 0;
};

/// Call sites inside a function body: `name(` plus templated
/// `name<...>(`; annotation macros and control keywords excluded.
std::vector<Call> calls_in(const std::vector<Token>& t, const Function& fn) {
  std::vector<Call> calls;
  for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (!tok_is(t, i, "(") || i == fn.body_begin) continue;
    std::size_t j = i - 1;
    if (t[j].text == ">") {  // name<...>( — walk back over the args
      int depth = 0;
      while (j > fn.body_begin) {
        if (t[j].text == ">") ++depth;
        if (t[j].text == "<" && --depth == 0) {
          --j;
          break;
        }
        --j;
      }
    }
    if (t[j].kind != Token::Kind::kIdent || is_keyword(t[j].text) ||
        starts_with(t[j].text, "MFA_")) {
      continue;
    }
    calls.push_back(Call{t[j].text, t[j].line});
  }
  return calls;
}

/// Reachable set over the name-based call graph from `roots`, stopping
/// at functions whose definition line carries allow(`rule`) (barriers)
/// and at call names in `stop_names` (the rule's banned set: those are
/// diagnosed at the call site, not followed — following them would walk
/// into unrelated same-named definitions). Resolution prefers same-file
/// definitions: when the caller's file defines the name, only those
/// definitions are followed, which keeps a name shared across unrelated
/// classes from splicing their call graphs together. `on_visit` runs
/// once per reached function with the chain that got there.
template <typename Visit>
void traverse(const Corpus& corpus, const std::vector<std::size_t>& roots,
              std::string_view rule, const std::set<std::string>& stop_names,
              Visit on_visit) {
  std::set<std::size_t> visited;
  std::deque<std::pair<std::size_t, std::string>> queue;
  for (const std::size_t r : roots) {
    queue.emplace_back(r, corpus.functions[r].name);
  }
  while (!queue.empty()) {
    auto [fi, chain] = queue.front();
    queue.pop_front();
    if (!visited.insert(fi).second) continue;
    const Function& fn = corpus.functions[fi];
    const SourceFile& file = corpus.files[fn.file];
    if (file.allowed(fn.line, rule)) continue;  // barrier
    on_visit(fn, chain);
    for (const Call& call : calls_in(file.tokens, fn)) {
      if (stop_names.count(call.name) > 0) continue;
      const auto bucket = corpus.by_name.find(call.name);
      if (bucket == corpus.by_name.end()) continue;
      bool local = false;
      for (const std::size_t gi : bucket->second) {
        if (corpus.functions[gi].file == fn.file) local = true;
      }
      for (const std::size_t gi : bucket->second) {
        if (local && corpus.functions[gi].file != fn.file) continue;
        if (visited.count(gi) == 0) {
          queue.emplace_back(gi, chain + " <- " + call.name);
        }
      }
    }
  }
}

// ---- serialize-determinism ------------------------------------------------

bool is_serialize_root(const Function& fn) {
  return fn.name == "to_json" || fn.name == "wal_header_to_json" ||
         fn.name.find("serialize") != std::string::npos;
}

void check_serialize(const Corpus& corpus, std::vector<Diagnostic>& out) {
  constexpr std::string_view kRule = "serialize-determinism";
  std::vector<std::size_t> roots;
  std::set<std::size_t> root_files;
  for (std::size_t i = 0; i < corpus.functions.size(); ++i) {
    if (is_serialize_root(corpus.functions[i])) {
      roots.push_back(i);
      root_files.insert(corpus.functions[i].file);
    }
  }
  // Files that define serialization roots must not even include the
  // unordered containers: iteration order would leak into the bytes.
  for (const std::size_t fi : root_files) {
    const SourceFile& file = corpus.files[fi];
    for (const auto& [line, target] : file.includes) {
      if (target == "unordered_map" || target == "unordered_set") {
        if (file.allowed(line, kRule)) continue;
        out.push_back(Diagnostic{
            file.path, line, std::string(kRule),
            "serialization TU includes <" + target +
                ">; iteration order is not stable across implementations"});
      }
    }
  }
  static const std::set<std::string> kStop = {"rand", "srand", "rand_r",
                                              "random"};
  traverse(corpus, roots, kRule, kStop,
           [&](const Function& fn, const std::string& chain) {
    const SourceFile& file = corpus.files[fn.file];
    const std::vector<Token>& t = file.tokens;
    for (const Call& call : calls_in(t, fn)) {
      if (call.name != "rand" && call.name != "srand" &&
          call.name != "rand_r" && call.name != "random") {
        continue;
      }
      if (file.allowed(call.line, kRule)) continue;
      out.push_back(Diagnostic{
          file.path, call.line, std::string(kRule),
          "'" + call.name + "' reachable from serialization root (" + chain +
              "); serialized bytes must be deterministic"});
    }
    for (std::size_t i = fn.body_begin; i < fn.body_end; ++i) {
      if (t[i].text == "unordered_map" || t[i].text == "unordered_set") {
        if (file.allowed(t[i].line, kRule)) continue;
        out.push_back(Diagnostic{
            file.path, t[i].line, std::string(kRule),
            "'" + t[i].text + "' used in serialization-reachable code (" +
                chain + "); iteration order would leak into the bytes"});
      }
      // map<Key*, ...>: pointer values are per-run; ordering by them
      // makes the output nondeterministic.
      if (t[i].text == "map" && tok_is(t, i + 1, "<")) {
        int depth = 0;
        for (std::size_t j = i + 1; j < t.size(); ++j) {
          if (t[j].text == "<") ++depth;
          if (t[j].text == ">" && --depth == 0) break;
          if (t[j].text == ";") break;
          if (depth == 1 && t[j].text == ",") break;  // key type ends
          if (depth == 1 && t[j].text == "*") {
            if (!file.allowed(t[i].line, kRule)) {
              out.push_back(Diagnostic{
                  file.path, t[i].line, std::string(kRule),
                  "pointer-keyed map in serialization-reachable code (" +
                      chain + "); pointer order is per-run"});
            }
            break;
          }
        }
      }
    }
  });
}

// ---- mutex-hygiene --------------------------------------------------------

struct ClassBody {
  std::string name;
  std::size_t begin = 0;  ///< token index just past '{'
  std::size_t end = 0;    ///< token index of '}'
};

std::vector<ClassBody> find_classes(const std::vector<Token>& t) {
  std::vector<ClassBody> classes;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "class" && t[i].text != "struct") continue;
    if (i > 0 && (t[i - 1].text == "enum" || t[i - 1].text == "<" ||
                  t[i - 1].text == ",")) {
      continue;  // enum class / template parameter
    }
    std::string name;
    std::size_t j = i + 1;
    while (j < t.size()) {
      const std::string& s = t[j].text;
      if (s == ";" || s == "(" || s == ")" || s == ">" || s == ",") break;
      if (s == "{" || s == ":") break;
      if (starts_with(s, "MFA_")) {
        ++j;
        if (tok_is(t, j, "(")) {
          const std::size_t close = match_paren(t, j);
          if (close == kNpos) break;
          j = close + 1;
        }
        continue;
      }
      if (t[j].kind == Token::Kind::kIdent && s != "final") name = s;
      ++j;
    }
    if (j >= t.size() || name.empty()) continue;
    if (t[j].text == ":") {  // base-clause: scan to the body brace
      while (j < t.size() && t[j].text != "{" && t[j].text != ";") ++j;
    }
    if (j >= t.size() || t[j].text != "{") continue;
    const std::size_t end = match_brace(t, j);
    if (end == kNpos) continue;
    classes.push_back(ClassBody{name, j + 1, end});
  }
  return classes;
}

/// Splits a class body into top-level member statements. A statement
/// ends at a depth-0 `;` or at the `}` closing a depth-0 brace block
/// (inline function bodies, nested classes).
std::vector<std::pair<std::size_t, std::size_t>> member_statements(
    const std::vector<Token>& t, const ClassBody& body) {
  std::vector<std::pair<std::size_t, std::size_t>> stmts;
  std::size_t start = body.begin;
  int paren = 0;
  int brace = 0;
  for (std::size_t i = body.begin; i < body.end; ++i) {
    const std::string& s = t[i].text;
    if (s == "(") ++paren;
    if (s == ")") --paren;
    if (s == "{") ++brace;
    if (s == "}") {
      --brace;
      if (brace == 0 && paren == 0) {
        stmts.emplace_back(start, i + 1);
        start = i + 1;
      }
      continue;
    }
    if (s == ";" && paren == 0 && brace == 0) {
      stmts.emplace_back(start, i);
      start = i + 1;
    }
  }
  return stmts;
}

void check_mutex_hygiene(const Corpus& corpus, std::vector<Diagnostic>& out) {
  constexpr std::string_view kRule = "mutex-hygiene";
  for (const SourceFile& file : corpus.files) {
    const std::vector<Token>& t = file.tokens;
    for (const ClassBody& body : find_classes(t)) {
      const auto stmts = member_statements(t, body);
      // Classification shared by the two passes below.
      struct View {
        std::size_t begin = 0, end = 0;
        bool is_function = false;  ///< declarator has a parameter list
        bool is_type_ish = false;  ///< nested type / using / operator / …
        bool is_exempt = false;    ///< sync primitive / immutable member
      };
      auto classify = [&](std::size_t b, std::size_t e) {
        std::size_t s = b;
        while (s < e && (t[s].text == "public" || t[s].text == "private" ||
                         t[s].text == "protected" || t[s].text == ":")) {
          ++s;
        }
        View v;
        v.begin = s;
        v.end = e;
        for (std::size_t i = s; i < e; ++i) {
          const std::string& w = t[i].text;
          if (w == "using" || w == "typedef" || w == "friend" ||
              w == "static" || w == "template" || w == "enum" ||
              w == "class" || w == "struct" || w == "operator" ||
              w == "default" || w == "delete") {
            v.is_type_ish = true;
          }
          if (w == "Mutex" || w == "CondVar" || w == "atomic" ||
              w == "const" || w == "constexpr" || w == "once_flag") {
            v.is_exempt = true;
          }
          if (w == "(" && i > s && t[i - 1].kind == Token::Kind::kIdent &&
              !starts_with(t[i - 1].text, "MFA_")) {
            v.is_function = true;
          }
        }
        if (s >= e) v.is_type_ish = true;
        return v;
      };
      // Does this class hold an mfa::Mutex *data member* of its own
      // (not inside a nested type, not a deleted special member)?
      bool has_mutex = false;
      for (const auto& [b, e] : stmts) {
        const auto v = classify(b, e);
        if (v.is_function || v.is_type_ish) continue;
        for (std::size_t i = v.begin; i < v.end; ++i) {
          if (t[i].text == "Mutex") has_mutex = true;
        }
      }
      if (!has_mutex) continue;
      for (const auto& [b, e] : stmts) {
        const auto v = classify(b, e);
        if (v.is_function || v.is_type_ish || v.is_exempt) continue;
        bool guarded = false;
        std::string member;
        int line = 0;
        for (std::size_t i = v.begin; i < v.end; ++i) {
          const std::string& w = t[i].text;
          if (w == "MFA_GUARDED_BY" || w == "MFA_PT_GUARDED_BY") {
            guarded = true;
            break;
          }
          if (w == "=" || w == "{") break;
          if (t[i].kind == Token::Kind::kIdent) {
            member = w;
            line = t[i].line;
          }
        }
        if (guarded || member.empty()) continue;
        if (file.allowed(line, kRule)) continue;
        out.push_back(Diagnostic{
            file.path, line, std::string(kRule),
            "member '" + member + "' of '" + body.name +
                "' (which holds an mfa::Mutex) lacks MFA_GUARDED_BY"});
      }
    }
  }
}

// ---- banned-io / solver-clock ---------------------------------------------

bool path_contains(std::string_view path, std::string_view piece) {
  return path.find(piece) != std::string_view::npos;
}

void check_token_hygiene(const Corpus& corpus, std::vector<Diagnostic>& out) {
  for (const SourceFile& file : corpus.files) {
    const std::vector<Token>& t = file.tokens;
    const bool io_exempt = path_contains(file.path, "/cli/") ||
                           path_contains(file.path, "bench") ||
                           path_contains(file.path, "main.cpp");
    const bool solver_path = path_contains(file.path, "/solver/") ||
                             path_contains(file.path, "/gp/") ||
                             path_contains(file.path, "/core/") ||
                             path_contains(file.path, "/alloc/");
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (t[i].kind != Token::Kind::kIdent) continue;
      const std::string& w = t[i].text;
      if (!io_exempt &&
          (w == "cout" || w == "cerr" || w == "printf" || w == "puts")) {
        if (file.allowed(t[i].line, "banned-io")) continue;
        out.push_back(Diagnostic{
            file.path, t[i].line, "banned-io",
            "'" + w + "' outside cli/bench code; return strings or use "
                      "the logging callbacks instead"});
      }
      if (solver_path) {
        const bool clock_call =
            (w == "time" || w == "clock" || w == "gettimeofday" ||
             w == "localtime" || w == "strftime") &&
            tok_is(t, i + 1, "(");
        const bool rand_call =
            (w == "rand" || w == "srand") && tok_is(t, i + 1, "(");
        if (clock_call || rand_call || w == "system_clock") {
          if (file.allowed(t[i].line, "solver-clock")) continue;
          out.push_back(Diagnostic{
              file.path, t[i].line, "solver-clock",
              "'" + w + "' in a solver/model path; solves must be "
                        "deterministic under replay (steady_clock via "
                        "Budget is the sanctioned timer)"});
        }
      }
    }
  }
}

}  // namespace

std::vector<Diagnostic> run_rules(const Corpus& corpus) {
  std::vector<Diagnostic> out;
  check_serialize(corpus, out);
  check_mutex_hygiene(corpus, out);
  check_token_hygiene(corpus, out);
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const Diagnostic& a, const Diagnostic& b) {
                          return a.file == b.file && a.line == b.line &&
                                 a.rule == b.rule && a.message == b.message;
                        }),
            out.end());
  return out;
}

std::vector<Diagnostic> run_lint(
    const std::vector<std::pair<std::string, std::string>>& sources) {
  std::vector<SourceFile> files;
  files.reserve(sources.size());
  for (const auto& [path, content] : sources) {
    files.push_back(tokenize(path, content));
  }
  return run_rules(index(std::move(files)));
}

std::string format(const std::vector<Diagnostic>& diagnostics) {
  std::string out;
  for (const Diagnostic& d : diagnostics) {
    out += d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
           d.message + "\n";
  }
  return out;
}

}  // namespace mfa::lint

// Golden-diagnostic tests for tools/mfa_lint.
//
// The fixtures under tests/lint_fixtures/ are hand-written source files
// with known defects; each expected finding is pinned to an exact
// (file, line, rule) triple so a rule that drifts — fires on the wrong
// line, under the wrong ID, or stops firing — breaks this test rather
// than silently rotting. The clean fixtures hold the look-alikes the
// tokenizer must NOT match (word boundaries, comments, strings,
// suppressed lines), so false-positive regressions fail here too.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

std::string fixture_dir() { return MFA_LINT_FIXTURE_DIR; }

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Loads every fixture whose relative path passes `keep`, keyed by the
// path relative to the fixture dir (so expectations stay stable no
// matter where the build runs).
std::vector<std::pair<std::string, std::string>> load_fixtures(
    bool (*keep)(const std::string&)) {
  std::vector<std::pair<std::string, std::string>> sources;
  for (const auto& entry : fs::recursive_directory_iterator(fixture_dir())) {
    if (!entry.is_regular_file()) continue;
    std::string rel =
        fs::relative(entry.path(), fixture_dir()).generic_string();
    if (!keep(rel)) continue;
    // Rule paths key off substrings like "/solver/"; keep a leading
    // slash so top-level fixtures still look like rooted paths.
    sources.emplace_back("/" + rel, slurp(entry.path()));
  }
  return sources;
}

bool keep_all(const std::string&) { return true; }
bool keep_clean(const std::string& rel) {
  return rel.find("clean") != std::string::npos;
}

std::set<std::string> finding_keys(
    const std::vector<mfa::lint::Diagnostic>& diags) {
  std::set<std::string> keys;
  for (const auto& d : diags)
    keys.insert(d.file + ":" + std::to_string(d.line) + ":" + d.rule);
  return keys;
}

TEST(LintGolden, EveryExpectedFindingFiresAtItsExactLine) {
  const auto diags = mfa::lint::run_lint(load_fixtures(keep_all));

  const std::set<std::string> expected = {
      "/alloc/clock_bad.cpp:7:solver-clock",
      "/io_bad.cpp:8:banned-io",
      "/io_bad.cpp:9:banned-io",
      "/mutex_bad.hpp:18:mutex-hygiene",
      "/serialize_bad.cpp:10:serialize-determinism",
      "/serialize_bad.cpp:15:serialize-determinism",
      "/serialize_bad.cpp:21:serialize-determinism",
      "/serialize_bad.cpp:22:serialize-determinism",
      "/solver/clock_bad.cpp:8:solver-clock",
      "/solver/clock_bad.cpp:12:solver-clock",
      "/solver/clock_bad.cpp:17:solver-clock",
  };

  EXPECT_EQ(finding_keys(diags), expected) << mfa::lint::format(diags);
}

TEST(LintGolden, CallGraphChainsNameTheRoot) {
  const auto diags = mfa::lint::run_lint(load_fixtures(keep_all));
  bool saw_chain = false;
  for (const auto& d : diags) {
    if (d.file == "/serialize_bad.cpp" && d.line == 21) {
      saw_chain =
          d.message.find("to_json <- shuffle_fields") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_chain)
      << "transitive serialization finding should report its call chain";
}

TEST(LintGolden, CleanFixturesProduceNoFindings) {
  const auto diags = mfa::lint::run_lint(load_fixtures(keep_clean));
  EXPECT_TRUE(diags.empty()) << mfa::lint::format(diags);
}

// --- Tokenizer / indexing unit tests -------------------------------

TEST(LintTokenizer, WordExactIdentifiers) {
  const auto f = mfa::lint::tokenize(
      "/solver/x.cpp", "double start_time(int s);\nint t = time(nullptr);\n");
  bool saw_start_time = false, saw_bare_time = false;
  for (const auto& t : f.tokens) {
    if (t.text == "start_time") saw_start_time = true;
    if (t.text == "time") saw_bare_time = true;
  }
  EXPECT_TRUE(saw_start_time);
  EXPECT_TRUE(saw_bare_time) << "`time` must tokenize separately, not be "
                                "swallowed by start_time's substring";
}

TEST(LintTokenizer, CommentsStringsAndPreprocessorAreNotTokens) {
  const auto f = mfa::lint::tokenize("/x.cpp",
                                    "// push_back here\n"
                                    "/* new int */\n"
                                    "#define push_back ignored\n"
                                    "const char* s = \"rand()\";\n");
  for (const auto& t : f.tokens) {
    EXPECT_NE(t.text, "push_back");
    EXPECT_NE(t.text, "new");
    EXPECT_NE(t.text, "rand");
  }
}

TEST(LintTokenizer, SuppressionAttachesToNextCodeLine) {
  const auto f = mfa::lint::tokenize("/x.cpp",
                                    "int a;\n"
                                    "// mfa-lint: allow(mutex-hygiene) why\n"
                                    "int b;\n");
  EXPECT_FALSE(f.allowed(1, "mutex-hygiene"));
  EXPECT_TRUE(f.allowed(3, "mutex-hygiene"));
  EXPECT_FALSE(f.allowed(3, "banned-io")) << "suppressions are per-rule";
}

TEST(LintTokenizer, IncludesAreRecorded) {
  const auto f = mfa::lint::tokenize(
      "/x.cpp", "#include <unordered_map>\n#include \"lint.hpp\"\n");
  ASSERT_EQ(f.includes.size(), 2u);
  EXPECT_EQ(f.includes[0].second, "unordered_map");
  EXPECT_EQ(f.includes[1].second, "lint.hpp");
}

}  // namespace

// mfa_lint CLI:
//   `mfa_lint [--check] <file-or-dir>...`
//
// Scans .hpp/.cpp files (directories recursively), prints one
// `path:line: [rule] message` per finding and exits non-zero when
// anything is found — the same binary is the ctest entry and the CI
// gate. `--check` is accepted for readability in scripts; it is the
// default (and only) mode.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hpp"

namespace fs = std::filesystem;

namespace {

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc";
}

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<fs::path> inputs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--check") continue;
    if (arg == "--help" || arg == "-h") {
      std::puts("usage: mfa_lint [--check] <file-or-dir>...");
      std::puts("rules: serialize-determinism mutex-hygiene banned-io");
      std::puts("       solver-clock");
      std::puts("suppress: // mfa-lint: allow(rule-id) justification");
      return 0;
    }
    inputs.emplace_back(arg);
  }
  if (inputs.empty()) {
    std::fprintf(stderr, "mfa_lint: no inputs (try --help)\n");
    return 2;
  }

  std::vector<std::pair<std::string, std::string>> sources;
  for (const fs::path& input : inputs) {
    std::error_code ec;
    if (fs::is_directory(input, ec)) {
      for (const auto& entry :
           fs::recursive_directory_iterator(input, ec)) {
        if (entry.is_regular_file() && lintable(entry.path())) {
          sources.emplace_back(entry.path().generic_string(),
                               slurp(entry.path()));
        }
      }
    } else if (fs::is_regular_file(input, ec)) {
      sources.emplace_back(input.generic_string(), slurp(input));
    } else {
      std::fprintf(stderr, "mfa_lint: cannot read %s\n",
                   input.string().c_str());
      return 2;
    }
  }
  std::sort(sources.begin(), sources.end());

  const std::vector<mfa::lint::Diagnostic> diagnostics =
      mfa::lint::run_lint(sources);
  if (!diagnostics.empty()) {
    std::fputs(mfa::lint::format(diagnostics).c_str(), stdout);
    std::fprintf(stderr, "mfa_lint: %zu finding(s) in %zu file(s) scanned\n",
                 diagnostics.size(), sources.size());
    return 1;
  }
  std::fprintf(stderr, "mfa_lint: OK (%zu files scanned)\n", sources.size());
  return 0;
}

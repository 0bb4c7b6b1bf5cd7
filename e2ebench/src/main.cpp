// mfa_e2e — the end-to-end benchmark runner (normally run through run.py).
//
//   mfa_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           --root <checkout> --daemon <mfallocd> --work-dir <dir>
//           [--spans-out <file>]
//
// Prints a table of every metric the run measured (name, value, unit,
// sample count), then, as the last line, the result object
// {"correct","attempted","failed","metrics"} carrying the BENCHMARK.json
// end_to_end metrics (--trace 0) or per_layer metrics (--trace 1). Exits
// 1 when an output check failed.
#include <sys/personality.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: mfa_e2e --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --root <dir> --daemon <path> --work-dir <dir>\n"
               "       [--spans-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string root = ".";
  e2e::RunContext ctx;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--root") {
      root = value;
    } else if (flag == "--daemon") {
      ctx.daemon = value;
    } else if (flag == "--work-dir") {
      ctx.work_dir = value;
    } else if (flag == "--spans-out") {
      ctx.spans_out = value;
    } else {
      return usage();
    }
  }
  if (workload.empty() || ctx.work_dir.empty() || ctx.seconds <= 0.0) {
    return usage();
  }
  const std::string specs = root + "/e2ebench/workloads.json";
  auto spec = e2e::load_workload(specs, workload);
  if (!spec.is_ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().to_string().c_str());
    return 2;
  }
  auto names = e2e::load_metric_names(root + "/BENCHMARK.json",
                                      trace ? "per_layer" : "end_to_end");
  if (!names.is_ok()) {
    std::fprintf(stderr, "error: %s\n", names.status().to_string().c_str());
    return 2;
  }
  if (mfa::Status st = e2e::fresh_dir(ctx.work_dir); !st.is_ok()) {
    std::fprintf(stderr, "error: %s\n", st.to_string().c_str());
    return 2;
  }

  e2e::Report report;
  // run.py turns randomization off so every run of a build has one layout.
  report.note(std::string("address-space randomization: ") +
              ((::personality(0xffffffff) & ADDR_NO_RANDOMIZE) ? "off" : "on"));
  e2e::RunResult result;
  if (trace) {
    // A sweep feeds its serving-layer probes from a serve workload's trace.
    const std::string serving = spec.value().kind == "serve"
                                    ? workload
                                    : spec.value().serving_probe;
    auto serving_spec = e2e::load_workload(specs, serving);
    if (!serving_spec.is_ok() || serving_spec.value().kind != "serve") {
      std::fprintf(stderr, "error: no serve workload for the probes\n");
      return 2;
    }
    result = e2e::run_traced(ctx, spec.value(), serving_spec.value(), report);
  } else if (spec.value().kind == "serve") {
    result = e2e::run_serve(ctx, spec.value(), report);
  } else {
    result = e2e::run_sweep(ctx, spec.value(), report);
  }
  e2e::remove_tree(ctx.work_dir);

  report.print_table();
  auto line = report.result_line(result.correct, result.attempted,
                                 result.failed, names.value());
  if (!line.is_ok()) {
    std::fprintf(stderr, "error: %s\n", line.status().to_string().c_str());
    return 1;
  }
  std::printf("%s\n", line.value().c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}

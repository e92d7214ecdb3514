// Entry point of the end-to-end replay benchmark.
//
//   perfbench --workload <replay_sync|replay_async|horizon_queries>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//   perfbench --self-test [--work-dir <dir>]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; everything else goes to stderr.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"

namespace perfbench {
namespace {

void PrintResult(const RunResult& result) {
  bool finite = true;
  std::string out = "{\"correct\": ";
  std::string metrics;
  for (const auto& [name, value_unit] : result.metrics) {
    const double v = value_unit.first;
    finite = finite && std::isfinite(v);
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), std::isfinite(v) ? v : 0.0,
                  value_unit.second.c_str());
    metrics += buf;
  }
  out += result.correct && finite ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <replay_sync|replay_async|horizon_queries> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]\n"
               "       perfbench --self-test [--work-dir <dir>]\n");
  return 2;
}

/// Runs small workloads clean, then once per fault, and confirms that the
/// clean runs pass every check and that each fault is reported.
int SelfTest(const Options& base, uint64_t start_ns) {
  Model model;
  TrainModel(base.seed, /*small=*/true, &model);
  int problems = 0;
  for (const char* workload : {"replay_sync", "replay_async", "horizon_queries"}) {
    Options options = base;
    options.workload = workload;
    options.small = true;
    // One replay round, or enough query rounds to reach a checkpoint.
    options.rounds = std::strcmp(workload, "horizon_queries") == 0 ? 12 : 1;
    RunResult result;
    RunWorkload(options, model, start_ns, &result);
    std::fprintf(stderr, "self-test clean %-16s -> %s\n", workload,
                 result.correct ? "pass" : "FAIL");
    problems += result.correct ? 0 : 1;
  }
  for (int f = 1; f < static_cast<int>(Fault::kCount); ++f) {
    Options options = base;
    options.workload = "replay_sync";
    options.small = true;
    options.rounds = 1;
    options.fault = static_cast<Fault>(f);
    RunResult result;
    RunWorkload(options, model, start_ns, &result);
    const char* expected = FaultCheck(options.fault);
    const bool detected =
        !result.correct && std::find(result.failed_checks.begin(),
                                     result.failed_checks.end(),
                                     expected) != result.failed_checks.end();
    std::fprintf(stderr, "self-test fault %-26s -> %s by %s\n", FaultName(options.fault),
                 detected ? "detected" : "NOT DETECTED", expected);
    problems += detected ? 0 : 1;
  }
  std::fprintf(stderr, "self-test: %s\n", problems == 0 ? "ok" : "FAILED");
  return problems == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const uint64_t start_ns = NowNs();
  Options options;
  bool self_test = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--self-test") {
      self_test = true;
      continue;
    }
    if (value == nullptr) return Usage();
    ++i;
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(options.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.work_dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (self_test) {
    options.seconds = 1e6;  // the round counts end the self-test runs
    return SelfTest(options, start_ns);
  }
  if (!have_workload || !(options.seconds > 0)) return Usage();

  Model model;
  TrainModel(options.seed, /*small=*/false, &model);
  RunResult result;
  if (!RunWorkload(options, model, start_ns, &result)) {
    std::fprintf(stderr, "unknown workload %s\n", options.workload.c_str());
    return Usage();
  }
  PrintResult(result);
  return 0;
}

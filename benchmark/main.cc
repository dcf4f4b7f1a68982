// optrules_bench: the benchmark-of-record harness.
//
//   optrules_bench --workload=<name> --seed=<n> --seconds=<s>
//                  --workdir=<dir> [--trace-dir=<dir>] [--traced] [--smoke]
//
// Workloads: session_inmem, session_paged_cold,
// session_partitioned_subproc, serve_mixed (see benchmark/README.md).
// Prints one JSON line of raw samples and gate verdicts on stdout; exit 0
// when every correctness gate passed, 1 when one failed, 2 on bad usage.

#include <cstdio>
#include <cstring>
#include <string>

#include "bucketing/simd_kernels.h"
#include "common/env.h"
#include "harness.h"

namespace {

using optrules::harness::Args;

int Usage() {
  std::fprintf(stderr,
               "usage: optrules_bench --workload=<session_inmem|"
               "session_paged_cold|session_partitioned_subproc|serve_mixed> "
               "--seed=<n> --seconds=<s> --workdir=<dir> "
               "[--trace-dir=<dir>] [--traced] [--smoke]\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? argv[i] + n : nullptr;
    };
    if (const char* v = value("--workload=")) {
      args->workload = v;
    } else if (const char* v = value("--seed=")) {
      const auto seed = optrules::env::ParseNonNegativeInt(v);
      if (!seed.has_value()) return false;
      args->seed = *seed;
    } else if (const char* v = value("--seconds=")) {
      const auto seconds = optrules::env::ParseNonNegativeInt(v);
      if (!seconds.has_value() || *seconds == 0) return false;
      args->seconds = static_cast<double>(*seconds);
    } else if (const char* v = value("--workdir=")) {
      args->workdir = v;
    } else if (const char* v = value("--trace-dir=")) {
      args->trace_dir = v;
    } else if (arg == "--traced") {
      args->traced = true;
    } else if (arg == "--smoke") {
      args->smoke = true;
    } else {
      return false;
    }
  }
  return !args->workdir.empty() && (!args->traced || !args->trace_dir.empty());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace optrules::harness;
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  const bool serve = args.workload == "serve_mixed";
  if (!serve && args.workload != "session_inmem" &&
      args.workload != "session_paged_cold" &&
      args.workload != "session_partitioned_subproc") {
    return Usage();
  }

  WorkloadResult result;
  {
    optrules::Result<ScratchDir> scratch = ScratchDir::Create(args.workdir);
    if (!scratch.ok()) {
      std::fprintf(stderr, "optrules_bench: %s\n",
                   scratch.status().ToString().c_str());
      return 1;
    }
    result = serve ? RunServeWorkload(args, scratch.value().path())
                   : RunSessionWorkload(args, scratch.value().path());
  }  // data directory removed here, on every path out of the workload

  const bool correct = result.checks.all_ok();
  const std::string out =
      JsonObject()
          .Str("workload", args.workload)
          .Int("seed", static_cast<int64_t>(args.seed))
          .Num("seconds", args.seconds)
          .Bool("traced", args.traced)
          .Bool("smoke", args.smoke)
          .Str("simd_arm", optrules::bucketing::simd::Active().name)
          .Bool("correct", correct)
          .Int("attempted", result.attempted)
          .Int("failed", result.failed)
          .Raw("checks", result.checks.ToJson())
          .Raw("raw", result.raw.str())
          .str();
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

// KBC benchmark. Runs one workload for a given seed and prints, as
// the last line of stdout, one JSON object:
//   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). See kbcbench/README.md.
//
//   kbcbench --workload update_stream|dev_loop|serve_mixed --seed N
//            --seconds S --trace 0|1
//   kbcbench --self-test        (oracle self-tests only)
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "oracles.h"
#include "util/thread_role.h"

namespace kbcbench {
namespace {

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return args->self_test || !args->workload.empty();
}

void PrintMetrics(const std::map<std::string, Metric>& metrics) {
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), metric.value, metric.unit.c_str());
    first = false;
  }
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kbcbench --workload update_stream|dev_loop|serve_mixed "
                 "--seed N --seconds S --trace 0|1 | --self-test\n");
    return 2;
  }
  if (args.self_test) {
    const auto broken = OracleSelfTest();
    for (const auto& b : broken) std::printf("oracle self-test FAILED: %s\n", b.c_str());
    if (broken.empty()) std::printf("oracle self-tests passed\n");
    return broken.empty() ? 0 : 1;
  }

  // The benchmark's main thread is the serving thread of every DeepDive it
  // drives directly.
  deepdive::serving_thread.Acquire();
  Tracer tracer(args.trace);
  RunResult result;
  if (args.workload == "update_stream") {
    RunUpdateStream(args, &tracer, &result);
  } else if (args.workload == "dev_loop") {
    RunDevLoop(args, &tracer, &result);
  } else if (args.workload == "serve_mixed") {
    RunServeMixed(args, &tracer, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  deepdive::serving_thread.Release();

  for (const std::string& broken : OracleSelfTest()) {
    result.Check(false, "oracle self-test: " + broken);
  }
  if (result.attempted == 0) result.Check(false, "no operation was attempted");

  if (tracer.enabled()) {
    mkdir("kbcbench_out", 0755);
    const std::string path = Fmt("kbcbench_out/trace_%s_seed%llu.json",
                                 args.workload.c_str(),
                                 static_cast<unsigned long long>(args.seed));
    if (!tracer.Write(path)) {
      std::fprintf(stderr, "kbcbench: cannot write %s\n", path.c_str());
    } else {
      result.Note(Fmt("trace: %zu spans written to %s", tracer.size(), path.c_str()));
    }
  }
  for (const std::string& note : result.notes) std::printf("# %s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  PrintMetrics(args.trace ? result.per_layer : result.end_to_end);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace kbcbench

int main(int argc, char** argv) { return kbcbench::Main(argc, argv); }

// Repository benchmark binary: one workload per process.
//
//   perfbench --workload <catalog|serve_mixed|ingest_restart> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a human-readable account of the run (every metric by name, with
// unit and sample count, and the output checks) and, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. A traced run
// also writes its spans as JSON lines into $PERFBENCH_OUT (when set).

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* out) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      out->workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      out->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
    } else if (key == "--seconds") {
      long s = std::strtol(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0' || s < 1 || s > 120) return false;
      out->seconds = static_cast<int>(s);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      out->trace = val == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <catalog|serve_mixed|"
                 "ingest_restart> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  perfbench::Tracer::Get().Enable(args.trace);
  perfbench::Report report(args);
  std::printf("perfbench workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  int rc;
  if (args.workload == "catalog") {
    rc = perfbench::RunCatalog(args, &report);
  } else if (args.workload == "serve_mixed") {
    rc = perfbench::RunServeMixed(args, &report);
  } else if (args.workload == "ingest_restart") {
    rc = perfbench::RunIngestRestart(args, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  if (rc != 0) return rc;

  if (args.trace) {
    perfbench::Tracer& t = perfbench::Tracer::Get();
    std::printf("self time by span (ms total, spans):\n");
    for (const auto& [name, v] : t.SelfTimes()) {
      std::printf("  %-40s %12.3f %8zu\n", name.c_str(), v.first, v.second);
    }
    if (const char* dir = std::getenv("PERFBENCH_OUT")) {
      std::string path = std::string(dir) + "/spans-" + args.workload +
                         "-seed" + std::to_string(args.seed) + ".jsonl";
      if (!t.WriteJsonLines(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("%zu spans written to %s\n", t.size(), path.c_str());
    }
    report.FillLayers();
  }
  report.PrintJson();
  return report.correct() ? 0 : 1;
}

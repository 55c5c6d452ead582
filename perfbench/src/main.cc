// lps_perfbench — the repository's benchmark binary.
//
//   lps_perfbench --workload edge_ingest|mixed_query|file_replay
//                 --seed N --seconds S --trace 0|1
//                 --serve PATH/lps_serve --workdir DIR
//
// Prints "# ..." progress and environment lines, then one JSON object as
// the last line (see perfbench/README.md). perfbench/run.py builds this
// binary and lps_serve from source and is the supported entry point.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench/bench_common.h"
#include "perfbench/src/harness.h"
#include "perfbench/src/workloads.h"
#include "src/kernels/kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lps_perfbench --workload edge_ingest|mixed_query|"
               "file_replay --seed N --seconds S --trace 0|1 --serve PATH "
               "--workdir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int a = 1; a + 1 < argc; a += 2) {
    const std::string flag = argv[a];
    const char* value = argv[a + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--serve") {
      args.serve_bin = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || args.serve_bin.empty() || args.workdir.empty() ||
      !(args.seconds > 0)) {
    return Usage();
  }

  // Environment stamp; numbers from an instrumented or unoptimized build
  // are refused outright.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  perfbench::Note("env nproc=%u kernel_backend=%s compiler=\"%s\" build_type=%s",
                  std::thread::hardware_concurrency(),
                  lps::kernels::ActiveBackendName(), __VERSION__,
                  build_type.c_str());
  if (lps::bench::Sanitized() || build_type != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s%s build; rebuild with "
                 "CMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 lps::bench::Sanitized() ? "sanitized " : "", build_type.c_str());
    return 3;
  }
  ::mkdir(args.workdir.c_str(), 0755);

  perfbench::Report report;
  int status = 2;
  if (args.workload == "edge_ingest") {
    status = perfbench::RunEdgeIngest(args, &report);
  } else if (args.workload == "mixed_query") {
    status = perfbench::RunMixedQuery(args, &report);
  } else if (args.workload == "file_replay") {
    status = perfbench::RunFileReplay(args, &report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
  }
  if (status != 0) return status;
  std::printf("%s\n", report.Json().c_str());
  return report.correct() ? 0 : 1;
}

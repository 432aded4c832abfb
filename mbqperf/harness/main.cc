// mbqperf: the closed-loop, oracle-checked benchmark harness.
//
//   mbqperf --workload <table2|tao_local|ldbc_cluster2|churn_wal>
//           --seed <n> --seconds <s> --trace <0|1>
//           --mbqd <path> --work-dir <dir>
//
// Prints the dataset's Table 1 counts and digests, per-phase counts, and
// as its last line one JSON object: {"correct", "attempted", "failed",
// "metrics"}. Exits non-zero when an answer disagrees with the oracle.
#include <unistd.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: mbqperf --workload W --seed N --seconds S --trace 0|1 "
               "--mbqd PATH --work-dir DIR\n"
               "       mbqperf --probe-empty-run\n");
}

}  // namespace

int main(int argc, char** argv) {
  mbqperf::Options opt;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--probe-empty-run") return mbqperf::ProbeEmptyRun();
    if (i + 1 >= argc) {
      Usage();
      return 2;
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && opt.seconds > 0 &&
                     opt.seconds <= 600;
    } else if (arg == "--trace") {
      opt.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage();
        return 2;
      }
    } else if (arg == "--mbqd") {
      opt.mbqd = value;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      Usage();
      return 2;
    }
  }
  if (!mbqperf::KnownWorkload(opt.workload) || !have_seed || !have_seconds ||
      opt.mbqd.empty() || opt.work_dir.empty()) {
    Usage();
    return 2;
  }
  char self[PATH_MAX] = {0};
  ssize_t n = readlink("/proc/self/exe", self, sizeof(self) - 1);
  if (n <= 0) {
    std::fprintf(stderr, "mbqperf: cannot resolve /proc/self/exe\n");
    return 2;
  }
  opt.self.assign(self, static_cast<size_t>(n));

  mbqperf::Report report;
  mbqperf::RunWorkload(opt, &report);
  if (report.attempted == 0) report.Fail("no operation was attempted");
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

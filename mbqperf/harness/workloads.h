#ifndef MBQPERF_WORKLOADS_H_
#define MBQPERF_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace mbqperf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string mbqd;      ///< path of the shard daemon binary
  std::string work_dir;  ///< scratch space inside the checkout
  std::string self;      ///< path of this binary (for the untraced probe)
};

/// Runs one workload; fills `report` with its metrics (end-to-end ones
/// when untraced, per-layer ones when traced).
void RunWorkload(const Options& options, Report* report);

/// The `--probe-empty-run` mode: loads the dataset into a nodestore
/// engine and prints the median `CypherSession::Run` time of a query
/// that matches nothing, in microseconds.
int ProbeEmptyRun();

bool KnownWorkload(const std::string& name);

}  // namespace mbqperf

#endif  // MBQPERF_WORKLOADS_H_

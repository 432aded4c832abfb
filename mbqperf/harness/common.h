// Small shared pieces of the harness: the clock, order statistics,
// process resource readings and the result record printed at the end.
#ifndef MBQPERF_COMMON_H_
#define MBQPERF_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mbqperf {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Quantile q in [0,1] of `values` by the nearest-rank rule (sorts a copy).
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Geometric mean of positive values; 0 for an empty input.
double GeoMean(const std::vector<double>& values);

/// Peak resident set (VmHWM) of a process, MiB; 0 when unreadable.
double PeakRssMib(pid_t pid);
/// CPU seconds (user + system) this process has used.
double SelfCpuSeconds();
/// CPU seconds (user + system) of another process; 0 when unreadable.
double ProcessCpuSeconds(pid_t pid);

/// What a run reports: the check verdict, operation counts and metrics
/// in insertion order.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Marks the run incorrect and prints why to stderr.
  void Fail(const std::string& what);
  std::string ToJson() const;
};

}  // namespace mbqperf

#endif  // MBQPERF_COMMON_H_

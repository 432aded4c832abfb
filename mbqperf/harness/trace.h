// The harness's own spans: one around each call it makes into a layer's
// public functions, kept in memory and written out as a Chrome trace at
// the end. Off (a single branch per call) unless --trace 1.
#ifndef MBQPERF_TRACE_H_
#define MBQPERF_TRACE_H_

#include <cstdint>
#include <string>

namespace mbqperf {

/// Starts recording, keeping at most `capacity` spans; later ones are
/// counted as dropped.
void EnableTracing(size_t capacity);
bool TracingEnabled();
/// Writes every recorded span as Chrome trace_event JSON.
bool WriteChromeTrace(const std::string& path);
uint64_t SpansRecorded();
uint64_t SpansDropped();

/// RAII span. The outermost span on a thread starts a new trace id (one
/// per top-level call); nested spans name it as their trace and the
/// enclosing span as their parent.
class Span {
 public:
  explicit Span(std::string name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
  std::string name_;
  uint64_t start_ = 0;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  uint64_t trace_ = 0;
};

}  // namespace mbqperf

#endif  // MBQPERF_TRACE_H_

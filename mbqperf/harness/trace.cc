#include "trace.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "common.h"

namespace mbqperf {

namespace {

struct SpanRecord {
  std::string name;
  uint64_t start, end, id, parent, trace;
  uint32_t thread;
};

struct ThreadBuffer {
  uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<uint64_t> open;  // stack of (id) of open spans
  uint64_t trace = 0;
};

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_capacity{0};
std::atomic<uint64_t> g_recorded{0};
std::atomic<uint64_t> g_dropped{0};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& Buffer() {
  thread_local ThreadBuffer* buffer = [] {
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    g_buffers.back()->thread = static_cast<uint32_t>(g_buffers.size());
    return g_buffers.back().get();
  }();
  return *buffer;
}

void JsonEscape(const std::string& s, std::string* out) {
  for (char c : s) {
    if (c == '"' || c == '\\') out->push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out->push_back(c);
  }
}

}  // namespace

void EnableTracing(size_t capacity) {
  g_capacity = capacity;
  g_enabled = true;
}

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }
uint64_t SpansRecorded() { return g_recorded.load(); }
uint64_t SpansDropped() { return g_dropped.load(); }

Span::Span(std::string name) : on_(TracingEnabled()) {
  if (!on_) return;
  name_ = std::move(name);
  ThreadBuffer& b = Buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (b.open.empty()) b.trace = id_;
  parent_ = b.open.empty() ? 0 : b.open.back();
  trace_ = b.trace;
  b.open.push_back(id_);
  start_ = NowNs();
}

Span::~Span() {
  if (!on_) return;
  uint64_t end = NowNs();
  ThreadBuffer& b = Buffer();
  b.open.pop_back();
  if (g_recorded.fetch_add(1, std::memory_order_relaxed) >= g_capacity) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b.spans.push_back({std::move(name_), start_, end, id_, parent_, trace_,
                     b.thread});
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"traceEvents\":[\n", f);
  bool first = true;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    for (const SpanRecord& s : buffer->spans) {
      std::string name;
      JsonEscape(s.name, &name);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"trace\":%llu}}",
                   first ? "" : ",\n", name.c_str(), s.thread, s.start / 1e3,
                   (s.end - s.start) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.trace));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace mbqperf

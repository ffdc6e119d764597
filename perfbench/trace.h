// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into each module's public functions;
// nothing inside src/ is instrumented. A span records its name, start,
// duration, the span that caused it (parent) and a request id shared by
// the spans of one request. Spans are kept in per-thread buffers owned by
// the Tracer and written as Chrome trace-event JSON (viewable in Perfetto or
// chrome://tracing) when the benchmark ends.
//
// A Span always times itself (Span::stop() returns the elapsed seconds), so
// timed loops run the same code in traced and untraced runs; when tracing is
// off it records nothing, and the only extra cost is one relaxed atomic load.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace mbs::perf {

struct SpanRecord {
  const char* name = nullptr;  ///< string literal; lives for the process
  std::int64_t start_ns = 0;   ///< since the tracer's epoch
  std::int64_t dur_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = 0;     ///< 0: no parent
  std::int64_t request = 0;    ///< 0: not part of a request
  int tid = 0;
};

class Tracer {
 public:
  static Tracer& instance();

  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  std::int64_t now_ns() const;
  std::int64_t next_id() { return next_id_.fetch_add(1) + 1; }
  void record(const SpanRecord& r);

  /// Durations in seconds of every recorded span called `name`.
  std::vector<double> durations(const std::string& name) const;
  std::size_t span_count() const;
  /// Writes all spans as a Chrome trace-event JSON document; false on an
  /// I/O error.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct ThreadBuffer {
    int tid = 0;
    std::vector<SpanRecord> spans;
  };
  Tracer();
  ThreadBuffer& local();

  std::atomic<bool> on_{false};
  std::atomic<std::int64_t> next_id_{0};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span. `parent` 0 means "the innermost open span on this thread".
class Span {
 public:
  explicit Span(const char* name, std::int64_t parent = 0,
                std::int64_t request = 0);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in seconds.
  double stop();
  /// Renames an open span, for spans classified by their outcome.
  void set_name(const char* name) { rec_.name = name; }
  std::int64_t id() const { return rec_.id; }

 private:
  SpanRecord rec_;
  bool traced_;
  bool open_ = true;
  std::chrono::steady_clock::time_point t0_;
  double seconds_ = 0;
  std::int64_t saved_current_ = 0;
};

}  // namespace mbs::perf

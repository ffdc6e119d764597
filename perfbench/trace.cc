#include "trace.h"

#include <cstdio>

namespace mbs::perf {

namespace {
thread_local std::int64_t t_current_span = 0;
thread_local void* t_buffer = nullptr;
}  // namespace

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadBuffer& Tracer::local() {
  if (!t_buffer) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    buffers_.back()->spans.reserve(4096);
    t_buffer = buffers_.back().get();
  }
  return *static_cast<ThreadBuffer*>(t_buffer);
}

void Tracer::record(const SpanRecord& r) {
  ThreadBuffer& b = local();
  b.spans.push_back(r);
  b.spans.back().tid = b.tid;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& b : buffers_)
    for (const SpanRecord& r : b->spans)
      if (name == r.name) out.push_back(static_cast<double>(r.dur_ns) * 1e-9);
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& b : buffers_) n += b->spans.size();
  return n;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n", f);
  bool first = true;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_)
    for (const SpanRecord& r : b->spans) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"mbs\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%lld,\"parent\":%lld,\"request\":%lld}}",
                   first ? "" : ",\n", r.name, r.tid,
                   static_cast<double>(r.start_ns) * 1e-3,
                   static_cast<double>(r.dur_ns) * 1e-3,
                   static_cast<long long>(r.id),
                   static_cast<long long>(r.parent),
                   static_cast<long long>(r.request));
      first = false;
    }
  std::fputs("\n]}\n", f);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

Span::Span(const char* name, std::int64_t parent, std::int64_t request)
    : traced_(Tracer::instance().on()) {
  if (traced_) {
    Tracer& t = Tracer::instance();
    rec_.name = name;
    rec_.id = t.next_id();
    rec_.parent = parent ? parent : t_current_span;
    rec_.request = request;
    saved_current_ = t_current_span;
    t_current_span = rec_.id;
    rec_.start_ns = t.now_ns();
  }
  t0_ = std::chrono::steady_clock::now();
}

double Span::stop() {
  if (!open_) return seconds_;
  open_ = false;
  const auto t1 = std::chrono::steady_clock::now();
  seconds_ = std::chrono::duration<double>(t1 - t0_).count();
  if (traced_) {
    rec_.dur_ns = static_cast<std::int64_t>(seconds_ * 1e9);
    t_current_span = saved_current_;
    Tracer::instance().record(rec_);
  }
  return seconds_;
}

}  // namespace mbs::perf

#ifndef LSD_LSDBENCH_BENCH_TRACE_H_
#define LSD_LSDBENCH_BENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/strings.h"

namespace lsd::benchtrace {

using Clock = std::chrono::steady_clock;

/// One completed span. Ids start at 1; a parent of 0 marks a root span.
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request_id = 0;
  uint32_t tid = 0;
  Clock::time_point begin;
  Clock::time_point end;
};

/// In-memory span recorder for the serving benchmark. Spans are recorded
/// by benchmark code around calls into the system's public functions and
/// kept in memory; `ToChromeJson` renders them once the run has ended, in
/// the Chrome trace_event format (load the file at ui.perfetto.dev). Every
/// event carries its request id, its own span id and its parent's id in
/// `args`, so one request can be followed from generator to receipt.
class SpanRecorder {
 public:
  explicit SpanRecorder(Clock::time_point epoch) : epoch_(epoch) {}

  /// Records a completed span and returns its id, for use as a parent.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request_id,
               uint32_t tid, Clock::time_point begin, Clock::time_point end) {
    std::lock_guard<std::mutex> lock(mu_);
    Span span;
    span.name = name;
    span.id = spans_.size() + 1;
    span.parent = parent;
    span.request_id = request_id;
    span.tid = tid;
    span.begin = begin;
    span.end = end;
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  std::string ToChromeJson() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::string out = "{\"traceEvents\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      out += StrFormat(
          "{\"name\": \"%s\", \"cat\": \"lsd_bench\", \"ph\": \"X\", "
          "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
          "\"args\": {\"request_id\": %llu, \"span_id\": %llu, "
          "\"parent\": %llu}}%s\n",
          span.name.c_str(), MicrosSinceEpoch(span.begin),
          std::chrono::duration<double, std::micro>(span.end - span.begin)
              .count(),
          span.tid, static_cast<unsigned long long>(span.request_id),
          static_cast<unsigned long long>(span.id),
          static_cast<unsigned long long>(span.parent),
          i + 1 < spans_.size() ? "," : "");
    }
    out += "], \"displayTimeUnit\": \"ms\"}\n";
    return out;
  }

 private:
  double MicrosSinceEpoch(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace lsd::benchtrace

#endif  // LSD_LSDBENCH_BENCH_TRACE_H_

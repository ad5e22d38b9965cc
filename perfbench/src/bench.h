#pragma once
// Shared pieces of the end-to-end benchmark program: clocks, order
// statistics, the metric list printed as the result line, the resident-set
// sampler, and the in-memory span tracer of the traced run.
//
// Tracing model. A span is one timed call into a layer of the program,
// recorded from the benchmark's own code around that call: name, start,
// end, the span that was open when it began (its parent), a group id
// (spans of one request share it), and how many operations it covers (a
// span around a loop of 1000 registry hits has n = 1000). Spans are only
// ever recorded from the driving thread; they stay in memory and are
// written out as JSON lines when the run ends. With tracing off every
// span call is a branch on a flag and records nothing.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linear-interpolated percentile, q in [0, 1] (copies and sorts).
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Keeps the highest resident set (from /proc/self/statm) seen by
/// sample(); call it at phase
/// boundaries and periodically inside the measured loops.
class RssSampler {
 public:
  void sample();
  /// sample() at most every 20 ms (cheap to call in a hot loop).
  void maybe_sample(Clock::time_point now);
  double max_mb() const { return max_mb_; }

 private:
  double max_mb_ = 0.0;
  Clock::time_point last_{};
};

struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int32_t parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t n = 1;
};

class Tracer {
 public:
  /// Spans kept in memory; later ones are counted in dropped() only.
  static constexpr std::size_t kMaxSpans = 400000;

  void enable(Clock::time_point origin) {
    enabled_ = true;
    origin_ = origin;
  }
  bool enabled() const { return enabled_; }

  /// Open a span (becomes the parent of spans opened before close()).
  /// Returns its index, or -1 when tracing is off or the buffer is full.
  std::int32_t open(const char* name, std::uint64_t id, std::uint64_t n);
  void close(std::int32_t index);
  /// Record an already-timed span under the currently open one.
  void record(const char* name, std::uint64_t id, Clock::time_point start,
              Clock::time_point end, std::uint64_t n = 1);

  std::size_t size() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }

  /// Write every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::int64_t ns_of(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_ = false;
  Clock::time_point origin_{};
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint64_t dropped_ = 0;
};

/// The process-wide tracer (spans come from the main thread only).
Tracer& tracer();

/// RAII span around a call into one layer.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t id = 0,
                      std::uint64_t n = 1)
      : index_(tracer().enabled() ? tracer().open(name, id, n) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) tracer().close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  std::int32_t index_;
};

}  // namespace pb

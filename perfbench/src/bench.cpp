#include "bench.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace pb {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

double rss_mb_now() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0, pages_resident = 0;
  if (!(statm >> pages_total >> pages_resident)) return 0.0;
  return static_cast<double>(pages_resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace

void RssSampler::sample() {
  max_mb_ = std::max(max_mb_, rss_mb_now());
  last_ = Clock::now();
}

void RssSampler::maybe_sample(Clock::time_point now) {
  if (now - last_ >= std::chrono::milliseconds(20)) sample();
}

std::int32_t Tracer::open(const char* name, std::uint64_t id,
                          std::uint64_t n) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return -1;
  }
  Span span;
  span.name = name;
  span.id = id;
  span.n = n;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = ns_of(Clock::now());
  spans_.push_back(span);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = ns_of(Clock::now());
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void Tracer::record(const char* name, std::uint64_t id,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t n) {
  if (!enabled_) return;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  Span span;
  span.name = name;
  span.id = id;
  span.n = n;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.start_ns = ns_of(start);
  span.end_ns = ns_of(end);
  spans_.push_back(span);
}

bool Tracer::write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"i\":%zu,\"name\":\"%s\",\"id\":%llu,\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"n\":%llu}\n",
                 i, s.name, static_cast<unsigned long long>(s.id), s.parent,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.n));
  }
  return std::fclose(out) == 0;
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

}  // namespace pb

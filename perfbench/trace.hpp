// In-memory span recorder for the benchmark's traced mode, with a
// Chrome trace-event export that Perfetto and about:tracing open.
//
// A span carries its name, start, end, parent span, the id of the solve
// or request it belongs to, and numeric args (counters read off the
// report). Spans are recorded around the benchmark's calls into each
// layer's public functions; per-layer metrics are medians over spans of
// one name. When tracing is off nothing is recorded: add() and set_arg()
// return at once, and time() only reads the clock.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace kcb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) noexcept {
  return std::chrono::duration<double>(b - a).count();
}

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;        ///< index of the parent span, -1 for a root
  std::uint64_t op = 0;   ///< solve or request id
  std::string tid;        ///< "client", "consumer", ...
  std::vector<std::pair<std::string, double>> args;

  [[nodiscard]] double seconds() const noexcept {
    return seconds_between(start, end);
  }
  [[nodiscard]] double arg(const std::string& key, double fallback) const {
    for (const auto& [k, v] : args) {
      if (k == key) return v;
    }
    return fallback;
  }
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Records a finished interval; returns its index (-1 when off).
  int add(std::string name, Clock::time_point start, Clock::time_point end,
          int parent, std::uint64_t op, std::string tid = "main",
          std::vector<std::pair<std::string, double>> args = {}) {
    if (!on_) return -1;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(Span{std::move(name), start, end, parent, op,
                          std::move(tid), std::move(args)});
    return static_cast<int>(spans_.size()) - 1;
  }

  struct Timed {
    int span;        ///< span index, -1 when off
    double seconds;  ///< measured either way
  };

  /// Times `body()` and records it as a span.
  template <typename Body>
  Timed time(std::string name, int parent, std::uint64_t op, Body&& body) {
    const Clock::time_point start = Clock::now();
    body();
    const Clock::time_point end = Clock::now();
    return {add(std::move(name), start, end, parent, op),
            seconds_between(start, end)};
  }

  /// Re-parents span `child` (used for roots opened after their
  /// children were timed).
  void set_parent(int child, int parent) {
    if (!on_ || child < 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(child)].parent = parent;
  }

  void set_arg(int span, std::string key, double value) {
    if (!on_ || span < 0) return;
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(span)].args.emplace_back(std::move(key),
                                                            value);
  }

  /// Every span of `name` (copies, after recording has finished).
  [[nodiscard]] std::vector<Span> named(const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  }

  /// Every span whose parent is a span of `parent_name`, and whose own
  /// name is `name`.
  [[nodiscard]] std::vector<Span> children(const std::string& parent_name,
                                           const std::string& name) const {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.parent >= 0 &&
          spans_[static_cast<std::size_t>(s.parent)].name == parent_name) {
        out.push_back(s);
      }
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events,
  /// microseconds from the tracer's creation). `metadata` lands in the
  /// top-level "metadata" object as numbers.
  bool write_chrome(const std::string& path,
                    const std::vector<std::pair<std::string, double>>&
                        metadata) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts =
          std::chrono::duration<double, std::micro>(s.start - origin_).count();
      const double dur =
          std::chrono::duration<double, std::micro>(s.end - s.start).count();
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"cat\": \"kc\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": \"%s\", "
                   "\"args\": {\"span\": %zu, \"parent\": %d, \"op\": %llu",
                   i == 0 ? "" : ",\n", s.name.c_str(), ts, dur, s.tid.c_str(),
                   i, s.parent, static_cast<unsigned long long>(s.op));
      for (const auto& [k, v] : s.args) {
        std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
      }
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n], \"metadata\": {");
    for (std::size_t i = 0; i < metadata.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %.17g", i == 0 ? "" : ", ",
                   metadata[i].first.c_str(), metadata[i].second);
    }
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Median of `v` (0 for an empty vector); sorts a copy.
[[nodiscard]] inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace kcb

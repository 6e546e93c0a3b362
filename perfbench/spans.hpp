// In-memory span log of the traced benchmark run.
//
// Spans are recorded only in the benchmark's own code, around calls into
// the MIDAS modules' public functions, or laid out from the timing fields
// a QueryResult returns. They stay in memory and are written once, at the
// end, as a Chrome trace, and rolled up into a per-layer self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_s = 0.0;  // seconds since the log's epoch
  double end_s = 0.0;
  std::int64_t parent = -1;  // index into the log, -1 for a root
  std::uint64_t query = 0;   // query id shared by one request's spans
  int lane = 0;              // Chrome-trace thread row
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(Clock::time_point epoch = Clock::now()) : epoch_(epoch) {}

  [[nodiscard]] double at(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }
  [[nodiscard]] double now() const { return at(Clock::now()); }

  /// Append a finished span; returns its index (a parent for later spans).
  std::int64_t add(std::string name, double start_s, double end_s,
                   std::int64_t parent = -1, std::uint64_t query = 0,
                   int lane = 0);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Times one call: opens at construction and closes at destruction,
  /// nested under the innermost open Scope of the same log. A null log
  /// records nothing, so untraced runs pay one branch.
  class Scope {
   public:
    Scope(SpanLog* log, std::string name, std::uint64_t query = 0,
          int lane = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int64_t index_ = -1;
  };

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;  // Scope stack
};

/// Length of the union of `intervals`, clipped to [lo, hi].
[[nodiscard]] double covered(std::vector<std::pair<double, double>> intervals,
                             double lo, double hi);

/// One row of the self-time table.
struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;  // summed span durations
  double self_s = 0.0;   // summed (duration - time covered by children)
};

/// Per-name rollup, in order of first appearance. Self time subtracts the
/// union of a span's children, so overlapping children count once.
[[nodiscard]] std::vector<LayerRow> self_times(const std::vector<Span>& spans);

/// Write the spans as a Chrome trace ("X" events, microseconds).
void write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);

}  // namespace perfbench

// In-memory spans recorded by the benchmark around its calls into each
// layer of the library (traced runs only).
//
// A span has a name, a start and end on the steady clock, the span that
// was open when it started (its parent), and the root span of its tree
// (spans of one timed operation share that root). A layer's self time is
// its span's duration minus the part of that interval its children cover.
// Spans stay in memory and are written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hemobench {

struct Span {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1 for a root span
  std::int64_t root = 0;     ///< id of the root span of this tree
  double start_s = 0.0;      ///< seconds since the tracer's epoch
  double end_s = 0.0;
};

/// Self time of every span, aligned with `spans`: its duration minus the
/// union of its children's intervals clipped to it. Overlapping children
/// (work fanned out to threads) are counted once.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Self times grouped by span name.
[[nodiscard]] std::map<std::string, std::vector<double>> self_times_by_name(
    const std::vector<Span>& spans);

/// Summed self time of the spans named `name`, one sum per span tree
/// (root id), in order of first appearance: e.g. the total register time
/// of each scheduler set-up.
[[nodiscard]] std::vector<double> self_totals_per_root(
    const std::vector<Span>& spans, const std::string& name);

/// Span recorder for one benchmark thread. While disabled,
/// scopes record nothing and read no clock.
class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : epoch_(Clock::now()) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// RAII span: opened by the constructor, closed by the destructor.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;  ///< null when recording nothing
    std::size_t index_ = 0;
  };

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Chrome trace-event JSON (open in ui.perfetto.dev).
  [[nodiscard]] std::string chrome_json() const;

 private:
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indices into spans_, innermost last
};

}  // namespace hemobench

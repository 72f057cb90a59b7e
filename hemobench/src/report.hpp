// Metric catalogue and result rendering.
//
// The catalogue here is the single list of metric names and units the
// benchmark prints; BENCHMARK.json at the repository root mirrors it and
// run.py refuses a result whose names or units disagree with that file.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hemobench {

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_is_better = false;
  std::string provenance;  ///< "measured", "computed" or "reported"
};

/// Metrics of an untraced run: what a user of the system sees.
[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();

/// Metrics of a traced run: one layer each.
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();

/// A name starts with a letter or digit and has at most 64 letters,
/// digits, '_', '.' and '-'.
[[nodiscard]] bool valid_metric_name(std::string_view name);

/// A unit has 1 to 16 letters, digits, '_', '/', '%', '.' and '-'.
[[nodiscard]] bool valid_unit(std::string_view unit);

/// Shortest decimal text that parses back to exactly `v` (JSON number).
[[nodiscard]] std::string json_number(double v);

/// Quoted, escaped JSON string.
[[nodiscard]] std::string json_string(std::string_view s);

/// Insertion-ordered JSON object builder for the result lines.
class JsonObject {
 public:
  JsonObject& add(std::string_view key, double value);
  JsonObject& add(std::string_view key, long long value);
  JsonObject& add(std::string_view key, int value) {
    return add(key, static_cast<long long>(value));
  }
  JsonObject& add(std::string_view key, bool value);
  JsonObject& add(std::string_view key, std::string_view value);
  JsonObject& add(std::string_view key, const char* value) {
    return add(key, std::string_view(value));
  }
  JsonObject& add(std::string_view key, const JsonObject& value);

  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  JsonObject& raw(std::string_view key, const std::string& json);
  std::string body_;
};

/// What one workload run measured and checked.
struct Outcome {
  std::map<std::string, double> values;  ///< metric name -> value
  long long attempted = 0;               ///< timed operations
  long long failed = 0;                  ///< operations whose check failed
  std::vector<std::string> check_failures;
  JsonObject context;  ///< sample counts, sizes, settings
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"},
/// with every metric of `defs`. Throws when a value is missing.
[[nodiscard]] std::string result_line(const Outcome& outcome,
                                      const std::vector<MetricDef>& defs);

}  // namespace hemobench

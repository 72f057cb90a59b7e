#include "report.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <set>
#include <stdexcept>

namespace hemobench {

namespace {

MetricDef lower(std::string name, std::string unit, std::string provenance) {
  return {std::move(name), std::move(unit), false, std::move(provenance)};
}

MetricDef higher(std::string name, std::string unit, std::string provenance) {
  return {std::move(name), std::move(unit), true, std::move(provenance)};
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      lower("setup_s", "s", "measured"),
      higher("mflups", "MFLUPS", "measured"),
      lower("step_ms_p50", "ms", "measured"),
      lower("step_ms_p90", "ms", "measured"),
      lower("peak_rss_mb", "MB", "measured"),
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // set-up layers -> setup_s
      lower("geometry.build_s", "s", "measured"),
      lower("lbm.mesh_build_s", "s", "measured"),
      lower("lbm.solver_init_s", "s", "measured"),
      lower("decomp.partition_s", "s", "measured"),
      lower("sched.register_s", "s", "measured"),
      // kernel -> mflups, step_ms_* on ranks-halo
      lower("lbm.step_self_ms", "ms", "measured"),
      lower("lbm.bytes_per_flup", "B", "computed"),
      higher("lbm.stream_copy_gbs", "GB/s", "measured"),
      higher("lbm.roofline_fraction", "ratio", "measured"),
      lower("lbm.spans", "count", "computed"),
      higher("lbm.mean_span_len", "points", "computed"),
      // rank runtime -> mflups, step_ms_p90 on ranks-halo
      lower("runtime.mem_us", "us", "reported"),
      lower("runtime.pack_us", "us", "reported"),
      lower("runtime.wait_us", "us", "reported"),
      lower("runtime.unpack_us", "us", "reported"),
      lower("runtime.imbalance", "ratio", "reported"),
      lower("runtime.comm_share", "ratio", "reported"),
      lower("decomp.halo_bytes", "B", "computed"),
      lower("decomp.channels", "count", "computed"),
      lower("decomp.ghosts", "count", "computed"),
      lower("runtime.model_step_err", "ratio", "computed"),
      // scheduler and model -> campaign-mixed
      lower("sched.place_us_p50", "us", "measured"),
      lower("sched.place_us_p99", "us", "measured"),
      lower("core.dashboard_eval_us", "us", "measured"),
      lower("sched.scaling_exponent", "exponent", "measured"),
      lower("sched.attempts", "count", "reported"),
      lower("sched.requeues", "count", "reported"),
      higher("sched.useful_ratio", "ratio", "reported"),
      higher("jobs_per_s", "1/s", "measured"),
      lower("campaign_usd", "USD", "reported"),
      lower("campaign_makespan_h", "h", "reported"),
      lower("pred_err_late", "ratio", "reported"),
      // instrumentation cost
      lower("obs.trace_overhead", "ratio", "measured"),
      lower("obs.profiler_step_ratio", "ratio", "measured"),
  };
  return defs;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name.front()))) return false;
  for (const char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-') {
      return false;
    }
  }
  return true;
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  for (const char c : unit) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '/' &&
        c != '%' && c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonObject& JsonObject::raw(std::string_view key, const std::string& json) {
  if (!body_.empty()) body_ += ", ";
  body_ += json_string(key) + ": " + json;
  return *this;
}

JsonObject& JsonObject::add(std::string_view key, double value) {
  return raw(key, json_number(value));
}

JsonObject& JsonObject::add(std::string_view key, long long value) {
  return raw(key, std::to_string(value));
}

JsonObject& JsonObject::add(std::string_view key, bool value) {
  return raw(key, value ? "true" : "false");
}

JsonObject& JsonObject::add(std::string_view key, std::string_view value) {
  return raw(key, json_string(value));
}

JsonObject& JsonObject::add(std::string_view key, const JsonObject& value) {
  return raw(key, value.str());
}

std::string result_line(const Outcome& outcome,
                        const std::vector<MetricDef>& defs) {
  JsonObject metrics;
  std::set<std::string> seen;
  for (const MetricDef& def : defs) {
    if (!valid_metric_name(def.name) || !valid_unit(def.unit) ||
        !seen.insert(def.name).second) {
      throw std::logic_error("bad metric definition: " + def.name);
    }
    const auto it = outcome.values.find(def.name);
    if (it == outcome.values.end()) {
      throw std::logic_error("workload did not measure " + def.name);
    }
    metrics.add(def.name,
                JsonObject().add("value", it->second).add("unit", def.unit));
  }
  const bool correct = outcome.failed == 0 && outcome.check_failures.empty();
  return JsonObject()
      .add("correct", correct)
      .add("attempted", outcome.attempted)
      .add("failed", outcome.failed)
      .add("metrics", metrics)
      .str();
}

}  // namespace hemobench

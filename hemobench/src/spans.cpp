#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace hemobench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::map<std::int64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const auto it = by_id.find(s.parent);
    if (it != by_id.end()) children[it->second].emplace_back(s.start_s, s.end_s);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start_s;  // end of the union covered so far
    for (const auto& [lo_raw, hi_raw] : kids) {
      const double lo = std::max(lo_raw, reach);
      const double hi = std::min(hi_raw, s.end_s);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    out[i] = (s.end_s - s.start_s) - covered;
  }
  return out;
}

std::map<std::string, std::vector<double>> self_times_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(self[i]);
  }
  return out;
}

std::vector<double> self_totals_per_root(const std::vector<Span>& spans,
                                         const std::string& name) {
  const std::vector<double> self = self_times(spans);
  std::vector<double> totals;
  std::map<std::int64_t, std::size_t> slot;  // root id -> index in totals
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    const auto [it, inserted] = slot.emplace(spans[i].root, totals.size());
    if (inserted) totals.push_back(0.0);
    totals[it->second] += self[i];
  }
  return totals;
}

Tracer::Scope::Scope(Tracer& tracer, std::string name) {
  if (!tracer.enabled_) return;
  tracer_ = &tracer;
  Span s;
  s.name = std::move(name);
  s.id = static_cast<std::int64_t>(tracer.spans_.size());
  if (!tracer.open_.empty()) {
    const Span& parent = tracer.spans_[tracer.open_.back()];
    s.parent = parent.id;
    s.root = parent.root;
  } else {
    s.root = s.id;
  }
  index_ = tracer.spans_.size();
  tracer.spans_.push_back(std::move(s));
  tracer.open_.push_back(index_);
  tracer.spans_[index_].start_s = tracer.now_s();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_s = tracer_->now_s();
  tracer_->open_.pop_back();
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\": [\n";
  char buf[192];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                  "\"dur\": %.3f, \"args\": {\"id\": %lld, \"parent\": %lld, "
                  "\"root\": %lld}}",
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6,
                  static_cast<long long>(s.id), static_cast<long long>(s.parent),
                  static_cast<long long>(s.root));
    out += "{\"name\": \"" + s.name + buf;
    out += i + 1 < spans_.size() ? ",\n" : "\n";
  }
  out += "]}\n";
  return out;
}

}  // namespace hemobench

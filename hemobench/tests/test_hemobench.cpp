// Tests of the benchmark's own helpers: order statistics, span self time,
// the metric catalogue, and the seed -> campaign determinism the
// campaign-mixed workload relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "report.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace hemobench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Stats, MedianOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const auto q10 = quartiles(one_to(10));
  EXPECT_DOUBLE_EQ(q10[0], 2.75);
  EXPECT_DOUBLE_EQ(q10[1], 5.5);
  EXPECT_DOUBLE_EQ(q10[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  const auto q2 = quartiles({2.0, 1.0});
  EXPECT_DOUBLE_EQ(q2[0], 0.75);
  EXPECT_DOUBLE_EQ(q2[1], 1.5);
  EXPECT_DOUBLE_EQ(q2[2], 2.25);
  // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
  const auto q5 = quartiles({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(q5[0], 1.5);
  EXPECT_DOUBLE_EQ(q5[1], 3.0);
  EXPECT_DOUBLE_EQ(q5[2], 4.5);
  EXPECT_DOUBLE_EQ(relative_iqr(one_to(10)), (8.25 - 2.75) / 5.5);
}

TEST(Stats, PercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(min_samples_for(50), 20u);
  EXPECT_EQ(min_samples_for(90), 100u);
  EXPECT_EQ(min_samples_for(99), 1000u);
  // 100 samples: p90 is the 90th value and exactly 10 lie beyond it.
  EXPECT_EQ(percentile(one_to(100), 90), 90.0);
  // 99 samples leave only 9 beyond the nearest rank: not reportable.
  EXPECT_FALSE(percentile(one_to(99), 90).has_value());
  EXPECT_FALSE(percentile(one_to(19), 50).has_value());
  EXPECT_EQ(percentile(one_to(20), 50), 10.0);
  EXPECT_EQ(percentile(one_to(1000), 99), 990.0);
  EXPECT_FALSE(percentile(one_to(999), 99).has_value());
  EXPECT_FALSE(percentile({}, 50).has_value());
  // Lower percentiles need 10 samples below them: p10 of 101 is the 11th.
  EXPECT_EQ(min_samples_for(10), 101u);
  EXPECT_EQ(percentile(one_to(101), 10), 11.0);
  EXPECT_FALSE(percentile(one_to(100), 10).has_value());
  EXPECT_THROW((void)percentile(one_to(10), 100), std::invalid_argument);
}

TEST(Stats, LogLogSlopeRecoversPowerLaw) {
  const std::vector<double> n = {125, 250, 500};
  std::vector<double> t;
  for (const double x : n) t.push_back(3e-7 * x * x * x);
  EXPECT_NEAR(loglog_slope(n, t), 3.0, 1e-12);
  EXPECT_THROW((void)loglog_slope({1.0, 1.0}, {2.0, 3.0}), std::invalid_argument);
}

Span make_span(std::int64_t id, std::int64_t parent, double start, double end) {
  Span s;
  s.name = "s" + std::to_string(id);
  s.id = id;
  s.parent = parent;
  s.start_s = start;
  s.end_s = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildrenOnce) {
  // root [0, 10] with children [1, 3] and overlapping [2, 6] (union 5 s),
  // and a grandchild [4, 5] that only reduces its own parent.
  const std::vector<Span> spans = {
      make_span(0, -1, 0.0, 10.0), make_span(1, 0, 1.0, 3.0),
      make_span(2, 0, 2.0, 6.0), make_span(3, 2, 4.0, 5.0),
      // a child sticking out of its parent is clipped to it
      make_span(4, -1, 20.0, 22.0), make_span(5, 4, 21.0, 30.0)};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 5.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 3.0);
  EXPECT_DOUBLE_EQ(self[3], 1.0);
  EXPECT_DOUBLE_EQ(self[4], 1.0);
  EXPECT_DOUBLE_EQ(self[5], 9.0);
}

TEST(Spans, TracerRecordsNestingOnlyWhenEnabled) {
  Tracer tracer;
  { const Tracer::Scope off(tracer, "ignored"); }
  EXPECT_TRUE(tracer.spans().empty());
  tracer.set_enabled(true);
  {
    const Tracer::Scope outer(tracer, "outer");
    const Tracer::Scope a(tracer, "inner");
    { const Tracer::Scope b(tracer, "leaf"); }
  }
  { const Tracer::Scope second(tracer, "inner"); }
  const auto& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].root, spans[0].id);
  EXPECT_EQ(spans[3].parent, -1);
  EXPECT_EQ(spans[3].root, spans[3].id);
  EXPECT_LE(spans[0].start_s, spans[1].start_s);
  EXPECT_GE(spans[0].end_s, spans[1].end_s);
  // one total per tree for "inner": the nested one and the second root
  EXPECT_EQ(self_totals_per_root(spans, "inner").size(), 2u);
  EXPECT_EQ(self_times_by_name(spans).at("inner").size(), 2u);
}

TEST(Metrics, NameAndUnitRules) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("lbm.step_self_ms"));
  EXPECT_TRUE(valid_metric_name("9lives-x"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading"));
  EXPECT_FALSE(valid_metric_name(".leading"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("slash/no"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("GB/s"));
  EXPECT_FALSE(valid_unit(""));
  EXPECT_FALSE(valid_unit("m s"));
  EXPECT_FALSE(valid_unit(std::string(17, 'a')));
}

TEST(Metrics, CatalogueIsValidUniqueAndHasSetup) {
  std::set<std::string> names;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& def : *defs) {
      EXPECT_TRUE(valid_metric_name(def.name)) << def.name;
      EXPECT_TRUE(valid_unit(def.unit)) << def.unit;
      EXPECT_TRUE(names.insert(def.name).second) << "duplicate " << def.name;
      EXPECT_TRUE(def.provenance == "measured" || def.provenance == "computed" ||
                  def.provenance == "reported")
          << def.name;
    }
  }
  EXPECT_TRUE(names.contains("setup_s"));
}

TEST(Metrics, ResultLineHasExactlyTheContractKeys) {
  Outcome out;
  for (const MetricDef& def : end_to_end_metrics()) out.values[def.name] = 1.25;
  out.attempted = 7;
  const std::string line = result_line(out, end_to_end_metrics());
  EXPECT_EQ(line.rfind("{\"correct\": true, \"attempted\": 7, \"failed\": 0, "
                       "\"metrics\": {\"setup_s\": {\"value\": 1.25, "
                       "\"unit\": \"s\"}",
                       0),
            0u);
  out.values.erase("setup_s");
  EXPECT_THROW((void)result_line(out, end_to_end_metrics()), std::logic_error);
  out.values["setup_s"] = 1.0;
  out.failed = 1;
  EXPECT_EQ(result_line(out, end_to_end_metrics()).rfind("{\"correct\": false", 0), 0u);
}

TEST(Metrics, JsonNumbersRoundTripAllDigits) {
  EXPECT_EQ(json_number(0.1), "0.1");
  EXPECT_EQ(std::stod(json_number(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_THROW((void)json_number(1.0 / 0.0), std::invalid_argument);
}

TEST(Campaign, SeedOrdersAFixedBalancedMix) {
  const auto jobs = campaign_jobs(5, 300);
  const auto other = campaign_jobs(6, 300);
  using Job = std::tuple<std::string, hemo::index_t, double, bool>;
  const auto as_tuples = [](const std::vector<hemo::sched::CampaignJobSpec>& specs) {
    std::vector<Job> out;
    for (const auto& s : specs) {
      out.emplace_back(s.geometry, s.timesteps, s.resolution_factor, s.allow_spot);
    }
    return out;
  };
  std::vector<Job> mix = as_tuples(jobs), mix_other = as_tuples(other);
  int same_position = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) same_position += mix[i] == mix_other[i];
  // The seed decides which job gets which values...
  EXPECT_LT(same_position, 30);
  // ...but every seed asks for the same jobs.
  std::sort(mix.begin(), mix.end());
  std::sort(mix_other.begin(), mix_other.end());
  EXPECT_EQ(mix, mix_other);

  // Every attribute takes each value equally often.
  std::map<std::string, int> per_geometry;
  std::map<double, int> per_factor;
  int spot = 0;
  for (const auto& spec : jobs) {
    ++per_geometry[spec.geometry];
    ++per_factor[spec.resolution_factor];
    spot += spec.allow_spot ? 1 : 0;
    EXPECT_GE(spec.timesteps, 20000);
    EXPECT_LE(spec.timesteps, 100000);
  }
  ASSERT_EQ(per_geometry.size(), 3u);
  for (const auto& [name, count] : per_geometry) EXPECT_EQ(count, 100) << name;
  ASSERT_EQ(per_factor.size(), 3u);
  for (const auto& [factor, count] : per_factor) EXPECT_EQ(count, 100) << factor;
  EXPECT_EQ(spot, 100);
}

TEST(Campaign, SameSeedSameJobsAndCsvDigest) {
  const auto a = campaign_jobs(11, 40);
  const auto b = campaign_jobs(11, 40);
  ASSERT_EQ(a.size(), 40u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].geometry, b[i].geometry);
    EXPECT_EQ(a[i].timesteps, b[i].timesteps);
    EXPECT_EQ(a[i].resolution_factor, b[i].resolution_factor);
    EXPECT_EQ(a[i].allow_spot, b[i].allow_spot);
  }
  const std::uint64_t digest = fnv1a64(campaign_csv(11, 40));
  EXPECT_EQ(fnv1a64(campaign_csv(11, 40)), digest);
  EXPECT_NE(fnv1a64(campaign_csv(12, 40)), digest);
}

}  // namespace
}  // namespace hemobench

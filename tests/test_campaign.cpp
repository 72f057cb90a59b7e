// Tests for the campaign tracker (iterative refinement) and the
// model-driven job guard (overrun protection).
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <map>
#include <sstream>
#include <string>

#include "core/campaign.hpp"
#include "core/persistence.hpp"
#include "util/rng.hpp"

namespace hemo::core {
namespace {

Observation obs(real_t predicted, real_t measured) {
  return Observation{"aorta", "CSP-2", 36, units::Mflups(predicted),
                     units::Mflups(measured)};
}

TEST(CampaignTracker, EmptyTrackerIsNeutral) {
  CampaignTracker t;
  EXPECT_DOUBLE_EQ(t.correction_factor(), 1.0);
  EXPECT_DOUBLE_EQ(t.refined_mflups(units::Mflups(50.0)).value(), 50.0);
  EXPECT_DOUBLE_EQ(t.mean_abs_relative_error(), 0.0);
}

TEST(CampaignTracker, LearnsConsistentOverprediction) {
  CampaignTracker t;
  // Model predicts 25 % high everywhere.
  for (real_t measured : {40.0, 80.0, 120.0}) {
    t.record(obs(measured * 1.25, measured));
  }
  EXPECT_NEAR(t.correction_factor(), 0.8, 1e-12);
  EXPECT_NEAR(t.refined_mflups(units::Mflups(100.0)).value(), 80.0, 1e-9);
  // Refinement collapses the error for a consistent bias.
  EXPECT_NEAR(t.mean_abs_relative_error(), 0.25, 1e-12);
  EXPECT_NEAR(t.refined_mean_abs_relative_error(), 0.0, 1e-12);
}

TEST(CampaignTracker, GeometricMeanIsScaleInvariant) {
  CampaignTracker t;
  t.record(obs(200.0, 100.0));  // ratio 0.5
  t.record(obs(50.0, 100.0));   // ratio 2.0
  EXPECT_NEAR(t.correction_factor(), 1.0, 1e-12);
}

TEST(CampaignTracker, RefinementImprovesNoisyButBiasedData) {
  CampaignTracker t;
  const real_t ratios[] = {0.72, 0.78, 0.81, 0.75, 0.79};
  for (real_t r : ratios) t.record(obs(100.0, 100.0 * r));
  EXPECT_LT(t.refined_mean_abs_relative_error(),
            t.mean_abs_relative_error() * 0.25);
}

TEST(CampaignTracker, RejectsNonPositiveThroughputs) {
  CampaignTracker t;
  EXPECT_THROW(t.record(obs(0.0, 10.0)), PreconditionError);
  EXPECT_THROW(t.record(obs(10.0, -1.0)), PreconditionError);
}

TEST(JobGuard, LimitsFollowToleranceAndPrice) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(3600.0);
  g.tolerance = 0.10;
  g.price_per_hour = units::DollarsPerHour(12.0);
  EXPECT_NEAR(g.max_seconds().value(), 3960.0, 1e-9);
  EXPECT_NEAR(g.max_dollars().value(), 3960.0 / 3600.0 * 12.0, 1e-9);
}

TEST(JobGuard, AbortsWhenHardLimitExceeded) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.10;
  EXPECT_TRUE(g.should_abort(units::Seconds(111.0), 0.9));
  EXPECT_FALSE(g.should_abort(units::Seconds(50.0), 0.5));
}

TEST(JobGuard, AbortsOnProjectedOverrun) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.10;
  // 30 s elapsed for 20 % done projects to 150 s > 110 s: flag it early.
  EXPECT_TRUE(g.should_abort(units::Seconds(30.0), 0.2));
  // On pace: 22 s for 20 % projects exactly to the limit.
  EXPECT_FALSE(g.should_abort(units::Seconds(21.9), 0.2));
}

TEST(JobGuard, ExactToleranceBoundary) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.10;
  // The hard limit is inclusive: landing exactly on max_seconds() stops
  // the job ...
  EXPECT_TRUE(g.should_abort(g.max_seconds(), 0.5));
  // ... but a pace that *projects* exactly onto the limit is still
  // acceptable (strict overshoot required): 22 s for 20 % -> 110 s == max.
  EXPECT_FALSE(g.should_abort(units::Seconds(22.0), 0.2));
  EXPECT_TRUE(g.should_abort(units::Seconds(22.0 * (1.0 + 1e-9)), 0.2));
}

TEST(JobGuard, ZeroToleranceStopsAtThePrediction) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  g.tolerance = 0.0;
  EXPECT_NEAR(g.max_seconds().value(), 100.0, 1e-12);
  EXPECT_FALSE(g.should_abort(units::Seconds(99.0), 0.99));
  EXPECT_TRUE(g.should_abort(units::Seconds(100.0), 0.99));
}

TEST(JobGuard, RejectsFractionOutsideUnitInterval) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  EXPECT_THROW((void)g.should_abort(units::Seconds(10.0), -0.1), PreconditionError);
  EXPECT_THROW((void)g.should_abort(units::Seconds(10.0), 1.1), PreconditionError);
}

TEST(CampaignTracker, ConvergesToTrueBiasWithMoreObservations) {
  // Noisy measurements around a true 25 % overprediction: the learned
  // factor closes in on 0.75 as observations accumulate.
  CampaignTracker t;
  const real_t noise[] = {1.15, 1.08, 0.87, 1.04, 0.93, 0.96, 1.02, 0.98};
  real_t error_after_two = 0.0;
  for (std::size_t i = 0; i < std::size(noise); ++i) {
    t.record(obs(100.0, 75.0 * noise[i]));
    if (i == 1) error_after_two = std::abs(t.correction_factor() - 0.75);
  }
  const real_t error_after_eight = std::abs(t.correction_factor() - 0.75);
  EXPECT_LT(error_after_eight, error_after_two);
  EXPECT_NEAR(t.correction_factor(), 0.75, 0.02);
}

TEST(JobGuard, NoProgressYetOnlyHardLimitApplies) {
  JobGuard g;
  g.predicted_seconds = units::Seconds(100.0);
  EXPECT_FALSE(g.should_abort(units::Seconds(5.0), 0.0));
  EXPECT_TRUE(g.should_abort(units::Seconds(120.0), 0.0));
}

/// Asserts that every O(1) query of `t` equals, bit for bit, the same
/// quantity re-summed from scratch over t.observations() in insertion
/// order.
void expect_sums_match_rescan(const CampaignTracker& t) {
  real_t log_sum = 0.0, abs_rel = 0.0;
  std::map<std::string, std::pair<index_t, real_t>> keyed;
  for (const Observation& o : t.observations()) {
    const real_t log_ratio = std::log(o.measured_mflups / o.predicted_mflups);
    log_sum += log_ratio;
    abs_rel += std::abs((o.predicted_mflups - o.measured_mflups).value()) /
               o.measured_mflups.value();
    auto& [count, sum] = keyed[o.workload];
    ++count;
    sum += log_ratio;
  }
  const auto n = static_cast<real_t>(t.size());
  EXPECT_EQ(t.correction_factor(), std::exp(log_sum / n));
  EXPECT_EQ(t.mean_abs_relative_error(), abs_rel / n);
  for (const auto& [key, entry] : keyed) {
    EXPECT_EQ(t.count(key), entry.first) << key;
    EXPECT_EQ(t.correction_factor(key),
              std::exp(entry.second / static_cast<real_t>(entry.first)))
        << key;
  }
  EXPECT_EQ(t.count("never-recorded"), 0);
  EXPECT_EQ(t.correction_factor("never-recorded"), 1.0);
}

TEST(CampaignTracker, RunningSumsEqualRescanExactly) {
  const std::string keys[] = {"cylinder", "aorta", "cerebral@x2",
                              "cylinder@x4"};
  Xoshiro256 rng(0xca4ba16);
  CampaignTracker t;
  for (int i = 0; i < 500; ++i) {
    t.record(Observation{keys[rng.below(4)], "CSP-2", 36,
                         units::Mflups(rng.uniform(5.0, 500.0)),
                         units::Mflups(rng.uniform(5.0, 500.0))});
    if (i % 37 == 0) expect_sums_match_rescan(t);
  }
  expect_sums_match_rescan(t);
}

TEST(CampaignTracker, RestoredTrackerSumsEqualRescanExactly) {
  Xoshiro256 rng(77);
  CampaignTracker t;
  for (int i = 0; i < 64; ++i) {
    t.record(Observation{i % 3 == 0 ? "aorta" : "cylinder@x2", "TRC", 80,
                         units::Mflups(rng.uniform(10.0, 90.0)),
                         units::Mflups(rng.uniform(10.0, 90.0))});
  }
  std::stringstream buffer;
  save_campaign(t, buffer);
  const CampaignTracker restored = load_campaign(buffer);
  ASSERT_EQ(restored.size(), t.size());
  expect_sums_match_rescan(restored);
}

}  // namespace
}  // namespace hemo::core

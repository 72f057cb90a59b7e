// Slow-tier scaling gate for the campaign engine (ctest label "slow"): a
// placement decision must cost O(1) in the campaign's size, so run() wall
// time grows close to linearly in the job count. Before the keyed running
// sums and the saturated-pool fast path, the fitted exponent was about 3.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <vector>

#include "sched/executor.hpp"
#include "sched/scheduler.hpp"

namespace hemo::sched {
namespace {

/// Wall seconds of one `hemocloud_cli schedule cylinder n 1000 7` campaign's
/// run(), on a freshly registered scheduler (run() refines the tracker, so
/// a reused one would place differently).
double run_seconds(index_t n_jobs) {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  SchedulerConfig config;
  config.objective = core::Objective::kMinCost;
  config.core_counts = {16, 36, 72, 144};
  CampaignScheduler scheduler(std::move(profiles), config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16, 32};
  scheduler.register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      cal_counts);

  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < n_jobs; ++i) {
    CampaignJobSpec spec;
    spec.id = i + 1;
    spec.geometry = "cylinder";
    spec.timesteps = 1000;
    spec.allow_spot = (i % 3 == 1);
    jobs.push_back(spec);
  }
  EngineConfig engine_config;
  engine_config.seed = 7;
  CampaignEngine engine(scheduler, engine_config);
  const auto t0 = std::chrono::steady_clock::now();
  const CampaignReport report = engine.run(std::move(jobs));
  const std::chrono::duration<double> wall =
      std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(report.n_completed + report.n_failed, n_jobs);
  return wall.count();
}

double median_run_seconds(index_t n_jobs) {
  std::vector<double> walls;
  for (int rep = 0; rep < 3; ++rep) walls.push_back(run_seconds(n_jobs));
  std::sort(walls.begin(), walls.end());
  return walls[1];
}

TEST(SchedScaling, RunTimeGrowsNearLinearlyInJobCount) {
  const double small = median_run_seconds(1000);
  const double large = median_run_seconds(4000);
  const double slope = std::log(large / small) / std::log(4.0);
  std::printf("run(): N=1000 %.3f s, N=4000 %.3f s, log-log slope %.2f\n",
              small, large, slope);
  EXPECT_LE(slope, 1.5) << "campaign cost grows super-linearly in N";
}

}  // namespace
}  // namespace hemo::sched

// Tests for the campaign scheduler & concurrent execution engine:
// placement against bounded capacity, the overrun-guard requeue path, spot
// preemption with checkpoint/restart resume, mid-campaign refinement, and
// the determinism contract (same seed => byte-identical report, any worker
// count).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "sched/executor.hpp"
#include "sched/guard.hpp"
#include "sched/history.hpp"
#include "sched/report.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace hemo::sched {
namespace {

std::vector<const cluster::InstanceProfile*> small_profiles() {
  return {&cluster::instance_by_abbrev("CSP-1"),
          &cluster::instance_by_abbrev("CSP-2 Small")};
}

SchedulerConfig small_config() {
  SchedulerConfig config;
  config.core_counts = {8, 16, 32};
  return config;
}

std::unique_ptr<CampaignScheduler> make_scheduler(
    SchedulerConfig config,
    std::vector<const cluster::InstanceProfile*> profiles = small_profiles()) {
  auto scheduler =
      std::make_unique<CampaignScheduler>(std::move(profiles), config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16};
  scheduler->register_workload(
      "cylinder", geometry::make_cylinder({.radius = 10, .length = 80}),
      cal_counts);
  return scheduler;
}

CampaignJobSpec cylinder_job(index_t id, index_t timesteps) {
  CampaignJobSpec spec;
  spec.id = id;
  spec.geometry = "cylinder";
  spec.timesteps = timesteps;
  return spec;
}

TEST(SchedPlacement, RespectsBoundedPoolCapacity) {
  auto scheduler = make_scheduler(small_config());
  const CampaignJobSpec spec = cylinder_job(1, 10000);
  PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = spec.timesteps;

  const auto first = scheduler->place(request);
  ASSERT_EQ(first.kind, PlacementDecision::Kind::kPlaced);
  EXPECT_GE(first.placement.n_nodes, 1);
  EXPECT_GT(first.placement.predicted_seconds.value(), 0.0);
  EXPECT_GT(first.placement.predicted_mflups.value(), 0.0);

  // Fill both pools completely: the same job must now wait, not fail.
  Placement all_csp1;
  all_csp1.instance = "CSP-1";
  all_csp1.n_nodes = scheduler->free_nodes("CSP-1");
  scheduler->reserve(all_csp1);
  Placement all_small;
  all_small.instance = "CSP-2 Small";
  all_small.n_nodes = scheduler->free_nodes("CSP-2 Small");
  scheduler->reserve(all_small);

  const auto blocked = scheduler->place(request);
  EXPECT_EQ(blocked.kind, PlacementDecision::Kind::kWait);

  scheduler->release(all_csp1);
  scheduler->release(all_small);
  const auto again = scheduler->place(request);
  EXPECT_EQ(again.kind, PlacementDecision::Kind::kPlaced);
}

TEST(SchedPlacement, ImpossibleConstraintsAreInfeasible) {
  auto scheduler = make_scheduler(small_config());
  CampaignJobSpec spec = cylinder_job(1, 100000);
  // No option's guard ceiling fits this budget.
  spec.budget_dollars = units::Dollars(1e-6);
  PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = spec.timesteps;
  request.remaining_budget = spec.budget_dollars;
  const auto decision = scheduler->place(request);
  EXPECT_EQ(decision.kind, PlacementDecision::Kind::kInfeasible);
  EXPECT_FALSE(decision.reason.empty());
}

TEST(SchedEngine, RejectsZeroStepJobs) {
  auto scheduler = make_scheduler(small_config());
  CampaignEngine engine(*scheduler, EngineConfig{});
  EXPECT_THROW((void)engine.run({cylinder_job(1, 0)}), PreconditionError);
}

// Acceptance (a): a job whose simulated runtime exceeds the model
// prediction by more than the tolerance is hard-stopped by the guard and
// requeued; the refreshed (refined) prediction lets the requeued attempt
// finish from its checkpoint.
TEST(SchedEngine, OverrunGuardKillsAndRequeuesJob) {
  SchedulerConfig config = small_config();
  config.pilot_steps = 0;  // cold model: raw predictions overshoot by the
                           // hidden efficiency factor, far past 10 %
  config.guard_tolerance = 0.10;
  auto scheduler = make_scheduler(config);

  EngineConfig engine_config;
  engine_config.n_workers = 2;
  engine_config.seed = 7;
  CampaignEngine engine(*scheduler, engine_config);
  const auto report = engine.run({cylinder_job(1, 20000)});

  ASSERT_EQ(report.jobs.size(), 1u);
  const JobReportRow& job = report.jobs.front();
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_GE(job.overruns, 1);
  EXPECT_GE(job.attempts, 2);
  EXPECT_GE(report.total_requeues, 1);
  // The requeued attempt was placed with the refreshed model: the tracker
  // learned from the killed attempt's measurement.
  EXPECT_GT(scheduler->tracker().size(), 0);
  EXPECT_LT(scheduler->tracker().correction_factor(), 1.0);
}

// Acceptance (b): a preempted spot job resumes from its checkpoint and
// still completes the full step count, paying the preemption losses.
TEST(SchedEngine, SpotJobResumesFromCheckpointAndCompletes) {
  SchedulerConfig config = small_config();
  config.guard_tolerance = 0.50;  // isolate preemption from the guard
  config.spot.preemptions_per_hour = units::PerHour(40.0);
  auto scheduler = make_scheduler(config);

  EngineConfig engine_config;
  engine_config.n_workers = 2;
  engine_config.seed = 11;
  engine_config.max_preemptions = 16;
  CampaignEngine engine(*scheduler, engine_config);

  CampaignJobSpec spec = cylinder_job(1, 400000);
  spec.allow_spot = true;
  const auto report = engine.run({spec});

  ASSERT_EQ(report.jobs.size(), 1u);
  const JobReportRow& job = report.jobs.front();
  EXPECT_EQ(job.state, JobState::kCompleted);
  EXPECT_TRUE(job.spot);
  EXPECT_GE(job.preemptions, 1);
  EXPECT_GT(job.dollars.value(), 0.0);
}

// The same preemption stream replayed directly through simulate_attempt:
// lost chunks are redone (compute covers every completed step exactly
// once) and the preemption losses appear in the occupancy, not the
// productive compute.
TEST(SchedGuard, AttemptAccountsPreemptionLosses) {
  auto scheduler = make_scheduler(small_config());
  const CampaignJobSpec spec = cylinder_job(1, 100000);
  PlacementRequest request;
  request.spec = &spec;
  request.remaining_steps = spec.timesteps;
  const auto decision = scheduler->place(request);
  ASSERT_EQ(decision.kind, PlacementDecision::Kind::kPlaced);

  AttemptContext ctx;
  ctx.plan = &scheduler->plan_for("cylinder", decision.placement.instance,
                                  decision.placement.n_tasks);
  ctx.profile = &scheduler->profile_for(decision.placement.instance);
  ctx.placement = decision.placement;
  ctx.placement.spot = true;
  ctx.guard.predicted_seconds = decision.placement.predicted_seconds * 10.0;
  ctx.steps = spec.timesteps;
  ctx.seed = 123;
  ctx.spot.preemptions_per_hour = units::PerHour(60.0);
  ctx.max_preemptions = 64;

  const AttemptResult result = simulate_attempt(ctx);
  EXPECT_EQ(result.steps_done, spec.timesteps);
  EXPECT_FALSE(result.overrun_aborted);
  EXPECT_GE(result.preemptions, 1);
  // Occupancy strictly exceeds productive compute: lost partial chunks
  // plus one restart overhead per preemption.
  EXPECT_GT(result.sim_seconds.value(), result.compute_seconds.value());
  EXPECT_GT((result.sim_seconds - result.compute_seconds).value(),
            static_cast<real_t>(result.preemptions) *
                ctx.spot.restart_overhead_s.value());
}

TEST(SchedGuard, ResolutionScalingPreservesNoiseAndBaseCase) {
  auto scheduler = make_scheduler(small_config());
  const auto& plan = scheduler->plan_for("cylinder", "CSP-1", 16);
  const cluster::VirtualCluster vc(scheduler->profile_for("CSP-1"));
  const auto result = vc.execute(plan, 100, {1, 12, 3});
  EXPECT_DOUBLE_EQ(scaled_step_seconds(result, 1.0).value(),
                   result.step_seconds.value());
  // 8x the points: memory term x8, halo surface x4 — the scaled step lies
  // strictly between those bounds.
  const units::Seconds scaled = scaled_step_seconds(result, 8.0);
  EXPECT_GT(scaled.value(), 4.0 * result.step_seconds.value());
  EXPECT_LT(scaled.value(), 8.0 * result.step_seconds.value() + 1e-12);
}

// Acceptance (c): two runs of a 20-job concurrent campaign with the same
// seed produce byte-identical reports — and the worker count does not
// matter either, because campaign time is virtual and attempts are pure.
TEST(SchedEngine, TwentyJobCampaignIsDeterministic) {
  const auto run_campaign = [](index_t n_workers) {
    SchedulerConfig config = small_config();
    config.spot.preemptions_per_hour = units::PerHour(10.0);
    auto scheduler = make_scheduler(config);
    EngineConfig engine_config;
    engine_config.n_workers = n_workers;
    engine_config.seed = 2026;
    CampaignEngine engine(*scheduler, engine_config);

    std::vector<CampaignJobSpec> jobs;
    for (index_t i = 0; i < 20; ++i) {
      CampaignJobSpec spec = cylinder_job(i + 1, 20000 + 7000 * (i % 4));
      spec.allow_spot = (i % 3 == 0);
      jobs.push_back(spec);
    }
    return engine.run(jobs).to_csv();
  };

  const std::string a = run_campaign(4);
  const std::string b = run_campaign(4);
  EXPECT_EQ(a, b) << "same seed, same worker count must be byte-identical";
  const std::string c = run_campaign(1);
  EXPECT_EQ(a, c) << "worker count must not affect the report";
}

// The mid-campaign refinement loop measurably improves predictions: the
// late half of the error trajectory is tighter than the early half.
TEST(SchedEngine, RefinementTightensPredictionsOverCampaign) {
  SchedulerConfig config = small_config();
  config.pilot_steps = 0;  // start cold so there is something to learn
  config.guard_tolerance = 0.60;  // let early mispredictions run through
  // A single three-node pool throttles the first wave, so later waves are
  // placed only after completed measurements have refined the model.
  auto scheduler =
      make_scheduler(config, {&cluster::instance_by_abbrev("CSP-1")});
  EngineConfig engine_config;
  engine_config.n_workers = 4;
  engine_config.seed = 5;
  CampaignEngine engine(*scheduler, engine_config);

  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < 12; ++i) {
    jobs.push_back(cylinder_job(i + 1, 20000));
  }
  const auto report = engine.run(jobs);
  EXPECT_EQ(report.n_completed, 12);
  ASSERT_GE(report.error_trajectory.size(), 4u);
  EXPECT_LT(report.late_error, report.early_error);
  // Cold-start error is the hidden-efficiency gap (tens of percent); the
  // refined predictions land within a few percent.
  EXPECT_LT(report.late_error, 0.10);
}

std::vector<const cluster::InstanceProfile*> cpu_profiles() {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  return profiles;
}

Placement nodes_on(const std::string& instance, index_t n_nodes) {
  Placement p;
  p.instance = instance;
  p.n_nodes = n_nodes;
  return p;
}

TEST(SchedPlacement, SaturatedTracksSmallestFittingAllocation) {
  auto scheduler = make_scheduler(small_config());
  EXPECT_FALSE(scheduler->saturated());
  // CSP-1 fits 8 and 16 cores on one node, CSP-2 Small fits 8 cores on
  // one: a single free node in either pool keeps the campaign placeable.
  const Placement csp1 = nodes_on("CSP-1", scheduler->free_nodes("CSP-1"));
  const Placement small =
      nodes_on("CSP-2 Small", scheduler->free_nodes("CSP-2 Small") - 1);
  scheduler->reserve(csp1);
  scheduler->reserve(small);
  EXPECT_FALSE(scheduler->saturated());
  scheduler->reserve(nodes_on("CSP-2 Small", 1));
  EXPECT_TRUE(scheduler->saturated());
  scheduler->release(csp1);
  EXPECT_FALSE(scheduler->saturated());

  // No candidate allocation fits any pool: requests are infeasible, never
  // waiting, so the pools never count as saturated.
  SchedulerConfig oversized = small_config();
  oversized.core_counts = {1024};
  const CampaignScheduler none(small_profiles(), oversized);
  EXPECT_FALSE(none.saturated());
}

// Property: under random pool occupancy, an unconstrained request answered
// by the saturated fast path gets the decision the full evaluation gives,
// and records the same metric series. The reference is the same request
// with a deadline and budget no option can miss: it always takes the full
// evaluation, and no row is filtered by either.
TEST(SchedPlacement, SaturatedFastPathEqualsFullEvaluation) {
  SchedulerConfig config;
  config.core_counts = {16, 36, 72, 144};
  auto scheduler = std::make_unique<CampaignScheduler>(cpu_profiles(), config);
  const std::vector<index_t> cal_counts = {2, 4, 8, 16};
  scheduler->register_workload(
      "cylinder", geometry::make_cylinder({.radius = 6, .length = 40}),
      cal_counts);
  scheduler->register_workload(
      "stenosis", geometry::make_stenosis({}), cal_counts);
  const std::string geometries[] = {"cylinder", "stenosis"};
  const real_t factors[] = {1.0, 2.0, 4.0};

  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  const auto place_recorded = [&](const PlacementRequest& request,
                                  PlacementDecision& decision) {
    metrics.reset();
    metrics.enable(true);
    decision = scheduler->place(request);
    metrics.enable(false);
    return metrics.to_jsonl();
  };

  Xoshiro256 rng(31337);
  std::vector<Placement> held;
  index_t saturated_cases = 0, placed_cases = 0;
  for (int trial = 0; trial < 300; ++trial) {
    for (const Placement& p : held) scheduler->release(p);
    held.clear();
    // Every pool full, every pool full but one node, or random occupancy.
    const index_t mode = rng.below(3);
    const auto profiles = cpu_profiles();
    const std::size_t spare = rng.below(static_cast<index_t>(profiles.size()));
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      const std::string& abbrev = profiles[i]->abbrev;
      const index_t total = scheduler->free_nodes(abbrev);
      const index_t free_target =
          mode == 2 ? rng.below(total + 1) : (mode == 1 && i == spare ? 1 : 0);
      if (total - free_target == 0) continue;
      held.push_back(nodes_on(abbrev, total - free_target));
      scheduler->reserve(held.back());
    }
    if (trial % 10 == 0) {
      // Keyed observations shift the correction factor the gauge reports.
      CampaignJobSpec keyed;
      keyed.geometry = geometries[rng.below(2)];
      keyed.resolution_factor = factors[rng.below(3)];
      scheduler->tracker().record(core::Observation{
          workload_key(keyed), "TRC", 40,
          units::Mflups(rng.uniform(50.0, 150.0)),
          units::Mflups(rng.uniform(50.0, 150.0))});
    }

    CampaignJobSpec spec;
    spec.id = trial + 1;
    spec.geometry = geometries[rng.below(2)];
    spec.resolution_factor = factors[rng.below(3)];
    spec.allow_spot = rng.below(3) == 0;
    spec.timesteps = 1000 + rng.below(200000);
    PlacementRequest request;
    request.spec = &spec;
    request.remaining_steps = 1 + rng.below(spec.timesteps);
    PlacementRequest reference = request;
    reference.remaining_deadline_s = units::Seconds(1e300);
    reference.remaining_budget = units::Dollars(1e300);

    const bool saturated = scheduler->saturated();
    PlacementDecision fast, full;
    const std::string fast_metrics = place_recorded(request, fast);
    const std::string full_metrics = place_recorded(reference, full);
    ASSERT_EQ(fast.kind, full.kind) << "trial " << trial;
    EXPECT_EQ(saturated, full.kind == PlacementDecision::Kind::kWait);
    EXPECT_EQ(fast_metrics, full_metrics) << "trial " << trial;
    if (full.kind == PlacementDecision::Kind::kPlaced) {
      ++placed_cases;
      EXPECT_EQ(fast.placement.instance, full.placement.instance);
      EXPECT_EQ(fast.placement.n_tasks, full.placement.n_tasks);
      EXPECT_EQ(fast.placement.predicted_seconds,
                full.placement.predicted_seconds);
    }
    if (saturated) ++saturated_cases;
  }
  metrics.reset();
  // Both branches were exercised.
  EXPECT_GT(saturated_cases, 30);
  EXPECT_GT(placed_cases, 30);
}

/// A campaign mixing unconstrained jobs with deadline- and budget-bound
/// ones at two resolutions, sized so the pools saturate: queued jobs wait
/// through many settle events, some deadlines expire in the queue and some
/// budgets rule out every option.
std::vector<CampaignJobSpec> mixed_constrained_jobs() {
  std::vector<CampaignJobSpec> jobs;
  for (index_t i = 0; i < 120; ++i) {
    CampaignJobSpec spec =
        cylinder_job(i + 1, i % 3 == 0 ? 300000 : 20000 + 5000 * (i % 5));
    spec.resolution_factor = i % 2 == 0 ? 1.0 : 2.0;
    spec.allow_spot = i % 3 == 0;
    if (i % 4 == 1) spec.deadline_s = units::Seconds(20.0 + 15.0 * (i % 7));
    if (i % 5 == 2) spec.budget_dollars = units::Dollars(0.0004 * (i % 9));
    jobs.push_back(spec);
  }
  return jobs;
}

std::string golden_path(const std::string& name) {
  return std::string(HEMO_GOLDEN_DIR) + "/" + name;
}

/// Compares `actual` with the golden file `name`, or rewrites the file when
/// HEMO_UPDATE_GOLDEN is set.
void expect_matches_golden(const std::string& actual, const std::string& name) {
  if (std::getenv("HEMO_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path(name), std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path(name);
    out << actual;
    return;
  }
  std::ifstream in(golden_path(name), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path(name);
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << name << " drifted from its golden file";
}

// Jobs with a deadline or a budget are placed by the full evaluation even
// while every pool is busy, so "deadline passed while queued" and deadline
// or budget rejections land at the same pass and clock as they always
// have; the golden report and protocol history pin that down, on one pool
// (sparse settle events, so some deadlines pass in the queue) and on two.
TEST(SchedEngine, MixedConstrainedCampaignMatchesGolden) {
  const auto check = [](std::vector<const cluster::InstanceProfile*> profiles,
                        const std::string& name) {
    SchedulerConfig config = small_config();
    config.spot.preemptions_per_hour = units::PerHour(20.0);
    auto scheduler = make_scheduler(config, std::move(profiles));
    ProtocolHistory history;
    EngineConfig engine_config;
    engine_config.seed = 11;
    engine_config.history = &history;
    CampaignEngine engine(*scheduler, engine_config);
    const CampaignReport report = engine.run(mixed_constrained_jobs());
    expect_matches_golden(report.to_csv(), name + ".csv");
    expect_matches_golden(history.canonical(), name + "_history.txt");
  };
  check({&cluster::instance_by_abbrev("CSP-1")}, "mixed_constrained_csp1");
  check(small_profiles(), "mixed_constrained_two_pools");
}

// With the registry on, the campaign records the same series with the same
// values: every placement the saturated pools answer with kWait still
// counts as one, and the correction-factor gauges end on the same values.
TEST(SchedEngine, MixedConstrainedCampaignMetricsMatchGolden) {
  SchedulerConfig config = small_config();
  config.spot.preemptions_per_hour = units::PerHour(20.0);
  auto scheduler = make_scheduler(config);
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.reset();
  metrics.enable(true);
  EngineConfig engine_config;
  engine_config.seed = 11;
  CampaignEngine engine(*scheduler, engine_config);
  (void)engine.run(mixed_constrained_jobs());
  metrics.enable(false);
  const std::string jsonl = metrics.to_jsonl();
  metrics.reset();
  expect_matches_golden(jsonl, "mixed_constrained_two_pools_metrics.jsonl");
}

}  // namespace
}  // namespace hemo::sched

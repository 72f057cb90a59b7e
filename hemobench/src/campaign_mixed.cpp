// campaign-mixed: the scheduler and execution engine at a job count where
// the cost of each placement decision dominates. Attempts are simulated on
// the virtual cluster, so no LBM kernel or rank thread runs here: kernel
// and runtime changes should leave every number of this workload alone.
#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "cluster/instance.hpp"
#include "core/calibration.hpp"
#include "core/dashboard.hpp"
#include "geometry/generators.hpp"
#include "harvey/simulation.hpp"
#include "host.hpp"
#include "nemesis/checker.hpp"
#include "sched/executor.hpp"
#include "sched/history.hpp"
#include "sched/scheduler.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace hemobench {

namespace {

using namespace hemo;

/// Jobs per campaign: enough that the engine spends seconds in run().
constexpr std::size_t kJobs = 1000;
constexpr std::array<const char*, 3> kGeometries = {"cylinder", "aorta",
                                                   "cerebral"};
const std::vector<index_t> kCalCounts = {2, 4, 8, 16, 32};
const std::vector<index_t> kCoreCounts = {16, 36, 72, 144};

geometry::Geometry make_geometry(const std::string& name) {
  if (name == "cylinder") return geometry::make_cylinder({.radius = 10, .length = 80});
  if (name == "aorta") return geometry::make_aorta({});
  return geometry::make_cerebral({.depth = 5});
}

std::vector<const cluster::InstanceProfile*> cpu_profiles() {
  std::vector<const cluster::InstanceProfile*> profiles;
  for (const auto& p : cluster::default_catalog()) {
    if (!p.gpu && p.abbrev != "CSP-2 Hyp.") profiles.push_back(&p);
  }
  return profiles;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// A scheduler with the three geometries registered: the set-up a
/// campaign pays before its first placement.
std::unique_ptr<sched::CampaignScheduler> make_scheduler(Tracer& tracer) {
  sched::SchedulerConfig config;
  config.objective = core::Objective::kMinCost;
  config.core_counts = kCoreCounts;
  auto scheduler =
      std::make_unique<sched::CampaignScheduler>(cpu_profiles(), config);
  for (const char* name : kGeometries) {
    geometry::Geometry geo = [&] {
      const Tracer::Scope span(tracer, "geometry.build");
      return make_geometry(name);
    }();
    const Tracer::Scope span(tracer, "sched.register");
    scheduler->register_workload(name, std::move(geo), kCalCounts);
  }
  return scheduler;
}

/// Lattice updates the campaign settles: points x resolution x steps of
/// every completed job.
double lattice_updates(const sched::CampaignScheduler& scheduler,
                       const std::vector<sched::CampaignJobSpec>& jobs,
                       const sched::CampaignReport& report) {
  double total = 0.0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (report.jobs[i].state != sched::JobState::kCompleted) continue;
    total += static_cast<double>(scheduler.points_of(jobs[i].geometry)) *
             jobs[i].resolution_factor * static_cast<double>(jobs[i].timesteps);
  }
  return total;
}

/// The engine as callers configure it: the default worker count, capped by
/// the cores this process may use, and a seed derived from the workload's.
sched::EngineConfig engine_config(std::uint64_t seed) {
  sched::EngineConfig config;
  config.n_workers = std::min<index_t>(config.n_workers, effective_cores());
  std::uint64_t state = seed ^ 0x5eedULL;
  config.seed = splitmix64(state);
  return config;
}

struct TimedRun {
  double setup_s = 0.0;
  double run_s = 0.0;
  std::unique_ptr<sched::CampaignScheduler> scheduler;
  sched::CampaignReport report;
};

TimedRun timed_campaign(const std::vector<sched::CampaignJobSpec>& jobs,
                        const sched::EngineConfig& config, Tracer& tracer) {
  TimedRun out;
  const auto t0 = Clock::now();
  {
    const Tracer::Scope span(tracer, "setup");
    out.scheduler = make_scheduler(tracer);
  }
  out.setup_s = seconds_since(t0);
  sched::CampaignEngine engine(*out.scheduler, config);
  std::vector<sched::CampaignJobSpec> batch = jobs;
  const auto t1 = Clock::now();
  {
    const Tracer::Scope span(tracer, "sched.run");
    out.report = engine.run(std::move(batch));
  }
  out.run_s = seconds_since(t1);
  return out;
}

/// One placement decision per job against `scheduler`'s current tracker,
/// each timed into `place_ms`; returns how many were refused.
long placement_pass(const sched::CampaignScheduler& scheduler,
                    const std::vector<sched::CampaignJobSpec>& jobs,
                    Tracer& tracer, std::vector<double>& place_ms) {
  long refused = 0;
  for (const auto& spec : jobs) {
    sched::PlacementRequest request;
    request.spec = &spec;
    request.remaining_steps = spec.timesteps;
    const auto t0 = Clock::now();
    bool placed = false;
    {
      const Tracer::Scope span(tracer, "sched.place");
      placed = scheduler.place(request).kind ==
               sched::PlacementDecision::Kind::kPlaced;
    }
    place_ms.push_back(seconds_since(t0) * 1e3);
    if (!placed) ++refused;
  }
  return refused;
}

/// Median `run()` wall time of `reps` campaigns over the first `n` jobs.
double median_run_s(const std::vector<sched::CampaignJobSpec>& jobs,
                    std::size_t n, const sched::EngineConfig& config, int reps) {
  const std::vector<sched::CampaignJobSpec> prefix(
      jobs.begin(), jobs.begin() + static_cast<long>(n));
  Tracer off;
  std::vector<double> walls;
  for (int i = 0; i < reps; ++i) {
    walls.push_back(timed_campaign(prefix, config, off).run_s);
  }
  return median(walls);
}

}  // namespace

/// The job mix of one seed: a fixed set of jobs in an order the seed
/// shuffles. Each attribute (geometry, timesteps, resolution factor, spot
/// flag) takes every value of its range equally often, paired with the
/// others by a fixed shuffle, so every seed asks for the same work; the
/// seed decides the order in which the jobs arrive, and so which job gets
/// which values. The program only ever sees these specs.
std::vector<sched::CampaignJobSpec> campaign_jobs(std::uint64_t seed,
                                                  std::size_t n) {
  std::uint64_t state = 0;
  const auto shuffled = [&](std::size_t values) {
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = i % values;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[splitmix64(state) % i]);
    }
    return order;
  };
  constexpr std::array<double, 3> kFactors = {1.0, 2.0, 4.0};
  const auto geometry = shuffled(kGeometries.size());
  const auto steps = shuffled(81);  // 20,000 to 100,000 in steps of 1,000
  const auto factor = shuffled(kFactors.size());
  const auto spot = shuffled(3);  // one job in three on spot capacity
  state = seed;
  const auto arrival = shuffled(n);
  std::vector<sched::CampaignJobSpec> jobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = arrival[i];
    auto& spec = jobs[i];
    spec.id = static_cast<index_t>(i + 1);
    spec.geometry = kGeometries[geometry[k]];
    spec.timesteps = 20000 + static_cast<index_t>(steps[k]) * 1000;
    spec.resolution_factor = kFactors[factor[k]];
    spec.allow_spot = spot[k] == 0;
  }
  return jobs;
}

std::string campaign_csv(std::uint64_t seed, std::size_t n) {
  Tracer off;
  return timed_campaign(campaign_jobs(seed, n), engine_config(seed), off)
      .report.to_csv();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void run_campaign_mixed(const RunOptions& opt, Tracer& tracer, Outcome& out) {
  const std::vector<sched::CampaignJobSpec> jobs = campaign_jobs(opt.seed, kJobs);
  const sched::EngineConfig config = engine_config(opt.seed);

  std::vector<double> setup_samples;

  // Verify pass: the protocol history of this seed's campaign must satisfy
  // every executor invariant, and its CSV is the reference every timed run
  // must reproduce byte for byte.
  sched::ProtocolHistory history;
  sched::EngineConfig verify_config = config;
  verify_config.history = &history;
  TimedRun verify = timed_campaign(jobs, verify_config, tracer);
  setup_samples.push_back(verify.setup_s);
  const std::string reference_csv = verify.report.to_csv();
  const nemesis::CheckResult verdict =
      nemesis::check_history(history, jobs, {.max_attempts = config.max_attempts},
                             &verify.report);
  if (!verdict.passed()) out.check_failures.push_back(verdict.summary());
  verify.scheduler.reset();

  // Campaigns one after another, each on a fresh scheduler (run() refines
  // the scheduler's tracker, so a reused one would place differently), each
  // followed by placement passes against its end-of-campaign tracker for a
  // quarter of its run time, until `seconds` have passed. Traced runs
  // alternate passes with spans on and off, which gives the tracing
  // overhead on the operation the spans time.
  tracer.set_enabled(opt.trace);
  std::vector<double> run_samples, place_ms, pass_s[2];
  // Reserved so that the samples' own growth adds to peak_rss_mb smoothly
  // rather than in capacity doublings; untouched capacity is not resident.
  place_ms.reserve(std::size_t{1} << 21);
  long unplaced = 0;
  long long csv_mismatches = 0;
  TimedRun last;
  const auto start = Clock::now();
  for (int k = 0; seconds_since(start) < opt.seconds || k < 2; ++k) {
    last.scheduler.reset();  // free the previous campaign first
    last = timed_campaign(jobs, config, tracer);
    setup_samples.push_back(last.setup_s);
    run_samples.push_back(last.run_s);
    if (last.report.to_csv() != reference_csv) ++csv_mismatches;
    out.attempted += static_cast<long long>(jobs.size());
    const auto passes = Clock::now();
    for (int p = 0; p == 0 || seconds_since(passes) < last.run_s / 4; ++p) {
      const bool traced = opt.trace && p % 2 == 0;
      tracer.set_enabled(traced);
      const auto t0 = Clock::now();
      unplaced += placement_pass(*last.scheduler, jobs, tracer, place_ms);
      pass_s[traced ? 1 : 0].push_back(seconds_since(t0));
    }
    tracer.set_enabled(opt.trace);
  }
  tracer.set_enabled(false);
  out.failed = csv_mismatches * static_cast<long long>(jobs.size());
  if (out.failed > 0) {
    out.check_failures.push_back("campaign CSV differs from the verify pass");
  }
  if (unplaced > 0) {
    out.check_failures.push_back(std::to_string(unplaced) +
                                 " placements on free pools were refused");
  }

  const double run_s = median(run_samples);
  const double updates = lattice_updates(*last.scheduler, jobs, last.report);
  out.values["setup_s"] = median(setup_samples);
  out.values["mflups"] = updates / (run_s * 1e6);
  out.values["step_ms_p50"] = percentile(place_ms, 50).value();
  out.values["step_ms_p90"] = percentile(place_ms, 90).value();
  out.values["jobs_per_s"] = static_cast<double>(jobs.size()) / run_s;
  out.context.add("run_s_median", run_s)
      .add("step_samples", static_cast<long long>(place_ms.size()))
      .add("step_ms_p10", percentile(place_ms, 10).value())
      .add("step_relative_iqr", relative_iqr(place_ms));

  const sched::CampaignReport& report = last.report;
  index_t attempts = 0;
  for (const auto& row : report.jobs) attempts += row.attempts;
  out.values["campaign_usd"] = report.total_dollars.value();
  out.values["campaign_makespan_h"] = report.makespan_s.value() / 3600.0;
  out.values["pred_err_late"] = report.late_error;
  out.values["sched.attempts"] = static_cast<double>(attempts);
  out.values["sched.requeues"] = static_cast<double>(report.total_requeues);
  out.values["sched.useful_ratio"] =
      static_cast<double>(report.n_completed) / static_cast<double>(attempts);

  out.context.add("jobs", static_cast<long long>(jobs.size()))
      .add("workers", static_cast<long long>(config.n_workers))
      .add("timed_runs", static_cast<long long>(run_samples.size()))
      .add("setup_samples", static_cast<long long>(setup_samples.size()))
      .add("step_is", "one CampaignScheduler::place() call")
      .add("lattice_updates", updates)
      .add("completed", static_cast<long long>(report.n_completed))
      .add("guard_stopped", static_cast<long long>(report.n_failed))
      .add("history_events", static_cast<long long>(verdict.events_checked))
      .add("csv_fnv1a64", std::to_string(fnv1a64(reference_csv)));

  if (!opt.trace) return;

  const auto& spans = tracer.spans();
  std::vector<double> place_us;
  for (const double s : self_times_by_name(spans).at("sched.place")) {
    place_us.push_back(s * 1e6);
  }
  out.values["sched.place_us_p50"] = percentile(place_us, 50).value();
  out.values["sched.place_us_p99"] = percentile(place_us, 99).value();
  out.values["sched.register_s"] =
      median(self_totals_per_root(spans, "sched.register"));
  out.values["geometry.build_s"] =
      median(self_totals_per_root(spans, "geometry.build"));
  out.values["obs.trace_overhead"] = median(pass_s[1]) / median(pass_s[0]);

  // Model evaluation: the dashboard call each placement makes, on the
  // cylinder calibration refined by the end-of-campaign tracker.
  harvey::SimulationOptions sim_options;
  sim_options.solver.tau = 0.8;
  harvey::Simulation sim(make_geometry("cylinder"), sim_options);
  index_t max_cpn = 1;
  for (const auto* p : cpu_profiles()) max_cpn = std::max(max_cpn, p->cores_per_node);
  const core::WorkloadCalibration cal =
      core::calibrate_workload(sim, kCalCounts, max_cpn);
  const core::Dashboard dashboard(cpu_profiles());
  tracer.set_enabled(true);
  for (int i = 0; i < 200; ++i) {
    const Tracer::Scope span(tracer, "core.dashboard_eval");
    const auto rows = dashboard.evaluate(cal, core::JobSpec{.timesteps = 50000},
                                         kCoreCounts,
                                         &last.scheduler->tracker());
    if (rows.empty()) out.check_failures.push_back("dashboard returned no rows");
  }
  tracer.set_enabled(false);
  std::vector<double> eval_us;
  for (const double s : self_times_by_name(tracer.spans()).at("core.dashboard_eval")) {
    eval_us.push_back(s * 1e6);
  }
  out.values["core.dashboard_eval_us"] = median(eval_us);

  // Scaling exponent of run() wall time over N/4, N/2 and N jobs, each the
  // median of campaigns run one after another like the timed ones.
  std::vector<double> sizes, walls;
  for (const std::size_t n : {kJobs / 4, kJobs / 2}) {
    sizes.push_back(static_cast<double>(n));
    walls.push_back(median_run_s(jobs, n, config, 3));
  }
  sizes.push_back(static_cast<double>(kJobs));
  walls.push_back(run_s);
  out.values["sched.scaling_exponent"] = loglog_slope(sizes, walls);
}

}  // namespace hemobench

// The benchmark workloads. Each drives the library only through its
// public headers, fills an Outcome with every metric it measures, and
// records spans around its calls into each layer when tracing is on.
// README.md gives the layer -> metric -> workload table.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report.hpp"
#include "sched/job.hpp"
#include "spans.hpp"

namespace hemobench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time per run
  bool trace = false;
};

/// Scheduler + engine over a seeded mix of cylinder/aorta/cerebral jobs,
/// one campaign per effective core at once.
void run_campaign_mixed(const RunOptions& opt, Tracer& tracer, Outcome& out);

/// Two threaded ranks over an RCB split of the 25,360-point cylinder.
void run_ranks_halo(const RunOptions& opt, Tracer& tracer, Outcome& out);

/// The campaign-mixed job mix of one seed: geometry, timesteps,
/// resolution factor and spot flag per job.
[[nodiscard]] std::vector<hemo::sched::CampaignJobSpec> campaign_jobs(
    std::uint64_t seed, std::size_t n);

/// CSV report of one campaign-mixed campaign of `n` jobs on a fresh
/// scheduler, as every timed run produces it.
[[nodiscard]] std::string campaign_csv(std::uint64_t seed, std::size_t n);

/// 64-bit FNV-1a digest (printed for campaign CSVs).
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

}  // namespace hemobench

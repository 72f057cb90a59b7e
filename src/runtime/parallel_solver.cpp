#include "runtime/parallel_solver.hpp"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace hemo::runtime {

using lbm::kQ;
using lbm::state_index;

namespace {

using Clock = std::chrono::steady_clock;

real_t seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<real_t>(b - a).count();
}

}  // namespace

/// noexcept callable the barrier runs on phase completion (while every
/// rank thread is parked inside the barrier).
struct EpochCallback {
  ParallelSolver* solver;
  void operator()() noexcept { solver->on_epoch(); }
};

ParallelSolver::ParallelSolver(const lbm::FluidMesh& mesh,
                               const decomp::Partition& partition,
                               const lbm::SolverParams& params,
                               std::span<const geometry::InletSpec> inlets,
                               RuntimeOptions options)
    : mesh_(&mesh),
      partition_(partition),
      params_(params),
      inlets_(inlets.begin(), inlets.end()),
      options_(std::move(options)),
      controller_(options_.rebalance) {
  const auto rejected = [&](const char* reason) {
    return "ParallelSolver does not run " + lbm::kernel_name(params.kernel) +
           " " + lbm::to_string(params.kernel.precision) + ": " + reason;
  };
  HEMO_REQUIRE(params.kernel.propagation == lbm::Propagation::kAB,
               rejected("the AA odd step scatters into ghost rows, which "
                        "would need a reverse halo exchange"));
  HEMO_REQUIRE(params.kernel.precision == lbm::Precision::kDouble,
               rejected("the halo mailboxes and the canonical export are "
                        "double"));
  HEMO_REQUIRE(params.kernel.path == lbm::KernelPath::kSegmented,
               rejected("the reference path is the serial oracle and its "
                        "one-loop kernel has no interior/frontier passes"));
  params_.num_threads = 1;
  build_runtime_structures();
  timings_.assign(ranks_.size(), RankTimings{});
  window_start_busy_.assign(ranks_.size(), 0.0);
}

ParallelSolver::~ParallelSolver() = default;

void ParallelSolver::build_runtime_structures() {
  ranks_.clear();  // free the old arrays before the new ones are touched
  topo_ = harvey::build_halo_exchange(*mesh_, partition_);
  const std::size_t n_ranks = topo_.ranks.size();

  ranks_.reserve(n_ranks);
  for (const harvey::RankLayout& layout : topo_.ranks) {
    ranks_.emplace_back(*mesh_, params_, std::span(inlets_),
                        std::span(layout.local_points),
                        std::span(layout.ghost_points));
  }

  mailboxes_.clear();
  out_channels_.assign(n_ranks, {});
  in_channels_.assign(n_ranks, {});
  neighbors_of_.assign(n_ranks, {});
  for (std::size_t c = 0; c < topo_.channels.size(); ++c) {
    const harvey::HaloChannel& channel = topo_.channels[c];
    auto box = std::make_unique<Mailbox>();
    box->channel = static_cast<index_t>(c);
    box->buffer.assign(static_cast<std::size_t>(channel.payload_values()),
                       0.0);
    // A fresh mailbox carries the current epoch so the first await after a
    // mid-run rebuild still sees seq < t + 1 until the owner publishes.
    box->seq.store(timestep_, std::memory_order_relaxed);
    mailboxes_.push_back(std::move(box));
    out_channels_[static_cast<std::size_t>(channel.from)].push_back(
        static_cast<index_t>(c));
    in_channels_[static_cast<std::size_t>(channel.to)].push_back(
        static_cast<index_t>(c));
    neighbors_of_[static_cast<std::size_t>(channel.from)].push_back(
        channel.to);
  }
}

std::vector<double> ParallelSolver::export_state() const {
  const lbm::Layout layout = params_.kernel.layout;
  const index_t n = mesh_->num_points();
  std::vector<double> state(static_cast<std::size_t>(n * kQ));
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const harvey::RankLayout& rank = topo_.ranks[r];
    const index_t slots = rank.total_slots();
    const std::vector<double> local = ranks_[r].export_state();
    for (index_t s = 0; s < rank.num_local(); ++s) {
      const index_t p = rank.point(s);
      for (index_t q = 0; q < kQ; ++q) {
        state[static_cast<std::size_t>(state_index(layout, n, p, q))] =
            local[static_cast<std::size_t>(state_index(layout, slots, s, q))];
      }
    }
  }
  return state;
}

void ParallelSolver::scatter_state(std::span<const double> state,
                                   index_t timestep) {
  const lbm::Layout layout = params_.kernel.layout;
  const index_t n = mesh_->num_points();
  std::vector<double> local;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const harvey::RankLayout& rank = topo_.ranks[r];
    const index_t slots = rank.total_slots();
    local.assign(static_cast<std::size_t>(slots * kQ), 0.0);
    for (index_t s = 0; s < slots; ++s) {
      const index_t p = rank.point(s);
      for (index_t q = 0; q < kQ; ++q) {
        local[static_cast<std::size_t>(state_index(layout, slots, s, q))] =
            state[static_cast<std::size_t>(state_index(layout, n, p, q))];
      }
    }
    ranks_[r].restore_state(local, timestep);
  }
}

void ParallelSolver::restore_state(std::span<const double> state,
                                   index_t timestep) {
  HEMO_REQUIRE(static_cast<index_t>(state.size()) ==
                   mesh_->num_points() * kQ,
               "restore_state: state size must be num_points * kQ");
  HEMO_REQUIRE(timestep >= 0, "restore_state: negative timestep");
  scatter_state(state, timestep);
  timestep_ = timestep;
  for (auto& box : mailboxes_) {
    box->seq.store(timestep_, std::memory_order_relaxed);
  }
}

void ParallelSolver::rank_step(std::size_t r, index_t t) {
  lbm::Solver<double>& solver = ranks_[r];
  RankTimings& timing = timings_[r];

  const auto t0 = Clock::now();
  {
    const obs::PhaseScope phase("pack");
    for (const index_t c : out_channels_[r]) {
      Mailbox& box = *mailboxes_[static_cast<std::size_t>(c)];
      solver.copy_rows_out(
          topo_.channels[static_cast<std::size_t>(box.channel)].src_slots,
          box.buffer);
      box.seq.store(t + 1, std::memory_order_release);
    }
  }
  const auto t1 = Clock::now();

  // Interior overlap window: no point here gathers from a ghost row, so
  // this compute proceeds while neighbor ranks are still publishing.
  {
    const obs::PhaseScope phase("interior");
    solver.interior_pass();
  }
  const auto t2 = Clock::now();

  real_t wait_s = 0.0, unpack_s = 0.0;
  for (const index_t c : in_channels_[r]) {
    Mailbox& box = *mailboxes_[static_cast<std::size_t>(c)];
    const auto w0 = Clock::now();
    {
      const obs::PhaseScope phase("await");
      while (box.seq.load(std::memory_order_acquire) < t + 1) {
        std::this_thread::yield();
      }
    }
    const auto w1 = Clock::now();
    {
      const obs::PhaseScope phase("unpack");
      solver.copy_rows_in(
          topo_.channels[static_cast<std::size_t>(box.channel)].dst_slots,
          box.buffer);
    }
    const auto w2 = Clock::now();
    wait_s += seconds_between(w0, w1);
    unpack_s += seconds_between(w1, w2);
  }
  const auto t3 = Clock::now();

  {
    const obs::PhaseScope phase("frontier");
    solver.frontier_pass();
  }
  const auto t4 = Clock::now();

  {
    const obs::PhaseScope phase("swap");
    solver.end_step();
  }

  ++timing.steps;
  timing.pack_s += seconds_between(t0, t1);
  timing.mem_s += seconds_between(t1, t2) + seconds_between(t3, t4);
  timing.wait_s += wait_s;
  timing.unpack_s += unpack_s;
}

void ParallelSolver::on_epoch() noexcept {
  ++timestep_;
  ++window_steps_;
  if (window_steps_ < options_.rebalance.window) return;
  window_steps_ = 0;

  std::vector<real_t> window_busy(ranks_.size(), 0.0);
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    window_busy[r] = timings_[r].busy_s() - window_start_busy_[r];
    window_start_busy_[r] = timings_[r].busy_s();
  }

  auto& registry = obs::MetricsRegistry::global();
  real_t max_busy = 0.0, sum_busy = 0.0;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    registry.observe("runtime_window_busy_seconds", window_busy[r],
                     {{"workload", options_.workload},
                      {"rank", std::to_string(r)}});
    max_busy = std::max(max_busy, window_busy[r]);
    sum_busy += window_busy[r];
  }
  const real_t mean_busy = sum_busy / static_cast<real_t>(ranks_.size());
  registry.set("runtime_measured_imbalance",
               mean_busy > 0.0 ? max_busy / mean_busy : 1.0,
               {{"workload", options_.workload}});
  registry.add("runtime_windows_total", 1.0,
               {{"workload", options_.workload}});

  const auto plan =
      controller_.observe_window(window_busy, partition_, neighbors_of_);
  if (plan) {
    apply_migration(*plan);
    registry.add("runtime_migrations_total", 1.0,
                 {{"workload", options_.workload}});
    HEMO_LOG_INFO("runtime rebalance: moved %td points from rank %d to "
                  "rank %d at step %td",
                  plan->count, plan->from, plan->to, timestep_);
  }
}

void ParallelSolver::apply_migration(const MigrationPlan& plan) {
  const std::vector<double> state = export_state();
  partition_ = decomp::migrate_block(partition_, plan.from, plan.to,
                                     plan.count);
  build_runtime_structures();
  scatter_state(state, timestep_);
  ++rebalance_count_;
}

void ParallelSolver::request_migration(std::int32_t from, std::int32_t to,
                                       index_t count) {
  apply_migration(MigrationPlan{from, to, count});
}

void ParallelSolver::run(index_t n) {
  HEMO_REQUIRE(n >= 0, "negative step count");
  if (n == 0) return;
  const auto n_ranks = static_cast<std::ptrdiff_t>(ranks_.size());
  // The completion step runs while every rank thread is parked inside the
  // barrier, which is the happens-before edge the shared-state writes in
  // on_epoch() rely on (DESIGN.md §13).
  std::barrier<EpochCallback> sync(  // sync-ok(lockstep epoch barrier)
      n_ranks, EpochCallback{this});

  auto trace_span = obs::TraceRecorder::global().wall_span(
      "parallel_run", "runtime",
      {{"ranks", obs::trace_num(static_cast<real_t>(n_ranks))},
       {"steps", obs::trace_num(static_cast<real_t>(n))}});

  const index_t t0 = timestep_;
  std::vector<std::jthread> threads;
  threads.reserve(static_cast<std::size_t>(n_ranks));
  // The loop bound is the local count, not ranks_.size(): once the last
  // rank starts, a migration in the completion step may rebuild ranks_
  // while this thread is still in the loop.
  for (std::size_t r = 0; r < static_cast<std::size_t>(n_ranks); ++r) {
    threads.emplace_back([this, r, t0, n, &sync] {
      obs::set_thread_label("rank" + std::to_string(r));
      for (index_t s = 0; s < n; ++s) {
        // timestep_ is written only by the barrier completion step, which
        // happens-before every thread's release from the wait — reading it
        // here is race-free and always equals t0 + s.
        rank_step(r, t0 + s);
        sync.arrive_and_wait();
      }
    });
  }
  threads.clear();  // join all ranks
}

lbm::Moments<real_t> ParallelSolver::moments_at(index_t global_point) const {
  HEMO_REQUIRE(global_point >= 0 && global_point < mesh_->num_points(),
               "point index out of range");
  const auto g = static_cast<std::size_t>(global_point);
  return ranks_[static_cast<std::size_t>(topo_.owner_task[g])].moments_at(
      topo_.owner_slot[g]);
}

real_t ParallelSolver::total_mass() const {
  // Rank by rank, owned slot by slot, direction by direction: a fixed
  // order for a given partition.
  const lbm::Layout layout = params_.kernel.layout;
  real_t mass = 0.0;
  for (std::size_t r = 0; r < ranks_.size(); ++r) {
    const harvey::RankLayout& rank = topo_.ranks[r];
    const index_t slots = rank.total_slots();
    const std::vector<double> local = ranks_[r].export_state();
    for (index_t s = 0; s < rank.num_local(); ++s) {
      for (index_t q = 0; q < kQ; ++q) {
        mass += local[static_cast<std::size_t>(
            state_index(layout, slots, s, q))];
      }
    }
  }
  return mass;
}

}  // namespace hemo::runtime

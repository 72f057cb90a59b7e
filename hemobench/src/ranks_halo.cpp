// ranks-halo: the threaded-rank runtime, its halo exchange and the
// decomposition, on the 25,360-point benchmark cylinder split in two by
// RCB. The lattice fits in cache and the cylinder has the paper's highest
// halo-per-point ratio, so steps are bound by compute and exchange latency
// rather than memory bandwidth. The seed changes nothing here.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "decomp/partition.hpp"
#include "geometry/generators.hpp"
#include "host.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/mesh.hpp"
#include "lbm/solver.hpp"
#include "microbench/stream.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "runtime/parallel_solver.hpp"
#include "runtime/validation.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace hemobench {

namespace {

using namespace hemo;

constexpr index_t kRanks = 2;
constexpr index_t kWindow = 50;  ///< steps per ParallelSolver::run() call
constexpr int kSetupEvery = 4;  ///< timed windows between two set-ups
constexpr int kKernelSteps = 1000;  ///< serial kernel steps of a traced run

struct Instance {
  std::optional<geometry::Geometry> geo;
  std::unique_ptr<lbm::FluidMesh> mesh;
  std::unique_ptr<runtime::ParallelSolver> solver;
};

/// The runtime's kernel: AB-AoS double, the configuration ranks run.
lbm::SolverParams solver_params() {
  lbm::SolverParams params;
  params.tau = 0.8;
  return params;
}

void build(Instance& inst, Tracer& tracer) {
  const Tracer::Scope setup(tracer, "setup");
  {
    const Tracer::Scope span(tracer, "geometry.build");
    inst.geo.emplace(geometry::make_cylinder({.radius = 10, .length = 80}));
  }
  {
    const Tracer::Scope span(tracer, "lbm.mesh_build");
    inst.mesh = std::make_unique<lbm::FluidMesh>(
        lbm::FluidMesh::build(inst.geo->grid));
  }
  decomp::Partition partition;
  {
    const Tracer::Scope span(tracer, "decomp.partition");
    partition = decomp::make_partition(*inst.mesh, kRanks, decomp::Strategy::kRcb);
  }
  const Tracer::Scope span(tracer, "lbm.solver_init");
  runtime::RuntimeOptions options;
  options.workload = "ranks-halo";
  inst.solver = std::make_unique<runtime::ParallelSolver>(
      *inst.mesh, partition, solver_params(), std::span(inst.geo->inlets),
      options);
}

/// The lbm layer alone (traced runs): the ranks' point arithmetic on one
/// serial thread over the same lattice, its bytes per FLUP, and STREAM
/// COPY at that team size on arrays the size of one distribution array.
/// Pairs of steps alternate with spans on and off, which gives the tracing
/// overhead on the operation the spans time; pairs, because AB steps of
/// the two parities differ in cost.
void kernel_layer(const Instance& inst, Tracer& tracer, Outcome& out) {
  lbm::SolverParams params = solver_params();
  params.num_threads = 1;
  lbm::Solver<double> serial(*inst.mesh, params, std::span(inst.geo->inlets));
  serial.run(2);
  std::vector<double> wall_ms[2];
  for (int i = 0; i < kKernelSteps; ++i) {
    const bool traced = i / 2 % 2 == 0;
    tracer.set_enabled(traced);
    const auto t0 = Clock::now();
    {
      const Tracer::Scope span(tracer, "lbm.step");
      serial.step();
    }
    wall_ms[traced ? 1 : 0].push_back(seconds_since(t0) * 1e3);
  }
  tracer.set_enabled(false);
  std::vector<double> self_ms;
  for (const double s : self_times_by_name(tracer.spans()).at("lbm.step")) {
    self_ms.push_back(s * 1e3);
  }
  out.values["obs.trace_overhead"] = median(wall_ms[1]) / median(wall_ms[0]);
  const index_t points = inst.mesh->num_points();
  const double step_ms = median(self_ms);
  const double bytes_per_flup =
      lbm::serial_bytes_per_step(*inst.mesh, params.kernel) /
      static_cast<double>(points);
  const double copy_mbs =
      microbench::run_stream_local(points * lbm::kQ, 50, 1).copy;
  const lbm::SegmentedMesh& seg = *serial.segments();
  out.values["lbm.step_self_ms"] = step_ms;
  out.values["lbm.bytes_per_flup"] = bytes_per_flup;
  out.values["lbm.stream_copy_gbs"] = copy_mbs / 1e3;
  out.values["lbm.roofline_fraction"] =
      lbm::mflups(points, 1, step_ms / 1e3) / (copy_mbs / bytes_per_flup);
  out.values["lbm.spans"] = static_cast<double>(seg.spans().size());
  out.values["lbm.mean_span_len"] = seg.mean_span_length();
  out.context.add("kernel_steps", static_cast<long long>(kKernelSteps))
      .add("kernel_path", to_string(params.kernel.path))
      .add("kernel_layout", to_string(params.kernel.layout));
}

}  // namespace

void run_ranks_halo(const RunOptions& opt, Tracer& tracer, Outcome& out) {
  // Set-ups are sampled across the whole run, one every kSetupEvery timed
  // windows: co-tenants of a shared host slow set-up at their own times,
  // and samples from across the run make its median repeat. The first
  // instance is the one timed; the later ones are spares, built and freed.
  std::vector<double> setup_samples;
  const auto timed_setup = [&](Instance& into) {
    tracer.set_enabled(opt.trace);
    const auto t0 = Clock::now();
    build(into, tracer);
    setup_samples.push_back(seconds_since(t0));
    tracer.set_enabled(false);
  };
  Instance inst;
  timed_setup(inst);
  runtime::ParallelSolver& solver = *inst.solver;
  const index_t points = inst.mesh->num_points();

  solver.run(kWindow);  // start the rank threads, warm the caches

  // Windows of kWindow steps until both the time budget and a reportable
  // p10 and p90 are reached. Traced runs alternate plain and phase-profiler
  // windows; the plain ones give every rate.
  obs::PhaseProfiler& profiler = obs::PhaseProfiler::global();
  const std::size_t min_windows = min_samples_for(10);
  std::vector<double> step_ms, profiled_ms;
  double timed = 0.0;
  for (int w = 0; step_ms.size() < min_windows || timed < opt.seconds; ++w) {
    const bool profiled = opt.trace && w % 2 == 1;
    if (profiled) profiler.start();
    const auto t0 = Clock::now();
    solver.run(kWindow);
    const double window_s = seconds_since(t0);
    if (profiled) {
      profiler.stop();
      profiler.enable(false);
      profiler.reset();
    }
    timed += window_s;
    out.attempted += kWindow;
    (profiled ? profiled_ms : step_ms)
        .push_back(window_s * 1e3 / static_cast<double>(kWindow));
    if (w % kSetupEvery == kSetupEvery - 1) {
      Instance spare;
      timed_setup(spare);
    }
  }

  // Output check: the ranks' state equals a single solver's of the same
  // steps, bit for bit. The reference may use every core: its results are
  // bit-stable across thread counts.
  lbm::SolverParams serial_params = solver_params();
  serial_params.num_threads = effective_cores();
  lbm::Solver<double> serial(*inst.mesh, serial_params, std::span(inst.geo->inlets));
  serial.run(solver.timestep());
  if (serial.export_state() != solver.export_state()) {
    out.failed = out.attempted;
    out.check_failures.push_back("rank state differs from the serial solver");
  }

  out.values["setup_s"] = median(setup_samples);
  out.values["mflups"] = lbm::mflups(points, 1, median(step_ms) / 1e3);
  out.values["step_ms_p50"] = percentile(step_ms, 50).value();
  out.values["step_ms_p90"] = percentile(step_ms, 90).value();
  out.context.add("points", static_cast<long long>(points))
      .add("ranks", static_cast<long long>(kRanks))
      .add("steps_per_sample", static_cast<long long>(kWindow))
      .add("step_samples", static_cast<long long>(step_ms.size()))
      .add("step_ms_p10", percentile(step_ms, 10).value())
      .add("step_relative_iqr", relative_iqr(step_ms))
      .add("setup_samples", static_cast<long long>(setup_samples.size()))
      .add("timesteps_checked", static_cast<long long>(solver.timestep()))
      .add("reference_threads", static_cast<long long>(serial.threads()));

  if (!opt.trace) return;
  const auto& spans = tracer.spans();
  out.values["geometry.build_s"] = median(self_totals_per_root(spans, "geometry.build"));
  out.values["lbm.mesh_build_s"] = median(self_totals_per_root(spans, "lbm.mesh_build"));
  out.values["decomp.partition_s"] = median(self_totals_per_root(spans, "decomp.partition"));
  out.values["lbm.solver_init_s"] = median(self_totals_per_root(spans, "lbm.solver_init"));
  out.values["obs.profiler_step_ratio"] = median(profiled_ms) / median(step_ms);

  // Per-step phase times as the runtime reports them, averaged over ranks.
  const auto timings = solver.timings();
  double mem = 0, pack = 0, wait = 0, unpack = 0, comm = 0, busy = 0, max_busy = 0;
  for (const runtime::RankTimings& t : timings) {
    const double steps = static_cast<double>(t.steps);
    mem += t.mem_s / steps;
    pack += t.pack_s / steps;
    wait += t.wait_s / steps;
    unpack += t.unpack_s / steps;
    comm += t.comm_s();
    busy += t.busy_s();
    max_busy = std::max(max_busy, t.busy_s());
  }
  const double ranks = static_cast<double>(timings.size());
  out.values["runtime.mem_us"] = mem / ranks * 1e6;
  out.values["runtime.pack_us"] = pack / ranks * 1e6;
  out.values["runtime.wait_us"] = wait / ranks * 1e6;
  out.values["runtime.unpack_us"] = unpack / ranks * 1e6;
  out.values["runtime.imbalance"] = max_busy / (busy / ranks);
  out.values["runtime.comm_share"] = comm / busy;
  out.values["decomp.halo_bytes"] = solver.bytes_per_exchange();
  out.values["decomp.channels"] = static_cast<double>(solver.channel_count());
  out.values["decomp.ghosts"] = static_cast<double>(solver.ghost_count());

  kernel_layer(inst, tracer, out);

  // Model fidelity: the Eq. 6 step prediction from a STREAM + PingPong
  // characterisation of this host against the measured step.
  const auto host = runtime::LocalHostModel::measure();
  obs::MetricsRegistry registry;
  const runtime::ValidationReport report = runtime::validate_run(
      *inst.mesh, solver.partition(), solver_params().kernel, host, timings,
      "ranks-halo", registry);
  out.values["runtime.model_step_err"] =
      std::abs(report.predicted_step_s / report.measured_step_s - 1.0);
}

}  // namespace hemobench

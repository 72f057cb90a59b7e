// Tests for the threaded-rank parallel runtime: bit-identity against the
// serial solver across rank counts and geometries (including runs with
// dynamic rebalancing migrations), halo-topology invariants, the
// rebalance controller policy, and measured-vs-model validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "decomp/comm_graph.hpp"
#include "lbm/mesh_segments.hpp"
#include "lbm/simd.hpp"
#include "runtime/parallel_solver.hpp"
#include "runtime/rebalance.hpp"
#include "runtime/validation.hpp"

namespace hemo::runtime {
namespace {

lbm::SolverParams base_params() {
  lbm::SolverParams params;
  params.tau = 0.8;
  return params;
}

geometry::Geometry named_geometry(const std::string& name) {
  if (name == "cylinder") {
    return geometry::make_cylinder({.radius = 5, .length = 24});
  }
  return geometry::make_cerebral({.depth = 3});
}

/// The decisive acceptance test: the threaded runtime's canonical state
/// must equal the serial solver's bit for bit, for every rank count, on
/// both a compact and a branching geometry.
class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<index_t, std::string>> {};

TEST_P(ParallelEquivalence, StateMatchesSerialSolverBitwise) {
  const auto [n_ranks, geo_name] = GetParam();
  const auto geo = named_geometry(geo_name);
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();

  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  const auto part = decomp::make_partition(mesh, n_ranks,
                                           decomp::Strategy::kRcb);
  ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));

  serial.run(40);
  parallel.run(40);

  EXPECT_EQ(parallel.timestep(), 40);
  const auto expected = serial.export_state();
  const auto actual = parallel.export_state();
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(actual[i], expected[i]) << "value " << i;
  }
  for (const auto& timing : parallel.timings()) {
    EXPECT_EQ(timing.steps, 40);
    EXPECT_GT(timing.busy_s(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RankSweep, ParallelEquivalence,
    ::testing::Combine(::testing::Values<index_t>(1, 2, 4, 8),
                       ::testing::Values(std::string("cylinder"),
                                         std::string("bifurcation"))),
    [](const auto& info) {
      return std::get<1>(info.param) + "_ranks" +
             std::to_string(std::get<0>(info.param));
    });

TEST(ParallelSolver, PulsatileInletMatchesSerialBitwise) {
  // The pulse scale depends on the shared timestep; lockstep epochs must
  // keep every rank on the same t.
  auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  for (auto& inlet : geo.inlets) {
    inlet.pulse_amplitude = 0.4;
    inlet.pulse_period = 15.0;
  }
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();
  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 4, decomp::Strategy::kSlab), params,
      std::span(geo.inlets));
  serial.run(45);
  parallel.run(45);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
}

TEST(ParallelSolver, LesMatchesSerialBitwise) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  auto params = base_params();
  params.smagorinsky_cs = 0.12;
  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 4, decomp::Strategy::kRcb), params,
      std::span(geo.inlets));
  serial.run(30);
  parallel.run(30);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
}

TEST(ParallelSolver, RequestedMigrationPreservesBitIdentity) {
  // A migration mid-run only moves ownership: gather, re-partition,
  // scatter. The state afterwards must equal an unmigrated serial run.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();
  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kSlab);
  ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));

  parallel.run(20);
  const auto before = parallel.partition().points_of[0].size();
  parallel.request_migration(0, 1, 40);
  EXPECT_EQ(parallel.rebalance_count(), 1);
  EXPECT_EQ(parallel.partition().points_of[0].size(), before - 40);
  parallel.run(20);

  serial.run(40);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
  EXPECT_EQ(parallel.timestep(), serial.timestep());
}

TEST(ParallelSolver, DynamicRebalanceTriggersAndPreservesBitIdentity) {
  // A deliberately skewed two-rank split: rank 0 owns ~4x the points of
  // rank 1, so measured busy-time imbalance exceeds the threshold in every
  // window and an aggressive controller must migrate at least once.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const index_t n = mesh.num_points();
  const index_t split = n * 4 / 5;
  decomp::Partition part;
  part.n_tasks = 2;
  part.task_of.resize(static_cast<std::size_t>(n));
  part.points_of.resize(2);
  for (index_t p = 0; p < n; ++p) {
    const std::int32_t t = p < split ? 0 : 1;
    part.task_of[static_cast<std::size_t>(p)] = t;
    part.points_of[static_cast<std::size_t>(t)].push_back(p);
  }

  const auto params = base_params();
  RuntimeOptions options;
  options.rebalance.enabled = true;
  options.rebalance.window = 4;
  options.rebalance.threshold = 1.05;
  options.rebalance.patience = 1;
  options.rebalance.min_block = 8;
  ParallelSolver parallel(mesh, part, params, std::span(geo.inlets),
                          options);

  // Run in chunks until a migration happened (generous cap; the 4:1 skew
  // triggers within the first windows on any scheduler).
  index_t steps = 0;
  while (parallel.rebalance_count() == 0 && steps < 400) {
    parallel.run(20);
    steps += 20;
  }
  ASSERT_GE(parallel.rebalance_count(), 1)
      << "no migration after " << steps << " steps";
  // The skew must have shrunk: rank 0 gave points away.
  EXPECT_LT(parallel.partition().points_of[0].size(),
            static_cast<std::size_t>(split));

  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  serial.run(steps);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
}

TEST(ParallelSolver, RestoreStateRoundTripsThroughSerialCheckpoint) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();
  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  serial.run(25);
  const auto checkpoint = serial.export_state();

  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 3, decomp::Strategy::kRcb), params,
      std::span(geo.inlets));
  parallel.restore_state(checkpoint, 25);
  EXPECT_EQ(parallel.timestep(), 25);
  EXPECT_EQ(parallel.export_state(), checkpoint);

  serial.run(10);
  parallel.run(10);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
}

TEST(ParallelSolver, MomentsAndMassAgreeWithSerialSolver) {
  // Observables read through the rank solvers must agree exactly with the
  // serial solver's; the mass is summed rank by rank, owned point by owned
  // point, direction by direction.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto params = base_params();
  const auto part = decomp::make_partition(mesh, 5, decomp::Strategy::kRcb);
  lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
  ParallelSolver parallel(mesh, part, params, std::span(geo.inlets));
  serial.run(30);
  parallel.run(30);
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    const auto ms = serial.moments_at(p);
    const auto mp = parallel.moments_at(p);
    ASSERT_DOUBLE_EQ(ms.rho, mp.rho) << "point " << p;
    ASSERT_DOUBLE_EQ(ms.ux, mp.ux) << "point " << p;
    ASSERT_DOUBLE_EQ(ms.uy, mp.uy) << "point " << p;
    ASSERT_DOUBLE_EQ(ms.uz, mp.uz) << "point " << p;
  }
  const auto state = serial.export_state();
  real_t rank_order_mass = 0.0;
  for (const auto& points : part.points_of) {
    for (const index_t p : points) {
      for (index_t q = 0; q < lbm::kQ; ++q) {
        rank_order_mass += state[static_cast<std::size_t>(p * lbm::kQ + q)];
      }
    }
  }
  EXPECT_DOUBLE_EQ(rank_order_mass, parallel.total_mass());
  EXPECT_NEAR(serial.total_mass(), parallel.total_mass(), 1e-9);
}

TEST(ParallelSolver, KernelPathsAreBitIdentical) {
  // Ranks step through the serial segmented kernels; the result must equal
  // the serial segmented solver and the reference-path oracle exactly.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  auto reference = base_params();
  reference.kernel.path = lbm::KernelPath::kReference;
  auto segmented = base_params();
  segmented.kernel.path = lbm::KernelPath::kSegmented;
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kRcb);

  ParallelSolver seg_solver(mesh, part, segmented, std::span(geo.inlets));
  lbm::Solver<double> serial_ref(mesh, reference, std::span(geo.inlets));
  lbm::Solver<double> serial(mesh, segmented, std::span(geo.inlets));
  seg_solver.run(30);
  serial_ref.run(30);
  serial.run(30);

  const auto expected = serial_ref.export_state();
  EXPECT_EQ(serial.export_state(), expected);
  EXPECT_EQ(seg_solver.export_state(), expected);
  for (index_t p = 0; p < mesh.num_points(); p += 97) {
    const auto ms = serial_ref.moments_at(p);
    const auto mp = seg_solver.moments_at(p);
    ASSERT_DOUBLE_EQ(ms.rho, mp.rho) << "point " << p;
    ASSERT_DOUBLE_EQ(ms.uz, mp.uz) << "point " << p;
  }
}

TEST(ParallelSolver, TopologyMatchesCommGraphStructure) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  for (const index_t n_ranks : {5, 6}) {
    SCOPED_TRACE(n_ranks);
    const auto part =
        decomp::make_partition(mesh, n_ranks, decomp::Strategy::kRcb);
    ParallelSolver parallel(mesh, part, base_params(), std::span(geo.inlets));

    const auto graph = decomp::build_comm_graph(mesh, part);
    // One mailbox per directed message of the communication graph.
    EXPECT_EQ(parallel.channel_count(),
              static_cast<index_t>(graph.messages.size()));
    // Every communicated link corresponds to a ghost point; ghosts
    // deduplicate links that share an upstream point, so ghosts <= links.
    index_t total_links = 0;
    for (const auto& m : graph.messages) total_links += m.link_count;
    EXPECT_GT(parallel.ghost_count(), 0);
    EXPECT_LE(parallel.ghost_count(), total_links);
    EXPECT_GT(parallel.bytes_per_exchange(), 0.0);
  }
}

TEST(ParallelSolver, InteriorAndFrontierPartitionOwnedSlots) {
  // Every rank's segmented mesh: positions run [interior | frontier |
  // ghosts]; no interior position reads a ghost, every frontier position
  // reads one, and no RLE span straddles a pass boundary.
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kRcb);
  const auto topo = harvey::build_halo_exchange(mesh, part);
  for (const auto& rank : topo.ranks) {
    const auto seg = lbm::SegmentedMesh::build(mesh, rank.local_points,
                                               rank.ghost_points);
    const lbm::SegmentPass& interior = seg.interior();
    const lbm::SegmentPass& frontier = seg.frontier();
    ASSERT_EQ(seg.num_points(), rank.total_slots());
    EXPECT_EQ(seg.num_owned(), rank.num_local());
    EXPECT_EQ(interior.begin, 0);
    EXPECT_LE(interior.bulk_end, interior.end);
    EXPECT_EQ(frontier.begin, interior.end);
    EXPECT_LE(frontier.bulk_end, frontier.end);
    EXPECT_EQ(frontier.end, rank.num_local());
    EXPECT_GT(interior.end - interior.begin, 0);
    EXPECT_GT(frontier.end - frontier.begin, 0);
    // Passes plus ghosts partition the positions; ghosts keep their slots.
    for (index_t i = seg.num_owned(); i < seg.num_points(); ++i) {
      EXPECT_EQ(seg.point_at(i), i);
    }
    const auto reads_ghost = [&](index_t i) {
      for (index_t q = 0; q < lbm::kQ; ++q) {
        const auto nb = seg.neighbor(i, q);
        if (nb != lbm::kSolidLink && nb >= seg.num_owned()) return true;
      }
      return false;
    };
    for (index_t i = interior.begin; i < interior.end; ++i) {
      EXPECT_FALSE(reads_ghost(i)) << "interior position " << i;
      EXPECT_LT(seg.point_at(i), rank.num_local());
    }
    for (index_t i = frontier.begin; i < frontier.end; ++i) {
      EXPECT_TRUE(reads_ghost(i)) << "frontier position " << i;
      EXPECT_LT(seg.point_at(i), rank.num_local());
    }
    for (const auto& span : seg.spans()) {
      const index_t last = span.begin + span.length - 1;
      const bool in_interior =
          span.begin >= interior.begin && last < interior.bulk_end;
      const bool in_frontier =
          span.begin >= frontier.begin && last < frontier.bulk_end;
      EXPECT_TRUE(in_interior || in_frontier) << "span at " << span.begin;
    }
  }
}

TEST(ParallelSolver, RejectsUnsupportedConfigurations) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 12});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 2, decomp::Strategy::kRcb);
  auto aa = base_params();
  aa.kernel.propagation = lbm::Propagation::kAA;
  EXPECT_THROW(ParallelSolver(mesh, part, aa, std::span(geo.inlets)),
               PreconditionError);
  auto single = base_params();
  single.kernel.precision = lbm::Precision::kSingle;
  EXPECT_THROW(ParallelSolver(mesh, part, single, std::span(geo.inlets)),
               PreconditionError);
  auto reference = base_params();
  reference.kernel.path = lbm::KernelPath::kReference;
  EXPECT_THROW(ParallelSolver(mesh, part, reference, std::span(geo.inlets)),
               PreconditionError);

  // SoA is supported: it constructs, runs, and matches the serial solver.
  auto soa = base_params();
  soa.kernel.layout = lbm::Layout::kSoA;
  ParallelSolver parallel(mesh, part, soa, std::span(geo.inlets));
  lbm::Solver<double> serial(mesh, soa, std::span(geo.inlets));
  parallel.run(10);
  serial.run(10);
  EXPECT_EQ(parallel.export_state(), serial.export_state());
}

TEST(ParallelSolver, MatchesSerialAcrossLayoutsBackendsRanksAndPhysics) {
  // The bit-identity matrix: {AoS, SoA} x every compiled-and-detected
  // backend x ranks {1, 2, 4} x {plain, LES, pulsatile}.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  auto pulsed = geo.inlets;
  for (auto& inlet : pulsed) {
    inlet.pulse_amplitude = 0.4;
    inlet.pulse_period = 15.0;
  }
  for (const std::string physics : {"plain", "les", "pulsatile"}) {
    auto params = base_params();
    if (physics == "les") params.smagorinsky_cs = 0.12;
    const std::span<const geometry::InletSpec> inlets =
        physics == "pulsatile" ? std::span(pulsed) : std::span(geo.inlets);
    for (const auto layout : {lbm::Layout::kAoS, lbm::Layout::kSoA}) {
      for (const auto backend : lbm::simd::detected_backends()) {
        params.kernel.layout = layout;
        params.kernel.backend = backend;
        lbm::Solver<double> serial(mesh, params, inlets);
        serial.run(20);
        const auto expected = serial.export_state();
        for (const index_t n_ranks : {1, 2, 4}) {
          SCOPED_TRACE(physics + " " + lbm::to_string(layout) + " " +
                       lbm::to_string(backend) + " ranks " +
                       std::to_string(n_ranks));
          ParallelSolver parallel(
              mesh,
              decomp::make_partition(mesh, n_ranks, decomp::Strategy::kRcb),
              params, inlets);
          parallel.run(20);
          EXPECT_EQ(parallel.export_state(), expected);
        }
      }
    }
  }
}

TEST(ParallelSolver, MigrationsAndRestoreStayBitIdenticalOnEveryBackend) {
  // {AoS, SoA} x every detected backend x ranks {1, 2, 4, 8}: a
  // hair-trigger rebalance controller plus a requested migration, then a
  // fresh instance restored from a serial checkpoint, all equal to the
  // serial solver. Pulsatile inlets make every rebuilt or restored rank
  // depend on resuming at the right timestep.
  auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  for (auto& inlet : geo.inlets) {
    inlet.pulse_amplitude = 0.4;
    inlet.pulse_period = 15.0;
  }
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  RuntimeOptions storm;
  storm.rebalance.enabled = true;
  storm.rebalance.window = 2;
  storm.rebalance.threshold = 1.01;
  storm.rebalance.patience = 1;
  storm.rebalance.min_block = 1;
  storm.rebalance.move_fraction = 0.5;
  for (const auto layout : {lbm::Layout::kAoS, lbm::Layout::kSoA}) {
    for (const auto backend : lbm::simd::detected_backends()) {
      auto params = base_params();
      params.kernel.layout = layout;
      params.kernel.backend = backend;
      lbm::Solver<double> serial(mesh, params, std::span(geo.inlets));
      serial.run(20);
      const auto at20 = serial.export_state();
      serial.run(10);
      const auto at30 = serial.export_state();
      for (const index_t n_ranks : {1, 2, 4, 8}) {
        SCOPED_TRACE(lbm::to_string(layout) + " " + lbm::to_string(backend) +
                     " ranks " + std::to_string(n_ranks));
        ParallelSolver migrated(
            mesh,
            decomp::make_partition(mesh, n_ranks, decomp::Strategy::kSlab),
            params, std::span(geo.inlets), storm);
        migrated.run(10);
        const auto source = migrated.partition().points_of[0].size();
        if (n_ranks > 1 && source >= 2) {
          migrated.request_migration(0, 1, static_cast<index_t>(source / 2));
        }
        migrated.run(10);
        EXPECT_EQ(migrated.export_state(), at20);

        ParallelSolver restored(
            mesh,
            decomp::make_partition(mesh, n_ranks, decomp::Strategy::kRcb),
            params, std::span(geo.inlets));
        restored.restore_state(at20, 20);
        EXPECT_EQ(restored.export_state(), at20);
        restored.run(10);
        EXPECT_EQ(restored.export_state(), at30);
      }
    }
  }
}

TEST(ParallelSolver, EmptyRanksStayIdleAndBitIdentical) {
  // Grid partitions of sparse geometries leave tasks without points; their
  // rank solvers hold nothing and step nothing.
  struct Case {
    geometry::Geometry geo;
    index_t tasks;
    decomp::Strategy strategy;
  };
  std::vector<Case> cases;
  cases.push_back({geometry::make_cerebral({.depth = 3}), 16,
                   decomp::Strategy::kGrid});
  cases.push_back({geometry::make_cylinder({.radius = 5, .length = 24}), 27,
                   decomp::Strategy::kSlab});
  for (const Case& c : cases) {
    const auto mesh = lbm::FluidMesh::build(c.geo.grid);
    const auto part = decomp::make_partition(mesh, c.tasks, c.strategy);
    const auto empty = std::count_if(
        part.points_of.begin(), part.points_of.end(),
        [](const auto& points) { return points.empty(); });
    SCOPED_TRACE(std::to_string(empty) + " empty of " +
                 std::to_string(c.tasks));
    ASSERT_GT(empty, 0);
    const auto params = base_params();
    lbm::Solver<double> serial(mesh, params, std::span(c.geo.inlets));
    ParallelSolver parallel(mesh, part, params, std::span(c.geo.inlets));
    serial.run(30);
    parallel.run(30);
    EXPECT_EQ(parallel.export_state(), serial.export_state());
  }
}

TEST(RebalanceController, QuietWindowsNeverTrigger) {
  RebalanceOptions options;
  options.enabled = true;
  options.threshold = 1.25;
  options.patience = 1;
  RebalanceController controller(options);
  decomp::Partition part;
  part.n_tasks = 2;
  part.points_of = {{0, 1, 2, 3}, {4, 5, 6, 7}};
  part.task_of = {0, 0, 0, 0, 1, 1, 1, 1};
  const std::vector<std::vector<std::int32_t>> neighbors = {{1}, {0}};
  const std::vector<real_t> balanced = {1.0, 1.01};
  for (int w = 0; w < 5; ++w) {
    EXPECT_FALSE(
        controller.observe_window(balanced, part, neighbors).has_value());
  }
  EXPECT_EQ(controller.hot_windows(), 0);
}

TEST(RebalanceController, SustainedImbalancePlansMigrationAfterPatience) {
  RebalanceOptions options;
  options.enabled = true;
  options.threshold = 1.25;
  options.patience = 2;
  options.min_block = 1;
  options.move_fraction = 0.5;
  RebalanceController controller(options);
  decomp::Partition part;
  part.n_tasks = 3;
  part.points_of = {{0, 1, 2, 3, 4, 5, 6, 7}, {8, 9}, {10, 11}};
  part.task_of = {0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 2};
  const std::vector<std::vector<std::int32_t>> neighbors = {
      {1, 2}, {0, 2}, {0, 1}};
  const std::vector<real_t> skewed = {4.0, 1.0, 0.5};

  // First hot window: patience not yet reached.
  EXPECT_FALSE(controller.observe_window(skewed, part, neighbors).has_value());
  EXPECT_EQ(controller.hot_windows(), 1);
  // Second: plan issued, hot rank 0 donates to its coolest neighbor 2.
  const auto plan = controller.observe_window(skewed, part, neighbors);
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->from, 0);
  EXPECT_EQ(plan->to, 2);
  EXPECT_GE(plan->count, 1);
  EXPECT_LT(plan->count, 8);
  EXPECT_EQ(controller.hot_windows(), 0);  // streak resets after a plan
}

TEST(RebalanceController, DisabledControllerIsInert) {
  RebalanceController controller(RebalanceOptions{});  // enabled = false
  decomp::Partition part;
  part.n_tasks = 2;
  part.points_of = {{0, 1, 2}, {3}};
  part.task_of = {0, 0, 0, 1};
  const std::vector<std::vector<std::int32_t>> neighbors = {{1}, {0}};
  const std::vector<real_t> skewed = {10.0, 0.1};
  for (int w = 0; w < 4; ++w) {
    EXPECT_FALSE(
        controller.observe_window(skewed, part, neighbors).has_value());
  }
}

TEST(Validation, PredictionsScaleWithPartitionBytes) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 4, decomp::Strategy::kRcb);
  LocalHostModel host;
  host.copy_mbs = 10000.0;
  host.comm = fit::CommModel{.bandwidth = 1e9, .latency = 1e-6};
  const auto predictions =
      predict_per_rank(mesh, part, lbm::KernelConfig{}, host);
  ASSERT_EQ(predictions.size(), 4u);
  const auto bytes = decomp::task_bytes_per_step(mesh, part, {});
  for (std::size_t r = 0; r < predictions.size(); ++r) {
    EXPECT_DOUBLE_EQ(predictions[r].t_mem_s, bytes[r] / 1e10);
    EXPECT_GT(predictions[r].t_comm_s, 0.0);  // every rank communicates
    EXPECT_GT(predictions[r].step_s(), predictions[r].t_mem_s);
  }
}

TEST(Validation, ValidateRunReportsErrorsAndRecordsDrift) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 24});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  const auto part = decomp::make_partition(mesh, 2, decomp::Strategy::kRcb);
  LocalHostModel host;
  host.copy_mbs = 10000.0;
  host.comm = fit::CommModel{.bandwidth = 1e9, .latency = 1e-6};
  const auto predictions =
      predict_per_rank(mesh, part, lbm::KernelConfig{}, host);

  // Synthetic measurement: exactly 2x the predicted times, so every
  // signed relative error is (pred - meas) / meas = -0.5.
  std::vector<RankTimings> timings(2);
  for (std::size_t r = 0; r < 2; ++r) {
    timings[r].steps = 10;
    timings[r].mem_s = 2.0 * predictions[r].t_mem_s * 10.0;
    timings[r].pack_s = 2.0 * predictions[r].t_comm_s * 10.0;
  }

  obs::MetricsRegistry registry;
  registry.enable(true);
  const auto report = validate_run(mesh, part, {}, host, timings, "cyl",
                                   registry);
  ASSERT_EQ(report.ranks.size(), 2u);
  for (const auto& rank : report.ranks) {
    EXPECT_NEAR(rank.mem_rel_error, -0.5, 1e-12);
    EXPECT_NEAR(rank.comm_rel_error, -0.5, 1e-12);
    EXPECT_NEAR(rank.step_rel_error, -0.5, 1e-12);
  }
  EXPECT_GT(report.measured_step_s, report.predicted_step_s);
  EXPECT_GT(report.predicted_mflups, report.measured_mflups);

  bool saw_mem = false, saw_comm = false, saw_drift = false;
  for (const auto& series : registry.snapshot()) {
    saw_mem = saw_mem || series.name == "runtime_model_mem_rel_error";
    saw_comm = saw_comm || series.name == "runtime_model_comm_rel_error";
    saw_drift = saw_drift || series.name == "model_drift_samples_total";
  }
  EXPECT_TRUE(saw_mem);
  EXPECT_TRUE(saw_comm);
  EXPECT_TRUE(saw_drift);
}

TEST(Validation, LocalHostModelMeasuresThisMachine) {
  const auto host = LocalHostModel::measure(1 << 16, 1, 5);
  EXPECT_GT(host.copy_mbs, 0.0);
  EXPECT_GT(host.comm.bandwidth, 0.0);
  EXPECT_GE(host.comm.latency, 0.0);
}

TEST(ParallelSolver, WindowMetricsFlushThroughRegistry) {
  // The epoch callback flushes per-window busy times and the measured
  // imbalance gauge into the global registry when it is enabled.
  auto& registry = obs::MetricsRegistry::global();
  registry.reset();
  registry.enable(true);
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const auto mesh = lbm::FluidMesh::build(geo.grid);
  RuntimeOptions options;
  options.rebalance.window = 8;
  options.workload = "metrics-test";
  ParallelSolver parallel(
      mesh, decomp::make_partition(mesh, 2, decomp::Strategy::kRcb),
      base_params(), std::span(geo.inlets), options);
  parallel.run(16);  // two full windows
  bool saw_busy = false, saw_imbalance = false, saw_windows = false;
  for (const auto& series : registry.snapshot()) {
    saw_busy = saw_busy || series.name == "runtime_window_busy_seconds";
    saw_imbalance =
        saw_imbalance || series.name == "runtime_measured_imbalance";
    if (series.name == "runtime_windows_total") {
      saw_windows = true;
      EXPECT_DOUBLE_EQ(series.value, 2.0);
    }
  }
  registry.enable(false);
  registry.reset();
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_imbalance);
  EXPECT_TRUE(saw_windows);
}

}  // namespace
}  // namespace hemo::runtime

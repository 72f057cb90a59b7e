// Bit-identity contract of the two solver hot paths.
//
// The segmented path (segment-reordered storage, branch-free RLE bulk
// kernels) must produce *bit-identical* distribution state to the fused
// reference path: both inline the single per-point arithmetic definition in
// lbm/point_update.hpp, and the reordering only changes which point is
// processed when — which cannot matter, because within a step no point
// reads a location another point writes (see the parallelization notes in
// solver.cpp). These tests assert that equivalence exhaustively across
// {AB, AA} x {AoS, SoA} x {float, double} and the physics toggles (LES,
// pulsatile inlets, periodic body-force flow), plus the structural
// invariants of the SegmentedMesh permutation itself: its class order,
// its run-axis order, and the spans that order yields.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>
#include <vector>

#include "geometry/generators.hpp"
#include "lbm/io.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "lbm/solver.hpp"

namespace hemo::lbm {
namespace {

/// Physics toggles layered on the base cylinder benchmark geometry.
enum class Variant { kPlain, kLes, kPulsatile, kPeriodic };

const char* variant_name(Variant v) {
  switch (v) {
    case Variant::kPlain: return "plain";
    case Variant::kLes: return "les";
    case Variant::kPulsatile: return "pulsatile";
    case Variant::kPeriodic: return "periodic";
  }
  return "?";
}

struct Scenario {
  geometry::Geometry geo;
  MeshOptions mesh_options;
  SolverParams params;
};

Scenario make_scenario(Variant v, Layout layout, Propagation prop) {
  const bool periodic = v == Variant::kPeriodic;
  Scenario s{periodic
                 ? geometry::make_periodic_cylinder({.radius = 5, .length = 24})
                 : geometry::make_cylinder({.radius = 5, .length = 24}),
             MeshOptions{}, SolverParams{}};
  s.params.kernel.layout = layout;
  s.params.kernel.propagation = prop;
  switch (v) {
    case Variant::kPlain:
      break;
    case Variant::kLes:
      s.params.smagorinsky_cs = 0.14;
      break;
    case Variant::kPulsatile:
      for (auto& inlet : s.geo.inlets) {
        inlet.pulse_amplitude = 0.4;
        inlet.pulse_period = 10.0;
      }
      break;
    case Variant::kPeriodic:
      s.mesh_options.periodic_z = true;
      s.params.body_force = {0.0, 0.0, 1e-5};
      break;
  }
  return s;
}

/// Runs both paths `steps` timesteps and asserts bit-identical canonical
/// state at every checked instant (including an odd AA parity point).
template <typename T>
void expect_paths_bit_identical(Variant v, Layout layout, Propagation prop) {
  Scenario s = make_scenario(v, layout, prop);
  const FluidMesh mesh = FluidMesh::build(s.geo.grid, s.mesh_options);

  SolverParams ref_params = s.params;
  ref_params.kernel.path = KernelPath::kReference;
  SolverParams seg_params = s.params;
  seg_params.kernel.path = KernelPath::kSegmented;

  Solver<T> ref(mesh, ref_params, std::span(s.geo.inlets));
  Solver<T> seg(mesh, seg_params, std::span(s.geo.inlets));
  ASSERT_NE(seg.segments(), nullptr);
  ASSERT_EQ(ref.segments(), nullptr);

  // Check at an odd step count (AA mid-parity, pulse mid-cycle) and again
  // at an even one.
  for (index_t steps : {index_t{5}, index_t{4}}) {
    ref.run(steps);
    seg.run(steps);
    const std::vector<T> a = ref.export_state();
    const std::vector<T> b = seg.export_state();
    ASSERT_EQ(a.size(), b.size());
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      // Bit comparison, not EXPECT_EQ: distinguishes -0.0 / NaN patterns.
      if (std::memcmp(&a[k], &b[k], sizeof(T)) != 0) ++mismatches;
    }
    EXPECT_EQ(mismatches, 0u)
        << variant_name(v) << " " << kernel_name(ref_params.kernel)
        << " diverged at t=" << ref.timestep();
  }
}

class KernelPathBitIdentity
    : public ::testing::TestWithParam<
          std::tuple<Variant, Layout, Propagation>> {};

TEST_P(KernelPathBitIdentity, DoubleState) {
  const auto [v, layout, prop] = GetParam();
  expect_paths_bit_identical<double>(v, layout, prop);
}

TEST_P(KernelPathBitIdentity, FloatState) {
  const auto [v, layout, prop] = GetParam();
  expect_paths_bit_identical<float>(v, layout, prop);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, KernelPathBitIdentity,
    ::testing::Combine(
        ::testing::Values(Variant::kPlain, Variant::kLes, Variant::kPulsatile,
                          Variant::kPeriodic),
        ::testing::Values(Layout::kAoS, Layout::kSoA),
        ::testing::Values(Propagation::kAB, Propagation::kAA)),
    [](const auto& info) {
      return std::string(variant_name(std::get<0>(info.param))) + "_" +
             to_string(std::get<2>(info.param)) + "_" +
             to_string(std::get<1>(info.param));
    });

TEST(KernelPaths, ObservablesAgreeAcrossPaths) {
  // Derived quantities go through the index translation layer; they must
  // match exactly, not approximately.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams ref_params, seg_params;
  ref_params.kernel.path = KernelPath::kReference;
  seg_params.kernel.path = KernelPath::kSegmented;
  Solver<double> ref(mesh, ref_params, std::span(geo.inlets));
  Solver<double> seg(mesh, seg_params, std::span(geo.inlets));
  ref.run(10);
  seg.run(10);
  for (index_t p = 0; p < mesh.num_points(); p += 11) {
    const auto ma = ref.moments_at(p);
    const auto mb = seg.moments_at(p);
    EXPECT_EQ(ma.rho, mb.rho) << "p=" << p;
    EXPECT_EQ(ma.ux, mb.ux) << "p=" << p;
    EXPECT_EQ(ma.uy, mb.uy) << "p=" << p;
    EXPECT_EQ(ma.uz, mb.uz) << "p=" << p;
    for (index_t q = 0; q < kQ; ++q) {
      EXPECT_EQ(ref.f_value(p, q), seg.f_value(p, q))
          << "p=" << p << " q=" << q;
    }
  }
  EXPECT_EQ(ref.mean_speed(), seg.mean_speed());
}

TEST(KernelPaths, StateTransfersAcrossPathsBitExactly) {
  // export_state() is canonical (original point order): a state exported
  // from one path restores into the other and the trajectories stay
  // bit-identical afterwards.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams ref_params, seg_params;
  ref_params.kernel.path = KernelPath::kReference;
  seg_params.kernel.path = KernelPath::kSegmented;
  Solver<double> ref(mesh, ref_params, std::span(geo.inlets));
  Solver<double> seg(mesh, seg_params, std::span(geo.inlets));

  ref.run(9);
  const auto state = ref.export_state();
  seg.restore_state(state, ref.timestep());
  EXPECT_EQ(seg.export_state(), state);  // round trip through the permutation

  ref.run(6);
  seg.run(6);
  EXPECT_EQ(ref.export_state(), seg.export_state());
}

TEST(KernelPaths, CheckpointsAreCrossPathCompatible) {
  // The binary checkpoint stores canonical state: a file written by the
  // reference path loads into a segmented solver (and vice versa).
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams ref_params, seg_params;
  ref_params.kernel.path = KernelPath::kReference;
  seg_params.kernel.path = KernelPath::kSegmented;
  Solver<double> ref(mesh, ref_params, std::span(geo.inlets));
  Solver<double> seg(mesh, seg_params, std::span(geo.inlets));
  ref.run(8);
  std::stringstream buf;
  save_checkpoint(ref, buf);
  load_checkpoint(seg, buf);
  EXPECT_EQ(seg.timestep(), ref.timestep());
  EXPECT_EQ(seg.export_state(), ref.export_state());
}

/// Class of mesh point p in the segment order: 0 bulk-interior, 1 wall
/// (kWall, or kBulk with solid links), 2 open (kInlet, kOutlet).
int segment_kind(const FluidMesh& mesh, index_t p) {
  switch (mesh.type(p)) {
    case PointType::kInlet:
    case PointType::kOutlet:
      return 2;
    case PointType::kBulk:
      return mesh.solid_links(p) == 0 ? 0 : 1;
    default:
      return 1;
  }
}

/// Sort key of point p with `axis` fastest and the other two axes in the
/// grid's order (z slowest).
std::array<index_t, 3> axis_key(const FluidMesh& mesh, index_t p,
                                index_t axis) {
  const Voxel& v = mesh.voxel(p);
  switch (axis) {
    case 0: return {v.z, v.y, v.x};
    case 1: return {v.z, v.x, v.y};
    default: return {v.y, v.x, v.z};
  }
}

/// The order contract of a segment build whose local slot s is mesh
/// point global[s]: a bijection; each pass holds its bulk, wall and open
/// classes contiguously, in that order; within a class positions ascend
/// in the run-axis-fastest key; ghost slots keep their positions.
void expect_class_ordered(const SegmentedMesh& seg, const FluidMesh& mesh,
                          const std::vector<index_t>& global) {
  const index_t n = seg.num_points();
  ASSERT_EQ(static_cast<index_t>(global.size()), n);
  std::vector<bool> hit(static_cast<std::size_t>(n), false);
  for (index_t i = 0; i < n; ++i) {
    const index_t s = seg.point_at(i);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, n);
    EXPECT_FALSE(hit[static_cast<std::size_t>(s)]) << "duplicate slot " << s;
    hit[static_cast<std::size_t>(s)] = true;
    EXPECT_EQ(seg.position_of(s), i);
  }
  for (index_t i = seg.num_owned(); i < n; ++i) {
    EXPECT_EQ(seg.point_at(i), i) << "ghost moved";
  }
  for (const SegmentPass& pass : {seg.interior(), seg.frontier()}) {
    const std::array<index_t, 4> bounds = {pass.begin, pass.bulk_end,
                                           pass.wall_end, pass.end};
    for (int kind = 0; kind < 3; ++kind) {
      const index_t lo = bounds[static_cast<std::size_t>(kind)];
      const index_t hi = bounds[static_cast<std::size_t>(kind) + 1];
      for (index_t i = lo; i < hi; ++i) {
        const index_t p = global[static_cast<std::size_t>(seg.point_at(i))];
        EXPECT_EQ(seg.type(i), mesh.type(p));
        EXPECT_EQ(segment_kind(mesh, p), kind) << "position " << i;
        if (i > lo) {
          const index_t prev =
              global[static_cast<std::size_t>(seg.point_at(i - 1))];
          EXPECT_LT(axis_key(mesh, prev, seg.run_axis()),
                    axis_key(mesh, p, seg.run_axis()))
              << "position " << i;
        }
      }
    }
  }
}

TEST(SegmentedMeshTest, PermutationIsAClassOrderedBijection) {
  const auto geo = geometry::make_cylinder({.radius = 6, .length = 30});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  const index_t n = mesh.num_points();
  const SegmentedMesh seg = SegmentedMesh::build(mesh);
  ASSERT_EQ(seg.num_points(), n);
  std::vector<index_t> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), index_t{0});
  expect_class_ordered(seg, mesh, all);

  // The run axis is the one with the fewest run starts: points whose
  // -axis neighbor (directions 2, 4, 6) is solid.
  std::array<index_t, 3> starts{};
  for (index_t p = 0; p < n; ++p) {
    for (std::size_t a = 0; a < 3; ++a) {
      if (mesh.neighbor(p, 2 + 2 * static_cast<index_t>(a)) == kSolidLink) {
        ++starts[a];
      }
    }
  }
  EXPECT_EQ(seg.run_axis(),
            std::min_element(starts.begin(), starts.end()) - starts.begin());

  const auto& c = seg.counts();
  EXPECT_EQ(c.bulk_interior, seg.bulk_count());
  EXPECT_EQ(seg.interior().bulk_end, c.bulk_interior);
  EXPECT_EQ(seg.interior().wall_end - seg.interior().bulk_end,
            c.bulk_edge + c.wall);
  EXPECT_EQ(seg.interior().end - seg.interior().wall_end, c.inlet + c.outlet);
  EXPECT_EQ(c.bulk_interior + c.bulk_edge + c.wall + c.inlet + c.outlet, n);
  EXPECT_GT(c.bulk_interior, n / 2);  // cylinder is bulk-dominated

  // A rank build: the lower half of the cylinder owned, its upstream
  // neighbors in the upper half as ghosts, listed in reverse so that the
  // order owes nothing to the slot order.
  std::vector<index_t> owned, ghosts;
  std::vector<bool> is_owned(static_cast<std::size_t>(n), false);
  for (index_t p = n - 1; p >= 0; --p) {
    if (mesh.voxel(p).z < 15) {
      owned.push_back(p);
      is_owned[static_cast<std::size_t>(p)] = true;
    }
  }
  std::vector<bool> is_ghost(static_cast<std::size_t>(n), false);
  for (const index_t p : owned) {
    for (index_t q = 1; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb == kSolidLink || is_owned[static_cast<std::size_t>(nb)] ||
          is_ghost[static_cast<std::size_t>(nb)]) {
        continue;
      }
      is_ghost[static_cast<std::size_t>(nb)] = true;
      ghosts.push_back(nb);
    }
  }
  ASSERT_FALSE(ghosts.empty());
  const SegmentedMesh rank = SegmentedMesh::build(mesh, owned, ghosts);
  std::vector<index_t> global = owned;
  global.insert(global.end(), ghosts.begin(), ghosts.end());
  expect_class_ordered(rank, mesh, global);
  EXPECT_GT(rank.frontier().end, rank.frontier().begin);
}

TEST(SegmentedMeshTest, RunAxisOrderLengthensSpans) {
  // The benchmark cylinder runs along z: ordered z-fastest its bulk
  // coalesces into a few hundred long spans (5538 spans of mean length
  // 3.4 in the grid's x-fastest order). The vessel trees gain too.
  const auto cylinder = FluidMesh::build(
      geometry::make_cylinder({.radius = 10, .length = 80}).grid);
  const SegmentedMesh seg = SegmentedMesh::build(cylinder);
  EXPECT_EQ(seg.run_axis(), 2);
  EXPECT_LE(seg.spans().size(), 800u);
  EXPECT_GE(seg.mean_span_length(), 20.0);

  const auto aorta = FluidMesh::build(geometry::make_aorta().grid);
  const SegmentedMesh aorta_seg = SegmentedMesh::build(aorta);
  EXPECT_EQ(aorta_seg.run_axis(), 2);
  EXPECT_LT(aorta_seg.spans().size(), 14052u);  // x-fastest order

  const auto cerebral = FluidMesh::build(geometry::make_cerebral().grid);
  const SegmentedMesh cerebral_seg = SegmentedMesh::build(cerebral);
  EXPECT_EQ(cerebral_seg.run_axis(), 2);
  EXPECT_LT(cerebral_seg.spans().size(), 5926u);  // x-fastest order
}

TEST(SegmentedMeshTest, SpansTileTheBulkSegmentWithExactOffsets) {
  const auto geo = geometry::make_cylinder({.radius = 6, .length = 30});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  const SegmentedMesh seg = SegmentedMesh::build(mesh);

  index_t covered = 0;
  for (const SegmentSpan& span : seg.spans()) {
    EXPECT_EQ(span.begin, covered);  // contiguous, ordered, gap-free
    ASSERT_GT(span.length, 0);
    for (index_t i = span.begin; i < span.begin + span.length; ++i) {
      const index_t p = seg.point_at(i);
      for (index_t q = 0; q < kQ; ++q) {
        const std::int32_t nb = mesh.neighbor(p, q);
        ASSERT_NE(nb, kSolidLink);  // bulk-interior: all links fluid
        EXPECT_EQ(seg.position_of(nb),
                  i + static_cast<index_t>(
                          span.offsets[static_cast<std::size_t>(q)]))
            << "i=" << i << " q=" << q;
      }
    }
    covered += span.length;
  }
  EXPECT_EQ(covered, seg.bulk_count());
  EXPECT_GT(seg.mean_span_length(), 1.0);  // rows actually coalesce
  EXPECT_GE(seg.max_span_length(), static_cast<index_t>(
                                       seg.mean_span_length()));
}

TEST(SegmentedMeshTest, PermutedNeighborTableMatchesOriginal) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  const SegmentedMesh seg = SegmentedMesh::build(mesh);
  for (index_t i = 0; i < seg.num_points(); ++i) {
    const index_t p = seg.point_at(i);
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb == kSolidLink) {
        EXPECT_EQ(seg.neighbor(i, q), kSolidLink);
      } else {
        EXPECT_EQ(seg.neighbor(i, q),
                  static_cast<std::int32_t>(seg.position_of(nb)));
      }
    }
  }
}

TEST(SolverReductions, MassAndSpeedMatchSerialAccumulation) {
  // The fixed-block ordered reductions must equal a plain serial
  // accumulation in the same block structure regardless of thread count;
  // here we pin the weaker, thread-count-free property that the block sum
  // equals itself computed independently.
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 20});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  SolverParams params;
  Solver<double> solver(mesh, params, std::span(geo.inlets));
  solver.run(6);

  const real_t mass = solver.total_mass();
  EXPECT_EQ(mass, solver.total_mass());  // deterministic across calls
  real_t approx = 0.0;
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    approx += solver.moments_at(p).rho;
  }
  EXPECT_NEAR(mass, approx, std::abs(approx) * 1e-12);

  const real_t speed = solver.mean_speed();
  EXPECT_EQ(speed, solver.mean_speed());
  EXPECT_GT(speed, 0.0);
}

}  // namespace
}  // namespace hemo::lbm

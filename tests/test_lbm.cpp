// Unit tests for the lattice, the sparse mesh, and the access accounting.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "geometry/generators.hpp"
#include "lbm/access_counts.hpp"
#include "lbm/lattice.hpp"
#include "lbm/mesh.hpp"
#include "lbm/mesh_segments.hpp"
#include "util/rng.hpp"

namespace hemo::lbm {
namespace {

TEST(Lattice, WeightsSumToOne) {
  real_t sum = 0.0;
  for (real_t w : kWeights) sum += w;
  EXPECT_NEAR(sum, 1.0, 1e-14);
}

TEST(Lattice, EquilibriumMomentsMatchInputs) {
  const real_t rho = 1.07, ux = 0.03, uy = -0.02, uz = 0.05;
  std::array<double, kQ> f;
  for (index_t i = 0; i < kQ; ++i) {
    f[static_cast<std::size_t>(i)] = equilibrium<double>(i, rho, ux, uy, uz);
  }
  const auto m = moments<double>(std::span<const double, kQ>(f));
  EXPECT_NEAR(m.rho, rho, 1e-12);
  EXPECT_NEAR(m.ux, ux, 1e-12);
  EXPECT_NEAR(m.uy, uy, 1e-12);
  EXPECT_NEAR(m.uz, uz, 1e-12);
}

TEST(Lattice, RestEquilibriumIsWeights) {
  for (index_t i = 0; i < kQ; ++i) {
    EXPECT_NEAR(equilibrium<double>(i, 1.0, 0.0, 0.0, 0.0),
                kWeights[static_cast<std::size_t>(i)], 1e-14);
  }
}

TEST(Lattice, ViscosityFromTau) {
  EXPECT_NEAR(viscosity_from_tau(0.8), 0.1, 1e-12);
  EXPECT_NEAR(viscosity_from_tau(0.5), 0.0, 1e-12);
}

TEST(Lattice, BgkCollideFixedPointAtEquilibrium) {
  EXPECT_DOUBLE_EQ(bgk_collide(0.3, 0.3, 1.25), 0.3);
  // Full relaxation at omega = 1 lands exactly on equilibrium.
  EXPECT_DOUBLE_EQ(bgk_collide(0.5, 0.3, 1.0), 0.3);
}

TEST(FluidMesh, BuildsConsistentNeighborTable) {
  const auto geo = geometry::make_cylinder({.radius = 4, .length = 16});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  EXPECT_GT(mesh.num_points(), 0);
  EXPECT_EQ(mesh.type_counts().fluid(), mesh.num_points());

  for (index_t p = 0; p < mesh.num_points(); ++p) {
    // Rest direction always self-links.
    EXPECT_EQ(mesh.neighbor(p, 0), static_cast<std::int32_t>(p));
    for (index_t q = 1; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb == kSolidLink) continue;
      // Reciprocity: my neighbor's opposite link points back at me.
      EXPECT_EQ(mesh.neighbor(static_cast<index_t>(nb), opposite(q)),
                static_cast<std::int32_t>(p));
    }
  }
}

TEST(FluidMesh, SolidLinkCountsMatchTable) {
  const auto geo = geometry::make_cylinder({.radius = 3, .length = 10});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  index_t total = 0;
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    index_t s = 0;
    for (index_t q = 1; q < kQ; ++q) {
      if (mesh.neighbor(p, q) == kSolidLink) ++s;
    }
    EXPECT_EQ(mesh.solid_links(p), s);
    total += s;
  }
  EXPECT_EQ(mesh.total_solid_links(), total);
}

TEST(FluidMesh, BulkPointsHaveNoSolidLinks) {
  const auto geo = geometry::make_cylinder({.radius = 5, .length = 20});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    if (mesh.type(p) == PointType::kBulk) {
      EXPECT_EQ(mesh.solid_links(p), 0);
    }
  }
}

/// Neighbour table and solid-link counts from a dense voxel -> point map
/// over the whole bounding box: the reference FluidMesh::build's plane
/// window must reproduce entry for entry.
void expect_matches_dense_reference(const geometry::VoxelGrid& grid,
                                    const MeshOptions& options,
                                    const std::string& what) {
  SCOPED_TRACE(what);
  const FluidMesh mesh = FluidMesh::build(grid, options);
  std::vector<std::int32_t> point_of(static_cast<std::size_t>(grid.volume()),
                                     kSolidLink);
  std::int32_t count = 0;
  for (index_t z = 0; z < grid.nz(); ++z) {
    for (index_t y = 0; y < grid.ny(); ++y) {
      for (index_t x = 0; x < grid.nx(); ++x) {
        if (!grid.is_fluid(x, y, z)) continue;
        ASSERT_LT(count, mesh.num_points());
        EXPECT_EQ(mesh.voxel(count), (Voxel{x, y, z}));
        point_of[static_cast<std::size_t>(grid.linear(x, y, z))] = count++;
      }
    }
  }
  ASSERT_EQ(mesh.num_points(), count);
  for (index_t p = 0; p < mesh.num_points(); ++p) {
    const Voxel& v = mesh.voxel(p);
    index_t solid = 0;
    for (index_t q = 0; q < kQ; ++q) {
      const auto& o = kD3Q19[static_cast<std::size_t>(q)];
      index_t x = v.x + o.dx, y = v.y + o.dy, z = v.z + o.dz;
      if (options.periodic_x) x = (x + grid.nx()) % grid.nx();
      if (options.periodic_y) y = (y + grid.ny()) % grid.ny();
      if (options.periodic_z) z = (z + grid.nz()) % grid.nz();
      const std::int32_t nb =
          grid.in_bounds(x, y, z)
              ? point_of[static_cast<std::size_t>(grid.linear(x, y, z))]
              : kSolidLink;
      ASSERT_EQ(mesh.neighbor(p, q), nb) << "point " << p << " q " << q;
      if (q > 0 && nb == kSolidLink) ++solid;
    }
    ASSERT_EQ(mesh.solid_links(p), solid) << "point " << p;
  }
}

TEST(FluidMesh, PlaneWindowMatchesDenseMapOnAnatomies) {
  expect_matches_dense_reference(
      geometry::make_cylinder({.radius = 10, .length = 80}).grid, {},
      "cylinder");
  expect_matches_dense_reference(geometry::make_aorta({}).grid, {}, "aorta");
  expect_matches_dense_reference(geometry::make_cerebral({.depth = 5}).grid,
                                 {}, "cerebral");
  expect_matches_dense_reference(
      geometry::make_periodic_cylinder({.radius = 4, .length = 12}).grid,
      {.periodic_z = true}, "periodic cylinder");
}

// Thin grids are where the window is tight: with nz <= 3 and periodic z,
// the planes below and above a point can be the same plane, or its own.
TEST(FluidMesh, PlaneWindowMatchesDenseMapOnThinPeriodicGrids) {
  Xoshiro256 rng(20260517);
  for (index_t nz = 1; nz <= 3; ++nz) {
    for (int axes = 0; axes < 8; ++axes) {
      geometry::VoxelGrid grid(5, 4, nz);
      for (index_t z = 0; z < nz; ++z) {
        for (index_t y = 0; y < 4; ++y) {
          for (index_t x = 0; x < 5; ++x) {
            if (rng.below(10) < 7) grid.set(x, y, z, PointType::kBulk);
          }
        }
      }
      const MeshOptions options{.periodic_x = (axes & 1) != 0,
                                .periodic_y = (axes & 2) != 0,
                                .periodic_z = (axes & 4) != 0};
      expect_matches_dense_reference(
          grid, options,
          "nz=" + std::to_string(nz) + " periodic=" + std::to_string(axes));
    }
  }
}

TEST(SegmentedMeshRankBuild, WithoutGhostsEqualsWholeMeshBuild) {
  // The whole-mesh build is the rank build with every point owned and no
  // ghosts: same order, neighbors, spans, census and an empty frontier.
  const auto geo = geometry::make_cylinder({.radius = 6, .length = 30});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  std::vector<index_t> all(static_cast<std::size_t>(mesh.num_points()));
  std::iota(all.begin(), all.end(), index_t{0});
  const SegmentedMesh whole = SegmentedMesh::build(mesh);
  const SegmentedMesh rank = SegmentedMesh::build(mesh, all, {});
  ASSERT_EQ(rank.num_points(), whole.num_points());
  EXPECT_EQ(rank.num_owned(), whole.num_points());
  EXPECT_EQ(whole.frontier().begin, whole.frontier().end);
  EXPECT_EQ(whole.interior().bulk_end, whole.bulk_count());
  EXPECT_EQ(rank.interior().bulk_end, whole.interior().bulk_end);
  EXPECT_EQ(rank.interior().end, whole.interior().end);
  for (index_t i = 0; i < whole.num_points(); ++i) {
    ASSERT_EQ(rank.point_at(i), whole.point_at(i));
    for (index_t q = 0; q < kQ; ++q) {
      ASSERT_EQ(rank.neighbor(i, q), whole.neighbor(i, q));
    }
  }
  ASSERT_EQ(rank.spans().size(), whole.spans().size());
  for (std::size_t k = 0; k < whole.spans().size(); ++k) {
    EXPECT_EQ(rank.spans()[k].begin, whole.spans()[k].begin);
    EXPECT_EQ(rank.spans()[k].length, whole.spans()[k].length);
    EXPECT_EQ(rank.spans()[k].offsets, whole.spans()[k].offsets);
  }
  EXPECT_EQ(rank.counts().bulk_edge, whole.counts().bulk_edge);
  EXPECT_EQ(rank.counts().wall, whole.counts().wall);
}

TEST(AccessCounts, AaTrafficsLessThanAb) {
  // The AA pattern touches one array and loads indices every other step
  // (paper Fig. 4 discussion).
  KernelConfig ab{Layout::kAoS, Propagation::kAB, Unroll::kYes,
                  Precision::kDouble};
  KernelConfig aa = ab;
  aa.propagation = Propagation::kAA;
  const real_t bulk_ab = point_traffic(ab, PointType::kBulk, 0).total();
  const real_t bulk_aa = point_traffic(aa, PointType::kBulk, 0).total();
  EXPECT_LT(bulk_aa, bulk_ab);
  EXPECT_GT(bulk_ab / bulk_aa, 1.2);
}

TEST(AccessCounts, WallPointsCostLessThanBulk) {
  // Fewer accesses for wall updates is what makes the cerebral geometry
  // the fastest in Fig. 3.
  KernelConfig config{};
  const real_t bulk = point_traffic(config, PointType::kBulk, 0).total();
  const real_t wall = point_traffic(config, PointType::kWall, 9).total();
  EXPECT_LT(wall, bulk);
}

TEST(AccessCounts, SinglePrecisionHalvesDataBytes) {
  KernelConfig d{};
  KernelConfig s = d;
  s.precision = Precision::kSingle;
  const auto td = point_traffic(d, PointType::kBulk, 0);
  const auto ts = point_traffic(s, PointType::kBulk, 0);
  EXPECT_DOUBLE_EQ(ts.data_bytes * 2.0, td.data_bytes);
  EXPECT_DOUBLE_EQ(ts.index_bytes, td.index_bytes);  // indices unchanged
}

TEST(AccessCounts, BoundaryPointsPayBcOverhead) {
  KernelConfig config{};
  const real_t wall = point_traffic(config, PointType::kWall, 5).total();
  const real_t inlet = point_traffic(config, PointType::kInlet, 5).total();
  EXPECT_GT(inlet, wall);
}

TEST(AccessCounts, SerialBytesIsSumOverPoints) {
  const auto geo = geometry::make_cylinder({.radius = 3, .length = 8});
  const FluidMesh mesh = FluidMesh::build(geo.grid);
  KernelConfig config{};
  std::vector<index_t> all(static_cast<std::size_t>(mesh.num_points()));
  std::iota(all.begin(), all.end(), 0);
  EXPECT_DOUBLE_EQ(serial_bytes_per_step(mesh, config),
                   bytes_for_points(mesh, all, config));
}

TEST(KernelTraits, UnrolledIsCheaperAndAosIsFullBandwidth) {
  KernelConfig unrolled{Layout::kAoS, Propagation::kAB, Unroll::kYes,
                        Precision::kDouble};
  KernelConfig looped = unrolled;
  looped.unroll = Unroll::kNo;
  EXPECT_LT(kernel_traits(unrolled).overhead_cycles_per_point,
            kernel_traits(looped).overhead_cycles_per_point);
  EXPECT_DOUBLE_EQ(kernel_traits(unrolled).bandwidth_efficiency, 1.0);

  KernelConfig soa_ab = unrolled;
  soa_ab.layout = Layout::kSoA;
  EXPECT_LT(kernel_traits(soa_ab).bandwidth_efficiency, 1.0);
}

TEST(KernelConfig, NamesAreStable) {
  KernelConfig c{Layout::kSoA, Propagation::kAA, Unroll::kYes,
                 Precision::kDouble};
  EXPECT_EQ(kernel_name(c), "AA-SoA-unrolled");
  EXPECT_EQ(to_string(Precision::kSingle), "single");
}

}  // namespace
}  // namespace hemo::lbm

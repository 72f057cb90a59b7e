// Sparse fluid mesh: the solver's view of a voxel geometry.
//
// Like HARVEY, HemoCloud stores only fluid points, in a flat list with a
// 19-wide neighbor-index table. Entry -1 marks a solid link (bounce-back).
// Wall points therefore carry both their classification and their solid-link
// count, which the Eq. 9 access accounting uses: wall updates touch fewer
// distribution vectors than bulk updates.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/generators.hpp"
#include "geometry/voxel_grid.hpp"
#include "lbm/lattice.hpp"
#include "util/common.hpp"

namespace hemo::lbm {

using geometry::PointType;
using geometry::Voxel;

/// Neighbor index meaning "solid; bounce back".
inline constexpr std::int32_t kSolidLink = -1;

/// Options for mesh construction.
struct MeshOptions {
  /// Wrap neighbor lookups around the named axes (periodic boundaries).
  /// Used by force-driven flows (e.g. the body-force Poiseuille
  /// validation) where the domain has no inlet/outlet.
  bool periodic_x = false;
  bool periodic_y = false;
  bool periodic_z = false;
};

/// Immutable sparse mesh over the fluid voxels of a geometry.
class FluidMesh {
 public:
  /// Builds the mesh from a classified grid. Point order is the grid's
  /// deterministic linear order. Besides the mesh itself, the build holds
  /// at most three z-planes of voxel -> point maps (3 * nx * ny int32),
  /// never one entry per voxel of the bounding box.
  static FluidMesh build(const geometry::VoxelGrid& grid,
                         const MeshOptions& options = {});

  [[nodiscard]] index_t num_points() const noexcept {
    return static_cast<index_t>(types_.size());
  }

  [[nodiscard]] PointType type(index_t p) const noexcept {
    return types_[static_cast<std::size_t>(p)];
  }

  [[nodiscard]] const Voxel& voxel(index_t p) const noexcept {
    return coords_[static_cast<std::size_t>(p)];
  }

  /// Fluid index of point p's neighbor in direction q, or kSolidLink.
  [[nodiscard]] std::int32_t neighbor(index_t p, index_t q) const noexcept {
    return neighbors_[static_cast<std::size_t>(p * kQ + q)];
  }

  /// Number of solid links (bounce-back directions) of point p.
  [[nodiscard]] index_t solid_links(index_t p) const noexcept {
    return solid_links_[static_cast<std::size_t>(p)];
  }

  /// Counts of points per type.
  [[nodiscard]] geometry::TypeCounts type_counts() const;

  /// Total solid links over all points (used by access accounting).
  [[nodiscard]] index_t total_solid_links() const;

 private:
  std::vector<Voxel> coords_;
  std::vector<PointType> types_;
  std::vector<std::int32_t> neighbors_;  // num_points * kQ
  std::vector<std::int16_t> solid_links_;
};

}  // namespace hemo::lbm

#include "lbm/mesh.hpp"

#include <algorithm>
#include <array>

namespace hemo::lbm {

FluidMesh FluidMesh::build(const geometry::VoxelGrid& grid,
                           const MeshOptions& options) {
  FluidMesh mesh;
  const index_t nx = grid.nx(), ny = grid.ny(), nz = grid.nz();
  // First pass: the fluid points in linear order, and the first point of
  // every z-plane.
  std::vector<index_t> plane_start(static_cast<std::size_t>(nz + 1), 0);
  for (index_t z = 0; z < nz; ++z) {
    plane_start[static_cast<std::size_t>(z)] = mesh.num_points();
    for (index_t y = 0; y < ny; ++y) {
      for (index_t x = 0; x < nx; ++x) {
        if (!grid.is_fluid(x, y, z)) continue;
        mesh.coords_.push_back(Voxel{x, y, z});
        mesh.types_.push_back(grid.at(x, y, z));
      }
    }
  }
  plane_start[static_cast<std::size_t>(nz)] = mesh.num_points();

  // Every D3Q19 neighbour lies within one z-plane of its point, so the
  // voxel -> point lookup needs the (x + nx*y) maps of at most three
  // planes at a time: 3*nx*ny entries instead of one per voxel of the
  // bounding box. A slot is cleared point by point when it is reused, so
  // refilling costs the plane's points, not its area. With periodic z the
  // last plane reloads plane 0, one extra fill.
  struct PlaneMap {
    index_t z = -1;  ///< plane held, or -1
    std::vector<std::int32_t> point_of;
  };
  std::array<PlaneMap, 3> window;
  const auto each_point = [&](index_t z, auto&& fn) {
    for (index_t p = plane_start[static_cast<std::size_t>(z)];
         p < plane_start[static_cast<std::size_t>(z + 1)]; ++p) {
      const Voxel& v = mesh.coords_[static_cast<std::size_t>(p)];
      fn(static_cast<std::size_t>(v.x + nx * v.y), p);
    }
  };
  const auto plane_of = [&](index_t z) -> const std::int32_t* {
    if (z < 0) return nullptr;
    for (const PlaneMap& m : window) {
      if (m.z == z) return m.point_of.data();
    }
    return nullptr;
  };

  // Second pass: neighbor table + solid-link counts, plane by plane.
  const index_t n = mesh.num_points();
  mesh.neighbors_.resize(static_cast<std::size_t>(n * kQ), kSolidLink);
  mesh.solid_links_.resize(static_cast<std::size_t>(n), 0);
  // Plane w after wrapping; -1 where the grid ends.
  const auto wrap = [&](index_t w) -> index_t {
    if (options.periodic_z) return (w + nz) % nz;
    return w >= 0 && w < nz ? w : -1;
  };
  for (index_t z = 0; z < nz; ++z) {
    const std::array<index_t, 3> needed = {wrap(z - 1), z, wrap(z + 1)};
    for (const index_t w : needed) {
      if (w < 0 || plane_of(w) != nullptr) continue;
      for (PlaneMap& m : window) {
        if (m.z >= 0 &&
            std::find(needed.begin(), needed.end(), m.z) != needed.end()) {
          continue;
        }
        if (m.z >= 0) {
          each_point(m.z, [&](std::size_t at, index_t) {
            m.point_of[at] = kSolidLink;
          });
        } else {
          m.point_of.assign(static_cast<std::size_t>(nx * ny), kSolidLink);
        }
        m.z = w;
        each_point(w, [&](std::size_t at, index_t p) {
          m.point_of[at] = static_cast<std::int32_t>(p);
        });
        break;
      }
    }
    const std::array<const std::int32_t*, 3> planes = {
        plane_of(needed[0]), plane_of(needed[1]), plane_of(needed[2])};

    for (index_t p = plane_start[static_cast<std::size_t>(z)];
         p < plane_start[static_cast<std::size_t>(z + 1)]; ++p) {
      const Voxel& v = mesh.coords_[static_cast<std::size_t>(p)];
      index_t solid = 0;
      for (index_t q = 0; q < kQ; ++q) {
        const auto& o = kD3Q19[static_cast<std::size_t>(q)];
        index_t x = v.x + o.dx, y = v.y + o.dy;
        if (options.periodic_x) x = (x + nx) % nx;
        if (options.periodic_y) y = (y + ny) % ny;
        const std::int32_t* plane = planes[static_cast<std::size_t>(o.dz + 1)];
        std::int32_t nb = kSolidLink;
        if (plane != nullptr && x >= 0 && x < nx && y >= 0 && y < ny) {
          nb = plane[static_cast<std::size_t>(x + nx * y)];
        }
        mesh.neighbors_[static_cast<std::size_t>(p * kQ + q)] = nb;
        if (q > 0 && nb == kSolidLink) ++solid;
      }
      mesh.solid_links_[static_cast<std::size_t>(p)] =
          static_cast<std::int16_t>(solid);
    }
  }
  return mesh;
}

geometry::TypeCounts FluidMesh::type_counts() const {
  geometry::TypeCounts c;
  for (PointType t : types_) {
    switch (t) {
      case PointType::kSolid: ++c.solid; break;
      case PointType::kBulk: ++c.bulk; break;
      case PointType::kWall: ++c.wall; break;
      case PointType::kInlet: ++c.inlet; break;
      case PointType::kOutlet: ++c.outlet; break;
    }
  }
  return c;
}

index_t FluidMesh::total_solid_links() const {
  index_t total = 0;
  for (std::int16_t s : solid_links_) total += s;
  return total;
}

}  // namespace hemo::lbm

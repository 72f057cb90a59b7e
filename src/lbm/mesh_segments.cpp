#include "lbm/mesh_segments.hpp"

#include <algorithm>
#include <numeric>

namespace hemo::lbm {

namespace {

/// The -x, -y and -z directions of the D3Q19 stencil.
constexpr std::array<index_t, 3> kMinus = {2, 4, 6};
static_assert(kD3Q19[2].dx == -1 && kD3Q19[4].dy == -1 &&
              kD3Q19[6].dz == -1);

}  // namespace

SegmentedMesh SegmentedMesh::build(const FluidMesh& mesh) {
  const index_t n = mesh.num_points();
  const auto identity = [](index_t p) { return p; };
  return build_slots(mesh, n, n, identity, identity);
}

SegmentedMesh SegmentedMesh::build(const FluidMesh& mesh,
                                   std::span<const index_t> owned,
                                   std::span<const index_t> ghosts) {
  const auto n_owned = static_cast<index_t>(owned.size());
  std::vector<std::int32_t> slot(static_cast<std::size_t>(mesh.num_points()),
                                 -1);
  for (std::size_t s = 0; s < owned.size(); ++s) {
    slot[static_cast<std::size_t>(owned[s])] = static_cast<std::int32_t>(s);
  }
  for (std::size_t g = 0; g < ghosts.size(); ++g) {
    slot[static_cast<std::size_t>(ghosts[g])] =
        static_cast<std::int32_t>(owned.size() + g);
  }
  return build_slots(
      mesh, n_owned, n_owned + static_cast<index_t>(ghosts.size()),
      [&](index_t s) {
        return s < n_owned ? owned[static_cast<std::size_t>(s)]
                           : ghosts[static_cast<std::size_t>(s - n_owned)];
      },
      [&](index_t p) {
        return static_cast<index_t>(slot[static_cast<std::size_t>(p)]);
      });
}

template <typename GlobalOf, typename SlotOf>
SegmentedMesh SegmentedMesh::build_slots(const FluidMesh& mesh,
                                         index_t n_owned, index_t n_slots,
                                         GlobalOf global_of, SlotOf slot_of) {
  SegmentedMesh seg;
  seg.n_ = n_slots;

  // Class of each owned slot: 3 * pass + kind, pass 0 interior or 1
  // frontier, kind 0 bulk, 1 wall or 2 open. Without ghosts no slot is
  // frontier. The same sweep counts, per axis, the run starts (owned
  // points whose -axis neighbor is solid) and the coordinate bounds.
  const auto reads_ghost = [&](index_t p) {
    bool ghost = false;
    for (index_t q = 1; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb == kSolidLink) continue;
      const index_t local = slot_of(static_cast<index_t>(nb));
      HEMO_REQUIRE(local >= 0,
                   "segment build: a fluid neighbor of an owned point is "
                   "neither owned nor a ghost");
      ghost = ghost || local >= n_owned;
    }
    return ghost;
  };
  std::vector<std::uint8_t> cls(static_cast<std::size_t>(n_owned));
  std::array<index_t, 6> count{};
  std::array<index_t, 3> run_starts{};
  std::array<index_t, 3> lo{}, hi{};
  std::vector<std::array<index_t, 3>> xyz(static_cast<std::size_t>(n_owned));
  for (index_t s = 0; s < n_owned; ++s) {
    const index_t p = global_of(s);
    const bool frontier = n_slots > n_owned && reads_ghost(p);
    std::uint8_t kind = 1;
    switch (mesh.type(p)) {
      case PointType::kBulk:
        if (mesh.solid_links(p) == 0) {
          ++seg.counts_.bulk_interior;
          kind = 0;
        } else {
          ++seg.counts_.bulk_edge;
        }
        break;
      case PointType::kWall: ++seg.counts_.wall; break;
      case PointType::kInlet: ++seg.counts_.inlet; kind = 2; break;
      case PointType::kOutlet: ++seg.counts_.outlet; kind = 2; break;
      case PointType::kSolid: break;  // never stored in a FluidMesh
    }
    const auto c = static_cast<std::uint8_t>((frontier ? 3 : 0) + kind);
    cls[static_cast<std::size_t>(s)] = c;
    ++count[c];
    const Voxel& v = mesh.voxel(p);
    xyz[static_cast<std::size_t>(s)] = {v.x, v.y, v.z};
    for (std::size_t a = 0; a < 3; ++a) {
      const index_t x = xyz[static_cast<std::size_t>(s)][a];
      run_starts[a] += mesh.neighbor(p, kMinus[a]) == kSolidLink ? 1 : 0;
      lo[a] = s == 0 ? x : std::min(lo[a], x);
      hi[a] = s == 0 ? x : std::max(hi[a], x);
    }
  }
  const index_t c0 = count[0];
  seg.interior_ = {0, c0, c0 + count[1], c0 + count[1] + count[2]};
  const index_t f0 = seg.interior_.end;
  seg.frontier_ = {f0, f0 + count[3], f0 + count[3] + count[4], n_owned};
  seg.run_axis_ = static_cast<index_t>(
      std::min_element(run_starts.begin(), run_starts.end()) -
      run_starts.begin());

  // Order each class with the run axis fastest and the other two axes in
  // the grid's own order (z slowest): a least-significant-digit radix
  // sort of the owned slots on the fast coordinate, the mid coordinate,
  // then (class, slow coordinate). Each pass is a stable counting sort,
  // O(n + buckets). Ghosts keep their slots.
  const auto fast = static_cast<std::size_t>(seg.run_axis_);
  const std::size_t slow = fast == 2 ? 1 : 2;
  const std::size_t mid = 3 - fast - slow;
  std::vector<std::int32_t> order(static_cast<std::size_t>(n_owned));
  std::iota(order.begin(), order.end(), 0);
  std::vector<std::int32_t> scratch(order.size());
  const auto sort_by = [&](index_t buckets, auto digit) {
    std::vector<index_t> next(static_cast<std::size_t>(buckets) + 1, 0);
    for (const std::int32_t s : order) {
      ++next[static_cast<std::size_t>(digit(s)) + 1];
    }
    std::partial_sum(next.begin(), next.end(), next.begin());
    for (const std::int32_t s : order) {
      scratch[static_cast<std::size_t>(
          next[static_cast<std::size_t>(digit(s))]++)] = s;
    }
    order.swap(scratch);
  };
  const auto rel = [&](std::int32_t s, std::size_t a) {
    return xyz[static_cast<std::size_t>(s)][a] - lo[a];
  };
  sort_by(hi[fast] - lo[fast] + 1,
          [&](std::int32_t s) { return rel(s, fast); });
  sort_by(hi[mid] - lo[mid] + 1, [&](std::int32_t s) { return rel(s, mid); });
  const index_t slow_extent = hi[slow] - lo[slow] + 1;
  sort_by(6 * slow_extent, [&](std::int32_t s) {
    return cls[static_cast<std::size_t>(s)] * slow_extent + rel(s, slow);
  });
  seg.position_of_.resize(static_cast<std::size_t>(n_slots));
  seg.point_at_.resize(static_cast<std::size_t>(n_slots));
  for (index_t i = 0; i < n_slots; ++i) {
    const std::int32_t s = i < n_owned ? order[static_cast<std::size_t>(i)]
                                       : static_cast<std::int32_t>(i);
    seg.point_at_[static_cast<std::size_t>(i)] = s;
    seg.position_of_[static_cast<std::size_t>(s)] =
        static_cast<std::int32_t>(i);
  }

  // Permuted neighbor table and types of the owned positions.
  seg.neighbors_.assign(static_cast<std::size_t>(n_owned * kQ), kSolidLink);
  seg.types_.resize(static_cast<std::size_t>(n_owned));
  for (index_t i = 0; i < n_owned; ++i) {
    const index_t p = global_of(seg.point_at(i));
    seg.types_[static_cast<std::size_t>(i)] = mesh.type(p);
    for (index_t q = 0; q < kQ; ++q) {
      const std::int32_t nb = mesh.neighbor(p, q);
      if (nb == kSolidLink) continue;
      seg.neighbors_[static_cast<std::size_t>(i * kQ + q)] =
          static_cast<std::int32_t>(
              seg.position_of(slot_of(static_cast<index_t>(nb))));
    }
  }

  seg.encode_spans(seg.interior_.begin, seg.interior_.bulk_end);
  seg.encode_spans(seg.frontier_.begin, seg.frontier_.bulk_end);
  return seg;
}

void SegmentedMesh::encode_spans(index_t lo, index_t hi) {
  // Greedy maximal spans: a span extends while every direction's neighbor
  // offset matches the span head's. Bulk-interior points have no solid
  // links, so every offset is a real position delta.
  index_t i = lo;
  while (i < hi) {
    SegmentSpan span;
    span.begin = i;
    for (index_t q = 0; q < kQ; ++q) {
      span.offsets[static_cast<std::size_t>(q)] = static_cast<std::int32_t>(
          static_cast<index_t>(neighbor(i, q)) - i);
    }
    index_t j = i + 1;
    for (; j < hi; ++j) {
      bool constant = true;
      for (index_t q = 0; q < kQ; ++q) {
        const auto expected =
            j + static_cast<index_t>(
                    span.offsets[static_cast<std::size_t>(q)]);
        if (static_cast<index_t>(neighbor(j, q)) != expected) {
          constant = false;
          break;
        }
      }
      if (!constant) break;
    }
    span.length = j - i;
    spans_.push_back(span);
    i = j;
  }
}

real_t SegmentedMesh::mean_span_length() const noexcept {
  if (spans_.empty()) return 0.0;
  return static_cast<real_t>(bulk_count()) /
         static_cast<real_t>(spans_.size());
}

index_t SegmentedMesh::max_span_length() const noexcept {
  index_t longest = 0;
  for (const SegmentSpan& s : spans_) longest = std::max(longest, s.length);
  return longest;
}

}  // namespace hemo::lbm

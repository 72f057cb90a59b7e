#include "lbm/mesh_segments.hpp"

#include <algorithm>

namespace hemo::lbm {

namespace {

/// Fast-path membership: interior bulk points have no boundary condition
/// and no bounce-back link, so their update is pure gather + collide.
[[nodiscard]] bool is_bulk_interior(const FluidMesh& mesh, index_t p) {
  return mesh.type(p) == PointType::kBulk && mesh.solid_links(p) == 0;
}

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

  // Class of each owned slot, in position order: 0 interior bulk,
  // 1 interior boundary, 2 frontier bulk, 3 frontier boundary. Without
  // ghosts no slot is frontier.
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
  std::array<index_t, 4> count{};
  for (index_t s = 0; s < n_owned; ++s) {
    const index_t p = global_of(s);
    const bool frontier = n_slots > n_owned && reads_ghost(p);
    const std::uint8_t c = static_cast<std::uint8_t>(
        (frontier ? 2 : 0) + (is_bulk_interior(mesh, p) ? 0 : 1));
    cls[static_cast<std::size_t>(s)] = c;
    ++count[c];
    switch (mesh.type(p)) {
      case PointType::kBulk:
        if (mesh.solid_links(p) == 0) ++seg.counts_.bulk_interior;
        else ++seg.counts_.bulk_edge;
        break;
      case PointType::kWall: ++seg.counts_.wall; break;
      case PointType::kInlet: ++seg.counts_.inlet; break;
      case PointType::kOutlet: ++seg.counts_.outlet; break;
      case PointType::kSolid: break;  // never stored in a FluidMesh
    }
  }
  seg.interior_ = {0, count[0], count[0] + count[1]};
  seg.frontier_ = {seg.interior_.end, seg.interior_.end + count[2], n_owned};

  // Stable bucketing: each class keeps the slots' relative order. On a
  // whole mesh slots are the original points, whose x-contiguous interior
  // rows stay contiguous, which the RLE pass below turns into long
  // constant-offset spans. Ghosts keep their slots.
  std::array<index_t, 4> next = {0, seg.interior_.bulk_end,
                                 seg.frontier_.begin, seg.frontier_.bulk_end};
  seg.position_of_.resize(static_cast<std::size_t>(n_slots));
  seg.point_at_.resize(static_cast<std::size_t>(n_slots));
  for (index_t s = 0; s < n_slots; ++s) {
    const index_t i =
        s < n_owned ? next[cls[static_cast<std::size_t>(s)]]++ : s;
    seg.position_of_[static_cast<std::size_t>(s)] =
        static_cast<std::int32_t>(i);
    seg.point_at_[static_cast<std::size_t>(i)] = static_cast<std::int32_t>(s);
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

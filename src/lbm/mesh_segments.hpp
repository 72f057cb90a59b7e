// Segment-reordered view of a FluidMesh for branch-free streaming kernels.
//
// Sparse-geometry LBM pays two hot-path taxes the hardware does not
// require: a 19-wide neighbor-table gather per point, and a per-point
// type/pulse/LES branch. Following the HemeLB/Wittmann line of work, this
// layer removes both for the dominant point class:
//
//  * Classification — points split into the *bulk-interior* class
//    (PointType::kBulk with zero solid links: every one of the 19
//    neighbors is fluid, so no bounce-back and no boundary condition) and
//    the *boundary* class (wall/inlet/outlet points plus any point with a
//    solid link).
//  * Stable permutation — bulk-interior points first, boundary points
//    after, each preserving the original relative order. Solvers keep
//    their distribution arrays in this order; public point indices stay
//    the original order and are translated via position_of() /
//    point_at(), so IO, observables, and the decomposition layer are
//    unchanged.
//  * Run-length encoding — maximal spans of consecutive bulk-interior
//    positions whose 19 neighbor offsets (neighbor position minus own
//    position) are constant. Inside a span the kernel streams with direct
//    indexing (position + compile-time-hoisted offset) instead of
//    per-link neighbor() gathers, which is what lets the inner loop
//    vectorize.
//
// A rank of a decomposed run builds the same view over its own point
// list: owned points, then ghost copies of the upstream neighbors other
// ranks own. Owned points split once more, into the *interior* pass (no
// upstream neighbor is a ghost) and the *frontier* pass (at least one
// is), so positions run
//
//   [interior bulk | interior boundary | frontier bulk |
//    frontier boundary | ghosts]
//
// and RLE spans never straddle a pass. The interior pass can run while
// halo messages are still in flight; the frontier pass runs once the
// ghost rows are fresh. Ghost positions are read, never stepped. A whole
// mesh is the case with no ghosts: its frontier pass is empty.
//
// The segmentation is purely a reordering: kernels that process every
// point with unchanged per-point arithmetic produce bit-identical state
// (tests/test_kernel_paths.cpp asserts this against the reference path).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "lbm/mesh.hpp"
#include "util/common.hpp"

namespace hemo::lbm {

/// A run of consecutive internal positions with constant neighbor offsets:
/// for every position i in [begin, begin + length) and direction q, the
/// neighbor of i in direction q sits at position i + offsets[q].
struct SegmentSpan {
  index_t begin = 0;
  index_t length = 0;
  std::array<std::int32_t, kQ> offsets{};
};

/// Positions stepped together: [begin, bulk_end) are bulk-interior points
/// (covered by RLE spans), [bulk_end, end) boundary points.
struct SegmentPass {
  index_t begin = 0;
  index_t bulk_end = 0;
  index_t end = 0;
};

/// Owned-point counts per segment class (bench/diagnostic output).
struct SegmentCounts {
  index_t bulk_interior = 0;  ///< kBulk, zero solid links (fast path)
  index_t bulk_edge = 0;      ///< kBulk with solid links (boundary path)
  index_t wall = 0;
  index_t inlet = 0;
  index_t outlet = 0;
};

/// Immutable segment-reordered companion of a FluidMesh.
class SegmentedMesh {
 public:
  /// Classifies, permutes, and run-length-encodes the whole of `mesh`;
  /// local slot s is mesh point s and there are no ghosts.
  static SegmentedMesh build(const FluidMesh& mesh);

  /// The same over one rank's points: local slot s is owned[s] for
  /// s < owned.size(), then ghosts[s - owned.size()]. Every fluid
  /// neighbor of an owned point must be owned or a ghost.
  static SegmentedMesh build(const FluidMesh& mesh,
                             std::span<const index_t> owned,
                             std::span<const index_t> ghosts);

  /// Positions (= local slots), ghosts included.
  [[nodiscard]] index_t num_points() const noexcept { return n_; }

  /// Owned positions: [0, num_owned()); ghosts follow.
  [[nodiscard]] index_t num_owned() const noexcept {
    return frontier_.end;
  }

  /// Owned bulk-interior points. Without ghosts these are positions
  /// [0, bulk_count()) and the boundary class follows.
  [[nodiscard]] index_t bulk_count() const noexcept {
    return counts_.bulk_interior;
  }

  /// Owned points none of whose upstream neighbors is a ghost.
  [[nodiscard]] const SegmentPass& interior() const noexcept {
    return interior_;
  }

  /// Owned points with a ghost upstream neighbor; empty without ghosts.
  [[nodiscard]] const SegmentPass& frontier() const noexcept {
    return frontier_;
  }

  /// Internal position of local slot p.
  [[nodiscard]] index_t position_of(index_t p) const noexcept {
    return position_of_[static_cast<std::size_t>(p)];
  }

  /// Local slot stored at internal position i.
  [[nodiscard]] index_t point_at(index_t i) const noexcept {
    return point_at_[static_cast<std::size_t>(i)];
  }

  /// Internal-space neighbor position of owned position i in direction
  /// q, or kSolidLink.
  [[nodiscard]] std::int32_t neighbor(index_t i, index_t q) const noexcept {
    return neighbors_[static_cast<std::size_t>(i * kQ + q)];
  }

  /// Point type at owned position i.
  [[nodiscard]] PointType type(index_t i) const noexcept {
    return types_[static_cast<std::size_t>(i)];
  }

  /// RLE spans covering exactly the bulk range of each pass, ordered by
  /// begin.
  [[nodiscard]] const std::vector<SegmentSpan>& spans() const noexcept {
    return spans_;
  }

  [[nodiscard]] const SegmentCounts& counts() const noexcept {
    return counts_;
  }

  /// Mean span length (0 when there is no bulk segment).
  [[nodiscard]] real_t mean_span_length() const noexcept;

  /// Longest span length (0 when there is no bulk segment).
  [[nodiscard]] index_t max_span_length() const noexcept;

 private:
  template <typename GlobalOf, typename SlotOf>
  static SegmentedMesh build_slots(const FluidMesh& mesh, index_t n_owned,
                                   index_t n_slots, GlobalOf global_of,
                                   SlotOf slot_of);

  /// Appends the RLE spans of bulk positions [lo, hi).
  void encode_spans(index_t lo, index_t hi);

  index_t n_ = 0;
  SegmentPass interior_;
  SegmentPass frontier_;
  std::vector<std::int32_t> position_of_;
  std::vector<std::int32_t> point_at_;
  std::vector<std::int32_t> neighbors_;  // num_owned * kQ, internal positions
  std::vector<PointType> types_;         // by owned internal position
  std::vector<SegmentSpan> spans_;
  SegmentCounts counts_;
};

}  // namespace hemo::lbm

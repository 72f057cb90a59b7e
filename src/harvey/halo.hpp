// Halo-exchange topology of a decomposed mesh.
//
// Each rank owns its partition task's points and keeps ghost copies of
// the upstream neighbors other ranks own (local slots: owned points
// first, ghosts after — the slot numbering of a rank-local lbm::Solver).
// Directed pack/unpack channels stand in for MPI point-to-point
// messages: every step the owner copies the listed rows out and the
// receiver copies them into its ghost rows. The threaded
// runtime::ParallelSolver runs these channels through epoch-stamped
// mailboxes; the stepping itself is lbm::Solver's.
#pragma once

#include <cstdint>
#include <vector>

#include "decomp/partition.hpp"
#include "lbm/mesh.hpp"
#include "util/common.hpp"

namespace hemo::harvey {

/// One directed per-step halo message: the owner packs the listed local
/// rows ("send"), the receiver unpacks them into its ghost rows ("recv").
/// Buffers are owned by the caller.
struct HaloChannel {
  std::int32_t from = 0;  ///< owner rank
  std::int32_t to = 0;    ///< receiver rank
  std::vector<std::int32_t> src_slots;  ///< owner-local point slots
  std::vector<std::int32_t> dst_slots;  ///< receiver-local ghost slots

  /// Payload length in values (slots * kQ).
  [[nodiscard]] index_t payload_values() const noexcept {
    return static_cast<index_t>(src_slots.size()) * lbm::kQ;
  }
};

/// One rank's point lists: owned points take local slots
/// [0, num_local()), ghosts the slots after.
struct RankLayout {
  std::vector<index_t> local_points;  ///< global ids of owned points (ascending)
  std::vector<index_t> ghost_points;  ///< global ids of ghost points (ascending)

  [[nodiscard]] index_t num_local() const noexcept {
    return static_cast<index_t>(local_points.size());
  }
  [[nodiscard]] index_t num_ghosts() const noexcept {
    return static_cast<index_t>(ghost_points.size());
  }
  /// Slot count of the rank's distribution arrays (owned + ghosts).
  [[nodiscard]] index_t total_slots() const noexcept {
    return num_local() + num_ghosts();
  }
  /// Global id of local slot s.
  [[nodiscard]] index_t point(index_t s) const noexcept {
    return s < num_local()
               ? local_points[static_cast<std::size_t>(s)]
               : ghost_points[static_cast<std::size_t>(s - num_local())];
  }
};

/// The full halo-exchange topology of a partitioned mesh.
struct HaloExchange {
  std::vector<RankLayout> ranks;      ///< indexed by rank
  std::vector<HaloChannel> channels;  ///< deterministic (from, to) order
  std::vector<std::int32_t> owner_task;  ///< per global point
  std::vector<std::int32_t> owner_slot;  ///< per global point
  index_t n_ghosts = 0;  ///< sum of ghost counts over ranks

  [[nodiscard]] index_t channel_count() const noexcept {
    return static_cast<index_t>(channels.size());
  }

  /// Total bytes moved through halo messages per step (whole-row ghosts:
  /// an upper bound on the comm graph's per-link byte count).
  [[nodiscard]] real_t bytes_per_exchange() const;
};

/// Builds the halo topology: ghost discovery and one directed channel per
/// (owner, receiver) pair that shares ghosts, with pack/unpack slot lists
/// in the receiver's deterministic ghost order.
[[nodiscard]] HaloExchange build_halo_exchange(
    const lbm::FluidMesh& mesh, const decomp::Partition& partition);

}  // namespace hemo::harvey

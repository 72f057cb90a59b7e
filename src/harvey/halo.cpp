#include "harvey/halo.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace hemo::harvey {

using lbm::kQ;
using lbm::kSolidLink;

real_t HaloExchange::bytes_per_exchange() const {
  real_t bytes = 0.0;
  for (const HaloChannel& channel : channels) {
    bytes += static_cast<real_t>(channel.payload_values()) *
             static_cast<real_t>(sizeof(double));
  }
  return bytes;
}

HaloExchange build_halo_exchange(const lbm::FluidMesh& mesh,
                                 const decomp::Partition& partition) {
  HEMO_REQUIRE(partition.n_tasks >= 1, "partition needs at least one task");
  HEMO_REQUIRE(static_cast<index_t>(partition.task_of.size()) ==
                   mesh.num_points(),
               "partition does not cover the mesh");

  HaloExchange topo;
  const index_t n_points = mesh.num_points();
  topo.owner_task.assign(static_cast<std::size_t>(n_points), 0);
  topo.owner_slot.assign(static_cast<std::size_t>(n_points), 0);

  topo.ranks.resize(static_cast<std::size_t>(partition.n_tasks));
  for (index_t t = 0; t < partition.n_tasks; ++t) {
    RankLayout& rank = topo.ranks[static_cast<std::size_t>(t)];
    rank.local_points = partition.points_of[static_cast<std::size_t>(t)];
    for (index_t i = 0; i < rank.num_local(); ++i) {
      const index_t p = rank.local_points[static_cast<std::size_t>(i)];
      topo.owner_task[static_cast<std::size_t>(p)] =
          static_cast<std::int32_t>(t);
      topo.owner_slot[static_cast<std::size_t>(p)] =
          static_cast<std::int32_t>(i);
    }
  }

  // Ghost discovery: remote neighbors in any direction (the pull gather
  // touches all 18 upstream neighbors, which is the same set).
  for (index_t t = 0; t < partition.n_tasks; ++t) {
    RankLayout& rank = topo.ranks[static_cast<std::size_t>(t)];
    std::vector<index_t> ghosts;
    for (index_t p : rank.local_points) {
      for (index_t q = 1; q < kQ; ++q) {
        const std::int32_t nb = mesh.neighbor(p, q);
        if (nb == kSolidLink) continue;
        if (partition.task_of[static_cast<std::size_t>(nb)] !=
            static_cast<std::int32_t>(t)) {
          ghosts.push_back(nb);
        }
      }
    }
    std::sort(ghosts.begin(), ghosts.end());
    ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    rank.ghost_points = std::move(ghosts);
    topo.n_ghosts += rank.num_ghosts();
  }

  // Channels: one directed message per (owner, receiver) pair that shares
  // ghosts, with pack/unpack slot lists in the receiver's deterministic
  // ghost order.
  std::map<std::pair<std::int32_t, std::int32_t>, index_t> channel_index;
  for (index_t t = 0; t < partition.n_tasks; ++t) {
    const RankLayout& rank = topo.ranks[static_cast<std::size_t>(t)];
    const index_t nl = rank.num_local();
    for (index_t g = 0; g < rank.num_ghosts(); ++g) {
      const index_t global = rank.ghost_points[static_cast<std::size_t>(g)];
      const std::int32_t owner =
          topo.owner_task[static_cast<std::size_t>(global)];
      const auto key = std::make_pair(owner, static_cast<std::int32_t>(t));
      auto it = channel_index.find(key);
      if (it == channel_index.end()) {
        it = channel_index
                 .emplace(key, static_cast<index_t>(topo.channels.size()))
                 .first;
        topo.channels.push_back(
            HaloChannel{owner, static_cast<std::int32_t>(t), {}, {}});
      }
      HaloChannel& channel =
          topo.channels[static_cast<std::size_t>(it->second)];
      channel.src_slots.push_back(
          topo.owner_slot[static_cast<std::size_t>(global)]);
      channel.dst_slots.push_back(static_cast<std::int32_t>(nl + g));
    }
  }
  return topo;
}

}  // namespace hemo::harvey

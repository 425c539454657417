#include "apps/graph/graph_ppm.hpp"

#include <limits>
#include <span>

namespace ppm::apps::graph {

namespace {

constexpr int64_t kInf = std::numeric_limits<int64_t>::max();

/// Vertices owned by this node under the chosen distribution, as global
/// ids. Their neighbor rows are read in place from the CSR.
struct Partition {
  const Graph& full;
  std::vector<uint64_t> vertices;

  /// Neighbor list of vertices[i].
  std::span<const uint64_t> row(uint64_t i) const {
    const uint64_t v = vertices[i];
    return std::span<const uint64_t>(full.adjacency)
        .subspan(full.row_ptr[v], full.row_ptr[v + 1] - full.row_ptr[v]);
  }
};

Partition partition_for(Env& env, const Graph& full,
                        const GlobalShared<int64_t>& owner_map) {
  Partition part{full, {}};
  for (uint64_t v = 0; v < full.num_vertices; ++v) {
    if (owner_map.owner(v) == env.node_id()) part.vertices.push_back(v);
  }
  return part;
}

}  // namespace

std::vector<int64_t> bfs_ppm(Env& env, const Graph& full, uint64_t source,
                             Distribution dist) {
  const uint64_t n = full.num_vertices;
  auto level = env.global_array<int64_t>(n, dist);
  const Partition part = partition_for(env, full, level);

  // Initialize: everything unreached (kInf), the source at level 0.
  {
    auto init = env.ppm_do(part.vertices.size());
    init.global_phase([&](Vp& vp) {
      const uint64_t v = part.vertices[vp.node_rank()];
      level.set(v, v == source ? 0 : kInf);
    });
  }

  // Level-synchronous expansion with an explicit local frontier: one VP
  // per frontier vertex pushes L+1 to its neighbors (remote min_updates,
  // bundled by the runtime); the next frontier is the set of own vertices
  // whose committed level just became L+1.
  std::vector<uint64_t> frontier;  // positions into part.vertices
  for (size_t pos = 0; pos < part.vertices.size(); ++pos) {
    if (part.vertices[pos] == source) frontier.push_back(pos);
  }
  for (int64_t current = 0;; ++current) {
    auto vps = env.ppm_do(frontier.size());
    vps.global_phase([&](Vp& vp) {
      const uint64_t pos = frontier[vp.node_rank()];
      for (uint64_t w : part.row(pos)) {
        level.min_update(w, current + 1);
      }
    });
    frontier.clear();
    for (size_t pos = 0; pos < part.vertices.size(); ++pos) {
      if (level.get(part.vertices[pos]) == current + 1) {
        frontier.push_back(pos);
      }
    }
    const uint64_t active = env.allreduce(
        static_cast<uint64_t>(frontier.size()),
        [](uint64_t a, uint64_t b) { return a + b; });
    if (active == 0) break;
  }

  auto result = env.allgather_array(level);
  for (int64_t& d : result) {
    if (d == kInf) d = kUnreached;
  }
  return result;
}

std::vector<int64_t> components_ppm(Env& env, const Graph& full,
                                    Distribution dist) {
  const uint64_t n = full.num_vertices;
  auto label = env.global_array<int64_t>(n, dist);
  const Partition part = partition_for(env, full, label);

  auto vps = env.ppm_do(part.vertices.size());
  vps.global_phase([&](Vp& vp) {
    const uint64_t v = part.vertices[vp.node_rank()];
    label.set(v, static_cast<int64_t>(v));
  });

  // Push-style label propagation: every vertex offers its label to all
  // neighbors; min_update keeps the smallest. Fixpoint when no label
  // changed anywhere.
  for (;;) {
    uint64_t changed_local = 0;
    vps.global_phase([&](Vp& vp) {
      const uint64_t v = part.vertices[vp.node_rank()];
      const int64_t mine = label.get(v);
      const auto nbrs = part.row(vp.node_rank());
      // Start the remote neighbor-label fetches before comparing, so the
      // round trips overlap this VP's scan (and other VPs' compute).
      label.prefetch(nbrs);
      for (uint64_t w : nbrs) {
        if (label.get(w) > mine) {
          label.min_update(w, mine);
          ++changed_local;
        }
      }
    });
    const uint64_t changed = env.allreduce(
        changed_local, [](uint64_t a, uint64_t b) { return a + b; });
    if (changed == 0) break;
  }
  return env.allgather_array(label);
}

}  // namespace ppm::apps::graph

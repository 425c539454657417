#include "apps/nbody/nbody_ppm.hpp"

#include <numeric>

#include "util/error.hpp"

namespace ppm::apps::nbody {

namespace {
/// Upper bound on octree nodes for k particles with kLeafCap-sized leaves:
/// every split adds at most 8 nodes and there are at most k splits on the
/// way down; a generous linear bound with headroom is cheap and safe.
uint64_t pool_capacity(uint64_t local_particles) {
  return 8 * local_particles + 64;
}
}  // namespace

PpmNbodyState setup_nbody_ppm(Env& env, const BodySet& init) {
  const uint64_t n = init.size();
  PpmNbodyState st;
  st.n = n;
  st.px = env.global_array<double>(n);
  st.py = env.global_array<double>(n);
  st.pz = env.global_array<double>(n);
  st.vx = env.global_array<double>(n);
  st.vy = env.global_array<double>(n);
  st.vz = env.global_array<double>(n);
  st.mass = env.global_array<double>(n);
  const uint64_t chunk =
      (n + static_cast<uint64_t>(env.node_count()) - 1) /
      static_cast<uint64_t>(env.node_count());
  st.pool_stride = pool_capacity(chunk);
  st.tree_pool = env.global_array<TreeNode>(
      st.pool_stride * static_cast<uint64_t>(env.node_count()));
  st.tree_counts = env.global_array<int64_t>(
      static_cast<uint64_t>(env.node_count()));

  // Load initial conditions: immediate local writes outside phases.
  for (uint64_t i = st.px.local_begin(); i < st.px.local_end(); ++i) {
    st.px.set(i, init.px[i]);
    st.py.set(i, init.py[i]);
    st.pz.set(i, init.pz[i]);
    st.vx.set(i, init.vx[i]);
    st.vy.set(i, init.vy[i]);
    st.vz.set(i, init.vz[i]);
    st.mass.set(i, init.mass[i]);
  }
  env.barrier();
  return st;
}

namespace {

/// Build this node's octree from its committed particle chunk and publish
/// it into the shared pool (one global phase).
void publish_trees(Env& env, PpmNbodyState& st) {
  const uint64_t begin = st.px.local_begin();
  const uint64_t count = st.px.local_end() - begin;
  std::vector<int64_t> ids(count);
  std::iota(ids.begin(), ids.end(), static_cast<int64_t>(begin));
  Octree tree;
  tree.build(st.px.local_span(), st.py.local_span(), st.pz.local_span(),
             st.mass.local_span(), ids);
  const auto base = static_cast<int32_t>(
      st.pool_stride * static_cast<uint64_t>(env.node_id()));
  tree.offset_children(base);
  PPM_CHECK(tree.nodes().size() <= st.pool_stride,
            "tree pool overflow: %zu nodes > stride %llu",
            tree.nodes().size(),
            static_cast<unsigned long long>(st.pool_stride));

  // Empty chunks participate with k = 0; their count stays 0 from array
  // initialization (ownership is static, so it can never go stale).
  auto vps = env.ppm_do(tree.nodes().size());
  vps.global_phase([&](Vp& vp) {
    const uint64_t i = vp.node_rank();
    st.tree_pool.set(static_cast<uint64_t>(base) + i, tree.nodes()[i]);
    if (i == 0) {
      st.tree_counts.set(static_cast<uint64_t>(env.node_id()),
                         static_cast<int64_t>(tree.nodes().size()));
    }
  });
}

}  // namespace

std::vector<Vec3> accelerations_ppm(Env& env, PpmNbodyState& st,
                                    const NbodyOptions& options) {
  publish_trees(env, st);
  const uint64_t begin = st.px.local_begin();
  const uint64_t count = st.px.local_end() - begin;
  std::vector<Vec3> acc(count);
  // Zero-copy reads: local pool slots resolve into committed storage,
  // remote ones into the runtime's block cache (bundled fetches).
  auto fetch = [&](int32_t idx) -> const TreeNode& {
    return st.tree_pool.view(static_cast<uint64_t>(idx));
  };
  auto vps = env.ppm_do(count);
  vps.global_phase([&](Vp& vp) {
    const uint64_t li = vp.node_rank();
    const uint64_t gi = begin + li;
    const double x = st.px.get(gi);
    const double y = st.py.get(gi);
    const double z = st.pz.get(gi);
    Vec3 a;
    for (int owner = 0; owner < env.node_count(); ++owner) {
      if (st.tree_counts.get(static_cast<uint64_t>(owner)) == 0) continue;
      const auto root = static_cast<int32_t>(
          st.pool_stride * static_cast<uint64_t>(owner));
      a += bh_accel(fetch, root, static_cast<int64_t>(gi), x, y, z,
                    options.theta, options.eps);
    }
    acc[li] = a;  // node-local scratch, disjoint per VP
  });
  return acc;
}

void simulate_ppm(Env& env, PpmNbodyState& st, const NbodyOptions& options) {
  const uint64_t begin = st.px.local_begin();
  const uint64_t count = st.px.local_end() - begin;
  for (int s = 0; s < options.steps; ++s) {
    const auto acc = accelerations_ppm(env, st, options);
    auto vps = env.ppm_do(count);
    vps.global_phase([&](Vp& vp) {
      const uint64_t li = vp.node_rank();
      const uint64_t gi = begin + li;
      const double nvx = st.vx.get(gi) + acc[li].x * options.dt;
      const double nvy = st.vy.get(gi) + acc[li].y * options.dt;
      const double nvz = st.vz.get(gi) + acc[li].z * options.dt;
      st.vx.set(gi, nvx);
      st.vy.set(gi, nvy);
      st.vz.set(gi, nvz);
      st.px.set(gi, st.px.get(gi) + nvx * options.dt);
      st.py.set(gi, st.py.get(gi) + nvy * options.dt);
      st.pz.set(gi, st.pz.get(gi) + nvz * options.dt);
    });
  }
}

BodySet snapshot_ppm(Env& env, PpmNbodyState& st) {
  BodySet out;
  out.px = env.allgather_array(st.px);
  out.py = env.allgather_array(st.py);
  out.pz = env.allgather_array(st.pz);
  out.vx = env.allgather_array(st.vx);
  out.vy = env.allgather_array(st.vy);
  out.vz = env.allgather_array(st.vz);
  out.mass = env.allgather_array(st.mass);
  return out;
}

}  // namespace ppm::apps::nbody

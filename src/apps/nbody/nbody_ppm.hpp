// Barnes–Hut in PPM (the paper's Application 3).
//
// Particles live in global shared arrays. Each step, every node builds an
// octree over its own particles in local memory and publishes it into a
// global shared node pool with one phase; the force phase then walks *all*
// nodes' trees through plain shared reads. The data-driven random accesses
// to remote tree nodes are exactly the traffic the paper says is
// "virtually impossible to prepare and bundle in advance" by hand — here
// the runtime's block cache bundles them transparently, avoiding the full
// tree copies of the MPI method.
#pragma once

#include "apps/nbody/body.hpp"
#include "apps/nbody/nbody_serial.hpp"
#include "apps/nbody/octree.hpp"
#include "core/ppm.hpp"

namespace ppm::apps::nbody {

struct PpmNbodyState {
  uint64_t n = 0;
  GlobalShared<double> px, py, pz, vx, vy, vz, mass;
  GlobalShared<TreeNode> tree_pool;   // nodes * pool_stride slots
  GlobalShared<int64_t> tree_counts;  // per node: published tree size
  uint64_t pool_stride = 0;
};

/// Allocate the shared state and load the initial conditions (every node
/// passes the same BodySet and writes its own chunk). Collective.
PpmNbodyState setup_nbody_ppm(Env& env, const BodySet& init);

/// This node's accelerations (index i = global particle local_begin + i),
/// one tree publication + force phase. Collective.
std::vector<Vec3> accelerations_ppm(Env& env, PpmNbodyState& state,
                                    const NbodyOptions& options);

/// Advance `options.steps` steps. Collective.
void simulate_ppm(Env& env, PpmNbodyState& state,
                  const NbodyOptions& options);

/// Copy the full particle set out of the shared arrays. Collective; every
/// node receives the whole set.
BodySet snapshot_ppm(Env& env, PpmNbodyState& state);

}  // namespace ppm::apps::nbody

// PPM implementations of the graph algorithms: level-synchronous BFS and
// label-propagation connected components.
//
// Both are textbook phase programs: each vertex is a virtual processor,
// neighbor state lives in global shared arrays, and the push step is a
// commutative min_update on remote elements — exactly the "high-volume
// random fine-grained data accesses" the paper motivates, with all
// communication implicit.
//
// Pass Distribution::kAdaptive for the vertex-state arrays (with
// RuntimeOptions::adaptive_distribution) to let the locality engine
// migrate hot blocks toward their dominant readers; results are
// bit-identical under every distribution.
#pragma once

#include "apps/graph/graph.hpp"
#include "core/ppm.hpp"

namespace ppm::apps::graph {

/// BFS hop distances from `source`. Collective; every node receives the
/// full distance vector. `full` is the whole graph (each node slices its
/// own rows; the paper's SPMD programs hold their partition locally).
std::vector<int64_t> bfs_ppm(Env& env, const Graph& full, uint64_t source,
                             Distribution dist = Distribution::kBlock);

/// Connected-component labels (smallest vertex id per component).
/// Collective; every node receives the full label vector.
std::vector<int64_t> components_ppm(
    Env& env, const Graph& full,
    Distribution dist = Distribution::kBlock);

}  // namespace ppm::apps::graph

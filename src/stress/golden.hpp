// Straight-line sequential interpreter of a ProgramSpec — the harness's
// ground truth. No runtime, no simulator: a plain array-of-uint64 model
// evaluated in the exact order phase semantics promise (reads see the
// phase-start snapshot; writes apply in ascending (global VP rank, program
// order), i.e. nodes ascending x local ranks ascending x ops in order).
#pragma once

#include <cstdint>
#include <vector>

#include "stress/program.hpp"

namespace ppm::stress {

struct GoldenState {
  // global_arrays[a]: logical contents (empty vector for node arrays);
  // node_arrays[a][node]: per-node instance (empty for global arrays).
  std::vector<std::vector<uint64_t>> global_arrays;
  std::vector<std::vector<std::vector<uint64_t>>> node_arrays;
  // reduces[node]: the value of every registered reduction as that node
  // reads it, in program order (the golden side: the fold of the
  // committed array, the same on every node).
  std::vector<std::vector<uint64_t>> reduces;

  bool operator==(const GoldenState&) const = default;
};

/// Run the program under an `nodes`-node split. Global-array results are
/// independent of `nodes` by construction (the generator never lets global
/// writes read node-shared state); node-array results are per-shape.
GoldenState run_golden(const ProgramSpec& spec, int nodes);

}  // namespace ppm::stress

#include "stress/golden.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ppm::stress {

namespace {

// Reference semantics for every write op the generator can emit. A new
// wire op MUST be taught here before the generator samples it (see
// TESTING.md "Registering a new wire op with the golden interpreter"):
// the runtime side routes through ArrayRecord::apply_op, and the two
// definitions drifting apart is exactly the bug class the differential
// harness exists to catch. kUser0 is the harness's one registered user
// slot: XOR, which commutes exactly on uint64.
void apply(uint64_t& elem, detail::WriteOp op, uint64_t v) {
  switch (op) {
    case detail::WriteOp::kSet: elem = v; break;
    case detail::WriteOp::kAdd: elem += v; break;
    case detail::WriteOp::kMin: elem = std::min(elem, v); break;
    case detail::WriteOp::kMax: elem = std::max(elem, v); break;
    case detail::WriteOp::kMul: elem *= v; break;
    case detail::WriteOp::kUser0: elem ^= v; break;
    case detail::WriteOp::kUser1:
    case detail::WriteOp::kUser2:
      PPM_CHECK(false, "golden interpreter: op %u has no reference "
                "semantics registered",
                static_cast<unsigned>(op));
  }
}

// exec_op context: reads from the phase-start snapshot, writes live.
struct GoldenCtx {
  const ProgramSpec* spec;
  const GoldenState* snap;
  GoldenState* live;
  int node;

  uint64_t read(uint32_t a, uint64_t i) const {
    return (*spec).arrays[a].global
               ? snap->global_arrays[a][i]
               : snap->node_arrays[a][static_cast<size_t>(node)][i];
  }
  uint64_t gather_sum(uint32_t a, const std::vector<uint64_t>& idx) const {
    uint64_t s = 0;
    for (const uint64_t i : idx) s += read(a, i);
    return s;
  }
  void write(uint32_t a, uint64_t i, detail::WriteOp op, uint64_t v) const {
    auto& arr = (*spec).arrays[a].global
                    ? live->global_arrays[a]
                    : live->node_arrays[a][static_cast<size_t>(node)];
    apply(arr[i], op, v);
  }
  void write_run(uint32_t a, uint64_t first, detail::WriteOp op,
                 const std::vector<uint64_t>& vals) const {
    for (size_t j = 0; j < vals.size(); ++j) {
      write(a, first + j, op, vals[j]);
    }
  }
  void prefetch(uint32_t, const std::vector<uint64_t>&) const {}
};

}  // namespace

GoldenState run_golden(const ProgramSpec& spec, int nodes) {
  PPM_CHECK(nodes > 0, "run_golden needs at least one node");
  GoldenState g;
  g.global_arrays.resize(spec.arrays.size());
  g.node_arrays.resize(spec.arrays.size());
  for (size_t a = 0; a < spec.arrays.size(); ++a) {
    if (spec.arrays[a].global) {
      g.global_arrays[a].assign(spec.arrays[a].n, 0);
    } else {
      g.node_arrays[a].assign(static_cast<size_t>(nodes),
                              std::vector<uint64_t>(spec.arrays[a].n, 0));
    }
  }
  g.reduces.resize(static_cast<size_t>(nodes));
  for (const PhaseSpec& ph : spec.phases) {
    const GoldenState snap = g;  // phase-start snapshot for every read
    for (int node = 0; node < nodes; ++node) {
      const uint64_t k_loc = spec.k_local(node, nodes);
      const uint64_t off = spec.k_offset(node, nodes);
      for (uint64_t r = 0; r < k_loc; ++r) {
        GoldenCtx ctx{&spec, &snap, &g, node};
        for (const OpSpec& op : ph.ops) {
          exec_op(spec, op, off + r, ctx);
        }
      }
    }
    // Reductions fold the committed contents; every op is exact on
    // uint64 in any order, so index order serves.
    for (const ReduceSpec& red : ph.reduces) {
      const std::vector<uint64_t>& values = g.global_arrays[red.array];
      uint64_t v = values[0];
      for (size_t i = 1; i < values.size(); ++i) {
        apply(v, static_cast<detail::WriteOp>(red.op), values[i]);
      }
      for (auto& per_node : g.reduces) per_node.push_back(v);
    }
  }
  return g;
}

}  // namespace ppm::stress

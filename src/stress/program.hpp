// ppm::stress — random PPM programs for the differential fuzz harness.
//
// A ProgramSpec is a straight-line PPM program: a fixed VP count, a few
// shared arrays (always covering all three distributions), and a sequence
// of phases whose per-VP ops are pure functions of the VP's global rank and
// of phase-start shared values. That purity is what makes the program
// differentially checkable: the committed state after every phase is fully
// determined by (rank, phase, reads), so every runtime configuration —
// schedules, node counts, overlap/prefetch knobs, fault-injected
// message timing — must commit bit-identical global state, and all of them
// must match the straight-line golden interpreter (golden.hpp).
//
// Generated programs are also ppm::check-clean by construction, so the
// differential runner can keep the sanitizer in fail-fast mode and treat
// any throw as a red verdict:
//   * per (phase, target array) there is exactly one write category —
//     either set() with one shared index expression rank + ia (distinct
//     VPs hit distinct elements), or a single accumulate kind (kAdd/kMin/
//     kMax/kMul and the registered kUser0 XOR all commute exactly with
//     themselves on uint64, so the commit may apply a single-op batch
//     unordered);
//   * values written to GLOBAL arrays never read node-shared state (whose
//     contents legitimately depend on the node count);
//   * node phases touch node-shared arrays only.
// Same-VP double-sets are allowed (phase semantics order them by the VP's
// program order), and every generated program ends with a canary phase
// doing exactly that — the cheapest program shape whose result flips if an
// implementation stops applying commits in (vp_rank, seq) order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/runtime.hpp"

namespace ppm::stress {

enum class OpKind : uint8_t {
  kSet,       // target[rank + ia] = value            (skipped if index >= n)
  kAccum,     // target[(ia*rank + ib) % n] op= value  (op = accum_op)
  kGather,    // value += sum(gather(source, idxs)); then like kAccum w/ kAdd
  kPrefetch,  // prefetch(source, idxs); no write
  // Bulk run write through set_n/accumulate_n: target[rank*len + ia + j]
  // for j < len (len = gather_count; clamped at n, skipped when the start
  // is past the end). accum_op 0 writes set-flavor; any accumulate op
  // makes an accumulate-flavor run. Distinct ranks cover disjoint runs,
  // so a bulk target stays check-clean; the generator makes bulk targets
  // exclusive (every writer of that target in the phase uses the
  // identical run shape).
  kBulk,
};

struct OpSpec {
  OpKind kind = OpKind::kSet;
  // detail::WriteOp for kAccum/kBulk: 1 add, 2 min, 3 max, 4 mul, 5 the
  // registered kUser0 XOR slot.
  uint8_t accum_op = 1;
  uint32_t target = 0;     // index into ProgramSpec::arrays
  uint32_t source = 0;     // read source (use_read / kGather / kPrefetch)
  bool use_read = false;   // value += source[(ra*rank + rb) % n_source]
  uint32_t gather_count = 0;  // indices per kGather / kPrefetch
  uint64_t ia = 0, ib = 0;    // write-index parameters
  uint64_t ra = 1, rb = 0;    // read/gather-index parameters
  uint64_t va = 1, vb = 0;    // value = va*rank + vb (wrapping uint64)
};

struct ArraySpec {
  bool global = true;
  uint64_t n = 1;
  Distribution dist = Distribution::kBlock;
};

/// A whole-array reduction registered before a global phase and resolved
/// at its commit (Env::reduce). Every op is exact on uint64 in any order
/// and grouping, so the value is the plain fold of the committed array.
struct ReduceSpec {
  uint32_t array = 0;  // a global array
  uint8_t op = 1;      // ReduceOp: 1 add, 2 min, 3 max, 4 mul, 5 the XOR slot
};

struct PhaseSpec {
  bool global = true;
  std::vector<OpSpec> ops;
  // Arrays to env.rebalance() before this phase (kAdaptive globals only).
  std::vector<uint32_t> rebalance;
  // Reductions registered before this phase (global phases only).
  std::vector<ReduceSpec> reduces;
};

struct ProgramSpec {
  uint64_t seed = 0;
  uint64_t k_total = 0;   // VPs across the whole group (0 is legal)
  // How k_total splits over nodes: 0 even, 1 all on node 0, 2 all on the
  // last node (exercises K < cores and zero-VP nodes).
  uint8_t k_split_mode = 0;
  std::vector<ArraySpec> arrays;
  std::vector<PhaseSpec> phases;

  /// VPs this node contributes under an `nodes`-node machine.
  uint64_t k_local(int node, int nodes) const;
  /// Global rank of this node's VP 0 — matches the runtime's
  /// coordinate_group (sum of k_local over lower node ids).
  uint64_t k_offset(int node, int nodes) const;

  /// Human-readable listing for failure reports.
  std::string dump() const;
};

/// Size caps for the generator. The defaults are smoke-sized: breadth in a
/// soak comes from running more seeds, not bigger programs, which keeps
/// every seed cheap to replay and shrink.
struct GenLimits {
  uint64_t max_k = 48;
  uint64_t max_n = 96;
  int max_phases = 5;
  int max_ops = 5;
  int max_extra_arrays = 2;  // on top of the 4 fixed ones
};

/// Deterministic: the same (seed, limits) always yields the same program.
/// arrays[0..2] are global kBlock/kCyclic/kAdaptive, arrays[3] is
/// node-shared; the last phase is the double-set canary (see file header).
/// Reductions come from their own stream keyed by (seed, phase index), so
/// every other draw keeps its meaning.
ProgramSpec generate_program(uint64_t seed, const GenLimits& limits = {});

// ---- Shared op semantics -------------------------------------------------
//
// One definition of every index/value expression, used by both the PPM
// executor (runner.cpp) and the golden interpreter (golden.cpp), so the
// two sides cannot drift apart.

inline uint64_t op_base_value(const OpSpec& op, uint64_t rank) {
  return op.va * rank + op.vb;  // uint64 wraps; well-defined
}
inline uint64_t op_set_index(const OpSpec& op, uint64_t rank) {
  return rank + op.ia;  // caller skips the write when >= n
}
inline uint64_t op_accum_index(const OpSpec& op, uint64_t rank, uint64_t n) {
  return (op.ia * rank + op.ib) % n;
}
inline uint64_t op_read_index(const OpSpec& op, uint64_t rank, uint64_t n) {
  return (op.ra * rank + op.rb) % n;
}
inline uint64_t op_gather_index(const OpSpec& op, uint64_t rank, uint64_t j,
                                uint64_t n) {
  return (op.ra * rank + op.rb + j * 7919) % n;
}
inline uint64_t op_bulk_value(uint64_t base, uint64_t j) {
  return base + j * 0x9e3779b97f4a7c15ULL;  // uint64 wraps; well-defined
}

/// Execute one op for one VP rank against a context providing
///   uint64_t read(uint32_t array, uint64_t index);
///   uint64_t gather_sum(uint32_t array, const std::vector<uint64_t>&);
///   void write(uint32_t array, uint64_t index, detail::WriteOp, uint64_t);
///   void write_run(uint32_t array, uint64_t first, detail::WriteOp,
///                  const std::vector<uint64_t>& values);
///   void prefetch(uint32_t array, const std::vector<uint64_t>&);
template <typename Ctx>
void exec_op(const ProgramSpec& spec, const OpSpec& op, uint64_t rank,
             Ctx&& ctx) {
  if (op.kind == OpKind::kPrefetch) {
    const uint64_t n = spec.arrays[op.source].n;
    std::vector<uint64_t> idx(op.gather_count);
    for (uint32_t j = 0; j < op.gather_count; ++j) {
      idx[j] = op_gather_index(op, rank, j, n);
    }
    ctx.prefetch(op.source, idx);
    return;
  }
  uint64_t value = op_base_value(op, rank);
  if (op.use_read) {
    const uint64_t n = spec.arrays[op.source].n;
    value += ctx.read(op.source, op_read_index(op, rank, n));
  }
  if (op.kind == OpKind::kGather) {
    const uint64_t n = spec.arrays[op.source].n;
    std::vector<uint64_t> idx(op.gather_count);
    for (uint32_t j = 0; j < op.gather_count; ++j) {
      idx[j] = op_gather_index(op, rank, j, n);
    }
    value += ctx.gather_sum(op.source, idx);
  }
  if (op.kind == OpKind::kBulk) {
    const ArraySpec& bt = spec.arrays[op.target];
    const uint64_t len = op.gather_count == 0 ? 1 : op.gather_count;
    const uint64_t first = rank * len + op.ia;
    if (first >= bt.n) return;
    const uint64_t cnt = std::min<uint64_t>(len, bt.n - first);
    std::vector<uint64_t> vals(cnt);
    for (uint64_t j = 0; j < cnt; ++j) vals[j] = op_bulk_value(value, j);
    ctx.write_run(op.target, first, static_cast<detail::WriteOp>(op.accum_op),
                  vals);
    return;
  }
  const ArraySpec& tgt = spec.arrays[op.target];
  if (op.kind == OpKind::kSet) {
    const uint64_t i = op_set_index(op, rank);
    if (i < tgt.n) ctx.write(op.target, i, detail::WriteOp::kSet, value);
    return;
  }
  const auto wop = op.kind == OpKind::kGather
                       ? detail::WriteOp::kAdd
                       : static_cast<detail::WriteOp>(op.accum_op);
  ctx.write(op.target, op_accum_index(op, rank, tgt.n), wop, value);
}

}  // namespace ppm::stress

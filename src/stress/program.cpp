#include "stress/program.hpp"

#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppm::stress {

uint64_t ProgramSpec::k_local(int node, int nodes) const {
  const auto un = static_cast<uint64_t>(node);
  const auto p = static_cast<uint64_t>(nodes);
  switch (k_split_mode) {
    case 1:
      return node == 0 ? k_total : 0;
    case 2:
      return node == nodes - 1 ? k_total : 0;
    default:
      return k_total / p + (un < k_total % p ? 1 : 0);
  }
}

uint64_t ProgramSpec::k_offset(int node, int nodes) const {
  uint64_t off = 0;
  for (int m = 0; m < node; ++m) off += k_local(m, nodes);
  return off;
}

namespace {

const char* dist_name(Distribution d) {
  switch (d) {
    case Distribution::kBlock: return "block";
    case Distribution::kCyclic: return "cyclic";
    case Distribution::kAdaptive: return "adaptive";
  }
  return "?";
}

const char* accum_name(uint8_t op) {
  switch (static_cast<detail::WriteOp>(op)) {
    case detail::WriteOp::kAdd: return "add";
    case detail::WriteOp::kMin: return "min";
    case detail::WriteOp::kMax: return "max";
    case detail::WriteOp::kMul: return "mul";
    case detail::WriteOp::kSet: return "set";
    case detail::WriteOp::kUser0: return "xor";  // the harness's user slot
    case detail::WriteOp::kUser1: return "user1";
    case detail::WriteOp::kUser2: return "user2";
  }
  return "?";
}

// The generator assigns each (phase, target array) one write category on
// first use; later ops on the same target are coerced into it (see the
// check-clean rules in program.hpp).
struct Category {
  bool is_set = false;
  bool is_bulk = false;
  uint8_t accum_op = 1;
  uint64_t ia = 0;       // shared set-index offset
  uint32_t bulk_len = 1;  // shared run length for bulk targets
};

}  // namespace

std::string ProgramSpec::dump() const {
  std::string out = strfmt(
      "program seed=%llu k=%llu split=%u arrays=%zu phases=%zu\n",
      static_cast<unsigned long long>(seed),
      static_cast<unsigned long long>(k_total), k_split_mode, arrays.size(),
      phases.size());
  for (size_t a = 0; a < arrays.size(); ++a) {
    const ArraySpec& ar = arrays[a];
    out += strfmt("  a%zu: %s n=%llu%s%s\n", a,
                  ar.global ? "global" : "node",
                  static_cast<unsigned long long>(ar.n),
                  ar.global ? " " : "",
                  ar.global ? dist_name(ar.dist) : "");
  }
  for (size_t p = 0; p < phases.size(); ++p) {
    const PhaseSpec& ph = phases[p];
    out += strfmt("  phase %zu (%s):", p, ph.global ? "global" : "node");
    for (const uint32_t r : ph.rebalance) out += strfmt(" rebalance(a%u)", r);
    out += "\n";
    for (const OpSpec& op : ph.ops) {
      switch (op.kind) {
        case OpKind::kSet:
          out += strfmt("    a%u[rank+%llu] = %llu*rank+%llu", op.target,
                        static_cast<unsigned long long>(op.ia),
                        static_cast<unsigned long long>(op.va),
                        static_cast<unsigned long long>(op.vb));
          break;
        case OpKind::kAccum:
          out += strfmt("    a%u[(%llu*rank+%llu)%%n] %s= %llu*rank+%llu",
                        op.target, static_cast<unsigned long long>(op.ia),
                        static_cast<unsigned long long>(op.ib),
                        accum_name(op.accum_op),
                        static_cast<unsigned long long>(op.va),
                        static_cast<unsigned long long>(op.vb));
          break;
        case OpKind::kGather:
          out += strfmt(
              "    a%u[(%llu*rank+%llu)%%n] add= val+sum(gather(a%u, %u))",
              op.target, static_cast<unsigned long long>(op.ia),
              static_cast<unsigned long long>(op.ib), op.source,
              op.gather_count);
          break;
        case OpKind::kPrefetch:
          out += strfmt("    prefetch(a%u, %u idxs)", op.source,
                        op.gather_count);
          break;
        case OpKind::kBulk:
          out += strfmt("    a%u[rank*%u+%llu ..+%u] %s= run(%llu*rank+%llu)",
                        op.target, op.gather_count,
                        static_cast<unsigned long long>(op.ia),
                        op.gather_count, accum_name(op.accum_op),
                        static_cast<unsigned long long>(op.va),
                        static_cast<unsigned long long>(op.vb));
          break;
      }
      if (op.use_read && op.kind != OpKind::kPrefetch) {
        out += strfmt(" + a%u[(%llu*rank+%llu)%%n]", op.source,
                      static_cast<unsigned long long>(op.ra),
                      static_cast<unsigned long long>(op.rb));
      }
      out += "\n";
    }
  }
  return out;
}

ProgramSpec generate_program(uint64_t seed, const GenLimits& limits) {
  Rng rng(mix64(seed) ^ 0x57e55ULL);
  ProgramSpec spec;
  spec.seed = seed;

  // Fixed coverage: one global array per distribution, one node array.
  spec.arrays.push_back(
      {true, 1 + rng.next_below(limits.max_n), Distribution::kBlock});
  spec.arrays.push_back(
      {true, 1 + rng.next_below(limits.max_n), Distribution::kCyclic});
  spec.arrays.push_back(
      {true, 1 + rng.next_below(limits.max_n), Distribution::kAdaptive});
  spec.arrays.push_back({false, 1 + rng.next_below(limits.max_n / 2 + 1),
                         Distribution::kBlock});
  const int extra = static_cast<int>(
      rng.next_below(static_cast<uint64_t>(limits.max_extra_arrays) + 1));
  for (int e = 0; e < extra; ++e) {
    ArraySpec ar;
    ar.global = rng.next_below(3) != 0;
    ar.n = 1 + rng.next_below(limits.max_n);
    if (ar.global) {
      ar.dist = static_cast<Distribution>(rng.next_below(3));
    }
    spec.arrays.push_back(ar);
  }

  std::vector<uint32_t> global_ids, node_ids, adaptive_ids;
  for (uint32_t a = 0; a < spec.arrays.size(); ++a) {
    if (spec.arrays[a].global) {
      global_ids.push_back(a);
      if (spec.arrays[a].dist == Distribution::kAdaptive) {
        adaptive_ids.push_back(a);
      }
    } else {
      node_ids.push_back(a);
    }
  }

  // VP count: include the degenerate shapes (0, tiny) with real weight.
  const uint64_t roll = rng.next_below(10);
  if (roll == 0) {
    spec.k_total = 0;
  } else if (roll <= 2) {
    spec.k_total = 1 + rng.next_below(3);  // 1..3: below any core count
  } else {
    spec.k_total = 1 + rng.next_below(limits.max_k);
  }
  spec.k_split_mode = static_cast<uint8_t>(rng.next_below(3));

  const int n_phases =
      1 + static_cast<int>(
              rng.next_below(static_cast<uint64_t>(limits.max_phases)));
  for (int p = 0; p < n_phases; ++p) {
    PhaseSpec ph;
    ph.global = rng.next_below(4) != 0;  // 75% global
    if (!adaptive_ids.empty() && rng.next_below(4) == 0) {
      ph.rebalance.push_back(
          adaptive_ids[rng.next_below(adaptive_ids.size())]);
    }
    // One write category per (phase, target): see file header.
    std::vector<Category> cat(spec.arrays.size());
    std::vector<bool> cat_set(spec.arrays.size(), false);
    const auto& targets = ph.global ? global_ids : node_ids;
    const int n_ops =
        1 + static_cast<int>(
                rng.next_below(static_cast<uint64_t>(limits.max_ops)));
    for (int o = 0; o < n_ops; ++o) {
      OpSpec op;
      const uint64_t kr = rng.next_below(100);
      if (ph.global) {
        if (kr < 30) op.kind = OpKind::kSet;
        else if (kr < 60) op.kind = OpKind::kAccum;
        else if (kr < 75) op.kind = OpKind::kBulk;
        else if (kr < 88) op.kind = OpKind::kGather;
        else op.kind = OpKind::kPrefetch;
      } else {
        if (kr < 40) op.kind = OpKind::kSet;
        else if (kr < 75) op.kind = OpKind::kAccum;
        else op.kind = OpKind::kBulk;
      }
      // Node phases write node arrays; global phases write any array, but
      // node arrays stay eligible (their writes commit with the global
      // batch through the local log).
      const bool allow_node_target = !ph.global || rng.next_below(4) == 0;
      if (op.kind != OpKind::kPrefetch) {
        if (ph.global && !allow_node_target) {
          op.target = targets[rng.next_below(targets.size())];
        } else if (ph.global) {
          op.target = node_ids[rng.next_below(node_ids.size())];
        } else {
          op.target = targets[rng.next_below(targets.size())];
        }
      }
      // Read sources: global phases read global arrays (shape-independent
      // by induction); node phases read node arrays only. A node-array
      // target in a global phase may read either — but a GLOBAL target
      // must never read node-shared state, and the global-phase source
      // pool below is all-global, so that holds by construction.
      op.source = ph.global ? global_ids[rng.next_below(global_ids.size())]
                            : node_ids[rng.next_below(node_ids.size())];
      op.ra = 1 + rng.next_below(8);
      op.rb = rng.next_below(64);
      op.va = 1 + (rng.next_u64() & 0xffff);
      op.vb = rng.next_u64() & 0xffff;
      if (op.kind == OpKind::kPrefetch) {
        op.gather_count = 1 + static_cast<uint32_t>(rng.next_below(6));
        ph.ops.push_back(op);
        continue;
      }
      op.use_read = op.kind != OpKind::kGather && rng.next_below(100) < 35;
      if (op.kind == OpKind::kGather) {
        op.gather_count = 1 + static_cast<uint32_t>(rng.next_below(6));
      }
      // Roll the op's own shape, then coerce it into the target's category.
      const uint64_t want_ia_set = rng.next_below(4);
      op.ia = 1 + rng.next_below(8);
      op.ib = rng.next_below(64);
      // Full accumulate spectrum: add/min/max/mul plus the registered
      // kUser0 XOR slot — each commutes exactly with itself on uint64, so
      // overlapping index sets stay check-clean and bit-reproducible
      // whether the commit applies them in (VP rank, seq) order or, for a
      // single-op batch, straight off the buffers.
      op.accum_op = static_cast<uint8_t>(1 + rng.next_below(5));
      if (op.kind == OpKind::kBulk) {
        // Run length, plus a flavor: set runs stay on set_n; accumulate
        // runs go through accumulate_n, mixing range records with the
        // scalar accumulate records in the same phase.
        op.gather_count = 1 + static_cast<uint32_t>(rng.next_below(6));
        op.accum_op = rng.next_below(2) == 0
                          ? static_cast<uint8_t>(detail::WriteOp::kSet)
                          : static_cast<uint8_t>(1 + rng.next_below(5));
      }
      Category& c = cat[op.target];
      if (!cat_set[op.target]) {
        cat_set[op.target] = true;
        c.is_set = op.kind == OpKind::kSet;
        c.is_bulk = op.kind == OpKind::kBulk;
        c.accum_op = op.kind == OpKind::kGather
                         ? static_cast<uint8_t>(detail::WriteOp::kAdd)
                         : op.accum_op;
        c.ia = want_ia_set;
        c.bulk_len = op.gather_count == 0 ? 1 : op.gather_count;
      }
      if (c.is_bulk) {
        // Bulk targets are exclusive: every writer of the target uses the
        // identical run shape, so distinct VPs stay on disjoint runs (set
        // flavor) or commute (add flavor); same-VP repeats order by seq.
        op.kind = OpKind::kBulk;
        op.gather_count = c.bulk_len;
        op.ia = c.ia;
        op.accum_op = c.accum_op;
      } else if (c.is_set) {
        op.kind = OpKind::kSet;
        op.ia = c.ia;
      } else {
        if (op.kind == OpKind::kSet || op.kind == OpKind::kBulk) {
          op.kind = OpKind::kAccum;
        }
        if (op.kind == OpKind::kGather &&
            c.accum_op != static_cast<uint8_t>(detail::WriteOp::kAdd)) {
          op.kind = OpKind::kAccum;
        }
        op.accum_op = c.accum_op;
      }
      ph.ops.push_back(op);
    }
    spec.phases.push_back(std::move(ph));
  }

  // Canary phase: one VP setting the same element twice. Local writes are
  // never sender-combined, so even the single-node reference config
  // commits both entries — any runtime that stops applying them in
  // (vp_rank, seq) order flips the final value.
  PhaseSpec canary;
  canary.global = true;
  OpSpec c1;
  c1.kind = OpKind::kSet;
  c1.target = 0;
  c1.ia = 0;
  c1.va = 3;
  c1.vb = 7;
  OpSpec c2 = c1;
  c2.va = 5;
  c2.vb = 11;
  canary.ops = {c1, c2};
  spec.phases.push_back(std::move(canary));
  return spec;
}

}  // namespace ppm::stress

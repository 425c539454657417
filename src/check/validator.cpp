#include "check/validator.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ppm::check {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

// Event tags folded into the fingerprint ahead of the event's parameters,
// so e.g. "created array of 8" cannot collide with "coordinated group 8".
constexpr uint64_t kTagArray = 0xA1;
constexpr uint64_t kTagGroup = 0xB2;
constexpr uint64_t kTagGlobalPhase = 0xC3;
constexpr uint64_t kTagMigration = 0xD4;
constexpr uint64_t kTagUserOp = 0xE5;

uint8_t popcount8(uint8_t v) {
  uint8_t c = 0;
  for (; v != 0; v &= static_cast<uint8_t>(v - 1)) ++c;
  return c;
}

}  // namespace

const char* op_name(uint8_t op) {
  switch (op) {
    case kOpSet: return "set";
    case kOpAdd: return "add";
    case kOpMin: return "min";
    case kOpMax: return "max";
    case kOpMul: return "mul";
    case kOpUser0: return "user0";
    case kOpUser1: return "user1";
    case kOpUser2: return "user2";
  }
  return "?";
}

PhaseValidator::PhaseValidator(int node) : node_(node), fp_hash_(kFnvOffset) {}

void PhaseValidator::fold(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    fp_hash_ ^= (value >> (i * 8)) & 0xff;
    fp_hash_ *= kFnvPrime;
  }
}

void PhaseValidator::add_violation(Violation v) {
  if (report_.violations.size() < kMaxRecordedViolations) {
    report_.violations.push_back(std::move(v));
  }
}

void PhaseValidator::on_array_created(uint32_t id, bool global, uint64_t n,
                                      uint32_t elem_size, uint8_t dist,
                                      int nodes) {
  ++arrays_created_;
  fold(kTagArray);
  fold((static_cast<uint64_t>(global) << 32) | id);
  fold(n);
  fold((static_cast<uint64_t>(elem_size) << 8) | dist);

  // Class (d): a global array with fewer elements than nodes leaves some
  // owners with zero local elements — legal, but usually a scaled-down
  // problem size that will not exercise the distribution the program
  // expects.
  if (global && n < static_cast<uint64_t>(nodes) && node_ == 0) {
    ++report_.shape_hazards;
    Violation v;
    v.kind = ViolationKind::kShapeHazard;
    v.severity = Severity::kWarning;
    v.node = node_;
    v.array_id = id;
    v.detail = strfmt(
        "global array %u has %llu element(s) on %d nodes; some nodes own "
        "nothing",
        id, static_cast<unsigned long long>(n), nodes);
    add_violation(std::move(v));
  }
}

void PhaseValidator::on_user_op_registered(uint32_t array, uint8_t op,
                                           bool commutative) {
  fold(kTagUserOp);
  fold((static_cast<uint64_t>(array) << 16) |
       (static_cast<uint64_t>(op) << 8) | (commutative ? 1 : 0));
  if (!commutative) {
    noncommutative_ops_[array] |= static_cast<uint8_t>(1u << op);
  }
}

void PhaseValidator::on_group_coordinated() {
  ++groups_coordinated_;
  fold(kTagGroup);
  fold(groups_coordinated_);
}

void PhaseValidator::on_migration_round(uint64_t arrays_planned,
                                        uint64_t moves, uint64_t plan_hash) {
  fold(kTagMigration);
  fold((arrays_planned << 32) | moves);
  fold(plan_hash);
}

void PhaseValidator::on_phase_start(bool global) {
  ++report_.phases_checked;
  if (global) {
    ++global_phases_;
    fold(kTagGlobalPhase);
    fold(global_phases_);
  }
  // Node phases are deliberately NOT folded into the fingerprint: they are
  // node-local by definition, and SPMD programs legitimately run different
  // node-phase counts per node (e.g. work branches on node_id).
}

void PhaseValidator::begin_commit(bool global_phase, uint64_t phase) {
  commit_global_ = global_phase;
  commit_phase_ = phase;
  elems_.clear();
}

void PhaseValidator::on_commit_entry(uint32_t array, uint64_t index,
                                     uint8_t op, uint64_t vp_rank) {
  ++report_.commit_entries_scanned;
  ElemState& st = elems_[ElemKey{array, index}];
  st.op_mask |= static_cast<uint8_t>(1u << op);
  if (!st.has_writer) {
    st.has_writer = true;
    st.first_vp = vp_rank;
  } else {
    st.multi_entry = true;
    if (vp_rank != st.first_vp) {
      st.multi_vp = true;
      st.other_vp = vp_rank;
    }
  }
  if (op == kOpSet) {
    if (!st.has_set) {
      st.has_set = true;
      st.first_set_vp = vp_rank;
    } else if (vp_rank != st.first_set_vp) {
      st.set_conflict = true;
      st.other_set_vp = vp_rank;
    }
  }
}

uint64_t PhaseValidator::finish_commit() {
  if (elems_.empty()) return 0;

  // Deterministic report order regardless of hash-map iteration: collect
  // offending elements and sort by (array, element).
  struct Finding {
    ElemKey key;
    ElemState st;
  };
  std::vector<Finding> findings;
  for (const auto& [key, st] : elems_) {
    const uint8_t accum_mask =
        st.op_mask & static_cast<uint8_t>(~(1u << kOpSet));
    const bool mixed =
        st.multi_vp &&
        ((st.has_set && accum_mask != 0) || popcount8(accum_mask) >= 2);
    bool noncomm = false;
    if (st.multi_entry && !noncommutative_ops_.empty()) {
      const auto it = noncommutative_ops_.find(key.array);
      noncomm = it != noncommutative_ops_.end() &&
                (st.op_mask & it->second) != 0;
    }
    if (st.set_conflict || mixed || noncomm) findings.push_back({key, st});
  }
  elems_.clear();
  if (findings.empty()) return 0;
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return a.key.array != b.key.array ? a.key.array < b.key.array
                                                : a.key.index < b.key.index;
            });

  uint64_t errors = 0;
  for (const Finding& f : findings) {
    const ElemState& st = f.st;
    Violation v;
    v.severity = Severity::kError;
    v.node = node_;
    v.array_id = f.key.array;
    v.element = f.key.index;
    v.phase = commit_phase_;
    v.global_phase = commit_global_;
    if (st.set_conflict) {
      ++report_.set_set_conflicts;
      ++errors;
      v.kind = ViolationKind::kSetSetConflict;
      v.vp_a = st.first_set_vp;
      v.vp_b = st.other_set_vp;
      v.detail = strfmt(
          "VPs %llu and %llu both set() element %llu of array %u in one "
          "phase; commit order silently picks a winner",
          static_cast<unsigned long long>(v.vp_a),
          static_cast<unsigned long long>(v.vp_b),
          static_cast<unsigned long long>(v.element), v.array_id);
      ++report_.conflicts_by_array[v.array_id];
      add_violation(v);
    }
    const uint8_t accum_mask =
        st.op_mask & static_cast<uint8_t>(~(1u << kOpSet));
    const bool mixed =
        st.multi_vp &&
        ((st.has_set && accum_mask != 0) || popcount8(accum_mask) >= 2);
    if (mixed) {
      ++report_.mixed_op_conflicts;
      ++errors;
      v.kind = ViolationKind::kMixedOpConflict;
      v.vp_a = st.first_vp;
      v.vp_b = st.other_vp;
      std::string ops;
      for (uint8_t op = 0; op < kOpCount; ++op) {
        if ((st.op_mask & (1u << op)) != 0) {
          if (!ops.empty()) ops += '+';
          ops += op_name(op);
        }
      }
      v.detail = strfmt(
          "element %llu of array %u received non-commuting ops {%s} from "
          "different VPs in one phase; result depends on VP rank order",
          static_cast<unsigned long long>(v.element), v.array_id,
          ops.c_str());
      ++report_.conflicts_by_array[v.array_id];
      add_violation(v);
    }
    uint8_t noncomm_hits = 0;
    if (st.multi_entry && !noncommutative_ops_.empty()) {
      const auto it = noncommutative_ops_.find(f.key.array);
      if (it != noncommutative_ops_.end()) {
        noncomm_hits = static_cast<uint8_t>(st.op_mask & it->second);
      }
    }
    if (noncomm_hits != 0) {
      ++report_.non_commutative_accums;
      ++errors;
      v.kind = ViolationKind::kNonCommutativeAccum;
      v.vp_a = st.first_vp;
      v.vp_b = st.multi_vp ? st.other_vp : st.first_vp;
      std::string ops;
      for (uint8_t op = 0; op < kOpCount; ++op) {
        if ((noncomm_hits & (1u << op)) != 0) {
          if (!ops.empty()) ops += '+';
          ops += op_name(op);
        }
      }
      v.detail = strfmt(
          "element %llu of array %u received multiple entries including "
          "non-commutative accumulate op(s) {%s} in one phase; the result "
          "depends on the (VP rank, seq) commit order, not on program intent",
          static_cast<unsigned long long>(v.element), v.array_id,
          ops.c_str());
      ++report_.conflicts_by_array[v.array_id];
      add_violation(std::move(v));
    }
  }
  return errors;
}

Fingerprint PhaseValidator::fingerprint() const {
  Fingerprint fp;
  fp.hash = fp_hash_;
  fp.arrays_created = arrays_created_;
  fp.groups_coordinated = groups_coordinated_;
  fp.global_phases = global_phases_;
  return fp;
}

uint64_t PhaseValidator::check_lockstep(const std::vector<Fingerprint>& all,
                                        uint64_t phase) {
  const Fingerprint mine = fingerprint();
  int first_differing = -1;
  for (size_t n = 0; n < all.size(); ++n) {
    if (!(all[n] == mine)) {
      first_differing = static_cast<int>(n);
      break;
    }
  }
  if (first_differing < 0) return 0;

  ++report_.lockstep_mismatches;
  const Fingerprint& theirs = all[static_cast<size_t>(first_differing)];
  std::string why;
  if (theirs.arrays_created != mine.arrays_created) {
    why = strfmt("node %d created %llu array(s) vs %llu on node %d",
                 first_differing,
                 static_cast<unsigned long long>(theirs.arrays_created),
                 static_cast<unsigned long long>(mine.arrays_created), node_);
  } else if (theirs.groups_coordinated != mine.groups_coordinated) {
    why = strfmt("node %d coordinated %llu group(s) vs %llu on node %d",
                 first_differing,
                 static_cast<unsigned long long>(theirs.groups_coordinated),
                 static_cast<unsigned long long>(mine.groups_coordinated),
                 node_);
  } else if (theirs.global_phases != mine.global_phases) {
    why = strfmt("node %d ran %llu global phase(s) vs %llu on node %d",
                 first_differing,
                 static_cast<unsigned long long>(theirs.global_phases),
                 static_cast<unsigned long long>(mine.global_phases), node_);
  } else {
    why = strfmt(
        "same event counts but different parameters (array sizes, element "
        "types, distributions or event order differ between node %d and "
        "node %d)",
        first_differing, node_);
  }
  Violation v;
  v.kind = ViolationKind::kLockstepMismatch;
  v.severity = Severity::kError;
  v.node = node_;
  v.phase = phase;
  v.global_phase = true;
  v.detail = "SPMD lockstep divergence at global commit: " + why;
  add_violation(std::move(v));
  return 1;
}

}  // namespace ppm::check

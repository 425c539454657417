// ppm::check — structured findings of the phase-semantics sanitizer.
//
// A Report is the value type the validator produces: a capped list of
// individual Violations plus uncapped summary counters. It deliberately
// depends on nothing but the standard library so that core/options.hpp
// (which embeds one in RunResult) stays cheap to include everywhere.
//
// Severity splits the findings in two:
//   * kError   — the program violates the phase model's determinism
//     contract (racy plain writes, non-commuting accumulate mixes,
//     cross-node lockstep divergence). `clean()` is false.
//   * kWarning — legal but hazardous shapes (e.g. a global array with
//     fewer elements than nodes leaves owners idle). `clean()` stays
//     true; warnings only show up in the violation list and counters.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ppm::check {

/// What the validator found. See docs/validator.md for a minimal
/// offending program per class.
enum class ViolationKind : uint8_t {
  /// (a) Two different VPs plain-`set()` the same element in one phase:
  /// the runtime resolves it deterministically (highest VP rank wins),
  /// but the program almost certainly did not mean to race.
  kSetSetConflict = 0,
  /// (b) One element received a mix of `set` and accumulate ops, or two
  /// different accumulate ops (`add` vs `min`/`max`), from different VPs
  /// in one phase. Mixed ops do not commute; the result depends on VP
  /// rank order, not on program intent.
  kMixedOpConflict = 1,
  /// (c) Nodes diverged on the SPMD-collective sequence: array creations,
  /// group coordinations or global phases do not match across nodes.
  kLockstepMismatch = 2,
  /// (d) Hazardous array shape (warning): e.g. a global array smaller
  /// than the node count, which leaves some owners with zero elements.
  kShapeHazard = 3,
  /// (e) An accumulate op registered as non-commutative (see
  /// Env::register_accum_op) hit an element that received more than one
  /// entry in a single phase. Commit applies the entries in (VP rank, seq)
  /// order, so the result depends on that order, not on program intent;
  /// only single-entry elements are order-free for such an op.
  kNonCommutativeAccum = 4,
};

enum class Severity : uint8_t { kError = 0, kWarning = 1 };

const char* violation_kind_name(ViolationKind kind);

/// One finding, anchored to the array/element/phase where it happened.
struct Violation {
  ViolationKind kind = ViolationKind::kSetSetConflict;
  Severity severity = Severity::kError;
  int node = 0;              // node that detected it (owner at commit)
  uint32_t array_id = 0;     // shared-array creation index
  uint64_t element = 0;      // global element index ((a)/(b) only)
  uint64_t phase = 0;        // phase ordinal on the detecting node
  bool global_phase = false;
  uint64_t vp_a = 0;         // first offending global VP rank
  uint64_t vp_b = 0;         // a second, conflicting VP rank
  std::string detail;        // human-readable one-liner

  std::string to_string() const;
};

/// Violations recorded verbatim per node; beyond the cap only the
/// summary counters keep growing.
inline constexpr size_t kMaxRecordedViolations = 64;

struct Report {
  std::vector<Violation> violations;

  // Uncapped per-class counters.
  uint64_t set_set_conflicts = 0;
  uint64_t mixed_op_conflicts = 0;
  uint64_t lockstep_mismatches = 0;
  uint64_t shape_hazards = 0;
  uint64_t non_commutative_accums = 0;

  // Coverage counters: what the validator actually looked at.
  uint64_t phases_checked = 0;
  uint64_t commit_entries_scanned = 0;
  uint64_t reads_observed = 0;
  uint64_t writes_observed = 0;

  /// Error-severity conflict count per offending array id.
  std::map<uint32_t, uint64_t> conflicts_by_array;

  /// Total error-severity findings (warnings excluded).
  uint64_t error_count() const {
    return set_set_conflicts + mixed_op_conflicts + lockstep_mismatches +
           non_commutative_accums;
  }
  /// True when no error-severity violation was found.
  bool clean() const { return error_count() == 0; }
  bool has_warnings() const { return shape_hazards > 0; }

  /// Fold another node's report into this one (counters summed, violation
  /// list concatenated up to the cap).
  void merge(const Report& other);

  /// Multi-line human-readable dump (the `ppm_cli --check` output).
  std::string to_string() const;
};

}  // namespace ppm::check

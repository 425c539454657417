// ppm::check — the phase-semantics sanitizer (docs/validator.md).
//
// One test per detection class proves a seeded violation is found and
// named (array/element/phase); the clean-program tests prove the model's
// legal idioms do NOT trip it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

PpmConfig checked_cfg(int nodes, int cores) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = cores;
  c.runtime.validate_phases = true;
  return c;
}

// ---- Class (a): write-write set() conflicts ------------------------------

TEST(CheckValidator, SetSetConflictDetected) {
  // Every VP plain-sets element 0: the runtime silently resolves to the
  // highest rank — exactly the masked nondeterminism the checker exists
  // to surface.
  const RunResult r = run(checked_cfg(2, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(8);
    auto vps = env.ppm_do(4);
    vps.global_phase([&](Vp& vp) {
      a.set(0, static_cast<int64_t>(vp.global_rank()));
    });
  });
  EXPECT_FALSE(r.check_report.clean());
  EXPECT_GE(r.check_report.set_set_conflicts, 1u);
  EXPECT_EQ(r.check_report.mixed_op_conflicts, 0u);
  EXPECT_EQ(r.check_report.lockstep_mismatches, 0u);
  ASSERT_FALSE(r.check_report.violations.empty());
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kSetSetConflict);
  EXPECT_EQ(v.severity, check::Severity::kError);
  EXPECT_EQ(v.array_id, 0u);
  EXPECT_EQ(v.element, 0u);
  EXPECT_EQ(v.phase, 0u);  // first global phase
  EXPECT_TRUE(v.global_phase);
  EXPECT_NE(v.vp_a, v.vp_b);  // two distinct offending VP ranks
  EXPECT_EQ(r.check_report.conflicts_by_array.at(0u), 1u);
}

TEST(CheckValidator, RemoteSetConflictDetectedAtOwner) {
  // Both writers live on node 0 but the element is owned by node 1: the
  // conflict must be caught where local log and remote bundles converge.
  const uint64_t n = 16;  // block distribution: node 1 owns [8, 16)
  const RunResult r = run(checked_cfg(2, 2), [&](Env& env) {
    auto a = env.global_array<int64_t>(n);
    auto vps = env.ppm_do(env.node_id() == 0 ? 4 : 0);
    vps.global_phase([&](Vp& vp) {
      a.set(12, static_cast<int64_t>(vp.global_rank()));
    });
  });
  EXPECT_GE(r.check_report.set_set_conflicts, 1u);
  ASSERT_FALSE(r.check_report.violations.empty());
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.node, 1);  // detected by the owner
  EXPECT_EQ(v.element, 12u);
}

TEST(CheckValidator, SameVpRepeatedSetIsClean) {
  // One VP overwriting its own element is ordinary program order.
  const RunResult r = run(checked_cfg(2, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(8);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp&) {
      a.set(0, 1);
      a.set(0, 2);
      a.set(0, 3);
    });
  });
  EXPECT_TRUE(r.check_report.clean());
  EXPECT_TRUE(r.check_report.violations.empty());
}

// ---- Class (b): mixed / non-commuting op conflicts -----------------------

TEST(CheckValidator, MixedAccumulateOpsDetected) {
  // add() and min_update() on one element from different VPs: the result
  // depends on commit order, not program intent.
  const RunResult r = run(checked_cfg(1, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(4);
    auto vps = env.ppm_do(2);
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        a.add(1, 10);
      } else {
        a.min_update(1, -5);
      }
    });
  });
  EXPECT_FALSE(r.check_report.clean());
  EXPECT_GE(r.check_report.mixed_op_conflicts, 1u);
  EXPECT_EQ(r.check_report.set_set_conflicts, 0u);
  ASSERT_FALSE(r.check_report.violations.empty());
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kMixedOpConflict);
  EXPECT_EQ(v.array_id, 0u);
  EXPECT_EQ(v.element, 1u);
  EXPECT_NE(v.detail.find("add"), std::string::npos);
  EXPECT_NE(v.detail.find("min"), std::string::npos);
}

TEST(CheckValidator, MixedAccumulateOpsFromOneRemoteNodeDetected) {
  // Two VPs on node 0 accumulate node 1's element 5 with different ops:
  // every record carries its VP rank, so the owner sees two writers and
  // reports the conflict exactly as it does for add() + min_update().
  const RunResult r = run(checked_cfg(2, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(8);  // node 1 owns [4, 8)
    auto vps = env.ppm_do(env.node_id() == 0 ? 2 : 0);
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        a.accumulate(5, ReduceOp::kAdd, 10);
      } else {
        a.accumulate(5, ReduceOp::kMin, -5);
      }
    });
  });
  EXPECT_EQ(r.check_report.mixed_op_conflicts, 1u);
  ASSERT_EQ(r.check_report.violations.size(), 1u);
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kMixedOpConflict);
  EXPECT_EQ(v.node, 1);  // detected by the owner
  EXPECT_EQ(v.element, 5u);
  EXPECT_NE(v.vp_a, v.vp_b);
}

TEST(CheckValidator, SetPlusAccumulateDetected) {
  const RunResult r = run(checked_cfg(1, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(4);
    auto vps = env.ppm_do(2);
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        a.set(2, 100);
      } else {
        a.add(2, 1);
      }
    });
  });
  EXPECT_GE(r.check_report.mixed_op_conflicts, 1u);
  ASSERT_FALSE(r.check_report.violations.empty());
  EXPECT_EQ(r.check_report.violations.front().element, 2u);
}

TEST(CheckValidator, SameVpMixedOpsAreClean) {
  // set-then-add by ONE VP is well-defined program order, not a race.
  const RunResult r = run(checked_cfg(1, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(4);
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp&) {
      a.set(0, 100);
      a.add(0, 1);
      a.min_update(0, 50);
    });
  });
  EXPECT_TRUE(r.check_report.clean());
}

// ---- Class (c): cross-node lockstep violations ---------------------------

TEST(CheckValidator, ArrayCreationOrderMismatchDetected) {
  // The SPMD contract: every node allocates the same arrays in the same
  // order. Here node 0 swaps the two allocations — without the checker
  // this "works" until the first cross-node access scrambles data.
  const RunResult r = run(checked_cfg(2, 1), [](Env& env) {
    if (env.node_id() == 0) {
      (void)env.global_array<double>(64);
      (void)env.global_array<double>(32);
    } else {
      (void)env.global_array<double>(32);
      (void)env.global_array<double>(64);
    }
    auto vps = env.ppm_do(1);
    vps.global_phase([](Vp&) {});  // fingerprints exchange at this commit
  });
  EXPECT_FALSE(r.check_report.clean());
  EXPECT_GE(r.check_report.lockstep_mismatches, 1u);
  ASSERT_FALSE(r.check_report.violations.empty());
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kLockstepMismatch);
  EXPECT_TRUE(v.global_phase);
  EXPECT_NE(v.detail.find("lockstep"), std::string::npos);
}

TEST(CheckValidator, ArrayCountMismatchNamesCounts) {
  const RunResult r = run(checked_cfg(2, 1), [](Env& env) {
    (void)env.global_array<double>(64);
    if (env.node_id() == 1) (void)env.node_array<double>(8);  // extra
    auto vps = env.ppm_do(1);
    vps.global_phase([](Vp&) {});
  });
  EXPECT_GE(r.check_report.lockstep_mismatches, 1u);
  ASSERT_FALSE(r.check_report.violations.empty());
  EXPECT_NE(r.check_report.violations.front().detail.find("array"),
            std::string::npos);
}

// ---- Class (d): array shape hazards --------------------------------------

TEST(CheckValidator, ZeroLengthArrayRejected) {
  EXPECT_THROW(run(checked_cfg(1, 1),
                   [](Env& env) { (void)env.global_array<double>(0); }),
               Error);
  // Also rejected without the validator: it is a hard contract.
  PpmConfig plain;
  plain.machine.nodes = 1;
  plain.machine.cores_per_node = 1;
  EXPECT_THROW(
      run(plain, [](Env& env) { (void)env.node_array<int64_t>(0); }), Error);
}

TEST(CheckValidator, UndersizedGlobalArrayIsAWarningNotAnError) {
  const RunResult r = run(checked_cfg(4, 1), [](Env& env) {
    auto a = env.global_array<double>(2);  // 2 elements on 4 nodes
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) a.set(0, 1.0);
    });
  });
  EXPECT_TRUE(r.check_report.clean());  // warnings don't fail a run
  EXPECT_TRUE(r.check_report.has_warnings());
  EXPECT_GE(r.check_report.shape_hazards, 1u);
  ASSERT_FALSE(r.check_report.violations.empty());
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kShapeHazard);
  EXPECT_EQ(v.severity, check::Severity::kWarning);
  EXPECT_EQ(v.array_id, 0u);
}

// ---- Clean programs stay clean -------------------------------------------

TEST(CheckValidator, RepresentativePhaseIdiomsRunClean) {
  // The model's legal idioms: per-rank disjoint sets, commutative
  // accumulates (histogram), min/max relaxations, node phases, stencil
  // reads, gathers. None of it may trip the sanitizer.
  const RunResult r = run(checked_cfg(3, 3), [](Env& env) {
    const uint64_t n = 96;
    auto x = env.global_array<double>(n);
    auto hist = env.global_array<int64_t>(8);
    auto dist = env.global_array<int64_t>(n);
    const uint64_t k = n / static_cast<uint64_t>(env.node_count());
    auto scratch = env.node_array<double>(k);
    auto vps = env.ppm_do(k);
    vps.global_phase([&](Vp& vp) {
      x.set(vp.global_rank(), static_cast<double>(vp.global_rank()));
      dist.set(vp.global_rank(), 1 << 30);
    });
    for (int iter = 0; iter < 3; ++iter) {
      vps.global_phase([&](Vp& vp) {
        const uint64_t i = vp.global_rank();
        const double left = x.get((i + n - 1) % n);
        const double right = x.get((i + 1) % n);
        x.set(i, 0.5 * (left + right));      // disjoint per-rank sets
        hist.add(i % 8, 1);                  // commutative conflicts: fine
        dist.min_update(i, static_cast<int64_t>(i % 7));  // same-op: fine
      });
    }
    vps.node_phase([&](Vp& vp) {
      scratch.set(vp.node_rank(), static_cast<double>(vp.node_rank()));
    });
    vps.global_phase([&](Vp& vp) {
      const std::vector<uint64_t> idx = {0, n / 2, n - 1};
      (void)x.gather(idx);
      (void)vp;
    });
  });
  EXPECT_TRUE(r.check_report.clean());
  EXPECT_FALSE(r.check_report.has_warnings());
  EXPECT_TRUE(r.check_report.violations.empty());
  EXPECT_GT(r.check_report.phases_checked, 0u);
  EXPECT_GT(r.check_report.commit_entries_scanned, 0u);
  EXPECT_GT(r.check_report.writes_observed, 0u);
  EXPECT_GT(r.check_report.reads_observed, 0u);
}

TEST(CheckValidator, DistinctElementSetsAreClean) {
  // The commutative-single-op fast path in the commit must not be
  // confused with a conflict, and per-element disjoint sets never flag.
  const RunResult r = run(checked_cfg(2, 4), [](Env& env) {
    auto a = env.global_array<int64_t>(64);
    auto vps = env.ppm_do(32);
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank(), static_cast<int64_t>(vp.global_rank()));
    });
  });
  EXPECT_TRUE(r.check_report.clean());
}

// ---- Runtime plumbing ----------------------------------------------------

TEST(CheckValidator, OffByDefaultAndReportEmpty) {
  PpmConfig cfg;
  cfg.machine.nodes = 2;
  cfg.machine.cores_per_node = 2;
  bool enabled = true;
  const RunResult r = run(cfg, [&](Env& env) {
    enabled = env.validation_enabled();
    auto a = env.global_array<int64_t>(4);
    auto vps = env.ppm_do(4);
    vps.global_phase([&](Vp& vp) {
      a.set(0, static_cast<int64_t>(vp.global_rank()));  // racy, unchecked
    });
  });
  EXPECT_FALSE(enabled);
  EXPECT_TRUE(r.check_report.clean());
  EXPECT_EQ(r.check_report.phases_checked, 0u);
  EXPECT_EQ(r.check_report.writes_observed, 0u);
}

TEST(CheckValidator, NodeReportVisibleMidRun) {
  uint64_t seen_mid_run = 0;
  const RunResult r = run(checked_cfg(1, 2), [&](Env& env) {
    auto a = env.global_array<int64_t>(4);
    auto vps = env.ppm_do(2);
    vps.global_phase([&](Vp& vp) {
      a.set(3, static_cast<int64_t>(vp.global_rank()));
    });
    seen_mid_run = env.node_check_report().set_set_conflicts;
  });
  EXPECT_EQ(seen_mid_run, 1u);
  EXPECT_EQ(r.check_report.set_set_conflicts, 1u);
}

TEST(CheckValidator, FailFastThrowsAtTheOffendingCommit) {
  PpmConfig cfg = checked_cfg(1, 2);
  cfg.runtime.validate_fail_fast = true;
  EXPECT_THROW(run(cfg,
                   [](Env& env) {
                     auto a = env.global_array<int64_t>(4);
                     auto vps = env.ppm_do(2);
                     vps.global_phase([&](Vp& vp) {
                       a.set(0, static_cast<int64_t>(vp.global_rank()));
                     });
                   }),
               Error);
}

TEST(CheckValidator, ReportDumpIsHumanReadable) {
  const RunResult r = run(checked_cfg(1, 2), [](Env& env) {
    auto a = env.global_array<int64_t>(4);
    auto vps = env.ppm_do(2);
    vps.global_phase([&](Vp& vp) {
      a.set(0, static_cast<int64_t>(vp.global_rank()));
    });
  });
  const std::string dump = r.check_report.to_string();
  EXPECT_NE(dump.find("set-set conflict"), std::string::npos);
  EXPECT_NE(dump.find("error"), std::string::npos);
  EXPECT_NE(dump.find("array 0 element 0"), std::string::npos);
}

}  // namespace
}  // namespace ppm

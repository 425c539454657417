// ppm::stress self-tests: the differential harness must (a) pass clean on
// the CI smoke seeds, deterministically, (b) catch a deliberately planted
// commit-ordering bug with a shrunk, replayable repro, and (c) be
// bit-deterministic even with fabric fault injection enabled.
#include <gtest/gtest.h>

#include "core/ppm.hpp"
#include "stress/golden.hpp"
#include "stress/program.hpp"
#include "stress/runner.hpp"

namespace ppm::stress {
namespace {

constexpr uint64_t kSmokeSeeds[] = {1, 2, 3, 4, 5, 6};
constexpr int kConfigs = 6;

TEST(StressHarness, SmokeSeedsAllClean) {
  for (const uint64_t seed : kSmokeSeeds) {
    const auto spec = generate_program(seed);
    const auto cfgs = sample_configs(seed, kConfigs);
    const auto v = run_differential(spec, cfgs);
    EXPECT_TRUE(v.ok) << "seed " << seed << " config " << v.config_index
                      << " (" << v.config_name << "): " << v.detail;
  }
}

TEST(StressHarness, VerdictsAreDeterministic) {
  for (const uint64_t seed : {uint64_t{1}, uint64_t{5}}) {
    const auto spec1 = generate_program(seed);
    const auto spec2 = generate_program(seed);
    EXPECT_EQ(spec1.dump(), spec2.dump());
    const auto cfgs = sample_configs(seed, kConfigs);
    const auto snap1 = run_under_config(spec1, cfgs.back());
    const auto snap2 = run_under_config(spec2, cfgs.back());
    EXPECT_TRUE(snap1 == snap2) << "re-running seed " << seed
                                << " under the same config diverged";
  }
}

TEST(StressHarness, GeneratorCoversAllDistributionsAndSchedules) {
  bool block = false, cyclic = false, adaptive = false;
  for (const uint64_t seed : kSmokeSeeds) {
    const auto spec = generate_program(seed);
    for (const ArraySpec& a : spec.arrays) {
      if (!a.global) continue;
      block |= a.dist == Distribution::kBlock;
      cyclic |= a.dist == Distribution::kCyclic;
      adaptive |= a.dist == Distribution::kAdaptive;
    }
  }
  EXPECT_TRUE(block && cyclic && adaptive);

  bool stat = false, dyn = false, faults = false, multi_node = false;
  bool bruck = false;
  for (const uint64_t seed : kSmokeSeeds) {
    for (const StressConfig& c : sample_configs(seed, kConfigs)) {
      stat |= c.runtime.schedule == SchedulePolicy::kStatic;
      dyn |= c.runtime.schedule == SchedulePolicy::kDynamic;
      faults |= c.machine.faults.delay_jitter;
      multi_node |= c.machine.nodes > 1;
      bruck |= c.machine.network.send_overhead_ns >= sim::kSmallAdvanceNs;
    }
  }
  EXPECT_TRUE(stat);
  EXPECT_TRUE(dyn);
  EXPECT_TRUE(faults);
  EXPECT_TRUE(multi_node);
  EXPECT_TRUE(bruck);  // sends that can switch fibers
}

TEST(StressHarness, FaultInjectionIsDeterministic) {
  StressConfig cfg;
  cfg.machine.nodes = 2;
  cfg.machine.cores_per_node = 2;
  cfg.machine.faults.delay_jitter = true;
  cfg.machine.faults.seed = 42;
  cfg.machine.faults.delay_probability = 0.5;
  cfg.machine.faults.max_extra_delay_ns = 200'000;
  cfg.runtime.validate_phases = true;
  cfg.name = "hand-2n2c-faults";
  const auto spec = generate_program(7);
  const auto snap1 = run_under_config(spec, cfg);
  const auto snap2 = run_under_config(spec, cfg);
  EXPECT_TRUE(snap1 == snap2)
      << "fault-injected run is not deterministic across repeats";
  // And the faulted run still commits exactly the golden state.
  EXPECT_TRUE(snap1 == run_golden(spec, cfg.machine.nodes));
}

// RAII guard for the deliberate-fault hook baked into commit ordering.
struct FlipGuard {
  FlipGuard() { detail::g_stress_flip_commit_order = true; }
  ~FlipGuard() { detail::g_stress_flip_commit_order = false; }
};

TEST(StressHarness, PlantedCommitOrderBugIsCaught) {
  FlipGuard guard;
  int caught = 0;
  for (const uint64_t seed : kSmokeSeeds) {
    const auto spec = generate_program(seed);
    if (spec.k_total == 0) continue;  // no VPs -> nothing to mis-order
    const auto cfgs = sample_configs(seed, kConfigs);
    const auto v = run_differential(spec, cfgs);
    EXPECT_FALSE(v.ok) << "seed " << seed
                       << ": planted ordering bug went undetected";
    if (v.ok) continue;
    ++caught;

    // The shrunk repro must still fail and must not grow the program.
    const auto sh = shrink(spec, cfgs, v.config_index);
    size_t orig_ops = 0, shrunk_ops = 0;
    for (const auto& ph : spec.phases) orig_ops += ph.ops.size();
    for (const auto& ph : sh.spec.phases) shrunk_ops += ph.ops.size();
    EXPECT_LE(sh.spec.phases.size(), spec.phases.size());
    EXPECT_LE(shrunk_ops, orig_ops);
    EXPECT_LE(sh.spec.k_total, spec.k_total);
    const auto vs = run_differential(sh.spec, sh.configs);
    EXPECT_FALSE(vs.ok) << "seed " << seed << ": shrunk repro passes";
  }
  EXPECT_GT(caught, 0);
}

// RAII guard for the planted owner-side-accumulate double-apply fault.
struct DoubleApplyGuard {
  DoubleApplyGuard() { detail::g_stress_double_apply_accums = true; }
  ~DoubleApplyGuard() { detail::g_stress_double_apply_accums = false; }
};

TEST(StressHarness, PlantedDoubleApplyAccumBugIsCaught) {
  // A hand-crafted program guaranteed to route kAdd accumulates to REMOTE
  // owners (index = rank + 8 over a 16-element block array on 2 nodes):
  // applying each staged kAccum fragment twice shifts every touched
  // element by the fragment's sum, so the multi-node owner-side config
  // diverges from the single-node reference and from golden.
  DoubleApplyGuard guard;
  ProgramSpec spec;
  spec.seed = 0;
  spec.k_total = 8;
  spec.k_split_mode = 0;
  spec.arrays.push_back({true, 16, Distribution::kBlock});
  PhaseSpec p;
  p.global = true;
  p.ops.push_back(OpSpec{OpKind::kAccum, /*accum_op=*/1, 0, 0, false, 0,
                         /*ia=*/1, /*ib=*/8, 1, 0, /*va=*/1, /*vb=*/1});
  spec.phases.push_back(p);

  std::vector<StressConfig> cfgs(2);
  cfgs[0].machine.nodes = 1;
  cfgs[0].machine.cores_per_node = 1;
  cfgs[0].runtime.schedule = SchedulePolicy::kStatic;
  cfgs[0].name = "ref-1n1c";
  cfgs[1].machine.nodes = 2;
  cfgs[1].machine.cores_per_node = 2;
  cfgs[1].runtime.validate_phases = true;
  cfgs[1].name = "hand-2n2c-owneracc";

  const auto v = run_differential(spec, cfgs);
  ASSERT_FALSE(v.ok) << "planted double-apply bug went undetected";
  EXPECT_EQ(v.config_index, 1u);

  // The shrunk repro must still fail and must not grow the program.
  const auto sh = shrink(spec, cfgs, v.config_index);
  EXPECT_LE(sh.spec.phases.size(), spec.phases.size());
  EXPECT_LE(sh.spec.k_total, spec.k_total);
  const auto vs = run_differential(sh.spec, sh.configs);
  EXPECT_FALSE(vs.ok) << "shrunk double-apply repro passes";

  // Sanity: with the fault withdrawn the same pair is clean again.
  detail::g_stress_double_apply_accums = false;
  EXPECT_TRUE(run_differential(spec, cfgs).ok);
  detail::g_stress_double_apply_accums = true;  // guard dtor resets
}

TEST(StressHarness, ReplaySubsetReproducesConfig) {
  // Config i depends only on draws before it, so sampling more configs
  // must reproduce earlier ones verbatim (the contract --replay relies on).
  const auto few = sample_configs(3, 4);
  const auto many = sample_configs(3, 12);
  for (size_t i = 0; i < few.size(); ++i) {
    EXPECT_EQ(few[i].name, many[i].name);
    EXPECT_EQ(few[i].machine.nodes, many[i].machine.nodes);
    EXPECT_EQ(few[i].machine.cores_per_node, many[i].machine.cores_per_node);
    EXPECT_EQ(few[i].runtime.schedule, many[i].runtime.schedule);
    EXPECT_EQ(few[i].machine.network.send_overhead_ns,
              many[i].machine.network.send_overhead_ns);
  }
}

TEST(StressHarness, GoldenMatchesHandComputedProgram) {
  // A tiny hand-auditable program: 4 VPs over one 8-element array,
  // phase 1 sets a[rank] = 2*rank+1, phase 2 adds 10 at (rank+3)%8.
  ProgramSpec spec;
  spec.seed = 0;
  spec.k_total = 4;
  spec.k_split_mode = 0;
  spec.arrays.push_back({true, 8, Distribution::kBlock});
  PhaseSpec p1;
  p1.global = true;
  p1.ops.push_back(OpSpec{OpKind::kSet, 1, 0, 0, false, 0,
                          /*ia=*/0, 0, 1, 0, /*va=*/2, /*vb=*/1});
  spec.phases.push_back(p1);
  PhaseSpec p2;
  p2.global = true;
  p2.ops.push_back(OpSpec{OpKind::kAccum, 1, 0, 0, false, 0,
                          /*ia=*/1, /*ib=*/3, 1, 0, /*va=*/0, /*vb=*/10});
  spec.phases.push_back(p2);

  const auto g = run_golden(spec, 2);
  std::vector<uint64_t> want(8, 0);
  for (uint64_t r = 0; r < 4; ++r) want[r] = 2 * r + 1;
  for (uint64_t r = 0; r < 4; ++r) want[(r + 3) % 8] += 10;
  EXPECT_EQ(g.global_arrays[0], want);

  StressConfig cfg;
  cfg.machine.nodes = 2;
  cfg.machine.cores_per_node = 2;
  cfg.runtime.validate_phases = true;
  cfg.name = "hand-2n2c";
  EXPECT_TRUE(run_under_config(spec, cfg) == g);
}

}  // namespace
}  // namespace ppm::stress

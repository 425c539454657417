// Scheduler determinism: the VP-to-core scheduling policy (kStatic's
// contiguous chunks vs kDynamic's shared-counter work stealing) changes
// which core runs which VP and in what interleaving — but phase semantics
// promise the COMMITTED result is policy-independent: reads see the
// phase-start snapshot and writes commit in ascending (global VP rank,
// per-VP sequence) order regardless of execution order.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/ppm.hpp"
#include "util/rng.hpp"

namespace ppm {
namespace {

struct Snapshot {
  std::vector<int64_t> contents;   // committed array values at the end
  std::vector<double> stencil;     // second array, float path
  RunResult result;
};

/// Seeded irregular workload: per-VP trip counts and write targets vary
/// wildly (rng-driven), VPs conflict on accumulate bins, and a stencil
/// phase mixes reads and disjoint sets. Irregularity is the point: it
/// makes the dynamic schedule's chunk assignment genuinely diverge from
/// the static one.
Snapshot run_with(SchedulePolicy policy, uint64_t chunk_size) {
  PpmConfig cfg;
  cfg.machine.nodes = 3;
  cfg.machine.cores_per_node = 4;
  cfg.runtime.schedule = policy;
  cfg.runtime.chunk_size = chunk_size;
  // Run under the sanitizer too: the workload is conflict-clean by
  // construction, and this doubles as a "clean program" check.
  cfg.runtime.validate_phases = true;

  constexpr uint64_t kN = 192;
  constexpr uint64_t kBins = 16;
  constexpr uint64_t kVpsPerNode = 48;
  Snapshot snap;
  snap.result = run(cfg, [&](Env& env) {
    auto bins = env.global_array<int64_t>(kBins);
    auto field = env.global_array<double>(kN);
    auto vps = env.ppm_do(kVpsPerNode);

    vps.global_phase([&](Vp& vp) {
      field.set(vp.global_rank() % kN,
                static_cast<double>(vp.global_rank() % kN) * 0.5);
    });

    for (int round = 0; round < 3; ++round) {
      vps.global_phase([&](Vp& vp) {
        // Irregular per-VP work: 1..32 accumulate writes to rng targets.
        Rng rng(0x9d2c5680u ^ vp.global_rank() ^
                (static_cast<uint64_t>(round) << 32));
        const uint64_t trips = 1 + rng.next_below(32);
        for (uint64_t t = 0; t < trips; ++t) {
          bins.add(rng.next_below(kBins),
                   static_cast<int64_t>(vp.global_rank() + t));
        }
        // Stencil over the (possibly remote) field with a disjoint set.
        const uint64_t i = vp.global_rank() % kN;
        const double left = field.get((i + kN - 1) % kN);
        const double right = field.get((i + 1) % kN);
        if (vp.global_rank() < kN) {
          field.set(i, 0.25 * left + 0.25 * right + 0.5 * field.get(i));
        }
      });
    }

    if (env.node_id() == 0) {
      auto probe = env.ppm_do(1);
      probe.global_phase([&](Vp&) {
        for (uint64_t b = 0; b < kBins; ++b) {
          snap.contents.push_back(bins.get(b));
        }
        for (uint64_t i = 0; i < kN; ++i) snap.stencil.push_back(field.get(i));
      });
    } else {
      auto probe = env.ppm_do(0);
      probe.global_phase([](Vp&) {});
    }
  });
  return snap;
}

TEST(ScheduleDeterminism, StaticAndDynamicCommitIdenticalState) {
  const Snapshot st = run_with(SchedulePolicy::kStatic, 0);
  const Snapshot dy = run_with(SchedulePolicy::kDynamic, 0);
  ASSERT_EQ(st.contents.size(), dy.contents.size());
  EXPECT_EQ(st.contents, dy.contents);
  ASSERT_EQ(st.stencil.size(), dy.stencil.size());
  for (size_t i = 0; i < st.stencil.size(); ++i) {
    // Bit-identical, not approximately equal: commit order is sorted by
    // (vp_rank, seq), so even FP results cannot depend on the schedule.
    EXPECT_EQ(st.stencil[i], dy.stencil[i]) << "element " << i;
  }
}

TEST(ScheduleDeterminism, CountersMatchAcrossPolicies) {
  const Snapshot st = run_with(SchedulePolicy::kStatic, 0);
  const Snapshot dy = run_with(SchedulePolicy::kDynamic, 0);
  EXPECT_EQ(st.result.write_entries, dy.result.write_entries);
  EXPECT_EQ(st.result.global_phases, dy.result.global_phases);
  EXPECT_EQ(st.result.node_phases, dy.result.node_phases);
  // Both runs were under the sanitizer and must be clean.
  EXPECT_TRUE(st.result.check_report.clean());
  EXPECT_TRUE(dy.result.check_report.clean());
  EXPECT_EQ(st.result.check_report.writes_observed,
            dy.result.check_report.writes_observed);
}

TEST(ScheduleDeterminism, ChunkSizeDoesNotChangeCommittedState) {
  const Snapshot coarse = run_with(SchedulePolicy::kDynamic, 16);
  const Snapshot fine = run_with(SchedulePolicy::kDynamic, 1);
  EXPECT_EQ(coarse.contents, fine.contents);
  EXPECT_EQ(coarse.stencil, fine.stencil);
  EXPECT_EQ(coarse.result.write_entries, fine.result.write_entries);
}

/// Floating-point adds do not associate, so a double that many VPs add
/// into commits one exact value only if every schedule folds the adds in
/// (VP rank, seq) order. Each VP adds 1e16, -1e16 or 1 + r/1000 by its
/// rank r mod 3: folded in rank order the small terms are absorbed and
/// re-exposed in one fixed pattern, and any other order or grouping keeps
/// a different subset of them. Before its add, each VP reads one element
/// of the next node's chunk, from a block picked by its rank, so
/// miss-switching and parked cores run the VPs out of rank order.
double fp_term(uint64_t r) {
  if (r % 3 == 0) return 1e16;
  if (r % 3 == 1) return -1e16;
  return 1.0 + static_cast<double>(r) * 1e-3;
}

double fp_sum(int nodes, SchedulePolicy policy, bool overlap_reads) {
  PpmConfig cfg;
  cfg.machine.nodes = nodes;
  cfg.machine.cores_per_node = 4;
  cfg.runtime.schedule = policy;
  cfg.runtime.overlap_reads = overlap_reads;
  cfg.runtime.validate_phases = true;
  cfg.runtime.read_block_bytes = 32 * sizeof(double);
  constexpr uint64_t kVpsPerNode = 256;
  constexpr uint64_t kProbePerNode = 8 * 32;  // 8 blocks per node
  double got = 0;
  const RunResult r = run(cfg, [&](Env& env) {
    auto sum = env.global_array<double>(1);
    auto probe = env.global_array<double>(static_cast<uint64_t>(nodes) *
                                          kProbePerNode);
    const auto next = static_cast<uint64_t>((env.node_id() + 1) % nodes);
    auto vps = env.ppm_do(kVpsPerNode);
    vps.global_phase([&](Vp& vp) {
      const double seen =
          probe.get(next * kProbePerNode + (vp.global_rank() % 8) * 32);
      sum.add(0, fp_term(vp.global_rank()) + seen);  // probe holds zeros
    });
    auto one = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    one.global_phase([&](Vp&) { got = sum.get(0); });
  });
  EXPECT_TRUE(r.check_report.clean());
  return got;
}

TEST(ScheduleDeterminism, FloatingPointAddsCommitInRankOrder) {
  for (const int nodes : {2, 3}) {
    double want = 0;
    for (uint64_t r = 0; r < static_cast<uint64_t>(nodes) * 256; ++r) {
      want += fp_term(r);
    }
    const double st = fp_sum(nodes, SchedulePolicy::kStatic, true);
    const double dy = fp_sum(nodes, SchedulePolicy::kDynamic, true);
    const double dy_no_overlap = fp_sum(nodes, SchedulePolicy::kDynamic, false);
    EXPECT_EQ(std::bit_cast<uint64_t>(st), std::bit_cast<uint64_t>(want))
        << "kStatic, nodes=" << nodes << ": " << st << " vs " << want;
    EXPECT_EQ(std::bit_cast<uint64_t>(dy), std::bit_cast<uint64_t>(want))
        << "kDynamic, nodes=" << nodes << ": " << dy << " vs " << want;
    EXPECT_EQ(std::bit_cast<uint64_t>(dy_no_overlap),
              std::bit_cast<uint64_t>(want))
        << "kDynamic without overlap_reads, nodes=" << nodes << ": "
        << dy_no_overlap << " vs " << want;
  }
}

}  // namespace
}  // namespace ppm

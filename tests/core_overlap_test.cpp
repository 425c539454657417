// The overlap engine: VP miss-switching and lookahead prefetch, plus the
// write records a run of duplicate writes ships. The load-bearing
// property is that none of them changes committed state — miss-switching
// and prefetch are bit-identical on or off, and remote records commit
// what the 1-node run's local log commits — plus counters that prove each
// mechanism engaged.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

PpmConfig cfg(int nodes, int cores) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = cores;
  return c;
}

uint64_t mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Mixed remote reads, exact-integer accumulates, and per-VP double sets
// over several phases; returns the full committed contents of both
// arrays. Exact types only where ordering could matter, so the result
// must be bit-identical under any execution interleaving.
struct Committed {
  std::vector<int64_t> bins;
  std::vector<double> vals;
};

Committed run_mixed_workload(const RuntimeOptions& opts) {
  PpmConfig c = cfg(4, 2);
  c.runtime = opts;
  c.runtime.read_block_bytes = 256;  // 32 doubles per block: many blocks
  constexpr uint64_t kVals = 1024;   // 256 doubles per node
  constexpr uint64_t kBins = 64;
  constexpr uint64_t kK = 32;        // VPs per node
  Committed out;
  run(c, [&](Env& env) {
    auto vals = env.global_array<double>(kVals);
    auto bins = env.global_array<int64_t>(kBins);
    const auto n = static_cast<uint64_t>(env.node_id());
    auto vps = env.ppm_do(kK);
    // Seed vals with per-element data.
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kVals; i += 4 * kK) {
        if (vals.owner(i) == env.node_id()) {
          vals.set(i, static_cast<double>(i) * 0.5);
        }
      }
    });
    for (int round = 0; round < 3; ++round) {
      vps.global_phase([&](Vp& vp) {
        const uint64_t j = vp.node_rank();
        // Scattered remote reads (misses across many blocks).
        int64_t acc = 0;
        for (int t = 0; t < 4; ++t) {
          const uint64_t h =
              mix(n * 1000 + j * 10 + static_cast<uint64_t>(t) +
                  static_cast<uint64_t>(round) * 100000);
          acc += static_cast<int64_t>(vals.get(h % kVals) * 2.0);
        }
        // Same-VP repeated accumulates into a hashed (often remote) bin.
        const uint64_t bin = mix(n * kK + j) % kBins;
        for (int t = 0; t < 5; ++t) bins.add(bin, acc + t);
        // A conflicting set pair: later program order must win.
        const uint64_t slot = (n * kK + j) * 4 % kVals;
        vals.set(slot, static_cast<double>(round));
        vals.set(slot, static_cast<double>(round) + 0.25);
      });
    }
    // Collect the committed contents on node 0.
    auto one = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    one.global_phase([&](Vp&) {
      std::vector<uint64_t> vi(kVals), bi(kBins);
      for (uint64_t i = 0; i < kVals; ++i) vi[i] = i;
      for (uint64_t i = 0; i < kBins; ++i) bi[i] = i;
      out.vals = vals.gather(vi);
      out.bins = bins.gather(bi);
    });
  });
  return out;
}

TEST(Overlap, CommittedStateBitIdenticalAcrossConfigs) {
  RuntimeOptions base;
  const Committed ref = run_mixed_workload(base);
  ASSERT_EQ(ref.vals.size(), 1024u);
  for (const bool overlap : {false, true}) {
    for (const auto schedule :
         {SchedulePolicy::kStatic, SchedulePolicy::kDynamic}) {
      RuntimeOptions o;
      o.overlap_reads = overlap;
      o.schedule = schedule;
      const Committed got = run_mixed_workload(o);
      ASSERT_EQ(got.bins, ref.bins) << "overlap=" << overlap;
      // Bitwise comparison: even -0.0 vs 0.0 would be a drift.
      ASSERT_EQ(got.vals.size(), ref.vals.size());
      ASSERT_EQ(std::memcmp(got.vals.data(), ref.vals.data(),
                            got.vals.size() * sizeof(double)),
                0)
          << "overlap=" << overlap;
    }
  }
}

// One VP per remote block on a 2-core node: without miss-switching every
// fetch is a serialized round trip; with it the core issues the next VP's
// fetch while the first is in flight, so both total stall time and the
// phase's virtual duration drop.
RunResult run_block_walk(bool overlap) {
  PpmConfig c = cfg(2, 2);
  c.runtime.overlap_reads = overlap;
  c.runtime.prefetch_lookahead_blocks = 0;  // isolate miss-switching
  c.runtime.read_block_bytes = 256;         // 32 doubles per block
  return run(c, [&](Env& env) {
    auto a = env.global_array<double>(512);  // 8 blocks per node
    auto vps = env.ppm_do(env.node_id() == 0 ? 8 : 0);
    vps.global_phase([&](Vp& vp) {
      // VP j touches its own remote block: a guaranteed distinct miss.
      (void)a.get(256 + vp.node_rank() * 32);
    });
  });
}

TEST(Overlap, MissSwitchingReducesStallAndDuration) {
  const RunResult off = run_block_walk(false);
  const RunResult on = run_block_walk(true);
  EXPECT_GT(off.fetch_stall_ns, 0u);
  EXPECT_LT(on.fetch_stall_ns, off.fetch_stall_ns);
  EXPECT_LT(on.duration_ns, off.duration_ns);
  // Same blocks move either way; with miss-switching the queued fetches
  // additionally coalesce into list requests (batch_fetches), so wire
  // bytes may only shrink, never grow.
  EXPECT_EQ(on.remote_blocks_fetched, off.remote_blocks_fetched);
  EXPECT_LE(on.network_bytes, off.network_bytes);
}

TEST(Overlap, ExplicitPrefetchCountsHitsAndUnused) {
  PpmConfig c = cfg(2, 1);
  c.runtime.read_block_bytes = 256;
  c.runtime.prefetch_lookahead_blocks = 0;
  RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(512);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      // Announce two remote blocks; demand only the first.
      const std::vector<uint64_t> want = {256, 320};
      env.prefetch(a, want);
      (void)a.get(260);  // same block as 256
    });
  });
  EXPECT_EQ(r.prefetch_issued, 2u);
  EXPECT_EQ(r.prefetch_hits, 1u);  // the 320-block was never demanded
  EXPECT_EQ(r.remote_blocks_fetched, 2u);
}

TEST(Overlap, AutomaticStreamPrefetchEngagesOnForwardWalk) {
  PpmConfig c = cfg(2, 1);
  c.runtime.read_block_bytes = 256;
  c.runtime.prefetch_lookahead_blocks = 1;
  RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(512);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp& vp) {
      (void)vp;
      // Forward walk over the whole remote chunk: after the first two
      // demand misses establish the stream, lookahead keeps the next
      // block in flight.
      double sum = 0;
      for (uint64_t i = 256; i < 512; ++i) sum += a.get(i);
      (void)sum;
    });
  });
  EXPECT_GT(r.prefetch_issued, 0u);
  EXPECT_GT(r.prefetch_hits, 0u);
}

// Node 0's 4 VPs each set their own remote bin (node 1 owns elements
// 32..63) to `base`, then add `step` to it `adds` times in the next phase.
template <typename T>
RunResult run_dup_writes(int adds, T base, T step, T* out_val) {
  PpmConfig c = cfg(2, 1);
  return run(c, [&](Env& env) {
    auto a = env.global_array<T>(64);
    auto vps = env.ppm_do(env.node_id() == 0 ? 4 : 0);
    vps.global_phase([&](Vp& vp) { a.set(32 + vp.node_rank(), base); });
    vps.global_phase([&](Vp& vp) {
      for (int t = 0; t < adds; ++t) a.add(32 + vp.node_rank(), step);
    });
    auto one = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    one.global_phase([&](Vp&) { *out_val = a.get(32); });
  });
}

// Every write ships as its own record: a run of 8 adds carries more bytes
// than one add of the run's sum, and commits the (VP rank, seq)-order
// fold. On int64 that fold is exact. On a double base of 2^60 (ulp 256)
// each add of 100 rounds away, so the fold is the base itself, while one
// add of 800 lands on base + 768.
TEST(Overlap, DuplicateWritesShipEveryRecord) {
  int64_t val_run = 0, val_once = 0;
  const RunResult runs = run_dup_writes<int64_t>(8, 0, 5, &val_run);
  const RunResult once = run_dup_writes<int64_t>(1, 0, 40, &val_once);
  EXPECT_EQ(val_run, 40);
  EXPECT_EQ(val_once, 40);
  EXPECT_GT(runs.network_bytes, once.network_bytes);
  // write_entries counts issued writes, the 4 sets included.
  EXPECT_EQ(runs.write_entries, 4u + 4u * 8u);

  const double base = 0x1p60;
  double fp_run = 0, fp_once = 0;
  const RunResult fp_runs = run_dup_writes<double>(8, base, 100.0, &fp_run);
  const RunResult fp_one = run_dup_writes<double>(1, base, 800.0, &fp_once);
  EXPECT_EQ(fp_run, base);
  EXPECT_EQ(fp_once, base + 768.0);
  EXPECT_GT(fp_runs.network_bytes, fp_one.network_bytes);
  EXPECT_EQ(fp_runs.write_entries, 4u + 4u * 8u);
}

// On 2 nodes the element is remote and its five records ship in one
// bundle; on 1 node it is local. Either way they commit in seq order.
TEST(Overlap, SetAddInterleavingsCommitInOrder) {
  for (const int nodes : {2, 1}) {
    PpmConfig c = cfg(nodes, 1);
    int64_t got = -1;
    run(c, [&](Env& env) {
      auto a = env.global_array<int64_t>(8);
      auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
      vps.global_phase([&](Vp&) {
        a.set(5, 5);   // on 2 nodes remote: node 1 owns it
        a.add(5, 3);
        a.set(5, 2);   // supersedes everything above
        a.add(5, 4);
        a.add(5, 1);
      });
      auto one = env.ppm_do(env.node_id() == 0 ? 1 : 0);
      one.global_phase([&](Vp&) { got = a.get(5); });
    });
    EXPECT_EQ(got, 7) << "nodes=" << nodes;
  }
}

// The same interleaving on doubles, around a 2^60 set whose ulp (256)
// swallows each later add: in (VP rank, seq) order the element ends at
// exactly 2^60 on both node counts, where folding the two adds would not.
TEST(Overlap, FloatingPointSetAddInterleavingsCommitInOrder) {
  for (const int nodes : {2, 1}) {
    PpmConfig c = cfg(nodes, 1);
    double got = -1;
    run(c, [&](Env& env) {
      auto a = env.global_array<double>(8);
      auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
      vps.global_phase([&](Vp&) {
        a.set(5, 5.0);
        a.add(5, 3.0);
        a.set(5, 0x1p60);
        a.add(5, 100.0);  // below half an ulp of 2^60: rounds away
        a.add(5, 100.0);  // 200 in one add would round up
      });
      auto one = env.ppm_do(env.node_id() == 0 ? 1 : 0);
      one.global_phase([&](Vp&) { got = a.get(5); });
    });
    EXPECT_EQ(got, 0x1p60) << "nodes=" << nodes;
  }
}

}  // namespace
}  // namespace ppm

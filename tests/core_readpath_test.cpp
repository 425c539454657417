// The read-engine fast path: a phase whose working set is cached must
// never re-enter the runtime's slow remote path, the bulk read_n/set_n/
// add_n spans commit exactly what the per-element loops commit, and
// batched fetch lists are a pure performance knob (bit-identical
// committed state).
#include <gtest/gtest.h>

#include <cstring>
#include <utility>
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

// One VP on node 0 sweeps the whole array `sweeps` times in one phase.
// Returns the run counters plus the number of reads that were remote for
// node 0 (counted in-program via owner()).
struct SweepStats {
  RunResult r;
  uint64_t remote_per_sweep = 0;
};

SweepStats run_sweeps(Distribution dist, int sweeps) {
  constexpr uint64_t kN = 4096;
  PpmConfig c = cfg(2, 1);
  SweepStats out;
  out.r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(kN, dist);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp&) {
      double acc = 0;
      for (int s = 0; s < sweeps; ++s) {
        for (uint64_t i = 0; i < kN; ++i) acc += a.get(i);
      }
      for (uint64_t i = 0; i < kN; ++i) {
        if (a.owner(i) != 0) ++out.remote_per_sweep;
      }
      EXPECT_EQ(acc, 0.0);  // zero-initialized
    });
  });
  return out;
}

// A phase re-reading an already-fetched working set performs zero
// additional slow-path reads: every extra sweep is served entirely by
// the handle-inline cache probe, across all three distributions.
TEST(ReadPath, FullyCachedSweepAddsZeroSlowPathReads) {
  for (const auto dist :
       {Distribution::kBlock, Distribution::kCyclic, Distribution::kAdaptive}) {
    const SweepStats one = run_sweeps(dist, 1);
    const SweepStats three = run_sweeps(dist, 3);
    ASSERT_GT(one.remote_per_sweep, 0u);
    // The warm sweep's misses are the only slow-path entries there are.
    EXPECT_GT(one.r.slow_path_reads, 0u);
    EXPECT_EQ(three.r.slow_path_reads, one.r.slow_path_reads)
        << "dist=" << static_cast<int>(dist);
    // Every read of the two extra sweeps was served from the cache.
    EXPECT_EQ(three.r.remote_reads_served_from_cache -
                  one.r.remote_reads_served_from_cache,
              2 * one.remote_per_sweep)
        << "dist=" << static_cast<int>(dist);
  }
}

// Mixed bulk workload: runs that cross chunk boundaries, written and
// read either through the set_n/add_n/read_n spans or through the
// equivalent set/add/get loops. Returns the committed contents, which
// must be bit-identical either way.
struct Committed {
  std::vector<double> vals;
  RunResult r;
};

Committed run_bulk_workload(bool bulk, bool batch) {
  constexpr uint64_t kN = 1024;
  constexpr uint64_t kK = 8;  // VPs per node
  PpmConfig c = cfg(4, 2);
  c.runtime.batch_fetches = batch;
  c.runtime.read_block_bytes = 256;  // 32 doubles per block
  Committed out;
  out.r = run(c, [&](Env& env) {
    auto vals = env.global_array<double>(kN);
    const auto n = static_cast<uint64_t>(env.node_id());
    auto vps = env.ppm_do(kK);
    // Each VP owns a disjoint 16-element run somewhere in the array
    // (possibly remote, possibly straddling a chunk boundary).
    vps.global_phase([&](Vp& vp) {
      const uint64_t first = (vp.global_rank() * 16) % (kN - 16);
      std::vector<double> v(16);
      for (uint64_t j = 0; j < 16; ++j) {
        v[j] = static_cast<double>(first + j) * 0.5;
      }
      if (bulk) {
        vals.set_n(first, 16, v.data());
      } else {
        for (uint64_t j = 0; j < 16; ++j) vals.set(first + j, v[j]);
      }
    });
    // Scattered accumulates on top, plus read round trips.
    vps.global_phase([&](Vp& vp) {
      const uint64_t first = mix(n * kK + vp.node_rank()) % (kN - 32);
      std::vector<double> got(32);
      if (bulk) {
        vals.read_n(first, 32, got.data());
      } else {
        for (uint64_t j = 0; j < 32; ++j) got[j] = vals.get(first + j);
      }
      for (auto& g : got) g = g * 0.25 + 1.0;
      if (bulk) {
        vals.add_n(first, 32, got.data());
      } else {
        for (uint64_t j = 0; j < 32; ++j) vals.add(first + j, got[j]);
      }
    });
    auto one = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    one.global_phase([&](Vp&) {
      std::vector<uint64_t> idx(kN);
      for (uint64_t i = 0; i < kN; ++i) idx[i] = i;
      out.vals = vals.gather(idx);
    });
  });
  return out;
}

TEST(ReadPath, BulkSpansBitIdenticalToElementwise) {
  const Committed spans = run_bulk_workload(/*bulk=*/true, /*batch=*/true);
  const Committed loops = run_bulk_workload(/*bulk=*/false, /*batch=*/true);
  ASSERT_EQ(spans.vals.size(), loops.vals.size());
  EXPECT_EQ(std::memcmp(spans.vals.data(), loops.vals.data(),
                        spans.vals.size() * sizeof(double)),
            0);
  // The spans ship contiguous runs as single range entries, so wire bytes
  // may only shrink.
  EXPECT_LE(spans.r.network_bytes, loops.r.network_bytes);
}

TEST(ReadPath, BatchedFetchListsPreserveResults) {
  const Committed on = run_bulk_workload(/*bulk=*/true, /*batch=*/true);
  const Committed off = run_bulk_workload(/*bulk=*/true, /*batch=*/false);
  ASSERT_EQ(on.vals.size(), off.vals.size());
  EXPECT_EQ(std::memcmp(on.vals.data(), off.vals.data(),
                        on.vals.size() * sizeof(double)),
            0);
  // Coalesced lists replace per-block requests: never more messages or
  // bytes than the unbatched wire.
  EXPECT_LE(on.r.network_messages, off.r.network_messages);
  EXPECT_LE(on.r.network_bytes, off.r.network_bytes);
}

// prefetch_range announces a remote band; the demanded blocks must be
// counted as prefetch hits (the hint was not wasted) and values must be
// the committed ones.
TEST(ReadPath, PrefetchRangeCoversDemandedBand) {
  constexpr uint64_t kN = 4096;
  PpmConfig c = cfg(2, 1);
  c.runtime.prefetch_lookahead_blocks = 0;  // isolate the explicit hint
  const RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(kN);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp&) {
      // Remote band of 512 doubles = 2 cache blocks (2048 B default).
      a.prefetch_range(kN / 2, kN / 2 + 512);
      double acc = 0;
      for (uint64_t i = kN / 2; i < kN / 2 + 512; ++i) acc += a.get(i);
      EXPECT_EQ(acc, 0.0);
    });
  });
  EXPECT_EQ(r.prefetch_issued, 2u);
  EXPECT_EQ(r.prefetch_hits, 2u);
  EXPECT_EQ(r.remote_blocks_fetched, 2u);
}

// read_n counts cache hits the way the per-element get loop does: every
// element of a block that was cached or already in flight, and all but
// the first element of a block the read fetched itself.
TEST(ReadPath, BulkReadCountsCacheHitsLikeElementwiseGets) {
  constexpr uint64_t kN = 4096;
  // Owner-local elements 100..699 of node 1: three 256-double blocks.
  constexpr uint64_t kLo = kN / 2 + 100;
  constexpr uint64_t kHi = kN / 2 + 700;
  auto cached_reads = [&](bool bulk, bool prefetched) {
    PpmConfig c = cfg(2, 1);
    c.runtime.prefetch_lookahead_blocks = 0;  // lookahead off
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<double>(kN);
      auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
      vps.global_phase([&](Vp&) {
        if (prefetched) a.prefetch_range(kLo, kHi);
        std::vector<double> out(kHi - kLo);
        if (bulk) {
          a.read_n(kLo, kHi - kLo, out.data());
        } else {
          for (uint64_t i = kLo; i < kHi; ++i) out[i - kLo] = a.get(i);
        }
      });
    });
    EXPECT_EQ(r.remote_blocks_fetched, 3u);
    return r.remote_reads_served_from_cache;
  };
  EXPECT_EQ(cached_reads(/*bulk=*/false, /*prefetched=*/false), 600u - 3);
  EXPECT_EQ(cached_reads(/*bulk=*/true, /*prefetched=*/false), 600u - 3);
  EXPECT_EQ(cached_reads(/*bulk=*/false, /*prefetched=*/true), 600u);
  EXPECT_EQ(cached_reads(/*bulk=*/true, /*prefetched=*/true), 600u);
}

// read_n enters the slow path as often as the per-element get loop: once
// for each block not yet published in the direct-mapped table, which on a
// cold span (lookahead stream on) is every block it touches. kCyclic spans
// take read_n's element-by-element fallback, which must count the same.
TEST(ReadPath, BulkReadCountsSlowPathReadsLikeElementwiseGets) {
  constexpr uint64_t kN = 8192;
  auto read_cold = [&](Distribution dist, uint64_t lo, bool bulk) {
    return run(cfg(2, 1), [&](Env& env) {
      auto a = env.global_array<double>(kN, dist);
      auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
      vps.global_phase([&](Vp&) {
        std::vector<double> out(kN - lo);
        if (bulk) {
          a.read_n(lo, kN - lo, out.data());
        } else {
          for (uint64_t i = lo; i < kN; ++i) out[i - lo] = a.get(i);
        }
      });
    });
  };
  // kBlock: node 1's elements from owner-local 100 to the end of its
  // chunk, the first of its sixteen 256-double blocks entered mid-block.
  // kCyclic: the whole array; node 1's half is again sixteen blocks. Both
  // spans end where node 1's storage does, so the get loop's lookahead
  // fetches no block the span leaves out.
  const std::pair<Distribution, uint64_t> cases[] = {
      {Distribution::kBlock, kN / 2 + 100}, {Distribution::kCyclic, 0}};
  for (const auto& [dist, lo] : cases) {
    const RunResult gets = read_cold(dist, lo, /*bulk=*/false);
    const RunResult span = read_cold(dist, lo, /*bulk=*/true);
    const int d = static_cast<int>(dist);
    EXPECT_EQ(gets.slow_path_reads, 16u) << "dist=" << d;
    EXPECT_EQ(span.slow_path_reads, gets.slow_path_reads) << "dist=" << d;
    EXPECT_EQ(span.remote_blocks_fetched, gets.remote_blocks_fetched)
        << "dist=" << d;
  }
}

// A traced run's block-cache summary (the bundling line of ppm_cli
// --profile) counts the hits read_n serves, though read_n records no
// cache trace events.
TEST(ReadPath, TraceSummaryCountsBulkReadCacheHits) {
  constexpr uint64_t kN = 4096;
  PpmConfig c = cfg(2, 1);
  c.runtime.trace = true;
  const RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(kN);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp&) {
      std::vector<double> out(kN / 2);
      a.read_n(kN / 2, kN / 2, out.data());  // node 1's half: remote
    });
  });
  EXPECT_GT(r.remote_reads_served_from_cache, 0u);
  EXPECT_EQ(r.trace_summary.cache_hits, r.remote_reads_served_from_cache);
  EXPECT_EQ(r.trace_summary.cache_misses,
            r.remote_blocks_fetched - r.prefetch_issued);
}

}  // namespace
}  // namespace ppm

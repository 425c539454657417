// The read-engine fast path: a phase whose working set is cached must
// never re-enter the runtime's slow remote path, the bulk read_n/set_n/
// add_n spans commit exactly what the per-element loops commit, and every
// global commit empties the remote-block table.
#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/machine.hpp"
#include "core/ppm.hpp"
#include "sim/engine.hpp"
#include "trace/recorder.hpp"

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

Committed run_bulk_workload(bool bulk) {
  constexpr uint64_t kN = 1024;
  constexpr uint64_t kK = 8;  // VPs per node
  PpmConfig c = cfg(4, 2);
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
  const Committed spans = run_bulk_workload(/*bulk=*/true);
  const Committed loops = run_bulk_workload(/*bulk=*/false);
  ASSERT_EQ(spans.vals.size(), loops.vals.size());
  EXPECT_EQ(std::memcmp(spans.vals.data(), loops.vals.data(),
                        spans.vals.size() * sizeof(double)),
            0);
  // The spans ship contiguous runs as single range entries, so wire bytes
  // may only shrink.
  EXPECT_LE(spans.r.network_bytes, loops.r.network_bytes);
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

// Every global commit empties the block table. A lookahead block that
// arrived in epoch e and was never demanded there is fetched again in
// e+1 and reads e+1's values, and only the demand touch in the epoch the
// block arrived counts as a prefetch hit.
TEST(ReadPath, CommitDropsPrefetchedBlocksNeverDemanded) {
  constexpr uint64_t kN = 4096;               // node 1 owns [2048, 4096)
  constexpr uint64_t kDemanded = kN / 2;      // prefetched, read in e
  constexpr uint64_t kUnused = kN / 2 + 256;  // prefetched, not read in e
  PpmConfig c = cfg(2, 1);
  c.runtime.prefetch_lookahead_blocks = 0;  // only the explicit hint
  std::vector<double> next_epoch;
  const RunResult r = run(c, [&](Env& env) {
    auto a = env.global_array<double>(kN);
    auto vps = env.ppm_do(1);
    const bool reader = env.node_id() == 0;
    vps.global_phase([&](Vp&) {
      if (!reader) {
        for (uint64_t i = kN / 2; i < kN; ++i) {
          a.set(i, static_cast<double>(i) + 0.5);
        }
        return;
      }
      const std::vector<uint64_t> hint = {kDemanded, kUnused};
      a.prefetch(hint);
      sim::advance_ns(1'000'000);  // both blocks arrive in this epoch
      EXPECT_EQ(a.get(kDemanded), 0.0);
    });
    vps.global_phase([&](Vp&) {
      if (!reader) return;
      for (const uint64_t i : {kDemanded, kUnused}) {
        next_epoch.push_back(a.get(i));
      }
    });
  });
  EXPECT_EQ(next_epoch, (std::vector<double>{kDemanded + 0.5, kUnused + 0.5}));
  EXPECT_EQ(r.prefetch_issued, 2u);
  EXPECT_EQ(r.prefetch_hits, 1u);
  // The two hints, then a demand fetch of each block in e+1.
  EXPECT_EQ(r.remote_blocks_fetched, 4u);
}

// A lookahead still in flight when its requester commits is abandoned:
// its response, arriving in the next epoch, must be dropped, not
// published there. Fabric jitter moves the arrivals around the commit;
// across the seeds some must land after it.
TEST(ReadPath, LookaheadArrivingAfterCommitIsDropped) {
  constexpr uint64_t kN = 4096;  // node 1 owns eight blocks, [2048, 4096)
  uint64_t late = 0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    PpmConfig c = cfg(2, 1);
    c.runtime.prefetch_lookahead_blocks = 0;
    c.runtime.trace = true;
    c.machine.faults.delay_jitter = true;
    c.machine.faults.seed = seed;
    c.machine.faults.delay_probability = 0.5;
    c.machine.faults.max_extra_delay_ns = 20'000;
    cluster::Machine machine(c.machine);
    Runtime runtime(machine, c.runtime);
    std::vector<double> seen(kN / 2);
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      auto a = env.global_array<double>(kN);
      auto vps = env.ppm_do(1);
      for (int round = 1; round <= 2; ++round) {
        vps.global_phase([&](Vp&) {
          if (node == 1) {
            for (uint64_t i = kN / 2; i < kN; ++i) {
              a.set(i, static_cast<double>(i) * 0.5 + round);
            }
          } else if (round == 2) {
            // The phase's last act: the hints are in flight at commit.
            sim::advance_ns(10'000);
            a.prefetch_range(kN / 2, kN);
          }
        });
      }
      vps.global_phase([&](Vp&) {
        if (node != 0) return;
        sim::advance_ns(1'000'000);  // every late response has landed
        for (uint64_t i = kN / 2; i < kN; ++i) seen[i - kN / 2] = a.view(i);
      });
      nr.finish();
    });
    const RunResult r = runtime.collect();
    for (uint64_t i = kN / 2; i < kN; ++i) {
      ASSERT_EQ(seen[i - kN / 2], static_cast<double>(i) * 0.5 + 2)
          << "seed " << seed << ", element " << i;
    }
    EXPECT_EQ(r.prefetch_issued, 8u) << "seed " << seed;
    EXPECT_EQ(r.prefetch_hits, 0u) << "seed " << seed;
    EXPECT_EQ(r.remote_blocks_fetched, 16u) << "seed " << seed;
    for (const trace::Event& e : runtime.trace()->node(0).ordered()) {
      if (e.kind == trace::EventKind::kFetchDone &&
          (e.flags & trace::kFlagBit0) != 0) {
        ++late;
      }
    }
  }
  EXPECT_GT(late, 0u) << "no lookahead response arrived after its commit";
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

// A 240-byte element, the size of Barnes–Hut's tree node: 16 KiB cache
// blocks hold 68 of them, a block length that is not a power of two.
struct Elem240 {
  int64_t id;
  double pad[29];
};
static_assert(sizeof(Elem240) == 240);

template <typename T>
T value_at(uint64_t i) {
  if constexpr (std::is_same_v<T, int64_t>) {
    return static_cast<int64_t>(i * 7 + 3);
  } else {
    T v{};
    v.id = static_cast<int64_t>(i * 7 + 3);
    v.pad[28] = static_cast<double>(i) + 0.5;
    return v;
  }
}

template <typename T>
bool same(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// How run_hit_path sweeps: two full sweeps; the same followed by a
// prefetch sweep when every remote block is published; or a sweep over
// the first half, the prefetch sweep, then a full sweep.
enum class Sweeps { kTwo, kTwoThenPrefetch, kHalfPrefetchFull };

struct HitPathRun {
  RunResult r;
  // Summed over nodes: remote reads, distinct remote cache blocks, and
  // the blocks the first-half sweep touches.
  uint64_t remote_reads = 0;
  uint64_t remote_blocks = 0;
  uint64_t half_reads = 0;
  uint64_t half_blocks = 0;
};

// Every node's one VP reads the array after a deferred set() of every
// element, through view() first and get() second; every read must see
// the phase-start value. The expected cache block of element i comes
// from the layout formulas with plain `/`, independent of the runtime's
// locator.
template <typename T>
HitPathRun run_hit_path(Distribution dist, uint64_t n, Sweeps sweeps) {
  constexpr int kNodes = 3;
  PpmConfig c = cfg(kNodes, 1);
  c.runtime.read_block_bytes = 16 * 1024;
  c.runtime.prefetch_lookahead_blocks = 0;  // demand fetches only
  const uint64_t be = c.runtime.read_block_bytes / sizeof(T);
  const uint64_t chunk = (n + kNodes - 1) / kNodes;
  const uint64_t half = n / 2;
  std::vector<HitPathRun> per_node(kNodes);
  HitPathRun out;
  out.r = run(c, [&](Env& env) {
    auto a = env.global_array<T>(n, dist);
    const int me = env.node_id();
    for (uint64_t i = 0; i < n; ++i) {
      if (a.owner(i) == me) a.set(i, value_at<T>(i));
    }
    env.barrier();
    auto vps = env.ppm_do(1);
    vps.global_phase([&](Vp&) {
      std::vector<uint64_t> all(n);
      for (uint64_t i = 0; i < n; ++i) all[i] = i;
      for (uint64_t i = 0; i < n; ++i) a.set(i, value_at<T>(i + 1));
      HitPathRun& mine = per_node[static_cast<size_t>(me)];
      std::set<std::pair<int, uint64_t>> blocks;  // (owner, block)
      for (uint64_t i = 0; i < n; ++i) {
        const int owner = a.owner(i);
        if (owner == me) continue;
        const uint64_t o = static_cast<uint64_t>(owner);
        // The cache block holding i: its owner-local index over the block
        // length (kAdaptive: the migration block i / be names it).
        const uint64_t pos = dist == Distribution::kBlock    ? i - o * chunk
                             : dist == Distribution::kCyclic ? i / kNodes
                                                             : i;
        blocks.emplace(owner, pos / be);
        ++mine.remote_reads;
        if (i < half) {
          ++mine.half_reads;
          mine.half_blocks = blocks.size();
        }
      }
      mine.remote_blocks = blocks.size();
      const uint64_t first_end =
          sweeps == Sweeps::kHalfPrefetchFull ? half : n;
      for (uint64_t i = 0; i < first_end; ++i) {
        ASSERT_TRUE(same(a.view(i), value_at<T>(i))) << "view " << i;
      }
      if (sweeps == Sweeps::kHalfPrefetchFull) {
        a.prefetch(all);
        a.prefetch_range(0, n);
      }
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(same(a.get(i), value_at<T>(i))) << "get " << i;
      }
      if (sweeps == Sweeps::kTwoThenPrefetch) {
        a.prefetch(all);
        a.prefetch_range(0, n);
      }
    });
  });
  for (const HitPathRun& p : per_node) {
    out.remote_reads += p.remote_reads;
    out.remote_blocks += p.remote_blocks;
    out.half_reads += p.half_reads;
    out.half_blocks += p.half_blocks;
  }
  return out;
}

template <typename T>
void check_hit_path(uint64_t n) {
  ASSERT_NE(n % 3, 0u);
  ASSERT_NE(n % (16 * 1024 / sizeof(T)), 0u);
  for (const auto dist :
       {Distribution::kBlock, Distribution::kCyclic, Distribution::kAdaptive}) {
    const int d = static_cast<int>(dist);
    // The first touch of each remote block is its one slow-path read and
    // fetch; every other remote read is a cache hit.
    const HitPathRun two = run_hit_path<T>(dist, n, Sweeps::kTwo);
    ASSERT_GT(two.remote_blocks, 1u) << "dist=" << d;
    EXPECT_EQ(two.r.slow_path_reads, two.remote_blocks) << "dist=" << d;
    EXPECT_EQ(two.r.remote_blocks_fetched, two.remote_blocks)
        << "dist=" << d;
    EXPECT_EQ(two.r.remote_reads_served_from_cache,
              2 * two.remote_reads - two.remote_blocks)
        << "dist=" << d;
    // A prefetch sweep over published blocks fetches, issues and hits
    // nothing.
    const HitPathRun swept = run_hit_path<T>(dist, n, Sweeps::kTwoThenPrefetch);
    EXPECT_EQ(swept.r.remote_blocks_fetched, two.r.remote_blocks_fetched)
        << "dist=" << d;
    EXPECT_EQ(swept.r.prefetch_issued, 0u) << "dist=" << d;
    EXPECT_EQ(swept.r.prefetch_hits, 0u) << "dist=" << d;
    EXPECT_EQ(swept.r.slow_path_reads, two.r.slow_path_reads)
        << "dist=" << d;
    EXPECT_EQ(swept.r.remote_reads_served_from_cache,
              two.r.remote_reads_served_from_cache)
        << "dist=" << d;
    // Half the blocks published: the sweep prefetches exactly the others,
    // and each one's first demand touch is a slow-path read served from
    // the cache (a prefetch hit).
    const HitPathRun half = run_hit_path<T>(dist, n, Sweeps::kHalfPrefetchFull);
    ASSERT_LT(half.half_blocks, half.remote_blocks) << "dist=" << d;
    const uint64_t prefetched = half.remote_blocks - half.half_blocks;
    EXPECT_EQ(half.r.prefetch_issued, prefetched) << "dist=" << d;
    EXPECT_EQ(half.r.prefetch_hits, prefetched) << "dist=" << d;
    EXPECT_EQ(half.r.remote_blocks_fetched, half.remote_blocks)
        << "dist=" << d;
    EXPECT_EQ(half.r.slow_path_reads, half.remote_blocks) << "dist=" << d;
    EXPECT_EQ(half.r.remote_reads_served_from_cache,
              half.half_reads - half.half_blocks + half.remote_reads)
        << "dist=" << d;
  }
}

TEST(ReadPath, HitPathCountsAndValuesInt64) {
  check_hit_path<int64_t>(5 * 2048 + 7);  // 2,048-element blocks
}

TEST(ReadPath, HitPathCountsAndValues240ByteElements) {
  check_hit_path<Elem240>(1000);  // 68-element blocks
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

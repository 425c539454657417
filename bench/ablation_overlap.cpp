// Ablation B — communication/computation overlap (§3.3 "scheduling
// communication needs and computation tasks to enable (automatic) overlap
// of computation and communication").
//
// Two sweeps:
//  * BM_Ablation_Overlap — write-side overlap (eager flushing): bundles
//    stream to their destinations while the phase is still computing;
//    without it, all write traffic is serialized into the end-of-phase
//    commit.
//  * BM_Ablation_OverlapEngine — the read-side overlap engine at 8
//    nodes: VP miss-switching (a cache miss runs other ready VPs while
//    the fetch is in flight) off and on.
#include <benchmark/benchmark.h>

#include <cmath>

#include "bench_common.hpp"
#include "core/ppm.hpp"

namespace {

using namespace ppm;

constexpr uint64_t kN = 1 << 16;

void scatter_workload(Env& env, GlobalShared<double>& a) {
  const uint64_t k = kN / static_cast<uint64_t>(env.node_count());
  const uint64_t offset = k * static_cast<uint64_t>(env.node_id());
  auto vps = env.ppm_do(k);
  vps.global_phase([&](Vp& vp) {
    // Real compute per element, then a remote write (shifted by half the
    // array so nearly every write leaves the node).
    double acc = 0;
    const auto i = static_cast<double>(vp.global_rank());
    for (int t = 0; t < 60; ++t) acc += std::sin(i * 1e-3 + t);
    a.set((offset + vp.node_rank() + kN / 2) % kN, acc);
  });
}

/// arg0: eager flush on/off; arg1: flush threshold in KiB.
void BM_Ablation_Overlap(benchmark::State& state) {
  RuntimeOptions opts = bench::bench_runtime_options();
  opts.eager_flush = state.range(0) != 0;
  opts.flush_threshold_bytes = static_cast<uint32_t>(state.range(1)) * 1024;
  for (auto _ : state) {
    cluster::Machine machine(bench::bench_machine(4));
    const RunResult r = run_on(machine, opts, [&](Env& env) {
      auto a = env.global_array<double>(kN);
      for (int round = 0; round < 3; ++round) scatter_workload(env, a);
    });
    state.counters["vtime_ms"] = r.duration_s() * 1e3;
    state.counters["bundles"] = static_cast<double>(r.bundles_sent);
    state.counters["net_msgs"] = static_cast<double>(r.network_messages);
  }
  state.counters["eager"] = static_cast<double>(state.range(0));
  state.counters["threshold_KiB"] = static_cast<double>(state.range(1));
}

// ---- Overlap engine: miss-switching at 8 nodes ----

constexpr int kEngNodes = 8;
constexpr uint64_t kEngVpsPerNode = 256;
constexpr int kEngReadsPerVp = 2;
constexpr int kEngAddsPerVp = 8;
// 64 blocks of 2048 doubles (16 KiB read blocks) per node.
constexpr uint64_t kEngBlockElems = 2048;
constexpr uint64_t kEngBlocksPerNode = 64;
constexpr uint64_t kEngTableN =
    kEngNodes * kEngBlocksPerNode * kEngBlockElems;
constexpr uint64_t kEngBinsPerNode = 64;

// Deterministic index mixer (splitmix64 finalizer).
uint64_t eng_mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Every VP reads a few scattered elements from remote cache blocks (each
/// read a likely miss: the table has 448 remote blocks per node and only
/// 512 VP reads), computes on them, and accumulates several partial
/// results into one remote bin. Miss-switching pipelines the block round
/// trips across a core's VPs; combining folds the same-VP adds into one
/// wire entry. The bins are integers (fixed point, 2^-10): combining
/// folds only integral accumulates, which give the same bits in any
/// grouping.
void overlap_engine_workload(Env& env, GlobalShared<double>& tab,
                             GlobalShared<int64_t>& bins) {
  const auto n = static_cast<uint64_t>(env.node_id());
  const auto nodes = static_cast<uint64_t>(env.node_count());
  auto vps = env.ppm_do(kEngVpsPerNode);
  vps.global_phase([&](Vp& vp) {
    const uint64_t j = vp.node_rank();
    double acc = 0;
    for (int t = 0; t < kEngReadsPerVp; ++t) {
      const uint64_t h = eng_mix(n * kEngVpsPerNode * 4 + j * 4 +
                                 static_cast<uint64_t>(t));
      const uint64_t owner = (n + 1 + h % (nodes - 1)) % nodes;
      const uint64_t elem = owner * kEngBlocksPerNode * kEngBlockElems +
                            (h >> 8) % (kEngBlocksPerNode * kEngBlockElems);
      const double x = tab.get(elem);
      for (int s = 0; s < 40; ++s) acc += std::sin(x + s);
    }
    const uint64_t hb = eng_mix(n * kEngVpsPerNode + j);
    const uint64_t bin_owner = (n + 1 + hb % (nodes - 1)) % nodes;
    const uint64_t bin =
        bin_owner * kEngBinsPerNode + (hb >> 8) % kEngBinsPerNode;
    for (int t = 0; t < kEngAddsPerVp; ++t) {
      bins.add(bin, static_cast<int64_t>(acc * 1024.0 * (1.0 + t)));
    }
  });
}

/// arg0: overlap_reads (miss-switching). Automatic stream prefetch is
/// pinned off in both configs so the reads each VP demands are the same
/// across rows.
void BM_Ablation_OverlapEngine(benchmark::State& state) {
  RuntimeOptions opts = bench::bench_runtime_options();
  opts.overlap_reads = state.range(0) != 0;
  opts.prefetch_lookahead_blocks = 0;
  for (auto _ : state) {
    cluster::Machine machine(bench::bench_machine(kEngNodes));
    const RunResult r = run_on(machine, opts, [&](Env& env) {
      auto tab = env.global_array<double>(kEngTableN);
      auto bins = env.global_array<int64_t>(kEngNodes * kEngBinsPerNode);
      // Fill the table so reads see nonzero data.
      {
        auto init = env.ppm_do(kEngBlocksPerNode);
        init.global_phase([&](Vp& vp) {
          const uint64_t b0 = tab.local_begin() +
                              vp.node_rank() * kEngBlockElems;
          for (uint64_t i = 0; i < kEngBlockElems; ++i) {
            tab.set(b0 + i, static_cast<double>(i % 97) * 0.01);
          }
        });
      }
      for (int round = 0; round < 3; ++round) {
        overlap_engine_workload(env, tab, bins);
      }
    });
    bench::report_run_counters(state, r);
  }
  state.counters["overlap"] = static_cast<double>(state.range(0));
}

}  // namespace

BENCHMARK(BM_Ablation_Overlap)
    ->Args({0, 64})   // lazy: everything at commit
    ->Args({1, 16})   // eager, fine-grained streaming
    ->Args({1, 64})   // eager, default threshold
    ->Args({1, 256})  // eager, coarse fragments
    ->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK(BM_Ablation_OverlapEngine)
    ->Arg(0)  // stall on every miss
    ->Arg(1)  // miss-switching (the library default)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

// Read-engine fast-path microbenchmark: per-element cost of the access
// flavors the hot-path campaign optimizes — the handle-inline local read,
// the handle-inline cached-remote-block read (kBlock doubles, kAdaptive
// doubles, 240-byte elements), the bulk read_n span path, and a
// prefetch() over blocks already published. Reported as per_read_ns next
// to the figure rows in BENCH_fig.json so per-element overhead
// regressions are visible without rerunning the applications.
//
// per_read_ns prices the steady state alone: each flavor runs twice, with
// kShortSweeps and kLongSweeps sweeps, and the difference of the two
// runs' virtual times is divided by the difference of their read counts.
// Everything both runs pay once (start, group creation, first-sweep
// fetches, commit, finish) cancels.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_common.hpp"
#include "core/ppm.hpp"

namespace {

using namespace ppm;

// Arg0 selects the flavor (all but 3 run in --smoke sweeps, see
// tools/bench.sh).
enum ReadPath : int64_t {
  kLocalInline = 1,
  kCachedInline = 2,
  kBulkReadN = 3,
  kCachedAdaptive = 4,
  kCached240 = 5,
  kPrefetchPublished = 6,
};

// Barnes-Hut's tree node size: 68 per 16 KiB cache block.
struct Elem240 {
  double v[30];
};

/// One run of `sweeps` sweeps of the flavor; *reads gets its read count.
RunResult run_sweeps(ReadPath path, int sweeps, uint64_t* reads) {
  constexpr uint64_t kN = 1 << 16;
  constexpr uint64_t kHalf = kN / 2;
  constexpr uint64_t kBigN = 1 << 13;  // 240-byte elements
  const Distribution dist =
      path == kCachedAdaptive || path == kPrefetchPublished
          ? Distribution::kAdaptive
          : Distribution::kBlock;
  cluster::Machine machine(bench::bench_machine(2, /*cores=*/1));
  *reads = static_cast<uint64_t>(sweeps) * kHalf;
  return run_on(machine, bench::bench_runtime_options(), [&](Env& env) {
    auto a = env.global_array<double>(kN, dist);
    GlobalShared<Elem240> big;
    if (path == kCached240) big = env.global_array<Elem240>(kBigN);
    std::vector<double> buf(kHalf);
    auto vps = env.ppm_do(env.node_id() == 0 ? 1 : 0);
    vps.global_phase([&](Vp&) {
      double acc = 0;
      switch (path) {
        case kLocalInline:
          for (int s = 0; s < sweeps; ++s) {
            for (uint64_t i = 0; i < kHalf; ++i) acc += a.get(i);
          }
          break;
        case kCachedInline:
        case kCachedAdaptive:
          // First sweep fills the block cache; the steady state is the
          // handle-probe hit path.
          for (int s = 0; s < sweeps; ++s) {
            for (uint64_t i = kHalf; i < kN; ++i) acc += a.get(i);
          }
          break;
        case kCached240:
          // As many reads per sweep as the double rows: 8 passes over the
          // 4,096 remote elements.
          for (uint64_t s = 0; s < sweeps * kHalf / (kBigN / 2); ++s) {
            for (uint64_t i = kBigN / 2; i < kBigN; ++i) {
              acc += big.view(i).v[0];
            }
          }
          break;
        case kPrefetchPublished: {
          // One get() sweep publishes every remote block; each prefetch
          // sweep after it finds them all in the table.
          std::vector<uint64_t> remote(kHalf);
          for (uint64_t i = 0; i < kHalf; ++i) remote[i] = kHalf + i;
          for (uint64_t i = kHalf; i < kN; ++i) acc += a.get(i);
          for (int s = 0; s < sweeps; ++s) a.prefetch(remote);
          break;
        }
        case kBulkReadN:
          // Same cached-remote range through the span path: the first
          // sweep fetches, later sweeps are per-block copies.
          for (int s = 0; s < sweeps; ++s) {
            a.read_n(kHalf, kHalf, buf.data());
            acc += buf[0] + buf[kHalf - 1];
          }
          break;
      }
      benchmark::DoNotOptimize(acc);
    });
  });
}

void BM_ReadElemFastPath(benchmark::State& state) {
  const auto path = static_cast<ReadPath>(state.range(0));
  constexpr int kShortSweeps = 2;
  constexpr int kLongSweeps = 34;
  for (auto _ : state) {
    uint64_t short_reads = 0, long_reads = 0;
    const RunResult s = run_sweeps(path, kShortSweeps, &short_reads);
    const RunResult r = run_sweeps(path, kLongSweeps, &long_reads);
    state.counters["per_read_ns"] =
        static_cast<double>(r.duration_ns - s.duration_ns) /
        static_cast<double>(long_reads - short_reads);
    // The long run's counters: the extra sweeps add no slow-path reads,
    // fetched blocks or prefetches once the first sweep cached everything.
    state.counters["slow_path_reads"] =
        static_cast<double>(r.slow_path_reads);
    state.counters["extra_slow_path_reads"] =
        static_cast<double>(r.slow_path_reads) -
        static_cast<double>(s.slow_path_reads);
    state.counters["blocks"] = static_cast<double>(r.remote_blocks_fetched);
    state.counters["prefetch_issued"] = static_cast<double>(r.prefetch_issued);
  }
}

}  // namespace

BENCHMARK(BM_ReadElemFastPath)->DenseRange(1, 6)->Iterations(1);

BENCHMARK_MAIN();

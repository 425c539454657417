// Simulator scaling — wall-clock throughput of the conservative-window
// parallel engine (docs/SIM.md).
//
// The same modeled CG solve on a fixed 16-node machine, swept over the
// host-thread count driving the simulation. Virtual time and every
// traffic counter are bit-identical across the sweep (that is the
// engine's determinism contract, gated in tools/ci.sh); the only thing
// that may change is `real_time` — how long the host takes to replay the
// run. BENCH_fig.json derives `wall_speedup` for each row from its
// sim_threads=1 twin.
//
// Caveat for readers of the numbers: speedup requires host cores. On a
// single-core host the sweep measures pure windowing overhead (barrier
// wakeups + cross-window merge), which is the honest baseline cost of
// the machinery.
//
// BM_Sim_FiberSwitch times the primitive under every simulated core: one
// fiber round trip (the engine resumes a fiber, the fiber yields back).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>

#include "apps/cg/cg_ppm.hpp"
#include "bench_common.hpp"
#include "core/ppm.hpp"
#include "sim/engine.hpp"

namespace {

using namespace ppm;
using namespace ppm::apps::cg;

void BM_SimScale_Cg(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int sim_threads = static_cast<int>(state.range(1));
  const double s = std::cbrt(bench::bench_scale());
  const ChimneyProblem problem{
      .nx = static_cast<uint64_t>(24 * s),
      .ny = static_cast<uint64_t>(24 * s),
      .nz = static_cast<uint64_t>(48 * s),
  };
  const CgOptions iters{.max_iterations = 8, .tolerance = 0.0};
  for (auto _ : state) {
    cluster::MachineConfig mc = bench::bench_machine(nodes);
    // Modeled-only virtual clock: identical events regardless of host
    // speed or thread count, so the sweep isolates host-side cost.
    mc.engine.calibration = sim::CalibrationMode::kModeledOnly;
    mc.sim_threads = sim_threads;
    cluster::Machine machine(mc);
    const RunResult r =
        run_on(machine, bench::bench_runtime_options(), [&](Env& env) {
          (void)cg_solve_ppm(env, problem, iters);
        });
    bench::report_run_counters(state, r);
    state.counters["windows"] =
        static_cast<double>(machine.window_stats().windows);
    state.counters["engine_activations"] =
        static_cast<double>(machine.window_stats().engine_activations);
  }
  state.counters["nodes"] = nodes;
  state.counters["sim_threads"] = sim_threads;
}

// Two fibers on one kModeledOnly engine yield to each other `round_trips`
// times each; only engine.run() is timed (not the stack mmaps of spawn).
// Each yield is one round trip: an event pop, a switch into the fiber and
// a switch back to the engine loop.
void BM_Sim_FiberSwitch(benchmark::State& state) {
  const int64_t round_trips = state.range(0);
  double run_ns = 0;
  for (auto _ : state) {
    sim::Engine engine;
    for (const char* name : {"ping", "pong"}) {
      engine.spawn(name, [&engine, round_trips] {
        for (int64_t i = 0; i < round_trips; ++i) engine.yield();
      });
    }
    const auto t0 = std::chrono::steady_clock::now();
    engine.run();
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    benchmark::DoNotOptimize(engine.events_fired());
    state.SetIterationTime(dt.count());
    run_ns += dt.count() * 1e9;
  }
  state.counters["ns_per_round_trip"] =
      run_ns / (static_cast<double>(state.iterations()) * 2 * round_trips);
}

}  // namespace

BENCHMARK(BM_Sim_FiberSwitch)
    ->Arg(100'000)->UseManualTime()->Unit(benchmark::kMillisecond);

BENCHMARK(BM_SimScale_Cg)
    ->Args({16, 1})->Args({16, 2})->Args({16, 4})->Args({16, 8})
    ->Iterations(1)->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();

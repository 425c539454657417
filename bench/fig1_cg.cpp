// Figure 1 — "Application Performance of the CG Solver".
//
// Runtime of a fixed number of CG iterations on the 27-point chimney
// diffusion system, PPM vs MPI, as the node count grows (4 cores per
// node, as on Franklin). Reported metric: `vtime_ms`, the simulated
// machine's virtual time for the solve. Expected shape (paper §4.5): the
// highly tuned MPI code wins clearly at 1 node (PPM pays shared-variable
// access overhead); the gap narrows as nodes are added and communication
// starts to dominate.
#include <benchmark/benchmark.h>

#include <cmath>

#include "apps/cg/cg_mpi.hpp"
#include "apps/cg/cg_ppm.hpp"
#include "bench_common.hpp"
#include "core/ppm.hpp"
#include "mp/comm.hpp"

namespace {

using namespace ppm;
using namespace ppm::apps::cg;

ChimneyProblem bench_problem() {
  const double s = std::cbrt(bench::bench_scale());
  return ChimneyProblem{
      .nx = static_cast<uint64_t>(24 * s),
      .ny = static_cast<uint64_t>(24 * s),
      .nz = static_cast<uint64_t>(48 * s),
  };
}

const CgOptions kIters{.max_iterations = 8, .tolerance = 0.0};

void BM_Fig1_CgPpm(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const ChimneyProblem problem = bench_problem();
  for (auto _ : state) {
    cluster::Machine machine(bench::bench_machine(nodes));
    const RunResult r =
        run_on(machine, bench::bench_runtime_options(), [&](Env& env) {
          (void)cg_solve_ppm(env, problem, kIters);
        });
    bench::report_run_counters(state, r);
  }
  state.counters["nodes"] = nodes;
  // Matrix order of the chimney system (constant across node counts:
  // this is a strong-scaling figure). Named explicitly so the column is
  // self-describing next to the traffic counters; the MPI rows report
  // the same value.
  state.counters["problem_unknowns"] = static_cast<double>(problem.unknowns());
}

void BM_Fig1_CgMpi(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const ChimneyProblem problem = bench_problem();
  for (auto _ : state) {
    cluster::Machine machine(bench::bench_machine(nodes));
    mp::World world(machine);
    machine.run_per_core([&](const cluster::Place& place) {
      mp::Comm comm = world.comm_at(place);
      (void)cg_solve_mpi(comm, problem, kIters);
    });
    state.counters["vtime_ms"] =
        static_cast<double>(machine.last_run_duration_ns()) * 1e-6;
    const auto& fs = machine.fabric().stats();
    state.counters["net_msgs"] =
        static_cast<double>(fs.inter_messages.value());
    state.counters["net_MB"] =
        static_cast<double>(fs.inter_bytes.value()) / 1048576.0;
  }
  state.counters["nodes"] = nodes;
  state.counters["problem_unknowns"] = static_cast<double>(problem.unknowns());
}

// Figure 1 extended past the paper's axis: the same strong-scaling solve
// on 64-1024 simulated nodes. Modeled-only calibration (the virtual
// clock is a pure function of the cost model, so rows are reproducible
// bit-for-bit) and the conservative-window parallel engine + lazy block
// store (docs/SIM.md) make thousand-node machines tractable in one
// host process. Args are {nodes, sim_threads}; the 256-node row runs at
// both thread counts so BENCH_fig.json carries a wall_speedup column.
// The 8-node row is the reduction-primitive pin: CG's dot-product phases
// ride Env::reduce/reduce_dot, so its reduction_bytes_saved counter and
// the message/byte totals record the commit-barrier win over the
// fetch-based dot path (bench/perf_baseline.json pins the same shape for
// the CI gate).
void BM_Fig1_CgPpmModeled(benchmark::State& state) {
  const int nodes = static_cast<int>(state.range(0));
  const int sim_threads = static_cast<int>(state.range(1));
  const ChimneyProblem problem = bench_problem();
  for (auto _ : state) {
    cluster::MachineConfig mc = bench::bench_machine(nodes);
    mc.engine.calibration = sim::CalibrationMode::kModeledOnly;
    mc.sim_threads = sim_threads;
    cluster::Machine machine(mc);
    const RunResult r =
        run_on(machine, bench::bench_runtime_options(), [&](Env& env) {
          (void)cg_solve_ppm(env, problem, kIters);
        });
    bench::report_run_counters(state, r);
    state.counters["windows"] =
        static_cast<double>(machine.window_stats().windows);
  }
  state.counters["nodes"] = nodes;
  state.counters["sim_threads"] = sim_threads;
  state.counters["problem_unknowns"] = static_cast<double>(problem.unknowns());
}

}  // namespace

BENCHMARK(BM_Fig1_CgPpm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig1_CgMpi)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Arg(16)
    ->Iterations(1)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Fig1_CgPpmModeled)
    ->Args({8, 1})
    ->Args({64, 1})->Args({256, 1})->Args({256, 4})->Args({1024, 4})
    ->Iterations(1)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();

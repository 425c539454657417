// ppm_perfbench: runs one workload of the repository benchmark and writes
// every measurement as one JSON document (run.py turns it into the
// benchmark's result line).
//
//   ppm_perfbench --workload cg-fig1-8n --seed 1 --seconds 10 --trace 0
//                 --out result.json [--tiny] [--plant-bad-reference]
//
// Everything is measured from outside the library: host time around calls
// into public functions (input generators, the Machine and Runtime
// constructors, run_per_node/run_per_core, Runtime::collect), plus the
// counters the layers already publish (RunResult, counter_rollup,
// trace_summary, phase_profiles, Fabric::stats, Machine::window_stats,
// Engine::events_fired). Each timed call is recorded as a host-time span
// (name, start, end, parent) and the spans are written out at exit.
//
// A run times set-up alone several times (setup_s: input generation plus
// the Machine and Runtime constructors) before and after repeating rounds
// until --seconds have passed. A round is one untraced modeled-only PPM run
// (vtime_modeled_ms, wall_s). Host times are the fastest of their repeats
// (see fastest()); every sample is kept in the record. Every run's output
// is checked against the serial reference computed once at start-up.
// With --trace 1 a round also runs PPM with measured compute
// (vtime_calibrated_ms) and the message-passing twin where the workload has
// one (gap_vs_mpi), and one more modeled-only run with tracing and phase
// profiles on gives the per-layer numbers.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/cg/cg_mpi.hpp"
#include "apps/cg/cg_ppm.hpp"
#include "apps/cg/cg_serial.hpp"
#include "apps/graph/graph.hpp"
#include "apps/graph/graph_ppm.hpp"
#include "apps/nbody/nbody_mpi.hpp"
#include "apps/nbody/nbody_ppm.hpp"
#include "apps/nbody/nbody_serial.hpp"
#include "bench_common.hpp"
#include "core/ppm.hpp"
#include "mp/comm.hpp"
#include "util/rng.hpp"

namespace {

using namespace ppm;
using Clock = std::chrono::steady_clock;
using Metrics = std::vector<std::pair<std::string, double>>;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 != 0 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// The fastest sample. Host times are reported this way: on a shared host,
/// neighbours slow whole stretches of seconds by up to 60%, so a median
/// follows how busy the host was, while the fastest of many repeats of the
/// same deterministic work follows it far less (set-up of cg-fig1-8n: the
/// median of four runs spread 61%, the fastest 4%).
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---- Host-time spans --------------------------------------------------

class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  /// Run `body` inside a span named `name` (child of the innermost open
  /// span) and return its host duration in seconds.
  template <typename F>
  double time(std::string name, F&& body) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({std::move(name), open_.empty() ? -1 : open_.back(),
                      now(), 0.0});
    open_.push_back(id);
    body();
    open_.pop_back();
    spans_[static_cast<size_t>(id)].end_s = now();
    return spans_[static_cast<size_t>(id)].end_s -
           spans_[static_cast<size_t>(id)].start_s;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }
  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// ---- Applications -----------------------------------------------------

/// One app of the benchmark: its input generator, serial reference, PPM
/// node program, message-passing twin and output checks. Checks return an
/// empty string on success, else the reason.
class App {
 public:
  virtual ~App() = default;
  virtual void generate(uint64_t seed) = 0;
  virtual void solve_serial() = 0;
  /// Corrupt the reference so every later check must fail (self-test).
  virtual void plant_bad_reference() = 0;
  virtual void ppm_program(Env& env) = 0;
  /// Called after the PPM run, with its Runtime still alive.
  virtual std::string check_ppm(Runtime& runtime) = 0;
  /// The message-passing twin, for workloads that run one.
  virtual void mpi_program(mp::Comm&) {}
  virtual std::string check_mpi() { return "no message-passing twin"; }
  virtual Metrics properties() const = 0;
};

/// Reassemble a global array from every node's committed elements (any
/// distribution), outside phases, after the run.
template <typename T>
std::vector<T> gather_committed(Runtime& rt, uint32_t id, uint64_t n) {
  std::vector<Bytes> packed;
  std::vector<size_t> cursor(static_cast<size_t>(rt.nodes()), 0);
  for (int node = 0; node < rt.nodes(); ++node) {
    packed.push_back(rt.node(node).pack_owned_elems(id));
  }
  std::vector<T> out(n);
  for (uint64_t i = 0; i < n; ++i) {
    const auto owner = static_cast<size_t>(rt.node(0).owner_of(id, i));
    std::memcpy(&out[i], packed[owner].data() + cursor[owner], sizeof(T));
    cursor[owner] += sizeof(T);
  }
  return out;
}

std::string check_residuals(const std::vector<double>& got,
                            const std::vector<double>& ref) {
  if (got.size() != ref.size()) {
    return "residual history has " + std::to_string(got.size()) +
           " entries, reference " + std::to_string(ref.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (!(std::fabs(got[i] - ref[i]) <= 1e-6 * (1 + ref[i]))) {
      return "residual " + std::to_string(i) + " is " +
             std::to_string(got[i]) + ", reference " + std::to_string(ref[i]);
    }
  }
  return {};
}

class CgApp final : public App {
 public:
  CgApp(apps::cg::ChimneyProblem problem, int iterations)
      : problem_(problem),
        options_{.max_iterations = iterations, .tolerance = 0.0} {}

  void generate(uint64_t /*seed*/) override {
    matrix_ = apps::cg::build_chimney_matrix(problem_);
    rhs_ = apps::cg::build_chimney_rhs(problem_);
  }
  void solve_serial() override {
    reference_ =
        apps::cg::cg_solve_serial(matrix_, rhs_, options_).residual_history;
  }
  void plant_bad_reference() override { reference_.front() *= 1.5; }

  void ppm_program(Env& env) override {
    auto out = apps::cg::cg_solve_ppm(env, problem_, options_);
    if (env.node_id() == 0) ppm_residuals_ = std::move(out.residual_history);
  }
  std::string check_ppm(Runtime&) override {
    return check_residuals(ppm_residuals_, reference_);
  }
  void mpi_program(mp::Comm& comm) override {
    auto out = apps::cg::cg_solve_mpi(comm, problem_, options_);
    if (comm.rank() == 0) mpi_residuals_ = std::move(out.residual_history);
  }
  std::string check_mpi() override {
    return check_residuals(mpi_residuals_, reference_);
  }
  Metrics properties() const override {
    return {{"unknowns", static_cast<double>(problem_.unknowns())},
            {"nonzeros", static_cast<double>(matrix_.nnz())},
            {"grid_nx", static_cast<double>(problem_.nx)},
            {"grid_ny", static_cast<double>(problem_.ny)},
            {"grid_nz", static_cast<double>(problem_.nz)},
            {"iterations", static_cast<double>(options_.max_iterations)}};
  }

 private:
  apps::cg::ChimneyProblem problem_;
  apps::cg::CgOptions options_;
  apps::cg::CsrMatrix matrix_;
  std::vector<double> rhs_;
  std::vector<double> reference_, ppm_residuals_, mpi_residuals_;
};

class BarnesHutApp final : public App {
 public:
  BarnesHutApp(uint64_t bodies, int steps)
      : bodies_(bodies),
        options_{.theta = 0.5, .eps = 0.01, .dt = 0.002, .steps = steps} {}

  /// The Fig.3 bench's Plummer sphere with every position moved by at
  /// most kJitter per axis, drawn from `seed`. Independent Plummer draws
  /// move vtime by +-10%, which would drown the changes the benchmark is
  /// meant to resolve; the jitter keeps seeds distinct inputs of one
  /// workload.
  void generate(uint64_t seed) override {
    init_ = apps::nbody::make_plummer(bodies_, kPlummerSeed);
    Rng rng(seed);
    for (uint64_t i = 0; i < bodies_; ++i) {
      init_.px[i] += rng.next_double_in(-kJitter, kJitter);
      init_.py[i] += rng.next_double_in(-kJitter, kJitter);
      init_.pz[i] += rng.next_double_in(-kJitter, kJitter);
    }
    mpi_final_.resize(bodies_);
  }
  void solve_serial() override {
    reference_ = init_;
    apps::nbody::simulate_serial_bh(reference_, options_);
  }
  void plant_bad_reference() override { reference_.px.front() += 1.0; }

  void ppm_program(Env& env) override {
    auto st = apps::nbody::setup_nbody_ppm(env, init_);
    apps::nbody::simulate_ppm(env, st, options_);
    if (env.node_id() == 0) position_ids_ = {st.px.id(), st.py.id(), st.pz.id()};
  }
  std::string check_ppm(Runtime& runtime) override {
    apps::nbody::BodySet got;
    got.px = gather_committed<double>(runtime, position_ids_[0], bodies_);
    got.py = gather_committed<double>(runtime, position_ids_[1], bodies_);
    got.pz = gather_committed<double>(runtime, position_ids_[2], bodies_);
    return check_positions(got);
  }
  void mpi_program(mp::Comm& comm) override {
    auto st = apps::nbody::setup_nbody_mpi(comm, init_);
    apps::nbody::simulate_mpi(comm, st, options_);
    // Collect the ranks' slices without a gather on the simulated machine,
    // so the twin's vtime is the simulation alone (as on the PPM side).
    for (uint64_t i = 0; i < st.local.size(); ++i) {
      mpi_final_.px[st.begin + i] = st.local.px[i];
      mpi_final_.py[st.begin + i] = st.local.py[i];
      mpi_final_.pz[st.begin + i] = st.local.pz[i];
    }
  }
  std::string check_mpi() override { return check_positions(mpi_final_); }
  Metrics properties() const override {
    return {{"bodies", static_cast<double>(bodies_)},
            {"steps", static_cast<double>(options_.steps)}};
  }

 private:
  std::string check_positions(const apps::nbody::BodySet& got) const {
    if (got.size() != bodies_) return "wrong body count";
    double worst = 0;
    for (uint64_t i = 0; i < bodies_; ++i) {
      const auto d = got.position(i) - reference_.position(i);
      worst = std::max(worst, std::sqrt(d.norm2()));
    }
    if (!(worst < 5e-3)) {
      return "max position deviation " + std::to_string(worst) +
             " from the serial reference (limit 5e-3)";
    }
    return {};
  }

  static constexpr uint64_t kPlummerSeed = 2009;
  static constexpr double kJitter = 1e-4;  // mean body spacing is ~0.05

  uint64_t bodies_;
  apps::nbody::NbodyOptions options_;
  apps::nbody::BodySet init_, reference_, mpi_final_;
  std::array<uint32_t, 3> position_ids_{};
};

class ComponentsApp final : public App {
 public:
  explicit ComponentsApp(uint64_t vertices) : vertices_(vertices) {}

  /// One R-MAT graph with each vertex's neighbor list shuffled by `seed`:
  /// the same graph (and labels) in a different access order. Independent
  /// R-MAT draws move vtime by +-10% (hub placement), see BarnesHutApp.
  void generate(uint64_t seed) override {
    graph_ = apps::graph::make_rmat_graph(vertices_, 8.0, kRmatSeed);
    Rng rng(seed);
    for (uint64_t v = 0; v < graph_.num_vertices; ++v) {
      if (rng.next_below(100) != 0) continue;
      const uint64_t first = graph_.row_ptr[v];
      for (uint64_t k = graph_.row_ptr[v + 1] - first; k > 1; --k) {
        std::swap(graph_.adjacency[first + k - 1],
                  graph_.adjacency[first + rng.next_below(k)]);
      }
    }
  }
  void solve_serial() override {
    reference_ = apps::graph::components_serial(graph_);
  }
  void plant_bad_reference() override { reference_.back() = -7; }

  void ppm_program(Env& env) override {
    auto labels =
        apps::graph::components_ppm(env, graph_, Distribution::kAdaptive);
    if (env.node_id() == 0) ppm_labels_ = std::move(labels);
  }
  std::string check_ppm(Runtime&) override {
    return check_labels(ppm_labels_);
  }
  Metrics properties() const override {
    return {{"vertices", static_cast<double>(graph_.num_vertices)},
            {"edges", static_cast<double>(graph_.num_edges())}};
  }

 private:
  std::string check_labels(const std::vector<int64_t>& got) const {
    if (got != reference_) return "component labels differ from the serial reference";
    return {};
  }

  static constexpr uint64_t kRmatSeed = 7;

  uint64_t vertices_;
  apps::graph::Graph graph_;
  std::vector<int64_t> reference_, ppm_labels_;
};

// ---- Workloads --------------------------------------------------------

struct Workload {
  std::string name;
  int nodes = 8;
  /// MachineConfig::sim_threads of the modeled runs (0 = classic engine)
  /// and of the calibrated runs (1 keeps compute measurement on a single
  /// host thread).
  int modeled_sim_threads = 0;
  int calibrated_sim_threads = 0;
  bool adaptive = false;
  bool mpi_twin = false;
  /// Trace ring capacity per track for the traced run. 0 runs it with
  /// phase profiles only: the ring is sized alike for every track, and at
  /// 256 nodes the fabric track alone would need 1.7 M events (x 258
  /// tracks x 40 bytes), so the per-layer numbers come from counters and
  /// phase profiles and the trace-only ones read 0.
  uint32_t trace_buffer_events = 1 << 16;
  std::unique_ptr<App> app;
};

/// The chimney of Figure 1 (24x24x48) with 47, 48 or 49 planes taken from
/// the seed, so each seed is a distinct input of the same shape. (Plane
/// shapes of equal area, e.g. 18x32, leave vtime_modeled bit-identical.)
apps::cg::ChimneyProblem chimney_for_seed(uint64_t seed, bool tiny) {
  if (tiny) return {.nx = 8, .ny = 8, .nz = 16};
  return {.nx = 24, .ny = 24, .nz = 47 + seed % 3};
}

Workload make_workload(const std::string& name, uint64_t seed, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "cg-fig1-8n") {
    w.mpi_twin = true;
    w.app = std::make_unique<CgApp>(chimney_for_seed(seed, tiny),
                                    tiny ? 10 : 100);
  } else if (name == "bh-fig3-8n") {
    w.mpi_twin = true;
    w.app = std::make_unique<BarnesHutApp>(tiny ? 600 : 12'000, 2);
  } else if (name == "components-8n") {
    w.adaptive = true;
    w.trace_buffer_events = 1 << 18;
    w.app = std::make_unique<ComponentsApp>(tiny ? 2'000 : 200'000);
  } else if (name == "cg-scale-256n") {
    w.nodes = tiny ? 16 : 256;
    w.modeled_sim_threads = 4;
    w.calibrated_sim_threads = 1;
    w.trace_buffer_events = 0;
    w.app = std::make_unique<CgApp>(chimney_for_seed(seed, tiny), 8);
  } else {
    return w;  // app stays null: unknown workload
  }
  return w;
}

// ---- Runs ------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  bool plant_bad_reference = false;
  std::string out;
};

/// Everything one PPM run leaves behind for the metrics.
struct PpmRun {
  RunResult result;
  double wall_s = 0, collect_s = 0;
  uint64_t events = 0;
  sim::WindowStats windows;
  std::vector<NodeRuntime::PhaseProfile> profiles;  // all nodes
  uint64_t trace_recorded = 0, trace_dropped = 0;
};

class Bench {
 public:
  Bench(Args args, Workload workload)
      : args_(std::move(args)), w_(std::move(workload)) {}

  int run() {
    spans_.time("workload " + w_.name, [&] {
      spans_.time("app.reference", [&] {
        spans_.time("app.generate", [&] { w_.app->generate(args_.seed); });
        serial_s_ = spans_.time("app.serial", [&] { w_.app->solve_serial(); });
      });
      if (args_.plant_bad_reference) w_.app->plant_bad_reference();
      // Set-up is short next to a run, so it is timed on its own, for a
      // twentieth of the budget before the rounds and one after them: a
      // host slowed for seconds at one end rarely is at both. (Set-ups
      // interleaved with the rounds fragment the heap: peak_rss_mb then
      // spreads by 10%.)
      const double window_s = args_.seconds / 20;
      time_setups(window_s, kSetupReps);
      const auto deadline =
          Clock::now() + std::chrono::duration<double>(args_.seconds - 2 * window_s);
      // Measured compute folds host noise, x3, into virtual time (5-seed
      // spreads of 7-21%), so calibrated runs only feed per-layer numbers.
      do {
        spans_.time("round", [&] {
          modeled_.push_back(run_ppm(/*calibrated=*/false, /*traced=*/false));
          if (args_.trace) {
            calibrated_.push_back(run_ppm(/*calibrated=*/true, false));
            if (w_.mpi_twin) run_mpi();
          }
        });
      } while (Clock::now() < deadline);
      // Read before the last set-ups, which land in a heap the rounds left
      // fragmented (+-15% from run to run).
      struct rusage ru {};
      getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
      time_setups(window_s, 0);
      if (args_.trace) traced_ = run_ppm(false, /*traced=*/true);
    });
    return write_json();
  }

 private:
  cluster::MachineConfig machine_config(bool calibrated) const {
    cluster::MachineConfig mc = bench::bench_machine(w_.nodes);
    mc.engine.calibration = calibrated ? sim::CalibrationMode::kMeasured
                                       : sim::CalibrationMode::kModeledOnly;
    mc.sim_threads =
        calibrated ? w_.calibrated_sim_threads : w_.modeled_sim_threads;
    return mc;
  }

  struct Setup {
    double input_s = 0, machine_s = 0, runtime_s = 0;
    double total() const { return input_s + machine_s + runtime_s; }
  };
  static constexpr int kSetupReps = 5;
  static constexpr int kSetupRepsMax = 100;  // per window

  /// Time at least `min_reps` set-ups, then more until `seconds` have
  /// passed.
  void time_setups(double seconds, int min_reps) {
    spans_.time("setups", [&] {
      const auto end = Clock::now() + std::chrono::duration<double>(seconds);
      for (int i = 0;
           i < min_reps || (Clock::now() < end && i < kSetupRepsMax); ++i) {
        setups_.push_back(time_setup());
      }
    });
  }

  /// Set-up as a user pays it: input generation, then the Machine and
  /// Runtime constructors of a modeled run.
  Setup time_setup() {
    Setup s;
    spans_.time("setup", [&] {
      s.input_s = spans_.time("setup.input",
                              [&] { w_.app->generate(args_.seed); });
      std::unique_ptr<cluster::Machine> machine;
      s.machine_s = spans_.time("setup.machine", [&] {
        machine = std::make_unique<cluster::Machine>(machine_config(false));
      });
      s.runtime_s = spans_.time("setup.runtime", [&] {
        Runtime runtime(*machine, run_options(false));
      });
    });
    return s;
  }

  RuntimeOptions run_options(bool traced) const {
    RuntimeOptions opts = bench::bench_runtime_options();
    opts.adaptive_distribution = w_.adaptive;
    if (traced) {
      opts.trace = w_.trace_buffer_events > 0;
      opts.profile_phases = true;
      opts.trace_buffer_events = std::max(1u, w_.trace_buffer_events);
    }
    return opts;
  }

  void fail(const std::string& run, const std::string& why) {
    failures_.push_back(run + ": " + why);
  }

  /// Run `body` as one attempted run inside a span; it counts as failed
  /// if its checks recorded any failure.
  template <typename F>
  void attempt(std::string span, F&& body) {
    ++attempted_;
    const size_t before = failures_.size();
    spans_.time(std::move(span), body);
    if (failures_.size() != before) ++failed_;
  }

  PpmRun run_ppm(bool calibrated, bool traced) {
    const std::string kind =
        traced ? "traced" : (calibrated ? "calibrated" : "modeled");
    const RuntimeOptions opts = run_options(traced);
    PpmRun pr;
    attempt("ppm." + kind, [&] {
      std::unique_ptr<cluster::Machine> machine;
      std::unique_ptr<Runtime> runtime;
      spans_.time("setup", [&] {
        machine = std::make_unique<cluster::Machine>(machine_config(calibrated));
        runtime = std::make_unique<Runtime>(*machine, opts);
      });
      pr.wall_s = spans_.time("run", [&] {
        spans_.time("run.run_per_node", [&] {
          machine->run_per_node([&](int node) {
            NodeRuntime& nr = runtime->node(node);
            nr.start();
            Env env(nr);
            w_.app->ppm_program(env);
            nr.finish();
          });
        });
        pr.collect_s = spans_.time("run.collect",
                                   [&] { pr.result = runtime->collect(); });
      });
      spans_.time("check", [&] {
        if (const std::string why = w_.app->check_ppm(*runtime); !why.empty()) {
          fail(kind, why);
        }
      });
      if (machine->windowed()) {
        for (int n = 0; n < machine->nodes(); ++n) {
          pr.events += machine->engine_for_node(n).events_fired();
        }
      } else {
        pr.events = machine->engine().events_fired();
      }
      pr.windows = machine->window_stats();
      for (int n = 0; n < runtime->nodes(); ++n) {
        for (const auto& p : runtime->node(n).phase_profiles()) {
          pr.profiles.push_back(p);
        }
      }
      if (const trace::Trace* t = runtime->trace()) {
        pr.trace_recorded = t->total_recorded();
        pr.trace_dropped = t->total_dropped();
      }
      if (!calibrated) check_modeled_repeat(kind, pr);
      if (pr.trace_dropped != 0) {
        // A trace that lost events does not describe the run: its
        // per-layer numbers must not be published.
        fail(kind, std::to_string(pr.trace_dropped) +
                       " trace events dropped (raise trace_buffer_events)");
      }
    });
    return pr;
  }

  /// Modeled-only runs of one input must agree bit for bit.
  void check_modeled_repeat(const std::string& kind, const PpmRun& pr) {
    if (modeled_.empty()) return;  // this is the first: it sets the value
    const RunResult& first = modeled_.front().result;
    if (pr.result.duration_ns != first.duration_ns) {
      fail(kind, "vtime_modeled " + std::to_string(pr.result.duration_ns) +
                     " ns differs from the first modeled run's " +
                     std::to_string(first.duration_ns));
    }
    if (pr.result.network_bytes != first.network_bytes) {
      fail(kind, "net.bytes " + std::to_string(pr.result.network_bytes) +
                     " differs from the first modeled run's " +
                     std::to_string(first.network_bytes));
    }
  }

  void run_mpi() {
    attempt("mpi.calibrated", [&] {
      std::unique_ptr<cluster::Machine> machine;
      std::unique_ptr<mp::World> world;
      spans_.time("setup", [&] {
        machine = std::make_unique<cluster::Machine>(machine_config(true));
        world = std::make_unique<mp::World>(*machine);
      });
      spans_.time("run.run_per_core", [&] {
        machine->run_per_core([&](const cluster::Place& place) {
          mp::Comm comm = world->comm_at(place);
          w_.app->mpi_program(comm);
        });
      });
      mpi_vtime_ms_.push_back(
          static_cast<double>(machine->last_run_duration_ns()) * 1e-6);
      const auto& fs = machine->fabric().stats();
      mpi_messages_ = static_cast<double>(fs.inter_messages.value());
      mpi_bytes_ = static_cast<double>(fs.inter_bytes.value());
      spans_.time("check", [&] {
        if (const std::string why = w_.app->check_mpi(); !why.empty()) {
          fail("mpi", why);
        }
      });
    });
  }

  // ---- Metrics ----

  template <typename Sample>
  static double fastest_of(double Sample::* field,
                           const std::vector<Sample>& runs) {
    std::vector<double> v;
    for (const auto& r : runs) v.push_back(r.*field);
    return fastest(v);
  }

  std::vector<double> calibrated_ms() const {
    std::vector<double> v;
    for (const auto& r : calibrated_) v.push_back(r.result.duration_s() * 1e3);
    return v;
  }

  Metrics end_to_end() const {
    std::vector<double> setup;
    for (const auto& s : setups_) setup.push_back(s.total());
    return {
        {"vtime_modeled_ms", modeled_.front().result.duration_s() * 1e3},
        {"wall_s", fastest_of(&PpmRun::wall_s, modeled_)},
        {"setup_s", fastest(setup)},
        {"peak_rss_mb", peak_rss_mb_},
    };
  }

  Metrics per_layer() const {
    const PpmRun& t = *traced_;
    const RunResult& r = t.result;
    const double wall = fastest_of(&PpmRun::wall_s, modeled_);
    const double calibrated = median(calibrated_ms());
    const double nodes = static_cast<double>(w_.nodes);

    // Per-phase critical path from every node's phase profile: the
    // slowest node's compute and commit per phase, rolled up per label.
    struct PhaseAgg {
      std::string label;
      int64_t compute_max = 0, compute_min = INT64_MAX, commit_max = 0;
      uint64_t stall = 0;
    };
    std::map<uint64_t, PhaseAgg> phases;
    for (const auto& p : t.profiles) {
      PhaseAgg& a = phases[p.phase_index];
      a.label = p.label;
      a.compute_max = std::max(a.compute_max, p.compute_ns());
      a.compute_min = std::min(a.compute_min, p.compute_ns());
      a.commit_max = std::max(a.commit_max, p.commit_ns());
      a.stall += p.fetch_stall_ns;
    }
    double compute = 0, commit = 0, imb_max = 0, imb_sum = 0;
    std::map<std::string, std::array<double, 3>> labels;
    for (const auto& [index, a] : phases) {
      compute += static_cast<double>(a.compute_max);
      commit += static_cast<double>(a.commit_max);
      const double imb =
          a.compute_max > 0
              ? static_cast<double>(a.compute_max - a.compute_min) /
                    static_cast<double>(a.compute_max)
              : 0.0;
      imb_max = std::max(imb_max, imb);
      imb_sum += imb;
      auto& l = labels[a.label];
      l[0] += static_cast<double>(a.compute_max);
      l[1] += static_cast<double>(a.commit_max);
      l[2] += static_cast<double>(a.stall);
    }
    auto rollup = [&](const char* name) {
      for (const auto& row : r.counter_rollup) {
        if (row.name == name) {
          return ratio(static_cast<double>(row.max),
                       static_cast<double>(row.sum) / nodes);
        }
      }
      return 0.0;
    };
    const auto d = [](uint64_t v) { return static_cast<double>(v); };
    const trace::Summary& ts = r.trace_summary;
    Metrics m = {
        {"app.input_s", fastest_of(&Setup::input_s, setups_)},
        {"app.serial_s", serial_s_},
        {"app.wall_over_serial", ratio(wall, serial_s_)},
        {"setup.machine_s", fastest_of(&Setup::machine_s, setups_)},
        {"setup.runtime_s", fastest_of(&Setup::runtime_s, setups_)},
        {"sim.events", d(t.events)},
        {"sim.events_per_s", ratio(d(t.events), wall)},
        {"sim.windows", d(t.windows.windows)},
        {"sim.engine_activations", d(t.windows.engine_activations)},
        {"sim.activations_per_window",
         ratio(d(t.windows.engine_activations), d(t.windows.windows))},
        {"net.messages", d(r.network_messages)},
        {"net.bytes", d(r.network_bytes)},
        {"net.bytes_per_message",
         ratio(d(r.network_bytes), d(r.network_messages))},
        {"net.intranode_messages", d(r.intranode_messages)},
        {"net.intranode_bytes", d(r.intranode_bytes)},
        {"core.collect_s", fastest_of(&PpmRun::collect_s, modeled_)},
        // Read-path counts come from RunResult, not trace_summary: the
        // inline cached-read path records no trace events.
        {"core.read.cached", d(r.remote_reads_served_from_cache)},
        {"core.read.slow_path", d(r.slow_path_reads)},
        {"core.read.fetches", d(r.remote_blocks_fetched)},
        {"core.read.reads_per_fetch",
         ratio(d(r.remote_reads_served_from_cache), d(r.remote_blocks_fetched))},
        {"core.read.stall_vns", d(r.fetch_stall_ns)},
        {"core.read.fetch_latency_vns", d(ts.fetch_latency_ns)},
        {"core.read.overlap_efficiency", ts.overlap_efficiency()},
        {"core.read.prefetch_issued", d(r.prefetch_issued)},
        {"core.read.prefetch_useful",
         ratio(d(r.prefetch_hits), d(r.prefetch_issued))},
        {"core.write.entries", d(r.write_entries)},
        {"core.write.combined", d(r.entries_combined)},
        {"core.write.bundles", d(r.bundles_sent)},
        {"core.write.entries_per_bundle",
         ratio(d(r.write_entries), d(r.bundles_sent))},
        {"core.write.accums", d(r.accums_executed)},
        {"core.write.reduction_bytes_saved", d(r.reduction_bytes_saved)},
        {"core.phase.count", d(phases.size())},
        {"core.phase.compute_vns", compute},
        {"core.phase.commit_vns", commit},
        {"core.phase.imbalance_max", imb_max},
        {"core.phase.imbalance_mean", ratio(imb_sum, d(phases.size()))},
        {"core.phase.attributed_ratio",
         ratio(compute + commit, static_cast<double>(r.duration_ns))},
    };
    for (const char* label : {"init", "spmv", "axpy", "p_update"}) {
      const auto it = labels.find(label);
      const std::array<double, 3> v =
          it != labels.end() ? it->second : std::array<double, 3>{};
      const std::string prefix = std::string("core.label.") + label;
      m.emplace_back(prefix + ".compute_vns", v[0]);
      m.emplace_back(prefix + ".commit_vns", v[1]);
      m.emplace_back(prefix + ".stall_vns", v[2]);
    }
    const double traced_wall = t.wall_s;
    Metrics tail = {
        {"core.node.stall_max_over_mean", rollup("fetch_stall_ns")},
        {"core.node.write_entries_max_over_mean", rollup("write_entries")},
        {"core.locality.blocks_migrated", d(r.blocks_migrated)},
        {"core.locality.migration_bytes", d(r.migration_bytes)},
        {"core.locality.remote_to_local", d(r.remote_to_local_conversions)},
        {"vtime_calibrated_ms", calibrated},
        {"gap_vs_mpi", ratio(calibrated, median(mpi_vtime_ms_))},
        {"mp.vtime_calibrated_ms", median(mpi_vtime_ms_)},
        {"mp.messages", mpi_messages_},
        {"mp.bytes", mpi_bytes_},
        {"trace.events", d(t.trace_recorded)},
        {"trace.dropped", d(t.trace_dropped)},
        {"trace.overhead_ratio", ratio(traced_wall, wall)},
        {"failed_frac", ratio(d(failed_), d(attempted_))},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
  }

  // ---- Output ----

  static void put_metrics(FILE* f, const char* key, const Metrics& m) {
    std::fprintf(f, "\"%s\": {", key);
    for (size_t i = 0; i < m.size(); ++i) {
      // Non-finite values become null, which run.py refuses to publish.
      std::fprintf(f, "%s\"%s\": ", i != 0 ? ", " : "", m[i].first.c_str());
      if (std::isfinite(m[i].second)) {
        std::fprintf(f, "%.17g", m[i].second);
      } else {
        std::fprintf(f, "null");
      }
    }
    std::fprintf(f, "}");
  }

  static std::string escape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  int write_json() {
    FILE* f = std::fopen(args_.out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", args_.out.c_str());
      return 1;
    }
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, ",
                 w_.name.c_str(), static_cast<unsigned long long>(args_.seed),
                 args_.seconds);
    std::fprintf(f,
                 "\"provenance\": {\"build_type\": \"%s\", \"compiler\": "
                 "\"%s\", \"host_threads\": %u, \"calibration\": %.17g, "
                 "\"nodes\": %d, \"cores_per_node\": %d},\n",
                 PERFBENCH_BUILD_TYPE, escape(__VERSION__).c_str(),
                 std::thread::hardware_concurrency(),
                 bench::calibration_factor(), w_.nodes, bench::kCoresPerNode);
    Metrics inputs = w_.app->properties();
    const RunResult& first = modeled_.front().result;
    inputs.emplace_back("reads_per_fetch",
                        ratio(static_cast<double>(first.remote_reads_served_from_cache),
                              static_cast<double>(first.remote_blocks_fetched)));
    inputs.emplace_back("write_entries", static_cast<double>(first.write_entries));
    put_metrics(f, "inputs", inputs);
    // Every sample behind a median, so a record can be re-analyzed.
    std::vector<double> setup, wall;
    for (const auto& s : setups_) setup.push_back(s.total());
    for (const auto& r : modeled_) wall.push_back(r.wall_s);
    const std::pair<const char*, std::vector<double>> samples[] = {
        {"setup_s", setup},
        {"wall_s", wall},
        {"vtime_calibrated_ms", calibrated_ms()},
        {"mpi_vtime_calibrated_ms", mpi_vtime_ms_}};
    std::fprintf(f, ",\n\"samples\": {");
    for (const auto& [key, values] : samples) {
      std::fprintf(f, "%s\"%s\": [", key == samples[0].first ? "" : ", ", key);
      for (size_t i = 0; i < values.size(); ++i) {
        std::fprintf(f, "%s%.9g", i != 0 ? ", " : "", values[i]);
      }
      std::fprintf(f, "]");
    }
    std::fprintf(f, "},\n");
    std::fprintf(f, "\"attempted\": %llu, \"failed\": %llu, \"failures\": [",
                 static_cast<unsigned long long>(attempted_),
                 static_cast<unsigned long long>(failed_));
    for (size_t i = 0; i < failures_.size(); ++i) {
      std::fprintf(f, "%s\"%s\"", i != 0 ? ", " : "",
                   escape(failures_[i]).c_str());
    }
    std::fprintf(f, "],\n");
    put_metrics(f, "end_to_end", end_to_end());
    if (traced_) {
      std::fprintf(f, ",\n");
      put_metrics(f, "per_layer", per_layer());
    }
    std::fprintf(f, ",\n\"spans\": [\n");
    const auto& spans = spans_.spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": %d, \"name\": \"%s\", "
                   "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                   i, spans[i].parent, escape(spans[i].name).c_str(),
                   spans[i].start_s, spans[i].end_s,
                   i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0 ? 0 : 1;
  }

  Args args_;
  Workload w_;
  SpanLog spans_;
  double serial_s_ = 0, peak_rss_mb_ = 0;
  std::vector<Setup> setups_;
  std::vector<PpmRun> modeled_, calibrated_;
  std::optional<PpmRun> traced_;
  std::vector<double> mpi_vtime_ms_;
  double mpi_messages_ = 0, mpi_bytes_ = 0;
  uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--out FILE [--tiny] [--plant-bad-reference]\n"
               "workloads: cg-fig1-8n bh-fig3-8n components-8n "
               "cg-scale-256n\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      args.trace = std::atoi(argv[++i]) != 0;
    } else if (a == "--out" && has_value) {
      args.out = argv[++i];
    } else if (a == "--tiny") {
      args.tiny = true;
    } else if (a == "--plant-bad-reference") {
      args.plant_bad_reference = true;
    } else {
      return usage(argv[0]);
    }
  }
  Workload w = make_workload(args.workload, args.seed, args.tiny);
  if (w.app == nullptr || args.out.empty()) return usage(argv[0]);
  return Bench(std::move(args), std::move(w)).run();
}

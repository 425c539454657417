// ppm_cli — command-line driver for the PPM applications on a simulated
// cluster. The quickest way to poke at the library without writing code:
//
//   ppm_cli --app=cg --nodes=8 --cores=4 --size=20000
//   ppm_cli --app=cg --matrix=system.mtx --tol=1e-10
//   ppm_cli --app=matgen --levels=6
//   ppm_cli --app=barneshut --size=5000 --steps=4
//   ppm_cli --app=bfs --size=50000 --dist=cyclic
//   ppm_cli --app=cg --profile          # per-phase breakdown
//   ppm_cli --app=cg --json=out.json    # machine-readable RunResult
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <set>
#include <string>

#include <unistd.h>

#include "apps/cg/cg_ppm.hpp"
#include "apps/cg/mm_io.hpp"
#include "apps/collocation/matgen_ppm.hpp"
#include "apps/graph/graph_ppm.hpp"
#include "apps/nbody/nbody_ppm.hpp"
#include "core/ppm.hpp"
#include "model/model.hpp"
#include "trace/export.hpp"

namespace {

using namespace ppm;

struct CliOptions {
  std::string app = "cg";
  int nodes = 4;
  int cores = 4;
  int sim_threads = 1;  // host threads driving the engines (docs/SIM.md)
  uint64_t size = 0;  // 0 = per-app default
  int steps = 3;
  int levels = 5;
  int max_iterations = 200;
  double tolerance = 1e-8;
  std::string matrix_file;
  Distribution dist = Distribution::kBlock;
  bool profile = false;
  bool check = false;  // run under the ppm::check phase sanitizer
  double calibration = 3.0;
  std::string trace_json;    // --trace=FILE: Chrome trace-event JSON
  std::string trace_binary;  // --trace-bin=FILE: compact binary dump
  uint32_t trace_buffer = 0;  // --trace-buffer=N events/track (0 = default)
  bool json = false;          // --json[=FILE]: RunResult as JSON
  std::string json_path;      // empty = stdout (after the human summary)
  // ppm::model mode (docs/OBSERVABILITY.md): fit the compositional
  // performance model from traced modeled runs at --fit-nodes, then
  // evaluate it at --predict node counts and/or check it against the
  // simulator at --validate node counts. With --json the document is
  // schema "ppm_model/v1" instead of "ppm_cli/v1".
  bool model = false;
  std::vector<int> fit_nodes = {2, 3, 4, 5, 6, 7, 8};
  std::vector<int> predict_nodes;
  std::vector<int> validate_nodes;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--app=cg|matgen|barneshut|bfs|components]\n"
      "          [--nodes=N] [--cores=C] [--sim-threads=T] [--size=S]\n"
      "          [--steps=K]\n"
      "          [--levels=L] [--iters=I] [--tol=T] [--matrix=FILE.mtx]\n"
      "          [--dist=block|cyclic|adaptive] [--calibration=F]\n"
      "          [--profile] [--check] [--trace=FILE.json]\n"
      "          [--trace-bin=FILE.bin] [--trace-buffer=EVENTS]\n"
      "          [--json[=FILE]]\n"
      "          [--model] [--fit-nodes=N1,N2,...] [--predict=N1,N2,...]\n"
      "          [--validate=N1,N2,...]\n"
      "--sim-threads drives the per-node engines on T host threads\n"
      "(default 1; 0 also means 1); every T replays the same run.\n"
      "model mode fits the ppm::model performance model from traced\n"
      "modeled-only runs at --fit-nodes (default 2..8), predicts vtime/\n"
      "bytes/messages at --predict counts, and compares predictions with\n"
      "the simulator at --validate counts; --predict/--validate imply\n"
      "--model.\n",
      argv0);
  std::exit(2);
}

std::vector<int> parse_int_list(const char* v, const char* argv0) {
  std::vector<int> out;
  const char* p = v;
  while (true) {
    char* end = nullptr;
    const long n = std::strtol(p, &end, 10);
    if (end == p || n < 2) usage(argv0);
    out.push_back(static_cast<int>(n));
    if (*end == '\0') break;
    if (*end != ',') usage(argv0);
    p = end + 1;
  }
  return out;
}

CliOptions parse(int argc, char** argv) {
  CliOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      return arg.compare(0, len, prefix) == 0 ? arg.c_str() + len : nullptr;
    };
    if (const char* v = value_of("--app=")) {
      opt.app = v;
    } else if (const char* v = value_of("--nodes=")) {
      opt.nodes = std::atoi(v);
    } else if (const char* v = value_of("--cores=")) {
      opt.cores = std::atoi(v);
    } else if (const char* v = value_of("--sim-threads=")) {
      opt.sim_threads = std::atoi(v);
    } else if (const char* v = value_of("--size=")) {
      opt.size = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of("--steps=")) {
      opt.steps = std::atoi(v);
    } else if (const char* v = value_of("--levels=")) {
      opt.levels = std::atoi(v);
    } else if (const char* v = value_of("--iters=")) {
      opt.max_iterations = std::atoi(v);
    } else if (const char* v = value_of("--tol=")) {
      opt.tolerance = std::atof(v);
    } else if (const char* v = value_of("--matrix=")) {
      opt.matrix_file = v;
    } else if (const char* v = value_of("--calibration=")) {
      opt.calibration = std::atof(v);
    } else if (const char* v = value_of("--dist=")) {
      if (std::string(v) == "cyclic") {
        opt.dist = Distribution::kCyclic;
      } else if (std::string(v) == "block") {
        opt.dist = Distribution::kBlock;
      } else if (std::string(v) == "adaptive") {
        // Owner-mapped layout with the migration planner armed at every
        // global commit (the locality engine).
        opt.dist = Distribution::kAdaptive;
      } else {
        usage(argv[0]);
      }
    } else if (const char* v = value_of("--trace=")) {
      opt.trace_json = v;
    } else if (const char* v = value_of("--trace-bin=")) {
      opt.trace_binary = v;
    } else if (const char* v = value_of("--trace-buffer=")) {
      opt.trace_buffer = static_cast<uint32_t>(std::strtoul(v, nullptr, 10));
    } else if (const char* v = value_of("--json=")) {
      opt.json = true;
      opt.json_path = v;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--model") {
      opt.model = true;
    } else if (const char* v = value_of("--fit-nodes=")) {
      opt.fit_nodes = parse_int_list(v, argv[0]);
      opt.model = true;
    } else if (const char* v = value_of("--predict=")) {
      opt.predict_nodes = parse_int_list(v, argv[0]);
      opt.model = true;
    } else if (const char* v = value_of("--validate=")) {
      opt.validate_nodes = parse_int_list(v, argv[0]);
      opt.model = true;
    } else if (arg == "--profile") {
      opt.profile = true;
    } else if (arg == "--check") {
      opt.check = true;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

void print_profile(NodeRuntime& rt) {
  std::printf("phase profile (node 0):\n");
  std::printf("  %-5s %-6s %-12s %10s %12s %12s %8s %8s %10s\n", "#",
              "scope", "label", "VPs", "compute_us", "commit_us", "writes",
              "accums", "red_saved");
  for (const auto& p : rt.phase_profiles()) {
    std::printf(
        "  %-5llu %-6s %-12s %10llu %12.1f %12.1f %8llu %8llu %10llu\n",
        static_cast<unsigned long long>(p.phase_index),
        p.global ? "global" : "node",
        p.label.empty() ? "-" : p.label.c_str(),
        static_cast<unsigned long long>(p.k_local),
        static_cast<double>(p.compute_ns()) * 1e-3,
        static_cast<double>(p.commit_ns()) * 1e-3,
        static_cast<unsigned long long>(p.write_entries),
        static_cast<unsigned long long>(p.accums_executed),
        static_cast<unsigned long long>(p.reduction_bytes_saved));
  }
}

bool write_file(const std::string& path, const void* data, size_t size) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = size == 0 || std::fwrite(data, 1, size, f) == size;
  return std::fclose(f) == 0 && ok;
}

void print_result(const RunResult& r) {
  std::printf("simulated time: %.3f ms | network: %llu msgs, %.2f MB | "
              "blocks fetched: %llu, cache hits: %llu\n",
              r.duration_s() * 1e3,
              static_cast<unsigned long long>(r.network_messages),
              static_cast<double>(r.network_bytes) / 1048576.0,
              static_cast<unsigned long long>(r.remote_blocks_fetched),
              static_cast<unsigned long long>(
                  r.remote_reads_served_from_cache));
  if (r.blocks_migrated != 0) {
    std::printf("locality engine: %llu block(s) migrated (%.1f KB), "
                "%llu remote accesses made local\n",
                static_cast<unsigned long long>(r.blocks_migrated),
                static_cast<double>(r.migration_bytes) / 1024.0,
                static_cast<unsigned long long>(
                    r.remote_to_local_conversions));
  }
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  const int n = vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out.append(buf, static_cast<size_t>(n));
}

// Full RunResult as JSON (schema "ppm_cli/v1"). Counter names match the
// ppm_stress --json record where the two overlap (network_messages,
// network_bytes, blocks_fetched, reads_from_cache, fetch_stall_ns,
// blocks_migrated), so downstream tooling can diff the two tools' output
// without a field-name translation table. counter_rollup is always
// present; phase_profiles and trace_summary appear when --profile /
// tracing were on (docs/TESTING.md documents the schema).
std::string result_to_json(const CliOptions& opt, int effective_sim_threads,
                           const RunResult& r, NodeRuntime& node0) {
  std::string out;
  out.reserve(4096);
  out += "{\n \"schema\": \"ppm_cli/v1\",\n ";
  appendf(out, "\"app\": \"%s\", \"nodes\": %d, \"cores\": %d, "
          "\"sim_threads\": %d,\n ",
          opt.app.c_str(), opt.nodes, opt.cores, effective_sim_threads);
  appendf(out, "\"duration_ns\": %" PRId64 ", ", r.duration_ns);
  appendf(out, "\"network_messages\": %" PRIu64 ", ", r.network_messages);
  appendf(out, "\"network_bytes\": %" PRIu64 ",\n ", r.network_bytes);
  appendf(out, "\"intranode_messages\": %" PRIu64 ", ",
          r.intranode_messages);
  appendf(out, "\"intranode_bytes\": %" PRIu64 ", ", r.intranode_bytes);
  appendf(out, "\"global_phases\": %" PRIu64 ", ", r.global_phases);
  appendf(out, "\"payload_commits\": %" PRIu64 ", ", r.payload_commits);
  appendf(out, "\"node_phases\": %" PRIu64 ",\n ", r.node_phases);
  appendf(out, "\"blocks_fetched\": %" PRIu64 ", ", r.remote_blocks_fetched);
  appendf(out, "\"reads_from_cache\": %" PRIu64 ", ",
          r.remote_reads_served_from_cache);
  appendf(out, "\"write_entries\": %" PRIu64 ", ", r.write_entries);
  appendf(out, "\"bundles_sent\": %" PRIu64 ",\n ", r.bundles_sent);
  appendf(out, "\"fetch_stall_ns\": %" PRIu64 ", ", r.fetch_stall_ns);
  appendf(out, "\"prefetch_issued\": %" PRIu64 ", ", r.prefetch_issued);
  appendf(out, "\"prefetch_hits\": %" PRIu64 ", ", r.prefetch_hits);
  appendf(out, "\"entries_combined\": %" PRIu64 ",\n ", r.entries_combined);
  appendf(out, "\"blocks_migrated\": %" PRIu64 ", ", r.blocks_migrated);
  appendf(out, "\"migration_bytes\": %" PRIu64 ", ", r.migration_bytes);
  appendf(out, "\"remote_to_local_conversions\": %" PRIu64 ",\n",
          r.remote_to_local_conversions);
  out += " \"counter_rollup\": [\n";
  for (size_t i = 0; i < r.counter_rollup.size(); ++i) {
    const auto& c = r.counter_rollup[i];
    appendf(out,
            "  {\"name\": \"%s\", \"sum\": %" PRIu64 ", \"min\": %" PRIu64
            ", \"max\": %" PRIu64 ", \"min_node\": %d, \"max_node\": %d}%s\n",
            c.name.c_str(), c.sum, c.min, c.max, c.min_node, c.max_node,
            i + 1 < r.counter_rollup.size() ? "," : "");
  }
  out += " ]";
  if (opt.profile) {
    out += ",\n \"phase_profiles\": [\n";
    const auto& profiles = node0.phase_profiles();
    for (size_t i = 0; i < profiles.size(); ++i) {
      const auto& p = profiles[i];
      appendf(out,
              "  {\"index\": %" PRIu64 ", \"scope\": \"%s\", "
              "\"label\": \"%s\", \"vps\": %" PRIu64
              ", \"compute_ns\": %" PRId64 ", \"commit_ns\": %" PRId64
              ", \"write_entries\": %" PRIu64 ", \"fetch_stall_ns\": %" PRIu64
              ", \"accums_executed\": %" PRIu64
              ", \"reduction_bytes_saved\": %" PRIu64 "}%s\n",
              p.phase_index, p.global ? "global" : "node", p.label.c_str(),
              p.k_local, p.compute_ns(), p.commit_ns(), p.write_entries,
              p.fetch_stall_ns, p.accums_executed, p.reduction_bytes_saved,
              i + 1 < profiles.size() ? "," : "");
    }
    out += " ]";
  }
  if (r.trace_summary.events != 0) {
    const auto& t = r.trace_summary;
    int64_t critical_path_ns = 0;
    int64_t compute_critical_ns = 0;
    int64_t commit_critical_ns = 0;
    double imbalance_max = 0.0;
    double imbalance_sum = 0.0;
    for (const auto& p : t.phases) {
      critical_path_ns += p.compute_max_ns + p.commit_max_ns;
      compute_critical_ns += p.compute_max_ns;
      commit_critical_ns += p.commit_max_ns;
      imbalance_max = std::max(imbalance_max, p.imbalance());
      imbalance_sum += p.imbalance();
    }
    out += ",\n \"trace_summary\": {";
    appendf(out, "\"events\": %" PRIu64 ", \"dropped\": %" PRIu64
            ", \"phases\": %zu,\n  ",
            t.events, t.dropped, t.phases.size());
    appendf(out, "\"critical_path_ns\": %" PRId64 ", ", critical_path_ns);
    appendf(out, "\"compute_critical_ns\": %" PRId64 ", ",
            compute_critical_ns);
    appendf(out, "\"commit_critical_ns\": %" PRId64 ",\n  ",
            commit_critical_ns);
    appendf(out, "\"imbalance_max\": %.6f, ", imbalance_max);
    appendf(out, "\"imbalance_mean\": %.6f,\n  ",
            t.phases.empty()
                ? 0.0
                : imbalance_sum / static_cast<double>(t.phases.size()));
    appendf(out, "\"cache_hits\": %" PRIu64 ", \"cache_misses\": %" PRIu64
            ", \"fetches\": %" PRIu64 ", \"fetch_latency_ns\": %" PRIu64
            ",\n  ",
            t.cache_hits, t.cache_misses, t.fetches, t.fetch_latency_ns);
    appendf(out, "\"stall_ns\": %" PRIu64 ", \"messages\": %" PRIu64
            ", \"bundling_efficiency\": %.6f, \"overlap_efficiency\": %.6f}",
            t.stall_ns, t.messages, t.bundling_efficiency(),
            t.overlap_efficiency());
  }
  out += "\n}\n";
  return out;
}

PpmConfig build_config(const CliOptions& opt) {
  PpmConfig cfg;
  cfg.machine.nodes = opt.nodes;
  cfg.machine.cores_per_node = opt.cores;
  cfg.machine.sim_threads = opt.sim_threads;
  // --calibration=0 selects modeled-only virtual time: slower-converging
  // timings but fully deterministic, so two identical --trace runs emit
  // byte-identical JSON.
  if (opt.calibration > 0) {
    cfg.machine.engine.calibration = sim::CalibrationMode::kMeasured;
    cfg.machine.engine.calibration_factor = opt.calibration;
  } else {
    cfg.machine.engine.calibration = sim::CalibrationMode::kModeledOnly;
  }
  cfg.runtime.profile_phases = opt.profile;
  cfg.runtime.validate_phases = opt.check;
  cfg.runtime.trace = !opt.trace_json.empty() || !opt.trace_binary.empty() ||
                      opt.profile;
  if (opt.trace_buffer != 0) cfg.runtime.trace_buffer_events = opt.trace_buffer;
  cfg.runtime.adaptive_distribution = opt.dist == Distribution::kAdaptive;
  return cfg;
}

/// One complete app run on its own simulated machine. The machine and
/// runtime stay alive past collect() so callers can still reach node 0's
/// phase profiles and the trace recorder.
struct AppExecution {
  std::unique_ptr<cluster::Machine> machine;
  std::unique_ptr<Runtime> runtime;
  RunResult result;
};

/// Build a fresh machine from cfg and run the selected app on it once
/// (model mode runs this in a loop over node counts). Returns 0, or 2
/// for an unknown --app.
int execute_app(const CliOptions& opt, const PpmConfig& cfg,
                AppExecution& ex) {
  ex.machine = std::make_unique<cluster::Machine>(cfg.machine);
  ex.runtime = std::make_unique<Runtime>(*ex.machine, cfg.runtime);
  cluster::Machine& machine = *ex.machine;
  Runtime& runtime = *ex.runtime;
  RunResult& result = ex.result;

  const apps::cg::CgOptions cg_opts{.max_iterations = opt.max_iterations,
                                    .tolerance = opt.tolerance};

  auto execute = [&](const std::function<void(Env&)>& program) {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      program(env);
      nr.finish();
    });
    result = runtime.collect();
  };

  if (opt.app == "cg") {
    apps::cg::CsrMatrix a;
    std::vector<double> b;
    apps::cg::ChimneyProblem problem;
    if (!opt.matrix_file.empty()) {
      a = apps::cg::read_matrix_market_file(opt.matrix_file);
      b.assign(a.n, 1.0);
      std::printf("loaded %s: %llu unknowns, %llu nonzeros\n",
                  opt.matrix_file.c_str(),
                  static_cast<unsigned long long>(a.n),
                  static_cast<unsigned long long>(a.nnz()));
    } else {
      const uint64_t target = opt.size != 0 ? opt.size : 16'384;
      const auto edge = static_cast<uint64_t>(
          std::max(2.0, std::cbrt(static_cast<double>(target) / 2.0)));
      problem = {.nx = edge, .ny = edge, .nz = 2 * edge};
      std::printf("chimney %llux%llux%llu: %llu unknowns\n",
                  static_cast<unsigned long long>(problem.nx),
                  static_cast<unsigned long long>(problem.ny),
                  static_cast<unsigned long long>(problem.nz),
                  static_cast<unsigned long long>(problem.unknowns()));
    }
    int iters = 0;
    bool converged = false;
    double final_residual = 0;
    execute([&](Env& env) {
      apps::cg::PpmCgOutput out =
          !opt.matrix_file.empty()
              ? apps::cg::cg_solve_ppm_matrix(env, a, b, cg_opts)
              : apps::cg::cg_solve_ppm(env, problem, cg_opts);
      if (env.node_id() == 0) {
        iters = out.iterations;
        converged = out.converged;
        final_residual = out.residual_history.empty()
                             ? 0.0
                             : out.residual_history.back();
      }
    });
    std::printf("%s: %s after %d iterations, final ||r|| = %.3e\n",
                opt.app.c_str(), converged ? "converged" : "NOT converged",
                iters, final_residual);
  } else if (opt.app == "matgen") {
    apps::collocation::CollocationProblem problem;
    problem.levels = opt.levels;
    problem.base = opt.size != 0 ? opt.size : 16;
    uint64_t nnz = 0;
    execute([&](Env& env) {
      const auto out = apps::collocation::generate_matrix_ppm(env, problem);
      const auto total = env.allreduce(
          out.local_rows.nnz(),
          [](uint64_t x, uint64_t y) { return x + y; });
      if (env.node_id() == 0) nnz = total;
    });
    std::printf("matgen: %llu points, %llu nonzeros\n",
                static_cast<unsigned long long>(problem.total_points()),
                static_cast<unsigned long long>(nnz));
  } else if (opt.app == "barneshut") {
    const uint64_t n = opt.size != 0 ? opt.size : 4000;
    const auto init = apps::nbody::make_plummer(n, 99);
    const apps::nbody::NbodyOptions nb{.theta = 0.5, .eps = 0.01,
                                       .dt = 0.002, .steps = opt.steps};
    execute([&](Env& env) {
      auto st = apps::nbody::setup_nbody_ppm(env, init);
      apps::nbody::simulate_ppm(env, st, nb);
    });
    std::printf("barneshut: %llu particles, %d steps\n",
                static_cast<unsigned long long>(n), opt.steps);
  } else if (opt.app == "bfs" || opt.app == "components") {
    const uint64_t n = opt.size != 0 ? opt.size : 20'000;
    const auto g = apps::graph::make_rmat_graph(n, 8.0, 7);
    int64_t summary = 0;
    execute([&](Env& env) {
      if (opt.app == "bfs") {
        const auto d = apps::graph::bfs_ppm(env, g, 0, opt.dist);
        if (env.node_id() == 0) {
          for (int64_t v : d) summary = std::max(summary, v);
        }
      } else {
        const auto labels = apps::graph::components_ppm(env, g, opt.dist);
        if (env.node_id() == 0) {
          std::set<int64_t> unique(labels.begin(), labels.end());
          summary = static_cast<int64_t>(unique.size());
        }
      }
    });
    std::printf("%s: %llu vertices, %llu edges, %s = %lld\n",
                opt.app.c_str(), static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(g.num_edges()),
                opt.app == "bfs" ? "eccentricity" : "components",
                static_cast<long long>(summary));
  } else {
    std::fprintf(stderr, "unknown app '%s'\n", opt.app.c_str());
    return 2;
  }
  return 0;
}

// ---- ppm::model mode (docs/OBSERVABILITY.md) --------------------------

struct ModelValidation {
  int nodes = 0;
  int64_t measured_vtime_ns = 0;
  double predicted_vtime_ns = 0;
  double rel_err = 0;  // predicted/measured - 1
};

// Schema "ppm_model/v1" (docs/TESTING.md): fitted counter shapes and term
// coefficients (the drift oracle's inputs), per-fit residuals, and the
// requested predictions/validations.
std::string model_to_json(const CliOptions& opt, const model::Model& mdl,
                          std::span<const model::Observation> obs,
                          std::span<const model::Prediction> preds,
                          std::span<const ModelValidation> vals) {
  std::string out;
  out.reserve(4096);
  out += "{\n \"schema\": \"ppm_model/v1\",\n ";
  appendf(out, "\"app\": \"%s\", \"cores\": %d,\n ", opt.app.c_str(),
          mdl.cores);
  appendf(out,
          "\"machine\": {\"latency_ns\": %.1f, \"bytes_per_ns\": %.3f, "
          "\"send_overhead_ns\": %.1f, \"recv_overhead_ns\": %.1f},\n ",
          mdl.costs.latency_ns, mdl.costs.bytes_per_ns,
          mdl.costs.send_overhead_ns, mdl.costs.recv_overhead_ns);
  out += "\"fit_nodes\": [";
  for (size_t i = 0; i < mdl.fit_nodes.size(); ++i) {
    appendf(out, "%s%d", i != 0 ? ", " : "", mdl.fit_nodes[i]);
  }
  out += "],\n \"counters\": [\n";
  for (size_t i = 0; i < model::kCounters; ++i) {
    const model::Shape& s = mdl.counters[i];
    appendf(out,
            "  {\"name\": \"%s\", \"a\": %.17g, \"b\": %.17g, "
            "\"exponent\": %.6f, \"log_power\": %d, \"formula\": \"%s\"}%s\n",
            model::kCounterNames[i], s.a, s.b, s.exponent, s.log_power,
            s.formula().c_str(), i + 1 < model::kCounters ? "," : "");
  }
  out += " ],\n \"terms\": [\n";
  for (size_t i = 0; i < mdl.terms.size(); ++i) {
    const auto& t = mdl.terms[i];
    appendf(out,
            "  {\"name\": \"%s\", \"coefficient\": %.17g, "
            "\"prior\": %.2f}%s\n",
            t.name.c_str(), t.coefficient, t.prior,
            i + 1 < mdl.terms.size() ? "," : "");
  }
  out += " ],\n \"fit\": [\n";
  for (size_t i = 0; i < obs.size(); ++i) {
    appendf(out,
            "  {\"nodes\": %d, \"measured_vtime_ns\": %" PRId64
            ", \"rel_err\": %.6f}%s\n",
            obs[i].nodes, obs[i].vtime_ns, mdl.fit_rel_err[i],
            i + 1 < obs.size() ? "," : "");
  }
  out += " ],\n \"predictions\": [\n";
  for (size_t i = 0; i < preds.size(); ++i) {
    const auto& p = preds[i];
    appendf(out,
            "  {\"nodes\": %d, \"vtime_ns\": %.1f, \"messages\": %.1f, "
            "\"bytes\": %.1f, \"fetches\": %.1f, \"stall_ns\": %.1f, "
            "\"accums_executed\": %.1f, \"reduction_bytes_saved\": %.1f, "
            "\"terms_ns\": {",
            p.nodes, p.vtime_ns, p.messages, p.bytes, p.fetches, p.stall_ns,
            p.accums_executed, p.reduction_bytes_saved);
    for (size_t t = 0; t < model::kTerms; ++t) {
      appendf(out, "%s\"%s\": %.1f", t != 0 ? ", " : "",
              model::kTermNames[t], p.term_ns[t]);
    }
    appendf(out, "}}%s\n", i + 1 < preds.size() ? "," : "");
  }
  out += " ],\n \"validation\": [\n";
  for (size_t i = 0; i < vals.size(); ++i) {
    const auto& v = vals[i];
    appendf(out,
            "  {\"nodes\": %d, \"measured_vtime_ns\": %" PRId64
            ", \"predicted_vtime_ns\": %.1f, \"rel_err\": %.6f}%s\n",
            v.nodes, v.measured_vtime_ns, v.predicted_vtime_ns, v.rel_err,
            i + 1 < vals.size() ? "," : "");
  }
  out += " ]\n}\n";
  return out;
}

/// Fit the model from traced modeled runs at opt.fit_nodes, predict at
/// opt.predict_nodes, validate against the simulator at
/// opt.validate_nodes. Fit and validation runs force modeled-only
/// calibration: virtual time is then bit-deterministic, so the fitted
/// coefficients (and the CI drift oracle built on them) are exactly
/// reproducible.
int run_model(const CliOptions& opt, std::string* json_out) {
  std::vector<model::Observation> obs;
  for (int n : opt.fit_nodes) {
    CliOptions o = opt;
    o.nodes = n;
    o.profile = false;
    o.check = false;
    PpmConfig cfg = build_config(o);
    cfg.machine.engine.calibration = sim::CalibrationMode::kModeledOnly;
    cfg.runtime.trace = true;  // the critical-path split needs the tracer
    cfg.runtime.profile_phases = false;
    std::printf("model: fit run at %d nodes\n", n);
    AppExecution ex;
    if (const int rc = execute_app(o, cfg, ex); rc != 0) return rc;
    obs.push_back(model::observe(n, opt.cores, ex.result));
  }
  const model::Model mdl = model::fit(
      obs, model::MachineCosts::from_config(build_config(opt).machine));
  std::fputs(mdl.to_string().c_str(), stdout);

  std::vector<model::Prediction> preds;
  preds.reserve(opt.predict_nodes.size());
  for (int n : opt.predict_nodes) preds.push_back(mdl.predict(n));
  if (!preds.empty()) {
    std::printf("predictions:\n  %-6s %12s %14s %12s %12s\n", "N",
                "vtime_ms", "messages", "MB", "fetches");
    for (const auto& p : preds) {
      std::printf("  %-6d %12.3f %14.0f %12.2f %12.0f\n", p.nodes,
                  p.vtime_ns * 1e-6, p.messages, p.bytes / 1048576.0,
                  p.fetches);
    }
  }

  std::vector<ModelValidation> vals;
  for (int n : opt.validate_nodes) {
    CliOptions o = opt;
    o.nodes = n;
    o.profile = false;
    o.check = false;
    PpmConfig cfg = build_config(o);
    cfg.machine.engine.calibration = sim::CalibrationMode::kModeledOnly;
    cfg.runtime.profile_phases = false;
    std::printf("model: validation run at %d nodes\n", n);
    AppExecution ex;
    if (const int rc = execute_app(o, cfg, ex); rc != 0) return rc;
    const model::Prediction p = mdl.predict(n);
    ModelValidation v;
    v.nodes = n;
    v.measured_vtime_ns = ex.result.duration_ns;
    v.predicted_vtime_ns = p.vtime_ns;
    v.rel_err =
        p.vtime_ns / static_cast<double>(ex.result.duration_ns) - 1.0;
    vals.push_back(v);
  }
  if (!vals.empty()) {
    std::printf("validation (model vs simulator):\n  %-6s %14s %14s %8s\n",
                "N", "measured_ms", "model_ms", "err");
    for (const auto& v : vals) {
      std::printf("  %-6d %14.3f %14.3f %+7.1f%%\n", v.nodes,
                  static_cast<double>(v.measured_vtime_ns) * 1e-6,
                  v.predicted_vtime_ns * 1e-6, v.rel_err * 100.0);
    }
  }
  if (json_out != nullptr) {
    *json_out = model_to_json(opt, mdl, obs, preds, vals);
  }
  return 0;
}

int run_cli(const CliOptions& opt) {
  // Bare --json promises clean JSON on stdout: divert the human
  // narrative (including the apps' own progress lines) to stderr and
  // restore stdout just before emitting the document.
  int saved_stdout = -1;
  if (opt.json && opt.json_path.empty()) {
    std::fflush(stdout);
    saved_stdout = dup(STDOUT_FILENO);
    dup2(STDERR_FILENO, STDOUT_FILENO);
  }
  auto restore_stdout = [&] {
    if (saved_stdout != -1) {
      std::fflush(stdout);
      dup2(saved_stdout, STDOUT_FILENO);
      close(saved_stdout);
      saved_stdout = -1;
    }
  };
  auto emit_json = [&](const std::string& json) -> int {
    restore_stdout();
    if (opt.json_path.empty()) {
      std::fputs(json.c_str(), stdout);
    } else if (!write_file(opt.json_path, json.data(), json.size())) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   opt.json_path.c_str());
      return 1;
    }
    return 0;
  };

  if (opt.model) {
    std::string json;
    const int rc = run_model(opt, opt.json ? &json : nullptr);
    if (rc != 0) return rc;
    restore_stdout();
    return opt.json ? emit_json(json) : 0;
  }

  const PpmConfig cfg = build_config(opt);
  AppExecution ex;
  if (const int rc = execute_app(opt, cfg, ex); rc != 0) return rc;
  RunResult& result = ex.result;
  Runtime& runtime = *ex.runtime;

  print_result(result);
  if (runtime.trace() != nullptr) {
    if (!opt.trace_json.empty()) {
      const std::string json = trace::to_chrome_json(*runtime.trace());
      if (!write_file(opt.trace_json, json.data(), json.size())) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.trace_json.c_str());
        return 1;
      }
      std::printf("trace: %llu events (%llu dropped) -> %s\n",
                  static_cast<unsigned long long>(
                      runtime.trace()->total_recorded()),
                  static_cast<unsigned long long>(
                      runtime.trace()->total_dropped()),
                  opt.trace_json.c_str());
    }
    if (!opt.trace_binary.empty()) {
      const Bytes bin = trace::to_binary(*runtime.trace());
      if (!write_file(opt.trace_binary, bin.data(), bin.size())) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     opt.trace_binary.c_str());
        return 1;
      }
    }
  }
  if (opt.profile) {
    print_profile(runtime.node(0));
    std::fputs(result.trace_summary.to_string().c_str(), stdout);
  }
  if (opt.check) {
    std::fputs(result.check_report.to_string().c_str(), stdout);
    if (!result.check_report.clean()) return 3;
  }
  restore_stdout();
  if (opt.json) {
    return emit_json(result_to_json(opt, ex.machine->sim_threads(), result,
                                    runtime.node(0)));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_cli(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

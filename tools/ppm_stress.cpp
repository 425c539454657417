// ppm_stress — differential fuzzing CLI over the ppm::stress library.
//
// Each program seed expands deterministically into a random PPM program
// (stress::generate_program) and a config matrix (stress::sample_configs);
// the differential oracle checks every config against the golden
// interpreter, against the reference config, and under ppm::check. On a
// red verdict the program is shrunk to a minimal repro and a one-line
// --replay invocation is printed, then the process exits nonzero.
//
//   ppm_stress --smoke              fixed seed set, CI gate
//   ppm_stress --minutes=N          soak: fresh seeds until N minutes pass
//   ppm_stress --seed=S --programs=P   explicit range
//   ppm_stress --replay=SEED:CFG    re-run one failing (seed, config) pair
//   ppm_stress --json=FILE          benchmark-format throughput record
//   ppm_stress --trace-on-failure   dump ppm::trace JSON of a shrunken
//                                   repro (reference + diverging config)
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "stress/runner.hpp"
#include "util/error.hpp"

namespace {

constexpr int kDefaultConfigs = 6;
// Seed 17 writes a reduced array remotely in the phase whose commit
// resolves the reduce (at config 2, 3 nodes): a commit that trusted the
// partials riding its last markers without checking their remote-write
// flag would fold the pre-apply contents there. Seeds 1-6 never do.
constexpr uint64_t kSmokeSeeds[] = {1, 2, 3, 4, 5, 6, 17};

struct Args {
  bool smoke = false;
  bool verbose = false;
  double minutes = 0.0;
  uint64_t seed = 1;
  int programs = 16;
  int configs = kDefaultConfigs;
  bool has_replay = false;
  bool trace_on_failure = false;
  uint64_t replay_seed = 0;
  size_t replay_config = 0;
  std::string json_path;
};

[[noreturn]] void usage(int rc) {
  std::fprintf(
      rc == 0 ? stdout : stderr,
      "usage: ppm_stress [--smoke] [--minutes=N] [--seed=S] [--programs=P]\n"
      "                  [--configs=C] [--replay=SEED:CFG] [--json=FILE]\n"
      "                  [--trace-on-failure] [--verbose]\n");
  std::exit(rc);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto val = [&](const char* prefix) {
      return arg.substr(std::strlen(prefix));
    };
    if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--verbose" || arg == "-v") {
      a.verbose = true;
    } else if (arg == "--trace-on-failure") {
      a.trace_on_failure = true;
    } else if (arg.rfind("--minutes=", 0) == 0) {
      a.minutes = std::strtod(val("--minutes=").c_str(), nullptr);
    } else if (arg.rfind("--seed=", 0) == 0) {
      a.seed = std::strtoull(val("--seed=").c_str(), nullptr, 10);
    } else if (arg.rfind("--programs=", 0) == 0) {
      a.programs = std::atoi(val("--programs=").c_str());
    } else if (arg.rfind("--configs=", 0) == 0) {
      a.configs = std::atoi(val("--configs=").c_str());
    } else if (arg.rfind("--json=", 0) == 0) {
      a.json_path = val("--json=");
    } else if (arg.rfind("--replay=", 0) == 0) {
      const std::string v = val("--replay=");
      const size_t colon = v.find(':');
      if (colon == std::string::npos) usage(2);
      a.has_replay = true;
      a.replay_seed = std::strtoull(v.substr(0, colon).c_str(), nullptr, 10);
      a.replay_config =
          std::strtoull(v.substr(colon + 1).c_str(), nullptr, 10);
    } else if (arg == "--help" || arg == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", arg.c_str());
      usage(2);
    }
  }
  if (a.programs <= 0 || a.configs <= 0) usage(2);
  return a;
}

bool write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  if (!out) return false;
  out << text;
  return static_cast<bool>(out);
}

// --trace-on-failure: re-run one config of the shrunken repro under
// ppm::trace and dump the Chrome JSON. The failing run may throw — the
// partial trace up to the failure point is exported anyway.
void dump_repro_trace(const ppm::stress::ProgramSpec& spec,
                      const ppm::stress::StressConfig& cfg,
                      const std::string& path) {
  ppm::stress::RunArtifacts artifacts;
  artifacts.trace = true;
  try {
    (void)ppm::stress::run_under_config(spec, cfg, &artifacts);
  } catch (const ppm::Error&) {
    // expected for the diverging config; keep the partial trace
  }
  if (artifacts.trace_json.empty() ||
      !write_text_file(path, artifacts.trace_json)) {
    std::fprintf(stderr, "trace: could not write %s\n", path.c_str());
    return;
  }
  std::fprintf(stderr, "trace (%s): %s\n", cfg.name.c_str(), path.c_str());
}

// On failure: report, shrink, print the replay line, exit 1.
[[noreturn]] void report_failure(const Args& a, const ppm::stress::ProgramSpec& spec,
                                 const std::vector<ppm::stress::StressConfig>& cfgs,
                                 const ppm::stress::Verdict& v) {
  std::fprintf(stderr, "FAIL seed=%" PRIu64 " config=%zu (%s)\n  %s\n",
               spec.seed, v.config_index, v.config_name.c_str(),
               v.detail.c_str());
  std::fprintf(stderr, "original program:\n%s", spec.dump().c_str());
  const auto sh = ppm::stress::shrink(spec, cfgs, v.config_index);
  const auto vs = ppm::stress::run_differential(sh.spec, sh.configs);
  std::fprintf(stderr, "shrunk repro (%d shrink runs):\n%s",
               sh.runs, sh.spec.dump().c_str());
  if (!vs.ok) {
    std::fprintf(stderr, "shrunk verdict: config %zu (%s): %s\n",
                 vs.config_index, vs.config_name.c_str(), vs.detail.c_str());
  }
  if (a.trace_on_failure) {
    // Two traces, side by side: the reference config (golden behavior) and
    // the diverging one, both on the shrunken repro.
    char path[128];
    std::snprintf(path, sizeof(path), "ppm_stress_seed%" PRIu64 "_ref.trace.json",
                  spec.seed);
    dump_repro_trace(sh.spec, sh.configs.front(), path);
    if (sh.configs.size() > 1) {
      std::snprintf(path, sizeof(path),
                    "ppm_stress_seed%" PRIu64 "_fail.trace.json", spec.seed);
      dump_repro_trace(sh.spec, sh.configs.back(), path);
    }
  }
  std::fprintf(stderr, "replay: ppm_stress%s --replay=%" PRIu64 ":%zu\n",
               a.smoke ? " --smoke" : "", spec.seed, v.config_index);
  std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  using Clock = std::chrono::steady_clock;
  const Args a = parse(argc, argv);
  const auto t0 = Clock::now();
  const auto elapsed_s = [&] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };

  if (a.has_replay) {
    // Reconstruct the exact (program, config) pair and re-run it against
    // the reference the way run_differential would.
    const auto spec = ppm::stress::generate_program(a.replay_seed);
    const int count = std::max(a.configs,
                               static_cast<int>(a.replay_config) + 1);
    const auto all = ppm::stress::sample_configs(a.replay_seed, count);
    std::vector<ppm::stress::StressConfig> pair;
    pair.push_back(all[0]);
    if (a.replay_config != 0) pair.push_back(all[a.replay_config]);
    std::printf("replaying seed=%" PRIu64 " config=%zu (%s)\n%s",
                a.replay_seed, a.replay_config,
                all[a.replay_config].name.c_str(), spec.dump().c_str());
    const auto v = ppm::stress::run_differential(spec, pair);
    if (v.ok) {
      std::printf("replay verdict: clean\n");
      return 0;
    }
    report_failure(a, spec, all, v);
  }

  int ran = 0;
  ppm::stress::RunTotals totals;
  const auto run_one = [&](uint64_t seed) {
    const auto spec = ppm::stress::generate_program(seed);
    const auto cfgs = ppm::stress::sample_configs(seed, a.configs);
    if (a.verbose) {
      std::printf("seed=%" PRIu64 " k=%" PRIu64 " phases=%zu arrays=%zu\n",
                  seed, spec.k_total, spec.phases.size(), spec.arrays.size());
    }
    const auto v = ppm::stress::run_differential(
        spec, cfgs, a.json_path.empty() ? nullptr : &totals);
    if (!v.ok) report_failure(a, spec, cfgs, v);
    ++ran;
  };

  if (a.smoke) {
    for (const uint64_t seed : kSmokeSeeds) run_one(seed);
  } else if (a.minutes > 0.0) {
    uint64_t seed = a.seed;
    while (elapsed_s() < a.minutes * 60.0) run_one(seed++);
  } else {
    for (int p = 0; p < a.programs; ++p) {
      run_one(a.seed + static_cast<uint64_t>(p));
    }
  }

  const double secs = elapsed_s();
  const double rate = secs > 0.0 ? static_cast<double>(ran) / secs : 0.0;
  std::printf(
      "ppm_stress: %d programs x %d configs: all verdicts clean "
      "(%.2fs, %.2f programs/s)\n",
      ran, a.configs, secs, rate);

  if (!a.json_path.empty()) {
    // Phase-structure fields (critical path, compute imbalance) come from
    // one traced representative run: the first seed of this invocation
    // under the reference config. Virtual-time quantities, so they are
    // deterministic even though the throughput numbers above are not
    // (docs/TESTING.md documents the full record schema).
    const uint64_t rep_seed = a.smoke ? kSmokeSeeds[0] : a.seed;
    const auto rep_cfgs = ppm::stress::sample_configs(rep_seed, a.configs);
    // The single-node reference config has no commit traffic and zero
    // modeled compute; trace the first multi-node config instead so the
    // phase structure is non-degenerate.
    size_t rep = 0;
    for (size_t i = 0; i < rep_cfgs.size(); ++i) {
      if (rep_cfgs[i].machine.nodes > 1) {
        rep = i;
        break;
      }
    }
    ppm::stress::RunArtifacts artifacts;
    artifacts.trace = true;
    (void)ppm::stress::run_under_config(
        ppm::stress::generate_program(rep_seed), rep_cfgs[rep], &artifacts);
    int64_t critical_path_ns = 0;
    double imbalance_max = 0.0;
    double imbalance_sum = 0.0;
    const auto& phases = artifacts.result.trace_summary.phases;
    for (const auto& p : phases) {
      critical_path_ns += p.compute_max_ns + p.commit_round_ns;
      imbalance_max = std::max(imbalance_max, p.imbalance());
      imbalance_sum += p.imbalance();
    }
    const double imbalance_mean =
        phases.empty() ? 0.0
                       : imbalance_sum / static_cast<double>(phases.size());

    // google-benchmark JSON shape, so tools/bench.sh's merger can fold the
    // throughput row into BENCH_fig.json unchanged.
    std::ofstream out(a.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", a.json_path.c_str());
      return 1;
    }
    char buf[1536];
    std::snprintf(
        buf, sizeof(buf),
        "{\"benchmarks\": [{\"name\": \"stress/%s\", "
        "\"programs\": %d, \"configs_per_program\": %d, "
        "\"wall_seconds\": %.3f, \"programs_per_sec\": %.3f, "
        "\"config_runs\": %" PRIu64 ", "
        "\"network_messages\": %" PRIu64 ", "
        "\"network_bytes\": %" PRIu64 ", "
        "\"blocks_fetched\": %" PRIu64 ", "
        "\"reads_from_cache\": %" PRIu64 ", "
        "\"fetch_stall_ns\": %" PRIu64 ", "
        "\"blocks_migrated\": %" PRIu64 ", "
        "\"critical_path_ns\": %" PRId64 ", "
        "\"imbalance_max\": %.6f, "
        "\"imbalance_mean\": %.6f}]}\n",
        a.smoke ? "smoke" : "run", ran, a.configs, secs, rate, totals.runs,
        totals.network_messages, totals.network_bytes, totals.blocks_fetched,
        totals.reads_from_cache, totals.fetch_stall_ns,
        totals.blocks_migrated, critical_path_ns, imbalance_max,
        imbalance_mean);
    out << buf;
  }
  return 0;
}

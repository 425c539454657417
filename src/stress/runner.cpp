#include "stress/runner.hpp"

#include <cstring>
#include <map>
#include <utility>

#include "trace/export.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppm::stress {

namespace {

// exec_op context executing against live PPM shared-array handles.
struct PpmCtx {
  const ProgramSpec* spec;
  std::vector<GlobalShared<uint64_t>>* g;
  std::vector<NodeShared<uint64_t>>* nd;

  uint64_t read(uint32_t a, uint64_t i) const {
    return (*spec).arrays[a].global ? (*g)[a].get(i) : (*nd)[a].get(i);
  }
  uint64_t gather_sum(uint32_t a, const std::vector<uint64_t>& idx) const {
    uint64_t s = 0;
    for (const uint64_t v : (*g)[a].gather(idx)) s += v;
    return s;
  }
  // Every accumulate flavor routes through accumulate()/accumulate_n(),
  // the selectable-op form of the deferred write: remote global elements
  // ship as kBundle records, local elements and node-shared arrays —
  // every element of the 1-node reference config — stay in the local
  // log. Both must commit bit-identical state, which is exactly what the
  // differential matrix checks.
  void write(uint32_t a, uint64_t i, detail::WriteOp op, uint64_t v) const {
    if ((*spec).arrays[a].global) {
      auto& arr = (*g)[a];
      if (op == detail::WriteOp::kSet) {
        arr.set(i, v);
      } else {
        arr.accumulate(i, static_cast<ReduceOp>(op), v);
      }
    } else {
      auto& arr = (*nd)[a];
      if (op == detail::WriteOp::kSet) {
        arr.set(i, v);
      } else {
        arr.accumulate(i, static_cast<ReduceOp>(op), v);
      }
    }
  }
  void write_run(uint32_t a, uint64_t first, detail::WriteOp op,
                 const std::vector<uint64_t>& vals) const {
    if ((*spec).arrays[a].global) {
      auto& arr = (*g)[a];
      if (op == detail::WriteOp::kSet) {
        arr.set_n(first, vals.size(), vals.data());
      } else {
        arr.accumulate_n(first, vals.size(), static_cast<ReduceOp>(op),
                         vals.data());
      }
    } else {
      auto& arr = (*nd)[a];
      if (op == detail::WriteOp::kSet) {
        arr.set_n(first, vals.size(), vals.data());
      } else {
        arr.accumulate_n(first, vals.size(), static_cast<ReduceOp>(op),
                         vals.data());
      }
    }
  }
  void prefetch(uint32_t a, const std::vector<uint64_t>& idx) const {
    (*g)[a].prefetch(idx);
  }
};

// Collective: every node reassembles the full logical state from each
// array's packed owned elements; the caller keeps node 0's copy.
Snapshot collect_snapshot(const ProgramSpec& spec, Env& env,
                          const std::vector<uint32_t>& ids) {
  NodeRuntime& rt = env.runtime();
  const int nodes = env.node_count();
  Snapshot s;
  s.global_arrays.resize(spec.arrays.size());
  s.node_arrays.resize(spec.arrays.size());
  for (size_t a = 0; a < spec.arrays.size(); ++a) {
    const auto all = rt.allgather_bytes(rt.pack_owned_elems(ids[a]));
    const uint64_t n = spec.arrays[a].n;
    if (spec.arrays[a].global) {
      const auto& rec = rt.array(ids[a]);
      std::vector<uint64_t> out(n);
      std::vector<size_t> cursor(all.size(), 0);
      for (uint64_t i = 0; i < n; ++i) {
        const auto o = static_cast<size_t>(rec.owner_of(i));
        std::memcpy(&out[i], all[o].data() + cursor[o], sizeof(uint64_t));
        cursor[o] += sizeof(uint64_t);
      }
      s.global_arrays[a] = std::move(out);
    } else {
      auto& per = s.node_arrays[a];
      per.resize(static_cast<size_t>(nodes));
      for (int m = 0; m < nodes; ++m) {
        const Bytes& b = all[static_cast<size_t>(m)];
        PPM_CHECK(b.size() == n * sizeof(uint64_t),
                  "snapshot size mismatch for node array");
        per[static_cast<size_t>(m)].resize(n);
        std::memcpy(per[static_cast<size_t>(m)].data(), b.data(), b.size());
      }
    }
  }
  return s;
}

/// First differing element between two states ("" when equal). With
/// globals_only, node arrays are skipped (their shape legitimately depends
/// on the machine's node count).
std::string diff_states(const ProgramSpec& spec, const GoldenState& want,
                        const GoldenState& got, bool globals_only,
                        const char* want_name, const char* got_name) {
  for (size_t a = 0; a < spec.arrays.size(); ++a) {
    if (spec.arrays[a].global) {
      for (uint64_t i = 0; i < spec.arrays[a].n; ++i) {
        const uint64_t w = want.global_arrays[a][i];
        const uint64_t g = got.global_arrays[a][i];
        if (w != g) {
          return strfmt("a%zu[%llu]: %s=%llu %s=%llu", a,
                        static_cast<unsigned long long>(i), want_name,
                        static_cast<unsigned long long>(w), got_name,
                        static_cast<unsigned long long>(g));
        }
      }
    } else if (!globals_only) {
      const auto& wn = want.node_arrays[a];
      const auto& gn = got.node_arrays[a];
      if (wn.size() != gn.size()) {
        return strfmt("a%zu: node instance count %zu vs %zu", a, wn.size(),
                      gn.size());
      }
      for (size_t m = 0; m < wn.size(); ++m) {
        for (uint64_t i = 0; i < spec.arrays[a].n; ++i) {
          if (wn[m][i] != gn[m][i]) {
            return strfmt("a%zu@node%zu[%llu]: %s=%llu %s=%llu", a, m,
                          static_cast<unsigned long long>(i), want_name,
                          static_cast<unsigned long long>(wn[m][i]),
                          got_name,
                          static_cast<unsigned long long>(gn[m][i]));
          }
        }
      }
    }
  }
  return "";
}

}  // namespace

std::vector<StressConfig> sample_configs(uint64_t seed, int count) {
  Rng rng(mix64(seed) ^ 0xc0f1a5ULL);
  std::vector<StressConfig> out;
  out.reserve(static_cast<size_t>(count));

  StressConfig ref;
  ref.machine.nodes = 1;
  ref.machine.cores_per_node = 1;
  ref.runtime.schedule = SchedulePolicy::kStatic;
  ref.runtime.validate_phases = true;
  ref.runtime.validate_fail_fast = true;
  ref.name = "cfg0-ref-1n1c-sta";
  out.push_back(std::move(ref));

  for (int i = 1; i < count; ++i) {
    StressConfig c;
    c.machine.nodes = 1 + static_cast<int>(rng.next_below(4));
    c.machine.cores_per_node = 1 + static_cast<int>(rng.next_below(4));
    // Alternate deterministically so both policies always appear.
    c.runtime.schedule =
        i % 2 != 0 ? SchedulePolicy::kDynamic : SchedulePolicy::kStatic;
    c.runtime.bundle_reads = rng.next_below(4) != 0;
    c.runtime.read_block_bytes = 8u << (3 * rng.next_below(3));  // 8/64/512
    c.runtime.eager_flush = rng.next_below(2) == 0;
    const uint32_t flush_choices[] = {96, 1024, 64 * 1024};
    c.runtime.flush_threshold_bytes = flush_choices[rng.next_below(3)];
    c.runtime.overlap_reads = rng.next_below(2) == 0;
    c.runtime.overlap_max_depth = 1 + static_cast<uint32_t>(rng.next_below(4));
    c.runtime.prefetch_lookahead_blocks =
        static_cast<uint32_t>(rng.next_below(3));
    c.runtime.batch_fetches = rng.next_below(2) == 0;
    c.runtime.adaptive_distribution = rng.next_below(2) == 0;
    c.runtime.migrate_remote_ratio = 1.0 + rng.next_double();
    c.runtime.migrate_max_blocks_per_phase =
        1 + static_cast<uint32_t>(rng.next_below(64));
    c.runtime.chunk_size = rng.next_below(2) == 0 ? 0 : 1 + rng.next_below(4);
    c.runtime.profile_phases = rng.next_below(4) == 0;
    (void)rng.next_below(2);  // unused; keeps later draws and --replay stable
    c.runtime.validate_phases = rng.next_below(4) != 0;
    c.runtime.validate_fail_fast = c.runtime.validate_phases;
    if (c.machine.nodes > 1 && rng.next_below(2) == 0) {
      c.machine.faults.delay_jitter = true;
      c.machine.faults.seed = rng.next_u64();
      c.machine.faults.delay_probability = 0.3;
      c.machine.faults.max_extra_delay_ns =
          50'000 + static_cast<int64_t>(rng.next_below(200'000));
    }
    // The link comes from its own stream keyed by (seed, config index),
    // so the draws above — every earlier config and --replay string —
    // keep their meaning. Half the multi-node configs get a link whose
    // 5 us send overhead is a scheduling point (a send can switch cores)
    // and which, from 4 nodes on, runs Bruck allgathers and so the sparse
    // commit form (plan_allgather).
    Rng link_rng(mix64(mix64(seed) ^ static_cast<uint64_t>(i)) ^ 0x714cULL);
    const bool bruck = c.machine.nodes > 1 && link_rng.next_below(2) == 0;
    if (bruck) {
      c.machine.network.send_overhead_ns = 5'000;
      c.machine.network.latency_ns = 1'000;
    }
    c.name = strfmt(
        "cfg%d-%dn%dc-%s%s%s%s%s", i, c.machine.nodes,
        c.machine.cores_per_node,
        c.runtime.schedule == SchedulePolicy::kDynamic ? "dyn" : "sta",
        bruck ? "-bruck" : "",
        c.machine.faults.delay_jitter ? "-faults" : "",
        c.runtime.adaptive_distribution ? "-adapt" : "",
        c.runtime.validate_phases ? "" : "-nochk");
    out.push_back(std::move(c));
  }
  return out;
}

void RunTotals::add(const RunResult& r) {
  ++runs;
  network_messages += r.network_messages;
  network_bytes += r.network_bytes;
  blocks_fetched += r.remote_blocks_fetched;
  reads_from_cache += r.remote_reads_served_from_cache;
  fetch_stall_ns += r.fetch_stall_ns;
  blocks_migrated += r.blocks_migrated;
}

Snapshot run_under_config(const ProgramSpec& spec, const StressConfig& cfg,
                          RunArtifacts* artifacts) {
  Snapshot snap;
  PpmConfig pc;
  pc.machine = cfg.machine;
  pc.runtime = cfg.runtime;
  if (artifacts != nullptr && artifacts->trace) pc.runtime.trace = true;
  // Machine and Runtime are owned here (not via ppm::run) so the trace can
  // be exported even when the node program throws mid-run.
  cluster::Machine machine(pc.machine);
  Runtime runtime(machine, pc.runtime);
  auto export_trace = [&] {
    if (artifacts != nullptr && artifacts->trace &&
        runtime.trace() != nullptr) {
      artifacts->trace_json = trace::to_chrome_json(*runtime.trace());
    }
  };
  auto node_program = [&](Env& env) {
    const int nodes = env.node_count();
    std::vector<GlobalShared<uint64_t>> g(spec.arrays.size());
    std::vector<NodeShared<uint64_t>> nd(spec.arrays.size());
    std::vector<uint32_t> ids(spec.arrays.size());
    for (size_t a = 0; a < spec.arrays.size(); ++a) {
      if (spec.arrays[a].global) {
        g[a] = env.global_array<uint64_t>(spec.arrays[a].n,
                                          spec.arrays[a].dist);
        ids[a] = g[a].id();
      } else {
        nd[a] = env.node_array<uint64_t>(spec.arrays[a].n);
        ids[a] = nd[a].id();
      }
    }
    // The harness's one user accumulate slot: kUser0 = XOR, exactly
    // commutative on uint64. Registered on every array (SPMD-collective)
    // so generated kAccum ops can draw it for any target; golden.cpp's
    // apply() carries the matching reference semantics.
    const auto xor_op = +[](uint64_t& x, const uint64_t& v) { x ^= v; };
    for (size_t a = 0; a < spec.arrays.size(); ++a) {
      if (spec.arrays[a].global) {
        env.register_accum_op(g[a], 0, xor_op);
      } else {
        env.register_accum_op(nd[a], 0, xor_op);
      }
    }
    auto vps = env.ppm_do(spec.k_local(env.node_id(), nodes));
    PpmCtx ctx{&spec, &g, &nd};
    for (const PhaseSpec& ph : spec.phases) {
      for (const uint32_t a : ph.rebalance) {
        if (spec.arrays[a].global) env.rebalance(g[a]);
      }
      const auto body = [&](Vp& vp) {
        for (const OpSpec& op : ph.ops) {
          exec_op(spec, op, vp.global_rank(), ctx);
        }
      };
      if (ph.global) {
        vps.global_phase(body);
      } else {
        vps.node_phase(body);
      }
    }
    Snapshot local = collect_snapshot(spec, env, ids);
    if (env.node_id() == 0) snap = std::move(local);
  };
  try {
    machine.run_per_node([&](int node) {
      NodeRuntime& nr = runtime.node(node);
      nr.start();
      Env env(nr);
      node_program(env);
      nr.finish();
    });
  } catch (...) {
    export_trace();
    throw;
  }
  RunResult result = runtime.collect();
  export_trace();
  if (artifacts != nullptr) artifacts->result = std::move(result);
  return snap;
}

Verdict run_differential(const ProgramSpec& spec,
                         const std::vector<StressConfig>& configs,
                         RunTotals* totals) {
  std::map<int, GoldenState> golden;  // keyed by machine node count
  GoldenState ref_snap;
  for (size_t i = 0; i < configs.size(); ++i) {
    const StressConfig& cfg = configs[i];
    Snapshot snap;
    RunArtifacts artifacts;
    try {
      snap = run_under_config(spec, cfg, &artifacts);
    } catch (const Error& e) {
      return {false, i, cfg.name, strfmt("ppm::Error: %s", e.what())};
    }
    if (totals != nullptr) totals->add(artifacts.result);
    auto [it, fresh] = golden.try_emplace(cfg.machine.nodes);
    if (fresh) it->second = run_golden(spec, cfg.machine.nodes);
    if (auto d = diff_states(spec, it->second, snap, /*globals_only=*/false,
                             "golden", "run");
        !d.empty()) {
      return {false, i, cfg.name, d};
    }
    if (i == 0) {
      ref_snap = std::move(snap);
    } else if (auto d = diff_states(spec, ref_snap, snap,
                                    /*globals_only=*/true, "ref", "run");
               !d.empty()) {
      return {false, i, cfg.name, d};
    }

    // Host-thread sweep (docs/SIM.md): the main run above drives the
    // engines on one host thread. The same config re-run on 2 and 4 host
    // threads must (a) commit the same state as the golden model and (b)
    // be bit-identical to the main run in virtual time and every
    // deterministic counter. Always on — a shrink then reproduces sweep
    // failures too.
    static constexpr int kSimThreads[] = {2, 4};
    const RunResult& ref = artifacts.result;
    for (const int threads : kSimThreads) {
      StressConfig wcfg = cfg;
      wcfg.machine.sim_threads = threads;
      wcfg.name = strfmt("%s-sim%d", cfg.name.c_str(), threads);
      RunArtifacts warts;
      Snapshot wsnap;
      try {
        wsnap = run_under_config(spec, wcfg, &warts);
      } catch (const Error& e) {
        return {false, i, wcfg.name, strfmt("ppm::Error: %s", e.what())};
      }
      if (auto d = diff_states(spec, it->second, wsnap,
                               /*globals_only=*/false, "golden", "windowed");
          !d.empty()) {
        return {false, i, wcfg.name, d};
      }
      const RunResult& b = warts.result;
      const auto wdiff = [&](const char* field, uint64_t x,
                             uint64_t y) -> std::string {
        if (x == y) return {};
        return strfmt("windowed determinism: %s diverges across sim_threads "
                      "(sim1=%llu vs sim%d=%llu)",
                      field, static_cast<unsigned long long>(x), threads,
                      static_cast<unsigned long long>(y));
      };
      for (const auto& d :
           {wdiff("duration_ns", static_cast<uint64_t>(ref.duration_ns),
                  static_cast<uint64_t>(b.duration_ns)),
            wdiff("network_messages", ref.network_messages,
                  b.network_messages),
            wdiff("network_bytes", ref.network_bytes, b.network_bytes),
            wdiff("intranode_messages", ref.intranode_messages,
                  b.intranode_messages),
            wdiff("intranode_bytes", ref.intranode_bytes,
                  b.intranode_bytes),
            wdiff("write_entries", ref.write_entries, b.write_entries),
            wdiff("bundles_sent", ref.bundles_sent, b.bundles_sent),
            wdiff("blocks_fetched", ref.remote_blocks_fetched,
                  b.remote_blocks_fetched),
            wdiff("reads_from_cache", ref.remote_reads_served_from_cache,
                  b.remote_reads_served_from_cache),
            wdiff("fetch_stall_ns", ref.fetch_stall_ns, b.fetch_stall_ns),
            wdiff("reduction_bytes_saved", ref.reduction_bytes_saved,
                  b.reduction_bytes_saved),
            wdiff("blocks_migrated", ref.blocks_migrated,
                  b.blocks_migrated)}) {
        if (!d.empty()) return {false, i, wcfg.name, d};
      }
    }
  }
  return {};
}

ShrinkResult shrink(const ProgramSpec& spec,
                    const std::vector<StressConfig>& configs,
                    size_t failing_config) {
  ShrinkResult res;
  res.configs.push_back(configs[0]);
  if (failing_config != 0 && failing_config < configs.size()) {
    res.configs.push_back(configs[failing_config]);
  }
  int budget = 200;
  const auto fails = [&](const ProgramSpec& s) {
    ++res.runs;
    --budget;
    return !run_differential(s, res.configs).ok;
  };

  ProgramSpec cur = spec;
  bool progress = true;
  while (progress && budget > 0) {
    progress = false;
    // Drop whole phases, later ones first (later phases usually depend on
    // earlier state, so survivors shrink from the back).
    for (size_t i = cur.phases.size(); i-- > 0 && budget > 0;) {
      if (cur.phases.size() <= 1) break;
      ProgramSpec cand = cur;
      cand.phases.erase(cand.phases.begin() + static_cast<ptrdiff_t>(i));
      if (fails(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }
    // Drop individual ops.
    for (size_t p = 0; p < cur.phases.size() && budget > 0; ++p) {
      for (size_t o = cur.phases[p].ops.size(); o-- > 0 && budget > 0;) {
        ProgramSpec cand = cur;
        cand.phases[p].ops.erase(cand.phases[p].ops.begin() +
                                 static_cast<ptrdiff_t>(o));
        if (fails(cand)) {
          cur = std::move(cand);
          progress = true;
        }
      }
    }
    // Clear rebalance hints.
    if (budget > 0) {
      ProgramSpec cand = cur;
      bool any = false;
      for (PhaseSpec& ph : cand.phases) {
        any = any || !ph.rebalance.empty();
        ph.rebalance.clear();
      }
      if (any && fails(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }
    // Lower K, then flatten the split.
    for (const uint64_t k : {uint64_t{1}, cur.k_total / 2}) {
      if (budget <= 0 || k == 0 || k >= cur.k_total) continue;
      ProgramSpec cand = cur;
      cand.k_total = k;
      if (fails(cand)) {
        cur = std::move(cand);
        progress = true;
        break;
      }
    }
    if (cur.k_split_mode != 0 && budget > 0) {
      ProgramSpec cand = cur;
      cand.k_split_mode = 0;
      if (fails(cand)) {
        cur = std::move(cand);
        progress = true;
      }
    }
  }
  // Finally, try lowering the failing config's machine.
  if (res.configs.size() > 1) {
    for (const int n : {1, 2}) {
      if (budget <= 0 || n >= res.configs[1].machine.nodes) continue;
      const int save = res.configs[1].machine.nodes;
      res.configs[1].machine.nodes = n;
      if (!fails(cur)) res.configs[1].machine.nodes = save;
    }
    if (budget > 0 && res.configs[1].machine.cores_per_node > 1) {
      const int save = res.configs[1].machine.cores_per_node;
      res.configs[1].machine.cores_per_node = 1;
      if (!fails(cur)) res.configs[1].machine.cores_per_node = save;
    }
  }
  res.spec = std::move(cur);
  return res;
}

}  // namespace ppm::stress

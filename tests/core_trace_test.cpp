// ppm::trace end-to-end: the zero-cost-when-off contract, byte-identical
// JSON across identically-configured runs (timestamps are virtual and the
// engine is modeled-only here), commit bit-identity between traced and
// untraced runs and across schedule policies, ring-wrap drop accounting,
// phase labels flowing into profiles and exports, and the counter rollup.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/ppm.hpp"
#include "trace/export.hpp"
#include "trace/recorder.hpp"
#include "util/rng.hpp"

namespace ppm {
namespace {

constexpr uint64_t kN = 96;
constexpr uint64_t kVpsPerNode = 24;

struct TracedRun {
  std::vector<double> contents;  // committed global array, bit-comparable
  std::string json;              // Chrome export ("" when tracing off)
  RunResult result;
  uint64_t trace_events = 0;
  uint64_t trace_dropped = 0;
};

/// Irregular multi-node workload with remote reads (stencil wraps across
/// the block boundaries), labeled phases, and rng-skewed per-VP work.
TracedRun run_workload(bool trace, SchedulePolicy schedule,
                       uint32_t buffer_events = 1u << 16) {
  PpmConfig cfg;
  cfg.machine.nodes = 3;
  cfg.machine.cores_per_node = 4;
  cfg.runtime.schedule = schedule;
  cfg.runtime.profile_phases = true;
  cfg.runtime.trace = trace;
  cfg.runtime.trace_buffer_events = buffer_events;

  TracedRun out;
  cluster::Machine machine(cfg.machine);
  Runtime runtime(machine, cfg.runtime);
  machine.run_per_node([&](int node) {
    NodeRuntime& nr = runtime.node(node);
    nr.start();
    Env env(nr);
    auto field = env.global_array<double>(kN);
    auto vps = env.ppm_do(kVpsPerNode);

    env.phase_label("init");
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kN; i += 3 * kVpsPerNode) {
        field.set(i, static_cast<double>(i) * 0.25 + 1.0);
      }
    });
    for (int round = 0; round < 2; ++round) {
      env.phase_label("stencil");
      vps.global_phase([&](Vp& vp) {
        Rng rng(vp.global_rank() ^ (static_cast<uint64_t>(round) << 20));
        const uint64_t trips = 1 + rng.next_below(4);
        for (uint64_t t = 0; t < trips; ++t) {
          const uint64_t i = (vp.global_rank() + t * 17) % kN;
          const double left = field.get((i + kN - 1) % kN);
          const double right = field.get((i + 1) % kN);
          if (t == 0) field.set(i, 0.5 * (left + right));
        }
      });
    }

    if (node == 0) {
      out.contents.resize(kN);
      for (uint64_t i = 0; i < kN; ++i) out.contents[i] = field.get(i);
    }
    nr.finish();
  });
  out.result = runtime.collect();
  if (trace) {
    EXPECT_NE(runtime.trace(), nullptr) << "trace option must build a Trace";
    if (runtime.trace() != nullptr) {
      out.json = trace::to_chrome_json(*runtime.trace());
      out.trace_events = runtime.trace()->total_recorded();
      out.trace_dropped = runtime.trace()->total_dropped();
    }
  } else {
    EXPECT_EQ(runtime.trace(), nullptr);
  }
  return out;
}

TEST(TraceTest, OffByDefaultAndCommitIdenticalToTracedRun) {
  const TracedRun off = run_workload(false, SchedulePolicy::kStatic);
  const TracedRun on = run_workload(true, SchedulePolicy::kStatic);
  EXPECT_EQ(off.trace_events, 0u);
  EXPECT_TRUE(off.json.empty());
  EXPECT_GT(on.trace_events, 0u);
  // Observation must not perturb the observed: bit-identical commits.
  ASSERT_EQ(off.contents.size(), on.contents.size());
  for (size_t i = 0; i < off.contents.size(); ++i) {
    EXPECT_EQ(off.contents[i], on.contents[i]) << "element " << i;
  }
  // Counters are unaffected by tracing too.
  EXPECT_EQ(off.result.network_messages, on.result.network_messages);
  EXPECT_EQ(off.result.remote_blocks_fetched,
            on.result.remote_blocks_fetched);
}

TEST(TraceTest, SameConfigGivesByteIdenticalJson) {
  for (const auto policy :
       {SchedulePolicy::kStatic, SchedulePolicy::kDynamic}) {
    const TracedRun a = run_workload(true, policy);
    const TracedRun b = run_workload(true, policy);
    EXPECT_EQ(a.json, b.json)
        << "virtual-time trace must replay byte-identically";
    EXPECT_FALSE(a.json.empty());
  }
}

TEST(TraceTest, SchedulePoliciesCommitBitIdenticalUnderTracing) {
  const TracedRun sta = run_workload(true, SchedulePolicy::kStatic);
  const TracedRun dyn = run_workload(true, SchedulePolicy::kDynamic);
  ASSERT_EQ(sta.contents.size(), dyn.contents.size());
  for (size_t i = 0; i < sta.contents.size(); ++i) {
    EXPECT_EQ(sta.contents[i], dyn.contents[i]) << "element " << i;
  }
}

TEST(TraceTest, RingWrapDropsOldestAndCounts) {
  // 8 events/track is far below what the workload records: every track
  // wraps, keeps its most recent window, and accounts each overwrite.
  const TracedRun tiny = run_workload(true, SchedulePolicy::kStatic, 8);
  const TracedRun full = run_workload(true, SchedulePolicy::kStatic);
  EXPECT_GT(tiny.trace_dropped, 0u);
  EXPECT_EQ(tiny.trace_events, full.trace_events)
      << "recorded() counts drops, so capacity must not change it";
  EXPECT_EQ(full.trace_dropped, 0u);
  // The export flags the loss.
  EXPECT_NE(tiny.json.find("events_dropped"), std::string::npos);
  EXPECT_EQ(full.json.find("events_dropped"), std::string::npos);
}

TEST(TraceTest, RecorderRingUnit) {
  trace::Recorder rec(/*track=*/0, /*capacity_events=*/4);
  for (int i = 0; i < 6; ++i) {
    trace::Event e;
    e.t_ns = 100 * (i + 1);
    e.a = static_cast<uint64_t>(i);
    e.kind = trace::EventKind::kCacheHit;
    rec.record(e);
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  EXPECT_EQ(rec.recorded(), 6u);
  const auto events = rec.ordered();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].a, i + 2) << "oldest two must have been dropped";
  }
}

TEST(TraceTest, SummaryAndLabelsFlow) {
  const TracedRun on = run_workload(true, SchedulePolicy::kStatic);
  const trace::Summary& s = on.result.trace_summary;
  EXPECT_EQ(s.events, on.trace_events);
  ASSERT_GE(s.phases.size(), 3u);  // init + 2 stencil rounds
  EXPECT_EQ(s.phases[0].label, "init");
  EXPECT_EQ(s.phases[1].label, "stencil");
  EXPECT_EQ(s.phases[0].nodes_seen, 3);
  EXPECT_GE(s.phases[0].critical_node, 0);
  EXPECT_LT(s.phases[0].critical_node, 3);
  EXPECT_GT(s.messages, 0u);
  // Every message the fabric counted is in the trace, once.
  EXPECT_EQ(s.messages,
            on.result.network_messages + on.result.intranode_messages);
  EXPECT_GT(s.fetches, 0u);
  EXPECT_NE(s.to_string().find("fabric: " + std::to_string(s.messages) +
                               " messages"),
            std::string::npos);
  EXPECT_FALSE(s.to_string().empty());
  // Labels land in the Chrome export and the profile rows.
  EXPECT_NE(on.json.find("stencil"), std::string::npos);
  // Messages are exported as spans on the fabric process (pid 3 of 3
  // nodes), not as instants on the node processes.
  EXPECT_NE(on.json.find("{\"ph\":\"X\",\"pid\":3,"), std::string::npos);
  EXPECT_EQ(on.json.find("\"name\":\"msg\""), std::string::npos);
}

// A two-node program that moves every NodeRuntime counter off zero:
// block reads of the other node's half (cold misses, cached reads, a
// forward stream the lookahead runs ahead of), remote adds, a reduce, one
// migration planning round on an owner-mapped array, and a node phase.
RunResult run_every_counter() {
  PpmConfig cfg;
  cfg.machine.nodes = 2;
  cfg.machine.cores_per_node = 1;
  cfg.runtime.read_block_bytes = 64;  // blocks of 8 int64s
  constexpr uint64_t kLen = 24 * 8;
  constexpr uint64_t kHalf = kLen / 2;
  return run(cfg, [&](Env& env) {
    auto a = env.global_array<int64_t>(kLen, Distribution::kAdaptive);
    auto vps = env.ppm_do(kHalf);
    vps.global_phase([&](Vp& vp) { a.set(vp.global_rank(), 1); });
    vps.global_phase([&](Vp& vp) {
      const uint64_t j = (vp.global_rank() + kHalf) % kLen;
      a.add(j, a.get(j));
    });
    env.rebalance(a);
    const auto sum = env.reduce(a, ReduceOp::kAdd);
    vps.global_phase(
        [&](Vp& vp) { (void)a.get((vp.global_rank() + kHalf) % kLen); });
    EXPECT_EQ(sum.value(), static_cast<int64_t>(2 * kLen));
    vps.node_phase([](Vp&) {});
  });
}

TEST(TraceTest, CounterRollupAggregatesAcrossNodes) {
  const TracedRun on = run_workload(true, SchedulePolicy::kStatic);
  const auto& rollup = on.result.counter_rollup;
  ASSERT_FALSE(rollup.empty());
  for (const auto& c : rollup) {
    EXPECT_LE(c.min, c.max) << c.name;
    EXPECT_GE(c.sum, c.max) << c.name;
    EXPECT_GE(c.min_node, 0);
    EXPECT_LT(c.max_node, 3);
  }

  // Every row's sum is the RunResult member it names; the two global
  // commit counts are reported per runtime. The program moves every
  // counter, so a row summed into the wrong member leaves its own member
  // at zero.
  const RunResult r = run_every_counter();
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"global_phases", r.global_phases * 2},
      {"node_phases", r.node_phases},
      {"payload_commits", r.payload_commits * 2},
      {"blocks_fetched", r.remote_blocks_fetched},
      {"reads_from_cache", r.remote_reads_served_from_cache},
      {"write_entries", r.write_entries},
      {"bundles_sent", r.bundles_sent},
      {"fetch_stall_ns", r.fetch_stall_ns},
      {"prefetch_issued", r.prefetch_issued},
      {"prefetch_hits", r.prefetch_hits},
      {"reduction_bytes_saved", r.reduction_bytes_saved},
      {"blocks_migrated", r.blocks_migrated},
      {"migration_bytes", r.migration_bytes},
      {"remote_to_local_conversions", r.remote_to_local_conversions},
      {"slow_path_reads", r.slow_path_reads},
  };
  ASSERT_EQ(r.counter_rollup.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const auto& row = r.counter_rollup[i];
    EXPECT_EQ(row.name, want[i].first);
    EXPECT_GT(row.sum, 0u) << row.name;
    EXPECT_EQ(row.sum, want[i].second) << row.name;
  }
}

TEST(TraceTest, BinaryExportRoundTripHeader) {
  const TracedRun on = run_workload(true, SchedulePolicy::kStatic);
  // Re-run to get a live Trace for the binary exporter (the helper only
  // keeps the JSON); a smoke assertion on the envelope is enough here.
  PpmConfig cfg;
  cfg.machine.nodes = 2;
  cfg.runtime.trace = true;
  cluster::Machine machine(cfg.machine);
  Runtime runtime(machine, cfg.runtime);
  uint32_t array_id = 0;
  machine.run_per_node([&](int node) {
    NodeRuntime& nr = runtime.node(node);
    nr.start();
    Env env(nr);
    auto a = env.global_array<int64_t>(16);
    array_id = a.id();
    auto vps = env.ppm_do(8);
    vps.global_phase([&](Vp& vp) {
      a.set(vp.global_rank() % 16, static_cast<int64_t>(vp.global_rank()));
      // Node 0 reads node 1's element 9: one block fetch.
      if (node == 0 && vp.node_rank() == 0) (void)a.get(9);
    });
    nr.finish();
  });
  (void)runtime.collect();
  ASSERT_NE(runtime.trace(), nullptr);
  const Bytes bin = trace::to_binary(*runtime.trace());
  ByteReader r(bin);
  EXPECT_EQ(r.get<uint32_t>(), trace::kBinaryMagic);
  EXPECT_EQ(r.get<uint32_t>(), 4u) << "version";
  EXPECT_EQ(r.get<uint32_t>(), 2u) << "nodes";
  EXPECT_EQ(r.get<uint32_t>(), 2u) << "one track per node";
  // Node 0's track: its fetch names the block by array (a), owner-local
  // first element (b) and owner (aux).
  EXPECT_EQ(r.get<uint32_t>(), 0u) << "track";
  (void)r.get<uint64_t>();  // dropped
  const auto labels = r.get<uint32_t>();
  for (uint32_t i = 0; i < labels; ++i) (void)r.get_string();
  const auto events = r.get<uint64_t>();
  int fetches = 0;
  for (uint64_t i = 0; i < events; ++i) {
    (void)r.get<int64_t>();  // t_ns
    const auto a = r.get<uint64_t>();
    const auto b = r.get<uint64_t>();
    (void)r.get<uint64_t>();  // c
    const auto aux = r.get<uint32_t>();
    (void)r.get<uint16_t>();  // core
    const auto kind = static_cast<trace::EventKind>(r.get<uint8_t>());
    (void)r.get<uint8_t>();  // flags
    if (kind != trace::EventKind::kFetchIssued) continue;
    ++fetches;
    EXPECT_EQ(a, array_id);
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(aux, 1u);
  }
  EXPECT_EQ(fetches, 1);
  EXPECT_FALSE(on.json.empty());
}

}  // namespace
}  // namespace ppm

// Conservative-window parallel simulator (docs/SIM.md): bit-identical
// replay across host-thread counts, zero-latency self-messages, delivery
// exactly on a window edge, and the fault-warp re-window clamp (delays
// shrinking below the lookahead are clamped, never reordered).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/machine.hpp"
#include "core/ppm.hpp"
#include "util/byte_buffer.hpp"
#include "util/error.hpp"

namespace ppm {
namespace {

TEST(SimParallel, ZeroLatencySelfMessages) {
  cluster::MachineConfig mc;
  mc.nodes = 2;
  mc.cores_per_node = 2;
  mc.sim_threads = 2;
  mc.intranode = {.latency_ns = 0,
                  .bytes_per_ns = 6.0,
                  .send_overhead_ns = 0,
                  .recv_overhead_ns = 0};
  cluster::Machine machine(mc);
  int64_t send_t = -1, recv_t = -1;
  machine.run_per_core([&](const cluster::Place& p) {
    if (p.node == 0 && p.core == 0) {
      net::Message m;
      m.src_node = 0;
      m.src_port = 0;
      m.dst_node = 0;
      m.dst_port = 1;
      send_t = sim::now_ns();
      machine.fabric().send(std::move(m));
    } else if (p.node == 0 && p.core == 1) {
      machine.fabric().endpoint(0, 1).recv();
      recv_t = sim::now_ns();
    }
  });
  // A zero-cost same-node message is delivered at the same virtual
  // instant it was sent: intra-node traffic never crosses an engine
  // boundary, so it is exempt from the lookahead floor.
  EXPECT_EQ(send_t, 0);
  EXPECT_EQ(recv_t, 0);
}

TEST(SimParallel, DeliveryExactlyOnTheWindowEdge) {
  cluster::MachineConfig mc;
  mc.nodes = 2;
  mc.cores_per_node = 1;
  mc.sim_threads = 2;
  mc.network = {.latency_ns = 5'000,
                .bytes_per_ns = 2.0,
                .send_overhead_ns = 0,
                .recv_overhead_ns = 0};
  cluster::Machine machine(mc);
  int64_t recv_t = -1;
  machine.run_per_core([&](const cluster::Place& p) {
    if (p.node == 0) {
      net::Message m;
      m.src_node = 0;
      m.src_port = 0;
      m.dst_node = 1;
      m.dst_port = 0;
      machine.fabric().send(std::move(m));
    } else {
      machine.fabric().endpoint(1, 0).recv();
      recv_t = sim::now_ns();
    }
  });
  // Sent at t=0 with zero overheads and an empty payload, the arrival is
  // window_start + lookahead — exactly the first horizon. An arrival ON
  // the edge belongs to the next window and must be delivered at its
  // modeled time, not re-windowed.
  EXPECT_EQ(recv_t, 5'000);
  EXPECT_EQ(machine.fabric().stats().rewindowed, 0u);
  EXPECT_GT(machine.window_stats().windows, 0u);
}

/// One deterministic multi-phase program: scatter-add writes to remote
/// elements, then shuffled remote reads, over a few epochs. Returns the
/// run's RunResult and every value read, in (node, core-deterministic VP
/// order). `sums` is indexed per node — each slot is written only by that
/// node's engine, so windowed capture needs no host synchronization.
RunResult run_program(int sim_threads, bool faults,
                      std::vector<std::vector<double>>* reads_out) {
  constexpr int kNodes = 4;
  constexpr uint64_t kN = 512;
  PpmConfig c;
  c.machine.nodes = kNodes;
  c.machine.cores_per_node = 2;
  c.machine.sim_threads = sim_threads;
  if (faults) {
    c.machine.faults.delay_jitter = true;
    c.machine.faults.seed = 7;
    c.machine.faults.delay_probability = 0.5;
    c.machine.faults.max_extra_delay_ns = 50'000;
  }
  c.runtime.read_block_bytes = 256;
  reads_out->assign(kNodes, {});
  return run(c, [&](Env& env) {
    auto a = env.global_array<double>(kN);
    auto b = env.global_array<double>(kN);
    std::vector<double>& reads =
        (*reads_out)[static_cast<size_t>(env.node_id())];
    for (int round = 0; round < 3; ++round) {
      auto vps = env.ppm_do(kN / kNodes);
      vps.global_phase([&](Vp& vp) {
        const uint64_t r = vp.global_rank();
        a.add((r * 97 + 13) % kN, static_cast<double>(r + round));
        b.set((r * 31 + 7) % kN, static_cast<double>(r * 2 + round));
      });
      vps.global_phase([&](Vp& vp) {
        const uint64_t r = vp.global_rank();
        double s = a.get((r * 53) % kN) + b.get((kN - 1 - r * 11 % kN));
        if (vp.node_rank() == 0) reads.push_back(s);
      });
    }
  });
}

void expect_equal_runs(const RunResult& x, const RunResult& y) {
  EXPECT_EQ(x.duration_ns, y.duration_ns);
  EXPECT_EQ(x.network_messages, y.network_messages);
  EXPECT_EQ(x.network_bytes, y.network_bytes);
  EXPECT_EQ(x.intranode_messages, y.intranode_messages);
  EXPECT_EQ(x.intranode_bytes, y.intranode_bytes);
  EXPECT_EQ(x.global_phases, y.global_phases);
  EXPECT_EQ(x.remote_blocks_fetched, y.remote_blocks_fetched);
  EXPECT_EQ(x.remote_reads_served_from_cache,
            y.remote_reads_served_from_cache);
  EXPECT_EQ(x.write_entries, y.write_entries);
  EXPECT_EQ(x.bundles_sent, y.bundles_sent);
  EXPECT_EQ(x.fetch_stall_ns, y.fetch_stall_ns);
  EXPECT_EQ(x.reduction_bytes_saved, y.reduction_bytes_saved);
}

TEST(SimParallel, BitIdenticalAcrossHostThreadCounts) {
  std::vector<std::vector<double>> reads1, reads2, reads4;
  const RunResult r1 = run_program(1, /*faults=*/false, &reads1);
  const RunResult r2 = run_program(2, /*faults=*/false, &reads2);
  const RunResult r4 = run_program(4, /*faults=*/false, &reads4);
  expect_equal_runs(r1, r2);
  expect_equal_runs(r1, r4);
  EXPECT_EQ(reads1, reads2);
  EXPECT_EQ(reads1, reads4);
}

TEST(SimParallel, FaultJitterIsDeterministicAcrossThreadCounts) {
  std::vector<std::vector<double>> reads1, reads2, reads4;
  const RunResult r1 = run_program(1, /*faults=*/true, &reads1);
  const RunResult r2 = run_program(2, /*faults=*/true, &reads2);
  const RunResult r4 = run_program(4, /*faults=*/true, &reads4);
  expect_equal_runs(r1, r2);
  expect_equal_runs(r1, r4);
  EXPECT_EQ(reads1, reads2);
  EXPECT_EQ(reads1, reads4);
}

/// Accumulate-heavy program: every VP fires add/min/max/xor/mul
/// accumulates at scattered (mostly remote) elements each round, plus one
/// commit-barrier dot reduction per round. Returns the run's RunResult,
/// the final array contents as read on node 0, and each round's reduction
/// value (identical on every node; captured on node 0).
RunResult run_accum_program(int sim_threads, bool faults,
                            std::vector<uint64_t>* state_out,
                            std::vector<uint64_t>* dots_out) {
  constexpr int kNodes = 4;
  constexpr uint64_t kN = 128;
  constexpr uint64_t kVps = 32;
  PpmConfig c;
  c.machine.nodes = kNodes;
  c.machine.cores_per_node = 2;
  c.machine.sim_threads = sim_threads;
  if (faults) {
    c.machine.faults.delay_jitter = true;
    c.machine.faults.seed = 13;
    c.machine.faults.delay_probability = 0.5;
    c.machine.faults.max_extra_delay_ns = 50'000;
  }
  state_out->clear();
  dots_out->clear();
  return run(c, [&](Env& env) {
    auto a = env.global_array<uint64_t>(kN);
    auto b = env.global_array<uint64_t>(kN);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x ^= v; });
    auto vps = env.ppm_do(kVps / kNodes);
    vps.global_phase([&](Vp& vp) {
      const uint64_t r = vp.global_rank();
      // Seed both arrays so min/mul have signal.
      for (uint64_t i = r; i < kN; i += kVps) {
        a.set(i, i * 3 + 1);
        b.set(i, i % 7 + 1);
      }
    });
    for (uint64_t round = 0; round < 3; ++round) {
      auto dot = env.reduce_dot(a, b);
      // Each op class owns a disjoint 32-element region of `a`: only ops
      // that commute with THEMSELVES may collide on an element (the
      // model's determinism contract, docs/MODEL.md).
      vps.global_phase([&](Vp& vp) {
        const uint64_t r = vp.global_rank();
        a.accumulate((r * 13 + 5 + round) % 32, ReduceOp::kAdd, r + round);
        a.accumulate(32 + (r * 29 + 1) % 32, ReduceOp::kMin, r * 2 + round);
        a.accumulate(64 + (r * 17 + 3) % 32, ReduceOp::kMax, r * 100);
        a.accumulate(96 + (r * 7 + round) % 32, ReduceOp::kUser0,
                     r * 0x9e3779b9ULL);
        b.accumulate((r * 11 + round) % kN, ReduceOp::kMul, 2 + round % 2);
      });
      if (env.node_id() == 0) dots_out->push_back(dot.value());
    }
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        for (uint64_t i = 0; i < kN; ++i) state_out->push_back(a.get(i));
        for (uint64_t i = 0; i < kN; ++i) state_out->push_back(b.get(i));
      }
    });
  });
}

/// Straight-line golden model of run_accum_program: phase writes applied
/// at commit (the accumulate ops commute exactly on uint64, sets hit
/// disjoint elements), reductions read phase-start state.
void golden_accum_program(std::vector<uint64_t>* state,
                          std::vector<uint64_t>* dots) {
  constexpr uint64_t kN = 128;
  constexpr uint64_t kVps = 32;
  std::vector<uint64_t> a(kN, 0), b(kN, 0);
  for (uint64_t r = 0; r < kVps; ++r) {
    for (uint64_t i = r; i < kN; i += kVps) {
      a[i] = i * 3 + 1;
      b[i] = i % 7 + 1;
    }
  }
  dots->clear();
  for (uint64_t round = 0; round < 3; ++round) {
    std::vector<uint64_t> na = a, nb = b;
    for (uint64_t r = 0; r < kVps; ++r) {
      na[(r * 13 + 5 + round) % 32] += r + round;
      na[32 + (r * 29 + 1) % 32] =
          std::min(na[32 + (r * 29 + 1) % 32], r * 2 + round);
      na[64 + (r * 17 + 3) % 32] =
          std::max(na[64 + (r * 17 + 3) % 32], r * 100);
      na[96 + (r * 7 + round) % 32] ^= r * 0x9e3779b9ULL;
      nb[(r * 11 + round) % kN] *= 2 + round % 2;
    }
    a = std::move(na);
    b = std::move(nb);
    // A reduction registered before a phase resolves at that phase's
    // commit, reading the just-committed (post-apply) state.
    uint64_t dot = 0;
    for (uint64_t i = 0; i < kN; ++i) dot += a[i] * b[i];
    dots->push_back(dot);
  }
  state->clear();
  state->insert(state->end(), a.begin(), a.end());
  state->insert(state->end(), b.begin(), b.end());
}

TEST(SimParallel, AccumulateBitIdenticalAcrossHostThreadCounts) {
  // Accumulate records and commit-barrier reductions must replay
  // bit-identically across host-thread counts — including the
  // reduction_bytes_saved counter — and match the straight-line golden
  // model exactly.
  std::vector<uint64_t> s1, s2, s4, d1, d2, d4, gs, gd;
  const RunResult r1 = run_accum_program(1, /*faults=*/false, &s1, &d1);
  const RunResult r2 = run_accum_program(2, /*faults=*/false, &s2, &d2);
  const RunResult r4 = run_accum_program(4, /*faults=*/false, &s4, &d4);
  expect_equal_runs(r1, r2);
  expect_equal_runs(r1, r4);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d4);
  golden_accum_program(&gs, &gd);
  EXPECT_EQ(s1, gs);
  EXPECT_EQ(d1, gd);
  // Every accumulate went out as one write record (the seed phase sets
  // 2 * 128 elements, then 3 rounds of 32 VPs write 5 each), and the
  // reductions' wire win was recorded.
  EXPECT_EQ(r1.write_entries, 2u * 128u + 3u * 32u * 5u);
  EXPECT_GT(r1.network_bytes, 0u);
  EXPECT_GT(r1.reduction_bytes_saved, 0u);
}

TEST(SimParallel, AccumulateFaultJitterDeterministicAcrossThreadCounts) {
  std::vector<uint64_t> s1, s2, s4, d1, d2, d4, gs, gd;
  const RunResult r1 = run_accum_program(1, /*faults=*/true, &s1, &d1);
  const RunResult r2 = run_accum_program(2, /*faults=*/true, &s2, &d2);
  const RunResult r4 = run_accum_program(4, /*faults=*/true, &s4, &d4);
  expect_equal_runs(r1, r2);
  expect_equal_runs(r1, r4);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(d1, d2);
  EXPECT_EQ(d1, d4);
  // Fault jitter moves virtual time, never committed state.
  golden_accum_program(&gs, &gd);
  EXPECT_EQ(s1, gs);
  EXPECT_EQ(d1, gd);
}

/// Fault-injected arrival warps that shrink a message's wire time below
/// the lookahead are re-windowed (clamped up to the completed horizon),
/// never delivered into an engine's past and never reordered within a
/// (src, dst, port) pair.
void run_warp(int sim_threads, std::vector<int64_t>* recv_times,
              uint64_t* rewindowed) {
  constexpr int kMessages = 50;
  cluster::MachineConfig mc;
  mc.nodes = 2;
  mc.cores_per_node = 1;
  mc.sim_threads = sim_threads;
  mc.network = {.latency_ns = 5'000,
                .bytes_per_ns = 2.0,
                .send_overhead_ns = 100,
                .recv_overhead_ns = 100};
  mc.faults.delay_jitter = true;
  mc.faults.seed = 11;
  mc.faults.delay_probability = 0.5;
  mc.faults.max_extra_delay_ns = 2'000;
  mc.faults.test_arrival_warp_ns = -6'000;  // below the 5 us lookahead
  cluster::Machine machine(mc);
  recv_times->clear();
  machine.run_per_core([&](const cluster::Place& p) {
    if (p.node == 0) {
      for (int i = 0; i < kMessages; ++i) {
        net::Message m;
        m.src_node = 0;
        m.src_port = 0;
        m.dst_node = 1;
        m.dst_port = 0;
        ByteWriter w;
        w.put<int64_t>(i);
        m.payload = std::move(w).take();
        machine.fabric().send(std::move(m));
        sim::advance_ns(1'500);
      }
    } else {
      for (int i = 0; i < kMessages; ++i) {
        net::Message m = machine.fabric().endpoint(1, 0).recv();
        ByteReader r(m.payload);
        // Never reordered: pairwise FIFO survives warp + clamp.
        ASSERT_EQ(r.get<int64_t>(), i);
        recv_times->push_back(sim::now_ns());
      }
    }
  });
  *rewindowed = machine.fabric().stats().rewindowed;
}

TEST(SimParallel, NegativeWarpIsRewindowedNeverReordered) {
  std::vector<int64_t> t1, t2;
  uint64_t rw1 = 0, rw2 = 0;
  run_warp(1, &t1, &rw1);
  run_warp(2, &t2, &rw2);
  EXPECT_GT(rw1, 0u);
  // The clamp itself is deterministic: both thread counts re-window the
  // same arrivals and deliver at the same virtual times.
  EXPECT_EQ(rw1, rw2);
  EXPECT_EQ(t1, t2);
  // Clamped arrivals are never early: every delivery sits at or after the
  // modeled minimum (send overhead + wire latency).
  for (const int64_t t : t1) EXPECT_GE(t, 5'000);
}

TEST(SimParallel, NonPositiveLatencyIsRejected) {
  // The window scheduler's lookahead is the network latency, so a machine
  // without a positive one cannot be simulated: construction fails and
  // says why instead of silently mis-simulating.
  for (const int64_t latency : {int64_t{0}, int64_t{-5}}) {
    cluster::MachineConfig mc;
    mc.nodes = 2;
    mc.network.latency_ns = latency;
    try {
      cluster::Machine machine(mc);
      ADD_FAILURE() << "latency " << latency << " ns was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("lookahead"), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace ppm

// SharedArray::accumulate / accumulate_n and Env::reduce / reduce_dot
// (docs/MODEL.md).
//
// The contract under test: accumulate() is the generic-op form of add():
// for exactly commutative/associative ops (integer add/min/max/mul, a
// registered XOR), remote records shipped in write bundles commit
// bit-identical state to the local log — the path every element takes in
// a 1-node run — under every distribution and across a migration epoch;
// accumulate ships exactly the bytes of the matching add()/max_update()/
// add_n() and never fetches. Non-commutative user ops on conflicting
// elements are a reportable ppm::check violation, and commit alike on
// every node count.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/ppm.hpp"

namespace ppm {
namespace {

constexpr uint64_t kN = 96;
constexpr uint64_t kVpsPerNode = 8;
/// VPs of run_mixed on any node count: its 3-node runs and the 1-node
/// reference run the same global ranks.
constexpr uint64_t kMixedVps = 24;

PpmConfig cfg(int nodes) {
  PpmConfig c;
  c.machine.nodes = nodes;
  c.machine.cores_per_node = 2;
  return c;
}

/// One accumulate-heavy program over a single array of the given
/// distribution: seed, then three rounds mixing every accumulate flavor
/// (scalar add/min/max/mul/xor plus an accumulate_n run), with scattered
/// mostly-remote targets. Every VP's add is a same-VP run of two records.
/// kMixedVps VPs are split evenly over the nodes, so on one node every
/// element takes the plain deferred-write path. With rebalance_mid, a
/// read-only round first has VP r read element 4r + 32, which sits in the
/// next node's third of the array, and round 1 requests a migration
/// planning round for its commit. Returns final contents (read on node 0)
/// and the run statistics.
std::vector<uint64_t> run_mixed(const PpmConfig& c, Distribution dist,
                                bool rebalance_mid = false,
                                RunResult* stats = nullptr) {
  std::vector<uint64_t> out;
  const RunResult res = run(c, [&](Env& env) {
    auto a = env.global_array<uint64_t>(kN, dist);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x ^= v; });
    const uint64_t k_total = kMixedVps;
    auto vps = env.ppm_do(k_total / static_cast<uint64_t>(env.node_count()));
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kN; i += k_total) {
        a.set(i, i * 5 + 2);
      }
    });
    if (rebalance_mid) {
      vps.global_phase([&](Vp& vp) {
        (void)a.get((vp.global_rank() * 4 + 32) % kN);
      });
    }
    for (uint64_t round = 0; round < 3; ++round) {
      if (rebalance_mid && round == 1) a.rebalance();
      // Each op class owns a disjoint 16-element region (the bulk-add
      // runs own [80, 96)): only ops that commute with THEMSELVES may
      // collide on an element — the model's determinism contract.
      vps.global_phase([&](Vp& vp) {
        const uint64_t r = vp.global_rank();
        a.accumulate((r * 13 + round) % 16, ReduceOp::kAdd, r + 1);
        a.accumulate((r * 13 + round) % 16, ReduceOp::kAdd, round);
        a.accumulate(16 + (r * 29 + 1) % 16, ReduceOp::kMin, r * 3 + round);
        a.accumulate(32 + (r * 17 + 5) % 16, ReduceOp::kMax, r * 40);
        a.accumulate(48 + (r * 11 + 7) % 16, ReduceOp::kMul, 1 + round % 2);
        a.accumulate(64 + (r * 7 + 3) % 16, ReduceOp::kUser0,
                     r * 0x9e3779b97f4a7c15ULL);
        // Bulk add runs: overlapping 3-element windows inside [80, 96).
        const uint64_t vals[3] = {round + 1, round + 2, round + 3};
        a.accumulate_n(80 + (r % 5) * 3, 3, ReduceOp::kAdd, vals);
      });
    }
    vps.global_phase([&](Vp& vp) {
      if (vp.global_rank() == 0) {
        for (uint64_t i = 0; i < kN; ++i) out.push_back(a.get(i));
      }
    });
  });
  if (stats != nullptr) *stats = res;
  return out;
}

TEST(CoreAccumulate, MultiNodeMatchesOneNodeEveryDistribution) {
  // The differential contract on a hand-sized program: remote records
  // shipped in bundles on 3 nodes and the local log of the 1-node run
  // commit the same bits under kBlock, kCyclic, and kAdaptive.
  RunResult local_stats;
  const auto local = run_mixed(cfg(1), Distribution::kBlock,
                               /*rebalance_mid=*/false, &local_stats);
  ASSERT_EQ(local.size(), kN);
  EXPECT_EQ(local_stats.network_bytes, 0u);
  for (const Distribution dist :
       {Distribution::kBlock, Distribution::kCyclic,
        Distribution::kAdaptive}) {
    RunResult stats;
    const auto got = run_mixed(cfg(3), dist, /*rebalance_mid=*/false, &stats);
    EXPECT_EQ(got, local) << "distribution " << static_cast<int>(dist);
    EXPECT_EQ(stats.write_entries, local_stats.write_entries);
  }
}

TEST(CoreAccumulate, DistributionsAgreeWithEachOther) {
  // The program never reads mid-round, so its committed state is layout-
  // free: all three distributions must agree element-for-element.
  const auto block = run_mixed(cfg(3), Distribution::kBlock);
  const auto cyclic = run_mixed(cfg(3), Distribution::kCyclic);
  const auto adaptive = run_mixed(cfg(3), Distribution::kAdaptive);
  EXPECT_EQ(block, cyclic);
  EXPECT_EQ(block, adaptive);
}

TEST(CoreAccumulate, BitIdenticalAcrossMigrationEpoch) {
  // rebalance() mid-program forces a migration planning round at a commit
  // that also carries staged accumulate records: block handoff must not
  // lose, duplicate, or reorder them. Four-element blocks give the array
  // 24 migration blocks, and the read round makes each node the only
  // reader of blocks another node owns, so the plan moves blocks.
  const auto small_blocks = [](int nodes) {
    PpmConfig c = cfg(nodes);
    c.runtime.read_block_bytes = 4 * sizeof(uint64_t);
    return c;
  };
  RunResult stats;
  const auto migrated = run_mixed(small_blocks(3), Distribution::kAdaptive,
                                  /*rebalance_mid=*/true, &stats);
  EXPECT_GT(stats.blocks_migrated, 0u);
  ASSERT_EQ(migrated.size(), kN);
  EXPECT_EQ(migrated, run_mixed(small_blocks(1), Distribution::kAdaptive,
                                /*rebalance_mid=*/true));
  // And against the never-migrating layouts.
  EXPECT_EQ(migrated, run_mixed(cfg(3), Distribution::kBlock));
}

TEST(CoreAccumulate, ShipsTheBytesOfAddAndFetchesNothing) {
  // accumulate() is the generic-op form of add(): a program of pure remote
  // accumulates (no reads anywhere) must never enter the cold read path
  // or fetch a block, and it must ship exactly the records — bytes and
  // messages — and commit exactly the values of the same program written
  // with add()/max_update()/add_n().
  // Each node's owned elements after the last commit, by node.
  using Owned = std::vector<Bytes>;
  auto program = [](bool accumulate, Owned* owned) {
    owned->assign(3, Bytes{});
    return run(cfg(3), [&](Env& env) {
      auto a = env.global_array<uint64_t>(kN);
      auto vps = env.ppm_do(kVpsPerNode);
      for (uint64_t round = 0; round < 3; ++round) {
        vps.global_phase([&](Vp& vp) {
          const uint64_t r = vp.global_rank();
          const uint64_t add_at = (r * 13 + round) % 32;
          const uint64_t max_at = 32 + (r * 17 + 5) % 32;
          const uint64_t run_at = 64 + (r % 10) * 3;
          const uint64_t vals[3] = {round + 1, round + 2, round + 3};
          if (accumulate) {
            a.accumulate(add_at, ReduceOp::kAdd, r + 1);
            a.accumulate(max_at, ReduceOp::kMax, r * 40);
            a.accumulate_n(run_at, 3, ReduceOp::kAdd, vals);
          } else {
            a.add(add_at, r + 1);
            a.max_update(max_at, r * 40);
            a.add_n(run_at, 3, vals);
          }
        });
      }
      (*owned)[static_cast<size_t>(env.node_id())] =
          env.runtime().pack_owned_elems(a.id());
    });
  };
  Owned acc_values, add_values;
  const RunResult acc = program(/*accumulate=*/true, &acc_values);
  const RunResult add = program(/*accumulate=*/false, &add_values);
  EXPECT_EQ(acc.slow_path_reads, 0u);
  EXPECT_EQ(acc.remote_blocks_fetched, 0u);
  ASSERT_GT(acc.network_bytes, 0u);
  EXPECT_EQ(acc.network_bytes, add.network_bytes);
  EXPECT_EQ(acc.network_messages, add.network_messages);
  EXPECT_EQ(acc.write_entries, add.write_entries);
  EXPECT_EQ(acc.duration_ns, add.duration_ns);
  EXPECT_EQ(acc_values, add_values);
  size_t owned_bytes = 0;
  for (const Bytes& b : acc_values) owned_bytes += b.size();
  EXPECT_EQ(owned_bytes, kN * sizeof(uint64_t));
}

TEST(CoreAccumulate, ReduceAllOpsCorrectAndNodeAgreeing) {
  // reduce() over a seeded array for every built-in op plus the
  // registered XOR: every node must see the same scalar, equal to the
  // straight-line fold.
  constexpr int kNodes = 3;
  std::vector<uint64_t> want(kN);
  for (uint64_t i = 0; i < kN; ++i) want[i] = (i * 31 + 7) % 101 + 1;
  uint64_t sum = 0, mn = UINT64_MAX, mx = 0, xr = 0;
  for (const uint64_t v : want) {
    sum += v;
    mn = std::min(mn, v);
    mx = std::max(mx, v);
    xr ^= v;
  }
  std::vector<std::vector<uint64_t>> per_node(kNodes);
  run(cfg(kNodes), [&](Env& env) {
    auto a = env.global_array<uint64_t>(kN);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x ^= v; });
    auto vps = env.ppm_do(kVpsPerNode);
    const uint64_t k_total =
        kVpsPerNode * static_cast<uint64_t>(env.node_count());
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kN; i += k_total) {
        a.set(i, (i * 31 + 7) % 101 + 1);
      }
    });
    auto h_sum = env.reduce(a, ReduceOp::kAdd);
    auto h_min = env.reduce(a, ReduceOp::kMin);
    auto h_max = env.reduce(a, ReduceOp::kMax);
    auto h_xor = env.reduce(a, ReduceOp::kUser0);
    vps.global_phase([&](Vp&) {});
    auto& mine = per_node[static_cast<size_t>(env.node_id())];
    mine = {h_sum.value(), h_min.value(), h_max.value(), h_xor.value()};
  });
  const std::vector<uint64_t> want_scalars = {sum, mn, mx, xr};
  for (int n = 0; n < kNodes; ++n) {
    EXPECT_EQ(per_node[static_cast<size_t>(n)], want_scalars)
        << "node " << n;
  }
}

TEST(CoreAccumulate, ReduceDotMatchesLocalFold) {
  constexpr int kNodes = 4;
  double want = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    want += (static_cast<double>(i) + 0.5) * (2.0 - static_cast<double>(i % 3));
  }
  double got = 0;
  RunResult stats = run(cfg(kNodes), [&](Env& env) {
    auto a = env.global_array<double>(kN);
    auto b = env.global_array<double>(kN);
    auto vps = env.ppm_do(kVpsPerNode);
    const uint64_t k_total =
        kVpsPerNode * static_cast<uint64_t>(env.node_count());
    vps.global_phase([&](Vp& vp) {
      for (uint64_t i = vp.global_rank(); i < kN; i += k_total) {
        a.set(i, static_cast<double>(i) + 0.5);
        b.set(i, 2.0 - static_cast<double>(i % 3));
      }
    });
    auto h = env.reduce_dot(a, b);
    vps.global_phase([&](Vp&) {});
    if (env.node_id() == 0) got = h.value();
  });
  EXPECT_EQ(got, want);  // bit-exact: same ascending fold order
  // The partials rode the commit barrier: the root-gather bytes a
  // standalone allreduce would have cost are recorded as saved.
  EXPECT_GT(stats.reduction_bytes_saved, 0u);
}

// ---------------------------------------------------------------------------
// Reductions on every layout
// ---------------------------------------------------------------------------

// Order-sensitive doubles. Each 4-element block (the migration block of
// the tests below) is [+2^60, -2^60, c, d] with c, d in [1, 2): adding
// 2^60 absorbs a small running sum, so an ascending fold ends at c + d of
// the last block it visits, and folding blocks in another order, or a
// missing or stale block, changes the bits. y is 1 on the 2^60 pair, so
// the dot products cancel the same way.
double xval(uint64_t i) {
  if (i % 4 == 0) return 0x1p60;
  if (i % 4 == 1) return -0x1p60;
  return 1.0 + static_cast<double>((i * 0x9E3779B97F4A7C15ULL) >> 12) /
                   0x1p52;  // [1, 2)
}
double yval(uint64_t i) {
  if (i % 4 < 2) return 1.0;
  return std::ldexp(1.0 + static_cast<double>(i % 7) / 8.0,
                    static_cast<int>((i * 3) % 11) - 5);
}
int64_t mval(uint64_t i) {
  return static_cast<int64_t>((i * 37) % 101) + 5;
}
uint64_t uval(uint64_t i) { return 3 + 2 * (i % 4); }  // odd: never zero

/// Bit patterns of sum(x), dot(x, y), min(m) and product(u).
using ReduceBits = std::array<uint64_t, 4>;

/// The fold the runtime promises: each node folds the elements it owns in
/// ascending global index, seeded by the first one, then the non-empty
/// partials combine in ascending node order.
template <typename T, typename Elem, typename Op>
T owner_order_fold(const std::vector<int>& owner, int nodes, Elem elem,
                   Op op) {
  std::vector<std::optional<T>> part(static_cast<size_t>(nodes));
  for (uint64_t i = 0; i < owner.size(); ++i) {
    auto& p = part[static_cast<size_t>(owner[i])];
    p = p ? op(*p, elem(i)) : elem(i);
  }
  std::optional<T> acc;
  for (const auto& p : part) {
    if (p) acc = acc ? op(*acc, *p) : *p;
  }
  return acc.value_or(T{});
}

ReduceBits golden_bits(const std::vector<int>& owner, int nodes) {
  const auto add = [](double a, double b) { return a + b; };
  return {
      std::bit_cast<uint64_t>(
          owner_order_fold<double>(owner, nodes, xval, add)),
      std::bit_cast<uint64_t>(owner_order_fold<double>(
          owner, nodes, [](uint64_t i) { return xval(i) * yval(i); }, add)),
      static_cast<uint64_t>(owner_order_fold<int64_t>(
          owner, nodes, mval,
          [](int64_t a, int64_t b) { return std::min(a, b); })),
      owner_order_fold<uint64_t>(owner, nodes, uval,
                                 [](uint64_t a, uint64_t b) { return a * b; }),
  };
}

struct ReduceRun {
  std::vector<ReduceBits> per_node;
  std::vector<int> owner;  // owner of each element when the reduce resolved
  // Some node holds a block it did not start with, gave one of its own
  // away, and keeps its owned blocks in an order that is not their
  // global order (migrating runs only).
  bool slots_scrambled = false;
};

/// Seed four arrays of `dist` with the values above, optionally steer a
/// migration round, then reduce all four (kAdd, reduce_dot, kMin, kMul)
/// at one commit. The migrating shape is fixed: 3 nodes, n = 46 and
/// 4-element blocks, so blocks 0-3, 4-7 and 8-11 start on nodes 0, 1 and
/// 2, and block 11 holds only elements 44-45. Skewed reads move block 0
/// to node 1 (heaviest), block 4 to node 2, then block 11 to node 0,
/// which lands in the slot block 0 vacated.
ReduceRun run_reductions(int nodes, uint64_t n, Distribution dist,
                         bool migrate) {
  PpmConfig c = cfg(nodes);
  c.runtime.read_block_bytes = 32;  // 4-element migration blocks
  ReduceRun out;
  out.per_node.resize(static_cast<size_t>(nodes));
  std::vector<int> scrambled(static_cast<size_t>(nodes), 0);
  run(c, [&](Env& env) {
    auto x = env.global_array<double>(n, dist);
    auto y = env.global_array<double>(n, dist);
    auto m = env.global_array<int64_t>(n, dist);
    auto u = env.global_array<uint64_t>(n, dist);
    const int me = env.node_id();
    for (uint64_t i = 0; i < n; ++i) {
      if (x.owner(i) != me) continue;
      x.set(i, xval(i));
      y.set(i, yval(i));
      m.set(i, mval(i));
      u.set(i, uval(i));
    }
    env.barrier();
    auto vps = env.ppm_do(1);
    if (migrate) {
      ASSERT_EQ(nodes, 3);
      ASSERT_EQ(n, 46u);
      env.rebalance(x);
      env.rebalance(y);
      env.rebalance(m);
      env.rebalance(u);
      vps.global_phase([&](Vp&) {
        const auto hot = [&](uint64_t first, uint64_t count, int reps) {
          for (int r = 0; r < reps; ++r) {
            for (uint64_t i = first; i < first + count; ++i) {
              (void)x.get(i);
              (void)y.get(i);
              (void)m.get(i);
              (void)u.get(i);
            }
          }
        };
        if (me == 0) hot(44, 2, 10);
        if (me == 1) hot(0, 4, 12);
        if (me == 2) hot(16, 4, 8);
      });
      const auto& rec = env.runtime().array(x.id());
      const uint64_t bpc = (rec.mig_blocks + 2) / 3;  // initial blocks/node
      bool gained = false, lost = false, ascending = true;
      int64_t last_slot = -1;
      for (uint64_t b = 0; b < rec.mig_blocks; ++b) {
        const bool started_here = b / bpc == static_cast<uint64_t>(me);
        if (rec.mig_owner[b] != me) {
          lost = lost || started_here;
          continue;
        }
        gained = gained || !started_here;
        ascending = ascending && rec.mig_slot[b] > last_slot;
        last_slot = rec.mig_slot[b];
      }
      scrambled[static_cast<size_t>(me)] = gained && lost && !ascending;
    }
    // The layout-free snapshot concatenates the same runs the fold walks.
    std::vector<double> mine;
    for (uint64_t i = 0; i < n; ++i) {
      if (x.owner(i) == me) mine.push_back(xval(i));
    }
    const Bytes packed = env.runtime().pack_owned_elems(x.id());
    ASSERT_EQ(packed.size() % sizeof(double), 0u);
    std::vector<double> unpacked(packed.size() / sizeof(double));
    if (!packed.empty()) {
      std::memcpy(unpacked.data(), packed.data(), packed.size());
    }
    EXPECT_EQ(unpacked, mine) << "node " << me;
    auto h_sum = env.reduce(x, ReduceOp::kAdd);
    auto h_dot = env.reduce_dot(x, y);
    auto h_min = env.reduce(m, ReduceOp::kMin);
    auto h_mul = env.reduce(u, ReduceOp::kMul);
    vps.global_phase([](Vp&) {});
    out.per_node[static_cast<size_t>(me)] = {
        std::bit_cast<uint64_t>(h_sum.value()),
        std::bit_cast<uint64_t>(h_dot.value()),
        static_cast<uint64_t>(h_min.value()), h_mul.value()};
    if (me == 0) {
      for (uint64_t i = 0; i < n; ++i) out.owner.push_back(x.owner(i));
    }
  });
  out.slots_scrambled =
      std::find(scrambled.begin(), scrambled.end(), 1) != scrambled.end();
  return out;
}

TEST(CoreAccumulate, ReduceEveryLayoutMatchesOwnerOrderGolden) {
  // Each layout keeps its own owned set, so its bits are checked against
  // the owner-order golden of that layout. n = 46 is not a multiple of
  // the 4-element migration block; n = 3 on 4 nodes leaves a node (three
  // under kAdaptive) owning nothing.
  struct Shape {
    int nodes;
    uint64_t n;
  };
  for (const Shape s : {Shape{3, 46}, Shape{4, 3}, Shape{2, 1}}) {
    for (const Distribution dist :
         {Distribution::kBlock, Distribution::kCyclic,
          Distribution::kAdaptive}) {
      const ReduceRun r = run_reductions(s.nodes, s.n, dist, false);
      ASSERT_EQ(r.owner.size(), s.n);
      const ReduceBits want = golden_bits(r.owner, s.nodes);
      for (int node = 0; node < s.nodes; ++node) {
        EXPECT_EQ(r.per_node[static_cast<size_t>(node)], want)
            << "nodes " << s.nodes << " n " << s.n << " dist "
            << static_cast<int>(dist) << " node " << node;
      }
    }
  }
}

TEST(CoreAccumulate, ReduceAfterMigrationFoldsOwnedBlocksInIndexOrder) {
  // After the migration round a node's slots hold its blocks out of
  // global order, and a vacated slot keeps the stale bytes of the block
  // that left. The fold must still visit exactly the owned elements in
  // ascending index order: folding whole slotted storage, or owned blocks
  // in slot order, changes these bits.
  const ReduceRun r = run_reductions(3, 46, Distribution::kAdaptive, true);
  ASSERT_TRUE(r.slots_scrambled);
  ASSERT_EQ(r.owner.size(), 46u);
  EXPECT_EQ(r.owner[0], 1);
  EXPECT_EQ(r.owner[16], 2);
  EXPECT_EQ(r.owner[45], 0);
  const ReduceBits want = golden_bits(r.owner, 3);
  for (int node = 0; node < 3; ++node) {
    EXPECT_EQ(r.per_node[static_cast<size_t>(node)], want) << "node " << node;
  }
}

TEST(CoreAccumulate, ReduceSeedsWithFirstOwnedElement) {
  // 0.0 + (-0.0) is 0.0: a fold seeded with T{} would lose the sign of a
  // sum or dot product over a lone -0.0.
  double sum = 0, dot = 0;
  run(cfg(2), [&](Env& env) {
    auto a = env.global_array<double>(1);
    auto b = env.global_array<double>(1);
    if (a.owner(0) == env.node_id()) {
      a.set(0, -0.0);
      b.set(0, 1.0);
    }
    env.barrier();
    auto h_sum = env.reduce(a, ReduceOp::kAdd);
    auto h_dot = env.reduce_dot(a, b);
    env.ppm_do(1).global_phase([](Vp&) {});
    if (env.node_id() == 1) {
      sum = h_sum.value();
      dot = h_dot.value();
    }
  });
  EXPECT_TRUE(std::signbit(sum));
  EXPECT_TRUE(std::signbit(dot));
}

TEST(CoreAccumulate, ReduceDotMismatchedLayoutsRejected) {
  // The dot partial pairs the two arrays' owned runs positionally: a
  // block/cyclic mismatch, or two kAdaptive arrays whose owner maps
  // diverged after one of them migrated, would silently multiply
  // unrelated elements, so registration must reject it loudly.
  EXPECT_THROW(run(cfg(2),
                   [](Env& env) {
                     auto a = env.global_array<double>(kN);
                     auto b = env.global_array<double>(
                         kN, Distribution::kCyclic);
                     (void)env.reduce_dot(a, b);
                   }),
               Error);
  const auto diverged = [](bool rebalance_both) {
    PpmConfig c = cfg(2);
    c.runtime.read_block_bytes = 32;  // 24 four-element blocks
    return run(c, [&](Env& env) {
      auto a = env.global_array<double>(kN, Distribution::kAdaptive);
      auto b = env.global_array<double>(kN, Distribution::kAdaptive);
      env.rebalance(a);
      if (rebalance_both) env.rebalance(b);
      auto vps = env.ppm_do(1);
      vps.global_phase([&](Vp&) {
        if (env.node_id() != 1) return;
        for (int r = 0; r < 8; ++r) {
          for (uint64_t i = 0; i < 4; ++i) {
            (void)a.get(i);
            (void)b.get(i);
          }
        }
      });
      (void)env.reduce_dot(a, b);
      vps.global_phase([](Vp&) {});
    });
  };
  EXPECT_THROW(diverged(false), Error);
  // Control: the same program with both maps moved alike is accepted.
  RunResult both;
  EXPECT_NO_THROW(both = diverged(true));
  EXPECT_GT(both.blocks_migrated, 0u);
}

// ---------------------------------------------------------------------------
// Reduces resolved at the commit of the phase that writes their arrays
// ---------------------------------------------------------------------------

/// The default link, or one whose 5 us send overhead makes p−1 direct
/// sends lose to ceil(log2 p) relay hops from 4 nodes on, so commits take
/// the sparse form there: markers only to written peers, then a census.
PpmConfig link_cfg(int nodes, bool bruck) {
  PpmConfig c = cfg(nodes);
  // Three cores: from four nodes on, each core sends a share of the last
  // markers that carry the reduce partials (NodeRuntime::send_fanout).
  c.machine.cores_per_node = 3;
  c.runtime.read_block_bytes = 32;  // 4-element migration blocks
  if (bruck) {
    c.machine.network.send_overhead_ns = 5'000;
    c.machine.network.latency_ns = 1'000;
  }
  return c;
}

/// Order-sensitive double increments: adding 2^53, 1 and −2^53 to a value
/// in [1, 2) in another order changes its bits.
double xinc(uint64_t rank) {
  switch (rank % 3) {
    case 0: return 0x1p53;
    case 1: return 1.0;
    default: return -0x1p53;
  }
}

/// Owner-order folds of committed contents: sum(x), dot(x, y), min(m),
/// product(u) and sum(z), as bit patterns.
std::vector<uint64_t> committed_golden(const std::vector<int>& owner,
                                       int nodes,
                                       const std::vector<double>& x,
                                       const std::vector<double>& y,
                                       const std::vector<int64_t>& m,
                                       const std::vector<uint64_t>& u,
                                       const std::vector<double>& z) {
  const auto add = [](double a, double b) { return a + b; };
  return {
      std::bit_cast<uint64_t>(owner_order_fold<double>(
          owner, nodes, [&](uint64_t i) { return x[i]; }, add)),
      std::bit_cast<uint64_t>(owner_order_fold<double>(
          owner, nodes, [&](uint64_t i) { return x[i] * y[i]; }, add)),
      static_cast<uint64_t>(owner_order_fold<int64_t>(
          owner, nodes, [&](uint64_t i) { return m[i]; },
          [](int64_t a, int64_t b) { return std::min(a, b); })),
      owner_order_fold<uint64_t>(
          owner, nodes, [&](uint64_t i) { return u[i]; },
          [](uint64_t a, uint64_t b) { return a * b; }),
      std::bit_cast<uint64_t>(owner_order_fold<double>(
          owner, nodes, [&](uint64_t i) { return z[i]; }, add)),
  };
}

struct ResolvingRun {
  std::vector<std::vector<uint64_t>> per_node;  // the five reduce values
  RunResult stats;
  // Owner map and committed contents after the resolving commit.
  std::vector<int> owner;
  std::vector<double> x, y, z;
  std::vector<int64_t> m;
  std::vector<uint64_t> u;
};

/// CG's shape: seed x, y, m, u and z by owner, register sum(x), dot(x, y),
/// min(m), product(u) and sum(z), then resolve them at the commit of a
/// phase in which three VPs per node set and add only elements their node
/// owns: order-sensitive adds into x, conflicting and repeated sets plus
/// a set_n run into y, and accumulates into m and u. z is not written, so
/// its partial folds committed storage.
ResolvingRun run_resolving_phase(int nodes, uint64_t n, Distribution dist,
                                 bool bruck) {
  ResolvingRun out;
  out.per_node.resize(static_cast<size_t>(nodes));
  out.stats = run(link_cfg(nodes, bruck), [&](Env& env) {
    auto x = env.global_array<double>(n, dist);
    auto y = env.global_array<double>(n, dist);
    auto m = env.global_array<int64_t>(n, dist);
    auto u = env.global_array<uint64_t>(n, dist);
    auto z = env.global_array<double>(n, dist);
    const int me = env.node_id();
    std::vector<uint64_t> mine;
    for (uint64_t i = 0; i < n; ++i) {
      if (x.owner(i) != me) continue;
      mine.push_back(i);
      x.set(i, xval(i));
      y.set(i, yval(i));
      m.set(i, mval(i));
      u.set(i, uval(i));
      z.set(i, xval(i) + yval(i));
    }
    env.barrier();
    auto h_sum = env.reduce(x, ReduceOp::kAdd);
    auto h_dot = env.reduce_dot(x, y);
    auto h_min = env.reduce(m, ReduceOp::kMin);
    auto h_mul = env.reduce(u, ReduceOp::kMul);
    auto h_untouched = env.reduce(z, ReduceOp::kAdd);
    auto vps = env.ppm_do(3);
    vps.global_phase([&](Vp& vp) {
      const uint64_t r = vp.global_rank();
      // A set_n run over the first owned elements when they are
      // contiguous (kBlock), ahead of the scalar sets.
      if (vp.node_rank() == 0 && dist == Distribution::kBlock &&
          !mine.empty()) {
        std::vector<double> run_vals(mine.size(), -1.5);
        y.set_n(mine.front(), mine.size(), run_vals.data());
      }
      for (const uint64_t i : mine) {
        x.add(i, xinc(r + i));
        y.set(i, yval(i) * static_cast<double>(r + 1));
        y.set(i, yval(i) * static_cast<double>(r + 2));  // same VP: seq wins
        m.accumulate(i, ReduceOp::kMin, mval(i) - static_cast<int64_t>(r));
        u.accumulate(i, ReduceOp::kMul, 3 + 2 * (r % 2));
      }
    });
    out.per_node[static_cast<size_t>(me)] = {
        std::bit_cast<uint64_t>(h_sum.value()),
        std::bit_cast<uint64_t>(h_dot.value()),
        static_cast<uint64_t>(h_min.value()), h_mul.value(),
        std::bit_cast<uint64_t>(h_untouched.value())};
    const auto gx = env.allgather_array(x);
    const auto gy = env.allgather_array(y);
    const auto gm = env.allgather_array(m);
    const auto gu = env.allgather_array(u);
    const auto gz = env.allgather_array(z);
    if (me == 0) {
      for (uint64_t i = 0; i < n; ++i) out.owner.push_back(x.owner(i));
      out.x = gx;
      out.y = gy;
      out.m = gm;
      out.u = gu;
      out.z = gz;
    }
  });
  return out;
}

TEST(CoreAccumulate, ReduceOfLocallyWrittenArraysRidesTheCommitExchange) {
  // No node writes a reduced array remotely, so every partial is folded
  // before the last markers leave — from a shadow where the phase wrote
  // the array — and rides the markers (direct form) or the census (sparse
  // form): no post-apply allgather. The value must still be the owner-
  // order fold of the committed contents, bit for bit. n = 3 leaves nodes
  // owning nothing from 4 nodes on (under kAdaptive from 2 on).
  struct Shape {
    int nodes;
    uint64_t n;
  };
  for (const Shape s : {Shape{1, 46}, Shape{2, 46}, Shape{3, 46}, Shape{4, 3},
                        Shape{5, 46}, Shape{8, 3}}) {
    for (const bool bruck : {false, true}) {
      const cluster::MachineConfig m = link_cfg(s.nodes, bruck).machine;
      const bool sparse =
          !plan_allgather(m.network, s.nodes, m.cores_per_node).direct &&
          s.nodes > 1;
      EXPECT_EQ(sparse, bruck && s.nodes >= 4);
      for (const Distribution dist :
           {Distribution::kBlock, Distribution::kCyclic,
            Distribution::kAdaptive}) {
        const ResolvingRun r = run_resolving_phase(s.nodes, s.n, dist, bruck);
        ASSERT_EQ(r.owner.size(), s.n);
        const std::vector<uint64_t> want =
            committed_golden(r.owner, s.nodes, r.x, r.y, r.m, r.u, r.z);
        const std::string where =
            "nodes " + std::to_string(s.nodes) + " n " + std::to_string(s.n) +
            " dist " + std::to_string(static_cast<int>(dist)) +
            (bruck ? " bruck" : " default");
        EXPECT_EQ(r.stats.payload_commits, 0u) << where;
        for (int node = 0; node < s.nodes; ++node) {
          EXPECT_EQ(r.per_node[static_cast<size_t>(node)], want)
              << where << " node " << node;
        }
      }
    }
  }
}

TEST(CoreAccumulate, RemoteWriteIntoAReducedArrayResolvesOnTheAllgather) {
  // Node 0's VP 0 sets a[e] and node 2's VP 4 adds to a[e + 1], both
  // owned by node 1, whose VP 3 also sets a[e] and wins by rank. Those records reach
  // node 1 only through the exchange, so partials folded before it would
  // miss the add: every node sees the remote-write flag and resolves both
  // reduces of the commit — a[] and the only locally written b[] — on the
  // post-apply allgather, exactly, in the commit's one payload round.
  for (const bool bruck : {false, true}) {
    const int nodes = bruck ? 4 : 3;
    constexpr uint64_t kLen = 16;
    std::vector<std::array<uint64_t, 2>> per_node(static_cast<size_t>(nodes));
    std::vector<int> owner;
    std::vector<double> ca, cb;
    uint64_t first_of_node1 = 0;
    const RunResult stats = run(link_cfg(nodes, bruck), [&](Env& env) {
      auto a = env.global_array<double>(kLen);
      auto b = env.global_array<double>(kLen);
      const int me = env.node_id();
      for (uint64_t i = 0; i < kLen; ++i) {
        if (a.owner(i) != me) continue;
        a.set(i, xval(i));
        b.set(i, yval(i));
      }
      uint64_t e = 0;  // node 1's first element; e + 1 is node 1's too
      while (a.owner(e) != 1) ++e;
      EXPECT_EQ(a.owner(e + 1), 1);
      env.barrier();
      auto h_a = env.reduce(a, ReduceOp::kAdd);
      auto h_b = env.reduce_dot(b, b);
      auto vps = env.ppm_do(2);
      vps.global_phase([&](Vp& vp) {
        const uint64_t r = vp.global_rank();
        if (r == 0) a.set(e, 100.0);     // remote, loses to rank 3
        if (r == 3) a.set(e, 7.0);       // local to node 1
        if (r == 4) a.add(e + 1, 0.375);  // remote add
        for (uint64_t i = 0; i < kLen; ++i) {
          if (b.owner(i) == me) b.add(i, xinc(r + i));
        }
      });
      per_node[static_cast<size_t>(me)] = {
          std::bit_cast<uint64_t>(h_a.value()),
          std::bit_cast<uint64_t>(h_b.value())};
      const auto ga = env.allgather_array(a);
      const auto gb = env.allgather_array(b);
      if (me == 0) {
        for (uint64_t i = 0; i < kLen; ++i) owner.push_back(a.owner(i));
        ca = ga;
        cb = gb;
        first_of_node1 = e;
      }
    });
    ASSERT_EQ(ca.size(), kLen);
    EXPECT_EQ(ca[first_of_node1], 7.0);
    EXPECT_EQ(ca[first_of_node1 + 1], xval(first_of_node1 + 1) + 0.375);
    const auto add = [](double x, double y) { return x + y; };
    const std::array<uint64_t, 2> want = {
        std::bit_cast<uint64_t>(owner_order_fold<double>(
            owner, nodes, [&](uint64_t i) { return ca[i]; }, add)),
        std::bit_cast<uint64_t>(owner_order_fold<double>(
            owner, nodes, [&](uint64_t i) { return cb[i] * cb[i]; }, add))};
    EXPECT_EQ(stats.payload_commits, 1u) << (bruck ? "bruck" : "default");
    for (int node = 0; node < nodes; ++node) {
      EXPECT_EQ(per_node[static_cast<size_t>(node)], want)
          << (bruck ? "bruck" : "default") << " node " << node;
    }
  }
}

TEST(CoreAccumulate, ReduceAtAMigrationRoundIsExactAndAPayloadCommit) {
  // A commit that runs a migration planning round keeps its post-apply
  // allgather, and the reduce resolving there rides it: the partials fold
  // the committed contents under the owner map the phase wrote by (the
  // moves apply after the fold), and the commit counts as a payload
  // commit.
  constexpr int kNodes = 3;
  constexpr uint64_t kLen = 46;
  std::vector<uint64_t> per_node(kNodes);
  std::vector<int> owner_before;
  std::vector<double> committed;
  const RunResult stats = run(link_cfg(kNodes, false), [&](Env& env) {
    auto x = env.global_array<double>(kLen, Distribution::kAdaptive);
    const int me = env.node_id();
    for (uint64_t i = 0; i < kLen; ++i) {
      if (x.owner(i) == me) x.set(i, xval(i));
    }
    env.barrier();
    std::vector<int> owners;
    for (uint64_t i = 0; i < kLen; ++i) owners.push_back(x.owner(i));
    env.rebalance(x);
    auto h = env.reduce(x, ReduceOp::kAdd);
    auto vps = env.ppm_do(2);
    vps.global_phase([&](Vp& vp) {
      // Node 1 reads block 0, which node 0 owns, so it moves at this
      // commit; every VP adds into elements its node owns.
      if (me == 1) (void)x.get(1);
      for (uint64_t i = 0; i < kLen; ++i) {
        if (owners[i] == me) x.add(i, xinc(vp.global_rank() + i));
      }
    });
    per_node[static_cast<size_t>(me)] = std::bit_cast<uint64_t>(h.value());
    const auto gx = env.allgather_array(x);
    if (me == 0) {
      owner_before = owners;
      committed = gx;
      EXPECT_EQ(x.owner(0), 1);
    }
  });
  EXPECT_GT(stats.blocks_migrated, 0u);
  EXPECT_EQ(stats.payload_commits, 1u);
  const uint64_t want = std::bit_cast<uint64_t>(owner_order_fold<double>(
      owner_before, kNodes, [&](uint64_t i) { return committed[i]; },
      [](double a, double b) { return a + b; }));
  for (int node = 0; node < kNodes; ++node) {
    EXPECT_EQ(per_node[static_cast<size_t>(node)], want) << "node " << node;
  }
}

TEST(CoreAccumulate, NonCommutativeUserOpConflictFlagged) {
  // x = 2x + v does not commute with itself. Registering it as
  // non-commutative and firing two VPs at one element must produce a
  // kNonCommutativeAccum finding at the owner.
  PpmConfig c = cfg(2);
  c.runtime.validate_phases = true;
  const RunResult r = run(c, [](Env& env) {
    auto a = env.global_array<uint64_t>(16);
    env.register_accum_op<uint64_t>(
        a, 0, +[](uint64_t& x, const uint64_t& v) { x = 2 * x + v; },
        /*commutative=*/false);
    auto vps = env.ppm_do(2);
    vps.global_phase([&](Vp& vp) {
      a.accumulate(12, ReduceOp::kUser0, vp.global_rank() + 1);
    });
  });
  EXPECT_FALSE(r.check_report.clean());
  EXPECT_GE(r.check_report.non_commutative_accums, 1u);
  ASSERT_FALSE(r.check_report.violations.empty());
  const check::Violation& v = r.check_report.violations.front();
  EXPECT_EQ(v.kind, check::ViolationKind::kNonCommutativeAccum);
  EXPECT_EQ(v.array_id, 0u);
  EXPECT_EQ(v.element, 12u);
}

TEST(CoreAccumulate, NonCommutativeSingleWriterIsClean) {
  // One entry per element is deterministic no matter the op: the checker
  // must not cry wolf, and the remote record commits what the 1-node
  // run's local log does.
  auto program = [](int nodes) {
    PpmConfig c = cfg(nodes);
    c.runtime.validate_phases = true;
    uint64_t got = 0;
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<uint64_t>(16);
      env.register_accum_op<uint64_t>(
          a, 0, +[](uint64_t& x, const uint64_t& v) { x = 2 * x + v; },
          /*commutative=*/false);
      auto vps = env.ppm_do(4 / static_cast<uint64_t>(env.node_count()));
      vps.global_phase([&](Vp& vp) {
        a.set(vp.global_rank() + 8, 3);
      });
      vps.global_phase([&](Vp& vp) {
        a.accumulate(vp.global_rank() + 8, ReduceOp::kUser0,
                     vp.global_rank());
      });
      vps.global_phase([&](Vp&) {
        if (env.node_id() == 0) got = a.get(8);
      });
    });
    EXPECT_TRUE(r.check_report.clean()) << r.check_report.to_string();
    return got;
  };
  const uint64_t two_nodes = program(2);
  EXPECT_EQ(two_nodes, 6u);  // 2*3 + rank 0
  EXPECT_EQ(two_nodes, program(1));
}

TEST(CoreAccumulate, NonCommutativeSameVpRunCommitsAlikeOnEveryNodeCount) {
  // One VP applies x = 2x + v twice to one element. Each write is its own
  // record, applied in seq order at the owner, so the element commits
  // 2 * (2 * 5 + 1) + 1 = 23 whether it is local (1 node) or remote (on
  // 2 nodes node 1 owns it), and ppm::check sees both entries either way.
  for (const int nodes : {1, 2}) {
    PpmConfig c;
    c.machine.nodes = nodes;
    c.machine.cores_per_node = 1;
    c.runtime.validate_phases = true;
    uint64_t got = 0;
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<uint64_t>(16);
      env.register_accum_op<uint64_t>(
          a, 0, +[](uint64_t& x, const uint64_t& v) { x = 2 * x + v; },
          /*commutative=*/false);
      auto vps = env.ppm_do(1);
      vps.global_phase([&](Vp& vp) {
        if (vp.global_rank() == 0) a.set(12, 5);
      });
      vps.global_phase([&](Vp& vp) {
        if (vp.global_rank() != 0) return;
        a.accumulate(12, ReduceOp::kUser0, 1);
        a.accumulate(12, ReduceOp::kUser0, 1);
      });
      vps.global_phase([&](Vp& vp) {
        if (vp.global_rank() == 0) got = a.get(12);
      });
    });
    EXPECT_EQ(got, 23u) << "nodes=" << nodes;
    EXPECT_EQ(r.check_report.non_commutative_accums, 1u) << "nodes=" << nodes;
  }
}

TEST(CoreAccumulate, CommutativeConflictsStayClean) {
  // Many VPs accumulating one element with a single commutative op is the
  // model's histogram idiom — never a violation, remote records on 2
  // nodes or the local log on 1.
  for (const int nodes : {2, 1}) {
    PpmConfig c = cfg(nodes);
    c.runtime.validate_phases = true;
    uint64_t got = 0;
    const RunResult r = run(c, [&](Env& env) {
      auto a = env.global_array<uint64_t>(16);
      auto vps = env.ppm_do(8 / static_cast<uint64_t>(env.node_count()));
      vps.global_phase([&](Vp& vp) {
        a.accumulate(12, ReduceOp::kAdd, vp.global_rank() + 1);
      });
      vps.global_phase([&](Vp&) {
        if (env.node_id() == 0) got = a.get(12);
      });
    });
    EXPECT_TRUE(r.check_report.clean()) << r.check_report.to_string();
    EXPECT_EQ(got, 36u);  // sum of 1..8
  }
}

TEST(CoreAccumulate, OutsidePhaseAccumulateIsImmediateLocal) {
  // Outside phases accumulate() degrades to the plain immediate write
  // path (local-only, like set outside phases).
  PpmConfig c = cfg(1);
  uint64_t got = 0;
  run(c, [&](Env& env) {
    auto a = env.global_array<uint64_t>(8);
    a.set(3, 10);
    a.accumulate(3, ReduceOp::kAdd, 5);
    got = a.get(3);
  });
  EXPECT_EQ(got, 15u);
}

}  // namespace
}  // namespace ppm

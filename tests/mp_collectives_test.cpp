#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mp/comm.hpp"

namespace ppm::mp {
namespace {

using cluster::Machine;
using cluster::Place;

struct Shape {
  int nodes;
  int cores;
};

class MpCollectives : public ::testing::TestWithParam<Shape> {
 protected:
  void run(const std::function<void(Comm&)>& rank_main) {
    Machine machine(
        {.nodes = GetParam().nodes, .cores_per_node = GetParam().cores});
    World world(machine);
    machine.run_per_core([&](const Place& place) {
      Comm comm = world.comm_at(place);
      rank_main(comm);
    });
  }
  int world_size() const { return GetParam().nodes * GetParam().cores; }
};

TEST_P(MpCollectives, BarrierReleasesNoEarlierThanLastArrival) {
  const int p = world_size();
  std::vector<int64_t> released(static_cast<size_t>(p), -1);
  run([&](Comm& comm) {
    auto& engine = *sim::current_engine();
    engine.advance_ns(1000 * (comm.rank() + 1));
    comm.barrier();
    released[static_cast<size_t>(comm.rank())] = engine.now_ns();
  });
  for (int64_t t : released) EXPECT_GE(t, 1000 * p);
}

TEST_P(MpCollectives, BcastFromEveryRoot) {
  const int p = world_size();
  for (int root = 0; root < p; ++root) {
    std::vector<std::vector<int>> got(static_cast<size_t>(p));
    run([&](Comm& comm) {
      std::vector<int> data;
      if (comm.rank() == root) data = {root, root * 7, -1};
      if (comm.rank() != root) data.resize(3);
      comm.bcast(data, root);
      got[static_cast<size_t>(comm.rank())] = data;
    });
    for (const auto& v : got) {
      EXPECT_EQ(v, (std::vector<int>{root, root * 7, -1}));
    }
  }
}

TEST_P(MpCollectives, ReduceSumsElementwise) {
  const int p = world_size();
  std::vector<long> root_result;
  run([&](Comm& comm) {
    const std::vector<long> mine = {static_cast<long>(comm.rank()),
                                    static_cast<long>(comm.rank() * 2), 1};
    auto result =
        comm.reduce(std::span<const long>(mine),
                    [](long a, long b) { return a + b; }, /*root=*/0);
    if (comm.rank() == 0) root_result = result;
  });
  const long ranksum = static_cast<long>(p) * (p - 1) / 2;
  EXPECT_EQ(root_result,
            (std::vector<long>{ranksum, 2 * ranksum, static_cast<long>(p)}));
}

TEST_P(MpCollectives, AllreduceMaxEverywhere) {
  const int p = world_size();
  std::vector<double> got(static_cast<size_t>(p), -1);
  run([&](Comm& comm) {
    got[static_cast<size_t>(comm.rank())] = comm.allreduce_value(
        static_cast<double>(comm.rank() * comm.rank()),
        [](double a, double b) { return std::max(a, b); });
  });
  for (double v : got) {
    EXPECT_DOUBLE_EQ(v, static_cast<double>((p - 1) * (p - 1)));
  }
}

TEST_P(MpCollectives, GathervCollectsVariableBlocks) {
  const int p = world_size();
  std::vector<std::vector<int>> at_root;
  run([&](Comm& comm) {
    // Rank r contributes r elements (rank 0 contributes none).
    std::vector<int> mine(static_cast<size_t>(comm.rank()), comm.rank());
    auto all = comm.gatherv(std::span<const int>(mine), /*root=*/0);
    if (comm.rank() == 0) at_root = all;
  });
  ASSERT_EQ(at_root.size(), static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(at_root[static_cast<size_t>(r)],
              std::vector<int>(static_cast<size_t>(r), r));
  }
}

TEST_P(MpCollectives, AllgathervEveryoneSeesEveryBlock) {
  const int p = world_size();
  std::vector<std::vector<std::vector<int>>> got(static_cast<size_t>(p));
  run([&](Comm& comm) {
    std::vector<int> mine = {comm.rank(), comm.rank() + 100};
    got[static_cast<size_t>(comm.rank())] =
        comm.allgatherv(std::span<const int>(mine));
  });
  for (int viewer = 0; viewer < p; ++viewer) {
    const auto& view = got[static_cast<size_t>(viewer)];
    ASSERT_EQ(view.size(), static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(view[static_cast<size_t>(r)],
                (std::vector<int>{r, r + 100}));
    }
  }
}

TEST_P(MpCollectives, AlltoallvPersonalizedExchange) {
  const int p = world_size();
  std::vector<std::vector<std::vector<int>>> got(static_cast<size_t>(p));
  run([&](Comm& comm) {
    std::vector<std::vector<int>> blocks(static_cast<size_t>(p));
    for (int d = 0; d < p; ++d) {
      blocks[static_cast<size_t>(d)] = {comm.rank() * 1000 + d};
    }
    got[static_cast<size_t>(comm.rank())] = comm.alltoallv(blocks);
  });
  for (int me = 0; me < p; ++me) {
    const auto& inbox = got[static_cast<size_t>(me)];
    ASSERT_EQ(inbox.size(), static_cast<size_t>(p));
    for (int src = 0; src < p; ++src) {
      EXPECT_EQ(inbox[static_cast<size_t>(src)],
                (std::vector<int>{src * 1000 + me}));
    }
  }
}

TEST_P(MpCollectives, InclusiveScanPrefixSums) {
  const int p = world_size();
  std::vector<long> got(static_cast<size_t>(p), -1);
  run([&](Comm& comm) {
    got[static_cast<size_t>(comm.rank())] = comm.scan_inclusive(
        static_cast<long>(comm.rank() + 1),
        [](long a, long b) { return a + b; });
  });
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(got[static_cast<size_t>(r)],
              static_cast<long>(r + 1) * (r + 2) / 2);
  }
}

TEST_P(MpCollectives, BackToBackCollectivesDoNotCrossTalk) {
  const int p = world_size();
  std::vector<long> sums(static_cast<size_t>(p), 0);
  run([&](Comm& comm) {
    long total = 0;
    for (int round = 0; round < 5; ++round) {
      total += comm.allreduce_value(static_cast<long>(round * comm.rank()),
                                    [](long a, long b) { return a + b; });
      comm.barrier();
    }
    sums[static_cast<size_t>(comm.rank())] = total;
  });
  const long ranksum = static_cast<long>(p) * (p - 1) / 2;
  const long expect = (0 + 1 + 2 + 3 + 4) * ranksum;
  for (long s : sums) EXPECT_EQ(s, expect);
}

// allgatherv and alltoallv run p−1 rounds, each tagged with its round
// number: at 65 nodes × 4 cores that is 259 rounds, past what an 8-bit
// round field can tell apart.
TEST(MpCollectivesScale, RingAndPairwiseRoundsPast256Ranks) {
  Machine machine({.nodes = 65, .cores_per_node = 4});
  World world(machine);
  const int p = world.size();
  ASSERT_EQ(p, 260);
  std::vector<std::vector<std::vector<int>>> gathered(static_cast<size_t>(p));
  std::vector<std::vector<std::vector<int>>> inboxes(static_cast<size_t>(p));
  machine.run_per_core([&](const Place& place) {
    Comm comm = world.comm_at(place);
    const std::vector<int> mine = {comm.rank()};
    gathered[static_cast<size_t>(comm.rank())] =
        comm.allgatherv(std::span<const int>(mine));
    std::vector<std::vector<int>> blocks(static_cast<size_t>(p));
    for (int d = 0; d < p; ++d) {
      blocks[static_cast<size_t>(d)] = {comm.rank() * 1000 + d};
    }
    inboxes[static_cast<size_t>(comm.rank())] = comm.alltoallv(blocks);
  });
  for (int me = 0; me < p; ++me) {
    const auto& view = gathered[static_cast<size_t>(me)];
    const auto& inbox = inboxes[static_cast<size_t>(me)];
    ASSERT_EQ(view.size(), static_cast<size_t>(p));
    ASSERT_EQ(inbox.size(), static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(view[static_cast<size_t>(r)], std::vector<int>{r});
      EXPECT_EQ(inbox[static_cast<size_t>(r)],
                std::vector<int>{r * 1000 + me});
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MpCollectives,
    ::testing::Values(Shape{1, 1}, Shape{1, 4}, Shape{2, 2}, Shape{3, 1},
                      Shape{2, 4}, Shape{4, 3}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.nodes) + "c" +
             std::to_string(info.param.cores);
    });

}  // namespace
}  // namespace ppm::mp

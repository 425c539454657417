// Correctness of the multi-scale collocation matrix generator: serial
// structure properties, and bit-identical agreement of the PPM and MPI
// implementations with the serial reference.
#include <gtest/gtest.h>

#include <cmath>

#include "apps/collocation/collocation.hpp"
#include "apps/collocation/matgen_mpi.hpp"
#include "apps/collocation/matgen_ppm.hpp"

namespace ppm::apps::collocation {
namespace {

const CollocationProblem kSmall{
    .levels = 4, .base = 8, .refine_terms = 5, .combo_terms = 4,
    .bandwidth = 2, .quadrature_points = 16, .seed = 42};

TEST(CollocationProblem, LevelGeometry) {
  EXPECT_EQ(kSmall.level_size(0), 8u);
  EXPECT_EQ(kSmall.level_size(3), 64u);
  EXPECT_EQ(kSmall.level_offset(0), 0u);
  EXPECT_EQ(kSmall.level_offset(1), 8u);
  EXPECT_EQ(kSmall.level_offset(4), 120u);
  EXPECT_EQ(kSmall.total_points(), 120u);
  EXPECT_EQ(kSmall.level_of(0), 0);
  EXPECT_EQ(kSmall.level_of(7), 0);
  EXPECT_EQ(kSmall.level_of(8), 1);
  EXPECT_EQ(kSmall.level_of(119), 3);
  EXPECT_THROW(kSmall.level_of(120), Error);
}

TEST(Collocation, IntegrationIsDeterministicAndFinite) {
  const double a = integrate_basis(kSmall, 2, 5);
  const double b = integrate_basis(kSmall, 2, 5);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::isfinite(a));
  EXPECT_NE(a, 0.0);
}

TEST(Collocation, RefinementRefsPointToCoarserLevels) {
  for (int l = 1; l < kSmall.levels; ++l) {
    for (uint64_t i = 0; i < kSmall.level_size(l); i += 7) {
      for (const TableRef& ref : table_refinement_refs(kSmall, l, i)) {
        EXPECT_LT(ref.level, l);
        EXPECT_LT(ref.index, kSmall.level_size(ref.level));
        EXPECT_GE(ref.weight, -0.5);
        EXPECT_LT(ref.weight, 0.5);
      }
    }
  }
  EXPECT_TRUE(table_refinement_refs(kSmall, 0, 0).empty());
}

TEST(Collocation, EntryRefsStayWithinRowLevel) {
  const uint64_t row = kSmall.level_offset(2) + 3;  // a level-2 point
  for (const TableRef& ref : entry_refs(kSmall, row, 5)) {
    EXPECT_LE(ref.level, 2);
    EXPECT_LT(ref.index, kSmall.level_size(ref.level));
  }
}

TEST(Collocation, NonzeroPatternIsHierarchicalAndSorted) {
  for (uint64_t row : {0ULL, 9ULL, 40ULL, 119ULL}) {
    const auto cols = columns_of_row(kSmall, row);
    EXPECT_FALSE(cols.empty());
    EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
    for (uint64_t c : cols) EXPECT_LT(c, kSmall.total_points());
    // The pattern touches every level at least once for interior rows.
  }
}

TEST(Collocation, SerialMatrixShape) {
  const CsrMatrix m = generate_matrix_serial(kSmall);
  EXPECT_EQ(m.n, kSmall.total_points());
  EXPECT_EQ(m.row_ptr.size(), kSmall.total_points() + 1);
  EXPECT_GT(m.nnz(), kSmall.total_points());  // multiple entries per row
  for (double v : m.values) EXPECT_TRUE(std::isfinite(v));
}

struct Shape {
  int nodes;
  int cores;
  uint64_t jitter_seed = 0;  // nonzero: seeded fabric delay jitter

  cluster::MachineConfig machine() const {
    cluster::MachineConfig mc{.nodes = nodes, .cores_per_node = cores};
    if (jitter_seed != 0) {
      mc.faults = {.delay_jitter = true,
                   .seed = jitter_seed,
                   .delay_probability = 0.5,
                   .max_extra_delay_ns = 50'000};
    }
    return mc;
  }
};

class DistributedMatgen : public ::testing::TestWithParam<Shape> {};

TEST_P(DistributedMatgen, PpmMatchesSerialBitForBit) {
  const CsrMatrix serial = generate_matrix_serial(kSmall);
  PpmConfig cfg;
  cfg.machine = GetParam().machine();
  std::vector<PpmMatgenOutput> outputs(static_cast<size_t>(GetParam().nodes));
  run(cfg, [&](Env& env) {
    outputs[static_cast<size_t>(env.node_id())] =
        generate_matrix_ppm(env, kSmall);
  });
  for (const auto& out : outputs) {
    for (uint64_t row = out.row_begin; row < out.row_end; ++row) {
      const uint64_t lr = row - out.row_begin;
      const uint64_t sk = serial.row_ptr[row];
      const uint64_t lk = out.local_rows.row_ptr[lr];
      ASSERT_EQ(serial.row_ptr[row + 1] - sk,
                out.local_rows.row_ptr[lr + 1] - lk)
          << "row " << row;
      for (uint64_t d = 0; d < serial.row_ptr[row + 1] - sk; ++d) {
        EXPECT_EQ(serial.col_idx[sk + d], out.local_rows.col_idx[lk + d]);
        EXPECT_EQ(serial.values[sk + d], out.local_rows.values[lk + d])
            << "row " << row << " entry " << d;
      }
    }
  }
}

TEST_P(DistributedMatgen, MpiMatchesSerialBitForBit) {
  const CsrMatrix serial = generate_matrix_serial(kSmall);
  cluster::Machine machine(GetParam().machine());
  mp::World world(machine);
  std::vector<MpiMatgenOutput> outputs(
      static_cast<size_t>(machine.config().total_cores()));
  machine.run_per_core([&](const cluster::Place& place) {
    mp::Comm comm = world.comm_at(place);
    outputs[static_cast<size_t>(comm.rank())] =
        generate_matrix_mpi(comm, kSmall);
  });
  for (const auto& out : outputs) {
    for (uint64_t row = out.row_begin; row < out.row_end; ++row) {
      const uint64_t lr = row - out.row_begin;
      const uint64_t sk = serial.row_ptr[row];
      const uint64_t lk = out.local_rows.row_ptr[lr];
      ASSERT_EQ(serial.row_ptr[row + 1] - sk,
                out.local_rows.row_ptr[lr + 1] - lk);
      for (uint64_t d = 0; d < serial.row_ptr[row + 1] - sk; ++d) {
        EXPECT_EQ(serial.col_idx[sk + d], out.local_rows.col_idx[lk + d]);
        EXPECT_EQ(serial.values[sk + d], out.local_rows.values[lk + d]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributedMatgen,
    ::testing::Values(Shape{1, 1}, Shape{2, 2}, Shape{3, 1}, Shape{4, 2},
                      Shape{4, 2, 99}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      const Shape& s = info.param;
      return "n" + std::to_string(s.nodes) + "c" + std::to_string(s.cores) +
             (s.jitter_seed != 0 ? "j" + std::to_string(s.jitter_seed) : "");
    });

}  // namespace
}  // namespace ppm::apps::collocation

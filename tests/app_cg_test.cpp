// Correctness of the CG application family: the generator, the serial
// reference, and the PPM and MPI distributed solvers (which must match the
// serial solution).
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "apps/cg/cg_mpi.hpp"
#include "apps/cg/cg_ppm.hpp"
#include "apps/cg/cg_serial.hpp"
#include "apps/cg/csr.hpp"

namespace ppm::apps::cg {
namespace {

const ChimneyProblem kSmall{.nx = 6, .ny = 6, .nz = 10};

TEST(ChimneyMatrix, StructureIsSane) {
  const CsrMatrix a = build_chimney_matrix(kSmall);
  EXPECT_EQ(a.n, 360u);
  EXPECT_EQ(a.row_ptr.size(), a.n + 1);
  EXPECT_EQ(a.col_idx.size(), a.values.size());
  // Interior points have 27 entries, boundary fewer.
  uint64_t max_row = 0, min_row = 100;
  for (uint64_t i = 0; i < a.n; ++i) {
    const uint64_t len = a.row_ptr[i + 1] - a.row_ptr[i];
    max_row = std::max(max_row, len);
    min_row = std::min(min_row, len);
  }
  EXPECT_EQ(max_row, 27u);
  EXPECT_EQ(min_row, 8u);  // corner point: itself + 7 neighbors
}

TEST(ChimneyMatrix, IsSymmetric) {
  const CsrMatrix a = build_chimney_matrix({.nx = 4, .ny = 4, .nz = 6});
  // Build a dense map and compare transposed entries.
  std::map<std::pair<uint64_t, uint64_t>, double> entries;
  for (uint64_t i = 0; i < a.n; ++i) {
    for (uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      entries[{i, a.col_idx[k]}] = a.values[k];
    }
  }
  for (const auto& [pos, v] : entries) {
    const auto it = entries.find({pos.second, pos.first});
    ASSERT_NE(it, entries.end()) << "missing transpose of (" << pos.first
                                 << "," << pos.second << ")";
    EXPECT_DOUBLE_EQ(it->second, v);
  }
}

TEST(ChimneyMatrix, IsStrictlyDiagonallyDominant) {
  const CsrMatrix a = build_chimney_matrix(kSmall);
  for (uint64_t i = 0; i < a.n; ++i) {
    double diag = 0, off = 0;
    for (uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
      if (a.col_idx[k] == i) {
        diag = a.values[k];
      } else {
        off += std::abs(a.values[k]);
      }
    }
    EXPECT_GT(diag, off) << "row " << i;
  }
}

TEST(ChimneyMatrix, RowRangeGeneratorMatchesFullBuild) {
  const CsrMatrix full = build_chimney_matrix(kSmall);
  const CsrMatrix part = build_chimney_matrix_rows(kSmall, 100, 260);
  for (uint64_t i = 0; i < 160; ++i) {
    const uint64_t fk = full.row_ptr[100 + i];
    const uint64_t pk = part.row_ptr[i];
    ASSERT_EQ(full.row_ptr[101 + i] - fk, part.row_ptr[i + 1] - pk);
    for (uint64_t d = 0; d < part.row_ptr[i + 1] - pk; ++d) {
      EXPECT_EQ(full.col_idx[fk + d], part.col_idx[pk + d]);
      EXPECT_DOUBLE_EQ(full.values[fk + d], part.values[pk + d]);
    }
  }
}

TEST(ChimneyMatrix, RowSliceMatchesRowRangeBuild) {
  const CsrMatrix full = build_chimney_matrix(kSmall);
  const CsrMatrix sliced = full.row_slice(50, 90);
  const CsrMatrix built = build_chimney_matrix_rows(kSmall, 50, 90);
  EXPECT_EQ(sliced.row_ptr, built.row_ptr);
  EXPECT_EQ(sliced.col_idx, built.col_idx);
  EXPECT_EQ(sliced.values, built.values);
}

TEST(SerialCg, ConvergesAndSolves) {
  const CsrMatrix a = build_chimney_matrix(kSmall);
  const auto b = build_chimney_rhs(kSmall);
  const CgResult res = cg_solve_serial(a, b, {.max_iterations = 500});
  EXPECT_TRUE(res.converged);
  // Verify the residual independently: ||b - A x|| small.
  std::vector<double> ax(a.n);
  a.spmv(res.x, ax);
  double err = 0, bn = 0;
  for (uint64_t i = 0; i < a.n; ++i) {
    err += (b[i] - ax[i]) * (b[i] - ax[i]);
    bn += b[i] * b[i];
  }
  EXPECT_LT(std::sqrt(err), 1e-7 * std::sqrt(bn));
}

TEST(SerialCg, ResidualsDecreaseOverall) {
  const CsrMatrix a = build_chimney_matrix(kSmall);
  const auto b = build_chimney_rhs(kSmall);
  const CgResult res = cg_solve_serial(a, b, {.max_iterations = 50});
  ASSERT_GE(res.residual_history.size(), 10u);
  EXPECT_LT(res.residual_history.back(), res.residual_history.front());
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

struct PpmCgRun {
  std::vector<double> residuals;
  std::vector<double> x;  // whole solution, gathered from every node
  int64_t duration_ns = 0;
};

PpmCgRun run_ppm_cg(const Shape& shape) {
  PpmConfig cfg;
  cfg.machine = shape.machine();
  PpmCgRun got;
  got.x.resize(kSmall.unknowns());
  const RunResult r = run(cfg, [&](Env& env) {
    auto out = cg_solve_ppm(env, kSmall, {.max_iterations = 60});
    if (env.node_id() == 0) got.residuals = out.residual_history;
    for (uint64_t i = out.x.local_begin(); i < out.x.local_end(); ++i) {
      got.x[i] = out.x.get(i);  // immediate local reads
    }
  });
  got.duration_ns = r.duration_ns;
  return got;
}

class DistributedCg : public ::testing::TestWithParam<Shape> {};

TEST_P(DistributedCg, PpmMatchesSerial) {
  const auto serial =
      cg_solve_serial(build_chimney_matrix(kSmall), build_chimney_rhs(kSmall),
                      {.max_iterations = 60});

  const PpmCgRun got = run_ppm_cg(GetParam());
  ASSERT_EQ(got.residuals.size(), serial.residual_history.size());
  for (size_t i = 0; i < got.residuals.size(); ++i) {
    EXPECT_NEAR(got.residuals[i], serial.residual_history[i],
                1e-6 * (1 + serial.residual_history[i]))
        << "iteration " << i;
  }
  for (size_t i = 0; i < got.x.size(); ++i) {
    EXPECT_NEAR(got.x[i], serial.x[i], 1e-6) << "x[" << i << "]";
  }
  if (GetParam().jitter_seed != 0) {
    // Fabric jitter moves virtual time, never committed state: the solve
    // replays the clean run of the same shape bit for bit.
    const PpmCgRun clean = run_ppm_cg({GetParam().nodes, GetParam().cores});
    EXPECT_EQ(got.residuals, clean.residuals);
    EXPECT_EQ(got.x, clean.x);
    EXPECT_GT(got.duration_ns, clean.duration_ns);  // the faults fired
  }
}

TEST_P(DistributedCg, MpiMatchesSerial) {
  const auto serial =
      cg_solve_serial(build_chimney_matrix(kSmall), build_chimney_rhs(kSmall),
                      {.max_iterations = 60});

  cluster::Machine machine(GetParam().machine());
  mp::World world(machine);
  std::vector<double> residuals;
  std::vector<double> x0;
  machine.run_per_core([&](const cluster::Place& place) {
    mp::Comm comm = world.comm_at(place);
    auto out = cg_solve_mpi(comm, kSmall, {.max_iterations = 60});
    if (comm.rank() == 0) {
      residuals = out.residual_history;
      x0 = out.x_local;
    }
  });
  ASSERT_EQ(residuals.size(), serial.residual_history.size());
  for (size_t i = 0; i < residuals.size(); ++i) {
    EXPECT_NEAR(residuals[i], serial.residual_history[i],
                1e-6 * (1 + serial.residual_history[i]))
        << "iteration " << i;
  }
  for (size_t i = 0; i < x0.size(); ++i) {
    EXPECT_NEAR(x0[i], serial.x[i], 1e-6) << "x[" << i << "]";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DistributedCg,
    ::testing::Values(Shape{1, 1}, Shape{1, 4}, Shape{2, 2}, Shape{3, 1},
                      Shape{4, 2}, Shape{4, 2, 99}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      const Shape& s = info.param;
      return "n" + std::to_string(s.nodes) + "c" + std::to_string(s.cores) +
             (s.jitter_seed != 0 ? "j" + std::to_string(s.jitter_seed) : "");
    });

}  // namespace
}  // namespace ppm::apps::cg

// Conjugate-gradient solver written in PPM (the paper's Application 1).
//
// This is deliberately the *simple* program the paper advertises: vectors
// are global shared arrays, the sparse matrix-vector product reads remote
// entries of p through plain array syntax (p.get(j)), and the runtime's
// bundling turns those fine-grained accesses into block transfers. No
// explicit communication or synchronization code appears — compare with
// cg_mpi.hpp which hand-codes the ghost exchange.
#pragma once

#include "apps/cg/cg_serial.hpp"
#include "apps/cg/csr.hpp"
#include "core/ppm.hpp"

namespace ppm::apps::cg {

struct PpmCgOutput {
  GlobalShared<double> x;  // the solution (distributed)
  std::vector<double> residual_history;
  int iterations = 0;
  bool converged = false;
};

/// Solve the chimney diffusion problem on the calling Env's cluster.
/// Called from a PPM node program; collective across nodes.
PpmCgOutput cg_solve_ppm(Env& env, const ChimneyProblem& problem,
                         const CgOptions& options = {});

/// Solve A x = b for an arbitrary SPD matrix (every node passes the full
/// matrix and keeps its own row slice). Collective.
PpmCgOutput cg_solve_ppm_matrix(Env& env, const CsrMatrix& a_full,
                                std::span<const double> b,
                                const CgOptions& options = {});

}  // namespace ppm::apps::cg

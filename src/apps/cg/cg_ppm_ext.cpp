// Extension of the PPM CG solver beyond the paper's Application 1: the
// general-matrix entry point used with MatrixMarket inputs. Kept out of
// cg_ppm.cpp so Table 1 counts the same "CG application program" the
// paper counted.
#include "apps/cg/cg_ppm.hpp"

#include <cmath>

#include "core/algorithms.hpp"

namespace ppm::apps::cg {

PpmCgOutput cg_solve_ppm_matrix(Env& env, const CsrMatrix& a_full,
                                std::span<const double> b,
                                const CgOptions& options) {
  PPM_CHECK(b.size() == a_full.n, "rhs size mismatch");
  const uint64_t n = a_full.n;
  auto x = env.global_array<double>(n);
  auto r = env.global_array<double>(n);
  auto p = env.global_array<double>(n);
  auto q = env.global_array<double>(n);

  const uint64_t row0 = x.local_begin();
  const uint64_t rows = x.local_end() - row0;
  const CsrMatrix a = a_full.row_slice(row0, row0 + rows);

  auto vps = env.ppm_do(rows);
  vps.global_phase([&](Vp& vp) {
    const uint64_t i = row0 + vp.node_rank();
    x.set(i, 0.0);
    r.set(i, b[i]);
    p.set(i, b[i]);
  });

  const double b_norm = std::sqrt(dot(env, r, r));
  const double threshold = options.tolerance * (b_norm > 0 ? b_norm : 1.0);

  PpmCgOutput out{x, {}, 0, false};
  double rr = dot(env, r, r);

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    vps.global_phase([&](Vp& vp) {
      const uint64_t i = vp.node_rank();
      double acc = 0.0;
      for (uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        acc += a.values[k] * p.get(a.col_idx[k]);
      }
      q.set(row0 + i, acc);
    });
    const double alpha = rr / dot(env, p, q);
    vps.global_phase([&](Vp& vp) {
      const uint64_t i = row0 + vp.node_rank();
      x.add(i, alpha * p.get(i));
      r.add(i, -alpha * q.get(i));
    });
    const double rr_new = dot(env, r, r);
    out.residual_history.push_back(std::sqrt(rr_new));
    ++out.iterations;
    if (std::sqrt(rr_new) <= threshold) {
      out.converged = true;
      break;
    }
    const double beta = rr_new / rr;
    vps.global_phase([&](Vp& vp) {
      const uint64_t i = row0 + vp.node_rank();
      p.set(i, r.get(i) + beta * p.get(i));
    });
    rr = rr_new;
  }
  return out;
}

}  // namespace ppm::apps::cg

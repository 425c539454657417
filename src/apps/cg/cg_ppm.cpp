#include "apps/cg/cg_ppm.hpp"

#include <algorithm>
#include <cmath>

namespace ppm::apps::cg {

PpmCgOutput cg_solve_ppm(Env& env, const ChimneyProblem& problem,
                         const CgOptions& options) {
  const uint64_t n = problem.unknowns();
  // All four vectors stay kBlock deliberately: reduce_dot() and
  // local_begin/local_end assume the contiguous block layout, and the chimney
  // matrix's banded structure keeps p-reads clustered near each node's
  // own chunk — there is no skewed hot set for the locality engine
  // (Distribution::kAdaptive) to exploit here. The graph kernels are the
  // owner-mapped showcase.
  auto x = env.global_array<double>(n);
  auto r = env.global_array<double>(n);
  auto p = env.global_array<double>(n);
  auto q = env.global_array<double>(n);

  // Owner-computes: this node's VPs handle its chunk of rows. The local
  // matrix rows are generated directly into node-local memory.
  const uint64_t row0 = x.local_begin();
  const uint64_t rows = x.local_end() - row0;
  const CsrMatrix a = build_chimney_matrix_rows(problem, row0, row0 + rows);
  const std::vector<double> b = build_chimney_rhs(problem);

  // One VP per row makes every shared access a separate runtime call; a
  // coarse group — a few lanes per core, each owning a contiguous row
  // sub-span — amortizes that overhead over whole spans: SpMV announces a
  // lane's column band as one prefetch_range() hint and writes its q
  // segment with one set_n(), and the vector phases move data through the
  // bulk read_n/set_n/add_n path (one range write entry per lane per
  // array instead of one entry per element). Committed results are
  // bit-identical to the per-element formulation — each element is
  // computed by exactly one lane with the same arithmetic, and the
  // miss-switching engine still overlaps lanes blocked on remote p
  // blocks with runnable ones.
  const uint64_t lanes =
      std::min<uint64_t>(rows, uint64_t{4} * env.cores_per_node());
  auto vps = env.ppm_do(lanes);
  std::vector<uint64_t> lane_first(lanes), lane_count(lanes);
  for (uint64_t l = 0; l < lanes; ++l) {
    lane_first[l] = l * rows / lanes;
    lane_count[l] = (l + 1) * rows / lanes - lane_first[l];
  }

  // Per-lane column extents, computed once: the chimney stencil's columns
  // sit inside a narrow band around the diagonal, so one [lo, hi) range
  // covers a lane's whole p-read set and prefetch_range() walks cache
  // blocks instead of paying a per-nonzero owner lookup in the hint
  // itself (interior lanes' bands are entirely local and skip the
  // runtime altogether).
  std::vector<uint64_t> col_lo(lanes, 0), col_hi(lanes, 0);
  for (uint64_t l = 0; l < lanes; ++l) {
    uint64_t lo = ~uint64_t{0}, hi = 0;
    for (uint64_t i = lane_first[l]; i < lane_first[l] + lane_count[l]; ++i) {
      for (uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
        lo = std::min(lo, a.col_idx[k]);
        hi = std::max(hi, a.col_idx[k] + 1);
      }
    }
    if (hi > lo) {
      col_lo[l] = lo;
      col_hi[l] = hi;
    }
  }

  // Per-lane scratch, hoisted out of the iteration loop (lanes touch only
  // their own slot, so concurrent cores never share a buffer).
  std::vector<std::vector<double>> s1(lanes), s2(lanes), s3(lanes);
  for (uint64_t l = 0; l < lanes; ++l) {
    s1[l].resize(lane_count[l]);
    s2[l].resize(lane_count[l]);
    s3[l].resize(lane_count[l]);
  }

  // SpMV band scratch: the accumulation indexes p through one read_n of
  // the lane's whole column band instead of a runtime get() per nonzero.
  // Same committed values (read_n returns the same phase-start elements),
  // same wire traffic (prefetch_range already pulled every cache block in
  // the band), but ownership/bounds resolve once per band rather than 27
  // times per row — the per-element overhead behind the 1-node
  // gap_vs_mpi in BENCH_fig.json, where every access is local and the
  // runtime call is pure overhead.
  std::vector<std::vector<double>> band(lanes);
  for (uint64_t l = 0; l < lanes; ++l) {
    band[l].resize(col_hi[l] - col_lo[l]);
  }

  // r = p = b, x = 0. The r·r reduction rides this phase's commit
  // (env.reduce_dot): each node folds its own chunk's committed values
  // and the partials travel on the commit's own exchange — no separate
  // allgather sweep, and the one registration serves both b_norm and
  // the first rr (the fetch-based formulation ran two full dot()
  // exchanges here).
  auto rr0_h = env.reduce_dot(r, r);
  env.phase_label("init");
  vps.global_phase([&](Vp& vp) {
    const uint64_t l = vp.node_rank();
    const uint64_t first = row0 + lane_first[l], count = lane_count[l];
    std::fill(s1[l].begin(), s1[l].end(), 0.0);
    x.set_n(first, count, s1[l].data());
    r.set_n(first, count, b.data() + first);
    p.set_n(first, count, b.data() + first);
  });

  const double rr0 = rr0_h.value();
  const double b_norm = std::sqrt(rr0);
  const double threshold =
      options.tolerance * (b_norm > 0 ? b_norm : 1.0);

  PpmCgOutput out{x, {}, 0, false};
  double rr = rr0;

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // q = A p. Remote p entries are plain shared reads; the runtime
    // bundles them into block fetches. Announcing the lane's column band
    // up front lets the off-chunk blocks stream in while the
    // accumulation walks the local ones. The p·q reduction registered
    // here resolves at this phase's commit, when q is freshly written —
    // the same committed values the fetch-based dot() read afterwards.
    auto pq_h = env.reduce_dot(p, q);
    env.phase_label("spmv");
    vps.global_phase([&](Vp& vp) {
      const uint64_t l = vp.node_rank();
      const uint64_t lo = col_lo[l];
      const double* pv = band[l].data();
      if (col_hi[l] > lo) {
        p.prefetch_range(lo, col_hi[l]);
        p.read_n(lo, col_hi[l] - lo, band[l].data());
      }
      double* qv = s1[l].data();
      for (uint64_t j = 0; j < lane_count[l]; ++j) {
        const uint64_t i = lane_first[l] + j;
        double acc = 0.0;
        for (uint64_t k = a.row_ptr[i]; k < a.row_ptr[i + 1]; ++k) {
          acc += a.values[k] * pv[a.col_idx[k] - lo];
        }
        qv[j] = acc;
      }
      q.set_n(row0 + lane_first[l], lane_count[l], qv);
    });

    const double alpha = rr / pq_h.value();

    // x += alpha p;  r -= alpha q. The new r·r resolves at this commit.
    auto rr_h = env.reduce_dot(r, r);
    env.phase_label("axpy");
    vps.global_phase([&](Vp& vp) {
      const uint64_t l = vp.node_rank();
      const uint64_t first = row0 + lane_first[l], count = lane_count[l];
      double* pv = s1[l].data();
      double* qv = s2[l].data();
      double* acc = s3[l].data();
      p.read_n(first, count, pv);
      q.read_n(first, count, qv);
      for (uint64_t j = 0; j < count; ++j) acc[j] = alpha * pv[j];
      x.add_n(first, count, acc);
      for (uint64_t j = 0; j < count; ++j) acc[j] = -alpha * qv[j];
      r.add_n(first, count, acc);
    });

    const double rr_new = rr_h.value();
    out.residual_history.push_back(std::sqrt(rr_new));
    ++out.iterations;
    if (std::sqrt(rr_new) <= threshold) {
      out.converged = true;
      break;
    }
    const double beta = rr_new / rr;

    // p = r + beta p.
    env.phase_label("p_update");
    vps.global_phase([&](Vp& vp) {
      const uint64_t l = vp.node_rank();
      const uint64_t first = row0 + lane_first[l], count = lane_count[l];
      double* rv = s1[l].data();
      double* pv = s2[l].data();
      double* nv = s3[l].data();
      r.read_n(first, count, rv);
      p.read_n(first, count, pv);
      for (uint64_t j = 0; j < count; ++j) nv[j] = rv[j] + beta * pv[j];
      p.set_n(first, count, nv);
    });
    rr = rr_new;
  }
  return out;
}

}  // namespace ppm::apps::cg

// ppm::Env — what a PPM node program sees — and ppm::VpGroup — the
// PPM_do(K) construct with its global/node phases.
#pragma once

#include <cstring>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "core/runtime.hpp"
#include "core/shared_array.hpp"

namespace ppm {

namespace detail {

/// Thunk behind Env::reduce: fold this node's owned elements of
/// pr.array_a under pr.op into the [u8 has_value][T] partial blob, in
/// place over owned_runs. The runs come in ascending global-index order
/// under every distribution, so the fold order is layout-independent. The
/// first owned element seeds the accumulator (a T{} seed would turn a
/// lone -0.0 into 0.0 under kAdd).
template <typename T>
void reduce_partial_thunk(NodeRuntime& rt,
                          const NodeRuntime::PendingReduce& pr, Bytes* out) {
  out->assign(1 + sizeof(T), std::byte{0});
  const ArrayRecord& rec = rt.array(pr.array_a);
  const auto op = static_cast<WriteOp>(pr.op);
  T acc{};
  bool seeded = false;
  for (const auto run : rt.owned_runs(pr.array_a)) {
    const std::byte* p = run.data();
    const std::byte* const end = p + run.size();
    if (!seeded) {
      std::memcpy(&acc, p, sizeof(T));
      p += sizeof(T);
      seeded = true;
    }
    for (; p != end; p += sizeof(T)) {
      rec.apply_op(reinterpret_cast<std::byte*>(&acc), p, op);
    }
  }
  if (!seeded) return;  // this node owns nothing: has_value stays 0
  (*out)[0] = std::byte{1};
  std::memcpy(out->data() + 1, &acc, sizeof(T));
}

/// Thunk behind Env::reduce_dot: ascending-index fold of sum(a[i]*b[i])
/// over this node's owned elements — exactly the per-node order
/// algorithms::dot uses on a block layout. Walks both arrays' owned_runs
/// in lockstep: registration requires equal owner maps, so the runs pair
/// up, but each array resolves its own storage slots.
template <typename T>
void reduce_dot_partial_thunk(NodeRuntime& rt,
                              const NodeRuntime::PendingReduce& pr,
                              Bytes* out) {
  out->assign(1 + sizeof(T), std::byte{0});
  const auto ra = rt.owned_runs(pr.array_a);
  const auto rb = rt.owned_runs(pr.array_b);
  PPM_CHECK(ra.size() == rb.size(),
            "reduce_dot needs identically sized and distributed arrays");
  T acc{};
  bool seeded = false;
  for (size_t r = 0; r < ra.size(); ++r) {
    PPM_CHECK(ra[r].size() == rb[r].size(),
              "reduce_dot needs identically sized and distributed arrays");
    for (size_t off = 0; off < ra[r].size(); off += sizeof(T)) {
      T x, y;
      std::memcpy(&x, ra[r].data() + off, sizeof(T));
      std::memcpy(&y, rb[r].data() + off, sizeof(T));
      acc = seeded ? acc + x * y : x * y;
      seeded = true;
    }
  }
  if (!seeded) return;  // this node owns nothing: has_value stays 0
  (*out)[0] = std::byte{1};
  std::memcpy(out->data() + 1, &acc, sizeof(T));
}

/// Fold `other` into `acc` (both [u8 has_value][elem] blobs): empty
/// partials are skipped, the first contributing node seeds the value, and
/// later ones fold through the array's op table — which also dispatches
/// user slots, so one combine serves every ReduceOp. The dot form
/// registers op=kAdd, making its combine the plain sum.
inline void reduce_combine_thunk(NodeRuntime& rt,
                                 const NodeRuntime::PendingReduce& pr,
                                 Bytes* acc,
                                 std::span<const std::byte> other) {
  PPM_CHECK(other.size() == acc->size(), "reduce partial blob mismatch");
  if (other[0] == std::byte{0}) return;
  if ((*acc)[0] == std::byte{0}) {
    acc->assign(other.begin(), other.end());
    return;
  }
  rt.array(pr.array_a).apply_op(acc->data() + 1, other.data() + 1,
                                static_cast<WriteOp>(pr.op));
}

}  // namespace detail

/// Result handle of Env::reduce()/reduce_dot(). The scalar materializes
/// when the next global phase commits (the per-node partials ride the
/// commit's allgather); value() before that commit is an error.
template <typename T>
class ReduceHandle {
 public:
  ReduceHandle() = default;

  /// The combined scalar — identical on every node. T{} when no node
  /// owned any element of the reduced array.
  T value() const {
    const auto& pr = rt_->reduce_result(h_);
    PPM_CHECK(pr.result.size() == 1 + sizeof(T),
              "reduce result blob size mismatch");
    T out{};
    std::memcpy(&out, pr.result.data() + 1, sizeof(T));
    return out;
  }

 private:
  friend class Env;
  ReduceHandle(NodeRuntime* rt, size_t h) : rt_(rt), h_(h) {}

  NodeRuntime* rt_ = nullptr;
  size_t h_ = 0;
};

/// A group of K virtual processors started on this node by PPM_do(K).
///
/// Phases are the paper's PPM_global_phase / PPM_node_phase constructs: the
/// body runs once per VP (folded into loops over the node's cores) with an
/// implicit barrier and write commit at the end. Multiple phases on the
/// same group correspond to a PPM function containing several phase
/// constructs; per-VP state that must survive across phases lives in arrays
/// indexed by vp.node_rank() (the compiler's scalar-expansion
/// transformation, done by hand in the embedded DSL).
class VpGroup {
 public:
  /// VPs started on this node.
  uint64_t size() const { return k_local_; }
  /// VPs across all nodes of the group (k_local summed; collective groups
  /// only).
  uint64_t global_size() const { return k_total_; }
  /// Global rank of this node's VP 0.
  uint64_t global_offset() const { return k_offset_; }

  /// Cluster-wide phase: synchronizes and commits across all nodes.
  void global_phase(const std::function<void(Vp&)>& body) {
    PPM_CHECK(collective_,
              "global phase on an async (node-local) VP group");
    rt_->run_phase(/*global=*/true, k_local_, k_offset_, body);
  }

  /// Node-level phase: synchronizes only this node's cores; commits only
  /// node-shared writes. Global shared writes are rejected inside it.
  void node_phase(const std::function<void(Vp&)>& body) {
    rt_->run_phase(/*global=*/false, k_local_, k_offset_, body);
  }

 private:
  friend class Env;
  VpGroup(NodeRuntime* rt, uint64_t k_local, uint64_t k_offset,
          uint64_t k_total, bool collective)
      : rt_(rt), k_local_(k_local), k_offset_(k_offset), k_total_(k_total),
        collective_(collective) {}

  NodeRuntime* rt_;
  uint64_t k_local_;
  uint64_t k_offset_;
  uint64_t k_total_;
  bool collective_;
};

/// The per-node PPM programming environment handed to the node program.
class Env {
 public:
  explicit Env(NodeRuntime& rt) : rt_(&rt) {}

  // ---- System variables (§3.1 item 5) ----

  int node_id() const { return rt_->node_id(); }
  int node_count() const { return rt_->node_count(); }
  int cores_per_node() const { return rt_->cores_per_node(); }

  // ---- Shared variable declaration / dynamic allocation ----

  /// Allocate a globally shared array of n elements (zero-initialized).
  /// SPMD-collective: every node must allocate in the same order.
  /// Distribution::kBlock keeps contiguous chunks per node; kCyclic deals
  /// elements round-robin (spreads irregular hot spots).
  template <typename T>
  GlobalShared<T> global_array(uint64_t n,
                               Distribution dist = Distribution::kBlock) {
    const uint32_t id =
        rt_->create_array(true, n, detail::elem_ops<T>(), dist);
    return GlobalShared<T>(rt_, id, n);
  }

  /// Allocate a node-shared array of n elements (one instance per node).
  template <typename T>
  NodeShared<T> node_array(uint64_t n) {
    const uint32_t id = rt_->create_array(false, n, detail::elem_ops<T>());
    return NodeShared<T>(rt_, id, n);
  }

  // ---- PPM_do ----

  /// Start K virtual processors on this node, coordinated with all other
  /// nodes (K may differ per node; global VP ranks are consistent).
  VpGroup ppm_do(uint64_t k) {
    const auto [offset, total] = rt_->coordinate_group(k);
    return VpGroup(rt_, k, offset, total, /*collective=*/true);
  }

  /// Start K virtual processors on this node only, with no cross-node
  /// coordination (the paper's asynchronous mode). Only node phases are
  /// allowed on the returned group.
  VpGroup ppm_do_async(uint64_t k) {
    return VpGroup(rt_, k, 0, k, /*collective=*/false);
  }

  // ---- Utility functions (§3.1 item 6) ----

  void barrier() { rt_->barrier_global(); }

  /// Name the next phase started on this node (`env.phase_label("spmv")`).
  /// The label lands in PhaseProfile::label, ppm::trace events, and the
  /// critical-path summary; consumed by the next global_phase/node_phase.
  void phase_label(std::string_view label) { rt_->set_phase_label(label); }

  /// Lookahead prefetch of a global array's elements (see
  /// GlobalShared::prefetch); usable from VP bodies and between phases.
  template <typename T>
  void prefetch(const GlobalShared<T>& a,
                std::span<const uint64_t> indices) {
    a.prefetch(indices);
  }

  /// Locality hint (see GlobalShared::rebalance): plan block migrations
  /// for an owner-mapped array at the next global commit. Collective —
  /// call between phases, identically on every node.
  template <typename T>
  void rebalance(const GlobalShared<T>& a) {
    a.rebalance();
  }

  /// Reduction over one value per node; every node gets the result.
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  T allreduce(T value, Op op) {
    ByteWriter w;
    w.put(value);
    const auto all = rt_->allgather_bytes(std::move(w).take());
    T acc{};
    bool first = true;
    for (const Bytes& b : all) {
      ByteReader r(b);
      const T v = r.get<T>();
      acc = first ? v : op(acc, v);
      first = false;
    }
    return acc;
  }

  /// One value per node, gathered everywhere, indexed by node.
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> allgather(T value) {
    ByteWriter w;
    w.put(value);
    const auto all = rt_->allgather_bytes(std::move(w).take());
    std::vector<T> out;
    out.reserve(all.size());
    for (const Bytes& b : all) {
      ByteReader r(b);
      out.push_back(r.get<T>());
    }
    return out;
  }

  /// Broadcast a vector from `root` to all nodes (binomial tree).
  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void broadcast(std::vector<T>& data, int root) {
    ByteWriter w;
    if (node_id() == root) w.put_vector(data);
    const Bytes bytes = rt_->broadcast_bytes(std::move(w).take(), root);
    if (node_id() != root) data = ByteReader(bytes).get_vector<T>();
  }

  /// Inclusive prefix combine over nodes (node 0 gets its own value).
  template <typename T, typename Op>
    requires std::is_trivially_copyable_v<T>
  T scan_inclusive(T value, Op op) {
    ByteWriter w;
    w.put(value);
    const auto all = rt_->allgather_bytes(std::move(w).take());
    T acc{};
    for (int n = 0; n <= node_id(); ++n) {
      ByteReader r(all[static_cast<size_t>(n)]);
      const T v = r.get<T>();
      acc = (n == 0) ? v : op(acc, v);
    }
    return acc;
  }

  // ---- User accumulate ops / remote reduction ----

  /// Register the user accumulate function `fn` into one of an array's
  /// three user slots (usable as ReduceOp::kUser0 + slot). SPMD-collective
  /// and outside phases; every node must register an equivalent function
  /// in the same slot (the sanitizer's lockstep fingerprint covers the
  /// registration). Declare commutative=false when fn does not commute —
  /// ppm::check then reports any element the op hits more than once in a
  /// single phase: commit applies the entries in VP rank order, and a
  /// non-commutative op makes the result depend on that order rather
  /// than on program intent.
  template <typename T>
  void register_accum_op(const GlobalShared<T>& a, int slot,
                         void (*fn)(T&, const T&), bool commutative = true) {
    register_accum_op_id<T>(a.id(), slot, fn, commutative);
  }

  /// NodeShared form: same contract; the slot joins the same lockstep
  /// fingerprint, so registration must still happen identically on every
  /// node.
  template <typename T>
  void register_accum_op(const NodeShared<T>& a, int slot,
                         void (*fn)(T&, const T&), bool commutative = true) {
    register_accum_op_id<T>(a.id(), slot, fn, commutative);
  }

  /// Register a reduction of all elements of `a` under `op`, resolved at
  /// the NEXT global-phase commit: after the commit applies the phase's
  /// writes, each node folds its owned elements in ascending global-index
  /// order; the partials ride the commit's one allgather and combine in
  /// ascending node order, so every node reads the identical scalar from
  /// the handle. SPMD-collective, outside phases.
  template <typename T>
  ReduceHandle<T> reduce(const GlobalShared<T>& a, ReduceOp op) {
    NodeRuntime::PendingReduce pr;
    pr.array_a = a.id();
    pr.op = static_cast<uint8_t>(op);
    pr.partial = &detail::reduce_partial_thunk<T>;
    pr.combine = &detail::reduce_combine_thunk;
    return ReduceHandle<T>(rt_, rt_->register_reduce(std::move(pr)));
  }

  /// Dot-product form of reduce(): sum over i of a[i]*b[i]. Both arrays
  /// must share size and distribution (their owned index sets must
  /// coincide). On block layouts the result is bit-identical to a local
  /// ascending-index fold plus an ascending-node allreduce — the exact
  /// order algorithms::dot produces — at zero extra messages.
  template <typename T>
  ReduceHandle<T> reduce_dot(const GlobalShared<T>& a,
                             const GlobalShared<T>& b) {
    // The partial pairs the two arrays' owned runs positionally, so their
    // owned index sets must coincide — catch a layout mismatch at
    // registration, not as silently mis-paired products.
    const detail::ArrayRecord& ra = rt_->array(a.id());
    const detail::ArrayRecord& rb = rt_->array(b.id());
    PPM_CHECK(ra.n == rb.n && ra.dist == rb.dist &&
                  ra.mig_owner == rb.mig_owner,
              "reduce_dot needs identically sized and distributed arrays "
              "(%u vs %u)", a.id(), b.id());
    NodeRuntime::PendingReduce pr;
    pr.array_a = a.id();
    pr.array_b = b.id();
    pr.op = static_cast<uint8_t>(ReduceOp::kAdd);
    pr.partial = &detail::reduce_dot_partial_thunk<T>;
    pr.combine = &detail::reduce_combine_thunk;
    return ReduceHandle<T>(rt_, rt_->register_reduce(std::move(pr)));
  }

  // ---- Phase-semantics sanitizer (ppm::check, docs/validator.md) ----

  /// True when RuntimeOptions::validate_phases enabled the sanitizer.
  bool validation_enabled() const { return rt_->validator() != nullptr; }

  /// This node's sanitizer findings so far (empty report when validation
  /// is off). The cluster-wide merged report is RunResult::check_report;
  /// this per-node view lets a program or test inspect findings mid-run.
  check::Report node_check_report() const {
    const check::PhaseValidator* v = rt_->validator();
    return v != nullptr ? v->report() : check::Report{};
  }

  /// Access to the underlying runtime (tests, benches, advanced use).
  NodeRuntime& runtime() { return *rt_; }

 private:
  template <typename T>
  void register_accum_op_id(uint32_t id, int slot, void (*fn)(T&, const T&),
                            bool commutative) {
    detail::UserAccumOp op;
    op.apply = [](std::byte* elem, const std::byte* value, const void* f) {
      const auto fp =
          reinterpret_cast<void (*)(T&, const T&)>(const_cast<void*>(f));
      T cur;
      std::memcpy(&cur, elem, sizeof(T));
      T val;
      std::memcpy(&val, value, sizeof(T));
      fp(cur, val);
      std::memcpy(elem, &cur, sizeof(T));
    };
    op.fn = reinterpret_cast<const void*>(fn);
    op.commutative = commutative;
    rt_->register_user_op(id, slot, op);
  }

  NodeRuntime* rt_;
};

}  // namespace ppm

// Typed shared-variable handles: the PPM_global_shared / PPM_node_shared
// declarations of the paper, as C++ value handles.
//
// Handles are cheap to copy and node-local: under the SPMD model each node's
// program instance allocates the same arrays in the same order, producing
// handles with matching ids that denote one logical distributed array
// (GlobalShared) or the node's own instance (NodeShared).
//
// Semantics (see DESIGN.md §5): inside a phase, get() returns the value the
// element had when the phase started; set()/add()/... take effect when the
// phase commits, applied in ascending (global VP rank, per-VP sequence)
// order. Outside phases, access is immediate and restricted to locally
// stored elements.
#pragma once

#include <span>
#include <vector>

#include "core/runtime.hpp"

namespace ppm {

/// Which accumulate operation accumulate()/accumulate_n() and
/// Env::reduce() apply. Values mirror detail::WriteOp (sans kSet), so the
/// selector crosses the wire unchanged; kUser0..kUser2 are the slots
/// filled by Env::register_accum_op.
enum class ReduceOp : uint8_t {
  kAdd = 1,
  kMin = 2,
  kMax = 3,
  kMul = 4,
  kUser0 = 5,
  kUser1 = 6,
  kUser2 = 7,
};

static_assert(static_cast<uint8_t>(ReduceOp::kAdd) ==
                  static_cast<uint8_t>(detail::WriteOp::kAdd) &&
              static_cast<uint8_t>(ReduceOp::kMul) ==
                  static_cast<uint8_t>(detail::WriteOp::kMul) &&
              static_cast<uint8_t>(ReduceOp::kUser2) ==
                  static_cast<uint8_t>(detail::WriteOp::kUser2),
              "ReduceOp must mirror detail::WriteOp");

namespace detail {
/// The write op an accumulate selector names. Rejects a cast value that
/// would name kSet: accumulate() is never a plain set.
inline WriteOp accum_write_op(ReduceOp op) {
  const auto w = static_cast<WriteOp>(op);
  PPM_CHECK(is_accum_op(w), "accumulate() requires an accumulate op, not set");
  return w;
}
}  // namespace detail

/// One logical array distributed block-wise across all nodes
/// (PPM_global_shared).
template <typename T>
  requires std::is_trivially_copyable_v<T>
class GlobalShared {
 public:
  GlobalShared() = default;

  uint64_t size() const { return n_; }

  /// Phase-start value of element i (local: direct load; remote: served by
  /// the runtime's bundling read engine).
  ///
  /// Locally owned elements take an inline fast path: committed storage is
  /// allocated once and never moves, and deferred writes leave it frozen
  /// for the whole phase, so a plain load through a cached pointer is
  /// exactly the phase-start value.
  T get(uint64_t i) const { return view(i); }

  /// Deferred write; last writer (highest global VP rank, then latest
  /// program order) wins on conflicts.
  void set(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kSet);
  }

  /// Commutative accumulate-writes (well-defined under any conflict).
  void add(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kAdd);
  }
  void min_update(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kMin);
  }
  void max_update(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kMax);
  }

  /// Accumulate with a selectable op: the generic form of add()/
  /// min_update()/max_update(), and the way to reach kMul and the
  /// registered user slots. Same deferred write, same wire record, same
  /// (VP rank, seq) commit position.
  void accumulate(uint64_t i, ReduceOp op, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::accum_write_op(op));
  }

  /// Bulk accumulate over [first, first+count) — as if accumulate() were
  /// called at consecutive indices in order (add_n with a selectable op).
  void accumulate_n(uint64_t first, uint64_t count, ReduceOp op,
                    const T* values) {
    write_n(first, count, values, detail::accum_write_op(op));
  }

  /// Zero-copy read: a reference to the element's phase-start value,
  /// valid until the current phase commits. Remote elements resolve into
  /// the runtime's block cache, so large PODs (e.g. tree nodes) can be
  /// walked without copying.
  const T& view(uint64_t i) const {
    // Block-distribution local fast path (chunk_len_ is zeroed for other
    // distributions, so this branch cannot trigger for them).
    const uint64_t rel = i - chunk_base_;
    if (rel < chunk_len_) [[likely]] {
      return local_data_[rel];
    }
    // Remote element of a kBlock or kAdaptive array: the locator names
    // its slot in the direct-mapped block table, and a published block
    // serves it without a call. The table never publishes this node's
    // own blocks, so kAdaptive local elements miss here too.
    if (rec_->dist != Distribution::kCyclic && i < n_ &&
        !rec_->remote_block_ptr.empty()) {
      const auto at = rec_->place(i);
      if (const std::byte* block = rec_->remote_block_ptr[at.slot]) {
        rt_->note_cache_hit();
        rt_->note_access(*rec_, i);
        return *reinterpret_cast<const T*>(block + at.in_block * sizeof(T));
      }
    }
    return *reinterpret_cast<const T*>(rt_->read_ref(id_, i));
  }

  /// Bundled multi-element read: one runtime request per owner node.
  std::vector<T> gather(std::span<const uint64_t> indices) const {
    std::vector<T> out(indices.size());
    rt_->gather_elems(id_, indices,
                      reinterpret_cast<std::byte*>(out.data()));
    return out;
  }

  // -- Span-style bulk access --
  //
  // Equivalent to the per-element loops element for element — same
  // committed results, same conflict resolution — but ownership/bounds
  // resolve once per contiguous segment and remote write runs ship as
  // single range entries.

  /// Phase-start values of elements [first, first+count) into out.
  void read_n(uint64_t first, uint64_t count, T* out) const {
    rt_->read_span(id_, first, count, reinterpret_cast<std::byte*>(out));
  }

  /// Deferred bulk set of elements [first, first+count) — as if set() were
  /// called at consecutive indices in order.
  void set_n(uint64_t first, uint64_t count, const T* values) {
    write_n(first, count, values, detail::WriteOp::kSet);
  }
  /// Deferred bulk accumulate, same shape as set_n.
  void add_n(uint64_t first, uint64_t count, const T* values) {
    write_n(first, count, values, detail::WriteOp::kAdd);
  }

  /// Lookahead hint over a contiguous index range [lo, hi): like
  /// prefetch() but walks cache blocks, so hinting a whole row slice
  /// costs O(blocks), not O(elements). No-op for ranges that resolve
  /// entirely into this node's chunk.
  void prefetch_range(uint64_t lo, uint64_t hi) const {
    // Entirely-local fast path (block distribution): nothing to fetch.
    if (lo >= chunk_base_ && hi <= chunk_base_ + chunk_len_) return;
    rt_->prefetch_range(id_, lo, hi);
  }

  /// Lookahead hint: start fetching the cache blocks holding these
  /// elements now, without blocking. Later get()/view() calls find them
  /// cached or in flight, so the round trips overlap the caller's compute.
  /// Local elements and blocks already cached/in-flight are skipped;
  /// RunResult::prefetch_hits counts blocks demanded before going unused.
  void prefetch(std::span<const uint64_t> indices) const {
    rt_->prefetch_elems(id_, indices);
  }

  /// Locality hint: run one migration planning round for this array at the
  /// next global-phase commit, even when RuntimeOptions::
  /// adaptive_distribution is off. SPMD-collective by contract (every node
  /// must request the same rebalances between the same phases). No-op
  /// unless the array was created with Distribution::kAdaptive.
  void rebalance() const { rt_->request_rebalance(id_); }

  // -- Locality utilities (the paper's node/global "casting" functions) --

  /// First global index owned by this node (block distribution only).
  uint64_t local_begin() const {
    PPM_CHECK(rec_->dist == Distribution::kBlock,
              "local_begin/local_end are block-distribution concepts");
    return rec_->chunk_base;
  }
  /// One past the last global index owned by this node (block only).
  uint64_t local_end() const {
    PPM_CHECK(rec_->dist == Distribution::kBlock,
              "local_begin/local_end are block-distribution concepts");
    return rec_->chunk_base + rec_->chunk_len;
  }
  /// Node that owns element i.
  int owner(uint64_t i) const { return rt_->owner_of(id_, i); }
  /// This array's distribution.
  Distribution distribution() const { return rec_->dist; }
  /// Number of elements stored locally (any distribution).
  uint64_t local_count() const { return rec_->chunk_len; }

  /// Read-only view of this node's committed chunk (phase-start values
  /// during a phase). Static layouts only: owner-mapped storage is
  /// slotted for migration headroom, so a raw span would mix live blocks
  /// with free or stale slots.
  std::span<const T> local_span() const {
    PPM_CHECK(rec_->mig_block_elems == 0,
              "local_span is not defined for owner-mapped (kAdaptive) "
              "arrays; use get()/gather() instead");
    const auto bytes = rt_->committed_bytes(id_);
    return {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
  }

  uint32_t id() const { return id_; }

 private:
  friend class Env;

  void write_n(uint64_t first, uint64_t count, const T* values,
               detail::WriteOp op) {
    rt_->write_span(id_, first, count,
                    reinterpret_cast<const std::byte*>(values), op);
  }

  GlobalShared(NodeRuntime* rt, uint32_t id, uint64_t n)
      : rt_(rt), id_(id), n_(n) {
    const auto& rec = rt->array(id);
    rec_ = &rec;  // stable: records live in a deque
    if (rec.dist == Distribution::kBlock) {
      chunk_base_ = rec.chunk_base;
      chunk_len_ = rec.chunk_len;
    }
    local_data_ = reinterpret_cast<const T*>(rec.storage.data());
  }

  NodeRuntime* rt_ = nullptr;
  uint32_t id_ = 0;
  uint64_t n_ = 0;
  uint64_t chunk_base_ = 0;
  uint64_t chunk_len_ = 0;
  const T* local_data_ = nullptr;  // stable: storage never reallocates
  const detail::ArrayRecord* rec_ = nullptr;
};

/// One array instance per node, stored in that node's physical shared
/// memory (PPM_node_shared). Same phase semantics, no network traffic.
template <typename T>
  requires std::is_trivially_copyable_v<T>
class NodeShared {
 public:
  NodeShared() = default;

  uint64_t size() const { return n_; }

  T get(uint64_t i) const {
    if (i < n_) [[likely]] {
      return data_[i];  // committed storage: phase-start values
    }
    T out;
    rt_->read_elem(id_, i, reinterpret_cast<std::byte*>(&out));
    return out;
  }

  void set(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kSet);
  }
  void add(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kAdd);
  }
  void min_update(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kMin);
  }
  void max_update(uint64_t i, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::WriteOp::kMax);
  }

  /// Accumulate with a selectable op; see GlobalShared::accumulate.
  void accumulate(uint64_t i, ReduceOp op, const T& v) {
    rt_->write_elem(id_, i, reinterpret_cast<const std::byte*>(&v),
                    detail::accum_write_op(op));
  }
  void accumulate_n(uint64_t first, uint64_t count, ReduceOp op,
                    const T* values) {
    write_n(first, count, values, detail::accum_write_op(op));
  }

  // -- Span-style bulk access; see GlobalShared for semantics.
  // Node-shared storage is always local, so read_n is a plain memcpy.

  void read_n(uint64_t first, uint64_t count, T* out) const {
    rt_->read_span(id_, first, count, reinterpret_cast<std::byte*>(out));
  }
  void set_n(uint64_t first, uint64_t count, const T* values) {
    write_n(first, count, values, detail::WriteOp::kSet);
  }
  void add_n(uint64_t first, uint64_t count, const T* values) {
    write_n(first, count, values, detail::WriteOp::kAdd);
  }

  /// Read-only view of the committed array (phase-start values during a
  /// phase).
  std::span<const T> span() const {
    const auto bytes = rt_->committed_bytes(id_);
    return {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
  }

  uint32_t id() const { return id_; }

 private:
  friend class Env;

  void write_n(uint64_t first, uint64_t count, const T* values,
               detail::WriteOp op) {
    rt_->write_span(id_, first, count,
                    reinterpret_cast<const std::byte*>(values), op);
  }

  NodeShared(NodeRuntime* rt, uint32_t id, uint64_t n)
      : rt_(rt), id_(id), n_(n),
        data_(reinterpret_cast<const T*>(rt->array(id).storage.data())) {}

  NodeRuntime* rt_ = nullptr;
  uint32_t id_ = 0;
  uint64_t n_ = 0;
  const T* data_ = nullptr;  // stable: storage never reallocates
};

}  // namespace ppm

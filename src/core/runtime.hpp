// The PPM runtime library (§3.4 of the paper).
//
// One NodeRuntime instance lives on every node of the simulated machine.
// It owns:
//   * the node's shared-array directory and committed storage,
//   * the phase engine — deferred-write logs, the end-of-phase commit
//     protocol, and the deterministic application order,
//   * the remote-read engine — per-phase block cache and request combining
//     ("bundling up fine-grained remote shared data accesses into
//     coarse-grained packages"),
//   * eager write-bundle streaming (communication/computation overlap),
//   * the worker-core pool that folds K virtual processors into loops, and
//   * a service fiber that answers remote requests on the node's service
//     port (gets, bundle staging, barrier/collective tokens).
//
// Public programs never use this class directly; they go through ppm::Env,
// ppm::VpGroup and the shared-array handles in shared_array.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "check/validator.hpp"
#include "cluster/machine.hpp"
#include "core/options.hpp"
#include "core/wire.hpp"
#include "sim/sync.hpp"
#include "trace/recorder.hpp"
#include "util/divisor.hpp"

namespace ppm {

class Env;

/// Identity of one virtual processor within a phase body.
class Vp {
 public:
  /// Rank among the VPs started on this node (0 .. K_local-1).
  uint64_t node_rank() const { return node_rank_; }
  /// Rank across all nodes of the group (offset by the node's share).
  uint64_t global_rank() const { return global_rank_; }

 private:
  friend class NodeRuntime;
  uint64_t node_rank_ = 0;
  uint64_t global_rank_ = 0;
  uint32_t next_seq_ = 0;  // per-VP write sequence counter
};

/// How a global shared array's elements map onto nodes ("automatic data
/// distribution", §3). Block keeps contiguous chunks together (good for
/// owner-computes stencils); cyclic deals elements round-robin (spreads
/// irregular hot spots). Adaptive starts block-aligned but materializes a
/// per-block owner map that the locality engine rewrites at global-phase
/// commits, moving blocks toward their dominant accessors (kBlock/kCyclic
/// are the closed-form special cases of the same block→owner map).
enum class Distribution : uint8_t {
  kBlock,
  kCyclic,
  kAdaptive,
};

namespace detail {

/// Type-erased element operations for a shared array.
struct ElemOps {
  uint32_t size = 0;
  void (*apply)(std::byte* elem, const std::byte* value, WriteOp op) =
      nullptr;
  // Integral element type: accumulates are exact under any grouping and
  // order, so commit may apply them unordered and senders may pre-fold
  // them. Every other type (floating point above all) commits its
  // accumulates one by one in (VP rank, seq) order.
  bool integral = false;
};

template <typename T>
  requires std::is_trivially_copyable_v<T>
ElemOps elem_ops() {
  ElemOps ops;
  ops.size = sizeof(T);
  ops.integral = std::is_integral_v<T>;
  ops.apply = [](std::byte* elem, const std::byte* value, WriteOp op) {
    if (op == WriteOp::kSet) {
      std::memcpy(elem, value, sizeof(T));
      return;
    }
    if constexpr (std::is_arithmetic_v<T>) {
      PPM_CHECK(!is_user_op(op),
                "user accumulate op reached the arithmetic apply (dispatch "
                "through ArrayRecord::apply_op)");
      T cur, val;
      std::memcpy(&cur, elem, sizeof(T));
      std::memcpy(&val, value, sizeof(T));
      switch (op) {
        case WriteOp::kAdd: cur = cur + val; break;
        case WriteOp::kMin: cur = std::min(cur, val); break;
        case WriteOp::kMax: cur = std::max(cur, val); break;
        case WriteOp::kMul: cur = cur * val; break;
        default: break;
      }
      std::memcpy(elem, &cur, sizeof(T));
    } else {
      PPM_CHECK(false, "accumulate op on non-arithmetic element type");
    }
  };
  return ops;
}

/// A user-registered accumulate operation (Env::register_accum_op): a
/// captureless thunk plus the user's function pointer it forwards to.
/// `commutative` is the user's declaration; ppm::check enforces the
/// single-entry-per-element contract for slots declared non-commutative.
struct UserAccumOp {
  void (*apply)(std::byte* elem, const std::byte* value,
                const void* fn) = nullptr;
  const void* fn = nullptr;
  bool commutative = true;
};

struct ArrayRecord {
  uint32_t id = 0;
  bool global = false;
  uint64_t n = 0;
  ElemOps ops;
  Distribution dist = Distribution::kBlock;
  int nodes = 1;
  // Block distribution: the contiguous chunk this node owns. Cyclic:
  // chunk_base is 0 and chunk_len is this node's element count.
  uint64_t chunk_base = 0;
  uint64_t chunk_len = 0;
  uint64_t chunk = 0;  // max elements per owner (ceil(n / nodes))
  std::vector<std::byte> storage;  // committed values (zero-initialized)

  // Owner-mapped (kAdaptive) distribution: elements are grouped into
  // fixed migration blocks of mig_block_elems each, and a replicated
  // block→(owner, slot) map — rewritten only inside the lockstep planning
  // rounds of the locality engine — replaces the closed-form placement
  // formulas. Every node stores cap_blocks slots; mig_slot[b] names the
  // slot block b occupies on its owner. mig_block_elems == 0 means the
  // array uses a static (kBlock/kCyclic) layout.
  uint64_t mig_block_elems = 0;
  uint64_t mig_blocks = 0;
  uint64_t cap_blocks = 0;
  std::vector<int32_t> mig_owner;
  std::vector<uint32_t> mig_slot;
  // Per-node min-heaps of unoccupied slots, replicated and updated
  // identically everywhere by the planner (deterministic slot choice).
  std::vector<std::vector<uint32_t>> free_slots;
  // Locality profiler: per migration block, the epochs since the last
  // planning round in which this node read the block through the
  // block-cache read paths (get, view, read_n), and the last epoch that
  // counted. A reader pays at most one block fetch per epoch however many
  // elements it reads, so an epoch is the unit a move can save. Writes
  // and gathers are not counted. Mutable: recorded through const handles
  // on the read fast path. Empty unless the array is owner-mapped.
  mutable std::vector<uint64_t> access_count;
  mutable std::vector<uint64_t> access_epoch;

  // User accumulate slots (WriteOp::kUser0..kUser2), registered through
  // Env::register_accum_op before any phase uses them. SPMD-collective:
  // every node must register the same slots with equivalent functions.
  std::array<UserAccumOp, 3> user_ops{};

  // For reduce partials folded ahead of the commit exchange: the last
  // epoch in which this node logged a write of the array into its local
  // log, and into a peer's bundle; and the array's shadow, a copy of
  // storage with this node's local-log records of the array applied, so
  // that a partial folds post-commit values while storage still holds
  // the phase-start snapshot peers may read. `shadowed` is set while the
  // shadow holds this commit's values; the allocation is kept for the
  // next commit.
  uint64_t local_write_epoch = ~uint64_t{0};
  uint64_t remote_write_epoch = ~uint64_t{0};
  std::vector<std::byte> shadow;
  bool shadowed = false;

  /// Apply one write op to an element, dispatching user slots to their
  /// registered thunks and everything else to the arithmetic ops.
  void apply_op(std::byte* elem, const std::byte* value, WriteOp op) const {
    if (is_user_op(op)) [[unlikely]] {
      const auto& u =
          user_ops[static_cast<size_t>(op) -
                   static_cast<size_t>(WriteOp::kUser0)];
      PPM_CHECK(u.apply != nullptr,
                "user accumulate op %u used on array %u without "
                "register_accum_op",
                static_cast<unsigned>(op), id);
      u.apply(elem, value, u.fn);
      return;
    }
    ops.apply(elem, value, op);
  }

  // The remote-block table (global arrays with bundling enabled), the
  // requester's only record of a remote block in this epoch: one slot per
  // cache block of the whole array, owner * blocks_per_chunk + block. A
  // slot holds no block, a fetch in flight, a lookahead block that
  // arrived but was not demanded yet, or a published block.
  // remote_block_ref names the slot's entry in the node's list of blocks
  // touched this epoch (index + 1; 0 = no block), and the entry owns the
  // bytes. remote_block_ptr points at the bytes of a published block and
  // is nullptr otherwise; shared handles probe it inline. Both are
  // allocated on the array's first block fetch and reset at every global
  // commit.
  uint64_t block_elems = 0;        // elements per cache block
  uint64_t blocks_per_chunk = 0;   // blocks within one owner's chunk
  std::vector<const std::byte*> remote_block_ptr;
  std::vector<uint32_t> remote_block_ref;

  // The element locator's divisors (create_array sets them with the
  // fields they mirror): no element path issues a hardware divide.
  Divisor chunk_div;   // chunk (kBlock)
  Divisor nodes_div;   // nodes (kCyclic)
  Divisor block_div;   // block_elems (bundled arrays)
  Divisor mig_div;     // mig_block_elems (kAdaptive)

  /// Where a global element lives.
  struct Place {
    int owner = 0;
    uint64_t local = 0;     // owner-local storage index
    uint64_t slot = 0;      // remote_block_ptr slot of its cache block
    uint64_t in_block = 0;  // element offset within that cache block
  };
  /// The element locator: owner, storage index and cache-block position
  /// of global element i (slot and in_block mean something only when
  /// block_elems != 0). kAdaptive cache blocks are the migration slots
  /// (both lengths are read_block_bytes / element size), so one division
  /// resolves all four.
  Place place(uint64_t i) const {
    if (dist == Distribution::kAdaptive) {
      const auto [b, r] = mig_div.divmod(i);
      const auto owner = static_cast<uint64_t>(mig_owner[b]);
      const uint64_t s = mig_slot[b];
      return {static_cast<int>(owner), s * mig_block_elems + r,
              owner * blocks_per_chunk + s, r};
    }
    const bool block = dist == Distribution::kBlock;
    const auto [q, r] = (block ? chunk_div : nodes_div).divmod(i);
    const uint64_t owner = block ? q : r;
    const uint64_t local = block ? r : q;
    const auto [b, in_block] = block_div.divmod(local);
    return {static_cast<int>(owner), local, owner * blocks_per_chunk + b,
            in_block};
  }
  /// Node owning global element i.
  int owner_of(uint64_t i) const { return place(i).owner; }
  /// Owner-local storage index of global element i.
  uint64_t local_of(uint64_t i) const { return place(i).local; }
  /// Table slot of the cache block holding owner-local element `local`
  /// of `owner`.
  uint64_t block_slot(int owner, uint64_t local) const {
    return static_cast<uint64_t>(owner) * blocks_per_chunk +
           block_div.div(local);
  }
  /// The bytes of the block published in table slot `slot`, or nullptr
  /// (always nullptr before the table exists, and with bundling off).
  const std::byte* published_block(uint64_t slot) const {
    return remote_block_ptr.empty() ? nullptr : remote_block_ptr[slot];
  }
  /// Element count stored by `owner` (slot capacity for owner-mapped
  /// arrays — slotted storage is sized for migration headroom, not for
  /// the blocks currently resident).
  uint64_t owner_len(int owner) const {
    if (!global) return n;
    if (mig_block_elems != 0) return cap_blocks * mig_block_elems;
    if (dist == Distribution::kBlock) {
      const uint64_t base = std::min(n, chunk * static_cast<uint64_t>(owner));
      return std::min(chunk, n - base);
    }
    return nodes_div.div(n + static_cast<uint64_t>(nodes) - 1 -
                         static_cast<uint64_t>(owner));
  }
};

/// Deliberate-fault hook for the stress harness's self-test (ppm::stress):
/// when set, apply_staged_entries applies ordered commit batches in
/// REVERSED (vp_rank, seq) order — a planted phase-semantics bug that the
/// differential oracle must flag. Never set outside tests.
inline bool g_stress_flip_commit_order = false;

/// Second planted bug, an at-least-once delivery: when set, commit_global
/// stages every delivered kBundle fragment twice (the local log once), so
/// each remote write applies twice — also on the unordered single-op apply
/// arm that g_stress_flip_commit_order cannot reach. The stress harness's
/// self-test proves the differential oracle catches it with a shrunk
/// repro. Never set outside tests.
inline bool g_stress_double_apply_bundles = false;

}  // namespace detail

/// How node-level allgathers run on p = `nodes` nodes of `cores` cores
/// joined by `link`. Direct sends each blob straight to the p−1 peers; it
/// is chosen when one core's p−1 serialized send overheads undercut the
/// ⌈log2 p⌉ relay hops of Bruck dissemination: (p−1)·o_s < ⌈log2 p⌉·(o_s +
/// L + o_r). The choice ignores the cores on purpose: the direct form
/// puts p·(p−1) messages on the fabric per exchange, and spreading their
/// overheads over the cores does not make that count any smaller. Every
/// node holds the same link values, so every node picks the same
/// algorithm.
struct AllgatherPlan {
  bool direct = false;
  /// Modeled critical path: ⌈(p−1)/c⌉·o_s + L + o_r direct (the p−1 sends
  /// leave from all c cores, NodeRuntime::send_fanout), ⌈log2 p⌉·(o_s +
  /// L + o_r) Bruck, 0 on one node. ppm::model prices payload commits
  /// with it.
  int64_t cost_ns = 0;
};
AllgatherPlan plan_allgather(const net::LinkParams& link, int nodes,
                             int cores);

class NodeRuntime;

/// Cluster-wide runtime: one NodeRuntime per machine node plus shared
/// options. Node ids are the machine's node ids.
class Runtime {
 public:
  Runtime(cluster::Machine& machine, RuntimeOptions options);
  ~Runtime();

  NodeRuntime& node(int node_id);
  cluster::Machine& machine() { return machine_; }
  const RuntimeOptions& options() const { return options_; }
  int nodes() const { return machine_.nodes(); }

  /// The run's event trace, or nullptr when options().trace is off. Owned
  /// here; the fabric and engine recorders are attached for this Runtime's
  /// lifetime (detached again by the destructor).
  trace::Trace* trace() { return trace_.get(); }
  const trace::Trace* trace() const { return trace_.get(); }

  /// Sum per-node counters and fabric stats into a RunResult (including
  /// the per-counter min/max rollup and, when tracing, trace_summary).
  RunResult collect() const;

 private:
  cluster::Machine& machine_;
  RuntimeOptions options_;
  std::unique_ptr<trace::Trace> trace_;  // before nodes_: they point into it
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
};

class NodeRuntime {
 public:
  NodeRuntime(Runtime& shared, int node_id);

  int node_id() const { return node_; }
  int node_count() const;
  int cores_per_node() const;
  const RuntimeOptions& options() const { return opts_; }
  uint64_t epoch() const { return epoch_; }

  /// Spawn the service fiber and the worker-core fibers. Must be called on
  /// the node's main fiber before any other operation.
  void start();
  /// Final global barrier, then stop service fiber and workers. Must be the
  /// last runtime call of the node program.
  void finish();

  // ---- Shared-array directory ----

  /// Create a shared array (SPMD-collective: all nodes must create arrays
  /// in the same order). Storage starts zeroed. Must be called outside
  /// phases.
  uint32_t create_array(bool global, uint64_t n, detail::ElemOps ops,
                        Distribution dist = Distribution::kBlock);

  const detail::ArrayRecord& array(uint32_t id) const;

  /// Bump the bundling counter from the handles' inline cached-read path.
  void note_cache_hit() { ++counters_.reads_from_cache; }

  /// Locality profiler hook of the block-cache read paths (get, view,
  /// read_n), local or remote: counts the epoch once per migration block,
  /// on its first read in the epoch, so the count does not depend on how
  /// the node's VPs interleave. Static-layout arrays keep access_count
  /// empty, so the hook reduces to one never-taken branch there (same
  /// trick as the validator's null-pointer hooks).
  void note_access(const detail::ArrayRecord& rec, uint64_t index) {
    if (!rec.access_count.empty()) [[unlikely]] {
      const uint64_t b = rec.mig_div.div(index);
      if (rec.access_epoch[b] != epoch_) {
        rec.access_epoch[b] = epoch_;
        ++rec.access_count[b];
      }
    }
  }

  /// Ask the locality engine to run one migration planning round for this
  /// array at the next global-phase commit. SPMD-collective by contract:
  /// every node must request the same rebalances between the same phases
  /// (the planner's allgather assumes it; ppm::check's lockstep
  /// fingerprint catches divergence). No-op for static-layout arrays.
  void request_rebalance(uint32_t id);

  /// Read-only view of this node's committed chunk (global arrays) or the
  /// whole committed array (node-shared) — the paper's node/global space
  /// "casting" utility.
  std::span<const std::byte> committed_bytes(uint32_t id) const;

  /// This node's committed elements of array `id` as contiguous runs of
  /// its storage, in ascending global-index order (node-shared arrays: all
  /// n elements). kBlock, kCyclic and node-shared arrays give one run, the
  /// whole local storage; kAdaptive gives one run per owned migration
  /// block, ascending by block, the last block clipped to n. A node that
  /// owns nothing gets no run, and no run is empty. O(1) for static
  /// layouts, O(migration blocks) for kAdaptive. The spans view live
  /// storage, so a later commit or migration changes what they show.
  std::vector<std::span<const std::byte>> owned_runs(uint32_t id) const;
  /// The runs a reduce partial folds in place: owned_runs over the
  /// array's values after the resolving commit — its shadow while the
  /// commit folds partials ahead of its exchange, committed storage
  /// otherwise.
  std::vector<std::span<const std::byte>> fold_runs(uint32_t id) const;

  /// The owned_runs of array `id` concatenated: this node's committed
  /// elements packed in ascending global-index order, at O(owned) cost.
  /// Unlike committed_bytes this is layout-free — owner-mapped (kAdaptive)
  /// slot storage and cyclic striding are flattened out — so an
  /// allgather of it plus place_owned_elems reassembles the logical array
  /// contents under any distribution; call outside phases.
  Bytes pack_owned_elems(uint32_t id) const;

  /// Every node's pack_owned_elems of global array `id`, indexed by node:
  /// one allgather_bytes. SPMD-collective, outside phases. The first half
  /// of Env::allgather_array.
  std::vector<Bytes> allgather_owned_elems(uint32_t id);
  /// The second half: write the logical contents of global array `id`,
  /// all n elements in index order, to `out` (n × element size bytes)
  /// from every node's packed owned elements (`owned[m]` is node m's),
  /// through this node's copy of the owner map, which every node holds
  /// identically: one copy per owner under kBlock, one per migration
  /// block under kAdaptive, a strided scatter under kCyclic. A blob whose
  /// size disagrees with that map is an error.
  void place_owned_elems(uint32_t id, const std::vector<Bytes>& owned,
                         std::byte* out) const;

  // ---- Element access (phase-start read / deferred write semantics) ----

  void read_elem(uint32_t id, uint64_t index, std::byte* out);
  /// Zero-copy read: pointer to the element's phase-start bytes, valid
  /// until the current phase commits (local storage or a cached block).
  /// The out-of-line half of GlobalShared::view: it serves every read the
  /// handle does not serve inline (kCyclic and kAdaptive local elements,
  /// kCyclic cache hits, blocks not yet published, bad indices).
  const std::byte* read_ref(uint32_t id, uint64_t index);
  void write_elem(uint32_t id, uint64_t index, const std::byte* value,
                  detail::WriteOp op);
  /// Bundled multi-element read: one request per owner node.
  void gather_elems(uint32_t id, std::span<const uint64_t> indices,
                    std::byte* out);
  /// Non-blocking lookahead: issue block fetches covering the given
  /// elements of a global array so later get()/view() calls find them
  /// cached or in flight. Local and already-covered elements are skipped;
  /// no-op when read bundling is off.
  void prefetch_elems(uint32_t id, std::span<const uint64_t> indices);
  /// Non-blocking lookahead over a contiguous index range [lo, hi): walks
  /// cache blocks instead of elements, so an O(range) hint costs
  /// O(range / block_elems). Same skip rules as prefetch_elems.
  void prefetch_range(uint32_t id, uint64_t lo, uint64_t hi);

  /// Bulk contiguous read: elements [first, first+count) of the array's
  /// phase-start snapshot into `out`. Equivalent to count read_elem calls
  /// but resolves ownership per contiguous segment (memcpy for local or
  /// cached runs, batched fetches for missing blocks).
  void read_span(uint32_t id, uint64_t first, uint64_t count,
                 std::byte* out);
  /// Bulk contiguous deferred write: equivalent to count write_elem calls
  /// at consecutive indices with consecutive seq numbers, but ships one
  /// range entry per owner segment. Committed results are bit-identical
  /// to the elementwise loop.
  void write_span(uint32_t id, uint64_t first, uint64_t count,
                  const std::byte* values, detail::WriteOp op);

  /// Register a user accumulate function for one of the kUser0..kUser2
  /// slots of an array (SPMD-collective, outside phases). See
  /// Env::register_accum_op for the typed front end.
  void register_user_op(uint32_t id, int slot, detail::UserAccumOp op);

  // ---- Remote reduction (rides the commit exchange) ----

  /// One registered reduction, resolved at the next global-phase commit:
  /// each node folds the post-commit values of its OWNED elements (in
  /// place over fold_runs, O(owned) per node) in ascending global-index
  /// order into a partial blob ([u8 has_value][elem bytes]), and every
  /// node folds the per-node partials in ascending node order — so all
  /// nodes compute the identical scalar, bit-equal to a local fold over
  /// the whole array in ascending index order followed by an
  /// ascending-node combine (the order dot()/reduce_array produce for
  /// block layouts). Without a migration round the partials are folded
  /// before the last markers leave and ride the markers or the census;
  /// if any node shipped a remote write into a reduced array, or a
  /// migration round is due, they are folded after the apply and ride
  /// the commit's payload allgather instead.
  struct PendingReduce {
    uint32_t array_a = 0;
    uint32_t array_b = UINT32_MAX;  // dot form when != UINT32_MAX
    uint8_t op = 0;                 // WriteOp value (single-array form)
    /// Fold this node's owned elements into `out` (typed thunk from Env).
    void (*partial)(NodeRuntime&, const PendingReduce&, Bytes* out) =
        nullptr;
    /// Fold `other` into `acc` (both partial blobs; `other` is read
    /// straight off a peer's allgather payload). Receives the runtime and
    /// the registration so one captureless thunk can dispatch through the
    /// array's op table (including user slots).
    void (*combine)(NodeRuntime&, const PendingReduce&, Bytes* acc,
                    std::span<const std::byte> other) = nullptr;
    Bytes result;
    bool done = false;
  };
  /// Register a reduction (SPMD-collective, before the global phase whose
  /// commit should resolve it). Returns a handle for reduce_result.
  size_t register_reduce(PendingReduce pr);
  const PendingReduce& reduce_result(size_t handle) const;

  int owner_of(uint32_t id, uint64_t index) const;

  // ---- Virtual processor groups and phases ----

  /// Coordinate a collective ppm_do across nodes: returns {global rank
  /// offset of this node's VPs, total K across nodes}.
  std::pair<uint64_t, uint64_t> coordinate_group(uint64_t k_local);

  /// Run one phase: execute body for VPs [0, k_local) folded into loops
  /// over this node's cores, then commit deferred writes. Global phases
  /// additionally exchange write bundles and synchronize all nodes.
  void run_phase(bool global, uint64_t k_local, uint64_t k_offset,
                 const std::function<void(Vp&)>& body);

  // ---- Node-level collectives (used by Env and the commit protocol) ----

  /// Dissemination barrier: ⌈log2 p⌉ rounds of empty tokens.
  void barrier_global();
  /// Allgather of byte blobs over nodes, direct or Bruck as plan_allgather
  /// picks; result indexed by node. Every node waits for every blob, so it
  /// synchronizes like a barrier.
  std::vector<Bytes> allgather_bytes(Bytes mine);
  /// Reduce-scatter of one count per node: `counts[d]` is this node's
  /// count for node d; returns the sum over all nodes of their count for
  /// this node. Bruck dissemination run backwards: ⌈log2 p⌉ rounds and
  /// p−1 counts sent per node. Every result depends on every node's
  /// counts, so it synchronizes like a barrier. With `blobs` (p entries,
  /// this node's blob at its own index) the same rounds also spread every
  /// node's blob to every node, each sent once per node it reaches, and
  /// `blobs` returns them all, indexed by node; without, the tokens carry
  /// the counts alone. SPMD-collective, including the choice of form.
  uint32_t reduce_scatter_sum(const std::vector<uint32_t>& counts,
                              std::vector<Bytes>* blobs = nullptr);
  /// Binomial-tree broadcast from `root`: returns the root's `data` on
  /// every node (the argument is ignored elsewhere).
  Bytes broadcast_bytes(Bytes data, int root);

  // ---- Counters (exposed for tests/benches) ----

  struct Counters {
    uint64_t global_phases = 0;
    uint64_t node_phases = 0;
    uint64_t payload_commits = 0;   // commits with a payload allgather
    uint64_t blocks_fetched = 0;
    uint64_t reads_from_cache = 0;
    uint64_t write_entries = 0;
    uint64_t bundles_sent = 0;
    uint64_t fetch_stall_ns = 0;    // VP time parked on remote fetches
    uint64_t prefetch_issued = 0;   // lookahead block fetches sent
    uint64_t prefetch_hits = 0;     // prefetched blocks demanded before use
    uint64_t reduction_bytes_saved = 0;  // see RunResult
    uint64_t blocks_migrated = 0;   // migration blocks sent to a new owner
    uint64_t migration_bytes = 0;   // element bytes those blocks carried
    uint64_t remote_to_local_conversions = 0;  // read-epochs; see RunResult
    // Reads that entered the runtime's cold remote path (remote_ref) —
    // i.e. missed both the handle-inline local and cached-block fast
    // paths. A fully cached phase keeps this at zero.
    uint64_t slow_path_reads = 0;
  };
  const Counters& counters() const { return counters_; }

  /// The node's phase-semantics sanitizer, or nullptr when
  /// options().validate_phases is off. See src/check/ and
  /// docs/validator.md.
  const check::PhaseValidator* validator() const { return validator_.get(); }

  /// Label the NEXT phase run on this node (consumed by it): shows up in
  /// that phase's PhaseProfile::label and, under tracing, on its trace
  /// spans, making profiles attributable to source phases instead of
  /// positional indices. Called through Env::phase_label.
  void set_phase_label(std::string_view label) { next_phase_label_ = label; }

  /// Phases executed so far on this node (the next phase's index).
  uint64_t phase_index() const { return phase_index_; }

  /// The node's trace recorder, or nullptr when options().trace is off.
  const trace::Recorder* tracer() const { return tracer_; }

  /// One record per executed phase (only when options().profile_phases).
  struct PhaseProfile {
    bool global = false;
    /// Running index of the phase on this node (global and node phases
    /// share the counter) and the app-set label, empty unless the program
    /// called Env::phase_label before the phase.
    uint64_t phase_index = 0;
    std::string label;
    uint64_t k_local = 0;
    int64_t start_ns = 0;         // virtual time at phase entry
    int64_t compute_done_ns = 0;  // all VPs finished (pre-commit)
    int64_t committed_ns = 0;     // commit complete
    uint64_t write_entries = 0;   // entries logged during this phase
    uint64_t blocks_fetched = 0;  // remote blocks fetched during it
    uint64_t bundles_sent = 0;
    uint64_t fetch_stall_ns = 0;     // VP time parked on fetches in it
    uint64_t prefetch_hits = 0;      // prefetched blocks demanded in it
    uint64_t blocks_migrated = 0;    // blocks this node shipped at commit
    uint64_t migration_bytes = 0;    // bytes those blocks carried
    uint64_t reduction_bytes_saved = 0;  // reduce wire-byte savings

    int64_t compute_ns() const { return compute_done_ns - start_ns; }
    int64_t commit_ns() const { return committed_ns - compute_done_ns; }
  };
  const std::vector<PhaseProfile>& phase_profiles() const {
    return phase_profiles_;
  }

 private:
  friend class Runtime;

  enum class PhaseScope : uint8_t { kNone, kGlobal, kNode };

  /// One message of a fan-out batch (send_fanout).
  struct Outgoing {
    int dst_node = 0;
    uint64_t kind = 0;
    Bytes payload;
  };

  /// What the worker cores run next: a phase's VP chunks (`body`), or
  /// their shares of a fan-out batch (`sends`).
  struct PhaseTask {
    const std::function<void(Vp&)>* body = nullptr;
    std::vector<Outgoing>* sends = nullptr;
    int next_share = 0;  // the fan-out share the next core to start takes
    uint64_t k_local = 0;
    uint64_t k_offset = 0;
    uint64_t next = 0;  // dynamic scheduling cursor
    uint64_t chunk = 1;
    uint64_t generation = 0;
    int workers_done = 0;
    bool shutdown = false;
  };

  /// One outstanding get. A block fetch is also its table slot's entry
  /// for the epoch: the response's bytes stay here until the commit.
  struct FetchSlot {
    explicit FetchSlot(sim::Engine& engine) : waiters(engine) {}
    bool done = false;
    Bytes data;
    // Response length the request asked for, checked on arrival.
    uint64_t bytes = 0;
    // Issued by the lookahead engine: nobody waits, publication into the
    // table is deferred to the first demand touch (so hits are
    // observable), and the slot is abandoned if the phase commits before
    // the response arrives.
    bool prefetched = false;
    bool abandoned = false;
    // Block fetches: the array and table slot the block lands in (null
    // for element and indexed gets, which keep their bytes in `data`
    // only).
    detail::ArrayRecord* record = nullptr;
    uint64_t block_slot = 0;
    uint64_t req_id = 0;
    // Fibers parked on this fetch; woken (only these) on completion.
    sim::WaitList waiters;
  };

  struct TokenKey {
    int src;
    uint64_t seq;
    uint32_t round;
    auto operator<=>(const TokenKey&) const = default;
  };

  // Service-side handlers.
  void service_loop();
  void handle_get(net::Message msg);
  void serve_get(const net::Message& msg);
  void handle_bundle(net::Message msg);
  void handle_token(net::Message msg);
  void serve_deferred_gets();

  // Requester-side read engine: the remote element at `at`. Returns a
  // pointer to its bytes, valid until the phase commits.
  const std::byte* remote_ref(const detail::ArrayRecord& rec,
                              const detail::ArrayRecord::Place& at);
  uint64_t next_req_id() { return req_id_counter_++; }

  // Overlap engine (requester side).
  /// Fetch `count` elements from owner-local `first` of `owner`: the block
  /// enters its table slot in flight, and the request joins the owner's
  /// backlog. The entry lives until the commit.
  FetchSlot& issue_block_fetch(const detail::ArrayRecord& rec, int owner,
                               uint64_t first, uint64_t count,
                               bool prefetch);
  /// Ship every queued per-owner fetch request (kGetBlockList when an
  /// owner has >= 2, plain kGetBlock/kPrefetchBlock otherwise). Called
  /// before any fiber parks on a fetch and at the end of prefetch sweeps;
  /// no-op when the backlog is empty.
  void flush_fetch_backlog();
  /// Block until `slot` completes; with overlap_reads the calling core
  /// first runs other ready VPs of the current phase (miss-switching) and
  /// only parks when none are left. Parked time is charged to
  /// fetch_stall_ns.
  void wait_fetch(FetchSlot& slot);
  /// Claim and run one not-yet-started VP of the current phase on the
  /// calling fiber (nested under the blocked VP's frame). Returns false
  /// when no VP is available or the nesting cap is reached.
  bool run_one_ready_vp();
  bool claim_one_vp(uint32_t fid, uint64_t* out_vp);
  /// Fetch the next block(s) after `first` when the previous adjacent
  /// block was already wanted (detected forward stream).
  void maybe_stream_prefetch(const detail::ArrayRecord& rec, int owner,
                             uint64_t first, uint64_t owner_len);
  /// The entry of table slot `slot` this epoch — a block in flight,
  /// arrived or published — or nullptr when the slot holds no block.
  FetchSlot* touched_block(const detail::ArrayRecord& rec,
                           uint64_t slot) const {
    if (rec.remote_block_ref.empty()) return nullptr;
    const uint32_t ref = rec.remote_block_ref[slot];
    return ref == 0 ? nullptr : blocks_[ref - 1].get();
  }
  /// Publish the arrived block in table slot `slot` (owner-local `first`
  /// of `owner`) and count the first demand touch of a prefetched block.
  /// Returns its bytes.
  const std::byte* publish_block(const detail::ArrayRecord& rec, int owner,
                                 uint64_t first, uint64_t slot);

  // Write engine. Each destination buffer carries its fragment header
  // (epoch + flags) in place from the first entry on, so a flush ships
  // the buffer itself — no copy into a fresh writer — and reseeds it from
  // a small pool of recycled allocations.
  static constexpr size_t kBundleHeaderBytes =
      sizeof(uint64_t) + sizeof(uint8_t);
  static constexpr size_t kBundleLastOffset = sizeof(uint64_t);
  static constexpr size_t kBundlePoolMax = 16;
  /// The destination's pending-write buffer, fragment header written
  /// lazily.
  ByteWriter& bundle_buffer(int dest_node);
  /// Patch the header flags, append `trailer` (a last marker's reduce-
  /// partials trailer, see wire.hpp), detach the payload, reseed the
  /// buffer from the pool, and return the payload for the caller to ship,
  /// already counted and traced as a sent fragment.
  Bytes take_fragment(int dest_node, bool last,
                      std::span<const std::byte> trailer = {});
  void maybe_eager_flush(int dest_node);
  /// End the epoch's write stream: ship every pending fragment and this
  /// node's last markers, in the direct or the sparse form that
  /// plan_allgather picks, and return how many last markers this node
  /// must wait for. With `carried` (p entries, this node's partials blob
  /// at its own index), the direct form's markers carry this node's blob
  /// in a trailer, and the sparse form's census spreads every node's blob
  /// into `carried`.
  int flush_all_bundles_final(std::vector<Bytes>* carried);

  Bytes pool_take();
  void pool_put(Bytes b);

  // Locality engine (all nodes run these at the same global commits).
  /// Deterministic cluster-wide predicate: does this commit run a
  /// migration planning round? (Depends only on SPMD-replicated state.)
  bool migration_round_due() const;
  /// Arrays the next planning round covers, in ascending id order
  /// (identical on every node).
  std::vector<uint32_t> planned_array_ids() const;
  /// From the allgathered read-epoch counters, compute the identical
  /// greedy plan on every node, rewrite the owner maps, move block
  /// payloads via kMigrateBlock, and reset the profiler.
  void run_migration_round(std::vector<Bytes> all_counts);

  // Phase engine.
  void run_vp_loop(const std::function<void(Vp&)>& body);
  void run_chunks(int core_index);
  /// Send a batch of independent messages from all of the node's c cores,
  /// so the batch pays ⌈n/c⌉ send overheads instead of n: message i is in
  /// share i mod c, the calling main fiber sends share 0, and each worker
  /// core takes the next share as it starts. Returns once every share is
  /// sent. Main fiber, between phases: the worker fibers pick their
  /// shares up on task_cv_ as they pick up a phase.
  void send_fanout(std::vector<Outgoing> batch);
  /// Send share `share` of task_.sends: messages share, share + c, ...
  void send_share(int share);
  void commit_global();
  void commit_node();
  /// Which records an apply pass applies, and where: kCommit applies
  /// every record to committed storage except those of arrays whose
  /// shadow already holds them (ArrayRecord::shadowed) and runs the
  /// ppm::check hooks on every record; kShadows applies only the records
  /// of shadowed arrays, to their shadows, without hooks.
  enum class ApplyPass : uint8_t { kCommit, kShadows };
  void apply_staged_entries(std::vector<std::span<const std::byte>> buffers,
                            ApplyPass pass = ApplyPass::kCommit);

  // Pending-reduce plumbing (commit side). Every node's partial blobs
  // have the same SPMD-replicated size (registration is collective). On
  // the post-apply allgather they follow the migration counter vectors,
  // so every node parses them back off the tail of each peer blob.
  size_t pending_reduce_blob_bytes() const;
  Bytes build_reduce_partials();
  void combine_reduce_partials(const std::vector<Bytes>& all,
                               size_t tail_bytes);
  /// Fold this node's partials ahead of the exchange: shadow the pending
  /// reduces' arrays that this epoch wrote locally, and return
  /// [partials][u8 flags], kPartialsRemoteWrite set when this node
  /// shipped a remote write into a reduced array.
  Bytes fold_carried_partials();
  /// After the exchange: check every node's carried blob (`carried`,
  /// indexed by node; the direct form's come off the staged last-marker
  /// trailers) and strip its flags byte. Returns whether any node set
  /// kPartialsRemoteWrite. Throws when a trailer arrived at a commit that
  /// carries none (`carry` false).
  bool collect_carried_partials(bool carry, size_t tail_bytes,
                                std::vector<Bytes>* carried);
  std::vector<std::span<const std::byte>> owned_runs_in(
      const detail::ArrayRecord& rec,
      const std::vector<std::byte>& store) const;

  // ppm::check integration: scan one commit batch (wraps the validator's
  // begin/finish around apply_staged_entries' entry walk) and exchange
  // lockstep fingerprints at a global commit. Both no-ops unless
  // validate_phases is on; both honor validate_fail_fast.
  void validate_commit_finish();
  void validate_lockstep();

  // Token transport. A token is its (seq, round) head and the payload;
  // the receiver keeps the delivered message buffer and strips the head
  // in place.
  static constexpr size_t kTokenHeadBytes =
      sizeof(uint64_t) + sizeof(uint32_t);
  void token_send(int dst_node, uint64_t seq, uint32_t round,
                  std::span<const std::byte> payload);
  Bytes token_recv(int src_node, uint64_t seq, uint32_t round);
  void rt_send(int dst_node, uint64_t kind, Bytes payload);

  Vp* current_vp() const;

  Runtime& shared_;
  int node_;
  bool started_ = false;
  // Hot-path caches (every shared access goes through read/write_elem).
  RuntimeOptions opts_;
  sim::Engine* engine_ = nullptr;

  std::deque<detail::ArrayRecord> arrays_;  // deque: records stay put

  // Phase state.
  PhaseScope phase_scope_ = PhaseScope::kNone;
  uint64_t epoch_ = 0;
  PhaseTask task_;
  std::unique_ptr<sim::ConditionVar> task_cv_;
  std::vector<Vp*> vp_by_fiber_;  // indexed by fiber id (dense, small)

  // Miss-switching state, indexed by fiber id. Static scheduling publishes
  // each core's remaining VP range through a cursor so nested execution can
  // claim one VP at a time without double-running any (dynamic scheduling
  // claims from task_.next directly).
  struct StaticRange {
    uint64_t next = 0;
    uint64_t end = 0;
  };
  std::vector<StaticRange> static_range_;
  std::vector<uint32_t> miss_depth_;  // nested VP bodies per fiber

  // Write buffers: per touched peer (see PeerState below) + local log.
  // Flushed buffers are reseeded from bundle_pool_ (fed by received bundle
  // payloads and drained staging copies), keeping steady-state flushes
  // allocation-free.
  ByteWriter local_log_;
  std::vector<Bytes> bundle_pool_;

  // Locality engine state. mig_inbox_ stages inbound kMigrateBlock
  // payloads (appended by the service fiber, applied by the commit path
  // once its own outbound copies are serialized).
  struct MigArrival {
    uint32_t array = 0;
    uint64_t block = 0;
    Bytes data;
  };
  bool any_adaptive_ = false;
  std::vector<uint32_t> rebalance_requests_;  // sorted array ids
  std::vector<MigArrival> mig_inbox_;

  // Read engine state (cleared every global commit). blocks_ lists the
  // remote blocks this epoch touched, the entries the arrays'
  // remote_block_ref slots name, so the commit resets exactly those
  // slots.
  std::vector<std::shared_ptr<FetchSlot>> blocks_;
  std::vector<Bytes> unbundled_arena_;  // single-element fetches for views
  std::unordered_map<uint64_t, std::shared_ptr<FetchSlot>> outstanding_;
  std::unique_ptr<sim::ConditionVar> arrivals_cv_;
  uint64_t req_id_counter_ = 1;

  // Fetch coalescing: every block request is queued per owner while cores
  // miss-switch, and flush_fetch_backlog ships the queues together. The
  // invariant is "never park with a non-empty backlog" — wait_fetch
  // flushes right before parking, so a demand fetch's send is delayed at
  // most until its requester runs out of ready VPs to switch to.
  struct QueuedFetch {
    uint32_t array = 0;
    uint64_t first = 0;  // owner-local
    uint64_t count = 0;
    uint64_t req_id = 0;
    bool prefetch = false;
  };
  std::vector<int> backlog_owners_;  // owners with a non-empty queue
  bool backlog_nonempty_ = false;

  // All per-peer sender-side state, created lazily on first contact. A
  // node that never writes to or fetches from a peer never materializes
  // an entry, so an idle or purely-local node costs O(1) bytes regardless
  // of cluster size — the keystone of thousand-node runs (the eager
  // layout was four O(nodes) containers per node, O(nodes^2) machine-
  // wide). Below the allgather crossover the end-of-phase last markers
  // still reach every peer: flush_all_bundles_final ships untouched peers
  // a header-only marker without creating their PeerState. Above it only
  // the peers in marker_peers_ get one.
  struct PeerState {
    ByteWriter bundle;  // pending write entries (fragment header inline)
    uint64_t marker_epoch = ~uint64_t{0};  // last epoch in marker_peers_
    std::vector<QueuedFetch> fetch_backlog;
  };
  std::unordered_map<int, PeerState> peers_;
  PeerState& peer(int dest_node) { return peers_[dest_node]; }
  // Peers whose bundle buffer was seeded this epoch, eager flushes
  // included: exactly the peers a fragment goes to. Cleared by the final
  // flush.
  std::vector<int> marker_peers_;
  /// Called when the bundle for `dest_node` is seeded: list the peer in
  /// marker_peers_ once per epoch.
  void note_marker_owed(int dest_node, PeerState& ps) {
    if (ps.marker_epoch == epoch_) return;
    ps.marker_epoch = epoch_;
    marker_peers_.push_back(dest_node);
  }

  // Bundle staging (service side), keyed by epoch: the delivered fragment
  // payloads, fragment header included.
  std::map<uint64_t, std::vector<Bytes>> staged_bundles_;
  std::map<uint64_t, int> staged_last_markers_;
  // Reduce partials off last-marker trailers, keyed by epoch: the source
  // node and its [partials][u8 flags] blob.
  std::map<uint64_t, std::vector<std::pair<int, Bytes>>> staged_partials_;

  // Reductions registered for the next global commit. Resolved entries
  // stay until the program re-registers (handles are indices); the
  // resolved prefix is tracked so repeated commits skip done work.
  std::vector<PendingReduce> pending_reduces_;
  size_t reduces_resolved_ = 0;

  // Get requests from nodes one epoch ahead, served after our commit.
  std::vector<net::Message> deferred_gets_;

  // Token mailbox. Every collective takes the next sequence number; SPMD
  // programs call collectives in the same order, so the numbers agree.
  std::map<TokenKey, Bytes> tokens_;
  uint64_t token_seq_ = 0;

  Counters counters_;
  std::vector<PhaseProfile> phase_profiles_;
  uint64_t phase_index_ = 0;
  std::string next_phase_label_;  // consumed by the next run_phase

  // Phase-semantics sanitizer (null unless options().validate_phases; the
  // hot-path hooks are a single never-taken branch in that case).
  std::unique_ptr<check::PhaseValidator> validator_;

  // ppm::trace recorder for this node (null unless options().trace; every
  // hook below then reduces to one never-taken branch — the validator's
  // trick). Points into the Runtime-owned trace::Trace.
  trace::Recorder* tracer_ = nullptr;
  // Core index per fiber id (service fiber and main fiber record as core
  // 0), so events carry a per-core track for the exporter.
  std::vector<uint16_t> core_of_fiber_;

  uint16_t trace_core() const {
    const uint32_t fid = engine_->current_fiber_id();
    return fid < core_of_fiber_.size() ? core_of_fiber_[fid] : 0;
  }
  /// Record an event stamped with the current virtual time and core. Only
  /// call under `if (tracer_) [[unlikely]]`.
  void trace_rec(trace::EventKind kind, uint64_t a = 0, uint64_t b = 0,
                 uint64_t c = 0, uint8_t flags = 0, uint32_t aux = 0) {
    trace::Event e;
    e.t_ns = engine_->now_ns();
    e.kind = kind;
    e.flags = flags;
    e.core = engine_->on_fiber() ? trace_core() : 0;
    e.aux = aux;
    e.a = a;
    e.b = b;
    e.c = c;
    tracer_->record(e);
  }
};

}  // namespace ppm

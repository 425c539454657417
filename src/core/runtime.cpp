#include "core/runtime.hpp"

#include <algorithm>
#include <iterator>

#include "util/error.hpp"

namespace ppm {

// ppm::check mirrors the write-op encoding without including core headers
// (core links the check library, not the other way around). Keep in sync.
static_assert(check::kOpSet == static_cast<uint8_t>(detail::WriteOp::kSet));
static_assert(check::kOpAdd == static_cast<uint8_t>(detail::WriteOp::kAdd));
static_assert(check::kOpMin == static_cast<uint8_t>(detail::WriteOp::kMin));
static_assert(check::kOpMax == static_cast<uint8_t>(detail::WriteOp::kMax));
static_assert(check::kOpMul == static_cast<uint8_t>(detail::WriteOp::kMul));
static_assert(check::kOpUser0 ==
              static_cast<uint8_t>(detail::WriteOp::kUser0));
static_assert(check::kOpUser1 ==
              static_cast<uint8_t>(detail::WriteOp::kUser1));
static_assert(check::kOpUser2 ==
              static_cast<uint8_t>(detail::WriteOp::kUser2));

namespace {

/// Chunk size of an owner's block distribution: ceil(n / nodes).
uint64_t chunk_of(uint64_t n, int nodes) {
  return (n + static_cast<uint64_t>(nodes) - 1) / static_cast<uint64_t>(nodes);
}

/// A kToken message's payload: its (seq, round) head, then `payload`.
Bytes token_bytes(uint64_t seq, uint32_t round,
                  std::span<const std::byte> payload) {
  ByteWriter w;
  w.put(seq);
  w.put(round);
  w.put_raw(payload.data(), payload.size());
  return std::move(w).take();
}

/// End (capped at `end`) of the single-owner run of global array `rec`
/// that starts at element g, owned by `owner`: the rest of g's migration
/// block (kAdaptive) or of the owner's chunk (kBlock, one-node kCyclic).
uint64_t segment_end(const detail::ArrayRecord& rec, uint64_t g,
                     uint64_t end, int owner) {
  if (rec.mig_block_elems != 0) {
    return std::min(end, g - rec.mig_div.mod(g) + rec.mig_block_elems);
  }
  return std::min(end, (static_cast<uint64_t>(owner) + 1) * rec.chunk);
}

struct ParsedEntry {
  uint64_t vp_rank;
  uint32_t seq;
  uint32_t array;
  uint8_t op;   // base WriteOp, kOpRangeBit and kOpVarintBit stripped
  bool varint;  // values are varints (kOpVarintBit), not raw bytes
  uint64_t index;
  uint32_t count;  // elements covered (1 for scalar records)
  // The record's value bytes: count raw values, or count varints.
  std::span<const std::byte> values;
};

/// The one write-record parser (codec in core/wire.hpp): hand each record
/// of `buf` to fn(const ParsedEntry&), in buffer order. Rejects with
/// ppm::Error whatever get_record_head rejects, a record naming an
/// unknown array, varint values on an array that cannot carry them,
/// whatever get_varint_value rejects, and values that run past the
/// buffer (a trailing partial record included).
template <typename Fn>
void for_each_record(std::span<const std::byte> buf,
                     const std::deque<detail::ArrayRecord>& arrays, Fn&& fn) {
  const std::byte* p = buf.data();
  const std::byte* const end = p + buf.size();
  detail::RecordHead h;
  while (p != end) {
    p = detail::get_record_head(p, end, &h);
    PPM_CHECK(h.array < arrays.size(), "write record names unknown array %u",
              h.array);
    const detail::ElemOps& ops = arrays[h.array].ops;
    const std::byte* const values = p;
    const bool varint = detail::entry_is_varint(h.op);
    if (varint) {
      PPM_CHECK(detail::varint_values_allowed(ops.integral, ops.size),
                "garbled write record: varint values for array %u, whose "
                "elements are not 2-, 4- or 8-byte integers",
                h.array);
      std::byte value[sizeof(uint64_t)] = {};
      for (uint32_t j = 0; j < h.count; ++j) {
        p = detail::get_varint_value(p, end, ops.size, value);
      }
    } else {
      const size_t value_bytes = static_cast<size_t>(h.count) * ops.size;
      PPM_CHECK(value_bytes <= static_cast<size_t>(end - p),
                "garbled write record: %u elements run past the payload",
                h.count);
      p += value_bytes;
    }
    fn(ParsedEntry{h.vp_rank, h.seq, h.array,
                   static_cast<uint8_t>(detail::entry_op(h.op)), varint,
                   h.index, h.count,
                   {values, static_cast<size_t>(p - values)}});
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Runtime (cluster-wide)
// ---------------------------------------------------------------------------

Runtime::Runtime(cluster::Machine& machine, RuntimeOptions options)
    : machine_(machine), options_(options) {
  if (options_.trace) {
    trace_ = std::make_unique<trace::Trace>(machine.nodes(),
                                            options_.trace_buffer_events);
    // Message spans are recorded on the track of the node whose engine
    // resolves the delivery time (see Fabric::set_node_trace_recorders).
    std::vector<trace::Recorder*> recs;
    recs.reserve(static_cast<size_t>(machine.nodes()));
    for (int n = 0; n < machine.nodes(); ++n) {
      recs.push_back(&trace_->node(n));
    }
    machine.fabric().set_node_trace_recorders(std::move(recs));
  }
  nodes_.reserve(static_cast<size_t>(machine.nodes()));
  for (int n = 0; n < machine.nodes(); ++n) {
    nodes_.push_back(std::unique_ptr<NodeRuntime>(new NodeRuntime(*this, n)));
  }
}

Runtime::~Runtime() {
  if (trace_) {
    // The machine can outlive this Runtime (benches reuse it); don't leave
    // it pointing into the trace we are about to destroy.
    machine_.fabric().set_node_trace_recorders({});
  }
}

NodeRuntime& Runtime::node(int node_id) {
  PPM_CHECK(node_id >= 0 && node_id < static_cast<int>(nodes_.size()),
            "bad node id %d", node_id);
  return *nodes_[static_cast<size_t>(node_id)];
}

RunResult Runtime::collect() const {
  RunResult r;
  r.duration_ns = machine_.last_run_duration_ns();
  const auto& fs = machine_.fabric().stats();
  r.network_messages = fs.inter_messages.value();
  r.network_bytes = fs.inter_bytes.value();
  r.intranode_messages = fs.intra_messages.value();
  r.intranode_bytes = fs.intra_bytes.value();
  for (const auto& n : nodes_) {
    if (const check::PhaseValidator* v = n->validator()) {
      r.check_report.merge(v->report());
    }
  }

  // Per-counter rollup: sum plus per-node extremes, one row per
  // NodeRuntime::Counters field in declaration order. Each sum is also the
  // RunResult member the row names.
  using C = NodeRuntime::Counters;
  static constexpr struct {
    const char* name;
    uint64_t C::* field;
    uint64_t RunResult::* total;
  } kCounterFields[] = {
      {"global_phases", &C::global_phases, &RunResult::global_phases},
      {"node_phases", &C::node_phases, &RunResult::node_phases},
      {"payload_commits", &C::payload_commits, &RunResult::payload_commits},
      {"blocks_fetched", &C::blocks_fetched,
       &RunResult::remote_blocks_fetched},
      {"reads_from_cache", &C::reads_from_cache,
       &RunResult::remote_reads_served_from_cache},
      {"write_entries", &C::write_entries, &RunResult::write_entries},
      {"bundles_sent", &C::bundles_sent, &RunResult::bundles_sent},
      {"fetch_stall_ns", &C::fetch_stall_ns, &RunResult::fetch_stall_ns},
      {"prefetch_issued", &C::prefetch_issued, &RunResult::prefetch_issued},
      {"prefetch_hits", &C::prefetch_hits, &RunResult::prefetch_hits},
      {"reduction_bytes_saved", &C::reduction_bytes_saved,
       &RunResult::reduction_bytes_saved},
      {"blocks_migrated", &C::blocks_migrated, &RunResult::blocks_migrated},
      {"migration_bytes", &C::migration_bytes, &RunResult::migration_bytes},
      {"remote_to_local_conversions", &C::remote_to_local_conversions,
       &RunResult::remote_to_local_conversions},
      {"slow_path_reads", &C::slow_path_reads, &RunResult::slow_path_reads},
  };
  r.counter_rollup.reserve(std::size(kCounterFields));
  for (const auto& f : kCounterFields) {
    RunResult::CounterRollup row;
    row.name = f.name;
    for (size_t n = 0; n < nodes_.size(); ++n) {
      const uint64_t v = nodes_[n]->counters().*f.field;
      row.sum += v;
      if (n == 0 || v < row.min) {
        row.min = v;
        row.min_node = static_cast<int>(n);
      }
      if (n == 0 || v > row.max) {
        row.max = v;
        row.max_node = static_cast<int>(n);
      }
    }
    r.*f.total = row.sum;
    r.counter_rollup.push_back(std::move(row));
  }
  // Global commits are counted per node; report runtime-wide counts.
  r.global_phases /= static_cast<uint64_t>(std::max(1, nodes()));
  r.payload_commits /= static_cast<uint64_t>(std::max(1, nodes()));

  if (trace_) {
    r.trace_summary = trace::analyze(*trace_);
    // The inline cached-read path and read_n record no kCacheHit/
    // kCacheMiss events, so the block-cache columns come from the
    // counters: every cache-served read is a hit, every demand fetch (a
    // fetched block that was not a prefetch) a miss.
    r.trace_summary.cache_hits = r.remote_reads_served_from_cache;
    r.trace_summary.cache_misses =
        r.remote_blocks_fetched - r.prefetch_issued;
  }
  return r;
}

// ---------------------------------------------------------------------------
// NodeRuntime: lifecycle
// ---------------------------------------------------------------------------

NodeRuntime::NodeRuntime(Runtime& shared, int node_id)
    : shared_(shared), node_(node_id), opts_(shared.options()),
      engine_(&shared.machine().engine_for_node(node_id)) {
  if (opts_.validate_phases) {
    validator_ = std::make_unique<check::PhaseValidator>(node_);
  }
  if (trace::Trace* t = shared.trace()) tracer_ = &t->node(node_);
}

int NodeRuntime::node_count() const { return shared_.nodes(); }
int NodeRuntime::cores_per_node() const {
  return shared_.machine().cores_per_node();
}

void NodeRuntime::start() {
  PPM_CHECK(!started_, "NodeRuntime::start called twice");
  auto& machine = shared_.machine();
  task_cv_ = std::make_unique<sim::ConditionVar>(*engine_);
  arrivals_cv_ = std::make_unique<sim::ConditionVar>(*engine_);

  // Map fiber ids to core indices so trace events land on per-core
  // tracks. The node's main fiber (running this) and the service fiber
  // both record as core 0.
  const auto note_core = [this](uint32_t fid, int core) {
    if (fid >= core_of_fiber_.size()) core_of_fiber_.resize(fid + 1, 0);
    core_of_fiber_[fid] = static_cast<uint16_t>(core);
  };
  if (engine_->on_fiber()) note_core(engine_->current_fiber_id(), 0);
  note_core(machine.spawn_at({node_, 0}, strfmt("n%d.svc", node_),
                             [this] { service_loop(); }),
            0);
  for (int core = 1; core < cores_per_node(); ++core) {
    const auto fid = machine.spawn_at({node_, core},
                                      strfmt("n%d.w%d", node_, core),
                     [this, core] {
                       uint64_t seen = 0;
                       for (;;) {
                         task_cv_->wait([&] {
                           return task_.shutdown || task_.generation != seen;
                         });
                         if (task_.shutdown) break;
                         seen = task_.generation;
                         if (task_.sends != nullptr) {
                           send_share(task_.next_share++);
                         } else {
                           run_chunks(core);
                         }
                         ++task_.workers_done;
                         task_cv_->notify_all();
                       }
                     });
    note_core(fid, core);
  }
  started_ = true;
}

void NodeRuntime::finish() {
  PPM_CHECK(started_, "NodeRuntime::finish without start");
  PPM_CHECK(phase_scope_ == PhaseScope::kNone, "finish inside a phase");
  // Quiesce: after this barrier no peer will address this node again.
  barrier_global();
  task_.shutdown = true;
  task_cv_->notify_all();
  rt_send(node_, detail::rt_kind(detail::RtMsg::kShutdown), Bytes{});
}

// ---------------------------------------------------------------------------
// Shared-array directory
// ---------------------------------------------------------------------------

uint32_t NodeRuntime::create_array(bool global, uint64_t n,
                                   detail::ElemOps ops, Distribution dist) {
  PPM_CHECK(started_, "create array before NodeRuntime::start");
  PPM_CHECK(phase_scope_ == PhaseScope::kNone,
            "shared arrays must be created outside phases");
  PPM_CHECK(n > 0, "shared array needs at least one element");
  PPM_CHECK(global || dist != Distribution::kAdaptive,
            "node-shared arrays cannot be owner-mapped (kAdaptive)");
  detail::ArrayRecord rec;
  rec.id = static_cast<uint32_t>(arrays_.size());
  rec.global = global;
  rec.n = n;
  rec.ops = ops;
  rec.dist = dist;
  rec.nodes = node_count();
  rec.nodes_div = Divisor(static_cast<uint64_t>(rec.nodes));
  if (global) {
    rec.chunk = chunk_of(n, node_count());
    if (dist == Distribution::kAdaptive) {
      // Owner-mapped layout: the array is covered by fixed migration
      // blocks, initially dealt out block-aligned (kBlock restricted to
      // block granularity), with one block of storage headroom per freed
      // slot: every node keeps cap_blocks slots so the planner can pull
      // blocks in before (or without ever) giving its own away. Placement
      // never affects logical contents, so the coarser initial alignment
      // is invisible outside the wire/byte counters.
      const uint64_t nodes64 = static_cast<uint64_t>(rec.nodes);
      rec.mig_block_elems =
          std::max<uint64_t>(1, options().read_block_bytes / ops.size);
      rec.mig_div = Divisor(rec.mig_block_elems);
      rec.mig_blocks = (n + rec.mig_block_elems - 1) / rec.mig_block_elems;
      const uint64_t bpc = (rec.mig_blocks + nodes64 - 1) / nodes64;
      rec.cap_blocks = std::min(rec.mig_blocks, 2 * bpc);
      rec.mig_owner.resize(rec.mig_blocks);
      rec.mig_slot.resize(rec.mig_blocks);
      rec.free_slots.assign(static_cast<size_t>(rec.nodes), {});
      for (uint64_t b = 0; b < rec.mig_blocks; ++b) {
        rec.mig_owner[b] = static_cast<int32_t>(b / bpc);
        rec.mig_slot[b] = static_cast<uint32_t>(b % bpc);
      }
      for (int p = 0; p < rec.nodes; ++p) {
        const uint64_t owned =
            std::min(bpc, rec.mig_blocks -
                              std::min(rec.mig_blocks,
                                       bpc * static_cast<uint64_t>(p)));
        auto& free = rec.free_slots[static_cast<size_t>(p)];
        // An ascending run is already a valid min-heap.
        for (uint64_t s = owned; s < rec.cap_blocks; ++s) {
          free.push_back(static_cast<uint32_t>(s));
        }
      }
      rec.access_count.assign(rec.mig_blocks, 0);
      rec.access_epoch.assign(rec.mig_blocks, ~uint64_t{0});  // no epoch
      // Slotted storage: cap_blocks full slots per node. Setting chunk to
      // the slot extent makes the bundling setup below size the block
      // table so read-cache blocks coincide with migration slots.
      rec.chunk = rec.cap_blocks * rec.mig_block_elems;
      rec.chunk_base = 0;
      rec.chunk_len = rec.chunk;
      any_adaptive_ = true;
    } else if (dist == Distribution::kBlock) {
      rec.chunk_base = std::min(n, rec.chunk * static_cast<uint64_t>(node_));
      rec.chunk_len = std::min(rec.chunk, n - rec.chunk_base);
    } else {
      rec.chunk_base = 0;
      rec.chunk_len = rec.owner_len(node_);
    }
    if (options().bundle_reads) {
      rec.block_elems =
          std::max<uint64_t>(1, options().read_block_bytes / ops.size);
      rec.blocks_per_chunk =
          (rec.chunk + rec.block_elems - 1) / rec.block_elems;
      // The remote-block table is allocated lazily by issue_block_fetch
      // on the first block fetch; an array this node only ever accesses
      // locally never grows one.
      rec.block_div = Divisor(rec.block_elems);
    }
  } else {
    rec.chunk = n;
    rec.chunk_base = 0;
    rec.chunk_len = n;
  }
  rec.chunk_div = Divisor(rec.chunk);
  rec.storage.assign(rec.chunk_len * ops.size, std::byte{0});
  if (validator_) {
    validator_->on_array_created(rec.id, rec.global, rec.n, rec.ops.size,
                                 static_cast<uint8_t>(rec.dist),
                                 rec.nodes);
  }
  arrays_.push_back(std::move(rec));
  return arrays_.back().id;
}

const detail::ArrayRecord& NodeRuntime::array(uint32_t id) const {
  PPM_CHECK(id < arrays_.size(), "unknown shared array id %u", id);
  return arrays_[id];
}

std::span<const std::byte> NodeRuntime::committed_bytes(uint32_t id) const {
  const auto& rec = array(id);
  return {rec.storage.data(), rec.storage.size()};
}

std::vector<std::span<const std::byte>> NodeRuntime::owned_runs(
    uint32_t id) const {
  const auto& rec = array(id);
  return owned_runs_in(rec, rec.storage);
}

std::vector<std::span<const std::byte>> NodeRuntime::fold_runs(
    uint32_t id) const {
  const auto& rec = array(id);
  return owned_runs_in(rec, rec.shadowed ? rec.shadow : rec.storage);
}

std::vector<std::span<const std::byte>> NodeRuntime::owned_runs_in(
    const detail::ArrayRecord& rec,
    const std::vector<std::byte>& store) const {
  std::vector<std::span<const std::byte>> runs;
  if (rec.mig_block_elems == 0) {
    // Static layouts (and node-shared arrays) store exactly the owned
    // elements, already in ascending global order.
    if (!store.empty()) runs.emplace_back(store);
    return runs;
  }
  // Owner-mapped: slots hold owned blocks in placement order, and freed
  // slots keep stale bytes, so walk the owner map by ascending block.
  const size_t esz = rec.ops.size;
  for (uint64_t b = 0; b < rec.mig_blocks; ++b) {
    if (rec.mig_owner[b] != node_) continue;
    const uint64_t first = b * rec.mig_block_elems;
    const uint64_t len = std::min(rec.mig_block_elems, rec.n - first);
    runs.emplace_back(store.data() + rec.local_of(first) * esz, len * esz);
  }
  return runs;
}

Bytes NodeRuntime::pack_owned_elems(uint32_t id) const {
  Bytes out;
  for (const auto run : owned_runs(id)) {
    out.insert(out.end(), run.begin(), run.end());
  }
  return out;
}

std::vector<Bytes> NodeRuntime::allgather_owned_elems(uint32_t id) {
  PPM_CHECK(array(id).global,
            "allgather_array needs a global shared array (%u)", id);
  PPM_CHECK(phase_scope_ == PhaseScope::kNone,
            "allgather_array inside a phase");
  return allgather_bytes(pack_owned_elems(id));
}

void NodeRuntime::place_owned_elems(uint32_t id,
                                    const std::vector<Bytes>& owned,
                                    std::byte* out) const {
  const auto& rec = array(id);
  const size_t esz = rec.ops.size;
  // A blob whose length disagrees with this node's owner map means the
  // maps diverged (or the call is out of lockstep): place nothing wrong.
  const auto blob = [&](int owner, uint64_t elems) -> const Bytes& {
    const Bytes& b = owned[static_cast<size_t>(owner)];
    PPM_CHECK(b.size() == elems * esz,
              "owned elements of array %u: node %d sent %zu bytes, its "
              "owner map here says %llu",
              id, owner, b.size(),
              static_cast<unsigned long long>(elems * esz));
    return b;
  };
  if (rec.dist == Distribution::kAdaptive) {
    // Each node packed its blocks in ascending block order, so walking the
    // blocks in order consumes every blob front to back.
    std::vector<uint64_t> elems(static_cast<size_t>(rec.nodes), 0);
    for (uint64_t b = 0; b < rec.mig_blocks; ++b) {
      const uint64_t first = b * rec.mig_block_elems;
      elems[static_cast<size_t>(rec.mig_owner[b])] +=
          std::min(rec.mig_block_elems, rec.n - first);
    }
    std::vector<const std::byte*> cursor(static_cast<size_t>(rec.nodes));
    for (int m = 0; m < rec.nodes; ++m) {
      cursor[static_cast<size_t>(m)] =
          blob(m, elems[static_cast<size_t>(m)]).data();
    }
    for (uint64_t b = 0; b < rec.mig_blocks; ++b) {
      const uint64_t first = b * rec.mig_block_elems;
      const size_t len = std::min(rec.mig_block_elems, rec.n - first) * esz;
      const std::byte*& from = cursor[static_cast<size_t>(rec.mig_owner[b])];
      std::memcpy(out + first * esz, from, len);
      from += len;
    }
    return;
  }
  for (int m = 0; m < rec.nodes; ++m) {
    const uint64_t len = rec.owner_len(m);
    const Bytes& b = blob(m, len);
    if (rec.dist == Distribution::kBlock) {
      const uint64_t base =
          std::min(rec.n, rec.chunk * static_cast<uint64_t>(m));
      if (len != 0) std::memcpy(out + base * esz, b.data(), b.size());
      continue;
    }
    // kCyclic: node m's j-th element is global element j·nodes + m.
    const size_t stride = static_cast<size_t>(rec.nodes) * esz;
    std::byte* to = out + static_cast<size_t>(m) * esz;
    for (size_t off = 0; off < b.size(); off += esz, to += stride) {
      std::memcpy(to, b.data() + off, esz);
    }
  }
}

int NodeRuntime::owner_of(uint32_t id, uint64_t index) const {
  const auto& rec = array(id);
  PPM_CHECK(index < rec.n, "index %llu out of range (array size %llu)",
            static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(rec.n));
  return rec.global ? rec.owner_of(index) : node_;
}

void NodeRuntime::request_rebalance(uint32_t id) {
  const auto& rec = array(id);
  if (rec.mig_block_elems == 0) return;  // static layout: nothing can move
  PPM_CHECK(phase_scope_ == PhaseScope::kNone,
            "rebalance must be requested outside phases");
  const auto it = std::lower_bound(rebalance_requests_.begin(),
                                   rebalance_requests_.end(), id);
  if (it == rebalance_requests_.end() || *it != id) {
    rebalance_requests_.insert(it, id);
  }
}

// ---------------------------------------------------------------------------
// Element access
// ---------------------------------------------------------------------------

Vp* NodeRuntime::current_vp() const {
  if (!engine_->on_fiber()) return nullptr;
  const uint32_t fid = engine_->current_fiber_id();
  return fid < vp_by_fiber_.size() ? vp_by_fiber_[fid] : nullptr;
}

void NodeRuntime::read_elem(uint32_t id, uint64_t index, std::byte* out) {
  const auto& rec = array(id);
  PPM_CHECK(index < rec.n, "read index %llu out of range (size %llu)",
            static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(rec.n));
  if (validator_) [[unlikely]] validator_->on_read();
  note_access(rec, index);
  // Committed storage holds phase-start values during a phase (writes are
  // deferred), so local reads are plain loads.
  if (!rec.global) {
    std::memcpy(out, rec.storage.data() + index * rec.ops.size,
                rec.ops.size);
    return;
  }
  const auto at = rec.place(index);
  if (at.owner == node_) {
    std::memcpy(out, rec.storage.data() + at.local * rec.ops.size,
                rec.ops.size);
    return;
  }
  std::memcpy(out, remote_ref(rec, at), rec.ops.size);
}

const std::byte* NodeRuntime::read_ref(uint32_t id, uint64_t index) {
  const auto& rec = array(id);
  PPM_CHECK(index < rec.n, "read index %llu out of range (size %llu)",
            static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(rec.n));
  note_access(rec, index);
  if (!rec.global) return rec.storage.data() + index * rec.ops.size;
  const auto at = rec.place(index);
  if (at.owner == node_) {
    return rec.storage.data() + at.local * rec.ops.size;
  }
  // kCyclic hits (the handles serve kBlock and kAdaptive hits inline).
  if (const std::byte* block = rec.published_block(at.slot)) {
    note_cache_hit();
    return block + at.in_block * rec.ops.size;
  }
  if (validator_) [[unlikely]] validator_->on_read();
  return remote_ref(rec, at);
}

const std::byte* NodeRuntime::remote_ref(const detail::ArrayRecord& rec,
                                         const detail::ArrayRecord::Place& at) {
  // All coordinates on the wire are owner-local, which keeps the protocol
  // identical for every distribution.
  const bool bundle = options().bundle_reads && rec.block_elems > 0;
  const int owner = at.owner;
  const uint64_t llocal = at.local;
  // A read whose block is published would have been served by the
  // handles' probe; read_elem (the kCyclic read_n fallback) gets here
  // without probing, so only the others count as slow.
  if (rec.published_block(at.slot) == nullptr) ++counters_.slow_path_reads;
  const uint64_t olen = rec.owner_len(owner);
  const uint64_t first = bundle ? llocal - at.in_block : llocal;
  const uint64_t count = bundle ? std::min(rec.block_elems, olen - first) : 1;
  const uint64_t offset = (llocal - first) * rec.ops.size;

  if (bundle) {
    if (FetchSlot* block = touched_block(rec, at.slot)) {
      // Cached, or request combining: another VP (or the lookahead
      // engine) already asked for this block, so wait for that fetch.
      const bool combined = !block->done;
      if (combined) wait_fetch(*block);
      ++counters_.reads_from_cache;
      if (tracer_) [[unlikely]] {
        trace_rec(trace::EventKind::kCacheHit, rec.id, first, /*c=*/0,
                  combined ? trace::kFlagBit0 : 0,
                  static_cast<uint32_t>(owner));
      }
      return publish_block(rec, owner, first, at.slot) + offset;
    }
    if (tracer_) [[unlikely]] {
      trace_rec(trace::EventKind::kCacheMiss, rec.id, first, /*c=*/0, 0,
                static_cast<uint32_t>(owner));
    }
    FetchSlot& slot = issue_block_fetch(rec, owner, first, count,
                                        /*prefetch=*/false);
    maybe_stream_prefetch(rec, owner, first, olen);
    wait_fetch(slot);
    // The service fiber published the demanded block on arrival.
    return slot.data.data() + offset;
  }

  // Unbundled: one element per message, sent at once as a one-item list.
  auto slot = std::make_shared<FetchSlot>(*engine_);
  slot->bytes = rec.ops.size;
  slot->req_id = next_req_id();
  outstanding_[slot->req_id] = slot;
  const detail::BlockRequest item{rec.id, first, count, slot->req_id};
  rt_send(owner, detail::rt_kind(detail::RtMsg::kGetBlockList),
          detail::encode_block_requests(epoch_, {&item, 1}));
  ++counters_.blocks_fetched;
  wait_fetch(*slot);
  // Unbundled single-element fetch: park the payload in the phase arena so
  // view() pointers stay valid until commit.
  unbundled_arena_.push_back(std::move(slot->data));
  return unbundled_arena_.back().data();
}

NodeRuntime::FetchSlot& NodeRuntime::issue_block_fetch(
    const detail::ArrayRecord& rec, int owner, uint64_t first, uint64_t count,
    bool prefetch) {
  auto& mut = arrays_[rec.id];
  if (mut.remote_block_ref.empty()) {
    // Lazy so arrays a node never reads remotely cost no table at all
    // (it is blocks_per_chunk * nodes slots).
    const uint64_t slots =
        mut.blocks_per_chunk * static_cast<uint64_t>(node_count());
    mut.remote_block_ptr.assign(slots, nullptr);
    mut.remote_block_ref.assign(slots, 0);
  }
  PPM_CHECK(blocks_.size() < UINT32_MAX,
            "more remote blocks in one epoch than the table can name");
  auto slot = std::make_shared<FetchSlot>(*engine_);
  slot->bytes = count * rec.ops.size;
  slot->prefetched = prefetch;
  slot->record = &mut;
  slot->block_slot = rec.block_slot(owner, first);
  slot->req_id = next_req_id();
  outstanding_[slot->req_id] = slot;
  blocks_.push_back(slot);
  mut.remote_block_ref[slot->block_slot] =
      static_cast<uint32_t>(blocks_.size());
  if (tracer_) [[unlikely]] {
    trace_rec(trace::EventKind::kFetchIssued, rec.id, first, slot->req_id,
              prefetch ? trace::kFlagBit0 : 0, static_cast<uint32_t>(owner));
  }
  // Queue instead of sending: requests issued while this core
  // miss-switches through ready VPs (and the lookahead they trigger)
  // coalesce per owner, shipped by flush_fetch_backlog at the latest
  // right before the requester parks.
  auto& q = peer(owner).fetch_backlog;
  if (q.empty()) backlog_owners_.push_back(owner);
  q.push_back({rec.id, first, count, slot->req_id, prefetch});
  backlog_nonempty_ = true;
  ++counters_.blocks_fetched;
  if (prefetch) ++counters_.prefetch_issued;
  return *slot;
}

void NodeRuntime::flush_fetch_backlog() {
  if (!backlog_nonempty_) return;
  // Swap the owner list out first: rt_send advances virtual time and may
  // switch fibers, and a resumed fiber can queue new fetches (which must
  // not be lost or double-flushed).
  std::vector<int> owners = std::move(backlog_owners_);
  backlog_owners_.clear();
  backlog_nonempty_ = false;
  for (const int owner : owners) {
    std::vector<detail::BlockRequest> q =
        std::move(peer(owner).fetch_backlog);
    peer(owner).fetch_backlog.clear();
    if (q.empty()) continue;
    // The backlog never outlives an epoch (commit_global drops it), so the
    // list carries the current epoch once.
    rt_send(owner, detail::rt_kind(detail::RtMsg::kGetBlockList),
            detail::encode_block_requests(epoch_, q));
  }
}

void NodeRuntime::wait_fetch(FetchSlot& slot) {
  if (opts_.overlap_reads) {
    // Miss-switching: instead of idling for the round trip, run other
    // ready VPs of this phase on the same fiber. Each run_one_ready_vp
    // call executes one full VP body (which may itself miss and nest).
    while (!slot.done && run_one_ready_vp()) {
    }
  }
  if (slot.done) return;
  // Invariant: never park with unsent fetch requests — this slot's own
  // request may still be sitting in the backlog.
  flush_fetch_backlog();
  const int64_t t0 = engine_->now_ns();
  slot.waiters.wait([&] { return slot.done; });
  const int64_t stalled = engine_->now_ns() - t0;
  if (stalled > 0) {
    counters_.fetch_stall_ns += static_cast<uint64_t>(stalled);
    if (tracer_) [[unlikely]] {
      trace_rec(trace::EventKind::kFetchStall, slot.req_id, 0,
                static_cast<uint64_t>(t0));
    }
  }
}

bool NodeRuntime::claim_one_vp(uint32_t fid, uint64_t* out_vp) {
  if (options().schedule == SchedulePolicy::kStatic) {
    if (fid >= static_range_.size()) return false;
    StaticRange& r = static_range_[fid];
    if (r.next >= r.end) return false;
    *out_vp = r.next++;
    return true;
  }
  if (task_.next >= task_.k_local) return false;
  *out_vp = task_.next++;
  return true;
}

bool NodeRuntime::run_one_ready_vp() {
  if (task_.body == nullptr || phase_scope_ == PhaseScope::kNone) {
    return false;  // reads outside phases have nothing to switch to
  }
  const uint32_t fid = engine_->current_fiber_id();
  if (fid >= vp_by_fiber_.size() || vp_by_fiber_[fid] == nullptr) {
    return false;  // not a worker fiber mid-phase
  }
  if (fid >= miss_depth_.size()) miss_depth_.resize(fid + 1, 0);
  if (miss_depth_[fid] >= opts_.overlap_max_depth) return false;
  uint64_t i = 0;
  if (!claim_one_vp(fid, &i)) return false;
  Vp* outer = vp_by_fiber_[fid];
  ++miss_depth_[fid];
  Vp vp;
  vp.node_rank_ = i;
  vp.global_rank_ = task_.k_offset + i;
  vp_by_fiber_[fid] = &vp;
  const int64_t batch_start_ns = tracer_ ? engine_->now_ns() : 0;
  (*task_.body)(vp);
  if (tracer_) [[unlikely]] {
    // A miss-switched VP: runs nested inside another VP's remote-read
    // stall on the same core (flag bit 0 marks the nesting).
    trace_rec(trace::EventKind::kVpBatch, i, i + 1,
              static_cast<uint64_t>(batch_start_ns), trace::kFlagBit0, 1);
  }
  vp_by_fiber_[fid] = outer;
  --miss_depth_[fid];
  return true;
}

void NodeRuntime::maybe_stream_prefetch(const detail::ArrayRecord& rec,
                                        int owner, uint64_t first,
                                        uint64_t owner_len) {
  const uint32_t lookahead = opts_.prefetch_lookahead_blocks;
  if (lookahead == 0 || first == 0) return;
  // Fetch ahead only when the previous adjacent block was already wanted —
  // a detected forward stream. Random access then rarely pays for blocks
  // it will never touch.
  const uint64_t slot = rec.block_slot(owner, first);
  if (touched_block(rec, slot - 1) == nullptr) return;
  uint64_t next = first + rec.block_elems;
  for (uint32_t j = 0; j < lookahead && next < owner_len;
       ++j, next += rec.block_elems) {
    if (touched_block(rec, slot + 1 + j) != nullptr) continue;
    issue_block_fetch(rec, owner, next,
                      std::min(rec.block_elems, owner_len - next),
                      /*prefetch=*/true);
  }
}

const std::byte* NodeRuntime::publish_block(const detail::ArrayRecord& rec,
                                            int owner, uint64_t first,
                                            uint64_t slot) {
  if (const std::byte* block = rec.published_block(slot)) return block;
  // Demanded blocks publish on arrival, so an arrived block that is not
  // published yet came by lookahead, and this is its first demand touch.
  const std::byte* block = touched_block(rec, slot)->data.data();
  arrays_[rec.id].remote_block_ptr[slot] = block;
  ++counters_.prefetch_hits;
  if (tracer_) [[unlikely]] {
    trace_rec(trace::EventKind::kPrefetchHit, rec.id, first, /*c=*/0, 0,
              static_cast<uint32_t>(owner));
  }
  // The consumer just reached a prefetched block: keep the stream one
  // block ahead (demand misses never happen again on a perfect stream, so
  // this touch is the only point that can extend it).
  maybe_stream_prefetch(rec, owner, first, rec.owner_len(owner));
  return block;
}

void NodeRuntime::prefetch_elems(uint32_t id,
                                 std::span<const uint64_t> indices) {
  const auto& rec = array(id);
  if (!rec.global || !options().bundle_reads || rec.block_elems == 0) return;
  for (const uint64_t index : indices) {
    PPM_CHECK(index < rec.n, "prefetch index %llu out of range (size %llu)",
              static_cast<unsigned long long>(index),
              static_cast<unsigned long long>(rec.n));
    const auto at = rec.place(index);
    if (at.owner == node_) continue;
    const uint64_t first = at.local - at.in_block;
    if (touched_block(rec, at.slot) != nullptr) continue;
    const uint64_t olen = rec.owner_len(at.owner);
    issue_block_fetch(rec, at.owner, first,
                      std::min(rec.block_elems, olen - first),
                      /*prefetch=*/true);
  }
  // Ship the sweep's requests now: lookahead only pays off if the fetches
  // are in flight while the consumer computes.
  flush_fetch_backlog();
}

void NodeRuntime::prefetch_range(uint32_t id, uint64_t lo, uint64_t hi) {
  const auto& rec = array(id);
  if (!rec.global || !options().bundle_reads || rec.block_elems == 0) return;
  if (lo >= hi) return;
  PPM_CHECK(hi <= rec.n, "prefetch range [%llu, %llu) out of range (size "
            "%llu)",
            static_cast<unsigned long long>(lo),
            static_cast<unsigned long long>(hi),
            static_cast<unsigned long long>(rec.n));
  const auto want = [&](int owner, uint64_t first, uint64_t slot) {
    if (touched_block(rec, slot) != nullptr) return;
    issue_block_fetch(rec, owner, first,
                      std::min(rec.block_elems, rec.owner_len(owner) - first),
                      /*prefetch=*/true);
  };
  if (rec.dist == Distribution::kCyclic) {
    // Round-robin layout: every owner holds an interleaved share of
    // [lo, hi); walk each remote owner's local block range directly.
    const uint64_t p = static_cast<uint64_t>(rec.nodes);
    for (int owner = 0; owner < rec.nodes; ++owner) {
      if (owner == node_) continue;
      const uint64_t o = static_cast<uint64_t>(owner);
      if (hi <= o) continue;  // owner's first element is o
      // Largest and smallest owner-local index in range.
      const uint64_t last = rec.nodes_div.div(hi - 1 - o);
      const uint64_t lfirst = lo > o ? rec.nodes_div.div(lo - o + p - 1) : 0;
      if (lfirst > last) continue;
      uint64_t slot = rec.block_slot(owner, lfirst);
      for (uint64_t b = lfirst - rec.block_div.mod(lfirst); b <= last;
           b += rec.block_elems, ++slot) {
        want(owner, b, slot);
      }
    }
    flush_fetch_backlog();
    return;
  }
  // Contiguous layouts (kBlock chunks, kAdaptive migration blocks): walk
  // the range one cache block at a time — O(range / block_elems), not
  // O(range) — skipping whole owned chunks.
  uint64_t g = lo;
  while (g < hi) {
    const auto at = rec.place(g);
    const uint64_t first = at.local - at.in_block;
    if (rec.dist == Distribution::kAdaptive) {
      // One cache block is one migration block.
      if (at.owner != node_) want(at.owner, first, at.slot);
      g += rec.mig_block_elems - at.in_block;
      continue;
    }
    const auto owner = static_cast<uint64_t>(at.owner);
    const uint64_t chunk_end = (owner + 1) * rec.chunk;
    if (at.owner == node_) {
      g = chunk_end;
      continue;
    }
    want(at.owner, first, at.slot);
    g = std::min(chunk_end, owner * rec.chunk + first + rec.block_elems);
  }
  flush_fetch_backlog();
}

void NodeRuntime::gather_elems(uint32_t id,
                               std::span<const uint64_t> indices,
                               std::byte* out) {
  const auto& rec = array(id);
  if (validator_) [[unlikely]] validator_->on_read(indices.size());
  // Partition by owner; local indices are copied directly, remote owners
  // each get exactly one indexed-get request (explicit bundling). Owners
  // are dense small integers, so a flat vector beats an ordered map.
  struct Group {
    std::vector<uint64_t> positions;
    std::vector<uint64_t> indices;  // owner-local coordinates
  };
  std::vector<Group> groups(static_cast<size_t>(node_count()));
  for (size_t pos = 0; pos < indices.size(); ++pos) {
    const uint64_t index = indices[pos];
    PPM_CHECK(index < rec.n, "gather index %llu out of range",
              static_cast<unsigned long long>(index));
    const int owner = rec.global ? rec.owner_of(index) : node_;
    if (owner == node_) {
      const uint64_t local = rec.global ? rec.local_of(index) : index;
      std::memcpy(out + pos * rec.ops.size,
                  rec.storage.data() + local * rec.ops.size, rec.ops.size);
    } else {
      auto& g = groups[static_cast<size_t>(owner)];
      g.positions.push_back(pos);
      g.indices.push_back(rec.local_of(index));
    }
  }
  struct Wait {
    const Group* group;
    std::shared_ptr<FetchSlot> slot;
  };
  std::vector<Wait> waits;
  for (int owner = 0; owner < node_count(); ++owner) {
    const Group& group = groups[static_cast<size_t>(owner)];
    if (group.positions.empty()) continue;
    auto slot = std::make_shared<FetchSlot>(*engine_);
    slot->bytes = group.indices.size() * rec.ops.size;
    slot->req_id = next_req_id();
    outstanding_[slot->req_id] = slot;
    ByteWriter w;
    detail::put_varint(w, epoch_);
    detail::put_varint(w, rec.id);
    detail::put_varint(w, slot->req_id);
    detail::put_varint(w, group.indices.size());
    for (const uint64_t local : group.indices) detail::put_varint(w, local);
    rt_send(owner, detail::rt_kind(detail::RtMsg::kGetIndexed),
            std::move(w).take());
    ++counters_.blocks_fetched;
    waits.push_back(Wait{&group, std::move(slot)});
  }
  for (auto& wt : waits) {
    // The service fiber erases each request from outstanding_ by its
    // recorded id when the response arrives; no cleanup scan needed here.
    wait_fetch(*wt.slot);
    for (size_t j = 0; j < wt.group->positions.size(); ++j) {
      std::memcpy(out + wt.group->positions[j] * rec.ops.size,
                  wt.slot->data.data() + j * rec.ops.size, rec.ops.size);
    }
  }
}

void NodeRuntime::read_span(uint32_t id, uint64_t first, uint64_t count,
                            std::byte* out) {
  const auto& rec = array(id);
  PPM_CHECK(count <= rec.n && first <= rec.n - count,
            "read span [%llu, +%llu) out of range (size %llu)",
            static_cast<unsigned long long>(first),
            static_cast<unsigned long long>(count),
            static_cast<unsigned long long>(rec.n));
  if (count == 0) return;
  // Cyclic multi-node layouts alternate owners every element — there is
  // no contiguous run to exploit; fall back to the per-element path
  // (which does its own accounting).
  if (rec.global && rec.dist == Distribution::kCyclic && node_count() > 1 &&
      rec.mig_block_elems == 0) {
    for (uint64_t j = 0; j < count; ++j) {
      read_elem(id, first + j, out + j * rec.ops.size);
    }
    return;
  }
  if (validator_) [[unlikely]] validator_->on_read(count);
  const uint32_t esz = rec.ops.size;
  if (!rec.global) {
    std::memcpy(out, rec.storage.data() + first * esz, count * esz);
    return;
  }
  const uint64_t end = first + count;
  uint64_t g = first;
  while (g < end) {
    const auto at = rec.place(g);
    const int owner = at.owner;
    const uint64_t seg_end = segment_end(rec, g, end, owner);
    const uint64_t len = seg_end - g;
    note_access(rec, g);  // a kAdaptive segment lies in one migration block
    std::byte* dst = out + (g - first) * esz;
    if (owner == node_) {
      std::memcpy(dst, rec.storage.data() + at.local * esz, len * esz);
      g = seg_end;
      continue;
    }
    if (!options().bundle_reads || rec.block_elems == 0) {
      for (uint64_t j = 0; j < len; ++j) {
        std::memcpy(dst + j * esz, remote_ref(rec, rec.place(g + j)), esz);
      }
      g = seg_end;
      continue;
    }
    // Remote contiguous run: the segment's owner-local indices
    // [ll, ll+len) are contiguous. Pass 1 queues demand fetches for every
    // missing cache block (they coalesce into one list flush); pass 2
    // waits where needed and copies block portions. Reads count as the
    // per-element path would: one slow-path read per block not yet
    // published in the table; cache hits for every element of a block
    // that was cached or in flight, all but the first of a block fetched
    // here.
    const uint64_t ll = at.local;
    const uint64_t olen = rec.owner_len(owner);
    const uint64_t be = rec.block_elems;
    const uint64_t b0 = ll - at.in_block;
    uint64_t fetched = 0;
    for (uint64_t b = b0, slot = at.slot; b < ll + len; b += be, ++slot) {
      if (rec.published_block(slot) != nullptr) continue;
      ++counters_.slow_path_reads;
      if (touched_block(rec, slot) != nullptr) continue;
      issue_block_fetch(rec, owner, b, std::min(be, olen - b),
                        /*prefetch=*/false);
      ++fetched;
    }
    counters_.reads_from_cache += len - fetched;
    for (uint64_t b = b0, slot = at.slot; b < ll + len; b += be, ++slot) {
      const uint64_t lo = std::max(ll, b);
      const uint64_t hi = std::min(ll + len, b + be);
      const std::byte* block = rec.published_block(slot);
      if (block == nullptr) {
        wait_fetch(*touched_block(rec, slot));  // no-op once arrived
        block = publish_block(rec, owner, b, slot);
      }
      std::memcpy(dst + (lo - ll) * esz, block + (lo - b) * esz,
                  (hi - lo) * esz);
    }
    g = seg_end;
  }
}

void NodeRuntime::write_span(uint32_t id, uint64_t first, uint64_t count,
                             const std::byte* values, detail::WriteOp op) {
  PPM_CHECK(id < arrays_.size(), "unknown shared array id %u", id);
  auto& rec = arrays_[id];
  PPM_CHECK(count <= rec.n && first <= rec.n - count,
            "write span [%llu, +%llu) out of range (size %llu)",
            static_cast<unsigned long long>(first),
            static_cast<unsigned long long>(count),
            static_cast<unsigned long long>(rec.n));
  if (count == 0) return;
  const uint32_t esz = rec.ops.size;
  // Cyclic multi-node: a range entry would degenerate to one element per
  // owner switch — the per-element path (with its own accounting) is the
  // honest shape there.
  if (rec.global && rec.dist == Distribution::kCyclic && node_count() > 1 &&
      rec.mig_block_elems == 0) {
    for (uint64_t j = 0; j < count; ++j) {
      write_elem(id, first + j, values + j * esz, op);
    }
    return;
  }
  if (phase_scope_ == PhaseScope::kNone) {
    // Outside phases only the node program runs; writes apply
    // immediately, and remote global writes are not allowed (same rule
    // as write_elem).
    for (uint64_t j = 0; j < count; ++j) {
      const uint64_t g = first + j;
      if (rec.global) {
        PPM_CHECK(rec.owner_of(g) == node_,
                  "write to remote global element outside a phase");
        rec.apply_op(rec.storage.data() + rec.local_of(g) * esz,
                     values + j * esz, op);
      } else {
        rec.apply_op(rec.storage.data() + g * esz, values + j * esz, op);
      }
    }
    return;
  }
  PPM_CHECK(!(phase_scope_ == PhaseScope::kNode && rec.global),
            "global shared write inside a node phase");
  Vp* vp = current_vp();
  PPM_CHECK(vp != nullptr, "shared write inside a phase but outside a VP");
  counters_.write_entries += count;
  if (validator_) [[unlikely]] validator_->on_write(count);
  const uint64_t end = first + count;
  uint64_t g = first;
  while (g < end) {
    const int owner = rec.global ? rec.owner_of(g) : node_;
    const uint64_t seg_end =
        rec.global ? segment_end(rec, g, end, owner) : end;
    const uint32_t len = static_cast<uint32_t>(seg_end - g);
    // One range record per owner segment: ONE (vp_rank, seq) pair for the
    // whole run, committing as a unit at that position — bit-identical
    // to len consecutive scalar writes (a VP's entries apply in seq
    // order either way).
    const detail::RecordHead h{
        .op = static_cast<uint8_t>(static_cast<uint8_t>(op) |
                                   detail::kOpRangeBit),
        .array = id,
        .index = g,
        .vp_rank = vp->global_rank_,
        .seq = vp->next_seq_++,
        .count = len};
    const std::byte* src = values + (g - first) * esz;
    if (rec.global && owner != node_) {
      rec.remote_write_epoch = epoch_;
      detail::put_record(bundle_buffer(owner), h, src, esz, rec.ops.integral);
      maybe_eager_flush(owner);
    } else {
      rec.local_write_epoch = epoch_;
      detail::put_record(local_log_, h, src, esz, rec.ops.integral);
    }
    g = seg_end;
  }
}

void NodeRuntime::write_elem(uint32_t id, uint64_t index,
                             const std::byte* value, detail::WriteOp op) {
  PPM_CHECK(id < arrays_.size(), "unknown shared array id %u", id);
  auto& rec = arrays_[id];
  PPM_CHECK(index < rec.n, "write index %llu out of range (size %llu)",
            static_cast<unsigned long long>(index),
            static_cast<unsigned long long>(rec.n));

  if (phase_scope_ == PhaseScope::kNone) {
    // Outside phases only the node program runs; writes apply immediately.
    // Remote global writes are not allowed here — data exchange between
    // nodes happens through phases.
    if (rec.global) {
      PPM_CHECK(rec.owner_of(index) == node_,
                "write to remote global element outside a phase");
      rec.apply_op(rec.storage.data() + rec.local_of(index) * rec.ops.size,
                   value, op);
    } else {
      rec.apply_op(rec.storage.data() + index * rec.ops.size, value, op);
    }
    return;
  }

  PPM_CHECK(!(phase_scope_ == PhaseScope::kNode && rec.global),
            "global shared write inside a node phase");
  Vp* vp = current_vp();
  PPM_CHECK(vp != nullptr, "shared write inside a phase but outside a VP");
  const detail::RecordHead h{.op = static_cast<uint8_t>(op),
                            .array = id,
                            .index = index,
                            .vp_rank = vp->global_rank_,
                            .seq = vp->next_seq_++};
  ++counters_.write_entries;
  if (validator_) [[unlikely]] validator_->on_write();

  if (rec.global) {
    const int owner = rec.owner_of(index);
    if (owner != node_) {
      rec.remote_write_epoch = epoch_;
      detail::put_record(bundle_buffer(owner), h, value, rec.ops.size,
                         rec.ops.integral);
      maybe_eager_flush(owner);
      return;
    }
  }
  rec.local_write_epoch = epoch_;
  detail::put_record(local_log_, h, value, rec.ops.size, rec.ops.integral);
}

void NodeRuntime::register_user_op(uint32_t id, int slot,
                                   detail::UserAccumOp op) {
  PPM_CHECK(id < arrays_.size(), "unknown shared array id %u", id);
  PPM_CHECK(slot >= 0 && slot < 3,
            "user accumulate slot %d out of range [0, 3)", slot);
  PPM_CHECK(phase_scope_ == PhaseScope::kNone,
            "register_accum_op must be called outside phases");
  PPM_CHECK(op.apply != nullptr, "register_accum_op needs a function");
  arrays_[id].user_ops[static_cast<size_t>(slot)] = op;
  if (validator_) {
    validator_->on_user_op_registered(
        id,
        static_cast<uint8_t>(static_cast<int>(detail::WriteOp::kUser0) +
                             slot),
        op.commutative);
  }
}

ByteWriter& NodeRuntime::bundle_buffer(int dest_node) {
  PeerState& ps = peer(dest_node);
  ByteWriter& buf = ps.bundle;
  if (buf.size() == 0) {
    note_marker_owed(dest_node, ps);
    // The fragment header lives inside the buffer from the first entry
    // on: take_fragment patches the flags in place and detaches the
    // buffer itself, instead of re-copying the whole payload into a fresh
    // writer per flush. Remote global writes only happen inside global
    // phases, so every entry appended later belongs to this epoch.
    buf.put(epoch_);
    buf.put<uint8_t>(0);
  }
  return buf;
}

Bytes NodeRuntime::take_fragment(int dest_node, bool last,
                                 std::span<const std::byte> trailer) {
  ByteWriter& buf = bundle_buffer(dest_node);  // header even when empty
  uint8_t flags = last ? detail::kFragmentLast : 0;
  if (!trailer.empty()) {
    flags |= detail::kFragmentPartials;
    buf.put_raw(trailer.data(), trailer.size());
  }
  buf.data()[kBundleLastOffset] = static_cast<std::byte>(flags);
  if (tracer_) [[unlikely]] {
    trace_rec(trace::EventKind::kBundleFlush,
              static_cast<uint64_t>(dest_node), buf.size(), 0,
              last ? trace::kFlagBit0 : 0);
  }
  // Detach the payload and reseed the buffer before it is sent: the
  // send's overhead can switch fibers, and an entry another core appends
  // meanwhile must start the next fragment. Reseeding from the recycled-
  // allocation pool keeps steady-state flushes off the allocator.
  Bytes payload = std::move(buf).take();
  buf = ByteWriter(pool_take());
  ++counters_.bundles_sent;
  return payload;
}

Bytes NodeRuntime::pool_take() {
  if (bundle_pool_.empty()) return Bytes{};
  Bytes b = std::move(bundle_pool_.back());
  bundle_pool_.pop_back();
  return b;
}

void NodeRuntime::pool_put(Bytes b) {
  if (b.capacity() != 0 && bundle_pool_.size() < kBundlePoolMax) {
    b.clear();
    bundle_pool_.push_back(std::move(b));
  }
}

void NodeRuntime::maybe_eager_flush(int dest_node) {
  if (!options().eager_flush) return;
  if (peer(dest_node).bundle.size() <
      options().flush_threshold_bytes + kBundleHeaderBytes) {
    return;
  }
  // Stream a fragment now so the transfer overlaps remaining computation.
  rt_send(dest_node, detail::rt_kind(detail::RtMsg::kBundle),
          take_fragment(dest_node, /*last=*/false));
}

int NodeRuntime::flush_all_bundles_final(std::vector<Bytes>* carried) {
  const int p = node_count();
  const uint64_t kind = detail::rt_kind(detail::RtMsg::kBundle);
  // The fragments are detached and flagged here, on core 0; the batch
  // then leaves from all of the node's cores (send_fanout).
  std::vector<Outgoing> batch;
  if (p > 1 && !plan_allgather(shared_.machine().config().network, p,
                               cores_per_node())
                   .direct) {
    // Sparse form: p−1 marker sends would cost more than ⌈log2 p⌉ relay
    // hops (plan_allgather's rule), so only the peers written this epoch
    // get a marker (eager flushes count: their fragments may still be in
    // flight), in ascending order like the direct form. Then a census — a
    // reduce-scatter of per-destination marker counts — tells each node
    // how many markers it is owed, and spreads the carried partials. It
    // is the phase's barrier: a node contributes only after its demand
    // reads finished and its fragments left.
    std::sort(marker_peers_.begin(), marker_peers_.end());
    std::vector<uint32_t> owed(static_cast<size_t>(p), 0);
    batch.reserve(marker_peers_.size());
    for (const int dest : marker_peers_) {
      batch.push_back({dest, kind, take_fragment(dest, /*last=*/true)});
      owed[static_cast<size_t>(dest)] = 1;
    }
    marker_peers_.clear();
    send_fanout(std::move(batch));
    return static_cast<int>(reduce_scatter_sum(owed, carried));
  }
  // Direct form: with carried partials every last marker ends in this
  // node's trailer: [partials][u32 partial bytes][u8 flags].
  Bytes trailer;
  if (carried != nullptr) {
    const Bytes& mine = (*carried)[static_cast<size_t>(node_)];
    const size_t partial_bytes = mine.size() - 1;
    ByteWriter w;
    w.put_raw(mine.data(), partial_bytes);
    w.put(static_cast<uint32_t>(partial_bytes));
    w.put(mine.back());
    trailer = std::move(w).take();
  }
  batch.reserve(static_cast<size_t>(p - 1));
  for (int dest = 0; dest < p; ++dest) {
    if (dest == node_) continue;
    // Direct form: every peer gets exactly one last-marker fragment per
    // phase (possibly header-only), and the p−1 markers back are the
    // phase's barrier.
    if (peers_.find(dest) != peers_.end()) {
      batch.push_back({dest, kind, take_fragment(dest, /*last=*/true,
                                                 trailer)});
      continue;
    }
    // Untouched peer: the header-only marker without materializing its
    // PeerState — byte-identical on the wire to an empty take_fragment,
    // same trace event and bundles_sent count.
    ByteWriter w(pool_take());
    w.put(epoch_);
    w.put<uint8_t>(trailer.empty()
                       ? detail::kFragmentLast
                       : detail::kFragmentLast | detail::kFragmentPartials);
    w.put_raw(trailer.data(), trailer.size());
    if (tracer_) [[unlikely]] {
      trace_rec(trace::EventKind::kBundleFlush, static_cast<uint64_t>(dest),
                w.size(), 0, trace::kFlagBit0);
    }
    ++counters_.bundles_sent;
    batch.push_back({dest, kind, std::move(w).take()});
  }
  marker_peers_.clear();
  send_fanout(std::move(batch));
  return p - 1;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

std::pair<uint64_t, uint64_t> NodeRuntime::coordinate_group(
    uint64_t k_local) {
  if (validator_) validator_->on_group_coordinated();
  ByteWriter w;
  w.put(k_local);
  const auto all = allgather_bytes(std::move(w).take());
  uint64_t offset = 0, total = 0;
  for (int n = 0; n < node_count(); ++n) {
    ByteReader r(all[static_cast<size_t>(n)]);
    const auto k = r.get<uint64_t>();
    if (n < node_) offset += k;
    total += k;
  }
  return {offset, total};
}

void NodeRuntime::run_phase(bool global, uint64_t k_local, uint64_t k_offset,
                            const std::function<void(Vp&)>& body) {
  PPM_CHECK(started_, "phase before NodeRuntime::start");
  PPM_CHECK(phase_scope_ == PhaseScope::kNone, "phases cannot nest");
  // Ship lookahead queued by reads between phases now, so it overlaps
  // this phase instead of waiting for its first park.
  flush_fetch_backlog();
  if (validator_) validator_->on_phase_start(global);
  phase_scope_ = global ? PhaseScope::kGlobal : PhaseScope::kNode;

  // The label set by Env::phase_label applies to exactly this phase.
  const std::string label = std::move(next_phase_label_);
  next_phase_label_.clear();
  if (tracer_) [[unlikely]] {
    trace_rec(trace::EventKind::kPhaseBegin, phase_index_, k_local,
              label.empty() ? 0 : tracer_->intern(label),
              global ? trace::kFlagBit0 : 0);
  }

  PhaseProfile profile;
  const bool profiling = opts_.profile_phases;
  if (profiling) {
    profile.global = global;
    profile.phase_index = phase_index_;
    profile.label = label;
    profile.k_local = k_local;
    profile.start_ns = engine_->now_ns();
    profile.write_entries = counters_.write_entries;
    profile.blocks_fetched = counters_.blocks_fetched;
    profile.bundles_sent = counters_.bundles_sent;
    profile.fetch_stall_ns = counters_.fetch_stall_ns;
    profile.prefetch_hits = counters_.prefetch_hits;
    profile.blocks_migrated = counters_.blocks_migrated;
    profile.migration_bytes = counters_.migration_bytes;
    profile.reduction_bytes_saved = counters_.reduction_bytes_saved;
  }

  task_.body = &body;
  task_.k_local = k_local;
  task_.k_offset = k_offset;
  task_.next = 0;
  const uint64_t cores = static_cast<uint64_t>(cores_per_node());
  task_.chunk = options().chunk_size != 0
                    ? options().chunk_size
                    : std::max<uint64_t>(1, k_local / (cores * 8));
  task_.workers_done = 0;
  ++task_.generation;
  task_cv_->notify_all();

  run_chunks(/*core_index=*/0);
  task_cv_->wait(
      [&] { return task_.workers_done == cores_per_node() - 1; });
  task_.body = nullptr;

  phase_scope_ = PhaseScope::kNone;
  if (profiling) profile.compute_done_ns = engine_->now_ns();
  if (tracer_) [[unlikely]] {
    trace_rec(trace::EventKind::kPhaseComputeDone, phase_index_);
  }
  if (global) {
    commit_global();
    ++counters_.global_phases;
  } else {
    commit_node();
    ++counters_.node_phases;
  }
  if (tracer_) [[unlikely]] {
    trace_rec(trace::EventKind::kPhaseCommitted, phase_index_);
  }
  ++phase_index_;
  if (profiling) {
    profile.committed_ns = engine_->now_ns();
    profile.write_entries = counters_.write_entries - profile.write_entries;
    profile.blocks_fetched =
        counters_.blocks_fetched - profile.blocks_fetched;
    profile.bundles_sent = counters_.bundles_sent - profile.bundles_sent;
    profile.fetch_stall_ns =
        counters_.fetch_stall_ns - profile.fetch_stall_ns;
    profile.prefetch_hits = counters_.prefetch_hits - profile.prefetch_hits;
    profile.blocks_migrated =
        counters_.blocks_migrated - profile.blocks_migrated;
    profile.migration_bytes =
        counters_.migration_bytes - profile.migration_bytes;
    profile.reduction_bytes_saved =
        counters_.reduction_bytes_saved - profile.reduction_bytes_saved;
    phase_profiles_.push_back(profile);
  }
}

void NodeRuntime::run_chunks(int core_index) {
  const uint64_t k = task_.k_local;
  if (k == 0) return;
  const uint32_t fid = engine_->current_fiber_id();
  Vp vp;
  if (fid >= vp_by_fiber_.size()) vp_by_fiber_.resize(fid + 1, nullptr);
  vp_by_fiber_[fid] = &vp;

  auto run_range = [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      vp.node_rank_ = i;
      vp.global_rank_ = task_.k_offset + i;
      vp.next_seq_ = 0;
      (*task_.body)(vp);
    }
  };

  if (options().schedule == SchedulePolicy::kStatic) {
    const uint64_t cores = static_cast<uint64_t>(cores_per_node());
    const uint64_t per_core = (k + cores - 1) / cores;
    const uint64_t begin =
        std::min(k, per_core * static_cast<uint64_t>(core_index));
    // Published through a cursor so miss-switching can claim VPs from this
    // core's range while the fiber waits on a fetch; claiming one VP at a
    // time guarantees none runs twice. No reference is held across the
    // body (another fiber may grow the vector while this one is blocked).
    if (fid >= static_range_.size()) static_range_.resize(fid + 1);
    const uint64_t range_end = std::min(k, begin + per_core);
    static_range_[fid] = StaticRange{begin, range_end};
    const int64_t batch_start_ns = tracer_ ? engine_->now_ns() : 0;
    uint32_t executed = 0;
    for (;;) {
      const uint64_t i = static_range_[fid].next;
      if (i >= static_range_[fid].end) break;
      ++static_range_[fid].next;
      run_range(i, i + 1);
      ++executed;
    }
    if (tracer_ && begin < range_end) [[unlikely]] {
      // One span per core per phase (miss-switched steals from this range
      // show up as their own nested batches on the stealing core).
      trace_rec(trace::EventKind::kVpBatch, begin, range_end,
                static_cast<uint64_t>(batch_start_ns), 0, executed);
    }
  } else {
    for (;;) {
      const uint64_t begin = task_.next;
      if (begin >= k) break;
      const uint64_t end = std::min(k, begin + task_.chunk);
      task_.next = end;  // no yield between read and update: atomic enough
      const int64_t batch_start_ns = tracer_ ? engine_->now_ns() : 0;
      run_range(begin, end);
      if (tracer_) [[unlikely]] {
        trace_rec(trace::EventKind::kVpBatch, begin, end,
                  static_cast<uint64_t>(batch_start_ns), 0,
                  static_cast<uint32_t>(end - begin));
      }
      // Let the other core fibers grab chunks: without this, a body that
      // never blocks would drain the whole queue in one host slice and the
      // phase would execute serially in virtual time.
      engine_->yield();
    }
  }
  vp_by_fiber_[fid] = nullptr;
}

void NodeRuntime::send_fanout(std::vector<Outgoing> batch) {
  PPM_CHECK(phase_scope_ == PhaseScope::kNone,
            "a fan-out runs between phases, on the node's main fiber");
  if (batch.empty()) return;
  task_.sends = &batch;
  task_.next_share = 1;
  task_.workers_done = 0;
  ++task_.generation;
  task_cv_->notify_all();
  send_share(0);
  task_cv_->wait(
      [&] { return task_.workers_done == cores_per_node() - 1; });
  task_.sends = nullptr;
}

void NodeRuntime::send_share(int share) {
  std::vector<Outgoing>& batch = *task_.sends;
  const auto cores = static_cast<size_t>(cores_per_node());
  for (size_t i = static_cast<size_t>(share); i < batch.size(); i += cores) {
    Outgoing& m = batch[i];
    rt_send(m.dst_node, m.kind, std::move(m.payload));
    // A send's overhead is below sim::kSmallAdvanceNs, so it is no
    // scheduling point, and Fabric::send claims the egress NIC in call
    // order. Yield after each one, so the other cores' sends of the same
    // virtual time go first and the NIC takes the batch in virtual-time
    // order. Shares are taken in the order the cores start, so sends of
    // one virtual time also reach the NIC in batch order.
    engine_->yield();
  }
}

void NodeRuntime::commit_global() {
  // 0. Unsent lookahead requests die with the phase: nobody waits on them
  //    (demand fetches always flush before their requester parks), so
  //    dropping them here — instead of shipping requests whose responses
  //    the epoch bump below would discard anyway — saves the wire bytes
  //    entirely. Their table slots reset with the rest in step 9.
  if (backlog_nonempty_) {
    for (const int owner : backlog_owners_) {
      for (const detail::BlockRequest& f : peer(owner).fetch_backlog) {
        PPM_CHECK(f.prefetch, "demand fetch still queued at commit");
        outstanding_.erase(f.req_id);
        --counters_.blocks_fetched;
        --counters_.prefetch_issued;
      }
      peer(owner).fetch_backlog.clear();
    }
    backlog_owners_.clear();
    backlog_nonempty_ = false;
  }

  // 1. Locality engine: decide — on SPMD-replicated state only, so
  //    identically on every node — whether this commit runs a migration
  //    planning round. All local access counting is finished here (reads
  //    are synchronous in the VP loop; writes were counted when logged),
  //    so the counters are final and ready to ship.
  const bool migrate_round = migration_round_due();

  // 2. Reduce partials as the only payload ride the exchange itself:
  //    this node's demand reads are done, so fold its partials now —
  //    reduced arrays this epoch wrote locally through their shadows —
  //    before its last markers leave. Every node decides alike
  //    (registration and migration_round_due are SPMD-replicated).
  const int p = node_count();
  const size_t reduce_tail = pending_reduce_blob_bytes();
  const size_t reduce_count = pending_reduces_.size() - reduces_resolved_;
  const bool carry = reduce_tail > 0 && !migrate_round;
  std::vector<Bytes> carried;
  if (carry) {
    carried.resize(static_cast<size_t>(p));
    carried[static_cast<size_t>(node_)] = fold_carried_partials();
    if (tracer_) [[unlikely]] {
      trace_rec(trace::EventKind::kCommitReduce, reduce_count, reduce_tail);
    }
  }

  // 3. Ship the remaining write entries and this epoch's last markers:
  //    to every peer below the allgather crossover, to the written peers
  //    above it (flush_all_bundles_final). Carried partials ride the
  //    markers or the census.
  const int markers = flush_all_bundles_final(carry ? &carried : nullptr);

  // 4. Wait until every last marker owed to this node for this epoch
  //    arrived.
  if (markers > 0) {
    arrivals_cv_->wait(
        [&] { return staged_last_markers_[epoch_] == markers; });
  }

  // 5. Every node now holds every node's carried partials and flag. If no
  //    node wrote a reduced array remotely, this node's post-commit
  //    values of every reduced array are its phase-start values plus its
  //    own local-log records — exactly its shadows — so the partials are
  //    final: the shadows become storage and the apply below skips their
  //    records. Otherwise every node drops its shadows alike, and the
  //    reduces resolve on the post-apply allgather. No peer can still
  //    read this epoch's snapshot here: a peer's demand reads complete
  //    before it sends its marker (direct form) or its census counts
  //    (sparse form), so the marker quorum or the census is the phase's
  //    barrier. Shadows are copied in rather than swapped: the handles'
  //    inline read path caches the storage address.
  const bool remote_written =
      collect_carried_partials(carry, reduce_tail, &carried);
  const bool fused = carry && !remote_written;
  for (auto& rec : arrays_) {
    if (!rec.shadowed) continue;
    if (fused) {
      std::copy(rec.shadow.begin(), rec.shadow.end(), rec.storage.begin());
    } else {
      rec.shadowed = false;
    }
  }

  // 6. Apply local log + staged fragments in deterministic order. Every
  //    fragment is in: each channel is FIFO and its source's last marker
  //    arrived.
  std::vector<std::span<const std::byte>> buffers;
  buffers.emplace_back(local_log_.bytes());
  auto staged = staged_bundles_.find(epoch_);
  if (staged != staged_bundles_.end()) {
    // The planted at-least-once fault stages each delivered fragment twice.
    const int copies = detail::g_stress_double_apply_bundles ? 2 : 1;
    for (int copy = 0; copy < copies; ++copy) {
      for (const Bytes& b : staged->second) {
        buffers.push_back(std::span(b).subspan(kBundleHeaderBytes));
      }
    }
  }
  if (validator_) validator_->begin_commit(/*global_phase=*/true, epoch_);
  apply_staged_entries(std::move(buffers));
  validate_commit_finish();
  for (auto& rec : arrays_) rec.shadowed = false;
  local_log_.clear();  // keep the allocation for the next phase
  if (staged != staged_bundles_.end()) {
    // Recycle the staged fragments' allocations into the bundle pool.
    for (Bytes& b : staged->second) pool_put(std::move(b));
    staged_bundles_.erase(staged);
  }
  staged_last_markers_.erase(epoch_);

  // 7. A planning round, or reduces whose partials did not ride the
  //    exchange, need every node's payload after the apply: one allgather
  //    carries migration read-epoch counters first and reduce partial
  //    blobs at the tail. Any other commit exchanges nothing more. Peers
  //    that finish first tag their next reads with the next epoch, which
  //    this node serves only after step 9's bump (and so after its own
  //    migration round).
  std::vector<Bytes> payloads;
  if (migrate_round || (reduce_tail > 0 && !fused)) {
    ByteWriter w;
    if (migrate_round) {
      for (const uint32_t id : planned_array_ids()) {
        w.put_vector(arrays_[id].access_count);
      }
    }
    if (reduce_tail > 0) {
      const Bytes partials = build_reduce_partials();
      w.put_raw(partials.data(), partials.size());
      if (tracer_) [[unlikely]] {
        trace_rec(trace::EventKind::kCommitReduce, reduce_count,
                  reduce_tail, /*c=*/0, trace::kFlagBit0);
      }
    }
    payloads = allgather_bytes(std::move(w).take());
    ++counters_.payload_commits;
  }

  // 7b. Sanitizer: allgather SPMD-lockstep fingerprints (no-op unless
  //     validate_phases).
  validate_lockstep();

  // 7c. Resolve registered reductions: fold the per-node partial blobs in
  //     ascending node order — identical scalar on every node.
  if (reduce_tail > 0) {
    combine_reduce_partials(fused ? carried : payloads, reduce_tail);
  }

  // 8. Migration planning round: every node computes the identical plan
  //    from allgathered read-epoch counters, rewrites the owner maps, and
  //    exchanges the moving block payloads. Must run after the apply
  //    above (this phase's writes were routed by the old map) and before
  //    the epoch bump below (peers' new-epoch gets stay deferred until
  //    the maps and storage agree again). run_migration_round reads
  //    exactly the counter vectors off each blob, so the reduce tail
  //    bytes behind them are ignored.
  if (migrate_round) run_migration_round(std::move(payloads));

  // 9. New epoch: phase-start snapshot changes, so every table slot this
  //    epoch touched goes back to no block. Demand reads complete inside
  //    the phase (their VP waits), but lookahead fetches issued late may
  //    still be in flight: abandon them. Such a slot stays in outstanding_
  //    so a response that does arrive (the owner served it before
  //    committing past our epoch) is recognized and discarded; an owner
  //    that committed first drops the request instead.
  ++epoch_;
  for (const auto& block : blocks_) {
    block->record->remote_block_ptr[block->block_slot] = nullptr;
    block->record->remote_block_ref[block->block_slot] = 0;
    if (!block->done) {
      PPM_CHECK(block->prefetched,
                "demand reads still pending at end-of-phase commit");
      block->abandoned = true;
    }
  }
  blocks_.clear();
  unbundled_arena_.clear();

  // 10. Serve get requests from nodes that raced ahead into this epoch.
  serve_deferred_gets();
}

void NodeRuntime::commit_node() {
  std::vector<std::span<const std::byte>> buffers;
  buffers.emplace_back(local_log_.bytes());
  if (validator_) {
    validator_->begin_commit(/*global_phase=*/false,
                             counters_.node_phases);
  }
  apply_staged_entries(std::move(buffers));
  validate_commit_finish();
  local_log_.clear();  // keep the allocation for the next phase
  unbundled_arena_.clear();  // view() pointers die with the phase
}

// ---------------------------------------------------------------------------
// Locality engine: commit-time migration planning
// ---------------------------------------------------------------------------

bool NodeRuntime::migration_round_due() const {
  // Evaluated identically on every node: any_adaptive_ follows from array
  // creation (SPMD-collective by contract), options are cluster-wide, and
  // rebalance() requests are SPMD-collective by contract too.
  if (!any_adaptive_ || node_count() <= 1) return false;
  return opts_.adaptive_distribution || !rebalance_requests_.empty();
}

std::vector<uint32_t> NodeRuntime::planned_array_ids() const {
  // Arrays up for planning: every owner-mapped array under automatic
  // mode, else exactly the requested rebalances. Ascending id either way
  // (and identical everywhere — both sources are SPMD-replicated).
  std::vector<uint32_t> ids;
  if (opts_.adaptive_distribution) {
    for (const auto& rec : arrays_) {
      if (rec.mig_block_elems != 0) ids.push_back(rec.id);
    }
  } else {
    ids = rebalance_requests_;
  }
  return ids;
}

void NodeRuntime::run_migration_round(std::vector<Bytes> all) {
  const std::vector<uint32_t> ids = planned_array_ids();
  rebalance_requests_.clear();

  // 1. Decode the counter exchange that rode on the commit allgather:
  //    `all[n]` holds node n's read-epoch counters for the planned arrays.
  const int p = node_count();
  // counts[node][array position in ids][migration block]
  std::vector<std::vector<std::vector<uint64_t>>> counts(
      static_cast<size_t>(p));
  for (int n = 0; n < p; ++n) {
    ByteReader r(all[static_cast<size_t>(n)]);
    auto& per_node = counts[static_cast<size_t>(n)];
    per_node.reserve(ids.size());
    for (size_t a = 0; a < ids.size(); ++a) {
      per_node.push_back(r.get_vector<uint64_t>());
    }
  }

  // 2. Greedy plan, computed identically everywhere from identical
  //    inputs: a block is a candidate when the node that read it in the
  //    most epochs read it in strictly more epochs than its owner. A
  //    read-epoch is one block fetch, so the gain is the fetches the move
  //    saves the new owner net of those it costs the old one (third
  //    readers fetch either way). Candidates move best-gain-first (ties
  //    broken by array then block) until the per-round budget or the
  //    destination's free slots run out. Applying a move updates the
  //    replicated owner map and the free-slot heaps in the same
  //    deterministic order on every node.
  struct Move {
    uint32_t array;
    uint64_t block;
    int from;
    int to;
    uint32_t from_slot;
    uint32_t to_slot;
    uint64_t gain;
  };
  std::vector<Move> cands;
  for (size_t a = 0; a < ids.size(); ++a) {
    const auto& rec = arrays_[ids[a]];
    for (uint64_t b = 0; b < rec.mig_blocks; ++b) {
      const int cur = rec.mig_owner[b];
      int best = 0;
      uint64_t best_c = counts[0][a][b];
      for (int n = 1; n < p; ++n) {  // ties resolve to the lowest node id
        if (counts[static_cast<size_t>(n)][a][b] > best_c) {
          best = n;
          best_c = counts[static_cast<size_t>(n)][a][b];
        }
      }
      const uint64_t cur_c = counts[static_cast<size_t>(cur)][a][b];
      if (best_c <= cur_c) continue;  // a tie keeps the owner
      cands.push_back(Move{ids[a], b, cur, best, 0, 0, best_c - cur_c});
    }
  }
  std::sort(cands.begin(), cands.end(), [](const Move& x, const Move& y) {
    if (x.gain != y.gain) return x.gain > y.gain;
    if (x.array != y.array) return x.array < y.array;
    return x.block < y.block;
  });

  std::vector<Move> plan;
  uint64_t plan_hash = 0xcbf29ce484222325ULL;
  for (Move& m : cands) {
    if (plan.size() >= opts_.migrate_max_blocks_per_phase) break;
    auto& rec = arrays_[m.array];
    auto& dst_free = rec.free_slots[static_cast<size_t>(m.to)];
    if (dst_free.empty()) continue;  // destination at capacity
    std::pop_heap(dst_free.begin(), dst_free.end(), std::greater<>());
    m.to_slot = dst_free.back();
    dst_free.pop_back();
    m.from_slot = rec.mig_slot[m.block];
    auto& src_free = rec.free_slots[static_cast<size_t>(m.from)];
    src_free.push_back(m.from_slot);
    std::push_heap(src_free.begin(), src_free.end(), std::greater<>());
    rec.mig_owner[m.block] = m.to;
    rec.mig_slot[m.block] = m.to_slot;
    for (const uint64_t word :
         {static_cast<uint64_t>(m.array), m.block,
          (static_cast<uint64_t>(static_cast<uint32_t>(m.from)) << 32) |
              static_cast<uint32_t>(m.to),
          static_cast<uint64_t>(m.to_slot)}) {
      plan_hash = (plan_hash ^ word) * 0x100000001b3ULL;
    }
    plan.push_back(m);
  }
  if (validator_) {
    // The plan digest joins the lockstep fingerprint: owner maps silently
    // diverging between nodes would corrupt every later remote access, so
    // make them surface at the next fingerprint exchange.
    validator_->on_migration_round(ids.size(), plan.size(), plan_hash);
  }
  if (tracer_) [[unlikely]] {
    trace_rec(trace::EventKind::kMigrationPlan, ids.size(), plan.size(),
              plan_hash);
  }

  // 3. Data movement. Serialize every outbound slot before applying any
  //    inbound payload: an arriving block may have been assigned a slot
  //    freed by an outbound one in this same round. The service fiber
  //    only stages arrivals in mig_inbox_, so storage stays untouched
  //    until the apply loop below.
  std::vector<size_t> pos_of_array(arrays_.size(), 0);
  for (size_t a = 0; a < ids.size(); ++a) pos_of_array[ids[a]] = a;
  uint64_t expected = 0;
  std::vector<Outgoing> batch;
  for (const Move& m : plan) {
    if (m.to == node_) {
      ++expected;
      // Read-epochs this node spent on the block remotely that the move
      // turns local, each counted once cluster-wide (on the node gaining
      // the block).
      counters_.remote_to_local_conversions +=
          counts[static_cast<size_t>(node_)][pos_of_array[m.array]][m.block];
    }
    if (m.from != node_) continue;
    const auto& rec = arrays_[m.array];
    const size_t block_bytes = rec.mig_block_elems * rec.ops.size;
    ByteWriter out;
    out.put(m.array);
    out.put(m.block);
    out.put_raw(rec.storage.data() +
                    static_cast<size_t>(m.from_slot) * block_bytes,
                block_bytes);
    batch.push_back({m.to, detail::rt_kind(detail::RtMsg::kMigrateBlock),
                     std::move(out).take()});
    ++counters_.blocks_migrated;
    counters_.migration_bytes += block_bytes;
    if (tracer_) [[unlikely]] {
      trace_rec(trace::EventKind::kMigrationMove, m.array, m.block,
                (static_cast<uint64_t>(static_cast<uint32_t>(m.from)) << 32) |
                    static_cast<uint32_t>(m.to));
    }
  }
  send_fanout(std::move(batch));

  // 4. Wait for and apply this node's inbound blocks — the identical plan
  //    tells every node exactly how many to expect, so no handshake or
  //    extra round is needed. Arrivals cannot belong to a later round: a
  //    peer reaches its next round only through an allgather this node
  //    has not entered yet.
  arrivals_cv_->wait([&] { return mig_inbox_.size() >= expected; });
  PPM_CHECK(mig_inbox_.size() == expected,
            "unexpected migration payload (%zu staged, %llu planned)",
            mig_inbox_.size(), static_cast<unsigned long long>(expected));
  for (const MigArrival& arr : mig_inbox_) {
    PPM_CHECK(arr.array < arrays_.size(),
              "migration payload for unknown array %u", arr.array);
    auto& rec = arrays_[arr.array];
    PPM_CHECK(rec.mig_block_elems != 0 && arr.block < rec.mig_blocks &&
                  rec.mig_owner[arr.block] == node_,
              "migration payload does not match the plan");
    const size_t block_bytes = rec.mig_block_elems * rec.ops.size;
    PPM_CHECK(arr.data.size() == block_bytes, "short migration payload");
    std::memcpy(rec.storage.data() +
                    static_cast<size_t>(rec.mig_slot[arr.block]) * block_bytes,
                arr.data.data(), block_bytes);
  }
  mig_inbox_.clear();

  // 5. Fresh profiling window for the next round.
  for (const uint32_t id : ids) {
    auto& ac = arrays_[id].access_count;
    std::fill(ac.begin(), ac.end(), 0);
  }
}

void NodeRuntime::apply_staged_entries(
    std::vector<std::span<const std::byte>> buffers, ApplyPass pass) {
  // The pass applies the records of arrays whose `shadowed` flag equals
  // this: the shadow pass only those, the commit pass all others.
  const bool shadows = pass == ApplyPass::kShadows;
  // Pass 1 validates the whole batch before any element changes, value
  // varints included, counts the records this pass applies and collects
  // what picks the apply order below. A record must lie inside its array
  // before the apply pass's locator reads the owner map.
  size_t records = 0;
  uint8_t op_mask = 0;    // bit per WriteOp value seen in this batch
  bool integral = true;   // every record targets an integral array
  for (const auto& buf : buffers) {
    for_each_record(buf, arrays_, [&](const ParsedEntry& e) {
      const auto& rec = arrays_[e.array];
      PPM_CHECK(e.count <= rec.n && e.index <= rec.n - e.count,
                "write record [%llu, +%u) out of range (array %u, size %llu)",
                static_cast<unsigned long long>(e.index), e.count, e.array,
                static_cast<unsigned long long>(rec.n));
      if (validator_ && !shadows) [[unlikely]] {
        for (uint32_t j = 0; j < e.count; ++j) {
          validator_->on_commit_entry(e.array, e.index + j, e.op, e.vp_rank);
        }
      }
      if (rec.shadowed != shadows) return;
      ++records;
      op_mask |= static_cast<uint8_t>(1u << e.op);
      integral = integral && rec.ops.integral;
    });
  }
  const auto apply = [&](const ParsedEntry& e) {
    auto& rec = arrays_[e.array];
    if (rec.shadowed != shadows) return;
    PPM_CHECK(!rec.global || rec.owner_of(e.index) == node_,
              "write entry for element %llu not owned by node %d",
              static_cast<unsigned long long>(e.index), node_);
    const uint64_t local = rec.global ? rec.local_of(e.index) : e.index;
    const uint32_t esz = rec.ops.size;
    const auto op = static_cast<detail::WriteOp>(e.op);
    std::byte* const store = (shadows ? rec.shadow : rec.storage).data();
    // Varint values decode one at a time into `value`, straight off the
    // buffer pass 1 checked.
    std::byte value[sizeof(uint64_t)] = {};
    const std::byte* p = e.values.data();
    const std::byte* const end = p + e.values.size();
    if (e.count == 1) {
      PPM_CHECK(local < rec.chunk_len,
                "write entry for element %llu out of local range",
                static_cast<unsigned long long>(e.index));
      if (e.varint) detail::get_varint_value(p, end, esz, value);
      rec.apply_op(store + local * esz, e.varint ? value : p, op);
      return;
    }
    // Range entry: the writer segmented the run so it stays inside one
    // owner's contiguous local storage (kBlock chunk / kAdaptive
    // migration block / node-shared array).
    PPM_CHECK(!rec.global || rec.owner_of(e.index + e.count - 1) == node_,
              "range entry [%llu, +%u) crosses an ownership boundary",
              static_cast<unsigned long long>(e.index), e.count);
    PPM_CHECK(local + e.count <= rec.chunk_len,
              "range entry [%llu, +%u) out of local range",
              static_cast<unsigned long long>(e.index), e.count);
    std::byte* dst = store + local * esz;
    if (!e.varint && op == detail::WriteOp::kSet) {
      std::memcpy(dst, p, e.values.size());
      return;
    }
    for (uint32_t j = 0; j < e.count; ++j, dst += esz) {
      if (!e.varint) {
        rec.apply_op(dst, p, op);
        p += esz;
      } else if (op == detail::WriteOp::kSet) {
        p = detail::get_varint_value(p, end, esz, dst);
      } else {
        p = detail::get_varint_value(p, end, esz, value);
        rec.apply_op(dst, value, op);
      }
    }
  };
  // Deterministic conflict resolution: ascending (global VP rank, VP-local
  // sequence); plain sets resolve to the highest-ranked writer's last
  // write. A batch of integral arrays that uses exactly one accumulate op
  // (all-adds, or all-mins, ...) — the common histogram/BFS/relaxation
  // shape — skips ordering entirely: a single exactly commutative and
  // associative op yields the same result in any order, so it applies
  // straight off the buffers. Mixed op kinds do NOT commute with each
  // other (min after add differs from add after min), and floating-point
  // accumulates are not associative, so both take the ordered path.
  //
  // The ordered path is a bucket pass keyed on (vp_rank, seq) rather than
  // a comparison sort of the whole batch: each VP's entries already sit in
  // seq order within its stream (program order, and fragments between one
  // src/dst pair deliver in order), so grouping entry indices by vp_rank
  // and walking ranks ascending reproduces the fully sorted order in
  // O(n + V log V). A per-bucket ordering check guards the delivery
  // assumption and falls back to sorting just that bucket.
  // User slots (kUser0..kUser2) always take the ordered path: their
  // registration may be non-commutative, and (rank, seq) order is the
  // only application order the model promises them.
  constexpr uint8_t kUserOpMask =
      (1u << static_cast<uint8_t>(detail::WriteOp::kUser0)) |
      (1u << static_cast<uint8_t>(detail::WriteOp::kUser1)) |
      (1u << static_cast<uint8_t>(detail::WriteOp::kUser2));
  const bool single_commutative_op =
      integral && (op_mask & (op_mask - 1)) == 0 &&
      (op_mask & (1u << static_cast<uint8_t>(detail::WriteOp::kSet))) == 0 &&
      (op_mask & kUserOpMask) == 0;
  if (single_commutative_op) {
    for (const auto& buf : buffers) {
      for_each_record(buf, arrays_, apply);
    }
    return;
  }
  // The parse vector holds exactly the records pass 1 counted.
  std::vector<ParsedEntry> entries;
  entries.reserve(records);
  for (const auto& buf : buffers) {
    for_each_record(buf, arrays_, [&](const ParsedEntry& e) {
      if (arrays_[e.array].shadowed == shadows) entries.push_back(e);
    });
  }
  std::vector<uint32_t> order;
  const auto seq_less = [&](uint32_t a, uint32_t b) {
    return entries[a].seq < entries[b].seq;
  };
  // After placement by rank, verify each same-rank run is in seq order
  // (program order per fragment plus in-order delivery make it so) and
  // sort just the runs that are not.
  const auto fix_seq_runs = [&] {
    size_t lo = 0;
    while (lo < order.size()) {
      size_t hi = lo + 1;
      const uint64_t rank = entries[order[lo]].vp_rank;
      while (hi < order.size() && entries[order[hi]].vp_rank == rank) ++hi;
      if (!std::is_sorted(order.begin() + lo, order.begin() + hi, seq_less)) {
        std::sort(order.begin() + lo, order.begin() + hi, seq_less);
      }
      lo = hi;
    }
  };
  if (!entries.empty()) {
    uint64_t min_rank = entries[0].vp_rank, max_rank = entries[0].vp_rank;
    for (const ParsedEntry& e : entries) {
      min_rank = std::min(min_rank, e.vp_rank);
      max_rank = std::max(max_rank, e.vp_rank);
    }
    const uint64_t span = max_rank - min_rank + 1;
    if (span <= entries.size() * 8 + 1024) {
      // Dense ranks (the overwhelmingly common shape: a phase's VPs are a
      // contiguous rank range): a stable counting sort by rank replaces
      // the hash-bucket pass — no hashing, no per-bucket allocations, one
      // O(V) scratch vector. Stability preserves per-rank arrival order,
      // which is seq order already.
      std::vector<uint32_t> start(static_cast<size_t>(span) + 1, 0);
      for (const ParsedEntry& e : entries) {
        ++start[e.vp_rank - min_rank + 1];
      }
      for (size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
      order.resize(entries.size());
      for (uint32_t idx = 0; idx < entries.size(); ++idx) {
        order[start[entries[idx].vp_rank - min_rank]++] = idx;
      }
    } else {
      // Sparse ranks (tiny batches from huge rank spaces): hash buckets.
      std::unordered_map<uint64_t, std::vector<uint32_t>> by_rank;
      std::vector<uint64_t> ranks;
      for (uint32_t idx = 0; idx < entries.size(); ++idx) {
        auto& bucket = by_rank[entries[idx].vp_rank];
        if (bucket.empty()) ranks.push_back(entries[idx].vp_rank);
        bucket.push_back(idx);
      }
      std::sort(ranks.begin(), ranks.end());
      order.reserve(entries.size());
      for (const uint64_t rank : ranks) {
        const auto& bucket = by_rank[rank];
        order.insert(order.end(), bucket.begin(), bucket.end());
      }
    }
    fix_seq_runs();
  }
  if (detail::g_stress_flip_commit_order) [[unlikely]] {
    // Planted fault for the stress harness's self-test: apply the ordered
    // batch backwards. The differential oracle must catch this.
    std::reverse(order.begin(), order.end());
  }
  for (const uint32_t idx : order) apply(entries[idx]);
}

// ---------------------------------------------------------------------------
// Remote reduction (rides the commit allgather)
// ---------------------------------------------------------------------------

size_t NodeRuntime::register_reduce(PendingReduce pr) {
  PPM_CHECK(phase_scope_ == PhaseScope::kNone,
            "register_reduce must be called outside phases");
  PPM_CHECK(pr.partial != nullptr && pr.combine != nullptr,
            "register_reduce needs partial and combine thunks");
  PPM_CHECK(pr.array_a < arrays_.size() && arrays_[pr.array_a].global,
            "reduce needs a global shared array");
  if (pr.array_b != UINT32_MAX) {
    PPM_CHECK(pr.array_b < arrays_.size() && arrays_[pr.array_b].global,
              "reduce (dot form) needs a global shared array");
  }
  pending_reduces_.push_back(std::move(pr));
  return pending_reduces_.size() - 1;
}

const NodeRuntime::PendingReduce& NodeRuntime::reduce_result(
    size_t handle) const {
  PPM_CHECK(handle < pending_reduces_.size(), "unknown reduce handle %zu",
            handle);
  const PendingReduce& pr = pending_reduces_[handle];
  PPM_CHECK(pr.done,
            "reduce result read before the resolving global commit");
  return pr;
}

size_t NodeRuntime::pending_reduce_blob_bytes() const {
  size_t total = 0;
  for (size_t i = reduces_resolved_; i < pending_reduces_.size(); ++i) {
    total += 1 + arrays_[pending_reduces_[i].array_a].ops.size;
  }
  return total;
}

Bytes NodeRuntime::build_reduce_partials() {
  ByteWriter w;
  for (size_t i = reduces_resolved_; i < pending_reduces_.size(); ++i) {
    const PendingReduce& pr = pending_reduces_[i];
    Bytes blob;
    pr.partial(*this, pr, &blob);
    PPM_CHECK(blob.size() == 1 + arrays_[pr.array_a].ops.size,
              "reduce partial blob has the wrong size");
    w.put_raw(blob.data(), blob.size());
  }
  return std::move(w).take();
}

Bytes NodeRuntime::fold_carried_partials() {
  // A reduced array this epoch wrote locally folds through its shadow:
  // storage plus this node's local-log records of it, applied in commit
  // order by the shadow pass. The others fold committed storage, which
  // holds their post-commit values unless some node wrote them remotely
  // (the flag below).
  bool shadows = false;
  bool remote = false;
  for (size_t i = reduces_resolved_; i < pending_reduces_.size(); ++i) {
    const PendingReduce& pr = pending_reduces_[i];
    for (const uint32_t id : {pr.array_a, pr.array_b}) {
      if (id == UINT32_MAX) continue;
      auto& rec = arrays_[id];
      remote = remote || rec.remote_write_epoch == epoch_;
      if (rec.local_write_epoch != epoch_ || rec.shadowed) continue;
      rec.shadow = rec.storage;  // reuses the shadow's allocation
      rec.shadowed = true;
      shadows = true;
    }
  }
  if (shadows) {
    apply_staged_entries({local_log_.bytes()}, ApplyPass::kShadows);
  }
  Bytes out = build_reduce_partials();
  out.push_back(static_cast<std::byte>(remote ? detail::kPartialsRemoteWrite
                                              : 0));
  return out;
}

bool NodeRuntime::collect_carried_partials(bool carry, size_t tail_bytes,
                                           std::vector<Bytes>* carried) {
  const auto staged = staged_partials_.find(epoch_);
  if (staged != staged_partials_.end()) {
    // Trailers come only on the direct form's markers of a carrying
    // commit, one per peer (the sparse form's census already filled
    // every slot).
    for (auto& [src, blob] : staged->second) {
      PPM_CHECK(carry,
                "last marker from node %d carries reduce partials, but "
                "commit %llu has no pending reduce to carry on its markers",
                src, static_cast<unsigned long long>(epoch_));
      PPM_CHECK(src != node_ && static_cast<size_t>(src) < carried->size() &&
                    (*carried)[static_cast<size_t>(src)].empty(),
                "node %d sent reduce partials twice at commit %llu", src,
                static_cast<unsigned long long>(epoch_));
      (*carried)[static_cast<size_t>(src)] = std::move(blob);
    }
    staged_partials_.erase(staged);
  }
  if (!carry) return false;
  bool remote = false;
  for (size_t n = 0; n < carried->size(); ++n) {
    Bytes& blob = (*carried)[n];
    PPM_CHECK(!blob.empty(),
              "node %zu's last marker carries no reduce partials at commit "
              "%llu",
              n, static_cast<unsigned long long>(epoch_));
    PPM_CHECK(blob.size() == tail_bytes + 1,
              "node %zu carried %zu bytes of reduce partials, the pending "
              "reduces here take %zu",
              n, blob.size() - 1, tail_bytes);
    const auto flags = static_cast<uint8_t>(blob.back());
    PPM_CHECK((flags & ~detail::kPartialsRemoteWrite) == 0,
              "node %zu's reduce partials carry unknown flag bits 0x%02x", n,
              flags);
    remote = remote || flags != 0;
    blob.pop_back();
  }
  return remote;
}

void NodeRuntime::combine_reduce_partials(const std::vector<Bytes>& all,
                                          size_t tail_bytes) {
  // Every node appended the same partial layout (registration is
  // SPMD-collective), so the blobs parse off the tail of each node's
  // allgather payload. Folding ascending node order makes the combined
  // scalar bit-identical on every node.
  const int p = node_count();
  std::vector<std::span<const std::byte>> tails(static_cast<size_t>(p));
  for (int n = 0; n < p; ++n) {
    const Bytes& b = all[static_cast<size_t>(n)];
    PPM_CHECK(b.size() >= tail_bytes,
              "commit allgather payload too short for reduce partials");
    tails[static_cast<size_t>(n)] =
        std::span<const std::byte>(b.data() + b.size() - tail_bytes,
                                   tail_bytes);
  }
  size_t off = 0;
  for (size_t i = reduces_resolved_; i < pending_reduces_.size(); ++i) {
    PendingReduce& pr = pending_reduces_[i];
    const uint32_t esz = arrays_[pr.array_a].ops.size;
    const size_t blob_bytes = 1 + esz;
    Bytes acc(blob_bytes, std::byte{0});  // has_value = 0: empty fold seed
    for (int n = 0; n < p; ++n) {
      pr.combine(*this, pr, &acc,
                 tails[static_cast<size_t>(n)].subspan(off, blob_bytes));
    }
    pr.result = std::move(acc);
    pr.done = true;
    // A standalone allreduce would have shipped this scalar to and from a
    // root: elem_size bytes per non-self node, saved by folding it into
    // the commit's one allgather.
    counters_.reduction_bytes_saved +=
        static_cast<uint64_t>(esz) * static_cast<uint64_t>(p - 1);
    off += blob_bytes;
  }
  reduces_resolved_ = pending_reduces_.size();
}

// ---------------------------------------------------------------------------
// ppm::check integration
// ---------------------------------------------------------------------------

void NodeRuntime::validate_commit_finish() {
  if (!validator_) return;
  const uint64_t new_errors = validator_->finish_commit();
  if (new_errors > 0 && opts_.validate_fail_fast) {
    const auto& vs = validator_->report().violations;
    throw Error("ppm::check (fail-fast): " +
                (vs.empty() ? std::string("phase-semantics violation")
                            : vs.back().to_string()));
  }
}

void NodeRuntime::validate_lockstep() {
  if (!validator_) return;
  // Serialize this node's fingerprint and allgather it. Every node runs
  // this at the same global commit (options are cluster-wide), so the
  // collective is itself in lockstep even when the program is not.
  const check::Fingerprint mine = validator_->fingerprint();
  ByteWriter w;
  w.put(mine.hash);
  w.put(mine.arrays_created);
  w.put(mine.groups_coordinated);
  w.put(mine.global_phases);
  const auto all_bytes = allgather_bytes(std::move(w).take());
  std::vector<check::Fingerprint> all(all_bytes.size());
  for (size_t n = 0; n < all_bytes.size(); ++n) {
    ByteReader r(all_bytes[n]);
    all[n].hash = r.get<uint64_t>();
    all[n].arrays_created = r.get<uint64_t>();
    all[n].groups_coordinated = r.get<uint64_t>();
    all[n].global_phases = r.get<uint64_t>();
  }
  const uint64_t new_errors = validator_->check_lockstep(all, epoch_);
  if (new_errors > 0 && opts_.validate_fail_fast) {
    const auto& vs = validator_->report().violations;
    throw Error("ppm::check (fail-fast): " +
                (vs.empty() ? std::string("lockstep mismatch")
                            : vs.back().to_string()));
  }
}

// ---------------------------------------------------------------------------
// Service fiber
// ---------------------------------------------------------------------------

void NodeRuntime::rt_send(int dst_node, uint64_t kind, Bytes payload) {
  net::Message m;
  m.src_node = node_;
  m.src_port = shared_.machine().service_port();
  m.dst_node = dst_node;
  m.dst_port = shared_.machine().service_port();
  m.kind = kind;
  m.payload = std::move(payload);
  shared_.machine().fabric().send(std::move(m));
}

void NodeRuntime::service_loop() {
  auto& endpoint = shared_.machine().fabric().endpoint(
      node_, shared_.machine().service_port());
  for (;;) {
    net::Message msg = endpoint.recv();
    switch (detail::rt_class(msg.kind)) {
      case detail::RtMsg::kGetIndexed:
      case detail::RtMsg::kGetBlockList:
        handle_get(std::move(msg));
        break;
      case detail::RtMsg::kGetResp: {
        ByteReader r(msg.payload);
        const auto req_id = r.get<uint64_t>();
        const auto it = outstanding_.find(req_id);
        PPM_CHECK(it != outstanding_.end(),
                  "get response for unknown request %llu",
                  static_cast<unsigned long long>(req_id));
        auto slot = std::move(it->second);
        outstanding_.erase(it);
        const detail::ArrayRecord* rec = slot->record;
        if (tracer_) [[unlikely]] {
          // Block fetches name their block (element and indexed gets:
          // zeros).
          uint64_t array = 0, first = 0, owner = 0;
          if (rec != nullptr) {
            array = rec->id;
            owner = slot->block_slot / rec->blocks_per_chunk;
            first = slot->block_slot % rec->blocks_per_chunk *
                    rec->block_elems;
          }
          trace_rec(trace::EventKind::kFetchDone, array, first, req_id,
                    slot->abandoned ? trace::kFlagBit0 : 0,
                    static_cast<uint32_t>(owner));
        }
        PPM_CHECK(r.remaining() == slot->bytes,
                  "get response %llu carries %zu bytes, the request asked "
                  "for %llu",
                  static_cast<unsigned long long>(req_id), r.remaining(),
                  static_cast<unsigned long long>(slot->bytes));
        if (slot->abandoned) break;  // lookahead from a committed phase
        // Keep the delivered buffer; drop the request id in place.
        msg.payload.erase(msg.payload.begin(),
                          msg.payload.begin() + sizeof(uint64_t));
        slot->data = std::move(msg.payload);
        // Combined waiters can be woken in any order relative to the
        // initiating fiber: the bytes are in the slot. Demand blocks are
        // published in the table for inline reads; prefetched blocks
        // publish on their first demand touch instead, so lookahead hits
        // stay observable.
        if (rec != nullptr && !slot->prefetched) {
          slot->record->remote_block_ptr[slot->block_slot] =
              slot->data.data();
        }
        slot->done = true;
        slot->waiters.wake_all();
        break;
      }
      case detail::RtMsg::kBundle:
        handle_bundle(std::move(msg));
        break;
      case detail::RtMsg::kMigrateBlock: {
        // Stage only: run_migration_round applies arrivals after all of
        // this node's outbound slots are serialized, so an inbound block
        // cannot clobber a slot still waiting to be shipped.
        ByteReader r(msg.payload);
        MigArrival arr;
        arr.array = r.get<uint32_t>();
        arr.block = r.get<uint64_t>();
        const auto data = r.view(r.remaining());
        arr.data.assign(data.begin(), data.end());
        mig_inbox_.push_back(std::move(arr));
        arrivals_cv_->notify_all();
        break;
      }
      case detail::RtMsg::kToken:
        handle_token(std::move(msg));
        break;
      case detail::RtMsg::kShutdown:
        return;
    }
  }
}

void NodeRuntime::handle_get(net::Message msg) {
  const std::byte* const end = msg.payload.data() + msg.payload.size();
  uint64_t req_epoch = 0;
  const std::byte* body =
      detail::get_varint(msg.payload.data(), end, &req_epoch);
  if (req_epoch < epoch_) {
    // A lookahead fetch can legitimately straggle past the requester's
    // commit (the requester abandoned its slot there): drop it. Demand
    // requesters park until served, so their node cannot have committed
    // past, and any other stale request is a protocol bug.
    PPM_CHECK(detail::rt_class(msg.kind) == detail::RtMsg::kGetBlockList,
              "get request for already-committed epoch %llu (at %llu)",
              static_cast<unsigned long long>(req_epoch),
              static_cast<unsigned long long>(epoch_));
    for (const auto& item : detail::decode_block_requests(body, end)) {
      PPM_CHECK(item.prefetch, "stale fetch list contains a demand item");
    }
    return;
  }
  // A requester's next commit needs this node's last marker (direct form)
  // or census counts (sparse form), so it can run at most one epoch ahead.
  PPM_CHECK(req_epoch <= epoch_ + 1,
            "get request for epoch %llu, more than one ahead of %llu",
            static_cast<unsigned long long>(req_epoch),
            static_cast<unsigned long long>(epoch_));
  if (req_epoch > epoch_) {
    // Requester already committed the phase we are still committing:
    // serve after our commit so it sees the new phase-start snapshot.
    deferred_gets_.push_back(std::move(msg));
    return;
  }
  serve_get(msg);
}

void NodeRuntime::serve_get(const net::Message& msg) {
  const std::byte* const end = msg.payload.data() + msg.payload.size();
  uint64_t epoch = 0;  // checked by handle_get
  const std::byte* p = detail::get_varint(msg.payload.data(), end, &epoch);
  // All request coordinates are owner-local (i.e. indices into this
  // node's committed storage), for every distribution.
  if (detail::rt_class(msg.kind) == detail::RtMsg::kGetBlockList) {
    // One kGetResp per item, so response bytes do not depend on how the
    // requester coalesced its requests.
    for (const auto& item : detail::decode_block_requests(p, end)) {
      const auto& rec = array(item.array);
      PPM_CHECK(item.count <= rec.chunk_len &&
                    item.first <= rec.chunk_len - item.count,
                "get request [%llu, +%llu) outside node %d's storage",
                static_cast<unsigned long long>(item.first),
                static_cast<unsigned long long>(item.count), node_);
      ByteWriter reply;
      reply.put(item.req_id);
      reply.put_raw(rec.storage.data() + item.first * rec.ops.size,
                    item.count * rec.ops.size);
      rt_send(msg.src_node, detail::rt_kind(detail::RtMsg::kGetResp),
              std::move(reply).take());
    }
    return;
  }
  uint64_t id = 0, req_id = 0, n = 0;
  p = detail::get_varint(p, end, &id);
  PPM_CHECK(id <= UINT32_MAX, "garbled indexed get: array id %llu too wide",
            static_cast<unsigned long long>(id));
  p = detail::get_varint(p, end, &req_id);
  p = detail::get_varint(p, end, &n);
  const auto& rec = array(static_cast<uint32_t>(id));
  ByteWriter reply;
  reply.put(req_id);
  for (uint64_t k = 0; k < n; ++k) {
    uint64_t index = 0;
    p = detail::get_varint(p, end, &index);
    PPM_CHECK(index < rec.chunk_len,
              "indexed get for local element %llu outside node %d's storage",
              static_cast<unsigned long long>(index), node_);
    reply.put_raw(rec.storage.data() + index * rec.ops.size, rec.ops.size);
  }
  PPM_CHECK(p == end, "garbled indexed get: %zu bytes after the last index",
            static_cast<size_t>(end - p));
  rt_send(msg.src_node, detail::rt_kind(detail::RtMsg::kGetResp),
          std::move(reply).take());
}

void NodeRuntime::serve_deferred_gets() {
  // handle_get defers only requests exactly one epoch ahead, so the bump
  // that precedes this call made every one of them current. No request
  // can be deferred meanwhile: that would take a peer past this epoch's
  // commit, which needs this node's next marker or census counts.
  const std::vector<net::Message> ready = std::move(deferred_gets_);
  deferred_gets_.clear();
  for (const net::Message& msg : ready) serve_get(msg);
}

void NodeRuntime::handle_bundle(net::Message msg) {
  ByteReader r(msg.payload);
  const auto epoch = r.get<uint64_t>();
  // A sender flushes every fragment of an epoch before its last marker,
  // and this node commits the epoch only after that marker, so a fragment
  // for a committed epoch is protocol misuse: no commit would read it.
  PPM_CHECK(epoch >= epoch_,
            "write bundle for already-committed epoch %llu (at %llu)",
            static_cast<unsigned long long>(epoch),
            static_cast<unsigned long long>(epoch_));
  // A sender runs at most one epoch ahead: to write in epoch_ + 2 it must
  // first commit epoch_ + 1, which needs this node's marker (or census
  // count) for that epoch.
  PPM_CHECK(epoch <= epoch_ + 1,
            "write bundle for epoch %llu, more than one ahead of %llu",
            static_cast<unsigned long long>(epoch),
            static_cast<unsigned long long>(epoch_));
  const auto flags = r.get<uint8_t>();
  PPM_CHECK((flags & ~(detail::kFragmentLast | detail::kFragmentPartials)) ==
                0,
            "write bundle fragment with unknown header flags 0x%02x", flags);
  if ((flags & detail::kFragmentPartials) != 0) {
    // A last marker's reduce-partials trailer: stage the sender's
    // [partials][u8 flags] blob for the commit and cut the trailer off
    // the records. Its size is checked at the commit, which knows the
    // pending reduces.
    PPM_CHECK((flags & detail::kFragmentLast) != 0,
              "reduce partials trailer on a write bundle fragment that is "
              "not a last marker");
    Bytes& b = msg.payload;
    const size_t body = b.size() - kBundleHeaderBytes;
    PPM_CHECK(body >= detail::kPartialsTrailerTailBytes,
              "reduce partials trailer longer than its %zu-byte fragment",
              body);
    const size_t tail = b.size() - detail::kPartialsTrailerTailBytes;
    uint32_t partial_bytes = 0;
    std::memcpy(&partial_bytes, b.data() + tail, sizeof partial_bytes);
    PPM_CHECK(partial_bytes <= body - detail::kPartialsTrailerTailBytes,
              "reduce partials trailer of %zu bytes longer than its "
              "%zu-byte fragment",
              partial_bytes + detail::kPartialsTrailerTailBytes, body);
    const auto partials_flags = static_cast<uint8_t>(b.back());
    PPM_CHECK((partials_flags & ~detail::kPartialsRemoteWrite) == 0,
              "reduce partials trailer with unknown flag bits 0x%02x in the "
              "fragment's last byte",
              partials_flags);
    Bytes blob(b.begin() + static_cast<ptrdiff_t>(tail - partial_bytes),
               b.begin() + static_cast<ptrdiff_t>(tail));
    blob.push_back(b.back());
    b.resize(tail - partial_bytes);
    staged_partials_[epoch].emplace_back(msg.src_node, std::move(blob));
  }
  // Stage the delivered buffer itself; the commit reads its records past
  // the fragment header and then recycles it into the bundle pool.
  staged_bundles_[epoch].push_back(std::move(msg.payload));
  if ((flags & detail::kFragmentLast) != 0) {
    ++staged_last_markers_[epoch];
    arrivals_cv_->notify_all();
  }
}

void NodeRuntime::handle_token(net::Message msg) {
  ByteReader r(msg.payload);
  TokenKey key{};
  key.src = msg.src_node;
  key.seq = r.get<uint64_t>();
  key.round = r.get<uint32_t>();
  tokens_[key] = std::move(msg.payload);  // token_recv strips the head
  arrivals_cv_->notify_all();
}

// ---------------------------------------------------------------------------
// Node-level collectives
// ---------------------------------------------------------------------------

AllgatherPlan plan_allgather(const net::LinkParams& link, int nodes,
                             int cores) {
  PPM_CHECK(cores >= 1, "plan_allgather needs at least one core (got %d)",
            cores);
  AllgatherPlan plan;
  if (nodes <= 1) return plan;
  int64_t depth = 0;
  for (int span = 1; span < nodes; span *= 2) ++depth;
  const int64_t hop =
      link.send_overhead_ns + link.latency_ns + link.recv_overhead_ns;
  plan.direct = (nodes - 1) * link.send_overhead_ns < depth * hop;
  const int64_t rounds = (nodes - 1 + cores - 1) / cores;  // ⌈(p−1)/c⌉
  plan.cost_ns =
      plan.direct
          ? rounds * link.send_overhead_ns + link.latency_ns +
                link.recv_overhead_ns
          : depth * hop;
  return plan;
}

void NodeRuntime::token_send(int dst_node, uint64_t seq, uint32_t round,
                             std::span<const std::byte> payload) {
  rt_send(dst_node, detail::rt_kind(detail::RtMsg::kToken),
          token_bytes(seq, round, payload));
}

Bytes NodeRuntime::token_recv(int src_node, uint64_t seq, uint32_t round) {
  const TokenKey key{src_node, seq, round};
  arrivals_cv_->wait([&] { return tokens_.count(key) != 0; });
  const auto it = tokens_.find(key);
  Bytes payload = std::move(it->second);
  tokens_.erase(it);
  // In place: the payload keeps the delivered message's allocation.
  payload.erase(payload.begin(), payload.begin() + kTokenHeadBytes);
  return payload;
}

void NodeRuntime::barrier_global() {
  const int p = node_count();
  if (p == 1) return;
  const uint64_t seq = token_seq_++;
  uint32_t round = 0;
  for (int offset = 1; offset < p; offset *= 2, ++round) {
    token_send((node_ + offset) % p, seq, round, {});
    (void)token_recv((node_ - offset + p) % p, seq, round);
  }
}

std::vector<Bytes> NodeRuntime::allgather_bytes(Bytes mine) {
  const int p = node_count();
  std::vector<Bytes> blocks(static_cast<size_t>(p));
  blocks[static_cast<size_t>(node_)] = std::move(mine);
  if (p == 1) return blocks;
  const uint64_t seq = token_seq_++;
  if (plan_allgather(shared_.machine().config().network, p,
                     cores_per_node())
          .direct) {
    const uint64_t kind = detail::rt_kind(detail::RtMsg::kToken);
    const Bytes& own = blocks[static_cast<size_t>(node_)];
    std::vector<Outgoing> batch;
    batch.reserve(static_cast<size_t>(p - 1));
    for (int k = 1; k < p; ++k) {
      batch.push_back({(node_ + k) % p, kind, token_bytes(seq, 0, own)});
    }
    send_fanout(std::move(batch));
    for (int k = 1; k < p; ++k) {
      const int src = (node_ - k + p) % p;
      blocks[static_cast<size_t>(src)] = token_recv(src, seq, 0);
    }
    return blocks;
  }
  // Bruck dissemination (offsets 1, 2, 4, ...): each round's token carries
  // the contributions its receiver is still missing. After round r every
  // node holds the blocks of ranks node_, node_-1, ..., node_-(2^(r+1)-1).
  int have = 1;
  uint32_t round = 0;
  for (int offset = 1; offset < p; offset *= 2, ++round) {
    const int send_count = std::min(have, p - have);
    ByteWriter w;
    w.put(static_cast<uint32_t>(send_count));
    for (int b = 0; b < send_count; ++b) {
      w.put_span(std::span<const std::byte>(
          blocks[static_cast<size_t>((node_ - b + p) % p)]));
    }
    token_send((node_ + offset) % p, seq, round, std::move(w).take());
    const int peer = (node_ - offset + p) % p;
    const Bytes in = token_recv(peer, seq, round);
    ByteReader r(in);
    const auto count = r.get<uint32_t>();
    PPM_CHECK(static_cast<int>(count) == send_count,
              "allgather out of lockstep (round %u: got %u blocks, "
              "expected %d)",
              round, count, send_count);
    for (uint32_t b = 0; b < count; ++b) {
      blocks[static_cast<size_t>((peer - static_cast<int>(b) + p) % p)] =
          r.get_vector<std::byte>();
    }
    have += send_count;
  }
  return blocks;
}

uint32_t NodeRuntime::reduce_scatter_sum(const std::vector<uint32_t>& counts,
                                         std::vector<Bytes>* blobs) {
  const int p = node_count();
  PPM_CHECK(counts.size() == static_cast<size_t>(p),
            "reduce_scatter_sum needs one count per node (%zu for %d)",
            counts.size(), p);
  PPM_CHECK(blobs == nullptr || blobs->size() == static_cast<size_t>(p),
            "reduce_scatter_sum needs a blob slot per node (%zu for %d)",
            blobs == nullptr ? 0 : blobs->size(), p);
  // part[d] is the partial sum for node node_+d.
  std::vector<uint32_t> part(static_cast<size_t>(p));
  for (int d = 0; d < p; ++d) {
    part[static_cast<size_t>(d)] = counts[static_cast<size_t>((node_ + d) % p)];
  }
  if (p == 1) return part[0];
  const uint64_t seq = token_seq_++;
  int offset = 1;
  while (offset * 2 < p) offset *= 2;
  // Blobs travel the same rounds as a dissemination allgather with the
  // offsets reversed: `held` lists the distances s of the blobs this node
  // holds (node node_−s's), the same list on every node. A round hands
  // node node_+offset the blobs at distance offset+s < p from it, so
  // after the round with offset 1 every node holds all p, each received
  // once, tagged with its node so the receiver places it.
  std::vector<int> held = {0};
  std::vector<bool> have(static_cast<size_t>(p), false);
  have[static_cast<size_t>(node_)] = true;
  // Bruck dissemination run backwards (offsets ..., 4, 2, 1): each round
  // hands the partials for nodes node_+offset .. node_+live−1 to node
  // node_+offset, which folds them into its own partials for the same
  // nodes, so only the first `offset` partials stay live. After the round
  // with offset 1, part[0] holds every node's count for this node.
  int live = p;
  for (uint32_t round = 0; offset >= 1; offset /= 2, ++round) {
    ByteWriter w;
    for (int d = offset; d < live; ++d) w.put(part[static_cast<size_t>(d)]);
    size_t passed = 0;
    while (passed < held.size() && held[passed] + offset < p) ++passed;
    if (blobs != nullptr) {
      // varint blob count, then per blob: varint node, varint size, bytes.
      const auto put_varint = [&w](uint64_t v) {
        std::byte buf[detail::kMaxVarintBytes];
        w.put_raw(buf, static_cast<size_t>(detail::put_varint(buf, v) - buf));
      };
      put_varint(passed);
      for (size_t k = 0; k < passed; ++k) {
        const int m = (node_ - held[k] + p) % p;
        const Bytes& b = (*blobs)[static_cast<size_t>(m)];
        put_varint(static_cast<uint64_t>(m));
        put_varint(b.size());
        w.put_raw(b.data(), b.size());
      }
    }
    token_send((node_ + offset) % p, seq, round, std::move(w).take());
    const Bytes in = token_recv((node_ - offset + p) % p, seq, round);
    ByteReader r(in);
    for (int d = 0; d < live - offset; ++d) {
      part[static_cast<size_t>(d)] += r.get<uint32_t>();
    }
    live = offset;
    if (blobs == nullptr) continue;
    const auto rest = r.view(r.remaining());
    const std::byte* at = rest.data();
    const std::byte* const end = at + rest.size();
    uint64_t count = 0;
    at = detail::get_varint(at, end, &count);
    for (uint64_t k = 0; k < count; ++k) {
      uint64_t m = 0, size = 0;
      at = detail::get_varint(at, end, &m);
      PPM_CHECK(m < static_cast<uint64_t>(p), "census blob for node %llu of %d",
                static_cast<unsigned long long>(m), p);
      PPM_CHECK(!have[m], "census carries node %llu's blob twice",
                static_cast<unsigned long long>(m));
      have[m] = true;
      at = detail::get_varint(at, end, &size);
      PPM_CHECK(size <= static_cast<uint64_t>(end - at),
                "census blob of node %llu runs past its token",
                static_cast<unsigned long long>(m));
      (*blobs)[m].assign(at, at + size);
      at += size;
    }
    for (size_t k = 0; k < passed; ++k) held.push_back(held[k] + offset);
    std::sort(held.begin(), held.end());
  }
  if (blobs != nullptr) {
    for (int m = 0; m < p; ++m) {
      PPM_CHECK(have[static_cast<size_t>(m)],
                "census ended without node %d's blob", m);
    }
  }
  return part[0];
}

Bytes NodeRuntime::broadcast_bytes(Bytes data, int root) {
  const int p = node_count();
  PPM_CHECK(root >= 0 && root < p, "broadcast root %d outside %d nodes", root,
            p);
  if (p == 1) return data;
  const uint64_t seq = token_seq_++;
  // Binomial tree over ranks relative to the root: a node receives once,
  // from the rank that clears its lowest set bit, then forwards to each
  // rank that sets one of the bits below it.
  const int rel = (node_ - root + p) % p;
  int mask = 1;
  for (; mask < p; mask *= 2) {
    if ((rel & mask) != 0) {
      data = token_recv((node_ - mask + p) % p, seq, 0);
      break;
    }
  }
  for (mask /= 2; mask > 0; mask /= 2) {
    if (rel + mask < p) token_send((node_ + mask) % p, seq, 0, data);
  }
  return data;
}

}  // namespace ppm

// MPI-like message-passing library over the simulated fabric.
//
// One rank per simulated core (rank = node * cores_per_node + core), which
// mirrors how MPI ran on the paper's Cray XT4: processes on cores of the
// same node still exchange data by message passing, paying per-message
// software cost even though no wire is involved.
//
// The library provides blocking and non-blocking point-to-point operations
// with MPI-style (source, tag) matching including wildcards, and the
// collectives the baseline applications need (barrier, bcast, reduce,
// allreduce, gather, allgather(v), alltoall(v), scan). Sends are eager and
// buffered: send() completes locally once the payload is handed to the
// fabric, so the usual "both sides send then recv" exchange patterns do not
// deadlock.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "cluster/machine.hpp"
#include "net/fabric.hpp"
#include "util/byte_buffer.hpp"

namespace ppm::mp {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;
/// User tags must be in [0, kMaxUserTag]; higher values are reserved for
/// collective traffic.
inline constexpr int kMaxUserTag = (1 << 30) - 1;

struct Status {
  int source = kAnySource;
  int tag = kAnyTag;
  size_t bytes = 0;
};

class Comm;

/// Per-machine message-passing state shared by all ranks.
class World {
 public:
  explicit World(cluster::Machine& machine);

  int size() const { return size_; }
  cluster::Machine& machine() { return machine_; }

  /// Rank handle for the calling fiber. The caller must be the fiber that
  /// owns this rank's endpoint (one consumer per rank).
  Comm comm(int rank);
  Comm comm_at(const cluster::Place& place);

  int rank_of(const cluster::Place& place) const {
    return place.node * machine_.cores_per_node() + place.core;
  }
  int node_of(int rank) const { return rank / machine_.cores_per_node(); }
  int core_of(int rank) const { return rank % machine_.cores_per_node(); }

 private:
  friend class Comm;
  struct RankState {
    std::deque<net::Message> unexpected;
    uint64_t collective_seq = 0;
  };

  cluster::Machine& machine_;
  int size_;
  std::vector<RankState> ranks_;
};

/// Non-blocking operation handle. Send requests complete immediately
/// (eager buffered); receive requests complete in wait().
class Request {
 public:
  bool valid() const { return active_; }

 private:
  friend class Comm;
  bool active_ = false;
  bool is_recv_ = false;
  int peer_ = kAnySource;
  int tag_ = kAnyTag;
};

/// A rank's handle on the world communicator (every rank of the machine;
/// there are no sub-communicators).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return world_->size(); }

  // ---- Point-to-point ----

  /// Blocking (buffered-eager) send of raw bytes with a user tag.
  void send(int dst, int tag, Bytes data);

  /// Blocking receive matching (src, tag); wildcards allowed.
  Bytes recv(int src = kAnySource, int tag = kAnyTag,
             Status* status = nullptr);

  /// Non-blocking send/recv.
  Request isend(int dst, int tag, Bytes data);
  Request irecv(int src = kAnySource, int tag = kAnyTag);
  Bytes wait(Request& request, Status* status = nullptr);
  void waitall(std::span<Request> requests);

  /// Non-blocking probe for a matching message.
  bool iprobe(int src = kAnySource, int tag = kAnyTag,
              Status* status = nullptr);

  // ---- Typed convenience wrappers ----

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_vec(int dst, int tag, std::span<const T> values) {
    ByteWriter w;
    w.put_span(values);
    send(dst, tag, std::move(w).take());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void send_value(int dst, int tag, const T& value) {
    send_vec<T>(dst, tag, std::span<const T>(&value, 1));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> recv_vec(int src = kAnySource, int tag = kAnyTag,
                          Status* status = nullptr) {
    const Bytes data = recv(src, tag, status);
    ByteReader r(data);
    return r.get_vector<T>();
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T recv_value(int src = kAnySource, int tag = kAnyTag,
               Status* status = nullptr) {
    auto v = recv_vec<T>(src, tag, status);
    PPM_CHECK(v.size() == 1, "recv_value: expected 1 element, got %zu",
              v.size());
    return v[0];
  }

  // ---- Collectives (must be called by all ranks, in the same order) ----

  void barrier();

  template <typename T>
  void bcast(std::vector<T>& data, int root);

  /// Element-wise reduction of equally-sized vectors onto `root`.
  template <typename T, typename Op>
  std::vector<T> reduce(std::span<const T> local, Op op, int root);

  template <typename T, typename Op>
  std::vector<T> allreduce(std::span<const T> local, Op op);

  template <typename T, typename Op>
  T allreduce_value(T value, Op op) {
    return allreduce(std::span<const T>(&value, 1), op)[0];
  }

  /// Gather variable-length per-rank blocks onto `root`; result indexed by
  /// source rank (empty on non-roots).
  template <typename T>
  std::vector<std::vector<T>> gatherv(std::span<const T> local, int root);

  /// Ring allgather of variable-length blocks; result indexed by rank.
  template <typename T>
  std::vector<std::vector<T>> allgatherv(std::span<const T> local);

  /// Personalized all-to-all: blocks[d] goes to rank d; returns blocks
  /// received, indexed by source rank.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(
      const std::vector<std::vector<T>>& blocks);

  /// Inclusive prefix combine over ranks (chain algorithm).
  template <typename T, typename Op>
  T scan_inclusive(T value, Op op);

 private:
  friend class World;
  Comm(World* world, int rank) : world_(world), rank_(rank) {}

  void send_raw(int dst, uint64_t kind, Bytes data);
  Bytes recv_kind(int src, uint64_t kind);  // exact-kind matching receive
  net::Endpoint& endpoint();
  World::RankState& state();
  bool matches(const net::Message& m, int world_cores, int src,
               int tag) const;

  /// Per-call collective kind: unique (sequence, round) pair with the
  /// collective flag set. All ranks call collectives in the same order, so
  /// sequences agree across ranks.
  uint64_t collective_kind(uint64_t seq, uint32_t round) const;
  uint64_t next_collective_seq();

  World* world_;
  int rank_;
};

}  // namespace ppm::mp

#include "mp/collectives.inl"

// Simulated cluster interconnect.
//
// The fabric connects (node, port) endpoints. Port assignment is owned by
// the layers above: the message-passing library uses one port per simulated
// core (one "rank" per core, as on the paper's Cray XT4), and the PPM
// runtime uses one dedicated service port per node.
//
// Timing follows a LogGP-style model:
//   * per-message sender software overhead (charged to the sending fiber's
//     CPU via sim::advance),
//   * egress serialization — a node's NIC transmits one message at a time,
//     occupying the link for bytes/bandwidth. This is what makes many cores
//     of one node *contend* for the network, an effect the paper's runtime
//     explicitly schedules around;
//   * wire latency;
//   * ingress serialization at the destination NIC, claimed in arrival
//     order by the destination node's engine;
//   * per-message receiver software overhead.
// Messages between endpoints of the same node travel a separate intra-node
// fabric (lower latency, higher bandwidth, no NIC occupancy) modeling
// shared-memory transports of MPI implementations — still paying a
// per-message software cost, which the paper calls out (its SmartMap
// footnote).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/engine.hpp"
#include "sim/sync.hpp"
#include "util/byte_buffer.hpp"
#include "util/stats.hpp"

namespace ppm::trace {
class Recorder;
}

namespace ppm::net {

struct LinkParams {
  int64_t latency_ns = 5'000;        // wire latency per message
  double bytes_per_ns = 2.0;          // bandwidth (2 bytes/ns = 2 GB/s)
  int64_t send_overhead_ns = 500;     // sender-side software cost
  int64_t recv_overhead_ns = 500;     // receiver-side software cost
};

/// Deterministic message-level fault injection (used by ppm::stress).
///
/// With delay_jitter on, a message may be delayed by an extra amount, and
/// endpoints observe arrivals in delivery-time order: messages from
/// different sources — and different ports of one source — reorder freely
/// against each other. Delivery between one (src node, dst node, dst port)
/// pair stays FIFO (jittered times are clamped to the pair's previous
/// one), matching the in-order-per-pair contract real transports give and
/// the runtime's bundle fragment protocol assumes. Each delay is a pure
/// hash of (seed, src, dst, dst port, per-pair seq), so a faulty schedule
/// replays exactly at any host-thread count.
struct FaultConfig {
  bool delay_jitter = false;
  uint64_t seed = 0;
  double delay_probability = 0.25;      // chance a message is delayed
  int64_t max_extra_delay_ns = 100'000; // uniform extra delay in [0, max]
  /// Test-only: shift every inter-node arrival by this many ns (may be
  /// negative) AFTER jitter and the pairwise-FIFO clamp. A negative warp
  /// can push an arrival below the window scheduler's conservative horizon;
  /// the exchange step then re-windows it (clamps the arrival up to the
  /// completed horizon, counting FabricStats::rewindowed) instead of ever
  /// delivering into an engine's past. Exercised by tests/sim_parallel_
  /// test.cpp; leave at 0 otherwise.
  int64_t test_arrival_warp_ns = 0;
};

struct FabricConfig {
  int num_nodes = 1;
  int ports_per_node = 1;
  LinkParams network{};  // inter-node path (through the NICs)
  LinkParams intranode{.latency_ns = 400,
                       .bytes_per_ns = 6.0,
                       .send_overhead_ns = 150,
                       .recv_overhead_ns = 150};
  FaultConfig faults{};
};

struct Message {
  int32_t src_node = 0;
  int32_t src_port = 0;
  int32_t dst_node = 0;
  int32_t dst_port = 0;
  uint64_t kind = 0;  // multiplexing tag interpreted by the layer above
  Bytes payload;
};

/// Aggregate traffic accounting, queryable by benches and tests.
struct FabricStats {
  Counter inter_messages;
  Counter inter_bytes;
  Counter intra_messages;
  Counter intra_bytes;

  /// Cross-engine arrivals whose (fault-warped) time fell below the
  /// completed window horizon and were clamped up to it by the exchange
  /// step ("re-windowed"). Always 0 whenever
  /// FaultConfig::test_arrival_warp_ns >= 0.
  uint64_t rewindowed = 0;

  void reset() {
    inter_messages.reset();
    inter_bytes.reset();
    intra_messages.reset();
    intra_bytes.reset();
    rewindowed = 0;
  }
};

/// Receiving side of a (node, port) address: a FIFO of delivered messages.
class Endpoint {
 public:
  Endpoint(sim::Engine& engine, int node, int port)
      : node_(node), port_(port), inbox_(engine) {}

  /// Blocking receive (fiber only).
  Message recv() { return inbox_.pop(); }

  /// Non-blocking receive.
  bool try_recv(Message* out) { return inbox_.try_pop(out); }

  bool has_pending() const { return !inbox_.empty(); }
  int node() const { return node_; }
  int port() const { return port_; }

 private:
  friend class Fabric;
  int node_;
  int port_;
  sim::Channel<Message> inbox_;
};

class Fabric {
 public:
  /// One engine per node (docs/SIM.md): node i's endpoints block on
  /// engines[i], and inter-node sends queue into per-source outboxes that
  /// exchange_cross_traffic() drains at window boundaries. Requires
  /// engines.size() == num_nodes and a positive network latency (it is
  /// the window scheduler's lookahead).
  Fabric(const std::vector<sim::Engine*>& engines, FabricConfig config);

  /// Send from a fiber of the source node's engine. Charges sender
  /// software overhead to the calling fiber. Intra-node messages are
  /// scheduled into the destination endpoint at once; inter-node ones pass
  /// the source's egress NIC now and the destination's ingress NIC after
  /// the next exchange.
  void send(Message msg);

  Endpoint& endpoint(int node, int port);

  const FabricConfig& config() const { return config_; }
  const FabricStats& stats() const { return stats_; }
  FabricStats& mutable_stats() { return stats_; }

  /// Virtual time at which a `bytes`-sized inter-node message completes,
  /// ignoring contention — useful for tests and analytic baselines.
  int64_t uncontended_network_time_ns(size_t bytes) const;

  /// Minimum timing distance between a cross-node send and its earliest
  /// possible arrival at the destination NIC: the window scheduler's
  /// lookahead. Fault jitter only ever delays messages, so the wire
  /// latency is the floor even for faulted runs.
  int64_t min_cross_latency_ns() const { return config_.network.latency_ns; }

  /// Move every outbox message into its destination engine's event queue,
  /// in one globally sorted deterministic order ((arrival, src, src port,
  /// dst, dst port, per-src seq)). Arrivals below `horizon_ns` — possible
  /// only with a negative test warp — are clamped up to it (counted in
  /// FabricStats::rewindowed), never reordered. Single-threaded: call only
  /// between windows. Returns the number of messages injected.
  uint64_t exchange_cross_traffic(int64_t horizon_ns);

  /// Tracing: per-node recorders, indexed by node id. A message's
  /// kMsgSend span is recorded on the track of the node whose engine
  /// computes the final delivery time — the source for intra-node
  /// traffic, the DESTINATION for cross-node traffic (the ingress stage
  /// resolves there; recording anywhere else would race). Pass an empty
  /// vector to detach.
  void set_node_trace_recorders(std::vector<trace::Recorder*> recorders);

 private:
  /// One cross-engine message parked between windows.
  struct CrossMsg {
    int64_t arrival_ns;  // first byte at the destination NIC
    int64_t send_ns;     // trace attribution
    int64_t stretch_ns;  // fault-added delay (trace attribution)
    uint64_t seq;        // per-source sequence, breaks remaining ties
    Message msg;
  };

  /// Fault jitter of one message (see FaultConfig): a pure hash, so the
  /// delay cannot depend on host-thread interleaving.
  int64_t jitter_ns(const Message& msg, uint64_t pair_seq) const;
  void record_msg_span(trace::Recorder* rec, const Message& msg, bool intra,
                       int64_t t_send, size_t bytes, int64_t deliver_ns,
                       int64_t stretch_ns);

  // Everything below is either owned by one node's engine (outbox_/
  // cross_seq_/pair_*/egress indexed by src, ingress indexed by dst) or
  // touched only at barriers (exchange scratch).
  FabricConfig config_;
  std::vector<sim::Engine*> engines_;                 // per node
  std::vector<std::unique_ptr<Endpoint>> endpoints_;  // node-major
  std::vector<int64_t> egress_free_ns_;               // per node
  std::vector<int64_t> ingress_free_ns_;              // per node
  FabricStats stats_;
  std::vector<std::vector<CrossMsg>> outbox_;  // per src node
  std::vector<uint64_t> cross_seq_;            // per src node
  // Per-source maps: (dst node, dst port) -> fault floor / pair seq. The
  // floor keeps each pair FIFO under jitter.
  std::vector<std::unordered_map<uint64_t, int64_t>> pair_floor_;
  std::vector<std::unordered_map<uint64_t, uint64_t>> pair_seq_;
  std::vector<trace::Recorder*> tracers_;  // per node (or empty)
  std::vector<CrossMsg> exchange_scratch_;
};

}  // namespace ppm::net

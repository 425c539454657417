#include "net/fabric.hpp"

#include <algorithm>
#include <cmath>

#include "trace/recorder.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ppm::net {

namespace {
int64_t transmission_ns(size_t bytes, const LinkParams& link) {
  return static_cast<int64_t>(
      std::llround(static_cast<double>(bytes) / link.bytes_per_ns));
}
}  // namespace

Fabric::Fabric(const std::vector<sim::Engine*>& engines, FabricConfig config)
    : config_(config), engines_(engines) {
  PPM_CHECK(config_.num_nodes > 0, "fabric needs at least one node");
  PPM_CHECK(static_cast<int>(engines.size()) == config_.num_nodes,
            "fabric needs one engine per node (%zu vs %d)", engines.size(),
            config_.num_nodes);
  PPM_CHECK(config_.ports_per_node > 0, "fabric needs at least one port");
  PPM_CHECK(config_.network.bytes_per_ns > 0 &&
                config_.intranode.bytes_per_ns > 0,
            "link bandwidth must be positive");
  PPM_CHECK(config_.network.latency_ns > 0,
            "network latency must be positive: it is the window "
            "scheduler's lookahead (got %lld ns)",
            static_cast<long long>(config_.network.latency_ns));
  endpoints_.reserve(
      static_cast<size_t>(config_.num_nodes * config_.ports_per_node));
  for (int n = 0; n < config_.num_nodes; ++n) {
    for (int p = 0; p < config_.ports_per_node; ++p) {
      endpoints_.push_back(std::make_unique<Endpoint>(
          *engines_[static_cast<size_t>(n)], n, p));
    }
  }
  const auto nodes = static_cast<size_t>(config_.num_nodes);
  egress_free_ns_.assign(nodes, 0);
  ingress_free_ns_.assign(nodes, 0);
  outbox_.resize(nodes);
  cross_seq_.assign(nodes, 0);
  pair_floor_.resize(nodes);
  pair_seq_.resize(nodes);
}

void Fabric::set_node_trace_recorders(
    std::vector<trace::Recorder*> recorders) {
  PPM_CHECK(recorders.empty() ||
                static_cast<int>(recorders.size()) == config_.num_nodes,
            "need one trace recorder per node");
  tracers_ = std::move(recorders);
}

Endpoint& Fabric::endpoint(int node, int port) {
  PPM_CHECK(node >= 0 && node < config_.num_nodes, "bad node %d", node);
  PPM_CHECK(port >= 0 && port < config_.ports_per_node, "bad port %d", port);
  return *endpoints_[static_cast<size_t>(node * config_.ports_per_node +
                                         port)];
}

void Fabric::record_msg_span(trace::Recorder* rec, const Message& msg,
                             bool intra, int64_t t_send, size_t bytes,
                             int64_t deliver_ns, int64_t stretch_ns) {
  // One span per message: send time -> (possibly fault-stretched)
  // delivery, with the stretch attributed separately in aux. The kind's
  // top byte is the layer-above's message class (RtMsg for the PPM
  // runtime; the mp library tags differently).
  trace::Event e;
  e.t_ns = t_send;
  e.kind = trace::EventKind::kMsgSend;
  e.flags = intra ? trace::kFlagBit0 : 0;
  e.core = static_cast<uint16_t>(msg.src_node);
  e.a = (static_cast<uint64_t>(static_cast<uint16_t>(msg.src_node)) << 48) |
        (static_cast<uint64_t>(static_cast<uint16_t>(msg.src_port)) << 32) |
        (static_cast<uint64_t>(static_cast<uint16_t>(msg.dst_node)) << 16) |
        static_cast<uint64_t>(static_cast<uint16_t>(msg.dst_port));
  e.b = ((msg.kind >> 56) << 56) |
        (static_cast<uint64_t>(bytes) & ((uint64_t{1} << 56) - 1));
  e.c = static_cast<uint64_t>(deliver_ns);
  e.aux =
      static_cast<uint32_t>(std::min<int64_t>(stretch_ns, UINT32_MAX));
  rec->record(e);
}

int64_t Fabric::jitter_ns(const Message& msg, uint64_t pair_seq) const {
  const FaultConfig& faults = config_.faults;
  if (faults.max_extra_delay_ns <= 0) return 0;
  // Two independent hash draws: one decides, one sizes. Keyed so every
  // (pair, seq) gets a fresh value and the stream is identical for any
  // host-thread count.
  const uint64_t key =
      mix64(faults.seed ^ 0xfab51c0ffee5eedULL) ^
      mix64((static_cast<uint64_t>(msg.src_node) << 42) ^
            (static_cast<uint64_t>(msg.dst_node) << 21) ^
            (static_cast<uint64_t>(msg.dst_port) << 1)) ^
      mix64(pair_seq);
  const uint64_t decide = mix64(key);
  // Compare a uniform double in [0, 1) against delay_probability.
  const double u =
      static_cast<double>(decide >> 11) * (1.0 / 9007199254740992.0);
  if (u >= faults.delay_probability) return 0;
  return static_cast<int64_t>(
      mix64(key ^ 0x9e3779b97f4a7c15ULL) %
      (static_cast<uint64_t>(faults.max_extra_delay_ns) + 1));
}

void Fabric::send(Message msg) {
  sim::Engine* eng = sim::current_engine();
  PPM_CHECK(eng != nullptr && eng->on_fiber() && msg.src_node >= 0 &&
                msg.src_node < config_.num_nodes &&
                eng == engines_[static_cast<size_t>(msg.src_node)],
            "Fabric::send must run on a fiber of the source node's engine "
            "(src %d)",
            msg.src_node);
  Endpoint& dst = endpoint(msg.dst_node, msg.dst_port);  // validates address
  const size_t bytes = msg.payload.size();
  const bool intra = (msg.src_node == msg.dst_node);
  const LinkParams& link = intra ? config_.intranode : config_.network;
  const auto src = static_cast<size_t>(msg.src_node);
  trace::Recorder* src_tracer = tracers_.empty() ? nullptr : tracers_[src];

  eng->advance_ns(link.send_overhead_ns);
  const int64_t t_send = eng->now_ns();
  const FaultConfig& faults = config_.faults;
  const uint64_t pair_key = (static_cast<uint64_t>(msg.src_node) << 40) |
                            (static_cast<uint64_t>(msg.dst_node) << 20) |
                            static_cast<uint64_t>(msg.dst_port);

  if (intra) {
    // Shared-memory transport: per-message cost + copy time, no NIC.
    // Same-node traffic never crosses an engine boundary.
    int64_t deliver_ns = t_send + link.latency_ns +
                         transmission_ns(bytes, link) +
                         link.recv_overhead_ns;
    const int64_t modeled_deliver_ns = deliver_ns;
    stats_.intra_messages.add();
    stats_.intra_bytes.add(bytes);
    if (faults.delay_jitter) {
      deliver_ns += jitter_ns(msg, pair_seq_[src][pair_key]++);
      int64_t& floor = pair_floor_[src][pair_key];
      deliver_ns = std::max(deliver_ns, floor);
      floor = deliver_ns;
    }
    if (src_tracer != nullptr) [[unlikely]] {
      record_msg_span(src_tracer, msg, /*intra=*/true, t_send, bytes,
                      deliver_ns, deliver_ns - modeled_deliver_ns);
    }
    if (!faults.delay_jitter) {
      dst.inbox_.push_at(deliver_ns, std::move(msg));
      return;
    }
    // Enqueue AT the jittered delivery time: endpoint inboxes pop in push
    // order, so messages of different pairs reorder by their delays.
    eng->at(deliver_ns, [&dst, deliver_ns, m = std::move(msg)]() mutable {
      dst.inbox_.push_at(deliver_ns, std::move(m));
    });
    return;
  }

  // Cross-engine: run the source-owned stages (egress serialization, wire
  // latency, fault jitter) now, park the message in this node's outbox.
  // The destination-owned stages (ingress serialization, receive overhead)
  // run on the destination engine after the barrier injection.
  const int64_t tx = transmission_ns(bytes, link);
  const int64_t tx_start = std::max(t_send, egress_free_ns_[src]);
  egress_free_ns_[src] = tx_start + tx;
  int64_t arrival_ns = tx_start + link.latency_ns;
  const int64_t modeled_arrival_ns = arrival_ns;
  stats_.inter_messages.add();
  stats_.inter_bytes.add(bytes);
  if (faults.delay_jitter) {
    arrival_ns += jitter_ns(msg, pair_seq_[src][pair_key]++);
    int64_t& floor = pair_floor_[src][pair_key];
    arrival_ns = std::max(arrival_ns, floor);
    floor = arrival_ns;
  }
  // The test warp shifts every arrival of a pair equally, so pairwise
  // FIFO survives it (and survives a later uniform clamp to the horizon).
  arrival_ns += faults.test_arrival_warp_ns;
  outbox_[src].push_back(CrossMsg{arrival_ns, t_send,
                                  arrival_ns - modeled_arrival_ns,
                                  cross_seq_[src]++, std::move(msg)});
}

uint64_t Fabric::exchange_cross_traffic(int64_t horizon_ns) {
  exchange_scratch_.clear();
  for (auto& box : outbox_) {
    for (CrossMsg& cm : box) exchange_scratch_.push_back(std::move(cm));
    box.clear();
  }
  if (exchange_scratch_.empty()) return 0;
  // The deterministic merge order: time first, then full source/
  // destination addressing, then the per-source sequence number.
  // Injection order fixes each destination engine's event sequence
  // numbering, so any host-thread count replays the same simulation.
  std::sort(exchange_scratch_.begin(), exchange_scratch_.end(),
            [](const CrossMsg& a, const CrossMsg& b) {
              if (a.arrival_ns != b.arrival_ns)
                return a.arrival_ns < b.arrival_ns;
              if (a.msg.src_node != b.msg.src_node)
                return a.msg.src_node < b.msg.src_node;
              if (a.msg.src_port != b.msg.src_port)
                return a.msg.src_port < b.msg.src_port;
              if (a.msg.dst_node != b.msg.dst_node)
                return a.msg.dst_node < b.msg.dst_node;
              if (a.msg.dst_port != b.msg.dst_port)
                return a.msg.dst_port < b.msg.dst_port;
              return a.seq < b.seq;
            });
  const uint64_t injected = exchange_scratch_.size();
  const LinkParams link = config_.network;
  for (CrossMsg& cm : exchange_scratch_) {
    int64_t arrival = cm.arrival_ns;
    if (arrival < horizon_ns) {
      // Only a negative test warp can get here (lookahead == the wire
      // latency floor otherwise): re-window instead of delivering into
      // the destination's past.
      arrival = horizon_ns;
      ++stats_.rewindowed;
    }
    const auto dstn = static_cast<size_t>(cm.msg.dst_node);
    sim::Engine* deng = engines_[dstn];
    Endpoint& ep = endpoint(cm.msg.dst_node, cm.msg.dst_port);
    const int64_t tx = transmission_ns(cm.msg.payload.size(), link);
    trace::Recorder* dst_tracer =
        tracers_.empty() ? nullptr : tracers_[dstn];
    deng->at(arrival, [this, &ep, dstn, arrival, tx, dst_tracer,
                       recv_overhead = link.recv_overhead_ns,
                       send_ns = cm.send_ns, stretch = cm.stretch_ns,
                       m = std::move(cm.msg)]() mutable {
      // Destination-owned ingress NIC serialization, in arrival order.
      const int64_t rx_start = std::max(arrival, ingress_free_ns_[dstn]);
      const int64_t rx_end = rx_start + tx;
      ingress_free_ns_[dstn] = rx_end;
      const int64_t deliver_ns = rx_end + recv_overhead;
      if (dst_tracer != nullptr) [[unlikely]] {
        record_msg_span(dst_tracer, m, /*intra=*/false, send_ns,
                        m.payload.size(), deliver_ns, stretch);
      }
      ep.inbox_.push_at(deliver_ns, std::move(m));
    });
  }
  exchange_scratch_.clear();
  return injected;
}

int64_t Fabric::uncontended_network_time_ns(size_t bytes) const {
  const LinkParams& link = config_.network;
  return link.send_overhead_ns + link.latency_ns +
         transmission_ns(bytes, link) + link.recv_overhead_ns;
}

}  // namespace ppm::net

#include "mp/comm.hpp"

#include "util/error.hpp"

namespace ppm::mp {

namespace {
// Message kind layout:
//   bit 63             collective flag
//   p2p:  bits 31..0   user tag
//   coll: bits 55..24  sequence, bits 23..0 round
// (bits 62..56 stay clear: the fabric's trace keeps the top byte as the
// message class). alltoallv and allgatherv run p−1 rounds, so 24 round
// bits carry them to 2^24 ranks.
constexpr uint64_t kCollectiveFlag = 1ULL << 63;
constexpr int kRoundBits = 24;
}  // namespace

World::World(cluster::Machine& machine)
    : machine_(machine), size_(machine.config().total_cores()) {
  ranks_.resize(static_cast<size_t>(size_));
}

Comm World::comm(int rank) {
  PPM_CHECK(rank >= 0 && rank < size_, "bad rank %d (world size %d)", rank,
            size_);
  return Comm(this, rank);
}

Comm World::comm_at(const cluster::Place& place) {
  return comm(rank_of(place));
}

net::Endpoint& Comm::endpoint() {
  return world_->machine_.fabric().endpoint(world_->node_of(rank_),
                                            world_->core_of(rank_));
}

World::RankState& Comm::state() {
  return world_->ranks_[static_cast<size_t>(rank_)];
}

void Comm::send(int dst, int tag, Bytes data) {
  PPM_CHECK(tag >= 0 && tag <= kMaxUserTag, "bad user tag %d", tag);
  PPM_CHECK(dst >= 0 && dst < size(), "bad destination rank %d", dst);
  send_raw(dst, static_cast<uint64_t>(tag), std::move(data));
}

void Comm::send_raw(int dst, uint64_t kind, Bytes data) {
  PPM_CHECK(dst >= 0 && dst < world_->size(), "bad destination rank %d",
            dst);
  net::Message m;
  m.src_node = world_->node_of(rank_);
  m.src_port = world_->core_of(rank_);
  m.dst_node = world_->node_of(dst);
  m.dst_port = world_->core_of(dst);
  m.kind = kind;
  m.payload = std::move(data);
  world_->machine_.fabric().send(std::move(m));
}

bool Comm::matches(const net::Message& m, int world_cores, int src,
                   int tag) const {
  if ((m.kind & kCollectiveFlag) != 0) return false;  // p2p matching only
  const int msg_src = m.src_node * world_cores + m.src_port;
  const int msg_tag = static_cast<int>(m.kind & 0xffffffffULL);
  return (src == kAnySource || src == msg_src) &&
         (tag == kAnyTag || tag == msg_tag);
}

Bytes Comm::recv(int src, int tag, Status* status) {
  PPM_CHECK(src == kAnySource || (src >= 0 && src < size()),
            "bad source rank %d", src);
  PPM_CHECK(tag == kAnyTag || (tag >= 0 && tag <= kMaxUserTag),
            "bad user tag %d", tag);
  const int cores = world_->machine_.cores_per_node();
  auto& unexpected = state().unexpected;

  auto finish = [&](net::Message m) -> Bytes {
    if (status != nullptr) {
      status->source = m.src_node * cores + m.src_port;
      status->tag = static_cast<int>(m.kind & 0xffffffffULL);
      status->bytes = m.payload.size();
    }
    return std::move(m.payload);
  };

  for (auto it = unexpected.begin(); it != unexpected.end(); ++it) {
    if (matches(*it, cores, src, tag)) {
      net::Message m = std::move(*it);
      unexpected.erase(it);
      return finish(std::move(m));
    }
  }
  for (;;) {
    net::Message m = endpoint().recv();
    if (matches(m, cores, src, tag)) return finish(std::move(m));
    unexpected.push_back(std::move(m));
  }
}

Bytes Comm::recv_kind(int src, uint64_t kind) {
  auto& unexpected = state().unexpected;
  for (auto it = unexpected.begin(); it != unexpected.end(); ++it) {
    const int msg_src =
        it->src_node * world_->machine_.cores_per_node() + it->src_port;
    if (it->kind == kind && msg_src == src) {
      Bytes payload = std::move(it->payload);
      unexpected.erase(it);
      return payload;
    }
  }
  for (;;) {
    net::Message m = endpoint().recv();
    const int msg_src =
        m.src_node * world_->machine_.cores_per_node() + m.src_port;
    if (m.kind == kind && msg_src == src) return std::move(m.payload);
    unexpected.push_back(std::move(m));
  }
}

Request Comm::isend(int dst, int tag, Bytes data) {
  // Eager buffered protocol: hand to the fabric now; complete immediately.
  send(dst, tag, std::move(data));
  Request r;
  r.active_ = true;
  r.is_recv_ = false;
  return r;
}

Request Comm::irecv(int src, int tag) {
  Request r;
  r.active_ = true;
  r.is_recv_ = true;
  r.peer_ = src;
  r.tag_ = tag;
  return r;
}

Bytes Comm::wait(Request& request, Status* status) {
  PPM_CHECK(request.active_, "wait on an inactive request");
  request.active_ = false;
  if (!request.is_recv_) return {};
  return recv(request.peer_, request.tag_, status);
}

void Comm::waitall(std::span<Request> requests) {
  for (Request& r : requests) {
    if (r.valid()) (void)wait(r);
  }
}

bool Comm::iprobe(int src, int tag, Status* status) {
  const int cores = world_->machine_.cores_per_node();
  auto& unexpected = state().unexpected;
  // Drain everything currently delivered into the unexpected queue first.
  net::Message m;
  while (endpoint().try_recv(&m)) unexpected.push_back(std::move(m));
  for (const auto& msg : unexpected) {
    if (matches(msg, cores, src, tag)) {
      if (status != nullptr) {
        status->source = msg.src_node * cores + msg.src_port;
        status->tag = static_cast<int>(msg.kind & 0xffffffffULL);
        status->bytes = msg.payload.size();
      }
      return true;
    }
  }
  return false;
}

uint64_t Comm::collective_kind(uint64_t seq, uint32_t round) const {
  PPM_CHECK(round < (1U << kRoundBits), "collective round overflow");
  PPM_CHECK(seq < (1ULL << 32), "collective sequence overflow");
  return kCollectiveFlag | (seq << kRoundBits) | round;
}

uint64_t Comm::next_collective_seq() {
  return state().collective_seq++;
}

void Comm::barrier() {
  // Dissemination barrier: ceil(log2 p) rounds; in round k each rank
  // signals (rank + 2^k) % p and hears from (rank - 2^k + p) % p.
  const int p = size();
  if (p == 1) return;
  const uint64_t seq = next_collective_seq();
  uint32_t round = 0;
  for (int offset = 1; offset < p; offset *= 2, ++round) {
    const int to = (rank_ + offset) % p;
    const int from = (rank_ - offset % p + p) % p;
    send_raw(to, collective_kind(seq, round), Bytes{});
    (void)recv_kind(from, collective_kind(seq, round));
  }
}

}  // namespace ppm::mp

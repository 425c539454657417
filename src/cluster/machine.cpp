#include "cluster/machine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ppm::cluster {

Machine::Machine(MachineConfig config) : config_(config) {
  PPM_CHECK(config_.nodes > 0, "machine needs at least one node");
  PPM_CHECK(config_.cores_per_node > 0,
            "machine needs at least one core per node");
  // Windowed mode needs a positive lookahead, the network latency; fall
  // back to the classic engine otherwise (see MachineConfig::sim_threads).
  int sim_threads = std::max(0, config_.sim_threads);
  if (config_.network.latency_ns <= 0) sim_threads = 0;
  sim_threads_ = std::min(sim_threads, config_.nodes);

  net::FabricConfig fc;
  fc.num_nodes = config_.nodes;
  fc.ports_per_node = config_.cores_per_node + 1;  // +1 runtime service port
  fc.network = config_.network;
  fc.intranode = config_.intranode;
  fc.faults = config_.faults;

  if (sim_threads_ == 0) {
    engine_ = std::make_unique<sim::Engine>(config_.engine);
    fabric_ = std::make_unique<net::Fabric>(*engine_, fc);
    return;
  }
  engines_.reserve(static_cast<size_t>(config_.nodes));
  engine_ptrs_.reserve(static_cast<size_t>(config_.nodes));
  for (int n = 0; n < config_.nodes; ++n) {
    engines_.push_back(std::make_unique<sim::Engine>(config_.engine));
    engine_ptrs_.push_back(engines_.back().get());
  }
  pool_ = std::make_unique<sim::HostPool>(sim_threads_);
  fabric_ = std::make_unique<net::Fabric>(engine_ptrs_, fc);
}

sim::Engine& Machine::engine() {
  PPM_CHECK(engine_ != nullptr,
            "Machine::engine() is classic-mode only; this machine runs the "
            "windowed simulator (sim_threads=%d) — use engine_for_node()",
            sim_threads_);
  return *engine_;
}

sim::Engine& Machine::engine_for_node(int node) {
  PPM_CHECK(node >= 0 && node < config_.nodes, "bad node %d", node);
  if (engine_ != nullptr) return *engine_;
  return *engines_[static_cast<size_t>(node)];
}

void Machine::run_windowed() {
  sim::WindowScheduler sched(engine_ptrs_, fabric_->min_cross_latency_ns(),
                             *pool_);
  sched.run(
      [this](int64_t horizon) { return fabric_->exchange_cross_traffic(horizon); });
  window_stats_.windows += sched.stats().windows;
  window_stats_.engine_activations += sched.stats().engine_activations;
  // All queues drained and the final exchange injected nothing; any fiber
  // still alive can never run again.
  std::string stuck;
  for (const auto& e : engines_) {
    if (e->all_fibers_finished()) continue;
    if (!stuck.empty()) stuck += ' ';
    stuck += e->stuck_fiber_names();
  }
  PPM_CHECK(stuck.empty(),
            "deadlock: fibers blocked with no pending events: %s",
            stuck.c_str());
}

void Machine::run_per_core(const std::function<void(const Place&)>& body) {
  int64_t t_start = 0;
  for (int n = 0; n < config_.nodes; ++n) {
    t_start = std::max(t_start, engine_for_node(n).engine_now_ns());
  }
  // One finish-time slot per node: each slot is written only by fibers of
  // that node's engine, so windowed mode needs no host synchronization.
  std::vector<int64_t> t_end(static_cast<size_t>(config_.nodes), t_start);
  for (int n = 0; n < config_.nodes; ++n) {
    sim::Engine& eng = engine_for_node(n);
    for (int c = 0; c < config_.cores_per_node; ++c) {
      const Place place{n, c};
      eng.spawn(
          strfmt("n%d.c%d", n, c),
          [&eng, body, place, end = &t_end[static_cast<size_t>(n)]] {
            body(place);
            *end = std::max(*end, eng.now_ns());
          },
          t_start);
    }
  }
  if (windowed()) {
    run_windowed();
  } else {
    engine_->run();
  }
  last_run_duration_ns_ =
      *std::max_element(t_end.begin(), t_end.end()) - t_start;
}

void Machine::run_per_node(const std::function<void(int node)>& body) {
  int64_t t_start = 0;
  for (int n = 0; n < config_.nodes; ++n) {
    t_start = std::max(t_start, engine_for_node(n).engine_now_ns());
  }
  std::vector<int64_t> t_end(static_cast<size_t>(config_.nodes), t_start);
  for (int n = 0; n < config_.nodes; ++n) {
    sim::Engine& eng = engine_for_node(n);
    eng.spawn(
        strfmt("n%d.main", n),
        [&eng, body, n, end = &t_end[static_cast<size_t>(n)]] {
          body(n);
          *end = std::max(*end, eng.now_ns());
        },
        t_start);
  }
  if (windowed()) {
    run_windowed();
  } else {
    engine_->run();
  }
  last_run_duration_ns_ =
      *std::max_element(t_end.begin(), t_end.end()) - t_start;
}

sim::Fiber::Id Machine::spawn_at(const Place& place, std::string name,
                                 std::function<void()> body) {
  PPM_CHECK(place.node >= 0 && place.node < config_.nodes &&
                place.core >= 0 && place.core < config_.cores_per_node,
            "spawn_at: bad place n%d.c%d", place.node, place.core);
  sim::Engine& eng = engine_for_node(place.node);
  int64_t start;
  sim::Engine* cur = sim::current_engine();
  if (cur != nullptr && cur->on_fiber()) {
    PPM_CHECK(cur == &eng,
              "windowed spawn_at: fiber on another engine cannot spawn onto "
              "node %d",
              place.node);
    start = cur->now_ns();
  } else {
    start = eng.engine_now_ns();
  }
  return eng.spawn(std::move(name), std::move(body), start);
}

}  // namespace ppm::cluster

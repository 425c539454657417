#include "cluster/machine.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ppm::cluster {

Machine::Machine(MachineConfig config) : config_(config) {
  PPM_CHECK(config_.nodes > 0, "machine needs at least one node");
  PPM_CHECK(config_.cores_per_node > 0,
            "machine needs at least one core per node");
  sim_threads_ = std::clamp(config_.sim_threads, 1, config_.nodes);
  net::FabricConfig fc;
  fc.num_nodes = config_.nodes;
  fc.ports_per_node = config_.cores_per_node + 1;  // +1 runtime service port
  fc.network = config_.network;
  fc.intranode = config_.intranode;
  fc.faults = config_.faults;
  for (int n = 0; n < config_.nodes; ++n) {
    engines_.push_back(std::make_unique<sim::Engine>(config_.engine));
    engine_ptrs_.push_back(engines_.back().get());
  }
  fabric_ = std::make_unique<net::Fabric>(engine_ptrs_, fc);
  pool_ = std::make_unique<sim::HostPool>(sim_threads_);
}

sim::Engine& Machine::engine() {
  throw Error("Machine::engine(): there is no shared engine; use "
              "engine_for_node()");
}

sim::Engine& Machine::engine_for_node(int node) {
  PPM_CHECK(node >= 0 && node < config_.nodes, "bad node %d", node);
  return *engines_[static_cast<size_t>(node)];
}

void Machine::run_fibers(bool per_core,
                         const std::function<void(const Place&)>& body) {
  int64_t t_start = 0;
  for (const auto& e : engines_) {
    t_start = std::max(t_start, e->engine_now_ns());
  }
  // One finish-time slot per node: each slot is written only by fibers of
  // that node's engine, so it needs no host synchronization.
  std::vector<int64_t> t_end(static_cast<size_t>(config_.nodes), t_start);
  const int per_node = per_core ? config_.cores_per_node : 1;
  for (int n = 0; n < config_.nodes; ++n) {
    sim::Engine& eng = *engines_[static_cast<size_t>(n)];
    for (int c = 0; c < per_node; ++c) {
      eng.spawn(
          per_core ? strfmt("n%d.c%d", n, c) : strfmt("n%d.main", n),
          [&eng, &body, place = Place{n, c},
           end = &t_end[static_cast<size_t>(n)]] {
            body(place);
            *end = std::max(*end, eng.now_ns());
          },
          t_start);
    }
  }
  sim::WindowScheduler sched(engine_ptrs_, fabric_->min_cross_latency_ns(),
                             *pool_);
  sched.run([this](int64_t horizon) {
    return fabric_->exchange_cross_traffic(horizon);
  });
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
  last_run_duration_ns_ =
      *std::max_element(t_end.begin(), t_end.end()) - t_start;
}

void Machine::run_per_core(const std::function<void(const Place&)>& body) {
  run_fibers(/*per_core=*/true, body);
}

void Machine::run_per_node(const std::function<void(int node)>& body) {
  run_fibers(/*per_core=*/false, [&body](const Place& p) { body(p.node); });
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
              "spawn_at: fiber on another engine cannot spawn onto node %d",
              place.node);
    start = cur->now_ns();
  } else {
    start = eng.engine_now_ns();
  }
  return eng.spawn(std::move(name), std::move(body), start);
}

}  // namespace ppm::cluster

// Simulated machine bring-up: a networked cluster of manycore nodes.
//
// A Machine owns one simulation engine per node, the interconnect fabric
// between them and the window scheduler that drives them (docs/SIM.md),
// and launches SPMD programs onto it. Two launch shapes are provided:
//   * run_per_core  — one fiber per (node, core); this is how the MPI-style
//     baselines run (one rank per core, as on the paper's Cray XT4);
//   * run_per_node  — one fiber per node (on core 0); this is how PPM
//     programs run (the PPM runtime manages the remaining cores itself).
//
// Fabric port map: ports 0..cores_per_node-1 belong to the per-core ranks;
// port cores_per_node is the node's runtime service port (used by the PPM
// runtime's communication engine).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/parallel.hpp"

namespace ppm::cluster {

struct MachineConfig {
  int nodes = 2;
  int cores_per_node = 4;
  net::LinkParams network{};
  net::LinkParams intranode{.latency_ns = 400,
                            .bytes_per_ns = 6.0,
                            .send_overhead_ns = 150,
                            .recv_overhead_ns = 150};
  net::FaultConfig faults{};  // deterministic delay/reorder injection
  sim::EngineConfig engine{};
  /// Host threads that drive the per-node engines in conservative time
  /// windows (docs/SIM.md): min(sim_threads, nodes), where 0 and 1 both
  /// mean "run on the calling thread". Every thread count replays the
  /// same simulation bit-for-bit.
  int sim_threads = 0;

  int total_cores() const { return nodes * cores_per_node; }
};

/// Identity of one simulated hardware thread.
struct Place {
  int node = 0;
  int core = 0;
};

class Machine {
 public:
  explicit Machine(MachineConfig config);

  int nodes() const { return config_.nodes; }
  int cores_per_node() const { return config_.cores_per_node; }
  const MachineConfig& config() const { return config_; }

  sim::Engine& engine_for_node(int node);
  net::Fabric& fabric() { return *fabric_; }

  /// Always true. Kept only because perfbench/runner.cpp calls it.
  bool windowed() const { return true; }
  /// There is no shared engine: always throws. Kept only because
  /// perfbench/runner.cpp names it; use engine_for_node().
  sim::Engine& engine();
  /// Effective host-thread count, in [1, nodes].
  int sim_threads() const { return sim_threads_; }
  /// Cumulative window scheduler stats across runs.
  const sim::WindowStats& window_stats() const { return window_stats_; }

  /// Port on which a node's runtime service listens.
  int service_port() const { return config_.cores_per_node; }

  /// Launch `body` once per (node, core) and run the simulation to
  /// completion. Throws on program error or deadlock.
  void run_per_core(const std::function<void(const Place&)>& body);

  /// Launch `body` once per node, on that node's core 0, and run the
  /// simulation to completion.
  void run_per_node(const std::function<void(int node)>& body);

  /// Spawn an extra fiber bound to a place (used by the PPM runtime for
  /// worker cores and service loops). Does not run the simulation.
  sim::Fiber::Id spawn_at(const Place& place, std::string name,
                          std::function<void()> body);

  /// Virtual time at which the most recent run() finished (max over all
  /// program fibers' completion times).
  int64_t last_run_duration_ns() const { return last_run_duration_ns_; }

 private:
  /// Spawn one fiber per core (`per_core`) or per node on every node,
  /// drive the engines to completion and record the run's duration.
  void run_fibers(bool per_core,
                  const std::function<void(const Place&)>& body);

  MachineConfig config_;
  std::vector<std::unique_ptr<sim::Engine>> engines_;  // per node
  std::vector<sim::Engine*> engine_ptrs_;
  std::unique_ptr<net::Fabric> fabric_;
  std::unique_ptr<sim::HostPool> pool_;
  sim::WindowStats window_stats_;
  int sim_threads_ = 1;
  int64_t last_run_duration_ns_ = 0;
};

}  // namespace ppm::cluster

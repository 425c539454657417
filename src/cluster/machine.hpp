// Simulated machine bring-up: a networked cluster of manycore nodes.
//
// A Machine owns the simulation engine and the interconnect fabric and
// launches SPMD programs onto it. Two launch shapes are provided:
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
  /// Host threads for the parallel windowed simulator (docs/SIM.md).
  /// 0 (the default) keeps the classic single shared engine — exactly the
  /// historical sequential behavior. >= 1 switches to windowed mode: one
  /// Engine per simulated node, driven in conservative time windows on
  /// min(sim_threads, nodes) host threads. Every windowed thread count
  /// replays the same simulation bit-for-bit (sim_threads=1 is the
  /// reference); classic and windowed may order same-time events
  /// differently, so virtual times can differ between 0 and >= 1.
  /// Silently forced back to 0 when network.latency_ns <= 0 (the
  /// lookahead must be positive).
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

  /// The shared engine of the classic (sim_threads == 0) mode. Errors in
  /// windowed mode, where no single engine exists — per-node callers use
  /// engine_for_node() (valid in both modes).
  sim::Engine& engine();
  sim::Engine& engine_for_node(int node);
  net::Fabric& fabric() { return *fabric_; }

  /// True when this machine runs the windowed parallel simulator (the
  /// effective mode, after the config clamps described on
  /// MachineConfig::sim_threads).
  bool windowed() const { return !engines_.empty(); }
  /// Effective host-thread count: 0 in classic mode.
  int sim_threads() const { return sim_threads_; }
  /// Cumulative windowed-driver stats across runs (all zero in classic
  /// mode).
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
  /// Drive the windowed engines to completion (WindowScheduler + fabric
  /// exchange), then perform the cross-engine deadlock check that
  /// Engine::run() does for the classic mode.
  void run_windowed();

  MachineConfig config_;
  std::unique_ptr<sim::Engine> engine_;                // classic mode only
  std::vector<std::unique_ptr<sim::Engine>> engines_;  // windowed: per node
  std::vector<sim::Engine*> engine_ptrs_;
  std::unique_ptr<sim::HostPool> pool_;
  std::unique_ptr<net::Fabric> fabric_;
  sim::WindowStats window_stats_;
  int sim_threads_ = 0;
  int64_t last_run_duration_ns_ = 0;
};

}  // namespace ppm::cluster

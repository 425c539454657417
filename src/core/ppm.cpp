#include "core/ppm.hpp"

namespace ppm {

RunResult run_on(cluster::Machine& machine, const RuntimeOptions& options,
                 const std::function<void(Env&)>& node_program) {
  Runtime runtime(machine, options);
  machine.run_per_node([&](int node) {
    NodeRuntime& nr = runtime.node(node);
    nr.start();
    Env env(nr);
    node_program(env);
    nr.finish();
  });
  return runtime.collect();
}

RunResult run(const PpmConfig& config,
              const std::function<void(Env&)>& node_program) {
  cluster::Machine machine(config.machine);
  return run_on(machine, config.runtime, node_program);
}

}  // namespace ppm

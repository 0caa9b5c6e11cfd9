// Allocation budget of the sim backend's per-task path (DESIGN.md §15).
//
// The binary replaces the global allocation functions with counting ones
// (alloc_counter.h), so each case reads exactly how many heap allocations
// a workload makes. After a warm-up that grows the runtime's reused
// buffers to their working size, a task costs only what it owns: its
// successor list, its share of a TaskGraph deque block, its AccessList
// and its LoadAccount entry. A change that adds a per-task allocation
// anywhere on submit -> place -> complete fails here.
#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <vector>

#include "alloc_counter.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "service/versa_service.h"
#include "taskbench/graph_spec.h"
#include "taskbench/runner.h"

namespace versa {
namespace {

constexpr double kMaxAllocationsPerTask = 8.0;

TEST(SimAllocBudget, TaskbenchStencilSubmitAndTaskwait) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  Runtime rt(machine, config);

  taskbench::TaskBenchParams params;
  params.family = taskbench::GraphFamily::kStencil1D;
  params.width = 32;
  params.steps = 64;
  const taskbench::GraphSpec spec = taskbench::generate_graph(params);
  taskbench::SubmitGraphOptions options;
  options.task_cost = 1e-6;

  // Warm-up: grows the runtime's path buffers, the completion heap and the
  // worker queues to the graph's working size.
  taskbench::submit_graph(rt, spec, options);
  rt.taskwait();

  const std::uint64_t before = alloc_counter::count();
  taskbench::submit_graph(rt, spec, options);
  rt.taskwait();
  const double per_task =
      static_cast<double>(alloc_counter::count() - before) /
      static_cast<double>(spec.node_count);
  RecordProperty("allocations_per_task", std::to_string(per_task));
  EXPECT_EQ(rt.task_graph().unfinished(), 0u);
  EXPECT_LE(per_task, kMaxAllocationsPerTask);
}

/// Two interleaved inout chains over the graph's two regions, joined by a
/// last task that reads one and writes the other (eight tasks).
service::GraphSpec chain_graph(TaskTypeId type) {
  service::GraphSpec spec;
  spec.regions.push_back({"a", 4096});
  spec.regions.push_back({"b", 4096});
  for (std::size_t i = 0; i < 7; ++i) {
    service::TaskSpec task;
    task.type = type;
    task.accesses.push_back({i % 2, AccessMode::kInOut});
    spec.tasks.push_back(std::move(task));
  }
  service::TaskSpec join;
  join.type = type;
  join.accesses.push_back({0, AccessMode::kIn});
  join.accesses.push_back({1, AccessMode::kInOut});
  spec.tasks.push_back(std::move(join));
  return spec;
}

TEST(SimAllocBudget, ServiceGraphsWithFourInFlight) {
  const Machine machine = make_smp_machine(2);
  service::VersaServiceConfig config;
  config.runtime.backend = Backend::kSim;
  config.runtime.scheduler = "versioning";
  service::VersaService svc(machine, config);
  const TaskTypeId type = svc.runtime().declare_task("chain");
  svc.runtime().add_version(type, DeviceKind::kSmp, "smp");
  service::TenantQuota light;
  light.weight = 1;
  service::TenantQuota heavy;
  heavy.weight = 2;
  std::vector<service::Session> sessions;
  sessions.push_back(svc.open_session("light", light));
  sessions.push_back(svc.open_session("heavy", heavy));
  const service::GraphSpec spec = chain_graph(type);

  // Closed loop: at most four graphs in flight, graph i to tenant i % 2.
  struct InFlight {
    GraphId graph;
    std::size_t session;
  };
  std::deque<InFlight> window;
  std::uint64_t rejected = 0;
  auto run_graphs = [&](std::size_t graphs) {
    for (std::size_t i = 0; i < graphs; ++i) {
      if (window.size() == 4) {
        sessions[window.front().session].wait(window.front().graph);
        window.pop_front();
      }
      const service::SubmitResult result = sessions[i % 2].submit(spec);
      if (result.admitted()) {
        window.push_back({result.graph, i % 2});
      } else {
        ++rejected;
      }
    }
    while (!window.empty()) {
      sessions[window.front().session].wait(window.front().graph);
      window.pop_front();
    }
  };

  run_graphs(50);  // warm-up
  constexpr std::size_t kGraphs = 200;
  const std::uint64_t before = alloc_counter::count();
  run_graphs(kGraphs);
  const double per_task =
      static_cast<double>(alloc_counter::count() - before) /
      static_cast<double>(kGraphs * spec.tasks.size());
  RecordProperty("allocations_per_task", std::to_string(per_task));
  EXPECT_EQ(rejected, 0u);
  EXPECT_LE(per_task, kMaxAllocationsPerTask);
}

}  // namespace
}  // namespace versa

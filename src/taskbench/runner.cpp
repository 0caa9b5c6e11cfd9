#include "taskbench/runner.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/check.h"
#include "machine/cost_model.h"

namespace versa::taskbench {
namespace {

/// Busy-spin for `cost` wall seconds — the thread backend's controlled
/// compute kernel. Spinning (not sleeping) is deliberate: METG measures
/// how runtime overhead competes with *compute* occupancy of a core.
TaskFn make_spin_body(Duration cost) {
  return [cost](TaskContext&) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(cost));
    while (std::chrono::steady_clock::now() < deadline) {
    }
  };
}

}  // namespace

std::vector<TaskId> submit_graph(Runtime& rt, const GraphSpec& spec,
                                 const SubmitGraphOptions& options) {
  const TaskBenchParams& p = spec.params;
  const std::uint32_t max_width =
      *std::max_element(spec.level_width.begin(), spec.level_width.end());

  // One task type per submitted spec; versions for every device kind the
  // machine actually has workers for, all with the same constant cost so
  // heterogeneity comes from the machine model, not the workload.
  const TaskTypeId type = rt.declare_task(
      std::string("tb_") + to_string(p.family) + "_" +
      std::to_string(rt.task_graph().size()));
  const TaskFn body =
      options.spin_bodies ? make_spin_body(options.task_cost) : TaskFn{};
  const CostModelPtr cost = make_constant_cost(options.task_cost);
  for (const DeviceKind kind : {DeviceKind::kSmp, DeviceKind::kCuda}) {
    if (rt.machine().count_workers(kind) > 0) {
      rt.add_version(type, kind, to_string(kind), body, cost);
    }
  }

  const std::uint64_t bytes = std::max<std::uint64_t>(p.payload_bytes, 1);
  std::vector<std::vector<RegionId>> buffers(2);
  std::vector<RegionId> sources;  // kTrivial's immutable read set
  const std::string tag = std::to_string(type);
  if (p.family == GraphFamily::kTrivial) {
    for (std::uint32_t i = 0; i < max_width; ++i) {
      sources.push_back(
          rt.register_data("tbsrc" + tag + "_" + std::to_string(i), bytes));
    }
  } else {
    for (int parity = 0; parity < 2; ++parity) {
      for (std::uint32_t i = 0; i < max_width; ++i) {
        buffers[parity].push_back(rt.register_data(
            "tb" + tag + "_" + std::to_string(parity) + "_" +
                std::to_string(i),
            bytes));
      }
    }
  }

  // Group the sorted edge list by destination while submitting in flat-id
  // order (the list is sorted by (to, from), so one cursor suffices).
  std::vector<TaskId> tasks(spec.node_count, kInvalidTask);
  std::size_t edge_cursor = 0;
  Runtime::SubmitOptions submit_options;
  submit_options.graph = options.graph;
  for (std::uint32_t t = 0; t < spec.level_width.size(); ++t) {
    for (std::uint32_t i = 0; i < spec.level_width[t]; ++i) {
      const std::uint64_t flat = spec.level_offset[t] + i;
      AccessList accesses;
      if (p.family == GraphFamily::kTrivial) {
        accesses.push_back(Access::in(sources[i]));
      } else {
        // Edges into `flat` are contiguous from the cursor; size the list
        // exactly (the output clause plus one input per parent).
        std::size_t edge_end = edge_cursor;
        while (edge_end < spec.edges.size() &&
               spec.edges[edge_end].second == flat) {
          ++edge_end;
        }
        accesses.reserve(1 + edge_end - edge_cursor);
        accesses.push_back(Access::out(buffers[t % 2][i]));
        for (; edge_cursor < edge_end; ++edge_cursor) {
          // Every edge crosses exactly one step (graph_spec.h), so the
          // parent's index is its offset into level t-1.
          const std::uint64_t parent = spec.edges[edge_cursor].first;
          VERSA_CHECK_MSG(t > 0 && parent >= spec.level_offset[t - 1] &&
                              parent < spec.level_offset[t],
                          "taskbench: edge does not cross exactly one step");
          accesses.push_back(Access::in(
              buffers[(t - 1) % 2][parent - spec.level_offset[t - 1]]));
        }
      }
      submit_options.label =
          std::to_string(t) + "." + std::to_string(i);
      tasks[flat] = rt.submit(type, std::move(accesses), submit_options);
    }
  }
  return tasks;
}

double parallel_efficiency(const GraphOracle& oracle, Duration task_cost,
                           std::size_t workers, Duration elapsed) {
  if (elapsed <= 0.0 || workers == 0 || oracle.nodes == 0) return 0.0;
  const double total_work = static_cast<double>(oracle.nodes) * task_cost;
  const double span = static_cast<double>(oracle.critical_path) * task_cost;
  const double ideal =
      std::max(total_work / static_cast<double>(workers), span);
  return ideal / elapsed;
}

}  // namespace versa::taskbench

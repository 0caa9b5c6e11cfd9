// Task graph bookkeeping: storage, dependence edges, readiness propagation.
//
// The graph owns every submitted Task for the lifetime of a run (ids are
// indices), counts unsatisfied predecessors, and releases successors on
// completion. Concurrency control lives one level up, in Runtime — the
// graph itself is single-threaded by contract.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "task/task.h"

namespace versa {

class TaskGraph {
 public:
  TaskGraph();

  /// Create a task in kCreated state. Accesses must have resolved lengths.
  /// The task joins `graph` (an id from open_graph(), or kDefaultGraph).
  Task& create_task(TaskTypeId type, AccessList accesses,
                    std::uint64_t data_set_size, std::string label,
                    GraphId graph = kDefaultGraph);

  /// Open an independent graph root owned by `tenant`. Graph 0 (the
  /// implicit default every single-graph program uses) always exists.
  GraphId open_graph(TenantId tenant);

  /// Per-graph completion: true when every task of `graph` has finished.
  bool graph_finished(GraphId graph) const;
  std::size_t graph_count() const { return graphs_.size(); }

  /// Add dependence edges from each predecessor to `task`. Predecessors
  /// already finished contribute no edge. Returns the number of live edges
  /// added; if zero, the caller should move the task to ready.
  std::uint32_t add_dependencies(Task& task, const std::vector<TaskId>& preds);

  /// Mark `task` finished and collect successors that became ready.
  void mark_finished(TaskId id, Time now, std::vector<TaskId>& newly_ready);

  /// Retire a placeholder task that never entered the scheduler: a split
  /// shell (its children ran instead) or a fused-away sibling (the fused
  /// host ran instead). The task must still be kCreated, unregistered
  /// (no dependence edges in either direction) — it goes straight to
  /// kFinished and the graph counters settle as if it had run.
  void finish_stub(TaskId id, Time now);

  Task& task(TaskId id);
  const Task& task(TaskId id) const;

  std::size_t size() const { return tasks_.size(); }
  std::size_t unfinished() const { return unfinished_; }
  bool all_finished() const { return unfinished_ == 0; }

  /// Oldest-unfinished watermark: every task with a smaller id has
  /// finished (size() when all have). Liveness scans start here, so
  /// their cost follows the tasks in flight, not the run's history. It
  /// advances only in mark_finished / finish_stub — the only places a
  /// task becomes kFinished, a state no task ever leaves — and a task
  /// that finishes ahead of an older one leaves it where it is.
  std::size_t oldest_unfinished() const { return oldest_unfinished_; }

  /// Iterate all tasks (reporting).
  const std::deque<Task>& tasks() const { return tasks_; }

  /// Drop all tasks (between benchmark repetitions).
  void reset();

  /// Total dependence edges added (diagnostics).
  std::uint64_t edge_count() const { return edges_; }

 private:
  /// Settle the counters for `task`, which just became kFinished, and
  /// move the watermark past any finished run it now heads.
  void settle_finished(Task& task);

  /// One graph root's bookkeeping; index in graphs_ is the GraphId.
  struct GraphInfo {
    TenantId tenant = kDefaultTenant;
    std::size_t unfinished = 0;
  };

  std::deque<Task> tasks_;
  std::vector<GraphInfo> graphs_;
  std::size_t unfinished_ = 0;
  std::size_t oldest_unfinished_ = 0;
  std::uint64_t edges_ = 0;
};

}  // namespace versa

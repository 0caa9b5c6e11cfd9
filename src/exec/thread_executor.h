// Real-thread execution backend: one std::thread per modelled worker.
//
// Task bodies execute for real (simulated accelerator workers run the same
// host code — the directory still accounts the transfers their memory
// spaces would need) and durations are measured with the steady clock, so
// the versioning scheduler learns from genuine measurements. This backend
// validates functional correctness and the concurrency of the runtime; the
// timing figures come from SimExecutor.
//
// Locking (DESIGN.md §9): since the lock split, the dequeue fast path —
// Scheduler::try_pop_queued, i.e. popping the worker's own shard or
// stealing — runs WITHOUT the runtime lock; workers take it only for the
// graph transitions around a task (state flip, completion report) and
// for the pop_task fallback of policies with no lock-free path. The data
// path is off the runtime lock too: directory acquires (both the
// prefetch-intent drain and the executing worker's staging) and argument
// resolution run on the directory's own data.shard locks, with
// Task::acquired_space CAS-arbitrating which side stages each task.
// Sleeping and waking go through a dedicated wake mutex (class
// kLockRankExecWake, the innermost lock) and an epoch counter: a worker
// samples the epoch before it tries to pop and sleeps only if the epoch
// is unchanged, and every push/completion bumps the epoch after
// publishing its work — so a wakeup between the failed pop and the wait
// can never be lost.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <thread>
#include <unordered_map>
#include <vector>

#include "exec/executor.h"
#include "sched/core/decision_trace.h"
#include "util/annotated_sync.h"

namespace versa {

struct ThreadExecutorConfig {
  /// Sleep each task to cost_model * time_scale (device-speed emulation);
  /// tasks without a cost model run at native speed either way.
  bool emulate_costs = false;
  double time_scale = 1.0;
  /// Bytes of placement-time prefetch allowed in flight per memory space
  /// (0 = unlimited). Intents over budget stay buffered until a charged
  /// task starts running; a single intent larger than the whole budget is
  /// admitted when the space is otherwise idle, so it cannot wedge.
  std::uint64_t prefetch_budget = 0;
};

class ThreadExecutor final : public Executor {
 public:
  explicit ThreadExecutor(const Machine& machine,
                          ThreadExecutorConfig config = {});
  ~ThreadExecutor() override;

  void attach(ExecutorPort& port) override;
  void task_queued(Task& task, WorkerId worker) override;
  void work_available() override;
  void wait_all() override;
  void wait_task(TaskId task) override;
  void wait_graph(GraphId graph) override;
  TaskId current_task() const override;
  void wait_children(TaskId parent) override;
  Time now() const override;
  Time flush(const TransferList& ops) override;

 private:
  const Machine& machine_;
  ThreadExecutorConfig config_;
  std::vector<std::thread> threads_;
  std::chrono::steady_clock::time_point epoch_;

  /// Wake protocol: wake_epoch_ counts "something changed" events (task
  /// pushed, work available, task completed). Workers and waiters sample
  /// it, re-check their condition, and sleep on wake_cv_ only while the
  /// epoch is unchanged.
  versa::Mutex wake_mutex_{lock_order::kLockRankExecWake};
  std::uint64_t wake_epoch_ VERSA_GUARDED_BY(wake_mutex_) = 0;
  std::condition_variable_any wake_cv_;
  std::atomic<bool> stop_{false};

  /// Prefetch intents: the scheduler's push (under the runtime lock)
  /// records "stage task T's data for worker W" here. A dedicated
  /// prefetch thread drains the buffer the moment a placement lands
  /// (woken by the same wake epoch the workers use), so staging starts at
  /// *placement* time and overlaps the predecessor task; workers still
  /// drain at the top of run_one as the dequeue-time fallback. Either
  /// drain performs the directory acquires with NO runtime involvement —
  /// the directory is internally synchronized and Task::acquired_space
  /// CAS-arbitrates against the executing worker (the concurrent data
  /// path, DESIGN.md §9 and §13).
  struct PrefetchIntent {
    Task* task = nullptr;  ///< stable: the graph stores tasks in a deque
    WorkerId worker = kInvalidWorker;
  };
  versa::Mutex prefetch_mutex_{lock_order::kLockRankExecPrefetch};
  std::vector<PrefetchIntent> prefetch_ VERSA_GUARDED_BY(prefetch_mutex_);
  /// Fast "anything buffered?" flag so idle run_one calls skip the lock.
  std::atomic<bool> prefetch_pending_{false};
  /// Intents enqueued but not yet fully staged; wait_all settles on zero
  /// so transfer accounting is complete when a taskwait returns.
  std::atomic<std::uint64_t> prefetch_inflight_{0};

  /// Budget accounting (config_.prefetch_budget != 0): bytes charged per
  /// space for claims issued by a drain, released when the charged task
  /// starts running (or immediately, if the claim was lost). The charge
  /// is keyed by task so the releasing worker need not know which drain
  /// charged it; insertion happens *before* the claim attempt so a won
  /// claim is always covered, and erasure is idempotent because both the
  /// claim-loser and the task-starting worker may try it.
  struct PrefetchCharge {
    SpaceId space = kInvalidSpace;
    std::uint64_t bytes = 0;
  };
  std::unordered_map<TaskId, PrefetchCharge> prefetch_charges_
      VERSA_GUARDED_BY(prefetch_mutex_);
  /// Per-space bytes currently charged (indexed by SpaceId).
  std::vector<std::uint64_t> prefetch_inflight_bytes_
      VERSA_GUARDED_BY(prefetch_mutex_);

  /// Which drain path claimed an intent (trace attribution).
  enum class DrainSite : std::uint8_t { kPlacement, kDequeue };

  /// Swap the intent buffer out and stage each claimed task's data;
  /// over-budget intents are re-buffered for a later drain. Called
  /// lock-free from the prefetch thread and from worker threads.
  void drain_prefetch(DrainSite site);

  /// Release the budget charge of `task` if one is outstanding (idempotent)
  /// and wake the prefetch thread so deferred intents retry.
  void release_prefetch_charge(TaskId task);

  /// Record a prefetch trace event (free when tracing is off).
  void record_prefetch_event(core::TraceEventKind kind, const Task& task,
                             WorkerId worker, std::uint64_t bytes);

  /// Placement-time drain loop of the dedicated prefetch thread.
  void prefetch_loop();

  std::uint64_t wake_snapshot();
  void bump_wake();
  /// Sleep until the epoch moves past `seen` (or stop).
  void wait_wake(std::uint64_t seen);

  void worker_loop(WorkerId worker);

  /// Pop (fast path first, then the locked fallback) and execute one task
  /// for `worker`. Takes the runtime lock only around the graph
  /// transitions — the directory acquire, argument resolution, and the
  /// body all run outside it. Returns false if no task was available.
  bool run_one(WorkerId worker);
};

}  // namespace versa

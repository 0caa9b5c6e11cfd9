// Scheduler plugin interface, mirroring the Nanos++ scheduling-policy
// plugin design the paper builds on: policies are selected by name at
// runtime (configuration argument / environment variable), and the rest of
// the runtime is policy-agnostic.
//
// Contract with the runtime:
//  * task_ready(t)        — t's dependences are satisfied; the policy must
//                           eventually make it poppable by some worker.
//  * pop_task(w)          — worker w is idle and asks for work.
//  * task_completed(t,w,d)— t finished on w with measured duration d;
//                           called before the successors' task_ready.
// These calls arrive under the runtime lock; policy-*decision* state
// (pools, cursors, profile tables) therefore needs no locking of its own.
//
// The exception, since the ThreadExecutor lock split, is the dequeue fast
// path: try_pop_queued(w) may be called by a worker thread WITHOUT the
// runtime lock. QueueScheduler implements it over the sharded WorkerQueues
// (per-worker queue mutexes) and the account mutex, so popping and
// stealing already-placed work never serializes on the runtime lock; the
// base implementation returns kInvalidTask, which makes executors fall
// back to pop_task under the runtime lock. Lock classes and ranking are
// documented in DESIGN.md §9.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "data/directory.h"
#include "machine/machine.h"
#include "sched/core/decision_trace.h"
#include "sched/core/load_account.h"
#include "sched/core/worker_queues.h"
#include "task/task.h"
#include "task/task_graph.h"
#include "task/version_registry.h"
#include "util/annotated_sync.h"

namespace versa {

/// Runtime services a policy may use. All of them are runtime-lock
/// serialized (policies call them from under the runtime lock).
class SchedulerContext {
 public:
  virtual ~SchedulerContext() = default;
  virtual const Machine& machine() const = 0;
  virtual const VersionRegistry& registry() const = 0;
  virtual DataDirectory& directory() = 0;
  virtual TaskGraph& graph() = 0;
  virtual Time now() const = 0;
  /// Tell the executor a task landed on `worker`'s queue (prefetch hook;
  /// the executor may start the task's copies immediately).
  virtual void task_assigned(TaskId task, WorkerId worker) = 0;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual const char* name() const = 0;

  /// Called once before any task flows through the policy.
  virtual void attach(SchedulerContext& ctx);

  virtual void task_ready(Task& task) = 0;

  /// Called once after each wave of task_ready calls (one submission, or
  /// the successors released by one completion). Batch-mapping policies
  /// (sufferage) decide here; per-task policies ignore it.
  virtual void ready_batch_done() {}

  /// Next task for an idle worker, or kInvalidTask. Runtime lock held.
  virtual TaskId pop_task(WorkerId worker) = 0;

  /// Lock-split fast path: dequeue work already placed on a worker queue
  /// (own queue first, then steals) WITHOUT the runtime lock. Policies
  /// with no such path return kInvalidTask and the executor falls back to
  /// pop_task under the runtime lock. Must not touch the task graph.
  virtual TaskId try_pop_queued(WorkerId worker);

  /// `task` finished on `worker`. The default records the completion in
  /// the decision trace (busy term zero); every override records it too.
  virtual void task_completed(Task& task, WorkerId worker, Duration measured);

  /// A dispatched task failed transiently on `worker` and will be made
  /// ready again. Policies must release any per-worker accounting; they
  /// must NOT record the wasted time as a measurement. The default
  /// records the failure in the decision trace, as every override does.
  virtual void task_failed(Task& task, WorkerId worker);

  /// Estimated seconds of queued + running work on `worker` (0 when the
  /// policy does not track it).
  virtual Duration estimated_busy(WorkerId worker) const;

  /// True if some ready task has not been handed to a worker yet.
  virtual bool has_pending() const = 0;

  /// Decision-trace ring shared by every policy: disabled (and free) by
  /// default; the runtime enables it on --sched-trace / VERSA_SCHED_TRACE
  /// and src/perf/sched_trace.h renders it after the run. Internally
  /// synchronized (lock class kLockRankTrace) — steals record events from
  /// worker threads outside the runtime lock.
  core::DecisionTrace& decision_trace() { return trace_; }
  const core::DecisionTrace& decision_trace() const { return trace_; }

 protected:
  SchedulerContext* ctx_ = nullptr;
  core::DecisionTrace trace_;

  /// Main-version helpers shared by the baseline policies (which, per the
  /// paper, ignore `implements` and only ever run the main version).
  const TaskVersion& main_version_of(const Task& task) const;

  /// Workers whose device kind can run `version`.
  std::vector<WorkerId> compatible_workers(const TaskVersion& version) const;

  /// Record the end of `task`'s attempt on `worker` in the decision
  /// trace: `kind` is kComplete (with the `measured` duration) or
  /// kFailure; `busy_after` is the worker's busy time left.
  void trace_attempt_end(const Task& task, WorkerId worker,
                         Duration busy_after, Duration measured,
                         core::TraceEventKind kind);
};

/// Placement context threaded into the load account and the decision
/// trace by QueueScheduler::push_to_worker.
struct PushInfo {
  Duration estimate = 0.0;       ///< execution-time charge for the account
  Duration penalty = 0.0;        ///< extra placement cost (locality)
  std::uint32_t candidates = 0;  ///< (version, worker) pairs evaluated
  bool learning = false;         ///< forced-sampling placement
};

/// Shared per-worker FIFO queue machinery for push-style policies.
///
/// Lock split (DESIGN.md §9): already-placed work lives in the sharded
/// WorkerQueues (one kLockRankQueue mutex per worker), busy accounting and
/// the finish-time index live in account_ under the kLockRankAccount
/// mutex, and the pending counter is atomic — so try_pop_queued (pop +
/// steal) runs without the runtime lock. Placement *decisions*
/// (task_ready and subclass policy state) still arrive under the runtime
/// lock, which orders them against the task graph.
///
/// Placement publishes straight into the worker's shard
/// (WorkerQueues::push under the shard's queue mutex), so a placed task is
/// poppable as soon as push_to_worker returns. Completion-driven re-prices
/// are *deferred* into a per-round dirty set keyed by PriceKey — flushed
/// all at once at round boundaries (ready_batch_done) and before any
/// price-reading walk, and flushed per key on the pop/steal paths so the
/// running-slot charge always matches the live profile mean. A burst of
/// completions therefore issues at most one LoadAccount::reprice per
/// distinct key per round.
class QueueScheduler : public Scheduler {
 public:
  void attach(SchedulerContext& ctx) override;
  TaskId pop_task(WorkerId worker) override;
  TaskId try_pop_queued(WorkerId worker) override;
  void ready_batch_done() override;
  bool has_pending() const override;

  /// Deferred-reprice observability (tests, trace_report): how many
  /// re-price requests arrived (one per profile-mean move) vs how many
  /// LoadAccount::reprice calls were actually issued. flushes <= requests
  /// always; strictly smaller when a completion burst coalesced.
  std::uint64_t reprice_requests() const;
  std::uint64_t reprice_flushes() const;

  /// Shard publications (tests, benchmark driver): one per placement, so
  /// it equals the number of push_to_worker calls.
  std::uint64_t buffer_push_batches() const;

  /// Queue length of a worker (tie-breaking and tests). Lock-free read of
  /// the shard's atomic length mirror.
  std::size_t queue_length(WorkerId worker) const;

  /// Snapshot of the task ids queued on a worker, head first (busy-time
  /// rescan cross-checks and tests). Replaces the old by-reference
  /// queue() accessor, which could not survive concurrent shard access.
  std::vector<TaskId> queued_tasks(WorkerId worker) const;

  /// Estimated seconds of queued + running work, maintained incrementally
  /// by the load account (exact zero for policies that charge no
  /// estimates, matching the historical behaviour).
  Duration estimated_busy(WorkerId worker) const override;

  void task_completed(Task& task, WorkerId worker, Duration measured) override;
  void task_failed(Task& task, WorkerId worker) override;

 protected:
  /// Assign `task` to `worker` running `version`: charges the account,
  /// freezes the applied charge into task.scheduler_estimate, records the
  /// trace event, pushes the entry into the worker's shard (poppable on
  /// return) and fires the prefetch hook. Runtime lock held (mutates the
  /// task); the account lock is released before the shard lock is taken.
  void push_to_worker(Task& task, VersionId version, WorkerId worker,
                      const PushInfo& info = PushInfo());

  /// Record that the profile mean of `key` moved (nullopt = forgotten).
  /// The actual LoadAccount::reprice is deferred: coalesced per key until
  /// the next flush. Safe from any thread (takes the account lock).
  void defer_reprice(const core::PriceKey& key, std::optional<Duration> mean);

  /// Apply every deferred re-price. Called at round boundaries and at the
  /// top of any account critical section that reads prices or busy sums
  /// for a decision, so decisions always see fully re-priced state.
  void flush_deferred_reprices() const VERSA_REQUIRES(account_mutex_);

  /// Apply only `key`'s deferred re-price, if one is pending (pop/steal:
  /// on_pop freezes the bucket price into the running slot, so the bucket
  /// must be current for exactly this key).
  void flush_deferred_reprice(const core::PriceKey& key) const
      VERSA_REQUIRES(account_mutex_);

  /// Size-group component of the account price key for `task` (policies
  /// with profile tables override this with their grouping policy).
  virtual std::uint64_t price_group(const Task& task) const;

  /// Enable same-device-kind work stealing on empty pops. Policies set
  /// this at construction, before any worker thread exists.
  void set_stealing(bool enabled) { stealing_ = enabled; }

  /// Least-loaded worker among `candidates` (by queue length, then id).
  WorkerId least_loaded(const std::vector<WorkerId>& candidates) const;

  /// Guards account_: the incremental busy accounting and its per-kind
  /// finish-time index. Acquired after the runtime lock and never while a
  /// queue shard is held (rank 20, between runtime and queue shards).
  mutable versa::Mutex account_mutex_{lock_order::kLockRankAccount};

  /// Incremental busy accounting + per-kind finish-time index. Mutable
  /// (with the pending-reprice set) so const readers like estimated_busy
  /// can flush deferred re-prices before reading.
  mutable core::LoadAccount account_ VERSA_GUARDED_BY(account_mutex_);

 private:
  core::WorkerQueues queues_;
  std::atomic<std::size_t> pending_{0};
  bool stealing_ = false;

  /// Dirty price keys since the last flush: (key, latest mean observed;
  /// nullopt = forgotten). Insertions coalesce; a flush drains it. Every
  /// placement flushes, so it holds only the few keys completed since the
  /// last one: a flat vector with a linear lookup, which allocates nothing
  /// once grown.
  using PendingReprice = std::pair<core::PriceKey, std::optional<Duration>>;
  mutable std::vector<PendingReprice> pending_reprices_
      VERSA_GUARDED_BY(account_mutex_);
  mutable std::uint64_t reprice_requests_ VERSA_GUARDED_BY(account_mutex_) = 0;
  mutable std::uint64_t reprice_flushes_ VERSA_GUARDED_BY(account_mutex_) = 0;

  TaskId steal_for(WorkerId thief);
  std::vector<PendingReprice>::iterator find_pending_reprice(
      const core::PriceKey& key) const VERSA_REQUIRES(account_mutex_);
};

}  // namespace versa

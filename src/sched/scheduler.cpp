#include "sched/scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace versa {

void Scheduler::attach(SchedulerContext& ctx) { ctx_ = &ctx; }

TaskId Scheduler::try_pop_queued(WorkerId) { return kInvalidTask; }

void Scheduler::task_completed(Task& task, WorkerId worker,
                               Duration measured) {
  trace_attempt_end(task, worker, 0.0, measured,
                    core::TraceEventKind::kComplete);
}

void Scheduler::task_failed(Task& task, WorkerId worker) {
  trace_attempt_end(task, worker, 0.0, 0.0, core::TraceEventKind::kFailure);
}

void Scheduler::trace_attempt_end(const Task& task, WorkerId worker,
                                  Duration busy_after, Duration measured,
                                  core::TraceEventKind kind) {
  if (!trace_.enabled()) return;
  trace_.record(core::TraceEvent{ctx_->now(), task.id, task.type,
                                 task.chosen_version, worker, busy_after,
                                 measured, 0.0, 0, kind, task.tenant});
}

Duration Scheduler::estimated_busy(WorkerId) const { return 0.0; }

const TaskVersion& Scheduler::main_version_of(const Task& task) const {
  VERSA_CHECK(ctx_ != nullptr);
  return ctx_->registry().version(ctx_->registry().main_version(task.type));
}

std::vector<WorkerId> Scheduler::compatible_workers(
    const TaskVersion& version) const {
  VERSA_CHECK(ctx_ != nullptr);
  std::vector<WorkerId> out;
  for (const WorkerDesc& w : ctx_->machine().workers()) {
    if (w.kind == version.device) out.push_back(w.id);
  }
  return out;
}

void QueueScheduler::attach(SchedulerContext& ctx) {
  Scheduler::attach(ctx);
  queues_.reset(ctx.machine().worker_count());
  pending_.store(0, std::memory_order_relaxed);
  versa::LockGuard lock(account_mutex_);
  account_.reset(ctx.machine());
  pending_reprices_.clear();
  reprice_requests_ = 0;
  reprice_flushes_ = 0;
}

void QueueScheduler::defer_reprice(const core::PriceKey& key,
                                   std::optional<Duration> mean) {
  versa::LockGuard lock(account_mutex_);
  // Later requests for a key coalesce into its pending slot.
  const auto it = find_pending_reprice(key);
  if (it == pending_reprices_.end()) {
    pending_reprices_.emplace_back(key, mean);
  } else {
    it->second = mean;
  }
  ++reprice_requests_;
}

void QueueScheduler::flush_deferred_reprices() const {
  for (const auto& [key, mean] : pending_reprices_) {
    // Application order across distinct keys is immaterial: charges are
    // integer tick sums per key and the index depends only on the totals.
    account_.reprice(key, mean);
    ++reprice_flushes_;
  }
  pending_reprices_.clear();
}

void QueueScheduler::flush_deferred_reprice(const core::PriceKey& key) const {
  const auto it = find_pending_reprice(key);
  if (it == pending_reprices_.end()) return;
  account_.reprice(key, it->second);
  ++reprice_flushes_;
  // Application order is immaterial (see above): swap-and-pop.
  *it = pending_reprices_.back();
  pending_reprices_.pop_back();
}

std::vector<QueueScheduler::PendingReprice>::iterator
QueueScheduler::find_pending_reprice(const core::PriceKey& key) const {
  return std::find_if(
      pending_reprices_.begin(), pending_reprices_.end(),
      [&](const PendingReprice& pending) { return pending.first == key; });
}

std::uint64_t QueueScheduler::reprice_requests() const {
  versa::LockGuard lock(account_mutex_);
  return reprice_requests_;
}

std::uint64_t QueueScheduler::reprice_flushes() const {
  versa::LockGuard lock(account_mutex_);
  return reprice_flushes_;
}

std::uint64_t QueueScheduler::buffer_push_batches() const {
  return queues_.push_count();
}

std::uint64_t QueueScheduler::price_group(const Task& task) const {
  return task.data_set_size;
}

void QueueScheduler::push_to_worker(Task& task, VersionId version,
                                    WorkerId worker, const PushInfo& info) {
  VERSA_CHECK(ctx_ != nullptr);
  VERSA_CHECK(worker < queues_.worker_count());
  const TaskVersion& v = ctx_->registry().version(version);
  VERSA_CHECK_MSG(v.device == ctx_->machine().worker(worker).kind,
                  "version/worker device mismatch");
  VERSA_CHECK(task.state == TaskState::kReady);
  task.chosen_version = version;
  task.assigned_worker = worker;
  task.state = TaskState::kQueued;
  const std::uint64_t group = price_group(task);
  // Charge the account; freeze the applied charge (the current profile
  // mean when known, else the caller's estimate) so a later mean-forgotten
  // re-price — and the rescan reference — can still price this task.
  // Deferred re-prices are flushed first so the charge (bucket price wins
  // over the estimate) matches what an immediate-reprice scheduler would
  // have applied.
  Duration busy_before;
  {
    versa::LockGuard lock(account_mutex_);
    flush_deferred_reprices();
    busy_before = account_.busy(worker);
    task.scheduler_estimate =
        account_.on_push(task.id, core::PriceKey{task.type, version, group},
                         worker, info.estimate);
  }
  // Count and trace the placement before publishing it: once the entry
  // is in the shard a worker may pop or steal it at once, and its pop
  // must find pending_ already raised and its steal event must follow the
  // placement event. Every task field above is written before the push;
  // the shard mutex pairs the writes with the popping thread's reads.
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (trace_.enabled()) {
    trace_.record(core::TraceEvent{
        ctx_->now(), task.id, task.type, version, worker, busy_before,
        task.scheduler_estimate, info.penalty, info.candidates,
        info.learning ? core::TraceEventKind::kLearningPlacement
                      : core::TraceEventKind::kPlacement,
        task.tenant});
  }
  queues_.push(worker,
               core::QueueEntry{task.id, task.type, version, task.priority,
                                task.scheduler_estimate, group, task.tenant});
  ctx_->task_assigned(task.id, worker);
}

TaskId QueueScheduler::pop_task(WorkerId worker) {
  // The queue path never needs the runtime lock; under it this is simply
  // the same dequeue, serialized.
  return try_pop_queued(worker);
}

TaskId QueueScheduler::try_pop_queued(WorkerId worker) {
  VERSA_CHECK(worker < queues_.worker_count());
  if (std::optional<core::QueueEntry> entry = queues_.pop_front(worker)) {
    pending_.fetch_sub(1, std::memory_order_relaxed);
    versa::LockGuard lock(account_mutex_);
    // on_pop freezes the bucket price into the running slot, so the
    // popped key's deferred re-price (if any) must land first.
    flush_deferred_reprice(
        core::PriceKey{entry->type, entry->version, entry->group});
    account_.on_pop(entry->id, worker);
    return entry->id;
  }
  if (stealing_) return steal_for(worker);
  return kInvalidTask;
}

void QueueScheduler::ready_batch_done() {
  // Round boundary: apply the re-prices this round's completions
  // coalesced.
  versa::LockGuard lock(account_mutex_);
  flush_deferred_reprices();
}

TaskId QueueScheduler::steal_for(WorkerId thief) {
  const DeviceKind kind = ctx_->machine().worker(thief).kind;
  // Steal from the back of the most loaded queue of a same-kind worker:
  // the victim keeps its locality-friendly head-of-queue work. Victim
  // selection reads only the atomic length mirrors.
  WorkerId victim = kInvalidWorker;
  std::size_t best = 0;
  for (const WorkerDesc& w : ctx_->machine().workers()) {
    if (w.id == thief || w.kind != kind) continue;
    const std::size_t len = queues_.length(w.id);
    if (len > best) {
      best = len;
      victim = w.id;
    }
  }
  if (victim == kInvalidWorker || best == 0) return kInvalidTask;
  const std::optional<core::QueueEntry> entry = queues_.steal_back(victim);
  if (!entry) return kInvalidTask;  // raced away under a concurrent pop
  pending_.fetch_sub(1, std::memory_order_relaxed);
  Duration victim_busy;
  {
    versa::LockGuard lock(account_mutex_);
    flush_deferred_reprice(
        core::PriceKey{entry->type, entry->version, entry->group});
    account_.on_steal(entry->id, victim, thief);
    account_.on_pop(entry->id, thief);
    victim_busy = account_.busy(victim);
  }
  // Task::assigned_worker is re-homed by the executor under the runtime
  // lock when the stolen task starts (this path cannot touch the graph).
  if (trace_.enabled()) {
    trace_.record(core::TraceEvent{
        ctx_->now(), entry->id, entry->type, entry->version, thief,
        victim_busy, entry->estimate, 0.0, 0, core::TraceEventKind::kSteal,
        entry->tenant});
  }
  return entry->id;
}

void QueueScheduler::task_completed(Task& task, WorkerId worker,
                                    Duration measured) {
  Duration busy_after;
  {
    versa::LockGuard lock(account_mutex_);
    account_.on_settle(worker);
    busy_after = account_.busy(worker);
  }
  trace_attempt_end(task, worker, busy_after, measured,
                    core::TraceEventKind::kComplete);
}

void QueueScheduler::task_failed(Task& task, WorkerId worker) {
  Duration busy_after;
  {
    versa::LockGuard lock(account_mutex_);
    account_.on_settle(worker);
    busy_after = account_.busy(worker);
  }
  trace_attempt_end(task, worker, busy_after, 0.0,
                    core::TraceEventKind::kFailure);
}

Duration QueueScheduler::estimated_busy(WorkerId worker) const {
  versa::LockGuard lock(account_mutex_);
  flush_deferred_reprices();
  return account_.busy(worker);
}

bool QueueScheduler::has_pending() const {
  return pending_.load(std::memory_order_relaxed) > 0;
}

std::size_t QueueScheduler::queue_length(WorkerId worker) const {
  return queues_.length(worker);
}

std::vector<TaskId> QueueScheduler::queued_tasks(WorkerId worker) const {
  return queues_.snapshot(worker);
}

WorkerId QueueScheduler::least_loaded(
    const std::vector<WorkerId>& candidates) const {
  VERSA_CHECK_MSG(!candidates.empty(), "no compatible worker for task");
  WorkerId best = candidates.front();
  std::size_t best_len = queues_.length(best);
  for (WorkerId w : candidates) {
    const std::size_t len = queues_.length(w);
    if (len < best_len) {
      best = w;
      best_len = len;
    }
  }
  return best;
}

}  // namespace versa

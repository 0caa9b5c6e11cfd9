#include "exec/thread_executor.h"

#include <thread>

#include "common/check.h"
#include "sanitizer/sanitizer.h"

namespace versa {

ThreadExecutor::ThreadExecutor(const Machine& machine,
                               ThreadExecutorConfig config)
    : machine_(machine),
      config_(config),
      epoch_(std::chrono::steady_clock::now()) {
  VERSA_CHECK(config.time_scale > 0.0);
  prefetch_inflight_bytes_.resize(machine.space_count(), 0);
}

ThreadExecutor::~ThreadExecutor() {
  stop_.store(true, std::memory_order_release);
  bump_wake();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadExecutor::attach(ExecutorPort& port) {
  Executor::attach(port);
  threads_.reserve(machine_.worker_count() + 1);
  for (WorkerId w = 0; w < machine_.worker_count(); ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
  // Dedicated prefetch thread: drains intents the moment a placement
  // lands instead of waiting for a worker to reach the top of run_one, so
  // staging overlaps the predecessor's execution (DESIGN.md §13).
  threads_.emplace_back([this] { prefetch_loop(); });
}

Time ThreadExecutor::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count();
}

std::uint64_t ThreadExecutor::wake_snapshot() {
  versa::LockGuard lock(wake_mutex_);
  return wake_epoch_;
}

void ThreadExecutor::bump_wake() {
  {
    versa::LockGuard lock(wake_mutex_);
    ++wake_epoch_;
  }
  wake_cv_.notify_all();
}

void ThreadExecutor::wait_wake(std::uint64_t seen) {
  versa::UniqueLock lock(wake_mutex_);
  while (!stop_.load(std::memory_order_acquire) && wake_epoch_ == seen) {
    wake_cv_.wait(lock.native());
  }
}

void ThreadExecutor::task_queued(Task& task, WorkerId worker) {
  // Called under the runtime lock. Do NOT touch the directory here — that
  // would serialize every transfer behind the producer path. Record the
  // intent (rank 10 -> 44 nests in documented order) and let the prefetch
  // thread (or a worker's dequeue fallback) stage the data off the
  // runtime lock in drain_prefetch().
  prefetch_inflight_.fetch_add(1, std::memory_order_acq_rel);
  {
    versa::LockGuard lock(prefetch_mutex_);
    prefetch_.push_back(PrefetchIntent{&task, worker});
    prefetch_pending_.store(true, std::memory_order_release);
  }
  // Queues live in the scheduler; the push is already visible, so bumping
  // the epoch here closes the pop-then-sleep race (and wakes the prefetch
  // thread to drain the intent at placement time).
  bump_wake();
}

void ThreadExecutor::record_prefetch_event(core::TraceEventKind kind,
                                           const Task& task, WorkerId worker,
                                           std::uint64_t bytes) {
  core::DecisionTrace& trace = port_->port_scheduler().decision_trace();
  if (!trace.enabled()) return;
  core::TraceEvent event;
  event.time = now();
  event.task = task.id;
  event.type = task.type;
  event.version = task.chosen_version;
  event.worker = worker;
  event.kind = kind;
  event.tenant = task.tenant;
  event.group = bytes;
  trace.record(event);
}

void ThreadExecutor::release_prefetch_charge(TaskId task) {
  bool released = false;
  {
    versa::LockGuard lock(prefetch_mutex_);
    auto it = prefetch_charges_.find(task);
    if (it != prefetch_charges_.end()) {
      prefetch_inflight_bytes_[it->second.space] -= it->second.bytes;
      prefetch_charges_.erase(it);
      released = true;
    }
  }
  // Freed budget: wake the prefetch thread so deferred intents retry.
  if (released) bump_wake();
}

void ThreadExecutor::drain_prefetch(DrainSite site) {
  if (!prefetch_pending_.load(std::memory_order_acquire)) return;
  std::vector<PrefetchIntent> intents;
  {
    versa::LockGuard lock(prefetch_mutex_);
    intents.swap(prefetch_);
    prefetch_pending_.store(false, std::memory_order_release);
  }
  if (intents.empty()) return;
  std::vector<PrefetchIntent> deferred;
  std::size_t resolved = 0;
  for (const PrefetchIntent& intent : intents) {
    Task* task = intent.task;
    const SpaceId space = machine_.worker(intent.worker).space;
    // Stale first (covers deferred intents whose task meanwhile started):
    // someone already staged — or, at kStaging, is staging — this task.
    // Never prefetch over it.
    if (task->acquired_space.load() != kInvalidSpace) {
      record_prefetch_event(core::TraceEventKind::kPrefetchStale, *task,
                            intent.worker, 0);
      ++resolved;
      continue;
    }
    const std::uint64_t bytes = task->data_set_size;
    if (config_.prefetch_budget != 0) {
      versa::LockGuard lock(prefetch_mutex_);
      const std::uint64_t inflight = prefetch_inflight_bytes_[space];
      // Defer while over budget; an oversized intent is admitted when the
      // space is otherwise idle so one huge task cannot wedge the drain.
      if (inflight != 0 && inflight + bytes > config_.prefetch_budget) {
        deferred.push_back(intent);
        continue;
      }
      prefetch_inflight_bytes_[space] += bytes;
      prefetch_charges_.emplace(task->id, PrefetchCharge{space, bytes});
    }
    SpaceId expected = kInvalidSpace;
    if (task->acquired_space.claim(expected, AcquiredSpace::kStaging)) {
      // Won the claim: stage the data with no lock held but the
      // directory's own (internally synchronized) classes, then publish.
      // Until then the executing worker waits, so the task cannot finish
      // — nor its graph retire its regions — mid-acquire.
      TransferList ops;  // accounting only — data lives in host storage
      port_->port_directory().acquire(task->accesses, space, ops);
      task->acquired_space.publish(space);
      std::uint64_t staged = 0;
      for (const TransferOp& op : ops) staged += op.bytes;
      record_prefetch_event(site == DrainSite::kPlacement
                                ? core::TraceEventKind::kPrefetchPlaced
                                : core::TraceEventKind::kPrefetchDequeue,
                            *task, intent.worker, staged);
    } else {
      // Lost the claim to the executing worker between the checks: the
      // charge never covered in-flight data, return it immediately.
      release_prefetch_charge(task->id);
      record_prefetch_event(core::TraceEventKind::kPrefetchStale, *task,
                            intent.worker, 0);
    }
    ++resolved;
  }
  if (!deferred.empty()) {
    // Keep prefetch_inflight_ elevated for deferred intents — wait_all
    // must not return while a placement-time stage is still possible. The
    // next drain (woken by release_prefetch_charge or a completion)
    // re-evaluates them; once the task has started they resolve as stale.
    versa::LockGuard lock(prefetch_mutex_);
    for (const PrefetchIntent& intent : deferred) {
      prefetch_.push_back(intent);
    }
    prefetch_pending_.store(true, std::memory_order_release);
  }
  if (resolved != 0) {
    prefetch_inflight_.fetch_sub(resolved, std::memory_order_acq_rel);
    // Waiters (wait_all) also settle on prefetch_inflight_ == 0.
    bump_wake();
  }
}

void ThreadExecutor::prefetch_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t seen = wake_snapshot();
    drain_prefetch(DrainSite::kPlacement);
    // Intents buffered after the snapshot bump the epoch past `seen`, so
    // this wait cannot miss them; deferred re-buffering above does not
    // bump, so an over-budget backlog does not busy-spin.
    wait_wake(seen);
  }
}

void ThreadExecutor::work_available() { bump_wake(); }

namespace {

/// Task identity of the calling thread's in-flight body (nested-submission
/// attribution); kInvalidTask on the master and on idle workers.
thread_local TaskId tls_current_task = kInvalidTask;

}  // namespace

TaskId ThreadExecutor::current_task() const { return tls_current_task; }

bool ThreadExecutor::run_one(WorkerId worker) {
  // Stage any buffered prefetch intents first (dequeue-time fallback for
  // the prefetch thread) — lock-free, so the data path makes progress
  // even while another worker holds the runtime lock.
  drain_prefetch(DrainSite::kDequeue);

  // Fast path: dequeue already-placed work (own queue, then steals)
  // without the runtime lock.
  TaskId id = port_->port_scheduler().try_pop_queued(worker);

  const TaskVersion* version = nullptr;
  Task* task = nullptr;
  std::uint64_t data_set_size = 0;
  {
    versa::RecursiveLockGuard lock(port_->port_mutex());
    if (id == kInvalidTask) {
      // Fallback for policies whose dispatch needs the runtime lock
      // (fifo's graph scan, versioning's learning pool).
      id = port_->port_scheduler().pop_task(worker);
    }
    if (id == kInvalidTask) return false;

    task = &port_->port_graph().task(id);  // stable ref (deque storage)
    VERSA_CHECK(task->state == TaskState::kQueued);
    // Re-home stolen tasks: the steal fast path cannot touch the graph,
    // so the thief records itself here, under the runtime lock.
    task->assigned_worker = worker;
    version = &port_->port_registry().version(task->chosen_version);
    task->state = TaskState::kRunning;
    data_set_size = task->data_set_size;
  }

  // Off the runtime lock: stage the data. The CAS on acquired_space
  // arbitrates against the prefetch path — exactly one side performs the
  // acquire for a given space.
  const SpaceId space = machine_.worker(worker).space;
  SpaceId expected = kInvalidSpace;
  if (task->acquired_space.claim(expected, space)) {
    TransferList ops;  // accounting only — data lives in host storage
    port_->port_directory().acquire(task->accesses, space, ops);
    expected = space;
  } else if (expected == AcquiredSpace::kStaging) {
    // The prefetch side won and is mid-acquire: wait for it to publish
    // before running (or re-homing) the task.
    expected = task->acquired_space.wait_published();
  }
  if (expected != space) {
    // A steal re-homed the task after its data was staged for the
    // originally assigned worker's space: re-acquire for ours. No
    // concurrent acquirer exists any more (the prefetch side only ever
    // claims from kInvalidSpace), so a plain store publishes it.
    TransferList ops;
    port_->port_directory().acquire(task->accesses, space, ops);
    task->acquired_space.store(space);
  }
  // The task is now staged and about to run: its prefetch budget charge
  // (if a drain issued one) no longer represents in-flight data.
  release_prefetch_charge(id);
  // Resolve argument pointers (region descriptors are immutable, the
  // directory lookup synchronizes itself); the body then runs without
  // touching shared runtime structures.
  TaskContext ctx(task->accesses, port_->port_directory(), worker,
                  version->device);
  // Sanitizing: the witness log collects off-lock alongside the body; the
  // spans reach the checker before the locked completion report below.
  sanitize::AccessSanitizer* sanitizer = port_->port_sanitizer();
  WitnessLog witness;
  if (sanitizer != nullptr) ctx.set_witness_log(&witness);
  const Time start = now();

  const TaskId previous = tls_current_task;
  tls_current_task = id;
  if (version->fn) {
    version->fn(ctx);
  }
  tls_current_task = previous;
  if (sanitizer != nullptr) sanitizer->record_witness(id, std::move(witness));
  if (config_.emulate_costs && version->cost != nullptr) {
    // Device-speed emulation: pad the attempt out to the modelled
    // duration so wall-clock measurements carry the modelled ratios.
    const Duration modelled =
        version->cost->mean_duration(data_set_size) * config_.time_scale;
    const Duration spent = now() - start;
    if (modelled > spent) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(modelled - spent));
    }
  }
  const Time finish = now();

  {
    versa::RecursiveLockGuard lock(port_->port_mutex());
    port_->port_complete(id, worker, start, finish);
  }
  // After the completion is visible: wake workers (successors may have
  // been released) and waiters (all_finished / live_children moved).
  bump_wake();
  return true;
}

void ThreadExecutor::worker_loop(WorkerId worker) {
  while (!stop_.load(std::memory_order_acquire)) {
    const std::uint64_t seen = wake_snapshot();
    if (run_one(worker)) continue;
    // The pop failed after the snapshot; any push after the pop bumps the
    // epoch past `seen`, so this wait cannot miss it.
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_children(TaskId parent) {
  // Called from inside `parent`'s body on its worker thread. Work while
  // waiting (the OmpSs task-switching behaviour): execute queued tasks —
  // children included — instead of blocking the worker.
  WorkerId worker;
  {
    versa::RecursiveLockGuard lock(port_->port_mutex());
    Task& task = port_->port_graph().task(parent);
    if (task.live_children == 0) return;
    worker = task.assigned_worker;
  }
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (port_->port_graph().task(parent).live_children == 0) return;
    }
    if (run_one(worker)) continue;
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_all() {
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      // Settle on zero in-flight prefetch intents too: a taskwait's
      // transfer accounting (and the flush that follows it) must observe
      // every staged copy.
      if (port_->port_graph().all_finished() &&
          prefetch_inflight_.load(std::memory_order_acquire) == 0) {
        return;
      }
    }
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_task(TaskId task) {
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (port_->port_graph().task(task).state == TaskState::kFinished) {
        return;
      }
    }
    wait_wake(seen);
  }
}

void ThreadExecutor::wait_graph(GraphId graph) {
  // Same wake-epoch protocol as wait_all, settling on one graph root; many
  // client threads can block here concurrently, each on its own graph.
  for (;;) {
    const std::uint64_t seen = wake_snapshot();
    {
      versa::RecursiveLockGuard lock(port_->port_mutex());
      if (port_->port_graph().graph_finished(graph)) return;
    }
    wait_wake(seen);
  }
}

Time ThreadExecutor::flush(const TransferList&) {
  // Host storage is authoritative in this backend; flushes are pure
  // accounting (already recorded by the directory).
  return now();
}

}  // namespace versa

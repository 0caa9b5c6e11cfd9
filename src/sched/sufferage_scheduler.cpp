#include "sched/sufferage_scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace versa {

SufferageScheduler::SufferageScheduler(ProfileConfig config)
    : VersioningScheduler(config) {}

SufferageScheduler::Placement SufferageScheduler::evaluate(
    const Task& task) const {
  Placement placement;
  Duration best = kTimeInfinity;
  Duration second = kTimeInfinity;
  // The index walk reads the account under its lock; the caller pushes
  // (re-acquiring it) only after this evaluation returns. Deferred
  // re-prices are applied first so the walk prices with current means.
  versa::LockGuard lock(account_mutex_);
  flush_deferred_reprices();
  for (VersionId v : ctx_->registry().versions(task.type)) {
    const TaskVersion& version = ctx_->registry().version(v);
    const auto mean = profile().mean(task.type, v, task.data_set_size);
    if (!mean) continue;
    // Finish-time index walk in increasing busy order: once busy + mean
    // cannot improve the second-best finish it cannot improve anything
    // (second >= best), so the rest of the kind is pruned.
    for (const core::LoadAccount::IndexKey& key :
         account_.workers_by_busy(version.device)) {
      const Duration finish = core::to_seconds(std::get<0>(key)) + *mean;
      if (finish >= second) break;
      if (finish < best) {
        second = best;
        best = finish;
        placement.version = v;
        placement.worker = std::get<2>(key);
      } else {
        second = finish;
      }
    }
  }
  placement.best = best;
  placement.second = second == kTimeInfinity ? best : second;
  placement.feasible = placement.worker != kInvalidWorker;
  return placement;
}

void SufferageScheduler::drain_reliable_pool() {
  while (!reliable_pool_.empty()) {
    // Pick the pooled task with the largest sufferage (second - best).
    std::size_t chosen = 0;
    Placement chosen_placement;
    Duration chosen_sufferage = -1.0;
    for (std::size_t i = 0; i < reliable_pool_.size(); ++i) {
      const Task& task = ctx_->graph().task(reliable_pool_[i]);
      const Placement placement = evaluate(task);
      VERSA_CHECK_MSG(placement.feasible,
                      "no runnable version for task on this machine");
      const Duration sufferage = placement.second - placement.best;
      if (sufferage > chosen_sufferage) {
        chosen_sufferage = sufferage;
        chosen = i;
        chosen_placement = placement;
      }
    }
    Task& task = ctx_->graph().task(reliable_pool_[chosen]);
    reliable_pool_.erase(reliable_pool_.begin() +
                         static_cast<std::ptrdiff_t>(chosen));
    PushInfo info;
    info.estimate = estimate_for(task, chosen_placement.version);
    push_to_worker(task, chosen_placement.version, chosen_placement.worker,
                   info);
  }
}

void SufferageScheduler::task_ready(Task& task) {
  if (reliable_runnable(task.type, task.data_set_size)) {
    // Defer to the end of the ready wave: sufferage is a batch decision.
    reliable_pool_.push_back(task.id);
  } else {
    VersioningScheduler::task_ready(task);  // learning machinery
  }
}

void SufferageScheduler::ready_batch_done() {
  // Map the batch first, then let the base class run the round boundary
  // (flush coalesced re-prices).
  drain_reliable_pool();
  VersioningScheduler::ready_batch_done();
}

void SufferageScheduler::task_completed(Task& task, WorkerId worker,
                                        Duration measured) {
  VersioningScheduler::task_completed(task, worker, measured);
  drain_reliable_pool();
}

}  // namespace versa

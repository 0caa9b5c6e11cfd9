#include "sched/core/worker_queues.h"

#include "common/check.h"

namespace versa::core {

void WorkerQueues::reset(std::size_t worker_count) {
  shards_.clear();
  shards_.reserve(worker_count);
  for (std::size_t i = 0; i < worker_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void WorkerQueues::push(WorkerId worker, const QueueEntry& entry) {
  VERSA_CHECK(worker < shards_.size());
  Shard& shard = *shards_[worker];
  versa::LockGuard lock(shard.mutex);
  auto it = shard.entries.end();
  while (it != shard.entries.begin() && (it - 1)->priority < entry.priority) {
    --it;
  }
  shard.entries.insert(it, entry);
  shard.length.store(shard.entries.size(), std::memory_order_relaxed);
  // Written only under the shard mutex: a plain store, no locked RMW.
  shard.pushes.store(shard.pushes.load(std::memory_order_relaxed) + 1,
                     std::memory_order_relaxed);
}

std::uint64_t WorkerQueues::push_count() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->pushes.load(std::memory_order_relaxed);
  }
  return total;
}

std::optional<QueueEntry> WorkerQueues::pop_front(WorkerId worker) {
  VERSA_CHECK(worker < shards_.size());
  Shard& shard = *shards_[worker];
  versa::LockGuard lock(shard.mutex);
  if (shard.entries.empty()) return std::nullopt;
  QueueEntry entry = shard.entries.front();
  shard.entries.pop_front();
  shard.length.store(shard.entries.size(), std::memory_order_relaxed);
  return entry;
}

std::optional<QueueEntry> WorkerQueues::steal_back(WorkerId victim) {
  VERSA_CHECK(victim < shards_.size());
  Shard& shard = *shards_[victim];
  versa::LockGuard lock(shard.mutex);
  if (shard.entries.empty()) return std::nullopt;
  QueueEntry entry = shard.entries.back();
  shard.entries.pop_back();
  shard.length.store(shard.entries.size(), std::memory_order_relaxed);
  return entry;
}

std::size_t WorkerQueues::length(WorkerId worker) const {
  VERSA_CHECK(worker < shards_.size());
  return shards_[worker]->length.load(std::memory_order_relaxed);
}

std::vector<TaskId> WorkerQueues::snapshot(WorkerId worker) const {
  VERSA_CHECK(worker < shards_.size());
  const Shard& shard = *shards_[worker];
  versa::LockGuard lock(shard.mutex);
  std::vector<TaskId> out;
  out.reserve(shard.entries.size());
  for (const QueueEntry& entry : shard.entries) {
    out.push_back(entry.id);
  }
  return out;
}

}  // namespace versa::core

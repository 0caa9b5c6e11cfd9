// Region-based data-dependence analysis (the StarSs dependence support).
//
// For every registered region the analyzer maintains a set of disjoint byte
// intervals, each recording the last task that wrote it and the tasks that
// have read it since. Submitting a task yields its predecessor set:
//   read  after write            -> RAW dependence on the last writer
//   write after read             -> WAR dependence on the readers
//   write after write            -> WAW dependence on the last writer
// Intervals are split at access boundaries, so OmpSs array-section style
// dependences ("[BS*BS]C" on different tiles, overlapping slices, ...) are
// tracked precisely at byte granularity.
//
// Concurrency: interval state is partitioned into kShardCount shards by
// `region % kShardCount` — the same striping the DataDirectory uses — so
// producers registering tasks over disjoint regions take only their shard
// mutexes (class analyzer.shard, rank 16, below sched.account) and proceed
// in parallel. A task whose accesses span several shards locks them
// through ShardLockSet, in ascending shard-index order (the class is
// marked reentrant so the rank checker accepts the same-class nesting;
// the fixed order rules out deadlock). Program order still matters *per
// region chain*: two tasks whose accesses overlap must have their add_task
// calls ordered by the caller (the runtime serializes same-graph
// submission), but tasks over disjoint regions may register concurrently
// — the predecessor sets then equal those of any serial interleaving.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/types.h"
#include "task/access.h"
#include "util/annotated_sync.h"

namespace versa {

class DependencyAnalyzer {
 public:
  /// Shard fan-out; mirrors DataDirectory::kShardCount so a region maps to
  /// the same stripe in both structures.
  static constexpr std::size_t kShardCount = 8;

  /// Record `task`'s accesses (lengths must be resolved, i.e. non-zero)
  /// and append its distinct predecessor task ids to `preds`.
  /// Tasks on overlapping regions must be submitted in program order;
  /// tasks on disjoint regions may call this concurrently.
  void add_task(TaskId task, const AccessList& accesses,
                std::vector<TaskId>& preds);

  /// Forget all tracking for a region (region deregistration).
  void clear_region(RegionId region);

  void reset();

  /// Number of live intervals across all regions (test/diagnostic hook).
  std::size_t interval_count() const;

 private:
  struct Interval {
    std::uint64_t end = 0;  ///< exclusive; key of the map is the start
    TaskId last_writer = kInvalidTask;
    std::vector<TaskId> readers;  ///< readers since last_writer
  };

  /// Per-region interval map keyed by interval start. Invariant: intervals
  /// are disjoint and non-empty; bytes never accessed have no interval.
  using IntervalMap = std::map<std::uint64_t, Interval>;

  struct Shard {
    Shard() : mutex(lock_order::kLockRankAnalyzerShard) {}
    mutable versa::Mutex mutex;
    std::map<RegionId, IntervalMap> regions VERSA_GUARDED_BY(mutex);
  };

  Shard& shard_of(RegionId region) { return shards_[region % kShardCount]; }
  const Shard& shard_of(RegionId region) const {
    return shards_[region % kShardCount];
  }

  std::array<Shard, kShardCount> shards_;

  /// Split the interval containing `pos` (if any) so that `pos` becomes a
  /// boundary. Leaves the map equivalent.
  static void split_at(IntervalMap& map, std::uint64_t pos);
};

}  // namespace versa

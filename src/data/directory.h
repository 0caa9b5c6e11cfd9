// Software cache-coherence directory across memory spaces.
//
// OmpSs semantics: shared data may be replicated in several memory spaces;
// the runtime keeps the copies coherent by tracking, per region, which
// spaces hold a valid copy (single-writer / multiple-reader). A task's
// copy_deps clauses are satisfied *before* it runs (acquire); writes
// invalidate remote copies; taskwait flushes dirty device data back to the
// host unless the noflush clause is used.
//
// The directory is a pure bookkeeping machine: it decides *which* copies
// must happen and accounts them (Input/Output/Device Tx, §V-A); executors
// decide *when* they happen (and, in simulation, how long they take).
//
// Thread-safety: the directory is internally synchronized and every public
// method is callable WITHOUT the runtime lock (DESIGN.md §9). Region state
// is sharded by region id across `kShardCount` shards, each behind its own
// `data.shard` (rank 14) mutex. One rule covers every operation: it locks
// the shards its regions live in, in ascending shard order (ShardLockSet),
// and holds them until it finishes, so each operation is atomic as a whole
// to every other. Registration, flush_all and acquires into
// capacity-limited spaces (eviction scans every shard) lock all shards.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "data/data_region.h"
#include "data/transfer_stats.h"
#include "machine/machine.h"
#include "task/access.h"
#include "util/annotated_sync.h"

namespace versa {

/// One required copy, produced by acquire()/flush().
struct TransferOp {
  RegionId region = 0;
  SpaceId from = kInvalidSpace;
  SpaceId to = kInvalidSpace;
  std::uint64_t bytes = 0;
  TransferCategory category = TransferCategory::kLocal;
};

using TransferList = std::vector<TransferOp>;

class DataDirectory {
 public:
  /// Region ids stripe across shards (`id % kShardCount`). Public so the
  /// DependencyAnalyzer mirrors the same striping and tests/benches can
  /// construct disjoint-shard workloads deliberately.
  static constexpr std::size_t kShardCount = 8;

  explicit DataDirectory(const Machine& machine);

  /// Register a managed region. `host_ptr` may be null (virtual region).
  /// The fresh region is valid in host memory only.
  RegionId register_region(std::string name, std::uint64_t size,
                           void* host_ptr = nullptr);

  /// Drop a region from management: every copy is released (dirty device
  /// data is discarded — flush first if it matters) and its id becomes
  /// invalid for future calls. Ids are never reused.
  void unregister_region(RegionId id);

  bool is_registered(RegionId id) const;

  /// Borrowed reference into shard-guarded state: valid because region
  /// descriptors live in per-shard deques and are never moved or erased
  /// (ids are never reused); the shard guard inside orders the lookup.
  const RegionDesc& region(RegionId id) const;
  std::size_t region_count() const {
    return region_limit_.load(std::memory_order_acquire);
  }
  std::size_t live_region_count() const {
    return live_regions_.load(std::memory_order_acquire);
  }

  /// Make every region accessed by `accesses` coherent for execution in
  /// `space`: appends the copies required to `out`, updates validity
  /// (writes invalidate other spaces) and evicts LRU copies if the space
  /// would overflow. Must be called in dependence order per task chain —
  /// the task graph orders conflicting acquires, so concurrent calls only
  /// ever touch disjoint or read-shared regions. Acquires into unlimited
  /// spaces lock only their own shards, so disjoint-shard acquires run in
  /// parallel; acquires into capacity-limited spaces lock every shard.
  void acquire(const AccessList& accesses, SpaceId space, TransferList& out);

  /// Bytes that would need copying into `space` to run `accesses` there.
  /// Pure query — the affinity scheduler's cost function. Answers are
  /// consistent: computed with every shard of `accesses` locked.
  std::uint64_t bytes_missing(const AccessList& accesses, SpaceId space) const;

  /// Bytes of `accesses` already valid in `space` (locality score).
  std::uint64_t bytes_valid(const AccessList& accesses, SpaceId space) const;

  /// Estimated seconds to stage the missing bytes of `accesses` into
  /// `space` over the host->space link (the dominant path): zero when
  /// nothing is missing or no such link exists, else
  /// latency + missing/bandwidth. The locality-versioning scheduler's
  /// placement penalty — callable without any runtime involvement.
  Duration transfer_cost(const AccessList& accesses, SpaceId space) const;

  /// Copy every dirty region back to host (taskwait flush semantics).
  void flush_all(TransferList& out);

  /// Flush one region (taskwait on(...) semantics).
  void flush_region(RegionId id, TransferList& out);

  bool is_valid_in(RegionId id, SpaceId space) const;

  /// Space holding the only modified copy, or kInvalidSpace if the host
  /// copy is current.
  SpaceId dirty_space(RegionId id) const;

  std::uint64_t used_bytes(SpaceId space) const;

  /// Plain-value snapshot of the transfer accounting.
  TransferStats stats() const { return stats_.snapshot(); }

  /// Number of evictions performed due to capacity pressure.
  std::uint64_t eviction_count() const {
    return evictions_.load(std::memory_order_acquire);
  }

 private:
  struct RegionState {
    RegionDesc desc;
    std::uint64_t valid_mask = 1;  ///< bit per space; bit 0 = host
    SpaceId dirty = kInvalidSpace;
    std::uint64_t last_use = 0;
    bool pinned = false;   ///< set while part of an in-flight acquire
    bool removed = false;  ///< unregistered (tombstone; ids never reused)
  };

  struct Shard {
    mutable versa::Mutex mutex{lock_order::kLockRankDataShard};
    std::deque<RegionState> regions VERSA_GUARDED_BY(mutex);
  };

  const Machine& machine_;
  std::array<Shard, kShardCount> shards_;

  /// Number of region ids handed out (tombstones included).
  std::atomic<std::size_t> region_limit_{0};
  /// Per-space bytes of valid copies (relaxed mirrors; mutated under the
  /// owning region's shard lock, read lock-free by used_bytes()).
  std::vector<std::atomic<std::uint64_t>> used_;
  AtomicTransferStats stats_;
  std::atomic<std::uint64_t> tick_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::size_t> live_regions_{0};

  /// Bitmask (bit i = shard i) of the shards `accesses` touches — the
  /// lock set of an operation over `accesses`.
  static std::uint64_t shard_mask(const AccessList& accesses);

  Shard& shard_of(RegionId id) { return shards_[id % kShardCount]; }
  const Shard& shard_of(RegionId id) const { return shards_[id % kShardCount]; }
  static std::size_t slot_of(RegionId id) { return id / kShardCount; }

  RegionState& state_at(Shard& shard, RegionId id)
      VERSA_REQUIRES(shard.mutex);
  const RegionState& state_at(const Shard& shard, RegionId id) const
      VERSA_REQUIRES(shard.mutex);

  /// Pick the source space for a copy into `to` (prefers host).
  SpaceId choose_source(const RegionState& rs, SpaceId to) const;

  void add_valid(RegionState& rs, SpaceId space);
  void drop_valid(RegionState& rs, SpaceId space);
  void emit_copy(RegionState& rs, SpaceId from, SpaceId to, TransferList& out);

  /// Evict LRU unpinned copies from `space` until `needed` bytes fit.
  /// Called with every shard locked.
  void make_room(SpaceId space, std::uint64_t needed, TransferList& out);
};

}  // namespace versa

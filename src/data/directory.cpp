#include "data/directory.h"

#include "common/check.h"
#include "common/log.h"

namespace versa {
namespace {

constexpr std::uint64_t bit(SpaceId space) { return std::uint64_t{1} << space; }

constexpr std::uint64_t kAllShards =
    (std::uint64_t{1} << DataDirectory::kShardCount) - 1;

}  // namespace

DataDirectory::DataDirectory(const Machine& machine)
    : machine_(machine), used_(machine.space_count()) {
  VERSA_CHECK_MSG(machine.space_count() <= 64,
                  "validity masks support up to 64 memory spaces");
  for (auto& bytes : used_) {
    bytes.store(0, std::memory_order_relaxed);
  }
}

// Every operation locks the shards its regions live in (ShardLockSet:
// ascending shard index) and holds them to the end, so operations over
// overlapping shard sets serialize and each one is atomic to the others.
// Operations over a dynamic shard set are beyond the static analysis
// (VERSA_NO_THREAD_SAFETY_ANALYSIS); the rank checker still validates
// every acquisition.

std::uint64_t DataDirectory::shard_mask(const AccessList& accesses) {
  std::uint64_t mask = 0;
  for (const Access& access : accesses) {
    mask |= std::uint64_t{1} << (access.region % kShardCount);
  }
  return mask;
}

RegionId DataDirectory::register_region(std::string name, std::uint64_t size,
                                        void* host_ptr)
    VERSA_NO_THREAD_SAFETY_ANALYSIS {
  VERSA_CHECK_MSG(size > 0, "zero-sized region");
  // All shards: ids are handed out in order, and each lands at the end of
  // its shard's deque.
  ShardLockSet lock(shards_, kAllShards);
  const RegionId id =
      static_cast<RegionId>(region_limit_.load(std::memory_order_relaxed));
  Shard& shard = shard_of(id);
  VERSA_CHECK(slot_of(id) == shard.regions.size());
  RegionState rs;
  rs.desc.id = id;
  rs.desc.name = std::move(name);
  rs.desc.size = size;
  rs.desc.host_ptr = host_ptr;
  rs.valid_mask = bit(kHostSpace);
  shard.regions.push_back(std::move(rs));
  used_[kHostSpace].fetch_add(size, std::memory_order_relaxed);
  live_regions_.fetch_add(1, std::memory_order_relaxed);
  region_limit_.store(id + 1, std::memory_order_release);
  return id;
}

void DataDirectory::unregister_region(RegionId id) {
  Shard& shard = shard_of(id);
  versa::LockGuard lock(shard.mutex);
  RegionState& rs = state_at(shard, id);
  VERSA_CHECK_MSG(!rs.pinned, "cannot unregister a region mid-acquire");
  if (rs.dirty != kInvalidSpace) {
    VERSA_LOG(kWarn) << "unregistering region '" << rs.desc.name
                     << "' with unflushed device data";
  }
  for (SpaceId s = 0; s < machine_.space_count(); ++s) {
    drop_valid(rs, s);
  }
  rs.dirty = kInvalidSpace;
  rs.removed = true;
  VERSA_CHECK(live_regions_.load(std::memory_order_relaxed) > 0);
  live_regions_.fetch_sub(1, std::memory_order_relaxed);
}

bool DataDirectory::is_registered(RegionId id) const {
  if (id >= region_limit_.load(std::memory_order_acquire)) return false;
  const Shard& shard = shard_of(id);
  versa::LockGuard lock(shard.mutex);
  return !shard.regions[slot_of(id)].removed;
}

const RegionDesc& DataDirectory::region(RegionId id) const {
  // Ref-returning accessor: the shard guard orders the lookup; the
  // reference stays valid because descriptors are never moved (per-shard
  // deques, ids never reused).
  const Shard& shard = shard_of(id);
  versa::LockGuard lock(shard.mutex);
  return state_at(shard, id).desc;
}

DataDirectory::RegionState& DataDirectory::state_at(Shard& shard,
                                                    RegionId id) {
  VERSA_CHECK(id < region_limit_.load(std::memory_order_acquire));
  VERSA_CHECK(slot_of(id) < shard.regions.size());
  RegionState& rs = shard.regions[slot_of(id)];
  VERSA_CHECK_MSG(!rs.removed, "region was unregistered");
  return rs;
}

const DataDirectory::RegionState& DataDirectory::state_at(const Shard& shard,
                                                          RegionId id) const {
  VERSA_CHECK(id < region_limit_.load(std::memory_order_acquire));
  VERSA_CHECK(slot_of(id) < shard.regions.size());
  const RegionState& rs = shard.regions[slot_of(id)];
  VERSA_CHECK_MSG(!rs.removed, "region was unregistered");
  return rs;
}

SpaceId DataDirectory::choose_source(const RegionState& rs,
                                     [[maybe_unused]] SpaceId to) const {
  VERSA_DCHECK((rs.valid_mask & bit(to)) == 0);
  // Prefer the host copy when one exists: host->device links are dedicated
  // per device, so host sourcing spreads load. Otherwise take the first
  // valid device copy (device->device transfer, the paper's Device Tx).
  if (rs.valid_mask & bit(kHostSpace)) return kHostSpace;
  for (SpaceId s = 0; s < machine_.space_count(); ++s) {
    if (rs.valid_mask & bit(s)) return s;
  }
  VERSA_CHECK_MSG(false, "region has no valid copy anywhere");
  return kInvalidSpace;
}

void DataDirectory::add_valid(RegionState& rs, SpaceId space) {
  if ((rs.valid_mask & bit(space)) == 0) {
    rs.valid_mask |= bit(space);
    used_[space].fetch_add(rs.desc.size, std::memory_order_relaxed);
  }
}

void DataDirectory::drop_valid(RegionState& rs, SpaceId space) {
  if (rs.valid_mask & bit(space)) {
    rs.valid_mask &= ~bit(space);
    VERSA_DCHECK(used_[space].load(std::memory_order_relaxed) >=
                 rs.desc.size);
    used_[space].fetch_sub(rs.desc.size, std::memory_order_relaxed);
  }
}

void DataDirectory::emit_copy(RegionState& rs, SpaceId from, SpaceId to,
                              TransferList& out) {
  const TransferCategory category = classify_transfer(from, to);
  out.push_back(TransferOp{rs.desc.id, from, to, rs.desc.size, category});
  stats_.record(category, rs.desc.size);
}

void DataDirectory::make_room(SpaceId space, std::uint64_t needed,
                              TransferList& out)
    VERSA_NO_THREAD_SAFETY_ANALYSIS {
  const std::uint64_t capacity = machine_.space(space).capacity;
  while (used_[space].load(std::memory_order_relaxed) + needed > capacity) {
    // Find the least recently used unpinned region valid in this space,
    // ordered by (last_use, id): the first id among the minimum-last_use
    // candidates.
    RegionState* victim = nullptr;
    for (Shard& shard : shards_) {
      for (RegionState& rs : shard.regions) {
        if (rs.removed || rs.pinned) continue;
        if ((rs.valid_mask & bit(space)) == 0) continue;
        if (victim == nullptr || rs.last_use < victim->last_use ||
            (rs.last_use == victim->last_use &&
             rs.desc.id < victim->desc.id)) {
          victim = &rs;
        }
      }
    }
    if (victim == nullptr) {
      VERSA_LOG(kWarn) << "memory space " << machine_.space(space).name
                       << " over-committed; cannot evict";
      return;
    }
    if (victim->dirty == space) {
      // Write back before dropping the only modified copy.
      emit_copy(*victim, space, kHostSpace, out);
      add_valid(*victim, kHostSpace);
      victim->dirty = kInvalidSpace;
    }
    drop_valid(*victim, space);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void DataDirectory::acquire(const AccessList& accesses, SpaceId space,
                            TransferList& out)
    VERSA_NO_THREAD_SAFETY_ANALYSIS {
  VERSA_CHECK(space < machine_.space_count());
  // A capped space may evict any region, so it locks every shard.
  const bool capped = machine_.space(space).capacity != 0;
  ShardLockSet lock(shards_, capped ? kAllShards : shard_mask(accesses));
  if (capped) {
    // Pin the working set so evictions never victimize data this very
    // task is about to use.
    std::uint64_t incoming = 0;
    for (const Access& access : accesses) {
      RegionState& rs = state_at(shard_of(access.region), access.region);
      rs.pinned = true;
      if ((rs.valid_mask & bit(space)) == 0) incoming += rs.desc.size;
    }
    make_room(space, incoming, out);
  }
  for (const Access& access : accesses) {
    RegionState& rs = state_at(shard_of(access.region), access.region);
    rs.last_use = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
    const bool valid_here = (rs.valid_mask & bit(space)) != 0;
    if (reads(access.mode) && !valid_here) {
      const SpaceId from = choose_source(rs, space);
      emit_copy(rs, from, space, out);
      add_valid(rs, space);
    } else if (!valid_here) {
      // Pure output: no copy-in, the space just gains the (about to be
      // overwritten) only copy.
      add_valid(rs, space);
    }
    if (writes(access.mode)) {
      // Single-writer: invalidate every other copy.
      for (SpaceId s = 0; s < machine_.space_count(); ++s) {
        if (s != space) drop_valid(rs, s);
      }
      rs.dirty = (space == kHostSpace) ? kInvalidSpace : space;
    }
  }
  if (capped) {
    for (const Access& access : accesses) {
      state_at(shard_of(access.region), access.region).pinned = false;
    }
  }
}

std::uint64_t DataDirectory::bytes_missing(const AccessList& accesses,
                                           SpaceId space) const
    VERSA_NO_THREAD_SAFETY_ANALYSIS {
  ShardLockSet lock(shards_, shard_mask(accesses));
  std::uint64_t missing = 0;
  for (const Access& access : accesses) {
    if (!reads(access.mode)) continue;
    const RegionState& rs = state_at(shard_of(access.region), access.region);
    if ((rs.valid_mask & bit(space)) == 0) missing += rs.desc.size;
  }
  return missing;
}

std::uint64_t DataDirectory::bytes_valid(const AccessList& accesses,
                                         SpaceId space) const
    VERSA_NO_THREAD_SAFETY_ANALYSIS {
  ShardLockSet lock(shards_, shard_mask(accesses));
  std::uint64_t valid = 0;
  for (const Access& access : accesses) {
    const RegionState& rs = state_at(shard_of(access.region), access.region);
    if (rs.valid_mask & bit(space)) valid += rs.desc.size;
  }
  return valid;
}

Duration DataDirectory::transfer_cost(const AccessList& accesses,
                                      SpaceId space) const {
  const std::uint64_t missing = bytes_missing(accesses, space);
  if (missing == 0) return 0.0;
  // Estimate with the host->space link when it exists (the dominant path);
  // same-space placements already returned zero above.
  const LinkDesc* link = machine_.interconnect().find(kHostSpace, space);
  if (link == nullptr) return 0.0;
  return link->latency + static_cast<double>(missing) / link->bandwidth;
}

void DataDirectory::flush_all(TransferList& out)
    VERSA_NO_THREAD_SAFETY_ANALYSIS {
  ShardLockSet lock(shards_, kAllShards);
  // Walk ids in registration order so the emitted TransferList is ordered
  // exactly as the historical single-vector walk (the sim replays it).
  const std::size_t limit = region_limit_.load(std::memory_order_relaxed);
  for (RegionId id = 0; id < limit; ++id) {
    RegionState& rs = shard_of(id).regions[slot_of(id)];
    if (rs.dirty != kInvalidSpace) {
      emit_copy(rs, rs.dirty, kHostSpace, out);
      add_valid(rs, kHostSpace);
      rs.dirty = kInvalidSpace;
    }
  }
}

void DataDirectory::flush_region(RegionId id, TransferList& out) {
  Shard& shard = shard_of(id);
  versa::LockGuard lock(shard.mutex);
  RegionState& rs = state_at(shard, id);
  if (rs.dirty != kInvalidSpace) {
    emit_copy(rs, rs.dirty, kHostSpace, out);
    add_valid(rs, kHostSpace);
    rs.dirty = kInvalidSpace;
  }
}

bool DataDirectory::is_valid_in(RegionId id, SpaceId space) const {
  const Shard& shard = shard_of(id);
  versa::LockGuard lock(shard.mutex);
  return (state_at(shard, id).valid_mask & bit(space)) != 0;
}

SpaceId DataDirectory::dirty_space(RegionId id) const {
  const Shard& shard = shard_of(id);
  versa::LockGuard lock(shard.mutex);
  return state_at(shard, id).dirty;
}

std::uint64_t DataDirectory::used_bytes(SpaceId space) const {
  VERSA_CHECK(space < used_.size());
  return used_[space].load(std::memory_order_acquire);
}

}  // namespace versa

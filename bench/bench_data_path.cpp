// Micro-benchmarks (google-benchmark) for the concurrent data path: the
// DataDirectory locks, per operation, the shards its regions live in
// (ascending shard order) and holds them until it finishes.
//
// The rows that match runtime traffic are the mixed ones. Placement
// prices candidates from one thread at a time (task_ready runs under the
// runtime lock) while workers and the prefetch thread acquire:
//  * BM_PlacementReaderUnderMutators — one transfer_cost reader plus N-1
//    mutators on disjoint region pairs; counts the reader's queries only.
//  * BM_ConcurrentMutatorsPerShard — N mutators on disjoint pairs in
//    uncapped spaces (each locks only its own shards).
//  * BM_ConcurrentMutatorsCapped — the same in capacity-limited spaces,
//    where every acquire locks all shards (eviction may pick any region).
//  * BM_ReadersUnderChurn — one mutator, N-1 readers.
// BM_TransferCostSharded (N concurrent readers, no writer) and
// BM_TransferCostGlobalMutex (the same queries serialized on one mutex,
// the arrangement before the directory left the runtime lock) bound the
// read path from above and below; no runtime path issues N concurrent
// pricing reads.
#include <benchmark/benchmark.h>

#include "bench_context.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "data/directory.h"
#include "machine/presets.h"

namespace versa {
namespace {

constexpr std::size_t kRegions = 64;
constexpr std::uint64_t kRegionBytes = 1 << 20;
constexpr std::size_t kProbes = 256;  // precomputed queries per thread

/// One directory shared by every thread of a benchmark run, pre-seeded
/// with copies scattered across the device spaces so transfer_cost has
/// real link arithmetic to do.
struct SharedDirectory {
  Machine machine = make_minotauro_node(2, 2);
  DataDirectory directory{machine};
  std::vector<RegionId> regions;
  std::vector<SpaceId> device_spaces;

  SharedDirectory() {
    for (std::size_t s = 0; s < machine.space_count(); ++s) {
      if (s != kHostSpace) device_spaces.push_back(static_cast<SpaceId>(s));
    }
    TransferList ops;
    for (std::size_t r = 0; r < kRegions; ++r) {
      regions.push_back(
          directory.register_region("r" + std::to_string(r), kRegionBytes));
      const SpaceId space = device_spaces[r % device_spaces.size()];
      const AccessList accesses = {r % 3 == 0 ? Access::inout(regions.back())
                                              : Access::in(regions.back())};
      directory.acquire(accesses, space, ops);
      ops.clear();
    }
  }
};

SharedDirectory& shared() {
  static SharedDirectory instance;
  return instance;
}

/// Per-thread probe set, built outside the timed loop so the hot loop
/// is nothing but the directory query.
std::vector<std::pair<AccessList, SpaceId>> make_probes(int thread_index) {
  SharedDirectory& sh = shared();
  Rng rng(7u + static_cast<std::uint64_t>(thread_index));
  std::vector<std::pair<AccessList, SpaceId>> probes;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const RegionId a = sh.regions[rng.next_below(kRegions)];
    const RegionId b = sh.regions[rng.next_below(kRegions)];
    AccessList accesses = {Access::in(a)};
    if (b != a) accesses.push_back(Access::in(b));
    const SpaceId space = static_cast<SpaceId>(
        rng.next_below(sh.machine.space_count()));
    probes.emplace_back(std::move(accesses), space);
  }
  return probes;
}

void BM_TransferCostSharded(benchmark::State& state) {
  SharedDirectory& sh = shared();
  const auto probes = make_probes(state.thread_index());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [accesses, space] = probes[i++ % kProbes];
    benchmark::DoNotOptimize(sh.directory.transfer_cost(accesses, space));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransferCostSharded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Pre-refactor model: every lookup took the runtime lock, so reads
/// from all workers serialized on a single mutex.
void BM_TransferCostGlobalMutex(benchmark::State& state) {
  static std::mutex runtime_mutex;
  SharedDirectory& sh = shared();
  const auto probes = make_probes(state.thread_index());
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [accesses, space] = probes[i++ % kProbes];
    std::lock_guard<std::mutex> lock(runtime_mutex);
    benchmark::DoNotOptimize(sh.directory.transfer_cost(accesses, space));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TransferCostGlobalMutex)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Thread 0 mutates (read-mode acquires bouncing copies between
/// spaces), the rest price transfers concurrently: read throughput
/// under writer churn.
void BM_ReadersUnderChurn(benchmark::State& state) {
  SharedDirectory& sh = shared();
  if (state.thread_index() == 0) {
    TransferList ops;
    std::size_t i = 0;
    for (auto _ : state) {
      const RegionId region = sh.regions[i % kRegions];
      const SpaceId space = sh.device_spaces[i % sh.device_spaces.size()];
      ++i;
      const AccessList accesses = {Access::in(region)};
      sh.directory.acquire(accesses, space, ops);
      ops.clear();
    }
  } else {
    const auto probes = make_probes(state.thread_index());
    std::size_t i = 0;
    for (auto _ : state) {
      const auto& [accesses, space] = probes[i++ % kProbes];
      benchmark::DoNotOptimize(sh.directory.transfer_cost(accesses, space));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReadersUnderChurn)->Threads(2)->Threads(4)->Threads(8)
    ->UseRealTime();

// --- Concurrent mutators: uncapped (own shards) vs capped (all shards) --
//
// Each mutator thread owns a disjoint region pair and performs inout
// acquires bouncing between the two device spaces. In capacity-0
// (uncapped) spaces an acquire locks only the shards of its own pair, so
// disjoint mutators commit concurrently; in capped spaces every acquire
// locks all shards and they serialize.

constexpr std::size_t kMutatorMaxThreads = 8;
constexpr std::size_t kMutatorRegionsPerThread = 2;

Machine make_mutator_machine(std::uint64_t capacity) {
  Machine::Builder builder;
  const SpaceId g0 = builder.add_space("g0", capacity);
  const SpaceId g1 = builder.add_space("g1", capacity);
  const DeviceId d0 = builder.add_device(DeviceKind::kCuda, g0, "a", 1);
  const DeviceId d1 = builder.add_device(DeviceKind::kCuda, g1, "b", 1);
  builder.add_worker(d0);
  builder.add_worker(d1);
  builder.add_bidi_link(kHostSpace, g0, 1e9, 1e-5);
  builder.add_bidi_link(kHostSpace, g1, 1e9, 1e-5);
  builder.add_bidi_link(g0, g1, 1e9, 1e-5);
  return builder.build();
}

struct MutatorPool {
  Machine machine;
  DataDirectory directory;
  std::vector<RegionId> regions;

  explicit MutatorPool(std::uint64_t capacity)
      : machine(make_mutator_machine(capacity)), directory(machine) {
    for (std::size_t r = 0;
         r < kMutatorMaxThreads * kMutatorRegionsPerThread; ++r) {
      regions.push_back(
          directory.register_region("m" + std::to_string(r), 1 << 12));
    }
  }
};

void run_mutators(benchmark::State& state, MutatorPool& pool) {
  // Disjoint ownership: thread t mutates only its own region pair, so the
  // acquires have no logical conflicts.
  const std::size_t base = static_cast<std::size_t>(state.thread_index()) *
                           kMutatorRegionsPerThread;
  const AccessList accesses = {Access::inout(pool.regions[base]),
                               Access::inout(pool.regions[base + 1])};
  TransferList ops;
  std::size_t i = 0;
  for (auto _ : state) {
    const SpaceId space = static_cast<SpaceId>(1 + (i++ & 1));
    pool.directory.acquire(accesses, space, ops);
    ops.clear();
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ConcurrentMutatorsPerShard(benchmark::State& state) {
  static MutatorPool pool(0);  // uncapped -> parallel mutator path
  run_mutators(state, pool);
}
BENCHMARK(BM_ConcurrentMutatorsPerShard)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// Capped spaces: every acquire locks all shards (capacity far above the
/// working set, so no eviction runs — only the lock set differs).
void BM_ConcurrentMutatorsCapped(benchmark::State& state) {
  static MutatorPool pool(1ull << 40);
  run_mutators(state, pool);
}
BENCHMARK(BM_ConcurrentMutatorsCapped)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

/// The runtime's traffic shape: thread 0 prices placements (transfer_cost
/// over random pairs of the mutators' regions, as task_ready does under
/// the runtime lock) while threads 1..N-1 run disjoint inout mutators.
/// Only the reader's queries count as items.
void BM_PlacementReaderUnderMutators(benchmark::State& state) {
  static MutatorPool pool(0);
  if (state.thread_index() != 0) {
    run_mutators(state, pool);
    state.SetItemsProcessed(0);
    return;
  }
  Rng rng(11);
  std::vector<std::pair<AccessList, SpaceId>> probes;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const RegionId a = pool.regions[rng.next_below(pool.regions.size())];
    const RegionId b = pool.regions[rng.next_below(pool.regions.size())];
    AccessList accesses = {Access::in(a)};
    if (b != a) accesses.push_back(Access::in(b));
    probes.emplace_back(std::move(accesses),
                        static_cast<SpaceId>(1 + rng.next_below(2)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [accesses, space] = probes[i++ % kProbes];
    benchmark::DoNotOptimize(pool.directory.transfer_cost(accesses, space));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PlacementReaderUnderMutators)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

}  // namespace
}  // namespace versa

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  versa::bench::report_hardware_concurrency();
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}

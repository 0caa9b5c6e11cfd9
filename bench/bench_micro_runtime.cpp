// Micro-benchmarks (google-benchmark) for the runtime's hot paths:
// completion-heap churn, dependence analysis (serial and concurrent via
// the sharded analyzer), directory acquires, profile updates, versioning
// decisions, end-to-end task throughput (with heap allocations per task)
// in simulation, and one simulated Cholesky round on the MinoTauro node.
#include <benchmark/benchmark.h>

#include "alloc_counter.h"
#include "apps/cholesky.h"
#include "bench_context.h"
#include "common/random.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/profile_table.h"
#include "sim/completion_queue.h"
#include "task/dependency_analyzer.h"

namespace versa {
namespace {

void BM_CompletionQueuePushPop(benchmark::State& state) {
  const std::size_t events = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::CompletionQueue queue;
    sim::Completion completion;
    for (std::size_t i = 0; i < events; ++i) {
      completion.when = static_cast<Time>(i % 97);
      completion.task = i;
      queue.push(completion);
    }
    std::size_t popped = 0;
    while (queue.pop(completion)) ++popped;
    benchmark::DoNotOptimize(popped);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CompletionQueuePushPop)->Arg(64)->Arg(512);

void BM_DependencyAnalysisChain(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    DependencyAnalyzer analyzer;
    std::vector<TaskId> preds;
    for (TaskId t = 0; t < tasks; ++t) {
      preds.clear();
      analyzer.add_task(t, {Access{0, AccessMode::kInOut, 0, 4096}}, preds);
      benchmark::DoNotOptimize(preds.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_DependencyAnalysisChain)->Arg(1024);

void BM_DependencyAnalysisRandomRanges(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    DependencyAnalyzer analyzer;
    Rng rng(1);
    std::vector<TaskId> preds;
    for (TaskId t = 0; t < tasks; ++t) {
      const std::uint64_t offset = rng.next_below(1 << 20);
      const std::uint64_t length = 1 + rng.next_below(1 << 16);
      const auto mode = static_cast<AccessMode>(rng.next_below(3));
      preds.clear();
      analyzer.add_task(t, {Access{0, mode, offset, length}}, preds);
      benchmark::DoNotOptimize(preds.size());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_DependencyAnalysisRandomRanges)->Arg(1024);

/// Concurrent registration throughput through the sharded analyzer: each
/// thread submits an inout chain over its own disjoint region set
/// (regions striped across analyzer shards), so producers contend only
/// on shard mutexes they actually share. Per-thread throughput should
/// hold roughly flat from 1 to 8 threads on a multicore host — the
/// pre-sharding analyzer serialized every add_task on one mutex.
void BM_RegistrationThroughputSharded(benchmark::State& state) {
  static DependencyAnalyzer analyzer;
  constexpr std::uint64_t kRegionsPerThread = 4;
  const RegionId base =
      static_cast<RegionId>(state.thread_index()) * kRegionsPerThread;
  TaskId id = static_cast<TaskId>(state.thread_index() + 1) * 1000000000ull;
  std::vector<TaskId> preds;
  for (auto _ : state) {
    ++id;
    // Inout chains keep the interval state bounded (each access replaces
    // the last writer instead of growing a reader list).
    const AccessList accesses = {
        Access{base + (id % kRegionsPerThread), AccessMode::kInOut, 0, 4096}};
    preds.clear();
    analyzer.add_task(id, accesses, preds);
    benchmark::DoNotOptimize(preds.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RegistrationThroughputSharded)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->UseRealTime();

void BM_DirectoryAcquireMigrate(benchmark::State& state) {
  const Machine machine = make_minotauro_node(2, 2);
  DataDirectory directory(machine);
  const RegionId region = directory.register_region("r", 1 << 20);
  const SpaceId gpu0 = machine.worker(2).space;
  const SpaceId gpu1 = machine.worker(3).space;
  TransferList ops;
  for (auto _ : state) {
    ops.clear();
    directory.acquire({Access::inout_range(region, 0, 1 << 20)}, gpu0, ops);
    ops.clear();
    directory.acquire({Access::inout_range(region, 0, 1 << 20)}, gpu1, ops);
    benchmark::DoNotOptimize(ops.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_DirectoryAcquireMigrate);

void BM_ProfileRecordAndQuery(benchmark::State& state) {
  VersionRegistry registry;
  const TaskTypeId type = registry.declare_task("t");
  const VersionId v0 =
      registry.add_version(type, DeviceKind::kCuda, "a", nullptr, nullptr);
  const VersionId v1 =
      registry.add_version(type, DeviceKind::kSmp, "b", nullptr, nullptr);
  ProfileTable table(registry, {});
  std::uint64_t size = 0;
  for (auto _ : state) {
    size = (size + 4096) % (1 << 22);
    table.record(type, v0, size, 1e-3);
    table.record(type, v1, size, 2e-3);
    benchmark::DoNotOptimize(table.fastest_version(type, size));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProfileRecordAndQuery);

void BM_EndToEndSimThroughput(benchmark::State& state) {
  const std::size_t tasks = static_cast<std::size_t>(state.range(0));
  const std::uint64_t allocations_before = alloc_counter::count();
  for (auto _ : state) {
    const Machine machine = make_minotauro_node(4, 2);
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr, make_constant_cost(4e-3));
    std::vector<RegionId> regions;
    for (int i = 0; i < 16; ++i) {
      regions.push_back(rt.register_data("r" + std::to_string(i), 1 << 16));
    }
    for (std::size_t i = 0; i < tasks; ++i) {
      rt.submit(t, {Access::inout(regions[i % regions.size()])});
    }
    rt.taskwait();
    benchmark::DoNotOptimize(rt.elapsed());
  }
  const double total_tasks = static_cast<double>(state.iterations()) *
                             static_cast<double>(tasks);
  state.SetItemsProcessed(static_cast<std::int64_t>(total_tasks));
  // Heap allocations per task, runtime construction and teardown included.
  state.counters["allocs_per_task"] =
      static_cast<double>(alloc_counter::count() - allocations_before) /
      total_tasks;
}
BENCHMARK(BM_EndToEndSimThroughput)->Arg(1000)->Arg(10000);

void BM_CholeskySimRound(benchmark::State& state) {
  // One potrf-hyb Cholesky (n = 32768, block 2048: 816 tasks) on the
  // simulated MinoTauro node per iteration, as perfbench's cholesky-sim
  // round runs it: eight SMP workers sit idle while the GPU versions take
  // the tasks, so the event loop's pop layer shows here.
  const Machine machine = make_minotauro_node(8, 2);
  std::size_t tasks = 0;
  for (auto _ : state) {
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    Runtime rt(machine, config);
    apps::CholeskyParams params;
    params.n = 32768;
    params.block = 2048;
    params.potrf = apps::PotrfVariant::kHybrid;
    apps::CholeskyApp app(rt, params);
    app.submit_all();
    rt.taskwait();
    tasks = app.task_count();
    benchmark::DoNotOptimize(rt.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(tasks));
}
BENCHMARK(BM_CholeskySimRound);

void BM_VersioningDecisionScaling(benchmark::State& state) {
  // Cost of the versioning scheduler's earliest-executor decision as the
  // machine grows: the decision scans (version, worker) pairs and sums
  // queue estimates, so this is the policy's hot path.
  const std::size_t smp = static_cast<std::size_t>(state.range(0));
  const Machine machine = make_minotauro_node(smp, 2);
  for (auto _ : state) {
    RuntimeConfig config;
    config.backend = Backend::kSim;
    config.scheduler = "versioning";
    config.noise.kind = sim::NoiseKind::kNone;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr,
                   make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr,
                   make_constant_cost(4e-3));
    std::vector<RegionId> regions;
    for (int i = 0; i < 32; ++i) {
      regions.push_back(rt.register_data("r" + std::to_string(i), 1 << 12));
    }
    for (int i = 0; i < 2000; ++i) {
      rt.submit(t, {Access::inout(regions[i % regions.size()])});
    }
    rt.taskwait();
    benchmark::DoNotOptimize(rt.elapsed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_VersioningDecisionScaling)->Arg(2)->Arg(8);

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

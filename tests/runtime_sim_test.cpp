// Integration tests for the runtime on the discrete-event backend:
// dependence-ordered execution in virtual time, overlap/prefetch effects,
// determinism, taskwait semantics, and multi-scheduler smoke coverage.
#include <gtest/gtest.h>

#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/scheduler_factory.h"

namespace versa {
namespace {

RuntimeConfig sim_config(const std::string& scheduler = "versioning") {
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = scheduler;
  config.noise.kind = sim::NoiseKind::kNone;  // deterministic durations
  return config;
}

TEST(RuntimeSim, SingleTaskRunsForItsModelledDuration) {
  const Machine machine = make_smp_machine(1);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(5e-3));
  const RegionId r = rt.register_data("r", 100);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_NEAR(rt.elapsed(), 5e-3, 1e-9);
  EXPECT_EQ(rt.run_stats().total_tasks(), 1u);
}

TEST(RuntimeSim, ChainSerializesInVirtualTime) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 100);
  for (int i = 0; i < 10; ++i) {
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  // inout chain: no parallelism despite 4 workers.
  EXPECT_NEAR(rt.elapsed(), 10e-3, 1e-9);
}

TEST(RuntimeSim, IndependentTasksRunInParallel) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  std::vector<RegionId> regions;
  for (int i = 0; i < 8; ++i) {
    regions.push_back(rt.register_data("r" + std::to_string(i), 100));
    rt.submit(t, {Access::inout(regions.back())});
  }
  rt.taskwait();
  // 8 tasks, 4 workers, 1 ms each -> 2 ms.
  EXPECT_NEAR(rt.elapsed(), 2e-3, 1e-9);
}

TEST(RuntimeSim, DependenceOrderIsRespectedInTimestamps) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  const RegionId a = rt.register_data("a", 100);
  const RegionId b = rt.register_data("b", 100);
  const TaskId writer = rt.submit(t, {Access::out(a)});
  const TaskId reader1 = rt.submit(t, {Access::in(a), Access::out(b)});
  const TaskId reader2 = rt.submit(t, {Access::in(a), Access::in(b)});
  rt.taskwait();
  const TaskGraph& graph = rt.task_graph();
  EXPECT_LE(graph.task(writer).finish_time, graph.task(reader1).start_time);
  EXPECT_LE(graph.task(reader1).finish_time, graph.task(reader2).start_time);
}

TEST(RuntimeSim, GpuTaskPaysTransferCosts) {
  const Machine machine = make_minotauro_node(1, 1);
  Runtime rt(machine, sim_config("fifo"));
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  // 6 MB in -> 1 ms transfer at 6 GB/s, then 1 ms compute, then flush out.
  const RegionId r = rt.register_data("r", 6'000'000);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_GT(rt.elapsed(), 2e-3);
  EXPECT_EQ(rt.transfer_stats().input_bytes, 6'000'000u);
  EXPECT_EQ(rt.transfer_stats().output_bytes, 6'000'000u);  // taskwait flush
}

TEST(RuntimeSim, NoflushSkipsTheFlushTraffic) {
  const Machine machine = make_minotauro_node(1, 1);
  Runtime rt(machine, sim_config("fifo"));
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 6'000'000);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait_noflush();
  EXPECT_EQ(rt.transfer_stats().output_bytes, 0u);
}

TEST(RuntimeSim, TaskwaitOnFlushesOnlyThatRegion) {
  const Machine machine = make_minotauro_node(1, 1);
  Runtime rt(machine, sim_config("fifo"));
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId a = rt.register_data("a", 1'000'000);
  const RegionId b = rt.register_data("b", 2'000'000);
  rt.submit(t, {Access::inout(a)});
  rt.submit(t, {Access::inout(b)});
  rt.taskwait_on(a);
  EXPECT_EQ(rt.transfer_stats().output_bytes, 1'000'000u);
  EXPECT_TRUE(rt.data_directory().is_valid_in(a, kHostSpace));
  rt.taskwait();
  EXPECT_EQ(rt.transfer_stats().output_bytes, 3'000'000u);
}

TEST(RuntimeSim, PrefetchOverlapShortensMakespan) {
  // Needs a push-style scheduler: pull policies (fifo) hand tasks out only
  // when a worker idles, so there is no assignment window to prefetch in.
  auto run = [&](bool prefetch) {
    const Machine machine = make_minotauro_node(1, 1);
    RuntimeConfig config = sim_config("affinity");
    config.prefetch = prefetch;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "v", nullptr,
                   make_constant_cost(1e-3));
    // Distinct 6 MB inputs: with prefetch the next task's copy overlaps
    // the current task's compute.
    for (int i = 0; i < 8; ++i) {
      const RegionId r =
          rt.register_data("r" + std::to_string(i), 6'000'000);
      rt.submit(t, {Access::in(r)});
    }
    rt.taskwait_noflush();
    return rt.elapsed();
  };
  const Time with_prefetch = run(true);
  const Time without_prefetch = run(false);
  EXPECT_LT(with_prefetch, without_prefetch);
  // Perfect overlap: 8 transfers of ~1 ms pipelined with 1 ms computes.
  EXPECT_NEAR(with_prefetch, 9e-3, 1e-3);
  EXPECT_NEAR(without_prefetch, 16e-3, 1e-3);
}

TEST(RuntimeSim, SameSeedIsBitIdentical) {
  auto run = [&](std::uint64_t seed) {
    const Machine machine = make_minotauro_node(2, 1);
    RuntimeConfig config = sim_config();
    config.noise.kind = sim::NoiseKind::kLognormal;
    config.seed = seed;
    Runtime rt(machine, config);
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr, make_constant_cost(5e-3));
    const RegionId r = rt.register_data("r", 1000);
    for (int i = 0; i < 50; ++i) {
      rt.submit(t, {Access::in(r)});
    }
    rt.taskwait();
    return rt.elapsed();
  };
  EXPECT_DOUBLE_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

TEST(RuntimeSim, EverySchedulerCompletesADiamondGraph) {
  for (const std::string& name : scheduler_names()) {
    const Machine machine = make_minotauro_node(2, 2);
    Runtime rt(machine, sim_config(name));
    const TaskTypeId t = rt.declare_task("t");
    rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
    rt.add_version(t, DeviceKind::kSmp, "c", nullptr, make_constant_cost(2e-3));
    const RegionId a = rt.register_data("a", 1000);
    const RegionId b = rt.register_data("b", 1000);
    const RegionId c = rt.register_data("c", 1000);
    rt.submit(t, {Access::out(a)});
    rt.submit(t, {Access::in(a), Access::out(b)});
    rt.submit(t, {Access::in(a), Access::out(c)});
    rt.submit(t, {Access::in(b), Access::in(c)});
    rt.taskwait();
    EXPECT_EQ(rt.run_stats().total_tasks(), 4u) << name;
    EXPECT_GT(rt.elapsed(), 0.0) << name;
  }
}

TEST(RuntimeSim, SecondWaveAfterTaskwait) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 100);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  const Time first = rt.elapsed();
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_GT(rt.elapsed(), first);
  EXPECT_EQ(rt.run_stats().total_tasks(), 2u);
}

TEST(RuntimeSim, VersioningUsesBothDeviceKindsUnderLoad) {
  const Machine machine = make_minotauro_node(4, 1);
  RuntimeConfig config = sim_config("versioning");
  config.profile.lambda = 2;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  const VersionId gpu =
      rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
  const VersionId smp = rt.add_version(t, DeviceKind::kSmp, "c", nullptr,
                                       make_constant_cost(10e-3));
  // Ten independent chains of ten: readiness trickles in as tasks finish,
  // so the reliable phase (not the round-robin learning phase) places the
  // bulk of the work.
  for (int chain = 0; chain < 10; ++chain) {
    const RegionId r = rt.register_data("r" + std::to_string(chain), 1000);
    for (int i = 0; i < 10; ++i) {
      rt.submit(t, {Access::inout(r)});
    }
  }
  rt.taskwait();
  EXPECT_GT(rt.run_stats().count(gpu), 0u);
  EXPECT_GT(rt.run_stats().count(smp), 0u);
  EXPECT_EQ(rt.run_stats().count(gpu) + rt.run_stats().count(smp), 100u);
  // The GPU version is 10x faster and there is only one GPU queue; it
  // should still carry most of the work.
  EXPECT_GT(rt.run_stats().count(gpu), rt.run_stats().count(smp));
}

TEST(RuntimeSim, TimestampsAreConsistent) {
  const Machine machine = make_minotauro_node(2, 1);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "g", nullptr, make_constant_cost(1e-3));
  rt.add_version(t, DeviceKind::kSmp, "c", nullptr, make_constant_cost(2e-3));
  const RegionId r = rt.register_data("r", 10'000'000);
  for (int i = 0; i < 20; ++i) {
    rt.submit(t, {Access::in(r)});
  }
  rt.taskwait();
  for (const Task& task : rt.task_graph().tasks()) {
    EXPECT_EQ(task.state, TaskState::kFinished);
    EXPECT_LE(task.submit_time, task.ready_time);
    EXPECT_LE(task.ready_time, task.start_time + 1e-12);
    EXPECT_LT(task.start_time, task.finish_time);
    EXPECT_NEAR(task.finish_time - task.start_time, task.measured_duration,
                1e-12);
  }
}

TEST(RuntimeSimDeath, TaskWithNoRunnableVersionAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config("fifo"));
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kCuda, "gpu-only", nullptr,
                       make_constant_cost(1e-3));
        const RegionId r = rt.register_data("r", 100);
        rt.submit(t, {Access::in(r)});
        rt.taskwait();
      },
      "deadlock|no compatible worker|no runnable version");
}

TEST(EnvOverrides, ApplyFromEnvironment) {
  setenv("VERSA_SCHEDULER", "affinity", 1);
  setenv("VERSA_LAMBDA", "7", 1);
  setenv("VERSA_PREFETCH", "0", 1);
  setenv("VERSA_SEED", "99", 1);
  RuntimeConfig config = apply_env_overrides({});
  EXPECT_EQ(config.scheduler, "affinity");
  EXPECT_EQ(config.profile.lambda, 7u);
  EXPECT_FALSE(config.prefetch);
  EXPECT_EQ(config.seed, 99u);
  unsetenv("VERSA_SCHEDULER");
  unsetenv("VERSA_LAMBDA");
  unsetenv("VERSA_PREFETCH");
  unsetenv("VERSA_SEED");

  config = apply_env_overrides({});
  EXPECT_EQ(config.scheduler, "versioning");

  // Numeric values must parse whole; an invalid one keeps the default.
  const RuntimeConfig defaults;
  setenv("VERSA_PREFETCH_BUDGET", "-1", 1);  // no sign on unsigned values
  setenv("VERSA_SEED", "abc", 1);
  setenv("VERSA_LAMBDA", "7x", 1);
  setenv("VERSA_DRIFT_THRESHOLD", "0.5x", 1);
  config = apply_env_overrides({});
  EXPECT_EQ(config.prefetch_budget, defaults.prefetch_budget);
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_EQ(config.profile.lambda, defaults.profile.lambda);
  EXPECT_EQ(config.profile.drift.threshold, defaults.profile.drift.threshold);

  setenv("VERSA_PREFETCH_BUDGET", "18446744073709551616", 1);  // 2^64
  setenv("VERSA_SEED", "", 1);
  setenv("VERSA_LAMBDA", "0", 1);  // below the minimum of 1
  setenv("VERSA_DRIFT_THRESHOLD", "-0.5", 1);
  config = apply_env_overrides({});
  EXPECT_EQ(config.prefetch_budget, defaults.prefetch_budget);
  EXPECT_EQ(config.seed, defaults.seed);
  EXPECT_EQ(config.profile.lambda, defaults.profile.lambda);
  EXPECT_EQ(config.profile.drift.threshold, defaults.profile.drift.threshold);

  setenv("VERSA_PREFETCH_BUDGET", "4096", 1);
  setenv("VERSA_SEED", "18446744073709551615", 1);
  setenv("VERSA_DRIFT_THRESHOLD", "0.5", 1);
  config = apply_env_overrides({});
  EXPECT_EQ(config.prefetch_budget, 4096u);
  EXPECT_EQ(config.seed, 18446744073709551615u);
  EXPECT_EQ(config.profile.drift.threshold, 0.5);
  unsetenv("VERSA_PREFETCH_BUDGET");
  unsetenv("VERSA_SEED");
  unsetenv("VERSA_LAMBDA");
  unsetenv("VERSA_DRIFT_THRESHOLD");
}

}  // namespace
}  // namespace versa

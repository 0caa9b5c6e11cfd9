// Tests for region deregistration (dynamic workloads freeing blocks).
#include <gtest/gtest.h>

#include "machine/presets.h"
#include "runtime/runtime.h"

namespace versa {
namespace {

RuntimeConfig sim_config() {
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "dep-aware";
  config.noise.kind = sim::NoiseKind::kNone;
  return config;
}

/// Run `count` tasks on a scratch region to completion: afterwards the
/// graph's oldest-unfinished watermark lies past all of them.
void run_finished_history(Runtime& rt, TaskTypeId t, std::size_t count) {
  const RegionId scratch = rt.register_data("scratch", 64);
  for (std::size_t i = 0; i < count; ++i) {
    rt.submit(t, {Access::inout(scratch)});
  }
  rt.taskwait();
}

/// Pinned-watermark scenario on two workers: task 0 (a 100 s "pin" on
/// `pinned`) is still running while `count` later short tasks on other
/// regions have all finished. Returns the pin's id.
TaskId run_pinned_history(Runtime& rt, RegionId pinned, std::size_t count) {
  const TaskTypeId pin = rt.declare_task("pin");
  rt.add_version(pin, DeviceKind::kSmp, "v", nullptr, make_constant_cost(100));
  const TaskTypeId quick = rt.declare_task("quick");
  rt.add_version(quick, DeviceKind::kSmp, "v", nullptr,
                 make_constant_cost(1e-3));
  Runtime::SubmitOptions pin_options;
  pin_options.graph = rt.open_graph(kDefaultTenant);
  const TaskId pin_id =
      rt.submit(pin, {Access::inout(pinned)}, std::move(pin_options));
  const RegionId scratch = rt.register_data("scratch", 64);
  const GraphId later = rt.open_graph(kDefaultTenant);
  for (std::size_t i = 0; i < count; ++i) {
    Runtime::SubmitOptions options;
    options.graph = later;
    rt.submit(quick, {Access::inout(scratch)}, std::move(options));
  }
  rt.wait_graph(later);
  return pin_id;
}

TEST(Unregister, ReleasesSpaceBytesEverywhere) {
  const Machine machine = make_minotauro_node(1, 1);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r = rt.register_data("r", 1 << 20);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();

  const SpaceId gpu = machine.worker(1).space;
  EXPECT_GT(rt.data_directory().used_bytes(gpu), 0u);
  const std::uint64_t host_before =
      rt.data_directory().used_bytes(kHostSpace);
  rt.unregister_data(r);
  EXPECT_EQ(rt.data_directory().used_bytes(gpu), 0u);
  EXPECT_EQ(rt.data_directory().used_bytes(kHostSpace),
            host_before - (1 << 20));
  EXPECT_FALSE(rt.data_directory().is_registered(r));
}

TEST(Unregister, IdsAreNotReusedAndHistoryIsForgotten) {
  const Machine machine = make_smp_machine(1);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  const RegionId old_region = rt.register_data("old", 64);
  rt.submit(t, {Access::out(old_region)});
  rt.taskwait();
  rt.unregister_data(old_region);

  const RegionId fresh = rt.register_data("fresh", 64);
  EXPECT_NE(fresh, old_region);
  // A task on the fresh region has no spurious dependence on the old
  // region's history.
  const TaskId id = rt.submit(t, {Access::in(fresh)});
  rt.taskwait();
  EXPECT_EQ(rt.task_graph().task(id).state, TaskState::kFinished);
}

TEST(Unregister, LiveRegionCountTracks) {
  const Machine machine = make_smp_machine(1);
  Runtime rt(machine, sim_config());
  const RegionId a = rt.register_data("a", 64);
  rt.register_data("b", 64);
  EXPECT_EQ(rt.data_directory().live_region_count(), 2u);
  rt.unregister_data(a);
  EXPECT_EQ(rt.data_directory().live_region_count(), 1u);
  EXPECT_EQ(rt.data_directory().region_count(), 2u);  // tombstoned
}

TEST(UnregisterDeath, UnfinishedUserAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config());
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kSmp, "v", nullptr,
                       make_constant_cost(1e-3));
        const RegionId r = rt.register_data("r", 64);
        rt.submit(t, {Access::inout(r)});
        rt.unregister_data(r);  // task not yet finished
      },
      "unfinished tasks");
}

TEST(Unregister, WatermarkSkipsFinishedHistory) {
  const Machine machine = make_smp_machine(1);
  Runtime rt(machine, sim_config());
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  run_finished_history(rt, t, 300);
  EXPECT_EQ(rt.task_graph().oldest_unfinished(), 300u);

  const RegionId r = rt.register_data("r", 64);
  const TaskId user = rt.submit(t, {Access::inout(r)});
  EXPECT_EQ(user, 300u);
  EXPECT_EQ(rt.task_graph().oldest_unfinished(), 300u);
  rt.taskwait();
  EXPECT_EQ(rt.task_graph().oldest_unfinished(), 301u);
  rt.unregister_data(r);
  EXPECT_FALSE(rt.data_directory().is_registered(r));
}

TEST(Unregister, PinnedWatermarkStillScansFinishedTail) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, sim_config());
  const RegionId pinned = rt.register_data("pinned", 64);
  const TaskId pin = run_pinned_history(rt, pinned, 200);
  const TaskGraph& graph = rt.task_graph();
  // The scenario the death test below relies on: one early task still
  // running, everything after it finished.
  EXPECT_EQ(graph.oldest_unfinished(), pin);
  EXPECT_EQ(graph.size(), 201u);
  EXPECT_NE(graph.task(pin).state, TaskState::kFinished);
  EXPECT_EQ(graph.unfinished(), 1u);
  // A region only the finished tail used retires with the pin in flight.
  const RegionId other = rt.register_data("other", 64);
  rt.unregister_data(other);
  rt.taskwait();
  EXPECT_EQ(graph.oldest_unfinished(), graph.size());
  rt.unregister_data(pinned);
}

TEST(Unregister, TaskwaitOnFindsWriterPastTheWatermark) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine, sim_config());
  const RegionId pinned = rt.register_data("pinned", 64);
  const TaskId pin = run_pinned_history(rt, pinned, 50);
  const TaskTypeId w = rt.declare_task("w");
  rt.add_version(w, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));

  // Earlier writers of x finish; the latest writer is still pending.
  const RegionId x = rt.register_data("x", 64);
  Runtime::SubmitOptions early;
  early.graph = rt.open_graph(kDefaultTenant);
  const GraphId early_graph = early.graph;
  for (int i = 0; i < 3; ++i) rt.submit(w, {Access::inout(x)}, early);
  rt.wait_graph(early_graph);
  const TaskId latest = rt.submit(w, {Access::out(x)});
  const TaskGraph& graph = rt.task_graph();
  ASSERT_EQ(graph.oldest_unfinished(), pin);
  ASSERT_GT(latest, graph.oldest_unfinished());
  ASSERT_NE(graph.task(latest).state, TaskState::kFinished);

  rt.taskwait_on(x);
  EXPECT_EQ(graph.task(latest).state, TaskState::kFinished);
  // It waited for x's writer only, not for the pin.
  EXPECT_NE(graph.task(pin).state, TaskState::kFinished);
  rt.taskwait();
}

TEST(UnregisterDeath, UnfinishedUserPastAdvancedWatermarkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config());
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kSmp, "v", nullptr,
                       make_constant_cost(1e-3));
        run_finished_history(rt, t, 300);
        const RegionId r = rt.register_data("r", 64);
        rt.submit(t, {Access::inout(r)});
        rt.unregister_data(r);  // the user past the watermark is unfinished
      },
      "unfinished tasks");
}

TEST(UnregisterDeath, EarlyUnfinishedTaskPinningWatermarkAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(2);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config());
        const RegionId pinned = rt.register_data("pinned", 64);
        run_pinned_history(rt, pinned, 200);
        rt.unregister_data(pinned);  // the pin is still running
      },
      "unfinished tasks");
}

TEST(UnregisterDeath, UseAfterUnregisterAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Machine machine = make_smp_machine(1);
  EXPECT_DEATH(
      {
        Runtime rt(machine, sim_config());
        const TaskTypeId t = rt.declare_task("t");
        rt.add_version(t, DeviceKind::kSmp, "v", nullptr,
                       make_constant_cost(1e-3));
        const RegionId r = rt.register_data("r", 64);
        rt.unregister_data(r);
        rt.submit(t, {Access::in(r)});
      },
      "unregistered");
}

}  // namespace
}  // namespace versa

// Edge-case tests for the execution backends: default cost fallback,
// flush-extended makespan, stolen-task re-acquisition, prefetch state machine,
// per-worker noise stream independence, and the sim event loop's
// notification rule (an idle worker whose pop failed still steals, pulls
// from a grown pool, and a nested taskwait still inlines its children).
#include <gtest/gtest.h>

#include "machine/presets.h"
#include "runtime/runtime.h"

namespace versa {
namespace {

TEST(SimExec, DefaultDurationCoversVersionsWithoutCostModel) {
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "fifo";
  config.noise.kind = sim::NoiseKind::kNone;
  config.default_task_duration = 2.5e-3;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v");  // no body, no cost model
  const RegionId r = rt.register_data("r", 64);
  rt.submit(t, {Access::inout(r)});
  rt.taskwait();
  EXPECT_NEAR(rt.elapsed(), 2.5e-3, 1e-12);
}

TEST(SimExec, SameTimeCompletionsFireInStartOrder) {
  // Four independent tasks of one constant cost start together on four
  // workers and finish at the same virtual time. The completion heap
  // breaks the tie by insertion order, i.e. by start order.
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  config.sched_trace = true;
  Runtime rt(machine, config);
  // Bodies run when their task starts; each task has a worker of its own.
  std::vector<WorkerId> started_on;
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(
      t, DeviceKind::kSmp, "v",
      [&](TaskContext& ctx) { started_on.push_back(ctx.worker()); },
      make_constant_cost(1e-3));
  for (int i = 0; i < 4; ++i) {
    rt.submit(t, {Access::out(rt.register_data("r" + std::to_string(i), 64))});
  }
  rt.taskwait();
  ASSERT_EQ(started_on.size(), 4u);
  std::vector<TaskId> started;
  for (WorkerId w : started_on) {
    for (TaskId id = 0; id < 4; ++id) {
      const Task& task = rt.task_graph().task(id);
      EXPECT_DOUBLE_EQ(task.finish_time, 1e-3);
      if (task.assigned_worker == w) started.push_back(id);
    }
  }
  std::vector<TaskId> completed;
  for (const core::TraceEvent& e : rt.scheduler().decision_trace().events()) {
    if (e.kind == core::TraceEventKind::kComplete) completed.push_back(e.task);
  }
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(completed, started);
}

TEST(SchedTrace, FifoRecordsCompletionsInOrder) {
  // Four independent tasks of one constant cost start together on four
  // workers under fifo and finish at the same virtual time: the trace
  // must hold one completion per task, in start order.
  const Machine machine = make_smp_machine(4);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "fifo";
  config.noise.kind = sim::NoiseKind::kNone;
  config.sched_trace = true;
  Runtime rt(machine, config);
  std::vector<WorkerId> started_on;
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(
      t, DeviceKind::kSmp, "v",
      [&](TaskContext& ctx) { started_on.push_back(ctx.worker()); },
      make_constant_cost(1e-3));
  for (int i = 0; i < 4; ++i) {
    rt.submit(t, {Access::out(rt.register_data("r" + std::to_string(i), 64))});
  }
  rt.taskwait();
  ASSERT_EQ(started_on.size(), 4u);
  std::vector<TaskId> started;
  for (WorkerId w : started_on) {
    for (TaskId id = 0; id < 4; ++id) {
      if (rt.task_graph().task(id).assigned_worker == w) started.push_back(id);
    }
  }
  std::vector<TaskId> completed;
  for (const core::TraceEvent& e : rt.scheduler().decision_trace().events()) {
    if (e.kind != core::TraceEventKind::kComplete) continue;
    completed.push_back(e.task);
    EXPECT_DOUBLE_EQ(e.time, 1e-3);
    EXPECT_DOUBLE_EQ(e.mean_term, 1e-3);  // the measured duration
  }
  ASSERT_EQ(started.size(), 4u);
  EXPECT_EQ(completed, started);
}

TEST(SimExec, IdleWorkerStealsAfterAFailedPoll) {
  // Affinity on two SMP workers (one memory space: placement falls back
  // to the shorter queue, ties to worker 0). Worker 1 finds nothing at
  // the first poll while worker 0 runs `head`; `parent`, released by
  // `head`, lands on worker 0 and its body submits one child, which also
  // lands only on worker 0's queue. Worker 1, idle since its empty poll,
  // must steal the child at once instead of leaving it behind the
  // running parent.
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "affinity";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId child = rt.declare_task("child");
  rt.add_version(child, DeviceKind::kSmp, "v", nullptr,
                 make_constant_cost(2e-3));
  const TaskTypeId parent = rt.declare_task("parent");
  const RegionId cr = rt.register_data("cr", 64);
  rt.add_version(
      parent, DeviceKind::kSmp, "v",
      [&](TaskContext&) { rt.submit(child, {Access::inout(cr)}); },
      make_constant_cost(10e-3));
  const TaskTypeId head = rt.declare_task("head");
  rt.add_version(head, DeviceKind::kSmp, "v", nullptr,
                 make_constant_cost(1e-3));
  const RegionId pr = rt.register_data("pr", 64);
  const TaskId head_id = rt.submit(head, {Access::out(pr)});
  const TaskId parent_id = rt.submit(parent, {Access::inout(pr)});
  rt.taskwait();

  const TaskGraph& graph = rt.task_graph();
  EXPECT_EQ(graph.task(head_id).assigned_worker, 0u);
  EXPECT_EQ(graph.task(parent_id).assigned_worker, 0u);
  const TaskId child_id = graph.size() - 1;
  ASSERT_EQ(graph.task(child_id).parent, parent_id);
  EXPECT_DOUBLE_EQ(graph.task(parent_id).start_time, 1e-3);
  // Stolen by worker 1 when `parent` started, not run after it on 0.
  EXPECT_EQ(graph.task(child_id).assigned_worker, 1u);
  EXPECT_DOUBLE_EQ(graph.task(child_id).start_time, 1e-3);
  EXPECT_DOUBLE_EQ(graph.task(child_id).finish_time, 3e-3);
}

TEST(SimExec, PoolGrowthWakesAnIdleWorkerOfTheRightKind) {
  // Versioning with λ = 1 on two SMP workers and one GPU (worker 2).
  // `g` runs on the GPU only; every `g` past the first learning slot
  // waits in the pool, which SMP workers cannot pull from — so at the
  // first poll worker 1 finds nothing. `h` has an SMP and a GPU version:
  // h0 takes the SMP learning slot (worker 0, 10 ms), h1 the GPU one.
  // When g0 completes, `late` (an `h` that updates g0's output) is ready
  // with both learning slots of `h` taken, so it goes to the pool. The
  // idle worker 1 must pull it then, not when worker 0 frees up.
  const Machine machine = make_minotauro_node(2, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  config.profile.lambda = 1;
  Runtime rt(machine, config);
  const TaskTypeId h = rt.declare_task("h");
  rt.add_version(h, DeviceKind::kSmp, "h-smp", nullptr,
                 make_constant_cost(10e-3));
  rt.add_version(h, DeviceKind::kCuda, "h-gpu", nullptr,
                 make_constant_cost(1e-3));
  const TaskTypeId g = rt.declare_task("g");
  rt.add_version(g, DeviceKind::kCuda, "g-gpu", nullptr,
                 make_constant_cost(1e-3));
  const TaskId h0 = rt.submit(h, {Access::out(rt.register_data("a", 64))});
  const TaskId h1 = rt.submit(h, {Access::out(rt.register_data("b", 64))});
  const RegionId shared = rt.register_data("shared", 64);
  const TaskId g0 = rt.submit(g, {Access::out(shared)});
  for (int i = 0; i < 4; ++i) {
    rt.submit(g, {Access::out(rt.register_data("g" + std::to_string(i), 64))});
  }
  const TaskId late = rt.submit(h, {Access::inout(shared)});
  rt.taskwait();

  const TaskGraph& graph = rt.task_graph();
  EXPECT_EQ(graph.task(h0).assigned_worker, 0u);
  EXPECT_EQ(graph.task(h1).assigned_worker, 2u);
  EXPECT_DOUBLE_EQ(graph.task(h0).finish_time, 10e-3);
  EXPECT_DOUBLE_EQ(graph.task(g0).finish_time, 2e-3);
  // Pulled from the pool by worker 1 when g0 completed; it starts once
  // `shared` is copied back from the GPU, long before worker 0 frees up.
  EXPECT_EQ(graph.task(late).assigned_worker, 1u);
  EXPECT_EQ(graph.task(late).chosen_version,
            rt.version_registry().versions(h).front());
  EXPECT_DOUBLE_EQ(graph.task(late).start_time, 0.0020150106666666666);
}

TEST(SimExec, NestedTaskwaitInlinesQueuedChildren) {
  // One SMP worker runs the parent; its three chained children can only
  // sit on that worker's queue, so the children-scoped taskwait must
  // inline-execute them one by one as each predecessor's completion
  // event fires.
  const Machine machine = make_smp_machine(1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId child = rt.declare_task("child");
  rt.add_version(child, DeviceKind::kSmp, "v", nullptr,
                 make_constant_cost(1e-3));
  const TaskTypeId parent = rt.declare_task("parent");
  const RegionId cr = rt.register_data("cr", 64);
  rt.add_version(
      parent, DeviceKind::kSmp, "v",
      [&](TaskContext&) {
        for (int i = 0; i < 3; ++i) rt.submit(child, {Access::inout(cr)});
        rt.taskwait();
      },
      make_constant_cost(2e-3));
  const TaskId parent_id =
      rt.submit(parent, {Access::inout(rt.register_data("pr", 64))});
  rt.taskwait();

  const TaskGraph& graph = rt.task_graph();
  ASSERT_EQ(graph.size(), 4u);
  for (TaskId id = 0; id < graph.size(); ++id) {
    EXPECT_EQ(graph.task(id).state, TaskState::kFinished);
    EXPECT_EQ(graph.task(id).assigned_worker, 0u);
  }
  // Children run back to back from the parent's start; the parent cannot
  // finish before the clock its wait observed.
  for (TaskId id = 1; id < 4; ++id) {
    EXPECT_EQ(graph.task(id).parent, parent_id);
    EXPECT_DOUBLE_EQ(graph.task(id).start_time, (id - 1) * 1e-3);
    EXPECT_DOUBLE_EQ(graph.task(id).finish_time, id * 1e-3);
  }
  EXPECT_DOUBLE_EQ(graph.task(parent_id).finish_time, 3e-3);
  EXPECT_DOUBLE_EQ(rt.elapsed(), 3e-3);
}

TEST(SimExec, FlushExtendsElapsedBeyondLastTask) {
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "fifo";
  config.noise.kind = sim::NoiseKind::kNone;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  // 60 MB dirty on the GPU: the taskwait flush costs ~10 ms on PCIe,
  // dominating the 1 ms compute.
  const RegionId r = rt.register_data("r", 60'000'000);
  rt.submit(t, {Access::out(r)});
  rt.taskwait();
  EXPECT_GT(rt.elapsed(), 10e-3);
  const Time last_finish = rt.task_graph().task(0).finish_time;
  EXPECT_GT(rt.elapsed(), last_finish);
}

TEST(SimExec, StolenTaskReacquiresForTheThiefSpace) {
  // Two GPUs, affinity scheduler (stealing enabled). All tasks want data
  // living on GPU 0; the idle GPU 1 steals one and must move the data.
  const Machine machine = make_minotauro_node(1, 2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "affinity";
  config.noise.kind = sim::NoiseKind::kNone;
  config.prefetch = true;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(5e-3));

  const RegionId hot = rt.register_data("hot", 1 << 20);
  // Seed locality on GPU 0's space via a first task wave.
  rt.submit(t, {Access::inout(hot)});
  rt.taskwait_noflush();

  // Two independent readers of the hot region: affinity queues both on the
  // data holder; the other GPU steals the second one.
  const RegionId a = rt.register_data("a", 1 << 10);
  const RegionId b = rt.register_data("b", 1 << 10);
  rt.submit(t, {Access::in(hot), Access::inout(a)});
  rt.submit(t, {Access::in(hot), Access::inout(b)});
  rt.taskwait_noflush();

  // Both GPUs executed something, and the hot region was replicated to
  // the thief's space (device or host-mediated transfer happened).
  std::set<WorkerId> used;
  for (const Task& task : rt.task_graph().tasks()) {
    used.insert(task.assigned_worker);
  }
  EXPECT_EQ(used.size(), 2u);
  EXPECT_TRUE(rt.data_directory().is_valid_in(hot, machine.worker(1).space));
  EXPECT_TRUE(rt.data_directory().is_valid_in(hot, machine.worker(2).space));
}

TEST(SimExec, WorkerNoiseStreamsAreIndependent) {
  // With noise on, two workers executing the same version must not see
  // identical duration sequences (they own separate RNG streams).
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "dep-aware";
  config.noise.kind = sim::NoiseKind::kLognormal;
  config.noise.magnitude = 0.2;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", nullptr, make_constant_cost(1e-3));
  for (int i = 0; i < 20; ++i) {
    const RegionId r = rt.register_data("r" + std::to_string(i), 64);
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  std::vector<Duration> w0, w1;
  for (const Task& task : rt.task_graph().tasks()) {
    (task.assigned_worker == 0 ? w0 : w1).push_back(task.measured_duration);
  }
  ASSERT_GE(w0.size(), 3u);
  ASSERT_GE(w1.size(), 3u);
  int equal = 0;
  for (std::size_t i = 0; i < std::min(w0.size(), w1.size()); ++i) {
    if (w0[i] == w1[i]) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(SimExec, PrefetchStartsCopiesBeforeExecution) {
  const Machine machine = make_minotauro_node(1, 1);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "affinity";  // push-style: assignment precedes pop
  config.noise.kind = sim::NoiseKind::kNone;
  config.prefetch = true;
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kCuda, "v", nullptr, make_constant_cost(1e-3));
  const RegionId r1 = rt.register_data("r1", 6'000'000);
  const RegionId r2 = rt.register_data("r2", 6'000'000);
  rt.submit(t, {Access::in(r1)});
  rt.submit(t, {Access::in(r2)});
  rt.taskwait_noflush();
  // Task 2's copy (1 ms) overlapped task 1's compute: total ~= 1 ms copy
  // + 1 ms compute + 1 ms compute, not 2 copies + 2 computes.
  EXPECT_NEAR(rt.elapsed(), 3e-3, 0.2e-3);
}

TEST(ThreadExec, ManyWorkersManyTinyTasks) {
  const Machine machine = make_smp_machine(8);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = "fifo";
  Runtime rt(machine, config);
  std::atomic<int> count{0};
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", [&](TaskContext&) {
    count.fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<RegionId> regions;
  for (int i = 0; i < 16; ++i) {
    regions.push_back(rt.register_data("r" + std::to_string(i), 64));
  }
  for (int i = 0; i < 500; ++i) {
    rt.submit(t, {Access::inout(regions[i % regions.size()])});
  }
  rt.taskwait();
  EXPECT_EQ(count.load(), 500);
}

TEST(ThreadExec, MeasuredDurationsArePositive) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kThreads;
  config.scheduler = "dep-aware";
  Runtime rt(machine, config);
  const TaskTypeId t = rt.declare_task("t");
  rt.add_version(t, DeviceKind::kSmp, "v", [](TaskContext&) {
    volatile int sink = 0;
    for (int i = 0; i < 10000; ++i) sink = sink + i;
  });
  const RegionId r = rt.register_data("r", 64);
  for (int i = 0; i < 10; ++i) {
    rt.submit(t, {Access::inout(r)});
  }
  rt.taskwait();
  for (const Task& task : rt.task_graph().tasks()) {
    EXPECT_GT(task.measured_duration, 0.0);
    EXPECT_LE(task.start_time, task.finish_time);
  }
}

}  // namespace
}  // namespace versa

// Unit tests for the discrete-event core: completion queue ordering and
// virtual clock; noise model statistics. The suite keeps the name
// EventQueue: the completion heap is the sim backend's event queue.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "common/stats.h"
#include "sim/completion_queue.h"
#include "sim/noise.h"

namespace versa::sim {
namespace {

/// Push a completion for `task` at `when`.
void push_at(CompletionQueue& q, Time when, TaskId task) {
  Completion c;
  c.when = when;
  c.task = task;
  q.push(c);
}

/// Pop every completion, returning their tasks in firing order.
std::vector<TaskId> drain(CompletionQueue& q) {
  std::vector<TaskId> order;
  Completion c;
  while (q.pop(c)) order.push_back(c.task);
  return order;
}

TEST(EventQueue, RunsInTimeOrder) {
  CompletionQueue q;
  push_at(q, 3.0, 3);
  push_at(q, 1.0, 1);
  push_at(q, 2.0, 2);
  EXPECT_EQ(drain(q), (std::vector<TaskId>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  CompletionQueue q;
  for (TaskId i = 0; i < 10; ++i) push_at(q, 5.0, i);
  const std::vector<TaskId> order = drain(q);
  ASSERT_EQ(order.size(), 10u);
  for (TaskId i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  // A fired completion may start more work, whose completion is pushed
  // while the queue is being drained (the executor's step -> pump path).
  CompletionQueue q;
  push_at(q, 0.0, 0);
  int depth = 0;
  Completion c;
  while (q.pop(c)) {
    if (++depth < 5) push_at(q, q.now() + 1.0, c.task + 1);
  }
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(c.task, 4u);
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
}

TEST(EventQueue, EmptyAndPendingTrackLiveEvents) {
  CompletionQueue q;
  EXPECT_TRUE(q.empty());
  push_at(q, 1.0, 7);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.pending(), 1u);
  Completion c;
  ASSERT_TRUE(q.pop(c));
  EXPECT_EQ(c.task, 7u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, StepReturnsFalseWhenDrained) {
  CompletionQueue q;
  Completion c;
  EXPECT_FALSE(q.pop(c));
  push_at(q, 1.0, 1);
  EXPECT_TRUE(q.pop(c));
  EXPECT_FALSE(q.pop(c));
}

TEST(EventQueue, PushCarriesTheAttemptRecord) {
  CompletionQueue q;
  Completion in;
  in.when = 2.5;
  in.task = 9;
  in.worker = 3;
  in.start = 1.5;
  in.occupy = false;
  in.fails = true;
  q.push(in);
  Completion out;
  ASSERT_TRUE(q.pop(out));
  EXPECT_DOUBLE_EQ(out.when, 2.5);
  EXPECT_EQ(out.task, 9u);
  EXPECT_EQ(out.worker, 3u);
  EXPECT_DOUBLE_EQ(out.start, 1.5);
  EXPECT_FALSE(out.occupy);
  EXPECT_TRUE(out.fails);
}

TEST(EventQueueDeathTest, PushIntoThePastAborts) {
  CompletionQueue q;
  push_at(q, 2.0, 1);
  Completion c;
  ASSERT_TRUE(q.pop(c));
  EXPECT_DEATH(push_at(q, 1.0, 2), "completion scheduled in the past");
}

TEST(Noise, NoneIsExact) {
  NoiseModel model({NoiseKind::kNone, 0.0}, Rng(1));
  EXPECT_DOUBLE_EQ(model.apply(0.5), 0.5);
}

TEST(Noise, ZeroDurationStaysZero) {
  NoiseModel model({NoiseKind::kLognormal, 0.05}, Rng(1));
  EXPECT_DOUBLE_EQ(model.apply(0.0), 0.0);
}

TEST(Noise, LognormalMeanIsUnbiased) {
  NoiseModel model({NoiseKind::kLognormal, 0.05}, Rng(3));
  Welford acc;
  for (int i = 0; i < 50000; ++i) {
    acc.add(model.apply(1.0));
  }
  EXPECT_NEAR(acc.mean(), 1.0, 0.005);
  EXPECT_NEAR(acc.stddev(), 0.05, 0.005);
}

TEST(Noise, UniformStaysInBand) {
  NoiseModel model({NoiseKind::kUniform, 0.1}, Rng(5));
  for (int i = 0; i < 10000; ++i) {
    const Duration d = model.apply(2.0);
    EXPECT_GE(d, 2.0 * 0.9 - 1e-12);
    EXPECT_LE(d, 2.0 * 1.1 + 1e-12);
  }
}

TEST(Noise, AlwaysStrictlyPositive) {
  NoiseModel model({NoiseKind::kLognormal, 0.5}, Rng(7));
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GT(model.apply(1e-9), 0.0);
  }
}

}  // namespace
}  // namespace versa::sim

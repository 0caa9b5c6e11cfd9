// Unit and integration tests for the dependence-spec sanitizer
// (DESIGN.md §12): clock-table happens-before against a brute-force
// reachability oracle, shadow-map conflict detection, conformance math,
// CSV round-trips, and end-to-end catches on both backends.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "apps/matmul.h"
#include "common/random.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sanitizer/sanitize_report.h"
#include "sanitizer/sanitizer.h"
#include "sanitizer/shadow_map.h"
#include "sanitizer/task_clock.h"
#include "sched/core/granularity.h"

namespace versa {
namespace {

using sanitize::AccessSanitizer;
using sanitize::ClockTable;
using sanitize::SanitizeMode;
using sanitize::SanitizeStats;
using sanitize::ShadowConflict;
using sanitize::ShadowMap;
using sanitize::Violation;
using sanitize::ViolationKind;

TEST(SanitizeMode, Parsing) {
  SanitizeMode mode = SanitizeMode::kRace;
  EXPECT_TRUE(sanitize::parse_sanitize_mode("off", mode));
  EXPECT_EQ(mode, SanitizeMode::kOff);
  EXPECT_TRUE(sanitize::parse_sanitize_mode("spec", mode));
  EXPECT_EQ(mode, SanitizeMode::kSpec);
  EXPECT_TRUE(sanitize::parse_sanitize_mode("race", mode));
  EXPECT_EQ(mode, SanitizeMode::kRace);
  mode = SanitizeMode::kSpec;
  EXPECT_FALSE(sanitize::parse_sanitize_mode("bogus", mode));
  EXPECT_EQ(mode, SanitizeMode::kSpec) << "failed parse must not clobber";
}

// --- ClockTable -----------------------------------------------------------

TEST(ClockTable, LinearChainIsTotallyOrdered) {
  ClockTable clocks;
  clocks.add(0, {}, kInvalidTask);
  clocks.add(1, {0}, kInvalidTask);
  clocks.add(2, {1}, kInvalidTask);
  EXPECT_TRUE(clocks.ordered(0, 2));
  EXPECT_TRUE(clocks.ordered(2, 0));  // symmetric
  EXPECT_EQ(clocks.chain_count(), 1u);
}

TEST(ClockTable, IndependentTasksUnordered) {
  ClockTable clocks;
  clocks.add(0, {}, kInvalidTask);
  clocks.add(1, {}, kInvalidTask);
  EXPECT_FALSE(clocks.ordered(0, 1));
  EXPECT_EQ(clocks.chain_count(), 2u);
}

TEST(ClockTable, DiamondOrdersThroughJoin) {
  // 0 -> {1, 2} -> 3: the branches are unordered, everything else is.
  ClockTable clocks;
  clocks.add(0, {}, kInvalidTask);
  clocks.add(1, {0}, kInvalidTask);
  clocks.add(2, {0}, kInvalidTask);
  clocks.add(3, {1, 2}, kInvalidTask);
  EXPECT_FALSE(clocks.ordered(1, 2));
  EXPECT_TRUE(clocks.ordered(0, 3));
  EXPECT_TRUE(clocks.ordered(1, 3));
  EXPECT_TRUE(clocks.ordered(2, 3));
}

TEST(ClockTable, ParentEdgeOrdersNestedChild) {
  ClockTable clocks;
  clocks.add(7, {}, kInvalidTask);
  clocks.add(8, {}, /*hb_parent=*/7);
  EXPECT_TRUE(clocks.ordered(7, 8));
}

TEST(ClockTable, AliasResolvesToHost) {
  ClockTable clocks;
  clocks.add(0, {}, kInvalidTask);
  clocks.add(1, {0}, kInvalidTask);  // fuse host
  clocks.add(2, {}, kInvalidTask);
  clocks.alias(3, 1);  // absorbed member never registered itself
  EXPECT_TRUE(clocks.ordered(3, 0));
  EXPECT_FALSE(clocks.ordered(3, 2));
  EXPECT_TRUE(clocks.ordered(3, 1)) << "member aliases to its own host";
}

TEST(ClockTable, UnknownIdsAreUnordered) {
  ClockTable clocks;
  clocks.add(0, {}, kInvalidTask);
  EXPECT_FALSE(clocks.ordered(0, 99));
  EXPECT_FALSE(clocks.ordered(99, 0));
}

// Property: ordered() must agree with brute-force reachability over
// random DAGs (edges always point from lower to higher id, as in real
// submission order).
TEST(ClockTable, MatchesReachabilityOracleOnRandomDags) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 0x9e37u);
    const std::size_t n = 5 + rng.next_below(40);
    std::vector<std::vector<char>> reach(n, std::vector<char>(n, 0));
    ClockTable clocks;
    for (std::size_t v = 0; v < n; ++v) {
      std::vector<TaskId> preds;
      for (std::size_t u = 0; u < v; ++u) {
        if (rng.next_below(4) == 0) {
          preds.push_back(u);
          reach[u][v] = 1;
        }
      }
      clocks.add(v, preds, kInvalidTask);
    }
    // Floyd–Warshall closure of the edge matrix.
    for (std::size_t k = 0; k < n; ++k) {
      for (std::size_t i = 0; i < n; ++i) {
        if (!reach[i][k]) continue;
        for (std::size_t j = 0; j < n; ++j) {
          if (reach[k][j]) reach[i][j] = 1;
        }
      }
    }
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        const bool expect = a == b || reach[a][b] || reach[b][a];
        EXPECT_EQ(clocks.ordered(a, b), expect)
            << "pair (" << a << ", " << b << ")";
      }
    }
  }
}

// --- ShadowMap ------------------------------------------------------------

sanitize::OrderedFn never_ordered() {
  return [](TaskId, TaskId) { return false; };
}

TEST(ShadowMap, WriteWriteConflictReported) {
  ShadowMap shadow;
  std::vector<ShadowConflict> conflicts;
  shadow.record(1, 10, AccessMode::kOut, 0, 64, never_ordered(), conflicts);
  EXPECT_TRUE(conflicts.empty());
  shadow.record(1, 11, AccessMode::kOut, 32, 64, never_ordered(), conflicts);
  ASSERT_EQ(conflicts.size(), 1u);
  EXPECT_EQ(conflicts[0].prior, 10u);
  EXPECT_EQ(conflicts[0].begin, 32u);
  EXPECT_EQ(conflicts[0].end, 64u);
}

TEST(ShadowMap, ReadersDoNotConflictWithEachOther) {
  ShadowMap shadow;
  std::vector<ShadowConflict> conflicts;
  shadow.record(1, 10, AccessMode::kIn, 0, 64, never_ordered(), conflicts);
  shadow.record(1, 11, AccessMode::kIn, 0, 64, never_ordered(), conflicts);
  EXPECT_TRUE(conflicts.empty());
  // A later writer conflicts with both unordered readers.
  shadow.record(1, 12, AccessMode::kOut, 0, 64, never_ordered(), conflicts);
  EXPECT_EQ(conflicts.size(), 2u);
}

TEST(ShadowMap, OrderedAccessesNeverConflict) {
  ShadowMap shadow;
  std::vector<ShadowConflict> conflicts;
  const auto all_ordered = [](TaskId, TaskId) { return true; };
  shadow.record(1, 10, AccessMode::kOut, 0, 64, all_ordered, conflicts);
  shadow.record(1, 11, AccessMode::kInOut, 0, 64, all_ordered, conflicts);
  shadow.record(1, 12, AccessMode::kIn, 0, 64, all_ordered, conflicts);
  EXPECT_TRUE(conflicts.empty());
}

TEST(ShadowMap, SameTaskNeverConflictsWithItself) {
  ShadowMap shadow;
  std::vector<ShadowConflict> conflicts;
  shadow.record(1, 10, AccessMode::kOut, 0, 64, never_ordered(), conflicts);
  shadow.record(1, 10, AccessMode::kInOut, 0, 64, never_ordered(), conflicts);
  EXPECT_TRUE(conflicts.empty());
}

TEST(ShadowMap, DisjointRangesNeverConflict) {
  ShadowMap shadow;
  std::vector<ShadowConflict> conflicts;
  shadow.record(1, 10, AccessMode::kOut, 0, 32, never_ordered(), conflicts);
  shadow.record(1, 11, AccessMode::kOut, 32, 32, never_ordered(), conflicts);
  shadow.record(2, 12, AccessMode::kOut, 0, 32, never_ordered(), conflicts);
  EXPECT_TRUE(conflicts.empty());
}

TEST(ShadowMap, ClearRegionDropsState) {
  ShadowMap shadow;
  std::vector<ShadowConflict> conflicts;
  shadow.record(1, 10, AccessMode::kOut, 0, 64, never_ordered(), conflicts);
  EXPECT_GT(shadow.interval_count(), 0u);
  shadow.clear_region(1);
  EXPECT_EQ(shadow.interval_count(), 0u);
  shadow.record(1, 11, AccessMode::kOut, 0, 64, never_ordered(), conflicts);
  EXPECT_TRUE(conflicts.empty()) << "cleared region keeps no prior writer";
}

// --- CSV round-trip -------------------------------------------------------

TEST(SanitizeReport, CsvRoundTrip) {
  std::vector<Violation> records(2);
  records[0].kind = ViolationKind::kRace;
  records[0].task_a = 3;
  records[0].type_a = 1;
  records[0].task_b = 9;
  records[0].type_b = 2;
  records[0].region = 7;
  records[0].begin = 128;
  records[0].end = 256;
  records[0].mode_a = AccessMode::kOut;
  records[0].mode_b = AccessMode::kInOut;
  records[0].bytes = 128;
  records[1].kind = ViolationKind::kOverDeclaration;
  records[1].task_a = 4;
  records[1].type_a = 1;
  records[1].region = 8;
  records[1].begin = 0;
  records[1].end = 64;
  records[1].mode_a = AccessMode::kIn;
  records[1].mode_b = AccessMode::kIn;
  records[1].bytes = 64;
  SanitizeStats stats;
  stats.tasks_checked = 10;
  stats.tasks_witnessed = 8;
  stats.races = 1;
  stats.over_declaration = 1;
  stats.wasted_transfer_bytes = 64;

  const std::string path = ::testing::TempDir() + "/sanitize_roundtrip.csv";
  ASSERT_TRUE(sanitize::write_csv(path, records, stats));
  std::vector<Violation> loaded;
  SanitizeStats loaded_stats;
  std::string error;
  ASSERT_TRUE(sanitize::read_csv(path, loaded, loaded_stats, error)) << error;
  ASSERT_EQ(loaded.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(loaded[i].kind, records[i].kind);
    EXPECT_EQ(loaded[i].task_a, records[i].task_a);
    EXPECT_EQ(loaded[i].type_a, records[i].type_a);
    EXPECT_EQ(loaded[i].task_b, records[i].task_b);
    EXPECT_EQ(loaded[i].type_b, records[i].type_b);
    EXPECT_EQ(loaded[i].region, records[i].region);
    EXPECT_EQ(loaded[i].begin, records[i].begin);
    EXPECT_EQ(loaded[i].end, records[i].end);
    EXPECT_EQ(loaded[i].mode_a, records[i].mode_a);
    EXPECT_EQ(loaded[i].mode_b, records[i].mode_b);
    EXPECT_EQ(loaded[i].bytes, records[i].bytes);
  }
  EXPECT_EQ(loaded_stats.tasks_checked, stats.tasks_checked);
  EXPECT_EQ(loaded_stats.tasks_witnessed, stats.tasks_witnessed);
  EXPECT_EQ(loaded_stats.races, stats.races);
  EXPECT_EQ(loaded_stats.wasted_transfer_bytes, stats.wasted_transfer_bytes);
  std::remove(path.c_str());
}

TEST(SanitizeReport, ReadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/sanitize_garbage.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("not,a,sanitize,report\n", f);
    std::fclose(f);
  }
  std::vector<Violation> loaded;
  SanitizeStats stats;
  std::string error;
  EXPECT_FALSE(sanitize::read_csv(path, loaded, stats, error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

// --- runtime integration --------------------------------------------------

RuntimeConfig sanitizing_config(Backend backend, SanitizeMode mode) {
  RuntimeConfig config;
  config.backend = backend;
  config.scheduler = "fifo";
  config.sanitize.mode = mode;
  return config;
}

TEST(SanitizerRuntime, OffAllocatesNothing) {
  const Machine machine = make_smp_machine(2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  Runtime rt(machine, config);
  EXPECT_EQ(rt.sanitizer(), nullptr);
}

// Padding-free and pointer-free: gtest prints the parameter's raw bytes
// into the test name, so every byte must be the same on each run.
struct BackendCase {
  Backend backend;
  char name[15];
};
static_assert(sizeof(BackendCase) == 16, "BackendCase must have no padding");

class SanitizerBackendTest : public ::testing::TestWithParam<BackendCase> {};

// A correct program: declared clauses cover exactly what the bodies
// witness. Both modes must stay silent.
TEST_P(SanitizerBackendTest, CleanProgramHasNoViolations) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine,
             sanitizing_config(GetParam().backend, SanitizeMode::kRace));
  std::vector<float> data(256, 1.0f);
  const RegionId region =
      rt.register_data("data", data.size() * sizeof(float), data.data());
  const TaskTypeId writer = rt.declare_task("writer");
  rt.add_version(writer, DeviceKind::kSmp, "smp", [](TaskContext& ctx) {
    AccessWitness(ctx).write(0);
    auto* out = static_cast<float*>(ctx.arg(0));
    for (std::size_t i = 0; i < ctx.arg_size(0) / sizeof(float); ++i) {
      out[i] = 2.0f;
    }
  });
  const TaskTypeId reader = rt.declare_task("reader");
  rt.add_version(reader, DeviceKind::kSmp, "smp", [](TaskContext& ctx) {
    AccessWitness(ctx).read(0);
    auto* in = static_cast<const float*>(ctx.arg(0));
    volatile float sink = in[0];
    (void)sink;
  });
  rt.submit(writer, {Access::out(region)});
  rt.submit(reader, {Access::in(region)});
  rt.submit(reader, {Access::in(region)});
  rt.submit(writer, {Access::inout(region)});
  rt.taskwait();

  ASSERT_NE(rt.sanitizer(), nullptr);
  EXPECT_EQ(rt.sanitizer()->error_count(), 0u)
      << [&] {
           std::ostringstream os;
           rt.sanitizer()->render(os);
           return os.str();
         }();
  const SanitizeStats stats = rt.sanitizer()->stats();
  EXPECT_EQ(stats.tasks_checked, 4u);
  EXPECT_EQ(stats.tasks_witnessed, 4u);
  EXPECT_EQ(stats.over_declaration, 0u);
}

// The canonical bug: a body updates a shared region it never declared.
// The race mode must report it both as out-of-spec and as a race.
TEST_P(SanitizerBackendTest, UndeclaredSharedWriteCaught) {
  const Machine machine = make_smp_machine(4);
  Runtime rt(machine,
             sanitizing_config(GetParam().backend, SanitizeMode::kRace));
  std::vector<float> acc(64, 0.0f);
  std::vector<float> src(64, 1.0f);
  const RegionId acc_region =
      rt.register_data("acc", acc.size() * sizeof(float), acc.data());
  const RegionId src_region =
      rt.register_data("src", src.size() * sizeof(float), src.data());

  const TaskTypeId rogue = rt.declare_task("rogue");
  rt.add_version(rogue, DeviceKind::kSmp, "smp",
                 [&acc, acc_region](TaskContext& ctx) {
                   AccessWitness witness(ctx);
                   witness.read(0);
                   witness.touch_bytes(acc_region, AccessMode::kInOut, 0,
                                       acc.size() * sizeof(float));
                   acc[0] += 1.0f;
                 });
  // Two rogue tasks: only in(src) declared, so the analyzer wires no edge
  // between them even though both update acc.
  rt.submit(rogue, {Access::in(src_region)});
  rt.submit(rogue, {Access::in(src_region)});
  rt.taskwait();

  ASSERT_NE(rt.sanitizer(), nullptr);
  const SanitizeStats stats = rt.sanitizer()->stats();
  EXPECT_GE(stats.out_of_spec, 2u) << "each rogue write is out-of-spec";
  EXPECT_GE(stats.races, 1u) << "the unordered pair must surface as a race";
  bool found_race = false;
  for (const Violation& v : rt.sanitizer()->violations()) {
    if (v.kind != ViolationKind::kRace) continue;
    found_race = true;
    EXPECT_EQ(v.region, acc_region);
    EXPECT_NE(v.task_a, kInvalidTask);
    EXPECT_NE(v.task_b, kInvalidTask);
    EXPECT_NE(v.task_a, v.task_b);
  }
  EXPECT_TRUE(found_race);
}

// Spec mode: over-declaration is a diagnostic, not an error.
TEST_P(SanitizerBackendTest, OverDeclarationIsDiagnosticOnly) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine,
             sanitizing_config(GetParam().backend, SanitizeMode::kSpec));
  std::vector<float> data(256, 0.0f);
  const RegionId region =
      rt.register_data("data", data.size() * sizeof(float), data.data());
  const TaskTypeId t = rt.declare_task("touches_half");
  rt.add_version(t, DeviceKind::kSmp, "smp", [](TaskContext& ctx) {
    // Declares the whole region, witnesses only the first half.
    AccessWitness(ctx).write_range(0, 0, ctx.arg_size(0) / 2);
  });
  rt.submit(t, {Access::out(region)});
  rt.taskwait();

  ASSERT_NE(rt.sanitizer(), nullptr);
  const SanitizeStats stats = rt.sanitizer()->stats();
  EXPECT_EQ(rt.sanitizer()->error_count(), 0u);
  EXPECT_EQ(stats.over_declaration, 1u);
  EXPECT_EQ(stats.wasted_transfer_bytes, 128 * sizeof(float));
}

// Uninstrumented bodies (no witness calls) must stay silent in spec mode.
TEST_P(SanitizerBackendTest, UnwitnessedBodiesAreSkipped) {
  const Machine machine = make_smp_machine(2);
  Runtime rt(machine,
             sanitizing_config(GetParam().backend, SanitizeMode::kSpec));
  const RegionId region = rt.register_data("virtual", 4096);
  const TaskTypeId t = rt.declare_task("plain");
  rt.add_version(t, DeviceKind::kSmp, "smp", [](TaskContext&) {});
  rt.submit(t, {Access::inout(region)});
  rt.submit(t, {Access::inout(region)});
  rt.taskwait();

  ASSERT_NE(rt.sanitizer(), nullptr);
  const SanitizeStats stats = rt.sanitizer()->stats();
  EXPECT_EQ(stats.tasks_checked, 2u);
  EXPECT_EQ(stats.tasks_witnessed, 0u);
  EXPECT_EQ(rt.sanitizer()->error_count(), 0u);
  EXPECT_EQ(stats.over_declaration, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, SanitizerBackendTest,
                         ::testing::Values(BackendCase{Backend::kSim, "sim"},
                                           BackendCase{Backend::kThreads,
                                                       "threads"}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// Figure-shaped apps under race mode must be clean: their clauses are the
// oracle the analyzer already orders, so any report is a runtime bug.
TEST(SanitizerRuntime, MatmulCleanUnderRaceMode) {
  const Machine machine = make_minotauro_node(4, 2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.sanitize.mode = SanitizeMode::kRace;
  Runtime rt(machine, config);
  apps::MatmulParams params;
  params.n = 8;
  params.tile = 4;
  params.real_compute = true;
  apps::MatmulApp app(rt, params);
  app.run();
  ASSERT_NE(rt.sanitizer(), nullptr);
  EXPECT_EQ(rt.sanitizer()->error_count(), 0u)
      << [&] {
           std::ostringstream os;
           rt.sanitizer()->render(os);
           return os.str();
         }();
  EXPECT_GT(rt.sanitizer()->stats().tasks_witnessed, 0u);
}

TEST(SanitizerRuntime, GranularitySplitStaysClean) {
  // Splitting rewires byte-exact children; their clocks must inherit the
  // shell's ordering or false races would appear here.
  const Machine machine = make_minotauro_node(4, 2);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.sanitize.mode = SanitizeMode::kRace;
  ASSERT_TRUE(core::parse_granularity("2", config.granularity));
  Runtime rt(machine, config);
  apps::MatmulParams params;
  params.n = 8;
  params.tile = 4;
  params.real_compute = true;
  apps::MatmulApp app(rt, params);
  app.run();
  ASSERT_NE(rt.sanitizer(), nullptr);
  EXPECT_EQ(rt.sanitizer()->error_count(), 0u)
      << [&] {
           std::ostringstream os;
           rt.sanitizer()->render(os);
           return os.str();
         }();
}

}  // namespace
}  // namespace versa

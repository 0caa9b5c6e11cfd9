// perfbench_driver — runs one workload of the repository benchmark.
//
//   perfbench_driver --workload stencil-sim|cholesky-sim|service-sim|
//                               service-churn
//                    --seed N --seconds S [--trace] [--spans FILE]
//
// The driver repeats *rounds* until S seconds of wall time have passed.
// Every round builds a fresh Runtime (or VersaService) and destroys it at
// the end, so no round inherits another's history. After each round it
// prints one JSON line on stdout holding the round's raw measurements:
// times of the public calls it made, the per-graph latencies, the counters
// it read from public state afterwards, and the output checks. run.py turns
// those lines into metrics; this file computes no statistics.
//
// Layers are measured from outside: the driver times its own calls into
// taskbench, Runtime, CholeskyApp and VersaService, then reads the task
// stamps (submit/ready/start/finish), transfer_stats(), run_stats(), the
// QueueScheduler counters, the DataDirectory region counts and TenantStats.
// With --trace it also records one span per timed call (name, start, end,
// parent, round) in memory, writes them to FILE at exit, and emits the
// per-task stage samples derived from the stamps.
//
// A CHECK failure inside the library aborts the process. A SIGABRT handler
// then prints {"event":"abort","completed":N} — N operations of the round
// in flight had completed — so run.py can count the rest as failed.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "apps/cholesky.h"
#include "machine/presets.h"
#include "runtime/runtime.h"
#include "sched/scheduler.h"
#include "service/versa_service.h"
#include "taskbench/graph_spec.h"
#include "taskbench/runner.h"
#include "util/lock_order.h"

namespace versa::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workload shapes. Each is fixed here; only the seed varies between runs.

// stencil-sim: one 1D 3-point stencil graph per round on the sim backend.
// The bodies are empty; each task costs one virtual microsecond, so the
// virtual stamps order the tasks and the edge check below can fail.
constexpr std::uint32_t kStencilWidth = 32;
constexpr std::uint32_t kStencilSteps = 512;
constexpr std::size_t kStencilWorkers = 2;
constexpr Duration kStencilTaskCost = 1e-6;

// cholesky-sim: the paper's problem (n = 32768 floats, 2048 blocks) on the
// largest MinoTauro configuration it reports (8 SMP + 2 GPU).
constexpr std::size_t kCholeskyN = 32768;
constexpr std::size_t kCholeskyBlock = 2048;
constexpr std::size_t kCholeskySmp = 8;
constexpr std::size_t kCholeskyGpus = 2;

// service-sim and service-churn: one client (the main thread) keeps
// kServiceWindow graphs in flight for two tenants weighted 1:2,
// kServiceGraphs graphs per round; the sim and the thread backend. Only
// service-sim is in BENCHMARK.json: service-churn aborts now and then on a
// known race (NOTES.md, known defect 2) and is kept to reproduce it.
constexpr std::size_t kServiceWorkers = 2;
constexpr std::size_t kServiceGraphs = 2000;
constexpr std::size_t kServiceWindow = 4;
constexpr std::size_t kServiceTasksPerGraph = 8;
constexpr std::uint64_t kServiceRegionBytes = 4096;

// Iterations of the host-speed reference loop run before each round's
// measured window (a few milliseconds of CPU time).
constexpr std::size_t kReferenceOps = 20000;

// Per-task stage samples emitted per run (traced runs only): enough for a
// stable p99, small enough to keep the JSON lines cheap.
constexpr std::size_t kStageSampleCap = 250000;

// ---------------------------------------------------------------------------
// Output.

class JsonLine {
 public:
  JsonLine& str(const char* key, const std::string& value) {
    field(key);
    append_quoted(value);
    return *this;
  }
  JsonLine& num(const char* key, double value) {
    field(key);
    append_double(value);
    return *this;
  }
  JsonLine& count(const char* key, std::uint64_t value) {
    field(key);
    out_ += std::to_string(value);
    return *this;
  }
  JsonLine& boolean(const char* key, bool value) {
    field(key);
    out_ += value ? "true" : "false";
    return *this;
  }
  JsonLine& array(const char* key, const std::vector<double>& values) {
    field(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out_ += ',';
      append_double(values[i]);
    }
    out_ += ']';
    return *this;
  }
  JsonLine& strings(const char* key, const std::vector<std::string>& values) {
    field(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i != 0) out_ += ',';
      append_quoted(values[i]);
    }
    out_ += ']';
    return *this;
  }
  void emit() {
    out_ += "}\n";
    std::fwrite(out_.data(), 1, out_.size(), stdout);
    std::fflush(stdout);
  }

 private:
  std::string out_ = "{";

  void field(const char* key) {
    if (out_.size() > 1) out_ += ',';
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
  void append_quoted(const std::string& value) {
    out_ += '"';
    for (char c : value) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        out_ += ' ';
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }
  void append_double(double value) {
    if (!(value == value) || value == std::numeric_limits<double>::infinity() ||
        value == -std::numeric_limits<double>::infinity()) {
      out_ += "null";
      return;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out_ += buf;
  }
};

// ---------------------------------------------------------------------------
// Abort accounting.

std::atomic<std::uint64_t> g_completed{0};

extern "C" void on_abort(int) {
  // Async-signal-safe: format the counter by hand and write(2) it. The
  // leading newline ends any line the main thread had half written.
  char digits[24];
  std::size_t n = 0;
  std::uint64_t value = g_completed.load(std::memory_order_relaxed);
  do {
    digits[n++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  char line[96];
  std::size_t len = 0;
  const char* head = "\n{\"event\":\"abort\",\"completed\":";
  for (const char* p = head; *p != '\0'; ++p) line[len++] = *p;
  while (n > 0) line[len++] = digits[--n];
  line[len++] = '}';
  line[len++] = '\n';
  ssize_t ignored = write(STDOUT_FILENO, line, len);
  (void)ignored;
  // Die of the signal even when it came from outside rather than abort().
  std::signal(SIGABRT, SIG_DFL);
  std::raise(SIGABRT);
}

// ---------------------------------------------------------------------------
// Driver-side spans (traced runs only).

struct Span {
  const char* name;
  double start;
  double end;
  int parent;  ///< index into the span list, -1 for a round's root
  std::uint64_t round;
};

class Tracer {
 public:
  Tracer(bool on, Clock::time_point origin) : on_(on), origin_(origin) {}

  bool on() const { return on_; }

  /// Open a span; returns its index (-1 when tracing is off).
  int open(const char* name, int parent, std::uint64_t round) {
    if (!on_) return -1;
    spans_.push_back({name, now(), 0.0, parent, round});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end = now();
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"parent\":%d,\"run\":%llu}\n",
                   s.name, s.start, s.end, s.parent,
                   static_cast<unsigned long long>(s.round));
    }
    return std::fclose(f) == 0;
  }

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;

  double now() const { return since(origin_); }
};

/// Time one call; with tracing on, also record it as a span.
template <typename Fn>
double timed(Tracer& tracer, const char* name, int parent, std::uint64_t round,
             Fn&& fn) {
  const int span = tracer.open(name, parent, round);
  const Clock::time_point t0 = Clock::now();
  fn();
  const double elapsed = since(t0);
  tracer.close(span);
  return elapsed;
}

// ---------------------------------------------------------------------------
// Reading public state after a round.

/// CPU time consumed so far by every thread of this process, in seconds.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// CPU time consumed so far by the calling thread, in seconds.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::atomic<std::uint64_t> g_reference_sink{0};

/// CPU seconds this thread needs for kReferenceOps iterations of a fixed
/// loop that uses none of the library: hash-map updates and lookups, small
/// heap objects, then a sort. It measures how fast the host runs
/// allocation- and hash-heavy code like the runtime's at the moment; no
/// change to src/ can alter it. On a host shared with other machines this
/// speed moves by a third for minutes at a time (see NOTES.md).
double reference_cpu_s() {
  const double t0 = thread_cpu_s();
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::vector<std::unique_ptr<std::string>> objects;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t sink = 0;
  for (std::size_t i = 0; i < kReferenceOps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    map[x % 65536] += i;
    sink += map.count((x >> 20) % 65536);
    // 24 characters: past the small-string buffer, so each one allocates.
    objects.push_back(
        std::make_unique<std::string>(24, static_cast<char>('a' + i % 26)));
    if (objects.size() == 4096) objects.clear();
  }
  std::vector<std::uint64_t> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key ^ value);
  std::sort(keys.begin(), keys.end());
  sink += keys[keys.size() / 2];
  g_reference_sink.fetch_add(sink, std::memory_order_relaxed);
  return thread_cpu_s() - t0;
}

/// Peak resident set of this process (VmHWM), in KiB. getrusage's
/// ru_maxrss is not used: Linux carries it across fork+exec, so it would
/// report the launching Python process's footprint as a floor.
std::uint64_t peak_rss_kb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kb = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

/// Per-task stage samples from the TaskGraph stamps of one round, in
/// microseconds: release = ready − latest live-predecessor finish (tasks
/// with a live dependence edge only), queue_wait = start − ready, run =
/// finish − start. Also sums busy time for the idle fraction.
struct StageSamples {
  std::vector<double> release_us;
  std::vector<double> queue_wait_us;
  std::vector<double> run_us;
  double busy_s = 0.0;
};

StageSamples stage_samples(const TaskGraph& graph, bool keep_samples) {
  StageSamples out;
  const std::deque<Task>& tasks = graph.tasks();
  std::vector<double> latest_pred(tasks.size(), -1.0);
  for (const Task& t : tasks) {
    for (TaskId succ : t.successors) {
      latest_pred[succ] = std::max(latest_pred[succ], t.finish_time);
    }
  }
  for (const Task& t : tasks) {
    out.busy_s += t.finish_time - t.start_time;
    if (!keep_samples) continue;
    if (latest_pred[t.id] >= 0.0) {
      out.release_us.push_back((t.ready_time - latest_pred[t.id]) * 1e6);
    }
    out.queue_wait_us.push_back((t.start_time - t.ready_time) * 1e6);
    out.run_us.push_back((t.finish_time - t.start_time) * 1e6);
  }
  return out;
}

/// Counters every workload reports: scheduler, data directory, transfers.
void add_layer_counters(JsonLine& line, Runtime& rt) {
  line.count("edges", rt.task_graph().edge_count());
  std::uint64_t requests = 0;
  std::uint64_t flushes = 0;
  std::uint64_t batches = 0;
  if (const auto* queue = dynamic_cast<const QueueScheduler*>(&rt.scheduler())) {
    requests = queue->reprice_requests();
    flushes = queue->reprice_flushes();
    batches = queue->buffer_push_batches();
  }
  line.count("reprice_requests", requests)
      .count("reprice_flushes", flushes)
      .count("push_batches", batches);
  const TransferStats transfers = rt.transfer_stats();
  line.count("bytes_in", transfers.input_bytes)
      .count("bytes_out", transfers.output_bytes)
      .count("bytes_dev", transfers.device_bytes)
      .count("transfer_count", transfers.total_count())
      .count("consistent_fallbacks", transfers.consistent_fallback_count)
      .count("region_slots", rt.data_directory().region_count())
      .count("live_regions", rt.data_directory().live_region_count());
  // Executions per device kind, from the per-version run statistics.
  const VersionRegistry& registry = rt.version_registry();
  std::uint64_t gpu = 0;
  for (VersionId v = 0; v < registry.version_count(); ++v) {
    if (registry.version(v).device == DeviceKind::kCuda) {
      gpu += rt.run_stats().count(v);
    }
  }
  line.count("gpu_tasks", gpu);
}

void add_stage_samples(JsonLine& line, const StageSamples& stages,
                       std::size_t& emitted) {
  if (emitted >= kStageSampleCap) return;
  emitted += stages.queue_wait_us.size();
  line.array("release_us", stages.release_us)
      .array("queue_wait_us", stages.queue_wait_us)
      .array("run_us", stages.run_us);
}

// ---------------------------------------------------------------------------
// Workloads. Each runs one round and prints its JSON line.

struct RoundContext {
  std::uint64_t round = 0;
  std::uint64_t seed = 0;
  Tracer* tracer = nullptr;
  std::size_t stage_emitted = 0;
  bool first = true;  ///< print the effective config once
};

void emit_context(const Runtime& rt, const char* workload,
                  std::size_t threads) {
  const RuntimeConfig& c = rt.config();
  JsonLine line;
  line.str("event", "context")
      .str("workload", workload)
      .str("build_type", PERFBENCH_BUILD_TYPE)
      .count("hardware_concurrency", std::thread::hardware_concurrency())
      .count("threads", threads)
      .str("scheduler", c.scheduler)
      .str("backend", c.backend == Backend::kSim ? "sim" : "threads")
      .count("workers", rt.machine().worker_count())
      .boolean("prefetch", c.prefetch)
      .count("prefetch_budget", c.prefetch_budget)
      .count("consistent_read_retries",
             static_cast<std::uint64_t>(c.consistent_read_retries))
      .count("seed", c.seed)
      .num("noise_magnitude", c.noise.magnitude)
      .num("failure_rate", c.failure_rate)
      .boolean("emulate_costs", c.emulate_costs)
      .boolean("sched_trace", c.sched_trace)
      .str("granularity", core::to_string(c.granularity.mode))
      .str("sanitize", sanitize::to_string(c.sanitize.mode))
      .boolean("lock_order_checks", lock_order::enforced());
  line.emit();
}

void stencil_round(RoundContext& ctx, const Machine& machine) {
  Tracer& tracer = *ctx.tracer;
  const int root = tracer.open("round", -1, ctx.round);
  taskbench::TaskBenchParams params;
  params.family = taskbench::GraphFamily::kStencil1D;
  params.width = kStencilWidth;
  params.steps = kStencilSteps;
  params.seed = ctx.seed;

  taskbench::GraphSpec spec;
  taskbench::GraphOracle oracle;
  const double generate_s =
      timed(tracer, "taskbench.generate", root, ctx.round, [&] {
        spec = taskbench::generate_graph(params);
        oracle = taskbench::oracle_for(params);
      });
  JsonLine begin;
  begin.str("event", "begin").count("round", ctx.round)
      .count("planned", oracle.nodes);
  begin.emit();

  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.seed = ctx.seed;
  std::unique_ptr<Runtime> rt;
  const double init_s = timed(tracer, "runtime.init", root, ctx.round, [&] {
    rt = std::make_unique<Runtime>(machine, config);
  });
  if (ctx.first) emit_context(*rt, "stencil-sim", 1);

  std::vector<TaskId> ids;
  taskbench::SubmitGraphOptions submit_options;
  submit_options.task_cost = kStencilTaskCost;
  submit_options.spin_bodies = false;
  const double ref_cpu_s = reference_cpu_s();
  const double cpu_start = process_cpu_s();
  const double submit_s =
      timed(tracer, "taskbench.submit_graph", root, ctx.round,
            [&] { ids = taskbench::submit_graph(*rt, spec, submit_options); });
  const double taskwait_s = timed(tracer, "runtime.taskwait", root, ctx.round,
                                  [&] { rt->taskwait(); });
  tracer.close(root);

  // Output checks: every task finished, the count matches the oracle, and
  // every generated edge was respected (finish(parent) <= start(child)).
  // One operation is one task; a task fails when it did not finish or
  // started before one of its parents finished.
  const TaskGraph& graph = rt->task_graph();
  std::vector<bool> bad(ids.size(), false);
  std::uint64_t finished = 0;
  Time first_submit = std::numeric_limits<double>::infinity();
  Time last_finish = 0.0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Task& t = graph.task(ids[i]);
    if (t.state == TaskState::kFinished) {
      ++finished;
    } else {
      bad[i] = true;
    }
    first_submit = std::min(first_submit, t.submit_time);
    last_finish = std::max(last_finish, t.finish_time);
  }
  for (const auto& [from, to] : spec.edges) {
    if (graph.task(ids[from]).finish_time > graph.task(ids[to]).start_time) {
      bad[to] = true;
    }
  }
  std::vector<std::string> problems;
  if (finished != oracle.nodes || ids.size() != oracle.nodes) {
    problems.push_back("completed " + std::to_string(finished) + " of " +
                       std::to_string(oracle.nodes) + " oracle nodes");
  }
  const std::uint64_t failed_tasks =
      static_cast<std::uint64_t>(std::count(bad.begin(), bad.end(), true));
  const std::uint64_t missing =
      oracle.nodes > ids.size() ? oracle.nodes - ids.size() : 0;
  if (failed_tasks > 0) {
    problems.push_back(std::to_string(failed_tasks) +
                       " tasks unfinished or ordered before a parent");
  }

  const StageSamples stages = stage_samples(graph, tracer.on());
  const double time_s = submit_s + taskwait_s;
  const double cpu_s = process_cpu_s() - cpu_start;
  JsonLine line;
  line.str("event", "round")
      .count("round", ctx.round)
      .count("attempted", oracle.nodes)
      .count("failed", std::min<std::uint64_t>(failed_tasks + missing,
                                               oracle.nodes))
      .strings("problems", problems)
      .num("setup_s", generate_s + init_s)
      .num("generate_s", generate_s)
      .num("init_s", init_s)
      .num("submit_s", submit_s)
      .num("taskwait_s", taskwait_s)
      .num("time_s", time_s)
      .num("cpu_s", cpu_s)
      .num("ref_cpu_s", ref_cpu_s)
      .count("tasks", ids.size())
      .count("graphs", 1)
      .array("graph_latency_s", {time_s})
      .array("makespan_s", {last_finish - first_submit})
      .num("busy_s", stages.busy_s)
      .num("span_s", last_finish - first_submit)
      .count("workers", machine.worker_count());
  add_layer_counters(line, *rt);
  if (tracer.on()) add_stage_samples(line, stages, ctx.stage_emitted);
  line.count("rss_kb", peak_rss_kb());
  line.emit();
}

void cholesky_round(RoundContext& ctx, const Machine& machine) {
  Tracer& tracer = *ctx.tracer;
  const int root = tracer.open("round", -1, ctx.round);
  RuntimeConfig config;
  config.backend = Backend::kSim;
  config.scheduler = "versioning";
  config.seed = ctx.seed;
  apps::CholeskyParams params;
  params.n = kCholeskyN;
  params.block = kCholeskyBlock;
  params.potrf = apps::PotrfVariant::kHybrid;

  std::unique_ptr<Runtime> rt;
  std::unique_ptr<apps::CholeskyApp> app;
  const double init_s = timed(tracer, "runtime.init", root, ctx.round, [&] {
    rt = std::make_unique<Runtime>(machine, config);
    app = std::make_unique<apps::CholeskyApp>(*rt, params);
  });
  if (ctx.first) emit_context(*rt, "cholesky-sim", 1);
  const std::uint64_t planned = app->task_count();
  JsonLine begin;
  begin.str("event", "begin").count("round", ctx.round)
      .count("planned", planned);
  begin.emit();

  const double ref_cpu_s = reference_cpu_s();
  const double cpu_start = process_cpu_s();
  const double submit_s =
      timed(tracer, "cholesky.submit_all", root, ctx.round,
            [&] { app->submit_all(); });
  const double taskwait_s = timed(tracer, "runtime.taskwait", root, ctx.round,
                                  [&] { rt->taskwait(); });
  tracer.close(root);

  // Output checks: one operation is one task. Unfinished tasks and failed
  // attempts (each one a task execution that did not succeed) are failures.
  const TaskGraph& graph = rt->task_graph();
  std::uint64_t finished = 0;
  std::uint64_t potrf = 0;
  std::uint64_t potrf_gpu = 0;
  for (const Task& t : graph.tasks()) {
    if (t.state != TaskState::kFinished) continue;
    ++finished;
    if (t.type == app->potrf_type()) {
      ++potrf;
      if (t.chosen_version == app->potrf_gpu_version()) ++potrf_gpu;
    }
  }
  const std::uint64_t attempts_failed = rt->failed_attempts();
  std::vector<std::string> problems;
  if (finished != planned || graph.size() != planned) {
    problems.push_back("completed " + std::to_string(finished) + " of " +
                       std::to_string(planned) + " tasks");
  }
  if (attempts_failed != 0) {
    problems.push_back(std::to_string(attempts_failed) + " failed attempts");
  }
  const std::uint64_t failed = std::min<std::uint64_t>(
      (planned > finished ? planned - finished : 0) + attempts_failed,
      planned);

  const StageSamples stages = stage_samples(graph, tracer.on());
  const double time_s = submit_s + taskwait_s;
  const double cpu_s = process_cpu_s() - cpu_start;
  JsonLine line;
  line.str("event", "round")
      .count("round", ctx.round)
      .count("attempted", planned)
      .count("failed", failed)
      .strings("problems", problems)
      .num("setup_s", init_s)
      .num("init_s", init_s)
      .num("submit_s", submit_s)
      .num("taskwait_s", taskwait_s)
      .num("time_s", time_s)
      .num("cpu_s", cpu_s)
      .num("ref_cpu_s", ref_cpu_s)
      .count("tasks", finished)
      .count("graphs", 1)
      .array("graph_latency_s", {time_s})
      .array("makespan_s", {rt->elapsed()})
      .num("busy_s", stages.busy_s)
      .num("span_s", rt->elapsed())
      .count("workers", machine.worker_count())
      .count("potrf_tasks", potrf)
      .count("potrf_gpu_tasks", potrf_gpu);
  add_layer_counters(line, *rt);
  if (tracer.on()) add_stage_samples(line, stages, ctx.stage_emitted);
  line.count("rss_kb", peak_rss_kb());
  line.emit();
}

/// Two interleaved inout chains over the graph's two regions, joined by a
/// last task that reads one and writes the other.
service::GraphSpec service_graph(TaskTypeId type) {
  service::GraphSpec spec;
  spec.regions.push_back({"a", kServiceRegionBytes});
  spec.regions.push_back({"b", kServiceRegionBytes});
  for (std::size_t i = 0; i + 1 < kServiceTasksPerGraph; ++i) {
    service::TaskSpec task;
    task.type = type;
    task.accesses.push_back({i % 2, AccessMode::kInOut});
    spec.tasks.push_back(std::move(task));
  }
  service::TaskSpec join;
  join.type = type;
  join.accesses.push_back({0, AccessMode::kIn});
  join.accesses.push_back({1, AccessMode::kInOut});
  spec.tasks.push_back(std::move(join));
  return spec;
}

void service_round(RoundContext& ctx, const Machine& machine,
                   Backend backend) {
  Tracer& tracer = *ctx.tracer;
  const int root = tracer.open("round", -1, ctx.round);
  service::VersaServiceConfig config;
  config.runtime.backend = backend;
  config.runtime.scheduler = "versioning";
  config.runtime.seed = ctx.seed;

  std::unique_ptr<service::VersaService> svc;
  std::vector<service::Session> sessions;
  service::GraphSpec spec;
  const double init_s = timed(tracer, "runtime.init", root, ctx.round, [&] {
    svc = std::make_unique<service::VersaService>(machine, config);
    const TaskTypeId type = svc->runtime().declare_task("churn");
    svc->runtime().add_version(type, DeviceKind::kSmp, "smp");
    service::TenantQuota light;
    light.weight = 1;
    service::TenantQuota heavy;
    heavy.weight = 2;
    sessions.push_back(svc->open_session("light", light));
    sessions.push_back(svc->open_session("heavy", heavy));
    spec = service_graph(type);
  });
  if (ctx.first) {
    // The thread backend runs the client, the workers and the prefetch
    // thread; the sim backend runs everything on the client's thread.
    if (backend == Backend::kSim) {
      emit_context(svc->runtime(), "service-sim", 1);
    } else {
      emit_context(svc->runtime(), "service-churn", 2 + kServiceWorkers);
    }
  }
  JsonLine begin;
  begin.str("event", "begin").count("round", ctx.round)
      .count("planned", kServiceGraphs);
  begin.emit();
  g_completed.store(0, std::memory_order_relaxed);

  // Closed loop: submit until kServiceWindow graphs are in flight, then
  // wait for the oldest before submitting the next. Graph i goes to
  // tenant i % 2. One operation is one graph; a rejected graph fails.
  struct InFlight {
    GraphId graph;
    std::size_t session;
    Clock::time_point submitted;
  };
  std::deque<InFlight> window;
  std::vector<double> latency_s;
  std::vector<double> submit_us;
  std::vector<double> exec_wait_us;
  std::vector<double> retire_us;
  latency_s.reserve(kServiceGraphs);
  std::uint64_t rejected = 0;

  auto retire_oldest = [&] {
    const InFlight f = window.front();
    window.pop_front();
    if (tracer.on()) {
      const Clock::time_point t0 = Clock::now();
      const int wait_span = tracer.open("runtime.wait_graph", root, ctx.round);
      svc->runtime().wait_graph(f.graph);
      tracer.close(wait_span);
      const Clock::time_point t1 = Clock::now();
      const int retire_span = tracer.open("service.wait", root, ctx.round);
      sessions[f.session].wait(f.graph);
      tracer.close(retire_span);
      const Clock::time_point t2 = Clock::now();
      exec_wait_us.push_back(std::chrono::duration<double>(t1 - t0).count() *
                             1e6);
      retire_us.push_back(std::chrono::duration<double>(t2 - t1).count() *
                          1e6);
      latency_s.push_back(std::chrono::duration<double>(t2 - f.submitted)
                              .count());
    } else {
      sessions[f.session].wait(f.graph);
      latency_s.push_back(since(f.submitted));
    }
    g_completed.fetch_add(1, std::memory_order_relaxed);
  };

  const double ref_cpu_s = reference_cpu_s();
  const double cpu_start = process_cpu_s();
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t i = 0; i < kServiceGraphs; ++i) {
    if (window.size() == kServiceWindow) retire_oldest();
    const std::size_t s = i % 2;
    const int span = tracer.open("service.submit", root, ctx.round);
    const Clock::time_point t0 = Clock::now();
    const service::SubmitResult result = sessions[s].submit(spec);
    if (tracer.on()) submit_us.push_back(since(t0) * 1e6);
    tracer.close(span);
    if (result.admitted()) {
      window.push_back({result.graph, s, t0});
    } else {
      ++rejected;
    }
  }
  while (!window.empty()) retire_oldest();
  const double time_s = since(loop_start);
  const double cpu_s = process_cpu_s() - cpu_start;
  tracer.close(root);

  // Output checks: both tenants reconcile — every admitted graph completed,
  // nothing left in flight, nothing rejected.
  std::vector<std::string> problems;
  std::uint64_t completed = 0;
  bool reconciled = true;
  for (const service::Session& session : sessions) {
    const service::TenantStats st = session.stats();
    completed += st.completed_graphs;
    if (st.admitted_graphs != st.completed_graphs || st.in_flight_tasks != 0 ||
        st.in_flight_bytes != 0 || st.rejected_graphs != 0) {
      reconciled = false;
      problems.push_back(
          "tenant " + std::to_string(session.tenant()) + ": admitted " +
          std::to_string(st.admitted_graphs) + ", completed " +
          std::to_string(st.completed_graphs) + ", rejected " +
          std::to_string(st.rejected_graphs) + ", in flight " +
          std::to_string(st.in_flight_tasks) + " tasks / " +
          std::to_string(st.in_flight_bytes) + " bytes");
    }
  }
  const std::uint64_t failed =
      reconciled ? rejected
                 : kServiceGraphs - std::min<std::uint64_t>(completed,
                                                            kServiceGraphs) +
                       rejected;

  // Per-graph makespan (first submit to last finish) from the stamps.
  Runtime& rt = svc->runtime();
  const TaskGraph& graph = rt.task_graph();
  std::vector<double> first(graph.graph_count(),
                            std::numeric_limits<double>::infinity());
  std::vector<double> last(graph.graph_count(), 0.0);
  Time round_first = std::numeric_limits<double>::infinity();
  Time round_last = 0.0;
  for (const Task& t : graph.tasks()) {
    first[t.graph] = std::min(first[t.graph], t.submit_time);
    last[t.graph] = std::max(last[t.graph], t.finish_time);
    round_first = std::min(round_first, t.submit_time);
    round_last = std::max(round_last, t.finish_time);
  }
  std::vector<double> makespan_s;
  for (std::size_t g = 0; g < first.size(); ++g) {
    if (first[g] <= last[g]) makespan_s.push_back(last[g] - first[g]);
  }
  const StageSamples stages = stage_samples(graph, tracer.on());

  JsonLine line;
  line.str("event", "round")
      .count("round", ctx.round)
      .count("attempted", kServiceGraphs)
      .count("failed", std::min<std::uint64_t>(failed, kServiceGraphs))
      .strings("problems", problems)
      .num("setup_s", init_s)
      .num("init_s", init_s)
      .num("time_s", time_s)
      .num("cpu_s", cpu_s)
      .num("ref_cpu_s", ref_cpu_s)
      .count("tasks", graph.size())
      .count("graphs", latency_s.size())
      .array("graph_latency_s", latency_s)
      .array("makespan_s", makespan_s)
      .num("busy_s", stages.busy_s)
      .num("span_s", round_last - round_first)
      .count("workers", machine.worker_count());
  add_layer_counters(line, rt);
  if (tracer.on()) {
    add_stage_samples(line, stages, ctx.stage_emitted);
    line.array("submit_us", submit_us)
        .array("exec_wait_us", exec_wait_us)
        .array("retire_us", retire_us);
  }
  line.count("rss_kb", peak_rss_kb());
  line.emit();
}

void service_sim_round(RoundContext& ctx, const Machine& machine) {
  service_round(ctx, machine, Backend::kSim);
}

void service_churn_round(RoundContext& ctx, const Machine& machine) {
  service_round(ctx, machine, Backend::kThreads);
}

// ---------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "stencil-sim|cholesky-sim|service-sim|service-churn "
               "--seed N "
               "--seconds S [--trace] [--spans FILE] [--first-round N]\n");
  return 2;
}

int run(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string spans_path;
  std::uint64_t first_round = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--spans" && has_value) {
      spans_path = argv[++i];
    } else if (arg == "--first-round" && has_value) {
      first_round = std::strtoull(argv[++i], nullptr, 10);
    } else {
      return usage();
    }
  }
  void (*round_fn)(RoundContext&, const Machine&) = nullptr;
  Machine machine;
  if (workload == "stencil-sim") {
    round_fn = stencil_round;
    machine = make_smp_machine(kStencilWorkers);
  } else if (workload == "cholesky-sim") {
    round_fn = cholesky_round;
    machine = make_minotauro_node(kCholeskySmp, kCholeskyGpus);
  } else if (workload == "service-sim") {
    round_fn = service_sim_round;
    machine = make_smp_machine(kServiceWorkers);
  } else if (workload == "service-churn") {
    round_fn = service_churn_round;
    machine = make_smp_machine(kServiceWorkers);
  } else {
    return usage();
  }

  std::signal(SIGABRT, on_abort);
  const Clock::time_point start = Clock::now();
  Tracer tracer(trace, start);
  RoundContext ctx;
  ctx.seed = seed;
  ctx.tracer = &tracer;
  ctx.round = first_round;
  // At least one round, then as many as fit in the time budget.
  do {
    round_fn(ctx, machine);
    ctx.first = false;
    ++ctx.round;
  } while (since(start) < seconds);
  if (!spans_path.empty() && !tracer.write(spans_path)) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 spans_path.c_str());
    return 1;
  }
  JsonLine end;
  end.str("event", "end").count("rounds", ctx.round - first_round);
  end.emit();
  return 0;
}

}  // namespace
}  // namespace versa::perfbench

int main(int argc, char** argv) { return versa::perfbench::run(argc, argv); }

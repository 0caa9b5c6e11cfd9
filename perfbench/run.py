#!/usr/bin/env python3
"""The repository benchmark: builds the versa runtime from source, runs one
workload, checks its outputs and prints every metric by name and unit.

    python3 perfbench/run.py --workload stencil-sim --seed 1 \\
        --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, measured
untraced; with ``--trace 1`` they are its per-layer metrics, measured by a
traced run, and the report also shows the tracing overhead.

    python3 perfbench/run.py --steadiness --repeats 10 [--sets 2]

runs every workload repeatedly (one seed per run) and prints, for each
end-to-end metric and workload, the median, the quartiles and the relative
spread against the metric's bound. See perfbench/NOTES.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
DRIVER = BUILD_DIR / "perfbench_driver"
BUILD_TYPE = "RelWithDebInfo"

# What one operation is, per workload (the unit of attempted/failed).
OPERATION = {
    "stencil-sim": "tasks",
    "cholesky-sim": "tasks",
    "service-sim": "graphs",
    # Not in BENCHMARK.json: reproduces a known race (NOTES.md).
    "service-churn": "graphs",
}

# A child that outlives its budget by this much is killed and its round
# counted as failed.
HANG_GRACE_S = 60.0
# Respawns after aborts within one run (each abort is recorded).
MAX_CHILDREN = 16


class BenchError(Exception):
    """A condition under which the benchmark must not report a result."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_definition():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no BENCHMARK.json at {path}")
    return json.loads(path.read_text())


def refuse_versa_env():
    # The Runtime constructor applies VERSA_* overrides silently, so a
    # stray variable would change the program under measurement.
    names = sorted(name for name in os.environ if name.startswith("VERSA_"))
    if names:
        raise BenchError("refusing to run with " + ", ".join(names) +
                         " set: the runtime would apply them")


def nproc():
    return len(os.sched_getaffinity(0))


def build():
    """Configure and build the driver; the build log goes to stderr."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, nproc()))
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
             ["cmake", "--build", str(BUILD_DIR), "--target",
              "perfbench_driver", "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


# ---------------------------------------------------------------------------
# Running the driver.

class Run:
    """Everything one workload run produced: rounds, aborts, context."""

    def __init__(self, workload):
        self.workload = workload
        self.context = None
        self.rounds = []
        self.aborts = []

    @property
    def attempted(self):
        return (sum(r["attempted"] for r in self.rounds) +
                sum(a["planned"] for a in self.aborts))

    @property
    def failed(self):
        return (sum(r["failed"] for r in self.rounds) +
                sum(a["failed"] for a in self.aborts))

    @property
    def problems(self):
        return [p for r in self.rounds for p in r["problems"]]

    @property
    def correct(self):
        return self.failed == 0 and not self.aborts and not self.problems


def parse_lines(text, aborted):
    events = []
    lines = text.splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            # Only the line an abort cut short may be malformed.
            if aborted and index >= len(lines) - 3:
                continue
            raise BenchError("unreadable driver output: " + line[:200])
    return events


def run_driver(workload, seed, seconds, traced, spans=None):
    """Run rounds for `seconds`. A child that dies is recorded as an abort
    (with its message) and the run continues in a fresh child with fresh
    rounds for the remaining time; nothing is retried or dropped."""
    run = Run(workload)
    start = time.monotonic()
    next_round = 0
    for child in range(MAX_CHILDREN):
        remaining = seconds - (time.monotonic() - start)
        if child > 0 and remaining <= 0.5:
            break
        cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
               "--seconds", f"{max(remaining, 0.0):.3f}",
               "--first-round", str(next_round)]
        if traced:
            cmd.append("--trace")
            if spans is not None:
                cmd += ["--spans", str(spans.with_suffix(f".{child}.jsonl"))]
        try:
            done = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(remaining, 0.0) + HANG_GRACE_S)
            stdout, stderr, code = done.stdout, done.stderr, done.returncode
        except subprocess.TimeoutExpired as hung:
            # subprocess.run has killed and reaped the child.
            stdout = (hung.stdout or b"").decode(errors="replace") \
                if isinstance(hung.stdout, bytes) else (hung.stdout or "")
            stderr = "driver exceeded its time budget and was killed"
            code = None
        events = parse_lines(stdout, aborted=code != 0)
        open_round = None
        completed = 0
        for event in events:
            kind = event.get("event")
            if kind == "context":
                run.context = run.context or event
                check_context(event)
            elif kind == "begin":
                open_round = event
            elif kind == "round":
                run.rounds.append(event)
                open_round = None
                next_round = event["round"] + 1
            elif kind == "abort":
                completed = event["completed"]
        if code == 0:
            break
        message = abort_message(stderr, code)
        planned = open_round["planned"] if open_round else 0
        completed = min(completed, planned)
        run.aborts.append({
            "round": open_round["round"] if open_round else next_round,
            "message": message,
            "planned": planned,
            "completed": completed,
            "failed": planned - completed,
        })
        next_round = (open_round["round"] if open_round else next_round) + 1
    if run.context is None:
        raise BenchError(f"{workload}: the driver produced no output")
    if not run.rounds and not run.aborts:
        raise BenchError(f"{workload}: the driver completed no round")
    return run


def abort_message(stderr, code):
    lines = [line.strip() for line in stderr.splitlines() if line.strip()]
    checks = [line for line in lines if "CHECK failed" in line]
    detail = checks[-1] if checks else (lines[-1] if lines else "no message")
    status = "killed after timeout" if code is None else (
        f"signal {-code}" if code < 0 else f"exit code {code}")
    return f"{detail} ({status})"


def check_context(context):
    cores = nproc()
    if context["threads"] > cores:
        raise BenchError(
            f"workload {context['workload']} uses {context['threads']} "
            f"threads but only {cores} CPUs are available")


# ---------------------------------------------------------------------------
# Metrics. Every function reads the round records of one run.

def values(rounds, key):
    return [r[key] for r in rounds if key in r]


def pooled(rounds, key):
    return [v for r in rounds for v in r.get(key, ())]


def ratios(rounds, num, den):
    return [r[num] / r[den] for r in rounds
            if num in r and den in r and r[den] > 0]


def median_or_none(items):
    return statistics.median(items) if items else None


# Iterations of the driver's host-speed reference loop (kReferenceOps).
REFERENCE_OPS = 20000


def end_to_end(run):
    """The gated metrics. A task's cost is its CPU time in units of the
    host-speed reference loop the same round ran just before: on a host
    whose CPUs are shared with other machines, wall time on the thread
    backend moves by a factor of 2 to 4 with the CPU time stolen from it,
    and CPU time itself by a third with the host's load; the ratio of two
    CPU times measured side by side moves by a few percent."""
    rounds = run.rounds
    if not rounds:
        return {}
    return {
        "setup_s": statistics.median(values(rounds, "setup_s")),
        "task_cost_refops": statistics.median(
            [r["cpu_s"] / r["tasks"] / (r["ref_cpu_s"] / REFERENCE_OPS)
             for r in rounds if r["tasks"]]),
        "peak_rss_mb": max(values(rounds, "rss_kb")) / 1024.0,
    }


def wall_clock(run):
    """Throughput, latency and raw CPU cost as a user times them, reported
    on every run and as per-layer metrics but not gated (see end_to_end).
    On cholesky-sim the makespan is the modelled one, in virtual
    seconds."""
    rounds = run.rounds
    if not rounds:
        return {}
    latency = pooled(rounds, "graph_latency_s")
    makespan = statistics.median(pooled(rounds, "makespan_s"))
    simulated = run.context["backend"] == "sim"
    return {
        "wallclock.tasks_per_s": statistics.median(
            ratios(rounds, "tasks", "time_s")),
        "wallclock.graphs_per_s": statistics.median(
            ratios(rounds, "graphs", "time_s")),
        "wallclock.graph_latency_p50_ms": at_level(latency, 50, 1e3),
        "wallclock.graph_latency_p99_ms": at_level(latency, 99, 1e3),
        "wallclock.makespan_s": None if simulated else makespan,
        "sim.virtual_makespan_s": makespan if simulated else None,
        "host.cpu_us_per_task": statistics.median(
            [r["cpu_s"] * 1e6 / r["tasks"] for r in rounds if r["tasks"]]),
        "host.ref_ns_per_op": statistics.median(
            [r["ref_cpu_s"] * 1e9 / REFERENCE_OPS for r in rounds]),
    }


def at_level(samples, level, scale=1.0):
    """Percentile `level` of the samples, or None when fewer than ten
    samples lie beyond it."""
    if not samples:
        return None
    if level > 50.0:
        tail = stats.tail_level(len(samples))
        if tail is None or tail < level:
            return None
    return stats.percentile(samples, level) * scale


def retire_growth(rounds):
    growth = []
    for r in rounds:
        retire = r.get("retire_us", [])
        tenth = len(retire) // 10
        if tenth == 0:
            continue
        first = sum(retire[:tenth]) / tenth
        last = sum(retire[-tenth:]) / tenth
        if first > 0:
            growth.append(last / first)
    return median_or_none(growth)


def per_layer(run):
    rounds = run.rounds
    gb = 1e9

    def gigabytes(key):
        items = values(rounds, key)
        return statistics.median(items) / gb if items else None

    transferred = [r["bytes_in"] + r["bytes_out"] + r["bytes_dev"]
                   for r in rounds if "bytes_in" in r]
    submit_share = [r["submit_s"] / (r["submit_s"] + r["taskwait_s"])
                    for r in rounds if "submit_s" in r and "taskwait_s" in r]
    idle = [1.0 - r["busy_s"] / (r["workers"] * r["span_s"])
            for r in rounds if r.get("span_s", 0) > 0]
    release = pooled(rounds, "release_us")
    queue_wait = pooled(rounds, "queue_wait_us")
    submit_us = pooled(rounds, "submit_us")
    retire_us = pooled(rounds, "retire_us")
    last = rounds[-1] if rounds else {}
    return {
        "taskbench.generate_s": median_or_none(values(rounds, "generate_s")),
        "runtime.init_s": median_or_none(values(rounds, "init_s")),
        "runtime.submit_s": median_or_none(values(rounds, "submit_s")),
        "runtime.submit_share": median_or_none(submit_share),
        "runtime.taskwait_s": median_or_none(values(rounds, "taskwait_s")),
        "task.edges_per_task": median_or_none(ratios(rounds, "edges",
                                                     "tasks")),
        "task.release_us.p50": at_level(release, 50),
        "task.release_us.p99": at_level(release, 99),
        "sched.queue_wait_us.p50": at_level(queue_wait, 50),
        "sched.queue_wait_us.p99": at_level(queue_wait, 99),
        "sched.worker_idle_frac": median_or_none(idle),
        "sched.gpu_task_share": median_or_none(ratios(rounds, "gpu_tasks",
                                                      "tasks")),
        "sched.potrf_gpu_share": median_or_none(
            ratios(rounds, "potrf_gpu_tasks", "potrf_tasks")),
        "sched.reprice_flush_ratio": median_or_none(
            ratios(rounds, "reprice_flushes", "reprice_requests")),
        "sched.push_batches_per_task": median_or_none(
            ratios(rounds, "push_batches", "tasks")),
        "data.bytes_in_gb": gigabytes("bytes_in"),
        "data.bytes_out_gb": gigabytes("bytes_out"),
        "data.bytes_dev_gb": gigabytes("bytes_dev"),
        "data.transferred_gb":
            statistics.median(transferred) / gb if transferred else None,
        "data.transfer_count": median_or_none(values(rounds,
                                                     "transfer_count")),
        "data.consistent_fallbacks": median_or_none(
            values(rounds, "consistent_fallbacks")),
        "data.region_slots": last.get("region_slots"),
        "data.live_regions": last.get("live_regions"),
        "exec.run_us.p50": at_level(pooled(rounds, "run_us"), 50),
        "service.submit_us.p50": at_level(submit_us, 50),
        "service.submit_us.p99": at_level(submit_us, 99),
        "service.exec_wait_us.p50": at_level(pooled(rounds, "exec_wait_us"),
                                             50),
        "service.retire_us.p50": at_level(retire_us, 50),
        "service.retire_us.p99": at_level(retire_us, 99),
        "service.retire_growth": retire_growth(rounds),
    }


# ---------------------------------------------------------------------------
# Reporting.

def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def describe_timing(samples, unit, scale=1.0):
    if not samples:
        return "no samples"
    summary = stats.summarize([s * scale for s in samples])
    text = f"median {fmt(summary['median'])} {unit}"
    if summary["tail_level"] is not None:
        text += f", p{summary['tail_level']:g} {fmt(summary['tail'])} {unit}"
    return text + f" (n={summary['n']})"


def print_header(run, seed, seconds, traced):
    ctx = run.context
    print(f"perfbench workload={run.workload} seed={seed} "
          f"seconds={seconds:g} trace={int(traced)}")
    keys = ("build_type", "hardware_concurrency", "threads", "scheduler",
            "backend", "workers", "prefetch", "prefetch_budget",
            "consistent_read_retries", "seed", "noise_magnitude",
            "failure_rate", "emulate_costs", "sched_trace", "granularity",
            "sanitize", "lock_order_checks")
    print("config: " + " ".join(f"{k}={ctx[k]}" for k in keys) +
          f" nproc={nproc()}")


def print_outcome(run):
    op = OPERATION[run.workload]
    attempted, failed = run.attempted, run.failed
    frac = failed / attempted if attempted else 0.0
    print(f"rounds: {len(run.rounds)} completed, {len(run.aborts)} aborted")
    print(f"operations: attempted {attempted} {op}, failed {failed}, "
          f"failed_frac {frac:.6g}")
    for problem in run.problems:
        print(f"check failed: {problem}")
    for abort in run.aborts:
        print(f"abort in round {abort['round']}: {abort['message']}; "
              f"{abort['completed']} of {abort['planned']} {op} completed, "
              f"{abort['failed']} counted failed")
    print("outputs: " + ("correct" if run.correct else "INCORRECT"))


def print_end_to_end(run, metrics, definition):
    rounds = run.rounds
    detail = {
        "setup_s": describe_timing(values(rounds, "setup_s"), "s"),
        "task_cost_refops": f"median over {len(rounds)} rounds",
        "peak_rss_mb": "max over rounds",
    }
    for m in definition["end_to_end"]:
        name = m["name"]
        print(f"  {name:<34} {fmt(metrics.get(name)):>14} {m['unit']:<6} "
              f"{detail.get(name, '')}")


def print_wall_clock(run, metrics, definition):
    rounds = run.rounds
    latency = describe_timing(pooled(rounds, "graph_latency_s"), "ms", 1e3)
    makespan = describe_timing(pooled(rounds, "makespan_s"), "s")
    detail = {
        "wallclock.tasks_per_s": f"median over {len(rounds)} rounds",
        "wallclock.graphs_per_s": f"median over {len(rounds)} rounds",
        "wallclock.graph_latency_p50_ms": latency,
        "wallclock.graph_latency_p99_ms": latency,
        "wallclock.makespan_s": makespan,
        "sim.virtual_makespan_s": makespan,
        "host.cpu_us_per_task": f"median over {len(rounds)} rounds",
        "host.ref_ns_per_op": f"median over {len(rounds)} rounds",
    }
    units = {m["name"]: m["unit"] for m in definition["per_layer"]}
    for name, value in metrics.items():
        if value is not None:
            print(f"  {name:<34} {fmt(value):>14} {units[name]:<6} "
                  f"{detail[name]}")


def print_per_layer(metrics, definition):
    for m in definition["per_layer"]:
        value = metrics.get(m["name"])
        note = "" if value is not None else "  (not measured on this workload)"
        print(f"  {m['name']:<34} {fmt(value):>14} {m['unit']}{note}")


def result_line(runs, metrics, names_units):
    out = {}
    for name, unit in names_units:
        value = metrics.get(name)
        out[name] = {"value": float(value) if value is not None else 0.0,
                     "unit": unit}
    return {
        "correct": all(r.correct for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": out,
    }


def measure(workload, seed, seconds, traced, definition, quiet=False):
    """One benchmark run. Returns the result object of the last line and
    the run's wall-clock results."""
    e2e_defs = [(m["name"], m["unit"]) for m in definition["end_to_end"]]
    layer_defs = [(m["name"], m["unit"]) for m in definition["per_layer"]]
    if not traced:
        run = run_driver(workload, seed, seconds, traced=False)
        metrics = end_to_end(run)
        wall = wall_clock(run)
        if not quiet:
            print_header(run, seed, seconds, traced)
            print_outcome(run)
            print("end-to-end metrics (untraced):")
            print_end_to_end(run, metrics, definition)
            print("wall-clock, raw CPU and host-speed results (untraced; "
                  "reported, not gated):")
            print_wall_clock(run, wall, definition)
        return result_line([run], metrics, e2e_defs), wall

    # Traced: half the time untraced, half traced; the per-layer metrics
    # come from the traced half, the difference between halves is the
    # tracing overhead.
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    half = seconds / 2.0
    plain = run_driver(workload, seed, half, traced=False)
    spans = OUT_DIR / f"spans-{workload}-seed{seed}"
    traced_run = run_driver(workload, seed, half, traced=True, spans=spans)
    plain_e2e = end_to_end(plain) | wall_clock(plain)
    traced_e2e = end_to_end(traced_run) | wall_clock(traced_run)
    # Wall-clock results come from the untraced half, like the gated ones.
    metrics = per_layer(traced_run) | wall_clock(plain)
    if plain_e2e.get("task_cost_refops") and \
            traced_e2e.get("task_cost_refops"):
        metrics["trace.overhead_frac"] = (
            traced_e2e["task_cost_refops"] / plain_e2e["task_cost_refops"] -
            1.0)
    if not quiet:
        print_header(traced_run, seed, seconds, traced)
        print("untraced half:")
        print_outcome(plain)
        print("traced half:")
        print_outcome(traced_run)
        print("tracing overhead (traced vs untraced half):")
        for name, a in plain_e2e.items():
            b = traced_e2e.get(name)
            if a is None or b is None:
                continue
            delta = f"{(b - a) / a:+.2%}" if a else "n/a"
            print(f"  {name:<34} untraced {fmt(a):>12} traced {fmt(b):>12} "
                  f"{delta}")
        print(f"per-layer metrics (traced; spans in {spans}.*.jsonl):")
        print_per_layer(metrics, definition)
    return result_line([plain, traced_run], metrics, layer_defs), metrics


# ---------------------------------------------------------------------------
# Steadiness report.

def worse_by(first, second, better):
    """Share by which `second` is worse than `first`."""
    if first == 0:
        return 0.0
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def steadiness(args, definition):
    workloads = [w["name"] for w in definition["workloads"]]
    seconds = args.seconds or definition["run_seconds"]
    metrics = definition["end_to_end"]
    # Wall-clock results are shown for information, without a verdict.
    shown = metrics + [m for m in definition["per_layer"]
                       if m["name"].startswith(("wallclock.", "sim.",
                                                "host."))]
    table = {}  # (set, workload, metric) -> list of values
    incorrect = []
    verdict_ok = True
    for set_index in range(args.sets):
        for workload in workloads:
            for i in range(args.repeats):
                seed = 1 + i + 100 * set_index
                result, wall = measure(workload, seed, seconds, False,
                                       definition, quiet=True)
                log(f"set {set_index + 1} {workload} seed {seed}: " +
                    " ".join(f"{k}={fmt(v['value'])}"
                             for k, v in result["metrics"].items()) +
                    ("" if result["correct"] else " INCORRECT"))
                if not result["correct"]:
                    incorrect.append(f"{workload} seed {seed}")
                for name, v in result["metrics"].items():
                    table.setdefault((set_index, workload, name),
                                     []).append(v["value"])
                for name, v in wall.items():
                    if v is not None:
                        table.setdefault((set_index, workload, name),
                                         []).append(v)
    print(f"steadiness: {args.repeats} runs x {args.sets} set(s), "
          f"{seconds:g} s each")
    print(f"{'set':<4} {'workload':<16} {'metric':<30} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6} verdict")
    for set_index in range(args.sets):
        for workload in workloads:
            for m in shown:
                vals = table.get((set_index, workload, m["name"]))
                if not vals or len(vals) < 2:
                    continue
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = stats.relative_spread(vals)
                if "bound" not in m:
                    verdict = "(not gated)"
                elif spread < m["bound"] / 3:
                    verdict = "steady"
                elif spread <= m["bound"]:
                    verdict = "within bound"
                else:
                    verdict = "TOO NOISY"
                    verdict_ok = False
                print(f"{set_index + 1:<4} {workload:<16} {m['name']:<30} "
                      f"{q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
                      f"{m.get('bound', '-'):>6} {verdict}")
    if args.sets > 1:
        print("median drift, set 1 -> each later set:")
        for set_index in range(1, args.sets):
            for workload in workloads:
                for m in metrics:
                    a = statistics.median(table[(0, workload, m["name"])])
                    b = statistics.median(
                        table[(set_index, workload, m["name"])])
                    drift = worse_by(a, b, m["better"])
                    ok = drift <= m["bound"]
                    verdict_ok = verdict_ok and ok
                    print(f"  set {set_index + 1} {workload:<16} "
                          f"{m['name']:<22} worse by {drift:+.2%} "
                          f"(bound {m['bound']}) {'ok' if ok else 'WORSE'}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    dump = {f"{s + 1}/{w}/{n}": v for (s, w, n), v in table.items()}
    (OUT_DIR / "steadiness.json").write_text(json.dumps(dump, indent=1))
    print(f"runs with incorrect output: {len(incorrect)}" +
          (" (" + ", ".join(incorrect) + ")" if incorrect else ""))
    print("steadiness: " + ("all metrics within their bounds"
                            if verdict_ok else "SOME METRICS FAILED"))
    return 0 if verdict_ok else 1


# ---------------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    try:
        refuse_versa_env()
        definition = load_definition()
        build()
        if args.steadiness:
            return steadiness(args, definition)
        if args.workload not in OPERATION:
            raise BenchError("--workload must be one of " +
                             ", ".join(OPERATION))
        seconds = args.seconds or definition["run_seconds"]
        result, _ = measure(args.workload, args.seed, seconds,
                            bool(args.trace), definition)
    except BenchError as error:
        log(f"perfbench: {error}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

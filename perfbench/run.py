#!/usr/bin/env python3
"""End-to-end benchmark of `saer sweep` and `saer serve`.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S [--trace 0|1]

NAME is sweep-stored, sweep-implicit or serve-bursty; README.md says why
each exists and defines every metric.  The first call builds `saer` and the
traced replay `saer_trace` from this checkout into .bench_build/ (Release
only).
--trace 0 runs the real binary one process at a time, each in a fresh
directory, for S seconds, checks its outputs and reports the end-to-end
metrics.  --trace 1 alternates an untraced run with the traced replay and
reports the per-layer metrics.  The first repetition (or pair) of a run
warms the page cache: its outputs are checked, but it is not timed.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
--results FILE also appends each result, with its environment stamp, to
FILE for perfbench/compare.py.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "cmake"
RUNS = ROOT / ".bench_build" / "runs"
SAER = BUILD / "saer" / "saer"
REPLAY = BUILD / "saer_trace"

# The thread budget, set explicitly: --jobs in the workload flags, plus
# OMP_NUM_THREADS for the width of an intra-run thread team.
THREADS = 4
MIN_REPS = 3  # setup_s is the median of at least this many timed set-ups
MAX_RUN_S = 150.0  # a run must end within 180 s
POLL_S = 0.002  # how often a sweep's JSONL is checked for new rows

SWEEP_SHAPE = ["--delta", "16", "--ds", "2", "--cs", "3", "--share-graph",
               "--no-assignment", "--checkpoint-interval", "1"]
# Flags shared by the untraced command and its replay; the first word is the
# subcommand.  --seed and the output paths are added per repetition.  The
# sizes keep the steps short enough that a run times more than a hundred of
# them, so the 90th percentile has ten or more samples beyond it.
WORKLOADS = {
    "sweep-stored": ["sweep", "--topology", "regular", "--sizes", "1048576",
                     *SWEEP_SHAPE, "--reps", "32", "--jobs", "4"],
    "sweep-implicit": ["sweep", "--topology", "implicit-regular",
                       "--sizes", "262144", *SWEEP_SHAPE, "--reps", "16",
                       "--jobs", "1"],
    "serve-bursty": ["serve", "--topology", "regular", "--n", "1048576",
                     "--delta", "16", "--d", "2", "--c", "4",
                     "--curve", "bursty", "--rate", "20000",
                     "--burst-factor", "10", "--burst-on-s", "0.5",
                     "--burst-off-s", "0.5", "--round-us", "1000",
                     "--duration-rounds", "2000",
                     "--report-interval-s", "0.025", "--jobs", "4"],
}


def flag(argv, name):
    return argv[argv.index("--" + name) + 1]


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Linear interpolation between the closest ranks; 0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    k = (len(v) - 1) * p / 100
    lo = math.floor(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def build():
    """Builds perfbench/CMakeLists.txt; returns the verified build type."""
    if not (ROOT / "src" / "cli" / "main.cpp").is_file():
        fail(f"no saer source tree under {ROOT}")
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "--build", str(BUILD), "-j", str(THREADS)]]
    if not any((BUILD / f).is_file() for f in ("build.ninja", "Makefile")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         *generator, "-DCMAKE_BUILD_TYPE=Release"])
    log = BUILD.parent / "build.log"
    with open(log, "wb") as out:
        for step in steps:
            if subprocess.run(step, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                fail(f"build failed, see {log}")
    build_type = None
    for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1]
    if build_type != "Release":
        fail(f"refusing to benchmark a non-Release build "
             f"(CMAKE_BUILD_TYPE={build_type})")
    return build_type


def stamp(seed, build_type):
    """What a later reader needs to re-check a result."""
    commit = None
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True,
                                text=True).stdout.strip() or None
    # The checkout the benchmark runs in need not be a git repository, so
    # the sources are also identified by content.
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt", *ROOT.glob("src/**/*"), *BENCH.glob("*")]
    for path in sorted(p for p in files if p.is_file()):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {"seed": seed, "commit": commit,
            "source_sha256": digest.hexdigest(), "build_type": build_type,
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)), "threads": THREADS}


class Watch(threading.Thread):
    """Records when each line is appended to a file, polling until done."""

    def __init__(self, path):
        super().__init__(daemon=True)
        self.path, self.times, self.done = path, [], threading.Event()

    def run(self):
        seen = 0
        while True:
            last = self.done.is_set()
            size = self.path.stat().st_size if self.path.exists() else 0
            if size > seen:
                now = time.monotonic()
                with open(self.path, "rb") as f:
                    f.seek(seen)
                    self.times += [now] * f.read(size - seen).count(b"\n")
                seen = size
            if last:
                return
            time.sleep(POLL_S)


def read_lines(pipe, lines, copy):
    for line in iter(pipe.readline, b""):
        lines.append((time.monotonic(), line))
        copy.write(line)


def run_process(argv, cwd, watch=None, capture=False):
    """Runs argv in cwd to its end and times it from launch to exit.

    Returns the exit code, wall seconds, wait4 rusage and, with capture,
    the stdout lines with their arrival times; the watch's times are made
    relative to launch too.
    """
    env = dict(os.environ, OMP_NUM_THREADS=str(THREADS))
    lines, reader = [], None
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stderr=err,
                                stdout=subprocess.PIPE if capture else out)
        try:
            if capture:
                reader = threading.Thread(target=read_lines,
                                          args=(proc.stdout, lines, out))
                reader.start()
            if watch:
                watch.start()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            if reader:
                reader.join()
                proc.stdout.close()
            if watch:
                watch.done.set()
                watch.join()
    return types.SimpleNamespace(
        code=proc.returncode, wall=wall, usage=usage,
        lines=[(t - start, line) for t, line in lines],
        times=[t - start for t in watch.times] if watch else [])


def read_jsonl(path, problems):
    try:
        return [json.loads(line) for line in path.read_text().splitlines()]
    except (OSError, ValueError) as err:
        problems.append(f"{path.name}: {err}")
        return []


def sweep_repetition(argv, seed, rep):
    """One `saer sweep`; checks its JSONL rows and aggregate CSV."""
    cmd = [str(SAER), *argv, "--seed", str(seed), "--jsonl", "runs.jsonl",
           "--checkpoint", "runs.ckpt", "--agg-csv", "agg.csv"]
    p = run_process(cmd, rep, watch=Watch(rep / "runs.jsonl"))
    problems = [] if p.code == 0 else [f"exit code {p.code}"]
    rows = read_jsonl(rep / "runs.jsonl", problems)
    reps = int(flag(argv, "reps"))
    cap = math.floor(int(flag(argv, "ds")) * float(flag(argv, "cs")) + 0.5)
    runs = {row["replication"]: row["run"] for row in rows}
    completed = sum(1 for r in range(reps)
                    if runs.get(r, {}).get("completed") == 1)
    if len(rows) != reps or sorted(runs) != list(range(reps)):
        problems.append(f"{len(rows)} rows for {reps} replications")
    if completed != reps:
        problems.append(f"{reps - completed} replications not completed")
    if any(run["max_load"] > cap for run in runs.values()):
        problems.append(f"max_load above round(c*d) = {cap}")
    check = subprocess.run([str(SAER), "aggregate", "runs.jsonl", "--csv",
                            "agg-check.csv", "--quiet"], cwd=rep,
                           stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL)
    agg, again = rep / "agg.csv", rep / "agg-check.csv"
    if check.returncode != 0 or not agg.is_file() or \
            agg.read_bytes() != again.read_bytes():
        problems.append("saer aggregate over the JSONL differs from --agg-csv")
    # A sweep's step is one replication: the gap between rows `jobs` apart
    # is one run's wall time on its worker.  (Per round it would vary with
    # each seed's round counts, though the work per run hardly does.)
    jobs = int(flag(argv, "jobs"))
    times = p.times if len(p.times) == len(rows) else []
    gaps = [(times[k] - times[k - jobs]) * 1e3
            for k in range(jobs, len(times))]
    return {"wall_s": p.wall, "setup_s": times[0] if times else None,
            "max_rss_mib": p.usage.ru_maxrss / 1024, "step_ms": gaps,
            "rows": rows, "attempted": reps, "failed": reps - completed,
            "problems": problems, "outputs": [rep / "runs.jsonl", agg]}


def serve_repetition(argv, seed, rep):
    """One `saer serve`, line-buffered so each row is timed on arrival."""
    stdbuf = shutil.which("stdbuf")
    if not stdbuf:
        fail("stdbuf (coreutils) is needed: serve's stdout is "
             "block-buffered when piped")
    cmd = [stdbuf, "-oL", str(SAER), *argv, "--seed", str(seed),
           "--metrics-jsonl", "metrics.jsonl"]
    p = run_process(cmd, rep, capture=True)
    problems = [] if p.code == 0 else [f"exit code {p.code}"]
    rows = read_jsonl(rep / "metrics.jsonl", problems)
    # Serve's step is one protocol round: the gap between consecutive stdout
    # rows (the banner counts as round 0) over the rounds between them.
    gaps, setup = [], p.lines[0][0] if p.lines else None
    last_t, last_round = setup, 0
    for t, line in p.lines[1:]:
        if line.startswith(b"{"):
            r = json.loads(line)["round"]
            if r > last_round:
                gaps.append((t - last_t) * 1e3 / (r - last_round))
            last_t, last_round = t, r
    d, c = int(flag(argv, "d")), float(flag(argv, "c"))
    attempted = failed = 1
    if rows:
        final = rows[-1]
        attempted = d * final["injected_clients"]
        failed = attempted - final["assigned_balls"]
        if final["backlog"] != 0:
            problems.append(f"final backlog {final['backlog']}")
        if failed != 0:
            problems.append(f"{failed} of {attempted} balls unassigned")
        if any(row["max_load"] > c * d for row in rows):
            problems.append(f"max_load above c*d = {c * d:g}")
    return {"wall_s": p.wall, "setup_s": setup,
            "max_rss_mib": p.usage.ru_maxrss / 1024, "step_ms": gaps,
            "rows": rows, "attempted": attempted, "failed": failed,
            "problems": problems, "outputs": [rep / "metrics.jsonl"]}


def fresh_dir(name):
    rep = RUNS / name
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir(parents=True)
    return rep


def settle(result, rep):
    """A failed check fails every operation of the repetition."""
    if result["problems"]:
        result["failed"] = result["attempted"]
        print(f"perfbench: {rep.name}: {'; '.join(result['problems'])} "
              f"(kept {rep})", file=sys.stderr)
    else:
        shutil.rmtree(rep)
    return result


def repetition(name, seed, index, first):
    """One untraced process in a fresh directory, with its output checks.

    `first` is the run's first repetition: every later one must write the
    same bytes, since the seed is the same.
    """
    argv = WORKLOADS[name]
    rep = fresh_dir(f"{name}-{index}")
    run = sweep_repetition if argv[0] == "sweep" else serve_repetition
    result = run(argv, seed, rep)
    digest = hashlib.sha256()
    for path in result.pop("outputs"):
        digest.update(path.read_bytes() if path.is_file() else b"missing")
    result["digest"] = digest.hexdigest()
    if first and result["digest"] != first["digest"]:
        result["problems"].append("output bytes differ from the first "
                                  "repetition with this seed")
    return settle(result, rep)


def deterministic(kind, rows):
    """The fields a replay must reproduce exactly."""
    if kind == "sweep":
        return sorted((r["replication"], r["run"]["rounds"],
                       r["run"]["work_messages"], r["run"]["max_load"],
                       r["run"]["burned_servers"]) for r in rows)
    return [(r["round"], r["injected_clients"], r["assigned_balls"],
             r["backlog"], r["max_load"]) for r in rows]


def load_spans(path):
    """name -> [(thread, start_ns, end_ns, a, b)]"""
    spans = collections.defaultdict(list)
    for line in path.read_text().splitlines():
        name, *fields = line.split("\t")
        spans[name].append(tuple(int(f) for f in fields))
    return spans


def durations(spans, scale):
    return [(end - start) / scale for _, start, end, _, _ in spans]


def covered(spans, lo, hi):
    """Nanoseconds of [lo, hi) inside at least one span, on any thread."""
    length, cur_lo, cur_hi = 0, None, None
    for s, e in sorted((max(s, lo), min(e, hi)) for _, s, e, _, _ in spans
                       if e > lo and s < hi):
        if cur_hi is None or s > cur_hi:
            length += 0 if cur_hi is None else cur_hi - cur_lo
            cur_lo, cur_hi = s, e
        else:
            cur_hi = max(cur_hi, e)
    return length + (0 if cur_hi is None else cur_hi - cur_lo)


def sweep_layers(argv, spans, rows):
    builds = spans["graph.generators.random_regular"]
    runs = spans["core.engine.run_protocol"]
    run_s = durations(runs, 1e9)
    (_, lo, hi, _, _), = spans["sim.sweep.run"]
    children = builds + spans["graph.implicit_topology.ctor"] + runs
    work = sum(row["run"]["work_messages"] for row in rows)
    m = {
        "graph.generators.build_s": sum(durations(builds, 1e9)),
        "graph.generators.edges": sum(a for *_, a, _ in builds),
        "core.engine.run_s_p50": median(run_s),
        "core.engine.run_s_max": max(run_s),
        "core.engine.msgs_per_s": work / sum(run_s),
        "core.engine.rounds_mean":
            statistics.mean(row["run"]["rounds"] for row in rows),
        "core.engine.work_per_ball":
            work / sum(row["run"]["total_balls"] for row in rows),
        "sim.sweep.run_s": (hi - lo) / 1e9,
        "sim.sweep.self_s": (hi - lo - covered(children, lo, hi)) / 1e9,
        "sim.sweep.busy_ratio": sum(durations(children, 1)) /
        (int(flag(argv, "jobs")) * (hi - lo)),
    }
    for _, s, e, sample, _ in spans["graph.implicit_topology.neighbors"]:
        m["graph.implicit_topology.row_ns"] = (e - s) / sample
    # Each fsync is the gap between a durability step and the one before
    # it: flush-streams -> fsync-checkpoint, fsync-checkpoint -> fsync-dir.
    steps = sorted((s, name) for name in
                   ("flush-streams", "fsync-checkpoint", "fsync-dir")
                   for _, s, _, _, _ in spans[name])
    fsyncs = [t - prev for (prev, _), (t, name) in zip(steps, steps[1:])
              if name != "flush-streams"]
    m["sim.sweep.fsyncs"] = len(fsyncs)
    m["sim.sweep.fsync_ms"] = sum(fsyncs) / 1e6
    ends = {rep: e for _, _, e, rep, _ in runs}
    waits = [s - ends[i] for _, s, _, i, _ in spans["sim.sweep.row_streamed"]
             if i in ends]
    m["sim.run_record.stream_wait_ms"] = median(waits) / 1e6
    return m


def serve_layers(argv, spans):
    builds = spans["graph.generators.random_regular"]
    steps = spans["core.dynamic.step"]
    # Burst phase of each injection round, from the curve's parameters.
    on_us = float(flag(argv, "burst-on-s")) * 1e6
    period_us = on_us + float(flag(argv, "burst-off-s")) * 1e6
    round_us = float(flag(argv, "round-us"))
    rounds = int(flag(argv, "duration-rounds"))
    phase = {True: [], False: []}
    for _, s, e, r, _ in steps:
        if r <= rounds:
            phase[(r - 1) * round_us % period_us < on_us].append((e - s) / 1e3)
    (_, lo, hi, _, _), = spans["cli.serve.loop"]
    children = [span for name in (
        "net.load_injector.round", "core.dynamic.inject", "core.dynamic.step",
        "core.dynamic.snapshot", "sim.run_record.serve_metrics_row_json")
        for span in spans[name]]
    return {
        "graph.generators.build_s": sum(durations(builds, 1e9)),
        "graph.generators.edges": sum(a for *_, a, _ in builds),
        "core.dynamic.ctor_s": sum(durations(spans["core.dynamic.ctor"], 1e9)),
        "core.dynamic.step_us_p50": percentile(durations(steps, 1e3), 50),
        "core.dynamic.step_us_p99": percentile(durations(steps, 1e3), 99),
        "core.dynamic.step_us_on_p50": median(phase[True]),
        "core.dynamic.step_us_off_p50": median(phase[False]),
        "core.dynamic.snapshot_ms_p50":
            median(durations(spans["core.dynamic.snapshot"], 1e6)),
        "core.dynamic.settled_per_step":
            statistics.mean(b for *_, b in steps),
        "net.load_injector.round_ns":
            median(durations(spans["net.load_injector.round"], 1)),
        "sim.run_record.serve_row_us": median(durations(
            spans["sim.run_record.serve_metrics_row_json"], 1e3)),
        "cli.serve.self_s": (hi - lo - covered(children, lo, hi)) / 1e9,
    }


def replay(name, seed, index, plain):
    """saer_trace on the same workload, checked against `plain`."""
    argv = WORKLOADS[name]
    rep = fresh_dir(f"{name}-replay-{index}")
    p = run_process([str(REPLAY), argv[0], "--dir", ".", *argv[1:],
                     "--seed", str(seed)], rep)
    problems = [] if p.code == 0 else [f"exit code {p.code}"]
    rows = read_jsonl(rep / "replay.jsonl", problems)
    layers = {}
    if deterministic(argv[0], rows) != deterministic(argv[0], plain["rows"]):
        problems.append("replay differs from the untraced run")
    elif not problems:
        spans = load_spans(rep / "spans.tsv")
        layers = (sweep_layers(argv, spans, rows) if argv[0] == "sweep"
                  else serve_layers(argv, spans))
        layers["util.cpu_per_wall"] = \
            (p.usage.ru_utime + p.usage.ru_stime) / p.wall
    result = {"wall_s": p.wall, "layers": layers, "problems": problems,
              "attempted": plain["attempted"], "failed": 0}
    return settle(result, rep)


def measure(name, seed, seconds, trace):
    """Repeats the workload while another repetition fits in `seconds`.

    The first repetition is the warm-up.  Untraced: at least MIN_REPS
    processes after it.  Traced: pairs of an untraced process and a replay,
    at least one after it.
    """
    results, spent, start = [], [], time.monotonic()
    while True:
        t = time.monotonic()
        first = (results[0][0] if trace else results[0]) if results else None
        plain = repetition(name, seed, len(results), first)
        results.append((plain, replay(name, seed, len(results), plain))
                       if trace else plain)
        spent.append(time.monotonic() - t)
        elapsed, typical = time.monotonic() - start, median(spent)
        enough = len(results) > (1 if trace else MIN_REPS)
        if (enough and elapsed + typical > seconds) or \
                elapsed + typical > MAX_RUN_S:
            return results


def end_to_end(reps):
    """Medians over the repetitions that passed their checks, so neither a
    disturbed process nor a failed one sets a figure.  The step percentiles
    are taken over the steps of those repetitions pooled; the second value
    returned is how many steps that is."""
    good = [r for r in reps if not r["problems"]]
    steps = [s for r in good for s in r["step_ms"]]
    return {
        "wall_s": median([r["wall_s"] for r in good]),
        "setup_s": median([r["setup_s"] for r in good
                           if r["setup_s"] is not None]),
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "max_rss_mib": median([r["max_rss_mib"] for r in good]),
    }, len(steps)


def per_layer(pairs):
    good = [(p, t) for p, t in pairs if not p["problems"] and
            not t["problems"]]
    m = {k: median([t["layers"][k] for _, t in good if k in t["layers"]])
         for k in {k for _, t in good for k in t["layers"]}}
    m["trace.overhead"] = median([t["wall_s"] for _, t in good]) / \
        median([p["wall_s"] for p, _ in good]) - 1 if good else 0.0
    return m


def bench(name, args, spec, build_type):
    results = measure(name, args.seed, args.seconds, args.trace)
    ops = [r for pair in results for r in pair] if args.trace else results
    timed = results[1:]
    if args.trace:
        values, steps = per_layer(timed), None
    else:
        values, steps = end_to_end(timed)
    attempted = sum(r["attempted"] for r in ops)
    failed = sum(r["failed"] for r in ops)
    # A metric a workload does not reach (a sweep has no serve loop) is 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0),
                           "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    result = {"workload": name, "trace": args.trace, "seconds": args.seconds,
              "repetitions": len(timed), "steps": steps,
              "stamp": stamp(args.seed, build_type),
              "correct": not any(r["problems"] for r in ops),
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "metrics": metrics}
    print(f"{name}: seed {args.seed}, {len(timed)} "
          f"{'traced pairs' if args.trace else 'repetitions'} timed after "
          f"a warm-up, correct {result['correct']}")
    for metric, m in metrics.items():
        pooled = f" ({steps} steps)" if metric.startswith("step_ms") else ""
        print(f"  {metric:<34} {m['value']:>16.6g} {m['unit']}{pooled}")
    print(f"  {'fail_ratio':<34} {result['fail_ratio']:>16.6g} ratio "
          f"({failed} of {attempted} operations)")
    print("stamp " + json.dumps(result["stamp"]))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path,
                        help="append each result as one JSON line here")
    args = parser.parse_args()
    # On SIGTERM, unwind: run_process's cleanup kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_type = build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    shutil.rmtree(RUNS, ignore_errors=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [bench(name, args, spec, build_type) for name in names]
    if args.results:
        with open(args.results, "a") as out:
            for result in results:
                out.write(json.dumps(result) + "\n")
    keys = ("correct", "attempted", "failed", "metrics")
    if len(results) == 1:
        print(json.dumps({k: results[0][k] for k in keys}))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "workloads": {r["workload"]: r["metrics"] for r in results}}))


if __name__ == "__main__":
    main()

"""Benchmark of the randposet CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py            # every workload, untraced then traced
    python3 perfbench/run.py --smoke

Run from the root of a checkout: the package is imported from its ``src``.
Every pass of a workload runs in a fresh worker process (worker.py) with
``RANDPOSET_CACHE_DIR`` removed from its environment, so neither the pickle
disk cache nor the in-process table caches carry work from one pass to the
next. Passes repeat until the next one would end after S seconds, with at
least two.

With ``--trace 0`` every pass drives the CLI in process and the run reports
the end-to-end metrics: call times are means over the passes, the other
metrics medians, and every time is rescaled to a reference host speed by
readings taken while the calls run (README.md, "Host speed"). With
``--trace 1`` untraced CLI passes alternate with traced passes, which call the
same inputs through each module's public functions with a span around every
call, and the run reports the per-layer metrics, medians in plain wall time.

Each run prints a report, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``; details and spans go to ``.perfbench_out/``.
``--smoke`` runs every workload at a tiny size and checks that every metric
named in BENCHMARK.json is emitted with its unit.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench_out")
# The names of workloads.WORKLOADS; run.py itself does not import the package.
WORKLOADS = ["cstar_catalog", "cstar_symmetric", "sweep", "ramsey_sat"]
CACHE_ENV = "RANDPOSET_CACHE_DIR"

MIN_PASSES = 2
SETUP_ONLY = 2
# A speed reading (worker.SpeedSampler) on the reference host at its full
# speed: a 2-core KVM guest (Intel Xeon, 2.1 GHz), Python 3.11.7. Times are
# reported at this speed; changing the constant rescales every time metric.
PROBE_REF_S = 0.00095
# A run must exit within 180 s; a pass still running at this mark is killed
# and its calls count as failed.
RUN_LIMIT_S = 165.0

END_TO_END = {"run_s": "s", "slowest_op_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}
# Built from each call's mean over the passes; the other metrics are medians.
MEAN_METRICS = {"run_s", "slowest_op_s"}

SPAN_METRICS = [
    "posets.antichains",
    "posets.automorphisms",
    "threshold.symmetry",
    "threshold.table_build",
    "threshold.classify",
    "threshold.c_star",
    "simulate.sample",
    "simulate.find_star",
    "simulate.find_chain",
    "simulate.find_generic",
    "simulate.copy_weighting",
    "correspondence.copy_scan",
    "ramsey.encode",
    "ramsey.dimacs",
    "ramsey.solve",
    "ramsey.arrows",
]
# Work counted by the traced passes; a workload that does no such work reads 0.
COUNTER_UNITS = {
    "posets.antichain_count": "count",
    "posets.automorphism_count": "count",
    "threshold.group_order": "count",
    "threshold.table_cells": "count",
    "threshold.iterations": "count",
    "threshold.bracket_width_max": "nat",
    "simulate.words": "count",
    "simulate.hits": "count",
    "correspondence.partitions_scanned": "count",
    "ramsey.copies": "count",
    "ramsey.clauses": "count",
}
LAYERS = ["posets", "correspondence", "threshold", "ramsey", "simulate"]
CLI_COMMANDS = ["table1", "cstar", "simulate", "sat-encode", "sat-solve", "ramsey-number"]
# c_star's own stages, timed separately; the rest of c_star is the optimizer.
CSTAR_STAGES = ["posets.antichains", "threshold.symmetry", "threshold.table_build",
                "threshold.classify"]


def per_layer_units():
    units = {name + "_s": "s" for name in SPAN_METRICS}
    units["threshold.optimize_s"] = "s"
    units.update(COUNTER_UNITS)
    units.update({layer + ".self_s": "s" for layer in LAYERS})
    units.update({"cli.%s_s" % cmd.replace("-", "_"): "s" for cmd in CLI_COMMANDS})
    units["trace.overhead_s"] = "s"
    return units


# -- worker processes -------------------------------------------------------------


def worker_env():
    env = dict(os.environ)
    env.pop(CACHE_ENV, None)
    return env


def run_worker(workload, seed, mode, smoke, timeout):
    """One fresh process: set-up time to its ``ready`` line, then its result.

    A process still running after ``timeout`` seconds is killed.
    """
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--out", OUT] + (["--smoke"] if smoke else [])
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        ready = proc.stdout.readline().split()
        setup_s = time.perf_counter() - started
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.wait()
        proc.stdout.close()
    wall_s = time.perf_counter() - started
    if killed.is_set():
        planned = int(ready[1]) if len(ready) == 2 and mode == "cli" else 1
        return {"mode": mode, "timed_out": True, "setup_s": setup_s, "wall_s": wall_s,
                "planned_ops": planned}
    if proc.returncode != 0 or len(ready) != 2 or ready[0] != "ready":
        raise RuntimeError("worker %s failed with exit code %d" % (cmd, proc.returncode))
    result = json.loads(rest.strip().splitlines()[-1])
    result.update(setup_s=setup_s, wall_s=wall_s, planned_ops=int(ready[1]), timed_out=False)
    return result


def run_passes(workload, seed, seconds, trace, smoke):
    started = time.perf_counter()
    passes = []
    if not trace:
        # Processes that stop once set up: set-up samples and a warm file cache.
        for _ in range(SETUP_ONLY):
            passes.append(run_worker(workload, seed, "setup", smoke,
                                     RUN_LIMIT_S - (time.perf_counter() - started)))
    modes = ["cli", "traced"] if trace else ["cli"]
    timed = []
    while True:
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        timed.append(run_worker(workload, seed, modes[len(timed) % len(modes)], smoke, left))
        if timed[-1]["timed_out"]:
            break
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["wall_s"] for p in timed)
        if len(timed) >= MIN_PASSES and elapsed + typical > seconds:
            break
        if elapsed + typical > RUN_LIMIT_S:
            break
    return passes + timed


# -- metrics ----------------------------------------------------------------------------


def tally(passes):
    """correct / attempted / failed over CLI calls and traced passes."""
    attempted = failed = 0
    correct = True
    for p in passes:
        if p["timed_out"]:
            attempted += p["planned_ops"]
            failed += p["planned_ops"]
        elif p["mode"] == "cli":
            attempted += len(p["ops"])
            failed += sum(op["status"] != "ok" for op in p["ops"])
            correct &= all(op["status"] != "wrong" for op in p["ops"])
        elif p["mode"] == "traced":
            attempted += 1
            failed += p["status"] != "ok"
            correct &= p["status"] != "wrong"
    return correct, attempted, failed


def cli_run_s(p):
    """Wall time of a pass's calls, not rescaled."""
    if p["timed_out"]:
        return p["wall_s"]
    return sum(op["seconds"] for op in p["ops"])


def scaled_calls(p):
    """A pass's call times at the reference host speed.

    Each call's wall time (less the sampler's own time) times PROBE_REF_S over
    the mean speed reading taken during the call, or during the pass for a
    call too short to get one. A pass too short for any reading (smoke runs)
    stays unscaled.
    """
    out = []
    for op in p["ops"]:
        speed_s = op["speed_s"] or p["speed_s"]
        out.append(op["seconds"] * PROBE_REF_S / speed_s if speed_s else op["seconds"])
    return out


def end_to_end_metrics(passes):
    """The end-to-end metrics of an untraced run, at the reference host speed.

    A call's time is its mean over the run's passes; the set-up time is the
    median over the run's processes, scaled by the run's mean speed reading
    (README.md, "Host speed").
    """
    cli = [p for p in passes if p["mode"] == "cli"]
    done = [p for p in cli if not p["timed_out"]]
    readings = sum(p["readings"] for p in done)
    speed_s = (sum(p["speed_s"] * p["readings"] for p in done if p["readings"]) / readings
               if readings else None)
    if done:
        per_call = [statistics.fmean(col) for col in zip(*map(scaled_calls, done))]
        run_s, slowest_op_s = sum(per_call), max(per_call)
        wall = [statistics.fmean(col) for col in zip(*(
            [op["seconds"] for op in p["ops"]] for p in done))]
        wall_run_s, wall_slowest_op_s = sum(wall), max(wall)
    else:
        # Every pass was killed: its wall time stands in, and the run has failed.
        run_s = slowest_op_s = statistics.median(p["wall_s"] for p in cli)
        wall_run_s, wall_slowest_op_s = run_s, slowest_op_s
    # A killed pass reports no RSS of its own; the largest of any reaped worker stands in.
    rss_kb = [p["rss_kb"] for p in done] or [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    setup_s = statistics.median(p["setup_s"] for p in passes)
    values = {
        "run_s": run_s,
        "slowest_op_s": slowest_op_s,
        "peak_rss_mb": statistics.median(rss_kb) / 1024.0,
        "setup_s": setup_s * PROBE_REF_S / speed_s if speed_s else setup_s,
    }
    counts = {"run_s": len(done) or len(cli), "slowest_op_s": len(done) or len(cli),
              "peak_rss_mb": len(rss_kb), "setup_s": len(passes)}
    # Not metrics: the same times unscaled, and the speed readings behind the scale.
    unscaled = {
        "wall_run_s": wall_run_s,
        "wall_slowest_op_s": wall_slowest_op_s,
        "wall_setup_s": setup_s,
        "speed_mean_s": speed_s if speed_s else math.nan,
        "speed_readings": readings,
    }
    return values, counts, unscaled


def per_layer_metrics(passes):
    traced = [p for p in passes if p["mode"] == "traced" and not p["timed_out"]]
    cli = [p for p in passes if p["mode"] == "cli"]

    def med(fn):
        return statistics.median(fn(p) for p in traced) if traced else math.nan

    values = {}
    for name in SPAN_METRICS:
        values[name + "_s"] = med(lambda p: p["spans"].get(name, 0.0))
    values["threshold.optimize_s"] = med(
        lambda p: p["spans"].get("threshold.c_star", 0.0)
        - sum(p["spans"].get(stage, 0.0) for stage in CSTAR_STAGES)
    )
    for name in COUNTER_UNITS:
        values[name] = med(lambda p: p["counts"].get(name, 0))
    for layer in LAYERS:
        values[layer + ".self_s"] = med(lambda p: p["self"].get(layer, 0.0))
    done = [p for p in cli if not p["timed_out"]]
    for cmd in CLI_COMMANDS:
        values["cli.%s_s" % cmd.replace("-", "_")] = statistics.median(
            sum(op["seconds"] for op in p["ops"] if op["cmd"] == cmd) for p in done
        ) if done else math.nan
    values["trace.overhead_s"] = med(lambda p: p["run_s"]) - statistics.median(
        cli_run_s(p) for p in cli
    )
    counts = {name: len(traced) for name in values}
    for name in values:
        if name.startswith("cli."):
            counts[name] = len(done)
    return values, counts


def machine_info(cache_env_was_set):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cache_env_dropped": cache_env_was_set,
        "process_per_pass": True,
        "flags_not_passed": ["--threads", "cstar --seed"],
    }


def measure(workload, seed, seconds, trace, smoke=False):
    """One run of one workload: passes, metrics, a details file."""
    passes = run_passes(workload, seed, seconds, trace, smoke)
    correct, attempted, failed = tally(passes)
    if trace:
        values, counts = per_layer_metrics(passes)
        units = per_layer_units()
        unscaled = {}
    else:
        values, counts, unscaled = end_to_end_metrics(passes)
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "machine": machine_info(CACHE_ENV in os.environ),
        "samples": counts,
        "unscaled": unscaled,
        "passes": passes,
        "result": {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics},
    }
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "result-%s-seed%d-trace%d%s.json"
                        % (workload, seed, trace, "-smoke" if smoke else ""))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    details["path"] = path
    return details


def print_report(details):
    info = details["machine"]
    res = details["result"]
    print("workload %s  seed %d  trace %d  %d passes, one fresh process each"
          % (details["workload"], details["seed"], details["trace"],
             sum(p["mode"] != "setup" for p in details["passes"])))
    print("machine: nproc %d (usable %d), Python %s, numpy %s, scipy %s; %s %s"
          % (info["nproc"], info["usable_cpus"], info["python"], info["numpy"], info["scipy"],
             CACHE_ENV, "dropped" if info["cache_env_dropped"] else "not set"))
    for name, m in res["metrics"].items():
        stat = "mean" if not details["trace"] and name in MEAN_METRICS else "median"
        print("  %-36s %14.6g %-6s %s of %d" % (name, m["value"], m["unit"], stat,
                                                details["samples"][name]))
    for name, value in details["unscaled"].items():
        print("  %-36s %14.6g        not a metric, unscaled" % (name, value))
    ratio = res["failed"] / res["attempted"]
    print("  %-36s %14.6g        %d failed of %d attempted calls"
          % ("fail_ratio", ratio, res["failed"], res["attempted"]))
    for p in details["passes"]:
        for op in p.get("ops", []):
            if op["status"] != "ok":
                print("  FAILED %s: %s" % (" ".join(op["argv"]), op["error"]))
        if p["mode"] == "traced" and p["status"] != "ok":
            print("  FAILED traced pass: %s" % p["error"])
        if p["timed_out"]:
            print("  FAILED %s pass killed after %.1f s" % (p["mode"], p["wall_s"]))
    print("  details: %s" % os.path.relpath(details["path"], ROOT))


# -- smoke --------------------------------------------------------------------------


def smoke():
    """Every workload at a tiny size, both trace modes, against BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    problems = []
    if [w["name"] for w in bench["workloads"]] != WORKLOADS:
        problems.append("BENCHMARK.json workloads differ from %s" % WORKLOADS)
    for trace, key, units in ((0, "end_to_end", END_TO_END), (1, "per_layer", per_layer_units())):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != units:
            problems.append("BENCHMARK.json %s differs from the emitted metrics" % key)
        for workload in WORKLOADS:
            res = measure(workload, 1, 0, trace, smoke=True)["result"]
            where = "%s trace %d" % (workload, trace)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append("%s: correct %s, %d of %d failed"
                                % (where, res["correct"], res["failed"], res["attempted"]))
            for name, unit in declared.items():
                got = res["metrics"].get(name)
                if got is None or got["unit"] != unit or not math.isfinite(got["value"]):
                    problems.append("%s: metric %s emitted as %s" % (where, name, got))
    for line in problems:
        print("smoke: " + line)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    # A terminated run still kills and reaps its worker (see run_worker).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, 1: per-layer metrics; omitted: both")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "randposet", "__init__.py")):
        print("error: no src/randposet under %s; run from a randposet checkout" % ROOT,
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    traces = [0, 1] if args.trace is None else [args.trace]
    results = []
    for trace in traces:
        for name in names:
            details = measure(name, args.seed, args.seconds, trace)
            print_report(details)
            results.append((name, details["result"]))
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {"%s.%s" % (w, k): m for w, r in results for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

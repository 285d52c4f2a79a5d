"""One benchmark pass, in a fresh process started by run.py.

    python3 perfbench/worker.py --workload NAME --seed N --mode cli|traced|setup \
        --out DIR [--smoke]

Imports randposet from the checkout's ``src``, writes the workload's inputs
into a temporary directory under DIR, and prints ``ready K`` once set-up is
done, K being the number of CLI calls in a pass. Mode ``setup`` stops there.
Mode ``cli`` then drives ``cli.main`` in process once per call of the pass;
mode ``traced`` drives the same inputs through the modules' public functions
with spans around each call and writes the spans to DIR. Either prints its
result as one JSON line.

In mode ``cli`` a ``SpeedSampler`` reads the host's speed while the calls run;
run.py rescales each call's time by the readings taken during it (see
README.md, "Host speed").
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _interpreter_work():
    """A fixed loop that does not use randposet, about 1 ms on the reference host."""
    total, table = 0, {}
    for i in range(8_000):
        total += i * i % 7
        table[i & 1023] = total


class SpeedSampler:
    """Readings of the host's speed, taken while the calls of a pass run.

    A SIGALRM timer interrupts the main thread every INTERVAL_S seconds and
    the handler times ``_interpreter_work``: each reading is that time in
    seconds. ``spent`` is the total time in the handler, which the caller
    takes off a call's wall time.
    """

    INTERVAL_S = 0.05

    def __init__(self):
        self.readings = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        started = time.perf_counter()
        _interpreter_work()
        elapsed = time.perf_counter() - started
        self.readings.append(elapsed)
        self.spent += elapsed

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def mean_or_none(values):
    return sum(values) / len(values) if values else None


def run_cli_pass(cli, ops):
    from workloads import OpFailed, WrongOutput

    results = []
    with SpeedSampler() as sampler:
        for argv, check in ops:
            out = io.StringIO()
            error = None
            first, spent = len(sampler.readings), sampler.spent
            started = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    rc = cli.main(argv)
            except Exception:  # an uncaught error fails this call, not the run
                rc = None
                error = traceback.format_exc(limit=-1).strip().splitlines()[-1]
            seconds = time.perf_counter() - started - (sampler.spent - spent)
            readings = sampler.readings[first:]
            status = "failed"
            if rc is not None:
                try:
                    check(rc, out.getvalue())
                    status = "ok"
                except OpFailed as err:
                    error = str(err)
                except (WrongOutput, ValueError, KeyError, TypeError) as err:
                    status, error = "wrong", "%s: %s" % (type(err).__name__, err)
            results.append({"cmd": argv[0], "argv": argv, "seconds": seconds, "status": status,
                            "error": error, "speed_s": mean_or_none(readings),
                            "readings": len(readings)})
    return {"ops": results, "speed_s": mean_or_none(sampler.readings),
            "readings": len(sampler.readings)}


def run_traced_pass(workload, spans_path):
    from tracer import Tracer
    from workloads import OpFailed, WrongOutput

    tracer = Tracer()
    counts = collections.defaultdict(int)
    status, error = "ok", None
    try:
        workload.traced(tracer, counts)
    except OpFailed as err:
        status, error = "failed", str(err)
    except WrongOutput as err:
        status, error = "wrong", str(err)
    tracer.write(spans_path)
    totals = tracer.totals()
    return {
        "status": status,
        "error": error,
        "run_s": sum(t for name, t in totals.items() if name.startswith("op.")),
        "spans": dict(totals),
        "self": dict(tracer.self_times()),
        "counts": counts,
        "spans_file": os.path.relpath(spans_path, ROOT),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["cli", "traced", "setup"], required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import randposet
    from randposet import cli

    if os.path.dirname(os.path.abspath(randposet.__file__)) != os.path.join(SRC, "randposet"):
        sys.exit("randposet was imported from %s, not from %s" % (randposet.__file__, SRC))
    from workloads import WORKLOADS

    os.makedirs(args.out, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="inputs-", dir=args.out)
    try:
        workload = WORKLOADS[args.workload](args.smoke)
        workload.setup(args.seed, workdir)
        ops = workload.cli_ops()
        print("ready %d" % len(ops), flush=True)
        if args.mode == "setup":
            result = {}
        elif args.mode == "cli":
            result = run_cli_pass(cli, ops)
        else:
            spans = os.path.join(
                args.out, "spans-%s-seed%d-%d.json" % (args.workload, args.seed, os.getpid())
            )
            result = run_traced_pass(workload, spans)
        result["mode"] = args.mode
        result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()

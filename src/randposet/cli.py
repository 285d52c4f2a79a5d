"""Command line front end: thresholds, classification, Ramsey tools, sampling.

Every subcommand is a thin adapter over the library. Poset arguments accept
catalog spellings (chain:3, boolean:2, layered:1,2,1, V, T2, DD, ...) or
paths to description files. Exit codes: 0 success, 1 usage error, 2
capacity exceeded, 3 computation unconverged or solver unknown.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

from .posets import (
    CapacityError,
    PosetError,
    antichains,
    catalog,
    parse_poset_arg,
)
from . import correspondence, ramsey, simulate, threshold

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_UNCONVERGED = 3

_CLASS_DISPLAY = {
    "UniformlyBalanced": "Uniform",
    "Balanced": "Balanced",
    "General": "General",
}


class UsageError(Exception):
    """Command line arguments did not make sense."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(x):
    return "%.10g" % x


def _poset(arg):
    try:
        return parse_poset_arg(arg)
    except CapacityError:
        raise
    except PosetError as err:
        raise UsageError(str(err))


def _family_arg(arg):
    """A poset argument, or a comma list of catalog names forming a family."""
    if "," in arg and not os.path.exists(arg):
        try:
            members = [catalog(part) for part in arg.split(",")]
            return members
        except PosetError:
            pass
    return _poset(arg)


def _labels(poset, mask):
    return "{%s}" % ",".join(poset.label(i) for i in range(poset.n) if mask >> i & 1)


def _emit(args, record, human_lines):
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        for line in human_lines:
            print(line)


def _emit_stats(args, stats):
    """With --stats, a report's stats as one JSON document on stderr."""
    if args.stats:
        print(json.dumps(stats, indent=2), file=sys.stderr)


# -- subcommand handlers ---------------------------------------------------------


def _cmd_antichains(args):
    poset = _poset(args.poset)
    family = antichains(poset, cap=args.cap)
    record = {
        "poset": args.poset,
        "count": len(family),
        "antichains": [
            [poset.label(i) for i in range(poset.n) if mask >> i & 1] for mask in family.masks
        ],
    }
    lines = ["%d antichains" % len(family)]
    if not args.count_only:
        lines.extend(_labels(poset, mask) for mask in family.masks)
    _emit(args, record, lines)
    return EXIT_OK


def _report_lines(args, rep, poset):
    lines = [
        "poset %s: %d elements, %d antichains" % (args.poset, rep.size, rep.family_size),
        "value %s" % _fmt(rep.value),
        "bracket [%s, %s]" % (_fmt(rep.lower_bound), _fmt(rep.upper_bound)),
        "class %s" % _CLASS_DISPLAY.get(rep.classification, rep.classification),
        "active %s" % " ".join(_labels(poset, q) for q in rep.active_subposets),
        "iterations %d (tolerance %s)" % (rep.iterations, _fmt(rep.tolerance)),
    ]
    for note in rep.notes:
        lines.append("note: %s" % note)
    if not rep.converged:
        width = rep.upper_bound - rep.lower_bound
        if width < 0:
            lines.append("UNCONVERGED: bracket crossed")
        else:
            lines.append("UNCONVERGED: bracket width %s above tolerance" % _fmt(width))
    return lines


def _cmd_cstar(args):
    poset = _poset(args.poset)
    rep = threshold.c_star(
        poset,
        tol=args.tol,
        max_iter=args.max_iter,
        name=args.poset,
    )
    _emit(args, rep.to_json_dict(), _report_lines(args, rep, poset))
    _emit_stats(args, rep.stats)
    return EXIT_OK if rep.converged else EXIT_UNCONVERGED


def _cmd_classify(args):
    poset = _poset(args.poset)
    family = antichains(poset)
    cls = threshold.classify(poset, family)
    record = {
        "poset": args.poset,
        "class": cls.label,
        "violations": [
            {"subposet": _labels(poset, q), "value": v, "target": t}
            for q, v, t in cls.violations
        ],
        "details": {k: v for k, v in cls.details.items() if not hasattr(v, "tolist")},
    }
    lines = ["class %s" % _CLASS_DISPLAY.get(cls.label, cls.label)]
    for q, v, t in cls.violations:
        lines.append("violation %s: value %s below target %s" % (_labels(poset, q), _fmt(v), _fmt(t)))
    if "balanced_x" in cls.details:
        lines.append("balanced x %s" % _fmt(cls.details["balanced_x"]))
    if "balanced_value" in cls.details:
        lines.append("balanced value %s" % _fmt(cls.details["balanced_value"]))
    _emit(args, record, lines)
    return EXIT_OK


def _cmd_count(args):
    pattern = _poset(args.poset)
    total = correspondence.count_copies(pattern, args.n, mode=args.mode)
    _emit(
        args,
        {"poset": args.poset, "n": args.n, "mode": args.mode, "count": int(total)},
        [str(total)],
    )
    return EXIT_OK


# Rows of the built-in results table: display name, catalog spelling,
# reference value (single float) or bracket (pair), and the reference class.
# Rows whose reference class fails its own definition check are marked
# known-open.
_TABLE1 = [
    ("C(2)", "chain:2", 0.549306, "Uniform", None),
    ("V", "v", 0.53573885, "Exact", None),
    ("C(2,2)", "layered:2,2", 0.48647753, "Uniform", None),
    ("C(3)", "chain:3", 0.462098, "Uniform", None),
    ("Lambda'", "lambda'", (0.455914351, 0.46051702), "General", None),
    ("C(1,2,1)", "diamond", 0.447699551, "Balanced", None),
    ("Y", "y", (0.44769950088, 0.44793987), "General", None),
    ("Y'", "y'", (0.44769951418, 0.44793987), "General", None),
    ("T2", "t2", (0.4474689916, 0.44793987), "General", None),
    ("F", "fish", (0.43238626, 0.43984289), "General", None),
    ("C(2,1,2)", "layered:2,1,2", 0.415888308, "Uniform", None),
    ("C(1,2,2)", "layered:1,2,2", (0.415507009, 0.4158883), "General", None),
    ("C(4)", "chain:4", 0.402359, "Uniform", None),
    ("C(1,1,2,1)", "layered:1,1,2,1", (0.3891411, 0.38918203), "General", None),
    ("C(1,1,1,2)", "layered:1,1,1,2", (0.3891411, 0.38918203), "General", None),
    ("Y''", "y''", (0.38890390, 0.38918203), "General", None),
    ("DD", "dd", 0.3816641132, "Balanced", None),
    ("C(2,3,2)", "layered:2,3,2", (0.376783, 0.3770081), "General", None),
    ("P(3)", "boolean:3", 0.36356411, "Uniform", "class fails its definition check"),
    ("C(1,2,1,2,1)", "layered:1,2,1,2,1", 0.3289037390, "Uniform", "class fails its definition check"),
]


def _cmd_table1(args):
    if not args.value_tol >= 0:
        raise UsageError("--value-tol must be a number >= 0, got %r" % (args.value_tol,))
    wanted = None
    if args.rows:
        names = [r.strip() for r in args.rows.split(",")]
        wanted = {r.lower() for r in names}
        known = {row[0].lower() for row in _TABLE1}
        unknown = [r for r in names if r.lower() not in known]
        if unknown:
            raise UsageError("unknown table1 rows: %s" % ", ".join(map(repr, unknown)))
    records = []
    stats = []
    lines = [
        "%-14s %-26s %-26s %-9s %-9s %s"
        % ("name", "computed", "reference", "class", "ref", "flag")
    ]
    worst = EXIT_OK
    for name, spelling, reference, ref_class, known in _TABLE1:
        if wanted is not None and name.lower() not in wanted:
            continue
        poset = catalog(spelling)
        rep = threshold.c_star(poset, tol=args.tol, name=name)
        got_class = _CLASS_DISPLAY.get(rep.classification, rep.classification)
        flags = []
        if isinstance(reference, tuple):
            lo, hi = reference
            computed_txt = "[%s, %s]" % (_fmt(rep.lower_bound), _fmt(rep.upper_bound))
            reference_txt = "[%s, %s]" % (_fmt(lo), _fmt(hi))
            if rep.upper_bound < lo - 1e-12 or rep.lower_bound > hi + 1e-12:
                flags.append("bracket-disjoint")
        else:
            computed_txt = _fmt(rep.value)
            reference_txt = _fmt(reference)
            if abs(rep.value - reference) > args.value_tol:
                flags.append("value-deviation %.2e" % abs(rep.value - reference))
        if ref_class in ("Uniform", "Balanced") and got_class != ref_class:
            flags.append("class-mismatch (known)" if known else "class-mismatch")
        if not rep.converged:
            flags.append("unconverged")
            worst = EXIT_UNCONVERGED
        stats.append({"name": name, "stats": rep.stats})
        records.append(
            {
                "name": name,
                "computed": rep.to_json_dict(),
                "reference": list(reference) if isinstance(reference, tuple) else reference,
                "reference_class": ref_class,
                "flags": flags,
                "note": known,
            }
        )
        lines.append(
            "%-14s %-26s %-26s %-9s %-9s %s"
            % (name, computed_txt, reference_txt, got_class, ref_class, ";".join(flags))
        )
    _emit(args, {"rows": records}, lines)
    _emit_stats(args, {"rows": stats})
    return worst


def _cmd_ramsey_bounds(args):
    first = _family_arg(args.p)
    second = _family_arg(args.q)
    h_poset = _poset(args.h_poset) if args.h_poset else None
    rep = ramsey.exponent_bounds(first, second, h_poset=h_poset)
    lines = []
    if rep.exact is not None:
        lines.append("exact %s" % _fmt(rep.exact))
    if rep.lower is not None:
        lines.append("lower %s (%s)" % (_fmt(rep.lower), rep.lower_source))
    else:
        lines.append("lower unavailable")
    if rep.upper is not None:
        lines.append("upper %s (%s)" % (_fmt(rep.upper), rep.upper_source))
    else:
        lines.append("upper unavailable")
    for note in rep.notes:
        lines.append("note: %s" % note)
    _emit(args, rep.to_json_dict(), lines)
    return EXIT_OK


def _cmd_arrows(args):
    host = _poset(args.host)
    first = _family_arg(args.p)
    second = _family_arg(args.q)
    ok, witness = ramsey.arrows(host, first, second, induced=args.induced)
    record = {"host": args.host, "arrows": ok}
    lines = ["true" if ok else "false"]
    if witness is not None:
        record["witness"] = list(witness)
        lines.append(
            "witness " + " ".join("%s=%d" % (host.label(i), c) for i, c in enumerate(witness))
        )
    _emit(args, record, lines)
    return EXIT_OK


def _cmd_ramsey_number(args):
    first = _family_arg(args.p)
    second = _family_arg(args.q)
    n = ramsey.ramsey_number(first, second, n_max=args.n_max, induced=args.induced)
    record = {"p": args.p, "q": args.q, "n_max": args.n_max, "ramsey_number": n}
    lines = [str(n) if n is not None else "none up to %d" % args.n_max]
    _emit(args, record, lines)
    return EXIT_OK


def _timed(seconds, stage, func, *args):
    """func(*args), with its wall time stored as seconds[stage]."""
    started = time.perf_counter()
    out = func(*args)
    seconds[stage] = time.perf_counter() - started
    return out


def _encode_from_args(args, seconds):
    host = _poset(args.host)
    pattern = _poset(args.pattern)
    copies = _timed(seconds, "copies", ramsey.pattern_copies, host, pattern, args.mode)
    return _timed(seconds, "cnf", ramsey.encode_copies, host.n, copies)


def _sat_stats(cnf, seconds, **extra):
    return {"num_vars": cnf.num_vars, "num_clauses": cnf.num_clauses, "seconds": seconds, **extra}


def _cmd_sat_encode(args):
    seconds = {}
    cnf = _encode_from_args(args, seconds)
    text = _timed(seconds, "dimacs_write", cnf.to_dimacs)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("wrote %s (%d vars, %d clauses)" % (args.output, cnf.num_vars, cnf.num_clauses))
    else:
        sys.stdout.write(text)
    _emit_stats(args, _sat_stats(cnf, seconds))
    return EXIT_OK


def _cmd_sat_solve(args):
    seconds = {}
    if args.dimacs:
        if args.host or args.pattern:
            raise UsageError("--dimacs takes no --host or --pattern")
        with open(args.dimacs, "r", encoding="utf-8") as fh:
            cnf = _timed(seconds, "dimacs_parse", ramsey.parse_dimacs, fh.read())
    elif args.host and args.pattern:
        cnf = _encode_from_args(args, seconds)
    else:
        raise UsageError("need either --dimacs or --host with --pattern")
    res = _timed(seconds, "solve", ramsey.solve_cnf, cnf, args.time_budget)
    record = {"status": res.status}
    lines = [res.status.upper()]
    if res.status == "sat":
        colouring = ramsey.assignment_to_colouring(res.assignment, cnf.num_vars)
        record["colouring"] = list(colouring)
        lines.append("colouring " + " ".join(str(c) for c in colouring))
    _emit(args, record, lines)
    _emit_stats(args, _sat_stats(cnf, seconds, solver=res.stats))
    return EXIT_UNCONVERGED if res.status == "unknown" else EXIT_OK


def _number(text, flag):
    try:
        return float(text)
    except ValueError:
        raise UsageError("%s expects numbers, got %r" % (flag, text)) from None


def _parse_grid(args):
    if args.c_grid:
        parts = args.c_grid.split(":")
        if len(parts) != 3:
            raise UsageError("--c-grid expects LO:HI:STEP")
        lo, hi, step = (_number(p, "--c-grid") for p in parts)
        if not all(map(math.isfinite, (lo, hi, step))):
            raise UsageError("--c-grid expects finite numbers")
        if step <= 0 or hi < lo:
            raise UsageError("--c-grid expects LO <= HI and STEP > 0")
        grid = []
        k = 0
        while True:
            c = lo + k * step
            if c > hi + 1e-12:
                break
            grid.append(c)
            k += 1
        return grid
    if args.c:
        return [_number(p, "--c") for p in args.c.split(",")]
    raise UsageError("need --c-grid or --c")


def _cmd_simulate(args):
    if args.json and args.output:
        raise UsageError("--json and --output cannot be combined")
    pattern = _poset(args.pattern)
    grid = _parse_grid(args)
    report = simulate.sweep(
        pattern,
        args.n,
        grid,
        trials=args.trials,
        seed=args.seed,
        induced=args.induced,
        budget=args.budget,
        record_weights=bool(args.record_weights),
        pattern_name=args.pattern,
    )
    _emit_stats(args, report.stats)
    if args.record_weights:
        with open(args.record_weights, "w", encoding="utf-8") as fh:
            fh.write(report.weights_json())
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    elif args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())
        print("wrote %s" % args.output)
    else:
        sys.stdout.write(report.to_csv())
    return EXIT_OK


# -- parser wiring ----------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="randposet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, json_output=True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        if json_output:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        return p

    p = add("antichains", _cmd_antichains, "enumerate the antichains of a poset")
    p.add_argument("poset")
    p.add_argument("--cap", type=int, default=10 ** 7)
    p.add_argument("--count-only", action="store_true")

    p = add("cstar", _cmd_cstar, "certified max-min exponent of a poset")
    p.add_argument("poset")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--max-iter", type=int, default=6000)
    p.add_argument("--stats", action="store_true", help="optimizer stats as JSON on stderr")

    p = add("classify", _cmd_classify, "uniform/balanced/general classification")
    p.add_argument("poset")

    p = add("count", _cmd_count, "count copies of a pattern in subsets of {1..n}")
    p.add_argument("poset")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["weak", "injective", "induced"], default="weak")

    p = add("table1", _cmd_table1, "recompute the built-in results table")
    p.add_argument("--rows", default=None, help="comma list of row names to include")
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--value-tol", type=float, default=1e-4)
    p.add_argument("--stats", action="store_true", help="optimizer stats as JSON on stderr, one entry a row")

    p = add("ramsey-bounds", _cmd_ramsey_bounds, "exponent bounds for a pattern pair")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--h-poset", default=None, help="lower-bound host: catalog spelling or poset file")

    p = add("arrows", _cmd_arrows, "decide whether a host arrows a pattern pair (SAT)")
    p.add_argument("--host", required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--induced", action="store_true")

    p = add("ramsey-number", _cmd_ramsey_number, "least lattice dimension that arrows a pair")
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--n-max", type=int, default=4)
    p.add_argument("--induced", action="store_true")

    p = add("sat-encode", _cmd_sat_encode, "emit the avoidance CNF in DIMACS form", json_output=False)
    p.add_argument("--host", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--mode", choices=["all-weak", "all-induced", "subcube"], default="all-weak")
    p.add_argument("--output", default=None)
    p.add_argument("--stats", action="store_true", help="sizes and time per stage as JSON on stderr")

    p = add("sat-solve", _cmd_sat_solve, "solve an avoidance CNF with the embedded solver")
    p.add_argument("--dimacs", default=None)
    p.add_argument("--host", default=None)
    p.add_argument("--pattern", default=None)
    p.add_argument("--mode", choices=["all-weak", "all-induced", "subcube"], default="all-weak")
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--stats", action="store_true", help="sizes, time per stage and solver counts as JSON on stderr")

    p = add("simulate", _cmd_simulate, "Monte Carlo containment sweep over exponents")
    p.add_argument("--pattern", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c-grid", default=None, help="LO:HI:STEP inclusive grid")
    p.add_argument("--c", default=None, help="comma list of exponents")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--induced", action="store_true")
    p.add_argument("--budget", type=float, default=simulate.DEFAULT_BUDGET)
    p.add_argument("--record-weights", default=None, help="JSON sidecar path for copy weightings")
    p.add_argument("--output", default=None, help="CSV output path (default stdout)")
    p.add_argument("--stats", action="store_true", help="time and words sampled per cell as JSON on stderr")

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as err:
        print("capacity error: %s" % err, file=sys.stderr)
        return EXIT_CAPACITY
    except MemoryError as err:
        print("capacity error: out of memory%s" % (": %s" % err if str(err) else ""), file=sys.stderr)
        return EXIT_CAPACITY
    except (PosetError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

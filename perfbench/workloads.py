"""The four benchmark workloads: their inputs, CLI calls, checks and traced calls.

Imported only by ``worker.py``, inside a fresh process whose ``sys.path``
already starts with the checkout's ``src``. Each workload

- writes its inputs from the benchmark seed (``setup``),
- lists the CLI calls of one pass, each with the check its output must pass
  (``cli_ops``), and
- drives the same inputs through the modules' public functions with a span
  around every call (``traced``), counting the work each layer does.

A check that finds a wrong answer raises ``WrongOutput``; an honest failure
(non-zero exit, unconverged, ``unknown``) raises ``OpFailed``. Both count as
failed calls; only ``WrongOutput`` makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import random

import numpy as np

from randposet import posets, ramsey, simulate, threshold
from randposet.posets import Poset, boolean_lattice, catalog, connected_components, load_poset

TOL = 1e-6
# The CLI flags a reference bracket as disjoint only beyond this slack; the
# dual-bracket check allows the same floating-point roundoff.
BRACKET_SLACK = 1e-12


class OpFailed(Exception):
    """The call gave no answer: non-zero exit, unconverged or unknown."""


class WrongOutput(Exception):
    """The call answered, and the answer failed its check."""


def require(cond, message):
    if not cond:
        raise WrongOutput(message)


def expect_exit(rc, what):
    if rc != 0:
        raise OpFailed("%s exited with code %d" % (what, rc))


def expect_status(status, expected, what):
    """A solver answer: ``unknown`` is a failed call, any other mismatch is wrong."""
    if status == "unknown":
        raise OpFailed("%s: the solver gave up" % what)
    require(status == expected, "%s: expected %s, got %s" % (what, expected, status))


# -- cstar checks shared by both cstar workloads --------------------------------


def check_bracket(rec, what):
    """A converged certified bracket no wider than the requested tolerance."""
    if not rec.get("converged", True):
        raise OpFailed("%s did not converge" % what)
    lo, hi = rec["lower"], rec["upper"]
    require(lo <= hi, "%s: bracket [%r, %r] is inverted" % (what, lo, hi))
    require(hi - lo <= TOL, "%s: bracket width %.3e above tol %g" % (what, hi - lo, TOL))


def check_report(rep, what):
    """The traced-run twin of ``check_bracket`` on a CriticalExponentReport."""
    check_bracket(
        {"converged": rep.converged, "lower": rep.lower_bound, "upper": rep.upper_bound}, what
    )


def traced_cstar(tracer, counts, poset, what):
    """Time the stages c_star runs, each through its public function, then c_star."""
    with tracer.span("posets.antichains"):
        family = posets.antichains(poset)
    with tracer.span("posets.automorphisms"):
        auts = posets.automorphisms(poset)
        rauts = posets.reverse_automorphisms(poset)
    with tracer.span("threshold.symmetry"):
        group = threshold.antichain_symmetry_group(poset, family)
    with tracer.span("threshold.table_build"):
        table = threshold.ExponentTable.build(poset, family)
    with tracer.span("threshold.classify"):
        threshold.classify(poset, family, table)
    with tracer.span("threshold.c_star"):
        rep = threshold.c_star(poset, tol=TOL)
    counts["posets.antichain_count"] += len(family)
    counts["posets.automorphism_count"] += len(auts) + len(rauts)
    counts["threshold.group_order"] += len(group)
    counts["threshold.table_cells"] += len(family) * ((1 << poset.n) - 1)
    counts["threshold.iterations"] += rep.iterations
    width = rep.upper_bound - rep.lower_bound
    counts["threshold.bracket_width_max"] = max(counts["threshold.bracket_width_max"], width)
    check_report(rep, what)
    return rep


# -- cstar_catalog -----------------------------------------------------------------

# Rows of `randposet table1` (display name, catalog spelling), in table order.
TABLE1_ROWS = [
    ("C(2)", "chain:2"),
    ("V", "v"),
    ("C(2,2)", "layered:2,2"),
    ("C(3)", "chain:3"),
    ("Lambda'", "lambda'"),
    ("C(1,2,1)", "diamond"),
    ("Y", "y"),
    ("Y'", "y'"),
    ("T2", "t2"),
    ("F", "fish"),
    ("C(2,1,2)", "layered:2,1,2"),
    ("C(1,2,2)", "layered:1,2,2"),
    ("C(4)", "chain:4"),
    ("C(1,1,2,1)", "layered:1,1,2,1"),
    ("C(1,1,1,2)", "layered:1,1,1,2"),
    ("Y''", "y''"),
    ("DD", "dd"),
    ("C(2,3,2)", "layered:2,3,2"),
    ("P(3)", "boolean:3"),
    ("C(1,2,1,2,1)", "layered:1,2,1,2,1"),
]
SMOKE_TABLE1_ROWS = TABLE1_ROWS[:2]
KNOWN_FLAG = "class-mismatch (known)"

# Random connected posets: (size, structure seed) for `random_relations`.
# The benchmark seed relabels them; it does not change their structure, so
# every seed asks for the same amount of work (see README.md for the
# structures left out and why).
RANDOM_POSETS = [(10, 0), (10, 1), (11, 0), (11, 1)]
SMOKE_RANDOM_POSETS = [(5, 1)]
EDGE_PROBABILITY = 0.25


def random_relations(n, structure_seed):
    """Relations of a random connected poset: each pair i < j kept with p = 0.25."""
    rng = random.Random(structure_seed)
    while True:
        relations = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < EDGE_PROBABILITY
        ]
        poset = Poset(n, relations)
        if len(connected_components(poset)) == 1:
            return poset.cover_pairs()


def write_relabelled(path, covers, rng, dual):
    """Write covers as a DSL file under a random naming and line order."""
    n = 1 + max(max(pair) for pair in covers)
    names = ["e%02d" % k for k in rng.sample(range(100), n)]
    lines = ["%s < %s" % ((names[j], names[i]) if dual else (names[i], names[j])) for i, j in covers]
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


class CstarCatalog:
    """table1, then cstar on random connected posets and their order duals."""

    name = "cstar_catalog"

    def __init__(self, smoke):
        self.rows = SMOKE_TABLE1_ROWS if smoke else TABLE1_ROWS
        self.structures = SMOKE_RANDOM_POSETS if smoke else RANDOM_POSETS

    def setup(self, seed, workdir):
        rng = random.Random("cstar_catalog/%d" % seed)
        self.files = []
        for k, (n, structure_seed) in enumerate(self.structures):
            covers = random_relations(n, structure_seed)
            pair = []
            for dual in (False, True):
                path = os.path.join(workdir, "random%d%s.poset" % (k, "_dual" if dual else ""))
                write_relabelled(path, covers, rng, dual)
                pair.append(path)
            self.files.append(tuple(pair))

    def cli_ops(self):
        argv = ["table1", "--tol", str(TOL), "--json"]
        if len(self.rows) != len(TABLE1_ROWS):
            argv += ["--rows", ",".join(name for name, _ in self.rows)]
        ops = [(argv, self.check_table1)]
        for path, dual_path in self.files:
            brackets = {}
            ops.append((cstar_argv(path), self.bracket_check(path, brackets)))
            ops.append((cstar_argv(dual_path), self.bracket_check(dual_path, brackets)))
        return ops

    def check_table1(self, rc, out):
        expect_exit(rc, "table1")
        rows = json.loads(out)["rows"]
        require(
            [r["name"] for r in rows] == [name for name, _ in self.rows],
            "table1 rows differ from the expected %d rows" % len(self.rows),
        )
        for r in rows:
            bad = [f for f in r["flags"] if f != KNOWN_FLAG]
            require(not bad, "table1 row %s flagged %s" % (r["name"], bad))
            check_bracket(r["computed"], "table1 row %s" % r["name"])

    @staticmethod
    def bracket_check(path, brackets):
        """Check one bracket; the second of a dual pair must meet the first."""

        def check(rc, out):
            expect_exit(rc, "cstar %s" % path)
            rec = json.loads(out)
            check_bracket(rec, "cstar %s" % path)
            for other, (lo, hi) in brackets.items():
                require(
                    max(lo, rec["lower"]) <= min(hi, rec["upper"]) + BRACKET_SLACK,
                    "brackets of %s and its dual %s are disjoint" % (other, path),
                )
            brackets[path] = (rec["lower"], rec["upper"])

        return check

    def traced(self, tracer, counts):
        for _, spelling in self.rows:
            with tracer.span("op.table1_row"):
                traced_cstar(tracer, counts, catalog(spelling), spelling)
        for pair in self.files:
            reps = []
            for path in pair:
                with tracer.span("op.cstar"):
                    reps.append(traced_cstar(tracer, counts, load_poset(path), path))
            require(
                max(r.lower_bound for r in reps) <= min(r.upper_bound for r in reps) + BRACKET_SLACK,
                "brackets of %s and its dual are disjoint" % pair[0],
            )


def cstar_argv(poset_arg):
    return ["cstar", poset_arg, "--tol", str(TOL), "--json"]


# -- cstar_symmetric -----------------------------------------------------------------

SYMMETRIC_POSETS = ["blowup:2,4", "layered:3,3,3,2", "boolean:3"]
SMOKE_SYMMETRIC_POSETS = ["boolean:2"]


class CstarSymmetric:
    """cstar on posets with large symmetry groups, plus a small control."""

    name = "cstar_symmetric"

    def __init__(self, smoke):
        self.spellings = SMOKE_SYMMETRIC_POSETS if smoke else SYMMETRIC_POSETS

    def setup(self, seed, workdir):
        pass

    def cli_ops(self):
        return [(cstar_argv(s), self.check(s)) for s in self.spellings]

    @staticmethod
    def check(spelling):
        def check(rc, out):
            expect_exit(rc, "cstar %s" % spelling)
            check_bracket(json.loads(out), "cstar %s" % spelling)

        return check

    def traced(self, tracer, counts):
        for spelling in self.spellings:
            with tracer.span("op.cstar"):
                traced_cstar(tracer, counts, catalog(spelling), spelling)


# -- sweep ---------------------------------------------------------------------------

# (pattern, which find_pattern path it takes, n, 3-point grid straddling c*, trials)
SWEEPS = [
    ("v", "star", 40, (0.49, 0.54, 0.59), 120),
    ("chain:3", "chain", 32, (0.41, 0.46, 0.51), 30),
    ("diamond", "generic", 22, (0.40, 0.45, 0.50), 30),
]
SIM_SEED = 1
SMOKE_SWEEPS = [
    ("v", "star", 12, (0.49, 0.54, 0.59), 3),
    ("chain:3", "chain", 10, (0.41, 0.46, 0.51), 3),
    ("diamond", "generic", 8, (0.40, 0.45, 0.50), 3),
]


def words_poset(words):
    """The containment order on distinct words."""
    return Poset(
        len(words),
        [(a, b) for a, u in enumerate(words) for b, w in enumerate(words) if u != w and u & w == u],
    )


def check_copy(pattern, image, what):
    """Re-verify one reported copy from its words alone."""
    require(len(set(image)) == pattern.n, "%s: copy %s is not injective" % (what, image))
    require(
        posets.contains_copy(words_poset(image), pattern) is not None,
        "%s: words %s hold no copy of the pattern" % (what, image),
    )


class Sweep:
    """simulate on a star, a chain and a generic pattern, 3 grid points each."""

    name = "sweep"

    def __init__(self, smoke):
        self.sweeps = SMOKE_SWEEPS if smoke else SWEEPS

    def setup(self, seed, workdir):
        # The seed does not change this workload: from one stream seed to the
        # next the diamond sweep alone takes 2.7 s to 6.3 s, and relabelling
        # the pattern swings its generic search about 3x.
        self.sim_seed = SIM_SEED
        self.workdir = workdir

    def cli_ops(self):
        ops = []
        for k, (spelling, _, n, grid, trials) in enumerate(self.sweeps):
            weights = os.path.join(self.workdir, "weights%d.json" % k)
            argv = [
                "simulate", "--json", "--seed", str(self.sim_seed), "--pattern", spelling,
                "--n", str(n), "--c", ",".join(map(str, grid)), "--trials", str(trials),
                "--record-weights", weights,
            ]
            ops.append((argv, self.check(spelling, grid, trials, weights)))
        return ops

    @staticmethod
    def check(spelling, grid, trials, weights):
        def check(rc, out):
            expect_exit(rc, "simulate %s" % spelling)
            rows = json.loads(out)["rows"]
            require([r["c"] for r in rows] == list(grid), "simulate %s: grid changed" % spelling)
            for r in rows:
                require(
                    r["trials"] == trials and 0 <= r["successes"] <= trials,
                    "simulate %s: bad row %s" % (spelling, r),
                )
            with open(weights, encoding="utf-8") as fh:
                records = json.load(fh)
            require(
                len(records) == sum(r["successes"] for r in rows),
                "simulate %s: %d copies reported for %d successes"
                % (spelling, len(records), sum(r["successes"] for r in rows)),
            )
            pattern = catalog(spelling)
            for rec in records:
                check_copy(pattern, rec["image"], "simulate %s" % spelling)

        return check

    def traced(self, tracer, counts):
        """The sweep loop of simulate.sweep, with the same per-trial streams."""
        for spelling, kind, n, grid, trials in self.sweeps:
            pattern = catalog(spelling)
            with tracer.span("op.simulate"):
                for cell, c in enumerate(sorted(grid)):
                    for trial in range(trials):
                        ss = np.random.SeedSequence(self.sim_seed, spawn_key=(cell, trial))
                        with tracer.span("simulate.sample"):
                            sample = simulate.sample_pnp(n, c, rng=np.random.default_rng(ss))
                        with tracer.span("simulate.find_" + kind):
                            image = simulate.find_pattern(sample, pattern)
                        counts["simulate.words"] += len(sample)
                        if image is not None:
                            counts["simulate.hits"] += 1
                            with tracer.span("simulate.copy_weighting"):
                                simulate.copy_weighting(pattern, n, image)
                            check_copy(pattern, list(image), "simulate %s" % spelling)


# -- ramsey_sat ---------------------------------------------------------------------

# B5 has a colouring with no monochromatic B3 (SAT), B6 has none without a
# monochromatic C(2,1,2) (UNSAT, decided by the DPLL), and the diamond's
# Ramsey number is 4.
RAMSEY = {"encode": (5, "boolean:3"), "unsat": (6, "layered:2,1,2"), "number": ("diamond", 4)}
SMOKE_RAMSEY = {"encode": (3, "boolean:2"), "unsat": (2, "chain:2"), "number": ("chain:2", 2)}


def check_sat_colouring(cnf, colouring, host, pattern):
    """A SAT colouring satisfies every clause and leaves no monochromatic copy."""
    require(len(colouring) == cnf.num_vars, "colouring has the wrong length")
    for clause in cnf.clauses:
        require(
            any((colouring[abs(lit) - 1] == 1) == (lit > 0) for lit in clause),
            "colouring violates clause %s" % (clause,),
        )
    ok, witness = ramsey.verify_colouring(host, colouring, pattern, pattern)
    require(ok, "colouring leaves a monochromatic copy %s" % (witness,))


class RamseySat:
    """sat-encode + sat-solve of an avoidance CNF (SAT), sat-solve of an UNSAT
    one, then ramsey-number."""

    name = "ramsey_sat"

    def __init__(self, smoke):
        self.spec = SMOKE_RAMSEY if smoke else RAMSEY

    def setup(self, seed, workdir):
        # The seed does not change this workload: relabelling the variables
        # swings the DPLL time by more than an order of magnitude.
        self.dimacs = os.path.join(workdir, "avoid.cnf")

    def cli_ops(self):
        dim, pattern = self.spec["encode"]
        unsat_dim, unsat_pattern = self.spec["unsat"]
        p, _ = self.spec["number"]
        host = "boolean:%d" % dim
        return [
            (["sat-encode", "--host", host, "--pattern", pattern, "--output", self.dimacs],
             self.check_encode),
            (["sat-solve", "--dimacs", self.dimacs, "--json"], self.check_sat),
            (["sat-solve", "--host", "boolean:%d" % unsat_dim, "--pattern", unsat_pattern,
              "--json"], self.check_unsat),
            (["ramsey-number", "--p", p, "--q", p, "--json"], self.check_number),
        ]

    def check_encode(self, rc, out):
        expect_exit(rc, "sat-encode")
        require(os.path.isfile(self.dimacs), "sat-encode wrote no file")

    def check_sat(self, rc, out):
        expect_exit(rc, "sat-solve --dimacs")
        rec = json.loads(out)
        expect_status(rec["status"], "sat", "sat-solve --dimacs")
        with open(self.dimacs, encoding="utf-8") as fh:
            cnf = ramsey.parse_dimacs(fh.read())
        dim, pattern = self.spec["encode"]
        check_sat_colouring(cnf, rec["colouring"], boolean_lattice(dim), catalog(pattern))

    def check_unsat(self, rc, out):
        expect_exit(rc, "sat-solve --host")
        expect_status(json.loads(out)["status"], "unsat", "sat-solve --host")

    def check_number(self, rc, out):
        expect_exit(rc, "ramsey-number")
        got = json.loads(out)["ramsey_number"]
        require(got == self.spec["number"][1], "ramsey number %s, expected %d"
                % (got, self.spec["number"][1]))

    def traced(self, tracer, counts):
        dim, spelling = self.spec["encode"]
        host, pattern = boolean_lattice(dim), catalog(spelling)
        with tracer.span("op.sat_encode_solve"):
            with tracer.span("correspondence.copy_scan"):
                copies = ramsey.enumerate_pattern_copies(host, pattern)
            with tracer.span("ramsey.encode"):
                cnf = ramsey.encode_avoidance(host, pattern)
            with tracer.span("ramsey.dimacs"):
                cnf = ramsey.parse_dimacs(cnf.to_dimacs())
            with tracer.span("ramsey.solve"):
                res = ramsey.solve_cnf(cnf)
        counts["correspondence.partitions_scanned"] += len(posets.antichains(pattern)) ** dim
        counts["ramsey.copies"] += len(copies)
        counts["ramsey.clauses"] += len(cnf.clauses)
        expect_status(res.status, "sat", "solve_cnf B%d/%s" % (dim, spelling))
        colouring = ramsey.assignment_to_colouring(res.assignment, cnf.num_vars)
        check_sat_colouring(cnf, colouring, host, pattern)

        dim, spelling = self.spec["unsat"]
        with tracer.span("op.sat_solve_unsat"):
            with tracer.span("ramsey.encode"):
                cnf = ramsey.encode_avoidance(boolean_lattice(dim), catalog(spelling))
            with tracer.span("ramsey.solve"):
                res = ramsey.solve_cnf(cnf)
        counts["ramsey.clauses"] += len(cnf.clauses)
        expect_status(res.status, "unsat", "solve_cnf B%d/%s" % (dim, spelling))

        p, expected = self.spec["number"]
        pattern = catalog(p)
        number = None
        with tracer.span("op.ramsey_number"):
            for d in range(1, 5):
                with tracer.span("ramsey.arrows"):
                    ok, _ = ramsey.arrows(boolean_lattice(d), pattern, pattern)
                if ok:
                    number = d
                    break
        require(number == expected, "ramsey number %s, expected %d" % (number, expected))


WORKLOADS = {w.name: w for w in (CstarCatalog, CstarSymmetric, Sweep, RamseySat)}

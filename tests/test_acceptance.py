"""Acceptance suite: one test per shipped criterion, in checklist order.

Each test states its tolerance inline and asserts its own wall-clock budget,
so a verbose run reads as one pass/fail line per criterion.
"""

import itertools
import math
import os
import random
import time

import numpy as np
import pytest

import grid_oracle
from randposet.correspondence import (
    CopyMap,
    Partition,
    ShadowMap,
    copy_of_partition,
    count_copies,
    partition_of_copy,
    shadow_partition,
    starred_count,
)
from randposet.posets import (
    antichain_count,
    antichains,
    binary_tree_2,
    blowup,
    boolean_lattice,
    chain,
    copy_blocks,
    disjoint_union,
    double_diamond,
    fish,
    induced_subposet,
    layered,
    vee,
    wedge,
    wedge_prime,
    y_poset,
    y_prime,
)
from randposet.ramsey import (
    CapacityError,
    arrows,
    assignment_to_colouring,
    encode_avoidance,
    enumerate_pattern_copies,
    exponent_bounds,
    solve_cnf,
    verify_colouring,
)
from randposet.simulate import sample_pnp, sweep
from randposet.threshold import (
    ExponentTable,
    balanced_solve,
    c_star,
    classify,
    star_threshold,
    wide_diamond_threshold,
)


def _check_budget(t0, seconds, label):
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, f"{label} took {elapsed:.1f}s, budget {seconds}s"


def _random_weak_copy(rng, poset, n):
    images = [rng.randrange(1 << n) for _ in range(poset.n)]
    for _ in range(poset.n):
        for i in range(poset.n):
            for j in range(poset.n):
                if poset.lt(i, j):
                    images[j] |= images[i]
    return CopyMap(poset, n, images)


def _roundtrips(family, n, assign):
    parts = [0] * len(family)
    for ground, part in enumerate(assign):
        parts[part] |= 1 << ground
    part = Partition(family, n, parts)
    return partition_of_copy(family, copy_of_partition(family, part)) == part


def test_criterion_01():
    """Antichain counts: chains, small grids, layered blowups, the 3-cube."""
    t0 = time.monotonic()
    for t in range(1, 11):
        assert antichain_count(chain(t)) == t + 1
    assert antichain_count(boolean_lattice(2)) == 6
    for layers in range(1, 5):
        for t in range(1, 5):
            assert antichain_count(blowup(layers, t)) == layers * 2**t - (layers - 1)
    assert antichain_count(boolean_lattice(3)) == 20
    _check_budget(t0, 1.0, "criterion 1")


def test_criterion_02():
    """Partition/copy dictionary: inverse pair, counts, shadow commutation."""
    t0 = time.monotonic()
    patterns = [chain(2), vee(), wedge(), boolean_lattice(2)]
    families = [antichains(p) for p in patterns]
    rng = random.Random(20240815)

    for poset, family in zip(patterns, families):
        m = len(family)
        for n in range(1, 9):
            # (a) composing the two directions is the identity on partitions
            if m**n <= 10**6:
                for assign in itertools.product(range(m), repeat=n):
                    assert _roundtrips(family, n, assign)
            else:
                for _ in range(10**5):
                    assign = [rng.randrange(m) for _ in range(n)]
                    assert _roundtrips(family, n, assign)
            # (b) injective counts match the copy search and sit in their bracket
            counted = count_copies(poset, n, mode="injective")
            searched = sum(len(b) for b in copy_blocks(np.arange(1 << n), poset))
            assert counted == searched
            assert starred_count(m, n) <= counted <= m**n

    # (c) taking a shadow commutes with restricting the copy
    for k in range(500):
        poset = patterns[k % len(patterns)]
        family = families[k % len(patterns)]
        n = rng.randrange(2, 9)
        copy = _random_weak_copy(rng, poset, n)
        q_mask = rng.randrange(1, 1 << poset.n)
        sub = induced_subposet(poset, q_mask)
        lhs = shadow_partition(family, q_mask, partition_of_copy(family, copy))
        rhs = partition_of_copy(antichains(sub), copy.restrict(q_mask))
        assert lhs == rhs
    _check_budget(t0, 60.0, "criterion 2")


def test_criterion_03():
    """Critical exponents match the reference values to 1e-4."""
    t0 = time.monotonic()
    pins = [
        (chain(2), 0.549306),
        (chain(3), 0.462098),
        (chain(4), 0.402359),
        (layered([2, 2]), 0.48647753),
        (layered([2, 1, 2]), 0.41588830),
        (boolean_lattice(2), 0.44769955),
        (double_diamond(), 0.38166411),
        (layered([1, 2, 1, 2, 1]), 0.32890374),
    ]
    for poset, want in pins:
        rep = c_star(poset)
        assert rep.converged
        assert abs(rep.value - want) <= 1e-4, poset

    x_star, c_value = star_threshold()
    assert abs(c_value - 0.5357390) <= 1e-6

    # Rows catalogued only as brackets: our certified bracket must contain
    # the reference midpoint or overlap the reference interval.
    brackets = [
        (y_poset(), 0.44769950088, 0.44793987),
        (y_prime(), 0.44769951418, 0.44793987),
        (binary_tree_2(), 0.4474689916, 0.44793987),
        (wedge_prime(), 0.455914351, 0.46051702),
        (layered([1, 2, 2]), 0.415507009, 0.4158883),
        (layered([2, 3, 2]), 0.376783, 0.3770081),
        (layered([1, 1, 2, 1]), 0.3891411, 0.38918203),
    ]
    for poset, ref_lo, ref_hi in brackets:
        rep = c_star(poset)
        assert rep.converged
        mid = 0.5 * (ref_lo + ref_hi)
        contains_mid = rep.lower_bound <= mid <= rep.upper_bound
        overlaps = rep.lower_bound <= ref_hi and ref_lo <= rep.upper_bound
        assert contains_mid or overlaps, poset

    # The 3-cube row is reported, not asserted: the deviation from the
    # reference value 0.36356411 is a recorded open question.
    rep = c_star(boolean_lattice(3))
    assert rep.converged
    assert rep.lower_bound <= rep.value <= rep.upper_bound
    print(
        "boolean:3 computed %.10f, reference 0.36356411, deviation %.2e (known open)"
        % (rep.value, abs(rep.value - 0.36356411))
    )
    _check_budget(t0, 300.0, "criterion 3")


def test_criterion_03_wide_diamond_printed_constant():
    """Wide-diamond root finder against the printed reference constant.

    The reference is the C(1,2,1) row of the results table (``_TABLE1`` in
    ``randposet.cli``), printed as 0.447699551.  The defining equation
    2*(1 - 3*x)*log(2) = H2(2*x) has exactly one root on (0, 1/3), at
    x = 0.1770530387, and that root gives (1 - 2x) log 2 = 0.4476995514.

    An earlier pin used the constant 0.389429.  It cannot come from this
    equation: the x it would need, 0.2190864, leaves a residual of -0.21.
    It matches no catalogued poset either: the nearest rows, C(1,1,2,1)
    and Y'', are brackets whose upper end is 0.38918203.  Where it came
    from is unknown.
    """
    x_star, c_value = wide_diamond_threshold()
    assert abs(c_value - 0.447699551) <= 1e-6


def test_criterion_04():
    """Classification: uniform rows, known-open rows, balanced certificates."""
    t0 = time.monotonic()
    for poset in (chain(2), chain(3), chain(4), layered([2, 2]), layered([2, 1, 2])):
        assert classify(poset).label == "UniformlyBalanced", poset

    # Both known-open rows fail the uniformly-balanced definition check.
    for poset in (layered([1, 2, 1, 2, 1]), boolean_lattice(3)):
        assert classify(poset).label != "UniformlyBalanced", poset

    for poset in (boolean_lattice(2), double_diamond()):
        got = classify(poset)
        assert got.label == "Balanced", poset
        rep = c_star(poset)
        sol = balanced_solve(poset)
        gap = np.max(np.abs(np.asarray(rep.certificate) - sol.weighting))
        assert gap <= 1e-4, poset
    _check_budget(t0, 300.0, "criterion 4")


def test_criterion_05():
    """Disjoint unions take the component minimum."""
    t0 = time.monotonic()
    union = c_star(disjoint_union(chain(3), chain(2)))
    alone = c_star(chain(3))
    assert abs(union.value - alone.value) <= 1e-6
    _check_budget(t0, 10.0, "criterion 5")


def test_criterion_06():
    """Arrow facts over small hosts, with witness colourings re-verified."""
    t0 = time.monotonic()
    facts = []
    for s in (2, 3):
        for t in (2, 3):
            facts.append((chain(s + t - 1), chain(s), chain(t), True))
            facts.append((chain(s + t - 2), chain(s), chain(t), False))
    facts += [
        (binary_tree_2(), vee(), vee(), True),
        (double_diamond(), boolean_lattice(2), chain(2), True),
        (layered([2, 3, 2]), wedge(), vee(), True),
    ]
    for host, first, second, want in facts:
        got, witness = arrows(host, first, second)
        assert got is want, (host, first, second)
        if not got:
            ok, offending = verify_colouring(host, witness, first, second)
            assert ok and offending is None

    got, witness = arrows(layered([2, 1, 2]), [vee(), wedge()], [vee(), wedge()])
    assert got is True and witness is None
    _check_budget(t0, 120.0, "criterion 6")


def test_criterion_07():
    """Ramsey exponent bounds: two exact pairs and one catalogued upper bound."""
    t0 = time.monotonic()
    chains = exponent_bounds(chain(2), chain(2))
    assert chains.exact is not None
    assert abs(chains.exact - 0.462098) <= 1e-4

    vees = exponent_bounds(vee(), vee())
    tree = c_star(binary_tree_2())
    assert vees.exact is not None
    assert abs(vees.exact - tree.value) <= 1e-12

    squares = exponent_bounds(boolean_lattice(2), boolean_lattice(2))
    assert abs(squares.upper - 0.32890374) <= 1e-4
    _check_budget(t0, 600.0, "criterion 7")


def test_criterion_08():
    """Avoidance encodings for the 3-cube inside small cubes are satisfiable."""
    t0 = time.monotonic()
    pattern = boolean_lattice(3)
    for d in (3, 4):
        host = boolean_lattice(d)
        copies = enumerate_pattern_copies(host, pattern, mode="all-weak")
        # The copy search's maps are distinct and as many as the partition
        # count; their image sets are the enumerated copies.
        rows = np.concatenate(list(copy_blocks(np.arange(1 << d), pattern)))
        assert len(np.unique(rows, axis=0)) == len(rows)
        assert len(rows) == count_copies(pattern, d, "injective")
        for i, j in itertools.permutations(range(pattern.n), 2):
            assert np.all(rows[:, i] != rows[:, j])
            if pattern.lt(i, j):
                assert np.all(rows[:, i] & ~rows[:, j] == 0)
        assert {tuple(row) for row in np.sort(rows, axis=1).tolist()} == set(copies)
        cnf = encode_avoidance(host, pattern, mode="all-weak")
        assert cnf.num_vars == host.n
        assert len(cnf.clauses) == 2 * len(copies)
        result = solve_cnf(cnf)
        assert result.status == "sat"
        colouring = assignment_to_colouring(result.assignment, host.n)
        ok, offending = verify_colouring(host, colouring, pattern, pattern)
        assert ok and offending is None
    _check_budget(t0, 300.0, "criterion 8")


def test_criterion_08_dimension_six_unsat():
    """The 6-cube arrows the layered poset C(2,1,2) with itself."""
    t0 = time.monotonic()
    cnf = encode_avoidance(boolean_lattice(6), layered([2, 1, 2]), mode="all-weak")
    assert solve_cnf(cnf).status == "unsat"
    _check_budget(t0, 30.0, "criterion 8 unsat")


@pytest.mark.extended
@pytest.mark.skipif(
    os.environ.get("RANDPOSET_EXTENDED") != "1",
    reason="set RANDPOSET_EXTENDED=1 to run the 6-cube SAT case",
)
def test_criterion_08_extended_dimension_six():
    """The 6-cube still admits a colouring avoiding monochromatic 3-cubes."""
    pattern = boolean_lattice(3)
    host = boolean_lattice(6)
    try:
        cnf = encode_avoidance(host, pattern, mode="all-weak")
    except (CapacityError, MemoryError) as exc:
        pytest.skip(f"encoding exceeded desk-scale limits: {exc}")
    result = solve_cnf(cnf, time_budget=600.0)
    if result.status == "unknown":
        pytest.skip("solver hit its time budget")
    assert result.status == "sat"
    colouring = assignment_to_colouring(result.assignment, host.n)
    ok, offending = verify_colouring(host, colouring, pattern, pattern)
    assert ok and offending is None


def test_criterion_09():
    """Sampled appearance probabilities flip across the threshold at n=40.

    Each case is (pattern, lower, upper, trials), with c* in [lower, upper];
    the fish's c* is known only to its catalogued bracket.
    """
    t0 = time.monotonic()
    cases = [
        (chain(2), 0.5493061443, 0.5493061443, 30),
        (vee(), 0.5357388657, 0.5357388657, 30),
        (boolean_lattice(2), 0.4476995514, 0.4476995514, 10),
        (fish(), 0.43238626, 0.43984289, 10),
    ]
    for pattern, lower, upper, trials in cases:
        rep = sweep(
            pattern,
            40,
            [lower - 0.1, upper + 0.1],
            trials=trials,
            seed=20240815,
        )
        below, above = rep.rows
        assert below["c"] < above["c"]
        assert below["p_hat"] >= 0.9, pattern
        assert above["p_hat"] <= 0.1, pattern
    _check_budget(t0, 900.0, "criterion 9")


def test_criterion_10():
    """Property suite: concavity, shadow simplexes, certificates, grid oracle,
    sampler inclusion frequencies."""
    t0 = time.monotonic()
    rng = random.Random(20240815)

    # Concavity of the optimized objective on random mixtures.
    for poset in (boolean_lattice(2), vee(), double_diamond()):
        table = ExponentTable.build(poset)
        m = len(antichains(poset))
        for _ in range(40):
            raw_a = np.array([rng.random() for _ in range(m)])
            raw_b = np.array([rng.random() for _ in range(m)])
            a, b = raw_a / raw_a.sum(), raw_b / raw_b.sum()
            lam = rng.random()
            mixed = table.objective(lam * a + (1 - lam) * b)
            assert mixed >= lam * table.objective(a) + (1 - lam) * table.objective(b) - 1e-9

    # Shadows map the simplex into the simplex.
    for poset in (boolean_lattice(2), double_diamond()):
        family = antichains(poset)
        m = len(family)
        for q_mask in range(1, 1 << poset.n):
            shadow = ShadowMap(family, q_mask)
            raw = np.array([rng.random() for _ in range(m)])
            pushed = shadow.push_weighting(raw / raw.sum())
            assert pushed.min() >= -1e-15
            assert abs(pushed.sum() - 1.0) <= 1e-12

    # Optimizer certificates are genuine lower-bound witnesses.
    for poset in (vee(), boolean_lattice(2), double_diamond(), layered([2, 3, 2])):
        rep = c_star(poset)
        cert = np.asarray(rep.certificate)
        assert cert.min() >= 0 and abs(cert.sum() - 1.0) <= 1e-12
        assert rep.lower_bound <= rep.value <= rep.upper_bound
        table = ExponentTable.build(poset)
        assert table.objective(cert) >= rep.lower_bound - 1e-12

    # Independent grid oracle agrees for patterns with at most 3 elements.
    for poset in (chain(1), chain(2), chain(3), layered([2]), vee(), wedge()):
        grid = grid_oracle.grid_maximin(poset, denom=400)
        rep = c_star(poset)
        assert grid <= rep.value + 1e-9, poset
        assert rep.value - grid <= 1e-3, poset

    # Sampler inclusion frequency of a fixed word over 1e5 independent runs.
    n, c_value, runs, probe = 12, 0.3, 100000, 37
    hits = 0
    for k in range(runs):
        sample = sample_pnp(n, c_value, seed=10_000_000 + k)
        words = sample.words
        pos = int(np.searchsorted(words, probe))
        hits += pos < len(words) and int(words[pos]) == probe
    want = math.exp(-c_value * n)
    sigma = math.sqrt(want * (1.0 - want) / runs)
    assert abs(hits / runs - want) <= 4 * sigma
    _check_budget(t0, 900.0, "criterion 10")

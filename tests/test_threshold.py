"""Unit tests for the max-min exponent optimizer and its closed forms."""

import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from randposet.posets import (
    CapacityError,
    Poset,
    PosetError,
    antichains,
    boolean_lattice,
    catalog,
    chain,
    diamond,
    disjoint_union,
    double_diamond,
    fish,
    induced_subposet,
    layered,
    reverse,
    vee,
    wedge,
)
from randposet import threshold
from randposet.cli import _TABLE1
from randposet.correspondence import shadow_indices
from randposet.threshold import (
    ExponentTable,
    antichain_symmetry_group,
    balanced_solve,
    binary_entropy,
    blowup_bounds,
    bounded_upper_bound,
    c_star,
    chain_threshold,
    classify,
    entropy,
    lift_bound,
    star_threshold,
    trivial_upper_bound,
    two_point_weighting,
    universality_band,
    wide_diamond_threshold,
)


def random_simplex(rng, m):
    a = np.array([rng.random() for _ in range(m)])
    return a / a.sum()


def random_poset(rng, n, density=0.35):
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                relations.append((i, j))
    return Poset(n, relations)


# -- entropy helpers -----------------------------------------------------------


def test_entropy_basics():
    assert entropy([0.5, 0.5]) == pytest.approx(math.log(2))
    assert entropy([1.0, 0.0]) == pytest.approx(0.0)
    assert binary_entropy(0.5) == pytest.approx(math.log(2))
    assert binary_entropy(0.0) == pytest.approx(0.0)


def test_entropy_treats_roundoff_negatives_as_zero():
    # The guard admits coordinates down to -1e-12; they count as 0, and an
    # entropy of 0 is +0.0, not -0.0.
    assert math.copysign(1.0, entropy([-1e-13, 1.0])) == 1.0 and entropy([-1e-13, 1.0]) == 0.0
    assert entropy([-1e-13, 0.5, 0.5]) == entropy([0.5, 0.5])
    for x in (0.0, 1.0):
        assert math.copysign(1.0, binary_entropy(x)) == 1.0 and binary_entropy(x) == 0.0
    with pytest.raises(PosetError):
        entropy([-1e-11, 1.0])


# -- closed forms ---------------------------------------------------------------


def test_star_threshold_frozen_values():
    x, c = star_threshold()
    assert x == pytest.approx(0.22709219521934826, abs=1e-12)
    assert c == pytest.approx(0.5357388657164854, abs=1e-12)
    assert abs((1 - x) * math.log(2) - binary_entropy(x)) < 1e-12
    assert c == pytest.approx(binary_entropy(x), abs=1e-15)


def test_wide_diamond_threshold_frozen_values():
    x, c = wide_diamond_threshold()
    assert x == pytest.approx(0.17705303871759684, abs=1e-12)
    assert c == pytest.approx(0.44769955136659917, abs=1e-12)
    assert abs(2 * (1 - 3 * x) * math.log(2) - binary_entropy(2 * x)) < 1e-12


def test_chain_threshold_formula():
    assert chain_threshold(1) == pytest.approx(math.log(2))
    assert chain_threshold(2) == pytest.approx(math.log(3) / 2)
    with pytest.raises(PosetError):
        chain_threshold(0)


def test_blowup_bounds_formula():
    lo, hi = blowup_bounds(1, 3)
    assert lo == pytest.approx(math.log(2)) and hi == pytest.approx(math.log(2))
    lo, hi = blowup_bounds(3, 2)
    assert lo == pytest.approx(math.log(2) / 3)
    assert hi == pytest.approx(lo + math.log(3 - 2 * 0.25) / 6)
    assert lo <= hi


def test_trivial_upper_bound_square():
    assert trivial_upper_bound(boolean_lattice(2)) == pytest.approx(math.log(6) / 4)


def test_universality_band_shape():
    lo, hi = universality_band(8)
    assert lo == pytest.approx(math.log(2) / 3)
    t = math.ceil(math.log(8))
    assert hi == pytest.approx(lo + math.log(3 - 2 * 2.0 ** (-t)) / (3 * t))
    lo2, hi2 = universality_band(10 ** 6)
    assert hi2 - lo2 < hi - lo
    with pytest.raises(PosetError):
        universality_band(1)


def test_lift_bound_tight_cases():
    star = star_threshold()[1]
    assert lift_bound(math.log(2), kind="bottom") == pytest.approx(star, abs=1e-12)
    wide = wide_diamond_threshold()[1]
    assert lift_bound(math.log(2), kind="bottom-top") == pytest.approx(wide, abs=1e-12)
    with pytest.raises(PosetError):
        lift_bound(math.log(2), kind="sideways")
    with pytest.raises(PosetError):
        lift_bound(2.0)


def test_lift_bound_accepts_posets():
    direct = lift_bound(c_star(chain(2)).value)
    via_poset = lift_bound(chain(2))
    assert direct == pytest.approx(via_poset, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=4))
def test_lift_bound_is_a_lower_bound(seed, n):
    rng = random.Random(seed)
    base = random_poset(rng, n)
    lifted = Poset(n + 1, [(i, j) for i in range(n) for j in range(n) if base.lt(i, j)]
                   + [(n, i) for i in range(n)])
    bound = lift_bound(c_star(base).value, kind="bottom")
    assert bound <= c_star(lifted).value + 1e-6


def test_root_search_without_a_sign_change_is_an_error():
    with pytest.raises(PosetError, match="not bracketed"):
        threshold._bisect(lambda x: x * x + 1.0, 0.0, 1.0)


def test_root_search_that_meets_a_nan_is_an_error():
    with pytest.raises(PosetError, match="met a NaN"):
        threshold._bisect(lambda x: math.nan if x > 0.25 else x - 0.5, 0.0, 1.0)


def _balance_difference(p):
    family = antichains(p)
    a, n = len(family), p.n

    def diff(x):
        w = 1.0 - 2.0 * x
        chain_side = (-2.0 * (x * math.log(x)) - w * math.log(w)) / 2.0
        return chain_side - (-2.0 * (x * math.log(x)) - w * math.log(w / (a - 2.0))) / n

    return diff, balanced_solve(p, family).x_star


def _root_cases():
    log2 = math.log(2.0)
    star = lambda x: (1.0 - x) * log2 - binary_entropy(x)
    yield pytest.param(star, star_threshold()[0], id="star")
    wide = lambda x: 2.0 * (1.0 - 2.0 * x) * log2 - 2.0 * x * log2 - binary_entropy(2.0 * x)
    yield pytest.param(wide, wide_diamond_threshold()[0], id="wide diamond")
    for spec in ("diamond", "dd", "boolean:3", "layered:1,2,1,2,1"):
        yield pytest.param(*_balance_difference(catalog(spec)), id=spec)


@pytest.mark.parametrize("f, root", list(_root_cases()))
def test_root_search_lands_on_a_sign_change(f, root):
    # Bisection stops at two adjacent floats around the root.
    fx = f(root)
    signs = {math.copysign(1.0, f(math.nextafter(root, side))) for side in (-math.inf, math.inf)}
    assert fx == 0.0 or -math.copysign(1.0, fx) in signs


# -- the optimizer --------------------------------------------------------------


def test_cstar_chains_match_closed_form():
    for t in (1, 2, 3, 4):
        rep = c_star(chain(t))
        assert rep.value == pytest.approx(chain_threshold(t), abs=1e-7)
        assert rep.converged


def test_cstar_antichain_pair():
    assert c_star(layered([2])).value == pytest.approx(math.log(2), abs=1e-9)


def test_cstar_report_is_certified():
    rep = c_star(boolean_lattice(2))
    assert rep.lower_bound <= rep.value <= rep.upper_bound
    assert rep.upper_bound - rep.lower_bound <= 2e-6
    cert = np.asarray(rep.certificate)
    assert cert.min() >= 0
    assert cert.sum() == pytest.approx(1.0)
    table = ExponentTable.build(boolean_lattice(2))
    assert table.objective(cert) == pytest.approx(rep.lower_bound, abs=1e-12)
    active = rep.active_subposets
    assert len(active) == len(set(active))
    key = lambda q: tuple(i for i in range(16) if q >> i & 1)
    assert active == sorted(active, key=key)
    vals = table.values(cert)
    for q in active:
        assert vals[q - 1] <= vals.min() + 1e-3
    keys = set(rep.to_json_dict())
    assert keys == {"poset", "m", "value", "lower", "upper", "certificate",
                    "active", "class", "iterations", "tolerance"}


def test_cstar_star_matches_root_finder():
    assert c_star(vee()).value == pytest.approx(star_threshold()[1], abs=1e-7)
    assert c_star(wedge()).value == pytest.approx(star_threshold()[1], abs=1e-7)


def test_cstar_diamond_matches_root_finder():
    assert c_star(boolean_lattice(2)).value == pytest.approx(
        wide_diamond_threshold()[1], abs=1e-7
    )


def test_cstar_disconnected_takes_component_minimum():
    rep = c_star(disjoint_union(chain(3), chain(2)))
    assert rep.value == pytest.approx(c_star(chain(3)).value, abs=1e-9)
    rep = c_star(disjoint_union(vee(), chain(1)))
    assert rep.value == pytest.approx(c_star(vee()).value, abs=1e-9)


def test_cstar_below_generic_upper_bounds():
    for p in (boolean_lattice(2), double_diamond(), vee(), chain(3)):
        rep = c_star(p)
        assert rep.value <= trivial_upper_bound(p) + 1e-9
        if p.is_bounded() and p.n >= 2:
            assert rep.lower_bound <= bounded_upper_bound(p) + 1e-12


def _random_bounded_poset(rng):
    n = rng.randint(4, 8)
    relations = [(0, j) for j in range(1, n)] + [(i, n - 1) for i in range(1, n - 1)]
    relations += [(i, j) for i in range(1, n - 1) for j in range(i + 1, n - 1) if rng.random() < 0.3]
    return Poset(n, relations)


def test_bounded_upper_bound_is_above_the_certified_lower_bound():
    rng = random.Random(7)
    posets = [_random_bounded_poset(rng) for _ in range(40)]
    posets += [p for p in (catalog(row[1]) for row in _TABLE1) if p.is_bounded() and p.n >= 2]
    for p in posets:
        assert bounded_upper_bound(p) >= c_star(p, tol=1e-9).lower_bound


def test_cstar_blowup_three_layers_of_four():
    # 27,648 automorphisms and reverse automorphisms; c_star lists none.
    rep = c_star(catalog("blowup:3,4"))
    assert rep.converged
    assert rep.value == pytest.approx(blowup_bounds(3, 4)[1], abs=1e-9)


def test_cstar_above_the_size_cap_is_a_capacity_error():
    with pytest.raises(CapacityError, match="above the subposet-scan cap"):
        c_star(chain(15))


def test_cstar_default_tolerance_is_one_per_million_at_every_size():
    rep = c_star(catalog("y''"))
    assert rep.tolerance == 1e-6
    assert rep.converged
    assert rep.upper_bound - rep.lower_bound <= 1e-6


# Covers of the benchmark's random connected poset (11, 0).
RANDOM_11 = Poset(
    11,
    [(0, 1), (0, 3), (1, 6), (1, 7), (1, 9), (1, 10), (2, 3), (2, 10), (3, 6), (3, 8),
     (3, 9), (4, 5), (4, 10), (5, 8), (7, 8)],
)


@pytest.mark.parametrize("poset", [catalog("y''"), fish(), RANDOM_11], ids=["y''", "fish", "random11"])
def test_dual_upper_bound_is_not_below_the_certificate(poset):
    # Taken from the LP's own value, this bound fell 5e-13 to 1.3e-11 below
    # the objective at the certificate on these posets.
    rep = c_star(poset)
    table = ExponentTable.build(poset)
    cert = np.array(rep.certificate)
    assert threshold._dual_upper_bound(table, cert) >= table.objective(cert)
    assert rep.lower_bound <= rep.upper_bound


def test_lp_vertex_tightens_the_bracket():
    # The simplex's vertex solution takes the bound to roundoff; an
    # interior-point LP left these widths at 5.5e-11 and 1.3e-12.
    for poset, width in ((catalog("y''"), 2e-11), (fish(), 1e-12)):
        for tol in (1e-6, 1e-9):
            rep = c_star(poset, tol=tol)
            assert 0 <= rep.upper_bound - rep.lower_bound < width


def _random_game(rng, kind):
    m, k = int(rng.integers(1, 40)), int(rng.integers(1, 25))
    if kind == "normal":
        return rng.normal(size=(m, k))
    if kind == "ties":
        return rng.integers(-2, 3, size=(m, k)).astype(float)
    if kind == "duplicate columns":
        return rng.normal(size=(m, k))[:, rng.integers(0, k, size=k)]
    if kind == "one column":
        return rng.normal(size=(m, 1))
    if kind == "one row":
        return rng.normal(size=(1, k))
    # Near-equal payoffs, like the exponent gradients behind the bound.
    return 0.4 + 1e-6 * rng.normal(size=(m, k))


@pytest.mark.parametrize(
    "kind", ["normal", "ties", "duplicate columns", "one column", "one row", "near-equal"]
)
def test_game_lp_closes_the_duality_gap(kind):
    # Each strategy bounds the game's value from its side, so a gap near 0
    # certifies both without a reference solver.
    rng = np.random.default_rng(17)
    for _ in range(150):
        M = _random_game(rng, kind)
        lam, alpha, pivots = threshold._game_lp(M)
        assert lam is not None and pivots <= 20 * sum(M.shape)
        assert lam.min() >= 0 and alpha.min() >= 0
        assert lam.sum() == pytest.approx(1.0) and alpha.sum() == pytest.approx(1.0)
        gap = (M @ lam).max() - (alpha @ M).min()
        assert abs(gap) <= 1e-12 * (1.0 + np.abs(M).max())


def test_tight_bracket_does_not_cross_by_roundoff():
    # The uniform weighting is optimal, c* = log(13)/8, and the float sum of
    # the objective there lands one ulp above the float log(13)/8. So both
    # ends need a roundoff allowance: an upper bound rounded outward by one
    # ulp only fell below it, and a lower bound equal to the sum sat above it.
    p = Poset(8, [(0, 1), (1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (6, 7)])
    rep = c_star(p)
    assert rep.classification == "UniformlyBalanced" and rep.iterations == 0
    assert rep.lower_bound <= rep.upper_bound <= rep.lower_bound + 1e-12
    assert rep.lower_bound <= math.log(13) / 8 <= rep.upper_bound
    assert rep.converged and not rep.notes


def test_crossed_bracket_is_reported_not_clamped(monkeypatch):
    dual = threshold._dual_upper_bound
    monkeypatch.setattr(threshold, "_dual_upper_bound", lambda *a: dual(*a) - 1e-6)
    rep = c_star(vee())
    assert rep.upper_bound < rep.lower_bound
    assert rep.converged is False
    assert any(note.startswith("bracket crossed") for note in rep.notes)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10 ** 6), st.data())
def test_restricted_table_agrees_bit_for_bit(n, seed, data):
    rng = random.Random(seed)
    table = ExponentTable.build(random_poset(rng, n, density=rng.random()))
    m = len(table.family)
    alpha = np.random.default_rng(seed).dirichlet(np.full(m, rng.choice([0.1, 1.0, 5.0])))
    rows = data.draw(
        st.lists(st.integers(0, len(table.q_masks) - 1), min_size=1, max_size=40, unique=True)
    )
    sub = table.restrict(rows)
    assert sub.q_masks == [table.q_masks[r] for r in rows]
    beta, sub_beta = table.masses(alpha), sub.masses(alpha)
    assert np.array_equal(sub.values(alpha), table.values(alpha)[rows])
    assert np.array_equal(sub.exponents(sub_beta), table.exponents(beta)[rows])
    assert np.array_equal(sub.gradients(sub_beta), table.gradients(beta, rows))
    offsets, sub_offsets = table.seg_offsets, sub.seg_offsets
    for local, r in enumerate(rows):
        assert np.array_equal(
            sub_beta[sub_offsets[local] : sub_offsets[local + 1]], beta[offsets[r] : offsets[r + 1]]
        )
        assert np.array_equal(sub.index[local] - sub_offsets[local], table.index[r] - offsets[r])


@pytest.mark.parametrize("block_cells", [7, 300, threshold._MASS_BLOCK_CELLS])
def test_masses_carry_nothing_over_between_weightings(monkeypatch, block_cells):
    # Each table fills one weight buffer per call: a restricted table all its
    # rows at once, the full table a block of rows at a time when it has
    # more cells than a block. Called with two weightings in turn, a table
    # gives, bit for bit, what a freshly built one gives for the second, and
    # what one bincount over alpha repeated once per row gives.
    monkeypatch.setattr(threshold, "_MASS_BLOCK_CELLS", block_cells)
    rng = random.Random(block_cells)
    for n in (3, 6, 9):
        poset = random_poset(rng, n, density=rng.random())
        m = len(antichains(poset))
        gen = np.random.default_rng(n)
        first, second = gen.dirichlet(np.ones(m)), gen.dirichlet(np.full(m, 0.3))
        second[gen.random(m) < 0.2] = 0.0
        rows = rng.sample(range((1 << n) - 1), min(40, (1 << n) - 1))
        table = ExponentTable.build(poset)
        for used, fresh in (
            (table, ExponentTable.build(poset)),
            (table.restrict(rows), ExponentTable.build(poset).restrict(rows)),
        ):
            used.masses(first)
            got = used.masses(second)
            tiled = np.tile(second, len(used.q_masks))
            want = np.bincount(used.index.ravel(), weights=tiled, minlength=used.total_len)
            assert got.tobytes() == want.tobytes() == fresh.masses(second).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10 ** 6))
def test_gradients_match_a_per_row_bincount(n, seed):
    # Each row's supergradient, (-log beta_Q(shadow) - 1) / |Q|, against the
    # masses of that row alone, from shadow_indices and not from the table.
    rng = random.Random(seed)
    poset = random_poset(rng, n, density=rng.random())
    family = antichains(poset)
    m = len(family)
    alpha = np.random.default_rng(seed).dirichlet(np.full(m, rng.choice([0.1, 1.0, 5.0])))
    alpha[np.random.default_rng(seed + 1).random(m) < 0.2] = 0.0
    table = ExponentTable.build(poset, family)
    grads = table.gradients(table.masses(alpha))
    sigma, _ = shadow_indices(family, table.q_masks)
    for qi, row in enumerate(sigma):
        beta = np.bincount(row, weights=alpha)
        want = (-np.log(np.maximum(beta, 1e-300)[row]) - 1.0) / bin(table.q_masks[qi]).count("1")
        assert np.array_equal(grads[qi], want)


def test_ascent_on_a_working_set_keeps_the_iterates():
    # stats counts the full-table evaluations c_star makes itself. Without
    # the working set, the ascent alone would make one per iteration.
    rep = c_star(catalog("y''"))
    assert rep.iterations == 200
    assert rep.value == pytest.approx(0.3891404496365489, abs=1e-12)
    assert rep.stats["full_evaluations"] <= 60
    assert len(rep.stats["polls"]) == 1
    assert all(rec["working_set"] < 1023 for rec in rep.stats["polls"])
    assert rep.stats["polls"][-1]["bracket_width"] <= 1e-6


def test_polish_sensitive_poset_keeps_its_iteration_count():
    # _kkt_solve lands on different Newton points from inputs that differ in
    # the last bits; on this poset that once cost 200 more iterations.
    p = Poset(7, [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (2, 3), (2, 4), (3, 4), (3, 6), (5, 6)])
    rep = c_star(p)
    assert rep.converged and rep.iterations <= 200
    assert rep.value == pytest.approx(0.3891411377303702, abs=1e-12)


@pytest.mark.parametrize(
    "poset,iterations,value",
    [
        (
            Poset(12, [(0, 1), (0, 2), (1, 3), (1, 5), (2, 3), (3, 6), (4, 5), (4, 6), (4, 7),
                       (6, 8), (6, 9), (6, 11), (8, 10)]),
            1200,
            0.3099117113,
        ),
        (
            Poset(10, [(0, 2), (0, 6), (1, 4), (1, 8), (2, 4), (2, 5), (2, 7), (2, 8), (3, 7), (6, 8)]),
            200,
            0.4351105556,
        ),
        (
            induced_subposet(boolean_lattice(4), [e for e in range(16) if e not in (1, 2, 3, 5, 7)]),
            200,
            0.3197792259,
        ),
    ],
    ids=["stall12", "random10", "b4-host"],
)
def test_polish_on_the_bound_active_set_converges(poset, iterations, value):
    # With the polish counting fewer subposets as active than the LP bound,
    # the first two stopped at the 6000-iteration cap unconverged and the
    # third took 1400 iterations.
    rep = c_star(poset)
    assert rep.converged and rep.iterations <= iterations
    assert rep.lower_bound <= rep.upper_bound <= rep.lower_bound + 1e-6
    assert rep.value == pytest.approx(value, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10 ** 6))
def test_cstar_is_invariant_under_order_reversal(n, seed):
    # Both brackets hold c*(P) = c*(P^op), so they meet, up to the 1e-12
    # slack table1 gives reference brackets. The values are the lower ends
    # and may differ by up to the tolerance: the dual of Poset(7, [(0,5),
    # (0,6), (1,4), (1,5), (2,3), (2,4), (4,6)]) stops at width 4.9e-9,
    # 4.9e-9 below the poset's own value.
    p = random_poset(random.Random(seed), n)
    rep, rev = c_star(p), c_star(reverse(p))
    assert rep.converged and rev.converged
    assert max(rep.lower_bound, rev.lower_bound) <= min(rep.upper_bound, rev.upper_bound) + 1e-12
    assert rep.classification == rev.classification


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6), st.data())
def test_cstar_cannot_drop_when_an_element_is_deleted(n, seed, data):
    # Every copy of P holds a copy of its induced subposet Q, so c*(Q) >= c*(P).
    p = random_poset(random.Random(seed), n)
    gone = data.draw(st.integers(0, n - 1))
    q = induced_subposet(p, [e for e in range(n) if e != gone])
    assert c_star(q).upper_bound >= c_star(p).lower_bound - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 7), st.integers(0, 10 ** 6), st.data())
def test_cstar_cannot_drop_when_a_cover_is_deleted(n, seed, data):
    # Every weak copy of P is a weak copy of P without the cover.
    p = random_poset(random.Random(seed), n)
    covers = p.cover_pairs()
    assume(covers)
    gone = data.draw(st.sampled_from(covers))
    q = Poset(n, [c for c in covers if c != gone])
    assert c_star(q).upper_bound >= c_star(p).lower_bound - 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_cstar_of_a_disjoint_union_is_the_component_minimum(n1, n2, seed):
    # c*(P + Q) = min(c*(P), c*(Q)), so the union's bracket meets the bracket
    # [min of the lower ends, min of the upper ends] of the two parts.
    rng = random.Random(seed)
    p, q = random_poset(rng, n1), random_poset(rng, n2)
    union, left, right = c_star(disjoint_union(p, q)), c_star(p), c_star(q)
    lower = min(left.lower_bound, right.lower_bound)
    upper = min(left.upper_bound, right.upper_bound)
    assert max(union.lower_bound, lower) <= min(union.upper_bound, upper) + 1e-12


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 7), st.integers(0, 10 ** 6))
def test_cstar_is_invariant_under_relabelling(n, seed):
    rng = random.Random(seed)
    p = random_poset(rng, n)
    perm = rng.sample(range(n), n)
    q = Poset(n, [(perm[i], perm[j]) for i, j in p.cover_pairs()])
    rep, rel = c_star(p), c_star(q)
    assert max(rep.lower_bound, rel.lower_bound) <= min(rep.upper_bound, rel.upper_bound) + 1e-12
    assert rep.classification == rel.classification


def test_bracket_is_certified_after_the_starts_and_each_poll(monkeypatch):
    calls = []
    for name in ("_kkt_polish", "_dual_upper_bound"):
        fn = getattr(threshold, name)
        monkeypatch.setattr(threshold, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    rep = c_star(catalog("y''"))
    polls = len(rep.stats["polls"])
    assert polls >= 1
    assert calls.count("_kkt_polish") == polls
    assert calls.count("_dual_upper_bound") == polls + 1


def test_poll_records_time_the_stages_and_name_the_polish_outcome(monkeypatch):
    rep = c_star(catalog("y''"))
    assert [rec["polish"] for rec in rep.stats["polls"]] == ["improved"]
    monkeypatch.setattr(threshold, "_kkt_polish", lambda *a: None)
    rep = c_star(catalog("y''"), max_iter=400)
    assert [rec["polish"] for rec in rep.stats["polls"]] == ["failed", "failed"]
    for rec in rep.stats["polls"]:
        assert set(rec["seconds"]) == {"ascent", "polish", "lp"}
        assert rec["seconds"]["ascent"] > 0 and min(rec["seconds"].values()) >= 0


def test_start_within_roundoff_skips_the_last_polish(monkeypatch):
    calls = []
    polish = threshold._kkt_polish
    monkeypatch.setattr(threshold, "_kkt_polish", lambda *a: calls.append(1) or polish(*a))
    rep = c_star(chain(3))
    assert rep.iterations == 0 and rep.converged
    assert calls == []
    # The uniform and the balanced start, and nothing after them.
    assert rep.stats == {"full_evaluations": 2, "polls": []}


def test_objective_concavity():
    rng = random.Random(3)
    for p in (boolean_lattice(2), vee(), double_diamond()):
        table = ExponentTable.build(p)
        m = len(antichains(p))
        for _ in range(60):
            a = random_simplex(rng, m)
            b = random_simplex(rng, m)
            lam = rng.random()
            mix = lam * a + (1 - lam) * b
            assert table.objective(mix) >= (
                lam * table.objective(a) + (1 - lam) * table.objective(b) - 1e-9
            )


def test_objective_symmetry_invariance():
    rng = random.Random(11)
    for p in (boolean_lattice(2), double_diamond(), vee()):
        fam = antichains(p)
        table = ExponentTable.build(p, fam)
        group = antichain_symmetry_group(p, fam)
        assert len(group) >= 2
        for _ in range(50):
            a = random_simplex(rng, len(fam))
            g0 = table.objective(a)
            for perm in group:
                assert abs(table.objective(a[perm]) - g0) <= 1e-12


@pytest.mark.parametrize("spec", ["layered:2,3,2", "t2", "layered:3,3,3,2", "lambda'", "fish"])
def test_certificate_is_fixed_by_the_symmetry_group(spec):
    # c_star averages nothing: its starts are fixed by the group and its
    # steps commute with it, so the certificate is fixed up to roundoff.
    p = catalog(spec)
    rep = c_star(p)
    assert rep.classification == "General" and rep.iterations >= 200
    cert = np.array(rep.certificate)
    for perm in antichain_symmetry_group(p, antichains(p)):
        assert np.abs(cert[perm] - cert).max() <= 1e-12


def test_cstar_converges_at_the_size_cap_on_a_symmetric_poset():
    # |Aut| = 7!^2 here; c_star never lists it.
    t0 = time.monotonic()
    rep = c_star(catalog("layered:7,7"))
    assert time.monotonic() - t0 < 10.0
    assert rep.converged
    assert rep.value == pytest.approx(math.log(255) / 14, abs=1e-12)


# -- balance equation ------------------------------------------------------------


def test_balanced_solve_diamond():
    sol = balanced_solve(boolean_lattice(2))
    assert sol.x_star == pytest.approx(0.1770530387, abs=1e-9)
    assert sol.c_value == pytest.approx(0.4476995514, abs=1e-9)
    w = sol.weighting
    assert w.sum() == pytest.approx(1.0)
    chain_side = entropy([sol.x_star, sol.x_star, 1 - 2 * sol.x_star]) / 2
    assert chain_side == pytest.approx(sol.c_value, abs=1e-12)


def test_balanced_solve_double_diamond():
    sol = balanced_solve(double_diamond())
    assert sol.x_star == pytest.approx(0.1329159960, abs=1e-9)
    assert sol.c_value == pytest.approx(0.3816648636, abs=1e-9)
    assert 1.0 / len(antichains(double_diamond())) <= sol.x_star <= 0.5


def test_balanced_solve_degenerate_chain():
    with pytest.raises(PosetError):
        balanced_solve(chain(2))


def test_balanced_solve_rejects_unbounded():
    with pytest.raises(PosetError):
        balanced_solve(vee())


def test_two_point_weighting_layout():
    fam = antichains(boolean_lattice(2))
    w = two_point_weighting(fam, 0.2)
    assert w[fam.position(0)] == pytest.approx(0.2)
    assert w[fam.position(1 << 0)] == pytest.approx(0.2)
    assert w.sum() == pytest.approx(1.0)
    assert np.count_nonzero(np.isclose(w, 0.15)) == 4


# -- classification ---------------------------------------------------------------


def test_classify_uniform_rows():
    for p in (chain(2), chain(3), layered([2, 2]), layered([2, 1, 2])):
        got = classify(p)
        assert got.label == "UniformlyBalanced"
        assert not got.violations
        m = len(antichains(p))
        assert got.details["uniform_value"] == pytest.approx(math.log(m) / p.n)


def test_classify_balanced_rows():
    for p, x in ((boolean_lattice(2), 0.1770530387), (double_diamond(), 0.1329159960)):
        got = classify(p)
        assert got.label == "Balanced"
        assert got.details["balanced_x"] == pytest.approx(x, abs=1e-9)


def test_classify_general_rows():
    got = classify(vee())
    assert got.label == "General"
    assert got.violations
    for mask, value, target in got.violations:
        assert value < target


def test_classify_large_boolean_lattice_is_not_uniform():
    got = classify(boolean_lattice(3))
    assert got.label == "Balanced"
    assert got.details["uniform_min"] < got.details["uniform_value"] - 1e-9
    assert got.details["balanced_value"] == pytest.approx(0.3635641159, abs=1e-9)


def test_classify_reports_a_balance_equation_without_root(monkeypatch):
    # boolean:3 is Balanced; with no root it falls back to the uniform
    # weighting's violations, in classify and in the c_star report alike.
    def no_root(poset, family=None):
        raise PosetError("no root")

    monkeypatch.setattr(threshold, "balanced_solve", no_root)
    got = classify(boolean_lattice(3))
    assert got.label == "General"
    assert got.violations
    assert got.details["balanced_error"] == "no root"
    assert "balanced_x" not in got.details
    rep = c_star(boolean_lattice(3))
    assert rep.classification == "General"
    assert "balanced two-point start available" not in rep.notes


def test_certificate_matches_balanced_weighting():
    for p in (boolean_lattice(2), double_diamond()):
        rep = c_star(p)
        sol = balanced_solve(p)
        assert np.max(np.abs(np.asarray(rep.certificate) - sol.weighting)) <= 1e-4

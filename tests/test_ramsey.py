"""Unit tests for arrow search, copy enumeration, CNF export and bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copy_oracle import brute_images
from randposet.posets import (
    CapacityError,
    Poset,
    PosetError,
    antichain_poset,
    boolean_lattice,
    catalog,
    chain,
    contains_copy,
    diamond,
    double_diamond,
    induced_subposet,
    layered,
    reverse,
    vee,
    wedge,
    wedge_prime,
    y_double_prime,
    y_poset,
    y_prime,
)
from randposet import ramsey
from randposet.ramsey import (
    _KNOWN_HOSTS,
    _orbit_conditions,
    CnfFormula,
    arrows,
    assignment_to_colouring,
    encode_avoidance,
    enumerate_pattern_copies,
    exponent_bounds,
    parse_dimacs,
    ramsey_number,
    solve_cnf,
    verify_colouring,
)
from randposet.threshold import c_star


def brute_arrows(host, first, second, induced=False):
    """Arrow decision by checking every colouring with the verifier."""
    for bits in range(1 << host.n):
        colouring = tuple(1 if bits >> i & 1 else 2 for i in range(host.n))
        ok, _ = verify_colouring(host, colouring, first, second, induced=induced)
        if ok:
            return False
    return True


def php_formula(pigeons, holes):
    """The pigeonhole CNF: unsatisfiable whenever pigeons > holes."""
    var = lambda p, h: p * holes + h + 1
    clauses = [tuple(var(p, h) for h in range(holes)) for p in range(pigeons)]
    for h in range(holes):
        for p, q in itertools.combinations(range(pigeons), 2):
            clauses.append((-var(p, h), -var(q, h)))
    return CnfFormula.from_clauses(pigeons * holes, clauses)


def brute_sat(cnf):
    """Satisfiability by trying all 2^n assignments."""
    return any(
        all(any(bits[abs(l) - 1] == (l > 0) for l in c) for c in cnf.clauses)
        for bits in itertools.product((False, True), repeat=cnf.num_vars)
    )


def literal_matrix(clauses):
    """Clauses as rows of distinct literals, padded with 0."""
    rows = [list(dict.fromkeys(c)) for c in clauses]
    width = max(map(len, rows))
    return np.array([r + [0] * (width - len(r)) for r in rows])


def propagates_to_conflict(lits, num_vars, assumed=()):
    """Whether unit propagation from the assumed literals falsifies a row.

    ``lits`` is a literal matrix; its padding 0 is a literal that is always
    false. Each round assigns the free literal of every unit row.
    """
    cells = lits % (2 * num_vars + 1)  # -l wraps to the upper half, 0 stays 0
    val = np.zeros(2 * num_vars + 1, dtype=np.int8)
    val[0] = -1
    pending = list(assumed)
    while True:
        for l in pending:
            if val[l] == -1:
                return True
            val[l], val[-l] = 1, -1
        v = val[cells]
        open_rows = ~(v == 1).any(axis=1)
        free = (v == 0).sum(axis=1)
        if (open_rows & (free == 0)).any():
            return True
        unit = open_rows & (free == 1)
        if not unit.any():
            return False
        pending = list(dict.fromkeys(lits[unit][v[unit] == 0].tolist()))


def check_refutation(cnf, learnt):
    """Reverse unit propagation: every learnt clause follows from the clauses
    before it, and all of them together propagate to the empty clause."""
    lits = literal_matrix(list(cnf.clauses) + list(learnt))
    base = len(cnf.clauses)
    for i, clause in enumerate(learnt):
        assert clause, "an empty learnt clause"
        assert propagates_to_conflict(lits[: base + i], cnf.num_vars, [-l for l in clause]), clause
    assert propagates_to_conflict(lits, cnf.num_vars)


# -- arrow search -----------------------------------------------------------------


def test_segment_does_not_arrow_two_chains():
    ok, witness = arrows(boolean_lattice(1), chain(2), chain(2))
    assert not ok
    assert verify_colouring(boolean_lattice(1), witness, chain(2), chain(2))[0]


def test_square_arrows_two_chains():
    ok, witness = arrows(boolean_lattice(2), chain(2), chain(2))
    assert ok and witness is None


def test_arrows_matches_brute_force():
    cases = [
        (boolean_lattice(2), chain(2), chain(2)),
        (boolean_lattice(2), chain(2), chain(3)),
        (boolean_lattice(2), vee(), chain(2)),
        (chain(4), chain(2), chain(3)),
        (layered([2, 2]), chain(2), chain(2)),
        (boolean_lattice(2), [vee(), wedge()], chain(2)),
    ]
    for host, first, second in cases:
        got, witness = arrows(host, first, second)
        assert got == brute_arrows(host, first, second)
        if not got:
            assert verify_colouring(host, witness, first, second)[0]


def test_arrows_with_families_of_different_sizes():
    # The first family mixes a 3-element and a 2-element pattern, so their
    # copies have different widths.
    host = boolean_lattice(3)
    got, witness = arrows(host, [vee(), chain(2)], chain(3))
    assert got == brute_arrows(host, [vee(), chain(2)], chain(3))
    if not got:
        assert verify_colouring(host, witness, [vee(), chain(2)], chain(3))[0]


@pytest.mark.parametrize(
    "host,first,second,witness",
    [
        (boolean_lattice(3), chain(3), chain(3), (1, 1, 1, 2, 1, 2, 2, 2)),
        (double_diamond(), diamond(), diamond(), (1, 1, 1, 1, 2, 2)),
        (boolean_lattice(3), [chain(3), diamond()], [vee(), wedge()], (2, 1, 1, 1, 1, 1, 1, 2)),
        (
            boolean_lattice(4),
            [chain(3), boolean_lattice(2)],
            chain(4),
            (1, 1, 1, 2, 1, 2, 2, 2, 1, 2, 2, 2, 2, 2, 2, 2),
        ),
    ],
)
def test_arrows_witnesses_are_pinned(host, first, second, witness):
    # The solver's colourings, as recorded when clauses were still tuples:
    # clause order and solver set-up decide which colouring comes out.
    assert arrows(host, first, second) == (False, witness)


def test_arrows_symmetry_under_side_swap():
    for host in (boolean_lattice(2), chain(4)):
        a, _ = arrows(host, chain(2), chain(3))
        b, _ = arrows(host, chain(3), chain(2))
        assert a == b


def test_arrows_induced_flag():
    host = chain(3)
    got, witness = arrows(host, antichain_poset(2), antichain_poset(2), induced=True)
    assert not got
    assert got == brute_arrows(host, antichain_poset(2), antichain_poset(2), induced=True)


def test_arrows_host_size_guard():
    with pytest.raises(CapacityError):
        arrows(antichain_poset(25), chain(2), chain(2))


def test_verify_colouring_reports_offending_side():
    host = boolean_lattice(2)
    all_one = tuple(1 for _ in range(4))
    ok, hit = verify_colouring(host, all_one, chain(2), chain(2))
    assert not ok
    side, elements = hit
    assert side == 1
    assert len(elements) == 2
    with pytest.raises(PosetError):
        verify_colouring(host, (1, 2, 3, 1), chain(2), chain(2))


def test_ramsey_numbers_for_small_chains():
    assert ramsey_number(chain(2), chain(2)) == 2
    assert ramsey_number(chain(2), chain(3)) == 3
    assert ramsey_number(chain(3), chain(3)) == 4
    # Dimension 5 has 32 elements, above the arrow cap, which ramsey_number does not apply.
    assert ramsey_number(chain(3), chain(4), n_max=5) == 5
    assert ramsey_number(chain(2), chain(2), n_max=1) is None


def test_ramsey_number_is_least_brute_force_dimension():
    pairs = [
        (chain(2), chain(3), False),
        (vee(), vee(), False),
        (vee(), wedge(), False),
        ([vee(), wedge()], chain(2), False),
        (vee(), vee(), True),
    ]
    for first, second, induced in pairs:
        least = next(
            (d for d in range(1, 4)
             if brute_arrows(boolean_lattice(d), first, second, induced=induced)),
            None,
        )
        assert ramsey_number(first, second, n_max=3, induced=induced) == least


def test_ramsey_number_of_diamond_pair():
    assert ramsey_number(diamond(), diamond()) == 4
    assert ramsey_number(diamond(), diamond(), induced=True) == 4


# -- copy enumeration ---------------------------------------------------------------


def test_subcube_enumeration_counts():
    host = boolean_lattice(3)
    squares = enumerate_pattern_copies(host, boolean_lattice(2), mode="subcube")
    assert len(squares) == 6
    assert all(len(img) == 4 for img in squares)
    edges = enumerate_pattern_copies(host, boolean_lattice(1), mode="subcube")
    assert len(edges) == 12
    host = boolean_lattice(5)
    cubes = enumerate_pattern_copies(host, boolean_lattice(3), mode="subcube")
    assert len(cubes) == 40
    assert set(cubes) <= set(enumerate_pattern_copies(host, boolean_lattice(3), mode="all-induced"))


def test_weak_chain_enumeration_count():
    host = boolean_lattice(3)
    chains = enumerate_pattern_copies(host, chain(3), mode="all-weak")
    assert len(chains) == 18
    assert len(chains) == 4 ** 3 - 2 * 3 ** 3 + 2 ** 3


def test_induced_self_copy_is_unique():
    host = boolean_lattice(3)
    copies = enumerate_pattern_copies(host, boolean_lattice(3), mode="all-induced")
    assert copies == [tuple(range(8))]


def test_enumeration_matches_brute_force():
    host = boolean_lattice(3)
    for pattern in (chain(3), vee(), diamond()):
        for mode in ("all-weak", "all-induced"):
            scanned = enumerate_pattern_copies(host, pattern, mode=mode)
            images = brute_images(host, pattern, mode == "all-induced")
            assert scanned == sorted({tuple(sorted(image)) for image in images})


@pytest.mark.parametrize("held_rows", [1, 1 << 15])
@pytest.mark.parametrize("induced", [False, True])
def test_copy_images_of_a_mixed_family_in_tuple_order(monkeypatch, held_rows, induced):
    # Rows of a 2- and a 3-element pattern (and V, whose image sets repeat
    # chain:3's) share one array; the shorter rows end in -1 padding, and the
    # order is that of the sorted image tuples. held_rows = 1 drops repeats
    # after every block.
    monkeypatch.setattr(ramsey, "_HELD_ROWS", held_rows)
    host = boolean_lattice(3)
    patterns = [chain(2), chain(3), vee()]
    rows = ramsey._copy_images(np.arange(host.n), ramsey._with_conditions(patterns), induced)
    want = sorted({tuple(sorted(image)) for p in patterns for image in brute_images(host, p, induced)})
    assert rows.dtype == np.int32 and rows.shape == (len(want), 3)
    assert [tuple(v for v in row if v >= 0) for row in rows.tolist()] == want
    assert all(row[2] == -1 for row, image in zip(rows.tolist(), want) if len(image) == 2)


def test_verify_colouring_at_the_64_element_edge():
    # The top of B6 has down-set word 2^64 - 1, the last one the copy search takes.
    host = boolean_lattice(6)
    colouring = [1 if i.bit_count() <= 2 else 2 for i in range(host.n)]
    ok, (side, elements) = verify_colouring(host, colouring, chain(4), chain(4))
    assert not ok and side == 2 and len(elements) == 4
    assert all(colouring[v] == 2 for v in elements)
    assert all(host.lt(a, b) for a, b in zip(elements, elements[1:]))
    assert verify_colouring(host, colouring, chain(5), chain(5)) == (True, None)
    with pytest.raises(CapacityError):
        contains_copy(chain(65), chain(2))


def test_enumeration_copy_guard():
    # 20 antichains of the 3-cube in dimension 7: 20^7 > SCAN_GUARD.
    with pytest.raises(CapacityError, match="20\\^7"):
        enumerate_pattern_copies(boolean_lattice(7), boolean_lattice(3))


def test_enumeration_input_guards():
    with pytest.raises(PosetError):
        enumerate_pattern_copies(chain(3), chain(2))
    with pytest.raises(PosetError):
        enumerate_pattern_copies(boolean_lattice(2), vee(), mode="subcube")
    with pytest.raises(PosetError):
        enumerate_pattern_copies(boolean_lattice(2), chain(2), mode="sideways")


def test_ramsey_number_builds_orbit_conditions_once_per_pattern(monkeypatch):
    # One build per pattern and side for the whole call, not per dimension.
    built = []
    orbit_conditions = ramsey._orbit_conditions
    monkeypatch.setattr(ramsey, "_orbit_conditions", lambda p: built.append(p) or orbit_conditions(p))
    assert ramsey_number(diamond(), diamond()) == 4
    assert len(built) == 2
    built.clear()
    assert ramsey_number(chain(2), [vee(), chain(3)], n_max=3) == 3
    assert len(built) == 3


def test_orbit_conditions_follow_the_stabiliser_chain():
    # A chain has no automorphism but the identity, so nothing to break.
    assert _orbit_conditions(chain(4)) == []
    # B3's atoms are 1, 2, 4 in mask order: fixing atom 1 leaves the swap of 2 and 4.
    assert _orbit_conditions(boolean_lattice(3)) == [(1, 2), (1, 4), (2, 4)]
    # Four incomparable elements: each must map below every later one.
    assert _orbit_conditions(antichain_poset(4)) == list(itertools.combinations(range(4), 2))


# -- CNF encoding and solving ----------------------------------------------------------


def test_avoidance_encoding_shape():
    cnf = encode_avoidance(boolean_lattice(3), boolean_lattice(3), mode="all-induced")
    assert cnf.num_vars == 8
    assert len(cnf.clauses) == 2
    assert all(l < 0 for l in cnf.clauses[0])
    assert all(l > 0 for l in cnf.clauses[1])
    assert solve_cnf(cnf).status == "sat"


def test_avoidance_clause_count_is_twice_the_copies():
    cnf = encode_avoidance(boolean_lattice(3), chain(3), mode="all-weak")
    assert len(cnf.clauses) == 36
    assert list(map(abs, cnf.clauses[0])) == list(map(abs, cnf.clauses[1]))


def test_avoidance_segment_edge():
    cnf = encode_avoidance(boolean_lattice(1), chain(2))
    assert cnf.num_vars == 2 and len(cnf.clauses) == 2
    res = solve_cnf(cnf)
    assert res.status == "sat"
    colouring = assignment_to_colouring(res.assignment, 2)
    assert verify_colouring(boolean_lattice(1), colouring, chain(2), chain(2))[0]


def test_avoidance_agrees_with_arrow_search():
    for host_dim, pattern in ((2, chain(2)), (2, chain(3)), (3, chain(3))):
        host = boolean_lattice(host_dim)
        res = solve_cnf(encode_avoidance(host, pattern, mode="all-weak"))
        arrow, _ = arrows(host, pattern, pattern)
        assert (res.status == "unsat") == arrow
        if res.status == "sat":
            colouring = assignment_to_colouring(res.assignment, host.n)
            assert verify_colouring(host, colouring, pattern, pattern)[0]


def test_dimacs_roundtrip():
    cnf = encode_avoidance(boolean_lattice(2), chain(2))
    text = cnf.to_dimacs()
    assert text.startswith("p cnf 4 ")
    assert "c copy " in text
    back = parse_dimacs(text)
    assert back.num_vars == cnf.num_vars
    assert list(back.clauses) == [tuple(c) for c in cnf.clauses]
    assert solve_cnf(back).status == solve_cnf(cnf).status


def dimacs_oracle(cnf):
    """DIMACS text built line by line from the clause tuples: the reference
    for CnfFormula.to_dimacs."""
    lines = ["p cnf %d %d" % (cnf.num_vars, len(cnf.clauses))]
    copy = None
    for clause in cnf.clauses:
        key = tuple(map(abs, clause))
        if key != copy:
            lines.append("c copy " + ",".join([str(v - 1) for v in key]))
            copy = key
        lines.append(" ".join([str(l) for l in clause]) + " 0")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("piece", [1, 2, 3, 1 << 12])
def test_dimacs_text_matches_the_line_by_line_oracle(monkeypatch, piece):
    # piece is the clauses per piece of text written and the literals per
    # piece read; small ones cut runs of a copy and clauses.
    monkeypatch.setattr(ramsey, "_DIMACS_CLAUSES", piece)
    monkeypatch.setattr(ramsey, "_DIMACS_TOKENS", piece)
    cnfs = [
        encode_avoidance(boolean_lattice(3), chain(3)),
        encode_avoidance(boolean_lattice(3), boolean_lattice(1), mode="subcube"),
        php_formula(4, 3),
        CnfFormula.from_clauses(3, [(), (), (1, -2), (-1, 2), (2, 1), (3,), (-3,), (), (1, 1, -1)]),
        CnfFormula.from_clauses(2, []),
    ]
    for cnf in cnfs:
        text = cnf.to_dimacs()
        assert text == dimacs_oracle(cnf)
        back = parse_dimacs(text)
        assert back.num_vars == cnf.num_vars and back.clauses == cnf.clauses


def test_clause_store_is_flat():
    cnf = CnfFormula.from_clauses(3, [(1, -2), (), (3, 1, 2)])
    assert cnf.lits.dtype == np.int32 and cnf.lits.tolist() == [1, -2, 3, 1, 2]
    assert cnf.offsets.dtype == np.int64 and cnf.offsets.tolist() == [0, 2, 2, 5]
    assert cnf.num_clauses == 3 and cnf.clauses == [(1, -2), (), (3, 1, 2)]
    with pytest.raises(PosetError, match="out of range"):
        CnfFormula.from_clauses(1, [(1 << 40,)])
    with pytest.raises(PosetError, match="out of range"):
        parse_dimacs("p cnf 1 1\n-9999999999 0\n")


def test_parse_dimacs_rejects_bad_header():
    with pytest.raises(PosetError):
        parse_dimacs("p dnf 2 1\n1 0\n")
    with pytest.raises(PosetError, match="line 1"):
        parse_dimacs("p cnf two 1\n1 0\n")


def test_parse_dimacs_checks_the_header_clause_count():
    # A truncated body no longer solves as if it were the whole file.
    with pytest.raises(PosetError, match="announces 3 clauses but the file holds 1"):
        parse_dimacs("p cnf 2 3\n1 0\n")
    with pytest.raises(PosetError, match="announces 1 clauses but the file holds 2"):
        parse_dimacs("p cnf 2 1\n1 0 2\n")
    # Without a header the body is read as it stands.
    back = parse_dimacs("c no header\n1 -3 0\n2 0\n")
    assert back.num_vars == 3 and back.clauses == [(1, -3), (2,)]


def test_parse_dimacs_ends_each_clause_at_its_zero():
    # A clause may span lines, a line may hold several, and a lone 0 is the empty clause.
    assert parse_dimacs("p cnf 2 2\n1\n2 0\n-1 0\n").clauses == [(1, 2), (-1,)]
    assert parse_dimacs("p cnf 1 2\n1 0\n0\n").clauses == [(1,), ()]
    assert parse_dimacs("p cnf 2 2\n1 0 2 0\n").clauses == [(1,), (2,)]
    assert parse_dimacs("p cnf 3 2\n1 -2 0 3\n").clauses == [(1, -2), (3,)]


def test_parse_dimacs_rejects_non_integer_tokens():
    with pytest.raises(PosetError, match="line 3"):
        parse_dimacs("p cnf 2 1\n1 -2 0\n%\n0\n")
    with pytest.raises(PosetError, match="line 2"):
        parse_dimacs("p cnf 2 1\n1 x 0\n")


def test_parse_dimacs_reads_tokens_as_int_does():
    # One numpy call reads a piece; what it would read otherwise than int()
    # (a lone sign, digits int() rejects or accepts) goes line by line.
    for bad, line in (("1 - 0", 2), ("1 0\n+\n", 3), ("1 --2 0", 2), ("1-2 0", 2), ("0x1 0", 2)):
        with pytest.raises(PosetError, match="line %d" % line):
            parse_dimacs("p cnf 2 1\n" + bad)
    assert parse_dimacs("p cnf 3 2\n+1\t-2 0\x0c3 0\n").clauses == [(1, -2), (3,)]
    assert parse_dimacs("p cnf 12 1\n1_2 \u0663 0\n").clauses == [(12, 3)]
    with pytest.raises(PosetError, match="literal 99999999999999999999 out of range"):
        parse_dimacs("p cnf 1 1\n99999999999999999999 0\n")


def test_solver_basic_outcomes():
    assert solve_cnf(CnfFormula.from_clauses(1, [(1,), (-1,)])).status == "unsat"
    res = solve_cnf(CnfFormula.from_clauses(2, [(1, 2), (-1,)]))
    assert res.status == "sat"
    assert res.assignment[1] is False and res.assignment[2] is True
    assert solve_cnf(CnfFormula.from_clauses(1, [])).status == "sat"
    assert solve_cnf(CnfFormula.from_clauses(2, [(1, -1), (2,)])).status == "sat"
    with pytest.raises(PosetError):
        solve_cnf(CnfFormula.from_clauses(1, [(2,)]))
    # (2, 1, 2) is the clause (2, 1), (-1, -1) the unit -1; the tautology sets nothing.
    res = solve_cnf(CnfFormula.from_clauses(3, [(2, 1, 2), (-1, -1), (3, -3, 1)]))
    assert res.status == "sat" and res.assignment == {1: False, 2: True, 3: True}
    assert res.stats["decisions"] == 1 and res.stats["propagations"] == 3


def test_solver_pigeonhole():
    assert solve_cnf(php_formula(4, 3)).status == "unsat"
    res = solve_cnf(php_formula(3, 3))
    assert res.status == "sat"


def test_solver_time_budget_reports_unknown():
    assert solve_cnf(php_formula(7, 6), time_budget=1e-9).status == "unknown"


def test_solver_zero_time_budget_leaves_only_propagation():
    assert solve_cnf(php_formula(7, 6), time_budget=0).status == "unknown"
    assert solve_cnf(CnfFormula.from_clauses(2, [(1,), (-1, 2)]), time_budget=0).status == "sat"
    assert solve_cnf(CnfFormula.from_clauses(2, [(1,), (-1, 2), (-2,)]), time_budget=0).status == "unsat"


@pytest.mark.parametrize("case", ["php(4,3)", "B6/C(2,1,2)"])
def test_unsat_answers_are_rechecked_by_unit_propagation(case):
    if case == "php(4,3)":
        cnf = php_formula(4, 3)
    else:
        cnf = encode_avoidance(boolean_lattice(6), layered([2, 1, 2]))
    res = solve_cnf(cnf)
    assert res.status == "unsat"
    assert res.learnt
    check_refutation(cnf, res.learnt)


def test_refutation_checker_rejects_a_clause_that_does_not_follow():
    cnf = php_formula(4, 3)
    assert not propagates_to_conflict(literal_matrix(cnf.clauses), cnf.num_vars, [-1])
    with pytest.raises(AssertionError):
        check_refutation(cnf, [(1,)])


def test_solver_stats_count_the_search():
    res = solve_cnf(php_formula(5, 4))
    assert res.status == "unsat"
    stats = res.stats
    assert set(stats) == {"decisions", "conflicts", "propagations", "restarts", "learnt"}
    assert stats["conflicts"] >= stats["learnt"] == len(res.learnt) > 0
    assert stats["decisions"] > 0 and stats["propagations"] > stats["decisions"]
    sat = solve_cnf(php_formula(3, 3))
    assert sat.learnt is None and sat.stats["decisions"] > 0


@st.composite
def small_cnfs(draw):
    """Random 3-CNFs near the satisfiability threshold, with a few extra
    clauses of 1-5 literals (units, repeated literals, tautologies) and
    sometimes the empty clause, in shuffled order."""
    n = draw(st.integers(0, 10))
    if n == 0:
        return CnfFormula.from_clauses(0, draw(st.lists(st.just(()), max_size=1)))
    literal = st.sampled_from([l for l in range(-n, n + 1) if l])
    clauses = draw(st.lists(st.tuples(literal, literal, literal), min_size=3 * n, max_size=5 * n))
    clauses += draw(st.lists(st.lists(literal, min_size=1, max_size=5).map(tuple), max_size=6))
    if draw(st.integers(0, 9)) == 0:
        clauses.append(())
    return CnfFormula.from_clauses(n, draw(st.permutations(clauses)))


@settings(max_examples=300, deadline=None)
@given(small_cnfs())
def test_solver_agrees_with_enumeration(cnf):
    res = solve_cnf(cnf)
    assert res.status == ("sat" if brute_sat(cnf) else "unsat")
    if res.status == "sat":
        assert all(any(res.assignment[abs(l)] == (l > 0) for l in c) for c in cnf.clauses)


@pytest.mark.parametrize("budget", [float("nan"), -1.0])
def test_solver_rejects_a_bad_time_budget(budget):
    with pytest.raises(PosetError):
        solve_cnf(php_formula(3, 2), time_budget=budget)


# -- exponent bounds ---------------------------------------------------------------


def test_bounds_for_chain_pairs_are_exact():
    rep = exponent_bounds(chain(2), chain(2))
    assert rep.exact == pytest.approx(0.4620981204, abs=1e-7)
    assert rep.lower == rep.upper == rep.exact
    assert "exact" in rep.lower_source


def test_bounds_for_vee_pair_are_exact():
    rep = exponent_bounds(vee(), vee())
    assert rep.exact == pytest.approx(0.4474727361, abs=1e-6)
    assert rep.lower_source == "depth-2 binary tree (exact)"


def test_bounds_for_chain_vee_pair():
    rep = exponent_bounds(chain(2), vee())
    assert rep.lower == pytest.approx(c_star(y_prime()).value, abs=1e-9)
    assert rep.upper == pytest.approx(c_star(y_poset()).value, abs=1e-9)
    assert rep.lower <= rep.upper + 1e-9


def test_bounds_invariant_under_reversal_and_swap():
    base = exponent_bounds(chain(2), vee())
    swapped = exponent_bounds(vee(), chain(2))
    reversed_pair = exponent_bounds(wedge(), chain(2))
    assert swapped.lower == pytest.approx(base.lower, abs=1e-9)
    assert reversed_pair.lower == pytest.approx(base.lower, abs=1e-9)
    assert reversed_pair.upper == pytest.approx(base.upper, abs=1e-9)


def test_bounds_for_wedge_vee_pair():
    rep = exponent_bounds(wedge(), vee())
    assert rep.lower == pytest.approx(c_star(layered([2, 3, 2])).value, abs=1e-9)
    assert rep.upper == pytest.approx(c_star(layered([2, 1, 2])).value, abs=1e-9)


def test_bounds_for_diamond_chain_pair():
    rep = exponent_bounds(diamond(), chain(2))
    assert rep.lower == pytest.approx(c_star(double_diamond()).value, abs=1e-9)
    assert rep.upper == pytest.approx(c_star(layered([1, 1, 2, 1])).value, abs=1e-9)


def test_bounds_for_diamond_pair_need_a_host():
    rep = exponent_bounds(diamond(), diamond())
    assert rep.upper == pytest.approx(0.3289037391, abs=1e-7)
    assert rep.upper_source == "tower colouring"
    assert rep.lower is None
    assert any("host" in note for note in rep.notes)
    # B4 without the elements 1, 2, 3, 5 and 7 arrows (diamond, diamond).
    host = induced_subposet(boolean_lattice(4), [e for e in range(16) if e not in (1, 2, 3, 5, 7)])
    with_host = exponent_bounds(diamond(), diamond(), h_poset=host)
    assert with_host.lower == pytest.approx(0.3197792259, abs=1e-9)
    assert with_host.lower_source == "user-supplied host"
    assert with_host.exact is None
    assert not any("arrow" in note or "unavailable" in note for note in with_host.notes)
    # The double diamond does not arrow the pair: no bound, and no exact
    # value from its c* (0.38166) crossing the tower's 0.32890.
    rejected = exponent_bounds(diamond(), diamond(), h_poset=double_diamond())
    assert rejected.lower is None and rejected.exact is None
    assert any("colouring (1, 1, 1, 1, 2, 2) avoids both" in note for note in rejected.notes)


def test_crossed_bounds_have_no_exact_value(monkeypatch):
    # Accept the double diamond unchecked: its c* (0.38166) then lies above
    # the tower colouring's 0.32890.
    monkeypatch.setattr(ramsey, "arrows", lambda host, first, second: (True, None))
    rep = exponent_bounds(diamond(), diamond(), h_poset=double_diamond())
    assert rep.lower > rep.upper + 1e-9
    assert rep.exact is None
    assert "bound sources disagree beyond tolerance (kept verbatim)" in rep.notes


def test_bounds_for_families():
    fam = [vee(), wedge()]
    rep = exponent_bounds(fam, fam)
    assert rep.lower == pytest.approx(c_star(layered([2, 1, 2])).value, abs=1e-9)
    rep2 = exponent_bounds(fam, chain(2))
    assert rep2.upper == pytest.approx(c_star(wedge_prime()).value, abs=1e-9)


# Every row of the known-pairs table, and the chain rule: the sources that
# win and the exact value (None when the bracket stays open).
_BOUND_PINS = [
    ("v", "v", "depth-2 binary tree (exact)", "depth-2 binary tree (exact)", 0.4474727361),
    ("chain:2", "v", "Y-prime host", "tower colouring", 0.4476995514),
    ("lambda", "v", "C(2,3,2) host", "tower colouring", None),
    ("chain:3", "v", "Y-double-prime host", "tower colouring", None),
    ("diamond", "chain:2", "double diamond host", "tower colouring", None),
    ("diamond", "diamond", "", "tower colouring", None),
    ("v,lambda", "v,lambda", "C(2,1,2) host", "", None),
    ("v,lambda", "chain:2", "", "wedge-prime colouring", None),
    ("chain:2", "chain:3", "chain pigeonhole (exact)", "tower colouring", 0.4023594781),
]


def _pattern_arg(spelling, reversed_order):
    members = [catalog(part) for part in spelling.split(",")]
    if reversed_order:
        members = [reverse(m) for m in members]
    return members[0] if len(members) == 1 else members


def test_bound_pins_cover_the_table():
    pinned = {(first, second) for first, second, *_ in _BOUND_PINS}
    assert {(first, second) for first, second, *_ in _KNOWN_HOSTS} <= pinned


@pytest.mark.parametrize("variant", ["pair", "swap", "reversal"])
@pytest.mark.parametrize("first,second,lower_source,upper_source,exact", _BOUND_PINS)
def test_bounds_pin_the_table(variant, first, second, lower_source, upper_source, exact):
    if variant == "swap":
        first, second = second, first
    p = _pattern_arg(first, variant == "reversal")
    q = _pattern_arg(second, variant == "reversal")
    rep = exponent_bounds(p, q)
    assert rep.lower_source == lower_source
    assert rep.upper_source == upper_source
    if exact is None:
        assert rep.exact is None
    else:
        assert rep.exact == pytest.approx(exact, abs=1e-9)
    if "," not in first + second:
        assert rep.upper_source == "tower colouring" or rep.upper_source.endswith("(exact)")


def test_supplied_host_is_a_lower_bound_candidate_for_any_pair():
    host = y_double_prime()
    assert arrows(host, chain(2), y_poset())[0]
    plain = exponent_bounds(chain(2), y_poset())
    assert plain.lower_source == "lexicographic product host"
    rep = exponent_bounds(chain(2), y_poset(), h_poset=host)
    assert rep.lower_source == "user-supplied host"
    assert rep.lower == c_star(host).value > plain.lower
    assert rep.lower <= rep.upper
    assert rep.upper_source == plain.upper_source == "tower colouring"


def test_bounds_generic_lex_and_tower():
    rep = exponent_bounds(chain(2), wedge())
    assert rep.lower is not None and rep.upper is not None
    assert rep.lower <= rep.upper + 1e-9
    json = rep.to_json_dict()
    assert set(json) == {"pair", "lower", "lower_source", "upper", "upper_source",
                         "exact", "notes"}


@pytest.mark.parametrize("row", [row for row in _KNOWN_HOSTS if row[2] and row[4] != "upper"],
                         ids=lambda row: row[2])
def test_known_hosts_arrow_their_pairs(row):
    # A host's c* is a lower bound only because it arrows the pair; so does
    # its order dual for the reversed pair, which the table matches too.
    first, second, spelling, _, _ = row
    host = catalog(spelling)
    p, q = _pattern_arg(first, False), _pattern_arg(second, False)
    assert arrows(host, p, q)[0] and arrows(host, q, p)[0]
    assert arrows(reverse(host), _pattern_arg(first, True), _pattern_arg(second, True))[0]


def test_bound_candidates_above_the_exponent_cap_leave_notes():
    rep = exponent_bounds(chain(8), chain(8))
    assert rep.lower is None and rep.upper is None and rep.exact is None
    assert rep.notes == [
        "lexicographic product too large for the exponent cap",
        "tower colouring too large for the exponent cap",
        "chain pigeonhole (exact) too large for the exponent cap",
    ]
    # The 16,384-element product of two 7-cubes is refused before it is built
    # (building it takes about 45 s).
    rep = exponent_bounds(boolean_lattice(7), boolean_lattice(7))
    assert rep.notes == [
        "lexicographic product too large for the exponent cap",
        "tower colouring too large for the exponent cap",
    ]


def test_an_unconverged_host_leaves_a_note():
    # c* of this host stops at its iteration cap with bracket width 1.9e-4.
    host = Poset(9, [(0, 3), (0, 4), (0, 5), (1, 4), (1, 7), (1, 8), (2, 4), (2, 6),
                     (3, 7), (5, 6), (5, 7), (6, 8)])
    rep = exponent_bounds(chain(2), chain(2), h_poset=host)
    plain = exponent_bounds(chain(2), chain(2))
    assert (rep.lower, rep.upper, rep.exact) == (plain.lower, plain.upper, plain.exact)
    assert plain.notes == []
    assert len(rep.notes) == 1
    assert rep.notes[0].startswith("user-supplied host unconverged: c* bracket width 1.9")

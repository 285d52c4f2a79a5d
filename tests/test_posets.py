"""Unit tests for poset construction, antichain enumeration and copy search."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from copy_oracle import brute_images
from randposet.posets import (
    CapacityError,
    DslError,
    OrderCycleError,
    Poset,
    PosetError,
    antichain_count,
    antichain_poset,
    antichains,
    automorphisms,
    binary_tree_2,
    blowup,
    boolean_lattice,
    catalog,
    chain,
    connected_components,
    contains_copy,
    diamond,
    disjoint_union,
    double_diamond,
    fish,
    induced_subposet,
    is_isomorphic,
    layered,
    lex_product,
    load_poset,
    parse_dsl,
    parse_poset_arg,
    reverse,
    reverse_automorphisms,
    tower,
    vee,
    wedge,
)


def brute_antichain_masks(poset):
    """All antichain masks by scanning every subset."""
    return [m for m in range(1 << poset.n) if poset.is_antichain(m)]


def brute_copy_exists(host, pattern, induced, within=None):
    """Copy search by trying every injection."""
    return next(brute_images(host, pattern, induced, within), None) is not None


def random_poset(rng, n, density=0.3):
    """A transitively closed poset on a random DAG."""
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                relations.append((i, j))
    return Poset(n, relations)


# -- construction ------------------------------------------------------------


def test_chain_shape():
    p = chain(4)
    assert len(p) == 4
    assert p.relation_count() == 6
    assert p.lt(0, 3) and not p.lt(3, 0)
    assert p.minimal_elements() == [0]
    assert p.maximal_elements() == [3]


def test_chain_rejects_empty():
    with pytest.raises(PosetError):
        chain(0)


def test_antichain_poset_has_no_relations():
    p = antichain_poset(5)
    assert p.relation_count() == 0
    assert p.minimal_elements() == list(range(5))


def test_layered_sizes_and_relations():
    p = layered([2, 3])
    assert len(p) == 5
    assert p.relation_count() == 6
    assert not p.comparable(0, 1)
    assert p.lt(0, 2) and p.lt(1, 4)


def test_blowup_is_layered():
    assert blowup(3, 2) == layered([2, 2, 2])


def test_boolean_lattice_order_is_containment():
    p = boolean_lattice(3)
    assert len(p) == 8
    assert p.lt(0b001, 0b011) and not p.lt(0b011, 0b001)
    assert not p.comparable(0b001, 0b010)
    assert p.is_bounded()


def test_diamond_is_small_boolean_lattice():
    assert is_isomorphic(diamond(), boolean_lattice(2))
    assert diamond() == layered([1, 2, 1])


def test_transitive_closure_applied():
    p = Poset(3, [(0, 1), (1, 2)])
    assert p.lt(0, 2)


def test_relation_cycle_rejected():
    with pytest.raises(OrderCycleError):
        Poset(3, [(0, 1), (1, 2), (2, 0)])


# -- text format -------------------------------------------------------------


def test_dsl_chain():
    p = parse_dsl("a < b\nb < c")
    assert is_isomorphic(p, chain(3))
    assert [p.label(i) for i in range(3)] == ["a", "b", "c"]


def test_dsl_cycle_reports_names():
    with pytest.raises(OrderCycleError) as err:
        parse_dsl("a < b\nb < a")
    assert "a" in err.value.cycle and "b" in err.value.cycle


def test_dsl_wedge():
    p = parse_dsl("a < c\nb < c")
    assert is_isomorphic(p, wedge())


def test_dsl_chained_line_and_comments():
    p = parse_dsl("# three levels\nx < y < z\n\nw\n")
    assert len(p) == 4
    assert p.lt(0, 2)
    assert not p.comparable(0, 3)


def test_dsl_malformed_line():
    with pytest.raises(DslError) as err:
        parse_dsl("a < b\nc <")
    assert err.value.line_no == 2


def test_dsl_bare_name_with_space():
    with pytest.raises(DslError):
        parse_dsl("a b")


def test_load_and_parse_arg(tmp_path):
    path = tmp_path / "p.poset"
    path.write_text("a < b\n", encoding="utf-8")
    assert is_isomorphic(load_poset(path), chain(2))
    assert is_isomorphic(parse_poset_arg(str(path)), chain(2))
    assert parse_poset_arg("chain:3") == chain(3)
    with pytest.raises(PosetError):
        parse_poset_arg("no-such-poset")


def test_catalog_names():
    assert is_isomorphic(catalog("V"), vee())
    assert is_isomorphic(catalog("dd"), double_diamond())
    assert catalog("layered:1,2,1") == diamond()
    assert catalog("blowup:2,3") == blowup(2, 3)
    with pytest.raises(PosetError):
        catalog("chain:x")


# -- antichain enumeration ---------------------------------------------------


def test_empty_antichain_enumerated_last():
    for p in (chain(3), vee(), boolean_lattice(2), fish()):
        family = antichains(p)
        assert family.masks[-1] == 0
        assert all(m != 0 for m in family.masks[:-1])


def test_antichain_family_members_are_antichains():
    p = double_diamond()
    family = antichains(p)
    assert all(p.is_antichain(m) for m in family.masks)
    assert len(set(family.masks)) == len(family)


def test_antichain_counts_match_brute_force():
    for p in (binary_tree_2(), boolean_lattice(3), fish(), double_diamond(), layered([2, 3, 2])):
        assert antichain_count(p) == len(brute_antichain_masks(p))


def test_known_antichain_counts():
    assert antichain_count(boolean_lattice(2)) == 6
    assert antichain_count(boolean_lattice(3)) == 20
    assert antichain_count(fish()) == 14
    for t in range(1, 7):
        assert antichain_count(chain(t)) == t + 1
    for ell in range(1, 4):
        for t in range(1, 4):
            assert antichain_count(blowup(ell, t)) == ell * 2 ** t - (ell - 1)


def test_antichain_capacity_guard():
    with pytest.raises(CapacityError):
        antichains(antichain_poset(24), cap=100)


def test_family_position_roundtrip():
    family = antichains(boolean_lattice(2))
    for k, mask in enumerate(family.masks):
        assert family.position(mask) == k


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=7))
def test_antichain_enumeration_random_posets(seed, n):
    rng = random.Random(seed)
    p = random_poset(rng, n)
    family = antichains(p)
    assert sorted(family.masks) == brute_antichain_masks(p)
    assert family.masks[-1] == 0


# -- structural operations ---------------------------------------------------


def test_reverse_involution():
    for p in (chain(4), vee(), y_prime_like(), double_diamond()):
        assert reverse(reverse(p)) == p


def y_prime_like():
    return parse_dsl("a < b\nb < c\nb < d\na < e\ne < f")


def test_reverse_swaps_vee_and_wedge():
    assert is_isomorphic(reverse(vee()), wedge())
    assert not is_isomorphic(vee(), wedge())


def test_tower_of_chains():
    assert is_isomorphic(tower(chain(2), chain(3)), chain(4))
    assert is_isomorphic(tower(chain(3), vee()), layered([1, 1, 1, 2]))
    assert is_isomorphic(tower(boolean_lattice(2), boolean_lattice(2)), layered([1, 2, 1, 2, 1]))


def test_tower_needs_unique_glue_points():
    with pytest.raises(PosetError):
        tower(vee(), chain(2))
    with pytest.raises(PosetError):
        tower(chain(2), wedge())


def test_lex_product_of_chains_is_a_chain():
    assert is_isomorphic(lex_product(chain(2), chain(2)), chain(4))


def test_lex_product_antichain_factor():
    got = lex_product(antichain_poset(2), chain(2))
    assert is_isomorphic(got, disjoint_union(chain(2), chain(2)))


def test_disjoint_union_components():
    p = disjoint_union(chain(3), chain(2))
    comps = connected_components(p)
    assert len(comps) == 2
    assert sorted(m.bit_count() for m in comps) == [2, 3]
    assert len(connected_components(boolean_lattice(3))) == 1


def test_induced_subposet_of_diamond():
    p = boolean_lattice(2)
    rest = [i for i in range(4) if i != 0]
    assert is_isomorphic(induced_subposet(p, rest), wedge())


# -- copy search and symmetry ------------------------------------------------


def test_contains_copy_witness_is_an_embedding():
    host = boolean_lattice(2)
    pattern = chain(3)
    image = contains_copy(host, pattern)
    assert image is not None
    assert host.lt(image[0], image[1]) and host.lt(image[1], image[2])


def test_contains_copy_absent():
    assert contains_copy(chain(3), vee(), induced=True) is None
    assert contains_copy(chain(3), boolean_lattice(2)) is None


def test_weak_versus_induced_copies():
    host = chain(3)
    pattern = antichain_poset(2)
    assert contains_copy(host, pattern) is not None
    assert contains_copy(host, pattern, induced=True) is None


def test_contains_copy_within_mask():
    host = boolean_lattice(2)
    middles = (1 << 1) | (1 << 2)
    assert contains_copy(host, antichain_poset(2), within=middles) is not None
    assert contains_copy(host, chain(2), within=middles) is None
    assert contains_copy(host, chain(2), within=0) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10 ** 9),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=6),
    st.booleans(),
)
def test_contains_copy_matches_brute_force(seed, pn, hn, induced):
    rng = random.Random(seed)
    pattern = random_poset(rng, pn, density=0.4)
    host = random_poset(rng, hn, density=0.4)
    got = contains_copy(host, pattern, induced=induced)
    assert (got is not None) == brute_copy_exists(host, pattern, induced)
    if got is not None:
        for i in range(pn):
            for j in range(pn):
                if pattern.lt(i, j):
                    assert host.lt(got[i], got[j])
                elif induced and i != j and not pattern.lt(j, i):
                    assert not host.comparable(got[i], got[j])
    within = rng.getrandbits(hn)
    got = contains_copy(host, pattern, induced=induced, within=within)
    assert (got is not None) == brute_copy_exists(host, pattern, induced, within)
    assert got is None or all(within >> v & 1 for v in got)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=0, max_value=6))
def test_symmetries_and_isomorphism_match_brute_force(seed, n):
    rng = random.Random(seed)
    p = random_poset(rng, n, density=rng.random())
    assert sorted(automorphisms(p)) == sorted(brute_images(p, p, True))
    assert sorted(reverse_automorphisms(p)) == sorted(brute_images(p, reverse(p), True))
    perm = rng.sample(range(n), n)
    assert is_isomorphic(p, Poset(n, [(perm[i], perm[j]) for i, j in p.cover_pairs()]))
    other = random_poset(rng, n, density=rng.random())
    assert is_isomorphic(p, other) == brute_copy_exists(other, p, True)


def test_automorphism_counts():
    assert len(automorphisms(antichain_poset(3))) == 6
    assert len(automorphisms(chain(5))) == 1
    assert len(automorphisms(vee())) == 2
    assert len(automorphisms(boolean_lattice(2))) == 2


def test_automorphism_group_closure():
    for p in (vee(), boolean_lattice(2), double_diamond(), fish()):
        group = {tuple(g) for g in automorphisms(p)}
        assert tuple(range(p.n)) in group
        for g in group:
            for h in group:
                assert tuple(g[h[i]] for i in range(p.n)) in group


def test_reverse_automorphism_counts():
    assert len(reverse_automorphisms(chain(3))) == 1
    assert len(reverse_automorphisms(vee())) == 0
    assert len(reverse_automorphisms(boolean_lattice(2))) == 2


def test_reverse_automorphisms_invert_order():
    p = boolean_lattice(2)
    for g in reverse_automorphisms(p):
        for i in range(p.n):
            for j in range(p.n):
                assert p.lt(i, j) == p.lt(g[j], g[i])


def test_is_isomorphic_ignores_labels():
    assert is_isomorphic(parse_dsl("u < v\nv < w"), chain(3))
    assert not is_isomorphic(chain(3), layered([1, 2]))

"""Unit tests for the partition/copy dictionary, shadows and exact counts."""

import itertools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from copy_oracle import brute_images, dense_copy_blocks
from randposet.correspondence import (
    CopyMap,
    Partition,
    ShadowMap,
    copy_of_partition,
    count_copies,
    count_weighted_partitions,
    partition_of_copy,
    shadow_antichain,
    shadow_indices,
    shadow_partition,
    shadow_weighting,
    starred_count,
    surjection_count,
)
from randposet.posets import (
    CapacityError,
    Poset,
    PosetError,
    antichains,
    automorphisms,
    boolean_lattice,
    catalog,
    chain,
    copy_blocks,
    induced_subposet,
    vee,
    wedge,
)
from randposet.ramsey import _orbit_conditions
from randposet.threshold import ExponentTable


def all_partitions(family, n):
    """Every ordered partition of {1..n} into the family's labelled parts."""
    m = len(family)
    for assign in itertools.product(range(m), repeat=n):
        parts = [0] * m
        for ground, part in enumerate(assign):
            parts[part] |= 1 << ground
        yield Partition(family, n, parts)


def random_weak_copy(rng, poset, n):
    """A random order-preserving map into subsets of {1..n}."""
    images = [rng.randrange(1 << n) for _ in range(poset.n)]
    for _ in range(poset.n):
        for i in range(poset.n):
            for j in range(poset.n):
                if poset.lt(i, j):
                    images[j] |= images[i]
    return CopyMap(poset, n, images)


def random_poset(rng, n, density=0.35):
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                relations.append((i, j))
    return Poset(n, relations)


# -- container validation ------------------------------------------------------


def test_partition_rejects_bad_shapes():
    family = antichains(chain(2))
    with pytest.raises(PosetError):
        Partition(family, 2, (0b01, 0b10))
    with pytest.raises(PosetError):
        Partition(family, 2, (0b01, 0b01, 0b10))
    with pytest.raises(PosetError):
        Partition(family, 2, (0b01, 0b00, 0b00))
    with pytest.raises(PosetError):
        Partition(family, 1, (0b11, 0, 0))


def test_partition_weighting_is_a_distribution():
    family = antichains(vee())
    part = Partition(family, 4, (0b0011, 0b0100, 0b1000, 0, 0))
    w = part.weighting()
    assert w.sum() == pytest.approx(1.0)
    assert w[0] == pytest.approx(0.5)


def test_copymap_rejects_order_violations():
    p = chain(2)
    with pytest.raises(PosetError):
        CopyMap(p, 2, (0b11, 0b01))
    CopyMap(p, 2, (0b01, 0b11))


def test_copymap_induced_flags():
    p = vee()
    weak = CopyMap(p, 2, (0b01, 0b11, 0b11))
    assert not weak.is_injective()
    inj = CopyMap(p, 2, (0b00, 0b01, 0b11))
    assert inj.is_injective() and not inj.is_induced()
    ind = CopyMap(p, 2, (0b00, 0b01, 0b10))
    assert ind.is_induced()


# -- the two directions of the dictionary --------------------------------------


def test_copy_of_singleton_partition_in_square():
    poset = boolean_lattice(2)
    family = antichains(poset)
    n = len(family)
    parts = [1 << k for k in range(n)]
    copy = copy_of_partition(family, Partition(family, n, parts))
    sizes = [copy.images[i].bit_count() for i in range(4)]
    assert sizes[0] == 1
    assert sizes[1] == 3 and sizes[2] == 3
    assert sizes[3] == 5
    assert (copy.images[1] & copy.images[2]).bit_count() == 2
    assert copy.is_induced()


def test_partition_of_collapsed_chain_copy():
    poset = chain(2)
    family = antichains(poset)
    copy = CopyMap(poset, 2, (0b00, 0b11))
    part = partition_of_copy(family, copy)
    top_at = family.position(1 << 1)
    assert part.parts[top_at] == 0b11
    assert all(p == 0 for k, p in enumerate(part.parts) if k != top_at)


def test_partition_of_identity_square_copy():
    poset = boolean_lattice(2)
    family = antichains(poset)
    copy = CopyMap(poset, 2, (0b00, 0b01, 0b10, 0b11))
    part = partition_of_copy(family, copy)
    assert len(part.nonempty_indices()) == 2
    assert copy_of_partition(family, part) == copy


def test_roundtrip_exhaustive_small():
    for poset, n in ((chain(2), 2), (chain(2), 3), (vee(), 2), (wedge(), 2)):
        family = antichains(poset)
        for part in all_partitions(family, n):
            assert partition_of_copy(family, copy_of_partition(family, part)) == part


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_roundtrip_random_square_partitions(seed):
    rng = random.Random(seed)
    poset = boolean_lattice(2)
    family = antichains(poset)
    n = rng.randrange(1, 9)
    parts = [0] * len(family)
    for ground in range(n):
        parts[rng.randrange(len(family))] |= 1 << ground
    part = Partition(family, n, parts)
    assert partition_of_copy(family, copy_of_partition(family, part)) == part


def test_starred_partitions_map_to_distinct_induced_copies():
    for poset, n in ((vee(), 5), (boolean_lattice(2), 6)):
        family = antichains(poset)
        seen = set()
        total = 0
        for part in all_partitions(family, n):
            if not part.is_starred():
                continue
            total += 1
            copy = copy_of_partition(family, part)
            assert copy.is_induced()
            seen.add(copy.images)
        assert len(seen) == total == starred_count(len(family), n)


# -- shadows -------------------------------------------------------------------


def test_shadow_antichain_examples():
    p = boolean_lattice(2)
    q = 0b0111
    assert shadow_antichain(p, q, 1 << 0) == 1 << 0
    assert shadow_antichain(p, q, 1 << 3) == 0
    assert shadow_antichain(p, p.full_mask(), 1 << 0) == 1 << 0
    assert shadow_antichain(p, (1 << 3), (1 << 1) | (1 << 2)) == 1 << 3
    with pytest.raises(PosetError):
        shadow_antichain(p, q, (1 << 0) | (1 << 3))


def test_shadow_weighting_on_square_vee_face():
    poset = boolean_lattice(2)
    family = antichains(poset)
    q = 0b0111
    alpha = np.full(len(family), 1.0 / len(family))
    shadow = ShadowMap(family, q)
    pushed = shadow.push_weighting(alpha)
    sub = shadow.subfamily
    local = {sub.masks[k]: pushed[k] for k in range(len(sub))}
    assert local[0b001] == pytest.approx(1 / 6)
    assert local[0b010] == pytest.approx(1 / 6)
    assert local[0b100] == pytest.approx(1 / 6)
    assert local[0b110] == pytest.approx(1 / 6)
    assert local[0] == pytest.approx(1 / 3)


def test_shadow_weighting_on_chain_bottom():
    poset = chain(2)
    family = antichains(poset)
    pushed = shadow_weighting(family, 1 << 0, np.full(3, 1 / 3))
    sub = antichains(induced_subposet(poset, [0]))
    local = {sub.masks[k]: pushed[k] for k in range(len(sub))}
    assert local[0b1] == pytest.approx(1 / 3)
    assert local[0] == pytest.approx(2 / 3)


def test_shadow_is_linear_and_simplex_preserving():
    rng = random.Random(7)
    poset = boolean_lattice(2)
    family = antichains(poset)
    m = len(family)
    for q in range(1, 1 << poset.n):
        shadow = ShadowMap(family, q)
        a = np.array([rng.random() for _ in range(m)])
        b = np.array([rng.random() for _ in range(m)])
        lhs = shadow.push_weighting(2.0 * a + 3.0 * b)
        rhs = 2.0 * shadow.push_weighting(a) + 3.0 * shadow.push_weighting(b)
        assert np.allclose(lhs, rhs, atol=1e-14)
        alpha = a / a.sum()
        pushed = shadow.push_weighting(alpha)
        assert pushed.min() >= 0
        assert pushed.sum() == pytest.approx(1.0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_shadow_commutes_with_the_dictionary(seed):
    rng = random.Random(seed)
    poset = random_poset(rng, rng.randrange(2, 5))
    family = antichains(poset)
    n = rng.randrange(1, 6)
    copy = random_weak_copy(rng, poset, n)
    q = rng.randrange(1, 1 << poset.n)
    pushed = shadow_partition(family, q, partition_of_copy(family, copy))
    sub = induced_subposet(poset, q)
    direct = partition_of_copy(antichains(sub), copy.restrict(q))
    assert pushed == direct


def reference_shadow_maps(poset, family):
    """Per subposet Q: each parent antichain's shadow index and the family length.

    Built the long way, independently of shadow_indices: enumerate the
    antichains of the induced subposet on Q, and look up each shadow there.
    """
    return [reference_shadow_row(poset, family, q) for q in range(1, 1 << poset.n)]


def reference_shadow_row(poset, family, q):
    sub = induced_subposet(poset, q)
    subfamily = antichains(sub)
    sigma = []
    for s in family.masks:
        shadow = shadow_antichain(poset, q, s)
        local = sum(1 << k for k, e in enumerate(sub.parent_elements) if shadow >> e & 1)
        sigma.append(subfamily.position(local))
    return sigma, len(subfamily)


def check_shadow_tables(poset):
    family = antichains(poset)
    reference = reference_shadow_maps(poset, family)
    sigma, counts = shadow_indices(family, range(1, 1 << poset.n))
    assert [row.tolist() for row in sigma] == [want for want, _ in reference]
    assert counts.tolist() == [count for _, count in reference]
    table = ExponentTable.build(poset, family)
    for qi, (want, count) in enumerate(reference):
        assert (table.index[qi] - table.seg_offsets[qi]).tolist() == want
        assert table.seg_offsets[qi + 1] - table.seg_offsets[qi] == count


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9))
def test_shadow_indices_match_the_subposet_families(seed):
    rng = random.Random(seed)
    check_shadow_tables(random_poset(rng, rng.randrange(1, 8)))


@pytest.mark.parametrize("n", [9, 10, 11])
def test_shadow_indices_across_two_bytes_of_elements(n):
    # Elements 8 and up are read through the second byte's union table; a
    # shuffled order puts them below others as often as above.
    rng = random.Random(20261020 + n)
    order = rng.sample(range(n), n)
    relations = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
    check_shadow_tables(Poset(n, relations))


def test_shadow_indices_beyond_32_elements():
    # Masks of 32 or more elements are int64; two chains of 20 with shuffled
    # labels keep the family at 441 antichains.
    rng = random.Random(40)
    labels = rng.sample(range(40), 40)
    relations = [(labels[i], labels[i + 1]) for i in range(39) if i != 19]
    poset = Poset(40, relations)
    family = antichains(poset)
    q_masks = [rng.getrandbits(40) | 1 << labels[39] for _ in range(6)] + [(1 << 40) - 1]
    sigma, counts = shadow_indices(family, q_masks)
    for row, count, q in zip(sigma, counts, q_masks):
        assert (row.tolist(), count) == reference_shadow_row(poset, family, q)


@pytest.mark.parametrize("spec", ["blowup:2,4", "y''", "layered:1,2,1,2,1"])
def test_shadow_indices_on_catalog_posets(spec, monkeypatch):
    # Blocks of a few subposet rows, so that rows straddle block boundaries.
    monkeypatch.setattr("randposet.correspondence._BLOCK_CELLS", 100)
    check_shadow_tables(catalog(spec))


# -- exact counting ------------------------------------------------------------


def test_surjection_and_starred_counts():
    assert surjection_count(3, 2) == 6
    assert surjection_count(2, 3) == 0
    assert surjection_count(5, 5) == math.factorial(5)
    assert starred_count(3, 4) == surjection_count(4, 3)


def test_weak_count_is_a_power():
    for poset, n in ((chain(2), 4), (vee(), 3), (boolean_lattice(2), 3)):
        m = len(antichains(poset))
        assert count_copies(poset, n, mode="weak") == m ** n


def test_injective_chain_counts():
    assert count_copies(chain(2), 2, mode="injective") == 5
    assert count_copies(chain(2), 3, mode="injective") == 19
    for n in range(1, 7):
        assert count_copies(chain(2), n, mode="injective") == 3 ** n - 2 ** n


def test_counting_methods_agree():
    # The count against the copy search over all of B_n, and weak maps
    # against the m^n partitions they correspond to.
    cases = [(vee(), 3), (chain(3), 3), (boolean_lattice(2), 4), (catalog("t2"), 3),
             (catalog("antichain:5"), 3), (catalog("y''"), 4), (boolean_lattice(3), 4)]
    for poset, n in cases:
        words = np.arange(1 << n)
        for mode in ("injective", "induced"):
            rows = sum(len(b) for b in copy_blocks(words, poset, mode == "induced"))
            assert count_copies(poset, n, mode=mode) == rows
        assert count_copies(poset, n, mode="weak") == len(antichains(poset)) ** n
    assert count_copies(catalog("t2"), 3) == 48
    assert count_copies(catalog("antichain:5"), 3) == 6720
    assert count_copies(catalog("antichain:5"), 3, mode="weak") == 32 ** 3
    assert count_copies(catalog("y''"), 4) == 2736
    assert count_copies(boolean_lattice(3), 4) == 1092


def test_count_beyond_the_part_set_cap_is_refused_at_once():
    # y'' has 65 antichains: 2.2e11 sets of at most 10 nonempty parts.
    t0 = time.monotonic()
    with pytest.raises(CapacityError):
        count_copies(catalog("y''"), 10)
    assert time.monotonic() - t0 < 1.0


def test_injective_count_bounds():
    for poset, n in ((vee(), 4), (boolean_lattice(2), 5)):
        m = len(antichains(poset))
        inj = count_copies(poset, n, mode="injective")
        assert starred_count(m, n) <= inj <= m ** n


@st.composite
def words_and_pattern(draw):
    """Distinct subset words with the host poset they form, and a pattern.

    The words are all of B_d for d <= 4, or the down-set masks of a random
    poset on at most 7 elements; the pattern has at most 4 elements whose
    relations run up a random labelling.
    """
    if draw(st.booleans()):
        d = draw(st.integers(0, 4))
        host = boolean_lattice(d)
        words = list(range(1 << d))
    else:
        k = draw(st.integers(0, 7))
        pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))))
        host = Poset(k, [(a, b) for a, b in pairs if a < b < k])
        words = [host.down_mask(i) for i in range(k)]
    n = draw(st.integers(0, 4))
    labels = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3))))
    pattern = Poset(n, [(labels[a], labels[b]) for a, b in pairs if a < b < n])
    return host, np.array(words, dtype=np.int64), pattern


@settings(max_examples=150, deadline=None)
@given(words_and_pattern(), st.booleans())
def test_copy_blocks_match_brute_force(case, induced):
    host, words, pattern = case
    rows = [row for block in copy_blocks(words, pattern, induced) for row in block.tolist()]
    assert sorted(map(tuple, rows)) == sorted(brute_images(host, pattern, induced))
    d = max(host.n.bit_length() - 1, 0)
    if host == boolean_lattice(d):
        mode = "induced" if induced else "injective"
        assert len(rows) == count_copies(pattern, d, mode)
    for row in rows:
        images = [int(words[v]) for v in row]
        assert len(set(images)) == pattern.n
        for i in range(pattern.n):
            for j in range(pattern.n):
                if pattern.lt(i, j):
                    assert images[i] & ~images[j] == 0
                elif induced and i != j and not pattern.lt(j, i):
                    assert images[i] & ~images[j] != 0
    # Rows come in lexicographic order of placement: elements by down-set
    # size, words by popcount (stable), as copy_blocks documents.
    elems = sorted(range(pattern.n), key=lambda i: pattern.below[i].bit_count())
    rank = np.argsort(np.argsort(np.bitwise_count(words), kind="stable"))
    keys = [tuple(int(rank[row[e]]) for e in elems) for row in rows]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)


@settings(max_examples=150, deadline=None)
@given(words_and_pattern(), st.booleans())
def test_orbit_conditions_meet_each_copy_once(case, induced):
    host, words, pattern = case
    group = automorphisms(pattern)
    brute = list(brute_images(host, pattern, induced))
    images = sorted({tuple(sorted(b)) for b in brute})
    conditions = _orbit_conditions(pattern)
    # Reversed, each condition puts its element above the rest of its orbit,
    # which breaks the symmetry as well; copy_blocks checks those pairs at u.
    for before in (conditions, [(v, u) for u, v in conditions]):
        blocks = copy_blocks(words, pattern, induced, before)
        rows = [tuple(row) for block in blocks for row in block.tolist()]
        assert len(rows) == len(brute) / len(group)
        # Aut(F) acts on a map f by f -> f o g; each orbit holds one row met.
        met, seen = set(rows), set()
        for image in brute:
            if image not in seen:
                orbit = {tuple(image[g[i]] for i in range(pattern.n)) for g in group}
                assert len(orbit & met) == 1
                seen |= orbit
        assert sorted({tuple(sorted(r)) for r in rows}) == images


@st.composite
def wide_words_and_pattern(draw):
    """Distinct random words spanning many packed columns, and a pattern.

    65 to 3,000 distinct words of 20 to 62 bits, in random order, so a
    partial copy's candidates span up to 47 packed 64-bit words; a pattern
    on at most 5 elements. With k >= 2 minimal elements and a relation (a
    near-antichain), a search over sparse words can place all size^k tuples
    of minima before one fails, so such patterns get at most 150 words for
    k = 2 and 65 for k = 3, and are left out for k >= 4.
    """
    n = draw(st.integers(1, 5))
    labels = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8))
    pattern = Poset(n, [(labels[a], labels[b]) for a, b in pairs if a < b < n])
    minima = len(pattern.minimal_elements())
    assume(minima < 4 or not pattern.relation_count())
    most = 3000 if minima == 1 or not pattern.relation_count() else 150 if minima == 2 else 65
    size, bits = draw(st.integers(65, most)), draw(st.integers(20, 62))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    words = np.unique(rng.integers(0, 1 << bits, 2 * size, dtype=np.uint64))[:size]
    return rng.permutation(words), pattern


def _first_rows(blocks, limit=20_000):
    """The first ``limit`` rows a copy search yields, as one array (or None)."""
    rows, held = [], 0
    for block in blocks:
        rows.append(block)
        held += len(block)
        if held >= limit:
            break
    blocks.close()
    return np.concatenate(rows)[:limit] if rows else None


@settings(max_examples=50, deadline=None)
@given(wide_words_and_pattern(), st.booleans(), st.booleans())
@example((np.random.default_rng(0).permutation(np.arange(3000, dtype=np.uint64) << 20), Poset(3)), False, False)
def test_copy_blocks_match_the_dense_search(case, induced, symmetric):
    # The packed kernel against the dense-mask search it replaced, row for
    # row, on hosts where each partial copy's candidates span many columns.
    # The example's blocks hold far more than _COPY_HITS candidates.
    words, pattern = case
    before = _orbit_conditions(pattern) if symmetric else ()
    packed = _first_rows(copy_blocks(words, pattern, induced, before))
    dense = _first_rows(dense_copy_blocks(words, pattern, induced, before))
    if dense is None:
        assert packed is None
    else:
        assert packed.dtype == dense.dtype and np.array_equal(packed, dense)


def test_count_copies_rejects_bad_mode():
    with pytest.raises(PosetError):
        count_copies(chain(2), 2, mode="nope")


# -- weighted partition counts ---------------------------------------------------


def test_count_weighted_partitions_balanced_pair():
    exact, rate = count_weighted_partitions((0.5, 0.5), 10, 0)
    assert exact == 252
    assert rate == pytest.approx(10 * math.log(2))


def test_count_weighted_partitions_point_mass():
    exact, rate = count_weighted_partitions((1.0, 0.0, 0.0), 7, 0)
    assert exact == 1
    assert rate == pytest.approx(0.0)


def test_count_weighted_partitions_uniform_factorial():
    n = 5
    alpha = [1.0 / n] * n
    exact, rate = count_weighted_partitions(alpha, n, 0)
    assert exact == math.factorial(n)
    assert rate == pytest.approx(n * math.log(n))


def test_count_weighted_partitions_epsilon_window():
    exact0, _ = count_weighted_partitions((0.5, 0.5), 4, 0)
    exact1, _ = count_weighted_partitions((0.5, 0.5), 4, 0.25)
    assert exact0 == 6
    assert exact1 == 6 + 2 * 4

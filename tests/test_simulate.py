"""Unit tests for the random family sampler and the containment sweep."""

import itertools
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randposet.posets import (
    CapacityError,
    Poset,
    PosetError,
    antichain_poset,
    antichains,
    boolean_lattice,
    chain,
    contains_copy,
    layered,
    parse_dsl,
    vee,
)
from randposet.simulate import (
    Sample,
    contains_pattern,
    copy_weighting,
    find_pattern,
    sample_pnp,
    sweep,
)


def hand_sample(words, n=8):
    return Sample(n=n, c=0.0, words=np.array(sorted(words), dtype=np.uint64))


def is_embedding(pattern, image, induced=False):
    """Distinct words that keep every pattern relation as containment and,
    when induced, have no other containment."""
    if len(set(image)) != pattern.n:
        return False
    for i, j in itertools.permutations(range(pattern.n), 2):
        contained = image[i] & ~image[j] == 0
        if pattern.lt(i, j) and not contained:
            return False
        if induced and contained and not pattern.lt(i, j):
            return False
    return True


@st.composite
def patterns(draw, max_size=4):
    """Posets with at most max_size elements whose relations run up a random
    labelling, so the elements need not be listed in a linear extension."""
    n = draw(st.integers(0, max_size))
    labels = draw(st.permutations(range(n)))
    pairs = draw(st.lists(st.tuples(st.integers(0, max_size - 1), st.integers(0, max_size - 1))))
    return Poset(n, [(labels[a], labels[b]) for a, b in pairs if a < b < n])


# -- sampling -----------------------------------------------------------------


def test_sample_reproducible_by_seed():
    a = sample_pnp(12, 0.3, seed=5)
    b = sample_pnp(12, 0.3, seed=5)
    assert np.array_equal(a.words, b.words)
    assert a.n == 12 and a.c == 0.3


def test_sample_words_are_distinct_sorted_and_in_range():
    s = sample_pnp(10, 0.2, seed=1)
    assert s.words.dtype == np.uint64
    assert np.all(np.diff(s.words.astype(np.int64)) > 0)
    assert int(s.words.max()) < 1 << 10


def test_sample_at_zero_exponent_keeps_everything():
    s = sample_pnp(4, 0.0, seed=0)
    assert np.array_equal(s.words, np.arange(16, dtype=np.uint64))


def test_sample_guards():
    with pytest.raises(PosetError):
        sample_pnp(63, 0.5)
    for c in (-0.1, float("nan"), float("inf")):
        with pytest.raises(PosetError):
            sample_pnp(8, c)
    with pytest.raises(CapacityError):
        sample_pnp(30, 0.0, budget=10 ** 6)
    for budget in (float("nan"), -1):
        with pytest.raises(PosetError):
            sample_pnp(16, 0.0, budget=budget)


def dict_loop_words(n, c, rng):
    """The distinct-word draw as a dict loop over each batch, word by word:
    the reference the vectorised draw of sample_pnp must match."""
    total = 1 << n
    count = int(rng.binomial(total, math.exp(-c * n)))
    chosen = {}
    while len(chosen) < count:
        need = count - len(chosen)
        batch = rng.integers(0, total, size=max(16, 2 * need), dtype=np.uint64)
        for w in batch.tolist():
            if w not in chosen:
                chosen[w] = None
                if len(chosen) == count:
                    break
    return np.sort(np.fromiter(chosen.keys(), dtype=np.uint64, count=count))


def test_sample_draws_the_words_of_the_dict_loop():
    # Small n with c near 0 keeps most words, so batches collide often.
    for n in range(15):
        for c in (0.0, 0.01, 0.1, 0.5):
            for seed in range(30):
                want = dict_loop_words(n, c, np.random.default_rng(seed))
                got = sample_pnp(n, c, rng=np.random.default_rng(seed)).words
                assert got.dtype == np.uint64 and np.array_equal(got, want), (n, c, seed)
    # The streams of a sweep at n = 40 (seed 1, as in `simulate --seed 1`).
    for cell, c in enumerate((0.49, 0.54, 0.59)):
        for trial in range(20):
            stream = lambda: np.random.default_rng(np.random.SeedSequence(1, spawn_key=(cell, trial)))
            assert np.array_equal(sample_pnp(40, c, rng=stream()).words, dict_loop_words(40, c, stream()))


def test_sample_inclusion_probability():
    n, c, runs = 6, 0.2, 3000
    probe = 5
    p = math.exp(-c * n)
    rng = np.random.default_rng(123)
    hits = 0
    for _ in range(runs):
        s = sample_pnp(n, c, rng=rng)
        if probe in s.words:
            hits += 1
    sigma = math.sqrt(p * (1 - p) / runs)
    assert abs(hits / runs - p) < 4 * sigma


# -- pattern search -----------------------------------------------------------


def test_find_chain_fast_path():
    s = hand_sample([0b1, 0b11, 0b111])
    image = find_pattern(s, chain(3))
    assert image == (1, 3, 7)
    assert find_pattern(s, chain(4)) is None
    assert find_pattern(hand_sample([0b1, 0b10, 0b100]), chain(2)) is None


def test_find_chain_among_decoys():
    s = hand_sample([0b1, 0b110, 0b111, 0b1111])
    image = find_pattern(s, chain(3))
    assert image is not None and is_embedding(chain(3), image)
    assert find_pattern(s, chain(4)) is None


def test_find_bottom_star_fast_path():
    s = hand_sample([0b001, 0b011, 0b101])
    image = find_pattern(s, layered([1, 2]))
    assert image is not None
    assert image[0] == 1
    assert is_embedding(layered([1, 2]), image)
    assert find_pattern(hand_sample([0b001, 0b011]), layered([1, 2])) is None


def test_find_top_star_fast_path():
    s = hand_sample([0b011, 0b101, 0b111])
    image = find_pattern(s, layered([2, 1]))
    assert image is not None
    assert image[2] == 7
    assert is_embedding(layered([2, 1]), image)


def test_find_general_pattern():
    s = hand_sample([0b001, 0b011, 0b101, 0b111])
    image = find_pattern(s, boolean_lattice(2))
    assert image is not None
    assert is_embedding(boolean_lattice(2), image)
    assert contains_pattern(s, boolean_lattice(2))
    assert not contains_pattern(hand_sample([1, 2, 4, 8]), boolean_lattice(2))


def test_find_induced_pattern():
    assert find_pattern(hand_sample([0b01, 0b11]), antichain_poset(2), induced=True) is None
    got = find_pattern(hand_sample([0b01, 0b10]), antichain_poset(2), induced=True)
    assert got is not None


def test_fast_paths_align_relabelled_patterns():
    # A chain listed top-down, a wedge and a V whose centre is not element 0.
    samples = [
        hand_sample([0b001, 0b011, 0b101, 0b111]),
        sample_pnp(10, 0.1, seed=3),
    ]
    for text in ("c\nb\na < b < c", "y < z\nx < z", "y\nx < y\nx < z"):
        pattern = parse_dsl(text)
        for s in samples:
            image = find_pattern(s, pattern)
            assert image is not None and is_embedding(pattern, image)
            w = copy_weighting(pattern, s.n, image)
            assert sum(w) == pytest.approx(1.0)
            host = Poset(
                pattern.n,
                [(i, j) for i in range(pattern.n) for j in range(pattern.n)
                 if image[i] != image[j] and image[i] & ~image[j] == 0],
            )
            assert contains_copy(host, pattern) is not None


@settings(max_examples=80, deadline=None)
@given(patterns(), st.sets(st.integers(min_value=0, max_value=31), max_size=16), st.booleans())
def test_find_pattern_agrees_with_brute_force(pattern, words, induced):
    sample = hand_sample(words, n=5)
    expected = any(
        is_embedding(pattern, image, induced)
        for image in itertools.permutations(sorted(words), pattern.n)
    )
    image = find_pattern(sample, pattern, induced=induced)
    assert (image is not None) == expected
    if image is not None:
        assert set(image) <= set(words)
        assert is_embedding(pattern, image, induced)


def test_find_induced_pattern_in_a_mid_size_sample():
    # An induced copy in an 83-word sample, found without building the
    # sample's containment order.
    pattern = Poset(5, [(0, 1), (0, 2), (0, 4), (3, 4)])
    sample = sample_pnp(9, 0.2, seed=3)
    started = time.monotonic()
    image = find_pattern(sample, pattern, induced=True)
    assert time.monotonic() - started < 5.0
    assert image is not None and is_embedding(pattern, image, induced=True)


def test_find_pattern_small_sample_shortcut():
    assert find_pattern(hand_sample([1]), chain(2)) is None


# -- copy weightings -------------------------------------------------------------


def test_copy_weighting_of_collapsed_chain():
    family = antichains(chain(2))
    w = copy_weighting(chain(2), 2, (0, 3))
    assert w[family.position(1 << 1)] == pytest.approx(1.0)
    assert sum(w) == pytest.approx(1.0)


def test_copy_weighting_of_vee_copy():
    w = copy_weighting(vee(), 3, (0b001, 0b011, 0b101))
    assert sum(w) == pytest.approx(1.0)
    assert all(x >= 0 for x in w)


# -- sweeps -----------------------------------------------------------------------


def test_sweep_extreme_cells():
    report = sweep(chain(2), 10, [2.0, 0.1], trials=5, seed=0)
    assert [row["c"] for row in report.rows] == [0.1, 2.0]
    assert report.rows[0]["successes"] == 5
    assert report.rows[0]["p_hat"] == 1.0
    assert report.rows[1]["successes"] == 0
    assert len(report.cell_seconds) == 2


def test_sweep_deterministic_output():
    a = sweep(vee(), 9, [0.3, 0.5], trials=4, seed=7, pattern_name="V")
    b = sweep(vee(), 9, [0.3, 0.5], trials=4, seed=7, pattern_name="V")
    assert a.to_csv() == b.to_csv()
    assert a.to_json_dict() == b.to_json_dict()


def test_sweep_csv_shape():
    report = sweep(chain(2), 8, [0.2], trials=3, seed=1)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "c,trials,successes,p_hat"
    assert len(lines) == 2
    c, trials, succ, p_hat = lines[1].split(",")
    assert float(c) == 0.2 and int(trials) == 3
    assert 0.0 <= float(p_hat) <= 1.0
    assert "cell_seconds" not in report.to_csv()
    assert "cell_seconds" not in json.dumps(report.to_json_dict())


def test_sweep_records_weightings():
    report = sweep(chain(2), 10, [0.1], trials=3, seed=2, record_weights=True)
    records = json.loads(report.weights_json())
    assert len(records) == 3
    for rec in records:
        assert set(rec) == {"c", "trial", "image", "weighting"}
        assert sum(rec["weighting"]) == pytest.approx(1.0)
        assert is_embedding(chain(2), rec["image"])


def test_sweep_default_name_and_json_keys():
    report = sweep(chain(2), 8, [0.3], trials=2, seed=0)
    assert report.pattern_name
    assert set(report.to_json_dict()) == {"pattern", "n", "rows"}

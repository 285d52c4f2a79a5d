"""Monte Carlo checks of the existence threshold on random subset families.

A random family keeps each subset of an n-element ground set independently
with probability exp(-c*n). Sampling draws the kept-count from the matching
binomial and then that many distinct uniform words, which is
distribution-identical and avoids touching all 2^n subsets. Containment of
a pattern in the sampled family uses popcount-sorted fast paths for chains
and stars and the generic embedding search otherwise, and sweeps over a
grid of exponents chart the empirical probability curve around the
threshold.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .posets import (
    CapacityError,
    Poset,
    PosetError,
    antichains,
    chain,
    is_isomorphic,
    layered,
    reverse,
)
from .correspondence import CopyMap, partition_of_copy

DEFAULT_BUDGET = 10 ** 7
GENERAL_SIZE_CAP = 10 ** 4


@dataclass
class Sample:
    """A sampled family of distinct n-bit words with its sampling exponent."""

    n: int
    c: float
    words: np.ndarray
    seed: object = None

    def __len__(self):
        return int(self.words.size)


def sample_pnp(n, c, seed=None, budget=DEFAULT_BUDGET, rng=None):
    """Sample the random family with retention probability exp(-c*n).

    The kept-count is binomial over all 2^n words; the words themselves are
    distinct uniforms drawn by rejection. Words are returned sorted.
    """
    if n < 0 or n > 62:
        raise PosetError("dimension must be between 0 and 62")
    if rng is None:
        rng = np.random.default_rng(seed)
    total = 1 << n
    p = math.exp(-c * n)
    if total * p > budget:
        raise CapacityError(
            "expected sample size %.3g exceeds the budget %g" % (total * p, budget)
        )
    count = int(rng.binomial(total, p))
    chosen = {}
    while len(chosen) < count:
        need = count - len(chosen)
        batch = rng.integers(0, total, size=max(16, 2 * need), dtype=np.uint64)
        for w in batch.tolist():
            if w not in chosen:
                chosen[w] = None
                if len(chosen) == count:
                    break
    words = np.sort(np.fromiter(chosen.keys(), dtype=np.uint64, count=count))
    return Sample(n=n, c=c, words=words, seed=seed)


def _chain_height(pattern):
    """Length t when the pattern is a t-chain, else None."""
    if is_isomorphic(pattern, chain(pattern.n)):
        return pattern.n
    return None


def _star_leaves(pattern):
    """Leaf count t for an upward star (one minimum below t incomparable tops)."""
    t = pattern.n - 1
    if t >= 2 and is_isomorphic(pattern, layered([1, t])):
        return t
    return None


def _find_chain(words, t):
    """Indices of an ascending t-chain among popcount-sorted words, or None."""
    k = words.size
    if t <= 0:
        return ()
    if k < t:
        return None
    pc = np.bitwise_count(words)
    order = np.lexsort((words, pc))
    w = words[order]
    pcs = pc[order]
    best = np.ones(k, dtype=np.int64)
    parent = np.full(k, -1, dtype=np.int64)
    for i in range(1, k):
        limit = int(np.searchsorted(pcs, pcs[i]))
        if limit == 0:
            continue
        below = np.nonzero((w[:limit] & ~w[i]) == 0)[0]
        if below.size == 0:
            continue
        j = below[np.argmax(best[below])]
        best[i] = best[j] + 1
        parent[i] = j
        if best[i] >= t:
            path = []
            v = i
            while v >= 0:
                path.append(int(order[v]))
                v = int(parent[v])
            return tuple(reversed(path))[-t:]
    if t == 1 and k >= 1:
        return (0,)
    return None


def _find_star(words, t, flipped):
    """Indices of a centre plus t strict supersets (or subsets when flipped)."""
    k = words.size
    if k < t + 1:
        return None
    for i in range(k):
        centre = words[i]
        if flipped:
            hits = np.nonzero((words & centre) == words)[0]
        else:
            hits = np.nonzero((words & centre) == centre)[0]
        hits = hits[hits != i]
        if hits.size >= t:
            return (i,) + tuple(int(h) for h in hits[:t])
    return None


def _sample_poset(words):
    """The induced containment order on the sampled words."""
    k = int(words.size)
    relations = []
    for i in range(k):
        sup = np.nonzero(((words & words[i]) == words[i]) & (words != words[i]))[0]
        relations.extend((i, int(j)) for j in sup)
    return Poset(k, relations)


def find_pattern(sample, pattern, induced=False, cap=GENERAL_SIZE_CAP):
    """Words forming a copy of the pattern, aligned to pattern elements, or None."""
    words = sample.words
    k = int(words.size)
    if pattern.n == 0:
        return ()
    if k < pattern.n:
        return None
    if not induced:
        t = _chain_height(pattern)
        if t is not None:
            idx = _find_chain(words, t)
            if idx is None:
                return None
            # The chain element with r elements below it sits r steps up the path.
            return tuple(int(words[idx[pattern.below[i].bit_count()]]) for i in range(pattern.n))
        for flipped in (False, True):
            t = _star_leaves(reverse(pattern) if flipped else pattern)
            if t is None:
                continue
            idx = _find_star(words, t, flipped=flipped)
            if idx is None:
                return None
            # The unique minimum (maximum when flipped) is the centre; the
            # other elements take the found leaves in index order.
            centre = (pattern.maximal_elements() if flipped else pattern.minimal_elements())[0]
            leaves = iter(idx[1:])
            return tuple(int(words[idx[0] if i == centre else next(leaves)]) for i in range(pattern.n))
    if k > cap:
        raise CapacityError("sample too large (%d > %d) for the generic search" % (k, cap))
    from .posets import contains_copy

    host = _sample_poset(words)
    hit = contains_copy(host, pattern, induced=induced)
    if hit is None:
        return None
    return tuple(int(words[v]) for v in hit)


def contains_pattern(sample, pattern, induced=False, cap=GENERAL_SIZE_CAP):
    """Whether the sampled family contains a copy of the pattern."""
    return find_pattern(sample, pattern, induced=induced, cap=cap) is not None


def copy_weighting(pattern, n, image_words):
    """Weighting of one found copy, read off through the partition map."""
    copy = CopyMap(pattern, n, [int(w) for w in image_words])
    family = antichains(pattern)
    return [float(x) for x in partition_of_copy(family, copy).weighting()]


@dataclass
class SweepReport:
    """Empirical containment probabilities over a grid of exponents."""

    pattern_name: str
    n: int
    rows: list = field(default_factory=list)
    cell_seconds: list = field(default_factory=list)
    weight_records: list = field(default_factory=list)

    def to_csv(self):
        lines = ["c,trials,successes,p_hat"]
        for row in self.rows:
            lines.append(
                "%.10g,%d,%d,%.10g" % (row["c"], row["trials"], row["successes"], row["p_hat"])
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self):
        return {
            "pattern": self.pattern_name,
            "n": self.n,
            "rows": [dict(row) for row in self.rows],
        }

    def weights_json(self):
        return json.dumps(self.weight_records, indent=2) + "\n"


def sweep(
    pattern,
    n,
    c_values,
    trials,
    seed=0,
    induced=False,
    budget=DEFAULT_BUDGET,
    record_weights=False,
    pattern_name=None,
):
    """Run independent trials per grid exponent and tabulate success rates.

    Trial RNG streams derive from (seed, cell index, trial index), so equal
    configurations reproduce bit-identical rows regardless of scheduling.
    With record_weights, one found copy per success is pushed through the
    partition map and its weighting stored for comparison with optimizer
    certificates.
    """
    grid = sorted(float(c) for c in c_values)
    report = SweepReport(pattern_name=pattern_name or repr(pattern), n=n)
    for cell, c in enumerate(grid):
        started = time.monotonic()
        successes = 0
        for trial in range(trials):
            ss = np.random.SeedSequence(seed, spawn_key=(cell, trial))
            rng = np.random.default_rng(ss)
            sample = sample_pnp(n, c, budget=budget, rng=rng)
            image = find_pattern(sample, pattern, induced=induced)
            if image is not None:
                successes += 1
                if record_weights:
                    report.weight_records.append(
                        {
                            "c": c,
                            "trial": trial,
                            "image": [int(w) for w in image],
                            "weighting": copy_weighting(pattern, n, image),
                        }
                    )
        report.rows.append(
            {
                "c": c,
                "trials": trials,
                "successes": successes,
                "p_hat": successes / trials if trials else 0.0,
            }
        )
        report.cell_seconds.append(time.monotonic() - started)
    return report

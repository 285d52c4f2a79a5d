"""Monte Carlo checks of the existence threshold on random subset families.

A random family keeps each subset of an n-element ground set independently
with probability exp(-c*n). Sampling draws the kept-count from the matching
binomial and then that many distinct uniform words, which is
distribution-identical and avoids touching all 2^n subsets. The first
copy of a pattern that posets.copy_blocks finds in the sampled words
decides containment; near the threshold most trials hold none, so the
search then visits every partial copy, each over packed bitsets of the
sample's words. Sweeps over a grid of exponents chart the empirical
probability curve around the threshold, and report per cell the time spent
sampling and searching.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .posets import CapacityError, PosetError, antichains, copy_blocks
from .correspondence import CopyMap, partition_of_copy

DEFAULT_BUDGET = 10 ** 7


def sample_pnp(n, c, seed=None, budget=DEFAULT_BUDGET, rng=None):
    """Sample the random family with retention probability exp(-c*n).

    The kept-count is binomial over all 2^n words; the words themselves are
    distinct uniforms drawn by rejection. Returns the words as a sorted
    uint64 array.
    """
    if n < 0 or n > 62:
        raise PosetError("dimension must be between 0 and 62")
    if not 0 <= c < math.inf:
        raise PosetError("exponent must be a finite number >= 0, got %r" % (c,))
    if not budget >= 0:
        raise PosetError("budget must be a number >= 0, got %r" % (budget,))
    if rng is None:
        rng = np.random.default_rng(seed)
    total = 1 << n
    p = math.exp(-c * n)
    if total * p > budget:
        raise CapacityError(
            "expected sample size %.3g exceeds the budget %g" % (total * p, budget)
        )
    count = int(rng.binomial(total, p))
    # Each batch adds its first `need` distinct new words, in draw order.
    words = np.empty(0, dtype=np.uint64)  # kept sorted
    while len(words) < count:
        need = count - len(words)
        batch = rng.integers(0, total, size=max(16, 2 * need), dtype=np.uint64)
        batch = batch[~_among(batch, words)]
        if not len(batch):
            continue
        fresh = np.sort(batch[:need])
        if (fresh[1:] == fresh[:-1]).any():  # a repeat; rare when 2^n >> count
            values, first = np.unique(batch, return_index=True)
            fresh = np.sort(values[np.argsort(first)[:need]])
        words = np.insert(words, np.searchsorted(words, fresh), fresh)
    return words


def _among(values, words):
    """Which values occur in the sorted array words."""
    if not len(words):
        return np.zeros(len(values), dtype=bool)
    return words[np.minimum(np.searchsorted(words, values), len(words) - 1)] == values


def find_pattern(words, pattern, induced=False):
    """Words forming a copy of the pattern, aligned to pattern elements, or None.

    words is a sorted uint64 array, as sample_pnp returns. The first copy
    posets.copy_blocks finds, in its order of placement.
    """
    block = next(copy_blocks(words, pattern, induced), None)
    return None if block is None else tuple(words[block[0]].tolist())


def copy_weighting(pattern, n, image_words):
    """Weighting of one found copy, read off through the partition map."""
    copy = CopyMap(pattern, n, [int(w) for w in image_words])
    family = antichains(pattern)
    return [float(x) for x in partition_of_copy(family, copy).weighting()]


@dataclass
class SweepReport:
    """Empirical containment probabilities over a grid of exponents.

    ``stats["cells"]`` holds one record per cell, kept out of the JSON
    record: its exponent, wall time, the time spent sampling and searching
    for a copy, and the words sampled as their sum and maximum over trials.
    """

    pattern_name: str
    n: int
    rows: list = field(default_factory=list)
    weight_records: list = field(default_factory=list)
    stats: dict = field(default_factory=lambda: {"cells": []})

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
    if trials < 0:
        raise PosetError("trials must be >= 0, got %d" % trials)
    grid = sorted(float(c) for c in c_values)
    report = SweepReport(pattern_name=pattern_name or repr(pattern), n=n)
    for cell, c in enumerate(grid):
        started = time.monotonic()
        successes = 0
        words = largest = 0
        sampling = searching = 0.0
        for trial in range(trials):
            ss = np.random.SeedSequence(seed, spawn_key=(cell, trial))
            rng = np.random.default_rng(ss)
            t0 = time.monotonic()
            sample = sample_pnp(n, c, budget=budget, rng=rng)
            t1 = time.monotonic()
            image = find_pattern(sample, pattern, induced=induced)
            sampling, searching = sampling + t1 - t0, searching + time.monotonic() - t1
            words += len(sample)
            largest = max(largest, len(sample))
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
        report.stats["cells"].append(
            {
                "c": c,
                "seconds": time.monotonic() - started,
                "sample_seconds": sampling,
                "search_seconds": searching,
                "words": words,
                "max_words": largest,
            }
        )
    return report

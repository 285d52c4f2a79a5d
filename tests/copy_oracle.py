"""Two copy searches independent of posets.copy_blocks, used as oracles.

brute_images tries every injection; dense_copy_blocks is the dense-mask
search that copy_blocks replaced, kept to check the packed kernel row for row
on hosts too large for brute force.
"""

import itertools

import numpy as np


def brute_images(host, pattern, induced, within=None):
    """Yield every copy of pattern in host as a tuple of host elements.

    Entry k is the image of pattern element k. Every injection from the
    pattern into the host elements (those in the mask ``within``, default
    all) is tried: a weak copy preserves strict order, an induced copy also
    maps incomparable elements to incomparable ones.
    """
    elems = [v for v in range(host.n) if within is None or within >> v & 1]
    pairs = list(itertools.permutations(range(pattern.n), 2))
    for image in itertools.permutations(elems, pattern.n):
        if all(
            host.lt(image[i], image[j])
            if pattern.lt(i, j)
            else not (induced and not pattern.lt(j, i) and host.lt(image[i], image[j]))
            for i, j in pairs
        ):
            yield image


# Cells (partial copies x candidate words) in one mask of dense_copy_blocks.
_COPY_CELLS = 1 << 16


def dense_copy_blocks(words, pattern, induced=False, before=()):
    """Yield, in blocks, the copies of a pattern in an array of distinct words.

    The same contract and row order as posets.copy_blocks: elements placed
    depth first in a linear extension by down-set size, over the
    popcount-sorted words, with the ``before`` order conditions. Each step
    builds a dense (partial copies x candidate words) boolean mask, one
    comparison per placed partner.
    """
    pc = np.bitwise_count(words)
    order = np.argsort(pc, kind="stable").astype(np.int32 if len(words) < 2 ** 31 else np.int64)
    words, pc = words[order], pc[order]
    # starts[r] is the first position of a word with popcount at least r.
    starts = np.searchsorted(pc, np.arange(8 * words.itemsize + 2))
    elems = sorted(range(pattern.n), key=lambda i: pattern.below[i].bit_count())
    step = {u: d for d, u in enumerate(elems)}
    # A word fits a step when it is a strict superset of the lower covers'
    # images (so past their largest popcount) and differs from, or when
    # induced is incomparable with, the other placed images; none is above.
    # It must also come after the images in ``after`` and before those in
    # ``ahead``, the placed partners of its order conditions.
    steps = []
    for d, u in enumerate(elems):
        below = [c for c in range(d) if pattern.lt(elems[c], u)]
        covers = [c for c in below if not pattern.above[elems[c]] & pattern.below[u]]
        after = [step[a] for a, b in before if step[b] == d and step[a] < d]
        ahead = [step[b] for a, b in before if step[a] == d and step[b] < d]
        steps.append((covers, [c for c in range(d) if c not in below], after, ahead))
    block_rows = 1

    def extend(rows, d):
        nonlocal block_rows
        if d == pattern.n:
            yield order[rows[:, np.argsort(elems)]]
            return
        covers, others, after, ahead = steps[d]
        # Each row's largest lower-cover popcount, -1 without covers.
        top = pc[rows[:, covers]].astype(np.int16).max(axis=1, initial=-1)
        widest = len(words) - int(starts[top.min() + 1])
        while len(rows):
            take = max(1, min(block_rows, _COPY_CELLS // max(widest, 1)))
            chunk, chunk_top, rows, top = rows[:take], top[:take, None], rows[take:], top[take:]
            block_rows = min(2 * block_rows, _COPY_CELLS)
            lo = int(starts[chunk_top.min() + 1])
            tail = words[lo:]
            mask = pc[lo:] > chunk_top
            for c in covers:
                x = words[chunk[:, c]][:, None]
                mask &= (tail & x) == x
            for c in others:
                x = words[chunk[:, c]][:, None]
                mask &= ((tail & x) != x) & ((tail | x) != x) if induced else tail != x
            if after or ahead:
                positions = np.arange(lo, len(words))
                for c in after:
                    mask &= positions > chunk[:, c][:, None]
                for c in ahead:
                    mask &= positions < chunk[:, c][:, None]
            hit_row, hit_col = np.nonzero(mask)
            grown = np.column_stack((chunk[hit_row], (hit_col + lo).astype(order.dtype)))
            del mask, hit_row, hit_col
            if len(grown):
                yield from extend(grown, d + 1)

    try:
        yield from extend(np.empty((1, 0), dtype=order.dtype), 0)
    finally:
        del extend  # break extend's reference to itself, so the arrays free at once

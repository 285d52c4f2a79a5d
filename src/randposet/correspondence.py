"""The partition picture of poset copies inside the Boolean lattice.

An order-preserving map of a pattern poset into the subset lattice of
{1..n} is the same data as an ordered partition of the ground set indexed by
the pattern's antichains. This module implements both directions of that
correspondence, the upper-shadow maps it induces on antichains, partitions
and weightings, and the exact count of copies (count_copies): a sum of
surjection counts over the sets of at most n nonempty parts. The
shadow maps into every subposet at once come from the parent antichain
family alone (shadow_indices), with no per-subposet enumeration.

Ground subsets are bitmasks over n bits; partitions are tuples of such masks
aligned with an AntichainFamily (empty antichain last); weightings are numpy
vectors on the same index set.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .posets import (
    AntichainFamily,
    CapacityError,
    PosetError,
    antichains,
    induced_subposet,
    _bits,
)


class Partition:
    """An ordered partition of {1..n} indexed by a poset's antichains."""

    __slots__ = ("family", "n", "parts")

    def __init__(self, family, n, parts):
        parts = tuple(parts)
        if len(parts) != len(family):
            raise PosetError(
                "partition has %d parts but the family has %d antichains"
                % (len(parts), len(family))
            )
        full = (1 << n) - 1
        union = 0
        for mask in parts:
            if mask & ~full:
                raise PosetError("partition part uses ground elements outside 1..%d" % n)
            if mask & union:
                raise PosetError("partition parts are not disjoint")
            union |= mask
        if union != full:
            raise PosetError("partition parts do not cover the ground set")
        self.family = family
        self.n = n
        self.parts = parts

    def __eq__(self, other):
        return (
            isinstance(other, Partition)
            and self.family.masks == other.family.masks
            and self.n == other.n
            and self.parts == other.parts
        )

    def __repr__(self):
        return "Partition(n=%d, parts=%r)" % (self.n, self.parts)

    def is_starred(self):
        """True when every part is nonempty."""
        return all(p != 0 for p in self.parts)

    def nonempty_indices(self):
        """Indices of nonempty parts."""
        return [j for j, p in enumerate(self.parts) if p]

    def weighting(self):
        """Normalized part sizes as a vector on the antichain family."""
        if self.n == 0:
            raise PosetError("weighting of an empty ground set is undefined")
        return np.array([p.bit_count() for p in self.parts], dtype=float) / self.n


class CopyMap:
    """An order-preserving map from a pattern poset into subsets of {1..n}."""

    __slots__ = ("poset", "n", "images")

    def __init__(self, poset, n, images):
        images = tuple(images)
        if len(images) != poset.n:
            raise PosetError("expected %d images, got %d" % (poset.n, len(images)))
        full = (1 << n) - 1
        for mask in images:
            if mask & ~full:
                raise PosetError("image uses ground elements outside 1..%d" % n)
        # Containment is transitive, so the covering relations suffice.
        for i, j in poset.covers:
            if images[i] & ~images[j]:
                raise PosetError(
                    "map is not order-preserving at %s < %s" % (poset.label(i), poset.label(j))
                )
        self.poset = poset
        self.n = n
        self.images = images

    def __eq__(self, other):
        return (
            isinstance(other, CopyMap)
            and self.poset == other.poset
            and self.n == other.n
            and self.images == other.images
        )

    def __repr__(self):
        return "CopyMap(n=%d, images=%r)" % (self.n, self.images)

    def is_injective(self):
        """True when all images are distinct."""
        return len(set(self.images)) == len(self.images)

    def is_induced(self):
        """True when the map is injective and reflects incomparability."""
        if not self.is_injective():
            return False
        p = self.poset
        for i in range(p.n):
            for j in range(i + 1, p.n):
                if not p.comparable(i, j):
                    a, b = self.images[i], self.images[j]
                    if a & ~b == 0 or b & ~a == 0:
                        return False
        return True

    def restrict(self, q_mask):
        """The map restricted to the induced subposet on q_mask."""
        sub = induced_subposet(self.poset, q_mask)
        return CopyMap(sub, self.n, tuple(self.images[e] for e in sub.parent_elements))


def _down_meeting_indices(family):
    """For each pattern element, the antichain indices meeting its down-set.

    An antichain meets the down-set of i exactly when i lies in its up-set.
    """
    out = [0] * family.poset.n
    for j, up in enumerate(family.upsets):
        for i in _bits(up):
            out[i] |= 1 << j
    return out


def copy_of_partition(family, partition):
    """Turn a partition into the order-preserving map it encodes.

    Each part joins the images of the up-set of its antichain, so pattern
    element i receives the union of all parts whose antichain meets the
    down-set of i. Starred partitions produce induced copies.
    """
    if partition.family is not family and partition.family.masks != family.masks:
        raise PosetError("partition is indexed by a different antichain family")
    poset = family.poset
    images = [0] * poset.n
    for elements, part in zip(family.upset_elements, partition.parts):
        if part:
            for i in elements:
                images[i] |= part
    return CopyMap(poset, partition.n, images)


def partition_of_copy(family, copy):
    """Recover the partition encoding an order-preserving map.

    Inverts copy_of_partition: the pattern elements whose images hold a
    ground element form an up-set, and the element belongs to the part of
    that up-set's antichain of minima. So the part of antichain S is what
    lies in every image over up(S) and in no other image.
    """
    poset = family.poset
    if copy.poset != poset:
        raise PosetError("copy map belongs to a different poset")
    full = (1 << copy.n) - 1
    images = copy.images
    complements = [~image for image in images]
    parts = []
    for up in family.upsets:
        part = full
        for i in range(poset.n):
            part &= images[i] if up >> i & 1 else complements[i]
        parts.append(part)
    return Partition(family, copy.n, parts)


# -- shadows -----------------------------------------------------------------


def shadow_antichain(poset, q_mask, s_mask):
    """Upper shadow of an antichain into a subset of elements.

    The minimal elements, within q_mask, of everything lying at or above
    s_mask. The result is an antichain of the induced sub-order on q_mask.
    """
    if not poset.is_antichain(s_mask):
        raise PosetError("shadow input is not an antichain")
    reach = poset.upset_of(s_mask) & q_mask
    out = 0
    for i in _bits(reach):
        if not poset.below[i] & reach:
            out |= 1 << i
    return out


# Cells of the subposet rows that shadow_indices handles at once: each
# (rows x antichains) temporary takes 128 or 256 KiB. Larger blocks build no
# faster and raise a process's peak RSS (by about 3 MiB at 2^18 cells).
_BLOCK_CELLS = 1 << 15


def _union_tables(above, dtype):
    """One union table per byte of element indices.

    Table k has 256 entries; entry b is the union of above[8k + i] over the
    bits i of b.
    """
    tables = []
    for base in range(0, len(above) or 1, 8):
        table = np.zeros(256, dtype=dtype)
        for i, up in enumerate(above[base : base + 8]):
            table[1 << i : 2 << i] = table[: 1 << i] | up
        tables.append(table)
    return tables


def _above_union(masks, tables):
    """Elementwise union of above[i] over the elements i of each mask: one gather per byte."""
    out = tables[0][masks & 255]
    for k, table in enumerate(tables[1:], 1):
        byte = masks >> 8 * k
        byte &= 255
        out |= table[byte]
    return out


def shadow_indices(family, q_masks):
    """Shadow index of every parent antichain in every subposet in q_masks.

    Returns (sigma, counts). Row r of sigma maps each parent antichain to the
    position of its shadow in the antichain family of the subposet induced on
    q_masks[r], and counts[r] is that family's length. Both come from the
    parent family alone: the antichains of the subposet on Q are the parent
    antichains inside Q in the same order (depth-first lexicographic order
    survives restriction, and the empty antichain stays last in both), so a
    shadow's index is its rank among them. A shadow is the part of
    up(S) ∩ Q that lies above nothing else in it; the union of the up-sets
    above it comes from one 256-entry table per byte of element indices.
    """
    poset = family.poset
    dtype = np.int32 if poset.n < 32 else np.int64
    tables = _union_tables(poset.above, dtype)
    masks = np.array(family.masks, dtype=dtype)
    upsets = masks | _above_union(masks, tables)
    order = np.argsort(masks)
    sorted_masks = masks[order]
    q_masks = np.asarray(q_masks, dtype=dtype)
    sigma = np.empty((len(q_masks), len(masks)), dtype=np.intp)
    counts = np.empty(len(q_masks), dtype=np.intp)
    rows = max(1, _BLOCK_CELLS // len(masks))
    for start in range(0, len(q_masks), rows):
        block = slice(start, start + rows)
        q = q_masks[block, None]
        reach = upsets & q
        shadow = reach & ~_above_union(reach, tables)
        parent_pos = order[np.searchsorted(sorted_masks, shadow)]
        rank = np.cumsum((masks & ~q) == 0, axis=1, dtype=np.int32)
        sigma[block] = np.take_along_axis(rank, parent_pos, axis=1) - 1
        counts[block] = rank[:, -1]
    return sigma, counts


class ShadowMap:
    """Shadow data for one subposet of a parent family.

    ``sigma`` (from shadow_indices) sends each parent antichain to the index
    of its shadow within ``subfamily``, the antichains of ``subposet``.
    """

    __slots__ = ("family", "q_mask", "subposet", "subfamily", "sigma")

    def __init__(self, family, q_mask):
        self.family = family
        self.q_mask = q_mask
        self.subposet = induced_subposet(family.poset, q_mask)
        self.subfamily = antichains(self.subposet)
        self.sigma = shadow_indices(family, [q_mask])[0][0]

    def push_weighting(self, alpha):
        """Accumulate a parent weighting onto the subposet's antichains."""
        alpha = np.asarray(alpha, dtype=float)
        return np.bincount(self.sigma, weights=alpha, minlength=len(self.subfamily))

    def push_partition(self, partition):
        """Accumulate a parent partition onto the subposet's antichains."""
        parts = [0] * len(self.subfamily)
        for j, mask in enumerate(partition.parts):
            parts[self.sigma[j]] |= mask
        return Partition(self.subfamily, partition.n, parts)


def shadow_weighting(family, q_mask, alpha):
    """Weighting induced on the subposet q_mask by a parent weighting."""
    return ShadowMap(family, q_mask).push_weighting(alpha)


def shadow_partition(family, q_mask, partition):
    """Partition induced on the subposet q_mask by a parent partition."""
    return ShadowMap(family, q_mask).push_partition(partition)


# -- exact copy counting ------------------------------------------------------

_MODES = ("weak", "injective", "induced")

# The most sets of nonempty parts count_copies visits. A pattern with m
# antichains needs at most 2^m, so every pattern with m <= 26 is counted at
# any n.
_MAX_PART_SETS = 1 << 26


def surjection_count(n, k):
    """Number of surjections from an n-set onto a k-set."""
    if k < 0:
        raise PosetError("negative part count")
    total = 0
    for i in range(k + 1):
        total += (-1) ** i * math.comb(k, i) * (k - i) ** n
    return total


def starred_count(m, n):
    """Number of ordered partitions of {1..n} into m labelled nonempty parts."""
    return surjection_count(n, m)


def count_copies(pattern, n, mode="injective"):
    """Count order-preserving maps of a pattern into subsets of {1..n}.

    Modes: "weak" counts all order-preserving maps, "injective" those with
    pairwise distinct images, "induced" those that also reflect
    incomparability. Weak maps are in bijection with partitions, so there
    are m^n of them for m antichains. Otherwise the count runs over the sets
    of nonempty parts: whether a partition gives a valid copy depends only
    on which parts are nonempty, and a set of k parts is the support of
    surjection_count(n, k) partitions, none when k > n. CapacityError is
    raised up front when there are more than 2^26 sets of at most n parts.
    """
    if mode not in _MODES:
        raise PosetError("mode must be one of %s" % (_MODES,))
    if n < 0:
        raise PosetError("ground set size must be >= 0, got %d" % n)
    family = antichains(pattern)
    m = len(family)
    if mode == "weak":
        return m ** n
    top = min(n, m)
    part_sets = sum(math.comb(m, k) for k in range(top + 1))
    if part_sets > _MAX_PART_SETS:
        raise CapacityError(
            "copy count over %d sets of nonempty parts exceeds 2^26" % part_sets
        )
    sel = _down_meeting_indices(family)
    pairs = [
        (sel[i], sel[k], pattern.comparable(i, k))
        for i in range(pattern.n)
        for k in range(i + 1, pattern.n)
    ]
    induced = mode == "induced"
    total = 0
    for k in range(top + 1):
        ways = 0
        for parts in itertools.combinations(range(m), k):
            t = sum(1 << j for j in parts)
            for si, sk, comp in pairs:
                xi = si & t
                xk = sk & t
                if xi == xk or (induced and not comp and (xi & ~xk == 0 or xk & ~xi == 0)):
                    break
            else:
                ways += 1
        total += ways * surjection_count(n, k)
    return total


# -- weighted partition counting ---------------------------------------------


def count_weighted_partitions(alpha, n, eps):
    """Count partitions whose normalized part sizes lie within eps of alpha.

    Returns (exact count, entropy rate): the exact multinomial sum over all
    integer compositions of n inside the eps-box around n*alpha, and the
    first-order exponent n*H(alpha) it approximates.
    """
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < -1e-12):
        raise PosetError("weighting has a negative coordinate")
    if abs(float(alpha.sum()) - 1.0) > 1e-9:
        raise PosetError("weighting does not sum to 1")
    m = len(alpha)
    lo = [max(0, math.ceil(n * (a - eps) - 1e-9)) for a in alpha]
    hi = [min(n, math.floor(n * (a + eps) + 1e-9)) for a in alpha]
    if any(l > h for l, h in zip(lo, hi)):
        raise PosetError("no integer composition of %d lies within eps of alpha" % n)
    suffix_lo = [0] * (m + 1)
    suffix_hi = [0] * (m + 1)
    for j in range(m - 1, -1, -1):
        suffix_lo[j] = suffix_lo[j + 1] + lo[j]
        suffix_hi[j] = suffix_hi[j + 1] + hi[j]

    def rec(j, remaining, ways):
        if j == m:
            return ways if remaining == 0 else 0
        total = 0
        for k in range(lo[j], hi[j] + 1):
            rest = remaining - k
            if rest < suffix_lo[j + 1] or rest > suffix_hi[j + 1]:
                continue
            total += rec(j + 1, rest, ways * math.comb(remaining, k))
        return total

    count = rec(0, n, 1)
    if count == 0:
        raise PosetError("no integer composition of %d lies within eps of alpha" % n)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(alpha > 0, -alpha * np.log(np.where(alpha > 0, alpha, 1.0)), 0.0)
    return count, float(n * terms.sum())

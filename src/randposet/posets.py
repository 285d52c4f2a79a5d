"""Finite posets on small ground sets, stored as strict-order bitmask rows.

Elements are integers 0..n-1. For each element i the poset keeps two masks:
``above[i]`` (everything strictly greater than i) and ``below[i]`` (everything
strictly less). All relations are transitively closed at construction time.

The module also provides the catalog of named posets used on the command
line, a tiny text format for user-defined posets, antichain enumeration, the
standard constructions (reversal, disjoint union, lexicographic product,
tower gluing), and one copy search, copy_blocks: a blockwise numpy search for
the copies of a pattern among distinct subset words. Over a host's down-set
masks it finds copies of one poset inside another, automorphisms and
isomorphisms, for hosts of at most 64 elements.
"""

from __future__ import annotations

import numpy as np


DEFAULT_ANTICHAIN_CAP = 10 ** 7


class PosetError(Exception):
    """Base class for errors raised by this package."""


class CapacityError(PosetError):
    """An enumeration or computation would exceed its configured cap."""


class OrderCycleError(PosetError):
    """The given relations contain a cycle, so no strict order exists."""

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__("relations contain a cycle: " + " < ".join(map(str, self.cycle)))


class DslError(PosetError):
    """A poset description file failed to parse."""

    def __init__(self, message, line_no):
        self.line_no = line_no
        super().__init__("line %d: %s" % (line_no, message))


def _bits(mask):
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure_from_relations(n, relations):
    """Transitively close a relation list, or raise OrderCycleError."""
    above = [0] * n
    for a, b in relations:
        if not (0 <= a < n and 0 <= b < n):
            raise PosetError("relation (%r, %r) out of range for n=%d" % (a, b, n))
        if a == b:
            raise OrderCycleError([a, a])
        above[a] |= 1 << b
    # Floyd-Warshall style closure on bitmask rows.
    for k in range(n):
        row_k = above[k]
        bit_k = 1 << k
        for i in range(n):
            if above[i] & bit_k:
                above[i] |= row_k
    for i in range(n):
        if above[i] >> i & 1:
            raise OrderCycleError(_witness_cycle(n, relations, i))
    return above


def _witness_cycle(n, relations, start):
    """Recover one explicit cycle through ``start`` in the raw relations."""
    adj = [[] for _ in range(n)]
    for a, b in relations:
        adj[a].append(b)
    path = [start]
    seen = {start}
    while True:
        cur = path[-1]
        advanced = False
        for nxt in adj[cur]:
            if nxt == start:
                return path + [start]
            if nxt not in seen:
                seen.add(nxt)
                path.append(nxt)
                advanced = True
                break
        if not advanced:
            path.pop()
            if not path:
                return [start, start]


class Poset:
    """An immutable finite poset with a strict order on 0..n-1."""

    __slots__ = ("n", "above", "below", "labels", "parent_elements", "_hash")

    def __init__(self, n, relations=(), labels=None, _above=None):
        self.n = n
        if _above is None:
            above = _closure_from_relations(n, list(relations))
        else:
            above = list(_above)
        self.above = tuple(above)
        below = [0] * n
        for i in range(n):
            for j in _bits(above[i]):
                below[j] |= 1 << i
        self.below = tuple(below)
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise PosetError("expected %d labels, got %d" % (n, len(labels)))
        self.labels = labels
        self.parent_elements = None
        self._hash = hash((n, self.above))

    # -- basic queries ----------------------------------------------------

    def __len__(self):
        return self.n

    def __eq__(self, other):
        return isinstance(other, Poset) and self.n == other.n and self.above == other.above

    def __hash__(self):
        return self._hash

    def __repr__(self):
        rels = ["%s<%s" % (self.label(i), self.label(j)) for i, j in self.cover_pairs()]
        return "Poset(n=%d, covers=[%s])" % (self.n, ", ".join(rels))

    def label(self, i):
        """Human-readable name of element i."""
        return self.labels[i] if self.labels else str(i)

    def lt(self, i, j):
        """True when i is strictly below j."""
        return bool(self.above[i] >> j & 1)

    def comparable(self, i, j):
        """True when i and j are related in either direction."""
        return i == j or self.lt(i, j) or self.lt(j, i)

    def full_mask(self):
        """Bitmask of all elements."""
        return (1 << self.n) - 1

    def incomparable_mask(self, i):
        """Mask of elements incomparable to i (excluding i itself)."""
        return self.full_mask() & ~(self.above[i] | self.below[i] | (1 << i))

    def down_mask(self, i):
        """Mask of the down-set of i, including i."""
        return self.below[i] | (1 << i)

    def up_mask(self, i):
        """Mask of the up-set of i, including i."""
        return self.above[i] | (1 << i)

    def upset_of(self, mask):
        """Mask of everything >= some element of mask."""
        out = 0
        for i in _bits(mask):
            out |= self.up_mask(i)
        return out

    def minimal_elements(self, mask=None):
        """Minimal elements of the induced sub-order on mask (default: all)."""
        if mask is None:
            mask = self.full_mask()
        return [i for i in _bits(mask) if not self.below[i] & mask]

    def maximal_elements(self, mask=None):
        """Maximal elements of the induced sub-order on mask (default: all)."""
        if mask is None:
            mask = self.full_mask()
        return [i for i in _bits(mask) if not self.above[i] & mask]

    def is_bounded(self):
        """True when the poset has a unique minimum and a unique maximum."""
        return self.n > 0 and len(self.minimal_elements()) == 1 and len(self.maximal_elements()) == 1

    def cover_pairs(self):
        """List of covering relations (i, j) with i < j and nothing between."""
        out = []
        for i in range(self.n):
            for j in _bits(self.above[i]):
                if not (self.above[i] & self.below[j]):
                    out.append((i, j))
        return out

    def is_antichain(self, mask):
        """True when the elements of mask are pairwise incomparable."""
        for i in _bits(mask):
            if self.above[i] & mask:
                return False
        return True

    def relation_count(self):
        """Number of strictly ordered pairs."""
        return sum(m.bit_count() for m in self.above)


# -- antichain enumeration ------------------------------------------------


class AntichainFamily:
    """All antichains of a poset in a fixed order, the empty one last.

    Nonempty antichains are listed in depth-first lexicographic order of
    their sorted element sequences; the empty antichain closes the list.
    Weightings over antichains index into this order throughout the package.
    """

    __slots__ = ("poset", "masks", "index", "_upsets", "_upset_elements")

    def __init__(self, poset, masks):
        self.poset = poset
        self.masks = tuple(masks)
        self.index = {m: k for k, m in enumerate(self.masks)}
        self._upsets = None
        self._upset_elements = None

    @property
    def upsets(self):
        """The up-set mask of each antichain, in family order; computed on first use."""
        if self._upsets is None:
            self._upsets = tuple(self.poset.upset_of(s) for s in self.masks)
        return self._upsets

    @property
    def upset_elements(self):
        """The elements of each antichain's up-set, ascending, in family order; computed on first use."""
        if self._upset_elements is None:
            self._upset_elements = tuple(tuple(_bits(up)) for up in self.upsets)
        return self._upset_elements

    def __len__(self):
        return len(self.masks)

    def __iter__(self):
        return iter(self.masks)

    def __getitem__(self, k):
        return self.masks[k]

    def position(self, mask):
        """Index of an antichain mask within the family."""
        return self.index[mask]


def antichains(poset, cap=DEFAULT_ANTICHAIN_CAP):
    """Enumerate every antichain of a poset into an AntichainFamily."""
    out = []
    n = poset.n
    inc = [poset.incomparable_mask(i) for i in range(n)]

    def extend(mask, candidates):
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            i = low.bit_length() - 1
            new = mask | low
            out.append(new)
            if len(out) > cap:
                raise CapacityError("more than %d antichains (cap exceeded)" % cap)
            extend(new, candidates & inc[i])

    extend(0, poset.full_mask())
    out.append(0)
    if len(out) > cap:
        raise CapacityError("more than %d antichains (cap exceeded)" % cap)
    return AntichainFamily(poset, out)


def antichain_count(poset, cap=DEFAULT_ANTICHAIN_CAP):
    """Number of antichains, including the empty one."""
    return len(antichains(poset, cap=cap))


# -- constructions ---------------------------------------------------------


def induced_subposet(poset, elements):
    """Restrict a poset to a subset of elements, remembering their origin.

    ``elements`` is a bitmask or an iterable of element indices. The result's
    element k corresponds to parent element ``result.parent_elements[k]``.
    """
    if isinstance(elements, int):
        keep = list(_bits(elements))
    else:
        keep = sorted(set(elements))
    pos = {e: k for k, e in enumerate(keep)}
    for e in keep:
        if not 0 <= e < poset.n:
            raise PosetError("element %r not in poset" % (e,))
    above = [0] * len(keep)
    for k, e in enumerate(keep):
        for j in _bits(poset.above[e]):
            if j in pos:
                above[k] |= 1 << pos[j]
    labels = tuple(poset.label(e) for e in keep) if poset.labels else None
    sub = Poset(len(keep), labels=labels, _above=above)
    sub.parent_elements = tuple(keep)
    return sub


def reverse(poset):
    """The order-reversed poset on the same elements."""
    rev = Poset(poset.n, labels=poset.labels, _above=poset.below)
    return rev


def disjoint_union(*posets):
    """Place posets side by side with no relations between them."""
    n = sum(p.n for p in posets)
    above = []
    offset = 0
    labels = []
    labelled = any(p.labels for p in posets)
    for idx, p in enumerate(posets):
        for i in range(p.n):
            above.append(p.above[i] << offset)
            labels.append("%s.%s" % (idx, p.label(i)))
        offset += p.n
    out = Poset(n, labels=labels if labelled else None, _above=above)
    return out


def lex_product(left, right):
    """Lexicographic product: compare by left, break ties by right."""
    n = left.n * right.n

    def idx(a, x):
        return a * right.n + x

    above = [0] * n
    for a in range(left.n):
        for x in range(right.n):
            m = 0
            for b in _bits(left.above[a]):
                m |= ((1 << right.n) - 1) << (b * right.n)
            for y in _bits(right.above[x]):
                m |= 1 << idx(a, y)
            above[idx(a, x)] = m
    return Poset(n, _above=above)


def tower(lower, upper):
    """Glue the unique maximum of ``lower`` onto the unique minimum of ``upper``.

    Every element of the lower poset ends up below every element of the upper
    poset, with the two glued elements identified.
    """
    lower_max = lower.maximal_elements()
    upper_min = upper.minimal_elements()
    if len(lower_max) != 1:
        raise PosetError("tower needs a unique maximal element in the lower poset")
    if len(upper_min) != 1:
        raise PosetError("tower needs a unique minimal element in the upper poset")
    glue_low = lower_max[0]
    glue_high = upper_min[0]
    # Lower elements keep their indices; upper elements (minus its minimum)
    # follow, and the glued pair shares the lower poset's index.
    mapping = {}
    nxt = lower.n
    for x in range(upper.n):
        if x == glue_high:
            mapping[x] = glue_low
        else:
            mapping[x] = nxt
            nxt += 1
    relations = list(lower.cover_pairs())
    for x, y in upper.cover_pairs():
        relations.append((mapping[x], mapping[y]))
    for i in range(lower.n):
        if i != glue_low:
            relations.append((i, glue_low))
    return Poset(nxt, relations=relations)


def connected_components(poset):
    """Element masks of the comparability-graph components, sorted."""
    seen = 0
    comps = []
    for s in range(poset.n):
        if seen >> s & 1:
            continue
        comp = 1 << s
        frontier = comp
        while frontier:
            nxt = 0
            for i in _bits(frontier):
                nxt |= poset.above[i] | poset.below[i]
            nxt &= ~comp
            comp |= nxt
            frontier = nxt
        seen |= comp
        comps.append(comp)
    return comps


# -- copy search ---------------------------------------------------------------


def _signature(poset, i):
    """Cheap isomorphism-invariant fingerprint of one element."""
    return (poset.below[i].bit_count(), poset.above[i].bit_count())


# Cells (partial copies x candidate words) in one mask of copy_blocks.
_COPY_CELLS = 1 << 16


def copy_blocks(words, pattern, induced=False, before=()):
    """Yield, in blocks, the copies of a pattern in an array of distinct words.

    A copy maps the pattern's elements to distinct words, x < y to a strict
    subset and, when induced, incomparable elements to incomparable words.
    Each block holds one row per copy: indices into ``words``, columns
    aligned to pattern elements, rows in lexicographic order of placement.
    The search places the elements depth first, in a linear extension by
    down-set size, over the popcount-sorted words. One block size doubles
    from a single row across the whole search up to _COPY_CELLS cells, so
    the first copy costs about what a row-at-a-time search costs.

    ``before`` holds order conditions, pairs (u, v) of pattern elements: only
    copies where the image of u comes before the image of v in the
    popcount-sorted word order are yielded. Each is checked at the step that
    places the later of u and v; with none, every copy is yielded.
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


def _host_copies(host, pattern, induced, within=None):
    """Yield, in blocks, the copies of pattern in host, as rows of host elements.

    The words are the down-set masks of the elements of ``within`` (default:
    all), so x < y exactly when down(x) is a strict subset of down(y).
    """
    if host.n > 64:
        raise CapacityError("host has %d elements; the copy search takes at most 64" % host.n)
    elems = np.array(list(_bits(host.full_mask() if within is None else within)), dtype=np.intp)
    words = np.array([host.down_mask(i) for i in elems.tolist()], dtype=np.uint64)
    for block in copy_blocks(words, pattern, induced):
        yield elems[block]


def contains_copy(host, pattern, induced=False, within=None):
    """Find one copy of pattern in host; returns the image tuple or None.

    The returned tuple lists, for each pattern element in index order, the
    host element it maps to. Weak copies preserve strict order; induced
    copies also reflect incomparability. Hosts have at most 64 elements.
    """
    block = next(_host_copies(host, pattern, induced, within), None)
    return None if block is None else tuple(block[0].tolist())


def automorphisms(poset):
    """All order-preserving self-bijections, as index tuples."""
    return [row for block in _host_copies(poset, poset, True) for row in map(tuple, block.tolist())]


def reverse_automorphisms(poset):
    """All order-reversing self-bijections, as index tuples.

    Each returned tuple ``psi`` satisfies: i < j exactly when psi(j) < psi(i).
    The list is empty when the poset is not self-dual.
    """
    rev = reverse(poset)
    return [row for block in _host_copies(poset, rev, True) for row in map(tuple, block.tolist())]


def is_isomorphic(left, right):
    """True when two posets are order-isomorphic."""
    if left.n != right.n or left.relation_count() != right.relation_count():
        return False
    if sorted(map(lambda i: _signature(left, i), range(left.n))) != sorted(
        map(lambda i: _signature(right, i), range(right.n))
    ):
        return False
    return contains_copy(right, left, induced=True) is not None


# -- the catalog ------------------------------------------------------------


def chain(t):
    """Total order on t elements."""
    if t < 1:
        raise PosetError("chain length must be >= 1")
    return Poset(t, [(i, i + 1) for i in range(t - 1)])


def antichain_poset(t):
    """t pairwise incomparable elements."""
    if t < 1:
        raise PosetError("antichain size must be >= 1")
    return Poset(t)


def layered(sizes):
    """Stacked antichains: every element below every element of later layers."""
    sizes = list(sizes)
    if not sizes or any(s < 1 for s in sizes):
        raise PosetError("layer sizes must be positive")
    n = sum(sizes)
    relations = []
    start = 0
    starts = []
    for s in sizes:
        starts.append(start)
        start += s
    for k in range(len(sizes) - 1):
        for i in range(starts[k], starts[k] + sizes[k]):
            for j in range(starts[k + 1], starts[k + 1] + sizes[k + 1]):
                relations.append((i, j))
    return Poset(n, relations)


def boolean_lattice(d):
    """All subsets of a d-element set ordered by inclusion.

    Element i is the subset with characteristic bitmask i, so the order is
    "i's bits are a subset of j's bits".
    """
    if d < 0:
        raise PosetError("dimension must be >= 0")
    n = 1 << d
    above = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and i & j == i:
                above[i] |= 1 << j
    return Poset(n, _above=above)


def blowup(layers, t):
    """Chain of ``layers`` antichains of size t each."""
    return layered([t] * layers)


def vee():
    """One minimum below two incomparable elements."""
    return Poset(3, [(0, 1), (0, 2)], labels=("A", "B", "C"))


def wedge():
    """Two incomparable elements below one maximum (the reverse of vee)."""
    return Poset(3, [(0, 2), (1, 2)], labels=("A", "B", "C"))


def wedge_prime():
    """The wedge with a private lower cover added under each of its feet."""
    # A, B below C; D below A; E below B.
    return Poset(5, [(0, 2), (1, 2), (3, 0), (4, 1)], labels=("A", "B", "C", "D", "E"))


def y_poset():
    """A 2-chain whose top splits into two incomparable leaves."""
    return Poset(4, [(0, 1), (1, 2), (1, 3)], labels=("A", "B", "C", "D"))


def y_prime():
    """The Y with an extra 2-chain grown from its root."""
    return Poset(
        6,
        [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5)],
        labels=("A", "B", "C", "D", "E", "F"),
    )


def y_double_prime():
    """The Y' hung above the top of a 4-chain's prefix."""
    return Poset(
        10,
        [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (6, 0), (6, 7), (7, 8), (8, 9)],
        labels=("A", "B", "C", "D", "E", "F", "G", "H", "I", "J"),
    )


def binary_tree_2():
    """Depth-2 rooted binary tree as a poset (root at the bottom)."""
    return Poset(
        7,
        [(0, 1), (1, 2), (1, 3), (0, 4), (4, 5), (4, 6)],
        labels=("A", "B", "C", "D", "E", "F", "G"),
    )


def fish():
    """The depth-2 binary tree with one leaf of each branch identified."""
    # Root A; branch B with leaves C, D; branch E with leaves D, F.
    return Poset(
        6,
        [(0, 1), (1, 2), (1, 3), (0, 4), (4, 3), (4, 5)],
        labels=("A", "B", "C", "D", "E", "F"),
    )


def double_diamond():
    """Two diamonds sharing a middle antichain, with one cross relation removed.

    Concretely: bottom below m1, m2; m1 below v1, v2; m2 below v2 only;
    v1, v2 below top.
    """
    return Poset(
        6,
        [(0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (3, 5), (4, 5)],
        labels=("bottom", "m1", "m2", "v1", "v2", "top"),
    )


def diamond():
    """One minimum, two incomparable middles, one maximum."""
    return layered([1, 2, 1])


_CATALOG_BUILDERS = {
    "v": vee,
    "lambda": wedge,
    "lambda'": wedge_prime,
    "y": y_poset,
    "y'": y_prime,
    "y''": y_double_prime,
    "t2": binary_tree_2,
    "fish": fish,
    "dd": double_diamond,
    "diamond": diamond,
}


def catalog(spelling):
    """Build a named poset from a catalog spelling.

    Accepted forms (case-insensitive): ``chain:T``, ``antichain:T``,
    ``layered:N1,N2,...``, ``boolean:D``, ``blowup:L,T`` and the fixed names
    V, lambda, lambda', Y, Y', Y'', T2, fish, DD, diamond.
    """
    text = spelling.strip().lower()
    if text in _CATALOG_BUILDERS:
        return _CATALOG_BUILDERS[text]()
    if ":" in text:
        head, _, tail = text.partition(":")
        try:
            args = [int(x) for x in tail.split(",") if x.strip() != ""]
        except ValueError:
            raise PosetError("bad catalog arguments in %r" % spelling)
        if head == "chain" and len(args) == 1:
            return chain(args[0])
        if head == "antichain" and len(args) == 1:
            return antichain_poset(args[0])
        if head == "layered" and args:
            return layered(args)
        if head == "boolean" and len(args) == 1:
            return boolean_lattice(args[0])
        if head == "blowup" and len(args) == 2:
            return blowup(args[0], args[1])
    raise PosetError("unknown catalog poset %r" % spelling)


# -- the text format ---------------------------------------------------------


def parse_dsl(text):
    """Parse a poset description: one ``x < y`` per line, bare names allowed.

    Element order follows first appearance. Blank lines and ``#`` comments
    are ignored. Raises DslError on malformed lines and OrderCycleError when
    the stated relations admit no strict order.
    """
    names = []
    seen = {}

    def intern(name, line_no):
        if not name:
            raise DslError("empty element name", line_no)
        if name not in seen:
            seen[name] = len(names)
            names.append(name)
        return seen[name]

    relations = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "<" in line:
            parts = [p.strip() for p in line.split("<")]
            if len(parts) < 2 or any(not p for p in parts):
                raise DslError("expected 'name < name'", line_no)
            ids = [intern(p, line_no) for p in parts]
            for a, b in zip(ids, ids[1:]):
                if a == b:
                    raise OrderCycleError([names[a], names[a]])
                relations.append((a, b))
        else:
            if any(ch.isspace() for ch in line):
                raise DslError("expected 'name < name' or a bare name", line_no)
            intern(line, line_no)
    try:
        return Poset(len(names), relations, labels=names)
    except OrderCycleError as err:
        raise OrderCycleError([names[i] for i in err.cycle])


def load_poset(path):
    """Read a poset description file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_dsl(fh.read())


def parse_poset_arg(arg):
    """Resolve a CLI poset argument: catalog spelling first, then file path."""
    try:
        return catalog(arg)
    except PosetError:
        pass
    import os

    if os.path.exists(arg):
        return load_poset(arg)
    raise PosetError(
        "%r is neither a catalog poset (chain:T, boolean:D, layered:..., V, "
        "lambda, Y, T2, fish, DD, diamond, ...) nor a readable file" % arg
    )

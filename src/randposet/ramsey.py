"""Arrow relations, Ramsey exponent bounds, and CNF avoidance encodings.

A host poset arrows a pattern pair when every red/blue colouring of its
elements leaves a red copy of the first pattern or a blue copy of the
second (weak subposet copies by default). Each arrow question becomes a CNF
over one variable per host element, one clause per copy that
posets.copy_blocks finds among the host's down-set masks, solved by an
embedded CDCL solver that propagates on clause bitmasks in numpy.
Avoidance in subset lattices is encoded the same way. The copy search
meets one map per orbit of the pattern's automorphisms, not one per
automorphism: order conditions from the stabiliser chain of the group pick
it, and numpy drops the image sets that weak copies still repeat.

Ramsey threshold exponents are bracketed by c* values: a host that arrows
the pair gives a lower bound, a colouring of the random poset that avoids it
an upper bound. For single patterns the lexicographic product is the generic
host and the tower the one colouring construction; two chains are exact by
pigeonhole. Everything else the paper knows sits in one table,
``_KNOWN_HOSTS``, matched up to colour swap and order reversal.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from .posets import (
    CapacityError,
    Poset,
    PosetError,
    antichains,
    automorphisms,
    boolean_lattice,
    catalog,
    contains_copy,
    copy_blocks,
    is_isomorphic,
    lex_product,
    reverse,
    tower,
)
from . import threshold

ARROW_SIZE_CAP = 24
# Bound on m^d, which bounds the copies in a d-cube of a pattern with m antichains.
SCAN_GUARD = 10 ** 9
# Copy rows held before _copy_images drops repeats (1 MB at width 8).
_HELD_ROWS = 1 << 15


def _family(patterns):
    """Normalize a poset or an iterable of posets to a list."""
    if isinstance(patterns, Poset):
        return [patterns]
    out = list(patterns)
    if not out or not all(isinstance(p, Poset) for p in out):
        raise PosetError("expected a poset or a nonempty list of posets")
    return out


def _with_conditions(patterns):
    """Each pattern paired with its ``_orbit_conditions``, built once."""
    return [(pat, _orbit_conditions(pat)) for pat in patterns]


def _decide_arrow(words, firsts, seconds, induced):
    """Decide an arrow through the avoidance CNF of the host with elements words.

    firsts and seconds are (pattern, orbit conditions) pairs, as from
    ``_with_conditions``. One clause per copy: no first-family copy all in
    colour 1, no second one all in colour 2. Returns (True, None) or
    (False, witness colouring).
    """
    blocks = [(sign, _copy_images(words, side, induced)) for sign, side in ((-1, firsts), (1, seconds))]
    res = solve_cnf(_avoidance_cnf(len(words), blocks))
    if res.status == "unsat":
        return True, None
    return False, assignment_to_colouring(res.assignment, len(words))


def arrows(host, first, second, induced=False):
    """Decide whether every 2-colouring of the host yields a monochromatic copy.

    ``first`` and ``second`` may each be a poset or a family (list) of
    posets; colour 1 hosts the first, colour 2 the second. The question is
    the avoidance CNF over the host's copies, solved by the embedded solver.
    Returns (True, None) when it is unsatisfiable, else (False, witness)
    where the witness is a satisfying colouring: a tuple assigning 1 or 2 to
    each host element.
    """
    firsts = _family(first)
    seconds = _family(second)
    if host.n > ARROW_SIZE_CAP:
        raise CapacityError("host has %d elements, above the arrow cap %d" % (host.n, ARROW_SIZE_CAP))
    words = np.array([host.down_mask(i) for i in range(host.n)], dtype=np.int64)
    return _decide_arrow(words, _with_conditions(firsts), _with_conditions(seconds), induced)


def verify_colouring(host, colouring, first, second, induced=False):
    """Check a full colouring for monochromatic copies.

    Returns (True, None) when neither colour class contains a copy of its
    forbidden family, else (False, (side, elements)).
    """
    if len(colouring) != host.n or any(c not in (1, 2) for c in colouring):
        raise PosetError("colouring must assign 1 or 2 to every host element")
    mask1 = 0
    for i, c in enumerate(colouring):
        if c == 1:
            mask1 |= 1 << i
    for side, patterns, mask in (
        (1, _family(first), mask1),
        (2, _family(second), host.full_mask() & ~mask1),
    ):
        for pat in patterns:
            hit = contains_copy(host, pat, induced=induced, within=mask)
            if hit is not None:
                return False, (side, tuple(sorted(hit)))
    return True, None


def ramsey_number(first, second, n_max=4, induced=False):
    """Smallest lattice dimension whose subset lattice arrows the pair.

    Every dimension is decided through the avoidance CNF, as in ``arrows``
    but without its host-size cap, from one build of each pattern's orbit
    conditions; returns None when no dimension up to n_max works.
    """
    if not n_max >= 1:
        raise PosetError("n_max must be an integer >= 1, got %r" % (n_max,))
    firsts = _with_conditions(_family(first))
    seconds = _with_conditions(_family(second))
    for dim in range(1, n_max + 1):
        if _decide_arrow(np.arange(1 << dim), firsts, seconds, induced)[0]:
            return dim
    return None


# -- copy enumeration in subset lattices ---------------------------------------


def _boolean_dimension(host):
    """The dimension d when the host is the subset lattice in mask order."""
    n = host.n
    d = n.bit_length() - 1
    if n < 1 or n != 1 << d:
        raise PosetError("host is not a subset lattice (size is not a power of two)")
    if host != boolean_lattice(d):
        raise PosetError("host is not the subset lattice in mask order")
    return d


def _distinct_rows(rows):
    """The distinct rows of an array with entries >= -1, in lexicographic order.

    Runs of columns are packed into int64 keys, as many as fit in 63 bits, so
    that one sort key stands for several columns.
    """
    bits = int(rows.max(initial=0) + 1).bit_length()
    per = 63 // bits
    keys = []
    for lo in range(0, max(rows.shape[1], 1), per):
        key = np.zeros(len(rows), dtype=np.int64)
        for col in rows[:, lo : lo + per].T:
            key = key << bits | (col + 1)
        keys.append(key)
    order = np.lexsort(keys[::-1])
    repeat = np.ones(len(rows), dtype=bool)
    repeat[0:1] = False
    for key in keys:
        key = key[order]
        repeat[1:] &= key[1:] == key[:-1]
    return rows[order[~repeat]]


def _orbit_conditions(pattern):
    """Order conditions under which a copy search meets one copy per Aut-orbit.

    Pairs (u, v) for copy_blocks' ``before``, from the stabiliser chain of
    Grochow and Kellis (RECOMB 2007): take the element with the largest orbit
    (ties to the lowest index), require it to map below every other element
    of that orbit, restrict to its stabiliser, and repeat until the group is
    trivial. Aut(F) acts freely on injective maps, so of each orbit of maps
    exactly one meets every condition.
    """
    group, conditions = automorphisms(pattern), []
    while len(group) > 1:
        orbits = [sorted({g[u] for g in group}) for u in range(pattern.n)]
        u = max(range(pattern.n), key=lambda i: (len(orbits[i]), -i))
        conditions += [(u, v) for v in orbits[u] if v != u]
        group = [g for g in group if g[u] == u]
    return conditions


def _copy_images(words, searches, induced):
    """The distinct copies of any pattern among words, as rows of sorted indices.

    searches holds (pattern, orbit conditions) pairs, as from
    ``_with_conditions``. One int32 row per image set, ascending; a family of
    mixed sizes pads the shorter rows with -1 at the end. Rows come in
    lexicographic order, which is the order ``sorted`` gives the image
    tuples. The search meets one map per orbit of the pattern's
    automorphisms (``_orbit_conditions``), so images repeated through an
    automorphism are not generated. Weak copies can still repeat an image
    set through a map that is not an automorphism; those repeats are
    dropped whenever the rows held since the last pass outnumber both the
    distinct rows and _HELD_ROWS, so memory follows the distinct copies,
    not the copies met.
    """
    width = max(pat.n for pat, _ in searches)
    distinct, held, pending = np.empty((0, width), dtype=np.int32), 0, []
    for pat, before in searches:
        for block in copy_blocks(words, pat, induced, before):
            rows = np.full((len(block), width), -1, dtype=np.int32)
            rows[:, : pat.n] = np.sort(block, axis=1)
            pending.append(rows)
            held += len(rows)
            if held > max(len(distinct), _HELD_ROWS):
                distinct, held, pending = _distinct_rows(np.concatenate([distinct] + pending)), 0, []
    return _distinct_rows(np.concatenate([distinct] + pending))


def pattern_copies(host, pattern, mode="all-weak"):
    """All copies of a pattern in a subset-lattice host, as rows of an int32 array.

    Each row is a copy's image, ascending; rows are distinct and in
    lexicographic order. Modes: "all-weak" (injective order-preserving
    images), "all-induced" (also order-reflecting), "subcube" (images of
    whole coordinate subcubes; the pattern must itself be a subset lattice).
    The search meets one map per orbit of the pattern's automorphisms, so
    images repeated through an automorphism are not generated; the repeats
    weak copies still have are dropped.
    """
    d = _boolean_dimension(host)
    if mode == "subcube":
        k = pattern.n.bit_length() - 1
        if pattern.n != 1 << k or not is_isomorphic(pattern, boolean_lattice(k)):
            raise PosetError("subcube mode needs a subset-lattice pattern")
        # A subcube is its free coordinates plus a base disjoint from them,
        # so no two (free, base) pairs give the same image.
        images = []
        for free in itertools.combinations(range(d), k):
            mask = sum(1 << t for t in free)
            subs = [w for w in range(1 << d) if not w & ~mask]
            images += [tuple(base | s for s in subs) for base in range(1 << d) if not base & mask]
        return np.array(sorted(images), dtype=np.int32).reshape(-1, pattern.n)
    if mode not in ("all-weak", "all-induced"):
        raise PosetError("mode must be subcube, all-weak or all-induced")
    m = len(antichains(pattern))
    if m ** d > SCAN_GUARD:
        raise CapacityError(
            "copy bound %d^%d (antichains^dimension) exceeds the enumeration guard %d"
            % (m, d, SCAN_GUARD)
        )
    return _copy_images(np.arange(1 << d), _with_conditions([pattern]), mode == "all-induced")


def enumerate_pattern_copies(host, pattern, mode="all-weak"):
    """``pattern_copies`` as a list of sorted image tuples."""
    return list(map(tuple, pattern_copies(host, pattern, mode).tolist()))


# -- CNF machinery --------------------------------------------------------------


@dataclass(eq=False)
class CnfFormula:
    """A CNF over one boolean variable per host element, in one flat store.

    Variables are 1-based host element indices; a positive literal means the
    element gets colour 1. ``lits`` (int32, nonzero) holds every clause's
    literals back to back, and clause i is ``lits[offsets[i]:offsets[i + 1]]``
    (``offsets`` is int64, one longer than the clause count).
    """

    num_vars: int
    lits: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_clauses(cls, num_vars, clauses):
        """The formula with the given clauses, each a sequence of nonzero literals."""
        clauses = [tuple(c) for c in clauses]
        lengths = np.array([len(c) for c in clauses], dtype=np.int64)
        lits = _literal_array([l for c in clauses for l in c])
        return cls(num_vars, lits, np.concatenate(([0], np.cumsum(lengths))))

    @property
    def num_clauses(self):
        return len(self.offsets) - 1

    @property
    def clauses(self):
        """The clauses as a list of literal tuples (a copy; the store stays flat)."""
        flat = self.lits.tolist()
        return [tuple(flat[a:b]) for a, b in itertools.pairwise(self.offsets.tolist())]

    def to_dimacs(self):
        """Standard DIMACS text; a comment names the copy before each run of its clauses.

        The copy is the clause's variable set as 0-based host elements.
        """
        lengths = np.diff(self.offsets)
        parts = ["p cnf %d %d\n" % (self.num_vars, len(lengths))]
        for lo in range(0, len(lengths), _DIMACS_CLAUSES):
            # The clause before lo only tells whether clause lo opens a run.
            first, hi = max(lo - 1, 0), min(lo + _DIMACS_CLAUSES, len(lengths))
            lits = self.lits[self.offsets[first] : self.offsets[hi]]
            parts.append(_dimacs_lines(lits, lengths[first:hi], lo - first))
        return "".join(parts)


# Clauses per piece of DIMACS text written, and literals per piece read; a
# piece's arrays and Python lists live only until it is converted.
_DIMACS_CLAUSES = 1 << 12
_DIMACS_TOKENS = 1 << 15


def _dimacs_lines(lits, lengths, skip):
    """The DIMACS lines of clauses stored back to back, from clause ``skip`` on.

    A clause opens a run, and gets a ``c copy`` comment, unless the clause
    before has its length and its variables, position by position. The text
    comes from one %-format whose template has a piece per clause.
    """
    var = np.abs(lits)
    clause_of = np.repeat(np.arange(len(lengths)), lengths)
    pos = np.arange(len(lits))
    prev = pos - lengths[clause_of]  # the same position in the clause before
    differs = np.zeros(len(lits), dtype=bool)
    differs[prev >= 0] = var[prev >= 0] != var[prev[prev >= 0]]
    opens = np.ones(len(lengths), dtype=bool)
    opens[1:] = lengths[1:] != lengths[:-1]
    opens[clause_of[differs]] = True
    shown = clause_of >= skip
    lits, var, clause_of = lits[shown], var[shown], clause_of[shown] - skip
    lengths, opens = lengths[skip:], opens[skip:]
    # Values in output order: each opening clause's copy (var - 1), then its literals.
    size = lengths * (1 + opens)
    at = (np.cumsum(size) - size)[clause_of] + np.arange(len(lits)) - (np.cumsum(lengths) - lengths)[clause_of]
    values = np.empty(int(size.sum()), dtype=np.int64)
    values[at + (lengths * opens)[clause_of]] = lits
    values[at[opens[clause_of]]] = var[opens[clause_of]] - 1
    comment = {n: "c copy " + ",".join(["%d"] * n) + "\n" for n in set(lengths.tolist())}
    line = {n: " ".join(["%d"] * n) + " 0\n" for n in comment}
    template = "".join([comment[n] + line[n] if o else line[n] for n, o in zip(lengths.tolist(), opens.tolist())])
    return template % tuple(values.tolist())


def _literal_array(values):
    """Integer literals as an int32 array; PosetError for one beyond int32."""
    try:
        return np.array(values, dtype=np.int32)
    except OverflowError:
        big = next(v for v in values if not -(2 ** 31) < v < 2 ** 31)
        raise PosetError("literal %d out of range" % big) from None


def _dimacs_piece(lines, numbers):
    """The integers on some DIMACS body lines (numbered ``numbers``) as int32.

    When every token is an optional sign and digits, separated by ASCII
    whitespace, one numpy call reads them all. Otherwise, or when a literal
    is beyond int32, the lines are read again one by one, so that a bad token
    names its line and a literal out of range its value.
    """
    joined = " ".join(lines)
    if joined.isascii():
        b = np.frombuffer(joined.encode("ascii"), dtype=np.uint8)
        digit, space = (b - ord("0")) < 10, (b == ord(" ")) | ((b - ord("\t")) < 5)
        # A sign must open a token and precede a digit: numpy reads a lone
        # "-" as 0 and "- 1" as -1, which int() rejects.
        sign = ((b == ord("+")) | (b == ord("-"))) & np.append(digit[1:], False)
        sign[1:] &= space[:-1]
        if np.all(digit | space | sign):
            values = np.fromstring(joined, dtype=np.int64, sep=" ")
            if np.all((-(2 ** 31) < values) & (values < 2 ** 31)):
                return values.astype(np.int32)
    tokens = []
    for lineno, line in zip(numbers, lines):
        try:
            tokens += map(int, line.split())
        except ValueError:
            raise PosetError("DIMACS line %d is not integers: %r" % (lineno, line)) from None
    return _literal_array(tokens)


def parse_dimacs(text):
    """Read a DIMACS CNF file back into a CnfFormula (comments dropped).

    Each clause ends at its 0, so a clause may span lines and a line may hold
    several clauses; a lone 0 is the empty clause, and literals after the
    last 0 form one more clause. A ``p cnf`` header's clause count must match
    the clauses read; a file with no header takes its variable count from
    the largest literal. The loop over lines only drops comments and reads
    the header; each piece of about _DIMACS_TOKENS body tokens is converted
    in one call.
    """
    num_vars = num_clauses = None
    pieces, lines, numbers, tokens = [], [], [], 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line[0] == "c":
            continue
        if line[0] == "p":
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise PosetError("bad DIMACS header: %r" % line)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise PosetError("DIMACS line %d is not integers: %r" % (lineno, line)) from None
            continue
        lines.append(line)
        numbers.append(lineno)
        tokens += line.count(" ") + 1  # other whitespace only moves where a piece ends
        if tokens >= _DIMACS_TOKENS:
            pieces.append(_dimacs_piece(lines, numbers))
            lines, numbers, tokens = [], [], 0
    values = np.concatenate(pieces + [_dimacs_piece(lines, numbers)])
    # Clause i ends at the i-th zero, after the literals before that zero but for the i zeros.
    ends = np.flatnonzero(values == 0)
    offsets = np.concatenate(([0], ends - np.arange(len(ends))))
    lits = values[values != 0]
    if len(lits) > offsets[-1]:
        offsets = np.append(offsets, len(lits))
    if num_clauses is not None and num_clauses != len(offsets) - 1:
        raise PosetError(
            "DIMACS header announces %d clauses but the file holds %d" % (num_clauses, len(offsets) - 1)
        )
    if num_vars is None:
        num_vars = int(np.abs(lits).max(initial=0))
    return CnfFormula(num_vars, lits, offsets)


def encode_avoidance(host, pattern, mode="all-weak"):
    """CNF satisfiable iff a 2-colouring of the host avoids monochromatic copies.

    For each enumerated copy two clauses are added: at least one element of
    the copy is coloured 2 (all-negative) and at least one is coloured 1
    (all-positive).
    """
    return encode_copies(host.n, pattern_copies(host, pattern, mode=mode))


def encode_copies(num_vars, copies):
    """The avoidance CNF of copies given as rows of host elements, copy by copy.

    Each copy gives its all-negative clause, then its all-positive one.
    """
    signs = np.tile(np.array([-1, 1], dtype=np.int32), len(copies))[:, None]
    return _avoidance_cnf(num_vars, [(signs, np.repeat(copies, 2, axis=0))])


def _avoidance_cnf(num_vars, blocks):
    """The CNF with one clause per row of each (sign, images) block, in order.

    A row gives sign * (v + 1) for its entries v, dropping the -1 padding;
    sign is -1, 1 or a column of them, one per row. A negative clause forbids
    the copy all in colour 1, a positive one all in colour 2.
    """
    lits = np.concatenate([(sign * (images + 1)).ravel() for sign, images in blocks])
    lengths = np.concatenate([(images >= 0).sum(axis=1) for _, images in blocks])
    return CnfFormula(num_vars, lits[lits != 0].astype(np.int32), np.concatenate(([0], np.cumsum(lengths))))


@dataclass
class SatResult:
    """Outcome of the embedded solver: sat, unsat, or unknown on timeout.

    ``stats`` counts decisions, conflicts, propagations, restarts and learnt
    clauses. For unsat, ``learnt`` lists the learnt clauses in the order they
    were derived: each follows from the original clauses and the ones before
    it by unit propagation, and together they propagate to a conflict.
    """

    status: str
    assignment: dict = None
    stats: dict = field(default_factory=dict)
    learnt: list = None


def _luby(i):
    """The i-th term, from 1, of the Luby sequence 1, 1, 2, 1, 1, 2, 4, 1, ..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


# A pass over at most this many clauses reads their literals in Python, which
# costs less than the fixed cost of the numpy calls at that size.
_SHORT_PASS = 16
# Literals per piece of the clause store built at once.
_BUILD_LITS = 1 << 16


def _occurrences(nv, lits, lengths):
    """Each literal's clauses, in order: l's are occ[cuts[l + nv]:cuts[l + nv + 1]].

    One sort of the keys (l + nv)·clauses + clause, in int32 unless they
    pass its range.
    """
    m = len(lengths)
    itype = np.int32 if (2 * nv + 1) * m < 1 << 31 else np.int64
    occ = (lits + nv).astype(itype)
    occ *= itype(m)
    occ += np.repeat(np.arange(m, dtype=itype), lengths)
    occ.sort()
    cuts = np.searchsorted(occ, np.arange(2 * nv + 2, dtype=itype) * itype(m)).tolist()
    occ %= itype(max(m, 1))
    return occ.astype(np.int32, copy=False), cuts


def _clause_entries(lits, offsets, lengths, width):
    """A CNF's clauses as bitmask entries, one per 64-variable word a clause touches.

    Entry e holds a clause's literals in the word ew[e]: epn[0, e] has the
    bits of the positive ones, epn[1, e] those of the negative ones. Clause
    c's entries are first[c]:first[c + 1], in word order. With one word
    (width 1), entry c is clause c, and ew and first are None. The entries
    are built in pieces of about _BUILD_LITS literals, each giving its
    entries' positive bits, negative bits and words, and each clause's
    entry count.
    """
    m = len(lengths)
    parts, c = tuple([np.zeros(0, dtype=t)] for t in (np.uint64, np.uint64, np.int32, np.int64)), 0
    while c < m:  # the clauses c:d
        d = max(c + 1, int(np.searchsorted(offsets, offsets[c] + _BUILD_LITS, side="right")) - 1)
        chunk = lits[offsets[c] : offsets[d]]
        var, neg, starts = np.abs(chunk) - 1, chunk < 0, offsets[c:d] - offsets[c]
        bits = np.left_shift(np.uint64(1), (var & 63).astype(np.uint64))
        if width > 1:
            key = np.repeat(np.arange(c, d, dtype=np.int64) * width, lengths[c:d]) + var // 64
            order = np.argsort(key, kind="stable")
            key, bits, neg = key[order], bits[order], neg[order]
            starts = np.flatnonzero(np.diff(key, prepend=-1))
            parts[2].append((key[starts] % width).astype(np.int32))
            parts[3].append(np.bincount(key[starts] // width - c, minlength=d - c))
        parts[0].append(np.bitwise_or.reduceat(np.where(neg, 0, bits), starts))
        parts[1].append(np.bitwise_or.reduceat(bits * neg, starts))
        c = d
    epn = np.empty((2, sum(map(len, parts[0]))), dtype=np.uint64)
    for i in range(2):
        np.concatenate(parts[i], out=epn[i])
        parts[i].clear()
    if width == 1:
        return epn, None, None
    return epn, np.concatenate(parts[2]), np.concatenate(([0], np.cumsum(np.concatenate(parts[3]))))


def solve_cnf(cnf, time_budget=None):
    """Embedded CDCL solver (Een & Sorensson, SAT 2003), fully deterministic.

    A clause is stored as one bitmask entry per 64-variable word it touches:
    the word, the bits of its positive literals there and those of its
    negative ones, so the store grows with the literals, not the variables.
    When a literal becomes false, one numpy pass over the clauses that hold
    it (occurrence lists, as in GRASP) finds the units and conflicts; a pass
    over a few clauses reads their literals in Python instead. Learnt
    clauses stay Python lists with two watched literals (Chaff), so a
    literal visits only the learnt clauses that watch it. 1-UIP learning with
    non-chronological backjumps, VSIDS on a heap (ties to the lowest
    variable) with phase saving (True first), and restarts after 100 times
    the Luby sequence of conflicts. A time budget (seconds, None for none) is
    checked only when a decision is due: expiry returns "unknown", and 0
    leaves only the initial propagation. A satisfying assignment is verified
    against every clause.
    """
    if time_budget is not None and not time_budget >= 0:
        raise PosetError("time budget must be a number >= 0, got %r" % (time_budget,))
    deadline = None if time_budget is None else time.monotonic() + time_budget
    nv, lits, offsets = cnf.num_vars, cnf.lits, cnf.offsets
    bad = (lits == 0) | (lits < -nv) | (lits > nv)
    if bad.any():
        raise PosetError("literal %d out of range" % lits[bad.argmax()])
    m, width, lengths = len(offsets) - 1, max(1, -(-nv // 64)), np.diff(offsets)
    stats = dict(decisions=0, conflicts=0, propagations=0, restarts=0, learnt=0)
    if not lengths.all():  # an empty clause is a conflict before any assignment
        stats["conflicts"] = 1
        return SatResult("unsat", stats=stats, learnt=[])
    occ, cuts = _occurrences(nv, lits, lengths)
    epn, ew, first = _clause_entries(lits, offsets, lengths, width)
    # The bits of the literals not false, then of the true ones, each as words of the positive
    # literals, then of the negative ones; assigning l toggles the bits flips[l].
    state = np.zeros((2, 2, width), dtype=np.uint64)
    state[0] = ~np.uint64(0)
    words = memoryview(state).cast("B").cast("Q")
    flips = [()] * (2 * nv + 1)
    for v in range(1, nv + 1):
        w, b = (v - 1) >> 6, 1 << ((v - 1) & 63)
        flips[v], flips[-v] = ((width + w, b), (2 * width + w, b)), ((w, b), (3 * width + w, b))
    learnts, lit_view, offset_view = [], memoryview(lits), memoryview(offsets)  # views index faster
    # Lists indexed by a signed literal l; a negative l wraps to the upper half.
    value = [0] * (2 * nv + 1)  # 1 true, -1 false, 0 free
    watches = [[] for _ in value]  # learnt clauses with l in position 0 or 1
    level, reason = [0] * (nv + 1), [None] * (nv + 1)  # reason: a clause index, or a learnt clause
    act, phase = [0.0] * (nv + 1), [True] * (nv + 1)
    heap = [(0.0, v) for v in range(1, nv + 1)]  # (-activity, variable), stale entries skipped
    trail, trail_lim = [], []
    qhead, inc, next_restart = 0, 1.0, 100

    def assign(lit, why):
        value[lit], value[-lit] = 1, -1
        level[abs(lit)], reason[abs(lit)] = len(trail_lim), why
        trail.append(lit)
        for w, b in flips[lit]:
            words[w] ^= b

    def literals(c):  # of a learnt clause, or of an original one by its index
        return c if type(c) is list else lit_view[offset_view[c] : offset_view[c + 1]].tolist()

    def watched(false_lit):
        """Two-watched-literal propagation over the learnt clauses; returns a falsified one or None."""
        ws = watches[false_lit]
        watches[false_lit] = kept = []
        for at, c in enumerate(ws):
            if c[0] == false_lit:
                c[0], c[1] = c[1], false_lit
            if value[c[0]] == 1:
                kept.append(c)
                continue
            for k in range(2, len(c)):
                if value[c[k]] != -1:
                    c[1], c[k] = c[k], false_lit
                    watches[c[1]].append(c)
                    break
            else:
                kept.append(c)
                if value[c[0]] == -1:
                    kept.extend(ws[at + 1 :])
                    return c
                assign(c[0], c)
        return None

    def units(ids):
        """The clauses ids with under two literals not false, none true, each with its
        literal not false (0 for none)."""
        found = {}
        if len(ids) <= _SHORT_PASS:
            for c in ids.tolist():
                unit = 0
                for q in literals(c):
                    if value[q] == 1 or not value[q] and unit not in (0, q):
                        break  # satisfied, or two literals free
                    if not value[q]:
                        unit = q
                else:
                    found[c] = unit
            return found.items()
        # A true literal counts twice, so a clause that counts under 2 is unit or falsified.
        if first is None:
            cols = epn.take(ids, axis=1) & state
            hit = (np.add.reduce(np.bitwise_count(cols), axis=(0, 1), dtype=np.uint8) < 2).nonzero()[0]
            owners, bases = ids.take(hit), itertools.repeat(0)
        else:
            lo = first.take(ids)
            n = first.take(ids + 1) - lo
            ends = np.cumsum(n)
            rows = np.arange(ends[-1]) + np.repeat(lo - ends + n, n)
            cols = epn.take(rows, axis=1) & state.take(ew.take(rows), axis=2)
            count = np.add.reduce(np.bitwise_count(cols), axis=(0, 1), dtype=np.uint8)
            hit = np.repeat(np.add.reduceat(count, ends - n, dtype=np.int32) < 2, n).nonzero()[0]
            owners, bases = np.repeat(ids, n).take(hit), (64 * ew.take(rows.take(hit))).tolist()
        for c, w, (p, q) in zip(owners.tolist(), bases, cols[0].take(hit, axis=1).T.tolist()):
            if p or q or c not in found:
                found[c] = w + p.bit_length() if p else -(w + q.bit_length()) if q else 0
        return found.items()

    def propagate(ids=None):
        """Unit propagation over the clauses ids, if given, then over those of
        each literal falsified from qhead on; returns a falsified clause or None."""
        nonlocal qhead
        while ids is not None or qhead < len(trail):
            if ids is None:  # the clauses of the next literal to become false
                l, qhead = -trail[qhead], qhead + 1
                stats["propagations"] += 1
                confl = watched(l)
                if confl is not None:
                    return confl
                ids = occ[cuts[l + nv] : cuts[l + nv + 1]]
            for c, lit in units(ids):
                # Units assigned since the pass may have made lit true or false.
                if not lit or value[lit] == -1:
                    return c
                if not value[lit]:
                    assign(lit, c)
            ids = None
        return None

    def cancel(lvl):
        """Undo every assignment above a decision level, saving phases."""
        nonlocal qhead
        if len(trail_lim) > lvl:
            for lit in trail[trail_lim[lvl] :]:
                value[lit] = value[-lit] = 0
                phase[abs(lit)] = lit > 0
                heapq.heappush(heap, (-act[abs(lit)], abs(lit)))
                for w, b in flips[lit]:
                    words[w] ^= b
            del trail[trail_lim[lvl] :], trail_lim[lvl:]
        qhead = len(trail)

    # The first pass takes the clauses with one distinct literal.
    ids = np.add.reduce(np.bitwise_count(epn), axis=0, dtype=np.uint8)
    if first is not None:
        ids = np.add.reduceat(ids, first[:m], dtype=np.int32)
    ids = (ids < 2).nonzero()[0]
    while True:
        confl, ids = propagate(ids), None
        if confl is not None:
            stats["conflicts"] += 1
            if not trail_lim:
                return SatResult("unsat", stats=stats, learnt=learnts)
            # 1-UIP: resolve along the trail until one literal of this level is left.
            learnt, seen, pending, idx = [0], set(), 0, len(trail)
            while True:
                for q in literals(confl):
                    v = abs(q)
                    if v not in seen and level[v]:
                        seen.add(v)
                        act[v] += inc
                        if level[v] == len(trail_lim):
                            pending += 1
                        else:
                            learnt.append(q)
                idx -= 1
                while abs(trail[idx]) not in seen:
                    idx -= 1
                pending -= 1
                if not pending:
                    break
                confl = reason[abs(trail[idx])]
            learnt[0] = -trail[idx]
            learnt[1:] = sorted(learnt[1:], key=lambda q: -level[abs(q)])
            cancel(level[abs(learnt[1])] if len(learnt) > 1 else 0)
            if len(learnt) > 1:
                watches[learnt[0]].append(learnt)
                watches[learnt[1]].append(learnt)
            learnts.append(learnt)
            assign(learnt[0], learnt)
            stats["learnt"] += 1
            inc /= 0.95
            continue
        if len(trail) == nv:
            break
        if stats["conflicts"] >= next_restart:
            stats["restarts"] += 1
            next_restart = stats["conflicts"] + 100 * _luby(stats["restarts"] + 1)
            cancel(0)
        if deadline is not None and time.monotonic() >= deadline:
            return SatResult("unknown", stats=stats)
        if inc > 1e100 or len(heap) > 4 * nv:  # rescale, and drop stale heap entries
            if inc > 1e100:
                act, inc = [a * 1e-100 for a in act], inc * 1e-100
            heap[:] = sorted((-act[v], v) for v in range(1, nv + 1) if not value[v])
        a, v = heapq.heappop(heap)
        while value[v] or -a != act[v]:
            a, v = heapq.heappop(heap)
        stats["decisions"] += 1
        trail_lim.append(len(trail))
        assign(v if phase[v] else -v, None)

    truth = np.array(value) == 1  # indexed as value; int32 indices are not copied to int64
    if not np.logical_or.reduceat(truth[lits], offsets[:-1]).all():
        raise PosetError("internal error: solver produced a non-satisfying assignment")
    assignment = {v: value[v] == 1 for v in range(1, nv + 1)}
    return SatResult("sat", assignment, stats)


def assignment_to_colouring(assignment, n):
    """Map a SAT assignment (var -> bool) to a 1/2 colouring tuple."""
    return tuple(1 if assignment.get(i + 1, True) else 2 for i in range(n))


# -- exponent bounds -------------------------------------------------------------


@dataclass
class RamseyBoundsReport:
    """Bracket for the Ramsey threshold exponents of a pattern pair."""

    pair: tuple
    lower: float = None
    lower_source: str = ""
    upper: float = None
    upper_source: str = ""
    exact: float = None
    notes: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "pair": list(self.pair),
            "lower": self.lower,
            "lower_source": self.lower_source,
            "upper": self.upper,
            "upper_source": self.upper_source,
            "exact": self.exact,
            "notes": list(self.notes),
        }


def _chain_length(poset):
    """The length t when the poset is a t-chain, else None."""
    t = poset.n
    return t if poset.relation_count() == t * (t - 1) // 2 else None


# Known pairs: first side, second side, catalog poset, provenance, and the
# ends of the bracket the poset's c* gives ("lower" for a host, "upper" for a
# colouring, "exact" for both). Sides are catalog spellings; a comma list is
# a family. A row matches up to colour swap and order reversal. A row without
# a poset names a pair whose host is unknown; its provenance is a note, shown
# unless the caller supplies a host.
_KNOWN_HOSTS = (
    ("v", "v", "t2", "depth-2 binary tree (exact)", "exact"),
    ("chain:2", "v", "y'", "Y-prime host", "lower"),
    ("lambda", "v", "layered:2,3,2", "C(2,3,2) host", "lower"),
    ("chain:3", "v", "y''", "Y-double-prime host", "lower"),
    ("diamond", "chain:2", "dd", "double diamond host", "lower"),
    ("diamond", "diamond", None, "lower bound host unavailable (supply it as a poset file)", "lower"),
    ("v,lambda", "v,lambda", "layered:2,1,2", "C(2,1,2) host", "lower"),
    ("v,lambda", "chain:2", "lambda'", "wedge-prime colouring", "upper"),
)


def _is_side(patterns, spelling):
    """True when a family equals the catalog side up to isomorphism of members."""
    members = [catalog(part) for part in spelling.split(",")]
    return (
        len(patterns) == len(members)
        and all(any(is_isomorphic(p, m) for m in members) for p in patterns)
        and all(any(is_isomorphic(p, m) for p in patterns) for m in members)
    )


def _pair_variants(firsts, seconds):
    """The family pairs equivalent to (firsts, seconds) by colour swap and reversal."""
    rf, rs = [reverse(p) for p in firsts], [reverse(p) for p in seconds]
    return [(firsts, seconds), (seconds, firsts), (rf, rs), (rs, rf)]


def exponent_bounds(first, second, h_poset=None):
    """Best known bracket for the Ramsey threshold exponents of a pair.

    Each bound is an end of the certified c* bracket of a candidate poset:
    the lower end for a host that arrows the pair ("lower"), the upper end
    for a colouring that avoids it ("upper"), and both for a poset that is
    each ("exact"). In tie order: the lexicographic product host and the first
    defined tower colouring (single patterns), that tower again as the exact
    chain(s + t - 1) for two chains (pigeonhole), the pair's row of
    ``_KNOWN_HOSTS``, and ``h_poset`` once ``arrows`` confirms that it arrows
    the pair (else a note names the avoiding colouring or the arrow cap). c*
    runs once per distinct poset; one too large for it, or unconverged, leaves
    a note. Ends within 1e-9 give the exact value, their midpoint.
    """
    firsts = _family(first)
    seconds = _family(second)
    notes = []
    if h_poset is not None:
        try:
            arrowing, witness = arrows(h_poset, firsts, seconds)
            rejection = "does not arrow the pair: colouring %s avoids both" % (witness,)
        except CapacityError:
            arrowing, rejection = False, "too large for the arrow cap"
        if not arrowing:
            notes.append("user-supplied host " + rejection)
            h_poset = None

    def pname(patterns):
        if len(patterns) == 1:
            return "poset(n=%d)" % patterns[0].n
        return "family(%s)" % ",".join("n=%d" % p.n for p in patterns)

    # (poset, ends, source) in tie order; a candidate without a poset is a note.
    candidates = []
    if len(firsts) == 1 and len(seconds) == 1:
        p, q = firsts[0], seconds[0]
        # The product costs (p.n * q.n)^2 bits to build: ask whether c* takes it first.
        if threshold.fits(p.n * q.n):
            candidates.append((lex_product(p, q), "lower", "lexicographic product host"))
        else:
            candidates.append((None, None, "lexicographic product too large for the exponent cap"))
        colouring = next((tower(a, b) for a, b in ((p, q), (q, p))
                          if len(a.maximal_elements()) == 1 and len(b.minimal_elements()) == 1), None)
        if colouring is None:
            candidates.append((None, None, "tower undefined (no unique max/min pairing)"))
        else:
            candidates.append((colouring, "upper", "tower colouring"))
        if _chain_length(p) and _chain_length(q):
            # The tower of two chains is chain(s + t - 1).
            candidates.append((colouring, "exact", "chain pigeonhole (exact)"))
    for side1, side2, spelling, source, ends in _KNOWN_HOSTS:
        if any(_is_side(a, side1) and _is_side(b, side2) for a, b in _pair_variants(firsts, seconds)):
            if spelling is not None or h_poset is None:
                candidates.append((catalog(spelling) if spelling else None, ends, source))
            break
    if h_poset is not None:
        candidates.append((h_poset, "lower", "user-supplied host"))

    lower_cands, upper_cands, reports = [], [], {}  # reports: c* of each distinct poset
    for poset, ends, source in candidates:
        if poset is None:
            notes.append(source)
            continue
        try:
            rep = reports[poset] = reports.get(poset) or threshold.c_star(poset, name=source)
        except CapacityError:
            notes.append("%s too large for the exponent cap" % source)
            continue
        if not rep.converged:
            notes.append("%s unconverged: c* bracket width %.3e" % (source, rep.upper_bound - rep.lower_bound))
        if ends != "upper":
            lower_cands.append((rep.lower_bound, source))
        if ends != "lower":
            upper_cands.append((rep.upper_bound, source))

    report = RamseyBoundsReport(pair=(pname(firsts), pname(seconds)), notes=notes)
    report.lower, report.lower_source = max(lower_cands, key=lambda t: t[0], default=(None, ""))
    report.upper, report.upper_source = min(upper_cands, key=lambda t: t[0], default=(None, ""))
    if report.lower is not None and report.upper is not None:
        if abs(report.upper - report.lower) <= 1e-9:
            report.exact = (report.lower + report.upper) / 2.0
        if report.lower > report.upper + 1e-9:
            report.notes.append("bound sources disagree beyond tolerance (kept verbatim)")
    return report

"""Containment-threshold exponents of patterns in random subset lattices.

The central quantity is the best exponent a weighting on a poset's
antichains can guarantee simultaneously for every nonempty subposet: the
maximum over the probability simplex of the minimum, over subposets Q, of
the shadow entropy divided by |Q|. This module computes that value with a
certified bracket, classifies posets by which special weightings are
optimal, and provides the closed-form thresholds and bounds that accompany
the general optimizer.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .posets import (
    CapacityError,
    PosetError,
    antichains,
    automorphisms,
    connected_components,
    induced_subposet,
    reverse_automorphisms,
    _bits,
)
from .correspondence import shadow_indices

DEFAULT_SIZE_CAP = 14
# The mirror ascent iterates on the subposets whose exponent was within this
# margin of the minimum at the last full-table evaluation.
WS_MARGIN = 0.05
# The polish and the LP bound count a subposet as active within this margin
# of the minimum.
ACTIVE_TOL = 1e-3
# classify counts a subposet as below a weighting's target beyond this margin.
CLASSIFY_TOL = 1e-9
# Cells of each block of rows that masses takes at once on a full ExponentTable (128 KiB of weights).
_MASS_BLOCK_CELLS = 1 << 14


def _xlogy(x, y):
    """x log y elementwise, with 0 log y = 0.

    Arrays go through numpy's log. Floats go through libm's, which numpy's
    SIMD log misses by an ulp on a few inputs in a thousand, so the closed
    forms keep their last bit.
    """
    if isinstance(x, float):
        return 0.0 if x == 0 else x * math.log(y)
    return x * np.log(np.where(x != 0, y, 1.0))


def _weights(alpha):
    """alpha as a float array, with coordinates in [-1e-12, 0) set to 0."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < -1e-12):
        raise PosetError("weighting has a negative coordinate")
    return np.maximum(alpha, 0.0)


def entropy(alpha):
    """Shannon entropy in nats, with 0 log 0 = 0; never -0.0."""
    alpha = _weights(alpha)
    return float(-_xlogy(alpha, alpha).sum()) + 0.0


def binary_entropy(x):
    """Entropy of a two-point distribution (x, 1-x), computed in scalars.

    Coordinates in [-1e-12, 0) count as 0, as in ``_weights``.
    """
    x = float(x)
    y = 1.0 - x
    if x < -1e-12 or y < -1e-12:
        raise PosetError("weighting has a negative coordinate")
    x, y = max(x, 0.0), max(y, 0.0)
    return 0.0 - (_xlogy(x, x) + _xlogy(y, y))


# -- one-dimensional solvers ---------------------------------------------------


def _bisect(f, lo, hi):
    """Root of f in [lo, hi] by bisection; f(lo) and f(hi) must differ in sign.

    Halves the bracket until its midpoint is one of its ends, then returns
    the end where |f| is smaller, so f changes sign between the result and
    a neighbouring float.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise PosetError("root search met a NaN at x = %r" % (x,))
        return fx

    flo, fhi = call(lo), call(hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if (flo < 0) == (fhi < 0):
        raise PosetError("root is not bracketed in [%r, %r]" % (lo, hi))
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(flo) <= abs(fhi) else hi
        fmid = call(mid)
        if fmid == 0:
            return mid
        if (fmid < 0) == (flo < 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid


# -- the per-subposet evaluation table ----------------------------------------


class ExponentTable:
    """Shadow index maps of a poset's antichains into every nonempty subposet.

    Row qi of the 2-D array ``index`` sends each parent antichain to its
    shadow in the subposet ``q_masks[qi]``, numbered within that subposet's
    antichains and shifted by ``seg_offsets[qi]``. A weighted bincount over
    the flattened array gives the block masses (``masses``), in time
    proportional to m·(2^n − 1) cells; the exponents (segmented entropy
    sums) and the supergradients of any rows are read off those masses.
    The weights come from one buffer made with the table: all rows of a
    restricted table, blocks of at most ``_MASS_BLOCK_CELLS`` cells of the
    full one, so a full evaluation neither allocates nor keeps a second
    table-sized array. ``restrict`` gives the same table over a subset of
    the rows: the ascent's working set, and the polish's rows.
    """

    __slots__ = (
        "poset", "family", "q_masks", "sizes", "index", "seg_offsets", "total_len", "_weights", "_cells"
    )

    def __init__(self, poset, family, q_masks, sizes, sigma, sub_counts, block_rows):
        self.poset = poset
        self.family = family
        self.q_masks = q_masks
        self.sizes = sizes
        offsets = np.zeros(len(q_masks) + 1, dtype=np.intp)
        np.cumsum(sub_counts, out=offsets[1:])
        self.seg_offsets = offsets
        self.total_len = int(offsets[-1])
        # Shift in place: at the size cap the table is tens of MiB.
        sigma += offsets[:-1, None]
        self.index = sigma
        # alpha once per row of a block, and a block's indices shifted to its first segment.
        self._weights = np.empty((min(len(q_masks), block_rows), sigma.shape[1]))
        self._cells = np.empty(self._weights.shape, dtype=np.intp) if len(q_masks) > len(self._weights) else None

    @classmethod
    def build(cls, poset, family=None):
        """Construct the table from the parent family through shadow_indices."""
        if family is None:
            family = antichains(poset)
        q_masks = list(range(1, 1 << poset.n))
        sizes = np.array([q.bit_count() for q in q_masks], dtype=float)
        block_rows = max(1, _MASS_BLOCK_CELLS // len(family))
        return cls(poset, family, q_masks, sizes, *shadow_indices(family, q_masks), block_rows)

    def restrict(self, rows):
        """The table over the subposets ``q_masks[r]`` for r in rows, in that order.

        Each row keeps its shadow map, so the masses, exponents and gradients
        of the restricted table agree bit for bit with those rows of this one.
        """
        rows = np.asarray(rows, dtype=np.intp)
        sigma = self.index[rows]
        sigma -= self.seg_offsets[rows, None]
        sub_counts = np.diff(self.seg_offsets)[rows]
        q_masks = [self.q_masks[r] for r in rows]
        return ExponentTable(self.poset, self.family, q_masks, self.sizes[rows], sigma, sub_counts, len(rows))

    def masses(self, alpha):
        """Block masses, flat by segment: cell ``index[qi, j]`` receives alpha[j].

        Each bin sums its cells in the order of j, the order one bincount over
        the whole table would take, block of rows by block of rows.
        """
        weights = self._weights
        weights[...] = alpha
        step = len(weights)
        if step == len(self.q_masks):
            return np.bincount(self.index.ravel(), weights=weights.ravel(), minlength=self.total_len)
        beta = np.empty(self.total_len)
        for start in range(0, len(self.q_masks), step):
            stop = min(start + step, len(self.q_masks))
            lo, hi = self.seg_offsets[start], self.seg_offsets[stop]
            cells = np.subtract(self.index[start:stop], lo, out=self._cells[: stop - start]).ravel()
            beta[lo:hi] = np.bincount(cells, weights=weights[: stop - start].ravel(), minlength=hi - lo)
        return beta

    def exponents(self, beta):
        """Exponent of every row's subposet from the block masses beta."""
        # -beta log beta with 0 log 0 = 0, as -_xlogy(beta, beta), in one temporary.
        terms = np.where(beta != 0, beta, 1.0)
        np.log(terms, out=terms)
        terms *= beta
        np.negative(terms, out=terms)
        # reduceat on an empty trailing segment cannot occur: every subposet
        # has at least the empty antichain, so all segments are nonempty.
        return np.add.reduceat(terms, self.seg_offsets[:-1]) / self.sizes

    def gradients(self, beta, rows=slice(None)):
        """Supergradients of the exponents of rows at beta's weighting, one row each."""
        grads = beta[self.index[rows]]
        np.maximum(grads, 1e-300, out=grads)
        np.log(grads, out=grads)
        np.negative(grads, out=grads)
        grads -= 1.0
        grads /= self.sizes[rows, None]
        return grads

    def values(self, alpha):
        """Exponent of every nonempty subposet under one weighting."""
        return self.exponents(self.masses(alpha))

    def objective(self, alpha):
        """The inner minimum over subposets."""
        return float(self.values(alpha).min())


# -- symmetry ------------------------------------------------------------------


def _apply_element_perm(mask, perm):
    out = 0
    for i in _bits(mask):
        out |= 1 << perm[i]
    return out


def antichain_symmetry_group(poset, family):
    """Index permutations of the antichain family that generate its symmetry group.

    One generator per automorphism, acting elementwise, and one per
    order-reversing self-bijection psi, through the complementation action
    sending an antichain S to psi^{-1} of the maximal elements outside S's
    up-set. Every element of the group they generate leaves the objective
    fixed. The identity is among the generators. ``c_star`` does not use
    this group: its starts are fixed by it and its mirror steps commute with
    it, so the iterates stay in the fixed subspace without any averaging.
    """
    m = len(family)
    full = poset.full_mask()
    gens = set()
    for phi in automorphisms(poset):
        gens.add(tuple(family.position(_apply_element_perm(s, phi)) for s in family.masks))
    for psi in reverse_automorphisms(poset):
        psi_inv = [0] * poset.n
        for i, v in enumerate(psi):
            psi_inv[v] = i
        perm = []
        for up in family.upsets:
            comp = full & ~up
            maxers = 0
            for i in _bits(comp):
                if not poset.above[i] & comp:
                    maxers |= 1 << i
            perm.append(family.position(_apply_element_perm(maxers, psi_inv)))
        gens.add(tuple(perm))
    for g in gens:
        if sorted(g) != list(range(m)):
            raise PosetError("symmetry action is not a permutation (internal error)")
    return [np.array(g, dtype=np.intp) for g in sorted(gens)]


# -- reports -------------------------------------------------------------------


@dataclass
class CriticalExponentReport:
    """Certified result of the max-min exponent computation."""

    poset_name: str
    size: int
    family_size: int
    value: float
    lower_bound: float
    upper_bound: float
    certificate: list
    active_subposets: list
    classification: str
    iterations: int
    tolerance: float
    converged: bool
    notes: list = field(default_factory=list)
    # How the optimizer got there, kept out of the JSON record:
    # "full_evaluations" counts the full-table evaluations c_star makes
    # itself (those inside the polish and the LP bound are not counted),
    # and "polls" holds one dict per poll of the ascent with its full
    # evaluations, largest working set, working-set misses, the polish's
    # outcome ("polish": "improved" or "no gain"), the Newton steps of its
    # interior-point solves ("newton_steps") and its final row count
    # ("rows"), the LP bound's simplex pivots ("lp_pivots") and duality gap
    # ("lp_gap", None when the solve failed), the wall seconds of its
    # ascent, polish and LP bound ("seconds"), and the bracket width after
    # it. A disconnected poset lists its components' stats under
    # "components".
    stats: dict = field(default_factory=dict)

    def to_json_dict(self):
        """The stable machine-readable record."""
        return {
            "poset": self.poset_name,
            "m": self.family_size,
            "value": self.value,
            "lower": self.lower_bound,
            "upper": self.upper_bound,
            "certificate": [float(v) for v in self.certificate],
            "active": [int(q) for q in self.active_subposets],
            "class": self.classification,
            "iterations": self.iterations,
            "tolerance": self.tolerance,
            "converged": bool(self.converged),
        }


@dataclass
class BalancedSolution:
    """Root and weighting of the two-point balance equation."""

    x_star: float
    c_value: float
    weighting: np.ndarray


@dataclass
class Classification:
    """Outcome of the uniform/balanced definition checks."""

    label: str
    violations: list
    details: dict


# -- the optimizer -------------------------------------------------------------


# The polish starts from, and the LP bound uses, at most this many active subposets.
_DUAL_MAX_TERMS = 120
# The interior-point solve's Newton steps at most, and the mask cells its Hessian builds at once.
_IPM_STEPS = 60
_IPM_MASK_CELLS = 1 << 22
# _game_lp's feasibility and pivot tolerance, and its pivot cap.
_LP_TOL = 1e-12
_LP_MAX_PIVOTS = 20000


def _active_rows(vals):
    """The rows within ACTIVE_TOL of the minimum, nearest first, at most _DUAL_MAX_TERMS."""
    order = np.argsort(vals)
    return order[vals[order] <= vals.min() + ACTIVE_TOL][:_DUAL_MAX_TERMS].tolist()


def _game_lp(M):
    """Optimal mixed strategies of the matrix game M, by a dual simplex.

    The column player picks lam on the simplex to minimize max_j (M lam)_j,
    the row player picks alpha to maximize min_q (M^T alpha)_q. With
    A = M - min M + 1 > 0, the row player's LP is min 1^T x subject to
    A^T x >= 1 and x >= 0, with alpha = x / 1^T x. Its slack basis is dual
    feasible, so a dual simplex needs no phase one. Bland's rule (the
    leaving row of least basic index, the entering column of least index
    among ratio ties) keeps it finite. lam is the slacks' reduced costs,
    normalised. The tableau is (k + 1) x (m + k + 1) for m x k. Returns
    (lam, alpha, pivots); lam and alpha are None if the solve fails.
    """
    m, k = M.shape
    cons = np.hstack([-(M - M.min() + 1.0).T, np.eye(k)])
    tab = np.zeros((k + 1, m + k + 1))
    tab[:k, :-1] = cons
    tab[:k, -1] = -1.0
    tab[k, :m] = 1.0
    basis = np.arange(m, m + k)
    pivots = 0
    while True:
        rows = np.flatnonzero(tab[:k, -1] < -_LP_TOL)
        if rows.size == 0:
            break
        if pivots >= _LP_MAX_PIVOTS:
            return None, None, pivots
        r = rows[np.argmin(basis[rows])]
        cols = np.flatnonzero(tab[r, :-1] < -_LP_TOL)
        if cols.size == 0:
            return None, None, pivots
        ratios = np.maximum(tab[k, cols], 0.0) / -tab[r, cols]
        j = cols[np.argmin(ratios)]
        tab[r] /= tab[r, j]
        col = tab[:, j].copy()
        col[r] = 0.0
        tab -= np.outer(col, tab[r])
        basis[r] = j
        pivots += 1
    # Both strategies come from the final basis, free of the tableau's growing
    # roundoff, but a near-singular basis loses digits: lam is the basis's or the
    # tableau's (never all 0), whichever has the smaller max_j (M lam)_j.
    basic = cons[:, basis]
    try:
        x_basic = np.linalg.solve(basic, np.full(k, -1.0))
        lams = [-np.linalg.solve(basic.T, (basis < m).astype(float)), tab[k, m:-1]]
    except np.linalg.LinAlgError:
        return None, None, pivots
    lams = [np.maximum(v, 0.0) for v in lams]
    lam = min((v / v.sum() for v in lams if v.sum() > 0), key=lambda v: (M @ v).max())
    x = np.zeros(m)
    in_x = basis < m
    x[basis[in_x]] = np.maximum(x_basic[in_x], 0.0)
    return lam, x / x.sum(), pivots


def _dual_upper_bound(table, alpha, record=None):
    """Certified upper bound from supergradients at (a slightly interior) alpha.

    For weights lambda on the simplex over a set of subposets, concavity of
    each exponent gives, for every feasible weighting, a bound
    sum_q lambda_q / |Q_q| + max_j (sum_q lambda_q grad_q)_j. That is the
    matrix game M = grads + 1/|Q|, and ``_game_lp`` picks lambda. The bound
    is then recomputed from lambda alone and widened by a roundoff
    allowance before rounding outward. A failed solve gives inf. With
    ``record``, the solve's pivots and its duality gap
    max_j (M lambda)_j - min_q (M^T alpha)_q go in as lp_pivots and lp_gap.
    """
    alpha = np.asarray(alpha, dtype=float)
    m = alpha.size
    interior = (1.0 - 1e-9) * alpha + 1e-9 / m
    interior /= interior.sum()
    beta = table.masses(interior)
    chosen = _active_rows(table.exponents(beta))
    grads = table.gradients(beta, chosen).T
    inv_sizes = 1.0 / table.sizes[chosen]
    k = len(chosen)
    game = grads + inv_sizes
    lam, row_strategy, pivots = _game_lp(game)
    if record is not None:
        record["lp_pivots"] = pivots
        record["lp_gap"] = None if lam is None else float((game @ lam).max() - (row_strategy @ game).min())
    if lam is None:
        return math.inf
    head = lam * inv_sizes
    bound = math.fsum(head) + float((grads @ lam).max())
    # (k + m + 4) ulps of the terms' magnitude cover the roundoff of these
    # k-term sums and of the m-term entropy sums behind both ends of the
    # bracket, so a bracket that is tight at the optimum does not cross.
    scale = float(head.sum() + (np.abs(grads) @ lam).max())
    return math.nextafter(bound + (k + m + 4) * np.finfo(float).eps * scale, math.inf)


def _polish(table, alpha, vals):
    """Interior-point refinement of a weighting alpha with full-table exponents vals.

    Solves on ``_active_rows(vals)`` and adds the rows active at each result
    on the full table until none is new. Returns the last result, its
    full-table exponents, the Newton steps of all solves and the row count.
    """
    rows, steps = _active_rows(vals), 0
    while True:
        alpha, taken = _interior_point(table.restrict(rows), alpha)
        steps += taken
        vals = table.values(alpha)
        new = [r for r in _active_rows(vals) if r not in rows]
        if not new:
            return alpha, vals, steps, len(rows)
        rows += new


def _interior_point(sub, alpha):
    """Maximise t subject to sub's exponents f >= t, with x on the simplex, from alpha.

    Mehrotra's predictor-corrector on the primal-dual system. The slacks
    s = f - t are variables, so the start need not be feasible. With s and
    the multipliers z of x >= 0 eliminated, each step solves one symmetric
    system in (x, lam, t, nu); its x block is the Hessian -sum_q lam_q / |Q|
    B_q^T diag(1 / beta) B_q minus z / x and a ridge of 1e-12 of the
    Hessian's largest entry. Returns x, normalised, and the Newton steps.
    """
    m, k = len(sub.family), len(sub.q_masks)
    x = (1.0 - 1e-6) * np.asarray(alpha, dtype=float) + 1e-6 / m
    beta = sub.masses(x)
    f = sub.exponents(beta)
    delta = max(float(f.max() - f.min()), 1e-6)
    s = f - f.min() + delta
    t, lam, z, nu = float(f.min()) - delta, delta / (k * s), delta / (k * x), 0.0
    chunk = max(1, _IPM_MASK_CELLS // (m * m))
    on_x, on_lam = np.arange(m), np.arange(m, m + k)
    kkt = np.zeros((m + k + 2, m + k + 2))
    kkt[on_x, -1] = kkt[-1, on_x] = kkt[on_lam, -2] = kkt[-2, on_lam] = -1.0
    for steps in range(_IPM_STEPS + 1):
        grads = sub.gradients(beta)
        r_x, r_f, r_t, r_e = lam @ grads + z - nu, f - t - s, 1.0 - lam.sum(), x.sum() - 1.0
        mu = (lam @ s + z @ x) / (k + m)
        # A slack may lag its row's exponent; the row itself is infeasible by t - f.
        residual = max(np.abs(r_x).max(), t - f.min(), abs(r_t), abs(r_e))
        if steps == _IPM_STEPS or ((k + m) * mu < 1e-14 and residual < 1e-12):
            break
        weights, hess = (lam / sub.sizes)[:, None] / beta[sub.index], np.zeros((m, m))
        for lo in range(0, k, chunk):
            cells = sub.index[lo : lo + chunk]
            # Pairs of antichains in the same block of each row's subposet, chunk rows at a time.
            hess += np.einsum("ai,aij->ij", weights[lo : lo + chunk], cells[:, :, None] == cells[:, None, :])
        kkt[:m, :m] = -hess
        kkt[on_x, on_x] -= z / x + 1e-12 * hess.max()
        kkt[:m, m:-2], kkt[m:-2, :m] = grads.T, grads
        kkt[on_lam, on_lam] = s / lam

        def direction(r_s, r_z):
            """(dx, ds, dlam, dz, dt, dnu) for the complementarity residuals lam * s - r_s and z * x - r_z."""
            d = np.linalg.solve(kkt, np.concatenate([r_z / x - r_x, -r_f - r_s / lam, [-r_t, r_e]]))
            dx, dlam = d[:m], d[m:-2]
            return dx, -(r_s + s * dlam) / lam, dlam, -(r_z + z * dx) / x, d[-2], d[-1]

        def longest(step, frac):
            # frac of the longest step, at most 1, that keeps x, s, lam and z positive.
            v, dv = np.concatenate([x, s, lam, z]), np.concatenate(step[:4])
            neg = dv < 0
            return min(1.0, frac * float(np.min(v[neg] / -dv[neg]))) if neg.any() else 1.0

        dx, ds, dlam, dz, _, _ = affine = direction(lam * s, z * x)
        a = longest(affine, 1.0)
        mu_affine = ((lam + a * dlam) @ (s + a * ds) + (z + a * dz) @ (x + a * dx)) / (k + m)
        # A centre a tenth of the stopping level at least keeps s / lam and z / x finite.
        centre = max((mu_affine / mu) ** 3 * mu, 1e-15 / (k + m))
        dx, ds, dlam, dz, dt, dnu = step = direction(lam * s + dlam * ds - centre, z * x + dz * dx - centre)
        a = longest(step, 0.99)
        x, s, lam, z, t, nu = x + a * dx, s + a * ds, lam + a * dlam, z + a * dz, t + a * dt, nu + a * dnu
        beta = sub.masses(x)
        f = sub.exponents(beta)
    return x / x.sum(), steps


def two_point_weighting(family, x_star):
    """Weighting with mass x at the empty antichain and at the minimum's singleton."""
    poset = family.poset
    mins = poset.minimal_elements()
    if len(mins) != 1:
        raise PosetError("two-point weighting needs a unique minimal element")
    m = len(family)
    rest = (1.0 - 2.0 * x_star) / (m - 2)
    alpha = np.full(m, rest)
    alpha[family.position(0)] = x_star
    alpha[family.position(1 << mins[0])] = x_star
    return alpha


def balanced_solve(poset, family=None):
    """Solve the two-point balance equation for a bounded poset.

    Finds the weight x at which the two-element chain through the bounds and
    the full poset yield the same exponent under the two-point weighting,
    then returns that root, the common exponent, and the weighting.
    """
    if not poset.is_bounded():
        raise PosetError("balance equation needs a unique minimum and maximum")
    if poset.n < 2:
        raise PosetError("balance equation needs at least two elements")
    if family is None:
        family = antichains(poset)
    a = len(family)
    if a < 3:
        raise PosetError("balance equation needs at least three antichains")
    n = poset.n

    def chain_side(x):
        return (-2.0 * _xlogy(x, x) - _xlogy(1.0 - 2.0 * x, 1.0 - 2.0 * x)) / 2.0

    def full_side(x):
        w = 1.0 - 2.0 * x
        return (-2.0 * _xlogy(x, x) - _xlogy(w, w / (a - 2.0))) / n

    def diff(x):
        return chain_side(x) - full_side(x)

    grid = np.linspace(1e-9, 0.5 - 1e-12, 4097)
    vals = diff(grid)
    if np.max(np.abs(vals)) < 1e-14:
        raise PosetError(
            "balance equation is degenerate for this poset "
            "(the chain and full-poset exponents coincide identically)"
        )
    # The first grid point that is a root or starts a sign change.
    cells = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0))
    if cells.size == 0:
        raise PosetError(
            "balance equation has no root in (0, 1/2) for this poset "
            "(no crossing of the chain and full-poset exponents)"
        )
    i = cells[0]
    root = grid[i] if vals[i] == 0.0 else _bisect(diff, float(grid[i]), float(grid[i + 1]))
    c_value = float(chain_side(root))
    return BalancedSolution(float(root), c_value, two_point_weighting(family, root))


def classify(poset, family=None, table=None):
    """Decide which special weighting, if any, attains the max-min exponent.

    UniformlyBalanced when the uniform weighting already minimizes at the
    full poset; otherwise Balanced when the two-point balanced weighting
    does; otherwise General. Violations list the subposets that dip more
    than CLASSIFY_TOL below the target, as (mask, value, target) triples.
    """
    if family is None:
        family = antichains(poset)
    if table is None:
        table = ExponentTable.build(poset, family)
    uniform = np.full(len(family), 1.0 / len(family))
    return _classify(poset, table, table.values(uniform), *_balanced(poset, family, table))


def _balanced(poset, family, table):
    """The two-point balanced weighting as (solution, its exponents, error).

    All three are None when the poset is not bounded or is too small
    (n < 2 or m < 4); when ``balanced_solve`` finds no root, error is its
    message and the other two are None.
    """
    if not (poset.is_bounded() and poset.n >= 2 and len(family) >= 4):
        return None, None, None
    try:
        sol = balanced_solve(poset, family)
    except PosetError as err:
        return None, None, str(err)
    return sol, table.values(sol.weighting), None


def _classify(poset, table, vals, sol, bvals, error):
    """classify from the uniform weighting's exponents vals and what _balanced returns."""
    m = len(table.family)
    n = poset.n
    target = math.log(m) / n
    violations = [
        (int(table.q_masks[i]), float(vals[i]), target)
        for i in range(len(vals))
        if vals[i] < target - CLASSIFY_TOL
    ]
    details = {"uniform_value": target, "uniform_min": float(vals.min())}
    if not violations:
        return Classification("UniformlyBalanced", [], details)
    if error is not None:
        details["balanced_error"] = error
    elif sol is not None:
        btarget = float(bvals[table.q_masks.index(poset.full_mask())])
        bviol = [
            (int(table.q_masks[i]), float(bvals[i]), btarget)
            for i in range(len(bvals))
            if bvals[i] < btarget - CLASSIFY_TOL
        ]
        details["balanced_x"] = sol.x_star
        details["balanced_value"] = sol.c_value
        if not bviol:
            return Classification("Balanced", [], details)
        details["balanced_violations"] = bviol
    return Classification("General", violations, details)


def fits(n):
    """True when ``c_star`` takes a poset of n elements."""
    return n <= DEFAULT_SIZE_CAP


def c_star(poset, tol=1e-6, max_iter=6000, name=None):
    """Certified max-min containment exponent of a poset.

    Entropic mirror ascent over the antichain simplex and an interior-point
    polish on the active subposets find the certificate. The ascent steps on a
    working set, the subposets within ``WS_MARGIN`` of the minimum at the
    last full-table evaluation. A full evaluation refreshes the set after a
    gap that doubles, up to the poll length, while the set holds the full
    minimum, and drops back to 1 on a miss. Each poll of 200 steps ends with
    a full evaluation of its best iterate by working-set minimum, then the
    polish and the LP bound, which evaluate the full table themselves.

    The bracket comes from the certificate and the LP dual alone: the lower
    bound is the objective over all subposets at the certificate, the upper
    bound is ``_dual_upper_bound`` recomputed from the multipliers that the
    dual simplex of ``_game_lp`` picks. It is certified after the starts and
    after each poll, and nowhere else. A crossed bracket is reported, not
    clamped. Disconnected posets decompose as the minimum over their
    components. ``stats`` on the report counts the work and times each
    poll's stages (see ``CriticalExponentReport``).
    """
    if poset.n == 0:
        raise PosetError("exponent of the empty poset is undefined")
    if not tol >= 0:
        raise PosetError("tolerance must be a number >= 0, got %r" % (tol,))
    if not max_iter >= 0:
        raise PosetError("max_iter must be an integer >= 0, got %r" % (max_iter,))
    if not fits(poset.n):
        raise CapacityError(
            "poset has %d elements, above the subposet-scan cap %d" % (poset.n, DEFAULT_SIZE_CAP)
        )
    if name is None:
        name = "poset(n=%d)" % poset.n
    comps = connected_components(poset)
    if len(comps) > 1:
        return _c_star_disconnected(poset, comps, tol, max_iter, name)

    family = antichains(poset)
    table = ExponentTable.build(poset, family)
    m = len(family)
    notes = []

    uniform = np.full(m, 1.0 / m)
    starts = [(uniform, table.values(uniform))]
    balanced = _balanced(poset, family, table)
    sol, bvals, _ = balanced
    if sol is not None:
        starts.append((sol.weighting, bvals))
        notes.append("balanced two-point start available")

    # best_val, best_alpha and best_vals change only in try_improvements,
    # after a full-table evaluation, so the lower bound stays the objective
    # over every subposet. A start comes with its evaluation made.
    best_alpha = best_vals = None
    best_val = -math.inf
    full_evaluations = 0

    def try_improvements(candidate, vals):
        nonlocal best_val, best_alpha, best_vals, full_evaluations
        full_evaluations += 1
        v = float(vals.min())
        if v > best_val:
            best_val, best_alpha, best_vals = v, candidate, vals

    for alpha0, vals0 in starts:
        try_improvements(alpha0, vals0)
    upper = _dual_upper_bound(table, best_alpha)
    iterations = 0
    alpha = np.array(best_alpha, dtype=float)

    poll = 200
    eta0 = 0.5
    polls = []
    rows = None
    gap = 1
    next_refresh = 1
    while upper - best_val > tol and iterations < max_iter:
        evaluations_before = full_evaluations
        record = {"working_set": 0, "misses": 0}
        t0 = time.perf_counter()
        ws_best_val, ws_best_alpha = -math.inf, None
        for _ in range(poll):
            iterations += 1
            src = table if iterations >= next_refresh else ws
            beta = src.masses(alpha)
            vals = src.exponents(beta)
            g = float(vals.min())
            if src is table:
                full_evaluations += 1
                if rows is not None:
                    if vals[rows].min() == g:
                        gap = min(2 * gap, poll)
                    else:
                        gap = 1
                        record["misses"] += 1
                next_refresh = iterations + gap
                rows = np.flatnonzero(vals <= g + WS_MARGIN)
                # Free the old working-set table before the new one is built.
                ws = None
                ws = table.restrict(rows)
                record["working_set"] = max(record["working_set"], len(rows))
            if g > ws_best_val:
                ws_best_val = g
                ws_best_alpha = alpha.copy()
            active = np.flatnonzero(vals <= g + 1e-9)
            grad = src.gradients(beta, active).sum(axis=0) / len(active)
            eta = eta0 / math.sqrt(iterations)
            logs = np.log(np.maximum(alpha, 1e-300)) + eta * (grad - grad.max())
            logs -= logs.max()
            alpha = np.exp(logs)
            alpha /= alpha.sum()
        if ws.objective(alpha) > ws_best_val:
            ws_best_alpha = alpha
        try_improvements(ws_best_alpha, table.values(ws_best_alpha))
        t1 = time.perf_counter()
        polished, polished_vals, record["newton_steps"], record["rows"] = _polish(table, best_alpha, best_vals)
        before = best_val
        try_improvements(polished, polished_vals)
        record["polish"] = "improved" if best_val > before else "no gain"
        record["full_evaluations"] = full_evaluations - evaluations_before
        t2 = time.perf_counter()
        upper = min(upper, _dual_upper_bound(table, best_alpha, record))
        record["seconds"] = {"ascent": t1 - t0, "polish": t2 - t1, "lp": time.perf_counter() - t2}
        record["bracket_width"] = upper - best_val
        polls.append(record)

    label = _classify(poset, table, starts[0][1], *balanced).label
    rep = _report(poset, family, table, name, best_alpha, best_vals, label, upper, iterations, tol, notes)
    rep.stats = {"full_evaluations": full_evaluations, "polls": polls}
    return rep


def _c_star_disconnected(poset, comps, tol, max_iter, name):
    """Component decomposition: the exponent is the minimum over components."""
    family = antichains(poset)
    reports = [
        c_star(induced_subposet(poset, comp), tol=tol, max_iter=max_iter, name=name + "[component]")
        for comp in comps
    ]
    # Product certificate: weight of an antichain is the product of its
    # component restrictions' weights. An antichain's shadow in a component
    # is its restriction there, since no order relation crosses components.
    alpha = np.ones(len(family))
    for rep, sigma in zip(reports, shadow_indices(family, comps)[0]):
        alpha *= np.asarray(rep.certificate)[sigma]
    alpha = np.maximum(alpha, 0)
    alpha /= alpha.sum()
    table = ExponentTable.build(poset, family)
    rep = _report(
        poset,
        family,
        table,
        name,
        alpha,
        table.values(alpha),
        classify(poset, family, table).label,
        min(rep.upper_bound for rep in reports),
        sum(rep.iterations for rep in reports),
        tol,
        ["component decomposition over %d components" % len(comps)],
    )
    rep.stats = {
        "full_evaluations": sum(r.stats["full_evaluations"] for r in reports),
        "components": [r.stats for r in reports],
    }
    return rep


def _report(poset, family, table, name, alpha, vals, label, upper, iterations, tol, notes):
    """Report for a certificate alpha, its exponents vals, its class label and a certified upper bound.

    The value is the objective at alpha; the lower bound is the value rounded
    inward by (m + 4) ulps of it, which covers the roundoff of its m-term
    entropy sums as in _dual_upper_bound. The bracket counts as converged
    only when it is ordered and no wider than tol.
    """
    value = float(vals.min())
    allowance = (len(alpha) + 4) * np.finfo(float).eps * abs(value)
    lower = math.nextafter(value - allowance, -math.inf)
    converged = lower <= upper <= lower + tol
    if upper < lower:
        notes.append("bracket crossed: upper bound %.3e below the lower bound" % (lower - upper))
    elif not converged:
        notes.append("iteration cap reached with bracket width %.3e" % (upper - lower))
    atol = max(1e-9, upper - value)
    active_masks = sorted(
        (int(table.q_masks[i]) for i in range(len(vals)) if vals[i] <= value + atol),
        key=lambda q: tuple(_bits(q)),
    )
    return CriticalExponentReport(
        poset_name=name,
        size=poset.n,
        family_size=len(family),
        value=value,
        lower_bound=lower,
        upper_bound=upper,
        certificate=[float(v) for v in alpha],
        active_subposets=active_masks,
        classification=label,
        iterations=iterations,
        tolerance=tol,
        converged=converged,
        notes=notes,
    )


# -- closed forms and bounds ---------------------------------------------------


def _lift(c, kind):
    """Root x in (0, 1/2) of a ``lift_bound`` equation at exponent c, and the bound there."""
    if kind == "bottom":
        f = lambda x: (1.0 - x) * c - binary_entropy(x)
    elif kind == "bottom-top":
        f = lambda x: 2.0 * (1.0 - 2.0 * x) * c - 2.0 * x * math.log(2.0) - binary_entropy(2.0 * x)
    else:
        raise PosetError("kind must be 'bottom' or 'bottom-top'")
    x = float(_bisect(f, 1e-12, 0.5 - 1e-12))
    return x, binary_entropy(x) if kind == "bottom" else float((1.0 - 2.0 * x) * c)


def star_threshold():
    """Root and value of the single-lift equation at the two-point fan.

    Solves (1-x) log 2 = H2(x), the "bottom" lift equation at c = log 2;
    returns (x, H2(x)).
    """
    return _lift(math.log(2.0), "bottom")


def wide_diamond_threshold():
    """Root and value of the bounded-fan equation.

    Solves 2(1-3x) log 2 = H2(2x), the "bottom-top" lift equation at
    c = log 2; returns (x, (1-2x) log 2).
    """
    return _lift(math.log(2.0), "bottom-top")


def chain_threshold(t):
    """Exact exponent of the t-element chain: log(t+1)/t."""
    if t < 1:
        raise PosetError("chain length must be >= 1")
    return math.log(t + 1.0) / t


def blowup_bounds(layers, t):
    """Bracket for the chain of ``layers`` antichains of size t."""
    if layers < 1 or t < 1:
        raise PosetError("blowup parameters must be >= 1")
    lo = math.log(2.0) / layers
    hi = lo + math.log(layers - (layers - 1) * 2.0 ** (-t)) / (layers * t)
    return lo, hi


def lift_bound(exponent, kind="bottom"):
    """Lower bound for the exponent after adding a new global bottom (and top).

    ``exponent`` is the base poset's exponent (a float, or a poset to
    compute). Kind "bottom" bounds the poset with one new minimum below
    everything; kind "bottom-top" also adds a new maximum above everything.
    """
    if hasattr(exponent, "above"):
        exponent = c_star(exponent).value
    c = float(exponent)
    if not 0.0 < c <= math.log(2.0) + 1e-12:
        raise PosetError("lift bound needs an exponent in (0, log 2]")
    return _lift(c, kind)[1]


def trivial_upper_bound(poset, family=None):
    """log(antichain count) / size."""
    if family is None:
        family = antichains(poset)
    return math.log(len(family)) / poset.n


def bounded_upper_bound(poset, family=None):
    """Upper bound for bounded posets from two-point weightings.

    Maximizes over x the minimum of the single-bottom entropy H2(x) and, for
    every subposet containing both bounds, the exponent that subposet sees
    under the two-point weighting with parameter x. That minimum is concave
    in x, so a golden-section search narrows its maximum down to a few
    floats; the tests check that the result is at or above ``c_star``'s
    certified lower bound on 40 random bounded posets and the bounded table1
    rows. It is a closed form to compare against; ``c_star`` does not use it.
    """
    mins = poset.minimal_elements()
    maxs = poset.maximal_elements()
    if len(mins) != 1 or len(maxs) != 1 or poset.n < 2:
        raise PosetError("bounded upper bound needs distinct unique bounds")
    if family is None:
        family = antichains(poset)
    bot, top = mins[0], maxs[0]
    need = (1 << bot) | (1 << top)
    rest = poset.full_mask() & ~need
    masks = np.array(family.masks)
    terms = []
    sub = rest
    while True:
        q = need | sub
        # The antichains of the subposet on q are the parent antichains inside q.
        a_q = int(np.count_nonzero((masks & ~q) == 0))
        terms.append((q.bit_count(), a_q))
        if sub == 0:
            break
        sub = (sub - 1) & rest

    def phi(x):
        best = binary_entropy(x)
        w = 1.0 - 2.0 * x
        lx = -2.0 * _xlogy(x, x)
        for size, a_q in terms:
            val = (lx - _xlogy(w, w / (a_q - 2.0))) / size
            if val < best:
                best = val
        return best

    # Golden section: c < d cut [a, b] in the golden ratio; each step drops
    # the outer part beside the smaller of phi(c), phi(d) and reuses the
    # other point. It stops once c and d no longer lie strictly inside.
    a, b = max(1.0 / len(family), 1e-9), 0.5
    ends = max(phi(a), phi(b))
    r = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = phi(c), phi(d)
    while a < c < d < b:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = phi(d)
        else:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = phi(c)
    # A plain float, not a numpy scalar, so that JSON can hold it.
    return float(max(ends, fc, fd))


def universality_band(n_elements, b=1.0):
    """Bracket for the exponent of a typical poset on n_elements elements.

    The width depends on t = ceil(b log n_elements); the constant b is a
    modelling parameter (the asymptotic statement does not pin it down).
    """
    if n_elements < 2:
        raise PosetError("universality band needs at least two elements")
    return blowup_bounds(3, max(math.ceil(b * math.log(n_elements)), 1))

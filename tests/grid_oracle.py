"""Brute-force simplex grid search used as an independent optimizer oracle.

Evaluates the max-min exponent over every integer composition of a fixed
denominator, with entropy read from a lookup table so the inner loops stay
in numpy. The full-poset value is an upper envelope of the objective, so
points that cannot beat the running best are discarded before the other
subposets are evaluated.
"""

import math

import numpy as np

from randposet.correspondence import shadow_antichain
from randposet.posets import antichains

_COMPOSITION_CACHE = {}


def _compositions(parts, total):
    """All ordered integer compositions of total into the given part count."""
    key = (parts, total)
    hit = _COMPOSITION_CACHE.get(key)
    if hit is not None:
        return hit
    if parts == 1:
        out = np.array([[total]], dtype=np.int16)
    else:
        blocks = []
        for k in range(total + 1):
            rest = _compositions(parts - 1, total - k)
            block = np.empty((len(rest), parts), dtype=np.int16)
            block[:, 0] = k
            block[:, 1:] = rest
            blocks.append(block)
        out = np.vstack(blocks)
    if parts <= 3:
        _COMPOSITION_CACHE[key] = out
    return out


def _slot_maps(poset, family):
    """Per nonempty subposet: (element count, slot count, slot per family index)."""
    maps = []
    for q in range(1, 1 << poset.n):
        slots = {}
        sigma = []
        for mask in family.masks:
            shadow = shadow_antichain(poset, q, mask)
            sigma.append(slots.setdefault(shadow, len(slots)))
        maps.append((bin(q).count("1"), len(slots), tuple(sigma)))
    return maps


def _entropy_table(denom):
    e = np.zeros(denom + 1)
    ks = np.arange(1, denom + 1, dtype=float)
    e[1:] = -(ks / denom) * np.log(ks / denom)
    return e


def _refine(vals, coords, e, other_maps):
    """Minimize the surviving points' values over the remaining subposets."""
    for pc, nslots, sigma in other_maps:
        acc = [None] * nslots
        for j, s in enumerate(sigma):
            acc[s] = coords[j] if acc[s] is None else acc[s] + coords[j]
        v = np.zeros_like(vals)
        for a in acc:
            v += e[a]
        vals = np.minimum(vals, v / pc)
    return vals


def _eval_matrix(poset, family, maps, denom, e):
    comps = _compositions(len(family), denom)
    n = poset.n
    other_maps = maps[:-1]
    best = -np.inf
    chunk = 2 * 10 ** 6
    for lo in range(0, len(comps), chunk):
        blk = comps[lo : lo + chunk].astype(np.int64)
        vfull = np.zeros(len(blk))
        for j in range(blk.shape[1]):
            vfull += e[blk[:, j]]
        vfull /= n
        keep = vfull > best
        if not keep.any():
            continue
        sub = blk[keep]
        coords = [sub[:, j] for j in range(sub.shape[1])]
        vals = _refine(vfull[keep], coords, e, other_maps)
        best = max(best, float(vals.max()))
    return best


def _eval_streamed_5(poset, maps, denom, e, best=-np.inf):
    """Stream (k0, k1) slices of the five-part grid; best seeds the running max.

    With k0 and k1 fixed, the three other coordinates share rem = denom -
    k0 - k1, so by concavity of f(p) = -p log p the slice's full-poset value
    is at most (e[k0] + e[k1] + 3 f(rem / (3 denom))) / n. A slice whose
    bound is below the running best cannot hold a better point.
    """
    n = poset.n
    other_maps = maps[:-1]
    for k0 in range(denom + 1):
        for k1 in range(denom + 1 - k0):
            rem = denom - k0 - k1
            share = rem / (3.0 * denom)
            cap = -3.0 * share * math.log(share) if rem else 0.0
            if (e[k0] + e[k1] + cap) / n < best - 1e-12:
                continue
            k2 = np.arange(rem + 1)
            su = k2[:, None] + k2[None, :]
            valid = su <= rem
            k4 = np.where(valid, rem - su, 0)
            vfull = e[k0] + e[k1] + e[k2][:, None] + e[k2][None, :] + e[k4]
            vfull = np.where(valid, vfull / n, -np.inf)
            keep = vfull > best
            if not keep.any():
                continue
            i2, i3 = np.nonzero(keep)
            coords = [
                np.full(i2.shape, k0),
                np.full(i2.shape, k1),
                i2,
                i3,
                rem - i2 - i3,
            ]
            vals = _refine(vfull[keep], coords, e, other_maps)
            best = max(best, float(vals.max()))
    return best


def grid_maximin(poset, denom=400):
    """Max over the simplex grid of the min subposet exponent.

    Every grid point is a genuine weighting, so the result is always a
    valid lower bound for the true optimum; at step 1/denom it is also an
    accurate approximation for interior optima.
    """
    family = antichains(poset)
    m = len(family)
    if m > 5:
        raise ValueError("grid oracle supports antichain counts up to 5")
    maps = _slot_maps(poset, family)
    e = _entropy_table(denom)
    if m <= 4:
        return _eval_matrix(poset, family, maps, denom, e)
    best = -np.inf
    if denom % 8 == 0:
        # The step-8 sub-grid's points are genuine grid points, evaluated by
        # the same arithmetic, so its best seeds the full scan without
        # changing the result.
        best = _eval_streamed_5(poset, maps, denom // 8, e[::8])
    return _eval_streamed_5(poset, maps, denom, e, best)

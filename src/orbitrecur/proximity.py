"""Closest-distance statistics m_n and index-gap variants on orbits.

m_n is the minimum |x_i - x_j| over pairs of distinct iterates among the
first n orbit points. Variants restrict the index gap: "near" keeps
|i - j| <= alpha(n) with alpha(n) = (log n)^2, "far" keeps the complement,
"split" keeps i <= floor(n/3), j >= ceil(2n/3). Every orbit arrives as
one OrbitBuffer of sort keys: exact base-k orbits give exact distances;
floating orbits carry a noise floor and readings within 2^6 of it are
flagged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PrecisionFloorError, ResampleSignal, UnresolvedReturn
from .intervalmaps import EPS64, GROWTH_CAP, IntervalMap, KDoubling, OrbitBuffer
from .rng import derive_seed, make_rng
from .tables import CurveRow, check_curve

__all__ = [
    "ProximityResult",
    "ShortReturnEstimate",
    "alpha_of",
    "closest_pair",
    "closest_pair_bruteforce",
    "curve_min_n",
    "short_return_measure",
    "proximity_curve",
    "FLOOR_REJECT_FACTOR",
]

VARIANTS = ("all", "near", "far", "split")
FLOOR_REJECT_FACTOR = 2.0**6  # readings within 2^6 of the floor are rejected


@dataclass(frozen=True)
class ProximityResult:
    """Minimum distance with its witnessing pair (smallest (i, j) on ties)."""

    value: float
    witness_i: int
    witness_j: int
    variant: str
    below_floor: bool = False
    exact: Fraction | None = None


def alpha_of(n: int) -> int:
    """Index-gap threshold (log n)^2, rounded half-up, floored at 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return max(1, int(math.floor(math.log(n) ** 2 + 0.5)))


def _variant_minlen(variant: str) -> int:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return 3 if variant == "split" else 2


def curve_min_n(variant: str) -> int:
    """Fewest points of a proximity_curve cell; 3 for "far", as alpha_of(2) = 1."""
    return 3 if variant == "far" else _variant_minlen(variant)


def _as_orbit(orbit) -> OrbitBuffer:
    """orbit itself, or a sequence of points as a floating orbit with no
    noise floor."""
    if isinstance(orbit, OrbitBuffer):
        return orbit
    return OrbitBuffer((np.array([float(v) for v in orbit], dtype=np.float64),))


def _to_result(orbit: OrbitBuffer, gap, i: int, j: int, variant: str) -> ProximityResult:
    exact = Fraction(int(gap), math.prod(orbit.radices)) if orbit.radices else None
    value = float(gap if exact is None else exact)
    floor = orbit.noise_floor
    below = floor > 0.0 and value < FLOOR_REJECT_FACTOR * floor
    return ProximityResult(value, i, j, variant, below, exact)


def _carry(diffs: list[np.ndarray], radices) -> None:
    """Move borrows up so that every limb after the first lies in
    [0, radix); the limb tuple then reads as one signed number."""
    for c in range(len(diffs) - 1, 0, -1):
        borrow = diffs[c] < 0
        diffs[c] += borrow * radices[c]
        diffs[c - 1] -= borrow


def _abs_gaps(hi: list[np.ndarray], lo: list[np.ndarray], radices) -> list[np.ndarray]:
    """|hi - lo| row by row, as normalised limbs, so that comparing limb
    tuples lexicographically compares the gaps exactly."""
    diffs = [h - lo_c for h, lo_c in zip(hi, lo)]
    if len(diffs) == 1:
        return [np.abs(diffs[0])]
    _carry(diffs, radices)
    negative = diffs[0] < 0
    if negative.any():
        for d in diffs:
            np.negative(d, out=d, where=negative)
        _carry(diffs, radices)
    return diffs


def _min_rows(gaps: list[np.ndarray]) -> np.ndarray:
    """Rows holding the least gap, narrowed limb by limb."""
    rows = np.flatnonzero(gaps[0] == gaps[0].min())
    for g in gaps[1:]:
        col = g[rows]
        rows = rows[col == col.min()]
    return rows


def _join(limbs: list, radices):
    """One gap from its limb values: a Python int for limbs, else a float."""
    value = limbs[0]
    for limb, radix in zip(limbs[1:], radices[1:]):
        value = value * radix + limb
    return value


def _value_order(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Indices sorting the points by value, ties by index. A sort on the
    first limb alone is unique when that limb has no ties; otherwise a
    stable sort on all limbs decides."""
    order = np.argsort(keys[0])
    lead = keys[0][order]
    if np.any(lead[1:] == lead[:-1]):
        order = np.lexsort(keys[::-1])
    return order


def _offset_scan(keys, radices, perm, offsets, admissible=None, stop=False):
    """Least gap over the pairs (perm[t], perm[t + s]) of each offset s, with
    the smallest (i, j) on ties; None when no pair is admissible.

    `admissible(i, j)`, given index arrays with i < j, masks the pairs a
    variant allows. With `stop`, perm must sort the points by value: each
    pair's gap then grows with s, so the scan ends at the first offset
    whose least gap over all its pairs exceeds the best admissible one.
    """
    ranked = [key[perm] for key in keys]
    best = None  # (limb values, i, j): one comparison orders gaps, then ties
    for s in offsets:
        gaps = _abs_gaps([r[s:] for r in ranked], [r[:-s] for r in ranked], radices)
        rows = _min_rows(gaps)
        if stop and best is not None and [g[rows[0]].item() for g in gaps] > best[0]:
            break
        if admissible is not None:
            a, b = perm[:-s], perm[s:]
            allowed = np.flatnonzero(admissible(np.minimum(a, b), np.maximum(a, b)))
            if allowed.size == 0:
                continue
            rows = allowed[_min_rows([g[allowed] for g in gaps])]
        a, b = perm[rows], perm[rows + s]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        t = np.lexsort((hi, lo))[0]
        cand = ([g[rows[t]].item() for g in gaps], int(lo[t]), int(hi[t]))
        if best is None or cand < best:
            best = cand
    if best is None:
        return None
    limbs, i, j = best
    return _join(limbs, radices), i, j


def closest_pair(orbit, variant: str = "all", alpha: int | None = None) -> ProximityResult:
    """Minimum distance between two iterates under the variant's index rule.

    `orbit` is an OrbitBuffer, or any sequence of points (a floating orbit
    with no noise floor). Every variant runs one offset scan over the
    orbit's sort keys: "all" pairs the neighbours of the value-sorted orbit;
    "near" pairs index offsets 1 to alpha directly; "far" and "split" pair
    ever larger rank offsets of the sorted orbit, keep the pairs their index
    rule admits, and stop once a whole offset lies beyond the best
    admissible gap. Exact orbits are compared limb by limb (see
    OrbitBuffer), so every distance stays exact. Brute force remains the
    arbiter in tests.
    """
    orbit = _as_orbit(orbit)
    keys, radices, n = orbit.keys, orbit.radices, len(orbit)
    if n < _variant_minlen(variant):
        raise ValueError(f"variant {variant!r} needs at least {_variant_minlen(variant)} points")
    if alpha is None:
        alpha = alpha_of(n) if variant in ("near", "far") else 0
    if variant == "all":
        got = _offset_scan(keys, radices, _value_order(keys), (1,))
    elif variant == "near":
        got = _offset_scan(keys, radices, np.arange(n), range(1, min(alpha, n - 1) + 1))
    elif variant == "far" and alpha >= n - 1:
        got = None  # no index gap exceeds alpha
    else:
        if variant == "far":
            def admissible(i, j):
                return j - i > alpha
        else:
            lo_cut, hi_cut = n // 3, math.ceil(2 * n / 3)

            def admissible(i, j):
                return (i <= lo_cut) & (j >= hi_cut)
        got = _offset_scan(keys, radices, _value_order(keys), range(1, n), admissible, stop=True)
    if got is None:
        raise ValueError(f"no admissible pair for variant {variant!r}")
    gap, i, j = got
    return _to_result(orbit, gap, i, j, variant)


def closest_pair_bruteforce(orbit, variant: str = "all", alpha: int | None = None) -> ProximityResult:
    """O(n^2) oracle with the identical contract: the gaps of all pairs the
    variant admits, taken from the float points or the exact windows, in
    (i, j) order, so that the first least gap is the smallest pair on ties."""
    orbit = _as_orbit(orbit)
    n = len(orbit)
    if n < _variant_minlen(variant):
        raise ValueError(f"variant {variant!r} needs at least {_variant_minlen(variant)} points")
    if alpha is None:
        alpha = alpha_of(n) if variant in ("near", "far") else 0
    i, j = np.triu_indices(n, 1)
    if variant == "near":
        keep = j - i <= alpha
    elif variant == "far":
        keep = j - i > alpha
    elif variant == "split":
        keep = (i <= n // 3) & (j >= math.ceil(2 * n / 3))
    else:
        keep = np.ones(len(i), dtype=bool)
    i, j = i[keep], j[keep]
    if i.size == 0:
        raise ValueError(f"no admissible pair for variant {variant!r}")
    values = orbit.points if orbit.windows is None else np.array(orbit.windows, dtype=object)
    gaps = np.abs(values[i] - values[j])
    t = int(np.argmin(gaps))
    return _to_result(orbit, gaps[t], int(i[t]), int(j[t]), variant)


# ---------------------------------------------------------------------------
# Short-return sets E_n(eps) = {x : |x - T^n x| <= eps}
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShortReturnEstimate:
    value: float
    stderr: float


def _short_return_kdoubling(k: int, n_iter: int, eps: float, samples: int,
                            seed: int) -> float:
    """Exact base-k evaluation: x and T^n x as integer windows, with the
    digit count W chosen so m * k^n stays inside int64."""
    W = min(int(50 / math.log2(k)), int(62 / math.log2(k)) - n_iter)
    mod = k**W
    if eps * mod < 1000.0:
        raise ValueError(
            f"eps={eps} too small to resolve at n_iter={n_iter} (window {k}^{W})"
        )
    rng = make_rng(seed)
    m = rng.integers(0, mod, size=samples, dtype=np.int64)
    shifted = (m * (k**n_iter)) % mod
    thresh = int(eps * mod)
    return float(np.mean(np.abs(m - shifted) <= thresh))


def short_return_measure(spec: IntervalMap, n_iter: int, eps: float, samples: int,
                         seed: int = 0) -> ShortReturnEstimate:
    """Monte-Carlo mass of {x : |x - T^n x| <= eps} under the sampling
    measure, with a binomial standard error.

    Multiplication maps are evaluated in exact integer arithmetic; floating
    maps reject eps below the rejection threshold of the worst-case noise
    floor, and step each point n_iter times, dropping the points whose steps
    leave the tractable domain. A map without a floating step raises
    InvalidSystemError.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if n_iter < 1:
        raise ValueError("n_iter must be >= 1")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if eps >= 1.0:
        return ShortReturnEstimate(1.0, 0.0)
    if isinstance(spec, KDoubling):
        p_hat = _short_return_kdoubling(spec.k, n_iter, eps, samples, seed)
    else:
        worst_floor = EPS64 * GROWTH_CAP
        if eps < FLOOR_REJECT_FACTOR * worst_floor:
            raise PrecisionFloorError(
                f"eps={eps} below the floating precision floor {FLOOR_REJECT_FACTOR * worst_floor}"
            )
        x0 = spec.sample(make_rng(seed), samples)
        x = np.array([_image(spec, x, n_iter) for x in x0.tolist()])
        good = np.isfinite(x)
        p_hat = float(np.mean(np.abs(x0[good] - x[good]) <= eps))
    stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
    return ShortReturnEstimate(p_hat, stderr)


def _image(spec: IntervalMap, x: float, n_iter: int) -> float:
    """T^n_iter x by the map's step, or NaN once a step leaves the tractable
    domain."""
    try:
        for _ in range(n_iter):
            x, _ = spec.step(x)
    except (ResampleSignal, UnresolvedReturn):
        return math.nan
    return x


# ---------------------------------------------------------------------------
# Proximity curves
# ---------------------------------------------------------------------------


def proximity_curve(spec: IntervalMap, n_grid, replicates: int, variant: str = "all",
                    seed: int = 0, burn_in: int | None = None) -> list[CurveRow]:
    """m_n across a grid of n with independent replicates, each on the
    cell's orbit `spec.orbit` (burn_in None: the map's default).

    value = -log m_n / log n (the quantity with a dimension-law limit),
    aux = -log m_n. Zero distances (exact duplicates) and readings at the
    noise floor are flagged "floor" and excluded from fits downstream;
    resampled cells keep their value with flag "resampled".
    """
    n_grid = check_curve(n_grid, replicates, curve_min_n(variant))
    rows = []
    for n in n_grid:
        for rep in range(replicates):
            cell_seed = derive_seed(seed, "proximity_curve", n, rep)
            orb = spec.orbit(n, cell_seed, burn_in)
            res = closest_pair(orb, variant)
            if res.value > 0.0:
                aux = -math.log(res.value)
                value = aux / math.log(n)
            else:
                aux = math.inf
                value = math.inf
            flag = "ok"
            if res.below_floor or not math.isfinite(value):
                flag = "floor"
            elif orb.resampled:
                flag = "resampled"
            rows.append(CurveRow(n=n, replicate=rep, seed=cell_seed, value=value,
                                 aux=aux, flag=flag))
    return rows

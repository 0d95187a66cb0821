"""Closest-distance statistics m_n and index-gap variants on orbits.

m_n is the minimum |x_i - x_j| over pairs of distinct iterates among the
first n orbit points. Variants restrict the index gap: "near" keeps
|i - j| <= alpha(n) with alpha(n) = (log n)^2, "far" keeps the complement,
"split" keeps i <= floor(n/3), j >= ceil(2n/3). Every orbit arrives as
one OrbitBuffer of sort keys: exact base-k orbits give exact distances;
floating orbits carry a noise floor and readings within 2^6 of it are
flagged. Every variant is one offset scan along the value order of the
keys: "near", "far" and "split" stop once a whole offset lies beyond the
best admissible gap; "all" scans only the few points whose leading key
ends a least gap of the sorted leading keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import PrecisionFloorError, ResampleSignal, UnresolvedReturn
from .intervalmaps import CHUNK, EPS64, GROWTH_CAP, IntervalMap, KDoubling, OrbitBuffer
from .rng import make_rng
from .tables import CurveRow, curve_cells, curve_row

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
    below_floor: bool = False
    exact: Fraction | None = None


def alpha_of(n: int) -> int:
    """Index-gap threshold (log n)^2, rounded half-up, floored at 1."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return max(1, int(math.floor(math.log(n) ** 2 + 0.5)))


def curve_min_n(variant: str) -> int:
    """Fewest points a variant needs: 3 for "split", and for "far", as
    alpha_of(2) = 1; 2 otherwise."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    return 3 if variant in ("far", "split") else 2


def _arguments(orbit, variant: str, alpha: int | None) -> tuple[OrbitBuffer, int, int]:
    """The checked arguments of a closest-pair call: the orbit (an
    OrbitBuffer, or a sequence of finite points as a floating orbit with no
    noise floor), its length n, at least curve_min_n(variant), and alpha
    (None: alpha_of(n) for "near" and "far", else 0)."""
    if not isinstance(orbit, OrbitBuffer):
        points = np.array([float(v) for v in orbit], dtype=np.float64)
        if not np.isfinite(points).all():
            raise ValueError("points must be finite")
        orbit = OrbitBuffer((points,))
    n = len(orbit)
    if n < curve_min_n(variant):
        raise ValueError(f"variant {variant!r} needs at least {curve_min_n(variant)} points")
    if alpha is None:
        alpha = alpha_of(n) if variant in ("near", "far") else 0
    return orbit, n, alpha


def _to_result(orbit: OrbitBuffer, gap, i: int, j: int) -> ProximityResult:
    exact = Fraction(int(gap), math.prod(orbit.radices)) if orbit.radices else None
    value = float(gap if exact is None else exact)
    floor = orbit.noise_floor
    below = floor > 0.0 and value < FLOOR_REJECT_FACTOR * floor
    return ProximityResult(value, i, j, below, exact)


def _gaps(hi: list[np.ndarray], lo: list[np.ndarray], radices) -> list[np.ndarray]:
    """hi - lo row by row, where no row of hi lies below its row of lo, as
    normalised limbs, so that comparing limb tuples lexicographically
    compares the gaps exactly: limbs are subtracted into int64, and a pass
    moves borrows up until every limb after the first lies in [0, radix).
    A float key keeps its absolute value, so that -0.0 - 0.0 reads 0.0."""
    if not radices:
        return [np.abs(hi[0] - lo[0])]
    diffs = [np.subtract(h, lo_c, dtype=np.int64) for h, lo_c in zip(hi, lo)]
    for c in range(len(diffs) - 1, 0, -1):
        borrow = diffs[c] < 0
        diffs[c] += borrow * radices[c]
        diffs[c - 1] -= borrow
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


def _candidates(keys: tuple[np.ndarray, ...]) -> np.ndarray:
    """Indices, ascending, of the points that can end the closest pair of
    value neighbours: every point whose leading key ends a row of the
    sorted leading keys whose gap is within `slack` of the least one.

    With one key the leading gap is the gap, and the slack is 0. Later limbs
    move a gap by less than one unit of the leading limb, so with several
    no row beyond the least leading gap + 1 holds the least gap. Two
    candidates adjacent only among the candidates straddle a point that is
    not one, so their gap exceeds such a row's: the candidates hold the
    least gap and all its ties, as neighbours.

    The working set is one sorted copy of the leading key, the candidates'
    end values and O(CHUNK) scratch: the gaps and the membership test run
    over chunks. A leading uint32 limb is shared by many points at large n,
    so the ends can be hundreds; a table of the low 16 bits of their bit
    patterns passes on only the few points that may be ends, and a binary
    search in the sorted ends decides those by value.
    """
    v = np.sort(keys[0])
    slack = 1 if len(keys) > 1 else 0
    least = min(gaps.min() for _, gaps in _sorted_gaps(v)).item()  # a Python number: no wrap
    rows = np.concatenate([a + np.flatnonzero(gaps <= least + slack)
                           for a, gaps in _sorted_gaps(v)])
    ends = np.sort(np.concatenate((v[rows], v[rows + 1])))
    del v
    table = np.zeros(1 << 16, dtype=bool)
    table[_low_bits(ends)] = True
    found, bits = [], np.empty(CHUNK, dtype=np.intp)
    for a in range(0, len(keys[0]), CHUNK):
        chunk = keys[0][a : a + CHUNK]
        maybe = np.flatnonzero(table[_low_bits(chunk, bits[: len(chunk)])])
        at = np.minimum(np.searchsorted(ends, chunk[maybe]), len(ends) - 1)
        found.append(a + maybe[ends[at] == chunk[maybe]])
    return np.concatenate(found)


def _low_bits(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The low 16 bits of each value's bit pattern, as table indices (into
    an intp `out`, which indexes without a cast): equal values share them
    (a float's sign sits in its high bit, so 0.0 and -0.0 do too)."""
    return np.bitwise_and(values.view(f"u{values.itemsize}"), 0xFFFF, out=out, casting="unsafe")


def _sorted_gaps(v: np.ndarray):
    """(a, v[a + 1 : b + 1] - v[a : b]) over the ascending chunks [a, b) of
    the rows of a sorted array."""
    for a in range(0, len(v) - 1, CHUNK):
        b = min(a + CHUNK, len(v) - 1)
        yield a, v[a + 1 : b + 1] - v[a:b]


def _offset_scan(keys, radices, offsets, admissible=None):
    """Least gap over the pairs of points s places apart in the value order
    (ties by index), for each offset s, with the smallest (i, j) on ties;
    None when no pair is admissible.

    `admissible(i, j)`, given index arrays with i < j, masks the pairs a
    variant allows. A pair s places apart spans the pairs between, so the
    least gap of an offset never falls as s grows: the scan ends at the
    first offset whose least gap over all its pairs exceeds the best
    admissible one (strictly, so that ties at larger offsets are kept).
    """
    # a sort on the leading key alone is unique when it has no ties;
    # otherwise a stable sort on all limbs decides. Two uint32 limbs join
    # into one uint64 leading key, as k^L <= 2^32 for each.
    lead = keys[0]
    if len(keys) > 1 and lead.dtype == np.uint32:
        lead = lead.astype(np.uint64)
        lead *= radices[1]
        lead += keys[1]
    perm = np.argsort(lead)
    lead = lead[perm]
    if np.any(lead[1:] == lead[:-1]):
        perm = np.lexsort(keys[::-1])
    del lead
    ranked = [key[perm] for key in keys]
    best = None  # (limb values, i, j): one comparison orders gaps, then ties
    for s in offsets:
        gaps = _gaps([r[s:] for r in ranked], [r[:-s] for r in ranked], radices)
        rows = _min_rows(gaps)
        if best is not None and [g[rows[0]].item() for g in gaps] > best[0]:
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
    with no noise floor). Every variant runs one offset scan along the value
    order of the orbit's sort keys: "all" pairs the value neighbours among
    the few points that a sort of the leading key alone leaves as candidates
    (see _candidates); "near", "far" and "split" pair ever larger rank
    offsets of the whole orbit, keep the pairs their index rule admits, and
    stop once a whole offset lies beyond the best admissible gap. Exact
    orbits are compared limb by limb (see OrbitBuffer), so every distance
    stays exact. Brute force remains the arbiter in tests.
    """
    orbit, n, alpha = _arguments(orbit, variant, alpha)
    keys, radices = orbit.keys, orbit.radices
    if variant == "all":
        idx = _candidates(keys)
        gap, i, j = _offset_scan(tuple(key[idx] for key in keys), radices, (1,))
        got = gap, int(idx[i]), int(idx[j])
    elif variant == "near" and alpha < 1 or variant == "far" and alpha >= n - 1:
        got = None  # no index gap is admitted
    else:
        admissible = {
            "near": lambda i, j: j - i <= alpha,
            "far": lambda i, j: j - i > alpha,
            "split": lambda i, j: (i <= n // 3) & (j >= math.ceil(2 * n / 3)),
        }[variant]
        got = _offset_scan(keys, radices, range(1, n), admissible)
    if got is None:
        raise ValueError(f"no admissible pair for variant {variant!r}")
    gap, i, j = got
    return _to_result(orbit, gap, i, j)


def closest_pair_bruteforce(orbit, variant: str = "all", alpha: int | None = None) -> ProximityResult:
    """O(n^2) oracle with the identical contract: the gaps of all pairs the
    variant admits, taken from the float points or the exact windows, in
    (i, j) order, so that the first least gap is the smallest pair on ties."""
    orbit, n, alpha = _arguments(orbit, variant, alpha)
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
    return _to_result(orbit, gaps[t], int(i[t]), int(j[t]))


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
    resampled cells keep their value with flag "resampled". One cell's orbit
    is in memory at a time.
    """
    rows = []
    for n, rep, cell_seed in curve_cells("proximity_curve", n_grid, replicates, seed,
                                         curve_min_n(variant)):
        orb = spec.orbit(n, cell_seed, burn_in)
        res = closest_pair(orb, variant)
        flag = ("floor" if res.below_floor or res.value == 0.0
                else "resampled" if orb.resampled else "ok")
        del orb  # freed before the next cell's orbit is built
        aux = -math.log(res.value) if res.value > 0.0 else math.inf
        rows.append(curve_row(n, rep, cell_seed, aux, flag))
    return rows

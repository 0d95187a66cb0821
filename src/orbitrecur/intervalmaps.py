"""Expanding interval maps: orbit generation with explicit precision policy.

Four map families: mod-1 multiplication by k (exact base-k window
arithmetic), countable full-branch piecewise affine maps truncated at a
finite branch count, the continued-fraction map 1/x mod 1 with its classical
invariant density, and the first-return map of an intermittent map to
[0, 1/2). Multiplication orbits are exact dyadic rationals; the others are
64-bit floating orbits carrying a recorded noise floor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidSystemError, ResampleSignal, TailHit, UnresolvedReturn
from .rng import make_rng

__all__ = [
    "KDoubling",
    "PiecewiseAffine",
    "GaussMap",
    "MPInduced",
    "OrbitBuffer",
    "FirstReturnSample",
    "doubling_orbit_exact",
    "iterate",
    "sample_initial",
    "gauss_inverse_cdf",
    "mp_first_return",
    "min_window_digits",
    "EPS64",
]

EPS64 = 2.0**-52  # unit roundoff scale for 64-bit orbits
GROWTH_CAP = 2.0**8  # cap on the accumulated expansion factor in the floor
LIMB_BOUND = 2**63  # exact orbits hold base-k digits in int64 limbs, each below this


@dataclass(frozen=True)
class KDoubling:
    """x -> k x (mod 1) with Lebesgue as invariant measure."""

    k: int = 2

    def __post_init__(self):
        if not 2 <= self.k < LIMB_BOUND:
            raise InvalidSystemError("need 2 <= k < 2^63 (exact orbits keep digits in int64 limbs)")


@dataclass(frozen=True)
class PiecewiseAffine:
    """Full-branch affine map on breakpoints 1 = a_1 > a_2 > ... > a_K > 0.

    Branch j (j = 1..K-1) maps [a_{j+1}, a_j) affinely onto [0, 1); the tail
    [0, a_K) stands for the truncated remaining branches and its Lebesgue
    mass is reported. Lebesgue measure is invariant (inverse-slope masses sum
    to 1 over the kept branches up to the tail).
    """

    breakpoints: tuple[float, ...]

    def __post_init__(self):
        bp = tuple(float(x) for x in self.breakpoints)
        if len(bp) < 2:
            raise InvalidSystemError("need at least two breakpoints")
        if bp[0] != 1.0:
            raise InvalidSystemError("a_1 must equal 1")
        if any(b >= a for a, b in zip(bp, bp[1:])):
            raise InvalidSystemError("breakpoints must be strictly decreasing")
        if bp[-1] <= 0.0:
            raise InvalidSystemError("breakpoints must stay positive")
        object.__setattr__(self, "breakpoints", bp)

    @classmethod
    def dyadic(cls, truncation: int = 40) -> "PiecewiseAffine":
        """The a_j = 2^(1-j) family truncated at `truncation` breakpoints."""
        if truncation < 2:
            raise InvalidSystemError("truncation must be >= 2")
        return cls(tuple(2.0 ** (1 - j) for j in range(1, truncation + 1)))

    @property
    def tail_mass(self) -> float:
        return self.breakpoints[-1]


@dataclass(frozen=True)
class GaussMap:
    """x -> 1/x (mod 1) on (0, 1]; invariant density 1 / ((1+x) log 2)."""


@dataclass(frozen=True)
class MPInduced:
    """First-return map to [0, 1/2) of the intermittent map
    x -> x (1 + 2^a x^a) on [0, 1/2), 2x - 1 on [1/2, 1], for a in (0, 1)."""

    a: float = 0.5
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise InvalidSystemError("need a in (0, 1)")


MapSpec = KDoubling | PiecewiseAffine | GaussMap | MPInduced


class OrbitBuffer:
    """n orbit points with precision metadata; read-only.

    Floating orbits hold float64 points and a noise floor of machine epsilon
    times the accumulated expansion factor, capped.

    Exact base-k orbits ("exact_dyadic") hold point i, the W-digit window
    starting at digit i, as C int64 limbs: limb c is the base-k value of
    digits [i + cL, i + cL + L) with L the largest count whose k^L stays
    below 2^63, the last limb narrower. Comparing limb tuples compares the
    points exactly; `proximity.closest_pair` works on the limbs. The window
    integers `windows` and the float `points` (window / k^W) are derived on
    first access and cached.
    """

    def __init__(self, points, map: MapSpec, seed: int, precision: str,
                 noise_floor: float = 0.0, resampled: bool = False,
                 limbs: tuple[np.ndarray, ...] = (), window_bits: int = 0, base: int = 2):
        self.__dict__.update(map=map, seed=seed, precision=precision,
                             noise_floor=noise_floor, resampled=resampled,
                             limbs=tuple(limbs), window_bits=window_bits, base=base)
        if points is not None:
            pts = np.array(points, dtype=np.float64)
            pts.setflags(write=False)
            self.__dict__["points"] = pts

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __len__(self) -> int:
        return len(self.limbs[0]) if self.limbs else len(self.points)

    @property
    def limb_radices(self) -> tuple[int, ...]:
        """k^(digits of limb c) for each limb."""
        return tuple(self.base**w for w in _limb_widths(self.base, self.window_bits))

    @functools.cached_property
    def windows(self) -> tuple[int, ...] | None:
        """Window integers of an exact orbit (None for floating orbits)."""
        if not self.limbs:
            return None
        acc = self.limbs[0].tolist()
        for limb, radix in zip(self.limbs[1:], self.limb_radices[1:]):
            acc = [a * radix + b for a, b in zip(acc, limb.tolist())]
        return tuple(acc)

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Float points of an exact orbit: each window over float(k^W)."""
        denom = float(self.base**self.window_bits)
        pts = np.array([w / denom for w in self.windows], dtype=np.float64)
        pts.setflags(write=False)
        return pts

    def exact_distance(self, i: int, j: int) -> Fraction:
        if self.windows is None:
            raise ValueError("exact distances need an exact_dyadic orbit")
        return Fraction(abs(self.windows[i] - self.windows[j]), self.base**self.window_bits)


@dataclass(frozen=True)
class FirstReturnSample:
    """One evaluation of the first-return map: F(x) = f^tau(x)."""

    x: float
    fx: float
    tau: int


def min_window_digits(k: int, n: int) -> int:
    """Smallest admissible window width: the n^-2 distance scale must stay
    resolvable with guard digits."""
    return math.ceil(4.0 * math.log(max(n, 2)) / math.log(k)) + 16


def doubling_orbit_exact(k: int, n: int, window_bits: int, digits: Sequence[int] | None = None,
                         seed: int = 0, enforce_floor: bool = True) -> OrbitBuffer:
    """Exact orbit of x -> k x (mod 1) as sliding base-k digit windows.

    Draw n + W digits; point i is the W-digit window starting at digit i, so
    the i-th iterate is exact and pairwise distances are exact base-k
    rationals; they are stored as int64 limbs (see OrbitBuffer).
    enforce_floor=False admits windows too narrow for the n^-2 distance
    scale; only for hand-sized demonstrations.
    """
    spec = KDoubling(k)
    if n < 1:
        raise ValueError("n must be >= 1")
    floor = min_window_digits(k, n)
    if enforce_floor and window_bits < floor:
        raise ValueError(f"window_bits={window_bits} below the floor {floor} for n={n}")
    if window_bits < 1:
        raise ValueError("window_bits must be >= 1")
    W = window_bits
    if digits is None:
        digit_arr = make_rng(seed).integers(0, k, size=n + W)
    else:
        digit_list = [int(d) for d in digits]
        if len(digit_list) < n + W:
            raise ValueError(f"need at least n + W = {n + W} digits")
        if any(d < 0 or d >= k for d in digit_list):
            raise ValueError("digits out of range")
        digit_arr = np.array(digit_list, dtype=np.int64)
    widths = _limb_widths(k, W)
    # Horner passes over shifted slices, g digits at a time: pack[i] holds
    # the value of digits [i, i + g), so a limb of L digits takes about
    # L / g + g passes instead of L
    g = math.isqrt(widths[0])
    span = n + W - g + 1
    pack = digit_arr[:span].astype(np.int64)
    for t in range(1, g):
        pack *= k
        pack += digit_arr[t : t + span]
    limbs = []
    start = 0
    for width in widths:
        limb = np.zeros(n, dtype=np.int64)
        packed = width - width % g
        for t in range(start, start + packed, g):
            limb *= k**g
            limb += pack[t : t + n]
        for t in range(start + packed, start + width):
            limb *= k
            limb += digit_arr[t : t + n]
        limb.setflags(write=False)
        limbs.append(limb)
        start += width
    return OrbitBuffer(None, spec, seed, "exact_dyadic",
                       limbs=tuple(limbs), window_bits=W, base=k)


def _limb_widths(k: int, window_bits: int) -> list[int]:
    """Digit counts of the int64 limbs of a window: L each, with L the largest
    count whose k^L stays below LIMB_BOUND, and a narrower last limb."""
    L = 1
    while k ** (L + 1) < LIMB_BOUND:
        L += 1
    return [min(L, window_bits - c) for c in range(0, window_bits, L)]


def _affine_branch(m: PiecewiseAffine, x: float) -> int:
    """1-based branch index j with a_{j+1} <= x < a_j."""
    bp = m.breakpoints
    if x >= 1.0 or x < 0.0:
        raise ResampleSignal(f"point {x} outside the domain [0, 1)")
    if x < bp[-1]:
        raise TailHit(f"point {x} fell into the truncated tail [0, {bp[-1]})")
    lo, hi = 0, len(bp) - 1  # find j with bp[j] > x >= bp[j+1] (0-based)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x < bp[mid]:
            lo = mid
        else:
            hi = mid
    return lo + 1


def _step(spec: MapSpec, x: float) -> tuple[float, float]:
    """One map application: (image, branch sup |derivative|)."""
    if isinstance(spec, KDoubling):
        y = x * spec.k
        return y - math.floor(y), float(spec.k)
    if isinstance(spec, GaussMap):
        if x <= 0.0 or x > 1.0:
            raise ResampleSignal(f"point {x} outside (0, 1] (fixed point at 0)")
        inv = 1.0 / x
        d = math.floor(inv)
        y = inv - d
        return y, (d + 1.0) ** 2  # sup of 1/x^2 on the branch [1/(d+1), 1/d]
    if isinstance(spec, PiecewiseAffine):
        j = _affine_branch(spec, x)
        hi, lo = spec.breakpoints[j - 1], spec.breakpoints[j]
        y = (x - lo) / (hi - lo)
        if y >= 1.0:
            raise ResampleSignal("image rounded onto the right endpoint")
        return y, 1.0 / (hi - lo)
    if isinstance(spec, MPInduced):
        sample = mp_first_return(spec.a, x, spec.max_steps)
        # expansion bound along the excursion: 2^(tau-1) from the affine leg
        # times the derivative of the intermittent branch (>= 1)
        return sample.fx, 2.0 ** max(sample.tau - 1, 0)
    raise TypeError(f"unknown map spec {type(spec).__name__}")


def iterate(spec: MapSpec, x0: float, n: int, burn_in: int = 0, seed: int = 0) -> OrbitBuffer:
    """Forward orbit of n points starting at x0 (after burn_in discarded
    steps), recording the capped expansion bound as a noise floor.

    Landing exactly on a partition endpoint raises ResampleSignal so the
    caller can redraw the initial point.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = float(x0)
    growth = 1.0
    for _ in range(burn_in):
        x, _ = _step(spec, x)
    pts = np.empty(n, dtype=np.float64)
    pts[0] = x
    for i in range(1, n):
        x, g = _step(spec, x)
        growth = min(growth * g, GROWTH_CAP)
        pts[i] = x
    return OrbitBuffer(pts, spec, seed, "floating", noise_floor=EPS64 * growth)


def affine_orbit(spec: PiecewiseAffine, n: int, seed: int = 0) -> OrbitBuffer:
    """Stationary orbit of a full-branch affine map by inverse-branch
    reconstruction.

    Forward float iteration of dyadic-breakpoint branches is exact binary
    shifting: every step consumes mantissa bits and the orbit collapses to 0
    within ~50 steps. Instead the branch itinerary is drawn i.i.d. with the
    Lebesgue branch masses (the exact symbolic law of the invariant measure)
    and point t is reconstructed through 60 inverse branches, which are
    contractions; the truncation error is below one ulp from depth 54.
    Itinerary draws landing in the truncated tail are redrawn.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    depth = 60
    bp = np.asarray(spec.breakpoints)
    tail = spec.tail_mass
    rng = make_rng(seed)
    u = rng.random(n + depth)
    resampled = False
    while True:
        in_tail = u < tail  # tail draws are redrawn, not truncated away
        if not in_tail.any():
            break
        resampled = True
        u[in_tail] = rng.random(int(in_tail.sum()))
    asc = bp[::-1]
    branch = len(bp) - np.searchsorted(asc, u, side="right")  # 1-based branch of u
    branch = np.clip(branch, 1, len(bp) - 1)
    lo = bp[branch]  # a_{j+1}
    w = bp[branch - 1] - bp[branch]
    x = np.full(n, 0.5)
    for d in range(depth - 1, -1, -1):
        x = lo[d : d + n] + x * w[d : d + n]
    return OrbitBuffer(x, spec, seed, "floating", noise_floor=2.0 * EPS64,
                       resampled=resampled)


def gauss_inverse_cdf(u: float) -> float:
    """Inverse of the distribution function log2(1 + x): u -> 2^u - 1."""
    return 2.0**u - 1.0


def sample_initial(spec: MapSpec, rng: np.random.Generator) -> float:
    """Draw an initial point from the map's sampling measure.

    Continued-fraction map: inverse-CDF draw of the classical invariant
    density. Others: Lebesgue-uniform on the domain.
    """
    if isinstance(spec, GaussMap):
        return gauss_inverse_cdf(float(rng.random()))
    if isinstance(spec, MPInduced):
        return float(rng.random()) * 0.5
    return float(rng.random())


def mp_first_return(a: float, x: float, max_steps: int = 1_000_000) -> FirstReturnSample:
    """First return of the intermittent map to [0, 1/2).

    tau is the smallest t >= 1 with f^t(x) back in [0, 1/2); excursions near
    the neutral fixed point are long but finite for x > 0.
    """
    if not 0.0 <= x < 0.5:
        raise ValueError("x must lie in [0, 1/2)")
    if not 0.0 < a < 1.0:
        raise InvalidSystemError("need a in (0, 1)")
    y = x * (1.0 + 2.0**a * x**a)
    tau = 1
    while y >= 0.5:
        if y > 1.0:
            raise ResampleSignal(f"intermittent branch overshot to {y}")
        y = 2.0 * y - 1.0
        tau += 1
        if tau > max_steps:
            raise UnresolvedReturn(f"no return within {max_steps} steps from x={x}")
    return FirstReturnSample(x, y, tau)

"""Expanding interval maps: orbit generation with explicit precision policy.

Four map families, each an IntervalMap that samples points and builds the
orbit of an experiment cell: mod-1 multiplication by k (exact base-k window
arithmetic), countable full-branch piecewise affine maps truncated at a
finite branch count, the continued-fraction map 1/x mod 1 with its classical
invariant density, and the first-return map of an intermittent map to
[0, 1/2). Every orbit is one OrbitBuffer, its points as sort keys:
multiplication orbits are exact base-k rationals held in uint32 or int64
limbs, whichever packs more digits per byte for k; the others are one
float64 key with a recorded noise floor.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

from .errors import InvalidSystemError, ResampleSignal, UnresolvedReturn
from .rng import make_rng

__all__ = [
    "IntervalMap",
    "KDoubling",
    "PiecewiseAffine",
    "GaussMap",
    "MPInduced",
    "OrbitBuffer",
    "FirstReturnSample",
    "doubling_orbit_exact",
    "iterate",
    "gauss_inverse_cdf",
    "mp_first_return",
    "min_window_digits",
    "EPS64",
]

EPS64 = 2.0**-52  # unit roundoff scale for 64-bit orbits
GROWTH_CAP = 2.0**8  # cap on the accumulated expansion factor in the floor
# exact orbits hold base-k digits in int64 limbs, each below LIMB_BOUND, or in
# uint32 limbs, each at most NARROW_LIMB_BOUND, where those pack more digits
LIMB_BOUND = 2**63
NARROW_LIMB_BOUND = 2**32
CHUNK = 1 << 15  # entries per step of a pass over an orbit-length array, which needs O(CHUNK) scratch


class IntervalMap:
    """What every map spec does: draw points of its sampling measure
    (`sample`), build the n-point orbit of one experiment cell (`orbit`),
    and, for maps iterated in floating point, step one point forward
    (`step`).

    The defaults sample Lebesgue on [0, 1) and build a floating orbit by
    iterating `step` from a drawn point. Maps whose orbit is exact or
    reconstructed override `orbit`, have no `step`, and take no burn-in.
    """

    burn_in: ClassVar[int | None] = 0  # default discarded steps; None: orbit not iterated

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` draws of the sampling measure; one draw of `size` gives the
        same points as `size` draws of one."""
        return rng.random(size)

    def step(self, x: float) -> tuple[float, float]:
        """One map application: (image, branch sup |derivative|)."""
        raise InvalidSystemError(f"{type(self).__name__} has no forward floating step")

    def resolve_burn_in(self, burn_in: int | None) -> int | None:
        """burn_in, or the map's default when None; raise InvalidSystemError
        for a negative burn_in, or any burn_in on a map whose orbit is not
        iterated."""
        if burn_in is None:
            return self.burn_in
        if self.burn_in is None or burn_in < 0:
            raise InvalidSystemError(f"no burn_in of {burn_in} steps for {type(self).__name__}: "
                                     "it needs an iterated orbit and burn_in >= 0")
        return burn_in

    def orbit(self, n: int, seed: int, burn_in: int | None = None) -> OrbitBuffer:
        """The n-point orbit of one experiment cell, determined by its seed:
        iterate from a drawn point after burn_in discarded steps, redrawing
        (and flagging the orbit resampled) up to 32 times while it hits a
        partition endpoint."""
        burn_in = self.resolve_burn_in(burn_in)
        rng = make_rng(seed)
        for attempt in range(32):
            try:
                orb = iterate(self, self.sample(rng, 1)[0], n, burn_in=burn_in)
            except ResampleSignal:
                continue
            return dataclasses.replace(orb, resampled=True) if attempt else orb
        raise ResampleSignal("exceeded 32 resampling attempts")


@dataclass(frozen=True)
class KDoubling(IntervalMap):
    """x -> k x (mod 1) with Lebesgue as invariant measure."""

    k: int = 2
    burn_in: ClassVar[None] = None

    def __post_init__(self):
        if not 2 <= self.k < LIMB_BOUND:
            raise InvalidSystemError("need 2 <= k < 2^63 (exact orbits keep digits in uint32 "
                                     "or int64 limbs)")

    def orbit(self, n: int, seed: int, burn_in: int | None = None) -> OrbitBuffer:
        """The exact orbit of base-k digit windows."""
        self.resolve_burn_in(burn_in)
        return doubling_orbit_exact(self.k, n, min_window_digits(self.k, n), seed=seed)


@dataclass(frozen=True)
class PiecewiseAffine(IntervalMap):
    """Full-branch affine map on breakpoints 1 = a_1 > a_2 > ... > a_K > 0.

    Branch j (j = 1..K-1) maps [a_{j+1}, a_j) affinely onto [0, 1); the tail
    [0, a_K) stands for the truncated remaining branches and its Lebesgue
    mass is reported. Lebesgue measure is invariant (inverse-slope masses sum
    to 1 over the kept branches up to the tail).
    """

    breakpoints: tuple[float, ...]
    burn_in: ClassVar[None] = None

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

    def orbit(self, n: int, seed: int, burn_in: int | None = None) -> OrbitBuffer:
        """The stationary orbit by inverse-branch reconstruction: forward float
        iteration of affine branches sheds mantissa bits (see affine_orbit)."""
        self.resolve_burn_in(burn_in)
        return affine_orbit(self, n, seed=seed)


@dataclass(frozen=True)
class GaussMap(IntervalMap):
    """x -> 1/x (mod 1) on (0, 1]; invariant density 1 / ((1+x) log 2)."""

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF draws of the invariant density, by Python's float power:
        numpy's power and exp2 round some of them differently."""
        return np.array([gauss_inverse_cdf(u) for u in rng.random(size).tolist()])

    def step(self, x: float) -> tuple[float, float]:
        if x <= 0.0 or x > 1.0:
            raise ResampleSignal(f"point {x} outside (0, 1] (fixed point at 0)")
        inv = 1.0 / x
        d = math.floor(inv)
        return inv - d, (d + 1.0) ** 2  # sup of 1/x^2 on the branch [1/(d+1), 1/d]


@dataclass(frozen=True)
class MPInduced(IntervalMap):
    """First-return map to [0, 1/2) of the intermittent map
    x -> x (1 + 2^a x^a) on [0, 1/2), 2x - 1 on [1/2, 1], for a in (0, 1);
    sampled Lebesgue on [0, 1/2), and orbits discard 1000 steps by default."""

    a: float = 0.5
    burn_in: ClassVar[int] = 1000

    def __post_init__(self):
        if not 0.0 < self.a < 1.0:
            raise InvalidSystemError("need a in (0, 1)")

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size) * 0.5

    def step(self, x: float) -> tuple[float, float]:
        sample = mp_first_return(self.a, x)
        # expansion bound along the excursion: 2^(tau-1) from the affine leg
        # times the derivative of the intermittent branch (>= 1)
        return sample.fx, 2.0 ** max(sample.tau - 1, 0)


@dataclass(frozen=True, eq=False)
class OrbitBuffer:
    """n orbit points as sort keys: comparing key tuples compares the points.

    `keys` hold the points most significant first, each a read-only array
    (frozen in place, never copied). A floating orbit has one float64 key,
    no `radices`, and a noise floor of machine epsilon times the accumulated
    expansion factor, capped. An exact base-k orbit holds point i, the
    W-digit window starting at digit i, as limbs: limb c is the base-k value
    of digits [i + cL, i + cL + L), the last limb narrower, and `radices[c]`
    is k^(digits of limb c), so k^W is their product. The limbs are uint32,
    L the most digits whose k^L is at most 2^32 (32 for k = 2, 20 for
    k = 3), where that packs more digits per byte than int64 limbs, L the
    most digits whose k^L stays below 2^63; else int64 (27 digits for k = 5,
    22 for k = 7, 9 for k = 100; see _limb_layout). Limb c of point i is
    limb 0 of point i + cL, so the full limbs are views of one read-only
    base, limb c its entries [cL, cL + n), and a narrower last limb of w
    digits is the low w digits of the base W - L entries on, an array of
    its own. The window integers `windows` and the float `points`
    (window / k^W) of an exact orbit are derived on first access and
    cached.
    """

    keys: tuple[np.ndarray, ...]
    radices: tuple[int, ...] = ()
    noise_floor: float = 0.0
    resampled: bool = False

    def __post_init__(self):
        for key in self.keys:
            key.setflags(write=False)

    def __len__(self) -> int:
        return len(self.keys[0])

    @functools.cached_property
    def windows(self) -> tuple[int, ...] | None:
        """Window integers of an exact orbit (None for floating orbits)."""
        if not self.radices:
            return None
        acc = self.keys[0].tolist()
        for limb, radix in zip(self.keys[1:], self.radices[1:]):
            acc = [a * radix + b for a, b in zip(acc, limb.tolist())]
        return tuple(acc)

    @functools.cached_property
    def points(self) -> np.ndarray:
        """The float points: the key of a floating orbit, or each window of
        an exact orbit over float(k^W)."""
        if not self.radices:
            return self.keys[0]
        denom = float(math.prod(self.radices))
        pts = np.array([w / denom for w in self.windows], dtype=np.float64)
        pts.setflags(write=False)
        return pts


@dataclass(frozen=True)
class FirstReturnSample:
    """One evaluation of the first-return map: F(x) = f^tau(x)."""

    fx: float
    tau: int


def min_window_digits(k: int, n: int) -> int:
    """Smallest admissible window width: the n^-2 distance scale must stay
    resolvable with guard digits."""
    return math.ceil(4.0 * math.log(max(n, 2)) / math.log(k)) + 16


def doubling_orbit_exact(k: int, n: int, window_bits: int, digits: Sequence[int] | None = None,
                         seed: int = 0, enforce_floor: bool = True) -> OrbitBuffer:
    """Exact orbit of x -> k x (mod 1) as sliding base-k digit windows.

    Draw n + W digits straight into the limb dtype; point i is the W-digit
    window starting at digit i, so the i-th iterate is exact and pairwise
    distances are exact base-k rationals; they are stored as uint32 or int64
    limbs (see OrbitBuffer). The working set is one level of n + W window
    values in the limb dtype beside the base of n + W - L values of L
    digits (the last level itself where L is a power of two), then the base
    beside the n values of a narrower last limb, and O(CHUNK) scratch.
    enforce_floor=False admits windows too narrow for the n^-2 distance
    scale; only for hand-sized demonstrations.
    """
    KDoubling(k)  # InvalidSystemError unless 2 <= k < 2^63
    if n < 1:
        raise ValueError("n must be >= 1")
    floor = min_window_digits(k, n)
    if enforce_floor and window_bits < floor:
        raise ValueError(f"window_bits={window_bits} below the floor {floor} for n={n}")
    if window_bits < 1:
        raise ValueError("window_bits must be >= 1")
    W = window_bits
    dtype, widths = _limb_layout(k, W)
    # level[i] holds the value of digits [i, i + w), starting at w = 1; the
    # narrow draw gives the values of the default int64 one
    if digits is None:
        level = make_rng(seed).integers(0, k, size=n + W, dtype=dtype)
    else:
        digit_list = [int(d) for d in digits]
        if len(digit_list) < n + W:
            raise ValueError(f"need at least n + W = {n + W} digits")
        if any(d < 0 or d >= k for d in digit_list):
            raise ValueError("digits out of range")
        level = np.array(digit_list, dtype=dtype)
    # Window doubling: level 2w is level w times k^w plus level w shifted by
    # w. It overwrites level w in place, in ascending chunks: a chunk reads
    # only entries that no earlier chunk has rewritten, and numpy copies an
    # input that overlaps its output. The base, base[p] the value of digits
    # [p, p + L), takes n + W - L entries, one piece from each level w in
    # the binary form of L, smallest first. Its first piece is assigned
    # (k^w can be 2^32, which no uint32 holds; every later factor is below
    # k^L), as a copy, since the next level rewrites it, unless w = L: that
    # is the last level, which nothing rewrites.
    L = widths[0]
    size, w = len(level), 1
    while True:
        if L & w:
            pos = L & (w - 1)  # the digits of the smaller pieces
            piece = level[pos : pos + n + W - L]
            if not pos:
                base = level if w == L else piece.copy()
            else:
                base *= k**w
                base += piece
        if 2 * w > L:
            break
        size -= w
        for a in range(0, size, CHUNK):
            b = min(a + CHUNK, size)
            np.add(level[a:b] * k**w, level[a + w : b + w], out=level[a:b])
        w *= 2
    del level, piece  # only the base is read from here on
    base.setflags(write=False)  # so that no view writes through it
    keys = tuple(base[c * L : c * L + n] for c in range(W // L))
    if W % L:  # a narrower last limb: the low W % L digits of base[i + W - L]
        keys += (base[W - L : W - L + n] % k ** (W % L),)
    return OrbitBuffer(keys, tuple(k**width for width in widths))


def _limb_layout(k: int, window_bits: int) -> tuple[type, list[int]]:
    """The limb dtype of a window and the digit counts of its limbs: L each
    and a narrower last limb.

    A uint32 limb holds L32 digits, the most whose k^L is at most 2^32; an
    int64 limb holds L64, the most whose k^L stays below 2^63. uint32 limbs
    are taken where they pack more digits per byte, 2 L32 > L64. So a window
    never takes more bytes than in int64 limbs, and its leading uint32 limb
    holds at least 31.5 bits: were L32 log2(k) < 31.5, then k^(2 L32) < 2^63
    and L64 >= 2 L32. Ties go to int64, whose leading limb is wider.
    """
    L32 = L64 = 0
    while k ** (L32 + 1) <= NARROW_LIMB_BOUND:
        L32 += 1
    while k ** (L64 + 1) < LIMB_BOUND:
        L64 += 1
    dtype, L = (np.uint32, L32) if 2 * L32 > L64 else (np.int64, L64)
    return dtype, [min(L, window_bits - c) for c in range(0, window_bits, L)]


def iterate(spec: IntervalMap, x0: float, n: int, burn_in: int = 0) -> OrbitBuffer:
    """Forward orbit of n points starting at x0 (after burn_in discarded
    steps), recording the capped expansion bound as a noise floor.

    Landing exactly on a partition endpoint raises ResampleSignal so the
    caller can redraw the initial point; a map without a floating step
    raises InvalidSystemError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    x = float(x0)
    growth = 1.0
    for _ in range(burn_in):
        x, _ = spec.step(x)
    pts = np.empty(n, dtype=np.float64)
    pts[0] = x
    for i in range(1, n):
        x, g = spec.step(x)
        growth = min(growth * g, GROWTH_CAP)
        pts[i] = x
    return OrbitBuffer((pts,), noise_floor=EPS64 * growth)


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
    # every u lies in [a_K, 1), so its 1-based branch lies in 1..K-1
    branch = len(bp) - np.searchsorted(asc, u, side="right")
    lo = bp[branch]  # a_{j+1}
    w = bp[branch - 1] - bp[branch]
    x = np.full(n, 0.5)
    for d in range(depth - 1, -1, -1):
        x = lo[d : d + n] + x * w[d : d + n]
    return OrbitBuffer((x,), noise_floor=2.0 * EPS64, resampled=resampled)


def gauss_inverse_cdf(u: float) -> float:
    """Inverse of the distribution function log2(1 + x): u -> 2^u - 1."""
    return 2.0**u - 1.0


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
    return FirstReturnSample(y, tau)

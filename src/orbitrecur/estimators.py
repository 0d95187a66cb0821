"""Empirical estimators for the collision entropy and correlation dimension,
and the exponent fits tying them to the recurrence curves."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CollisionDegeneracyError, FitRefusedError
from .proximity import alpha_of
from .symbolic import MeasureSpec, sample_sequences_batch
from .tables import CurveRow
from .thermo import z_partition_sum_log

__all__ = [
    "SlopeFit",
    "CorrelationCurve",
    "CollisionEntropyEstimate",
    "ExponentFitResult",
    "default_r_grid",
    "CORRELATION_MIN_POINTS",
    "correlation_integral",
    "correlation_points_from_orbit",
    "d2_estimate",
    "check_collision_design",
    "h2_collision_estimate",
    "exponent_fit",
]


@dataclass(frozen=True)
class SlopeFit:
    """Ordinary least-squares line fit."""

    slope: float
    stderr: float
    r_squared: float


def _ols(x: np.ndarray, y: np.ndarray) -> SlopeFit:
    m = len(x)
    if m < 3:
        raise FitRefusedError("need at least 3 points to fit")
    xm = x.mean()
    ym = y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    if sxx == 0.0:
        raise FitRefusedError("degenerate abscissa (all x equal)")
    slope = float(np.sum((x - xm) * (y - ym)) / sxx)
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ym) ** 2))
    stderr = math.sqrt(max(ss_res, 0.0) / (m - 2) / sxx)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope, stderr, r2)


@dataclass(frozen=True)
class CorrelationCurve:
    """Correlation-integral estimates on a decreasing radius grid."""

    r_grid: np.ndarray
    c_values: np.ndarray

    def __post_init__(self):
        for name in ("r_grid", "c_values"):
            a = np.asarray(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)


CORRELATION_MIN_POINTS = 100  # below this a correlation integral is meaningless


def default_r_grid() -> np.ndarray:
    """The radius grid of correlation_integral: log-spaced and decreasing,
    from 0.1 over 3 decades at 24 points per decade (73 radii)."""
    return 1e-1 * 10.0 ** (-np.arange(3 * 24 + 1) / 24)


def correlation_integral(points, r_grid=None,
                         min_points: int = CORRELATION_MIN_POINTS) -> CorrelationCurve:
    """Pair-count estimate C(r) = 2 #{i<j : |x_i - x_j| < r} / (N (N-1)).

    Strict inequality; computed by sorting plus one vectorized searchsorted
    per radius, O(N log N + N |grid|).
    """
    pts = np.sort(np.asarray(points, dtype=np.float64))
    n = len(pts)
    if n < max(min_points, 2):
        raise ValueError(f"need at least {max(min_points, 2)} points")
    if r_grid is None:
        r_grid = default_r_grid()
    r_grid = np.asarray(sorted((float(r) for r in r_grid), reverse=True))
    if np.any(r_grid <= 0.0):
        raise ValueError("radii must be positive")
    total_pairs = n * (n - 1) // 2
    c = np.empty(len(r_grid))
    idx = np.arange(n, dtype=np.int64)
    for t, r in enumerate(r_grid):
        # for each j: count of i < j with x_j - x_i < r
        lo = np.searchsorted(pts, pts - r, side="right")
        c[t] = float(np.sum(idx - lo)) / total_pairs
    return CorrelationCurve(r_grid, c)


def correlation_points_from_orbit(orbit_points) -> np.ndarray:
    """Decorrelated subsample of an orbit for correlation estimation, at the
    stride alpha(n) = (log n)^2."""
    pts = np.asarray(orbit_points, dtype=np.float64)
    return pts[::alpha_of(len(pts))]


def d2_estimate(curve: CorrelationCurve) -> SlopeFit:
    """Least-squares slope of log C against log r over the usable window,
    which drops the saturated entries (C = 0, C > 0.5)."""
    idx = np.flatnonzero((curve.c_values > 0.0) & (curve.c_values <= 0.5))
    if len(idx) < 3:
        raise FitRefusedError(f"only {len(idx)} usable grid points")
    x = np.log(curve.r_grid[idx])
    y = np.log(curve.c_values[idx])
    return _ols(x, y)


@dataclass(frozen=True)
class CollisionEntropyEstimate:
    """Block-collision estimate of the order-2 entropy."""

    h2: float
    stderr: float
    collisions: int
    pairs: int


def check_collision_design(m: MeasureSpec, block_len: int, samples: int) -> None:
    """Raise ValueError unless h2_collision_estimate can run: at least 1000
    samples, block_len >= 1, and at least 30 expected collisions."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    if block_len < 1:
        raise ValueError("block_len must be >= 1")
    expected = math.exp(z_partition_sum_log(m, block_len, 1.0)) * samples * (samples - 1) / 2.0
    if expected < 30.0:
        raise ValueError(
            f"expected collision count {expected:.1f} < 30; choose a smaller block_len"
        )


def h2_collision_estimate(m: MeasureSpec, block_len: int, samples: int,
                          seed: int = 0) -> CollisionEntropyEstimate:
    """Estimate h2 from the collision frequency of independent blocks.

    Z-hat = pair-collision frequency among `samples` independent length-l
    blocks; h2-hat = -log(Z-hat)/l with a delta-method standard error using
    the U-statistic variance (plug-in third moments).
    """
    check_collision_design(m, block_len, samples)
    blocks = sample_sequences_batch(m, samples, block_len, seed)
    _, counts = np.unique(blocks, axis=0, return_counts=True)
    collisions = int(np.sum(counts * (counts - 1) // 2))
    pairs = samples * (samples - 1) // 2
    if collisions == 0:
        raise CollisionDegeneracyError(
            f"no collisions among {samples} blocks of length {block_len}; reduce block_len"
        )
    z_hat = collisions / pairs
    h2 = -math.log(z_hat) / block_len
    p = counts / samples
    zeta1 = max(float(np.sum(p**3)) - z_hat**2, 0.0)
    zeta2 = max(z_hat * (1.0 - z_hat), 0.0)
    var_u = (2.0 * (samples - 2) * zeta1 + zeta2) / pairs
    stderr = math.sqrt(max(var_u, 0.0)) / (block_len * z_hat)
    return CollisionEntropyEstimate(h2, stderr, collisions, pairs)


@dataclass(frozen=True)
class ExponentFitResult:
    """Slope fit of the regression ordinate against log n."""

    fit: SlopeFit
    used_cells: int
    excluded_cells: int


def exponent_fit(rows: Sequence[CurveRow], min_grid_points: int = 4,
                 min_replicates: int = 3) -> ExponentFitResult:
    """Regress the per-n replicate means of `aux` (M_n or -log m_n) on log n.

    Cells flagged "floor" or carrying non-finite aux are excluded; the fit is
    refused when more than half of all cells are excluded. min_grid_points
    defaults to 4 and may be lowered to 3 for short grids.
    """
    if not rows:
        raise FitRefusedError("empty table")
    by_n: dict[int, list[CurveRow]] = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row)
    if any(len(v) < min_replicates for v in by_n.values()):
        raise FitRefusedError(f"need at least {min_replicates} replicates per grid point")
    used, excluded = 0, 0
    xs, ys = [], []
    for n in sorted(by_n):
        vals = [r.aux for r in by_n[n] if r.flag != "floor" and math.isfinite(r.aux)]
        excluded += len(by_n[n]) - len(vals)
        used += len(vals)
        if vals:
            xs.append(math.log(n))
            ys.append(sum(vals) / len(vals))
    if excluded > used:
        raise FitRefusedError(f"{excluded} of {excluded + used} cells excluded (> 50%)")
    if len(xs) < min_grid_points:
        raise FitRefusedError(f"only {len(xs)} usable grid points; need {min_grid_points}")
    return ExponentFitResult(_ols(np.asarray(xs), np.asarray(ys)), used, excluded)

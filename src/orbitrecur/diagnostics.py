"""Cross-module consistency checks: return-set bounds against partition-sum
and mixing quantities, psi decay against the second eigenvalue, and the
quasi-Bernoulli constant."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matcher import return_set_measure
from .symbolic import MarkovMeasure, MeasureSpec
from .thermo import psi_mixing_table, z_partition_sum

__all__ = [
    "BoundCheck",
    "quasi_bernoulli_constant",
    "sigma_bounds",
    "sigma_bounds_check",
]

PASS_SLACK = 1e-12


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality lhs <= rhs."""

    name: str
    lhs: float
    rhs: float

    def __post_init__(self):
        object.__setattr__(self, "lhs", float(self.lhs))
        object.__setattr__(self, "rhs", float(self.rhs))

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -PASS_SLACK


def quasi_bernoulli_constant(m: MeasureSpec, max_len: int = 6) -> float:
    """B = max over word pairs of mu(uv) / (mu(u) mu(v)), words up to max_len.

    The ratio depends only on the junction pair (last symbol of u, first of
    v), so the enumeration reduces to which symbols occur as word endpoints
    within the length budget. Product measures give exactly 1.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    mk = m.as_markov()
    d = mk.alphabet_size
    # symbols that occur as the last letter of a positive-measure word of
    # length <= max_len: reachable from the support of pi in < max_len steps
    reach = mk.pi > 0
    step = mk.P > 0
    ends = reach.copy()
    for _ in range(max_len - 1):
        reach = reach @ step
        ends |= reach
    best = 0.0
    for a in np.flatnonzero(ends):
        for b in range(d):
            if mk.pi[b] > 0 and mk.P[a, b] > 0:
                best = max(best, float(mk.P[a, b] / mk.pi[b]))
    return best


def _smallest_multiple_in(k: int, lo: int, hi: int) -> int | None:
    first = ((lo + k - 1) // k) * k
    return first if first <= hi else None


def sigma_bounds(m: MeasureSpec, r: int, k_max: int) -> tuple[list[tuple[str, float]], BoundCheck]:
    """The (name, rhs) of the regime bound on mu(S_k(r)) per lag k <= k_max,
    and the psi-decay check over max(k_max, 2) lags, both from one psi table.

    For lag k up to floor(r/2): mu(S_k(r)) <= B^6 Z_l(w) with l the smallest
    multiple of k in [ceil(r/4), floor(r/2)] and w = floor(r/l). For lags up
    to r: mu(S_k(r)) <= B^6 Z_{r-k}(2) Z_{2k-r}(1) (a word repeated three
    times around two identical spacers). Beyond r: mu(S_k(r)) <=
    (1 + psi(k - r)) Z_r(1). Nothing is enumerated.
    """
    if r < 2:
        raise ValueError("r must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    B = quasi_bernoulli_constant(m)
    psi = psi_mixing_table(m, max(k_max, 2))
    bounds = []
    for k in range(1, k_max + 1):
        if k <= r // 2:
            ell = _smallest_multiple_in(k, math.ceil(r / 4), r // 2)
            if ell is None:
                raise ValueError(f"no multiple of {k} in [{math.ceil(r/4)}, {r//2}]")
            omega = r // ell
            rhs = B**6 * z_partition_sum(m, ell, float(omega))
            name = f"sigma0[r={r},k={k},l={ell},w={omega}]"
        elif k <= r:
            z_front = z_partition_sum(m, r - k, 2.0) if r - k >= 1 else 1.0
            z_back = z_partition_sum(m, 2 * k - r, 1.0) if 2 * k - r >= 1 else 1.0
            rhs = B**6 * z_front * z_back
            name = f"sigma1[r={r},k={k}]"
        else:
            rhs = (1.0 + psi[k - r]) * z_partition_sum(m, r, 1.0)
            name = f"sigma2[r={r},k={k}]"
        bounds.append((name, rhs))
    return bounds, _psi_decay(m.as_markov(), psi)


def sigma_bounds_check(m: MeasureSpec, r: int, k_max: int) -> list[BoundCheck]:
    """The exact return-set masses mu(S_k(r)), k = 1..k_max, against their
    sigma_bounds, followed by the psi-decay check."""
    bounds, psi = sigma_bounds(m, r, k_max)
    return [BoundCheck(name, return_set_measure(m, r, k, "exact").value, rhs)
            for k, (name, rhs) in enumerate(bounds, start=1)] + [psi]


def _psi_decay(m: MarkovMeasure, psi: list[float]) -> BoundCheck:
    """psi(k) <= C |lambda_2|^k with C fitted at k = 1, from psi(k),
    k = 0..k_max.

    Reported as a single check on the worst ratio psi(k) / |lambda_2|^k over
    k <= k_max. A vanishing second eigenvalue (psi identically 0)
    short-circuits to a pass.
    """
    k_max = len(psi) - 1
    eigs = np.linalg.eigvals(np.asarray(m.P))
    mods = np.sort(np.abs(eigs))[::-1]
    lam2 = float(mods[1]) if len(mods) > 1 else 0.0
    if lam2 < 1e-14 or max(psi[1:], default=0.0) == 0.0:
        return BoundCheck(f"psi_decay[lam2={lam2:.3g}]", 0.0, 0.0)
    c_fit = psi[1] / lam2
    worst = max(psi[k] / lam2**k for k in range(1, k_max + 1))
    return BoundCheck(f"psi_decay[lam2={lam2:.6g}]", worst, c_fit)

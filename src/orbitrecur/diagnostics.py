"""Cross-module consistency checks: return-set bounds against partition-sum
and mixing quantities, psi decay against the second eigenvalue, and the
quasi-Bernoulli constant B, the largest P[a, b] / pi[b] over the stationary
support."""

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


def quasi_bernoulli_constant(m: MeasureSpec) -> float:
    """B = max over word pairs of mu(uv) / (mu(u) mu(v)).

    The ratio depends only on the junction pair (last symbol a of u, first b
    of v): it is P[a, b] / pi[b]. The last symbols of positive-measure words
    are the stationary support, which is closed under P (pi[b] >= pi[a]
    P[a, b]), so B is the largest P[a, b] / pi[b] over P[a, b] > 0 with a and
    b in the support. Product measures give exactly 1. A `stationary` vector
    that is stationary only to the 1e-10 tolerance, with pi[b] = 0 where some
    pi[a] P[a, b] > 0, is not closed this way and its B may differ from the
    word-pair maximum; such a measure is `degenerate`, which
    `renyi_entropy_exact` rejects.
    """
    mk = m.as_markov()
    live = np.flatnonzero(mk.pi > 0)
    return max((float(mk.P[a, b] / mk.pi[b]) for a in live for b in live if mk.P[a, b] > 0),
               default=0.0)


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
            # at most r // 2: [ceil(r/4), r // 2] holds k consecutive integers
            # when k <= r/4, and holds k itself otherwise
            ell = -(-math.ceil(r / 4) // k) * k
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

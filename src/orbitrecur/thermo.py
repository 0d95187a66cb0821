"""Exact thermodynamic quantities for finite-alphabet systems.

Partition sums Z_n(t), Gurevich pressure of 2-block potentials, Renyi entropy
and exact psi-mixing coefficients. Every measure spec is read through the one
measure interface, the stationary Markov chain it builds (`as_markov`): the
entropy routes (squared-transition spectral radius, pressure formula, and the
Bernoulli closed form) and the psi table all come from that chain. These are
the oracles the empirical estimators are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    ConvergenceError,
    CrossCheckError,
    DegenerateMeasureError,
    InvalidSystemError,
)
from .symbolic import (
    BernoulliMeasure,
    GibbsMeasure,
    MarkovMeasure,
    MeasureSpec,
    TransitionSystem,
    _perron,
    stationary_distribution_exact,
    validate_system,
)

__all__ = [
    "PressureResult",
    "EntropyResult",
    "ZDecayResult",
    "transfer_matrix",
    "gurevich_pressure",
    "renyi_entropy_exact",
    "z_partition_sum",
    "z_partition_sum_log",
    "z_decay_check",
    "psi_mixing_table",
]


@dataclass(frozen=True)
class PressureResult:
    """Log-scale pressure value, the log of the Perron root."""

    value: float
    flagged: bool = False  # set when the system is not topologically mixing


@dataclass(frozen=True)
class EntropyResult:
    """Renyi entropy h2 >= 0 with alpha = h2 / 2."""

    h2: float
    alpha: float


def transfer_matrix(ts: TransitionSystem, potential) -> np.ndarray:
    """Weighted transfer matrix M_ab = A_ab exp(phi(a, b))."""
    phi = np.asarray(potential, dtype=np.float64)
    A = ts.admissible
    if phi.shape != A.shape:
        raise InvalidSystemError("potential table must match the transition matrix")
    if not np.all(np.isfinite(phi[A == 1])):
        raise InvalidSystemError("potential must be finite on admissible pairs")
    return np.where(A == 1, np.exp(phi), 0.0)


def _log_trace_power(M: np.ndarray, n: int) -> float:
    """log trace(M^n) with per-multiply normalization against overflow."""
    scale = 0.0
    acc = np.eye(M.shape[0])
    base = M.copy()
    base_scale = 0.0
    e = n
    while e:
        if e & 1:
            acc = acc @ base
            scale += base_scale
            m = acc.max()
            if m > 0:
                acc /= m
                scale += math.log(m)
        e >>= 1
        if e:
            base = base @ base
            base_scale *= 2
            m = base.max()
            if m > 0:
                base /= m
                base_scale += math.log(m)
    tr = float(np.trace(acc))
    if tr <= 0.0:
        return -math.inf
    return math.log(tr) + scale


def _pressure_periodic(M: np.ndarray, start_n: int = 40, tol: float = 1e-10,
                       max_n: int = 1 << 16) -> tuple[float, int]:
    """Pressure from closed-path sums: consecutive-trace log-ratio,
    with n doubled from start_n until the estimate stabilizes.

    trace(M^n) sums the potential weights over all closed admissible paths of
    length n, so this route never sees the spectral decomposition. Raises
    ConvergenceError when the estimate has not stabilized by max_n.
    """
    n = start_n
    prev = None
    while True:
        t_n = _log_trace_power(M, n)
        t_n1 = _log_trace_power(M, n + 1)
        est = t_n1 - t_n
        if prev is not None and abs(est - prev) <= tol * max(1.0, abs(est)):
            return est, n
        if n >= max_n:
            raise ConvergenceError(
                f"periodic-orbit pressure did not stabilize to tol={tol} by n={n}"
            )
        prev = est
        n *= 2


def gurevich_pressure(ts: TransitionSystem, potential) -> PressureResult:
    """Growth rate of potential-weighted closed-path sums.

    For a 2-block potential the n-step sum with fixed start symbol a is
    (M^n)_aa, so the pressure is log of the Perron root of M, found by power
    iteration; that spectral value is returned. On a mixing system the
    periodic-orbit (trace) route is its cross-check, and the two must agree
    within 1e-6. A non-mixing system has no such check: its spectral value
    is returned flagged.
    """
    M = transfer_matrix(ts, potential)
    lam, _, _, _ = _perron(M, tol=1e-13)
    if lam <= 0:
        raise InvalidSystemError("transfer matrix has non-positive spectral radius")
    spectral = math.log(lam)
    if not validate_system(ts).mixing:
        # closed-path traces vanish along non-multiples of the period
        return PressureResult(spectral, True)
    periodic, _ = _pressure_periodic(M)
    if abs(spectral - periodic) > 1e-6:
        raise CrossCheckError(
            f"pressure methods disagree: spectral {spectral!r} vs periodic {periodic!r}"
        )
    return PressureResult(spectral)


def renyi_entropy_exact(m: MeasureSpec) -> EntropyResult:
    """Exact Renyi entropy of the measure, from the chain it builds.

    Every spec gets two routes: -log of the Perron root of Q, Q_ij = P_ij^2
    (from Z_n(1) = (pi*pi)^T Q^(n-1) 1), and the pressure formula
    2 P(phi) - P(2 phi), with phi = log P on the chain's support or the Gibbs
    potential. Bernoulli adds the collision form -log sum p_i^2. All routes
    are compared to 1e-10. Bernoulli returns the closed form, Gibbs the
    pressure formula and Markov the Q route.
    """
    if m.degenerate:
        raise DegenerateMeasureError("measure has an unreachable or zero-mass state")
    mk = m.as_markov()
    lam_q, _, _, _ = _perron(mk.P**2, tol=1e-13)
    h2 = {"q_matrix": -math.log(lam_q)}
    route = "q_matrix"
    if isinstance(m, BernoulliMeasure):
        route = "closed_form"
        h2[route] = -math.log(float(np.sum(m.weights**2)))
    if isinstance(m, GibbsMeasure):
        ts, phi, route = m.system, m.potential, "pressure_formula"
    else:
        # the chain's support: m.system may admit pairs where P = 0, on
        # which the potential log P is -inf
        ts = TransitionSystem((mk.P > 0).astype(np.uint8))
        with np.errstate(divide="ignore"):
            phi = np.log(mk.P)
    p1 = gurevich_pressure(ts, phi).value
    h2["pressure_formula"] = 2.0 * p1 - gurevich_pressure(ts, 2.0 * phi).value
    for other, value in h2.items():
        if abs(value - h2["q_matrix"]) > 1e-10:
            raise CrossCheckError(
                f"entropy routes disagree: q_matrix {h2['q_matrix']!r} vs {other} {value!r}"
            )
    return EntropyResult(h2[route], h2[route] / 2.0)


def z_partition_sum_log(m: MeasureSpec, n: int, t: float) -> float:
    """log Z_n(t) = log sum over admissible n-words of mu(word)^(1+t)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if isinstance(m, BernoulliMeasure):
        w = m.weights[m.weights > 0]
        return n * math.log(float(np.sum(w ** (1.0 + t))))
    mk = m.as_markov()
    pos = mk.pi > 0
    v = np.where(pos, mk.pi, 1.0) ** (1.0 + t) * pos
    W = mk.P ** (1.0 + t)
    scale = 0.0
    for _ in range(n - 1):
        v = v @ W
        mx = v.max()
        if mx <= 0:
            return -math.inf
        v /= mx
        scale += math.log(mx)
    s = float(v.sum())
    return math.log(s) + scale


def z_partition_sum(m: MeasureSpec, n: int, t: float) -> float:
    """Z_n(t), exact-domain for n <= 64 and log-domain (re-exponentiated)
    beyond, guarding against under/overflow. Z_n(0) = 1 up to n*1e-15."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if n > 64:
        return math.exp(z_partition_sum_log(m, n, t))
    if isinstance(m, BernoulliMeasure):
        return float(np.sum(m.weights ** (1.0 + t))) ** n
    mk = m.as_markov()
    v = mk.pi ** (1.0 + t)
    W = mk.P ** (1.0 + t)
    for _ in range(n - 1):
        v = v @ W
    return float(v.sum())


@dataclass(frozen=True)
class ZDecayResult:
    """Decay table of Z_k(1) against e^(-2 k alpha)."""

    alpha: float
    ratio_sup: float  # sup_k Z_k(1) e^(2 k alpha)
    ratio_inf: float


def z_decay_check(m: MeasureSpec, k_max: int) -> ZDecayResult:
    """Ratios Z_k(1) e^(2 k alpha) for k <= k_max; bounded iff the decay rate
    of squared cylinder masses is exactly 2 alpha."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    alpha = renyi_entropy_exact(m).alpha
    ratios = [math.exp(z_partition_sum_log(m, k, 1.0) + 2.0 * k * alpha)
              for k in range(1, k_max + 1)]
    return ZDecayResult(alpha, max(ratios), min(ratios))


# ---------------------------------------------------------------------------
# psi-mixing, exact in rational arithmetic
# ---------------------------------------------------------------------------


def _exact_chain(m: MarkovMeasure) -> tuple[list[list[Fraction]], list[Fraction]]:
    # Rows are renormalized exactly: float inputs carry ~1e-16 row-sum drift,
    # and an exactly-stochastic lift keeps psi(k) free of a spurious Perron
    # mode that would eventually dominate the exponentially small tail.
    P = []
    for row in m.P:
        frow = [Fraction(float(x)) for x in row]
        s = sum(frow)
        P.append([x / s for x in frow])
    pi = stationary_distribution_exact(P)
    return P, pi


def _mat_mul(A: list[list[Fraction]], B: list[list[Fraction]]) -> list[list[Fraction]]:
    d = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _psi_from_power(Pk1: list[list[Fraction]], pi: list[Fraction]) -> Fraction:
    worst = Fraction(0)
    d = len(pi)
    for a in range(d):
        for b in range(d):
            if pi[b] == 0:
                continue
            dev = abs(Pk1[a][b] / pi[b] - 1)
            if dev > worst:
                worst = dev
    return worst


def psi_mixing_table(m: MeasureSpec, k_max: int) -> list[float]:
    """psi(k) for k = 0..k_max.

    Read from the measure's chain (pi, P): the supremum over cylinder pairs
    of the mixing ratio deviation equals max_ab |(P^(k+1))_ab / pi_b - 1|,
    so a Bernoulli table is exactly 0. Computed in exact
    rational arithmetic (float inputs are binary rationals).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    P, pi = _exact_chain(m.as_markov())
    power = [row[:] for row in P]  # P^(k+1), starting at k = 0
    psi = []
    for k in range(k_max + 1):
        psi.append(float(_psi_from_power(power, pi)))
        if k < k_max:
            power = _mat_mul(power, P)
    return psi


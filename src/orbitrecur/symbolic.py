"""Finite-alphabet topological Markov shifts and shift-invariant measures.

Provides transition systems (0/1 matrices), the transfer matrix of a
2-block potential, the one measure interface `MeasureSpec` and reproducible
typical-sequence sampling. A system's strong connectivity and period come
from one breadth-first search, run on the graph and on its reverse. The
Bernoulli, Markov and 2-block-potential Gibbs specifications are each one
stationary Markov chain, built once at construction and read through
`as_markov()`: cylinder masses, sampling and degeneracy all come from that
chain. Sampling turns each draw into a next-state map, and a path is the
scan of its maps in a tree of log depth. Everything here is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    IncompatibleMeasureError,
    InvalidSystemError,
    ReducibleChainError,
)
from .intervalmaps import CHUNK  # the one chunk size of every pass over an orbit-length array
from .rng import make_rng

__all__ = [
    "TransitionSystem",
    "SystemDiagnostics",
    "MeasureSpec",
    "BernoulliMeasure",
    "MarkovMeasure",
    "GibbsMeasure",
    "full_shift",
    "validate_system",
    "stationary_distribution",
    "stationary_distribution_exact",
    "sample_sequence",
    "sample_sequences_batch",
    "transfer_matrix",
]


def _frozen_array(a, dtype) -> np.ndarray:
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Transition systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TransitionSystem:
    """Square 0/1 transition matrix over a finite alphabet {0..d-1}."""

    admissible: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.admissible)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise InvalidSystemError(f"transition matrix must be square, got shape {a.shape}")
        if not np.all((a == 0) | (a == 1)):
            raise InvalidSystemError("transition matrix entries must be 0 or 1")
        object.__setattr__(self, "admissible", _frozen_array(a, np.uint8))

    @property
    def alphabet_size(self) -> int:
        return self.admissible.shape[0]


def full_shift(alphabet_size: int) -> TransitionSystem:
    """Full shift on the given alphabet (all transitions admissible)."""
    return TransitionSystem(np.ones((alphabet_size, alphabet_size), dtype=np.uint8))


@dataclass(frozen=True)
class SystemDiagnostics:
    """Report produced by validate_system."""

    strongly_connected: bool
    period: int | None  # gcd of cycle lengths; None when not strongly connected
    mixing: bool  # strongly connected and aperiodic


def _bfs(adj: np.ndarray) -> tuple[np.ndarray, int]:
    # BFS depths from state 0 (-1 where unreached) and the gcd of
    # depth(u) + 1 - depth(v) over the edges (u, v) it meets: on a strongly
    # connected graph, the gcd of the cycle lengths
    d = adj.shape[0]
    depth = np.full(d, -1, dtype=np.int64)
    depth[0] = 0
    queue = [0]
    g = 0
    while queue:
        nxt = []
        for u in queue:
            for v in np.flatnonzero(adj[u]):
                v = int(v)
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
                else:
                    g = math.gcd(g, int(depth[u] + 1 - depth[v]))
        queue = nxt
    return depth, g


def validate_system(ts: TransitionSystem | Sequence) -> SystemDiagnostics:
    """Strong connectivity and period (gcd of cycle lengths).

    One breadth-first search from state 0 over the graph and one over its
    reverse: the graph is strongly connected when both reach every state, and
    the forward search's gcd is then the period. Rejects non-square or
    non-0/1 input; mixing means strongly connected with period 1.
    """
    if not isinstance(ts, TransitionSystem):
        ts = TransitionSystem(np.asarray(ts))
    adj = ts.admissible
    forward, period = _bfs(adj)
    backward, _ = _bfs(adj.T)
    connected = bool((forward >= 0).all() and (backward >= 0).all())
    period = period if connected else None
    return SystemDiagnostics(connected, period, connected and period == 1)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


class MeasureSpec:
    """The one measure interface: every spec is read through the stationary
    Markov chain it builds once at construction."""

    system: TransitionSystem
    _chain: "MarkovMeasure"

    @property
    def alphabet_size(self) -> int:
        return self.system.alphabet_size

    def as_markov(self) -> "MarkovMeasure":
        return self._chain

    @property
    def degenerate(self) -> bool:
        """True when some state carries zero mass or the chain's support is
        not strongly connected."""
        mk = self.as_markov()
        if np.any(mk.pi == 0.0):
            return True
        return not validate_system(TransitionSystem((mk.P > 0).astype(np.uint8))).strongly_connected


@dataclass(frozen=True, eq=False)
class BernoulliMeasure(MeasureSpec):
    """Product measure with weights p_i on the full shift; zero weights mark
    dead symbols. Its chain has pi = p and every row of P equal to p."""

    weights: np.ndarray
    system: TransitionSystem = field(init=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) < 1:
            raise InvalidSystemError("weights must be a non-empty vector")
        if np.any(w < 0):
            raise InvalidSystemError("weights must be non-negative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise InvalidSystemError(f"weights must sum to 1 (off by {w.sum() - 1.0:.3g})")
        if not np.any(w > 0):
            raise InvalidSystemError("at least one weight must be positive")
        object.__setattr__(self, "weights", _frozen_array(w, np.float64))
        object.__setattr__(self, "system", full_shift(len(w)))
        object.__setattr__(self, "_chain", MarkovMeasure(w, np.tile(w, (len(w), 1)), self.system))


@dataclass(frozen=True, eq=False)
class MarkovMeasure(MeasureSpec):
    """Stationary Markov chain (pi, P) compatible with the transition system."""

    pi: np.ndarray
    P: np.ndarray
    system: TransitionSystem = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.float64)
        P = np.asarray(self.P, dtype=np.float64)
        d = len(pi)
        if P.shape != (d, d):
            raise InvalidSystemError("pi and P have inconsistent shapes")
        if np.any(P < 0) or np.any(pi < 0):
            raise InvalidSystemError("pi and P must be non-negative")
        rows = P.sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-12:
            raise InvalidSystemError("P must be row-stochastic to 1e-12")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise InvalidSystemError("pi must sum to 1")
        if np.max(np.abs(pi @ P - pi)) > 1e-10:
            raise InvalidSystemError("pi P = pi fails at 1e-10")
        object.__setattr__(self, "pi", _frozen_array(pi, np.float64))
        object.__setattr__(self, "P", _frozen_array(P, np.float64))
        if self.system is None:
            object.__setattr__(self, "system", TransitionSystem((P > 0).astype(np.uint8)))
        else:
            if self.system.alphabet_size != d:
                raise IncompatibleMeasureError("P does not match the alphabet size")
            if np.any((P > 0) & (self.system.admissible == 0)):
                raise IncompatibleMeasureError("P puts mass on inadmissible transitions")

    def as_markov(self) -> "MarkovMeasure":
        return self


@dataclass(frozen=True, eq=False)
class GibbsMeasure(MeasureSpec):
    """Gibbs measure of a 2-block potential phi(a, b), finite exactly on
    admissible pairs.

    Its chain is built through the normalized transfer matrix:
    M_ab = A_ab exp(phi(a,b)) with Perron data (lam, r, l) induces the chain
    P_ab = M_ab r_b / (lam r_a), pi = l*r / <l, r>. Being a 2-block table the
    potential has var_k = 0 for k >= 2, so local Hoelderness is automatic.
    """

    potential: np.ndarray
    system: TransitionSystem

    def __post_init__(self):
        phi = np.asarray(self.potential, dtype=np.float64)
        A = self.system.admissible
        if phi.shape != A.shape:
            raise IncompatibleMeasureError("potential table must match the transition matrix")
        M = transfer_matrix(self.system, phi)
        if np.any(np.isfinite(phi[A == 0])):
            raise InvalidSystemError("potential must be -inf exactly on inadmissible pairs")
        diag = validate_system(self.system)
        if not diag.strongly_connected:
            raise InvalidSystemError("Gibbs measures require a strongly connected system")
        object.__setattr__(self, "potential", _frozen_array(phi, np.float64))
        lam, r, l, _ = _perron(M)
        P = M * r[None, :] / (lam * r[:, None])
        P = P / P.sum(axis=1, keepdims=True)  # remove last-digit drift
        pi = l * r
        pi = pi / pi.sum()
        pi = _stationary_power(P, pi)  # polish to the 1e-10 contract
        object.__setattr__(self, "_chain", MarkovMeasure(pi, P, self.system))


def transfer_matrix(ts: TransitionSystem, potential) -> np.ndarray:
    """Weighted transfer matrix M_ab = A_ab exp(phi(a, b)). InvalidSystemError
    unless the potential table matches A, phi is finite on every admissible
    pair, and exp(phi) there neither overflows nor underflows to 0: an
    infinite weight has no Perron data, and a zero one drops its pair from
    the graph."""
    phi = np.asarray(potential, dtype=np.float64)
    A = ts.admissible
    if phi.shape != A.shape:
        raise InvalidSystemError("potential table must match the transition matrix")
    with np.errstate(over="ignore", under="ignore"):
        M = np.where(A == 1, np.exp(phi), 0.0)
    weights = M[A == 1]
    if not (np.all(np.isfinite(phi[A == 1])) and np.all(np.isfinite(weights) & (weights > 0))):
        raise InvalidSystemError("potential and its exp must be finite, and its exp nonzero, "
                                 "on admissible pairs")
    return M


def _perron(M: np.ndarray, tol: float = 1e-15, max_iter: int = 100_000):
    """Perron root and right/left vectors of a non-negative irreducible matrix.

    Power iteration on the diagonally shifted matrix, which is primitive, from
    the deterministic uniform start. Raises ConvergenceError when max_iter
    steps do not reach the tolerance.
    """
    d = M.shape[0]
    shift = float(M.max()) or 1.0
    Ms = M + shift * np.eye(d)
    v = np.full(d, 1.0 / d)
    w = np.full(d, 1.0 / d)
    lam = 0.0
    for iters in range(1, max_iter + 1):
        v_new = Ms @ v
        w_new = w @ Ms
        lam_new = float(v_new.sum())
        v_new /= lam_new
        w_new /= w_new.sum()
        if abs(lam_new - lam) <= tol * abs(lam_new) and np.max(np.abs(v_new - v)) <= tol:
            return lam_new - shift, v_new, w_new, iters
        v, w, lam = v_new, w_new, lam_new
    raise ConvergenceError(f"Perron power iteration did not reach tol={tol} in {max_iter} steps")


# ---------------------------------------------------------------------------
# Stationary vectors
# ---------------------------------------------------------------------------


def _stationary_power(P: np.ndarray, start: np.ndarray) -> np.ndarray:
    # Iterate the half-lazy kernel (I+P)/2: same fixed point, no period-2
    # oscillation on periodic chains.
    pi = np.array(start, dtype=np.float64)
    for _ in range(100_000):
        nxt = 0.5 * (pi + pi @ P)
        nxt /= nxt.sum()
        if np.max(np.abs(nxt - pi)) <= 1e-15:
            return nxt
        pi = nxt
    raise ReducibleChainError("power iteration did not converge; chain may be reducible")


def stationary_distribution(P) -> np.ndarray:
    """Stationary vector of a row-stochastic irreducible matrix.

    Power iteration from the uniform start; reducible inputs are rejected by a
    reachability check (power iteration alone can silently converge on them,
    e.g. the identity matrix).
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvalidSystemError("P must be square")
    if np.any(P < 0) or np.max(np.abs(P.sum(axis=1) - 1.0)) > 1e-12:
        raise InvalidSystemError("P must be row-stochastic")
    diag = validate_system(TransitionSystem((P > 0).astype(np.uint8)))
    if not diag.strongly_connected:
        raise ReducibleChainError("P is reducible; stationary vector not unique")
    d = P.shape[0]
    pi = _stationary_power(P, np.full(d, 1.0 / d))
    if np.max(np.abs(pi @ P - pi)) > 1e-10:
        raise ReducibleChainError("stationary vector failed the 1e-10 fixed-point check")
    return pi


def stationary_distribution_exact(P_rows: Sequence[Sequence]) -> list[Fraction]:
    """Exact stationary vector of an irreducible stochastic matrix.

    Entries are coerced to Fractions (binary floats convert exactly); solves
    pi (P - I) = 0 with sum pi = 1 by Gaussian elimination.
    """
    d = len(P_rows)
    P = [[Fraction(x) for x in row] for row in P_rows]
    # Build (P^T - I) with the last equation replaced by sum(pi) = 1.
    A = [[P[j][i] - (1 if i == j else 0) for j in range(d)] for i in range(d)]
    A[d - 1] = [Fraction(1)] * d
    b = [Fraction(0)] * (d - 1) + [Fraction(1)]
    for col in range(d):
        piv = next((r for r in range(col, d) if A[r][col] != 0), None)
        if piv is None:
            raise ReducibleChainError("singular system; chain may be reducible")
        A[col], A[piv] = A[piv], A[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / A[col][col]
        A[col] = [x * inv for x in A[col]]
        b[col] *= inv
        for r in range(d):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [x - f * y for x, y in zip(A[r], A[col])]
                b[r] -= f * b[col]
    if any(x < 0 for x in b):
        raise ReducibleChainError("negative stationary entries; chain may be reducible")
    return b


# ---------------------------------------------------------------------------
# Sequence sampling
# ---------------------------------------------------------------------------


def _cumulative(mk: MarkovMeasure) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative pi and rows of P, each ending in exactly 1.0 so that no
    draw in [0, 1) passes the last symbol."""
    cum_pi = np.cumsum(mk.pi)
    cum_pi[-1] = 1.0
    cum_P = np.cumsum(mk.P, axis=1)
    cum_P[:, -1] = 1.0
    return cum_pi, cum_P


def _next_states(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The next-state maps of the draws u, in the smallest unsigned dtype:
    [s, t] is #{cum[s] <= u[t]}, the state after draw u[t] from state s,
    counted over the row's cut points (its closing 1.0 exceeds every draw)
    as searchsorted(side="right") counts it."""
    maps = np.zeros((len(cum), len(u)), dtype=np.min_scalar_type(cum.shape[1] - 1))
    for row, cuts in zip(maps, cum[:, :-1]):
        for c in cuts:
            row += u >= c
    return maps


def _scan(maps: np.ndarray, start: int) -> np.ndarray:
    """The states x[t] = maps[x[t - 1], t] of the chain stepped from
    x[-1] = start, by a scan of log depth, in the maps' dtype. Up the tree,
    each level composes the maps below it in pairs (2i, 2i + 1), and an odd
    last map waits. Down it, a level's end states are the ends of the odd
    maps below, and each even map's end is read off it from the end before
    it. Both gathers run over CHUNK columns at a time, so beside the levels
    (together as large as the maps) and the states, the scratch is O(CHUNK).
    """
    levels = [maps]
    while levels[-1].shape[1] > 1:
        f = levels[-1]
        g = np.empty((f.shape[0], f.shape[1] // 2), dtype=f.dtype)
        for a in range(0, g.shape[1], CHUNK):
            b = min(a + CHUNK, g.shape[1])
            g[:, a:b] = np.take_along_axis(f[:, 2 * a + 1 : 2 * b : 2], f[:, 2 * a : 2 * b : 2], 0)
        levels.append(g)
    ends = levels.pop()[start]
    for f in reversed(levels):
        x = np.empty(f.shape[1], dtype=f.dtype)
        x[1::2] = ends
        for a in range(0, (len(x) + 1) // 2, CHUNK):
            b = min(a + CHUNK, (len(x) + 1) // 2)
            # the end before each even map 2a .. 2b - 2
            before = ends[a - 1 : b - 1] if a else np.r_[start, ends[: b - 1]]
            x[2 * a : 2 * b : 2] = np.take_along_axis(f[:, 2 * a : 2 * b : 2], before[None], 0)[0]
        ends = x
    return ends


def sample_sequence(m: MeasureSpec, ts: TransitionSystem | None, n: int,
                    buffer: int = 0, seed: int = 0) -> np.ndarray:
    """Sample n + buffer symbols of the stationary chain, reproducibly: n
    statistic symbols and a generated buffer after them, as an int64 array
    that owns its data and is read-only.

    The initial symbol is drawn from pi (weights for Bernoulli). Each later
    draw is a next-state map through the rows of P, and the path is their
    scan (the maps of one row when all rows agree). Identical (seed,
    parameters) give identical output. The draws are taken CHUNK at a time
    into the next-state maps, which take one byte per row and symbol on up
    to 256 states; the int64 path is allocated once the scan is done, so
    the working set ends at it and the scanned states, 9 bytes a symbol.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if buffer < 0:
        raise ValueError("buffer must be >= 0")
    mk = m.as_markov()
    if ts is not None:
        MarkovMeasure(mk.pi, mk.P, ts)  # raises IncompatibleMeasureError
    total = n + buffer
    cum_pi, cum_P = _cumulative(mk)
    rng = make_rng(seed)
    state = int(np.searchsorted(cum_pi, rng.random(), side="right"))
    iid = bool((cum_P == cum_P[0]).all())
    rows = cum_P[:1] if iid else cum_P
    maps = np.empty((len(rows), total - 1), dtype=np.min_scalar_type(cum_P.shape[1] - 1))
    for a in range(0, total - 1, CHUNK):
        b = min(a + CHUNK, total - 1)
        # Philox gives one double per 64-bit word: the draws of rng.random(total)
        maps[:, a:b] = _next_states(rows, rng.random(b - a))
    path = maps[0] if iid else _scan(maps, state)
    del maps  # freed with the scan's levels before the int64 path is allocated
    out = np.empty(total, dtype=np.int64)
    out[0] = state
    out[1:] = path
    out.setflags(write=False)
    return out


def sample_sequences_batch(m: MeasureSpec, count: int, length: int, seed: int) -> np.ndarray:
    """Sample `count` independent stationary paths of `length` symbols, as
    an int64 array of shape (count, length).

    The paths advance together, one step per loop iteration: a step builds
    the next-state maps of its draws, through pi for the first symbol and
    through P after it, and reads each path's state off them.
    """
    if count < 1 or length < 1:
        raise ValueError("count and length must be >= 1")
    cum_pi, cum_P = _cumulative(m.as_markov())
    u = make_rng(seed).random((count, length))
    states = [_next_states(cum_pi[None], u[:, 0])[0]]
    for t in range(1, length):
        maps = _next_states(cum_P, np.ascontiguousarray(u[:, t]))  # contiguous draws compare faster
        states.append(np.take_along_axis(maps, states[-1][None], 0)[0])
    del u  # freed before the int64 paths are allocated
    return np.stack(states, axis=1).astype(np.int64)

"""Test-only oracles: the depth-first enumeration of admissible words and
exact cylinder masses of a Markov shift, against which the library's exact
measures are checked, and the exact doubling orbit as one Python int per
window, against which the uint32 and int64 limbs are checked."""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from orbitrecur.errors import InvalidSystemError
from orbitrecur.symbolic import MeasureSpec, TransitionSystem


def admissible_words(ts: TransitionSystem, length: int) -> Iterator[tuple[int, ...]]:
    """Depth-first enumeration of admissible words of the given length, in
    lexicographic order."""
    d = ts.alphabet_size
    if length < 1:
        raise ValueError("length must be >= 1")
    adj = [tuple(int(v) for v in np.flatnonzero(ts.admissible[a])) for a in range(d)]
    stack: list[tuple[tuple[int, ...], int]] = [((a,), a) for a in range(d - 1, -1, -1)]
    while stack:
        word, last = stack.pop()
        if len(word) == length:
            yield word
            continue
        for b in reversed(adj[last]):
            stack.append((word + (b,), b))


def cylinder_measure(m: MeasureSpec, w: Sequence[int]) -> float:
    """Exact cylinder mass of the word under the measure, the left-to-right
    product pi(w_0) P(w_0, w_1) ...; 0 when inadmissible."""
    sym = [int(s) for s in w]
    if not sym:
        raise ValueError("empty word rejected")
    d = m.alphabet_size
    if any(s < 0 or s >= d for s in sym):
        raise InvalidSystemError(f"symbol out of range for alphabet size {d}")
    # the chain puts no mass on an inadmissible pair, so its product is 0.0
    mk = m.as_markov()
    mass = float(mk.pi[sym[0]])
    for a, b in zip(sym, sym[1:]):
        mass *= float(mk.P[a, b])
    return mass


def python_int_orbit(k: int, W: int, digits: Sequence[int], n: int):
    """The construction the limbs replaced: one Python int per window, slid
    digit by digit, and points = window / float(k^W)."""
    m = 0
    for d in digits[:W]:
        m = m * k + d
    windows = [m]
    mod = k ** (W - 1)
    for i in range(1, n):
        m = (m % mod) * k + digits[W + i - 1]
        windows.append(m)
    denom = float(k**W)
    return tuple(windows), np.array([w / denom for w in windows], dtype=np.float64)

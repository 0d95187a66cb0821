"""Longest self-match statistic M_n and return-time-set measures.

M_n is the length of the longest block occurring at two distinct start
positions among the first n symbols. It is found by a galloping, then
bisecting, search on the block length, each length tested with
Karp-Miller-Rosenberg block names. Symbols in [0, 2^32) are their own
level-1 names. A length with more windows than possible names repeats by
pigeonhole and is not sorted; a sorted length keeps only the candidate
starts whose block repeats, and later lengths sort those alone. An O(n^2)
brute force with the identical contract serves as the testing oracle.
Return-set measures mu(S_k(r)) are computed exactly for Bernoulli/Markov
measures and empirically by sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EnumerationBudgetError
from .intervalmaps import CHUNK  # the one chunk size of every pass over an orbit-length array
from .symbolic import MeasureSpec, TransitionSystem, sample_sequence, sample_sequences_batch
from .tables import CurveRow, curve_cells, curve_row
from .thermo import renyi_entropy_exact

__all__ = [
    "MatchResult",
    "ReturnSetEstimate",
    "longest_self_match",
    "longest_self_match_bruteforce",
    "match_curve",
    "return_set_measure",
]

ENUMERATION_CAP = 1 << 20  # most k-words the exact k < r return mass enumerates
_BLOCK_WORDS = 1 << 11  # most tails of one symbol in the exact k < r return mass


@dataclass(frozen=True)
class MatchResult:
    """M_n with a witnessing index pair and the matched word.

    The witness pair is the lexicographically smallest (i, j) among all pairs
    achieving M_n; crossed_boundary reports whether the matched block runs
    past index n-1 into the buffer.
    """

    m_n: int
    witness_i: int
    witness_j: int
    word: tuple[int, ...]
    crossed_boundary: bool = False


def _symbols(seq, n: int | None) -> tuple[np.ndarray, int]:
    """The symbols and the number of starts n (None: every symbol): an
    unsigned array as it is, anything else as int64. ValueError unless the
    symbols are integers in the int64 range (a cast would truncate floats
    and wrap large uint64 values) and 2 <= n <= their count."""
    arr = np.asarray(seq)
    if arr.size and (arr.dtype.kind not in "iu"
                     or (arr.dtype == np.uint64 and int(arr.max()) >= 1 << 63)):
        raise ValueError(f"symbols must be integers in the int64 range, got dtype {arr.dtype}")
    n = len(arr) if n is None else n
    if not 2 <= n <= len(arr):
        raise ValueError(f"need 2 <= n <= {len(arr)} (the generated length), got n={n}")
    return (arr if arr.dtype.kind == "u" else arr.astype(np.int64, copy=False)), n


# Largest name bound whose pair names a * bound + b (a, b < bound) fit in uint64.
_NAME_BOUND_MAX = 1 << 32


def _dense_names(names: np.ndarray) -> tuple[np.ndarray, int]:
    """Rename by dense rank: equal names stay equal and the bound drops to
    the number of distinct names, which the names' new dtype just holds.
    np.unique holds a copy of the names, their order, a sorted copy, a
    running count and the intp inverse, all of the names' length, while it
    runs: the largest working set of longest_self_match."""
    uniq, inv = np.unique(names, return_inverse=True)
    return inv.astype(np.min_scalar_type(len(uniq) - 1)), len(uniq)


def _repeated(keys: np.ndarray, key_bound: int) -> np.ndarray:
    """Indices, in increasing order, of the keys that occur more than once.

    keys are uint64 below key_bound. When every index fits in the bits that
    key_bound leaves free, keys is overwritten in place with
    (key << bits) | index, and one sort of it groups equal keys; otherwise
    an argsort does. So the caller passes an array it no longer needs.
    Neighbours in the sorted order are compared, and the indices of equal
    ones marked, chunk by chunk: the working set is the keys, the argsort's
    order if one is taken, a bool mark per key and O(CHUNK) scratch.
    """
    m = len(keys)
    bits = max(m - 1, 1).bit_length()
    packed = key_bound << bits <= 1 << 64
    if packed:
        order = keys
        order <<= np.uint64(bits)
        for a in range(0, m, CHUNK):
            b = min(a + CHUNK, m)
            order[a:b] |= np.arange(a, b, dtype=np.uint64)
        order.sort()
        sh, low = np.uint64(bits), np.uint64((1 << bits) - 1)
    else:
        order = np.argsort(keys)
    hit = np.zeros(m, dtype=bool)
    # each chunk compares its sorted positions with their right neighbours
    # and marks the indices of both ends of every equal pair
    for a in range(0, m - 1, CHUNK):
        if packed:
            chunk = order[a : a + CHUNK + 1] >> sh
            same = chunk[1:] == chunk[:-1]
            at = np.bitwise_and(order[a : a + CHUNK + 1], low, out=chunk)
        else:
            at = order[a : a + CHUNK + 1]
            chunk = keys[at]
            same = chunk[1:] == chunk[:-1]
        hit[at[:-1][same]] = True
        hit[at[1:][same]] = True
    return np.flatnonzero(hit)


def longest_self_match(seq, n: int | None = None) -> MatchResult:
    """M_n by a search on the block length, restricted to start positions
    below n (default: every symbol of seq).

    A k-block repeats among the starts below n only if every shorter block
    does, so the lengths are searched: k = 1, 2, 4, ... until one fails, then
    bisection between the last two. A length k is tested on the k-windows
    that start below n and lie inside the data, by looking for two equal
    names. Names follow Karp-Miller-Rosenberg doubling: symbols in [0, 2^32)
    are their own level-1 names (other symbols are ranked densely), the level
    of width 2w names the pair (name at p, name at p + w), and for
    w < k <= 2w the k-block at p is named by the pair (name at p, name at
    p + k - w). A level whose names may reach 2^32 is ranked densely before
    it is paired, so pair names fit in 64 bits.

    Only names that can still repeat are sorted. A length with more windows
    than possible names repeats by pigeonhole and is not sorted. A sorted
    length keeps as candidates only the starts whose block repeats; every
    longer repeat starts at a candidate, because its prefix repeats too, so
    each later sorted test looks at the candidates alone and narrows them.
    The witness is the first candidate at M_n and its first equal partner.

    Each level of names is held in the smallest unsigned dtype below its
    bound: a binary alphabet's names take one byte up to width 8, two at
    width 16 and four at width 32. Unsigned symbols already in the dtype
    of level 1 are its names as they are, without a copy. Only the keys
    handed to the sort are uint64. So the working set of a sorted length
    is the symbols, one level of names, 8 bytes a key, the candidates and
    O(CHUNK) scratch; a doubling holds the old level beside the new one,
    and a dense rank holds np.unique's arrays while it runs.

    Matched blocks may run into the generated buffer but never past the end
    of the data (containment rule). Witness tie-break: smallest i, then
    smallest j.
    """
    s, n = _symbols(seq, n)
    L = len(s)
    # names lie below `bound`, in the smallest unsigned dtype that holds
    # bound - 1
    top = int(s.max())
    if s.min() >= 0 and top < _NAME_BOUND_MAX:
        names, bound = s.astype(np.min_scalar_type(top), copy=False), top + 1
    else:
        names, bound = _dense_names(s)
    width = 1
    # candidates: the starts below n whose `found`-block repeats (None: every
    # start, before any length is sorted)
    starts, found = None, 0

    def block_names(k: int, at) -> tuple[np.ndarray, int]:
        # names and name bound of the k-blocks, width <= k <= 2 * width,
        # starting at `at`: a slice of starts or an array of them. A new
        # uint64 array, which _repeated may overwrite
        keys = names[at].astype(np.uint64)
        if k == width:
            return keys, bound
        keys *= np.uint64(bound)
        keys += names[k - width :][at]
        return keys, bound * bound

    def narrow(k: int) -> bool:
        # sort the k-block names at the candidates; keep those that repeat
        nonlocal starts, found
        m = min(n, L - k + 1)
        at = slice(m) if starts is None else starts[: np.searchsorted(starts, m)]
        rep = _repeated(*block_names(k, at))
        if not rep.size:
            return False
        starts, found = (rep if starts is None else at[rep]), k
        return True

    def repeats(k: int) -> bool:
        # pigeonhole first: more windows than names forces a repeat
        return min(n, L - k + 1) > (bound if k == width else bound * bound) or narrow(k)

    if not repeats(1):
        return MatchResult(0, 0, 1, (), False)
    # a lo-block repeats, no (hi + 1)-block does; names holds the level of
    # width `width` at every start p <= L - width
    lo, hi = 1, L - 1
    while 2 * width <= hi:
        if bound > _NAME_BOUND_MAX:
            names, bound = _dense_names(names)
        if not repeats(2 * width):
            hi = 2 * width - 1
            break
        wide = names[: L - 2 * width + 1].astype(np.min_scalar_type(bound * bound - 1))
        wide *= wide.dtype.type(bound)
        wide += names[width:]
        names, bound, width = wide, bound * bound, 2 * width
        lo = width
    if bound > _NAME_BOUND_MAX:
        names, bound = _dense_names(names)
    while lo < hi:
        k = (lo + hi + 1) // 2
        if repeats(k):
            lo = k
        else:
            hi = k - 1
    if found != lo:
        narrow(lo)
    keys, _ = block_names(lo, starts)
    i = int(starts[0])
    j = int(starts[1 + np.flatnonzero(keys[1:] == keys[0])[0]])
    word = tuple(int(x) for x in s[i : i + lo])
    return MatchResult(lo, i, j, word, bool(j + lo > n))


def longest_self_match_bruteforce(seq, n: int | None = None) -> MatchResult:
    """O(n^2 * M) triple-loop oracle with the identical contract."""
    s_arr, n = _symbols(seq, n)
    L = len(s_arr)
    s = s_arr.tolist()
    best = 0
    bi, bj = 0, 1
    for i in range(n - 1):
        for j in range(i + 1, n):
            k = 0
            while j + k < L and s[i + k] == s[j + k]:
                k += 1
            if k > best:
                best, bi, bj = k, i, j
    word = tuple(s[bi : bi + best])
    return MatchResult(best, bi, bj, word, bool(bj + best > n))


def match_curve(m: MeasureSpec, ts: TransitionSystem | None, n_grid, replicates: int,
                seed: int) -> list[CurveRow]:
    """M_n across a grid of n with independent replicates.

    Each cell of the curve plan (curve_cells) gets its own sequence; the
    buffer holds ceil(8 log n / h2) extra symbols, h2 the exact Renyi
    entropy, so the containment rule cannot truncate a match at the
    statistic's scale. One cell's sequence is in memory at a time, narrowed
    to the smallest unsigned dtype of the alphabet (one byte a symbol up to
    256 symbols) before its match; its int64 copy is freed first.
    """
    cells = curve_cells("match_curve", n_grid, replicates, seed)
    h2 = renyi_entropy_exact(m).h2
    if h2 <= 0:
        raise ValueError("match_curve needs a positive Renyi entropy h2")
    symbol = np.min_scalar_type(m.alphabet_size - 1)
    rows = []
    for n, rep, cell_seed in cells:
        seq = sample_sequence(m, ts, n, math.ceil(8.0 * math.log(n) / h2), cell_seed).astype(symbol)
        rows.append(curve_row(n, rep, cell_seed, float(longest_self_match(seq, n).m_n)))
        del seq  # freed before the next cell's sequence is sampled
    return rows


# ---------------------------------------------------------------------------
# Return-time sets S_k(r)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnSetEstimate:
    """mu of the lag-k return set of r-cylinders."""

    r: int
    k: int
    value: float
    stderr: float = 0.0  # 0 for the exact mass


def _exact_return_measure(m: MeasureSpec, r: int, k: int) -> float:
    """mu(S_k(r)) in exact mode.

    For k < r the window of length r + k is k-periodic, so the mass is a sum
    over the admissible k-words w with A[w[-1], w[0]]. Each word is a head,
    its first k - tail symbols, and a tail, any admissible continuation of
    the head's last symbol; d**tail is at most _BLOCK_WORDS. Every symbol's
    tails are enumerated once per call, and their transition factors
    gathered once per first symbol b, over the tails that close back onto b.
    The heads follow in lexicographic order, so the words come in the order
    of `admissible_words` in tests/_oracles.py, the bit-identity reference.
    A word's mass is the left-to-right product pi[w0] P[w0, w1] ... over the
    r + k symbols, the head's factors scalars and the tails' arrays, and the
    masses are added one at a time in word order to a running total carried
    from head to head. So each product and sum is that of a per-word loop
    and the float equals it bit for bit, which a pairwise np.sum would not.
    """
    mk = m.as_markov()
    P = mk.P
    pi = mk.pi
    d = len(pi)
    if k >= r:
        # two identical r-blocks separated by k - r free symbols: pair-chain
        # over (start symbol, end symbol) with squared transition weights
        Q = P**2
        G = np.eye(d)
        for _ in range(r - 1):
            G = G @ Q
        T = np.linalg.matrix_power(P, k - r + 1)
        return float(np.sum(pi * np.sum(G * T.T, axis=1)))
    check_enumeration(d, k)
    A = m.system.admissible
    tail = k - 1
    while d**tail > _BLOCK_WORDS:
        tail -= 1
    first = np.arange(d, dtype=np.min_scalar_type(d - 1))[:, None]
    # each symbol followed by each of its tails, grouped by symbol
    tails = _extend_words(first, A, tail + 1)
    Pl = P.tolist()
    total = np.zeros(1)
    factors = np.empty((tail + 1, len(tails)))  # one buffer, refilled for each b
    for b in range(d):
        # the tails that close back onto b: their factors, the closing one
        # last, and where each symbol's tails start
        closed = tails[A[tails[:, -1], b] != 0]
        for j in range(tail):
            factors[j, : len(closed)] = P[closed[:, j], closed[:, j + 1]]
        factors[tail, : len(closed)] = P[closed[:, -1], b]
        start = np.searchsorted(closed[:, 0], np.arange(d + 1))
        for head in _extend_words(first[b : b + 1], A, k - tail).tolist():
            s = head[-1]
            # into[p]: the factor of the transition into word position p
            into = ([factors[tail, start[s] : start[s + 1]]]
                    + [Pl[x][y] for x, y in zip(head, head[1:])]
                    + list(factors[:tail, start[s] : start[s + 1]]))
            mass = pi[b]
            for t in range(1, r + k):
                mass *= into[t % k]
            # cumsum adds in word order, as a Python loop would; np.sum is pairwise
            total = np.cumsum(np.concatenate([total, mass]))[-1:]
    return float(total[0])


def check_return_set(r: int, k: int) -> None:
    """Raise ValueError unless S_k(r) is defined: r >= 1 and k >= 1."""
    if r < 1 or k < 1:
        raise ValueError("need r >= 1 and k >= 1")


def check_enumeration(d: int, k: int) -> None:
    """Raise EnumerationBudgetError if the exact mass at lag k < r on d
    symbols would enumerate more than ENUMERATION_CAP k-words."""
    if d**k > ENUMERATION_CAP:
        raise EnumerationBudgetError(
            f"exact mode needs {d}^{k} word enumerations; cap is {ENUMERATION_CAP}"
        )


def _extend_words(words: np.ndarray, A: np.ndarray, length: int) -> np.ndarray:
    """Every admissible extension of the rows of words to the given length,
    in lexicographic order: nonzero walks A's rows in row-major order."""
    while words.shape[1] < length:
        rows, nxt = np.nonzero(A[words[:, -1]])
        words = np.column_stack([words[rows], nxt.astype(words.dtype)])
    return words


def return_set_measure(m: MeasureSpec, r: int, k: int, mode: str = "exact",
                       samples: int = 100_000, seed: int = 0) -> ReturnSetEstimate:
    """mu(S_k(r)) = mu{x : the r-prefix of x recurs at lag k}.

    Exact mode (Bernoulli/Markov/2-block Gibbs): for k >= r an r-step
    pair-chain connected by a (k-r+1)-step transition power; for k < r a sum
    over admissible k-periodic words, at most ENUMERATION_CAP of them
    (check_enumeration), in lexicographic order and summed sequentially in
    that order. The tails' factors are gathered once and shared by every
    head, which leaves each product and sum of a per-word loop, and so its
    bits, unchanged.
    Empirical mode: frequency of the event over independently sampled paths
    of length r + k.
    """
    check_return_set(r, k)
    if mode == "exact":
        return ReturnSetEstimate(r, k, _exact_return_measure(m, r, k))
    if mode == "empirical":
        if samples < 1:
            raise ValueError("samples must be >= 1")
        paths = sample_sequences_batch(m, samples, r + k, seed)
        ok = np.all(paths[:, k : k + r] == paths[:, :r], axis=1)
        p_hat = float(ok.mean())
        stderr = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / samples)
        return ReturnSetEstimate(r, k, p_hat, stderr)
    raise ValueError(f"unknown mode {mode!r}")

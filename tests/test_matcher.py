import hashlib
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import admissible_words, cylinder_measure
from orbitrecur import (
    BernoulliMeasure,
    MarkovMeasure,
    TransitionSystem,
    longest_self_match,
    longest_self_match_bruteforce,
    match_curve,
    return_set_measure,
)
from orbitrecur import matcher
from orbitrecur.errors import EnumerationBudgetError
from orbitrecur.rng import make_rng
from orbitrecur.symbolic import sample_sequence, stationary_distribution
from orbitrecur.thermo import renyi_entropy_exact

GOLDEN = MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])
UNIFORM = BernoulliMeasure([0.5, 0.5])
SYM3_P = [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]]
SYM3 = MarkovMeasure(stationary_distribution(SYM3_P), SYM3_P)


class TestLongestSelfMatch:
    @pytest.mark.parametrize("impl", [longest_self_match, longest_self_match_bruteforce])
    def test_constant_word(self, impl):
        res = impl([0, 0, 0, 0], 4)
        assert (res.m_n, res.witness_i, res.witness_j) == (3, 0, 1)
        assert res.word == (0, 0, 0)

    @pytest.mark.parametrize("impl", [longest_self_match, longest_self_match_bruteforce])
    def test_all_distinct(self, impl):
        res = impl([0, 1, 2, 3], 4)
        assert res.m_n == 0 and (res.witness_i, res.witness_j) == (0, 1)
        assert res.word == ()

    @pytest.mark.parametrize("impl", [longest_self_match, longest_self_match_bruteforce])
    def test_abab(self, impl):
        res = impl([0, 1, 0, 1], 4)
        assert (res.m_n, res.witness_i, res.witness_j) == (2, 0, 2)

    @pytest.mark.parametrize("impl", [longest_self_match, longest_self_match_bruteforce])
    def test_two_equal_symbols(self, impl):
        assert impl([5, 5], 2).m_n == 1

    def test_degenerate_constant_zero_buffer(self):
        # with no buffer the containment cap lands exactly at n: M_n = n - 1
        for n in (2, 5, 17):
            seq = [0] * n
            a = longest_self_match(seq, n)
            b = longest_self_match_bruteforce(seq, n)
            assert a == b
            assert (a.m_n, a.witness_i, a.witness_j) == (n - 1, 0, 1)
            assert not a.crossed_boundary  # block ends exactly at index n-1

    def test_match_may_run_into_buffer(self):
        # repeated block extends past index n-1 into generated buffer symbols
        seq = [1, 2, 3, 1, 2, 3, 9, 9]  # n = 4: suffixes 0 and 3 share (1,2,3)
        res = longest_self_match(seq, 4)
        assert (res.m_n, res.witness_i, res.witness_j) == (3, 0, 3)
        assert res.crossed_boundary

    def test_wide_symbol_range(self):
        seq = [10**18, -(10**18), 7, 10**18, -(10**18), 7, 10**18, 2**62]
        assert longest_self_match(seq, 6) == longest_self_match_bruteforce(seq, 6)

    def test_n_exceeding_length_rejected(self):
        with pytest.raises(ValueError):
            longest_self_match([0, 1], 3)

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            longest_self_match([0, 1], 1)

    def test_randomized_against_bruteforce(self):
        for seed in range(60):
            rng = make_rng(seed)
            n = int(rng.integers(2, 301))
            buffer = int(rng.integers(0, 30))
            alpha = int(rng.integers(2, 5))
            seq = rng.integers(0, alpha, size=n + buffer)
            fast = longest_self_match(seq, n)
            slow = longest_self_match_bruteforce(seq, n)
            assert fast == slow, (seed, n, buffer)

    def test_witness_validity(self):
        for seed in range(40):
            rng = make_rng(1000 + seed)
            n = int(rng.integers(3, 200))
            seq = rng.integers(0, 2, size=n + 10)
            res = longest_self_match(seq, n)
            i, j, m = res.witness_i, res.witness_j, res.m_n
            assert 0 <= i < j <= n - 1
            assert np.array_equal(seq[i : i + m], seq[j : j + m])
            assert res.word == tuple(seq[i : i + m])

    def test_monotone_in_n(self):
        rng = make_rng(77)
        seq = rng.integers(0, 2, size=400)
        values = [longest_self_match(seq, n).m_n for n in range(2, 400)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_property_against_bruteforce(self, data):
        # copies of earlier stretches, periodic where they overlap, make long
        # repeats: the search then passes lengths by pigeonhole, narrows its
        # candidates over several sorted lengths and takes its witness at any
        # bisection step; wide symbol values take the dense-rank path
        alpha = data.draw(st.integers(1, 4), label="alphabet")
        # one letter costs the brute force about L^3 / 6 steps
        n = data.draw(st.integers(2, 300 if alpha > 1 else 60), label="n")
        buffer = data.draw(st.integers(0, 40), label="buffer")
        L = n + buffer
        seq = data.draw(st.lists(st.integers(0, alpha - 1), min_size=L, max_size=L), label="seq")
        for _ in range(data.draw(st.integers(0, 2), label="copies")):
            a = data.draw(st.integers(0, L - 1), label="source")
            b = data.draw(st.integers(a, L - 1), label="target")
            for t in range(data.draw(st.integers(0, L - b), label="length")):
                seq[b + t] = seq[a + t]
        values = data.draw(st.sampled_from([
            None, [2**32 - 1, 0, 5, 9], [-(2**63), 2**32, 7, 2**63 - 1],
        ]), label="values")
        if values:
            seq = [values[x] for x in seq]
        assert longest_self_match(seq, n) == longest_self_match_bruteforce(seq, n)

    @pytest.mark.parametrize("impl", [longest_self_match, longest_self_match_bruteforce])
    def test_float_symbols_rejected(self, impl):
        # a cast to int64 would read four distinct symbols as four zeros
        with pytest.raises(ValueError, match="integers"):
            impl([0.2, 0.7, 0.9, 0.1], 4)

    @pytest.mark.parametrize("impl", [longest_self_match, longest_self_match_bruteforce])
    @pytest.mark.parametrize("seq", [
        np.array([2**63 + 5, 1, 2**63 + 5, 1], dtype=np.uint64),
        [2**64, 1, 2**64, 1],
    ], ids=["uint64", "python_int"])
    def test_symbols_outside_int64_rejected(self, impl, seq):
        # a cast to int64 would wrap 2^63 + 5 to a negative symbol
        with pytest.raises(ValueError, match="int64"):
            impl(seq, 4)

    def test_lengths_with_more_windows_than_names_not_sorted(self, monkeypatch):
        # binary, n = 300: lengths 1-8 have more windows than names; 16 is
        # the first sorted length, and later ones sort its candidates only
        calls = []
        repeated = matcher._repeated

        def spy(keys, key_bound):
            calls.append((len(keys), key_bound))
            return repeated(keys, key_bound)

        monkeypatch.setattr(matcher, "_repeated", spy)
        seq = make_rng(12).integers(0, 2, size=320)
        fast = longest_self_match(seq, 300)
        assert fast == longest_self_match_bruteforce(seq, 300)
        assert calls[0] == (300, 2**16)
        assert all(bound >= 2**16 and m < 300 for m, bound in calls[1:])

    def test_golden_match_cell_pinned(self):
        # the n = 10^6, replicate 0 cell of the golden-mean match curve at
        # master seed 2026, recorded before the sampler and the key sort changed
        P = np.array([[0.0, 1.0], [0.5, 0.5]])
        seq = sample_sequence(MarkovMeasure(stationary_distribution(P), P), None, 10**6, 248,
                              seed=14168319715008095865)
        res = longest_self_match(seq, 10**6)
        assert (res.m_n, res.witness_i, res.witness_j, res.crossed_boundary) == (59, 614463, 988654, False)
        assert (hashlib.sha256(repr(res).encode()).hexdigest()
                == "fdaddd9d0fbefbac454e86501dfe054e95e4fddfd05b7115555f9edc453d1d01")

    @pytest.mark.parametrize("make_seq,n,pinned,digest", [
        (lambda: sample_sequence(BernoulliMeasure([0.9, 0.1]), None, 10**6, 600, seed=9), 10**6,
         (121, 736231, 793090, False),
         "49af4790181f14e456cc61ede53b1ddf0f1c3bd115e0b2a9530cb1ccf4093051"),
        (lambda: make_rng(31).integers(0, 2, size=200), 180, (14, 91, 151, False),
         "96a66eaf473e01be1ab71b3490121dcc4ff08d98a13c48cc17109cd9460e0560"),
        (lambda: make_rng(32).integers(-3, 2, size=300), 280, (5, 7, 46, False),
         "10c3342f18e05ea7994752ddc548c568ab09df2de325fd48749880334384cd25"),
    ], ids=["bernoulli_dense_rank", "uniform_200", "negative_symbols"])
    def test_other_paths_pinned(self, make_seq, n, pinned, digest):
        # cells the golden pin does not reach: levels ranked densely past
        # width 32 (M_n = 121), a short sequence whose first sorted length
        # is packed, and symbols ranked densely at level 1; recorded before
        # the key scan was chunked
        res = longest_self_match(make_seq(), n)
        assert (res.m_n, res.witness_i, res.witness_j, res.crossed_boundary) == pinned
        assert hashlib.sha256(repr(res).encode()).hexdigest() == digest

    def test_working_set_bounded(self):
        # the first sorted length (32) holds the width-16 level as uint16 and
        # its keys packed in place with their indices, 8 bytes a symbol,
        # beside a bool mark per key, the candidates and O(CHUNK) scratch;
        # uint64 levels, or a second 8-byte array such as the indices
        # unpacked beside the keys, would pass 2.0. The int64 path is the
        # caller's; a uint8 one is level 1 as it is, not copied to int64
        seq = sample_sequence(GOLDEN, None, 200_000, 100, seed=3)
        for path in (seq, seq.astype(np.uint8)):
            tracemalloc.start()
            try:
                longest_self_match(path, 200_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.0 * 8 * len(seq), path.dtype


def _periodic(period, length):
    return [period[t % len(period)] for t in range(length)]


class TestRenamedBlockNames:
    """Long repeats whose block names outgrow 64 bits, so that levels past
    the symbols are renamed by dense rank before they are paired; symbols
    in [0, 2^32) are their own names and are not ranked."""

    @pytest.fixture
    def renames(self, monkeypatch):
        calls = []
        dense = matcher._dense_names

        def spy(names):
            calls.append(len(names))
            return dense(names)

        monkeypatch.setattr(matcher, "_dense_names", spy)
        return calls

    @pytest.mark.parametrize("seq", [
        _periodic([0, 1, 2], 210),
        _periodic([0, 1, 1, 0, 1], 230),
        list(make_rng(5).integers(0, 2, size=150)) * 2,
    ], ids=["period3", "period5", "doubled_random"])
    @pytest.mark.parametrize("n_share", [0.6, 1.0])
    def test_long_repeats_match_bruteforce(self, renames, seq, n_share):
        n = max(2, int(n_share * len(seq)))
        fast = longest_self_match(seq, n)
        assert len(renames) >= 1, "no level past the symbols was ranked"
        assert fast == longest_self_match_bruteforce(seq, n)
        assert fast.m_n > 64

    @pytest.mark.parametrize("seq,ranked", [
        (list(make_rng(6).integers(0, 3, size=300)), False),
        ([0, 2**32 - 1, 5, 2**32 - 1, 0], False),
        ([0, -1, 2, 0, -1, 3], True),
        ([0, 2**32, 5, 0, 2**32, 6], True),
    ], ids=["ternary", "below_2^32", "negative", "2^32"])
    def test_symbols_ranked_only_outside_raw_range(self, renames, seq, ranked):
        fast = longest_self_match(seq, len(seq) - 1)
        assert fast == longest_self_match_bruteforce(seq, len(seq) - 1)
        assert renames == ([len(seq)] if ranked else [])

    def test_constant_sequence(self):
        # one name throughout: once a level is ranked densely its bound is 1,
        # so every longer length repeats by pigeonhole and the witness is
        # narrowed from the candidates of the last sorted length
        for L, n in ((200, 2), (200, 150), (257, 257)):
            res = longest_self_match([3] * L, n)
            assert (res.m_n, res.witness_i, res.witness_j) == (L - 1, 0, 1)
            assert res.crossed_boundary == (1 + L - 1 > n)


class TestRepeatedKeys:
    """matcher._repeated on both sides of its packing rule: one sort of
    (key << bits) | index while key_bound << bits <= 2^64, an argsort past it."""

    @pytest.mark.parametrize("key_bound", [1 << 54, 1 << 64], ids=["packed", "argsort"])
    def test_keys_near_the_bound(self, key_bound):
        # 1000 indices take 10 bits, so keys below 2^54 pack into exactly 64
        # bits; keys below 2^64 cannot be packed
        offsets = make_rng(21).integers(0, 600, size=1000).astype(np.uint64)
        keys = np.uint64(key_bound - 1) - offsets
        counts = Counter(keys.tolist())
        expected = [i for i, key in enumerate(keys.tolist()) if counts[key] > 1]
        assert 0 < len(expected) < len(keys)
        # _repeated may overwrite the keys it is given
        assert matcher._repeated(keys.copy(), key_bound).tolist() == expected
        assert matcher._repeated(keys[:1].copy(), key_bound).tolist() == []
        assert matcher._repeated(keys[:0].copy(), key_bound).tolist() == []

    @pytest.mark.parametrize("key_bound", [1 << 54, 1 << 64], ids=["packed", "argsort"])
    @pytest.mark.parametrize("chunk", [1, 2, 3, 5])
    @pytest.mark.parametrize("reverse", [False, True], ids=["in_order", "reversed"])
    def test_equal_keys_straddle_a_chunk(self, key_bound, chunk, reverse):
        # distinct keys but one run of 2 or 3 equal ones, at every sorted
        # position: within one chunk's comparisons or across two chunks
        m = 4 * chunk + 3
        for run in (2, 3):
            for p in range(m - run + 1):
                keys = np.uint64(key_bound - 1 - m) + np.arange(m, dtype=np.uint64)
                keys[p : p + run] = keys[p]
                expected = list(range(p, p + run))
                if reverse:
                    keys = keys[::-1].copy()
                    expected = [m - 1 - i for i in reversed(expected)]
                with mock.patch.object(matcher, "CHUNK", chunk):
                    assert matcher._repeated(keys, key_bound).tolist() == expected, (run, p)


def _with_repeat(data, values, shortest, longest):
    """A sequence over `values`, n, and a copy of length shortest..longest
    of an earlier stretch, both starting below n: M_n >= that length."""
    c = data.draw(st.integers(shortest, longest), label="copy")
    n = data.draw(st.integers(c + 2, c + 100), label="n")
    L = n + data.draw(st.integers(0, 20), label="buffer")
    seq = data.draw(st.lists(st.sampled_from(values), min_size=L, max_size=L), label="seq")
    a = data.draw(st.integers(0, min(n - 2, L - c - 1)), label="source")
    b = data.draw(st.integers(a + 1, min(n - 1, L - c)), label="target")
    for t in range(c):
        seq[b + t] = seq[a + t]
    return seq, n


class TestChunkedPaths:
    """longest_self_match with matcher.CHUNK patched to 1-8, against the
    brute force, on each path: a packed sort, an argsort of keys past width
    32, and levels ranked densely."""

    @staticmethod
    def _check(seq, n, chunk):
        # the result must equal the brute force's; returns the sorts taken
        # ("packed" or "argsort", in call order) and the lengths of the
        # levels ranked densely
        sorts, ranked = [], []
        repeated, dense = matcher._repeated, matcher._dense_names

        def sort_spy(keys, key_bound):
            bits = max(len(keys) - 1, 1).bit_length()
            sorts.append("packed" if key_bound << bits <= 1 << 64 else "argsort")
            return repeated(keys, key_bound)

        def dense_spy(names):
            ranked.append(len(names))
            return dense(names)

        with mock.patch.object(matcher, "CHUNK", chunk), \
                mock.patch.object(matcher, "_repeated", sort_spy), \
                mock.patch.object(matcher, "_dense_names", dense_spy):
            fast = longest_self_match(seq, n)
        assert fast == longest_self_match_bruteforce(seq, n)
        return sorts, ranked

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), chunk=st.integers(1, 8))
    def test_packed_sort(self, data, chunk):
        alpha = data.draw(st.integers(2, 4), label="alphabet")
        seq, n = _with_repeat(data, list(range(alpha)), 0, 30)
        sorts, _ = self._check(seq, n, chunk)
        assert "packed" in sorts

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), chunk=st.integers(1, 8))
    def test_argsort_past_width_32(self, data, chunk):
        # binary data with a repeat of 33..64: the width-32 level keeps
        # name bound 2^32, so the lengths above 32 argsort their keys
        # (unless one symbol remains, whose names all repeat by pigeonhole)
        seq, n = _with_repeat(data, [0, 1], 33, 64)
        sorts, _ = self._check(seq, n, chunk)
        assert "argsort" in sorts or len(set(seq)) == 1

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), chunk=st.integers(1, 8))
    def test_dense_rank(self, data, chunk):
        # symbols outside [0, 2^32) are ranked at level 1, and a repeat
        # past 64 ranks a later level too (unless one name remains)
        values = data.draw(st.sampled_from([
            [-(2**63), 2**32, -7, 2**63 - 1], [-5, -3, -1], [2**32, 2**40],
        ]), label="values")
        seq, n = _with_repeat(data, values, 65, 100)
        _, ranked = self._check(seq, n, chunk)
        assert ranked[0] == len(seq)
        assert len(ranked) >= 2 or len(set(seq)) == 1


INPUT_FORMS = ["uint8", "uint16", "uint32", "int64", "list"]
# symbols whose largest value ends a dtype's range or starts the next one's,
# with each input form that holds them
TOP_FORMS = [(top, form) for top in (255, 256, 65535, 65536, 2**32 - 1) for form in INPUT_FORMS
             if form in ("int64", "list") or top <= np.iinfo(form).max]


def _as_form(seq, form):
    return seq if form == "list" else np.array(seq, dtype=form)


class TestNameDtypes:
    """Levels of names in the smallest unsigned dtype below their bound:
    symbols whose largest value is 255, 256, 65535, 65536 or 2^32 - 1 make
    levels that cross uint8 -> uint16 -> uint32 -> uint64 (and are ranked
    densely past 2^32) as the width doubles, for every input form that holds
    them."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_against_bruteforce(self, data):
        top, form = data.draw(st.sampled_from(TOP_FORMS), label="top, form")
        middle = data.draw(st.integers(1, top - 1), label="middle")
        seq, n = _with_repeat(data, [0, middle, top], 0, 40)
        seq = _as_form(seq, form)
        assert longest_self_match(seq, n) == longest_self_match_bruteforce(seq, n)

    @pytest.mark.parametrize("top,form", TOP_FORMS)
    def test_periodic_repeat(self, monkeypatch, top, form):
        # a period-3 stretch repeated far past width 8: the levels widen
        # until one reaches uint64 and is ranked densely
        ranked = []
        dense = matcher._dense_names

        def spy(names):
            ranked.append(names.dtype)
            return dense(names)

        monkeypatch.setattr(matcher, "_dense_names", spy)
        seq = _as_form(_periodic([top, 0, top - 1], 90) + [1, 2], form)
        fast = longest_self_match(seq, 60)
        assert fast == longest_self_match_bruteforce(seq, 60)
        assert fast.m_n == 87 and fast.word[:3] == (top, 0, top - 1)
        assert ranked[0] == np.uint64

    @pytest.mark.parametrize("form", ["uint8", "uint16", "uint32", "uint64"])
    def test_unsigned_symbols_not_copied(self, form):
        arr = np.array([1, 0, 1, 1, 0], dtype=form)
        s, n = matcher._symbols(arr, None)
        assert s is arr and n == 5
        assert matcher._symbols(arr.astype(np.int8), None)[0].dtype == np.int64

    @pytest.mark.parametrize("form", INPUT_FORMS)
    def test_symbol_errors_unchanged(self, form):
        seq = _as_form([0, 1, 0, 1], form)
        for impl in (longest_self_match, longest_self_match_bruteforce):
            with pytest.raises(ValueError, match=r"need 2 <= n <= 4 \(the generated length\), got n=5"):
                impl(seq, 5)
            with pytest.raises(ValueError, match="got n=1"):
                impl(seq, 1)

    @pytest.mark.parametrize("distinct,dtype", [
        (1, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16), (65537, np.uint32),
    ])
    def test_dense_names_narrow(self, distinct, dtype):
        # ranks 0 .. distinct - 1 in the smallest unsigned dtype holding them
        values = np.arange(distinct, dtype=np.int64) * 7 - (1 << 40)
        names, bound = matcher._dense_names(values[::-1].copy())
        assert bound == distinct and names.dtype == dtype
        assert names.tolist() == list(range(distinct - 1, -1, -1))


class TestMatchCurve:
    def test_deterministic_rows(self):
        rows1 = match_curve(UNIFORM, None, [100, 1000], 3, seed=5)
        rows2 = match_curve(UNIFORM, None, [100, 1000], 3, seed=5)
        assert rows1 == rows2

    def test_cells_keyed_by_seed_not_order(self):
        # a one-point grid reproduces the same cells as the enclosing grid
        whole = match_curve(UNIFORM, None, [100, 1000], 3, seed=5)
        part = match_curve(UNIFORM, None, [1000], 3, seed=5)
        assert [r for r in whole if r.n == 1000] == part

    def test_value_is_ratio(self):
        rows = match_curve(GOLDEN, None, [256], 2, seed=8)
        for row in rows:
            assert row.value == pytest.approx(row.aux / math.log(256))

    def test_working_set_bounded(self):
        # one golden n = 10^6 cell: the sampled int64 path beside its
        # one-byte copy, then the match on that copy, whose first sorted
        # length holds 8 bytes a key, a two-byte level and its candidates;
        # matching the int64 path, or keeping it alive through the match,
        # would pass 2.25
        buffer = math.ceil(8.0 * math.log(10**6) / renyi_entropy_exact(GOLDEN).h2)
        tracemalloc.start()
        try:
            match_curve(GOLDEN, None, [10**6], 1, seed=2026)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.25 * 8 * (10**6 + buffer)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            match_curve(UNIFORM, None, [100, 100], 2, seed=0)
        with pytest.raises(ValueError):
            match_curve(UNIFORM, None, [100], 0, seed=0)
        with pytest.raises(ValueError, match="integers"):
            match_curve(UNIFORM, None, [100.7], 1, seed=3)
        rows = match_curve(UNIFORM, None, [np.int64(100)], 1, seed=3)
        assert [row.n for row in rows] == [100]


def brute_return_measure(m, r, k):
    """Direct enumeration over all (r+k)-words, vectorised: axis t of the
    mass tensor is symbol t, so entry w holds pi[w_0] P[w_0, w_1] ... (0 for
    inadmissible words); the words with w[i + k] == w[i] for i < r are
    summed."""
    mk = m.as_markov()
    d, length = mk.alphabet_size, r + k
    mass = mk.pi.copy()
    for _ in range(1, length):
        mass = mass[..., None] * mk.P
    same = np.eye(d, dtype=bool)
    for i in range(r):
        shape = [1] * length
        shape[i] = shape[i + k] = d
        mass *= same.reshape(shape)
    return float(mass.sum())


def loop_return_measure(m, r, k):
    """The same enumeration one admissible word at a time."""
    total = 0.0
    for w in admissible_words(m.system, r + k):
        if all(w[i + k] == w[i] for i in range(r)):
            total += cylinder_measure(m, w)
    return total


def per_word_return_measure(m, r, k):
    """The k < r exact mass one admissible k-word at a time, in
    admissible_words order, each a left-to-right product added to a running
    total: the loop the vectorised kernel must match bit for bit."""
    mk = m.as_markov()
    P = mk.P
    pi = mk.pi
    total = 0.0
    length = r + k
    A = m.system.admissible
    for w in admissible_words(m.system, k):
        if not A[w[-1], w[0]]:
            continue
        mass = pi[w[0]]
        if mass == 0.0:
            continue
        prev = w[0]
        for idx in range(1, length):
            nxt = w[idx % k]
            mass *= P[prev, nxt]
            if mass == 0.0:
                break
            prev = nxt
        total += mass
    return float(total)


@st.composite
def markov_with_zeros(draw):
    """An irreducible chain on 1-4 states whose P has zero entries, on its
    own support or on a system that also allows some zero-mass transitions."""
    d = draw(st.integers(1, 4), label="d")
    weights = np.array(draw(st.lists(st.integers(0, 3), min_size=d * d, max_size=d * d)),
                       dtype=np.float64).reshape(d, d)
    for a in range(d):  # a d-cycle keeps the chain irreducible
        weights[a, (a + 1) % d] += 1.0
    P = weights / weights.sum(axis=1, keepdims=True)
    pi = stationary_distribution(P)
    extra = np.array(draw(st.lists(st.booleans(), min_size=d * d, max_size=d * d)),
                     dtype=np.uint8).reshape(d, d)
    return MarkovMeasure(pi, P, TransitionSystem(((P > 0) | (extra == 1)).astype(np.uint8)))


# the full shift on a chain with zero entries: the system admits zero-mass transitions
ZERO_MASS_P = [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
ZERO_MASS = MarkovMeasure(stationary_distribution(ZERO_MASS_P), ZERO_MASS_P,
                          TransitionSystem(np.ones((3, 3), dtype=np.uint8)))


class TestReturnSets:
    def test_uniform_constant_over_lags(self):
        for r in (2, 4, 6):
            for k in range(1, 11):
                est = return_set_measure(UNIFORM, r, k)
                assert est.value == pytest.approx(2.0**-r, abs=1e-14)

    def test_uniform_small_example(self):
        assert return_set_measure(UNIFORM, 2, 1).value == pytest.approx(0.25, abs=1e-15)

    def test_golden_one_periodic_words(self):
        # only the self-loop symbol contributes a 1-periodic word
        est = return_set_measure(GOLDEN, 2, 1)
        assert est.value == pytest.approx(cylinder_measure(GOLDEN, [1, 1, 1]), abs=1e-15)

    @pytest.mark.parametrize("measure", [UNIFORM, GOLDEN, BernoulliMeasure([0.2, 0.3, 0.5])])
    def test_exact_matches_enumeration(self, measure):
        for r, k in [(2, 1), (3, 2), (4, 3), (3, 5), (5, 5), (6, 8), (7, 7), (4, 10)]:
            exact = return_set_measure(measure, r, k).value
            brute = brute_return_measure(measure, r, k)
            assert abs(exact - brute) < 1e-12, (r, k)

    @pytest.mark.parametrize("measure", [UNIFORM, GOLDEN, BernoulliMeasure([0.2, 0.3, 0.5])])
    def test_vectorised_enumeration_matches_loop(self, measure):
        # same products in the same order; only the summation order differs
        for r, k in [(1, 1), (2, 1), (3, 2), (2, 4), (4, 3), (3, 5)]:
            vec = brute_return_measure(measure, r, k)
            loop = loop_return_measure(measure, r, k)
            assert abs(vec - loop) <= 64 * np.finfo(np.float64).eps, (r, k)

    def test_empirical_agrees_with_exact(self):
        for r, k, seed in [(3, 2, 1), (4, 6, 2), (2, 1, 3)]:
            exact = return_set_measure(GOLDEN, r, k).value
            emp = return_set_measure(GOLDEN, r, k, "empirical", samples=200_000, seed=seed)
            assert abs(emp.value - exact) <= 4.0 * max(emp.stderr, 1e-9), (r, k)

    @settings(max_examples=120, deadline=None)
    @given(m=markov_with_zeros(), data=st.data())
    def test_exact_bits_equal_per_word_loop(self, m, data):
        d = m.alphabet_size
        r = data.draw(st.integers(2, 13), label="r")
        k = data.draw(st.integers(1, r - 1).filter(lambda k: d**k <= 1 << 12), label="k")
        assert (return_set_measure(m, r, k).value.hex()
                == per_word_return_measure(m, r, k).hex())

    @pytest.mark.parametrize("measure,r,k", [
        (SYM3, 12, 11),  # 3^11 words: many enumeration blocks
        (GOLDEN, 13, 12),
        (BernoulliMeasure([0.2, 0.0, 0.8]), 9, 7),
        (BernoulliMeasure([1.0]), 13, 12),
    ])
    def test_exact_bits_equal_per_word_loop_fixed(self, measure, r, k):
        assert (return_set_measure(measure, r, k).value.hex()
                == per_word_return_measure(measure, r, k).hex())

    @pytest.mark.parametrize("tail", [0, 1, "k-1"])
    @pytest.mark.parametrize("measure,r,k", [
        (SYM3, 12, 7),
        (GOLDEN, 13, 9),  # A[0, 0] = 0: heads from 0 reject the tails ending in 0
        (ZERO_MASS, 10, 6),
    ])
    def test_exact_bits_at_each_tail_length(self, monkeypatch, measure, r, k, tail):
        d = measure.alphabet_size
        monkeypatch.setattr(matcher, "_BLOCK_WORDS", d ** (k - 1 if tail == "k-1" else tail))
        assert (return_set_measure(measure, r, k).value.hex()
                == per_word_return_measure(measure, r, k).hex())

    @settings(max_examples=60, deadline=None)
    @given(m=markov_with_zeros(), data=st.data())
    def test_exact_bits_at_each_tail_length_with_zeros(self, m, data):
        d = m.alphabet_size
        r = data.draw(st.integers(2, 10), label="r")
        k = data.draw(st.integers(1, r - 1).filter(lambda k: d**k <= 1 << 10), label="k")
        tail = data.draw(st.sampled_from(sorted({0, min(1, k - 1), k - 1})), label="tail")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matcher, "_BLOCK_WORDS", d**tail)
            assert (return_set_measure(m, r, k).value.hex()
                    == per_word_return_measure(m, r, k).hex())

    @pytest.mark.parametrize("tail", [0, 1, 6])
    def test_tails_enumerated_once_per_symbol(self, monkeypatch, tail):
        # one enumeration of every symbol's tails, then the heads from each
        # first symbol: nothing is enumerated again per head or per block
        calls = []
        real = matcher._extend_words

        def spy(words, A, length):
            calls.append((words[:, 0].tolist(), length))
            return real(words, A, length)

        monkeypatch.setattr(matcher, "_extend_words", spy)
        monkeypatch.setattr(matcher, "_BLOCK_WORDS", 3**tail)
        return_set_measure(SYM3, 12, 7)
        assert calls == [([0, 1, 2], tail + 1)] + [([b], 7 - tail) for b in range(3)]

    def test_exact_working_set_bounded(self):
        # words are enumerated in blocks: all 3^11 of them at once peak near 7 MB
        tracemalloc.start()
        try:
            return_set_measure(SYM3, 12, 11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024

    def test_budget_cap(self):
        big = BernoulliMeasure([0.25] * 4)
        with pytest.raises(EnumerationBudgetError):
            return_set_measure(big, 20, 12)  # 4^12 words exceed the 2^20 cap

    def test_input_validation(self):
        with pytest.raises(ValueError):
            return_set_measure(UNIFORM, 0, 1)
        with pytest.raises(ValueError):
            return_set_measure(UNIFORM, 2, 2, "nonsense")

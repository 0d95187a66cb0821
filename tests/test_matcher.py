import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitrecur import (
    BernoulliMeasure,
    MarkovMeasure,
    TransitionSystem,
    cylinder_measure,
    longest_self_match,
    longest_self_match_bruteforce,
    match_curve,
    return_set_measure,
)
from orbitrecur import matcher
from orbitrecur.errors import EnumerationBudgetError
from orbitrecur.rng import make_rng
from orbitrecur.symbolic import admissible_words, sample_sequence, stationary_distribution

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

    def test_working_set_bounded(self):
        # the first sorted length holds four 8-byte arrays of the data's
        # length (a level, its keys, the packed keys and their indices); a
        # fifth is the margin, and one more full-size array would pass it
        seq = sample_sequence(GOLDEN, None, 200_000, 100, seed=3)
        tracemalloc.start()
        try:
            longest_self_match(seq, 200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 8 * len(seq)


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
        assert matcher._repeated(keys, key_bound).tolist() == expected
        assert matcher._repeated(keys[:1], key_bound).tolist() == []
        assert matcher._repeated(keys[:0], key_bound).tolist() == []


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

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            match_curve(UNIFORM, None, [100, 100], 2, seed=0)
        with pytest.raises(ValueError):
            match_curve(UNIFORM, None, [100], 0, seed=0)


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

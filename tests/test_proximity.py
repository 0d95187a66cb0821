import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import peak_bytes, python_int_orbit
from orbitrecur import (
    GaussMap,
    KDoubling,
    MPInduced,
    PiecewiseAffine,
    alpha_of,
    closest_pair,
    closest_pair_bruteforce,
    doubling_orbit_exact,
    longest_self_match,
    proximity_curve,
    short_return_measure,
)
from orbitrecur import proximity
from orbitrecur.errors import InvalidSystemError, PrecisionFloorError
from orbitrecur.intervalmaps import CHUNK, OrbitBuffer, min_window_digits
from orbitrecur.proximity import FLOOR_REJECT_FACTOR
from orbitrecur.rng import make_rng

VARIANTS = ("all", "near", "far", "split")


class TestClosestPairExamples:
    def test_all_variant(self):
        pts = [0.1, 0.5, 0.11, 0.9]
        res = closest_pair(pts, "all")
        assert (res.witness_i, res.witness_j) == (0, 2)
        assert res.value == abs(pts[2] - pts[0])

    def test_exact_duplicate_gives_zero(self):
        res = closest_pair([0.3, 0.7, 0.3], "all")
        assert res.value == 0.0 and (res.witness_i, res.witness_j) == (0, 2)

    def test_split_variant(self):
        pts = [0.0, 0.5, 0.2, 0.3, 0.21, 0.9]
        res = closest_pair(pts, "split")
        assert (res.witness_i, res.witness_j) == (2, 4)
        assert res.value == abs(pts[4] - pts[2])

    def test_short_orbit_rejected(self):
        with pytest.raises(ValueError):
            closest_pair([0.1], "all")
        with pytest.raises(ValueError):
            closest_pair([0.1, 0.2], "split")
        with pytest.raises(ValueError, match="at least 3 points"):
            closest_pair([0.1, 0.2], "far", alpha=0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_rejected(self, bad):
        # the fast path and its oracle give one answer: a ValueError
        for fn in (closest_pair, closest_pair_bruteforce):
            with pytest.raises(ValueError, match="points must be finite"):
                fn([0.1, bad, 0.3, 0.31])


class TestAlpha:
    def test_examples(self):
        assert alpha_of(7) == 4
        assert alpha_of(3) == 1

    def test_monotone(self):
        values = [alpha_of(n) for n in range(2, 3000)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert alpha_of(10**6) >= alpha_of(10**5)

    def test_floor(self):
        assert alpha_of(2) == 1
        with pytest.raises(ValueError):
            alpha_of(1)


class TestBruteforceAgreement:
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_random_orbits(self, variant):
        for seed in range(25):
            rng = make_rng(seed * 7 + 1)
            n = int(rng.integers(3, 120))
            pts = rng.random(n)
            a = closest_pair(pts, variant)
            b = closest_pair_bruteforce(pts, variant)
            assert (a.value, a.witness_i, a.witness_j) == (b.value, b.witness_i, b.witness_j)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_exact_dyadic_orbits(self, variant):
        for seed in range(6):
            orb = doubling_orbit_exact(2, 60, min_window_digits(2, 60), seed=seed)
            a = closest_pair(orb, variant)
            b = closest_pair_bruteforce(orb, variant)
            assert (a.value, a.witness_i, a.witness_j) == (b.value, b.witness_i, b.witness_j)
            assert a.exact == b.exact and a.exact is not None

    def test_duplicates_and_ties(self):
        pts = [0.5, 0.25, 0.5, 0.25, 0.125]
        for variant in ("all", "near", "far"):
            a = closest_pair(pts, variant, alpha=2)
            b = closest_pair_bruteforce(pts, variant, alpha=2)
            assert (a.value, a.witness_i, a.witness_j) == (b.value, b.witness_i, b.witness_j)


def agrees_all(pts):
    a = closest_pair(pts, "all")
    b = closest_pair_bruteforce(pts, "all")
    assert (a.value, a.witness_i, a.witness_j, a.exact) == \
        (b.value, b.witness_i, b.witness_j, b.exact)
    return a


class TestAllCandidates:
    """The "all" variant scans only the points that end a least leading-key
    gap (within one unit for exact orbits of several limbs)."""

    def test_two_points(self):
        res = agrees_all([0.75, 0.25])
        assert (res.value, res.witness_i, res.witness_j) == (0.5, 0, 1)

    def test_all_points_equal(self):
        res = agrees_all([0.375] * 9)
        assert (res.value, res.witness_i, res.witness_j) == (0.0, 0, 1)

    def test_signed_zeros(self):
        # 0.0 and -0.0 are equal with different bits, but the same low
        # bits: the table passes both on, and the search compares values
        for pts in ([0.0, -0.0, 0.5], [-0.0, 0.5, 0.0], [0.5, -0.0, 0.25, -0.0, 0.0, 1.0],
                    [0.0, 0.3, 2.0**-30, -0.0, 0.7]):
            res = agrees_all(pts)
            assert res.value == 0.0
        assert agrees_all([-0.0, 0.5, 2.0**-30]).value == 2.0**-30

    def test_duplicates_among_near_equal_values(self):
        rng = make_rng(5)
        base = np.array([0.25, 0.25 + 2.0**-40, 0.25 - 2.0**-41, 0.5, 0.5 + 2.0**-40])
        for _ in range(20):
            agrees_all(rng.choice(base, size=int(rng.integers(2, 40))))
        agrees_all([0.25, 0.25 + 2.0**-40, 0.5, 0.25 + 2.0**-40, 0.5 + 2.0**-40, 0.5])

    def test_tied_pairs_far_apart(self, monkeypatch):
        # gaps of exactly 2^-10 at 1/8 and at 1/2, with 0.3 between them: the
        # candidates (1/8 + 2^-10, 1/2) are neighbours only among themselves
        d = 2.0**-10
        seen = []
        scan = proximity._offset_scan

        def spy(keys, *args, **kwargs):
            seen.append(keys[0].tolist())
            return scan(keys, *args, **kwargs)

        monkeypatch.setattr(proximity, "_offset_scan", spy)
        for pts, witness in (([0.5, 0.3, 0.125 + d, 0.7, 0.5 + d, 0.125], (0, 4)),
                             ([0.125, 0.3, 0.5 + d, 0.7, 0.125 + d, 0.5], (0, 4)),
                             ([0.7, 0.125 + d, 0.5, 0.3, 0.125, 0.5 + d], (1, 4))):
            res = agrees_all(pts)
            assert (res.value, res.witness_i, res.witness_j) == (d, *witness)
        assert all(sorted(keys) == [0.125, 0.125 + d, 0.5, 0.5 + d] for keys in seen)

    def test_later_limb_decides(self):
        # windows 0, 50, 59, 60 as limbs (leading, last digit): the least
        # leading gap, 0 between 50 and 59, is not the least gap, 1
        from orbitrecur.intervalmaps import OrbitBuffer

        orb = OrbitBuffer((np.array([0, 5, 5, 6]), np.array([0, 0, 9, 0])), (10, 10))
        res = agrees_all(orb)
        assert (res.exact, res.witness_i, res.witness_j) == (Fraction(1, 100), 2, 3)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.0, 0.5, 0.5 + 2.0**-52, 0.5 - 2.0**-53, 0.75]),
                              st.floats(0.0, 1.0)), min_size=2, max_size=60))
    def test_against_bruteforce(self, pts):
        agrees_all(pts)

    def test_scan_sees_few_points(self, monkeypatch):
        n = 10_000
        W = min_window_digits(2, n)
        orb = doubling_orbit_exact(2, n, W, seed=3)
        unpatched = {v: closest_pair(orb, v) for v in ("far", "split")}
        sizes = []
        scan = proximity._offset_scan

        def spy(keys, *args, **kwargs):
            sizes.append(len(keys[0]))
            return scan(keys, *args, **kwargs)

        monkeypatch.setattr(proximity, "_offset_scan", spy)
        res = closest_pair(orb, "all")
        assert 2 <= sizes[0] <= 8
        # the least gap between value neighbours, smallest pair on ties, from
        # the window integers
        order = sorted(range(n), key=lambda t: (orb.windows[t], t))
        gap, i, j = min((orb.windows[b] - orb.windows[a], min(a, b), max(a, b))
                        for a, b in zip(order, order[1:]))
        assert (res.exact * 2**W, res.witness_i, res.witness_j) == (gap, i, j)
        for variant, expected in unpatched.items():
            assert closest_pair(orb, variant) == expected
        assert sizes[1:] == [n, n]


class TestChunkedCandidates:
    """The least leading gap, its rows and the points that end them are each
    found over chunks of CHUNK entries, so no orbit-length array but the
    sorted copy is alive."""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2, 3, 5]),
           st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.25 + 2.0**-40, 0.5, 0.5 + 2.0**-40]),
                              st.floats(0.0, 1.0)), min_size=2, max_size=40))
    def test_small_chunks_against_bruteforce(self, chunk, pts):
        with mock.patch.object(proximity, "CHUNK", chunk):
            agrees_all(pts)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 2, 3, 5]), st.integers(0, 2**32), st.sampled_from([2, 3]),
           st.one_of(st.integers(1, 8), st.integers(60, 130)))
    def test_small_chunks_exact_orbits(self, chunk, seed, k, W):
        # narrow windows tie; wide ones span limbs, where the slack applies
        orb = doubling_orbit_exact(k, 30, W, seed=seed, enforce_floor=False)
        with mock.patch.object(proximity, "CHUNK", chunk):
            agrees_all(orb)

    @pytest.mark.parametrize("reverse", [False, True])
    def test_least_gap_and_tie_straddle_chunks(self, reverse):
        # unit gaps but for two of 0.5, the rows C - 1 and 2C - 1 of the
        # sorted keys, each across a chunk boundary; in index order or
        # reversed, the four points that end them sit at C - 1, C, 2C - 1
        # and 2C, across the chunks of the membership test too
        n = 3 * CHUNK
        v = np.arange(n, dtype=np.float64)
        v[CHUNK:] -= 0.5
        v[2 * CHUNK:] -= 0.5
        orb = OrbitBuffer((v[::-1].copy() if reverse else v,))
        ends = [CHUNK - 1, CHUNK, 2 * CHUNK - 1, 2 * CHUNK]
        assert proximity._candidates(orb.keys).tolist() == ends
        res = closest_pair(orb, "all")
        assert (res.value, res.witness_i, res.witness_j) == (0.5, CHUNK - 1, CHUNK)

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 100, 2**16, 2**17, 2**21, 2**32, 2**40])
    def test_few_candidates(self, k):
        # a leading limb of at least 31.5 bits leaves few points within one
        # unit of another; a one-digit uint32 limb for k = 2^17 or 2^21
        # would make nearly every point a candidate
        n = CHUNK
        orb = doubling_orbit_exact(k, n, min_window_digits(k, n), seed=k % 97)
        assert len(proximity._candidates(orb.keys)) <= 16

    def test_working_set_bounded(self):
        # one sorted copy of the uint32 leading key (4n bytes) and a few
        # chunks of scratch (4 chunks of 8 bytes are n/2 entries here); a
        # full-length array of leading gaps beside the sorted copy, or an
        # 8-byte sorted copy, fails it
        n = 8 * CHUNK
        orb = doubling_orbit_exact(2, n, min_window_digits(2, n), seed=2)
        small = doubling_orbit_exact(2, 1000, min_window_digits(2, 1000), seed=2)
        closest_pair(small, "all")  # first-use imports untraced
        res, peak = peak_bytes(lambda: closest_pair(orb, "all"))
        assert res.exact > 0
        assert peak < 4 * n + 4 * 8 * CHUNK


def outcome(fn, orb, variant, alpha):
    try:
        res = fn(orb, variant, alpha=alpha)
    except ValueError as exc:  # "far" with alpha >= n - 1 has no pair
        return str(exc)
    return (res.exact, res.value, res.witness_i, res.witness_j)


@st.composite
def exact_orbit_cases(draw):
    k = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(3, 80))
    # narrow windows force duplicates and ties; wide ones span several limbs
    W = draw(st.one_of(st.integers(1, 8), st.integers(20, 150)))
    total = n + W
    rng = make_rng(draw(st.integers(0, 2**32)))
    digits = rng.integers(0, k, size=total)
    # a periodic stretch makes windows that agree on their leading digits
    # (ties in the leading limbs, later limbs decide, in any index order)
    # or on all of them (gap 0)
    cut = draw(st.sampled_from([0, total // 2, total]))
    digits[:cut] = np.resize(digits[total - draw(st.integers(1, 6)):], cut)
    alpha = draw(st.integers(1, n))
    return k, n, W, digits.tolist(), alpha


class TestLimbKernel:
    @settings(max_examples=150, deadline=None)
    @given(exact_orbit_cases())
    def test_against_bruteforce_and_python_ints(self, case):
        k, n, W, digits, alpha = case
        orb = doubling_orbit_exact(k, n, W, digits=digits, enforce_floor=False)
        windows, points = python_int_orbit(k, W, digits, n)
        assert len(orb) == n
        assert orb.windows == windows
        assert orb.points.tobytes() == points.tobytes()
        for variant in VARIANTS:
            for a_ in (None, alpha):
                assert outcome(closest_pair, orb, variant, a_) == \
                    outcome(closest_pair_bruteforce, orb, variant, a_), variant

    def test_limb_layout(self):
        # uint32 limbs where they pack more digits per byte: 32 for k = 2
        # (against 62 an int64 limb), 20 for k = 3 (39), 1 for k = 2^32 (1);
        # else int64 limbs: 22 for k = 7 (11), 9 for k = 100 (4), 3 for
        # k = 2^17 (1), and 1 for a k above 2^32
        for k, W, widths, dtype in ((2, 96, (32, 32, 32), np.uint32), (2, 32, (32,), np.uint32),
                                    (3, 50, (20, 20, 10), np.uint32),
                                    (2**32, 3, (1, 1, 1), np.uint32),
                                    (7, 50, (22, 22, 6), np.int64), (100, 20, (9, 9, 2), np.int64),
                                    (2**17, 7, (3, 3, 1), np.int64),
                                    (2**40, 3, (1, 1, 1), np.int64)):
            orb = doubling_orbit_exact(k, 10, W, seed=1, enforce_floor=False)
            assert orb.radices == tuple(k**w for w in widths)
            assert all(limb.dtype == dtype for limb in orb.keys)
            # the seeded draw is the one the Python-int construction used
            digits = make_rng(1).integers(0, k, size=10 + W).tolist()
            assert orb.windows == python_int_orbit(k, W, digits, 10)[0]

    # k^L = 2^32 exactly: a limb's first piece is assigned, as k^L fits no
    # uint32; k = 2^40 takes one digit an int64 limb
    @pytest.mark.parametrize("k, L", [(2, 32), (4, 16), (16, 8), (256, 4), (65536, 2),
                                      (2**32, 1), (2**40, 1)])
    def test_full_limbs(self, k, L):
        for seed, W in ((1, L), (2, 2 * L + 1), (3, 3 * L)):
            n = 40
            # every digit k - 1 in the first windows: full limbs of value k^L - 1
            digits = [k - 1] * (n // 2 + W) + make_rng(seed).integers(0, k, size=n - n // 2).tolist()
            orb = doubling_orbit_exact(k, n, W, digits=digits, enforce_floor=False)
            assert orb.radices[0] == k**L
            assert orb.windows == python_int_orbit(k, W, digits, n)[0]
            for variant in VARIANTS:
                assert outcome(closest_pair, orb, variant, None) == \
                    outcome(closest_pair_bruteforce, orb, variant, None), variant

    def test_extreme_leading_limbs(self):
        # leading limbs 0 and 2^32 - 1: the least leading gap plus its slack,
        # the limb differences and the two limbs joined as one uint64 sort
        # key each pass 2^32 - 1 without wrapping
        top = 2**32 - 1
        for keys in (([0, top], [0, top]), ([top, 0], [5, 7]),
                     ([0, top, top], [0, top, top - 1]), ([top, 0, top], [top, 0, 0])):
            for limbs in (keys[:1], keys):
                orb = OrbitBuffer(tuple(np.array(limb, dtype=np.uint32) for limb in limbs),
                                  (2**32,) * len(limbs))
                for variant in VARIANTS:
                    assert outcome(closest_pair, orb, variant, None) == \
                        outcome(closest_pair_bruteforce, orb, variant, None), variant


def rank_offset(values, i, j):
    """How many places apart i and j sit in the value order, ties by index."""
    order = sorted(range(len(values)), key=lambda t: (values[t], t))
    rank = {t: r for r, t in enumerate(order)}
    return abs(rank[i] - rank[j])


class TestRankOffsets:
    """Answers of the "near", "far" and "split" variants beyond rank offset
    1. Each exact orbit is checked, and its float points (exact: W <= 52
    bits)."""

    @staticmethod
    def agree(orb, variant, alpha=None):
        for pts in (orb, list(orb.points)):
            a = closest_pair(pts, variant, alpha)
            b = closest_pair_bruteforce(pts, variant, alpha)
            assert (a.value, a.witness_i, a.witness_j, a.exact) == \
                (b.value, b.witness_i, b.witness_j, b.exact), variant
        return b

    def test_monotone_far(self):
        # window i is 2^(8 + i) - 1: increasing, so ranks are indices and the
        # closest admissible pair is alpha + 1 ranks apart
        orb = doubling_orbit_exact(2, 12, 20, digits=[0] * 12 + [1] * 20, enforce_floor=False)
        res = self.agree(orb, "far", alpha=3)
        assert (res.witness_i, res.witness_j) == (0, 4)
        assert rank_offset(orb.windows, 0, 4) == 4

    def test_split_three_ranks_apart(self):
        for seed in range(300):
            orb = doubling_orbit_exact(2, 9, 10, seed=seed, enforce_floor=False)
            res = self.agree(orb, "split")
            if rank_offset(orb.windows, res.witness_i, res.witness_j) >= 3:
                break
        else:
            pytest.fail("no seed puts the split pair 3 ranks apart")

    def test_zero_gap_tie_at_larger_offset(self):
        # windows (7, 7, 6, 5, 3, 7, 6): with alpha = 2, (1, 5) and (2, 6)
        # have gap 0 at rank offset 1, but the smallest pair (0, 5) is 2 ranks
        # apart; stopping once an offset's least gap ties the best misses it
        orb = doubling_orbit_exact(2, 7, 3, digits=[1, 1, 1, 1, 0, 1, 1, 1, 0, 0],
                                   enforce_floor=False)
        res = self.agree(orb, "far", alpha=2)
        assert (res.value, res.witness_i, res.witness_j) == (0.0, 0, 5)
        assert rank_offset(orb.windows, 0, 5) == 2
        assert rank_offset(orb.windows, 1, 5) == 1

    def test_near_tie_two_ranks_apart(self):
        # windows (4, 1, 2, 4, 1, 2): with alpha = 2, (2, 4) has gap 1 at rank
        # offset 1, but the smallest pair (1, 2) with that gap is 2 ranks
        # apart; stopping once an offset's least gap ties the best misses it
        orb = doubling_orbit_exact(2, 6, 3, digits=[1, 0, 0, 1, 0, 0, 1, 0, 1],
                                   enforce_floor=False)
        assert orb.windows == (4, 1, 2, 4, 1, 2)
        res = self.agree(orb, "near", alpha=2)
        assert (res.value, res.witness_i, res.witness_j) == (0.125, 1, 2)
        assert rank_offset(orb.windows, 1, 2) == 2
        assert rank_offset(orb.windows, 2, 4) == 1

    def test_near_stops_early(self, monkeypatch):
        n = 10_000
        W = min_window_digits(2, n)
        orb = doubling_orbit_exact(2, n, W, seed=3)
        calls = []
        gaps = proximity._gaps

        def spy(*args):
            calls.append(1)
            return gaps(*args)

        monkeypatch.setattr(proximity, "_gaps", spy)
        res = closest_pair(orb, "near")
        # one call per rank offset scanned; alpha_of(n) = 85 index offsets
        assert len(calls) < 10
        # the least gap over index offsets 1..alpha, smallest pair on ties,
        # from the window integers
        w, alpha = orb.windows, alpha_of(n)
        gap, i, j = min((abs(w[t + s] - w[t]), t, t + s)
                        for s in range(1, alpha + 1) for t in range(n - s))
        assert (res.exact * 2**W, res.witness_i, res.witness_j) == (gap, i, j)

    def test_far_without_admissible_pair(self, monkeypatch):
        # alpha >= n - 1 admits no pair, so closest_pair raises before any scan
        def no_scan(*args, **kwargs):
            raise AssertionError("_offset_scan called")

        monkeypatch.setattr(proximity, "_offset_scan", no_scan)
        orb = doubling_orbit_exact(2, 10, 30, seed=4, enforce_floor=False)
        for pts in (orb, list(orb.points)):
            for alpha in (9, 10, 50):
                for fn in (closest_pair, closest_pair_bruteforce):
                    with pytest.raises(ValueError, match="no admissible pair"):
                        fn(pts, "far", alpha)

    def test_near_without_admissible_pair(self, monkeypatch):
        # alpha < 1 admits no pair, so closest_pair raises before a scan that
        # would never stop early
        def no_scan(*args, **kwargs):
            raise AssertionError("_offset_scan called")

        monkeypatch.setattr(proximity, "_offset_scan", no_scan)
        for alpha in (0, -1):
            for fn in (closest_pair, closest_pair_bruteforce):
                with pytest.raises(ValueError, match="no admissible pair"):
                    fn([0.1, 0.5, 0.3], "near", alpha)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_limbs_only(self, variant):
        orb = doubling_orbit_exact(2, 200, min_window_digits(2, 200), seed=9)
        closest_pair(orb, variant)
        assert "windows" not in orb.__dict__ and "points" not in orb.__dict__


class TestVariantAlgebra:
    def test_near_far_partition(self):
        for seed in range(20):
            rng = make_rng(900 + seed)
            pts = rng.random(int(rng.integers(4, 200)))
            all_v = closest_pair(pts, "all").value
            near = closest_pair(pts, "near").value
            far = closest_pair(pts, "far").value
            assert min(near, far) == all_v

    def test_constrained_variants_dominate(self):
        rng = make_rng(41)
        pts = rng.random(200)
        base = closest_pair(pts, "all").value
        assert closest_pair(pts, "far").value >= base
        assert closest_pair(pts, "split").value >= base

    def test_all_equals_min_adjacent_sorted(self):
        rng = make_rng(43)
        pts = rng.random(500)
        expected = float(np.min(np.diff(np.sort(pts))))
        assert closest_pair(pts, "all").value == expected

    def test_nonincreasing_in_n(self):
        rng = make_rng(47)
        pts = rng.random(300)
        vals = [closest_pair(pts[:n], "all").value for n in range(2, 300, 7)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestDyadicCrossCheck:
    def test_match_length_bounds_distance(self):
        # two windows sharing their first b digits are closer than 2^(1-b)
        W = min_window_digits(2, 400)
        orb = doubling_orbit_exact(2, 400, W, seed=17)
        digits = [w >> (W - 1) for w in orb.windows]  # leading digit per point
        res = longest_self_match(digits, 390)
        i, j = res.witness_i, res.witness_j
        b = min(res.m_n, W)
        assert abs(orb.windows[i] - orb.windows[j]) / 2**W < 2.0 ** (1 - b)


class TestShortReturns:
    def test_eps_above_diameter(self):
        est = short_return_measure(KDoubling(2), 3, 1.5, 1000)
        assert est.value == 1.0 and est.stderr == 0.0

    def test_doubling_one_step_mass(self):
        est = short_return_measure(KDoubling(2), 1, 1e-3, 10**6, seed=5)
        assert abs(est.value - 2e-3) <= 4.0 * est.stderr + 1e-9

    def test_ratio_band_small_grid(self):
        for n_iter in (1, 5, 12):
            for eps in (1e-2, 1e-4):
                est = short_return_measure(KDoubling(2), n_iter, eps, 200_000, seed=n_iter)
                assert 1.0 <= est.value / eps <= 3.0

    def test_floating_floor_rejected(self):
        with pytest.raises(PrecisionFloorError):
            short_return_measure(GaussMap(), 2, 1e-16, 1000)

    def test_gauss_short_return_sane(self):
        est = short_return_measure(GaussMap(), 2, 1e-3, 200_000, seed=9)
        assert 0.0 < est.value < 0.05

    def test_mp_induced_short_return_sane(self):
        est = short_return_measure(MPInduced(), 1, 1e-2, 20_000, seed=4)
        assert 0.0 < est.value < 0.2

    def test_map_without_step_raises(self):
        with pytest.raises(InvalidSystemError, match="PiecewiseAffine"):
            short_return_measure(PiecewiseAffine.dyadic(40), 2, 1e-3, 1000)


class TestProximityCurve:
    def test_deterministic(self):
        rows1 = proximity_curve(KDoubling(2), [100, 1000], 2, "all", seed=6)
        rows2 = proximity_curve(KDoubling(2), [100, 1000], 2, "all", seed=6)
        assert rows1 == rows2

    def test_cells_keyed_by_seed(self):
        whole = proximity_curve(KDoubling(2), [100, 1000], 2, "all", seed=6)
        part = proximity_curve(KDoubling(2), [1000], 2, "all", seed=6)
        assert [r for r in whole if r.n == 1000] == part

    def test_one_cell_in_memory(self):
        # at this n the window is 96 digits, three full uint32 limbs that
        # are views of the level of n + W window values, so a cell holds
        # that level and the sorted copy of the leading limb while it is
        # scanned, plus a few chunks of scratch; a limb copied out of the
        # level, or the previous replicate's orbit kept alive while the
        # next is built, fails it
        n = 32 * CHUNK
        W = min_window_digits(2, n)
        assert W == 96
        proximity_curve(KDoubling(2), [100], 1, "all", seed=4)  # first-use imports untraced
        rows, peak = peak_bytes(lambda: proximity_curve(KDoubling(2), [n], 3, "all", seed=4))
        assert len(rows) == 3
        assert peak < 2 * 4 * (n + W) + 4 * 8 * CHUNK

    def test_value_aux_relation(self):
        rows = proximity_curve(PiecewiseAffine.dyadic(20), [500], 2, "all", seed=3)
        for r in rows:
            assert r.value == pytest.approx(r.aux / math.log(500))
            assert r.flag in ("ok", "floor", "resampled")

    def test_floor_flagging(self):
        # an orbit whose smallest gap sits below 2^6 x floor must be flagged
        from orbitrecur.intervalmaps import OrbitBuffer

        pts = np.array([0.1, 0.1 + 1e-15, 0.5, 0.9])
        orb = OrbitBuffer((pts,), noise_floor=1e-13)
        res = closest_pair(orb, "all")
        assert res.below_floor
        assert res.value < FLOOR_REJECT_FACTOR * 1e-13

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from orbitrecur.intervalmaps import min_window_digits
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


def python_int_orbit(k, W, digits, n):
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
        # k = 2 packs 62 digits a limb, k = 7 packs 22
        for k, W, widths in ((2, 96, (62, 34)), (2, 62, (62,)), (7, 50, (22, 22, 6))):
            orb = doubling_orbit_exact(k, 10, W, seed=1, enforce_floor=False)
            assert orb.radices == tuple(k**w for w in widths)
            assert all(limb.dtype == np.int64 for limb in orb.keys)
            # the seeded draw is the one the Python-int construction used
            digits = make_rng(1).integers(0, k, size=10 + W).tolist()
            assert orb.windows == python_int_orbit(k, W, digits, 10)[0]


def rank_offset(values, i, j):
    """How many places apart i and j sit in the value order, ties by index."""
    order = sorted(range(len(values)), key=lambda t: (values[t], t))
    rank = {t: r for r, t in enumerate(order)}
    return abs(rank[i] - rank[j])


class TestRankOffsets:
    """Answers of the "far" and "split" variants beyond rank offset 1. Each
    exact orbit is checked, and its float points (exact: W <= 52 bits)."""

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

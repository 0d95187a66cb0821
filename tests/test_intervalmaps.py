import math
from fractions import Fraction

import numpy as np
import pytest

from orbitrecur import (
    GaussMap,
    KDoubling,
    MPInduced,
    PiecewiseAffine,
    doubling_orbit_exact,
    gauss_inverse_cdf,
    iterate,
    mp_first_return,
    sample_initial,
)
from orbitrecur.errors import InvalidSystemError, ResampleSignal, TailHit, UnresolvedReturn
from orbitrecur.intervalmaps import _affine_branch, _step, affine_orbit, min_window_digits
from orbitrecur.rng import make_rng


def branch_digit(spec, x: float) -> int:
    """The branch of the map's natural partition that x lies in: the affine
    branch, the induced return time, or the integer part that one step of a
    multiplication or the Gauss map drops."""
    if isinstance(spec, PiecewiseAffine):
        return _affine_branch(spec, x)
    if isinstance(spec, MPInduced):
        return mp_first_return(spec.a, x, spec.max_steps).tau
    lifted = spec.k * x if isinstance(spec, KDoubling) else 1.0 / x
    return round(lifted - _step(spec, x)[0])


def ks_statistic(samples: np.ndarray, cdf) -> float:
    xs = np.sort(samples)
    n = len(xs)
    F = cdf(xs)
    plus = np.max(np.arange(1, n + 1) / n - F)
    minus = np.max(F - np.arange(0, n) / n)
    return max(plus, minus)


KS_1PCT = 1.628  # critical coefficient at the 1% level: D < c / sqrt(n)


class TestDoublingOrbitExact:
    def test_alternating_bits_windows(self):
        orb = doubling_orbit_exact(2, 2, 6, digits=[0, 1] * 10, enforce_floor=False)
        assert orb.windows == (0b010101, 0b101010)
        assert orb.exact_distance(0, 1) == Fraction(21, 64)
        assert orb.points[0] == 21 / 64 and orb.points[1] == 42 / 64

    def test_constant_zero_bits(self):
        orb = doubling_orbit_exact(2, 5, 8, digits=[0] * 32, enforce_floor=False)
        assert all(w == 0 for w in orb.windows)
        assert orb.exact_distance(0, 4) == 0

    def test_uniform_mean(self):
        orb = doubling_orbit_exact(2, 10**4, min_window_digits(2, 10**4), seed=12)
        assert abs(float(np.mean(orb.points)) - 0.5) < 0.02

    def test_floor_rejected(self):
        with pytest.raises(ValueError):
            doubling_orbit_exact(2, 1000, 10)

    def test_seed_determinism(self):
        w = min_window_digits(2, 100)
        a = doubling_orbit_exact(2, 100, w, seed=4)
        b = doubling_orbit_exact(2, 100, w, seed=4)
        assert a.windows == b.windows

    def test_window_slide_consistency(self):
        # window i+1 is the doubling image of window i: same digits shifted
        orb = doubling_orbit_exact(3, 50, min_window_digits(3, 50), seed=6)
        W = orb.window_bits
        for i in range(49):
            assert orb.windows[i + 1] // 3 == orb.windows[i] % 3 ** (W - 1)

    def test_coding_matches_digits(self):
        orb = doubling_orbit_exact(2, 200, min_window_digits(2, 200), seed=8)
        W = orb.window_bits
        for i in range(200):
            lead = orb.windows[i] >> (W - 1)
            assert branch_digit(KDoubling(2), orb.points[i]) == lead


class TestIterate:
    def test_gauss_fixed_point(self):
        phi = (math.sqrt(5.0) - 1.0) / 2.0  # 1/x - 1 = x
        orb = iterate(GaussMap(), phi, 12)
        assert max(abs(p - phi) for p in orb.points) < 1e-11

    def test_kdoubling_float_agrees_with_exact_windows(self):
        exact = doubling_orbit_exact(2, 40, 50, seed=3, enforce_floor=False)
        orb = iterate(KDoubling(2), float(exact.points[0]), 20)
        for i in range(20):
            assert abs(orb.points[i] - exact.points[i]) < 1e-9

    def test_affine_branch_image(self):
        aff = PiecewiseAffine.dyadic(40)
        orb = iterate(aff, 0.3, 2)
        assert orb.points[1] == pytest.approx(0.2, abs=1e-15)

    def test_noise_floor_recorded(self):
        orb = iterate(GaussMap(), 0.7071067811865476, 100)
        assert orb.precision == "floating" and 0.0 < orb.noise_floor <= 2.0**-44

    def test_gauss_zero_terminates(self):
        with pytest.raises(ResampleSignal):
            iterate(GaussMap(), 0.5, 3)  # 1/0.5 lands exactly on 0

    def test_affine_tail_hit(self):
        aff = PiecewiseAffine.dyadic(8)
        with pytest.raises(TailHit):
            iterate(aff, float(2.0**-9), 2)


class TestSampleInitial:
    def test_gauss_cdf_endpoints(self):
        assert gauss_inverse_cdf(0.0) == 0.0
        assert gauss_inverse_cdf(1.0) == 1.0

    def test_gauss_cdf_midpoint(self):
        assert gauss_inverse_cdf(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)

    def test_gauss_samples_match_density(self):
        rng = make_rng(19)
        xs = np.array([sample_initial(GaussMap(), rng) for _ in range(10**5)])
        D = ks_statistic(xs, lambda x: np.log2(1.0 + x))
        assert D < 0.01

    def test_uniform_for_other_maps(self):
        rng = make_rng(20)
        xs = np.array([sample_initial(KDoubling(2), rng) for _ in range(10**5)])
        assert ks_statistic(xs, lambda x: x) < KS_1PCT / math.sqrt(10**5)


class TestInvariance:
    def test_affine_lebesgue_invariance(self):
        aff = PiecewiseAffine.dyadic(40)
        rng = make_rng(23)
        xs = rng.random(10**5)
        pushed = np.array([_step(aff, float(x))[0] for x in xs])
        assert ks_statistic(pushed, lambda x: x) < KS_1PCT / math.sqrt(10**5)

    def test_gauss_invariance(self):
        rng = make_rng(29)
        xs = np.array([sample_initial(GaussMap(), rng) for _ in range(10**5)])
        pushed = np.array([_step(GaussMap(), float(x))[0] for x in xs])
        D = ks_statistic(pushed, lambda x: np.log2(1.0 + x))
        assert D < KS_1PCT / math.sqrt(10**5)

    @pytest.mark.parametrize("spec", [KDoubling(2), KDoubling(3), GaussMap(),
                                      PiecewiseAffine.dyadic(30), MPInduced(0.5)])
    def test_same_branch_expansion(self, spec):
        rng = make_rng(31)
        checked = 0
        while checked < 200:
            x = sample_initial(spec, rng)
            h = 1e-9
            y = x + h
            try:
                if branch_digit(spec, x) != branch_digit(spec, y):
                    continue
                fx, _ = _step(spec, x)
                fy, _ = _step(spec, y)
            except (ResampleSignal, UnresolvedReturn):
                continue
            assert abs(fx - fy) / h >= 1.0 - 1e-6
            checked += 1


class TestFirstReturn:
    def test_immediate_return(self):
        fr = mp_first_return(0.5, 0.01)
        assert fr.tau == 1 and fr.fx == pytest.approx(0.01 * (1.0 + math.sqrt(2.0) * 0.1), abs=1e-12)

    def test_zero_fixed_point(self):
        fr = mp_first_return(0.5, 0.0)
        assert fr.tau == 1 and fr.fx == 0.0

    def test_three_step_excursion(self):
        # f(0.4) = 0.4 (1 + sqrt(2) sqrt(0.4)), then two affine steps back
        fr = mp_first_return(0.5, 0.4)
        y1 = 0.4 * (1.0 + 2.0**0.5 * 0.4**0.5)
        y2 = 2.0 * y1 - 1.0
        y3 = 2.0 * y2 - 1.0
        assert fr.tau == 3
        assert fr.fx == pytest.approx(y3, abs=1e-15)

    def test_compose_ambient_map(self):
        spec = MPInduced(0.3)
        rng = make_rng(37)
        for _ in range(100):
            x = float(rng.random()) * 0.5
            fr = mp_first_return(spec.a, x)
            y = x * (1.0 + 2.0**spec.a * x**spec.a)
            for _ in range(fr.tau - 1):
                y = 2.0 * y - 1.0
            assert abs(y - fr.fx) <= 1e-12 * 2.0**fr.tau

    def test_step_budget(self):
        # x just under 1/2 maps next to 1, so the affine leg needs ~33 steps
        with pytest.raises(UnresolvedReturn):
            mp_first_return(0.5, 0.5 - 1e-10, max_steps=3)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            mp_first_return(0.5, 0.7)
        with pytest.raises(InvalidSystemError):
            mp_first_return(1.5, 0.1)


class TestPartitionIndex:
    """The branch a point lies in, read from one step of the map."""

    def test_gauss_digit(self):
        assert branch_digit(GaussMap(), 0.4) == 2

    def test_kdoubling_digit(self):
        assert branch_digit(KDoubling(2), 0.7) == 1

    def test_affine_branch(self):
        assert _affine_branch(PiecewiseAffine.dyadic(40), 0.3) == 2

    def test_mp_induced_return_time(self):
        assert mp_first_return(0.5, 0.4).tau == 3

    def test_endpoint_signals(self):
        with pytest.raises(ResampleSignal):
            _step(GaussMap(), 0.0)
        with pytest.raises(ResampleSignal):
            _affine_branch(PiecewiseAffine.dyadic(10), 1.0)
        with pytest.raises(TailHit):
            _affine_branch(PiecewiseAffine.dyadic(10), 1e-12)


class TestAffineOrbit:
    def test_uniform_distribution(self):
        orb = affine_orbit(PiecewiseAffine.dyadic(40), 10**5, seed=7)
        xs = np.sort(orb.points)
        assert ks_statistic(xs, lambda x: x) < KS_1PCT / math.sqrt(10**5)

    def test_pseudo_orbit_defect_below_ulp_scale(self):
        aff = PiecewiseAffine.dyadic(40)
        orb = affine_orbit(aff, 3000, seed=9)
        worst = 0.0
        for t in range(2999):
            y, _ = _step(aff, float(orb.points[t]))
            worst = max(worst, abs(y - orb.points[t + 1]))
        assert worst < 4.0 * 2.0**-52

    def test_determinism(self):
        a = affine_orbit(PiecewiseAffine.dyadic(40), 500, seed=13)
        b = affine_orbit(PiecewiseAffine.dyadic(40), 500, seed=13)
        assert np.array_equal(a.points, b.points)


class TestSpecValidation:
    def test_breakpoints_must_decrease(self):
        with pytest.raises(InvalidSystemError):
            PiecewiseAffine((1.0, 0.5, 0.5, 0.1))

    def test_first_breakpoint_is_one(self):
        with pytest.raises(InvalidSystemError):
            PiecewiseAffine((0.9, 0.5))

    def test_dyadic_tail_mass(self):
        aff = PiecewiseAffine.dyadic(40)
        assert aff.tail_mass == 2.0**-39 and len(aff.breakpoints) - 1 == 39

    def test_kdoubling_needs_k_at_least_two(self):
        with pytest.raises(InvalidSystemError):
            KDoubling(1)

    def test_mp_exponent_range(self):
        with pytest.raises(InvalidSystemError):
            MPInduced(1.0)

import math

import numpy as np
import pytest

from orbitrecur import (
    BernoulliMeasure,
    MarkovMeasure,
    correlation_integral,
    d2_estimate,
    default_r_grid,
    exponent_fit,
    h2_collision_estimate,
    renyi_entropy_exact,
)
from orbitrecur.errors import FitRefusedError
from orbitrecur.estimators import CorrelationCurve, correlation_points_from_orbit
from orbitrecur.rng import make_rng
from orbitrecur.tables import CurveRow

UNIFORM = BernoulliMeasure([0.5, 0.5])


class TestCorrelationIntegral:
    def test_four_point_example(self):
        curve = correlation_integral([0.0, 0.25, 0.5, 0.75], [0.3], min_points=2)
        assert curve.c_values[0] == 0.5  # the three adjacent pairs

    def test_radius_above_diameter(self):
        curve = correlation_integral([0.0, 0.25, 0.5, 0.75], [1.5], min_points=2)
        assert curve.c_values[0] == 1.0

    def test_radius_below_min_gap(self):
        curve = correlation_integral([0.0, 0.25, 0.5, 0.75], [0.1], min_points=2)
        assert curve.c_values[0] == 0.0

    def test_counts_match_bruteforce(self):
        for seed, n in [(1, 150), (2, 500), (3, 2000)]:
            pts = make_rng(seed).random(n)
            grid = [0.3, 0.1, 0.01, 0.003]
            curve = correlation_integral(pts, grid, min_points=2)
            diffs = np.abs(pts[:, None] - pts[None, :])
            iu = np.triu_indices(n, 1)
            for r, c in zip(curve.r_grid, curve.c_values):
                brute = np.sum(diffs[iu] < r) / (n * (n - 1) / 2)
                assert c == brute

    def test_monotone_in_r(self):
        pts = make_rng(5).random(5000)
        curve = correlation_integral(pts, default_r_grid())
        assert np.all(np.diff(curve.c_values) <= 0)  # grid is decreasing

    def test_strictness(self):
        curve = correlation_integral([0.0, 0.25, 0.5, 0.75], [0.25], min_points=2)
        assert curve.c_values[0] == 0.0  # strict inequality excludes ties

    def test_minimum_points_enforced(self):
        with pytest.raises(ValueError):
            correlation_integral(make_rng(0).random(50))


class TestD2Estimate:
    def test_uniform_unit_slope(self):
        pts = make_rng(11).random(10**5)
        fit = d2_estimate(correlation_integral(pts, default_r_grid()))
        assert 0.95 <= fit.slope <= 1.05

    def test_gauss_measure_unit_slope(self):
        u = make_rng(12).random(10**5)
        pts = 2.0**u - 1.0
        fit = d2_estimate(correlation_integral(pts, default_r_grid()))
        assert 0.9 <= fit.slope <= 1.1

    def test_exact_line_recovered(self):
        grid = 1e-1 * 10.0 ** (-np.arange(21) / 10)  # 2 decades, 10 radii per decade
        fit = d2_estimate(CorrelationCurve(grid, grid.copy()))
        assert fit.slope == pytest.approx(1.0, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_affine_rescaling_invariance(self):
        pts = make_rng(13).random(20000)
        grid = default_r_grid()
        s = 0.037
        f1 = d2_estimate(correlation_integral(pts, grid))
        f2 = d2_estimate(correlation_integral(pts * s + 0.2, grid * s))
        assert abs(f1.slope - f2.slope) < 1e-12

    def test_insufficient_usable_points(self):
        grid = np.array([0.5, 0.4, 0.3])
        curve = CorrelationCurve(grid, np.array([0.9, 0.9, 0.9]))
        with pytest.raises(FitRefusedError):
            d2_estimate(curve)

    def test_orbit_subsampling_stride(self):
        pts = np.arange(1000) / 1000.0
        sub = correlation_points_from_orbit(pts)
        assert len(sub) == math.ceil(1000 / 48)  # alpha(1000) = 48


class TestCollisionEntropy:
    def test_uniform_band(self):
        est = h2_collision_estimate(UNIFORM, 10, 10**4, seed=3)
        assert 0.66 <= est.h2 <= 0.72
        assert est.stderr < 0.01

    def test_degenerate_measure_zero_entropy(self):
        est = h2_collision_estimate(BernoulliMeasure([1.0, 0.0]), 8, 2000, seed=1)
        assert est.h2 == 0.0 and est.collisions == est.pairs

    def test_uniform_markov_band(self):
        m = MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        est = h2_collision_estimate(m, 10, 10**4, seed=4)
        assert 0.66 <= est.h2 <= 0.72

    def test_block_too_long_rejected(self):
        with pytest.raises(ValueError):
            h2_collision_estimate(UNIFORM, 40, 2000, seed=0)

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            h2_collision_estimate(UNIFORM, 5, 100, seed=0)

    def test_consistency_trend(self):
        # average error shrinks when the sample count quadruples, 20 seeds
        truth = renyi_entropy_exact(UNIFORM).h2
        small, large = [], []
        for seed in range(20):
            small.append(abs(h2_collision_estimate(UNIFORM, 8, 1500, seed=seed).h2 - truth))
            large.append(abs(h2_collision_estimate(UNIFORM, 8, 6000, seed=seed).h2 - truth))
        assert np.mean(large) < np.mean(small)


def synthetic_rows(slope: float, ns=(10, 100, 1000, 10000), reps=3, flag="ok"):
    return [
        CurveRow(n=n, replicate=r, seed=0, value=0.0, aux=slope * math.log(n), flag=flag)
        for n in ns for r in range(reps)
    ]


class TestExponentFit:
    def test_exact_recovery(self):
        res = exponent_fit(synthetic_rows(2.885))
        assert res.fit.slope == pytest.approx(2.885, abs=1e-12)

    def test_noiseless_power_law(self):
        res = exponent_fit(synthetic_rows(0.5))
        assert res.fit.slope == pytest.approx(0.5, abs=1e-12)
        assert res.fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_flagged_cells_excluded(self):
        rows = synthetic_rows(2.0)
        # corrupt one replicate per n but flag it; fit must ignore them
        bad = [CurveRow(n=r.n, replicate=9, seed=0, value=0.0, aux=999.0, flag="floor")
               for r in rows if r.replicate == 0]
        res = exponent_fit(rows + bad)
        assert res.fit.slope == pytest.approx(2.0, abs=1e-12)
        assert res.excluded_cells == 4

    def test_majority_excluded_refused(self):
        rows = synthetic_rows(2.0, ns=(10, 100, 1000, 10000), reps=3, flag="floor")
        ok = synthetic_rows(2.0, ns=(10, 100, 1000, 10000), reps=1)
        with pytest.raises(FitRefusedError):
            exponent_fit(rows + ok)

    def test_min_grid_points(self):
        rows = synthetic_rows(2.0, ns=(10, 100, 1000))
        with pytest.raises(FitRefusedError):
            exponent_fit(rows)
        res = exponent_fit(rows, min_grid_points=3)
        assert res.fit.slope == pytest.approx(2.0, abs=1e-12)

    def test_min_replicates(self):
        rows = synthetic_rows(2.0, reps=2)
        with pytest.raises(FitRefusedError):
            exponent_fit(rows)


"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Slope bands were frozen from 50-seed pilots; the
seeds used here are fixed, so every run is deterministic.
"""

import itertools
import math
import time

import numpy as np

from _configs import SMALL_CONFIGS
from _oracles import admissible_words, cylinder_measure
from orbitrecur import (
    BernoulliMeasure,
    GaussMap,
    KDoubling,
    MarkovMeasure,
    PiecewiseAffine,
    closest_pair,
    closest_pair_bruteforce,
    correlation_integral,
    d2_estimate,
    expcli,
    exponent_fit,
    longest_self_match,
    longest_self_match_bruteforce,
    match_curve,
    proximity_curve,
    psi_mixing_table,
    renyi_entropy_exact,
    short_return_measure,
    sigma_bounds_check,
    stationary_distribution,
    z_partition_sum,
)
from orbitrecur.rng import make_rng
from orbitrecur.thermo import _perron, gurevich_pressure

GOLDEN = MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])
UNIFORM = BernoulliMeasure([0.5, 0.5])


def report(num: int, description: str, ok: bool) -> None:
    print(f"CRITERION {num} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_entropy_oracle_agreement():
    t0 = time.perf_counter()
    measures = [UNIFORM.as_markov(), GOLDEN,
                MarkovMeasure([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])]
    for seed, d in [(1, 2), (2, 2), (3, 3), (4, 3), (5, 3), (6, 4), (7, 4), (8, 4)]:
        rng = make_rng(seed)
        P = rng.random((d, d)) + 0.05
        P /= P.sum(axis=1, keepdims=True)
        measures.append(MarkovMeasure(stationary_distribution(P), P))
    assert len(measures) >= 10
    worst = 0.0
    for m in measures:
        lam_q, _, _, _ = _perron(m.P**2, tol=1e-13)
        h2_q = -math.log(lam_q)
        with np.errstate(divide="ignore"):
            phi = np.where(m.P > 0, np.log(np.where(m.P > 0, m.P, 1.0)), -np.inf)
        h2_p = (2.0 * gurevich_pressure(m.system, phi).value
                - gurevich_pressure(m.system, 2.0 * phi).value)
        worst = max(worst, abs(h2_q - h2_p))
    elapsed = time.perf_counter() - t0
    report(1, f"{len(measures)} Markov measures, max |q_matrix - pressure| = "
              f"{worst:.2e} (tol 1e-8), {elapsed:.2f}s (< 1 s)",
           worst < 1e-8 and elapsed < 1.0)


def test_criterion_2_uniform_shift_match_law():
    t0 = time.perf_counter()
    target = 2.0 / math.log(2.0)
    rows = match_curve(UNIFORM, None, [10**3, 10**4, 10**5, 10**6], 5, seed=2026)
    fit = exponent_fit(rows)
    point_ratios = [r.value for r in rows if r.n == 10**6]
    in_band = sum(1 for v in point_ratios if abs(v - target) <= 0.35)
    elapsed = time.perf_counter() - t0
    report(2, f"slope {fit.fit.slope:.3f} vs 2/log2 {target:.3f} (tol 0.35); "
              f"ratio at n=1e6 in band for {in_band}/5 seeds (need >= 4); "
              f"{elapsed:.1f}s (< 120 s)",
           abs(fit.fit.slope - target) <= 0.35 and in_band >= 4 and elapsed < 120.0)


def test_criterion_3_golden_mean_match_law():
    target = 2.0 / renyi_entropy_exact(GOLDEN).h2
    rows = match_curve(GOLDEN, None, [10**3, 10**4, 10**5, 10**6], 5, seed=2026)
    fit = exponent_fit(rows)
    report(3, f"golden-mean slope {fit.fit.slope:.3f} vs 2/H2 {target:.3f} (tol 0.4)",
           abs(fit.fit.slope - target) <= 0.4)


def test_criterion_4_doubling_and_affine_proximity_law():
    t0 = time.perf_counter()
    rows = proximity_curve(KDoubling(2), [10**3, 10**4, 10**5], 5, "all", seed=2026)
    fit_k = exponent_fit(rows, min_grid_points=3)
    rows_a = proximity_curve(PiecewiseAffine.dyadic(40), [10**3, 10**4, 10**5], 5,
                             "all", seed=2026)
    fit_a = exponent_fit(rows_a, min_grid_points=3)
    elapsed = time.perf_counter() - t0
    report(4, f"exact doubling slope {fit_k.fit.slope:.3f}, truncated affine slope "
              f"{fit_a.fit.slope:.3f} vs 2 (tol 0.5, floor-filtered, "
              f"{fit_a.excluded_cells} cells excluded); {elapsed:.1f}s (< 300 s)",
           abs(fit_k.fit.slope - 2.0) <= 0.5 and abs(fit_a.fit.slope - 2.0) <= 0.5
           and elapsed < 300.0)


def test_criterion_5_gauss_dimension_and_proximity():
    pts = GaussMap().sample(make_rng(99), 10**5)
    d2 = d2_estimate(correlation_integral(pts))
    rows = proximity_curve(GaussMap(), [10**3, 10**4, 10**5], 5, "all", seed=2026)
    fit = exponent_fit(rows, min_grid_points=3)
    report(5, f"correlation dimension {d2.slope:.3f} vs 1 (tol 0.1); proximity slope "
              f"{fit.fit.slope:.3f} vs 2 (tol 0.5)",
           abs(d2.slope - 1.0) <= 0.1 and abs(fit.fit.slope - 2.0) <= 0.5)


def test_criterion_6_short_return_mass():
    bad = []
    for n_iter in range(1, 13):
        for eps in (1e-2, 1e-3, 1e-4):
            seed = 1000 * n_iter + int(-math.log10(eps))
            est = short_return_measure(KDoubling(2), n_iter, eps, 10**6, seed=seed)
            ratio = est.value / eps
            if not 1.0 <= ratio <= 3.0:
                bad.append((n_iter, eps, ratio))
    report(6, f"doubling short-return mass/eps in [1, 3] for n in 1..12, "
              f"eps in 1e-2..1e-4, 1e6 samples each ({len(bad)} violations)",
           not bad)


def _check_match_oracles() -> bool:
    for n in range(2, 15):
        for bits in itertools.product((0, 1), repeat=n):
            if longest_self_match(bits, n) != longest_self_match_bruteforce(bits, n):
                return False
    for seed in range(100):
        rng = make_rng(seed)
        n = int(rng.integers(2, 301))
        seq = rng.integers(0, int(rng.integers(2, 5)), size=n + int(rng.integers(0, 20)))
        if longest_self_match(seq, n) != longest_self_match_bruteforce(seq, n):
            return False
    return True


def _check_closest_oracles() -> bool:
    for variant in ("all", "near", "far", "split"):
        for seed in range(100):
            rng = make_rng(10_000 + seed)
            n = int(rng.integers(3, 501))
            pts = rng.random(n)
            a = closest_pair(pts, variant)
            b = closest_pair_bruteforce(pts, variant)
            if (a.value, a.witness_i, a.witness_j) != (b.value, b.witness_i, b.witness_j):
                return False
    return True


def _enumerated_z(m, n: int, t: float) -> float:
    """Materialize every word's mass by level extension (oracle for the DP)."""
    d = m.alphabet_size
    mk = m.as_markov()
    mass = np.asarray(mk.pi, dtype=np.float64)
    last = np.arange(d)
    for _ in range(n - 1):
        mass = (mass[:, None] * mk.P[last]).ravel()
        last = np.tile(np.arange(d), len(last))
    return float(np.sum(mass ** (1.0 + t)))


def _check_z_enumeration() -> bool:
    rng = make_rng(77)
    P4 = rng.random((4, 4)) + 0.1
    P4 /= P4.sum(axis=1, keepdims=True)
    measures = [UNIFORM, GOLDEN, BernoulliMeasure([0.2, 0.3, 0.5]),
                MarkovMeasure(stationary_distribution(P4), P4)]
    for m in measures:
        for n in range(1, 13):
            if abs(z_partition_sum(m, n, 1.0) - _enumerated_z(m, n, 1.0)) > 1e-12:
                return False
    return True


def _check_psi_bruteforce() -> bool:
    from orbitrecur.thermo import psi_mixing_table

    for m in (GOLDEN, MarkovMeasure([0.5, 0.5], [[0.25, 0.75], [0.75, 0.25]])):
        d = m.alphabet_size
        for k in (0, 1, 3):
            worst = 0.0
            for le, lf in itertools.product((1, 2, 3), repeat=2):
                for e in admissible_words(m.system, le):
                    mu_e = cylinder_measure(m, e)
                    if mu_e == 0.0:
                        continue
                    for f in admissible_words(m.system, lf):
                        mu_f = cylinder_measure(m, f)
                        if mu_f == 0.0:
                            continue
                        joint = sum(
                            cylinder_measure(m, e + gap + f)
                            for gap in itertools.product(range(d), repeat=k)
                        )
                        worst = max(worst, abs(joint / (mu_e * mu_f) - 1.0))
            if abs(psi_mixing_table(m, k)[k] - worst) > 1e-12:
                return False
    return True


def _check_byte_identical_reruns(tmp_path) -> bool:
    for kind, text in SMALL_CONFIGS.items():
        cfg = expcli.parse_config_text(text)
        expcli.run(cfg, tmp_path / kind / "a")
        expcli.run(cfg, tmp_path / kind / "b")
        a = (tmp_path / kind / "a" / "results.csv").read_bytes()
        b = (tmp_path / kind / "b" / "results.csv").read_bytes()
        if a != b:
            return False
    return True


def test_criterion_7_property_suites(tmp_path):
    ok_match = _check_match_oracles()
    ok_closest = _check_closest_oracles()
    ok_z = _check_z_enumeration()
    ok_psi = _check_psi_bruteforce()
    ok_sigma = all(c.passed for c in sigma_bounds_check(UNIFORM, 6, 12)) and all(
        c.passed for c in sigma_bounds_check(GOLDEN, 6, 12)
    )
    ok_bytes = _check_byte_identical_reruns(tmp_path)
    report(7, "property suites: match oracle (exhaustive n<=14 + 100 random), "
              f"closest-pair oracle (4 variants x 100) {ok_closest}, "
              f"Z_n enumeration {ok_z}, psi brute force {ok_psi}, "
              f"sigma golden suite {ok_sigma}, byte-identical reruns {ok_bytes}",
           ok_match and ok_closest and ok_z and ok_psi and ok_sigma and ok_bytes)


def test_criterion_8_psi_exact_rate():
    psi = psi_mixing_table(GOLDEN, 30)
    scaled = [psi[k] * 2.0**k for k in range(31)]
    spread = max(scaled) - min(scaled)
    report(8, f"psi(k) 2^k spread over k <= 30 is {spread:.2e} (tol 1e-10)",
           spread <= 1e-10)

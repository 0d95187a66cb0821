import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import admissible_words, cylinder_measure
from orbitrecur import (
    BernoulliMeasure,
    GibbsMeasure,
    MarkovMeasure,
    TransitionSystem,
    full_shift,
    gurevich_pressure,
    psi_mixing_table,
    renyi_entropy_exact,
    stationary_distribution,
    z_decay_check,
    z_partition_sum,
)
from orbitrecur import thermo
from orbitrecur.errors import (
    ConvergenceError,
    CrossCheckError,
    DegenerateMeasureError,
    InvalidSystemError,
    OrbitRecurError,
)
from orbitrecur.symbolic import _perron, validate_system
from orbitrecur.thermo import _pressure_periodic, transfer_matrix
from test_diagnostics import gibbs_three_state
from test_matcher import markov_with_zeros

GOLDEN = MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])
# complete bipartite graph on states {0, 1} and {2, 3}
PERIOD_2 = TransitionSystem([[0, 0, 1, 1], [0, 0, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0]])
# the cycle of classes {0} -> {1, 2} -> {3} -> {0}
PERIOD_3 = TransitionSystem([[0, 1, 1, 0], [0, 0, 0, 1], [0, 0, 0, 1], [1, 0, 0, 0]])


def random_markov(seed: int, d: int) -> MarkovMeasure:
    rng = np.random.Generator(np.random.Philox(key=seed))
    P = rng.random((d, d)) + 0.05
    P /= P.sum(axis=1, keepdims=True)
    return MarkovMeasure(stationary_distribution(P), P)


class TestGurevichPressure:
    def test_zero_potential_full_shift(self):
        res = gurevich_pressure(full_shift(2), np.zeros((2, 2)))
        assert abs(res.value - math.log(2)) < 1e-12

    def test_log_stochastic_gives_zero(self):
        P = np.array([[0.0, 1.0], [0.5, 0.5]])
        with np.errstate(divide="ignore"):
            phi = np.where(P > 0, np.log(np.where(P > 0, P, 1.0)), -np.inf)
        res = gurevich_pressure(TransitionSystem((P > 0).astype(int)), phi)
        assert abs(res.value) < 1e-9

    def test_constant_negative_potential(self):
        phi = np.full((2, 2), 2 * math.log(0.5))
        res = gurevich_pressure(full_shift(2), phi)
        assert abs(res.value - math.log(0.5)) < 1e-12

    def test_methods_agree(self):
        systems = []
        for seed, d in [(1, 2), (2, 3), (3, 4)]:
            m = random_markov(seed, d)
            with np.errstate(divide="ignore"):
                systems.append((m.system, np.log(m.P)))
        # chains of period 2 and 3, their potentials log P and 2 log P
        for seed, ts in [(4, PERIOD_2), (5, PERIOD_3)]:
            rng = np.random.Generator(np.random.Philox(key=seed))
            P = ts.admissible * (rng.random(ts.admissible.shape) + 0.05)
            P /= P.sum(axis=1, keepdims=True)
            with np.errstate(divide="ignore"):
                phi = np.log(P)
            systems += [(ts, phi), (ts, 2.0 * phi)]
        # a potential whose transfer matrix overflows unless it is scaled
        systems += [(ts, np.full((d, d), 300.0))
                    for ts, d in [(full_shift(2), 2), (PERIOD_3, 4)]]
        for ts, phi in systems:
            spectral = gurevich_pressure(ts, phi).value
            period = validate_system(ts).period
            periodic, _ = _pressure_periodic(transfer_matrix(ts, phi), period)
            assert abs(spectral - periodic) < 1e-8

    def test_non_mixing_checked(self):
        # period 2 with positive entropy: the complete bipartite graph on
        # 2 + 2 states has 2^n closed paths of each even length n per state
        res = gurevich_pressure(PERIOD_2, np.zeros((4, 4)))
        assert abs(res.value - math.log(2)) < 1e-12
        with pytest.raises(InvalidSystemError):
            gurevich_pressure(TransitionSystem([[1, 1], [0, 1]]), np.zeros((2, 2)))
        # exp(800) is not a float: a typed error at once, not a power
        # iteration on inf entries that ends in ConvergenceError
        with pytest.raises(InvalidSystemError, match="exp must be finite"):
            gurevich_pressure(full_shift(2), np.full((2, 2), 800.0))

    def test_underflowing_potential_rejected(self):
        # exp(-800) is 0.0: the pressure would be log 2 - 800, but the matrix
        # is all zero (or, with one such entry, another graph)
        with pytest.raises(InvalidSystemError, match="its exp nonzero"):
            gurevich_pressure(full_shift(2), np.full((2, 2), -800.0))
        with pytest.raises(InvalidSystemError, match="its exp nonzero"):
            gurevich_pressure(full_shift(2), np.array([[0.0, -800.0], [0.0, 0.0]]))

    def test_tiny_spectral_gap(self):
        # two full 5-state blocks coupled by exp(phi) = eps: lambda = 5 (1 + eps)
        # and |lambda_2| / lambda = (1 - eps) / (1 + eps) = 0.99991, so the
        # trace ratios settle only at n = 2^19, past the former 2^16 budget
        eps = 4.5e-5
        phi = np.zeros((10, 10))
        phi[:5, 5:] = phi[5:, :5] = math.log(eps)
        res = gurevich_pressure(full_shift(10), phi)
        assert abs(res.value - (math.log(5) + math.log1p(eps))) < 1e-12
        _, n = _pressure_periodic(transfer_matrix(full_shift(10), phi), 1)
        assert n == 1 << 19


class TestNonConvergence:
    def test_perron_step_budget(self):
        with pytest.raises(ConvergenceError) as info:
            _perron(GOLDEN.P, max_iter=1)
        assert isinstance(info.value, OrbitRecurError)
        assert isinstance(info.value, ArithmeticError)

    def test_periodic_pressure_length_budget(self):
        M = transfer_matrix(full_shift(2), np.zeros((2, 2)))
        with pytest.raises(ConvergenceError):
            _pressure_periodic(M, 1, max_n=40)


class TestRenyiEntropy:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_uniform_bernoulli(self, k):
        res = renyi_entropy_exact(BernoulliMeasure([1.0 / k] * k))
        assert abs(res.h2 - math.log(k)) < 1e-12
        assert res.alpha == res.h2 / 2

    def test_biased_bernoulli_closed_form(self):
        res = renyi_entropy_exact(BernoulliMeasure([1 / 3, 2 / 3]))
        assert abs(res.h2 - math.log(9 / 5)) < 1e-12

    def test_uniform_markov_equals_bernoulli(self):
        m = MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        res = renyi_entropy_exact(m)
        assert abs(res.h2 - math.log(2)) < 1e-10

    def test_golden_mean_value(self):
        # -log of the Perron root of the squared-entry chain, from the
        # quadratic x^2 - x/4 - 1/4
        root = (0.25 + math.sqrt(0.0625 + 1.0)) / 2.0
        assert abs(renyi_entropy_exact(GOLDEN).h2 + math.log(root)) < 1e-10

    def test_admissible_pairs_outside_the_support(self):
        # the full shift admits 1 -> 1, which the chain never takes (P = 0)
        P = [[0.5, 0.5], [1.0, 0.0]]
        wide = MarkovMeasure(stationary_distribution(P), P, full_shift(2))
        res = renyi_entropy_exact(wide)
        assert res == renyi_entropy_exact(MarkovMeasure(stationary_distribution(P), P))
        assert abs(res.h2 - 0.44568) < 1e-5

    def test_gibbs_routes_agree(self):
        ts = TransitionSystem([[0, 1], [1, 1]])
        phi = np.where(np.asarray([[0, 1], [1, 1]]) == 1, [[0.0, 0.4], [-0.2, 0.1]], -np.inf)
        g = GibbsMeasure(phi, ts)
        res = renyi_entropy_exact(g)
        induced = renyi_entropy_exact(g.as_markov())
        assert abs(res.h2 - induced.h2) < 1e-9

    def test_bernoulli_closed_form_checked_against_q_route(self, monkeypatch):
        # a Perron root off by 1e-8 on the Q matrix, the first root taken
        calls = []
        real = thermo._perron

        def off_on_first_call(M, *args, **kwargs):
            lam, r, l, iters = real(M, *args, **kwargs)
            calls.append(M)
            return (lam * (1 + 1e-8) if len(calls) == 1 else lam), r, l, iters

        monkeypatch.setattr(thermo, "_perron", off_on_first_call)
        with pytest.raises(CrossCheckError, match="vs closed_form"):
            renyi_entropy_exact(BernoulliMeasure([0.2, 0.3, 0.5]))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            renyi_entropy_exact(BernoulliMeasure([1.0, 0.0]))

    def test_alpha_positive_on_suite(self):
        for m in [BernoulliMeasure([0.5, 0.5]), GOLDEN, random_markov(5, 3)]:
            assert renyi_entropy_exact(m).alpha > 0


class TestPartitionSums:
    def test_uniform_closed_form(self):
        b = BernoulliMeasure([0.5, 0.5])
        for n in (1, 5, 20, 64, 65, 200):
            assert abs(z_partition_sum(b, n, 1.0) - 2.0**-n) < 1e-12 * 2.0**-n + 1e-300

    def test_biased_bernoulli_product(self):
        b = BernoulliMeasure([1 / 3, 2 / 3])
        assert abs(z_partition_sum(b, 3, 1.0) - (5 / 9) ** 3) < 1e-15

    def test_normalization_at_t_zero(self):
        for m in [BernoulliMeasure([0.2, 0.8]), GOLDEN, random_markov(9, 4)]:
            assert abs(z_partition_sum(m, 5, 0.0) - 1.0) < 5e-15

    def test_monotone_in_t(self):
        for m in [GOLDEN, random_markov(13, 3)]:
            vals = [z_partition_sum(m, 6, t) for t in (0.0, 0.5, 1.0, 2.0, 3.0)]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("measure", [GOLDEN, BernoulliMeasure([0.2, 0.8]), random_markov(21, 3)])
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_dp_equals_enumeration(self, measure, t):
        for n in range(1, 9):
            brute = sum(
                cylinder_measure(measure, w) ** (1.0 + t)
                for w in admissible_words(measure.system, n)
            )
            assert abs(z_partition_sum(measure, n, t) - brute) < 1e-12


class TestZDecay:
    def test_uniform_ratio_is_one(self):
        res = z_decay_check(BernoulliMeasure([0.5, 0.5]), 30)
        assert abs(res.ratio_sup - 1.0) < 1e-9 and abs(res.ratio_inf - 1.0) < 1e-9

    def test_product_measure_ratio_is_one(self):
        res = z_decay_check(BernoulliMeasure([1 / 3, 2 / 3]), 30)
        assert abs(res.ratio_sup - 1.0) < 1e-9 and abs(res.ratio_inf - 1.0) < 1e-9

    def test_golden_band_bounded(self):
        res = z_decay_check(GOLDEN, 40)
        assert res.ratio_sup / res.ratio_inf < 10.0


def _mat_mul(A, B):
    d = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _psi_from_power(Pk1, pi):
    worst = Fraction(0)
    d = len(pi)
    for a in range(d):
        for b in range(d):
            if pi[b] == 0:
                continue
            dev = abs(Pk1[a][b] / pi[b] - 1)
            if dev > worst:
                worst = dev
    return worst


def fraction_psi_table(m, k_max):
    """psi(k), k = 0..k_max, in Fraction arithmetic throughout: the powers
    P^(k+1) of the exactly renormalised chain and each |P^(k+1)_ab / pi_b - 1|.
    The integer route in psi_mixing_table reaches the same rationals."""
    P, pi = thermo._exact_chain(m.as_markov())
    power = [row[:] for row in P]
    psi = []
    for k in range(k_max + 1):
        psi.append(float(_psi_from_power(power, pi)))
        if k < k_max:
            power = _mat_mul(power, P)
    return psi


class TestPsiMixing:
    def test_uniform_chain_zero(self):
        m = MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        assert max(psi_mixing_table(m, 10)) == 0.0

    def test_golden_value_at_one(self):
        assert psi_mixing_table(GOLDEN, 1)[1] == 0.5

    def test_golden_exact_rate(self):
        psi = psi_mixing_table(GOLDEN, 30)
        for k in range(31):
            assert psi[k] * 2.0**k == 1.0

    def test_bernoulli_and_gibbs_read_through_their_chain(self):
        b = BernoulliMeasure([0.2, 0.3, 0.5])
        assert psi_mixing_table(b, 6) == psi_mixing_table(b.as_markov(), 6) == [0.0] * 7
        ts = TransitionSystem([[0, 1], [1, 1]])
        g = GibbsMeasure(np.where(ts.admissible == 1, [[0.0, 0.4], [-0.2, 0.1]], -np.inf), ts)
        psi = psi_mixing_table(g, 6)
        assert psi == psi_mixing_table(g.as_markov(), 6)
        assert psi[1] > 0.0

    @pytest.mark.parametrize("measure", [
        GOLDEN,
        MarkovMeasure([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]]),
        random_markov(31, 3),
    ])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_matrix_formula_equals_cylinder_supremum(self, measure, k):
        # brute force: sup over cylinder pairs |E| <= 3, |F| <= 3 of the
        # mixing ratio deviation, gap words enumerated explicitly
        d = measure.alphabet_size
        worst = 0.0
        for le, lf in itertools.product((1, 2, 3), repeat=2):
            for e in admissible_words(measure.system, le):
                mu_e = cylinder_measure(measure, e)
                if mu_e == 0.0:
                    continue
                for f in admissible_words(measure.system, lf):
                    mu_f = cylinder_measure(measure, f)
                    if mu_f == 0.0:
                        continue
                    joint = 0.0
                    for gap in itertools.product(range(d), repeat=k):
                        joint += cylinder_measure(measure, e + gap + f)
                    worst = max(worst, abs(joint / (mu_e * mu_f) - 1.0))
        assert abs(psi_mixing_table(measure, k)[k] - worst) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(m=markov_with_zeros(), k_max=st.integers(0, 30))
    def test_equals_fraction_route_with_zeros(self, m, k_max):
        assert psi_mixing_table(m, k_max) == fraction_psi_table(m, k_max)

    @pytest.mark.parametrize("measure", [
        GOLDEN,
        gibbs_three_state(),
        BernoulliMeasure([0.2, 0.3, 0.5]),
        random_markov(51, 4),
        # state 0 is transient, pi[0] = 0: its column is skipped
        MarkovMeasure([0.0, 1.0], [[0.5, 0.5], [0.0, 1.0]]),
    ])
    def test_equals_fraction_route(self, measure):
        assert psi_mixing_table(measure, 30) == fraction_psi_table(measure, 30)

    def test_entropy_formula_nonnegative(self):
        # 2 P(phi) - P(2 phi) >= 0 across the suite
        for m in [GOLDEN, random_markov(41, 2), random_markov(42, 4)]:
            assert renyi_entropy_exact(m).h2 >= 0.0


class TestGibbsComparability:
    def test_cylinder_masses_track_potential_sums(self):
        # mu(C)/exp(S phi - n P) stays in a length-independent band
        import numpy as np
        from orbitrecur import GibbsMeasure, TransitionSystem

        A = [[0, 1], [1, 1]]
        ts = TransitionSystem(A)
        phi = np.where(np.asarray(A) == 1, [[0.0, 0.4], [-0.2, 0.1]], -np.inf)
        g = GibbsMeasure(phi, ts)
        pressure = gurevich_pressure(ts, phi).value
        ratios_short, ratios_long = [], []
        for length in range(1, 9):
            for w in admissible_words(ts, length):
                mu = cylinder_measure(g, w)
                if mu == 0.0:
                    continue
                s_phi = sum(phi[a][b] for a, b in zip(w, w[1:]))
                # n-1 transfer weights for an n-word under the 2-block table
                ratio = mu / math.exp(s_phi - (length - 1) * pressure)
                (ratios_short if length <= 4 else ratios_long).append(ratio)
        lo, hi = min(ratios_short), max(ratios_short)
        assert hi / lo < 50.0
        assert all(lo * (1 - 1e-9) <= r <= hi * (1 + 1e-9) for r in ratios_long)

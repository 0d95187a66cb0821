import itertools

import pytest

from orbitrecur import (
    BernoulliMeasure,
    MarkovMeasure,
    cylinder_measure,
    psi_mixing_table,
    quasi_bernoulli_constant,
    return_set_measure,
    sigma_bounds_check,
    stationary_distribution,
    z_partition_sum,
)
from orbitrecur.diagnostics import sigma_bounds
from orbitrecur.symbolic import admissible_words

GOLDEN = MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])
UNIFORM = BernoulliMeasure([0.5, 0.5])


class TestQuasiBernoulli:
    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.2, 0.8], [0.1, 0.3, 0.6]])
    def test_product_measures_give_one(self, weights):
        assert quasi_bernoulli_constant(BernoulliMeasure(weights)) == 1.0

    def test_golden_mean_junction(self):
        assert quasi_bernoulli_constant(GOLDEN) == pytest.approx(1.5, abs=1e-14)

    def test_uniform_markov_gives_one(self):
        m = MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        assert quasi_bernoulli_constant(m) == pytest.approx(1.0, abs=1e-14)

    def test_stabilizes_in_max_len(self):
        for m in [GOLDEN, MarkovMeasure(
            stationary_distribution([[0.3, 0.7], [0.6, 0.4]]), [[0.3, 0.7], [0.6, 0.4]]
        )]:
            assert abs(quasi_bernoulli_constant(m, 6) - quasi_bernoulli_constant(m, 8)) < 1e-12

    def test_no_budget_on_word_length(self):
        # B is read from reachability, not by enumerating words, so d^max_len
        # words far past 2^22 cost nothing
        assert quasi_bernoulli_constant(BernoulliMeasure([0.25] * 4), max_len=20) == 1.0
        P = [[0.5 if b in (a, (a + 1) % 13) else 0.0 for b in range(13)] for a in range(13)]
        m = MarkovMeasure(stationary_distribution(P), P)
        assert quasi_bernoulli_constant(m, 6) == quasi_bernoulli_constant(m, 2) == pytest.approx(13 / 2)

    @pytest.mark.parametrize("measure", [
        GOLDEN,
        MarkovMeasure(stationary_distribution([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.25, 0.5, 0.25]]),
                      [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.25, 0.5, 0.25]]),
    ])
    def test_matches_pairwise_enumeration(self, measure):
        # direct oracle over all word pairs up to length 3
        best = 0.0
        for lu, lv in itertools.product((1, 2, 3), repeat=2):
            for u in admissible_words(measure.system, lu):
                mu_u = cylinder_measure(measure, u)
                if mu_u == 0.0:
                    continue
                for v in admissible_words(measure.system, lv):
                    mu_v = cylinder_measure(measure, v)
                    if mu_v == 0.0:
                        continue
                    joint = cylinder_measure(measure, u + v)
                    best = max(best, joint / (mu_u * mu_v))
        assert abs(quasi_bernoulli_constant(measure, 3) - best) < 1e-12
        assert best >= 1.0


class TestSigmaBounds:
    def test_uniform_far_lag_is_tight(self):
        checks = {c.name: c for c in sigma_bounds_check(UNIFORM, 6, 12)}
        far = checks["sigma2[r=6,k=8]"]
        assert far.lhs == pytest.approx(2.0**-6, abs=1e-15)
        assert far.rhs == pytest.approx(2.0**-6, abs=1e-15)
        assert far.passed

    def test_uniform_periodic_lag_is_tight(self):
        checks = {c.name: c for c in sigma_bounds_check(UNIFORM, 6, 12)}
        mid = checks["sigma0[r=6,k=3,l=3,w=2]"]
        assert mid.lhs == pytest.approx(2.0**-6, abs=1e-15)
        assert mid.rhs == pytest.approx(2.0**-6, abs=1e-15)

    def test_uniform_all_pass(self):
        assert all(c.passed for c in sigma_bounds_check(UNIFORM, 6, 12))

    def test_golden_all_pass(self):
        assert all(c.passed for c in sigma_bounds_check(GOLDEN, 6, 12))

    def test_three_state_chain_passes(self):
        P = [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.25, 0.5, 0.25]]
        m = MarkovMeasure(stationary_distribution(P), P)
        assert all(c.passed for c in sigma_bounds_check(m, 5, 10))

    def test_regime_names_cover_lags(self):
        names = [c.name for c in sigma_bounds_check(UNIFORM, 6, 9)]
        assert len(names) == 10 and names[-1].startswith("psi_decay")
        assert sum(n.startswith("sigma0") for n in names) == 3
        assert sum(n.startswith("sigma1") for n in names) == 3
        assert sum(n.startswith("sigma2") for n in names) == 3

    def test_matcher_mixing_bound(self):
        # mu(S_k(r)) <= B^2 Z_r(1) (1 + psi(k-r)) for lags beyond r
        for m in [GOLDEN, UNIFORM]:
            B = quasi_bernoulli_constant(m)
            psi = psi_mixing_table(m.as_markov(), 8)
            for r in (3, 5):
                z = z_partition_sum(m, r, 1.0)
                for k in range(r + 1, r + 8):
                    lhs = return_set_measure(m, r, k).value
                    assert lhs <= B * B * z * (1.0 + psi[k - r]) + 1e-12


def psi_decay(m, k_max):
    """The psi-decay check over k_max lags, as sigma_bounds returns it."""
    return sigma_bounds(m, 2, k_max)[1]


class TestPsiDecay:
    def test_uniform_short_circuit(self):
        m = MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        chk = psi_decay(m, 20)
        assert chk.passed and chk.lhs == 0.0

    def test_golden_exact_geometric(self):
        chk = psi_decay(GOLDEN, 30)
        assert chk.passed
        assert chk.lhs == pytest.approx(chk.rhs, abs=1e-12)

    def test_slow_mixing_chain(self):
        m = MarkovMeasure([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]])
        assert psi_decay(m, 50).passed

    def test_bernoulli_short_circuit(self):
        # a product measure is checked through its Markov form: psi is 0
        chk = psi_decay(UNIFORM, 10)
        assert chk.passed and chk.lhs == 0.0

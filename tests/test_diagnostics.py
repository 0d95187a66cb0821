import itertools

import numpy as np
import pytest

from _oracles import admissible_words, cylinder_measure
from orbitrecur import (
    BernoulliMeasure,
    GibbsMeasure,
    MarkovMeasure,
    TransitionSystem,
    psi_mixing_table,
    quasi_bernoulli_constant,
    return_set_measure,
    sigma_bounds_check,
    stationary_distribution,
    z_partition_sum,
)
from orbitrecur.diagnostics import sigma_bounds
from test_matcher import SYM3

GOLDEN = MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])
UNIFORM = BernoulliMeasure([0.5, 0.5])


def gibbs_three_state():
    A = [[1, 1, 0], [1, 0, 1], [1, 1, 1]]
    phi = np.where(np.asarray(A) == 1, [[0.3, -0.2, 0.0], [0.1, 0.0, 0.5], [-0.4, 0.2, 0.1]], -np.inf)
    return GibbsMeasure(phi, TransitionSystem(A))


class TestQuasiBernoulli:
    @pytest.mark.parametrize("weights", [[0.5, 0.5], [0.2, 0.8], [0.1, 0.3, 0.6], [0.3, 0.0, 0.7]])
    def test_product_measures_give_one(self, weights):
        assert quasi_bernoulli_constant(BernoulliMeasure(weights)) == 1.0

    def test_golden_mean_junction(self):
        assert quasi_bernoulli_constant(GOLDEN) == pytest.approx(1.5, abs=1e-14)

    def test_uniform_markov_gives_one(self):
        m = MarkovMeasure([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]])
        assert quasi_bernoulli_constant(m) == pytest.approx(1.0, abs=1e-14)

    def test_no_budget_on_word_length(self):
        # B is read from the junction pairs, not by enumerating words, so 13
        # symbols cost nothing
        P = [[0.5 if b in (a, (a + 1) % 13) else 0.0 for b in range(13)] for a in range(13)]
        m = MarkovMeasure(stationary_distribution(P), P)
        assert quasi_bernoulli_constant(m) == pytest.approx(13 / 2)

    @pytest.mark.parametrize("measure", [
        GOLDEN,
        MarkovMeasure(stationary_distribution([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.25, 0.5, 0.25]]),
                      [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.25, 0.5, 0.25]]),
        gibbs_three_state(),
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
        assert abs(quasi_bernoulli_constant(measure) - best) < 1e-12
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


# mu(S_k(12)), k = 1..24, and psi(k), k = 0..24, on SYM3 as the exact oracles
# computed them before they were sped up: the diagnostics_sym3 bytes rest on them
SYM3_RETURN_MASS_HEX = [
    "0x1.1d50b1e32388ap-9", "0x1.5660f19cb9d91p-10", "0x1.9af394de7f156p-11",
    "0x1.eed8d00f7d517p-12", "0x1.2df4594547596p-12", "0x1.7ce9680498caap-13",
    "0x1.0243656e1e548p-13", "0x1.745931516089cp-14", "0x1.19d3e473d83c5p-14",
    "0x1.b9ea21372810ep-15", "0x1.62c40d69aa2cbp-15", "0x1.56ad33c9a0d33p-15",
    "0x1.51d7432336af8p-15", "0x1.4fe81613d907ap-15", "0x1.4f22040db3916p-15",
    "0x1.4ed2c9a4d7c86p-15", "0x1.4eb318ae19780p-15", "0x1.4ea66b7e9a24ap-15",
    "0x1.4ea1596b9a69cp-15", "0x1.4e9f5230cdb89p-15", "0x1.4e9e827faf0b4p-15",
    "0x1.4e9e2f6c092c6p-15", "0x1.4e9e0e30fa066p-15", "0x1.4e9e00e6272a7p-15",
]
SYM3_PSI_HEX = [
    "0x1.9999999999999p-1", "0x1.47ae147ae147ap-2", "0x1.0624dd2f1a9fbp-3",
    "0x1.a36e2eb1c432ap-5", "0x1.4f8b588e368eep-6", "0x1.0c6f7a0b5ed8bp-7",
    "0x1.ad7f29abcaf44p-9", "0x1.5798ee2308c36p-10", "0x1.12e0be826d691p-11",
    "0x1.b7cdfd9d7bdb4p-13", "0x1.5fd7fe1796490p-14", "0x1.19799812dea0cp-15",
    "0x1.c25c268497679p-17", "0x1.6849b86a12b94p-18", "0x1.203af9ee7560fp-19",
    "0x1.cd2b297d889b1p-21", "0x1.70ef54646d48dp-22", "0x1.2725dd1d243a4p-23",
    "0x1.d83c94fb6d29fp-25", "0x1.79ca10c924218p-26", "0x1.2e3b40a0e9b46p-27",
    "0x1.e392010175ed6p-29", "0x1.82db34012b244p-30", "0x1.357c299a88e9dp-31",
    "0x1.ef2d0f5da7dc7p-33",
]


class TestSym3Pins:
    def test_return_masses_pinned(self):
        checks = sigma_bounds_check(SYM3, 12, 24)
        assert [c.lhs.hex() for c in checks[:24]] == SYM3_RETURN_MASS_HEX

    def test_psi_table_pinned(self):
        assert [v.hex() for v in psi_mixing_table(SYM3, 24)] == SYM3_PSI_HEX

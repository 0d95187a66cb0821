import bisect

import numpy as np
import pytest

from orbitrecur import symbolic
from orbitrecur import (
    BernoulliMeasure,
    GibbsMeasure,
    MarkovMeasure,
    TransitionSystem,
    cylinder_measure,
    full_shift,
    sample_sequence,
    stationary_distribution,
    validate_system,
)
from orbitrecur.errors import (
    IncompatibleMeasureError,
    InvalidSystemError,
    ReducibleChainError,
)
from orbitrecur.rng import make_rng
from orbitrecur.symbolic import admissible_words, sample_sequences_batch

GOLDEN_A = [[0, 1], [1, 1]]


def golden_markov():
    return MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]])


def gibbs_example():
    ts = TransitionSystem(GOLDEN_A)
    phi = np.where(np.asarray(GOLDEN_A) == 1, [[0.0, -0.3], [0.2, -0.1]], -np.inf)
    return GibbsMeasure(phi, ts)


class TestValidateSystem:
    def test_full_two_shift_mixing(self):
        diag = validate_system([[1, 1], [1, 1]])
        assert diag.mixing and diag.period == 1 and diag.strongly_connected

    def test_two_cycle_period_two(self):
        diag = validate_system([[0, 1], [1, 0]])
        assert diag.strongly_connected and diag.period == 2 and not diag.mixing

    def test_golden_mean_mixing(self):
        diag = validate_system(GOLDEN_A)
        assert diag.mixing and diag.period == 1

    def test_dead_symbols_reported(self):
        diag = validate_system([[1, 0], [1, 0]])
        assert not diag.strongly_connected and diag.period is None

    def test_rejects_non_square(self):
        with pytest.raises(InvalidSystemError):
            TransitionSystem([[1, 1, 0], [1, 1, 1]])

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidSystemError):
            TransitionSystem([[1, 2], [1, 1]])


class TestCylinderMeasure:
    def test_bernoulli_product(self):
        b = BernoulliMeasure([0.5, 0.5])
        assert cylinder_measure(b, [0, 1, 0]) == 0.125

    def test_markov_inadmissible_zero(self):
        assert cylinder_measure(golden_markov(), [0, 0]) == 0.0

    def test_markov_product(self):
        got = cylinder_measure(golden_markov(), [0, 1, 1])
        assert abs(got - 1 / 6) < 1e-15

    def test_empty_word_rejected(self):
        with pytest.raises(ValueError):
            cylinder_measure(BernoulliMeasure([1.0]), [])

    def test_symbol_out_of_range(self):
        with pytest.raises(InvalidSystemError):
            cylinder_measure(golden_markov(), [0, 2])

    @pytest.mark.parametrize("measure", [
        BernoulliMeasure([0.2, 0.3, 0.5]),
        golden_markov(),
        gibbs_example(),
        MarkovMeasure(
            stationary_distribution([[0.1, 0.6, 0.3], [0.5, 0.25, 0.25], [0.3, 0.3, 0.4]]),
            [[0.1, 0.6, 0.3], [0.5, 0.25, 0.25], [0.3, 0.3, 0.4]],
        ),
    ])
    def test_additivity_exhaustive(self, measure):
        # sum over one-symbol extensions reproduces the word mass, words <= length 6
        d = measure.alphabet_size
        for length in range(1, 7):
            for w in admissible_words(measure.system, length):
                parent = cylinder_measure(measure, w)
                kids = sum(
                    cylinder_measure(measure, w + (b,))
                    for b in range(d)
                    if measure.system.admissible[w[-1], b]
                )
                assert abs(kids - parent) <= 1e-12

    @pytest.mark.parametrize("measure", [golden_markov(), gibbs_example()])
    def test_shift_invariance(self, measure):
        d = measure.alphabet_size
        for length in range(1, 6):
            for w in admissible_words(measure.system, length):
                mass = cylinder_measure(measure, w)
                extended = sum(
                    cylinder_measure(measure, (a,) + w)
                    for a in range(d)
                    if measure.system.admissible[a, w[0]]
                )
                assert abs(extended - mass) <= 1e-12

    @pytest.mark.parametrize("measure,rho", [
        (BernoulliMeasure([0.5, 0.5]), 0.5),
        (BernoulliMeasure([1 / 3, 2 / 3]), 2 / 3),
        (BernoulliMeasure([0.2, 0.3, 0.5]), 0.5),
    ])
    def test_exponential_decay_bernoulli(self, measure, rho):
        # max cylinder mass of product measures decays exactly like (max p)^k;
        # masses[w] is the left-to-right product cylinder_measure forms
        p = measure.weights
        masses = p.copy()
        for k in range(1, 13):
            if k > 1:
                masses = masses[..., None] * p
            if k <= 6:
                words = list(admissible_words(measure.system, k))
                assert len(words) == masses.size
                assert all(cylinder_measure(measure, w) == masses[w] for w in words)
            top = np.unravel_index(np.argmax(masses), masses.shape)
            worst = cylinder_measure(measure, top)
            assert worst == masses[top] == masses.max()
            assert worst <= rho**k + 1e-15

    @pytest.mark.parametrize("measure", [golden_markov(), gibbs_example()])
    def test_exponential_decay_markov(self, measure):
        # a base calibrated on short words must dominate all lengths <= 12
        worsts = {}
        for k in range(1, 13):
            worsts[k] = max(cylinder_measure(measure, w) for w in admissible_words(measure.system, k))
        rho = 1.05 * max(worsts[k] ** (1.0 / k) for k in range(1, 5))
        assert rho < 1.0
        for k in range(1, 13):
            assert worsts[k] <= rho**k


class TestStationaryDistribution:
    def test_uniform_two_state(self):
        pi = stationary_distribution([[0.5, 0.5], [0.5, 0.5]])
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_golden_mean(self):
        pi = stationary_distribution([[0.0, 1.0], [0.5, 0.5]])
        assert np.allclose(pi, [1 / 3, 2 / 3], atol=1e-12)

    def test_periodic_chain_converges(self):
        pi = stationary_distribution([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_identity_rejected(self):
        with pytest.raises(ReducibleChainError):
            stationary_distribution(np.eye(2))

    def test_fixed_point_contract(self):
        P = [[0.7, 0.2, 0.1], [0.05, 0.9, 0.05], [0.3, 0.3, 0.4]]
        pi = stationary_distribution(P)
        assert np.max(np.abs(pi @ np.asarray(P) - pi)) < 1e-10
        assert abs(pi.sum() - 1.0) < 1e-12 and np.all(pi > 0)


class TestMeasureValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(InvalidSystemError):
            BernoulliMeasure([0.5, 0.6])

    def test_zero_weight_allowed_but_degenerate(self):
        b = BernoulliMeasure([1.0, 0.0])
        assert b.degenerate

    def test_markov_stationarity_enforced(self):
        with pytest.raises(InvalidSystemError):
            MarkovMeasure([0.5, 0.5], [[0.0, 1.0], [0.5, 0.5]])

    def test_markov_mass_on_forbidden_transition(self):
        ts = TransitionSystem([[1, 1], [1, 0]])
        with pytest.raises(IncompatibleMeasureError):
            MarkovMeasure([1 / 3, 2 / 3], [[0.0, 1.0], [0.5, 0.5]], ts)

    def test_gibbs_potential_support(self):
        ts = TransitionSystem(GOLDEN_A)
        bad = np.zeros((2, 2))  # finite on the inadmissible (0,0) pair
        with pytest.raises(InvalidSystemError):
            GibbsMeasure(bad, ts)

    def test_gibbs_induced_chain_is_stationary(self):
        g = gibbs_example()
        mk = g.as_markov()
        assert np.max(np.abs(mk.pi @ mk.P - mk.pi)) < 1e-10


class TestSampling:
    def test_degenerate_weights_constant_sequence(self):
        seq = sample_sequence(BernoulliMeasure([1.0, 0.0]), None, 50, 0, seed=9)
        assert np.all(seq == 0)

    def test_seed_determinism(self):
        m = golden_markov()
        a = sample_sequence(m, None, 500, 25, seed=1234)
        b = sample_sequence(m, None, 500, 25, seed=1234)
        assert np.array_equal(a, b)
        c = sample_sequence(m, None, 500, 25, seed=1235)
        assert not np.array_equal(a, c)

    def test_one_block_frequencies(self):
        m = golden_markov()
        seq = sample_sequence(m, None, 10**6, 0, seed=7)
        freq = np.bincount(seq, minlength=2) / len(seq)
        assert np.max(np.abs(freq - m.pi)) < 3e-3  # CLT scale 3/sqrt(n)

    def test_sampled_pairs_admissible(self):
        m = golden_markov()
        seq = sample_sequence(m, None, 20000, 0, seed=3)
        pairs = set(zip(seq[:-1].tolist(), seq[1:].tolist()))
        assert (0, 0) not in pairs

    def test_batch_matches_law(self):
        m = golden_markov()
        batch = sample_sequences_batch(m, 4000, 6, seed=11)
        assert batch.shape == (4000, 6)
        assert not np.any((batch[:, :-1] == 0) & (batch[:, 1:] == 0))
        freq0 = np.mean(batch[:, 0] == 0)
        assert abs(freq0 - 1 / 3) < 0.03

    def test_incompatible_system_rejected(self):
        with pytest.raises(IncompatibleMeasureError):
            sample_sequence(golden_markov(), full_shift(3), 10, 0, seed=0)

    def test_buffer_length(self):
        seq = sample_sequence(BernoulliMeasure([0.5, 0.5]), None, 100, 17, seed=0)
        assert len(seq) == 117

    def test_samples_own_frozen_int64(self):
        for measure in (BernoulliMeasure([0.5, 0.5]), golden_markov()):
            sym = sample_sequence(measure, None, 50, 5, seed=4)
            assert sym.dtype == np.int64 and sym.flags.owndata and not sym.flags.writeable


def whole_list_markov_path(m, u):
    """Reference Markov sampler: one bisect loop over the draws `u` held as
    a Python list."""
    mk = m.as_markov()
    cum_pi = np.cumsum(mk.pi)
    cum_pi[-1] = 1.0
    cum_rows = [row.tolist() for row in np.cumsum(mk.P, axis=1)]
    for row in cum_rows:
        row[-1] = 1.0
    u = list(u)
    out = [0] * len(u)
    hi = mk.alphabet_size - 1
    state = min(int(np.searchsorted(cum_pi, u[0], side="right")), hi)
    out[0] = state
    for t in range(1, len(u)):
        state = min(bisect.bisect_right(cum_rows[state], u[t]), hi)
        out[t] = state
    return np.asarray(out, dtype=np.int64)


def whole_list_markov_sample(m, total, seed):
    return whole_list_markov_path(m, make_rng(seed).random(total).tolist())


CHAINS = {
    2: [[0.0, 1.0], [0.5, 0.5]],
    3: [[0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]],
    4: [[0.0, 0.5, 0.25, 0.25], [0.1, 0.2, 0.3, 0.4], [0.25, 0.25, 0.0, 0.5], [0.4, 0.3, 0.2, 0.1]],
}


def markov_chain(d):
    P = np.asarray(CHAINS[d])
    return MarkovMeasure(stationary_distribution(P), P)


# measures whose steps do not depend on the state, so the walker takes its
# i.i.d. shortcut
IID_MEASURES = {
    "bernoulli_zero_weight": BernoulliMeasure([0.2, 0.0, 0.8]),
    "identical_rows": MarkovMeasure([0.3, 0.7], [[0.3, 0.7], [0.3, 0.7]]),
}
SAMPLED = {**{d: markov_chain(d) for d in CHAINS}, **IID_MEASURES}


class TestChunkedMarkovSampling:
    """Both samplers against the bisect oracle, bit for bit."""

    @pytest.mark.parametrize("d", list(SAMPLED))
    def test_small_chunks_match_whole_list(self, monkeypatch, d):
        monkeypatch.setattr(symbolic, "_BLOCK", 7)
        m = SAMPLED[d]
        # totals straddle the block boundaries: the first draw sits before
        # the first block, so blocks cover draws 1-7, 8-14, ...
        for total in (1, 2, 7, 8, 9, 14, 15, 16, 50):
            for seed in (0, 31):
                got = sample_sequence(m, None, total, 0, seed=seed)
                assert np.array_equal(got, whole_list_markov_sample(m, total, seed)), (d, total)

    def test_default_chunks_match_whole_list(self):
        m = golden_markov()
        n, buffer = 512 * symbolic._BLOCK, 3
        got = sample_sequence(m, None, n, buffer, seed=2026)
        assert np.array_equal(got, whole_list_markov_sample(m, n + buffer, 2026))

    @pytest.mark.parametrize("d", list(SAMPLED))
    def test_draw_on_a_cumulative_value_goes_right(self, d):
        # random draws almost never tie; a tie counts the entry it equals,
        # as bisect_right does
        m = SAMPLED[d]
        _, cum_P = symbolic._cumulative(m.as_markov())
        u = [0.5] + sorted(set(cum_P[:, :-1].ravel().tolist())) * 3
        want = whole_list_markov_path(m, u)
        got = symbolic._walk(cum_P, want[0], np.array([u[1:]]))[0]
        assert np.array_equal(got, want[1:])

    @pytest.mark.parametrize("d", list(SAMPLED))
    def test_batch_rows_match_whole_list(self, d):
        m = SAMPLED[d]
        for count, length in ((1, 1), (5, 1), (1, 9), (40, 10), (7, 23)):
            for seed in (0, 31):
                got = sample_sequences_batch(m, count, length, seed)
                u = make_rng(seed).random((count, length))
                assert got.shape == (count, length) and got.dtype == np.int64
                for row, draws in zip(got, u):
                    assert np.array_equal(row, whole_list_markov_path(m, draws.tolist())), (d, count, length)

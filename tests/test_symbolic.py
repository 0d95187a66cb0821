import bisect
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_diagnostics import gibbs_three_state

from _oracles import admissible_words, cylinder_measure, peak_bytes
from orbitrecur import symbolic
from orbitrecur import (
    BernoulliMeasure,
    GibbsMeasure,
    MarkovMeasure,
    TransitionSystem,
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
from orbitrecur.rng import derive_seed, make_rng
from orbitrecur.symbolic import sample_sequences_batch
from orbitrecur.thermo import renyi_entropy_exact

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

    def test_state_that_cannot_return(self):
        # state 0 reaches state 1 but not back: only the backward search sees it
        diag = validate_system([[1, 1], [0, 1]])
        assert not diag.strongly_connected and diag.period is None and not diag.mixing

    def test_three_cycle_period_three(self):
        diag = validate_system([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert diag.strongly_connected and diag.period == 3 and not diag.mixing

    def test_rejects_non_square(self):
        with pytest.raises(InvalidSystemError):
            TransitionSystem([[1, 1, 0], [1, 1, 1]])

    def test_rejects_non_binary(self):
        with pytest.raises(InvalidSystemError):
            TransitionSystem([[1, 2], [1, 1]])

    @pytest.mark.parametrize("a", [np.array([[None, 1], [1, 1]], dtype=object),
                                   [["1", "0"], ["0", "1"]], [[np.nan, 1.0], [1.0, 1.0]]],
                             ids=["object_none", "strings", "nan"])
    def test_rejects_non_numeric(self, a):
        with pytest.raises(InvalidSystemError):
            TransitionSystem(a)


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

    def test_absorbing_state_rejected(self):
        # power iteration settles on [0, 1], which passes the fixed-point check
        with pytest.raises(ReducibleChainError):
            stationary_distribution([[0.5, 0.5], [0.0, 1.0]])

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
        # exp(800) overflows and exp(-800) underflows to 0: rejected before
        # any power iteration, which on -800 ended in ReducibleChainError
        for value in (800.0, -800.0):
            with pytest.raises(InvalidSystemError, match="exp must be finite, and its exp nonzero"):
                GibbsMeasure(np.where(ts.admissible == 1, value, -np.inf), ts)
        with pytest.raises(InvalidSystemError, match="nonzero"):
            GibbsMeasure(np.full((2, 2), -800.0), full_shift(2))

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

    def test_working_set_bounded(self):
        # the draws are taken a chunk at a time into one-byte maps, and the
        # int64 path is allocated after the maps and the scan's levels are
        # freed: the peak is the path beside its one-byte scanned states, 9
        # bytes a symbol. The draws held at once, or the path allocated
        # beside sym3's three rows of maps, would pass the bound of 12
        _, n, buffer, seed = golden_cell()
        for name, m in (("golden", markov_chain(2)), ("sym3", markov_chain(3))):
            _, peak = peak_bytes(lambda: sample_sequence(m, None, n, buffer, seed))
            assert peak < 1.5 * 8 * (n + buffer), name

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


# measures whose steps do not depend on the state, so sample_sequence reads
# the path off one row's maps
IID_MEASURES = {
    "bernoulli_zero_weight": BernoulliMeasure([0.2, 0.0, 0.8]),
    "identical_rows": MarkovMeasure([0.3, 0.7], [[0.3, 0.7], [0.3, 0.7]]),
}
# rows that agree on their first cut point only: the state still matters
EQUAL_FIRST_COLUMN = [[0.2, 0.3, 0.5], [0.2, 0.5, 0.3], [0.2, 0.4, 0.4]]
SAMPLED = {**{d: markov_chain(d) for d in CHAINS}, **IID_MEASURES,
           "equal_first_column": MarkovMeasure(stationary_distribution(EQUAL_FIRST_COLUMN),
                                               EQUAL_FIRST_COLUMN)}


class TestChunkedMarkovSampling:
    """Both samplers against the bisect oracle, bit for bit."""

    @pytest.mark.parametrize("d", list(SAMPLED))
    def test_small_chunks_match_whole_list(self, d):
        m = SAMPLED[d]
        # totals straddle the scan's level boundaries: the first draw is the
        # initial symbol, so total - 1 maps are scanned, and 2^k, 2^k + 1 and
        # 2^k - 1 maps give an odd map waiting at some level or none
        for total in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 50):
            for seed in (0, 31):
                got = sample_sequence(m, None, total, 0, seed=seed)
                assert np.array_equal(got, whole_list_markov_sample(m, total, seed)), (d, total)

    def test_default_chunks_match_whole_list(self):
        m = golden_markov()
        n, buffer = 512 * 256, 3
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
        maps = symbolic._next_states(cum_P, np.array(u[1:]))
        assert np.array_equal(maps, [[bisect.bisect_right(row.tolist(), x) for x in u[1:]]
                                     for row in cum_P])
        assert np.array_equal(symbolic._scan(maps, int(want[0])), want[1:])

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


def sha256_of(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def golden_cell():
    """The n = 10^6, replicate 0 cell of the golden-mean match curve at
    master seed 2026, with its buffer: (measure, n, buffer, seed)."""
    m, n = markov_chain(2), 10**6
    buffer = math.ceil(8.0 * math.log(n) / renyi_entropy_exact(m).h2)
    return m, n, buffer, derive_seed(2026, "match_curve", n, 0)


@st.composite
def random_chains(draw):
    """A stationary chain on 1..5 states with zero entries: integer weights
    0..3 on a row-stochastic P whose cycle s -> s + 1 keeps it irreducible,
    or that cycle alone (period d), or one weight row for every state (an
    i.i.d. chain, dead symbols allowed)."""
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        w = np.array(draw(st.lists(st.integers(0, 3), min_size=d, max_size=d)), dtype=float)
        w[draw(st.integers(0, d - 1))] += 1
        w /= w.sum()
        return MarkovMeasure(w, np.tile(w, (d, 1)))
    W = np.array(draw(st.lists(st.integers(0, 3), min_size=d * d, max_size=d * d)),
                 dtype=float).reshape(d, d)
    W[np.arange(d), (np.arange(d) + 1) % d] += 1
    if draw(st.booleans()):  # only the cycle: period d
        W = np.roll(np.eye(d), 1, axis=1)
    P = W / W.sum(axis=1, keepdims=True)
    return MarkovMeasure(stationary_distribution(P), P)


class TestSamplersProperty:
    """sample_sequence and sample_sequences_batch against the bisect
    oracle on random chains."""

    @settings(max_examples=150, deadline=None)
    @given(m=random_chains(), total=st.integers(1, 600), seed=st.integers(0, 2**32))
    def test_sequence(self, m, total, seed):
        got = sample_sequence(m, None, total, 0, seed=seed)
        assert np.array_equal(got, whole_list_markov_sample(m, total, seed))

    @settings(max_examples=150, deadline=None)
    @given(m=random_chains(), count=st.integers(1, 20), length=st.integers(1, 30),
           seed=st.integers(0, 2**32))
    def test_batch(self, m, count, length, seed):
        got = sample_sequences_batch(m, count, length, seed)
        u = make_rng(seed).random((count, length))
        assert np.array_equal(got, [whole_list_markov_path(m, row.tolist()) for row in u])


class TestChunkedDraws:
    """sample_sequence with symbolic.CHUNK patched to 1-8 against the
    bisect oracle: the draws are taken, and the scan's gathers run, a few
    columns at a time, so every chunk boundary is crossed on both sides of
    an odd map waiting at a level of the scan."""

    @settings(max_examples=150, deadline=None)
    @given(m=random_chains(), total=st.integers(1, 80), chunk=st.integers(1, 8),
           seed=st.integers(0, 2**32))
    def test_sequence(self, m, total, chunk, seed):
        with mock.patch.object(symbolic, "CHUNK", chunk):
            got = sample_sequence(m, None, total, 0, seed=seed)
        assert np.array_equal(got, whole_list_markov_sample(m, total, seed))

    @pytest.mark.parametrize("d", list(SAMPLED))
    def test_one_and_two_symbols(self, d):
        # one symbol has no map to draw; two have a single map and no scan level
        m = SAMPLED[d]
        for chunk in range(1, 9):
            for total in (1, 2):
                with mock.patch.object(symbolic, "CHUNK", chunk):
                    got = sample_sequence(m, None, total, 0, seed=7)
                assert np.array_equal(got, whole_list_markov_sample(m, total, 7)), (chunk, total)


class TestSamplePins:
    """sha256 of sampled int64 bytes, recorded before the sampler was
    rewritten: every sampled symbol stays as it was."""

    def test_golden_match_cell(self):
        m, n, buffer, seed = golden_cell()
        assert (buffer, seed) == (248, 14168319715008095865)
        got = sample_sequence(m, None, n, buffer, seed)
        assert sha256_of(got) == "5defa0b657b52a8f7770ed069ae367699049ad7fb97a923b346d29ae8d94e5ec"

    @pytest.mark.parametrize("name,measure,digest", [
        ("sym3", markov_chain(3), "fa7fce12b767c331a8c91876944183c4ed79cf81d062bc8f227f3ed6b1febb26"),
        ("zero_entries", markov_chain(4), "e44d66233bb7e830751aa8028ea79b23b918034a72af752e9ab8fb73ebf978a5"),
        ("gibbs2block", gibbs_three_state(), "fcba591d38c88ea227682d77209b755f4ffeb71b00cc0fef6bdd8df93943386d"),
        ("bernoulli_dead", BernoulliMeasure([0.2, 0.0, 0.8]),
         "6c1692ffa5e51053961f9e6e85656e1c8557fbc2d45f6dfefb8e4cf5db0c72a6"),
    ])
    def test_sequence(self, name, measure, digest):
        assert sha256_of(sample_sequence(measure, None, 10**5, 0, seed=2026)) == digest, name

    @pytest.mark.parametrize("d,count,length,digest", [
        (3, 100000, 22, "aca159f5ca235db58594835cdcff1a678b0cf54dd7ae98dcf8771b5831c3cbcd"),
        (2, 4000, 6, "4f2ba50df4be37a0a3065b38e9987c3023cda02d94b92dc0878cbe8b35d797b8"),
    ])
    def test_batch(self, d, count, length, digest):
        assert sha256_of(sample_sequences_batch(markov_chain(d), count, length, 2026)) == digest

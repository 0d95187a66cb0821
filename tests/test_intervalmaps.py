import hashlib
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
    IntervalMap,
    KDoubling,
    MPInduced,
    PiecewiseAffine,
    doubling_orbit_exact,
    gauss_inverse_cdf,
    iterate,
    mp_first_return,
)
from orbitrecur import intervalmaps
from orbitrecur.errors import InvalidSystemError, ResampleSignal, UnresolvedReturn
from orbitrecur.intervalmaps import affine_orbit, min_window_digits
from orbitrecur.rng import make_rng


def affine_branch(spec: PiecewiseAffine, x: float) -> int:
    """1-based branch j with a_{j+1} <= x < a_j, by searchsorted on the
    ascending breakpoints."""
    bp = spec.breakpoints
    return len(bp) - int(np.searchsorted(bp[::-1], x, side="right"))


def affine_step(spec: PiecewiseAffine, x: float) -> float:
    """One forward step of an affine map: the oracle that affine_orbit's
    inverse-branch reconstruction is checked against."""
    j = affine_branch(spec, x)
    hi, lo = spec.breakpoints[j - 1], spec.breakpoints[j]
    return (x - lo) / (hi - lo)


def branch_digit(spec, x: float) -> int:
    """The branch of the map's natural partition that x lies in: the affine
    branch, the induced return time, the integer part of k x, or the integer
    part that one step of the Gauss map drops."""
    if isinstance(spec, PiecewiseAffine):
        return affine_branch(spec, x)
    if isinstance(spec, MPInduced):
        return mp_first_return(spec.a, x).tau
    if isinstance(spec, KDoubling):
        return math.floor(spec.k * x)
    return round(1.0 / x - spec.step(x)[0])


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
        assert Fraction(abs(orb.windows[0] - orb.windows[1]), 2**6) == Fraction(21, 64)
        assert orb.points[0] == 21 / 64 and orb.points[1] == 42 / 64

    def test_constant_zero_bits(self):
        orb = doubling_orbit_exact(2, 5, 8, digits=[0] * 32, enforce_floor=False)
        assert all(w == 0 for w in orb.windows)
        assert Fraction(abs(orb.windows[0] - orb.windows[4]), 2**8) == 0

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
        W = min_window_digits(3, 50)
        orb = doubling_orbit_exact(3, 50, W, seed=6)
        for i in range(49):
            assert orb.windows[i + 1] // 3 == orb.windows[i] % 3 ** (W - 1)

    def test_coding_matches_digits(self):
        W = min_window_digits(2, 200)
        orb = doubling_orbit_exact(2, 200, W, seed=8)
        for i in range(200):
            lead = orb.windows[i] >> (W - 1)
            assert branch_digit(KDoubling(2), orb.points[i]) == lead


class TestInPlaceDoubling:
    """Each level of the window doubling overwrites the last in place, in
    ascending chunks of CHUNK entries; the windows stay those of Python ints
    wherever n and n + W fall against a chunk boundary, for one limb or
    several."""

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from([2, 3, 10]), st.sampled_from([1, 2, 3, 5, 8]), st.integers(1, 40),
           st.one_of(st.integers(1, 12), st.integers(40, 130)), st.integers(0, 2**32))
    def test_small_chunks_against_python_ints(self, k, chunk, n, W, seed):
        digits = make_rng(seed).integers(0, k, size=n + W).tolist()
        with mock.patch.object(intervalmaps, "CHUNK", chunk):
            orb = doubling_orbit_exact(k, n, W, digits=digits, enforce_floor=False)
        assert orb.windows == python_int_orbit(k, W, digits, n)[0]

    # one limb and several: k = 2 packs 32 digits a uint32 limb, k = 4
    # packs 16, k = 3 packs 20, k = 2^32 one; k = 10 packs 18 an int64 limb,
    # k = 100 packs 9. The full limbs are views of the base, which is the
    # last level when L is a power of two; a narrower last limb is the low
    # digits of the base W - L entries on, also where its width is a power
    # of two below L: (2, 48) is 32 + 16 digits, (2, 112) 3 x 32 + 16,
    # (4, 24) 16 + 8, (3, 44) 2 x 20 + 4, (100, 22) 2 x 9 + 4
    @pytest.mark.parametrize("k, W", [(2, 20), (2, 40), (2, 96), (3, 15), (3, 30), (3, 90),
                                      (10, 8), (10, 12), (10, 45), (2, 48), (2, 112), (4, 24),
                                      (2**32, 3), (3, 44), (100, 22)])
    def test_at_the_chunk_boundary(self, k, W):
        C = intervalmaps.CHUNK
        digits = make_rng(k + W).integers(0, k, size=C + 1 + W).tolist()
        windows = python_int_orbit(k, W, digits, C + 1)[0]
        # n + W, then n, one below, at and one above C
        for n in (C - W - 1, C - W, C - W + 1, C - 1, C, C + 1):
            orb = doubling_orbit_exact(k, n, W, digits=digits[: n + W], enforce_floor=False)
            assert orb.windows == windows[:n]

    def test_working_set_bounded(self):
        # three full uint32 limbs, all views of the last level of n + W
        # window values, and a few chunks of scratch; a limb copied out of
        # the level, or an int64 draw, fails it
        n = 8 * intervalmaps.CHUNK
        W = 96
        doubling_orbit_exact(2, 100, W, seed=1, enforce_floor=False)  # first-use imports untraced
        orb, peak = peak_bytes(lambda: doubling_orbit_exact(2, n, W, seed=1))
        assert len(orb.keys) == 3
        assert peak < 4 * (n + W) + 4 * 4 * intervalmaps.CHUNK

    # k = 2 at W = 88: the last level, which is the base, and a narrower
    # 24-digit limb read off it; k = 2^17 at W = 21: an int64 level and the
    # base of the seven 3-digit limbs, a copy as L = 3; k = 3 at W = 62: the
    # level beside the base of three 20-digit limbs, then, with the levels
    # dropped, the base beside a narrower 2-digit limb
    @pytest.mark.parametrize("k, W", [(2, 88), (2**17, 21), (3, 62)])
    def test_working_set_of_two_arrays(self, k, W):
        n = 8 * intervalmaps.CHUNK
        doubling_orbit_exact(k, 100, W, seed=1, enforce_floor=False)  # first-use imports untraced
        orb, peak = peak_bytes(lambda: doubling_orbit_exact(k, n, W, seed=1))
        size = orb.keys[0].itemsize
        assert peak < 2 * size * (n + W) + 4 * size * intervalmaps.CHUNK


class TestSharedLimbs:
    """An exact orbit's full limbs are views of one read-only array, and
    sharing it keeps every key's bytes: the sha256 of the joined keys and
    their dtypes of KDoubling(k).orbit(10**6, 5), recorded before the limbs
    were shared."""

    PINS = {
        2: ("780f658cae11393cd062ba8f8e3ebce6e65758519f22100038c66d099edb3a29", np.uint32),
        3: ("0a30b42d0b8d326170fd148082943208fb68b5ed03206581797594e2e65f1b5b", np.uint32),
        7: ("6dc84e45b18738c35731215704460242191bebab79f7022f30190972e411e319", np.int64),
        100: ("dd158e501268656e29b417352040c2d3bd019d30576d6ecd3555217319c010ca", np.int64),
        2**17: ("e8aa1415675f4af3d2fa73016c83f33bf87628bf5c1bf314d5dde1c1054c336d", np.int64),
    }

    @pytest.mark.parametrize("k", sorted(PINS))
    def test_key_bytes_and_sharing(self, k):
        orb = KDoubling(k).orbit(10**6, 5)
        digest, dtype = self.PINS[k]
        h = hashlib.sha256()
        for key in orb.keys:
            assert key.dtype == dtype
            h.update(key)
        assert h.hexdigest() == digest
        f = orb.radices.count(orb.radices[0])
        for c, key in enumerate(orb.keys):
            assert np.shares_memory(key, orb.keys[0]) == (c < f)
            assert not key.flags.writeable
            assert key.base is None or not key.base.flags.writeable
        with pytest.raises(ValueError):  # a view of a frozen base stays frozen
            orb.keys[0].setflags(write=True)


class TestLimbLayout:
    """uint32 limbs only where they pack more digits per byte than int64
    ones: a window then takes no more bytes, and its leading limb holds at
    least 31.5 bits of it (or all of it), so few points share one."""

    KS = sorted({*range(2, 3000), *(2**b + d for b in range(2, 63) for d in (-1, 0, 1)),
                 3037000499, 3037000500})  # 2^31.5 lies between the last two

    def test_never_wider_and_leading_limb_wide(self):
        for k in self.KS:
            L64 = 1
            while k ** (L64 + 1) < 2**63:
                L64 += 1
            for W in (1, 7, 20, 33, 96, 200):
                dtype, widths = intervalmaps._limb_layout(k, W)
                assert sum(widths) == W
                if dtype is np.int64:
                    assert widths[0] == min(L64, W), k
                else:
                    assert dtype is np.uint32 and k ** widths[0] <= 2**32, k
                    assert 4 * len(widths) <= 8 * math.ceil(W / L64), (k, W)
                    assert widths[0] == W or k ** (2 * widths[0]) >= 2**63, (k, W)


class TestNarrowDraw:
    """Exact orbits with uint32 limbs draw their digits straight into
    uint32; every recorded kdoubling orbit depends on that draw giving the
    default int64 one."""

    @pytest.mark.parametrize("k", [2, 3, 7, 10, 256, 1000, 2**31 - 1, 2**32])
    @pytest.mark.parametrize("seed", [0, 5, 2**32 + 1])
    def test_uint32_draw_is_the_int64_draw(self, k, seed):
        for size in (1, 2, 10_001):
            narrow = make_rng(seed).integers(0, k, size, dtype=np.uint32)
            assert narrow.tolist() == make_rng(seed).integers(0, k, size).tolist()

    @pytest.mark.parametrize("k, dtype", [(2, np.uint32), (7, np.int64), (2**32, np.uint32),
                                          (2**40, np.int64)])
    def test_digit_list_narrowed(self, k, dtype):
        digits = make_rng(3).integers(0, k, size=50).tolist()
        drawn = doubling_orbit_exact(k, 40, 10, seed=3, enforce_floor=False)
        given_ = doubling_orbit_exact(k, 40, 10, digits=digits, enforce_floor=False)
        for a, b in zip(drawn.keys, given_.keys):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()


class TestIterate:
    def test_gauss_fixed_point(self):
        phi = (math.sqrt(5.0) - 1.0) / 2.0  # 1/x - 1 = x
        orb = iterate(GaussMap(), phi, 12)
        assert max(abs(p - phi) for p in orb.points) < 1e-11

    def test_noise_floor_recorded(self):
        orb = iterate(GaussMap(), 0.7071067811865476, 100)
        assert orb.radices == () and 0.0 < orb.noise_floor <= 2.0**-44

    def test_gauss_zero_terminates(self):
        with pytest.raises(ResampleSignal):
            iterate(GaussMap(), 0.5, 3)  # 1/0.5 lands exactly on 0

    def test_map_without_step_raises(self):
        # exact and reconstructed orbits are never iterated in floating point
        with pytest.raises(InvalidSystemError, match="KDoubling"):
            iterate(KDoubling(2), 0.3, 2)


class TestSampleInitial:
    def test_gauss_cdf_endpoints(self):
        assert gauss_inverse_cdf(0.0) == 0.0
        assert gauss_inverse_cdf(1.0) == 1.0

    def test_gauss_cdf_midpoint(self):
        assert gauss_inverse_cdf(0.5) == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-15)

    def test_gauss_samples_match_density(self):
        xs = GaussMap().sample(make_rng(19), 10**5)
        D = ks_statistic(xs, lambda x: np.log2(1.0 + x))
        assert D < 0.01

    def test_uniform_for_other_maps(self):
        xs = KDoubling(2).sample(make_rng(20), 10**5)
        assert ks_statistic(xs, lambda x: x) < KS_1PCT / math.sqrt(10**5)

    def test_gauss_sample_is_per_draw_inverse_cdf(self):
        # one draw of 10^5 points, bit for bit the 10^5 scalar draws
        rng = make_rng(21)
        per_draw = [gauss_inverse_cdf(float(rng.random())) for _ in range(10**5)]
        assert GaussMap().sample(make_rng(21), 10**5).tolist() == per_draw

    def test_mp_induced_samples_left_half(self):
        rng = make_rng(22)
        per_draw = [float(rng.random()) * 0.5 for _ in range(1000)]
        assert MPInduced().sample(make_rng(22), 1000).tolist() == per_draw


class TestInvariance:
    def test_affine_lebesgue_invariance(self):
        aff = PiecewiseAffine.dyadic(40)
        rng = make_rng(23)
        xs = rng.random(10**5)
        pushed = np.array([affine_step(aff, float(x)) for x in xs])
        assert ks_statistic(pushed, lambda x: x) < KS_1PCT / math.sqrt(10**5)

    def test_gauss_invariance(self):
        xs = GaussMap().sample(make_rng(29), 10**5)
        pushed = np.array([GaussMap().step(x)[0] for x in xs.tolist()])
        D = ks_statistic(pushed, lambda x: np.log2(1.0 + x))
        assert D < KS_1PCT / math.sqrt(10**5)

    @pytest.mark.parametrize("spec", [GaussMap(), MPInduced(0.5)], ids=["gauss", "mp_induced"])
    def test_same_branch_expansion(self, spec):
        rng = make_rng(31)
        checked = 0
        while checked < 200:
            x = float(spec.sample(rng, 1)[0])
            h = 1e-9
            y = x + h
            try:
                if branch_digit(spec, x) != branch_digit(spec, y):
                    continue
                fx, _ = spec.step(x)
                fy, _ = spec.step(y)
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
        aff = PiecewiseAffine.dyadic(40)
        assert affine_branch(aff, 0.3) == 2
        assert affine_step(aff, 0.3) == pytest.approx(0.2, abs=1e-15)

    def test_mp_induced_return_time(self):
        assert mp_first_return(0.5, 0.4).tau == 3

    def test_endpoint_signals(self):
        with pytest.raises(ResampleSignal):
            GaussMap().step(0.0)
        with pytest.raises(ResampleSignal):
            GaussMap().step(1.5)


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
            y = affine_step(aff, float(orb.points[t]))
            worst = max(worst, abs(y - orb.points[t + 1]))
        assert worst < 4.0 * 2.0**-52

    def test_determinism(self):
        a = affine_orbit(PiecewiseAffine.dyadic(40), 500, seed=13)
        b = affine_orbit(PiecewiseAffine.dyadic(40), 500, seed=13)
        assert np.array_equal(a.points, b.points)


class HalfBlocked(IntervalMap):
    """A test map whose step signals an endpoint on [0, 1/2)."""

    def step(self, x):
        if x < 0.5:
            raise ResampleSignal("blocked half")
        return x, 1.0


class TestOrbit:
    """`orbit(n, seed, burn_in)`, the n-point orbit of one experiment cell."""

    def test_kdoubling_exact_windows(self):
        w = min_window_digits(2, 500)
        assert KDoubling(2).orbit(500, 7).windows == doubling_orbit_exact(2, 500, w, seed=7).windows

    def test_affine_reconstruction(self):
        aff = PiecewiseAffine.dyadic(40)
        assert np.array_equal(aff.orbit(500, 13).points, affine_orbit(aff, 500, seed=13).points)

    def test_floating_orbit_iterates_a_drawn_point(self):
        spec = GaussMap()
        x0 = spec.sample(make_rng(5), 1)[0]
        orb = spec.orbit(300, 5)
        assert np.array_equal(orb.points, iterate(spec, x0, 300).points)
        assert not orb.resampled

    def test_mp_induced_burn_in_default(self):
        spec = MPInduced()
        x0 = spec.sample(make_rng(5), 1)[0]
        assert np.array_equal(spec.orbit(200, 5).points,
                              iterate(spec, x0, 200, burn_in=1000).points)
        assert np.array_equal(spec.orbit(200, 5, burn_in=0).points, iterate(spec, x0, 200).points)

    def test_resampled_until_a_point_iterates(self):
        draws = make_rng(1).random(32)
        first = int(np.argmax(draws >= 0.5))
        assert first > 0  # seed 1 needs a redraw
        orb = HalfBlocked().orbit(4, 1)
        assert orb.resampled and orb.points.tolist() == [draws[first]] * 4

    def test_resampling_gives_up(self):
        class Blocked(IntervalMap):
            def step(self, x):
                raise ResampleSignal("blocked")

        with pytest.raises(ResampleSignal, match="32"):
            Blocked().orbit(3, 0)

    @pytest.mark.parametrize("spec,burn_in", [(KDoubling(2), 0), (PiecewiseAffine.dyadic(10), 5),
                                              (GaussMap(), -1)],
                             ids=["kdoubling", "affine", "negative"])
    def test_burn_in_rejected(self, spec, burn_in):
        with pytest.raises(InvalidSystemError, match="burn_in"):
            spec.orbit(10, 0, burn_in)


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

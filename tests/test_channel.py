"""Channel conventions, soft observations, and capacity markers.

High-precision reference values were produced with mpmath at 40 decimal
digits and are frozen here to their float64 neighborhood.
"""

import math
import sys

import numpy as np
import pytest

from softgrand.channel import (EBN0_LIMIT_DB, ChannelParams, SoftObservation,
                               binary_entropy, bsc_crossover, capacity_markers,
                               flip_probability, q_function, transmit,
                               _MAXLOG, _brentq, _erfc, _ranks, transmit_arrays)
from softgrand.codes import make_rlc

RATE_116_128 = 116 / 128
SHANNON_116_128 = 4.4888888307456213
MINCAP_116_128 = 1.1152782510695022
CROSSOVER_AT_SHANNON = 0.01199561419106782
CROSSOVER_AT_MINCAP = 0.062916182944850049
CROSSOVER_AT_SHANNON_MINUS_3 = 0.055018755875863017


class TestChannelParams:
    def test_sigma2_at_0db_rate_half(self):
        assert ChannelParams(ebn0_db=0.0, rate=0.5).sigma2 == pytest.approx(1.0)

    def test_sigma2_scales_with_rate_and_snr(self):
        p = ChannelParams(ebn0_db=3.0, rate=RATE_116_128)
        assert p.sigma2 == pytest.approx(1.0 / (2 * RATE_116_128 * 10 ** 0.3))

    def test_rate_guard(self):
        with pytest.raises(ValueError):
            ChannelParams(ebn0_db=0.0, rate=1.0)

    @pytest.mark.parametrize("ebn0_db", [math.nan, math.inf, -math.inf])
    def test_non_finite_ebn0_rejected(self, ebn0_db):
        with pytest.raises(ValueError, match="finite"):
            ChannelParams(ebn0_db=ebn0_db, rate=0.5)

    @pytest.mark.parametrize("ebn0_db", [300.5, -300.5, 3080.0, -3080.0, 4000.0])
    def test_out_of_range_ebn0_rejected(self, ebn0_db):
        with pytest.raises(ValueError, match="within"):
            ChannelParams(ebn0_db=ebn0_db, rate=0.5)

    @pytest.mark.parametrize("ebn0_db", [EBN0_LIMIT_DB, -EBN0_LIMIT_DB])
    @pytest.mark.parametrize("rate", [1e-6, 0.5, 1 - 1e-6])
    def test_llrs_finite_at_the_limit(self, ebn0_db, rate):
        p = ChannelParams(ebn0_db=ebn0_db, rate=rate)
        for v in (p.sigma2, 2.0 / p.sigma2):
            assert math.isfinite(v) and v >= sys.float_info.min
        words = np.random.default_rng(0).integers(0, 2, (4, 64), dtype=np.uint8)
        noise = 40.0 * np.sign(np.random.default_rng(1).standard_normal((4, 64)))
        _, reliab = transmit_arrays(words, noise, p)
        assert np.isfinite(reliab).all()


class TestTransmit:
    def test_reproducible_bit_exact(self):
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        cw = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
        a = transmit(cw, params, 42)
        b = transmit(cw, params, 42)
        assert np.array_equal(a.hard, b.hard)
        assert np.array_equal(a.reliab, b.reliab)

    def test_noiseless_limit_recovers_word(self):
        params = ChannelParams(ebn0_db=40.0, rate=0.5)
        rng = np.random.default_rng(0)
        cw = rng.integers(0, 2, 64, dtype=np.uint8)
        obs = transmit(cw, params, rng)
        assert np.array_equal(obs.hard, cw)

    def test_batch_rows_match_transmit(self):
        params = ChannelParams(ebn0_db=1.0, rate=0.5)
        words = np.random.default_rng(5).integers(0, 2, (6, 24), dtype=np.uint8)
        noise = np.stack([np.random.default_rng(s).standard_normal(24) for s in range(6)])
        rows = zip(*transmit_arrays(words, noise, params))
        for s, (word, (hard, reliab)) in enumerate(zip(words, rows)):
            want = transmit(word, params, s)
            assert np.array_equal(hard, want.hard)
            assert np.array_equal(reliab, want.reliab)
            assert np.array_equal(_ranks(reliab), want.ranks)

    @pytest.mark.parametrize("word", [[2, 0, 1, 3], [0.7, 0, 1, 1]])
    def test_transmit_rejects_non_bits(self, word):
        # Cast to uint8 unchecked, a 2 became symbol -3 with reliability
        # 11.6 at 3 dB, and 0.7 was read as 0.
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        with pytest.raises(ValueError, match="code word bits must be 0 or 1"):
            transmit(word, params, 0)

    def test_transmit_arrays_rejects_non_bits(self):
        # A 5 gave the hard decision 1.
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        with pytest.raises(ValueError, match="code word bits must be 0 or 1"):
            transmit_arrays([[5, 1]], np.zeros((1, 2)), params)

    @pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2,)])
    def test_transmit_arrays_rejects_mismatched_noise(self, shape):
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        with pytest.raises(ValueError, match="noise shape"):
            transmit_arrays(np.zeros((1, 2), dtype=np.uint8), np.zeros(shape), params)

    def test_bit_dtypes_draw_the_same_observation(self):
        params = ChannelParams(ebn0_db=3.0, rate=0.5)
        cw = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
        want = transmit(cw, params, 7)
        for word in (cw.astype(bool), cw.astype(float), cw.tolist()):
            got = transmit(word, params, 7)
            assert np.array_equal(got.hard, want.hard)
            assert np.array_equal(got.reliab, want.reliab)

    def test_llr_statistics(self):
        # lambda | bit=0 is Gaussian with mean 2/sigma^2 and variance 4/sigma^2
        params = ChannelParams(ebn0_db=2.0, rate=0.5)
        rng = np.random.default_rng(1)
        obs = transmit(np.zeros(200_000, dtype=np.uint8), params, rng)
        lam = np.where(obs.hard == 1, -obs.reliab, obs.reliab)
        mean, var = lam.mean(), lam.var()
        assert mean == pytest.approx(2 / params.sigma2, rel=0.02)
        assert var == pytest.approx(4 / params.sigma2, rel=0.02)


class TestSoftObservation:
    def test_from_channel_llrs_signs_and_ranks(self):
        obs = SoftObservation.from_channel_llrs([3.0, -0.5, 0.25, -7.0])
        assert obs.hard.tolist() == [0, 1, 0, 1]
        assert obs.reliab.tolist() == [3.0, 0.5, 0.25, 7.0]
        assert obs.ranks.tolist() == [2, 1, 0, 3]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_llrs_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SoftObservation.from_channel_llrs([1.0, bad, -2.0])

    def test_all_nan_block_rejected(self):
        # Such a block once decoded at q=1 with a NaN confidence.
        code = make_rlc(16, 8, 1)
        with pytest.raises(ValueError, match="finite"):
            SoftObservation.from_channel_llrs(np.full(code.n, np.nan))

    def test_rank_ties_break_by_index(self):
        obs = SoftObservation.from_channel_llrs([1.0, -1.0, 1.0])
        assert obs.ranks.tolist() == [0, 1, 2]

    def test_ranks_of_a_block_where_some_rows_tie(self):
        rng = np.random.default_rng(3)
        reliab = rng.exponential(2.0, size=(6, 64))
        reliab[1, [5, 40]] = reliab[1, 20]  # one three-way tie
        reliab[3] = np.round(reliab[3])  # many ties
        reliab[4] = 1.5  # every bit tied
        reliab[5, [0, 63]] = 0.0  # tied at the least reliable end
        want = [sorted(range(64), key=lambda b: (row[b], b)) for row in reliab]
        assert _ranks(reliab).tolist() == want
        assert [_ranks(row).tolist() for row in reliab] == want

    def test_from_flip_probs_roundtrip(self):
        hard = np.array([0, 1, 0], dtype=np.uint8)
        obs = SoftObservation.from_flip_probs(hard, [0.25, 0.1, 0.5])
        assert np.allclose(flip_probability(obs.reliab), [0.25, 0.1, 0.5])

    def test_from_flip_probs_domain(self):
        hard = np.zeros(2, dtype=np.uint8)
        with pytest.raises(ValueError):
            SoftObservation.from_flip_probs(hard, [0.0, 0.1])
        with pytest.raises(ValueError):
            SoftObservation.from_flip_probs(hard, [0.6, 0.1])
        with pytest.raises(ValueError, match="flip probabilities"):
            SoftObservation.from_flip_probs(hard, [math.nan, 0.1])
        # built directly, an observation checks its reliabilities
        for bad in (math.nan, -1.0, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                SoftObservation(hard=hard, reliab=[bad, 1.0])

    def test_one_block_only(self):
        with pytest.raises(ValueError, match=r"one block of n bits, got shape \(2, 16\)"):
            SoftObservation(np.zeros((2, 16), np.uint8), np.ones((2, 16)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SoftObservation(hard=np.zeros(3, dtype=np.uint8), reliab=np.zeros(2))

    @pytest.mark.parametrize("bad", [2, 255, 256, -1, 0.5, math.nan])
    def test_hard_decisions_are_bits(self, bad):
        with pytest.raises(ValueError, match="0 or 1"):
            SoftObservation(hard=np.full(16, bad), reliab=np.ones(16))

    def test_flip_prob_derived_from_reliab(self):
        obs = SoftObservation.from_channel_llrs([3.0, -0.5, 0.0])
        assert np.array_equal(obs.flip_prob, flip_probability(obs.reliab))
        obs.reliab = np.array([math.log(3), 5.0, 40.0])
        assert obs.flip_prob[0] == pytest.approx(0.25, rel=1e-14)


class TestFlipProbability:
    def test_analytic_points(self):
        assert flip_probability(0.0) == pytest.approx(0.5)
        assert flip_probability(math.log(3)) == pytest.approx(0.25, rel=1e-14)
        assert flip_probability(5.0) == pytest.approx(0.0066928509242848556, rel=1e-14)
        assert flip_probability(40.0) == pytest.approx(4.248354255291589e-18, rel=1e-12)

    def test_no_underflow_to_zero(self):
        assert flip_probability(10_000.0) > 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            flip_probability(-1e-9)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        for arg in (bad, np.array([0.5, bad, 2.0])):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                flip_probability(arg)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 60, 500)
        vals = flip_probability(grid)
        assert np.all(np.diff(vals) < 0)


class TestScalarHelpers:
    def test_q_function(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(1.0) == pytest.approx(0.15865525393145705, rel=1e-14)
        assert q_function(2.5) == pytest.approx(0.0062096653257761352, rel=1e-13)
        assert q_function(-1.0) == pytest.approx(1 - 0.15865525393145705, rel=1e-14)

    def test_binary_entropy(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, rel=1e-13)

    def test_bsc_crossover_frozen_points(self):
        p = ChannelParams(ebn0_db=SHANNON_116_128, rate=RATE_116_128)
        assert bsc_crossover(p) == pytest.approx(CROSSOVER_AT_SHANNON, rel=1e-10)
        p = ChannelParams(ebn0_db=MINCAP_116_128, rate=RATE_116_128)
        assert bsc_crossover(p) == pytest.approx(CROSSOVER_AT_MINCAP, rel=1e-10)
        p = ChannelParams(ebn0_db=0.0, rate=52 / 64)
        assert bsc_crossover(p) == pytest.approx(0.10119800798647944, rel=1e-12)


class TestCapacityMarkers:
    def test_frozen_markers_116_128(self):
        m = capacity_markers(RATE_116_128)
        assert m["shannon_ebn0_db"] == pytest.approx(SHANNON_116_128, abs=1e-6)
        assert m["mincap_ebn0_db"] == pytest.approx(MINCAP_116_128, abs=1e-6)

    def test_frozen_markers_other_rates(self):
        m = capacity_markers(52 / 64)
        assert m["shannon_ebn0_db"] == pytest.approx(3.4722196676968011, abs=1e-6)
        assert m["mincap_ebn0_db"] == pytest.approx(-0.77702026188709039, abs=1e-6)
        m = capacity_markers(0.5)
        assert m["shannon_ebn0_db"] == pytest.approx(1.7725008078617232, abs=1e-6)
        assert m["mincap_ebn0_db"] == pytest.approx(-5.2728328223617749, abs=1e-6)

    def test_markers_are_roots(self):
        for rate in (0.3, 0.5, RATE_116_128, 0.95):
            m = capacity_markers(rate)
            p_sh = bsc_crossover(ChannelParams(m["shannon_ebn0_db"], rate))
            assert 1 - binary_entropy(p_sh) == pytest.approx(rate, abs=1e-9)
            p_mc = bsc_crossover(ChannelParams(m["mincap_ebn0_db"], rate))
            assert 1 + math.log2(1 - p_mc) == pytest.approx(rate, abs=1e-9)

    def test_mincap_marker_below_shannon_marker(self):
        # min-entropy <= Shannon entropy, so the min-capacity threshold is
        # met on a noisier channel: its marker sits at lower Eb/N0.
        for rate in (0.3, 0.5, 0.75, RATE_116_128, 0.95):
            m = capacity_markers(rate)
            assert m["mincap_ebn0_db"] < m["shannon_ebn0_db"]

    def test_rate_guard(self):
        with pytest.raises(ValueError):
            capacity_markers(0.0)


def _bits(x):
    """The float64 bit patterns of ``x``, so that NaN and -0.0 compare exactly."""
    return np.asarray(x, dtype=float).view(np.uint64)


# erfc(x) underflows to 0 once x^2 exceeds MAXLOG.
ERFC_UNDERFLOW = math.sqrt(_MAXLOG)
ERFC_EDGES = [0.0, -0.0, 1.0, -1.0, 8.0, -8.0, math.inf, -math.inf, math.nan,
              math.nextafter(1.0, 0.0), math.nextafter(8.0, 0.0), 26.6,
              math.nextafter(ERFC_UNDERFLOW, 0.0), ERFC_UNDERFLOW,
              math.nextafter(ERFC_UNDERFLOW, math.inf)]
FLIP_EDGES = [0.0, 1.0, 8.0, 709.0, math.nextafter(_MAXLOG, 0.0), _MAXLOG,
              math.nextafter(_MAXLOG, math.inf), 745.2, 1e300]
# Every k/n with 84 <= n <= 128: 4 725 rates.
RATES = [k / n for n in range(84, 129) for k in range(1, n)]


class TestScipyPorts:
    """The pure-Python ports of scipy's erfc, expit and brentq give its bits."""

    @pytest.fixture(scope="class")
    def scipy(self):
        return pytest.importorskip("scipy")

    def test_erfc_equals_scipy(self, scipy):
        from scipy import special
        xs = np.concatenate([np.linspace(-3.0, 40.0, 220_001),
                             np.linspace(26.5, 26.7, 2_001), ERFC_EDGES])
        assert np.array_equal(_bits([_erfc(x) for x in xs.tolist()]),
                              _bits(special.erfc(xs)))

    def test_q_function_equals_scipy(self, scipy):
        from scipy import special
        xs = np.concatenate([np.linspace(-5.0, 60.0, 200_001), ERFC_EDGES])
        assert np.array_equal(_bits(q_function(xs)),
                              _bits(0.5 * special.erfc(xs / np.sqrt(2.0))))

    def test_flip_probability_equals_scipy(self, scipy):
        from scipy import special
        ls = np.concatenate([np.linspace(0.0, 800.0, 100_001), FLIP_EDGES])
        expected = np.fmax(special.expit(-ls), np.finfo(float).smallest_subnormal)
        assert np.array_equal(_bits(flip_probability(ls)), _bits(expected))
        for l, want in zip(FLIP_EDGES, expected[-len(FLIP_EDGES):]):
            assert _bits(flip_probability(l)) == _bits(want)
        # exp(MAXLOG) is still finite, so expit(-MAXLOG) is a subnormal, not 0.
        assert 0.0 < special.expit(-_MAXLOG) == flip_probability(_MAXLOG) < 1e-308

    def test_capacity_markers_equal_scipy(self, scipy):
        from scipy import optimize, special

        def markers(rate):
            # bsc_crossover and capacity_markers as they were written on scipy.
            def crossover(ebn0_db):
                x = np.sqrt(2.0 * rate * 10.0 ** (ebn0_db / 10.0))
                return float(0.5 * special.erfc(x / np.sqrt(2.0)))

            def shannon_gap(ebn0_db):
                return 1.0 - binary_entropy(crossover(ebn0_db)) - rate

            def mincap_gap(ebn0_db):
                return 1.0 + np.log2(1.0 - crossover(ebn0_db)) - rate

            return {"shannon_ebn0_db": optimize.brentq(shannon_gap, -40.0, 60.0, xtol=1e-9),
                    "mincap_ebn0_db": optimize.brentq(mincap_gap, -40.0, 60.0, xtol=1e-9)}

        assert len(RATES) == 4725
        assert [capacity_markers(r) for r in RATES] == [markers(r) for r in RATES]


class TestPortAccuracy:
    def test_erfc_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        for x in np.linspace(-3.0, 26.5, 3_001).tolist():
            exact = mpmath.erfc(x)
            assert abs((_erfc(x) - exact) / exact) <= 1e-13, x

    def test_brentq_errors(self):
        with pytest.raises(ValueError, match="different signs"):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-9)
        with pytest.raises(RuntimeError, match="converge"):
            _brentq(lambda x: math.exp(x) - 2.0, 0.0, 5.0, xtol=1e-12, maxiter=3)
        assert _brentq(lambda x: math.exp(x) - 2.0, 0.0, 5.0, xtol=1e-12) == pytest.approx(math.log(2))


class TestShapesAndTypes:
    @pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
    def test_q_function(self, shape):
        x = np.linspace(-2.0, 9.0, math.prod(shape)).reshape(shape)
        out = q_function(x)
        if shape:
            assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == shape
        else:
            assert type(out) is np.float64
        assert type(q_function(1.5)) is np.float64

    @pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
    def test_flip_probability(self, shape):
        l = np.linspace(0.0, 900.0, math.prod(shape)).reshape(shape)
        out = flip_probability(l)
        if shape:
            assert isinstance(out, np.ndarray) and out.dtype == float and out.shape == shape
        else:
            assert type(out) is float
        assert type(flip_probability(1.5)) is float

"""Confidence accounting: running sums, wrong-hit model, LLR reports."""

import math
import warnings

import numpy as np
import pytest

from softgrand.channel import SoftObservation
from softgrand.patterns import QueryOrder, pattern_log_probability, query_patterns
from softgrand import softout
from softgrand.softout import (ConfidenceLedger, confidence_llr, llr_bits,
                               log_p_incorrect_cum, p_incorrect_cum, record_query)


class TestRecordQuery:
    def test_first_query_sets_sum(self):
        ledger = ConfidenceLedger(redundancy=4)
        record_query(ledger, -2.5)
        assert ledger.q == 1
        assert ledger.cum_correct_log == pytest.approx(-2.5)

    def test_normalizes_over_full_enumeration(self):
        # n=2, both flip probabilities 0.1: four patterns sum to one
        obs = SoftObservation.from_flip_probs(np.zeros(2, dtype=np.uint8), 0.1)
        ledger = ConfidenceLedger(redundancy=1)
        for pos in ((), (0,), (1,), (0, 1)):
            record_query(ledger, pattern_log_probability(obs, pos))
        assert math.exp(ledger.cum_correct_log) == pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(8)
        flips = rng.uniform(0.005, 0.5, size=8)
        obs = SoftObservation.from_flip_probs(np.zeros(8, dtype=np.uint8), flips)
        order = QueryOrder("logistic", 8)
        ledger = ConfidenceLedger(redundancy=3)
        direct = 0.0
        for i, pat in enumerate(query_patterns(order)):
            pos = list(pat.positions)
            direct += float(np.prod([flips[j] if j in pos else 1 - flips[j]
                                     for j in range(8)]))
            record_query(ledger, pattern_log_probability(obs, pos))
            assert math.exp(ledger.cum_correct_log) == pytest.approx(direct, abs=1e-10)
            if i >= 100:
                break

    def test_q_increments_by_one(self):
        ledger = ConfidenceLedger(redundancy=2)
        for expect in (1, 2, 3):
            record_query(ledger, -1.0)
            assert ledger.q == expect

    def test_rejects_positive_log_probability(self):
        ledger = ConfidenceLedger(redundancy=2)
        with pytest.raises(ValueError):
            record_query(ledger, 1e-9)
        with pytest.raises(ValueError):
            record_query(ledger, math.nan)

    def test_accepts_zero_mass(self):
        ledger = ConfidenceLedger(redundancy=2)
        record_query(ledger, -math.inf)
        assert ledger.cum_correct_log == -math.inf
        assert ledger.q == 1

    def test_nondecreasing_and_bounded(self):
        # disjoint-event masses from a genuine enumeration keep the running
        # sum monotone and within [0, 1] at every step
        rng = np.random.default_rng(3)
        flips = rng.uniform(0.01, 0.49, size=8)
        obs = SoftObservation.from_flip_probs(np.zeros(8, dtype=np.uint8), flips)
        ledger = ConfidenceLedger(redundancy=6)
        prev = -math.inf
        for pat in query_patterns(QueryOrder("logistic", 8)):
            record_query(ledger, pattern_log_probability(obs, pat.positions))
            assert ledger.cum_correct_log >= prev
            assert math.exp(ledger.cum_correct_log) <= 1 + 1e-9
            prev = ledger.cum_correct_log
            if ledger.q >= 50:
                break


class TestIncorrectModel:
    def test_no_queries(self):
        assert p_incorrect_cum(12, 0) == 0.0
        assert log_p_incorrect_cum(12, 0) == -math.inf

    def test_single_fair_query(self):
        assert p_incorrect_cum(1, 1) == pytest.approx(0.5)

    def test_frozen_high_precision_point(self):
        # 1 - (1 - 2^-12)^4096, mpmath 40-digit reference
        assert p_incorrect_cum(12, 4096) == pytest.approx(0.6321654705556539,
                                                          rel=1e-13)

    def test_tiny_probability_relative_accuracy(self):
        assert p_incorrect_cum(40, 1) == pytest.approx(9.0949470177292824e-13,
                                                       rel=1e-12)
        assert p_incorrect_cum(40, 1000) == pytest.approx(9.0949470135975152e-10,
                                                          rel=1e-12)

    def test_log_form_consistent(self):
        for r in (1, 5, 12, 30):
            for q in (1, 2, 100, 4096, 10 ** 7):
                lin = p_incorrect_cum(r, q)
                assert math.exp(log_p_incorrect_cum(r, q)) == pytest.approx(
                    lin, rel=1e-12)

    def test_monotone_and_limits(self):
        vals = [p_incorrect_cum(12, q) for q in range(0, 20000, 37)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        assert all(0 < v < 1 for v in vals[1:])
        assert p_incorrect_cum(12, 10 ** 9) == pytest.approx(1.0, abs=1e-12)

    def test_guards(self):
        with pytest.raises(ValueError):
            p_incorrect_cum(0, 5)
        with pytest.raises(ValueError):
            p_incorrect_cum(12, -1)

    def test_exact_codebook_variant(self):
        # An [n, k] code book hits a wrong word with probability
        # 2^k / (2^n - 1) per query; the model's 2^-(n-k) is a hair lower.
        def exact(n, k, q):
            return -math.expm1(q * math.log1p(-(2.0 ** k) / (2.0 ** n - 1.0)))

        assert exact(8, 4, 16) == pytest.approx(0.64541241301267597, rel=1e-13)
        assert 0.0 < exact(8, 4, 16) - p_incorrect_cum(4, 16) < 16 * 2.0 ** -8
        # differs from the simple form by O(2^-n): invisible at n=128
        assert p_incorrect_cum(12, 4096) == pytest.approx(
            exact(128, 116, 4096), rel=1e-13)

    def test_array_form_matches_scalar_form(self):
        # The linear form is the geometric CDF at p = 2^-r.
        for r in (2, 12, 40, 63):
            qs = np.array([0, 1, 2, 7, 100, 4096, 10 ** 6])
            for fn in (log_p_incorrect_cum, p_incorrect_cum):
                got = fn(r, qs)
                assert isinstance(got, np.ndarray) and got.shape == qs.shape
                assert got.tolist() == [fn(r, int(q)) for q in qs]
                with pytest.raises(ValueError):
                    fn(12, np.array([3, -1]))
            assert p_incorrect_cum(r, qs).tolist() == softout.geometric_cdf(2.0 ** -r,
                                                                            qs).tolist()


class TestPrefixTable:
    """The wrong-hit term is evaluated where it is read, from no stored
    prefix table: whatever depth was evaluated before leaves no state that
    changes a later report or lets a bad query count through."""

    @pytest.mark.parametrize("evaluated", [0, 40, 300])
    def test_llr_bits_array_matches_scalar_calls(self, evaluated):
        # q past the earlier evaluations in the 0 and 40 cases, within them at 300
        r = 23
        if evaluated:
            llr_bits(r, np.arange(1, evaluated + 1), -1.0)
        qs = np.array([[1, 2, 17], [64, 200, 41]])
        cums = np.array([[-0.25, -3.0, -1e-9], [-40.5, -0.0, -7.125]])
        got = llr_bits(r, qs, cums)
        assert got.shape == qs.shape
        want = [llr_bits(r, int(q), float(c)) for q, c in zip(qs.flat, cums.flat)]
        assert got.ravel().tobytes() == np.array(want).tobytes()
        assert not hasattr(softout, "_LOG_U")

    @pytest.mark.parametrize("evaluated", [0, 100])
    def test_llr_bits_rejects_query_counts_below_one(self, evaluated):
        # A table grown to 100 would have let q = 0 and q = -3 index it
        # from its end; with no table, earlier evaluations change nothing.
        r = 29
        if evaluated:
            llr_bits(r, np.arange(1, evaluated + 1), -1.0)
        for q in (0, -3, np.array([0, 1]), np.array([[2, 5], [1, -1]])):
            with pytest.raises(ValueError, match="query count must be >= 1"):
                llr_bits(r, q, -1.0)


class TestLlrBits:
    def test_rejects_redundancy_below_one(self):
        for r in (0, -2):
            with pytest.raises(ValueError, match="redundancy must be >= 1"):
                llr_bits(r, np.array([1, 2]), -1.0)
            with pytest.raises(ValueError, match="redundancy must be >= 1"):
                log_p_incorrect_cum(r, 1)

    def test_largest_redundancy_raises_no_warning(self):
        # At r = 63, (1 - 2^-r)^q rounds to 1 for small q, where the far
        # branch's log1p(-e^t) would see -1.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert log_p_incorrect_cum(63, 1) == pytest.approx(-63 * math.log(2.0))
            got = llr_bits(63, np.array([1, 2]), np.array([-0.5, -0.25]))
        assert np.isfinite(got).all()


class TestConfidenceLlr:
    def test_equal_hypotheses_zero(self):
        ledger = ConfidenceLedger(redundancy=12)
        record_query(ledger, math.log(p_incorrect_cum(12, 1)))
        assert confidence_llr(ledger).llr_bits == pytest.approx(0.0, abs=1e-12)

    def test_four_to_one_is_two_bits(self):
        ledger = ConfidenceLedger(redundancy=12)
        record_query(ledger, math.log(4 * p_incorrect_cum(12, 1)))
        assert confidence_llr(ledger).llr_bits == pytest.approx(2.0, abs=1e-12)

    def test_report_fields_consistent(self):
        ledger = ConfidenceLedger(redundancy=5)
        record_query(ledger, -3.0)
        record_query(ledger, -4.0)
        rep = confidence_llr(ledger)
        assert rep.q == 2
        assert rep.llr_bits == pytest.approx(
            math.log2(math.exp(-3.0) + math.exp(-4.0)) - math.log2(p_incorrect_cum(5, 2)),
            abs=1e-9)

    def test_first_query_high_snr_is_large_positive(self):
        # clean [128,116]-style block: all flip probabilities tiny
        obs = SoftObservation.from_flip_probs(np.zeros(128, dtype=np.uint8), 1e-4)
        ledger = ConfidenceLedger(redundancy=12)
        record_query(ledger, pattern_log_probability(obs, []))
        rep = confidence_llr(ledger)
        direct = (math.log2(0.9999 ** 128) -
                  math.log2(p_incorrect_cum(12, 1)))
        assert rep.llr_bits == pytest.approx(direct, rel=1e-9)
        assert rep.llr_bits > 11.9

    def test_requires_a_query(self):
        with pytest.raises(ValueError):
            confidence_llr(ConfidenceLedger(redundancy=3))

    def test_zero_mass_queries_apply_monotone_pressure(self):
        ledger = ConfidenceLedger(redundancy=8)
        record_query(ledger, -5.0)
        before = confidence_llr(ledger).llr_bits
        record_query(ledger, -math.inf)
        after = confidence_llr(ledger).llr_bits
        assert after < before

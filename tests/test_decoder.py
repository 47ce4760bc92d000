"""Decoding loop: chunked engine vs naive reference, thresholds, caps."""

import math

import numpy as np
import pytest
from conftest import (outcome_tag, random_observation, random_small_code,
                      reference_decode)
from hypothesis import given, settings
from hypothesis import strategies as st

from softgrand import decoder, patterns, softout
from softgrand.channel import (ChannelParams, SoftObservation, bsc_crossover,
                               transmit_arrays)
from softgrand.codes import encode, is_codeword, make_rlc
from softgrand.decoder import (ABANDON_CAP, ABANDON_LLR, AT_CAP, BELOW_TAU, HIT,
                               DecodePolicy, decode, decode_batch, decode_ladder,
                               resolve_max_queries)
from softgrand.softout import p_incorrect_cum


def _obs_for_word(word, flips):
    return SoftObservation.from_flip_probs(np.asarray(word, dtype=np.uint8),
                                           flips)


class TestCleanDecode:
    def test_clean_block_decodes_on_first_query(self):
        code = make_rlc(128, 116, seed=1)
        cw = encode(code, np.ones(116, dtype=np.uint8))
        obs = _obs_for_word(cw, 1e-4)
        out = decode(code, obs, DecodePolicy(tau=None))
        assert out.decoded and out.q == 1
        assert np.array_equal(out.word, cw)
        want_llr = (128 * math.log1p(-1e-4)
                    - math.log(p_incorrect_cum(12, 1))) / math.log(2)
        assert out.report.llr_bits == pytest.approx(want_llr, rel=1e-12)
        assert out.report.q == 1

    def test_single_flip_is_found(self):
        code = make_rlc(32, 20, seed=5)
        cw = encode(code, np.zeros(20, dtype=np.uint8))
        noisy = cw.copy()
        noisy[7] ^= 1
        flips = np.full(32, 0.01)
        flips[7] = 0.4  # flipped bit is the least reliable one
        out = decode(code, _obs_for_word(noisy, flips), DecodePolicy())
        assert out.decoded and out.q == 2
        assert np.array_equal(out.word, cw)

    def test_large_redundancy_clean_block(self):
        # r = 40: the default cap is 8 * 2^40 queries, far more than memory
        # could tabulate; a clean block must still stop at the first query.
        code = make_rlc(128, 88, seed=1)
        cw, obs = random_observation(code, 8.0, np.random.default_rng(0))
        assert np.array_equal(obs.hard, cw)
        out = decode(code, obs, DecodePolicy(tau=None))
        assert out.decoded and out.q == 1
        assert np.array_equal(out.word, cw)
        assert len(softout._LOG_U[40]) <= 16


class TestAbandonment:
    def test_threshold_beats_membership_at_same_query(self):
        # the hard decision itself is a code word, but an unreachable
        # threshold abandons before the first membership test
        code = make_rlc(16, 8, seed=2)
        cw = encode(code, np.arange(8, dtype=np.uint8) % 2)
        out = decode(code, _obs_for_word(cw, 0.01), DecodePolicy(tau=1000.0))
        assert not out.decoded
        assert out.reason == ABANDON_LLR
        assert out.q == 1
        assert out.report.llr_bits < 1000.0

    def test_strictness_at_the_boundary(self):
        code = make_rlc(16, 8, seed=2)
        cw = encode(code, np.zeros(8, dtype=np.uint8))
        obs = _obs_for_word(cw, 0.01)
        llr1 = decode(code, obs, DecodePolicy(tau=None)).report.llr_bits
        # tau equal to the realized value does not abandon (strict <) ...
        assert decode(code, obs, DecodePolicy(tau=llr1)).decoded
        # ... but the next representable threshold does
        above = math.nextafter(llr1, math.inf)
        out = decode(code, obs, DecodePolicy(tau=above))
        assert not out.decoded and out.reason == ABANDON_LLR and out.q == 1

    def test_query_cap_reached(self):
        code = make_rlc(12, 4, seed=2)
        rng = np.random.default_rng(17)
        found = 0
        for _ in range(50):
            word = rng.integers(0, 2, size=12, dtype=np.uint8)
            obs = _obs_for_word(word, rng.uniform(0.05, 0.45, size=12))
            policy = DecodePolicy(tau=None, max_queries=2)
            tag, q, _, _ = reference_decode(code, obs, policy)
            out = decode(code, obs, policy)
            assert outcome_tag(out) == tag and out.q == q
            if tag == "abandon_cap":
                assert out.reason == ABANDON_CAP and out.q == 2
                found += 1
        assert found >= 5

    def test_unreachable_threshold_never_fires(self):
        code = make_rlc(12, 6, seed=9)
        rng = np.random.default_rng(4)
        word = rng.integers(0, 2, size=12, dtype=np.uint8)
        obs = _obs_for_word(word, rng.uniform(0.05, 0.45, size=12))
        out = decode(code, obs, DecodePolicy(tau=-1e9))
        assert out.decoded


class TestReferenceEquivalence:
    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_exhaustive_small_code(self, kind):
        code = make_rlc(8, 4, seed=3)
        rng = np.random.default_rng(11)
        flips = rng.uniform(0.02, 0.48, size=8)
        for tau in (None, 0.0, 2.0):
            policy = DecodePolicy(tau=tau, order_kind=kind)
            for w in range(256):
                word = np.array([(w >> i) & 1 for i in range(8)],
                                dtype=np.uint8)
                obs = _obs_for_word(word, flips)
                tag, q, ref_word, ref_llr = reference_decode(code, obs, policy)
                out = decode(code, obs, policy)
                assert outcome_tag(out) == tag
                assert out.q == q
                if tag == "decoded":
                    assert np.array_equal(out.word, ref_word)
                    assert is_codeword(code, out.word)
                if out.report is not None:
                    assert out.report.llr_bits == pytest.approx(
                        ref_llr, rel=1e-12, abs=1e-12)
                if tau is None:
                    assert tag == "decoded"  # complete search always lands

    def test_randomized_configurations(self):
        rng = np.random.default_rng(2024)
        taus = [None, 0.0, 1.0, 2.0, 60.0]
        for _ in range(60):
            code = random_small_code(rng)
            _, obs = random_observation(code, float(rng.uniform(-3, 8)), rng)
            kind = ("logistic", "hamming")[int(rng.integers(2))]
            mq = None if rng.random() < 0.5 else int(rng.integers(1, 300))
            policy = DecodePolicy(tau=taus[int(rng.integers(len(taus)))],
                                  max_queries=mq, order_kind=kind)
            if rng.random() < 0.3:
                crossover = bsc_crossover(ChannelParams(ebn0_db=3.0,
                                                        rate=code.rate))
                acct = SoftObservation.from_flip_probs(obs.hard, crossover)
            else:
                acct = None
            tag, q, ref_word, ref_llr = reference_decode(code, obs, policy,
                                                         accounting=acct)
            out = decode(code, obs, policy, accounting=acct)
            assert outcome_tag(out) == tag and out.q == q
            if tag == "decoded":
                assert np.array_equal(out.word, ref_word)
            if out.report is not None and not math.isnan(ref_llr):
                assert out.report.llr_bits == pytest.approx(
                    ref_llr, rel=1e-12, abs=1e-12)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_property_against_reference(self, data):
        n = data.draw(st.integers(6, 12), label="n")
        rmin = max(2, math.ceil(math.log2(n + 1)))
        k = data.draw(st.integers(2, max(2, n - rmin)), label="k")
        code = make_rlc(n, k, seed=data.draw(st.integers(1, 10_000), label="code_seed"))
        ebn0 = data.draw(st.floats(-3.0, 8.0), label="ebn0")
        _, obs = random_observation(
            code, ebn0, np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed")))
        tau = data.draw(st.none() | st.floats(-20.0, 60.0), label="tau")
        # caps above 2^n let the order table run dry inside a chunk
        caps = st.none() | st.integers(1, 300) | st.sampled_from([1 << 12, 1 << 13])
        max_queries = data.draw(caps, label="max_queries")
        kind = data.draw(st.sampled_from(["logistic", "hamming"]), label="kind")
        acct = None
        if data.draw(st.booleans(), label="bsc"):
            crossover = bsc_crossover(ChannelParams(ebn0_db=ebn0, rate=code.rate))
            acct = SoftObservation.from_flip_probs(obs.hard, crossover)
        policy = DecodePolicy(tau=tau, max_queries=max_queries, order_kind=kind)
        # Start from empty tables so each example grows them from scratch.
        patterns._TABLE_CACHE.clear()
        softout._LOG_U.clear()
        out = decode(code, obs, policy, accounting=acct)
        tag, q, ref_word, ref_llr = reference_decode(code, obs, policy, accounting=acct)
        assert outcome_tag(out) == tag and out.q == q
        if tag == "decoded":
            assert np.array_equal(out.word, ref_word)
        assert out.report.llr_bits == pytest.approx(ref_llr, rel=1e-12, abs=1e-12)

    def test_hard_detection_accounting_changes_confidence_not_path(self):
        code = make_rlc(16, 8, seed=2)
        rng = np.random.default_rng(21)
        _, obs = random_observation(code, 2.0, rng)
        acct = SoftObservation.from_flip_probs(obs.hard, 0.08)
        soft = decode(code, obs, DecodePolicy(tau=None))
        hard = decode(code, obs, DecodePolicy(tau=None), accounting=acct)
        assert hard.q == soft.q and np.array_equal(hard.word, soft.word)
        assert hard.report.llr_bits != soft.report.llr_bits


class TestThresholdLadder:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_ladder_equals_separate_decodes(self, data):
        n = data.draw(st.integers(6, 12), label="n")
        rmin = max(2, math.ceil(math.log2(n + 1)))
        k = data.draw(st.integers(2, max(2, n - rmin)), label="k")
        code = make_rlc(n, k, seed=data.draw(st.integers(1, 10_000), label="code_seed"))
        ebn0 = data.draw(st.floats(-3.0, 8.0), label="ebn0")
        _, obs = random_observation(
            code, ebn0, np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed")))
        taus = data.draw(st.lists(st.none() | st.floats(-20.0, 60.0), min_size=1,
                                  max_size=5), label="taus")
        taus += data.draw(st.lists(st.sampled_from(taus), max_size=2), label="duplicates")
        max_queries = data.draw(st.none() | st.integers(1, 300), label="max_queries")
        kind = data.draw(st.sampled_from(["logistic", "hamming"]), label="kind")
        acct = None
        if data.draw(st.booleans(), label="bsc"):
            crossover = bsc_crossover(ChannelParams(ebn0_db=ebn0, rate=code.rate))
            acct = SoftObservation.from_flip_probs(obs.hard, crossover)
        ladder = decode_ladder(code, obs, taus, kind, max_queries, accounting=acct)
        assert len(ladder) == len(taus)
        for tau, got in zip(taus, ladder):
            policy = DecodePolicy(tau=tau, max_queries=max_queries, order_kind=kind)
            want = decode(code, obs, policy, accounting=acct)
            assert (outcome_tag(got), got.q) == (outcome_tag(want), want.q)
            assert np.array_equal(got.word, want.word)
            assert got.report.llr_bits == want.report.llr_bits
        # the first threshold also against the scalar reference
        policy = DecodePolicy(tau=taus[0], max_queries=max_queries, order_kind=kind)
        tag, q, ref_word, ref_llr = reference_decode(code, obs, policy, accounting=acct)
        assert (outcome_tag(ladder[0]), ladder[0].q) == (tag, q)
        assert np.array_equal(ladder[0].word, ref_word)
        assert ladder[0].report.llr_bits == pytest.approx(ref_llr, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_deep_ladder_matches_reference(self, kind):
        code = make_rlc(128, 116, seed=1)
        _, obs = random_observation(code, 1.0, np.random.default_rng(31))
        taus = [None, -5.0, -3.0, 3.0]  # hits and abandonments past query 64
        ladder = decode_ladder(code, obs, taus, kind, 4000)
        assert ladder[0].q > 64
        for tau, got in zip(taus, ladder):
            policy = DecodePolicy(tau=tau, max_queries=4000, order_kind=kind)
            tag, q, ref_word, ref_llr = reference_decode(code, obs, policy)
            assert (outcome_tag(got), got.q) == (tag, q)
            assert np.array_equal(got.word, ref_word)
            assert got.report.llr_bits == pytest.approx(ref_llr, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("taus", [[math.nan], [0.0, math.inf]])
    def test_ladder_rejects_non_finite_tau(self, taus):
        code = make_rlc(16, 8, seed=2)
        obs = _obs_for_word(np.zeros(16, dtype=np.uint8), 0.05)
        with pytest.raises(ValueError, match="finite"):
            decode_ladder(code, obs, taus)

    def test_monotone_behaviour_under_shared_noise(self):
        code = make_rlc(16, 8, seed=7)
        ladder = [0.0, 1.0, 2.0, 4.0]
        rng = np.random.default_rng(5)
        for _ in range(300):
            _, obs = random_observation(code, 1.0, rng)
            base = decode(code, obs, DecodePolicy(tau=None))
            results = [decode(code, obs, DecodePolicy(tau=t)) for t in ladder]
            for lo, hi in zip(results, results[1:]):
                # raising the threshold can only abandon sooner
                if not lo.decoded and lo.reason == ABANDON_LLR:
                    assert not hi.decoded and hi.reason == ABANDON_LLR
                    assert hi.q <= lo.q
            for res in results:
                if res.decoded:
                    assert res.q == base.q
                    assert np.array_equal(res.word, base.word)


def _block(code, ebn0, rows, rng):
    """Code words and the (hard, reliab, ranks) arrays of ``rows`` transmissions."""
    msgs = rng.integers(0, 2, size=(rows, code.k), dtype=np.uint8)
    cws = encode(code, msgs)
    params = ChannelParams(ebn0_db=ebn0, rate=code.rate)
    return cws, transmit_arrays(cws, rng.standard_normal(cws.shape), params)


_STATUS_TAGS = {HIT: "decoded", BELOW_TAU: "abandon_llr", AT_CAP: "abandon_cap"}


def _assert_batch_equals_ladders(code, arrays, taus, kind, max_queries, acct):
    got = decode_batch(code, *arrays, taus, kind, max_queries, acct)
    shape = (len(taus), len(arrays[0]))
    assert got.status.shape == got.q.shape == got.llr_bits.shape == shape
    for i, row in enumerate(zip(*arrays)):
        obs = SoftObservation(*row)
        ladder = decode_ladder(code, obs, taus, kind, max_queries, accounting=acct)
        for j, want in enumerate(ladder):
            tag = _STATUS_TAGS[got.status[j, i]]
            assert (tag, got.q[j, i]) == (outcome_tag(want), want.q)
            assert got.decoded[j, i] == want.decoded
            if want.decoded:
                assert np.array_equal(got.words[i], want.word)
            # bit for bit
            assert got.llr_bits[j, i].tobytes() == np.float64(want.report.llr_bits).tobytes()
        # decode_ladder is a one-row decode_batch, so the first threshold of
        # every row is also held against the scalar reference
        policy = DecodePolicy(tau=taus[0], max_queries=max_queries, order_kind=kind)
        tag, q, ref_word, ref_llr = reference_decode(code, obs, policy, accounting=acct)
        assert (_STATUS_TAGS[got.status[0, i]], got.q[0, i]) == (tag, q)
        if tag == "decoded":
            assert np.array_equal(got.words[i], ref_word)
        assert got.llr_bits[0, i] == pytest.approx(ref_llr, rel=1e-12, abs=1e-12)


class TestBatchDecode:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_batch_equals_per_row_ladders(self, data):
        # n <= 6 lets the order table run dry inside the 64-query block
        n = data.draw(st.integers(4, 12), label="n")
        rmin = max(2, math.ceil(math.log2(n + 1)))
        k = data.draw(st.integers(1, n - rmin), label="k")
        code = make_rlc(n, k, seed=data.draw(st.integers(1, 10_000), label="code_seed"))
        ebn0 = data.draw(st.floats(-3.0, 8.0), label="ebn0")
        rows = data.draw(st.integers(1, 12), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
        _, arrays = _block(code, ebn0, rows, rng)
        taus = data.draw(st.lists(st.none() | st.floats(-20.0, 60.0), min_size=1,
                                  max_size=5), label="taus")
        taus += data.draw(st.lists(st.sampled_from(taus), max_size=2), label="duplicates")
        # below the first chunk edge, inside the 64-query block, beyond it
        caps = st.none() | st.integers(1, 15) | st.integers(16, 64) | st.integers(65, 300)
        max_queries = data.draw(caps, label="max_queries")
        kind = data.draw(st.sampled_from(["logistic", "hamming"]), label="kind")
        acct = None
        if data.draw(st.booleans(), label="bsc"):
            crossover = bsc_crossover(ChannelParams(ebn0_db=ebn0, rate=code.rate))
            acct = SoftObservation.from_flip_probs(np.zeros(n, dtype=np.uint8), crossover)
        patterns._TABLE_CACHE.clear()
        softout._LOG_U.clear()
        _assert_batch_equals_ladders(code, arrays, taus, kind, max_queries, acct)

    @pytest.mark.parametrize("kind, accounting", [("logistic", "soft"), ("hamming", "bsc")])
    def test_deep_rows_resume_after_the_block(self, kind, accounting):
        code = make_rlc(128, 116, seed=1)
        _, arrays = _block(code, 1.5, 24, np.random.default_rng(8))
        acct = None
        if accounting == "bsc":
            crossover = bsc_crossover(ChannelParams(ebn0_db=1.5, rate=code.rate))
            acct = SoftObservation.from_flip_probs(np.zeros(128, dtype=np.uint8), crossover)
        taus = [None, 2.0, -5.0, 2.0]
        got = decode_batch(code, *arrays, taus, kind, 3000, acct)
        assert (got.q[0] > 64).sum() >= 5  # rows that went on one at a time
        _assert_batch_equals_ladders(code, arrays, taus, kind, 3000, acct)

    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_lone_deep_row_continues_in_place(self, kind):
        # clean rows stop inside the block; the one noisy row searches on
        # past query 64 as the only row left, in the block's own scan
        code = make_rlc(128, 116, seed=1)
        _, (hard, reliab, ranks) = _block(code, 8.0, 6, np.random.default_rng(3))
        _, deep = _block(code, 1.0, 1, np.random.default_rng(12))
        for block, row in zip((hard, reliab, ranks), deep):
            block[4] = row[0]
        taus = [None, 2.0, -5.0]
        got = decode_batch(code, hard, reliab, ranks, taus, kind, 3000)
        assert (got.q[0] > 64).tolist() == [False] * 4 + [True, False]
        _assert_batch_equals_ladders(code, (hard, reliab, ranks), taus, kind, 3000, None)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_without_confidence_same_outcomes(self, data):
        n = data.draw(st.integers(4, 12), label="n")
        rmin = max(2, math.ceil(math.log2(n + 1)))
        k = data.draw(st.integers(1, n - rmin), label="k")
        code = make_rlc(n, k, seed=data.draw(st.integers(1, 10_000), label="code_seed"))
        ebn0 = data.draw(st.floats(-3.0, 8.0), label="ebn0")
        rows = data.draw(st.integers(1, 12), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32), label="seed"))
        _, arrays = _block(code, ebn0, rows, rng)
        # Without a finite tau the scan keeps no running sum; with one it
        # does, and abandonment must come out the same.
        taus = [None] + data.draw(st.lists(st.floats(-20.0, 60.0), max_size=1), label="tau")
        caps = st.none() | st.integers(1, 15) | st.integers(16, 64) | st.integers(65, 300)
        max_queries = data.draw(caps, label="max_queries")
        kind = data.draw(st.sampled_from(["logistic", "hamming"]), label="kind")
        acct = None
        if data.draw(st.booleans(), label="bsc"):
            crossover = bsc_crossover(ChannelParams(ebn0_db=ebn0, rate=code.rate))
            acct = SoftObservation.from_flip_probs(np.zeros(n, dtype=np.uint8), crossover)
        want = decode_batch(code, *arrays, taus, kind, max_queries, acct)
        got = decode_batch(code, *arrays, taus, kind, max_queries, acct, confidence=False)
        assert got.llr_bits is None
        assert np.array_equal(got.status, want.status)
        assert np.array_equal(got.q, want.q)
        assert np.array_equal(got.words, want.words)

    @pytest.mark.parametrize("kind, accounting", [("logistic", "soft"), ("hamming", "bsc"),
                                                  ("hamming", "soft")])
    def test_without_confidence_deep_rows(self, kind, accounting):
        # Rows past the 64-query block, some to the cap, under tau=None only.
        code = make_rlc(128, 116, seed=1)
        _, arrays = _block(code, 0.5, 12, np.random.default_rng(5))
        acct = None
        if accounting == "bsc":
            crossover = bsc_crossover(ChannelParams(ebn0_db=0.5, rate=code.rate))
            acct = SoftObservation.from_flip_probs(np.zeros(128, dtype=np.uint8), crossover)
        want = decode_batch(code, *arrays, [None], kind, 3000, acct)
        assert (want.q > 64).sum() >= 3 and (want.status == AT_CAP).any()
        got = decode_batch(code, *arrays, [None], kind, 3000, acct, confidence=False)
        assert got.llr_bits is None
        assert np.array_equal(got.status, want.status)
        assert np.array_equal(got.q, want.q)
        assert np.array_equal(got.words, want.words)

    def test_empty_block(self):
        code = make_rlc(16, 8, seed=2)
        _, (hard, reliab, ranks) = _block(code, 3.0, 2, np.random.default_rng(1))
        softout._LOG_U.clear()  # no chunk runs, so no wrong-hit table is grown
        got = decode_batch(code, hard[:0], reliab[:0], ranks[:0], [None, 1.0])
        assert got.status.shape == got.q.shape == got.llr_bits.shape == (2, 0)
        assert got.words.shape == (0, 16)

    def test_validation(self):
        code = make_rlc(16, 8, seed=2)
        _, (hard, reliab, ranks) = _block(code, 3.0, 4, np.random.default_rng(1))
        with pytest.raises(ValueError, match="finite"):
            decode_batch(code, hard, reliab, ranks, [math.nan])
        with pytest.raises(ValueError, match="length"):
            decode_batch(code, hard[:, :10], reliab[:, :10], ranks[:, :10], [None])
        with pytest.raises(ValueError, match="accounting length"):
            decode_batch(code, hard, reliab, ranks, [None],
                         accounting=SoftObservation.from_flip_probs(np.zeros(10), 0.1))


class TestIncrementalSums:
    """Syndromes and flip sums built from parent pointers are reduceat's, bit for bit."""

    @pytest.mark.parametrize("rows", [1, 6])
    def test_match_reduceat_over_the_table(self, rows):
        code = make_rlc(128, 116, seed=1)
        rng = np.random.default_rng(40 + rows)
        reliab = rng.exponential(2.0, size=(rows, 128))
        ranks = np.argsort(reliab, axis=1, kind="stable")
        hard = rng.integers(0, 2, size=(rows, 128), dtype=np.uint8)
        scan = decoder._Scan(code, hard, reliab, ranks, [None], "logistic", 32768, None)
        # No parity column sets bit 63: nothing hits, every row runs to the cap.
        scan.target[:] = np.uint64(1 << 63)
        scan.run()
        vals, off, _ = scan.table.slice_arrays(0, 32768)
        # The nine-flip patterns, which numpy sums pairwise, are in range.
        assert np.diff(off).max() == 9 and (np.diff(off) == 9).sum() == 19
        syn = np.bitwise_xor.reduceat(scan.cols.take(vals - 1, axis=1), off[:-1], axis=1)
        syn[:, 0] = 0
        assert scan.syn.shape == (rows, 32768)
        assert np.array_equal(scan.syn, syn)
        flips = np.add.reduceat(scan.l.take(vals - 1, axis=1), off[:-1], axis=1)
        flips[:, 0] = 0.0
        for lo, hi in decoder._chunk_bounds(32768):
            got = scan._flips(lo, hi)
            assert got.tobytes() == flips[:, lo:hi].tobytes(), (lo, hi)


class TestPolicyAndGuards:
    def test_default_query_budget(self):
        assert resolve_max_queries(DecodePolicy(), make_rlc(128, 116, seed=1)) \
            == 8 << 12
        assert resolve_max_queries(DecodePolicy(), make_rlc(8, 4, seed=3)) == 128
        # tiny code: budget cannot exceed the pattern space
        assert resolve_max_queries(DecodePolicy(), make_rlc(6, 2, seed=1)) == 64
        assert resolve_max_queries(DecodePolicy(max_queries=7),
                                   make_rlc(8, 4, seed=3)) == 7
        # an explicit cap is held to the pattern space too
        assert resolve_max_queries(DecodePolicy(max_queries=1000),
                                   make_rlc(8, 4, seed=3)) == 256

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DecodePolicy(order_kind="likelihood")
        with pytest.raises(ValueError):
            DecodePolicy(max_queries=0)

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="finite"):
            DecodePolicy(tau=tau)

    def test_length_mismatch_rejected(self):
        code = make_rlc(12, 7, seed=1)
        obs = _obs_for_word(np.zeros(10, dtype=np.uint8), 0.1)
        with pytest.raises(ValueError):
            decode(code, obs, DecodePolicy())
        good = _obs_for_word(np.zeros(12, dtype=np.uint8), 0.1)
        with pytest.raises(ValueError):
            decode(code, good, DecodePolicy(), accounting=obs)

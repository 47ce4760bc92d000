"""Decoding loop: chunked engine vs naive reference, thresholds, caps."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import (outcome_tag, random_observation, random_small_code,
                      reference_decode)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_order import reference_arrays

from softgrand import channel, decoder, harness, patterns
from softgrand.channel import (ChannelParams, SoftObservation, bsc_crossover,
                               transmit_arrays)
from softgrand.codes import encode, is_codeword, make_rlc
from softgrand.decoder import (ABANDON_CAP, ABANDON_LLR, AT_CAP, BELOW_TAU, HIT,
                               DecodePolicy, decode, decode_batch, resolve_max_queries)
from softgrand.softout import p_incorrect_cum


def _obs_for_word(word, flips):
    return SoftObservation.from_flip_probs(np.asarray(word, dtype=np.uint8),
                                           flips)


def _one_row(code, obs, taus, kind="logistic", max_queries=None, acct=None):
    """One observation under every threshold in ``taus``: a one-row decode_batch."""
    return decode_batch(code, obs.hard[np.newaxis], obs.reliab[np.newaxis], taus, kind,
                        max_queries, acct)


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
        tracemalloc.start()
        try:
            out = decode(code, obs, DecodePolicy(tau=None))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.decoded and out.q == 1
        assert np.array_equal(out.word, cw)
        # Nothing is tabulated toward the cap: 100 kB holds 12 500 doubles.
        assert peak <= 100_000

    def test_largest_redundancy_clean_block_raises_no_warning(self):
        # r = 63, where (1 - 2^-r)^q rounds to 1 in the wrong-hit term.
        code = make_rlc(96, 33, seed=1)
        cw, obs = random_observation(code, 12.0, np.random.default_rng(0))
        assert np.array_equal(obs.hard, cw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode(code, obs, DecodePolicy(tau=None))
        assert out.decoded and out.q == 1
        assert math.isfinite(out.report.llr_bits)


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
        # Start from an empty order-table cache so each example grows its table.
        patterns.order_table.cache_clear()
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
        got = _one_row(code, obs, taus, kind, max_queries, acct)
        assert got.status.shape == got.q.shape == got.llr_bits.shape == (len(taus), 1)
        for j, tau in enumerate(taus):
            policy = DecodePolicy(tau=tau, max_queries=max_queries, order_kind=kind)
            _assert_cell_is(got, j, 0, decode(code, obs, policy, accounting=acct))
        # the first threshold also against the scalar reference
        _assert_reference(code, obs, got, 0, 0, taus, kind, max_queries, acct)

    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_deep_ladder_matches_reference(self, kind):
        code = make_rlc(128, 116, seed=1)
        _, obs = random_observation(code, 1.0, np.random.default_rng(31))
        taus = [None, -5.0, -3.0, 3.0]  # hits and abandonments past query 64
        got = _one_row(code, obs, taus, kind, 4000)
        assert got.q[0, 0] > 64
        for j in range(len(taus)):
            _assert_reference(code, obs, got, j, 0, taus, kind, 4000, None)

    @pytest.mark.parametrize("taus", [[math.nan], [0.0, math.inf]])
    def test_ladder_rejects_non_finite_tau(self, taus):
        code = make_rlc(16, 8, seed=2)
        obs = _obs_for_word(np.zeros(16, dtype=np.uint8), 0.05)
        with pytest.raises(ValueError, match="finite"):
            _one_row(code, obs, taus)

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
    """Code words and the (hard, reliab) arrays of ``rows`` transmissions."""
    msgs = rng.integers(0, 2, size=(rows, code.k), dtype=np.uint8)
    cws = encode(code, msgs)
    params = ChannelParams(ebn0_db=ebn0, rate=code.rate)
    return cws, transmit_arrays(cws, rng.standard_normal(cws.shape), params)


_STATUS_TAGS = {HIT: "decoded", BELOW_TAU: "abandon_llr", AT_CAP: "abandon_cap"}


def _assert_cell_is(got, j, i, want):
    """Row i under threshold j of a BatchOutcome is the DecodeOutcome ``want``."""
    tag = _STATUS_TAGS[got.status[j, i]]
    assert (tag, got.q[j, i]) == (outcome_tag(want), want.q)
    assert got.decoded[j, i] == want.decoded
    if want.decoded:
        assert np.array_equal(got.words[i], want.word)
    else:
        assert want.word is None
    # bit for bit
    assert got.llr_bits[j, i].tobytes() == np.float64(want.report.llr_bits).tobytes()


def _assert_batch_equals_rows(code, arrays, taus, kind, max_queries, acct):
    """Each row of a block decodes as a one-row block of its own, bit for bit."""
    got = decode_batch(code, *arrays, taus, kind, max_queries, acct)
    shape = (len(taus), len(arrays[0]))
    assert got.status.shape == got.q.shape == got.llr_bits.shape == shape
    for i, row in enumerate(zip(*arrays)):
        obs = SoftObservation(*row)
        alone = _one_row(code, obs, taus, kind, max_queries, acct)
        assert np.array_equal(got.status[:, i], alone.status[:, 0])
        assert np.array_equal(got.q[:, i], alone.q[:, 0])
        assert got.llr_bits[:, i].tobytes() == alone.llr_bits[:, 0].tobytes()
        assert np.array_equal(got.words[i], alone.words[0])
        # the first threshold of every row also against the scalar reference
        _assert_reference(code, obs, got, 0, i, taus, kind, max_queries, acct)


def _assert_reference(code, obs, got, j, i, taus, kind, max_queries, acct):
    """Row i under threshold j of a BatchOutcome against the scalar reference."""
    policy = DecodePolicy(tau=taus[j], max_queries=max_queries, order_kind=kind)
    tag, q, ref_word, ref_llr = reference_decode(code, obs, policy, accounting=acct)
    assert (_STATUS_TAGS[got.status[j, i]], got.q[j, i]) == (tag, q)
    if tag == "decoded":
        assert np.array_equal(got.words[i], ref_word)
    assert got.llr_bits[j, i] == pytest.approx(ref_llr, rel=1e-12, abs=1e-12)


def _grand(code, ebn0):
    """The hamming order with BSC accounting at ``ebn0``, as --decoder grand decodes."""
    crossover = bsc_crossover(ChannelParams(ebn0_db=ebn0, rate=code.rate))
    return "hamming", SoftObservation.from_flip_probs(np.zeros(code.n, dtype=np.uint8),
                                                      crossover)


def _assert_same_without_confidence(code, arrays, taus, kind, max_queries, acct):
    """Status, q and words as with the confidence kept, and no llr_bits."""
    want = decode_batch(code, *arrays, taus, kind, max_queries, acct)
    got = decode_batch(code, *arrays, taus, kind, max_queries, acct, confidence=False)
    assert got.llr_bits is None
    assert np.array_equal(got.status, want.status)
    assert np.array_equal(got.q, want.q)
    assert np.array_equal(got.words, want.words)


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
        patterns.order_table.cache_clear()
        _assert_batch_equals_rows(code, arrays, taus, kind, max_queries, acct)

    @pytest.mark.parametrize("kind, accounting", [("logistic", "soft"), ("hamming", "bsc")])
    def test_deep_rows_resume_after_the_block(self, kind, accounting, monkeypatch):
        code = make_rlc(128, 116, seed=1)
        _, arrays = _block(code, 1.5, 24, np.random.default_rng(8))
        acct = None
        if accounting == "bsc":
            crossover = bsc_crossover(ChannelParams(ebn0_db=1.5, rate=code.rate))
            acct = SoftObservation.from_flip_probs(np.zeros(128, dtype=np.uint8), crossover)
        taus = [None, 2.0, -5.0, 2.0]
        # The first query index of every walk over the chunk list.
        starts, chunk_bounds = [], decoder._chunk_bounds

        def guard(*args):
            bounds = list(chunk_bounds(*args))
            starts.append(bounds[0][0])
            return iter(bounds)

        monkeypatch.setattr(decoder, "_chunk_bounds", guard)
        got = decode_batch(code, *arrays, taus, kind, 3000, acct)
        monkeypatch.undo()
        assert (got.q[0] > 64).sum() >= 5  # rows that went on past query 64
        # One walk from query 2: the rows still searching after query 64 go
        # on in the block's own scan.
        assert starts == [1]
        _assert_batch_equals_rows(code, arrays, taus, kind, 3000, acct)

    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_lone_deep_row_continues_in_place(self, kind):
        # clean rows stop inside the block; the one noisy row searches on
        # past query 64 as the only row left, in the block's own scan
        code = make_rlc(128, 116, seed=1)
        _, (hard, reliab) = _block(code, 8.0, 6, np.random.default_rng(3))
        _, deep = _block(code, 1.0, 1, np.random.default_rng(12))
        for block, row in zip((hard, reliab), deep):
            block[4] = row[0]
        taus = [None, 2.0, -5.0]
        got = decode_batch(code, hard, reliab, taus, kind, 3000)
        assert (got.q[0] > 64).tolist() == [False] * 4 + [True, False]
        _assert_batch_equals_rows(code, (hard, reliab), taus, kind, 3000, None)

    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_wide_syndromes_match_the_reference(self, kind):
        # r = 20 packs syndromes as uint32; the cap ends some searches.
        code = make_rlc(40, 20, seed=3)
        _, arrays = _block(code, 3.0, 10, np.random.default_rng(9))
        taus = [None, 2.0, -3.0]
        got = decode_batch(code, *arrays, taus, kind, 200)
        assert (got.status[0] == HIT).any() and (got.status[0] == AT_CAP).any()
        assert (got.q[0] > 64).any()
        for i, row in enumerate(zip(*arrays)):
            for j in range(len(taus)):
                _assert_reference(code, SoftObservation(*row), got, j, i, taus, kind, 200,
                                  None)

    @pytest.mark.parametrize("accounting", ["soft", "bsc"])
    def test_rows_sharing_one_syndrome_history(self, accounting):
        # In the hamming order 64 rows search one syndrome history; a
        # 1024-query chunk of r = 10 syndromes repeats many of them, so a
        # row's first hit must be its least matching query.
        code = make_rlc(32, 22, seed=3)
        _, arrays = _block(code, -2.0, 64, np.random.default_rng(4))
        acct = _grand(code, 1.0)[1] if accounting == "bsc" else None
        got = decode_batch(code, *arrays, [None], "hamming", None, acct, confidence=False)
        assert (got.q[0] > 1024).any()
        _assert_batch_equals_rows(code, arrays, [None, 1.0], "hamming", None, acct)

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
        # Without confidence the scan keeps the running sum only while a
        # finite tau is open, and drops it when the last one closes: at
        # query 1, inside a chunk, or past query 64.  Abandonment must come
        # out as with the sum kept to the end.
        taus = [None] + data.draw(st.lists(st.floats(-20.0, 60.0), min_size=1, max_size=3),
                                  label="taus")
        caps = (st.none() | st.integers(1, 15) | st.integers(16, 64) | st.integers(65, 300)
                | st.integers(301, 4096))
        max_queries = data.draw(caps, label="max_queries")
        kind = data.draw(st.sampled_from(["logistic", "hamming"]), label="kind")
        acct = None
        if data.draw(st.booleans(), label="bsc"):
            crossover = bsc_crossover(ChannelParams(ebn0_db=ebn0, rate=code.rate))
            acct = SoftObservation.from_flip_probs(np.zeros(n, dtype=np.uint8), crossover)
        _assert_same_without_confidence(code, arrays, taus, kind, max_queries, acct)

    @pytest.mark.parametrize("kind, accounting", [("logistic", "soft"), ("hamming", "soft"),
                                                  ("hamming", "bsc")])
    def test_ledger_dropped_when_the_last_tau_closes(self, kind, accounting, monkeypatch):
        # Clean rows that stop early and noisy ones that search deep; each
        # tau list's last finite tau closes at query 1, in a chunk inside
        # the 64-query block, or past it, and rows search on after it.
        code = make_rlc(32, 22, seed=3)
        rng = np.random.default_rng(21)
        parts = [_block(code, ebn0, 12, rng)[1] for ebn0 in (4.0, -2.0)]
        arrays = tuple(np.concatenate(rows) for rows in zip(*parts))
        acct = _grand(code, 1.0)[1] if accounting == "bsc" else None
        # (first query index of the settle that dropped it, rows searching on)
        drops, settle = [], decoder._Scan._settle

        def spy(scan, lo, *args):
            kept = scan.ledger
            settle(scan, lo, *args)
            if kept and not scan.ledger:
                drops.append((lo, len(scan.ids)))

        monkeypatch.setattr(decoder._Scan, "_settle", spy)
        for taus in [(None, 60.0), (None, 5.0), (None, 2.0), (None, 0.0, 1.0, 2.0)]:
            _assert_same_without_confidence(code, arrays, taus, kind, None, acct)
        monkeypatch.undo()
        # one drop per tau list, each with rows still searching
        assert len(drops) == 4 and all(left > 0 for _, left in drops)
        phases = {"query 1" if lo == 0 else "block" if lo < 64 else "deep" for lo, _ in drops}
        assert phases == {"query 1", "block", "deep"}

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
        _, (hard, reliab) = _block(code, 3.0, 2, np.random.default_rng(1))
        got = decode_batch(code, hard[:0], reliab[:0], [None, 1.0])
        assert got.status.shape == got.q.shape == got.llr_bits.shape == (2, 0)
        assert got.words.shape == (0, 16)

    def test_validation(self):
        code = make_rlc(16, 8, seed=2)
        _, (hard, reliab) = _block(code, 3.0, 4, np.random.default_rng(1))
        with pytest.raises(ValueError, match="taus must not be empty"):
            decode_batch(code, hard, reliab, ())
        with pytest.raises(ValueError, match="taus must not be empty"):
            _one_row(code, SoftObservation(hard[0], reliab[0]), ())
        with pytest.raises(ValueError, match="finite"):
            decode_batch(code, hard, reliab, [math.nan])
        with pytest.raises(ValueError, match="length"):
            decode_batch(code, hard[:, :10], reliab[:, :10], [None])
        with pytest.raises(ValueError, match="accounting length"):
            decode_batch(code, hard, reliab, [None],
                         accounting=SoftObservation.from_flip_probs(np.zeros(10), 0.1))
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                decode_batch(code, hard, np.full_like(reliab, bad), [None, 2.0])
        for bad in (2, 255):
            bits = hard.copy()
            bits[1, 5] = bad
            with pytest.raises(ValueError, match="0 or 1"):
                decode_batch(code, bits, reliab, [None, 2.0])
        with pytest.raises(ValueError, match="0 or 1"):
            decode_batch(code, np.full((1, 16), 2), np.ones((1, 16)), [None])
        for short in (reliab[:2, :15], reliab[:3]):
            with pytest.raises(ValueError, match="shape"):
                decode_batch(code, hard[:2], short, [None])
        # A 1-D block given to decode_batch, and a 2-D observation to decode.
        with pytest.raises(ValueError, match=r"\(rows, n\) arrays, got shape \(16,\)"):
            decode_batch(code, hard[0], reliab[0], [None])
        with pytest.raises(ValueError, match=r"one block of n bits, got shape \(4, 16\)"):
            decode(code, SoftObservation(hard, reliab), DecodePolicy())
        # An accounting observation's fields can be reassigned after it is built.
        acct = SoftObservation.from_flip_probs(np.zeros(16, np.uint8), 0.05)
        for bad in (math.nan, math.inf, -1.0):
            acct.reliab = np.full(16, bad)
            for taus in ([1.0], [None]):
                with pytest.raises(ValueError, match="finite and nonnegative"):
                    decode_batch(code, hard, reliab, taus, accounting=acct)
            with pytest.raises(ValueError, match="finite and nonnegative"):
                decode(code, SoftObservation(hard[0], reliab[0]), DecodePolicy(tau=1.0),
                       accounting=acct)


class TestQueryOne:
    """Query 1 is settled for every row before the survivors are ranked."""

    # Finite thresholds among the rows' query-1 confidences, which run from
    # about -11 to 12 bits, with and without a tau that never abandons.
    TAUS = [(0.0, 5.0, 11.8), (None, 0.0, 5.0, 11.8), (11.8, None), (13.0,),
            (5.0, 5.0, None)]

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_mixed_rows_match_ladders_and_reference(self, decoder):
        code = make_rlc(128, 116, seed=1)
        rng = np.random.default_rng(7)
        parts = [_block(code, ebn0, 4, rng)[1] for ebn0 in (0.0, 2.0, 3.0, 6.0, 8.0)]
        arrays = tuple(np.concatenate(rows) for rows in zip(*parts))
        kind, acct = ("logistic", None) if decoder == "orbgrand" else _grand(code, 3.0)
        got = decode_batch(code, *arrays, self.TAUS[1], kind, 300, acct)
        at_one = got.q[1:] == 1
        below = at_one & (got.status[1:] == BELOW_TAU)
        # rows that hit at query 1, and rows that search past the block
        assert ((got.status[0] == HIT) & (got.q[0] == 1)).any()
        assert (got.q[0] > 64).any()
        # some thresholds abandon rows at query 1 and others do not ...
        assert (below.any(axis=0) & ~below.all(axis=0)).any()
        if decoder == "orbgrand":
            # ... and every one abandons some rows there; under BSC
            # accounting all rows share one query-1 confidence instead.
            assert below.all(axis=0).any()
        for taus in self.TAUS:
            _assert_batch_equals_rows(code, arrays, taus, kind, 300, acct)
            got = decode_batch(code, *arrays, taus, kind, 300, acct)
            for i, row in enumerate(zip(*arrays)):
                for j in range(1, len(taus)):
                    _assert_reference(code, SoftObservation(*row), got, j, i, taus, kind,
                                      300, acct)
        # the last list's duplicate thresholds also abandon rows after query 1
        assert ((got.status[0] == BELOW_TAU) & (got.q[0] > 1)).any()

    def test_tied_reliabilities_rank_by_index(self):
        code = make_rlc(128, 116, seed=1)
        rng = np.random.default_rng(11)
        cws = encode(code, rng.integers(0, 2, size=(6, code.k), dtype=np.uint8))
        # constant crossover, repeated LLR values, and a row with no ties
        reliab = np.vstack([np.full((2, 128), 4.0),
                            rng.choice([0.5, 1.0, 3.0], size=(3, 128)),
                            rng.exponential(3.0, size=(1, 128))])
        hard = cws.copy()
        hard[[0, 2, 3, 5], 7] ^= 1
        scan = decoder._Scan(code, hard, reliab, [None], "logistic", 300, None)
        # rows 1 and 4 hit at query 1 and are never ranked
        assert scan.ranked.tolist() == [0, 2, 3, 5]
        for frame, i in zip(scan.frame, scan.ranked):
            assert frame.tolist() == sorted(range(128), key=lambda b: (reliab[i, b], b))
            assert np.array_equal(frame, SoftObservation(hard[i], reliab[i]).ranks)
        _assert_batch_equals_rows(code, (hard, reliab), [None, 2.0], "logistic", 300, None)


@pytest.mark.parametrize("cap", [1, 2, 15, 16, 17, 64, 65, 4097, 32768])
def test_chunk_bounds_resume_where_a_scan_stopped(cap):
    bounds = list(decoder._chunk_bounds(cap))
    # contiguous from query 2 to the cap: each chunk starts where the last stopped
    edges = [1] + [hi for _, hi in bounds]
    assert list(zip(edges, edges[1:])) == bounds and edges[-1] == cap
    # at the chunk edges, then in steady-state steps
    assert all(hi in decoder._CHUNK_EDGES or hi == cap or (hi - lo) == decoder._CHUNK_STEP
               for lo, hi in bounds)


class TestIncrementalSums:
    """Syndromes and flip sums built from parent pointers are reduceat's, bit for bit."""

    # r = 12, 24 and 44 pack syndromes as uint16, uint32 and uint64.
    @pytest.mark.parametrize("r, dtype", [(12, np.uint16), (24, np.uint32),
                                          (44, np.uint64)])
    @pytest.mark.parametrize("rows", [1, 6])
    def test_match_reduceat_over_the_table(self, rows, r, dtype):
        code = make_rlc(128, 128 - r, seed=1)
        rng = np.random.default_rng(40 + rows)
        reliab = rng.exponential(2.0, size=(rows, 128))
        hard = rng.integers(0, 2, size=(rows, 128), dtype=np.uint8)
        scan = decoder._Scan(code, hard, reliab, [None], "logistic", 32768, None)
        assert np.array_equal(scan.frame, channel._ranks(reliab))
        # No syndrome sets bit r: nothing hits, every row runs to the cap.
        scan.target[:] = 1 << r
        scan.run()
        assert scan.syn.dtype == scan.target.dtype == dtype
        vals, off = reference_arrays("logistic", 128, 32768)
        # The nine-flip patterns, which numpy sums pairwise, are in range.
        assert np.diff(off).max() == 9 and (np.diff(off) == 9).sum() == 19
        # The histories are (queries, rows), C-ordered; cols and l are (n, rows).
        assert scan.cols.shape == scan.l.shape == (128, rows)
        syn = np.bitwise_xor.reduceat(scan.cols.take(vals - 1, axis=0), off[:-1], axis=0)
        syn[0] = 0
        assert scan.syn.shape == (32768, rows) and scan.syn.flags.c_contiguous
        assert np.array_equal(scan.syn, syn)
        # reduceat sums each pattern along a row of a (rows, patterns) array.
        by_row = np.ascontiguousarray(scan.l.T)
        flips = np.add.reduceat(by_row.take(vals - 1, axis=1), off[:-1], axis=1)
        flips[:, 0] = 0.0
        for lo, hi in decoder._chunk_bounds(32768):
            got = scan._flips(lo, hi)
            assert got.shape == (hi - lo, rows)
            assert got.T.tobytes() == flips[:, lo:hi].tobytes(), (lo, hi)


class TestColumnCompaction:
    """A stopped row's column leaves every per-row array when it stops, C order kept."""

    @pytest.mark.parametrize("kind, accounting", [("logistic", "soft"), ("logistic", "bsc"),
                                                  ("hamming", "soft"), ("hamming", "bsc")])
    # Some rows hit while a threshold is open that their log-mass, computed
    # on until they stop, would cross later.
    @pytest.mark.parametrize("taus, confidence", [((None,), False),
                                                  ((None, 2.0, 0.5, -1.0, -3.0), True)])
    def test_rows_stopping_at_varied_depths(self, kind, accounting, taus, confidence,
                                            monkeypatch):
        code = make_rlc(32, 22, seed=3)
        rng = np.random.default_rng(21)
        # clean rows that stop early, and noisy ones that search deep
        parts = [_block(code, ebn0, 12, rng)[1] for ebn0 in (4.0, -2.0)]
        arrays = tuple(np.concatenate(rows) for rows in zip(*parts))
        acct = _grand(code, 1.0)[1] if accounting == "bsc" else None
        # 16-query chunks, so that rows stop in many chunks, some of which
        # regrow the histories and some of which fit them
        monkeypatch.setattr(decoder, "_CHUNK_EDGES", ())
        monkeypatch.setattr(decoder, "_CHUNK_STEP", 16)
        # The arrays with one column shared by every row: the hamming order
        # shares the syndromes, BSC accounting the no-flip log-mass, and
        # both together the whole ledger.
        shared = {"cols", "syn"} if kind == "hamming" else set()
        if accounting == "bsc":
            shared |= {"base", "l", "fold", "carry"} if kind == "hamming" else {"base"}
        # (rows searching before, after) each chunk
        searching, chunk = [], decoder._Scan._chunk

        def spy_chunk(scan, lo, hi):
            before = len(scan.ids)
            chunk(scan, lo, hi)
            searching.append((before, len(scan.ids)))
            if not len(scan.ids):
                # once every row has stopped nothing reads the arrays again
                return
            # every column is a row still searching: none has hit
            assert not scan.end[scan.ids].any()
            for name in scan.row_state:
                arr = getattr(scan, name)
                assert arr.flags.c_contiguous, name
                assert arr.shape[-1] == (1 if name in shared else len(scan.ids)), name
            for name in ("syn", "fold") if scan.ledger else ("syn",):
                assert len(getattr(scan, name)) >= hi

        monkeypatch.setattr(decoder._Scan, "_chunk", spy_chunk)
        got = decode_batch(code, *arrays, taus, kind, None, acct, confidence)
        monkeypatch.undo()
        assert (got.q[0] <= 16).any() and (got.q[0] > 1024).any()
        # chunks after which some rows stopped and others searched on
        assert any(0 < after < before for before, after in searching)
        assert (got.llr_bits is None) != confidence
        for i, row in enumerate(zip(*arrays)):
            obs = SoftObservation(*row)
            alone = _one_row(code, obs, taus, kind, None, acct)
            for j in range(len(taus)):
                tag = _STATUS_TAGS[got.status[j, i]]
                assert (got.status[j, i], got.q[j, i]) == (alone.status[j, 0], alone.q[j, 0])
                if got.decoded[j, i]:
                    assert np.array_equal(got.words[i], alone.words[0])
                if confidence:
                    assert got.llr_bits[j, i] == alone.llr_bits[j, 0]
                    _assert_reference(code, obs, got, j, i, taus, kind, None, acct)
                else:
                    policy = DecodePolicy(tau=taus[j], order_kind=kind)
                    assert reference_decode(code, obs, policy, accounting=acct)[:2] == (
                        tag, got.q[j, i])


class TestDeepBlockMemory:
    """A deep block's peak memory: live rows × syndrome and flip-sum histories."""

    @pytest.mark.parametrize("taus, confidence, bound_mb", [
        ((None,), False, 6.0),
        ((None, 0.0, 1.0, 2.0), True, 24.0),
        # Every finite tau closes early, and the ledger goes with them.
        ((None, 0.0, 1.0, 2.0), False, 6.0),
    ])
    def test_peak_of_a_sweep_block_at_0db(self, taus, confidence, bound_mb):
        code = make_rlc(128, 116, seed=1)
        params = ChannelParams(ebn0_db=0.0, rate=code.rate)
        _, (hard, reliab) = harness._trial_batch(code, params, 0, harness._point_key(0.0),
                                                 0, 256)
        # Grown first, so the order table is not counted.
        want = decode_batch(code, hard, reliab, taus, confidence=confidence)
        tracemalloc.start()
        try:
            got = decode_batch(code, hard, reliab, taus, confidence=confidence)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(got.q, want.q)
        assert (got.q[0] > 64).mean() > 0.9  # nearly every row searches deep
        assert peak <= bound_mb * 1e6


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

    @pytest.mark.parametrize("bad", [0, -3, 2.5, 2.0, math.nan, True, False, np.True_, "64"])
    def test_query_cap_must_be_an_integer(self, bad):
        code = make_rlc(16, 8, seed=2)
        _, (hard, reliab) = _block(code, 3.0, 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="max_queries"):
            DecodePolicy(max_queries=bad)
        with pytest.raises(ValueError, match="max_queries"):
            decode_batch(code, hard, reliab, [None], max_queries=bad)

    def test_numpy_integer_query_cap_accepted(self):
        code = make_rlc(16, 8, seed=2)
        _, (hard, reliab) = _block(code, 0.0, 6, np.random.default_rng(1))
        assert resolve_max_queries(DecodePolicy(max_queries=np.int64(7)), code) == 7
        want = decode_batch(code, hard, reliab, [None, 1.0], max_queries=5)
        for cap in (np.int32(5), np.uint16(5), np.int64(5)):
            got = decode_batch(code, hard, reliab, [None, 1.0], max_queries=cap)
            assert np.array_equal(got.status, want.status)
            assert np.array_equal(got.q, want.q)

    @pytest.mark.parametrize("tau", [True, False, np.True_])
    def test_bool_tau_rejected(self, tau):
        code = make_rlc(16, 8, seed=2)
        _, (hard, reliab) = _block(code, 3.0, 2, np.random.default_rng(1))
        with pytest.raises(ValueError, match="tau"):
            DecodePolicy(tau=tau)
        with pytest.raises(ValueError, match="tau"):
            decode_batch(code, hard, reliab, [None, tau])

    def test_length_mismatch_rejected(self):
        code = make_rlc(12, 7, seed=1)
        obs = _obs_for_word(np.zeros(10, dtype=np.uint8), 0.1)
        with pytest.raises(ValueError):
            decode(code, obs, DecodePolicy())
        good = _obs_for_word(np.zeros(12, dtype=np.uint8), 0.1)
        with pytest.raises(ValueError):
            decode(code, good, DecodePolicy(), accounting=obs)

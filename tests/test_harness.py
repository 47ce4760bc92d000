"""Monte Carlo harness: seeding, statistics, guards, file outputs."""

import json
import math
import os

import numpy as np
import pytest

from softgrand import channel, harness, softout
from softgrand.channel import ChannelParams, SoftObservation, bsc_crossover, transmit
from softgrand.codes import encode, make_rlc
from softgrand.decoder import AT_CAP, HIT, DecodePolicy, _Scan, decode, decode_batch
from softgrand.harness import (GuardError, OracleReport, TrialBatch,
                               binomial_halfwidth,
                               collect_error_query_distribution, geometric_cdf,
                               ks_distance_geometric, oracle_exact_accounting,
                               run_sweep, write_sweep_csv, write_trials_csv)


def _stats_match(a, b):
    for sa, sb in zip(a, b):
        for f in sa.__dataclass_fields__:
            va, vb = getattr(sa, f), getattr(sb, f)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb), f
            else:
                assert va == vb, f
    assert len(a) == len(b)


def _batches_match(a, b):
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(a[key].outcome, b[key].outcome)
        assert np.array_equal(a[key].q, b[key].q)
        assert np.array_equal(a[key].llr_bits, b[key].llr_bits, equal_nan=True)


@pytest.fixture(scope="module")
def small_code():
    return make_rlc(16, 8, seed=4)


class TestSweepDeterminism:
    def test_identical_calls_identical_results(self, small_code):
        kwargs = dict(code=small_code, taus=(None, 1.0),
                      ebn0_points=[1.0, 3.0], trials_per_point=150,
                      master_seed=42)
        r1, r2 = run_sweep(**kwargs), run_sweep(**kwargs)
        _stats_match(r1.stats, r2.stats)
        _batches_match(r1.batches, r2.batches)

    def test_cell_reproducible_outside_sweep_layout(self, small_code):
        # one cell of a 2-point, 2-tau sweep equals a standalone run of
        # just that tau at just that point: seeding keys on the point
        # value, not sweep indices
        full = run_sweep(small_code, (None, 2.0), [0.5, 2.5], 120, master_seed=9)
        solo = run_sweep(small_code, (2.0,), [2.5], 120, master_seed=9)
        a, b = full.batches[("tau=2", 1)], solo.batches[("tau=2", 0)]
        assert np.array_equal(a.outcome, b.outcome)
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.llr_bits, b.llr_bits, equal_nan=True)

    def test_parallel_matches_serial(self, small_code):
        kwargs = dict(code=small_code, taus=(None, 2.0),
                      ebn0_points=[2.0], trials_per_point=128, master_seed=3)
        serial = run_sweep(workers=1, **kwargs)
        parallel = run_sweep(workers=2, **kwargs)
        _stats_match(serial.stats, parallel.stats)
        _batches_match(serial.batches, parallel.batches)


def _reference_trial(code, ebn0_db, master_seed, trial):
    """One trial drawn on its own: message, then noise, from the trial's seed."""
    seq = np.random.SeedSequence((master_seed, harness._point_key(ebn0_db), trial))
    rng = np.random.default_rng(seq)
    cw = encode(code, rng.integers(0, 2, size=code.k, dtype=np.uint8))
    return cw, transmit(cw, ChannelParams(ebn0_db=ebn0_db, rate=code.rate), rng)


def _csv_bytes(result, tmp_path, name):
    """The bytes of the sweep.csv and trials.csv a result writes."""
    write_sweep_csv(tmp_path / f"{name}.csv", result.stats)
    write_trials_csv(tmp_path / f"{name}-trials.csv", result)
    return ((tmp_path / f"{name}.csv").read_bytes(),
            (tmp_path / f"{name}-trials.csv").read_bytes())


def _pcg_reference(seed_words):
    """PCG64's [state lo, state hi, inc lo, inc hi] from s0..s3, in Python ints."""
    s0, s1, s2, s3 = seed_words
    mask = (1 << 128) - 1
    inc = ((s2 << 64 | s3) << 1 | 1) & mask
    state = ((inc + (s0 << 64 | s1)) * harness._PCG_MULT + inc) & mask
    return [state & 2**64 - 1, state >> 64, inc & 2**64 - 1, inc >> 64]


def _default_rng_draws(k, n, master_seed, point_key, trials):
    """Messages and noise drawn by one default_rng per trial."""
    rngs = [np.random.default_rng(np.random.SeedSequence((master_seed, point_key, t)))
            for t in trials]
    return (np.array([rng.integers(0, 2, size=k, dtype=np.uint8) for rng in rngs]),
            np.array([rng.standard_normal(n) for rng in rngs]))


class TestSeeding:
    """The array seeder gives default_rng's bits, and its fallback the same."""

    @pytest.mark.parametrize("k", [1, 5, 113, 116])
    @pytest.mark.parametrize("ebn0_db", [0.0, 6.0])
    @pytest.mark.parametrize("master_seed", [0, 2**31 + 17, 2**32 + 3, 2**64 + 5])
    def test_array_draws_equal_default_rng(self, master_seed, ebn0_db, k):
        # Eb/N0 0.0 is a one-word key: with a one-word master seed the
        # entropy is shorter than SeedSequence's pool.
        key = harness._point_key(ebn0_db)
        msgs, noise = harness._array_draws(k, 128, master_seed, key, 5, 9)
        want_msgs, want_noise = _default_rng_draws(k, 128, master_seed, key, range(5, 9))
        assert msgs.dtype == np.uint8 and msgs.shape == (4, k)
        assert np.array_equal(msgs, want_msgs)
        assert np.array_equal(noise, want_noise)

    @pytest.mark.parametrize("master_seed", [7, 2**64 + 5])
    def test_batch_across_trial_two_to_the_32(self, master_seed):
        # Trials from 2^32 on have a second word, so one batch mixes two
        # entropy widths.
        key = harness._point_key(6.0)
        lo = 2**32 - 2
        msgs, noise = harness._array_draws(113, 128, master_seed, key, lo, lo + 4)
        want_msgs, want_noise = _default_rng_draws(113, 128, master_seed, key,
                                                   range(lo, lo + 4))
        assert np.array_equal(msgs, want_msgs)
        assert np.array_equal(noise, want_noise)

    def test_fallback_writes_the_same_bytes(self, small_code, tmp_path, monkeypatch):
        def sweep_bytes(name):
            res = run_sweep(small_code, TestLockstepBatches.TAUS, [1.0, 4.0], 40,
                            master_seed=8)
            return _csv_bytes(res, tmp_path, name)

        monkeypatch.setattr(harness, "_MAX_TRIALS_FACTOR", 4)
        monkeypatch.setattr(harness, "_fast_seeding", None)
        fast = sweep_bytes("fast")
        assert harness._fast_seeding is True

        def unused(*args):
            raise AssertionError("the array seeder ran after a failed check")

        monkeypatch.setattr(harness, "_fast_seeding", None)
        monkeypatch.setattr(harness, "_array_draws_match", lambda: False)
        monkeypatch.setattr(harness, "_array_draws", unused)
        assert sweep_bytes("fallback") == fast
        assert harness._fast_seeding is False

    def test_negative_zero_is_the_point_zero(self, small_code):
        assert harness._point_key(-0.0) == harness._point_key(0.0) == 0
        neg = run_sweep(small_code, (None, 1.0), [-0.0], 50, master_seed=2)
        pos = run_sweep(small_code, (None, 1.0), [0.0], 50, master_seed=2)
        _batches_match(neg.batches, pos.batches)

    def test_pcg_states_equal_python_ints_on_edge_words(self):
        top = 2**64 - 1
        seeds = [
            (5, top, 9, 3),                  # s1 + inc_lo carries out of the low word
            (top - 1, top - 2, 1, top),      # and s3's top bit shifts into inc_hi
            (1, 2, 3, 2**63 + 7),            # s3's top bit set
            (top, 0, top, 0),                # s0 = s2 = 2^64 - 1
            (top, top, top, top),
            (0, 0, 0, 0),
        ]
        rng = np.random.default_rng(3)
        seeds += [tuple(int(w) for w in rng.integers(0, 2**64, 4, dtype=np.uint64))
                  for _ in range(8)]
        got = harness._pcg_states(np.array(seeds, dtype=np.uint64))
        assert got.dtype == np.uint64
        assert got.tolist() == [_pcg_reference(row) for row in seeds]

    @pytest.mark.parametrize("master_seed", [0, 2**64 + 5])
    def test_trial_states_across_trial_two_to_the_32(self, master_seed):
        key = harness._point_key(6.0)
        lo, hi = 2**32 - 1, 2**32 + 1
        seqs = [np.random.SeedSequence((master_seed, key, t)) for t in range(lo, hi)]
        want = [_pcg_reference([int(w) for w in seq.generate_state(4, np.uint64)])
                for seq in seqs]
        # The reference is PCG64's own seeding.
        for (state_lo, state_hi, inc_lo, inc_hi), seq in zip(want, seqs):
            pcg = np.random.PCG64(seq).state["state"]
            assert pcg == {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo}
        assert harness._trial_states(master_seed, key, lo, hi).tolist() == want

    def test_mismatched_view_is_never_written(self, small_code, tmp_path, monkeypatch):
        def sweep_bytes(name):
            res = run_sweep(small_code, TestLockstepBatches.TAUS, [1.0, 4.0], 40,
                            master_seed=8)
            return _csv_bytes(res, tmp_path, name)

        monkeypatch.setattr(harness, "_MAX_TRIALS_FACTOR", 4)
        monkeypatch.setattr(harness, "_fast_seeding", None)
        fast = sweep_bytes("fast")
        assert harness._fast_seeding is True

        writes, state_words = [], harness._state_words

        class SwappedView:
            # The real words with each 128-bit value's halves swapped, as a
            # numpy that stored the high word first would lay them out.
            def __init__(self, bitgen):
                self.words = state_words(bitgen)

            def __array__(self, dtype=None, copy=None):
                return self.words[[1, 0, 3, 2]]

            def __setitem__(self, index, value):
                writes.append(value)

        monkeypatch.setattr(harness, "_fast_seeding", None)
        monkeypatch.setattr(harness, "_state_words", SwappedView)
        assert harness._array_draws_match() is False
        assert sweep_bytes("fallback") == fast
        assert harness._fast_seeding is False
        # Called directly, the array seeder falls back too.
        args = (113, 128, 8, harness._point_key(1.0), 0, 3)
        assert all(np.array_equal(x, y) for x, y in
                   zip(harness._array_draws(*args), harness._loop_draws(*args)))
        assert writes == []


class TestLockstepBatches:
    # tau=1000 abandons every trial, so both points escalate to 4x under a
    # _MAX_TRIALS_FACTOR of 4.
    TAUS = (None, 1.0, 1000.0)

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_batch_size_invariance(self, small_code, tmp_path, monkeypatch, decoder):
        monkeypatch.setattr(harness, "_MAX_TRIALS_FACTOR", 4)
        outputs = []
        for size in (1, 7, 256):
            monkeypatch.setattr(harness, "_BATCH", size)
            res = run_sweep(small_code, self.TAUS, [1.0, 4.0], 40, master_seed=6,
                            decoder=decoder)
            assert len(res.batches[("tau=1000", 0)]) == 160
            outputs.append(_csv_bytes(res, tmp_path, f"b{size}"))
        assert outputs[0] == outputs[1] == outputs[2]

    def test_workers_byte_identity_with_one_pool(self, small_code, tmp_path, monkeypatch):
        starts = []

        class CountingPool(harness.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                starts.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
        monkeypatch.setattr(harness, "_TASK", 40)  # several tasks per block
        monkeypatch.setattr(harness, "_MAX_TRIALS_FACTOR", 4)
        kwargs = dict(code=small_code, taus=self.TAUS, ebn0_points=[1.0, 4.0],
                      trials_per_point=96, master_seed=11)
        serial = run_sweep(workers=1, **kwargs)
        assert not starts
        pooled = run_sweep(workers=2, **kwargs)
        # two points, each a base block and two escalation rounds, one pool
        assert len(starts) == 1
        assert len(pooled.batches[("tau=1000", 1)]) == 384
        assert (_csv_bytes(serial, tmp_path, "serial")
                == _csv_bytes(pooled, tmp_path, "pooled"))

    def test_without_confidence_pooled_equals_serial(self, small_code, monkeypatch):
        monkeypatch.setattr(harness, "_TASK", 40)  # several tasks per block
        monkeypatch.setattr(harness, "_MAX_TRIALS_FACTOR", 4)
        kwargs = dict(code=small_code, taus=self.TAUS, ebn0_points=[1.0, 4.0],
                      trials_per_point=96, master_seed=11)
        serial = run_sweep(workers=1, confidence=False, **kwargs)
        pooled = run_sweep(workers=2, confidence=False, **kwargs)
        assert not serial.confidence and not pooled.confidence
        assert len(pooled.batches[("tau=1000", 1)]) == 384
        _stats_match(serial.stats, pooled.stats)
        _batches_match(serial.batches, pooled.batches)
        assert all(np.isnan(b.llr_bits).all() for b in pooled.batches.values())
        # The same cells and per-trial outcomes as a sweep that keeps the confidence.
        full = run_sweep(workers=1, **kwargs)
        assert full.confidence
        _stats_match(full.stats, serial.stats)
        for key, b in full.batches.items():
            assert np.array_equal(b.outcome, serial.batches[key].outcome)
            assert np.array_equal(b.q, serial.batches[key].q)

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_drops_the_ledger_once_every_tau_closes(self, monkeypatch, decoder):
        # Without confidence a scan keeps its running sum and evaluates the
        # wrong-hit term only while a finite tau is open; its rows then
        # search on with syndromes alone.
        closed, calls, searched_on = [False], [], []
        init, settle = _Scan.__init__, _Scan._settle

        def spy_init(scan, *args):
            closed[0] = False
            init(scan, *args)

        def spy_settle(scan, *args):
            settle(scan, *args)
            closed[0] = not scan.open.any()
            searched_on.append(closed[0] and len(scan.ids) > 0)

        def guarded(real):
            def call(*args):
                assert not closed[0], "the ledger was read after every tau closed"
                calls.append(real.__name__)
                return real(*args)
            return call

        monkeypatch.setattr(_Scan, "__init__", spy_init)
        monkeypatch.setattr(_Scan, "_settle", spy_settle)
        monkeypatch.setattr(_Scan, "_running_sum", guarded(_Scan._running_sum))
        monkeypatch.setattr(softout, "_log_p_incorrect", guarded(softout._log_p_incorrect))
        code = make_rlc(32, 22, seed=3)
        res = run_sweep(code, (None, 0.0, 2.0), [0.0, 2.0], 48, master_seed=5,
                        decoder=decoder, confidence=False)
        monkeypatch.undo()
        assert "_running_sum" in calls and any(searched_on)
        want = run_sweep(code, (None, 0.0, 2.0), [0.0, 2.0], 48, master_seed=5,
                         decoder=decoder)
        _stats_match(want.stats, res.stats)

    def test_pool_size_bounded_by_available_cpus(self, small_code, tmp_path, monkeypatch):
        sizes = []

        class InlinePool:
            """Records its requested size and runs every task in this process."""

            def __init__(self, max_workers=None):
                sizes.append(max_workers)

            def map(self, fn, *iterables):
                return map(fn, *iterables)

            def shutdown(self, wait=True):
                pass

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(harness, "_MAX_TRIALS_FACTOR", 4)
        kwargs = dict(code=small_code, taus=self.TAUS, ebn0_points=[1.0],
                      trials_per_point=96, master_seed=11)
        cpus = harness._cpus()
        assert 1 <= cpus <= os.cpu_count()
        huge = run_sweep(workers=10**9, **kwargs)
        # A pool of one would add a fork and pickling and split nothing.
        assert sizes == ([cpus] if cpus > 1 else [])
        sizes.clear()
        monkeypatch.setattr(harness, "_cpus", lambda: 3)
        run_sweep(workers=10**9, **kwargs)
        run_sweep(workers=2, **kwargs)
        assert sizes == [3, 2]
        serial = run_sweep(workers=1, **kwargs)
        monkeypatch.setattr(harness, "_cpus", lambda: 1)
        one_cpu = run_sweep(workers=10**9, **kwargs)
        assert sizes == [3, 2]
        want = _csv_bytes(serial, tmp_path, "serial")
        assert _csv_bytes(huge, tmp_path, "huge") == want
        assert _csv_bytes(one_cpu, tmp_path, "one_cpu") == want

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_sweep_matches_per_trial_decoding(self, small_code, decoder):
        # Each tau's sweep cell holds what one decode per trial gives under
        # the decoder's pattern order and ledger accounting.
        taus = (None, 1.0, 2.0, -1.0)
        order_kind, accounting = harness.DECODERS[decoder]
        params = ChannelParams(ebn0_db=2.0, rate=small_code.rate)
        acct = None if accounting == "soft" else SoftObservation.from_flip_probs(
            np.zeros(small_code.n, dtype=np.uint8), bsc_crossover(params))
        res = run_sweep(small_code, taus, [2.0], 60, master_seed=4, decoder=decoder)
        for t in range(60):
            cw, obs = _reference_trial(small_code, 2.0, 4, t)
            for tau in taus:
                out = decode(small_code, obs, DecodePolicy(tau=tau, order_kind=order_kind),
                             accounting=acct)
                b = res.batches[(harness._tau_label(tau), 0)]
                if not out.decoded:
                    assert b.outcome[t] == harness.ABANDONED
                else:
                    assert b.outcome[t] == (harness.CORRECT if np.array_equal(out.word, cw)
                                            else harness.INCORRECT)
                assert b.q[t] == out.q
                assert b.llr_bits[t] == out.report.llr_bits

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_ranks_only_rows_that_search(self, monkeypatch, decoder):
        # Query 1 settles a row before any ranking: rows that hit there are
        # never ranked, and the hamming order ranks nothing.
        ranked = []
        argsort = channel._ranks

        def ranks(reliab):
            ranked.append(len(reliab))
            return argsort(reliab)

        monkeypatch.setattr(channel, "_ranks", ranks)
        code = make_rlc(128, 116, seed=1)
        res = run_sweep(code, (None, 0.0, 1.0, 2.0), [8.0], 600, master_seed=3,
                        decoder=decoder)
        searched = res.batches[("tau=none", 0)].q > 1
        assert len(searched) == 600 and 0 < searched.sum() < 100
        assert sum(ranked) == (searched.sum() if decoder == "orbgrand" else 0)


class TestSweepStatistics:
    def test_clean_point(self, small_code):
        res = run_sweep(small_code, (None,), [14.0], 100, master_seed=5)
        st = res.stats[0]
        assert st.n_correct == 100 and st.bler == 0.0
        assert st.abandon_frac == 0.0
        assert st.avg_queries_to_decision == 1.0
        assert st.avg_queries_per_success == 1.0

    def test_counts_consistent_with_batches(self, small_code):
        res = run_sweep(small_code, (None, 0.0), [1.0], 200, master_seed=8)
        for st in res.stats:
            b = res.batches[(st.policy, 0)]
            assert st.trials == len(b)
            assert st.n_correct == int(np.sum(b.outcome == 0))
            assert st.n_incorrect == int(np.sum(b.outcome == 1))
            assert st.n_abandoned == int(np.sum(b.outcome == 2))
            assert st.bler == pytest.approx(
                (st.n_incorrect + st.n_abandoned) / st.trials)
            assert st.nonabandon_frac == pytest.approx(1 - st.abandon_frac)
            assert st.avg_queries_to_decision == pytest.approx(
                b.q.mean())
            if st.n_correct:
                assert st.avg_queries_per_success == pytest.approx(
                    b.q.sum() / st.n_correct)

    def test_escalation_tops_up_starved_policies_only(self, small_code, monkeypatch):
        # a threshold nothing survives keeps escalating to the trial cap;
        # the unthresholded policy stays at the base count
        monkeypatch.setattr(harness, "_MAX_TRIALS_FACTOR", 4)
        res = run_sweep(small_code, (None, 1000.0), [8.0], 50, master_seed=2)
        assert len(res.batches[("tau=1000", 0)]) == 200
        assert len(res.batches[("tau=none", 0)]) == 50
        by_label = {s.policy: s for s in res.stats}
        assert by_label["tau=1000"].trials == 200
        assert by_label["tau=1000"].abandon_frac == 1.0
        assert by_label["tau=none"].trials == 50
        assert res.base_trials == 50

    def test_input_validation(self, small_code, tmp_path, monkeypatch):
        want = run_sweep(small_code, (None, 2.0), [1.0], 20, master_seed=3)
        # numpy integers are integers
        got = run_sweep(small_code, (None, 2.0), [1.0], np.int64(20), master_seed=np.uint8(3))
        assert _csv_bytes(got, tmp_path, "numpy") == _csv_bytes(want, tmp_path, "int")

        def fail(*args, **kwargs):
            raise AssertionError("a block was decoded")

        # a bool or a non-integer count is rejected before anything is built
        monkeypatch.setattr(harness, "_decode_block", fail)
        monkeypatch.setattr(harness, "ChannelParams", fail)
        for trials in (True, np.True_, 10.0, 2.5, "10"):
            with pytest.raises(ValueError, match="trials_per_point must be an integer"):
                run_sweep(small_code, (None,), [1.0], trials, master_seed=1)
        for seed in (True, False, 1.5, 1.0, None):
            with pytest.raises(ValueError, match="master_seed must be an integer"):
                run_sweep(small_code, (None,), [1.0], 10, master_seed=seed)
        for workers in (True, 2.5, 0):
            with pytest.raises(ValueError, match="workers must be an integer"):
                run_sweep(small_code, (None,), [1.0], 10, master_seed=1, workers=workers)
        monkeypatch.undo()
        with pytest.raises(ValueError):
            run_sweep(small_code, (None,), [1.0], 0, master_seed=1)
        with pytest.raises(ValueError):
            run_sweep(small_code, (None,), [1.0], 10, master_seed=-1)
        with pytest.raises(ValueError, match="unique"):
            run_sweep(small_code, (1.0, 1.0), [1.0], 10, master_seed=1)
        with pytest.raises(ValueError, match="empty"):
            run_sweep(small_code, (), [1.0], 10, master_seed=1)
        with pytest.raises(ValueError, match="ebn0_points must not be empty"):
            run_sweep(small_code, (None,), [], 10, master_seed=1)
        with pytest.raises(ValueError, match="finite"):
            run_sweep(small_code, (None, math.nan), [1.0], 10, master_seed=1)
        with pytest.raises(ValueError, match="decoder"):
            run_sweep(small_code, (None,), [1.0], 10, master_seed=1, decoder="fuzzy")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 301.0])
    def test_every_point_checked_before_decoding(self, small_code, bad, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a block was decoded")

        monkeypatch.setattr(harness, "_decode_block", fail)
        with pytest.raises(ValueError, match="ebn0_db must"):
            run_sweep(small_code, (None,), [0.0, bad], 50, master_seed=0)

    def test_labels(self):
        assert harness._tau_label(None) == "tau=none"
        assert harness._tau_label(2.0) == "tau=2"
        assert harness._tau_label(0.5) == "tau=0.5"


class TestBinomialHalfwidth:
    def test_normal_branch(self):
        # 400/1000: z * sqrt(p q / n)
        want = 1.959963984540054 * math.sqrt(0.4 * 0.6 / 1000)
        assert binomial_halfwidth(400, 1000) == pytest.approx(want, rel=1e-12)

    def test_wilson_branch_for_rare_events(self):
        hw = binomial_halfwidth(2, 1000)
        assert 0.001 < hw < 0.01  # usable, neither zero nor huge
        assert binomial_halfwidth(0, 1000) > 0.0  # zero count still informative

    def test_degenerate_inputs(self):
        assert math.isnan(binomial_halfwidth(0, 0))
        assert binomial_halfwidth(500, 1000) > binomial_halfwidth(500, 10000)


class TestGeometricDistance:
    def test_cdf_values(self):
        assert geometric_cdf is softout.geometric_cdf
        assert geometric_cdf(0.5, 1) == pytest.approx(0.5)
        assert geometric_cdf(0.5, 3) == pytest.approx(0.875)
        assert geometric_cdf(0.25, 0) == 0.0
        arr = geometric_cdf(0.5, np.array([1, 2, 3]))
        assert np.allclose(arr, [0.5, 0.75, 0.875])

    def test_true_samples_pass_shifted_fail(self):
        rng = np.random.default_rng(1)
        s = rng.geometric(1 / 256, size=4000)
        assert ks_distance_geometric(s, 1 / 256) < 0.03
        assert ks_distance_geometric(s + 200, 1 / 256) > 0.3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance_geometric(np.array([], dtype=np.int64), 0.5)


class TestErrorQueryDistribution:
    def test_matches_wrong_hit_model_at_deep_noise(self):
        code = make_rlc(24, 16, seed=4)
        d = collect_error_query_distribution(code, -4.0, 300, seed=7)
        assert d.redundancy == 8
        assert len(d.queries) == 300
        assert d.trials >= 300
        assert abs(d.sample_mean - 256) / 256 < 0.15
        assert d.ks_distance < 0.1

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_same_trials_as_a_sweep(self, decoder):
        # fig1 and sweeps draw trial t at a point from the same seed.
        code = make_rlc(24, 16, seed=4)
        d = collect_error_query_distribution(code, -2.0, 20, seed=5, decoder=decoder)
        res = run_sweep(code, (None,), [-2.0], d.trials, master_seed=5, decoder=decoder)
        b = res.batches[(res.policy_labels[0], 0)]
        assert np.array_equal(b.q[b.outcome == harness.INCORRECT], d.queries)
        assert b.outcome[-1] == harness.INCORRECT

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_batch_size_invariance(self, small_code, monkeypatch, decoder):
        # 300 errors take about a thousand trials: several full 256-trial
        # blocks, then blocks shrinking to the errors still missing.
        outputs = []
        for size in (1, 7, 256):
            monkeypatch.setattr(harness, "_BATCH", size)
            d = collect_error_query_distribution(small_code, 0.0, 300, seed=2,
                                                 decoder=decoder)
            outputs.append((d.queries.tolist(), d.trials))
        assert len(outputs[0][0]) == 300 and outputs[0][1] > 512
        assert outputs[0] == outputs[1] == outputs[2]

    # The rate first drops below the floor at trial 55 inside the first
    # block, and at trial 345 inside the second: with 300 errors to collect
    # the first two blocks hold 256 trials each.
    @pytest.mark.parametrize("check_after, min_error_rate", [(50, 0.055), (300, 0.09)])
    def test_error_rate_guard_trips_at_the_same_trial(self, small_code, monkeypatch,
                                                      check_after, min_error_rate):
        res = run_sweep(small_code, (None,), [2.0], 1000, master_seed=1)
        wrong = res.batches[("tau=none", 0)].outcome == harness.INCORRECT
        errors, done = np.cumsum(wrong), np.arange(1, len(wrong) + 1)
        trial = int(np.argmax((done >= check_after) & (errors / done < min_error_rate))) + 1
        rate = errors[trial - 1] / trial
        assert check_after < trial < 512 and trial != 256 and errors[255] <= 44
        want = (f"error rate {rate:.2e} after {trial} trials is below "
                f"{min_error_rate:g}; pick a noisier operating point")
        monkeypatch.setattr(harness, "_CHECK_AFTER", check_after)
        monkeypatch.setattr(harness, "_MIN_ERROR_RATE", min_error_rate)
        with pytest.raises(GuardError) as err:
            collect_error_query_distribution(small_code, 2.0, 300, seed=1)
        assert str(err.value) == want

    @pytest.mark.parametrize("decoder", ["orbgrand", "grand"])
    def test_never_builds_the_confidence_ledger(self, monkeypatch, decoder):
        # fig1 keeps only query counts, so its decodes skip the running sum
        # and the wrong-hit term that the confidence needs.
        def ledger(*args):
            raise AssertionError("fig1 built the confidence ledger")

        monkeypatch.setattr(softout, "_log_p_incorrect", ledger)
        monkeypatch.setattr(softout, "llr_bits", ledger)
        monkeypatch.setattr(_Scan, "_running_sum", ledger)
        code = make_rlc(24, 16, seed=4)
        d = collect_error_query_distribution(code, -2.0, 20, seed=5, decoder=decoder)
        assert len(d.queries) == 20

    def test_histogram_partitions_samples(self):
        code = make_rlc(24, 16, seed=4)
        d = collect_error_query_distribution(code, -4.0, 120, seed=11)
        lo, hi, counts = d.histogram_log2()
        assert counts.sum() == 120
        assert np.array_equal(hi, 2 * lo)
        for a, b, c in zip(lo, hi, counts):
            assert c == int(np.sum((d.queries >= a) & (d.queries < b)))

    def test_clean_channel_guard(self):
        code = make_rlc(16, 8, seed=4)
        with pytest.raises(GuardError):
            collect_error_query_distribution(code, 12.0, 10, seed=1)

    def test_error_rate_guard(self, monkeypatch):
        # demand an absurd error rate so the trial-count guard trips fast
        monkeypatch.setattr(harness, "_CHECK_AFTER", 50)
        monkeypatch.setattr(harness, "_MIN_ERROR_RATE", 0.9999)
        code = make_rlc(16, 8, seed=4)
        with pytest.raises(GuardError):
            collect_error_query_distribution(code, 2.0, 10 ** 6, seed=1)

    def test_target_validation(self):
        code = make_rlc(16, 8, seed=4)
        with pytest.raises(ValueError):
            collect_error_query_distribution(code, 0.0, 0, seed=1)

    def test_decoder_validation(self):
        code = make_rlc(16, 8, seed=4)
        with pytest.raises(ValueError, match="decoder"):
            collect_error_query_distribution(code, 0.0, 5, seed=1, decoder="fuzzy")

    def test_seed_validation(self):
        # A negative seed has no SeedSequence words: splitting it never ends.
        with pytest.raises(ValueError, match="seed"):
            collect_error_query_distribution(make_rlc(16, 8, 1), 0.0, 5, -1)
        for seed in (True, 1.5, 2.0):
            with pytest.raises(ValueError, match="seed must be an integer"):
                collect_error_query_distribution(make_rlc(16, 8, 1), 0.0, 5, seed)
        for target in (True, 5.0, 0):
            with pytest.raises(ValueError, match="target_errors must be an integer"):
                collect_error_query_distribution(make_rlc(16, 8, 1), 0.0, target, 1)
        got = collect_error_query_distribution(make_rlc(16, 8, 1), 0.0, np.int64(5),
                                               np.uint8(1))
        want = collect_error_query_distribution(make_rlc(16, 8, 1), 0.0, 5, 1)
        assert got.queries.tolist() == want.queries.tolist()


class TestDecoderSetup:
    @pytest.mark.parametrize("n, k, ebn0, underflows", [
        (16, 8, 35.0, True), (16, 8, 300.0, True), (128, 116, 29.0, True),
        (128, 116, 28.9, False), (128, 116, -3.0, False)])
    def test_bsc_accounting_reliabilities_are_finite(self, n, k, ebn0, underflows):
        params = ChannelParams(ebn0_db=ebn0, rate=k / n)
        order_kind, acct = harness._decoder_setup("grand", make_rlc(n, k, 1), params)
        assert order_kind == "hamming"
        assert np.isfinite(acct.reliab).all() and (acct.reliab > 0).all()
        p = bsc_crossover(params)
        assert (p == 0) == underflows
        if p > 0:
            # Where the crossover does not underflow its bits are used as is.
            assert acct.reliab.tolist() == [math.log1p(-p) - math.log(p)] * n


class TestExhaustiveOracle:
    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_ledger_matches_brute_force(self, kind):
        from conftest import random_observation
        code = make_rlc(8, 4, seed=3)
        rng = np.random.default_rng(13)
        _, obs = random_observation(code, 2.0, rng)
        rep = oracle_exact_accounting(code, obs, order_kind=kind)
        assert isinstance(rep, OracleReport)
        assert rep.q[0] == 1 and rep.q[-1] == 256
        assert rep.max_correct_deviation < 1e-12
        # complete enumeration exhausts both probability masses
        assert rep.p_correct_exact[-1] == pytest.approx(1.0, abs=1e-12)
        assert rep.p_incorrect_exact[-1] == 1.0
        assert np.all(np.diff(rep.p_correct_exact) >= -1e-15)
        assert np.all(np.diff(rep.p_incorrect_exact) >= 0)
        assert np.all((rep.p_incorrect_model > 0) & (rep.p_incorrect_model < 1))
        assert rep.p_incorrect_model.tolist() == [
            softout.p_incorrect_cum(code.redundancy, int(q)) for q in rep.q]
        assert rep.max_incorrect_deviation < 1.0

    def test_size_guard(self):
        from conftest import random_observation
        code = make_rlc(16, 8, seed=4)
        rng = np.random.default_rng(2)
        _, obs = random_observation(code, 2.0, rng)
        with pytest.raises(ValueError):
            oracle_exact_accounting(code, obs)

    def test_length_guard(self):
        from conftest import random_observation
        rng = np.random.default_rng(2)
        _, obs = random_observation(make_rlc(10, 5, seed=4), 2.0, rng)
        with pytest.raises(ValueError, match="observation length 10 != code length 8"):
            oracle_exact_accounting(make_rlc(8, 4, seed=3), obs)

    def test_shape_guard(self):
        # A (2, 8) observation is two blocks, not a block of length 2.
        with pytest.raises(ValueError, match=r"one block of n bits, got shape \(2, 8\)"):
            oracle_exact_accounting(make_rlc(8, 4, seed=3),
                                    SoftObservation(np.zeros((2, 8), np.uint8), np.ones((2, 8))))

    @pytest.mark.parametrize("kind", ["logistic", "hamming"])
    def test_ledger_is_the_decoders_running_sum(self, kind):
        # decode_batch's confidence at its first hit, and at caps below the
        # hit where it stops AT_CAP, is llr_bits of the oracle's ledger.
        from conftest import random_observation, random_small_code
        rng = np.random.default_rng(97)
        first_query_hits = capped = 0
        for _ in range(250):
            code = random_small_code(rng)
            _, obs = random_observation(code, float(rng.uniform(-2.0, 6.0)), rng)
            ledger = oracle_exact_accounting(code, obs, order_kind=kind).ledger_log
            rows = obs.hard[np.newaxis], obs.reliab[np.newaxis]
            hit = decode_batch(code, *rows, (None,), kind, 1 << code.n)
            q = int(hit.q[0, 0])
            first_query_hits += q == 1
            caps = np.unique(rng.integers(1, q, size=4)).tolist() if q > 1 else []
            for cap in caps:
                got = decode_batch(code, *rows, (None,), kind, cap)
                assert got.status[0, 0] == AT_CAP and got.q[0, 0] == cap
                assert got.llr_bits[0, 0] == softout.llr_bits(code.redundancy, cap,
                                                               ledger[cap - 1])
                capped += 1
            assert hit.status[0, 0] == HIT
            assert hit.llr_bits[0, 0] == softout.llr_bits(code.redundancy, q, ledger[q - 1])
        assert first_query_hits >= 50 and capped >= 400


@pytest.fixture(scope="module")
def sweep(small_code):
    return run_sweep(small_code, (None, 2.0), [1.0, 3.0], 60, master_seed=12)


class TestCsvOutputs:
    def test_sweep_csv_schema_and_reproducibility(self, sweep, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        meta = {"master_seed": 12, "code": "rlc:16:8:4"}
        write_sweep_csv(p1, sweep.stats, meta=meta)
        write_sweep_csv(p2, sweep.stats, meta=meta)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["policy", "ebn0_db", "trials"]
        assert len(lines) == 1 + len(sweep.stats)
        row = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert row["policy"] == "tau=none"
        assert int(row["trials"]) == 60
        assert float(row["bler"]) == pytest.approx(sweep.stats[0].bler,
                                                   rel=1e-11)
        side = json.loads((tmp_path / "a.csv.json").read_text())
        assert side == meta

    def test_sweep_csv_without_meta(self, sweep, tmp_path):
        p = tmp_path / "bare.csv"
        write_sweep_csv(p, sweep.stats)
        assert p.exists() and not (tmp_path / "bare.csv.json").exists()

    def test_trials_csv_rows(self, sweep, tmp_path):
        p = tmp_path / "trials.csv"
        write_trials_csv(p, sweep)
        lines = p.read_text().splitlines()
        assert lines[0] == "policy,ebn0_db,trial,outcome,q,llr_bits,true_noise_found"
        assert len(lines) == 1 + sum(len(b) for b in sweep.batches.values())
        seen = set()
        for line in lines[1:]:
            policy, db, trial, outcome, q, llr, found = line.split(",")
            seen.add(outcome)
            assert policy in ("tau=none", "tau=2")
            assert outcome in ("correct", "incorrect", "abandoned")
            assert int(q) >= 1
            assert found in ("true", "false")
            assert found == ("true" if outcome == "correct" else "false")
            float(llr)  # parses
        assert "correct" in seen

    def test_trials_csv_needs_the_confidence(self, small_code, tmp_path):
        res = run_sweep(small_code, (None, 2.0), [3.0], 20, master_seed=1,
                        confidence=False)
        with pytest.raises(ValueError, match="confidence=False"):
            write_trials_csv(tmp_path / "t.csv", res)
        assert not (tmp_path / "t.csv").exists()

    def test_trials_csv_field_formats(self, tmp_path):
        """Every field as ``str`` / ``format(.12g)`` writes it, NaN included."""
        llrs = [math.nan, -0.0, 1e-300, 12345678.901234567, -3.25, math.nan]
        batch = TrialBatch()
        batch.extend(np.array([0, 1, 2, 2, 0, 1], dtype=np.int8),
                     np.array([1, 7, 1, 65536, 12, 3]), np.array(llrs))
        result = harness.SweepResult(stats=[], batches={("tau=-1.5", 0): batch},
                                     points=[-0.1], policy_labels=["tau=-1.5"],
                                     base_trials=6)
        write_trials_csv(tmp_path / "t.csv", result)
        names = ("correct", "incorrect", "abandoned")
        want = ["policy,ebn0_db,trial,outcome,q,llr_bits,true_noise_found"] + [
            ",".join(["tau=-1.5", format(-0.1, ".12g"), str(t), names[o], str(q),
                      format(llr, ".12g"), "true" if o == 0 else "false"])
            for t, (o, q, llr) in enumerate(zip(batch.outcome, batch.q, llrs))]
        assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"
        assert "tau=-1.5,-0.1,0,correct,1,nan,true" in want

    def test_trials_csv_shared_values_format_per_row(self, tmp_path):
        """Values shared across policies and points format as each row's own."""
        neg_nan = np.array([0xFFF8000000000001], dtype=np.uint64).view(np.float64)[0]
        cells = {
            ("tau=none", 0): [0.0, -0.0, math.nan, 2.5, 0.0, -0.0],
            ("tau=1", 0): [-0.0, 0.0, 2.5, neg_nan, 1 / 3, 0.0],
            ("tau=none", 1): [1 / 3, -0.0, -7.125e-12, math.nan, 0.0, 2.5],
            ("tau=1", 1): [],
        }
        batches = {}
        for key, llrs in cells.items():
            batches[key] = TrialBatch()
            batches[key].extend(np.zeros(len(llrs), dtype=np.int8),
                                np.ones(len(llrs), dtype=np.int64), np.array(llrs))
        result = harness.SweepResult(stats=[], batches=batches, points=[0.5, 2.0],
                                     policy_labels=["tau=none", "tau=1"], base_trials=6)
        write_trials_csv(tmp_path / "t.csv", result)
        got = (tmp_path / "t.csv").read_text().splitlines()[1:]
        want = [format(x, ".12g") for pi in range(2) for lbl in ("tau=none", "tau=1")
                for x in cells[(lbl, pi)]]
        assert [line.split(",")[5] for line in got] == want
        assert {"0", "-0", "nan"} <= set(want)


class TestTrialBatch:
    def test_extend_and_len(self):
        b = TrialBatch()
        assert len(b) == 0
        b.extend(np.array([0, 2], dtype=np.int8), np.array([1, 5]),
                 np.array([0.5, -1.0]))
        b.extend(np.array([1], dtype=np.int8), np.array([9]), np.array([2.0]))
        assert len(b) == 3
        assert b.q.tolist() == [1, 5, 9]

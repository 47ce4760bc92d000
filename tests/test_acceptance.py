"""End-to-end acceptance gates.

Eight criteria, one test and one printed pass/fail line each.  The heavy
Monte Carlo inputs (a 17-point threshold sweep and two 30000-trial
operating points) are module-scoped fixtures, so the whole file costs one
sweep no matter how the tests are ordered.  All tolerances are pinned
in-line next to the asserts.
"""

import math
import time

import numpy as np
import pytest

from softgrand.channel import (ChannelParams, capacity_markers,
                               flip_probability, transmit)
from softgrand.codes import encode, is_codeword, make_crc, make_rlc
from softgrand.decoder import DecodePolicy, decode
from softgrand.harness import (collect_error_query_distribution,
                               oracle_exact_accounting, run_sweep)
from softgrand.patterns import QueryOrder, query_patterns

SWEEP_POINTS = tuple(0.5 * i for i in range(17))  # 0.0 .. 8.0 dB
SWEEP_TRIALS = 3000
SWEEP_SEED = 20240815
POINT_TRIALS = 30000
POINT_SEED = 2024
DIST_ERRORS = 2000
DIST_SEED = 99


def _emit(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def code128():
    return make_rlc(128, 116, seed=1)


@pytest.fixture(scope="module")
def markers(code128):
    return capacity_markers(code128.rate)


@pytest.fixture(scope="module")
def sweep(code128):
    return run_sweep(code128, (None, 0.0, 1.0, 2.0), SWEEP_POINTS, SWEEP_TRIALS,
                     SWEEP_SEED)


def _by_cell(sweep):
    return {(s.policy, s.ebn0_db): s for s in sweep.stats}


def test_criterion_1_ledger_matches_exhaustive_oracle(capsys):
    code = make_rlc(8, 4, seed=3)
    rng = np.random.default_rng(5)
    msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
    obs = transmit(encode(code, msg),
                   ChannelParams(ebn0_db=2.0, rate=code.rate), rng)
    t0 = time.perf_counter()
    rep = oracle_exact_accounting(code, obs)
    elapsed = time.perf_counter() - t0
    dev = rep.max_correct_deviation
    ok = len(rep.q) == 256 and dev < 1e-10 and elapsed < 1.0
    _emit(capsys, 1, ok,
          f"max |ledger - exhaustive| = {dev:.3e} over q in [1, 256] "
          f"(tolerance 1e-10), runtime {elapsed:.3f}s (< 1s)")


def test_criterion_2_wrong_hit_queries_are_geometric(code128, capsys):
    crc = make_crc(64, 52, 0xBAE)
    lines = []
    ok = True
    for label, code, ebn0_db in (("crc:64:52:0xbae", crc, -3.0),
                                 ("rlc:128:116:1", code128, 0.0)):
        d = collect_error_query_distribution(code, ebn0_db, DIST_ERRORS,
                                             seed=DIST_SEED)
        rel = abs(d.sample_mean - 4096.0) / 4096.0
        ok &= len(d.queries) >= 2000 and rel <= 0.15 and d.ks_distance < 0.05
        lines.append(f"{label} @ {ebn0_db:g} dB: mean={d.sample_mean:.1f} "
                     f"(4096 +-15%), KS={d.ks_distance:.4f} (< 0.05), "
                     f"n={len(d.queries)}")
    _emit(capsys, 2, ok, "; ".join(lines))


def test_criterion_3_confidence_is_calibrated(sweep, capsys):
    checked = 0
    worst = math.inf
    ok = True
    for st in sweep.stats:
        if st.policy == "tau=none":
            continue
        tau = float(st.policy.split("=")[1])
        nonab = st.n_correct + st.n_incorrect
        if nonab < 100:
            continue
        floor = 2.0 ** tau / (2.0 ** tau + 1.0)
        se = math.sqrt(st.success_cond * (1.0 - st.success_cond) / nonab)
        margin = st.success_cond - (floor - 3.0 * se)
        worst = min(worst, margin)
        ok &= margin >= 0.0
        checked += 1
    ok &= checked > 0
    _emit(capsys, 3, ok,
          f"conditional correctness >= 2^tau/(2^tau+1) - 3 SE at all "
          f"{checked} cells with >= 100 non-abandoned decodings "
          f"(worst margin {worst:+.4f})")


def test_criterion_4_degraded_point_two_bit_threshold(code128, markers, capsys):
    point = markers["shannon_ebn0_db"] - 3.0
    res = run_sweep(code128, (2.0,), [point], POINT_TRIALS,
                    POINT_SEED)
    st = res.stats[0]
    ok = (0.005 <= st.nonabandon_frac <= 0.02
          and 0.70 <= st.success_cond <= 0.95)
    _emit(capsys, 4, ok,
          f"at {point:.4f} dB (capacity marker - 3 dB), tau=2: "
          f"nonabandon_frac={st.nonabandon_frac:.5f} (in [0.005, 0.02]), "
          f"success_cond={st.success_cond:.4f} (in [0.70, 0.95]), "
          f"{st.trials} trials")


def test_criterion_5_min_capacity_point_zero_bit_threshold(code128, markers,
                                                           capsys):
    point = markers["mincap_ebn0_db"]
    res = run_sweep(code128, (0.0,), [point], POINT_TRIALS,
                    POINT_SEED)
    st = res.stats[0]
    ok = (0.005 <= st.nonabandon_frac <= 0.02
          and 0.40 <= st.success_cond <= 0.60)
    _emit(capsys, 5, ok,
          f"at {point:.4f} dB (min-capacity marker), tau=0: "
          f"nonabandon_frac={st.nonabandon_frac:.5f} (in [0.005, 0.02]), "
          f"success_cond={st.success_cond:.4f} (in [0.40, 0.60]), "
          f"{st.trials} trials")


def test_criterion_6_reliable_regime_unchanged_by_abandonment(sweep, capsys):
    by = _by_cell(sweep)
    reliable = [db for db in sweep.points
                if by[("tau=none", db)].bler < 1e-3]
    ok = len(reliable) > 0
    discrepancies = 0
    base = sweep.base_trials
    for db in reliable:
        pi = sweep.points.index(db)
        ref = by[("tau=none", db)]
        out_none = sweep.batches[("tau=none", pi)].outcome[:base]
        for lbl in ("tau=0", "tau=1", "tau=2"):
            st = by[(lbl, db)]
            overlap = (abs(ref.bler - st.bler)
                       <= ref.bler_half + st.bler_half)
            out_tau = sweep.batches[(lbl, pi)].outcome[:base]
            diff = out_none != out_tau
            # any outcome change must be an error turned into abandonment
            accounted = bool(np.all((out_none[diff] == 1)
                                    & (out_tau[diff] == 2)))
            discrepancies += int(np.count_nonzero(diff))
            ok &= overlap and accounted
    _emit(capsys, 6, ok,
          f"{len(reliable)} points with tau=none BLER < 1e-3 "
          f"({', '.join(format(db, 'g') for db in reliable)} dB): "
          f"BLER confidence intervals overlap for tau in {{0,1,2}} and all "
          f"{discrepancies} paired outcome changes are incorrect->abandoned")


def test_criterion_7_search_cost_collapses_under_threshold(sweep, capsys):
    by = _by_cell(sweep)
    deep = [db for db in sweep.points if by[("tau=none", db)].bler >= 0.99]
    ok = len(deep) > 0
    lines = []
    for db in deep:
        a_none = by[("tau=none", db)].avg_queries_to_decision
        a_two = by[("tau=2", db)].avg_queries_to_decision
        rel = abs(a_none - 4096.0) / 4096.0
        ok &= rel <= 0.15 and a_two <= a_none / 5.0
        lines.append(f"{db:g} dB: avg queries {a_none:.0f} (4096 +-15%) vs "
                     f"{a_two:.2f} under tau=2 (>= 5x lower)")
    _emit(capsys, 7, ok,
          f"{len(deep)} deep-noise points (tau=none BLER >= 0.99): "
          + "; ".join(lines))


def test_criterion_8_property_suites(capsys):
    t0 = time.perf_counter()
    ok = True
    notes = []

    # exhaustive bijectivity and weight monotonicity of the query orders
    for kind in ("hamming", "logistic"):
        for n in range(2, 13):
            seen = set()
            prev_w = -1
            for pat in query_patterns(QueryOrder(kind, n)):
                seen.add(pat.positions)
                ok &= pat.weight >= prev_w
                prev_w = pat.weight
            ok &= len(seen) == 1 << n
    notes.append("query orders bijective + weight-monotone for n <= 12")

    # analytic flip-probability points
    ok &= flip_probability(0.0) == pytest.approx(0.5, rel=1e-15)
    ok &= flip_probability(math.log(3.0)) == pytest.approx(0.25, rel=1e-14)
    ok &= flip_probability(5.0) == pytest.approx(0.0066928509242848556,
                                                 rel=1e-14)
    ok &= flip_probability(40.0) == pytest.approx(4.248354255291589e-18,
                                                  rel=1e-12)
    notes.append("flip probability analytic points")

    # code books contain exactly 2^k words
    for code in (make_rlc(8, 4, seed=3), make_rlc(12, 7, seed=1),
                 make_crc(8, 5, 0x5)):
        count = 0
        for w in range(1 << code.n):
            word = np.array([(w >> i) & 1 for i in range(code.n)],
                            dtype=np.uint8)
            count += is_codeword(code, word)
        ok &= count == 1 << code.k
    notes.append("code book cardinality 2^k")

    # threshold monotonicity under common random numbers, 10^4 replays
    code = make_rlc(16, 8, seed=4)
    rng = np.random.default_rng(31)
    params = ChannelParams(ebn0_db=1.0, rate=code.rate)
    ladder = [None, 0.0, 1.0, 2.0]
    violations = 0
    for _ in range(10_000):
        msg = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        obs = transmit(encode(code, msg), params, rng)
        results = [decode(code, obs, DecodePolicy(tau=t)) for t in ladder]
        base = results[0]
        for lo, hi in zip(results[1:], results[2:]):
            if not lo.decoded and (hi.decoded or hi.q > lo.q):
                violations += 1
        for res in results[1:]:
            if res.decoded and not (res.q == base.q
                                    and np.array_equal(res.word, base.word)):
                violations += 1
    ok &= violations == 0
    notes.append(f"threshold monotonicity over 10^4 replays "
                 f"({violations} violations)")

    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    _emit(capsys, 8, ok,
          "; ".join(notes) + f"; total runtime {elapsed:.1f}s (< 60s)")

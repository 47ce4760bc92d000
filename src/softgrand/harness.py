"""Monte Carlo experiment engine: seeded sweeps, statistics, and oracles.

Each run names one decoder (``DECODERS``) and a list of abandonment
thresholds tau.  Each trial draws a uniform message, encodes, transmits,
and decodes the identical observation under every tau (common random
numbers), so threshold comparisons are paired.  Trial seeds derive from
SeedSequence((master_seed, point_key, trial_index)) where point_key is the
bit pattern of the Eb/N0 value (-0.0 counts as 0.0), making any cell
reproducible from its (master_seed, point, trial range) alone, independent
of sweep layout.

Sweeps and fig1 run trials in lockstep batches: each trial's message and
noise are drawn from its own seed, then the batch is encoded, transmitted
and decoded as whole arrays.  The draws are default_rng's bits, but
SeedSequence's hash-mix and PCG64's seeding run over the whole batch as
uint32 and uint64 arrays, and one reused PCG64 takes each trial's state in
turn through a view of its state memory; a first-use check against
default_rng falls back to one generator per trial if numpy's internals
differ.  Each batch gets one ``decode_batch`` call under all the taus,
which runs every trial's search as (trials, queries) arrays until the
last trial stops.  fig1 decodes the trials of a tau=None sweep at its
point.
Results do not depend on the batch size or the worker count.

Points where a threshold abandons almost everything escalate their trial
count (up to a cap) until conditional statistics have enough non-abandoned
events to be meaningful; escalation rounds decode only the taus still
short of events.

``geometric_cdf``, used by the fig1 fit test, lives in ``softout`` and is
re-exported here.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import astuple, dataclass, field, fields
from itertools import repeat

import numpy as np

from . import softout
# transmit and decode are not called here; they stay module names only
# because perfbench/spans.py wraps them, with encode, to trace a run.
from .channel import (ChannelParams, SoftObservation, bsc_crossover, transmit,
                      transmit_arrays)
from .codes import encode
from .decoder import _check_tau, decode, decode_batch
from .patterns import QueryOrder, order_table
from .softout import geometric_cdf

__all__ = [
    "DECODERS",
    "GuardError",
    "TrialBatch",
    "SweepStats",
    "SweepResult",
    "run_sweep",
    "ErrorQueryDistribution",
    "collect_error_query_distribution",
    "OracleReport",
    "oracle_exact_accounting",
    "binomial_halfwidth",
    "geometric_cdf",
    "ks_distance_geometric",
    "write_sidecar",
    "write_sweep_csv",
    "write_trials_csv",
]

CORRECT, INCORRECT, ABANDONED = 0, 1, 2
_OUTCOME_NAMES = ("correct", "incorrect", "abandoned")
# true_noise_found column of trials.csv, by outcome code
_FOUND = ("true", "false", "false")

# Decoder name -> (pattern order, ledger accounting): ORBGRAND with soft
# accounting, or GRAND with hard-detection (BSC) accounting.
DECODERS = {
    "orbgrand": ("logistic", "soft"),
    "grand": ("hamming", "bsc"),
}

# Trials per lockstep batch.  Fixed, so that the memory a block holds does
# not grow with the block: escalation blocks reach thousands of trials.
_BATCH = 256
# Trials per pool task.
_TASK = 512
# A sweep point escalates while a tau abandons more than this share of its
# trials and has fewer than _MIN_CONDITIONAL_EVENTS non-abandoned ones, up
# to _MAX_TRIALS_FACTOR times the base trial count.
_ESCALATE_ABANDON_FRAC = 0.98
_MIN_CONDITIONAL_EVENTS = 100
_MAX_TRIALS_FACTOR = 8
# fig1 refuses points whose hard-decision crossover is below this: a clean
# channel produces almost no incorrect decodings.
_MIN_CROSSOVER = 1e-3
# fig1 aborts if, at any trial from _CHECK_AFTER on, the share of incorrect
# decodings so far is below _MIN_ERROR_RATE.
_MIN_ERROR_RATE = 1e-4
_CHECK_AFTER = 20000


class GuardError(RuntimeError):
    """A statistical precondition failed; results would be meaningless."""


def _point_key(ebn0_db):
    # Bit pattern of the float, so the key identifies the point by value;
    # adding 0.0 turns -0.0 into 0.0.
    return int((np.float64(ebn0_db) + 0.0).view(np.uint64))


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has CPU affinity
        return os.cpu_count() or 1


def _count(name, value, least):
    """``value`` as an int, if it is an integer >= ``least`` and not a bool.

    A numpy integer becomes a Python int, whose seed words do not wrap.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _tau_label(tau):
    """The policy name of a threshold in sweep outputs: tau=none, tau=2, ..."""
    return "tau=none" if tau is None else f"tau={tau:g}"


@dataclass
class TrialBatch:
    """Columnar per-trial results for one (policy, point) cell.

    outcome holds codes 0=correct, 1=incorrect, 2=abandoned; llr_bits is
    NaN when the decoder produced no confidence report.
    """

    outcome: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int8))
    q: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    llr_bits: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def extend(self, outcome, q, llr_bits):
        self.outcome = np.concatenate([self.outcome, outcome])
        self.q = np.concatenate([self.q, q])
        self.llr_bits = np.concatenate([self.llr_bits, llr_bits])

    def __len__(self):
        return len(self.outcome)


def binomial_halfwidth(x, n):
    """95% half-width for a binomial proportion x/n.

    Normal approximation once both outcome counts reach 30; Wilson interval
    half-width below that, which stays usable for rare events.
    """
    if n <= 0:
        return math.nan
    z = 1.959963984540054
    p = x / n
    if min(x, n - x) >= 30:
        return z * math.sqrt(p * (1.0 - p) / n)
    denom = 1.0 + z * z / n
    return z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / denom


@dataclass(frozen=True)
class SweepStats:
    """Aggregates for one (policy, Eb/N0) cell.

    bler counts abandonment as error; the _cond variants restrict to
    non-abandoned trials.  avg_queries_per_success is the total number of
    queries spent across all trials (including failures and abandonments)
    divided by the number of correct decodings, NaN when nothing succeeded.
    """

    policy: str
    ebn0_db: float
    trials: int
    n_correct: int
    n_incorrect: int
    n_abandoned: int
    bler: float
    bler_half: float
    bler_cond: float
    bler_cond_half: float
    success: float
    success_cond: float
    success_cond_half: float
    abandon_frac: float
    abandon_frac_half: float
    nonabandon_frac: float
    avg_queries_to_decision: float
    avg_queries_per_success: float


def _stats_from_batch(label, ebn0_db, batch):
    n = len(batch)
    nc = int(np.count_nonzero(batch.outcome == CORRECT))
    ni = int(np.count_nonzero(batch.outcome == INCORRECT))
    na = int(np.count_nonzero(batch.outcome == ABANDONED))
    nonab = nc + ni
    total_q = int(batch.q.sum())
    return SweepStats(
        policy=label,
        ebn0_db=float(ebn0_db),
        trials=n,
        n_correct=nc,
        n_incorrect=ni,
        n_abandoned=na,
        bler=(ni + na) / n,
        bler_half=binomial_halfwidth(ni + na, n),
        bler_cond=ni / nonab if nonab else math.nan,
        bler_cond_half=binomial_halfwidth(ni, nonab) if nonab else math.nan,
        success=nc / n,
        success_cond=nc / nonab if nonab else math.nan,
        success_cond_half=binomial_halfwidth(nc, nonab) if nonab else math.nan,
        abandon_frac=na / n,
        abandon_frac_half=binomial_halfwidth(na, n),
        nonabandon_frac=nonab / n,
        avg_queries_to_decision=total_q / n,
        avg_queries_per_success=total_q / nc if nc else math.nan,
    )


# SeedSequence's hash-mix constants, pool size and PCG64's multiplier, as
# numpy's bit_generator.pyx and pcg64.h define them.
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = 16
_POOL = 4
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Whether _array_draws gives _loop_draws' bits with this numpy; None until
# the first batch of the process checks.
_fast_seeding = None


def _words(value):
    """A nonnegative int as SeedSequence splits it: little-endian 32-bit words."""
    words = [value & _M32]
    while value >> 32:
        value >>= 32
        words.append(value & _M32)
    return words


def _hash_consts(init, mult, count):
    """The hash constant before each of ``count`` hashes, and after the last."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return np.array(consts, dtype=np.uint32)


def _seed_states(entropy):
    """``SeedSequence(row).generate_state(4, uint64)`` of each row of entropy words.

    ``entropy`` is a (rows, words) uint32 array.  The hash-mix runs down its
    columns in uint32 arithmetic, which wraps as numpy's C code does.  The
    hash constant advances once per hashed word whatever the data, so one
    sequence of constants serves every row.
    """
    rows, width = entropy.shape
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(width - _POOL, 0))
    used = 0

    def hashmix(value, count):
        # Hash ``value`` under the next ``count`` constants, one per column.
        nonlocal used
        value = (value ^ consts[used:used + count]) * consts[used + 1:used + count + 1]
        used += count
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        out = _MIX_MULT_L * x - _MIX_MULT_R * y
        return out ^ (out >> _XSHIFT)

    # Entropy shorter than the pool is padded with hashes of 0.
    pool = np.zeros((rows, _POOL), dtype=np.uint32)
    pool[:, :width] = entropy[:, :_POOL]
    pool = hashmix(pool, _POOL)
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        pool[:, dst] = mix(pool[:, dst], hashmix(pool[:, src, np.newaxis], _POOL - 1))
    for src in range(_POOL, width):
        pool = mix(pool, hashmix(entropy[:, src, np.newaxis], _POOL))
    consts = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
    state = (np.concatenate((pool, pool), axis=1) ^ consts[:-1]) * consts[1:]
    state ^= state >> _XSHIFT
    return state.astype("<u4", copy=False).view("<u8")


def _limbs(value):
    """A 128-bit int as uint64 (low, high) words."""
    return np.uint64(value & (1 << 64) - 1), np.uint64(value >> 64)


_U1, _U32, _U63 = np.uint64(1), np.uint64(32), np.uint64(63)
_LO32 = np.uint64(_M32)
_MULT_LO, _MULT_HI = _limbs(_PCG_MULT)


def _mul_hi(x, y):
    """The high 64 bits of each 64x64-bit product, from 32-bit halves."""
    x0, x1, y0, y1 = x & _LO32, x >> _U32, y & _LO32, y >> _U32
    lo, cross = x0 * y0, x1 * y0
    mid = (lo >> _U32) + (cross & _LO32) + x0 * y1
    return x1 * y1 + (cross >> _U32) + (mid >> _U32)


def _add128(a_lo, a_hi, b_lo, b_hi):
    """(a + b) mod 2^128 on (low, high) uint64 words."""
    lo = a_lo + b_lo
    return lo, a_hi + b_hi + (lo < a_lo)


def _pcg_states(seeds):
    """PCG64's (state, inc) for each row of ``generate_state(4, uint64)`` words.

    ``seeds`` is a (rows, 4) uint64 array of words s0..s3; the result is a
    (rows, 4) uint64 array of state low, state high, inc low and inc high
    words.  PCG64 seeds as pcg64.h's ``pcg64_srandom_r``: inc is s2:s3
    shifted up one with the low bit set, and from state 0 it steps (to
    inc), adds s0:s1 and steps again, all mod 2^128.
    """
    s0, s1, s2, s3 = seeds.T
    out = np.empty(seeds.shape, dtype=np.uint64)
    inc_lo, inc_hi = out[:, 2], out[:, 3]
    inc_lo[:] = s3 << _U1 | _U1
    inc_hi[:] = s2 << _U1 | s3 >> _U63
    lo, hi = _add128(inc_lo, inc_hi, s1, s0)
    out[:, 0], out[:, 1] = _add128(
        lo * _MULT_LO, _mul_hi(lo, _MULT_LO) + lo * _MULT_HI + hi * _MULT_LO, inc_lo, inc_hi)
    return out


def _trial_states(master_seed, point_key, lo, hi):
    """``_pcg_states`` of trials [lo, hi), seeded by (master_seed, point_key, trial)."""
    prefix = _words(master_seed) + _words(point_key)
    states = np.empty((hi - lo, 4), dtype=np.uint64)
    a = lo
    while a < hi:
        # Trials of one word count share an entropy width; a trial of
        # 2^32 or more adds a word.
        width = len(_words(a))
        b = min(hi, 1 << 32 * width)
        trials = np.arange(a, b, dtype=np.uint64)
        entropy = np.empty((b - a, len(prefix) + width), dtype=np.uint32)
        entropy[:, :len(prefix)] = prefix
        for j in range(width):
            entropy[:, len(prefix) + j] = trials >> np.uint64(32 * j) & _LO32
        states[a - lo:b - lo] = _pcg_states(_seed_states(entropy))
        a = b
    return states


# A PCG64 state whose four words differ, to check the state view against.
_PROBE_STATE = {"state": 0x0123456789ABCDEF_FEDCBA9876543211,
                "inc": 0x1122334455667788_99AABBCCDDEEFF01}


def _state_words(bitgen):
    """A uint64 view of the four words of ``bitgen``'s ``pcg64_random_t``.

    ``bitgen.ctypes.state_address`` points at numpy's ``pcg64_state``,
    whose first member points at the generator's state and inc.
    """
    import ctypes  # numpy has loaded it already
    address = ctypes.c_void_p.from_address(bitgen.ctypes.state_address).value
    return np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64)


def _state_view(bitgen):
    """``_state_words(bitgen)`` if it reads back ``_pcg_states``' layout, else None.

    A state is set through the public ``state`` setter and read back
    through the view; nothing is written through the view here.
    """
    words = _state_words(bitgen)
    bitgen.state = {"bit_generator": "PCG64", "state": _PROBE_STATE,
                    "has_uint32": 0, "uinteger": 0}
    want = [*_limbs(_PROBE_STATE["state"]), *_limbs(_PROBE_STATE["inc"])]
    return words if np.array_equal(words, np.array(want, dtype=np.uint64)) else None


def _array_draws(k, n, master_seed, point_key, lo, hi):
    """``_loop_draws``' messages and noise from one hash-mix per batch.

    Every trial's PCG64 state comes from array arithmetic over the batch
    and is written through a view of one reused bit generator's state.
    ``integers(0, 2, k, uint8)`` returns the top bit of each little-endian
    byte of the raw output, so the messages come from ``random_raw`` words
    in one shift; the noise is the generator's ``standard_normal``, which
    reads whole uint64s.  Should the view not read back a state set through
    the public setter, ``_loop_draws`` draws the batch instead.
    """
    bitgen = np.random.PCG64(0)
    words = _state_view(bitgen)
    if words is None:
        return _loop_draws(k, n, master_seed, point_key, lo, hi)
    nraw = -(-k // 8)
    raw = np.empty((hi - lo, nraw), dtype=np.uint64)
    noise = np.empty((hi - lo, n))
    random_raw = bitgen.random_raw
    normal = np.random.Generator(bitgen).standard_normal
    for i, state in enumerate(_trial_states(master_seed, point_key, lo, hi)):
        words[:] = state
        raw[i] = random_raw(nraw)
        normal(out=noise[i])
    msgs = raw.astype("<u8", copy=False).view(np.uint8)[:, :k] >> 7
    return msgs, noise


def _loop_draws(k, n, master_seed, point_key, lo, hi):
    """Messages (trials, k) and noise (trials, n), one default_rng per trial."""
    msgs = np.empty((hi - lo, k), dtype=np.uint8)
    noise = np.empty((hi - lo, n))
    for i, trial in enumerate(range(lo, hi)):
        rng = np.random.default_rng(np.random.SeedSequence((master_seed, point_key, trial)))
        msgs[i] = rng.integers(0, 2, size=k, dtype=np.uint8)
        noise[i] = rng.standard_normal(n)
    return msgs, noise


def _array_draws_match():
    """Whether ``_array_draws`` gives ``_loop_draws``' bits with this numpy.

    First the state view must read back a state set through the public
    setter, so nothing is written through a view of the wrong layout.
    Then two trials: one with entropy shorter than the pool and one longer.
    """
    if _state_view(np.random.PCG64(0)) is None:
        return False
    probes = [(113, 128, 0, 0, 0, 1),
              (113, 128, 2**64 + 5, _point_key(1.115278), 2**32 + 1, 2**32 + 2)]
    return all(np.array_equal(x, y) for args in probes
               for x, y in zip(_array_draws(*args), _loop_draws(*args)))


def _trial_batch(code, params, master_seed, point_key, lo, hi):
    """Code words and (hard, reliab) arrays of trials [lo, hi) at one point.

    Each trial draws its message, then its noise, from its own seed, as
    ``default_rng(SeedSequence((master_seed, point_key, trial)))`` would:
    ``_array_draws`` seeds the whole batch with array operations, and
    ``_loop_draws`` builds one generator per trial where the first-use check
    finds that numpy's internals differ.  The rest is whole-array work, so a
    trial's bits do not depend on the batch.
    """
    global _fast_seeding
    if _fast_seeding is None:
        _fast_seeding = _array_draws_match()
    draws = _array_draws if _fast_seeding else _loop_draws
    msgs, noise = draws(code.k, code.n, master_seed, point_key, lo, hi)
    cws = encode(code, msgs)
    return cws, transmit_arrays(cws, noise, params)


def _decoder_setup(decoder, code, params):
    """``decoder``'s pattern order and accounting observation (None if soft) at a point."""
    order_kind, accounting = DECODERS[decoder]
    # BSC accounting: one constant-crossover observation serves every trial.
    # Clamped as flip_probability clamps: the crossover underflows at high Eb/N0.
    return order_kind, None if accounting == "soft" else SoftObservation.from_flip_probs(
        np.zeros(code.n, dtype=np.uint8),
        max(bsc_crossover(params), np.finfo(float).smallest_subnormal))


def _decode_block(code, params, taus, decoder, master_seed, point_key, lo, hi,
                  confidence=True):
    """Run trials [lo, hi) at one point under each of ``taus``.

    Returns (outcome, q, llr_bits) arrays of shape (len(taus), hi - lo).
    With ``confidence=False`` the decoder reports no confidence and
    ``llr_bits`` stays NaN; once no finite tau is open the trials then
    decode on syndromes alone.
    """
    order_kind, acct = _decoder_setup(decoder, code, params)
    shape = (len(taus), hi - lo)
    outcome = np.empty(shape, dtype=np.int8)
    q = np.empty(shape, dtype=np.int64)
    llr_bits = np.full(shape, math.nan)
    for b_lo in range(lo, hi, _BATCH):
        b_hi = min(b_lo + _BATCH, hi)
        cws, (hard, reliab) = _trial_batch(code, params, master_seed, point_key,
                                           b_lo, b_hi)
        rows = slice(b_lo - lo, b_hi - lo)
        res = decode_batch(code, hard, reliab, taus, order_kind,
                           accounting=acct, confidence=confidence)
        correct = (res.words == cws).all(axis=1)
        outcome[:, rows] = np.where(res.decoded, np.where(correct, CORRECT, INCORRECT),
                                    ABANDONED)
        q[:, rows] = res.q
        if confidence:
            llr_bits[:, rows] = res.llr_bits
    return outcome, q, llr_bits


@dataclass
class SweepResult:
    """Everything a sweep produced: aggregates plus per-trial batches.

    ``stats`` is ordered point-major, tau-minor.  ``batches`` maps
    (policy_label, point_index) to a TrialBatch whose first
    ``base_trials`` entries are common-random-number paired across all
    taus at that point; escalation trials follow.  ``confidence`` says
    whether the batches carry ``llr_bits``; without it they hold NaN.
    """

    stats: list
    batches: dict
    points: list
    policy_labels: list
    base_trials: int
    confidence: bool = True


def run_sweep(code, taus, ebn0_points, trials_per_point, master_seed, workers=1,
              decoder="orbgrand", confidence=True):
    """Decode seeded trials at every (tau, Eb/N0) cell and aggregate.

    ``taus`` lists abandonment thresholds in bits, None for never abandon.
    With ``confidence=False`` the batches' ``llr_bits`` stay NaN, and each
    search keeps its running log-mass only while a finite tau may still
    abandon it; ``stats``, outcomes and query counts are the same either way.
    """
    trials_per_point = _count("trials_per_point", trials_per_point, 1)
    master_seed = _count("master_seed", master_seed, 0)
    workers = _count("workers", workers, 1)
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    if not taus:
        raise ValueError("taus must not be empty")
    for tau in taus:
        _check_tau(tau)
    labels = [_tau_label(t) for t in taus]
    if len(set(labels)) != len(labels):
        raise ValueError(f"policy labels must be unique, got {labels}")

    points = [float(e) for e in ebn0_points]
    if not points:
        raise ValueError("ebn0_points must not be empty")
    # Every point is checked before the first block decodes.
    point_params = [ChannelParams(ebn0_db=e, rate=code.rate) for e in points]
    batches = {(lbl, pi): TrialBatch() for lbl in labels for pi in range(len(points))}
    stats = []
    # One pool serves every block of the sweep, so each worker builds its
    # order table once; it starts with the first block large enough to split,
    # with no more workers than the CPUs this process may use.  A pool of one
    # would only add a fork and pickling, so then every block runs here.
    pool_size = min(workers, _cpus())
    pool = None
    try:
        for pi, (ebn0_db, params) in enumerate(zip(points, point_params)):
            key = _point_key(ebn0_db)

            def run_block(lo, hi, active):
                nonlocal pool
                args = (code, params, [taus[j] for j in active], decoder, master_seed, key)
                if pool_size <= 1 or hi - lo < 64:
                    parts = [_decode_block(*args, lo, hi, confidence)]
                else:
                    if pool is None:
                        pool = ProcessPoolExecutor(max_workers=pool_size)
                    edges = list(range(lo, hi, _TASK)) + [hi]
                    parts = pool.map(_decode_block, *map(repeat, args),
                                     edges[:-1], edges[1:], repeat(confidence))
                for part in parts:
                    for j, cols in zip(active, zip(*part)):
                        batches[(labels[j], pi)].extend(*cols)

            run_block(0, trials_per_point, range(len(taus)))
            total = trials_per_point
            cap = trials_per_point * _MAX_TRIALS_FACTOR
            while total < cap:
                deficits = []
                for j, lbl in enumerate(labels):
                    b = batches[(lbl, pi)]
                    nonab = int(np.count_nonzero(b.outcome != ABANDONED))
                    frac_ab = int(np.count_nonzero(b.outcome == ABANDONED)) / len(b)
                    if frac_ab > _ESCALATE_ABANDON_FRAC and nonab < _MIN_CONDITIONAL_EVENTS:
                        deficits.append(j)
                if not deficits:
                    break
                nxt = min(2 * total, cap)
                run_block(total, nxt, deficits)
                total = nxt

            for lbl in labels:
                stats.append(_stats_from_batch(lbl, ebn0_db, batches[(lbl, pi)]))
    finally:
        if pool is not None:
            pool.shutdown()

    return SweepResult(stats=stats, batches=batches, points=points,
                       policy_labels=labels, base_trials=trials_per_point,
                       confidence=confidence)


def ks_distance_geometric(samples, p):
    """Sup distance between the empirical CDF of samples and Geometric(p)."""
    vals, counts = np.unique(np.asarray(samples, dtype=np.int64), return_counts=True)
    n = counts.sum()
    if n == 0:
        raise ValueError("no samples")
    hi = np.cumsum(counts) / n
    lo = hi - counts / n
    return float(max(np.abs(hi - geometric_cdf(p, vals)).max(),
                     np.abs(lo - geometric_cdf(p, vals - 1)).max()))


@dataclass
class ErrorQueryDistribution:
    """Query counts observed at incorrect decodings, plus run bookkeeping."""

    queries: np.ndarray
    trials: int
    redundancy: int
    ebn0_db: float
    seed: int

    @property
    def sample_mean(self):
        return float(self.queries.mean())

    @property
    def ks_distance(self):
        return ks_distance_geometric(self.queries, 2.0 ** -self.redundancy)

    def histogram_log2(self):
        """Counts over bins [2^j, 2^(j+1)); returns (lo, hi, count) arrays."""
        top = int(np.max(self.queries))
        nbins = max(1, top.bit_length())
        lo = 2 ** np.arange(nbins, dtype=np.int64)
        j = np.floor(np.log2(self.queries)).astype(np.int64)
        counts = np.bincount(j, minlength=nbins)
        return lo, 2 * lo, counts


def collect_error_query_distribution(code, ebn0_db, target_errors, seed,
                                     decoder="orbgrand"):
    """Collect the query index of incorrect decodings under tau=None.

    Trials are those of a tau=None sweep at the same point and seed, decoded
    in blocks no longer than the errors still missing, so a block reaches
    ``target_errors`` only at its last trial.  Guards: the hard-decision
    crossover probability must clear ``_MIN_CROSSOVER`` (a clean channel
    produces almost no errors), and if the realised error rate falls below
    ``_MIN_ERROR_RATE`` at any trial from ``_CHECK_AFTER`` on the run aborts
    rather than spin forever.
    """
    target_errors = _count("target_errors", target_errors, 1)
    seed = _count("seed", seed, 0)
    if decoder not in DECODERS:
        raise ValueError(f"unknown decoder {decoder!r}")
    params = ChannelParams(ebn0_db=ebn0_db, rate=code.rate)
    crossover = bsc_crossover(params)
    if crossover < _MIN_CROSSOVER:
        raise GuardError(
            f"crossover {crossover:.3g} at {ebn0_db} dB is below the floor "
            f"{_MIN_CROSSOVER:g}; incorrect decodings would be too rare")
    key = _point_key(ebn0_db)
    qs = []
    trials = 0
    while len(qs) < target_errors:
        hi = trials + min(_BATCH, target_errors - len(qs))
        # Only the query counts are kept, so the decoder skips the ledger.
        (outcome,), (q,), _ = _decode_block(code, params, (None,), decoder,
                                            seed, key, trials, hi, confidence=False)
        wrong = outcome == INCORRECT
        # Errors and trials so far after each trial of the block.
        errors = len(qs) + np.cumsum(wrong)
        done = np.arange(trials + 1, hi + 1)
        (low,) = np.nonzero((done >= _CHECK_AFTER) & (errors / done < _MIN_ERROR_RATE))
        if len(low):
            i = low[0]
            raise GuardError(
                f"error rate {errors[i] / done[i]:.2e} after {done[i]} trials is "
                f"below {_MIN_ERROR_RATE:g}; pick a noisier operating point")
        qs.extend(q[wrong].tolist())
        trials = hi
    return ErrorQueryDistribution(queries=np.asarray(qs, dtype=np.int64),
                                  trials=trials, redundancy=code.redundancy,
                                  ebn0_db=float(ebn0_db), seed=seed)


@dataclass
class OracleReport:
    """Exhaustive ground truth for the confidence accounting on one block.

    p_correct_exact is the direct linear-domain sum of pattern
    probabilities in query order; ledger_log is the decoder's running
    log-mass, bit for bit as ``decode_batch`` sums it, and p_correct_ledger
    its exponential.  p_incorrect_exact treats the actual code book: for every
    equally-possible true noise sequence, the first query hitting a wrong
    code word is found by replaying the query order, and the indicator
    {that query <= q} is averaged under the noise posterior.
    p_incorrect_model is the geometric approximation for comparison.
    """

    q: np.ndarray
    p_correct_exact: np.ndarray
    ledger_log: np.ndarray
    p_incorrect_exact: np.ndarray
    p_incorrect_model: np.ndarray

    @property
    def p_correct_ledger(self):
        return np.exp(self.ledger_log)

    @property
    def max_correct_deviation(self):
        return float(np.max(np.abs(self.p_correct_exact - self.p_correct_ledger)))

    @property
    def max_incorrect_deviation(self):
        return float(np.max(np.abs(self.p_incorrect_exact - self.p_incorrect_model)))


def oracle_exact_accounting(code, obs, order_kind="logistic"):
    """Brute-force per-q accounting for n <= 12 blocks; see OracleReport."""
    n = code.n
    if n > 12:
        raise ValueError(f"exhaustive oracle needs n <= 12, got {n}")
    if obs.n != n:
        raise ValueError(f"observation length {obs.n} != code length {n}")
    total = 1 << n
    table = order_table(QueryOrder(kind=order_kind, n=n))
    table.extend_to(total)
    # (pattern, frame index) pairs of patterns 1.., as decode_batch reads them.
    entry, pos = table.positions(np.arange(1, total))
    bits = (obs.ranks if order_kind == "logistic" else np.arange(n))[pos]
    mask = np.zeros((total, n), dtype=bool)
    mask[entry + 1, bits] = True
    probs = np.prod(np.where(mask, obs.flip_prob, 1.0 - obs.flip_prob), axis=1)
    # decode_batch's arithmetic: the no-flip mass summed in bit order, flip
    # sums as reduceat adds frame-ordered reliabilities, one running sum.
    base = -np.add.reduce(np.log1p(np.exp(-obs.reliab[np.newaxis])), axis=1)
    starts = np.flatnonzero(np.diff(entry, prepend=-1))
    flips = np.add.reduceat(obs.reliab[bits][np.newaxis], starts, axis=1)
    ledger_log = np.logaddexp.accumulate(np.append(base, base - flips[0]))

    hit_qs = np.flatnonzero(~((obs.hard ^ mask) @ code.parity_check.T % 2).any(axis=1)) + 1
    if len(hit_qs) < 2:
        raise RuntimeError("degenerate code: fewer than two coset hits")

    qs = np.arange(1, total + 1)
    # First wrong-code-word hit: the fixed query order meets the coset of
    # the hard decision at hit_qs[0], hit_qs[1], ...; for the single true
    # noise equal to the first-hit pattern that hit is the correct word and
    # the first WRONG hit comes second.
    j1, j2 = hit_qs[0], hit_qs[1]
    p_incorrect_exact = np.where(qs >= j2, 1.0, np.where(qs >= j1, 1.0 - probs[j1 - 1], 0.0))
    model = softout.p_incorrect_cum(code.redundancy, qs)
    return OracleReport(q=qs, p_correct_exact=np.cumsum(probs), ledger_log=ledger_log,
                        p_incorrect_exact=p_incorrect_exact, p_incorrect_model=model)


def _fmt(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_sweep_csv(path, stats, meta=None):
    """Write sweep aggregates as CSV plus a JSON metadata sidecar.

    The CSV holds data rows only (no comments) so it diffs cleanly; the
    sidecar <path>.json carries everything needed to regenerate it.
    """
    with open(path, "w") as fh:
        fh.write(",".join(f.name for f in fields(SweepStats)) + "\n")
        for s in stats:
            fh.write(",".join(map(_fmt, astuple(s))) + "\n")
    if meta is not None:
        write_sidecar(path, meta)


def write_sidecar(path, meta):
    """Write ``meta`` as the JSON sidecar <path>.json of an output file."""
    with open(str(path) + ".json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_trials_csv(path, result):
    """Per-trial dump: one row per (policy, point, trial).

    The policies at a point mostly share their ``llr_bits`` values, so each
    distinct float64 bit pattern is formatted once per point; 0.0 and -0.0
    stay apart.  A result swept with ``confidence=False`` has no
    ``llr_bits`` to write, so it raises ValueError.
    """
    if not result.confidence:
        raise ValueError("this sweep ran with confidence=False, so it has no "
                         "llr_bits for trials.csv")
    with open(path, "w") as fh:
        fh.write("policy,ebn0_db,trial,outcome,q,llr_bits,true_noise_found\n")
        for pi, ebn0_db in enumerate(result.points):
            cells = [result.batches[(lbl, pi)] for lbl in result.policy_labels]
            bits = np.concatenate([b.llr_bits for b in cells] or [np.zeros(0)])
            values, inverse = np.unique(bits.view(np.uint64), return_inverse=True)
            text = np.array([format(v, ".12g") for v in values.view(np.float64).tolist()],
                            dtype=object)
            llrs = text[inverse].tolist()
            start = 0
            for lbl, b in zip(result.policy_labels, cells):
                cell = f"{lbl},{_fmt(float(ebn0_db))},"
                fh.write("".join(
                    f"{cell}{t},{_OUTCOME_NAMES[o]},{q},{llr},{_FOUND[o]}\n"
                    for t, (o, q, llr) in enumerate(zip(
                        b.outcome.tolist(), b.q.tolist(), llrs[start:start + len(b)]))))
                start += len(b)

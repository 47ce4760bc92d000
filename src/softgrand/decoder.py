"""Guess-and-check decoding loop with confidence-thresholded abandonment.

The loop draws flip patterns in query order, folds each pattern's
probability into a confidence ledger, optionally abandons when the
confidence LLR drops below a threshold, and otherwise tests code-book
membership of the hard decision XOR the pattern.  The abandonment check at
query q happens with the q-th pattern's probability already recorded but
before the q-th membership test, so abandonment wins a tie at the same q.
The threshold comparison is strict: abandon iff llr_bits < tau.

The LLR trajectory and the first hit do not depend on tau, so
``decode_ladder`` decodes one observation under a list of thresholds in a
single scan.  Each tau abandons at the first query where llr_bits < tau if
that query is no later than the first hit, and otherwise takes the shared
outcome: the hit, or the query cap.  The scan stops at the first hit, or
once every tau has abandoned when no tau is None, so it goes only as deep
as the deepest search among the thresholds.  ``decode`` is the one-tau case
of the same loop, and the outcomes are those of one ``decode`` call per tau.

For speed the loop is evaluated in growing chunks of queries with numpy
(reduceat over the concatenated pattern table, packed parity columns XORed
as uint64 words, logaddexp.accumulate for the running sum).  The running
sum is accumulated in query order, as a one-query-at-a-time loop would, and
the wrong-hit term is the value ``softout`` reports.  The tests check that
outcome, query count and word match the scalar reference decoder in
``tests/conftest.py``.  A pattern's flipped reliabilities are summed in
frame order here and in bit order there, so a reported confidence can differ
from the reference in its last bits; the tests hold it to a relative 1e-12.

Ordering inputs and accounting inputs are deliberately separable: ``decode``
takes an optional second observation whose flip probabilities feed the
ledger, which supports hard-detection accounting (constant BSC crossover)
under any pattern order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import softout
from .codes import is_codeword, packed_parity_columns
from .patterns import QueryOrder, order_table
from .softout import LlrReport, llr_report

__all__ = [
    "DecodePolicy",
    "DecodeOutcome",
    "decode",
    "decode_ladder",
    "extract_message",
    "resolve_max_queries",
]

_LN2 = math.log(2.0)

ABANDON_LLR = "llr_below_tau"
ABANDON_CAP = "query_cap_reached"

# Chunk edges: small early chunks keep clean-channel decodes cheap, 4096-wide
# steady-state chunks amortise numpy overhead on deep searches.
_CHUNK_EDGES = (16, 64, 256, 1024, 4096)
_CHUNK_STEP = 4096


def _check_tau(tau):
    if tau is not None and not math.isfinite(tau):
        raise ValueError(f"tau must be finite or None, got {tau}")


def _check_search(max_queries, order_kind):
    if max_queries is not None and max_queries < 1:
        raise ValueError(f"max_queries must be >= 1, got {max_queries}")
    if order_kind not in ("hamming", "logistic"):
        raise ValueError(f"unknown order kind {order_kind!r}")


@dataclass(frozen=True)
class DecodePolicy:
    """What the decoder is allowed to do.

    ``tau`` is the finite abandonment threshold in bits (None = never
    abandon); ``max_queries`` caps the search, defaulting to
    min(8 * 2^redundancy, 2^n) which covers eight mean lifetimes of the
    wrong-hit geometric model; ``order_kind`` picks the pattern enumeration.
    """

    tau: Optional[float] = None
    max_queries: Optional[int] = None
    order_kind: str = "logistic"

    def __post_init__(self):
        _check_tau(self.tau)
        _check_search(self.max_queries, self.order_kind)

    def label(self):
        base = "none" if self.tau is None else f"{self.tau:g}"
        return f"tau={base}"


@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one decode call.

    ``decoded`` selects the variant: a found code word (with the confidence
    report at the hit) or an abandonment with ``reason`` in
    {"llr_below_tau", "query_cap_reached"}.  ``q`` counts queries consumed;
    an abandonment at q happened before the q-th membership test.
    """

    decoded: bool
    q: int
    word: Optional[np.ndarray] = None
    report: Optional[LlrReport] = None
    reason: Optional[str] = None


def _resolve_cap(max_queries, code):
    if max_queries is not None:
        return int(max_queries)
    cap = 8 << code.redundancy
    if code.n < 63:
        cap = min(cap, 1 << code.n)
    return cap


def resolve_max_queries(policy, code):
    """Effective query cap for this policy on this code."""
    return _resolve_cap(policy.max_queries, code)


def _first_true(mask):
    i = int(mask.argmax())
    return i if mask[i] else None


def _chunk_bounds(cap):
    lo = 0
    for edge in _CHUNK_EDGES:
        if lo >= cap:
            return
        yield lo, min(edge, cap)
        lo = min(edge, cap)
    while lo < cap:
        yield lo, min(lo + _CHUNK_STEP, cap)
        lo = min(lo + _CHUNK_STEP, cap)


def decode(code, obs, policy, accounting=None):
    """Decode one observation under a policy; deterministic given inputs.

    ``accounting`` optionally supplies the observation whose flip
    probabilities feed the confidence ledger (defaults to ``obs`` itself,
    the matched case).
    """
    (out,) = decode_ladder(code, obs, (policy.tau,), policy.order_kind,
                           policy.max_queries, accounting)
    return out


def decode_ladder(code, obs, taus, order_kind="logistic", max_queries=None,
                  accounting=None):
    """Decode one observation under every threshold in ``taus`` in one scan.

    Returns one DecodeOutcome per entry of ``taus`` (None = never abandon),
    equal to what ``decode`` returns for a policy with that tau and the given
    order and cap.
    """
    for tau in taus:
        _check_tau(tau)
    _check_search(max_queries, order_kind)
    if obs.n != code.n:
        raise ValueError(f"observation length {obs.n} != code length {code.n}")
    acct = obs if accounting is None else accounting
    if acct.n != code.n:
        raise ValueError(f"accounting length {acct.n} != code length {code.n}")

    n = code.n
    redundancy = code.redundancy
    cap = _resolve_cap(max_queries, code)

    table = order_table(QueryOrder(kind=order_kind, n=n))
    if order_kind == "logistic":
        frame_map = np.asarray(obs.ranks, dtype=np.int64)
    else:
        frame_map = np.arange(n, dtype=np.int64)

    cols_frame = packed_parity_columns(code)[frame_map]
    l_frame = np.asarray(acct.reliab, dtype=float)[frame_map]
    base = -float(np.sum(np.log1p(np.exp(-np.asarray(acct.reliab, dtype=float)))))
    target = np.bitwise_xor.reduce(packed_parity_columns(code)[obs.hard.astype(bool)])

    hard = obs.hard
    carry = -math.inf
    outcomes = [None] * len(taus)
    live = [j for j, tau in enumerate(taus) if tau is not None]
    # A tau of None never abandons: the scan then runs to a hit or the cap.
    to_the_end = len(live) < len(taus)

    for lo, hi in _chunk_bounds(cap):
        vals, off, hi = table.slice_arrays(lo, hi)
        m = hi - lo
        if m <= 0:
            break
        idx = off[:-1]
        if vals.size:
            flips = np.add.reduceat(l_frame[vals - 1], idx)
            syn = np.bitwise_xor.reduceat(cols_frame[vals - 1], idx)
        else:
            flips = np.zeros(m)
            syn = np.zeros(m, dtype=np.uint64)
        if lo == 0:
            # reduceat yields arr[i] for the empty leading segment; the
            # empty pattern flips nothing and leaves the syndrome alone.
            flips[0] = 0.0
            syn[0] = 0
        logp = base - flips
        cum = np.logaddexp.accumulate(np.concatenate(([carry], logp)))[1:]
        hit_i = _first_true(syn == target)
        # Grown here even without a threshold: the report at a hit reads it.
        log_u = softout.log_p_incorrect_prefix(redundancy, hi)

        if live:
            llr = (cum - log_u[lo:]) / _LN2
            for j in live:
                ab_i = _first_true(llr < taus[j])
                if ab_i is not None and (hit_i is None or ab_i <= hit_i):
                    q = lo + ab_i + 1
                    outcomes[j] = DecodeOutcome(
                        decoded=False, q=q, reason=ABANDON_LLR,
                        report=llr_report(redundancy, q, float(cum[ab_i])))
            live = [j for j in live if outcomes[j] is None]
        if hit_i is not None:
            q = lo + hit_i + 1
            seg = vals[off[hit_i]:off[hit_i + 1]]
            word = hard.copy()
            word[frame_map[seg - 1]] ^= 1
            hit = DecodeOutcome(decoded=True, q=q, word=word,
                                report=llr_report(redundancy, q, float(cum[hit_i])))
            return [hit if out is None else out for out in outcomes]
        if not (live or to_the_end):
            return outcomes
        carry = float(cum[-1])

    q = min(cap, table.count) if table.exhausted else cap
    end = DecodeOutcome(decoded=False, q=q, reason=ABANDON_CAP,
                        report=llr_report(redundancy, q, carry) if q >= 1 else None)
    return [end if out is None else out for out in outcomes]


def extract_message(code, word):
    """Recover the k message bits from a (systematic) code word."""
    word = np.asarray(word, dtype=np.uint8)
    if not is_codeword(code, word):
        raise ValueError("word is not in the code book")
    return word[:code.k].copy()

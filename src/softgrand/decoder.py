"""Guess-and-check decoding loop with confidence-thresholded abandonment.

The loop draws flip patterns in query order, folds each pattern's
probability into a confidence ledger, optionally abandons when the
confidence LLR drops below a threshold, and otherwise tests code-book
membership of the hard decision XOR the pattern.  The abandonment check at
query q happens with the q-th pattern's probability already recorded but
before the q-th membership test, so abandonment wins a tie at the same q.
The threshold comparison is strict: abandon iff llr_bits < tau.

The LLR trajectory and the first hit do not depend on tau, so one scan
decodes an observation under a list of thresholds.  Each tau abandons at
the first query where llr_bits < tau if that query is no later than the
first hit, and otherwise takes the shared outcome: the hit, or the query
cap.  The scan stops at the first hit, or once every tau has abandoned when
no tau is None, so it goes only as deep as the deepest search among the
thresholds.

For speed the loop is evaluated in growing chunks of queries with numpy
(reduceat over the concatenated pattern table, packed parity columns XORed
as uint64 words, logaddexp.accumulate for the running sum).  The chunk body
works on a (rows, queries) block: ``decode_batch`` runs the first chunks,
up to query 64, for a whole block of observations at once, and rows still
searching after them continue one at a time through the same body from
where they stopped.  ``decode_ladder`` is the one-row case and ``decode``
its one-tau case, so the outcomes of every entry point are those of one
``decode`` call per observation and tau.  The running sum is accumulated in
query order along each row, as a one-query-at-a-time loop would, and stops
at the first hit, past which no outcome reads it; the wrong-hit term is the
value ``softout`` reports.  The tests check that outcome, query count and
word match the scalar reference decoder in ``tests/conftest.py``.  A pattern's flipped reliabilities are summed in
frame order here and in bit order there, so a reported confidence can differ
from the reference in its last bits; the tests hold it to a relative 1e-12.

Ordering inputs and accounting inputs are deliberately separable: the
decoders take an optional accounting observation whose flip probabilities
feed the ledger, which supports hard-detection accounting (constant BSC
crossover) under any pattern order.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import softout
from .codes import is_codeword, packed_parity_columns
from .patterns import QueryOrder, order_table
from .softout import LlrReport, llr_report

__all__ = [
    "BatchOutcome",
    "DecodePolicy",
    "DecodeOutcome",
    "decode",
    "decode_batch",
    "decode_ladder",
    "extract_message",
    "resolve_max_queries",
]

_LN2 = math.log(2.0)

ABANDON_LLR = "llr_below_tau"
ABANDON_CAP = "query_cap_reached"

# How a threshold's decode of a row ended, in BatchOutcome.status.
HIT, BELOW_TAU, AT_CAP = 1, 2, 3
_REASONS = {BELOW_TAU: ABANDON_LLR, AT_CAP: ABANDON_CAP}

# Chunk edges: small early chunks keep clean-channel decodes cheap, 4096-wide
# steady-state chunks amortise numpy overhead on deep searches.
_CHUNK_EDGES = (16, 64, 256, 1024, 4096)
_CHUNK_STEP = 4096
# decode_batch runs the chunks up to this edge for all its rows at once.
_BLOCK_QUERIES = _CHUNK_EDGES[1]


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


@dataclass(frozen=True)
class BatchOutcome:
    """Results of ``decode_batch``: one column per row, one row per tau.

    ``status[j, i]`` is HIT, BELOW_TAU or AT_CAP for threshold j on row i;
    ``q`` and ``llr_bits`` are what the DecodeOutcome and its report would
    hold.  ``words[i]`` is row i's first hit, shared by every threshold that
    decoded it (the row's hard decision when its search found none).
    """

    status: np.ndarray
    q: np.ndarray
    llr_bits: np.ndarray
    words: np.ndarray

    @property
    def decoded(self):
        return self.status == HIT


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


class _Scan:
    """Search state of a block of observations, one row each.

    ``ids`` lists the block rows still searching.  For each of them, in the
    same order, the scan holds the frame-ordered reliabilities and parity
    columns (a single row where all rows share them), the no-flip
    log-probability ``base``, the syndrome to hit, the running log-mass
    ``carry`` and which thresholds are still ``open``; a row leaves these
    arrays once it has stopped.  Per block row it records how the search
    ended (HIT or AT_CAP, 0 if every threshold abandoned first) with the
    query and log-mass there, and per threshold and row those of an
    abandonment (q 0 for none).
    """

    def __init__(self, code, hard, reliab, ranks, taus, order_kind, max_queries,
                 accounting):
        for tau in taus:
            _check_tau(tau)
        _check_search(max_queries, order_kind)
        n = code.n
        if hard.ndim != 2 or hard.shape[1] != n:
            raise ValueError(f"observation length {hard.shape[-1]} != code length {n}")
        if accounting is not None:
            acct = np.asarray(accounting.reliab, dtype=float)
            if len(acct) != n:
                raise ValueError(f"accounting length {len(acct)} != code length {n}")
        rows = len(hard)
        self.redundancy = code.redundancy
        self.cap = _resolve_cap(max_queries, code)
        self.table = order_table(QueryOrder(kind=order_kind, n=n))
        self.taus = [tau for tau in taus if tau is not None]
        self.thresholds = [j for j, tau in enumerate(taus) if tau is not None]
        # A tau of None never abandons: its search runs to a hit or the cap.
        self.to_the_end = len(self.taus) < len(taus)

        packed = packed_parity_columns(code)
        # frame[i] maps row i's pattern frame to bit positions; None is the
        # identity frame of the hamming order.
        self.frame = ranks if order_kind == "logistic" else None
        self.ids = np.arange(rows)
        if accounting is None:
            self.l = (reliab if self.frame is None
                      else reliab[self.ids[:, np.newaxis], ranks])
            self.base = -np.sum(np.log1p(np.exp(-reliab)), axis=1, keepdims=True)
        else:
            self.l = acct[np.newaxis] if self.frame is None else acct[ranks]
            self.base = np.full((rows, 1), -float(np.sum(np.log1p(np.exp(-acct)))))
        self.cols = packed[np.newaxis] if self.frame is None else packed[ranks]
        self.target = np.bitwise_xor.reduce(packed * hard, axis=1, keepdims=True)
        self.carry = np.full((rows, 1), -math.inf)
        self.open = np.full((len(self.taus), rows), True)

        self.end = np.zeros(rows, dtype=np.int8)
        self.end_q = np.zeros(rows, dtype=np.int64)
        self.end_cum = np.zeros(rows)
        self.ab_q = np.zeros((len(taus), rows), dtype=np.int64)
        self.ab_cum = np.zeros((len(taus), rows))

    def run(self, lo=0, stop=None):
        """Advance the searching rows, all at query ``lo``, until each stops.

        With ``stop``, rows still searching when the next chunk would start
        at query ``stop`` stay in the scan; otherwise none do.
        """
        for c_lo, c_hi in _chunk_bounds(self.cap):
            if c_lo < lo:
                continue
            if not len(self.ids) or (stop is not None and c_lo >= stop):
                return
            vals, off, hi = self.table.slice_arrays(c_lo, c_hi)
            if hi <= c_lo:
                break
            self._chunk(c_lo, hi, vals, off)
        if len(self.ids):
            self.end[self.ids] = AT_CAP
            self.end_q[self.ids] = (min(self.cap, self.table.count) if self.table.exhausted
                                    else self.cap)
            self.end_cum[self.ids] = self.carry[:, 0]
            self.ids = self.ids[:0]

    def _chunk(self, lo, hi, vals, off):
        """Queries [lo, hi) for every searching row."""
        m = hi - lo
        idx = off[:-1]
        at = vals - 1
        if vals.size:
            syn = np.bitwise_xor.reduceat(self.cols.take(at, axis=1), idx, axis=1)
        else:
            syn = np.zeros((len(self.cols), m), dtype=np.uint64)
        # reduceat yields arr[i] for the empty leading segment; the empty
        # pattern leaves the syndrome alone and flips nothing.
        if lo == 0:
            syn[:, 0] = 0
        eq = syn == self.target
        hit_i = eq.argmax(axis=1)
        hit = np.logical_or.reduce(eq, axis=1)
        # No outcome reads the running sum past a row's first hit, so when
        # every row hits, the sum stops at the last of those hits.
        if hit.all():
            m = int(hit_i.max()) + 1
        if off[m]:
            flips = np.add.reduceat(self.l.take(at[:off[m]], axis=1), idx[:m], axis=1)
        else:
            flips = np.zeros((len(self.l), m))
        if lo == 0:
            flips[:, 0] = 0.0
        cum = np.logaddexp.accumulate(
            np.concatenate((self.carry, self.base - flips), axis=1), axis=1)[:, 1:]
        # Grown here even without a threshold: the report at a hit reads it.
        log_u = softout.log_p_incorrect_prefix(self.redundancy, hi)

        if self.taus and self.open.any():
            llr = (cum - log_u[lo:lo + m]) / _LN2
            # A threshold abandons at its first crossing no later than the hit.
            last = np.where(hit, hit_i, m)
            for t, (j, tau) in enumerate(zip(self.thresholds, self.taus)):
                below = llr < tau
                ab_i = below.argmax(axis=1)
                (r,) = np.nonzero(self.open[t] & below.any(axis=1) & (ab_i <= last))
                if len(r):
                    self.ab_q[j, self.ids[r]] = lo + ab_i[r] + 1
                    self.ab_cum[j, self.ids[r]] = cum[r, ab_i[r]]
                    self.open[t, r] = False
        stopped = hit if self.to_the_end else hit | ~self.open.any(axis=0)
        self.carry = cum[:, -1:]
        if np.count_nonzero(stopped):
            ids, h = self.ids[hit], hit_i[hit]
            self.end[ids] = HIT
            self.end_q[ids] = h + (lo + 1)
            self.end_cum[ids] = cum[hit, h]
            self._keep(~stopped)

    def _keep(self, live):
        """Drop the rows that stopped searching from the per-row arrays."""
        if not np.count_nonzero(live):
            # Once no row is searching nothing reads the other arrays again.
            self.ids = self.ids[:0]
            return
        for name in ("ids", "base", "target", "carry"):
            setattr(self, name, getattr(self, name)[live])
        self.open = self.open[:, live]
        if len(self.l) > 1:
            self.l = self.l[live]
        if len(self.cols) > 1:
            self.cols = self.cols[live]

    def rows(self):
        """One scan per searching row, each recording into these results."""
        for k in range(len(self.ids)):
            one = copy.copy(self)
            one._keep(np.arange(len(self.ids)) == k)
            yield one

    def results(self):
        """(status, q, log-mass) per threshold and block row, once all stopped.

        A threshold that abandoned keeps its abandonment; the others take the
        end of the row's search: its first hit or the cap.
        """
        ab = self.ab_q > 0
        return (np.where(ab, BELOW_TAU, self.end), np.where(ab, self.ab_q, self.end_q),
                np.where(ab, self.ab_cum, self.end_cum))

    def words(self, hard):
        """Each block row's hard decision with its first hit's pattern flipped."""
        words = hard.copy()
        # query 1 is the empty pattern
        (rows,) = np.nonzero((self.end == HIT) & (self.end_q > 1))
        offsets, flat = self.table.offsets, self.table.flat
        for i, q in zip(rows.tolist(), self.end_q[rows].tolist()):
            pos = flat[offsets[q - 1]:offsets[q]] - 1
            words[i, pos if self.frame is None else self.frame[i, pos]] ^= 1
        return words


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
    hard = obs.hard[np.newaxis]
    scan = _Scan(code, hard, obs.reliab[np.newaxis],
                 np.asarray(obs.ranks, dtype=np.int64)[np.newaxis],
                 taus, order_kind, max_queries, accounting)
    scan.run()
    word = scan.words(hard)[0]
    outcomes = []
    for status, q, cum in zip(*(a[:, 0].tolist() for a in scan.results())):
        report = llr_report(scan.redundancy, q, cum)
        if status == HIT:
            outcomes.append(DecodeOutcome(decoded=True, q=q, word=word, report=report))
        else:
            outcomes.append(DecodeOutcome(decoded=False, q=q, report=report,
                                          reason=_REASONS[status]))
    return outcomes


def decode_batch(code, hard, reliab, ranks, taus, order_kind="logistic",
                 max_queries=None, accounting=None):
    """Decode every row of a (rows, n) block under every threshold in ``taus``.

    ``hard``, ``reliab`` and ``ranks`` hold one observation per row, as
    ``channel.transmit_arrays`` returns them; ``accounting``, if given, is
    shared by all rows.  The first 64 queries run for the whole block as
    2-D arrays, and a row leaves the block once every threshold is settled;
    rows still searching then continue one at a time.  Row i under tau j
    gets the outcome of ``decode_ladder`` on observation i.
    """
    hard = np.asarray(hard, dtype=np.uint8)
    scan = _Scan(code, hard, np.asarray(reliab, dtype=float),
                 np.asarray(ranks, dtype=np.int64), taus, order_kind, max_queries,
                 accounting)
    scan.run(stop=_BLOCK_QUERIES)
    for one in scan.rows():
        one.run(lo=_BLOCK_QUERIES)
    status, q, cum = scan.results()
    # The same (cum - log_u[q - 1]) / ln 2 that llr_report evaluates.
    log_u = softout.log_p_incorrect_prefix(scan.redundancy, int(q.max(initial=1)))
    return BatchOutcome(status=status, q=q, llr_bits=(cum - log_u[q - 1]) / _LN2,
                        words=scan.words(hard))


def extract_message(code, word):
    """Recover the k message bits from a (systematic) code word."""
    word = np.asarray(word, dtype=np.uint8)
    if not is_codeword(code, word):
        raise ValueError("word is not in the code book")
    return word[:code.k].copy()

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

For speed the loop is evaluated in growing chunks of queries with numpy.
Each query's syndrome (packed parity columns XORed as uint64 words) and
flip sum come from those of an earlier query through the order table's
parent pointers, as in the syndrome reuse of hardware ORBGRAND decoders,
and logaddexp.accumulate gives the running sum.  The scan keeps that sum
only when something reads it: a finite tau, whose abandonment test needs
it, or a caller that wants the confidence; otherwise a chunk is the
syndromes and the hit test alone.  The chunk body works on a
(rows, queries) block, and only ``decode_batch`` runs it: it runs the
first chunks, up to query 64, for a whole block of observations at once,
and rows still searching after them continue one at a time through the
same body from where they stopped (a lone such row, or rows that share
everything but the syndrome to hit, in the block's own state, uncopied).
``decode_ladder`` is a one-row ``decode_batch`` and ``decode`` its one-tau
case.  The running sum is accumulated in query order along each row, as a
one-query-at-a-time loop would, so a row's outcome does not depend on the
other rows of its block; it stops at the first hit, past which no outcome
reads it.
``softout.llr_bits`` turns the log-mass at a row's final query into the
reported confidence.  The tests check that outcome, query count and word
match the scalar reference decoder in ``tests/conftest.py``.  A pattern's
flipped reliabilities are summed in frame order here and in bit order
there, so a reported confidence can differ from the reference in its last
bits; the tests hold it to a relative 1e-12.

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
from .codes import packed_parity_columns
from .patterns import QueryOrder, order_table
from .softout import LlrReport

__all__ = [
    "BatchOutcome",
    "DecodePolicy",
    "DecodeOutcome",
    "decode",
    "decode_batch",
    "decode_ladder",
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
    8 * 2^redundancy which covers eight mean lifetimes of the wrong-hit
    geometric model; either way the cap is at most 2^n, the number of
    patterns.  ``order_kind`` picks the pattern enumeration.
    """

    tau: Optional[float] = None
    max_queries: Optional[int] = None
    order_kind: str = "logistic"

    def __post_init__(self):
        _check_tau(self.tau)
        _check_search(self.max_queries, self.order_kind)


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
    hold, ``llr_bits`` None when the caller asked for no confidence.
    ``words[i]`` is row i's first hit, shared by every threshold that
    decoded it (the row's hard decision when its search found none).
    """

    status: np.ndarray
    q: np.ndarray
    llr_bits: Optional[np.ndarray]
    words: np.ndarray

    @property
    def decoded(self):
        return self.status == HIT


def _resolve_cap(max_queries, code):
    cap = 8 << code.redundancy if max_queries is None else int(max_queries)
    # No search goes past the last of the 2^n patterns.
    return min(cap, 1 << code.n)


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


def _runs(starts, sizes):
    """Indices of the segments [starts[i], starts[i] + sizes[i]), concatenated."""
    return np.arange(sizes.sum()) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


# The per-row search state; a one-row array is shared by every row.
_ROW_STATE = ("ids", "target", "cols", "syn")
# ... and that of the running log-mass, kept only when something reads it.
_LEDGER_STATE = ("base", "carry", "l", "fold")


class _Scan:
    """Search state of a block of observations, one row each.

    ``ids`` lists the block rows still searching.  For each of them, in the
    same order, the scan holds the frame-ordered reliabilities and parity
    columns, the no-flip log-probability ``base``, the syndrome to hit, the
    running log-mass ``carry`` after the last chunk, which thresholds are
    still ``open``, and the syndrome ``syn`` and left-folded flip sum
    ``fold`` of every query so far; a row leaves these arrays once it has
    stopped.  Without a finite threshold or ``confidence`` the scan keeps
    none of the running log-mass state (``base``, ``carry``, ``l``,
    ``fold``), and its log-masses read 0.  An array with a single row is
    shared by every row: in the hamming order the parity columns and
    ``syn``, under an accounting observation ``base``, and under both the
    reliabilities, ``fold`` and ``carry``.  Per block row it records how the
    search ended (HIT or AT_CAP, 0 if every threshold abandoned first) with
    the query and log-mass there, and per threshold and row those of an
    abandonment (q 0 for none).
    """

    def __init__(self, code, hard, reliab, ranks, taus, order_kind, max_queries,
                 accounting, confidence=True):
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
        self.cols = packed[np.newaxis] if self.frame is None else packed[ranks]
        self.target = np.bitwise_xor.reduce(packed * hard, axis=1, keepdims=True)
        self.open = np.full((len(self.taus), rows), True)
        self.syn = np.zeros((len(self.cols), 0), dtype=np.uint64)
        # Thresholds test the running log-mass; without one only the
        # caller's confidence would read it.
        self.ledger = confidence or bool(self.taus)
        self.row_state = _ROW_STATE + (_LEDGER_STATE if self.ledger else ())
        if self.ledger:
            # One row of accounting reliabilities serves every row.
            source = reliab if accounting is None else acct[np.newaxis]
            self.l = (source if self.frame is None
                      else source[self.ids[:len(source), np.newaxis], ranks])
            self.base = -np.add.reduce(np.log1p(np.exp(-source)), axis=1, keepdims=True)
            self.carry = None  # set by the first chunk
            self.fold = np.zeros((len(self.l), 0))

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
            self.table.extend_to(c_hi)
            self._chunk(c_lo, c_hi)
        if len(self.ids):
            self.end[self.ids] = AT_CAP
            self.end_q[self.ids] = self.cap
            if self.ledger:
                self.end_cum[self.ids] = self.carry[:, 0]
            self.ids = self.ids[:0]

    def _reserve(self, hi):
        """Room in ``syn`` and ``fold`` for the queries before ``hi``."""
        have = self.syn.shape[1]
        if have >= hi:
            return
        # Ahead of the chunks, so a deep row moves its histories a few times.
        size = min(self.cap, max(4 * hi, 2 * have))
        for name in ("syn", "fold") if self.ledger else ("syn",):
            old = getattr(self, name)
            new = np.empty((len(old), size), dtype=old.dtype)
            new[:, :have] = old
            setattr(self, name, new)

    def _chunk(self, lo, hi):
        """Queries [lo, hi) for every searching row.

        A query's syndrome is its parent's XOR the parity column of its last
        index.
        """
        table, cols = self.table, self.cols
        self._reserve(hi)
        syn = self.syn
        if lo == 0:
            # The empty pattern leaves the syndrome alone ...
            syn[:, 0] = 0
        for g in table.waves(lo, hi):
            syn[:, g] = syn.take(table.parent[g], axis=1) ^ cols.take(table.last[g], axis=1)
        eq = syn[:, lo:hi] == self.target
        hit_i = eq.argmax(axis=1)
        hit = np.logical_or.reduce(eq, axis=1)
        if self.ledger:
            cum_rows = self._running_sum(lo, hi, hit, hit_i)
        stopped = hit if self.to_the_end else hit | ~self.open.any(axis=0)
        if np.count_nonzero(stopped):
            ids, h = self.ids[hit], hit_i[hit]
            self.end[ids] = HIT
            self.end_q[ids] = h + (lo + 1)
            if self.ledger:
                self.end_cum[ids] = cum_rows[hit, h]
            self._keep(~stopped)

    def _running_sum(self, lo, hi, hit, hit_i):
        """Fold queries [lo, hi) into the running log-mass and test the taus.

        A query's ``fold`` is its parent's plus the reliability at its last
        index.  Returns the running log-mass per searching row and query of
        the chunk, up to the last first hit when every row hits.
        """
        m = hi - lo
        table, l, fold = self.table, self.l, self.fold
        if lo == 0:
            # ... and flips nothing.
            fold[:, 0] = 0.0
        for g in table.waves(lo, hi):
            fold[:, g] = fold.take(table.parent[g], axis=1) + l.take(table.last[g], axis=1)
        # No outcome reads the running sum past a row's first hit, so when
        # every row hits, the sum stops at the last of those hits.
        if hit.all():
            m = int(hit_i.max()) + 1
        flips = self._flips(lo, lo + m)
        terms = self.base - flips
        if lo:
            # The running sum goes on from where the previous chunk left it.
            terms = np.concatenate((self.carry, terms), axis=1)
        cum = np.logaddexp.accumulate(terms, axis=1)[:, 1 if lo else 0:]
        # Rows that share their search share one running sum.
        cum_rows = cum if len(cum) == len(self.ids) else np.broadcast_to(cum, (len(self.ids), m))
        # Grown here even without a threshold: the report at a hit reads it.
        log_u = softout.log_p_incorrect_prefix(self.redundancy, hi)

        if self.taus and np.count_nonzero(self.open):
            llr = (cum - log_u[lo:lo + m]) / _LN2
            # A threshold abandons at its first crossing no later than the hit.
            last = np.where(hit, hit_i, m)
            for t, (j, tau) in enumerate(zip(self.thresholds, self.taus)):
                below = llr < tau
                ab_i = below.argmax(axis=1)
                if len(ab_i) != len(last):
                    ab_i = np.broadcast_to(ab_i, last.shape)
                (r,) = np.nonzero(self.open[t] & below.any(axis=1) & (ab_i <= last))
                if len(r):
                    self.ab_q[j, self.ids[r]] = lo + ab_i[r] + 1
                    self.ab_cum[j, self.ids[r]] = cum_rows[r, ab_i[r]]
                    self.open[t, r] = False
        self.carry = cum[:, -1:]
        return cum_rows

    def _flips(self, lo, stop):
        """Flip sums of queries [lo, stop), bit for bit as np.add.reduceat sums them.

        reduceat adds a segment's later terms from the left and then its
        first, which is ``l[first] + fold[tail]``, while they number at most
        eight; from nine flips up it sums them pairwise, and so does this.
        """
        table, l = self.table, self.l
        vals, off, _ = table.slice_arrays(lo, stop)
        q = slice(lo, stop)
        flips = l.take(table.first[q], axis=1) + self.fold.take(table.tail[q], axis=1)
        if lo == 0:
            flips[:, 0] = 0.0
        sizes = off[1:stop - lo + 1] - off[:stop - lo]
        (big,) = np.nonzero(sizes >= 9)
        if len(big):
            flips[:, big] = np.add.reduceat(l.take(vals[_runs(off[big], sizes[big])] - 1, axis=1),
                                            np.cumsum(sizes[big]) - sizes[big], axis=1)
        return flips

    def _keep(self, live):
        """Drop the rows that stopped searching from the per-row arrays."""
        if not np.count_nonzero(live):
            # Once no row is searching nothing reads the other arrays again.
            self.ids = self.ids[:0]
            return
        for name in self.row_state:
            arr = getattr(self, name)
            if len(arr) > 1:
                setattr(self, name, arr[live])
        self.open = self.open[:, live]

    def rows(self):
        """One scan per searching row, each recording into these results.

        A lone searching row, or rows that share all their state but the
        syndrome to hit, continue in this scan itself.  Otherwise each row's
        scan views its row of this one's arrays, until its histories grow.
        """
        shared = ("cols", "l", "base") if self.ledger else ("cols",)
        if len(self.ids) == 1 or max(len(getattr(self, name)) for name in shared) == 1:
            yield self
            return
        for k in range(len(self.ids)):
            one = copy.copy(self)
            for name in self.row_state:
                arr = getattr(self, name)
                if len(arr) > 1:
                    setattr(one, name, arr[k:k + 1])
            one.open = self.open[:, k:k + 1]
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
        offsets = self.table.offsets
        starts = offsets[self.end_q[rows] - 1]
        sizes = offsets[self.end_q[rows]] - starts
        pos = self.table.flat[_runs(starts, sizes)] - 1
        row = np.repeat(rows, sizes)
        # A pattern flips distinct positions, so no (row, position) pair repeats.
        words[row, pos if self.frame is None else self.frame[row, pos]] ^= 1
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
    order and cap: column 0 of a one-row ``decode_batch``.
    """
    got = decode_batch(code, obs.hard[np.newaxis], obs.reliab[np.newaxis],
                       np.asarray(obs.ranks)[np.newaxis], taus, order_kind, max_queries,
                       accounting)
    word = got.words[0]
    outcomes = []
    for status, q, llr in zip(got.status[:, 0].tolist(), got.q[:, 0].tolist(),
                              got.llr_bits[:, 0].tolist()):
        report = LlrReport(llr_bits=llr, q=q)
        if status == HIT:
            outcomes.append(DecodeOutcome(decoded=True, q=q, word=word, report=report))
        else:
            outcomes.append(DecodeOutcome(decoded=False, q=q, report=report,
                                          reason=_REASONS[status]))
    return outcomes


def decode_batch(code, hard, reliab, ranks, taus, order_kind="logistic",
                 max_queries=None, accounting=None, confidence=True):
    """Decode every row of a (rows, n) block under every threshold in ``taus``.

    ``hard``, ``reliab`` and ``ranks`` hold one observation per row, as
    ``channel.transmit_arrays`` returns them; ``accounting``, if given, is
    shared by all rows.  The first 64 queries run for the whole block as
    2-D arrays, and a row leaves the block once every threshold is settled;
    rows still searching then continue one at a time.  Row i under tau j
    gets the outcome that a block holding observation i alone gives it, and
    ``softout.llr_bits`` gives the confidence at that outcome's query.
    With ``confidence=False`` the result has no ``llr_bits`` (None), and when
    every tau is None the scan keeps no running log-mass at all; status, q
    and words are the same either way.
    """
    hard = np.asarray(hard, dtype=np.uint8)
    scan = _Scan(code, hard, np.asarray(reliab, dtype=float),
                 np.asarray(ranks, dtype=np.int64), taus, order_kind, max_queries,
                 accounting, confidence)
    scan.run(stop=_BLOCK_QUERIES)
    for one in scan.rows():
        one.run(lo=_BLOCK_QUERIES)
    status, q, cum = scan.results()
    llr = softout.llr_bits(scan.redundancy, q, cum) if confidence else None
    return BatchOutcome(status=status, q=q, llr_bits=llr, words=scan.words(hard))

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

Query 1 flips nothing, so it needs no reliability order: its syndrome is
that of the hard decision and its log-mass the no-flip probability.  The
scan settles it first, for every row at once, and only the rows still
searching are then ranked by reliability (in the logistic order; the
hamming order ranks nothing).

For speed the rest of the loop is evaluated in growing chunks of queries
with numpy.  Each query's syndrome (packed parity columns XORed as words
of the narrowest unsigned type that holds n-k bits) and flip sum come from
those of an earlier query through the order table's parent pointers, as in
the syndrome reuse of hardware ORBGRAND decoders, and logaddexp.accumulate
gives the running sum.  The scan keeps that sum only while something reads
it: a finite tau that may still abandon, whose test needs it, or a caller
that wants the confidence.  Once neither is left it drops the sum, and
each chunk from then on is the syndromes and the hit test alone.
A chunk takes its queries one flip count at a time, so parents come
first.  Per-row syndromes locate only their hits; one sequence shared by
every row (the hamming order), or a lone row's, is compared with every
row's target at once.
Query 1 and every chunk then go through one settle step, which records
first hits, lets every open tau abandon at once, and drops the rows that
stopped.  ``decode_batch`` runs every chunk for a whole block of
observations at once, from query 2 until its last row stops.  Its arrays
are query-major, (queries, rows), so a parent pointer gathers one
contiguous vector of every row's syndrome or flip sum; ``_Rows`` holds
them, with the room its histories keep, and a row's column is dropped
from every array by the settle step at which it stops.
``decode`` is a one-row, one-tau ``decode_batch``, and a one-row
``decode_batch`` decodes an observation under a list of thresholds in one
scan.  The running sum is accumulated in query order for each row, as a
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

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import channel, softout
from .codes import packed_parity_columns
from .patterns import QueryOrder, order_table
from .softout import LlrReport

__all__ = [
    "BatchOutcome",
    "DecodePolicy",
    "DecodeOutcome",
    "decode",
    "decode_batch",
    "resolve_max_queries",
]

ABANDON_LLR = "llr_below_tau"
ABANDON_CAP = "query_cap_reached"

# How a threshold's decode of a row ended, in BatchOutcome.status.
HIT, BELOW_TAU, AT_CAP = 1, 2, 3
_REASONS = {BELOW_TAU: ABANDON_LLR, AT_CAP: ABANDON_CAP}

# Chunk edges: small early chunks keep clean-channel decodes cheap, 4096-wide
# steady-state chunks amortise numpy overhead on deep searches.
_CHUNK_EDGES = (16, 64, 256, 1024, 4096)
_CHUNK_STEP = 4096


def _check_tau(tau):
    if isinstance(tau, (bool, np.bool_)):
        raise ValueError(f"tau must be a number or None, got {tau!r}")
    if tau is not None and not math.isfinite(tau):
        raise ValueError(f"tau must be finite or None, got {tau}")


def _check_search(max_queries, order_kind):
    if max_queries is not None and (isinstance(max_queries, bool)
                                    or not isinstance(max_queries, (int, np.integer))
                                    or max_queries < 1):
        raise ValueError(f"max_queries must be an integer >= 1 or None, got {max_queries!r}")
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
    """[lo, hi) query index ranges from index 1, query 2, up to the cap.

    Query 1, index 0, is settled apart.
    """
    lo = 1
    for edge in _CHUNK_EDGES:
        if lo < min(edge, cap):
            yield lo, min(edge, cap)
            lo = min(edge, cap)
    while lo < cap:
        yield lo, min(lo + _CHUNK_STEP, cap)
        lo = min(lo + _CHUNK_STEP, cap)


class _Rows(dict):
    """A scan's per-row arrays by name, and the room its histories keep.

    Each array holds the rows still searching on its last axis, in the
    order of ``ids``, or one column that every row shares.  The histories
    ``syn`` and ``fold`` hold room for at most twice the queries so far, up
    to the cap: ``reserve`` doubles them, or grows them to the chunk end if
    that is further, and ``keep`` leaves room for as many queries again as
    were written.  So a deep search moves them a few times, and a deep
    block, whose memory is mostly searching rows × history, stays within
    about twice the rows still searching × queries so far.
    """

    histories = frozenset(("syn", "fold"))

    def __init__(self, cap, **arrays):
        super().__init__(arrays)
        self.cap = cap

    def reserve(self, hi):
        """Room in the histories for the queries before ``hi``."""
        for name in self.histories & self.keys():
            arr = self[name]
            if len(arr) < hi:
                new = np.empty((min(self.cap, max(hi, 2 * len(arr))), arr.shape[1]), arr.dtype)
                new[:len(arr)] = arr
                self[name] = new

    def keep(self, kept, written):
        """Keep the columns ``kept`` and the histories' ``written`` queries.

        A single column among several rows is shared and stays.  ``take``
        keeps every array C-ordered, so each query's row vector stays
        contiguous, as a mask on the last axis would not.
        """
        width = len(self["ids"])
        for name, arr in self.items():
            if arr.shape[-1] != width:
                continue
            if name in self.histories:
                new = np.empty((min(self.cap, 2 * written), len(kept)), dtype=arr.dtype)
                # Only under mode "raise" does take stage its output in a
                # copy; the indices are in range either way.
                arr[:written].take(kept, axis=1, out=new[:written], mode="clip")
            else:
                new = arr.take(kept, axis=-1)
            self[name] = new

    def drop(self, names):
        """Stop holding the arrays ``names``, those of them held."""
        for name in names:
            self.pop(name, None)


class _Scan:
    """Search state of a block of observations, one column each.

    Construction settles query 1 for every row, and ``run`` the rest of the
    search.  ``rows`` holds every per-row array: the searching rows' block
    rows ``ids``, their parity columns ``cols`` and reliabilities ``l`` in
    the row's frame as (n, rows) arrays, the no-flip log-probability
    ``base``, the syndrome ``target`` to hit, the running log-mass ``carry``
    after the last query so far, which thresholds are still ``open``, and
    the syndrome ``syn`` and left-folded flip sum ``fold`` of every query so
    far as (queries, rows) arrays, so that following a parent pointer copies
    a whole row vector.  A row that stops closes its thresholds, and the
    settle step that stops it drops its column from every per-row array.  In
    the logistic order ``frame`` holds the reliability ranks of the rows
    ``ranked``, those that searched past query 1; the scan ranks no
    others.  The running log-mass state (``base``, ``carry``, ``l``,
    ``fold``) is kept, and ``rows`` holds ``base``, only while something
    reads it: an open threshold, or the caller's ``confidence``.  Without
    ``confidence`` it is dropped by the settle step that closes the last
    threshold (never built without one), and the log-masses recorded after
    that read 0.  An array with a single column is shared by every row: in
    the hamming order ``cols`` and ``syn``, under an accounting observation
    ``base`` (and ``carry`` until the first chunk), and under both ``l``,
    ``fold`` and ``carry``.  Per block row the scan records how the search
    ended (HIT or AT_CAP, 0 if every threshold abandoned first) with the
    query and log-mass there, and per threshold and row those of an
    abandonment (q 0 for none).
    """

    def __init__(self, code, hard, reliab, taus, order_kind, max_queries,
                 accounting, confidence=True):
        if not len(taus):
            raise ValueError("taus must not be empty")
        for tau in taus:
            _check_tau(tau)
        _check_search(max_queries, order_kind)
        n = code.n
        if hard.ndim != 2:
            raise ValueError(f"hard and reliab must be (rows, n) arrays, got shape {hard.shape}")
        if hard.shape[1] != n:
            raise ValueError(f"observation length {hard.shape[1]} != code length {n}")
        if accounting is not None:
            # Checked here too: an observation's fields can be reassigned.
            acct = channel._reliabilities(accounting.reliab)
            if len(acct) != n:
                raise ValueError(f"accounting length {len(acct)} != code length {n}")
        size = len(hard)
        self.redundancy = code.redundancy
        self.cap = _resolve_cap(max_queries, code)
        self.table = order_table(QueryOrder(kind=order_kind, n=n))
        finite = [tau for tau in taus if tau is not None]
        self.taus = np.array(finite, dtype=float).reshape(-1, 1, 1)
        self.thresholds = np.array([j for j, tau in enumerate(taus) if tau is not None],
                                   dtype=np.intp)
        # A tau of None never abandons: its search runs to a hit or the cap.
        self.to_the_end = len(finite) < len(taus)

        packed = packed_parity_columns(code)
        # Query 1 flips nothing: its syndrome is the hard decision's and its
        # log-mass the no-flip one, so these are all the state it needs.
        rows = self.rows = _Rows(self.cap, ids=np.arange(size),
                                 target=np.bitwise_xor.reduce(packed * hard, axis=1),
                                 open=np.full((len(finite), size), True))
        # Open thresholds test the running log-mass; once none is open
        # only the caller's confidence would read it.
        self.confidence = confidence
        if confidence or finite:
            # One row of accounting reliabilities serves every row.
            source = reliab if accounting is None else acct[np.newaxis]
            rows["base"] = -np.add.reduce(np.log1p(np.exp(-source)), axis=1)[np.newaxis]

        self.end = np.zeros(size, dtype=np.int8)
        self.end_q = np.zeros(size, dtype=np.int64)
        self.end_cum = np.zeros(size)
        self.ab_q = np.zeros((len(taus), size), dtype=np.int64)
        self.ab_cum = np.zeros((len(taus), size))

        self._settle(0, 1, rows["target"] == 0, np.zeros(size, dtype=np.intp), rows.get("base"))
        # frame[i] maps searching row i's pattern frame to bit positions;
        # None is the identity frame of the hamming order.
        self.frame = None
        ids = rows["ids"]
        if not len(ids):
            return
        # Only the rows still searching are ranked and gathered.
        reliab = reliab[ids]
        if order_kind == "logistic":
            self.frame = channel._ranks(reliab)
            self.ranked = ids
        cols = (packed[:, np.newaxis] if self.frame is None
                else np.ascontiguousarray(packed[self.frame].T))
        # Query 1's syndrome, and below its flip sum, are 0.
        rows.update(cols=cols, syn=np.zeros((1, cols.shape[1]), dtype=packed.dtype))
        if "base" in rows:
            source = reliab if accounting is None else acct[np.newaxis]
            l = (source if self.frame is None
                 else source[np.arange(len(source))[:, np.newaxis], self.frame])
            # The running log-mass after query 1.
            rows.update(l=np.ascontiguousarray(l.T), fold=np.zeros((1, len(l))),
                        carry=rows["base"])

    def run(self):
        """Advance the searching rows from query 2 until each stops."""
        for lo, hi in _chunk_bounds(self.cap):
            if not len(self.rows["ids"]):
                return
            self.table.extend_to(hi)
            self._chunk(lo, hi)
        ids = self.rows["ids"]
        if len(ids):
            self.end[ids] = AT_CAP
            self.end_q[ids] = self.cap
            if "base" in self.rows:
                self.end_cum[ids] = self.rows["carry"][0]
            self.rows["ids"] = ids[:0]

    def _chunk(self, lo, hi):
        """Queries [lo, hi) for every searching row.

        A query's syndrome is its parent's XOR the parity column of its last
        index.
        """
        self.rows.reserve(hi)
        table, cols, syn = self.table, self.rows["cols"], self.rows["syn"]
        for g in table.waves(lo, hi):
            syn[g] = syn.take(table.parent[g], axis=0) ^ cols.take(table.last[g], axis=0)
        hit, hit_i = self._hits(syn[lo:hi])
        cum = None
        if "base" in self.rows:
            # No outcome reads the running sum past a row's first hit, so
            # when every row hits, the sum stops at the last of those hits.
            m = int(hit_i[hit].max()) + 1 if np.count_nonzero(hit) == len(hit) else hi - lo
            cum = self._running_sum(lo, hi, m)
        self._settle(lo, hi, hit, hit_i, cum)

    def _hits(self, syn):
        """The rows whose target is among ``syn``, and where each first is.

        ``syn`` holds a run of queries' syndromes, one query per array row
        and one column per searching row, or one column they share; a row's
        first hit is its index in ``syn`` (any index for a row that misses).
        """
        target = self.rows["target"]
        if syn.shape[1] > 1:
            # One column per row.  Hits are rare, so only they are located,
            # and a row's first hit is the least index among its matches.
            q, row = np.divmod(np.flatnonzero(syn == target), len(target))
            hit_i = np.full(len(target), len(syn))
            np.minimum.at(hit_i, row, q)
            hit = hit_i < len(syn)
        else:
            # One column shared by every row (the hamming order), or a lone
            # row's: it is compared with each row's target in (rows, queries)
            # form, whose rows argmax reads contiguously.
            eq = syn[:, 0] == target[:, np.newaxis]
            hit, hit_i = np.logical_or.reduce(eq, axis=1), eq.argmax(axis=1)
        return hit, hit_i

    def _running_sum(self, lo, hi, m):
        """Fold queries [lo, hi) and accumulate the running log-mass of [lo, lo + m).

        A query's ``fold`` is its parent's plus the reliability at its last
        index.  Returns the running log-mass per query and searching row
        (one column when the rows share it).
        """
        rows, table = self.rows, self.table
        l, fold = rows["l"], rows["fold"]
        for g in table.waves(lo, hi):
            fold[g] = fold.take(table.parent[g], axis=0) + l.take(table.last[g], axis=0)
        terms = rows["base"] - self._flips(lo, lo + m)
        # The running sum goes on from where the previous chunk left it.
        terms[0] = np.logaddexp(rows["carry"][0], terms[0])
        cum = np.logaddexp.accumulate(terms, axis=0)
        rows["carry"] = cum[-1:].copy()
        return cum

    def _settle(self, lo, hi, hit, hit_i, cum):
        """Record hits and abandonments among query indices [lo, hi); drop stopped rows.

        ``hit`` marks the rows that hit, first at index ``lo + hit_i``;
        ``cum`` is the running log-mass per query and row (one column when
        shared), None without a ledger.  A threshold abandons at its first
        crossing no later than the hit.
        """
        ids, open_ = self.rows["ids"], self.rows["open"]
        shared = cum is not None and cum.shape[1] != len(ids)
        if len(self.taus) and np.count_nonzero(open_):
            m = len(cum)
            qs = np.arange(lo + 1, lo + m + 1)[:, np.newaxis]
            below = softout._llr_bits(self.redundancy, qs, cum) < self.taus
            # A first crossing is searched for only where an open threshold
            # crossed.
            crossed = below.any(axis=1)
            crossed &= open_.any(axis=1, keepdims=True) if shared else open_
            t, c = np.nonzero(crossed)
            if len(t):
                ab_i = np.full(crossed.shape, m)  # m: no crossing
                ab_i[t, c] = below[t, :, c].argmax(axis=1)
                t, r = np.nonzero(open_ & (ab_i <= np.where(hit, hit_i, m - 1)))
                a = ab_i[t, 0 if shared else r]
                self.ab_q[self.thresholds[t], ids[r]] = a + (lo + 1)
                self.ab_cum[self.thresholds[t], ids[r]] = cum[a, 0 if shared else r]
                open_[t, r] = False
        stopped = hit if self.to_the_end else hit | ~open_.any(axis=0)
        # A stopped row's thresholds close with it.
        open_ &= ~stopped
        if "base" in self.rows and not self.confidence and not open_.any():
            self.rows.drop(("base", "carry", "l", "fold"))
        # Every row that hit has stopped.
        if np.count_nonzero(stopped):
            done, a = ids[hit], hit_i[hit]
            self.end[done] = HIT
            self.end_q[done] = a + (lo + 1)
            if "base" in self.rows:
                self.end_cum[done] = cum[a, 0 if shared else hit]
            self.rows.keep(np.flatnonzero(~stopped), hi)

    def _flips(self, lo, stop):
        """Flip sums of queries [lo, stop), bit for bit as np.add.reduceat sums them.

        reduceat adds a segment's later terms from the left and then its
        first, which is ``l[first] + fold[tail]``, while they number at most
        eight; from nine flips up it sums them pairwise, and so does this,
        along the rows of a (rows, flips) copy.
        """
        table, l = self.table, self.rows["l"]
        q = slice(lo, stop)
        flips = l.take(table.first[q], axis=0) + self.rows["fold"].take(table.tail[q], axis=0)
        (big,) = np.nonzero(table.flips[q] >= 9)
        if len(big):
            entry, pos = table.positions(big + lo)
            starts = np.flatnonzero(np.diff(entry, prepend=-1))
            by_row = np.ascontiguousarray(l.take(pos, axis=0).T)
            flips[big] = np.add.reduceat(by_row, starts, axis=1).T
        return flips

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
        if not len(rows):
            return words
        entry, pos = self.table.positions(self.end_q[rows] - 1)
        row = rows[entry]
        if self.frame is not None:
            pos = self.frame[np.searchsorted(self.ranked, row), pos]
        # A pattern flips distinct positions, so no (row, position) pair repeats.
        words[row, pos] ^= 1
        return words


def decode(code, obs, policy, accounting=None):
    """Decode one observation under a policy; deterministic given inputs.

    ``accounting`` optionally supplies the observation whose flip
    probabilities feed the confidence ledger (defaults to ``obs`` itself,
    the matched case).  The outcome is the single cell of a one-row,
    one-tau ``decode_batch``.
    """
    got = decode_batch(code, obs.hard[np.newaxis], obs.reliab[np.newaxis], (policy.tau,),
                       policy.order_kind, policy.max_queries, accounting)
    status, q = int(got.status[0, 0]), int(got.q[0, 0])
    report = LlrReport(llr_bits=float(got.llr_bits[0, 0]), q=q)
    if status == HIT:
        return DecodeOutcome(decoded=True, q=q, word=got.words[0], report=report)
    return DecodeOutcome(decoded=False, q=q, report=report, reason=_REASONS[status])


def decode_batch(code, hard, reliab, taus, order_kind="logistic",
                 max_queries=None, accounting=None, confidence=True):
    """Decode every row of a (rows, n) block under every threshold in ``taus``.

    ``hard`` and ``reliab`` hold one observation per row, as
    ``channel.transmit_arrays`` returns them; ``accounting``, if given, is
    shared by all rows; they must have one shape, with hard decisions of 0
    or 1 and finite, nonnegative reliabilities.  Query 1 is settled for
    every row first, and only the rows that search past it are ranked by
    reliability.  The search runs for the whole block as 2-D arrays, and a
    row leaves the block once every threshold is settled.  Row i
    under tau j gets the outcome that a block holding observation i alone
    gives it, and ``softout.llr_bits`` gives the confidence at that
    outcome's query.
    With ``confidence=False`` the result has no ``llr_bits`` (None), and the
    scan keeps the running log-mass only until every finite tau has closed
    (not at all when every tau is None); status, q and words are the same
    either way.
    """
    hard, reliab = channel._observation_arrays(hard, reliab)
    scan = _Scan(code, hard, reliab, taus, order_kind, max_queries, accounting, confidence)
    scan.run()
    status, q, cum = scan.results()
    llr = softout.llr_bits(scan.redundancy, q, cum) if confidence else None
    return BatchOutcome(status=status, q=q, llr_bits=llr, words=scan.words(hard))

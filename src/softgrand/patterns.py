"""Candidate noise-pattern enumeration for guess-and-check decoding.

Two query orders are provided.  "hamming" enumerates flip sets by ascending
Hamming weight, lexicographic within a weight, which is the natural order
for hard-detection guessing.  "logistic" enumerates by ascending logistic
weight, the sum of the 1-based reliability ranks of the flipped bits
(rank 1 = least reliable), ties broken by fewer flips first and then
lexicographically on the sorted rank tuple; this rank-statistic order tracks
descending pattern likelihood without using reliability magnitudes.

Patterns live in the order's reference frame: "hamming" indexes bits
directly, "logistic" indexes the ascending-reliability permutation of the
bits (index 0 = least reliable).  Each (kind, n) has one cached table,
built with numpy level by level over flip counts; the table holds at least
the patterns asked for so far.  It records each pattern once, as pointers
to the patterns without its largest and without its smallest index, and
reads a pattern's indices back along the first of those pointers, so a
sequence can be resumed from any global index without recomputing the
prefix.  A table that must grow is rebuilt whole, to at least twice its
size.  The cache keeps the few most recently used tables.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QueryOrder",
    "QueryPattern",
    "query_patterns",
    "realized_positions",
    "pattern_log_probability",
    "order_table",
]

_KINDS = ("hamming", "logistic")


@dataclass(frozen=True)
class QueryOrder:
    """A pattern enumeration: ordering rule plus block length."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.n < 1:
            raise ValueError(f"block length must be positive, got {self.n}")


@dataclass(frozen=True)
class QueryPattern:
    """One flip set.

    ``positions`` are 0-based ascending indices in the order's reference
    frame; ``weight`` is the ordering weight (Hamming weight for "hamming",
    logistic weight for "logistic").
    """

    positions: tuple
    weight: int


def _band_sizes(kind, n, top):
    """How many flip sets of 1..n have weight w, for w = 0..top, as floats."""
    sizes = np.zeros(top + 1)
    sizes[0] = 1.0
    for i in range(1, n + 1):
        step = 1 if kind == "hamming" else i
        if step > top:
            break
        sizes[step:] = sizes[step:] + sizes[:-step]
    return sizes


class _OrderTable:
    """Materialised prefix of the pattern sequence for one (kind, n).

    Per pattern i, ``parent[i]`` is the index of pattern i without its
    largest frame index and ``tail[i]`` the index of pattern i without its
    smallest; both come before i.  ``first[i]`` and ``last[i]`` are its
    smallest and largest 0-based frame indices and ``flips[i]`` how many it
    has.  The empty pattern, index 0, has all five 0.  These arrays are the
    only record of a pattern: its frame indices are the ``last`` entries
    along its parent chain, which ``positions`` and ``pattern`` walk back.

    The table is built level by level over flip counts: every m-flip set is
    an (m-1)-flip set extended by a larger index, so extending each level in
    lexicographic order gives the next level in lexicographic order, and
    the query order sorts the levels' patterns by (weight, flips, level
    position).  The levels go up to the weight band that holds the
    requested count (for "hamming", weight is the flip count and only the
    lexicographic prefix of that band that is needed).  Each growth
    rebuilds the table whole, at least doubling it, so a table grown step
    by step costs about two builds of its final size.
    """

    def __init__(self, kind, n):
        self.kind = kind
        self.n = n
        self.parent = np.zeros(0, dtype=np.int32)
        self.tail = np.zeros(0, dtype=np.int32)
        self.first = np.zeros(0, dtype=np.int32)
        self.last = np.zeros(0, dtype=np.int32)
        # No pattern a table can reach has 128 flips: the first such comes
        # after 2^128 - 1 others in either order.
        self.flips = np.zeros(0, dtype=np.int8)
        self.count = 0
        self._waves = {}

    def extend_to(self, count):
        """Hold at least ``count`` patterns, or all 2^n of them.

        A growth rebuilds the table to at least twice its size.
        """
        if min(count, 1 << self.n) <= self.count:
            return
        count = min(max(count, 2 * self.count), 1 << self.n)
        levels = self._levels(count)
        sizes = [len(level[0]) for level in levels]
        flips = np.repeat(np.arange(len(levels), dtype=np.int32), sizes)
        weight, last, first, par, tail = (np.concatenate(a) for a in zip(*levels))
        # The levels are concatenated by flips, each in lex order, so a
        # stable sort by weight gives the query order: weight, flips, lex.
        take = np.argsort(weight, kind="stable")[:count]
        index = np.empty(len(weight), dtype=np.int32)
        index[take] = np.arange(count, dtype=np.int32)
        flips, last, first, par, tail = (a[take] for a in (flips, last, first, par, tail))
        # Parent and tail are at level m-1, and taken: each weighs less.
        up = np.concatenate(([0], np.cumsum(sizes)))[np.maximum(flips - 1, 0)]
        self.parent, self.tail = index[up + par], index[up + tail]
        self.first = np.maximum(first - 1, 0)
        self.last = np.maximum(last - 1, 0)
        self.flips = flips.astype(np.int8)
        self.count = count

    def _levels(self, count):
        """Every level up to the band that holds pattern ``count``.

        Returns per flip count m the level-m entries in lex order: their
        weights, last and first 1-based indices, and the level m-1
        positions of their parents and tails.
        """
        n = self.n
        hamming = self.kind == "hamming"
        most = n if hamming else n * (n + 1) // 2
        # total[w]: how many patterns weigh at most w, up to a weight top
        # that doubles until they number count.  The first guess suffices
        # in the hamming order, where at least 2^top patterns weigh <= top.
        top = int(count).bit_length()
        while True:
            total = np.cumsum(_band_sizes(self.kind, n, min(top, most)))
            if total[-1] >= count or top >= most:
                break
            top *= 2
        # The first count patterns: all lighter than bound, band_size weighing bound.
        bound = int(np.searchsorted(total, count))
        band_size = count - (int(total[bound - 1]) if bound else 0)
        zero = np.zeros(1, dtype=np.int32)
        levels = [(zero,) * 5]
        weight, last, tail, first = zero, zero, zero, zero
        starts_up = None
        for m in range(1, n + 1):
            if hamming and m > bound:
                break
            top = n if hamming else np.minimum(n, bound - weight)
            kids = np.maximum(top - last, 0)
            if hamming and m == bound:
                # Only the lexicographic prefix of the last band is needed.
                ends = np.cumsum(kids)
                kids[int(np.searchsorted(ends, band_size)) + 1:] = 0
            starts = np.zeros(len(kids) + 1, dtype=np.int32)
            np.cumsum(kids, out=starts[1:])
            size = int(starts[-1])
            if not size:
                break
            par = np.repeat(np.arange(len(kids), dtype=np.int32), kids)
            # The children of a level entry extend it by last+1, last+2, ...
            idx = np.arange(size, dtype=np.int32) - np.repeat(starts[:-1] - last - 1, kids)
            if m == 1:
                tail_m, first_m = np.zeros(size, dtype=np.int32), idx
            else:
                # The tail of a child is the child of its parent's tail that
                # adds the same index.
                tail_last = last[par] if m > 2 else 0
                tail_m = starts_up[tail[par]] + idx - tail_last - 1
                first_m = first[par]
            weight_m = np.full(size, m, dtype=np.int32) if hamming else weight[par] + idx
            levels.append((weight_m, idx, first_m, par, tail_m))
            weight, last, tail, first, starts_up = weight_m, idx, tail_m, first_m, starts
        return levels

    def positions(self, idx):
        """(entry, 0-based frame index) pairs of the patterns at indices ``idx``.

        ``entry`` is the place of a pattern in ``idx``; the pairs come in
        ``idx`` order, each pattern's frame indices ascending.  A pattern's
        indices are its parent's followed by its last, so they are filled in
        from its end back along its parent chain, which ends at pattern 0.
        """
        sizes = self.flips[idx]
        end = np.cumsum(sizes, dtype=np.intp)
        pos = np.empty(int(sizes.sum()), dtype=np.int32)
        pat = np.asarray(idx)
        while True:
            (more,) = np.nonzero(pat)
            if not len(more):
                break
            pat, end = pat[more], end[more] - 1
            pos[end] = self.last[pat]
            pat = self.parent[pat]
        return np.repeat(np.arange(len(sizes)), sizes), pos

    def pattern(self, i):
        if i >= self.count:
            raise IndexError(i)
        positions = []
        while i:
            positions.append(int(self.last[i]))
            i = self.parent[i]
        positions.reverse()
        weight = len(positions) if self.kind == "hamming" else sum(positions) + len(positions)
        return QueryPattern(positions=tuple(positions), weight=weight)

    def waves(self, lo, hi):
        """Patterns [max(lo, 1), hi) in groups to take in turn, memoised.

        Each pattern's parent comes before ``lo`` or in an earlier group.
        The groups are index arrays of one flip count each, in ascending
        order, since a parent has one flip fewer; or one slice when no
        parent falls in the range, as in deep ranges: a parent weighs less
        by its largest index.
        """
        got = self._waves.get((lo, hi))
        if got is not None:
            return got
        start = max(lo, 1)
        if not (self.parent[start:hi] >= start).any():
            got = [slice(start, hi)]
        else:
            flips = self.flips[start:hi]
            # The flip counts present, ascending; np.unique would import
            # numpy.ma, about 1.4 MB of peak memory.
            present = np.flatnonzero(np.bincount(flips))
            got = [np.flatnonzero(flips == f) + start for f in present]
        self._waves[(lo, hi)] = got
        return got


# A run uses one or two orders; the bound only stops a process that decodes
# many block lengths from holding every table it ever built.
_TABLE_CACHE_SIZE = 8


@functools.lru_cache(maxsize=_TABLE_CACHE_SIZE)
def order_table(order):
    """Shared cached table for this order (grown lazily, never shrunk).

    At most ``_TABLE_CACHE_SIZE`` tables are kept; the least recently used
    one is dropped first, and a dropped table is rebuilt on its next use.
    """
    return _OrderTable(order.kind, order.n)


def query_patterns(order, start=0):
    """Yield patterns in query order, beginning at global index ``start``.

    The sequence is a pure function of (kind, n), so iteration can stop and
    resume at any index; nothing about an observation is captured.
    """
    table = order_table(order)
    for i in range(int(start), 1 << order.n):
        if i >= table.count:
            table.extend_to(i + 1024)
        yield table.pattern(i)


def realized_positions(pattern, order, obs):
    """Map a pattern to actual bit positions for one observation."""
    if order.kind == "hamming":
        return tuple(pattern.positions)
    ranks = obs.ranks
    return tuple(sorted(int(ranks[p]) for p in pattern.positions))


def pattern_log_probability(obs, positions):
    """Natural-log probability that the noise flipped exactly ``positions``.

    With per-bit flip probabilities B_i = e^-l_i / (1 + e^-l_i) this is
    sum(log(1-B)) + sum_flipped(log B - log(1-B)), and log B - log(1-B)
    is exactly -l, so no B is ever formed explicitly.
    """
    base = -float(np.sum(np.log1p(np.exp(-obs.reliab))))
    positions = list(positions)
    if positions:
        base -= float(np.sum(obs.reliab[positions]))
    return base

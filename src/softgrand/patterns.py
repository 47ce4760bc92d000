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
built with numpy level by level over flip counts; the table holds exactly
the patterns asked for so far, each with pointers to the patterns without
its largest and without its smallest index, and a sequence can be resumed
from any global index without recomputing the prefix.  The cache keeps the
few most recently used tables.
"""

from __future__ import annotations

import collections
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

    ``flat`` holds the concatenated 1-based frame indices of every pattern,
    ``offsets[i]:offsets[i+1]`` delimits pattern i, so the arrays feed
    numpy ``reduceat`` calls directly.  Per pattern i, ``parent[i]`` is the
    index of pattern i without its largest frame index and ``tail[i]`` the
    index of pattern i without its smallest; both come before i.
    ``first[i]`` and ``last[i]`` are its smallest and largest 0-based frame
    indices.  The empty pattern, index 0, has all four 0.  ``exhausted``
    turns true once more patterns were asked for than exist.

    The table is built level by level over flip counts: every m-flip set is
    an (m-1)-flip set extended by a larger index, so extending each level in
    lexicographic order gives the next level in lexicographic order, and
    the query order sorts the levels' patterns by (weight, flips, level
    position).  Each growth rebuilds the levels up to the weight band that
    holds the requested count (for "hamming", weight is the flip count and
    only the lexicographic prefix of that band that is needed) and appends
    the patterns not yet stored.
    """

    def __init__(self, kind, n):
        self.kind = kind
        self.n = n
        self.flat = np.zeros(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.parent = np.zeros(0, dtype=np.int32)
        self.tail = np.zeros(0, dtype=np.int32)
        self.first = np.zeros(0, dtype=np.int32)
        self.last = np.zeros(0, dtype=np.int32)
        self.count = 0
        self.exhausted = False
        # Per flip count, the table index of each level entry in
        # lexicographic order (-1 until stored), and the weight bound the
        # levels were built to.
        self._stored = []
        self._bound = -1
        # _total[w]: how many patterns weigh at most w, up to some weight.
        self._total = np.ones(1)
        self._waves = {}

    def extend_to(self, count):
        """Grow the table until it holds ``count`` patterns or all of them."""
        if count <= self.count or self.exhausted:
            return
        if count > 1 << self.n:
            self.exhausted = True
            count = 1 << self.n
            if count <= self.count:
                return
        stored, fresh = self._levels(count)
        flips = np.repeat(np.arange(len(fresh)), [len(f[0]) for f in fresh])
        pos, weight, last, first, par, tail = (np.concatenate(a) for a in zip(*fresh))
        # The next patterns in query order: by weight, flips, then lex order.
        take = np.lexsort((pos, flips, weight))[:count - self.count]
        flips, pos, last, first, par, tail = (
            a[take] for a in (flips, pos, last, first, par, tail))
        new = np.arange(self.count, count)
        parent = np.zeros(len(new), dtype=np.int32)
        for m in range(len(stored)):
            (mine,) = np.nonzero(flips == m)
            stored[m][pos[mine]] = new[mine]
            if m:
                # Parent and tail are stored: each weighs less than the pattern.
                parent[mine] = stored[m - 1][par[mine]]
                tail[mine] = stored[m - 1][tail[mine]]

        offsets = np.concatenate((self.offsets, self.offsets[-1] + np.cumsum(flips)))
        flat = np.concatenate((self.flat, np.empty(int(offsets[-1] - self.offsets[-1]),
                                                   dtype=np.int32)))
        for m in range(1, len(stored)):
            (mine,) = np.nonzero(flips == m)
            # A pattern's indices are its parent's followed by its last.
            seg = offsets[new[mine]][:, np.newaxis] + np.arange(m)
            flat[seg[:, :-1]] = flat[offsets[parent[mine]][:, np.newaxis] + np.arange(m - 1)]
            flat[seg[:, -1]] = last[mine]
        self.flat, self.offsets = flat, offsets
        self.parent = np.concatenate((self.parent, parent))
        self.tail = np.concatenate((self.tail, tail))
        self.first = np.concatenate((self.first, np.maximum(first - 1, 0)))
        self.last = np.concatenate((self.last, np.maximum(last - 1, 0)))
        self.count = count
        self._stored = stored

    def _levels(self, count):
        """Rebuild the levels up to the band that holds pattern ``count``.

        Returns two lists over flip counts m.  The first holds the table
        index of each level-m entry in lex order, -1 if not stored yet.  The
        second holds, for the entries not stored yet, their level positions,
        weights, last and first 1-based indices, and the level m-1 positions
        of their parents and tails.
        """
        n = self.n
        hamming = self.kind == "hamming"
        most = n if hamming else n * (n + 1) // 2
        while self._total[-1] < count and len(self._total) <= most:
            self._total = np.cumsum(_band_sizes(self.kind, n, min(2 * len(self._total), most)))
        # The first count patterns: all lighter than bound, band_size weighing bound.
        bound = int(np.searchsorted(self._total, count))
        band_size = count - (int(self._total[bound - 1]) if bound else 0)
        stored, fresh = [], []

        def add(level, *columns):
            (pos,) = np.nonzero(level < 0)
            stored.append(level)
            fresh.append((pos,) + tuple(c[pos] for c in columns))

        zero = np.zeros(1, dtype=np.int32)
        add(np.array([0 if self.count else -1], dtype=np.int32), *[zero] * 5)
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
            level = np.full(size, -1, dtype=np.int32)
            if m < len(self._stored):
                before = self._stored[m]
                if hamming:
                    level[:len(before)] = before
                else:
                    level[weight_m <= self._bound] = before
            add(level, weight_m, idx, first_m, par, tail_m)
            weight, last, tail, first, starts_up = weight_m, idx, tail_m, first_m, starts
        self._bound = bound
        return stored, fresh

    def pattern(self, i):
        if i >= self.count:
            raise IndexError(i)
        vals = self.flat[self.offsets[i]:self.offsets[i + 1]]
        if self.kind == "hamming":
            weight = len(vals)
        else:
            weight = int(vals.sum())
        return QueryPattern(positions=tuple(int(v) - 1 for v in vals), weight=weight)

    def slice_arrays(self, start, stop):
        """Frame indices and local offsets for patterns [start, stop).

        Returns (values, offsets, actual_stop) where ``values`` are 1-based
        frame indices, ``offsets`` has length actual_stop - start + 1 and is
        relative to ``values``, and actual_stop <= stop if the order ran out.
        """
        self.extend_to(stop)
        stop = min(stop, self.count)
        off = self.offsets[start:stop + 1]
        vals = self.flat[off[0]:off[-1]]
        return vals, off - off[0], stop

    def waves(self, lo, hi):
        """Patterns [max(lo, 1), hi) in groups to take in turn, memoised.

        Each pattern's parent comes before ``lo`` or in an earlier group.
        The groups are index arrays, or one slice when no parent falls in
        the range, as in deep ranges: a parent weighs less by its largest
        index.
        """
        got = self._waves.get((lo, hi))
        if got is not None:
            return got
        start = max(lo, 1)
        par = self.parent[start:hi]
        inner = par >= start
        if not inner.any():
            got = [slice(start, hi)]
        else:
            # How many parents in the range a pattern waits for.
            depth = np.zeros(hi - start, dtype=np.intp)
            up = par[inner] - start
            while True:
                deeper = depth[up] + 1
                if np.array_equal(deeper, depth[inner]):
                    break
                depth[inner] = deeper
            got = [np.flatnonzero(depth == d) + start for d in range(int(depth.max()) + 1)]
        self._waves[(lo, hi)] = got
        return got


# (kind, n) -> table, least recently used first.  A run uses one or two
# orders; the bound only stops a process that decodes many block lengths
# from holding every table it ever built.
_TABLE_CACHE = collections.OrderedDict()
_TABLE_CACHE_SIZE = 8


def order_table(order):
    """Shared cached table for this order (grown lazily, never shrunk).

    At most ``_TABLE_CACHE_SIZE`` tables are kept; the least recently used
    one is dropped first, and a dropped table is rebuilt on its next use.
    """
    key = (order.kind, order.n)
    table = _TABLE_CACHE.get(key)
    if table is None:
        table = _TABLE_CACHE[key] = _OrderTable(order.kind, order.n)
        if len(_TABLE_CACHE) > _TABLE_CACHE_SIZE:
            _TABLE_CACHE.popitem(last=False)
    else:
        _TABLE_CACHE.move_to_end(key)
    return table


def query_patterns(order, start=0):
    """Yield patterns in query order, beginning at global index ``start``.

    The sequence is a pure function of (kind, n), so iteration can stop and
    resume at any index; nothing about an observation is captured.
    """
    table = order_table(order)
    i = int(start)
    while True:
        if i >= table.count:
            table.extend_to(i + 1024)
            if i >= table.count:
                return
        yield table.pattern(i)
        i += 1


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

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
bits (index 0 = least reliable).  Each (kind, n) has one cached table fed
by one pattern generator; the table holds exactly the patterns asked for so
far, and a sequence can be resumed from any global index without
recomputing the prefix.  The cache keeps the few most recently used tables.
"""

from __future__ import annotations

import collections
import itertools
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


def _partitions_fixed(total, m, lo, hi):
    """Ascending m-tuples of distinct ints in [lo, hi] summing to total, lex order."""
    if m == 0:
        if total == 0:
            yield ()
        return
    for first in range(lo, hi + 1):
        rest = total - first
        min_rest = (m - 1) * first + m * (m - 1) // 2
        if min_rest > rest:
            break
        max_rest = (m - 1) * hi - (m - 2) * (m - 1) // 2
        if max_rest < rest:
            continue
        for tail in _partitions_fixed(rest, m - 1, first + 1, hi):
            yield (first,) + tail


def _pattern_stream(kind, n):
    """Every flip set of 1-based frame indices 1..n, in query order."""
    if kind == "hamming":
        for weight in range(n + 1):
            yield from itertools.combinations(range(1, n + 1), weight)
        return
    for weight in range(n * (n + 1) // 2 + 1):
        m = 0
        while m <= n and m * (m + 1) // 2 <= weight:
            yield from _partitions_fixed(weight, m, 1, n)
            m += 1


class _OrderTable:
    """Materialised prefix of the pattern sequence for one (kind, n).

    ``flat`` holds the concatenated 1-based frame indices of every pattern,
    ``offsets[i]:offsets[i+1]`` delimits pattern i, so the arrays feed
    numpy ``reduceat`` calls directly.  ``exhausted`` turns true once the
    generator has run dry.
    """

    def __init__(self, kind, n):
        self.kind = kind
        self.n = n
        self.flat = np.zeros(0, dtype=np.int32)
        self.offsets = np.zeros(1, dtype=np.int64)
        self.count = 0
        self.exhausted = False
        self._stream = _pattern_stream(kind, n)

    def extend_to(self, count):
        """Grow the table until it holds ``count`` patterns or all of them."""
        if count <= self.count or self.exhausted:
            return
        members = list(itertools.islice(self._stream, count - self.count))
        if len(members) < count - self.count:
            self.exhausted = True
        if not members:
            return
        lengths = np.fromiter(map(len, members), dtype=np.int64, count=len(members))
        vals = np.fromiter(itertools.chain.from_iterable(members), dtype=np.int32,
                           count=int(lengths.sum()))
        self.flat = np.concatenate((self.flat, vals))
        self.offsets = np.concatenate((self.offsets, self.offsets[-1] + np.cumsum(lengths)))
        self.count += len(members)

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
        return vals, (off - off[0]).astype(np.int64), stop


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

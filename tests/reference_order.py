"""The query orders as plain Python generators: the reference for the tables.

``patterns._OrderTable`` builds the orders level by level with numpy; these
generators enumerate the same sequences one tuple at a time, straight from
the ordering rules, and the table tests compare the two.
"""

import itertools

import numpy as np


def partitions_fixed(total, m, lo, hi):
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
        for tail in partitions_fixed(rest, m - 1, first + 1, hi):
            yield (first,) + tail


def pattern_stream(kind, n):
    """Every flip set of 1-based frame indices 1..n, in query order."""
    if kind == "hamming":
        for weight in range(n + 1):
            yield from itertools.combinations(range(1, n + 1), weight)
        return
    for weight in range(n * (n + 1) // 2 + 1):
        m = 0
        while m <= n and m * (m + 1) // 2 <= weight:
            yield from partitions_fixed(weight, m, 1, n)
            m += 1


def reference_arrays(kind, n, count):
    """``flat`` and ``offsets`` of the first ``count`` patterns of the order."""
    members = list(itertools.islice(pattern_stream(kind, n), count))
    lengths = [len(p) for p in members]
    flat = np.fromiter(itertools.chain.from_iterable(members), dtype=np.int32,
                       count=sum(lengths))
    offsets = np.concatenate(([0], np.cumsum(lengths, dtype=np.int64)))
    return flat, offsets

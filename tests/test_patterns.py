"""Pattern enumeration: ordering rules, completeness, resumability."""

import itertools
import math

import numpy as np
import pytest
from reference_order import partitions_fixed, reference_arrays

from softgrand import decoder, patterns
from softgrand.channel import SoftObservation
from softgrand.patterns import (QueryOrder, QueryPattern, order_table,
                                pattern_log_probability, query_patterns,
                                realized_positions)


TABLE_ARRAYS = ("parent", "tail", "first", "last", "flips")


def take(order, count, start=0):
    return list(itertools.islice(query_patterns(order, start=start), count))


def assert_pointers(table):
    """The table's pointers give the reference generator's patterns.

    Read back along the parent pointers, the patterns are the generator's;
    parent/tail index the pattern without its last/first index, and
    first/last/flips are those indices and the pattern's size.
    """
    flat, offsets = reference_arrays(table.kind, table.n, table.count)
    sizes = np.diff(offsets)
    entry, pos = table.positions(np.arange(table.count))
    assert np.array_equal(pos + 1, flat)
    assert np.array_equal(entry, np.repeat(np.arange(table.count), sizes))
    assert np.array_equal(table.flips, sizes)
    q = np.arange(1, table.count)
    assert (table.parent[q] < q).all() and (table.tail[q] < q).all()
    assert (sizes[table.parent[q]] == sizes[q] - 1).all()
    assert (sizes[table.tail[q]] == sizes[q] - 1).all()
    sizes = sizes[q]
    # each reference entry of patterns 1.., with its place within its pattern
    within = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    own = flat[np.repeat(offsets[q], sizes) + within]
    head = within < np.repeat(sizes - 1, sizes)
    at_parent = np.repeat(offsets[table.parent[q]], sizes) + within
    assert np.array_equal(own[head], flat[at_parent[head]])
    at_tail = np.repeat(offsets[table.tail[q]], sizes) + within - 1
    assert np.array_equal(own[within > 0], flat[at_tail[within > 0]])
    assert np.array_equal(table.first[q], flat[offsets[q]] - 1)
    assert np.array_equal(table.last[q], flat[offsets[q + 1] - 1] - 1)
    assert table.parent[0] == table.tail[0] == table.first[0] == table.last[0] == 0


class TestOrdering:
    def test_logistic_n4_full_sequence(self):
        # Derived by hand: sort all 16 subsets by (rank sum, size, lex).
        got = [tuple(p + 1 for p in pat.positions)
               for pat in take(QueryOrder("logistic", 4), 16)]
        assert got == [(), (1,), (2,), (3,), (1, 2), (4,), (1, 3), (1, 4),
                       (2, 3), (2, 4), (1, 2, 3), (3, 4), (1, 2, 4),
                       (1, 3, 4), (2, 3, 4), (1, 2, 3, 4)]

    def test_hamming_n4_full_sequence(self):
        got = [tuple(p + 1 for p in pat.positions)
               for pat in take(QueryOrder("hamming", 4), 16)]
        assert got == [(), (1,), (2,), (3,), (4,), (1, 2), (1, 3), (1, 4),
                       (2, 3), (2, 4), (3, 4), (1, 2, 3), (1, 2, 4),
                       (1, 3, 4), (2, 3, 4), (1, 2, 3, 4)]

    def test_weights_reported(self):
        pats = take(QueryOrder("logistic", 5), 32)
        for pat in pats:
            assert pat.weight == sum(p + 1 for p in pat.positions)
        pats = take(QueryOrder("hamming", 5), 32)
        for pat in pats:
            assert pat.weight == len(pat.positions)

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    def test_weight_monotone(self, kind):
        pats = take(QueryOrder(kind, 10), 1 << 10)
        weights = [p.weight for p in pats]
        assert all(a <= b for a, b in zip(weights, weights[1:]))

    def test_logistic_tie_break(self):
        # within a weight class: fewer flips first, then lex on rank tuples
        pats = take(QueryOrder("logistic", 8), 200)
        by_weight = {}
        for p in pats:
            by_weight.setdefault(p.weight, []).append(p.positions)
        for members in by_weight.values():
            keyed = [(len(m), m) for m in members]
            assert keyed == sorted(keyed)

    def test_hamming_lex_within_weight(self):
        pats = take(QueryOrder("hamming", 8), 256)
        by_weight = {}
        for p in pats:
            by_weight.setdefault(p.weight, []).append(p.positions)
        for members in by_weight.values():
            assert members == sorted(members)


class TestCompleteness:
    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    @pytest.mark.parametrize("n", [4, 7, 10, 12])
    def test_bijective_enumeration(self, kind, n):
        pats = take(QueryOrder(kind, n), 1 << n)
        seen = {p.positions for p in pats}
        assert len(pats) == 1 << n
        assert len(seen) == 1 << n
        # generator stops exactly at exhaustion
        tail = take(QueryOrder(kind, n), 5, start=(1 << n) - 1)
        assert len(tail) == 1


class TestResumability:
    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    def test_start_offset_matches_prefix_skip(self, kind):
        order = QueryOrder(kind, 16)
        full = take(order, 900)
        for start in (0, 1, 17, 255, 256, 777):
            assert take(order, 10, start=start) == full[start:start + 10]


class TestTableBuild:
    """The numpy build gives the reference generators' order and pointers."""

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    @pytest.mark.parametrize("n", range(1, 13))
    def test_every_pattern_matches_the_generator(self, kind, n):
        table = patterns._OrderTable(kind, n)
        table.extend_to(1 << n)
        assert table.count == 1 << n
        table.extend_to((1 << n) + 1)
        assert table.count == 1 << n
        assert_pointers(table)

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    def test_n128_prefix_matches_the_generator(self, kind):
        table = patterns._OrderTable(kind, 128)
        table.extend_to(32768)
        assert_pointers(table)

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    def test_uneven_growth_equals_one_build(self, kind):
        once = patterns._OrderTable(kind, 128)
        once.extend_to(32768)
        steps = patterns._OrderTable(kind, 128)
        for count in (1, 17, 300, 4096, 32768):
            steps.extend_to(count)
            assert steps.count == count
        # The decoder's own steps: each growth at least doubles the table.
        grown = patterns._OrderTable(kind, 128)
        for count in [hi for _, hi in decoder._chunk_bounds(32768)]:
            before = grown.count
            grown.extend_to(count)
            assert grown.count == before or grown.count == max(count, 2 * before)
            assert grown.count >= count
        for table in (steps, grown):
            for name in TABLE_ARRAYS:
                assert np.array_equal(getattr(table, name), getattr(once, name)), name


class TestPartitions:
    def test_distinct_ascending_and_sum(self):
        for total in range(0, 25):
            for m in range(0, 6):
                for tup in partitions_fixed(total, m, 1, 9):
                    assert len(tup) == m
                    assert sum(tup) == total
                    assert all(a < b for a, b in zip(tup, tup[1:]))
                    assert all(1 <= x <= 9 for x in tup)

    def test_counts_against_brute_force(self):
        for total in range(0, 20):
            got = sum(1 for m in range(0, 7)
                      for _ in partitions_fixed(total, m, 1, 6))
            brute = 0
            for size in range(0, 7):
                for combo in itertools.combinations(range(1, 7), size):
                    brute += sum(combo) == total
            assert got == brute


class TestTableInternals:
    def test_positions_match_patterns(self):
        # unsorted, with the empty pattern and a repeat
        idx = np.array([37, 0, 80, 41, 37, 1])
        for kind in ("hamming", "logistic"):
            table = order_table(QueryOrder(kind, 9))
            table.extend_to(81)
            entry, pos = table.positions(idx)
            for e, i in enumerate(idx):
                assert tuple(pos[entry == e].tolist()) == table.pattern(i).positions
            entry, pos = table.positions(idx[:0])
            assert len(entry) == len(pos) == 0

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    def test_holds_only_what_was_asked(self, kind):
        table = patterns._OrderTable(kind, 128)
        table.extend_to(32768)
        assert table.count == 32768
        arrays = {name: v for name, v in vars(table).items() if isinstance(v, np.ndarray)}
        assert sorted(arrays) == sorted(TABLE_ARRAYS)
        assert all(len(v) == 32768 for v in arrays.values())
        # four int32 pointers and an int8 flip count per pattern
        assert sum(v.nbytes for v in arrays.values()) == 32768 * 17
        table.extend_to(100)
        assert table.count == 32768

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    def test_exhausted_when_generator_runs_dry(self, kind):
        table = patterns._OrderTable(kind, 5)
        table.extend_to(32)
        assert table.count == 1 << 5
        table.extend_to(64)
        assert table.count == 1 << 5
        assert all(len(getattr(table, name)) == 1 << 5 for name in TABLE_ARRAYS)

    def test_cache_shared(self):
        assert order_table(QueryOrder("hamming", 6)) is order_table(QueryOrder("hamming", 6))

    def test_cache_keeps_the_most_recently_used_tables(self):
        bound = patterns._TABLE_CACHE_SIZE
        kept = order_table(QueryOrder("logistic", 7))
        for n in range(20, 20 + 3 * bound):
            order_table(QueryOrder("hamming", n))
            assert order_table.cache_info().currsize <= bound
            # each use makes a table the most recently used again
            assert order_table(QueryOrder("logistic", 7)) is kept

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    def test_evicted_table_rebuilds_identically(self, kind):
        first = order_table(QueryOrder(kind, 11))
        first.extend_to(700)
        for n in range(30, 30 + patterns._TABLE_CACHE_SIZE):
            order_table(QueryOrder(kind, n))
        again = order_table(QueryOrder(kind, 11))
        assert again is not first
        again.extend_to(700)
        for name in TABLE_ARRAYS:
            assert np.array_equal(getattr(again, name), getattr(first, name)), name
        assert_pointers(again)


class TestWaves:
    """A range's groups let each pattern follow its parent's value."""

    @pytest.mark.parametrize("kind", ["hamming", "logistic"])
    @pytest.mark.parametrize("n", [5, 12, 128])
    def test_parents_come_first(self, kind, n):
        cap = min(1 << 15, 1 << n)
        table = patterns._OrderTable(kind, n)
        table.extend_to(cap)
        for lo, hi in [(0, min(300, cap))] + list(decoder._chunk_bounds(cap)):
            start = max(lo, 1)
            groups = table.waves(lo, hi)
            assert table.waves(lo, hi) is groups  # memoised
            members = [np.arange(hi)[g] for g in groups]
            # The groups partition [start, hi) ...
            assert np.array_equal(np.sort(np.concatenate(members)), np.arange(start, hi))
            # ... and each pattern's parent lies before start or in an
            # earlier group.
            known = np.arange(hi) < start
            for group in members:
                assert known[table.parent[group]].all(), (lo, hi)
                known[group] = True
            if (table.parent[start:hi] < start).all():
                assert len(groups) == 1 and isinstance(groups[0], slice)


class TestPatternProbability:
    def test_matches_direct_product(self):
        rng = np.random.default_rng(5)
        flips = rng.uniform(0.01, 0.5, size=12)
        hard = np.zeros(12, dtype=np.uint8)
        obs = SoftObservation.from_flip_probs(hard, flips)
        for _ in range(100):
            size = int(rng.integers(0, 13))
            pos = sorted(rng.choice(12, size=size, replace=False).tolist())
            direct = np.prod([flips[i] if i in pos else 1 - flips[i]
                              for i in range(12)])
            assert pattern_log_probability(obs, pos) == pytest.approx(
                math.log(direct), rel=1e-12)

    def test_empty_pattern(self):
        obs = SoftObservation.from_flip_probs(np.zeros(4, dtype=np.uint8), 0.25)
        assert pattern_log_probability(obs, []) == pytest.approx(4 * math.log(0.75))


class TestRealizedPositions:
    def test_logistic_maps_through_ranks(self):
        obs = SoftObservation.from_channel_llrs([5.0, -0.5, 2.0, -8.0])
        # ascending reliability: bit 1 (0.5), bit 2 (2.0), bit 0 (5.0), bit 3
        order = QueryOrder("logistic", 4)
        pat = QueryPattern(positions=(0, 1), weight=3)
        assert realized_positions(pat, order, obs) == (1, 2)

    def test_hamming_is_identity(self):
        obs = SoftObservation.from_channel_llrs([5.0, -0.5, 2.0, -8.0])
        pat = QueryPattern(positions=(0, 3), weight=2)
        assert realized_positions(pat, QueryOrder("hamming", 4), obs) == (0, 3)


class TestValidation:
    def test_kind_guard(self):
        with pytest.raises(ValueError):
            QueryOrder("ml", 8)

    def test_length_guard(self):
        with pytest.raises(ValueError):
            QueryOrder("hamming", 0)

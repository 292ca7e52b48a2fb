import itertools
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import lru_cache
from types import SimpleNamespace

import pytest
from helpers import (
    LineSumKind,
    canonical_by_recursion,
    classify,
    line_sums,
    signed_masks_by_values,
    values_from_packed,
)

from tritrade.enumeration import (
    classify_all,
    count_by_retract_classes,
    count_functions,
    enumerate_functions,
    spectrum,
    unitrade_supports,
)
from tritrade.errors import DimensionTooLarge, DimensionTooSmall
from tritrade.funcspace import TernFn
from tritrade.refdata import N_FUNCTIONS, spectrum_entries

FREE = (-1, 0, 1)


def _random_domains(rng, n):
    """One domain per cell: up to n + 3 cells restricted (an empty
    domain included), the rest free, so that often some functions fit."""
    doms = [FREE] * 3 ** n
    for c in rng.sample(range(3 ** n), rng.randint(1, n + 3)):
        doms[c] = rng.choice([(-1,), (0,), (1,), (-1, 0), (-1, 1), (0, 1), ()])
    return doms


@lru_cache(maxsize=None)
def _full_list(n):
    """The unrestricted stream as value tuples."""
    return [f.values for f in enumerate_functions(n)]


def _cell_domains(doms, n):
    """A packed domain vector as one tuple of allowed values per cell."""
    return [tuple(v for v in FREE if doms >> 3 * c + v + 1 & 1) for c in range(3 ** n)]


def _pinned(n, h):
    """Packed domains at n with the digit-0 layer fixed to the value tuple
    h and the other two layers free."""
    from tritrade import enumeration

    return enumeration._packed_domains(n, [(v,) for v in h] + [FREE] * 2 * len(h))


def _digit1_layers(n, doms, limit):
    """The digit-1 domains d1p that up to `limit` heads of the node `doms`
    at n leave, as the stream restricts them; empty-celled ones dropped."""
    from tritrade import enumeration

    d0 = doms & enumeration.FULL_MASK * enumeration._b0(3 ** (n - 1))
    heads = itertools.islice(enumeration._enum(n - 1, d0), limit)
    return [d1p for _, d1p, _ in enumeration._layers(n, doms, heads)]


def _seeded_domains(rng, n):
    """Packed domain vectors at n: restricted cells (an empty cell among
    them), one-hot layers, and the digit-1 layers the stream meets one
    dimension up.  At n = 3 those are the loose layers of the full and of
    pinned n = 4 streams and the tight ones below the inner n = 5 nodes of
    n = 6 streams; at n = 4, the loose layers of pinned n = 5 heads and
    the tight ones of those inner nodes, which clear from a few to most of
    their bits, and every one of them is read off _index."""
    from tritrade import enumeration

    full = enumeration.FULL_MASK * enumeration._b0(3 ** n)
    out = [full, full & ~(7 << 3 * rng.randrange(3 ** n))]  # no solution fits an empty cell
    for _ in range(12):
        doms = full
        for c in rng.sample(range(3 ** n), rng.randint(1, n + 4)):
            doms &= ~(rng.randint(1, 7) << 3 * c)
        out.append(doms)
    width, layer_full = 3 ** n, enumeration.FULL_MASK * enumeration._b0(3 ** (n - 1))
    for f in rng.sample(list(enumeration._enum(n - 1, layer_full)), 3):
        out += [full & ~(layer_full << k * width) | f << k * width for k in range(3)]
    if n < 3:
        return out
    fl4 = _full_list(4)
    inner = []  # inner n = 5 nodes of n = 6 streams pinned to n = 5 completions
    for h in rng.sample([h for h in fl4 if any(h)], 3):
        g = rng.choice(list(enumeration._enum(5, _pinned(5, h))))
        inner += _digit1_layers(6, _pinned(6, values_from_packed(g, 5)), 1)
    tight4 = [d for node in inner for d in _digit1_layers(5, node, 4)]
    if n == 4:
        for h in rng.sample(fl4, 20):
            out += _digit1_layers(5, _pinned(5, h), 1)
        return out + tight4
    out += rng.sample(_digit1_layers(4, enumeration.FULL_MASK * enumeration._b0(81), 403), 10)
    for h in rng.sample(_full_list(3), 5):
        out += _digit1_layers(4, _pinned(4, h), 1)
    return out + [d for node in tight4 for d in _digit1_layers(4, node, 3)]


@lru_cache(maxsize=None)
def _value_masks(n):
    """The +1, -1 and 0 cell masks of each function of _full_list(n)."""
    every = (1 << 3 ** n) - 1
    return [
        (p, m, every & ~(p | m)) for p, m in map(signed_masks_by_values, _full_list(n))
    ]


class TestEnumerate:
    @pytest.mark.parametrize("n,count", [(0, 3), (1, 7), (2, 31), (3, 403)])
    def test_stream_counts(self, n, count):
        assert sum(1 for _ in enumerate_functions(n)) == count

    def test_all_members_valid(self):
        for f in enumerate_functions(2):
            assert LineSumKind.INVALID not in line_sums(f)

    def test_lex_order_no_duplicates(self):
        for n in (2, 3):
            seen = [f.values for f in enumerate_functions(n)]
            assert seen == sorted(set(seen))

    def test_cell_domains(self):
        # forcing the first cell to +1 keeps exactly the functions with f(0)=1
        doms = [(1,)] + [(-1, 0, 1)] * 8
        got = {f.values for f in enumerate_functions(2, doms)}
        expect = {f.values for f in enumerate_functions(2) if f.values[0] == 1}
        assert got == expect

    def test_streaming_guard(self):
        with pytest.raises(DimensionTooLarge):
            next(enumerate_functions(6))


class TestRandomDomains:
    """Restricted counts and streams against oracles that never restrict:
    the unrestricted stream filtered by value, and at n = 2 a scan of all
    3^9 value vectors."""

    @pytest.fixture(scope="class")
    def brute2(self):
        return [
            values
            for values in itertools.product(FREE, repeat=9)
            if LineSumKind.INVALID not in line_sums(TernFn(2, values))
        ]

    @staticmethod
    def _check(n, full, doms):
        """The stream, the count and the index read _tails inside `doms`
        against the filtered full list; returns the number that fit."""
        from tritrade import enumeration

        # the cells that allow +1, -1 and 0; a function fits when each of
        # its value masks lies inside the matching one
        ap, am, az = (sum(1 << c for c, dom in enumerate(doms) if v in dom) for v in (1, -1, 0))
        expect = [
            values
            for values, (p, m, z) in zip(full, _value_masks(n))
            if not (p & ~ap or m & ~am or z & ~az)
        ]
        assert [f.values for f in enumerate_functions(n, doms)] == expect
        assert count_functions(n, doms) == len(expect)
        tails = enumeration._tails(n, enumeration._packed_domains(n, doms))
        assert [values_from_packed(f, n) for f in tails] == expect
        return len(expect)

    @pytest.mark.parametrize("n,seed", [(2, 11), (3, 12), (4, 15)])
    def test_against_filtered_stream(self, n, seed, brute2):
        # the full list is the oracle: at n = 2 it is the brute-force scan,
        # at n = 3, 4 TestColumnIndex certifies it
        rng = random.Random(seed)
        full = _full_list(n)
        if n == 2:
            assert full == brute2
        nonzero = empty_cell = 0
        for _ in range(40):
            doms = _random_domains(rng, n)
            nonzero += bool(self._check(n, full, doms))
            empty_cell += () in doms
        # the draw must not be empty domains only, nor miss them
        assert nonzero >= 10 and empty_cell >= 1
        # the digit-1 layers the stream meets one dimension up, loose and
        # tight, and one-hot layers and an empty cell
        for packed in _seeded_domains(rng, n):
            self._check(n, full, _cell_domains(packed, n))

    def test_domain_spec_forms(self):
        rng = random.Random(13)
        for _ in range(20):
            doms = _random_domains(rng, 3)
            expect = count_functions(3, doms)
            assert count_functions(3, [list(d) for d in doms]) == expect
            assert count_functions(3, [set(d) for d in doms]) == expect
            assert count_functions(3, [(v for v in d) for d in doms]) == expect
            # a repeated value allows nothing more
            assert count_functions(3, [d + d for d in doms]) == expect

    def test_domain_spec_errors(self):
        bad = [FREE] * 27
        bad[5] = (0, 2)
        for _ in range(2):  # a rejected domain is never remembered
            with pytest.raises(ValueError, match="outside"):
                count_functions(3, bad)
        with pytest.raises(ValueError, match="outside"):
            count_functions(3, [(0, 2)] * 27)
        with pytest.raises(ValueError, match="one domain per cell"):
            count_functions(3, [FREE] * 26)


@pytest.fixture
def in_process_pool(monkeypatch):
    """The fork pool replaced by one that runs its starmap in this process;
    the list of the pool sizes asked for."""
    import multiprocessing

    sizes = []

    class InProcessPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, func, args):
            return list(itertools.starmap(func, args))

    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=InProcessPool)
    )
    return sizes


class TestCount:
    @pytest.mark.parametrize(
        "n,count", [(0, 3), (1, 7), (2, 31), (3, 403), (4, 29875)]
    )
    def test_reference_counts(self, n, count):
        assert count_functions(n) == count

    def test_domains_match_stream(self):
        doms = [(-1, 0, 1)] * 9
        doms[4] = (0,)
        got = count_functions(2, doms)
        expect = sum(1 for f in enumerate_functions(2, doms))
        assert got == expect

    def test_parallel_agrees(self):
        # the one fan-out is the class count's, over its nonzero classes;
        # the direct count is its serial oracle
        assert count_by_retract_classes(3, jobs=2) == count_functions(3) == 403

    def test_no_pool_for_one_unit_or_none(self, monkeypatch):
        import multiprocessing

        from tritrade import enumeration

        def no_pool(method):
            raise AssertionError("a worker pool was opened")

        monkeypatch.setattr(multiprocessing, "get_context", no_pool)
        assert count_by_retract_classes(1, jobs=2) == 7  # one nonzero class
        assert enumeration._fan_out(2, [], 4) == 0  # no unit

    def test_no_more_workers_than_units(self, in_process_pool):
        assert count_by_retract_classes(3, jobs=8) == 403  # two nonzero n = 2 classes
        assert in_process_pool == [2]

    def test_parent_builds_only_the_index_the_workers_read(self, in_process_pool, monkeypatch):
        # a unit at n = 4 is counted as _count(3, d1p), so the parent's
        # prebuild is _index(3), and the n = 4 index is never built
        from tritrade import enumeration

        fresh = lru_cache(maxsize=None)(enumeration._index.__wrapped__)
        built = []
        monkeypatch.setattr(enumeration, "_index", lambda n: built.append(n) or fresh(n))
        assert count_by_retract_classes(4, jobs=2) == N_FUNCTIONS[4]
        assert in_process_pool == [2]
        assert 3 in built and 4 not in built

    def test_direct_count_capped(self):
        # N(6) is counted through the n = 5 classes, never directly
        with pytest.raises(DimensionTooLarge):
            count_functions(6)


class TestColumnIndex:
    """The index _index(n) at n <= 4, read by the count and by the
    stream's tails, against the stream and the line sums."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_size_is_the_reference_count(self, n):
        from tritrade import enumeration

        assert len(enumeration._index(n)[0]) == N_FUNCTIONS[n]

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_index_is_the_brute_force_filter(self, n):
        # below n = 4 the stream reads the index and the index is built
        # from the stream, so the oracle shares neither: every one of the
        # 3^(3^n) value vectors, in lex order, kept when no line is INVALID
        from tritrade import enumeration

        brute = [
            v
            for v in itertools.product(FREE, repeat=3 ** n)
            if LineSumKind.INVALID not in line_sums(TernFn(n, v))
        ]
        assert [values_from_packed(f, n) for f in enumeration._index(n)[0]] == brute

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_indexed_stream_is_every_solution_in_lex_order(self, n):
        # the stream's tails read sols: N(n) members, strictly lex-ascending
        # (so distinct), each with zero line sums, are every solution once
        from tritrade import enumeration

        values = [values_from_packed(f, n) for f in enumeration._index(n)[0]]
        assert len(values) == N_FUNCTIONS[n]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert not any(LineSumKind.INVALID in line_sums(TernFn(n, v)) for v in values)
        assert values == _full_list(n)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_each_cell_partitions_the_solutions(self, n):
        from tritrade import enumeration

        sols, cols = enumeration._index(n)
        total = len(sols)
        assert len(cols) == 3 * 3 ** n
        everything = (1 << total) - 1
        for c in range(3 ** n):
            minus, zero, plus = cols[3 * c : 3 * c + 3]
            assert not (minus & zero or minus & plus or zero & plus)
            assert minus | zero | plus == everything

    def test_columns_follow_stream_order(self):
        # bit i of column 3c + v + 1 is the i-th streamed solution's value at c
        from tritrade import enumeration

        _, cols = enumeration._index(3)
        for i, values in enumerate(_full_list(3)):
            for c, v in enumerate(values):
                assert [cols[3 * c + k] >> i & 1 for k in range(3)] == [v == -1, v == 0, v == 1]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_count_equals_stream(self, n):
        from tritrade import enumeration

        for doms in _seeded_domains(random.Random(26 + n), n):
            assert enumeration._count(n, doms) == sum(1 for _ in enumeration._enum(n, doms))

    def test_n4_columns_fit_the_memory_budget(self):
        import sys

        from tritrade import enumeration

        sols, cols = enumeration._index(4)
        assert sum(map(sys.getsizeof, cols)) < 1.1e6
        assert sys.getsizeof(sols) + sum(map(sys.getsizeof, sols)) < 2.2e6

    def test_index_capped_at_n4_before_any_build(self, monkeypatch):
        # the n = 5 index would hold all N(5) solutions: the cap raises
        # before the build streams a single one
        from tritrade import enumeration

        calls = []
        monkeypatch.setattr(enumeration, "_enum_split", lambda n, doms: calls.append(n) or [])
        with pytest.raises(DimensionTooLarge):
            enumeration._index(5)
        with pytest.raises(DimensionTooLarge):
            enumeration._index(6)
        assert calls == []

    def test_full_n4_stream_leaves_the_n4_index_unbuilt(self, monkeypatch):
        # a set-up that draws the n = 4 list pays no n = 4 column build:
        # the full n = 4 stream reads only the n = 3 index
        from tritrade import enumeration

        fresh = lru_cache(maxsize=None)(enumeration._index.__wrapped__)
        built = []
        monkeypatch.setattr(enumeration, "_index", lambda n: built.append(n) or fresh(n))
        assert sum(1 for _ in enumerate_functions(4)) == N_FUNCTIONS[4]
        assert 3 in built and 4 not in built


class TestStreamDecode:
    """Streamed functions against the packed solutions they decode, read by
    a reference decode that shares no code with the enumeration's."""

    @staticmethod
    def _check(n, doms):
        from tritrade import enumeration

        packed = list(enumeration._enum(n, enumeration._packed_domains(n, doms)))
        fns = list(enumerate_functions(n, doms))
        assert len(fns) == len(packed)
        for f, p in zip(fns, packed):
            values = values_from_packed(p, n)
            assert f.values == values
            assert f.cardinality == len(values) - values.count(0)
            g = TernFn(n, values)
            assert f == g and hash(f) == hash(g)
        return len(fns)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_full_streams(self, n):
        assert self._check(n, None) == N_FUNCTIONS[n]

    def test_pinned_n5_hyperplanes(self):
        rng = random.Random(16)
        fl4 = _full_list(4)
        for _ in range(4):
            f0 = rng.choice(fl4)
            assert self._check(5, [(v,) for v in f0] + [FREE] * 162) > 0

    @pytest.mark.parametrize("count_first", [True, False], ids=["count-first", "stream-first"])
    def test_count_equals_stream_on_a_fresh_memo(self, count_first, monkeypatch):
        # the count reads the index at n <= 4, and the stream reads it at
        # n <= 3 and for n = 4 tails; the index is built from the
        # stream, so each case starts with an empty index cache, and
        # whichever runs first, the other agrees.  On nonzero pinned n = 5
        # hyperplanes both also match a bitmask scan of the N(4) list: f1
        # completes f0 iff no cell holds the same nonzero value in both,
        # and the completion is (f0, f1, -(f0 + f1)), in the list's order
        from tritrade import enumeration

        rng = random.Random(18)
        fl4 = _full_list(4)
        cases = [(n, _random_domains(rng, n), None) for n in (2, 3, 4) for _ in range(4)]
        masks = [signed_masks_by_values(f1) for f1 in fl4]
        for f0 in rng.sample([f for f in fl4 if any(f)], 20):
            p0, m0 = signed_masks_by_values(f0)
            expect = [
                f0 + f1 + tuple(-a - b for a, b in zip(f0, f1))
                for f1, (p, m) in zip(fl4, masks)
                if not (p & p0 or m & m0)
            ]
            cases.append((5, [(v,) for v in f0] + [FREE] * 162, expect))
        for n, doms, expect in cases:
            # a fresh cache, so the session's cached index stays in place
            fresh = lru_cache(maxsize=None)(enumeration._index.__wrapped__)
            monkeypatch.setattr(enumeration, "_index", fresh)
            if count_first:
                count = count_functions(n, doms)
                streamed = [f.values for f in enumerate_functions(n, doms)]
            else:
                streamed = [f.values for f in enumerate_functions(n, doms)]
                count = count_functions(n, doms)
            assert count == len(streamed)
            if expect is not None:
                assert streamed == expect

    def test_tight_digit1_layers_of_pinned_n5_heads(self):
        # a nonzero pinned f0 and 30-40 digit-1 cells fixed to the values
        # of an f1 that completes it: the head's digit-1 layer clears more
        # than a quarter of its 243 bits, and its tails are still read off
        # _index(4).  Oracle: the bitmask scan of the N(4) list, f1 inside
        # the fixed cells and sharing no nonzero value with f0 at a cell
        from tritrade import enumeration

        rng = random.Random(30)
        fl4 = _full_list(4)
        masks = [signed_masks_by_values(f1) for f1 in fl4]
        for _ in range(12):
            f0 = rng.choice([f for f in fl4 if any(f)])
            p0, m0 = signed_masks_by_values(f0)
            fits = [f1 for f1, (p, m) in zip(fl4, masks) if not (p & p0 or m & m0)]
            pick = rng.choice(fits)
            fixed = rng.sample(range(81), rng.randint(30, 40))
            doms = [(v,) for v in f0] + [FREE] * 162
            for c in fixed:
                doms[81 + c] = (pick[c],)
            cells = sum(1 << c for c in fixed)
            pp, pm = signed_masks_by_values(pick)
            expect = [
                f0 + f1 + tuple(-a - b for a, b in zip(f0, f1))
                for f1, (p, m) in zip(fl4, masks)
                if not (p & p0 or m & m0) and p & cells == pp & cells and m & cells == pm & cells
            ]
            (d1p,) = _digit1_layers(5, enumeration._packed_domains(5, doms), 1)
            assert 243 - d1p.bit_count() > 61
            assert [f.values for f in enumerate_functions(5, doms)] == expect
            assert count_functions(5, doms) == len(expect)


@pytest.mark.parametrize(
    "call",
    [
        lambda: count_functions(-1),
        lambda: next(enumerate_functions(-1)),
        lambda: next(unitrade_supports(-1)),
        lambda: classify_all(-1),
        lambda: count_by_retract_classes(-1),
    ],
    ids=[
        "count_functions",
        "enumerate_functions",
        "unitrade_supports",
        "classify_all",
        "count_by_retract_classes",
    ],
)
def test_negative_dimension_rejected(call):
    with pytest.raises(DimensionTooSmall):
        call()


class TestRetractClassCount:
    def test_n2_from_classes1(self):
        assert count_by_retract_classes(2) == 31

    def test_n4_from_classes3(self):
        assert count_by_retract_classes(4) == 29875

    def test_n5_from_classes4(self):
        assert count_by_retract_classes(5) == 32184151

    def test_n6_from_classes5(self):
        assert count_by_retract_classes(6) == N_FUNCTIONS[6]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees_with_direct(self, n):
        assert count_by_retract_classes(n) == count_functions(n)

    @pytest.mark.parametrize("n", [4, 5])
    def test_parallel_agrees(self, n):
        assert count_by_retract_classes(n, jobs=2) == count_by_retract_classes(n)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_no_unit_pins_the_zero_hyperplane(self, n, monkeypatch):
        # the zero class is added in closed form, as N(n - 1) to the count
        # and as the (0, g, -g) to the spectrum, never completed as a unit
        from tritrade import enumeration

        units, heads = [], []
        fan_out, completions = enumeration._fan_out, enumeration._completions

        def record(m, batch, jobs):
            units.extend(batch)
            return fan_out(m, batch, jobs)

        def record_heads(m, doms, given):
            given = list(given)
            if m == n:  # not the heads of an index or a layer one dimension down
                heads.extend(given)
            return completions(m, doms, given)

        monkeypatch.setattr(enumeration, "_fan_out", record)
        assert count_by_retract_classes(n) == count_functions(n)
        zero = (0,) * 3 ** (n - 1)
        assert len(units) == len(classify_all(n - 1)[1]) - 1
        assert all(values_from_packed(head, n - 1) != zero for _, head in units)
        monkeypatch.setattr(enumeration, "_completions", record_heads)
        assert spectrum(n).total_functions == N_FUNCTIONS[n]
        assert heads == [head for _, head in units]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_units_are_the_packed_representatives(self, n):
        # the units keep the heads in value order, the records are sorted
        # by (cardinality, values): read through a decode of their own,
        # the heads are the nonzero representatives, each with its orbit
        from tritrade import enumeration

        units = enumeration._units(n)
        heads = [values_from_packed(head, n - 1) for _, head in units]
        records = {r.representative.values: r for r in classify_all(n - 1)[1]}
        zero = (0,) * 3 ** (n - 1)
        assert sorted(heads) == sorted(set(records) - {zero})
        assert all(a < b for a, b in zip(heads, heads[1:]))
        assert [weight for weight, _ in units] == [records[h].orbit_size for h in heads]
        assert zero not in heads


class TestSpectrum:
    def test_n1(self):
        assert spectrum(1).entries == {2: 3}

    def test_n2(self):
        assert spectrum(2).entries == {4: 9, 6: 6}

    def test_n3_full_list(self):
        table = spectrum(3)
        assert table.entries == {8: 27, 12: 54, 14: 108, 18: 12}
        assert [table.entries.get(s, 0) for s in range(8, 19, 2)] == [27, 0, 54, 108, 0, 12]

    def test_n4_matches_reference(self, spectra):
        assert spectra[4].entries == spectrum_entries(4)

    def test_consistency_flag(self, spectra):
        for table in spectra.values():
            assert 2 * sum(table.entries.values()) + 1 == table.total_functions == N_FUNCTIONS[table.n]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_direct_stream(self, n):
        # the reference walks every function and reads its cardinality,
        # sharing no code with the class streams or the packed support weight
        direct = Counter(f.cardinality for f in enumerate_functions(n))
        table = spectrum(n)
        assert table.total_functions == sum(direct.values())
        assert direct.pop(0) == 1
        assert table.entries == {s: c // 2 for s, c in direct.items()}

    def test_json_uses_decimal_strings(self, spectra):
        doc = spectra[3].to_json()
        assert doc["N"] == "403"
        assert all(isinstance(e["sets"], str) for e in doc["entries"])


class TestClassifyAll:
    @pytest.mark.parametrize("n,expected", [(0, 2), (1, 2), (2, 3), (3, 5)])
    def test_class_counts(self, n, expected):
        count, _ = classify_all(n)
        assert count == expected

    def test_n4(self, classes4):
        assert classes4[0] == 13

    def test_guard(self):
        with pytest.raises(DimensionTooLarge):
            classify_all(6)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_candidate_engine_agrees_with_closure(self, n, closure4):
        ref = closure4 if n == 4 else classify(enumerate_functions(n), n)
        count, records = classify_all(n)
        assert count == len(ref)
        assert [(r.representative.values, r.orbit_size, r.aut) for r in records] == [
            (r.representative.values, r.orbit_size, r.aut) for r in ref
        ]

    # the oracle is the test-side retract recursion, independent of the
    # layer; n = 5 takes about 80 s in it
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, pytest.param(5, marks=pytest.mark.nightly)])
    def test_representatives_are_canonical(self, n):
        for rec in classify_all(n)[1]:
            assert canonical_by_recursion(rec.representative) == rec.representative.to_text()

    def test_records_are_frozen_and_lists_fresh(self):
        count, records = classify_all(3)
        with pytest.raises(FrozenInstanceError):
            records[0].aut = 1
        before = [(r.cardinality, r.orbit_size, r.aut) for r in records]
        records.sort(key=lambda r: -r.orbit_size)
        records.clear()
        again_count, again = classify_all(3)
        assert again_count == count
        assert [(r.cardinality, r.orbit_size, r.aut) for r in again] == before

    def test_each_layer_built_once(self, monkeypatch):
        from tritrade import enumeration

        calls = []
        build = enumeration._class_layer.__wrapped__

        def counting_build(n):
            calls.append(n)
            return build(n)

        # a fresh cache, so the session's cached layers stay in place
        monkeypatch.setattr(enumeration, "_class_layer", lru_cache(maxsize=None)(counting_build))
        classify_all(3)
        spectrum(4)
        classify_all(4)
        count_by_retract_classes(5)
        assert sorted(calls) == [0, 1, 2, 3, 4]

    def test_n5(self, classes5):
        count, records = classes5
        assert count == 92
        assert sum(r.orbit_size for r in records) == N_FUNCTIONS[5]


class TestCatalog:
    def test_n2_sizes(self, catalog2):
        sizes = sorted(B.cardinality for B in catalog2)
        assert sizes == [0] + [4] * 9 + [6] * 6

    def test_n3_count(self, catalog3):
        assert len(catalog3) == 202  # 201 nonempty + empty

    def test_legs_are_halves(self, catalog3):
        for B in catalog3:
            assert B.half0 == B.part1.bit_count() == B.cardinality // 2

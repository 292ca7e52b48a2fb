import itertools
import random
from collections import Counter

import pytest
from helpers import color_by_cells, unitrade_by_line_counts

from tritrade import cube
from tritrade.construct import embed_in_alphabet, grid_cycle_bitrade, maximal_bitrade, product
from tritrade.errors import EmptyCatalog, NotAUnitrade, OutOfRange
from tritrade.funcspace import BoolFn, mobius, u_from_bool
from tritrade.trade import (
    BipartiteTrade,
    TradeSet,
    bipartition,
    connectivity_and_structure,
    half_cardinality_stats,
    half_cardinality_stats_from_spectrum,
    is_connected,
    is_unitrade,
    mod3_admissible,
    small_bitrade_admissible,
    unitrade_alpha_admissible,
    xor_of_two_bitrades,
)


class TestIsUnitrade:
    def test_empty(self):
        assert is_unitrade(TradeSet(2, 3, 0))

    def test_pair_on_line(self):
        assert is_unitrade(TradeSet.from_words(1, 3, [(0,), (1,)]))

    def test_single_point_fails(self):
        assert not is_unitrade(TradeSet.from_words(1, 3, [(0,)]))

    def test_line_incidence(self):
        S = TradeSet.from_words(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert S.line_incidence().count(2) == 4


class TestBipartition:
    def test_minimal_parts_are_weight_classes(self):
        from tritrade.monomial import monomial_cube

        B = bipartition(monomial_cube((0, 0, 0)))
        assert B is not None
        even = [w for w in B.base.words() if sum(w) % 2 == 0]
        part0_words = sorted(
            w for w in B.base.words()
            if (B.part0 >> _cell3(w)) & 1
        )
        assert part0_words in (sorted(even), sorted(set(B.base.words()) - set(even)))

    def test_parity_unitrade_not_bipartite(self):
        from tritrade.funcspace import parity_counter

        U = u_from_bool(parity_counter(3))
        assert U.cardinality == 16
        assert bipartition(U) is None

    def test_maximal_n2_split(self):
        from tritrade.construct import maximal_bitrade

        B = maximal_bitrade(2)
        assert (B.half0, B.half1) == (3, 3)
        part0 = {w for w in B.base.words() if (B.part0 >> _cell3(w)) & 1}
        assert part0 == {w for w in B.base.words() if sum(w) % 3 == 1}

    def test_requires_unitrade(self):
        with pytest.raises(NotAUnitrade):
            bipartition(TradeSet.from_words(1, 3, [(0,)]))

    def test_part0_tiebreak_smallest_cell(self, catalog3):
        for B in catalog3[1:100]:
            low = (B.base.mask & -B.base.mask).bit_length() - 1
            assert (B.part0 >> low) & 1


def _cell3(word):
    from tritrade.cube import cell_of_word

    return cell_of_word(word, 3)


class TestStructure:
    def test_nonempty_unitrades_intersect_n2(self):
        us = [u_from_bool(BoolFn(2, b)) for b in range(1, 16)]
        for S, T in itertools.combinations(us, 2):
            assert connectivity_and_structure(S, T).intersects

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_no_proper_containment_exhaustive(self, n):
        masks = [u_from_bool(BoolFn(n, b)).mask for b in range(1, 1 << (1 << n))]
        for a in masks:
            for b in masks:
                assert not (a | b == b and a != b)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_connected(self, n):
        for b in range(1, 1 << (1 << n)):
            assert is_connected(u_from_bool(BoolFn(n, b)))

    def test_unique_split_for_ternary(self, catalog3):
        # connectivity makes the 2-coloring unique up to swap: recoloring
        # from any start cell gives the same parts
        rng = random.Random(0)
        for B in rng.sample(catalog3[1:], 30):
            parts = {B.part0, B.part1}
            again = bipartition(B.base)
            assert {again.part0, again.part1} == parts


def _ternary_sample(n, rng):
    """200 unitrades U[f] at n, half with 1..3 ANF terms, each followed by
    a one-cell flip."""
    out = []
    for j in range(200):
        if j % 2:
            anf = rng.getrandbits(1 << n)
        else:
            anf = sum(1 << rng.randrange(1 << n) for _ in range(rng.randint(1, 3)))
        U = u_from_bool(mobius(BoolFn(n, anf)))
        out += [U, TradeSet(n, 3, U.mask ^ (1 << rng.randrange(3 ** n)))]
    return out


def _reread(S, k):
    """The cells of S read as words over the larger alphabet k."""
    cells = (cube.cell_of_word(w, k) for w in S.words())
    return TradeSet.from_cells(S.n, k, cells)


def _wide_sample(k, rng):
    """150 sets in Q_k^n, n <= 3, each under a random isometry and followed
    by a one-cell flip: re-read ternary unitrades at n = 3, grid cycles, a
    product with a grid cycle, two disjoint boolean cubes {0,1}^n and
    {2,3}^n, and sparse sets."""
    pair = embed_in_alphabet(maximal_bitrade(1), k)
    builders = [
        lambda: _reread(u_from_bool(BoolFn(3, rng.getrandbits(8))), k),
        lambda: grid_cycle_bitrade(k).base,
        lambda: product(grid_cycle_bitrade(k), pair).base,
        lambda: TradeSet.from_words(
            n := rng.randint(2, 3),
            k,
            [w for w in cube.all_words(n, 4) if len({d // 2 for d in w}) == 1],
        ),
        lambda: TradeSet(
            n := rng.randint(1, 3), k, rng.getrandbits(k ** n) & rng.getrandbits(k ** n)
        ),
    ]
    out = []
    for j in range(150):
        S = builders[j % len(builders)]()
        S = S.apply_isometry(cube.Isometry.random(rng, S.n, k, allow_sign=False))
        out += [S, TradeSet(S.n, k, S.mask ^ (1 << rng.randrange(k ** S.n)))]
    return out


_ORACLE_SAMPLES = {
    "all-n<=2": lambda rng: [TradeSet(n, 3, m) for n in range(3) for m in range(1 << 3 ** n)],
    **{f"n={n}": lambda rng, n=n: _ternary_sample(n, rng) for n in range(3, 7)},
    **{f"k={k}": lambda rng, k=k: _wide_sample(k, rng) for k in (4, 5)},
}


@pytest.mark.parametrize("sample", list(_ORACLE_SAMPLES))
def test_predicates_agree_with_line_oracles(sample):
    # the oracles walk cube.line_masks and cube.lines_through, which the
    # digit-plane view never reads
    seen = Counter()
    for S in _ORACLE_SAMPLES[sample](random.Random(sample)):
        part0, part1, proper, components = color_by_cells(S)
        unitrade = unitrade_by_line_counts(S)
        assert is_unitrade(S) == unitrade, S.to_text()
        assert is_connected(S) == (components <= 1), S.to_text()
        seen["connected" if components <= 1 else "disconnected"] += 1
        if not unitrade:
            with pytest.raises(NotAUnitrade):
                bipartition(S)
            seen["not a unitrade"] += 1
            continue
        B = bipartition(S)
        if proper:
            assert (B.part0, B.part1) == (part0, part1), S.to_text()
        else:
            assert B is None, S.to_text()
        seen["bitrade" if proper else "odd cycle"] += 1
        seen["disconnected unitrade"] += components > 1
    assert {"connected", "disconnected", "not a unitrade", "bitrade"} <= set(seen), seen
    # every ternary unitrade at n <= 2 is a bitrade
    assert bool(seen["odd cycle"]) == (sample != "all-n<=2"), seen
    # two disjoint boolean cubes in Q_k^n, colored component by component
    assert bool(seen["disconnected unitrade"]) == sample.startswith("k="), seen


@pytest.mark.parametrize("digits", [(0, 3), (2, 3)], ids=["bitrade-first", "odd-cycle-first"])
def test_odd_cycle_in_either_component(digits):
    # A x {0,1} u B x {2,3} in Q_4^4: A is the ternary parity unitrade, which
    # holds an odd cycle, B the boolean cube digits^3, disjoint from A, so no
    # line meets both; (0,0,0) in B puts its component first
    from tritrade.funcspace import parity_counter

    A = _reread(u_from_bool(parity_counter(3)), 4)
    B = TradeSet.from_words(3, 4, itertools.product(digits, repeat=3))
    assert not A.mask & B.mask
    odd = TradeSet.from_words(4, 4, [w + (x,) for w in A.words() for x in (0, 1)])
    even = TradeSet.from_words(4, 4, [w + (x,) for w in B.words() for x in (2, 3)])
    S = odd.xor(even)
    assert is_unitrade(S)
    assert color_by_cells(S)[2:] == (False, 2)
    assert bool(S.mask & -S.mask & even.mask) == (digits == (0, 3))
    legs = bipartition(even)
    assert (legs.part0, legs.part1, True, 1) == color_by_cells(even)
    assert bipartition(odd) is None
    assert bipartition(S) is None


class TestMod3:
    def test_size_pair_14_16(self):
        assert mod3_admissible(3, 14)
        assert not mod3_admissible(3, 16)

    def test_zero(self):
        for n in range(6):
            assert mod3_admissible(n, 0)

    def test_every_catalog_cardinality(self, catalog3):
        for B in catalog3:
            assert mod3_admissible(3, B.cardinality)


class TestAlphaAdmissible:
    def test_examples(self):
        assert unitrade_alpha_admissible(4, 24)   # 2 - 2^-1
        assert unitrade_alpha_admissible(4, 36)   # 2 + 2^-2
        assert unitrade_alpha_admissible(3, 18)   # 2.5 - 2^-2
        assert not unitrade_alpha_admissible(3, 17)

    def test_empty_and_odd(self):
        assert unitrade_alpha_admissible(3, 0)
        assert not unitrade_alpha_admissible(3, 9)

    def test_above_threshold(self):
        assert unitrade_alpha_admissible(3, 20)
        assert unitrade_alpha_admissible(3, 22)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_full_catalog(self, n):
        for bits in range(1 << (1 << n)):
            U = u_from_bool(BoolFn(n, bits))
            assert unitrade_alpha_admissible(n, U.cardinality), U.cardinality


class TestSmallBitradeAdmissible:
    def test_examples(self):
        assert small_bitrade_admissible(5, 68)
        assert not small_bitrade_admissible(5, 66)
        assert small_bitrade_admissible(5, 80)

    def test_window_guard(self):
        with pytest.raises(OutOfRange):
            small_bitrade_admissible(5, 64)
        with pytest.raises(OutOfRange):
            small_bitrade_admissible(5, 82)

    def test_n4_window(self):
        admissible = {
            c for c in range(34, 41, 2) if small_bitrade_admissible(4, c)
        }
        assert admissible == {34, 36, 40}


class TestXorOfTwoBitrades:
    def test_bitrade_pairs_with_empty(self, catalog3):
        B = catalog3[5]
        pair = xor_of_two_bitrades(B.base, catalog3)
        assert pair is not None
        m1, m2 = pair[0].base.mask, pair[1].base.mask
        assert m1 ^ m2 == B.base.mask

    def test_n1_example(self):
        cat = [
            BipartiteTrade(TradeSet(1, 3, 0), 0, 0),
            bipartition(TradeSet.from_words(1, 3, [(0,), (1,)])),
            bipartition(TradeSet.from_words(1, 3, [(0,), (2,)])),
            bipartition(TradeSet.from_words(1, 3, [(1,), (2,)])),
        ]
        U = TradeSet.from_words(1, 3, [(0,), (1,)])
        pair = xor_of_two_bitrades(U, cat)
        assert pair is not None

    def test_exhaustive_n3_report(self, catalog3):
        # every nonempty unitrade at n=3 decomposes over the 202-set catalog
        decomposable = 0
        for bits in range(1, 256):
            U = u_from_bool(BoolFn(3, bits))
            if xor_of_two_bitrades(U, catalog3) is not None:
                decomposable += 1
        assert decomposable == 255


class TestHalfStats:
    def test_single_entry(self):
        from tritrade.monomial import monomial_cube

        B = bipartition(monomial_cube((0, 0)))
        mean, std = half_cardinality_stats([B])
        assert (mean, std) == (2.0, 0.0)

    def test_n2(self, catalog2):
        mean, std = half_cardinality_stats([B for B in catalog2 if B.cardinality])
        assert round(mean, 3) == 2.4
        assert round(std, 3) == 0.490

    def test_n3(self, catalog3):
        mean, std = half_cardinality_stats([B for B in catalog3 if B.cardinality])
        assert round(mean, 3) == 6.448
        assert round(std, 3) == 1.188

    def test_empty_catalog(self):
        with pytest.raises(EmptyCatalog):
            half_cardinality_stats([])

    def test_spectrum_variant_matches(self, catalog3, spectra):
        mean_c, std_c = half_cardinality_stats([B for B in catalog3 if B.cardinality])
        mean_s, std_s = half_cardinality_stats_from_spectrum(spectra[3].entries)
        assert abs(mean_c - mean_s) < 1e-12
        assert abs(std_c - std_s) < 1e-12


def test_tradeset_serialization():
    S = TradeSet.from_words(2, 3, [(0, 1), (2, 2)])
    assert TradeSet.from_json(S.to_json()) == S
    assert TradeSet.from_text(2, 3, S.to_text()) == S


@pytest.mark.parametrize(
    "obj, field",
    [({"n": 2, "k": 3}, "support"), ({"k": 3, "support": "0"}, "n"), ('{"n": 1, "support": "000"}', "k")],
)
def test_tradeset_from_json_names_a_missing_field(obj, field):
    with pytest.raises(ValueError, match=field):
        TradeSet.from_json(obj)


def test_tradeset_from_json_rejects_a_non_object():
    with pytest.raises(ValueError):
        TradeSet.from_json("[2, 3]")

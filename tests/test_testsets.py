import random

import pytest

from tritrade import cube, testsets
from tritrade.errors import BrokenInvariant, PreconditionFailed
from tritrade.funcspace import BoolFn, u_from_bool
from tritrade.testsets import (
    TestSet,
    boolean_cube_testset,
    extract_testset,
    family_bound,
    line_system_rank,
    product_testset,
    restriction,
)
from tritrade.trade import TradeSet


class TestFamilyBound:
    def test_plain_power(self):
        assert family_bound(127, 1, 2) == 2 ** 127

    def test_unitrade_bound_tight(self):
        # 2^(2^(m*l)) equals the unitrade count at dimension m*l
        for m, l in ((1, 2), (2, 2), (3, 1)):
            assert family_bound(2 ** m, l, 2) == 2 ** (2 ** (m * l))

    def test_reference_comparison(self):
        from tritrade.refdata import N_FUNCTIONS

        assert N_FUNCTIONS[7] < 2 ** (2 ** 6)

    def test_monotone(self):
        assert family_bound(4, 2, 2) < family_bound(5, 2, 2)
        assert family_bound(4, 2, 2) < family_bound(4, 3, 2)


class TestProductTestset:
    def test_l1_identity(self):
        T = boolean_cube_testset(2)
        assert product_testset(T, 1) == T

    def test_power_size(self):
        T = boolean_cube_testset(1)
        assert len(product_testset(T, 3)) == 2 ** 3

    def test_boolean_cube_distinguishes_unitrades(self):
        # dimension 2 = 1*2: restriction to Q_2^2 determines the trade
        T = product_testset(boolean_cube_testset(1), 2)
        rng = random.Random(0)
        for _ in range(200):
            a, b = rng.sample(range(16), 2)
            Ua, Ub = u_from_bool(BoolFn(2, a)), u_from_bool(BoolFn(2, b))
            assert restriction(Ua, T) != restriction(Ub, T)

    def test_square_power_distinguishes_dim4_unitrades(self):
        # m=2, l=2: T^2 tests the dimension-4 family on sampled pairs
        T = product_testset(boolean_cube_testset(2), 2)
        assert len(T) == 16 and T.m == 4
        rng = random.Random(1)
        for _ in range(100):
            a, b = rng.sample(range(1 << 16), 2)
            Ua, Ub = u_from_bool(BoolFn(4, a)), u_from_bool(BoolFn(4, b))
            assert restriction(Ua, T) != restriction(Ub, T)


class TestLineSystemRank:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_rank_formula(self, m):
        assert line_system_rank(m) == 3 ** m - 2 ** m

    def test_wrong_rank_is_a_broken_invariant(self, monkeypatch):
        lines = cube.line_masks
        monkeypatch.setattr(cube, "line_masks", lambda m, k: lines(m, k)[:1])
        testsets._line_pivots.cache_clear()
        try:
            with pytest.raises(BrokenInvariant, match="line system rank is off"):
                line_system_rank(2)
            with pytest.raises(BrokenInvariant, match="line system rank is off"):
                extract_testset(u_from_bool(BoolFn(2, 1)))
        finally:
            testsets._line_pivots.cache_clear()


def _points_by_fresh_elimination(U):
    # reference with a fresh elimination per call, sharing no cache: lines
    # first, then the unit equations of the cells outside U in lex order
    m = U.n
    elim = testsets._Eliminator()
    for lm in cube.line_masks(m, 3):
        elim.add(lm)
    return {
        cube.word_of_cell(c, m, 3)
        for c in range(3 ** m)
        if c not in U and elim.add(1 << c)
    }


class TestExtractTestset:
    def test_point_count_m2(self):
        from tritrade.construct import maximal_bitrade

        T = extract_testset(maximal_bitrade(2).base)
        assert len(T) == 3

    def test_point_count_every_unitrade_m2(self):
        for bits in range(1, 16):
            U = u_from_bool(BoolFn(2, bits))
            T = extract_testset(U)
            assert len(T) == 3
            # T lies outside U
            from tritrade.cube import cell_of_word

            assert all(cell_of_word(p, 3) not in U for p in T.points)

    def test_point_count_m3(self):
        for bits in (1, 37, 255, 128):
            U = u_from_bool(BoolFn(3, bits))
            assert len(extract_testset(U)) == 7

    def test_points_match_a_fresh_elimination(self):
        # every unitrade at m <= 2, a seeded sample at m = 3, 4; each call
        # leaves the shared pivot table as it found it
        rng = random.Random(24)
        cases = [(m, bits) for m in (1, 2) for bits in range(1, 1 << (1 << m))]
        cases += [(3, rng.randrange(1, 1 << 8)) for _ in range(20)]
        cases += [(4, rng.randrange(1, 1 << 16)) for _ in range(5)]
        for m, bits in cases:
            U = u_from_bool(BoolFn(m, bits))
            assert extract_testset(U).points == _points_by_fresh_elimination(U)
            assert line_system_rank(m) == 3 ** m - 2 ** m

    def test_m1_precondition_fails_with_witness(self):
        from tritrade.enumeration import bitrade_catalog

        U = TradeSet.from_words(1, 3, [(0,), (1,)])
        with pytest.raises(PreconditionFailed) as exc:
            extract_testset(U, catalog=bitrade_catalog(1))
        w = exc.value.witness
        assert w is not None
        assert w[0].base.mask ^ w[1].base.mask == U.mask

    def test_solution_space_dimensions(self):
        # (I) leaves dimension 2^m; adding U's zero cells cuts it to 1
        from tritrade.testsets import _Eliminator
        from tritrade import cube

        m = 2
        elim = _Eliminator()
        for lm in cube.line_masks(m, 3):
            elim.add(lm)
        assert 3 ** m - elim.rank == 2 ** m
        U = u_from_bool(BoolFn(m, 0b0110))
        for cell in range(3 ** m):
            if cell not in U:
                elim.add(1 << cell)
        assert 3 ** m - elim.rank == 1

    def test_agreeing_bitrades_argument(self, catalog3):
        # when U = B1 xor B2 the witness pair agrees on the extracted T
        U = u_from_bool(BoolFn(3, 0b01101001 ^ 0b11111111))
        from tritrade.trade import xor_of_two_bitrades

        pair = xor_of_two_bitrades(U, catalog3)
        T = extract_testset(U)
        if pair is not None:
            r1 = restriction(pair[0].base, T)
            r2 = restriction(pair[1].base, T)
            assert r1 == r2
            assert pair[0].base.mask != pair[1].base.mask

    def test_distinct_bitrades_differ_off_T_only_via_U(self, catalog3):
        # pairs of catalog bitrades agreeing on T must xor to exactly U
        U = u_from_bool(BoolFn(3, 37))
        T = extract_testset(U)
        by_restriction = {}
        collisions = []
        for B in catalog3:
            r = restriction(B.base, T)
            if r in by_restriction:
                collisions.append((by_restriction[r], B))
            else:
                by_restriction[r] = B
        for A, B in collisions:
            assert A.base.mask ^ B.base.mask == U.mask


def test_testset_json_roundtrip():
    T = boolean_cube_testset(2)
    assert TestSet.from_json(T.to_json()) == T


@pytest.mark.parametrize("obj,field", [({"m": 2}, "points"), ({"points": ["00"]}, "m")])
def test_testset_json_names_a_missing_field(obj, field):
    with pytest.raises(ValueError, match=f"lacks the field\\(s\\) {field}"):
        TestSet.from_json(obj)


@pytest.mark.parametrize(
    "obj",
    [{"m": 1, "points": ["5"]}, {"m": 2, "points": ["0"]}, {"m": 1, "points": ["0", "12"]}],
    ids=["digit-past-2", "short-point", "long-point"],
)
def test_testset_json_refuses_a_point_off_the_cube(obj):
    with pytest.raises(ValueError):
        TestSet.from_json(obj)


def test_restriction_refuses_another_dimension():
    S = u_from_bool(BoolFn(2, 0b1001))
    with pytest.raises(ValueError, match="dimension 1 for a set of dimension 2"):
        restriction(S, TestSet(1, frozenset({(0,)})))


def test_restriction_refuses_a_digit_past_the_alphabet():
    # the cell of (0, 3) would be cell 3, the word (1, 0), of the next block
    S = u_from_bool(BoolFn(2, 0b1001))
    with pytest.raises(ValueError, match="digits must lie in 0..2"):
        restriction(S, TestSet(2, frozenset({(0, 3)})))

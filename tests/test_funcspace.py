import itertools
import random

import pytest
from helpers import (
    LineSumKind,
    bool_by_word_walk,
    gf2_basis_by_words,
    gf3_basis_by_words,
    gf3_rank,
    in_gf3_space,
    line_sums,
    random_isometry,
    random_n5_function,
    signed_masks_by_values,
)

from tritrade import cube
from tritrade.cube import Isometry, below
from tritrade.errors import NotAUnitrade
from tritrade.funcspace import (
    BoolFn,
    TernFn,
    bool_from_unitrade,
    degree,
    gf2_basis_fn,
    gf3_basis_fn,
    inner3,
    mobius,
    parity_counter,
    tern_from_trade,
    trade_from_tern,
    u_from_bool,
)
from tritrade.symmetry import orbit_values
from tritrade.trade import TradeSet, bipartition, is_unitrade


class TestUFromBool:
    def test_zero(self):
        assert u_from_bool(BoolFn(2, 0)).mask == 0

    def test_n1_identity_map(self):
        f = BoolFn.from_text("01")  # f(x) = x
        assert sorted(u_from_bool(f).words()) == [(1,), (2,)]

    def test_parity_plus_one_n3_has_size_16(self):
        f = parity_counter(3).xor(BoolFn(3, (1 << 8) - 1))
        assert u_from_bool(f).cardinality == 16

    def test_restriction_returns_f(self):
        rng = random.Random(2)
        for _ in range(50):
            f = BoolFn(3, rng.getrandbits(8))
            U = u_from_bool(f)
            for w in itertools.product((0, 1), repeat=3):
                assert (int(f(w) == 1)) == (1 if _cell3(w) in U else 0)

    def test_always_unitrade(self):
        rng = random.Random(3)
        for _ in range(100):
            f = BoolFn(4, rng.getrandbits(16))
            assert is_unitrade(u_from_bool(f))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_definition_exhaustive(self, n):
        for bits in range(1 << (1 << n)):
            f = BoolFn(n, bits)
            assert u_from_bool(f) == _u_by_definition(f)

    @pytest.mark.parametrize("n, count", [(4, 40), (5, 10)])
    def test_matches_definition_random(self, n, count):
        rng = random.Random(14 + n)
        for _ in range(count):
            f = BoolFn(n, rng.getrandbits(1 << n))
            assert u_from_bool(f) == _u_by_definition(f)


def _u_by_definition(f):
    """U[f] from its definition, sharing no code with the ANF builder:
    U[f](y) is the xor of f over the minimal words below y."""
    return TradeSet.from_words(f.n, 3, (
        y for y in itertools.product(range(3), repeat=f.n)
        if sum(f(w) for w in below(y, 3)) & 1
    ))


def _cell3(word):
    from tritrade.cube import cell_of_word

    return cell_of_word(word, 3)


class TestBoolFromUnitrade:
    def test_empty(self):
        assert bool_from_unitrade(TradeSet(2, 3, 0)).bits == 0

    def test_n1_pair(self):
        U = TradeSet.from_words(1, 3, [(1,), (2,)])
        assert bool_from_unitrade(U).to_text() == "01"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_roundtrip_exhaustive(self, n):
        for bits in range(1 << (1 << n)):
            f = BoolFn(n, bits)
            assert bool_from_unitrade(u_from_bool(f)) == f

    def test_roundtrip_random_n45(self):
        rng = random.Random(9)
        for n in (4, 5):
            for _ in range(20):
                f = BoolFn(n, rng.getrandbits(1 << n))
                assert bool_from_unitrade(u_from_bool(f)) == f

    def test_rejects_non_unitrade(self):
        with pytest.raises(NotAUnitrade):
            bool_from_unitrade(TradeSet.from_words(1, 3, [(0,)]))

    @pytest.mark.parametrize("n", range(7))
    def test_restriction_matches_word_walk(self, n):
        # seeded unitrades and random sets, most of them no unitrade: the
        # cell table reads the restriction a walk over the words reads, and
        # the round trip rejects every set that restriction does not rebuild
        rng = random.Random(40 + n)
        for _ in range(30):
            U = u_from_bool(BoolFn(n, rng.getrandbits(1 << n)))
            assert bool_from_unitrade(U).bits == bool_by_word_walk(U)
            S = TradeSet(n, 3, rng.getrandbits(3 ** n))
            bits = bool_by_word_walk(S)
            if u_from_bool(BoolFn(n, bits)).mask == S.mask:
                assert bool_from_unitrade(S).bits == bits
            else:
                with pytest.raises(NotAUnitrade):
                    bool_from_unitrade(S)


class TestMobius:
    def test_zero(self):
        assert mobius(BoolFn(2, 0)).bits == 0

    def test_or_anf(self):
        f = BoolFn.from_text("0111")  # OR at cells 00,01,10,11
        g = mobius(f)
        assert g.to_text() == "0111"  # x2 xor x1 xor x1x2

    def test_involution_exhaustive_n3(self):
        for bits in range(256):
            f = BoolFn(3, bits)
            assert mobius(mobius(f)) == f

    def test_unitrade_on_top_subcube_is_mobius(self):
        # U[f] restricted to {0,2}^n gives the ANF coefficients
        rng = random.Random(4)
        for _ in range(30):
            f = BoolFn(3, rng.getrandbits(8))
            U = u_from_bool(f)
            g = mobius(f)
            for w2 in itertools.product((0, 1), repeat=3):
                top = tuple(2 * d for d in w2)
                assert (g(w2) == 1) == (_cell3(top) in U)


class TestDegree:
    def test_constant_one(self):
        assert degree(BoolFn(2, 0b1111)) == 0

    def test_product(self):
        f = BoolFn.from_text("0001")  # x_1 x_2
        assert degree(f) == 2

    def test_parity_linear(self):
        for n in (2, 3, 4):
            assert degree(parity_counter(n)) == 1

    def test_zero_sentinel(self):
        assert degree(BoolFn(3, 0)) == float("-inf")

    def test_even_ones_in_faces_iff_degree_bound(self):
        # deg f <= m-1 iff every face of dimension >= m has even ones
        from tritrade.construct import face_one_counts

        for bits in range(256):
            f = BoolFn(3, bits)
            d = degree(f)
            for m in range(1, 4):
                even = all(
                    ones % 2 == 0
                    for dim, ones in face_one_counts(f)
                    if dim >= m
                )
                assert even == (d <= m - 1)


class TestGf2Basis:
    def test_n1_worked_table(self):
        assert gf2_basis_fn((0,)).to_text() == "-0+"

    def test_support_size_and_trace(self):
        for x in itertools.product((0, 1), repeat=3):
            b = gf2_basis_fn(x)
            assert b.cardinality == 8
            trace = [w for w in b.support().words() if all(d < 2 for d in w)]
            assert trace == [x]

    def test_rejects_maximal_digit(self):
        with pytest.raises(ValueError, match="base word digits must be 0 or 1"):
            gf2_basis_fn((0, 2))

    @pytest.mark.parametrize("x", [(-1,), (1, 3)])
    def test_rejects_digit_outside_0_1(self, x):
        # -1 once read as the digit 2 of the word 2 - x: `00+` at (-1,)
        with pytest.raises(ValueError, match="base word digits must be 0 or 1"):
            gf2_basis_fn(x)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_matches_word_walk(self, n):
        for x in itertools.product((0, 1), repeat=n):
            assert gf2_basis_fn(x) == gf2_basis_by_words(x)

    def test_line_sums_vanish(self):
        for x in itertools.product((0, 1), repeat=2):
            assert LineSumKind.INVALID not in line_sums(gf2_basis_fn(x))

    def test_independent_over_gf3(self):
        rows = [gf2_basis_fn(x).values for x in itertools.product((0, 1), repeat=2)]
        assert gf3_rank(rows) == 4


class TestGf3Basis:
    def test_constant(self):
        assert gf3_basis_fn((0, 0)).values == (1,) * 9

    def test_identity_n1(self):
        assert gf3_basis_fn((1,)).values == (0, 1, -1)

    def test_in_gf3_space(self):
        for a in itertools.product((0, 1), repeat=3):
            assert in_gf3_space(gf3_basis_fn(a))

    def test_spans_line_sum_zero_n2(self):
        rows = [gf3_basis_fn(a).values for a in itertools.product((0, 1), repeat=2)]
        assert gf3_rank(rows) == 4

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_matches_word_walk(self, n):
        for a in itertools.product((0, 1), repeat=n):
            f = gf3_basis_fn(a)
            assert f == gf3_basis_by_words(a)
            assert f.cardinality == 2 ** sum(a) * 3 ** (n - sum(a))


class TestInner3:
    def test_zero(self):
        z = TernFn(2, (0,) * 9)
        assert inner3(z, gf3_basis_fn((1, 0))) == 0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orthogonality(self, n):
        ones = (1,) * n
        for a in itertools.product((0, 1), repeat=n):
            for b in itertools.product((0, 1), repeat=n):
                v = inner3(gf3_basis_fn(a), gf3_basis_fn(b))
                if a == b == ones:
                    assert v % 3 == (2 ** n) % 3
                else:
                    assert v == 0

    def test_self_inner_is_cardinality_mod3(self, catalog3):
        for B in catalog3[1:50]:
            f = tern_from_trade(B)
            assert inner3(f, f) % 3 == B.cardinality % 3

    def test_self_inner_of_combinations(self):
        # <f,f> is 0 or 2^n mod 3 for random GF(3) combinations of the basis
        rng = random.Random(8)
        n = 2
        basis = [gf3_basis_fn(a) for a in itertools.product((0, 1), repeat=n)]
        for _ in range(100):
            acc = [0] * 9
            for b in basis:
                c = rng.randrange(3)
                acc = [(x + c * y) % 3 for x, y in zip(acc, b.values)]
            f = TernFn(n, tuple(x - 3 if x == 2 else x for x in acc))
            assert inner3(f, f) % 3 in {0, (2 ** n) % 3}


class TestLineSums:
    def test_zero_function(self):
        kinds = line_sums(TernFn(2, (0,) * 9))
        assert set(kinds) == {LineSumKind.ALL_ZERO}

    def test_signed_triple(self):
        assert line_sums(TernFn(1, (1, -1, 0))) == (LineSumKind.SIGNED_TRIPLE,)

    def test_invalid(self):
        assert line_sums(TernFn(1, (1, 1, -1))) == (LineSumKind.INVALID,)

    def test_members_have_unitrade_support_and_coloring(self):
        from tritrade.enumeration import enumerate_functions

        for f in enumerate_functions(2):
            S = f.support()
            assert is_unitrade(S)
            B = bipartition(S)
            assert B is not None
            # sign classes are exactly the two legs
            pos = sum(1 << c for c, v in enumerate(f.values) if v > 0)
            assert pos in (B.part0, B.part1)


@pytest.mark.parametrize(
    "n,values",
    [(1, (2, -2, 0)), (2, (0,) * 8 + (5,)), (1, (1.0, -1, 0))],
    ids=["two-and-minus-two", "last-cell-5", "float-one"],
)
def test_tern_rejects_values_outside_signs(n, values):
    # TernFn(1, (2, -2, 0)) was accepted: its line read as a signed triple,
    # its cardinality as 2, and repr and to_text raised KeyError; a float
    # 1.0 was accepted, and to_text raised struct.error
    with pytest.raises(ValueError):
        TernFn(n, values)


class TestTradeFromTern:
    @pytest.mark.parametrize(
        "text",
        ["+00", "++0", "+-0+-0000"],
        ids=["support-not-a-unitrade", "leg-with-two-cells-on-a-line", "square-not-line-sum-zero"],
    )
    def test_rejects(self, text):
        with pytest.raises(NotAUnitrade):
            trade_from_tern(TernFn.from_text(text))

    @pytest.mark.parametrize(
        "n,values", [(1, (2, -1, 0)), (1, (0, -2, 1)), (2, (1, -1, 0, -1, 1, 0, 0, 0, 3))]
    )
    def test_rejects_values_outside_signs(self, n, values):
        # read as signs, (2, -1, 0) gave legs 1/2 on a line that sums to 1
        with pytest.raises(ValueError):
            trade_from_tern(TernFn(n, values))

    def test_legs_are_the_bipartition(self):
        from tritrade.enumeration import enumerate_functions

        for f in enumerate_functions(2):
            B, A = trade_from_tern(f), bipartition(f.support())
            assert (B.part0, B.part1) == (A.part0, A.part1)

    def test_tern_from_trade_inverts_it(self):
        # the legs back to values through one signed-byte view, up to the
        # leg order that trade_from_tern normalizes
        from tritrade.enumeration import enumerate_functions

        for f in enumerate_functions(3):
            g = tern_from_trade(trade_from_tern(f))
            assert g.values in (f.values, tuple(-v for v in f.values))
            assert g.cardinality == f.cardinality


class TestLegsMatchValueWalk:
    """The legs of `trade_from_tern` and the mask of `TernFn.support`, read
    from the signed bytes, against the cell-by-cell walk."""

    @staticmethod
    def _check(f):
        plus, minus = signed_masks_by_values(f.values)
        B = trade_from_tern(f)
        assert {B.part0, B.part1} == {plus, minus}
        assert B.base.mask == f.support().mask == plus | minus

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_function(self, n):
        from tritrade.enumeration import enumerate_functions

        for f in enumerate_functions(n):
            self._check(f)

    def test_seeded_n5(self):
        from tritrade.enumeration import enumerate_functions

        rng = random.Random(5)
        fl4 = list(enumerate_functions(4))
        for _ in range(20):
            self._check(random_n5_function(rng, fl4))

    def test_support_of_every_value_tuple_at_n2(self):
        for values in itertools.product((-1, 0, 1), repeat=9):
            plus, minus = signed_masks_by_values(values)
            assert TernFn(2, values).support().mask == plus | minus


@pytest.mark.parametrize(
    "fn, word",
    [
        (TernFn.from_text("-0+"), (-1,)),
        (TernFn.from_text("-0+"), (0, 1)),
        (TernFn.from_text("-0+"), (3,)),
        (TernFn.from_text("-0+"), ()),
        (BoolFn.from_text("01"), (2,)),
        (BoolFn.from_text("01"), (-1,)),
        (BoolFn.from_text("0110"), (1,)),
    ],
)
def test_call_rejects_words_outside_the_cube(fn, word):
    # -1 indexed the last cell, (0, 1) cell 1 of a dimension-1 function
    with pytest.raises(ValueError):
        fn(word)


class TestSupportBounds:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_nonzero_support_at_least_2_to_n(self, n):
        from tritrade.enumeration import enumerate_functions

        for f in enumerate_functions(n):
            if any(f.values):
                assert f.cardinality >= 2 ** n

    @pytest.mark.parametrize("n", [2, 3])
    def test_minimal_support_is_boolean_cube(self, n):
        # cardinality exactly 2^n forces a product of per-coordinate 2-sets
        # (so the induced graph is the boolean n-cube)
        import itertools as it

        from tritrade.enumeration import enumerate_functions

        for f in enumerate_functions(n):
            if f.cardinality != 2 ** n:
                continue
            words = f.support().words()
            projections = [sorted({w[i] for w in words}) for i in range(n)]
            assert all(len(p) == 2 for p in projections)
            assert sorted(words) == sorted(it.product(*projections))


def test_text_roundtrips():
    f = TernFn(2, (1, -1, 0, 0, 0, 0, -1, 1, 0))
    assert TernFn.from_text(f.to_text()) == f
    g = BoolFn(3, 0b10110001)
    assert BoolFn.from_text(g.to_text()) == g


@pytest.mark.parametrize("text", ["2", "0121", "01 1", "0a"])
def test_bool_text_rejects_other_characters(text):
    with pytest.raises(ValueError):
        BoolFn.from_text(text)


@pytest.mark.parametrize("text", ["0x0", "1", "+0-+0-+0 ", "+-0+-0+-2"])
def test_tern_text_rejects_other_characters(text):
    with pytest.raises(ValueError):
        TernFn.from_text(text)


def _streamed():
    """A dimension-3 function of the stream with both signs."""
    from tritrade.enumeration import enumerate_functions

    return next(f for f in enumerate_functions(3) if f.cardinality > 8)


def _isometry(sign_flip):
    g = random_isometry(random.Random(33), 3, 3, allow_sign=False)
    return Isometry(g.coord_perm, g.symbol_perms, sign_flip)


_BUILDERS = {
    "constructor": lambda: TernFn(2, (1, -1, 0, 0, 0, 0, -1, 1, 0)),
    "from_text": lambda: TernFn.from_text("+-0000-+0"),
    "stream": _streamed,
    "tern_from_trade": lambda: tern_from_trade(trade_from_tern(_streamed())),
    "gf2_basis_fn": lambda: gf2_basis_fn((0, 1, 1)),
    "retract": lambda: _streamed().retract(1, 2),
    "isometry": lambda: _streamed().apply_isometry(_isometry(False)),
    "isometry-sign-flip": lambda: _streamed().apply_isometry(_isometry(True)),
}


class TestCodec:
    """A TernFn holds its code, the signed bytes of its values; every
    builder writes the same code as the checked constructor, and `values`
    is a tuple built from it."""

    @pytest.mark.parametrize("build", _BUILDERS.values(), ids=_BUILDERS)
    def test_code_is_signed_bytes_of_values(self, build):
        f = build()
        values = f.values
        assert f.code == cube.signed_bytes(values)
        g = TernFn(f.n, values)
        assert f == g and hash(f) == hash(g)
        assert f.cardinality == len(values) - values.count(0)
        assert type(values) is tuple and values[:3] == tuple(values[:3])
        assert hash(values) == hash(tuple(values))

    def test_builders_match_value_walks(self):
        f = _streamed()
        values = f.values
        cells = cube.retract_cells(3, 3, 1, 2)
        assert f.retract(1, 2).values == tuple(values[c] for c in cells)
        for flip in (False, True):
            g = _isometry(flip)
            image = [0] * 27
            for c, image_cell in enumerate(g.cell_map(3)):
                image[image_cell] = -values[c] if flip else values[c]
            assert f.apply_isometry(g).values == tuple(image)
        assert [f.value(c) for c in range(27)] == list(values)

    def test_isometry_of_another_dimension_is_refused(self):
        with pytest.raises(ValueError):
            _streamed().apply_isometry(random_isometry(random.Random(1), 2, 3))

    def test_orbit_keys_are_values_plus_one(self):
        values = (1, -1, 0)
        keys = orbit_values(values, 1)
        assert bytes(v + 1 for v in values) in keys
        assert keys == {bytes(p) for p in itertools.permutations((0, 1, 2))}

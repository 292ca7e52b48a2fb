import random

import pytest
from helpers import bytes_by_bits, cells_by_shifts, mask_by_chars, random_isometry, text_by_bits

from tritrade import cube
from tritrade.cube import Isometry, below, lines
from tritrade.funcspace import tern_from_trade
from tritrade.trade import TradeSet, bipartition, is_unitrade


def test_cell_word_roundtrip():
    for n, k in ((1, 3), (3, 3), (2, 4)):
        for c in range(k ** n):
            assert cube.cell_of_word(cube.word_of_cell(c, n, k), k) == c


def test_cell_order_most_significant_first():
    # coordinate 0 is the most significant digit
    assert cube.cell_of_word((1, 0), 3) == 3
    assert cube.cell_of_word((0, 1), 3) == 1


def _codec_masks(size, rng):
    """The empty mask, the full mask and five seeded random masks."""
    return [0, (1 << size) - 1] + [rng.getrandbits(size) for _ in range(5)]


class TestCellCodec:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_text_round_trip(self, k):
        rng = random.Random(k)
        for n in range(5):
            size = k ** n
            for mask in _codec_masks(size, rng):
                text = cube.mask_text(mask, size)
                assert text == text_by_bits(mask, size)
                assert cube.text_mask(text) == mask_by_chars(text) == mask

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_cells_and_bytes(self, k):
        rng = random.Random(10 + k)
        for n in range(5):
            size = k ** n
            for mask in _codec_masks(size, rng):
                assert cube.mask_cells(mask) == cells_by_shifts(mask)
                for byte in (0x01, 0x07, 0xFF):
                    data = cube.mask_bytes(mask, size, byte).to_bytes(size, "little")
                    assert data == bytes_by_bits(mask, size, byte)
                    assert cube.bytes_mask(data, byte) == mask

    def test_bytes_mask_picks_one_byte(self):
        data = cube.signed_bytes((1, -1, 0, 1, 0, -1))
        assert data == b"\x01\xff\x00\x01\x00\xff"
        assert [cube.bytes_mask(data, b) for b in (0x01, 0xFF, 0x00)] == [0b001001, 0b100010, 0b010100]

    def test_empty_text(self):
        assert cube.text_mask("") == 0
        assert cube.mask_cells(0) == []

    @pytest.mark.parametrize("text", ["2", "a", "01 ", "+1", "-1", "1_0", "0b1", "\u0661"])
    def test_text_mask_rejects_other_characters(self, text):
        # int() alone would read signs, underscores, prefixes and other digits
        with pytest.raises(ValueError):
            cube.text_mask(text)


@pytest.mark.parametrize(
    "word, n, k",
    [((3,), 1, 3), ((-1,), 1, 3), ((0, 1), 1, 3), ((0,), 2, 3), ((2,), 1, 2), ((), 1, 2)],
)
def test_checked_cell_rejects(word, n, k):
    with pytest.raises(ValueError):
        cube.checked_cell(word, n, k)


class TestLines:
    def test_single_line_n1(self):
        ls = lines(1, 3)
        assert len(ls) == 1
        assert ls[0].cells == (0, 1, 2)

    def test_count_n2(self):
        assert len(lines(2, 3)) == 6

    def test_n3_each_word_on_three_lines(self):
        ls = lines(3, 3)
        assert len(ls) == 27
        through = [0] * 27
        for ln in ls:
            for c in ln.cells:
                through[c] += 1
        assert all(t == 3 for t in through)

    def test_empty_at_n0(self):
        assert lines(0, 3) == ()

    def test_deterministic_order(self):
        ls = lines(2, 3)
        assert [ln.direction for ln in ls] == [0, 0, 0, 1, 1, 1]
        assert ls[0].cells == (0, 3, 6)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_line_masks_match_the_word_walk(self, k):
        # line_masks is read off the digit planes; the word walk of `lines`
        # is its reference, line for line in the same order
        for n in range(6):
            walk = tuple(sum(1 << c for c in ln.cells) for ln in lines(n, k))
            assert cube.line_masks(n, k) == walk, n


class TestBelow:
    def test_no_maximal_digit(self):
        assert below((0, 1), 3) == [(0, 1)]

    def test_one_maximal_digit(self):
        assert sorted(below((2, 1), 3)) == [(0, 1), (1, 1)]

    def test_two_maximal_digits(self):
        assert sorted(below((2, 2), 3)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    @pytest.mark.parametrize("y", [(3,), (-1,), (0, 3)])
    def test_rejects_digit_outside_alphabet(self, y):
        with pytest.raises(ValueError, match="digits must lie in"):
            below(y, 3)

    def test_size_counts_maximal_digits(self):
        for y in cube.all_words(3, 3):
            s = sum(1 for d in y if d == 2)
            assert len(below(y, 3)) == 2 ** s


class TestSubcubeLegs:
    def test_n1(self):
        # the factor of digit d is CUBE_FACTOR[d]; its high member is odd
        legs = [cube.subcube_legs((d,)) for d in range(3)]
        assert legs == [(0b001, 0b010), (0b010, 0b100), (0b001, 0b100)]

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_legs_split_the_cube_into_bitrade_halves(self, n):
        for v in cube.all_words(n, 3):
            even, odd = cube.subcube_legs(v)
            assert even & odd == 0 and even | odd == cube.subcube_mask(v)
            if n:
                assert even.bit_count() == odd.bit_count() == 2 ** (n - 1)
                B = bipartition(TradeSet(n, 3, even | odd))
                assert {B.part0, B.part1} == {even, odd}

    def test_rejects_digit_outside_0_1_2(self):
        with pytest.raises(ValueError):
            cube.subcube_legs((0, 3))


class TestRetract:
    def test_empty(self):
        assert TradeSet(2, 3, 0).retract(0, 1).mask == 0

    def test_maximal_bitrade_n2(self):
        # {x1 + x2 != 0} restricted to x2 = 0 is {x1 != 0}
        from tritrade.construct import maximal_bitrade

        B = maximal_bitrade(2)
        R = B.base.retract(1, 0)
        assert sorted(R.words()) == [(1,), (2,)]

    @pytest.mark.parametrize("n, k", [(1, 2), (3, 2), (5, 2), (1, 3), (3, 3), (2, 4)])
    def test_mask_matches_retract_cells(self, n, k):
        rng = random.Random(10 * n + k)
        for _ in range(20):
            mask = rng.getrandbits(k ** n)
            for coord in range(n):
                for value in range(k):
                    cells = cube.retract_cells(n, k, coord, value)
                    expect = sum(1 << j for j, c in enumerate(cells) if mask >> c & 1)
                    assert cube.retract_mask(mask, n, k, coord, value) == expect

    @pytest.mark.parametrize("coord, value", [(-1, 0), (2, 0), (0, 3), (0, -1)])
    def test_mask_rejects_faces_outside_the_cube(self, coord, value):
        with pytest.raises(ValueError):
            cube.retract_mask(0, 2, 3, coord, value)

    def test_all_n3_bitrade_retracts_are_bitrades(self, catalog3):
        for B in catalog3[:200]:
            for coord in range(3):
                for value in range(3):
                    R = B.base.retract(coord, value)
                    assert is_unitrade(R)
                    assert bipartition(R) is not None


def _image(g, word):
    """The image of a word under g: y[coord_perm[i]] = symbol_perms[i][x[i]]."""
    out = [0] * g.n
    for i, d in enumerate(word):
        out[g.coord_perm[i]] = g.symbol_perms[i][d]
    return tuple(out)


class TestIsometry:
    def test_identity(self):
        g = Isometry((0, 1), ((0, 1, 2),) * 2)
        S = TradeSet.from_words(2, 3, [(1, 2), (0, 1)])
        assert S.apply_isometry(g) == S

    def test_symbol_swap_example(self):
        # swap symbols 0 and 2 in coordinate 1 of {1,2} x {1,2}
        g = Isometry((0, 1), ((0, 1, 2), (2, 1, 0)))
        S = TradeSet.from_words(2, 3, [(a, b) for a in (1, 2) for b in (1, 2)])
        img = S.apply_isometry(g)
        assert sorted(img.words()) == [(1, 0), (1, 1), (2, 0), (2, 1)]

    def test_compose_inverse(self):
        rng = random.Random(7)
        for _ in range(40):
            g = random_isometry(rng, 3, 3)
            h = random_isometry(rng, 3, 3)
            gi = g.inverse()
            assert g.compose(gi).cell_map(3) == tuple(range(27))
            assert not g.compose(gi).sign_flip
            # composition acts correctly on words
            w = tuple(rng.randrange(3) for _ in range(3))
            assert _image(g.compose(h), w) == _image(g, _image(h, w))

    def test_preserves_distance(self):
        rng = random.Random(11)
        for _ in range(50):
            g = random_isometry(rng, 4, 3)
            u = tuple(rng.randrange(3) for _ in range(4))
            v = tuple(rng.randrange(3) for _ in range(4))
            assert cube.hamming_distance(u, v) == cube.hamming_distance(
                _image(g, u), _image(g, v)
            )

    def test_preserves_trade_size_and_predicate(self):
        from tritrade.construct import bitrade14

        B = bitrade14(3)
        rng = random.Random(3)
        for _ in range(20):
            g = random_isometry(rng, 3, 3)
            img = B.base.apply_isometry(g)
            assert img.cardinality == 14
            assert is_unitrade(img)
            assert bipartition(img) is not None

    def test_ternfn_sign_flip(self):
        from tritrade.construct import maximal_bitrade

        f = tern_from_trade(maximal_bitrade(2))
        g = Isometry((0, 1), ((0, 1, 2),) * 2, sign_flip=True)
        assert f.apply_isometry(g).values == tuple(-v for v in f.values)


def test_retract_commutes_with_isometry():
    # restricting the image equals applying the induced map to a restriction
    rng = random.Random(5)
    from tritrade.construct import bitrade14

    S = bitrade14(3).base
    for _ in range(20):
        sps = tuple(tuple(rng.sample(range(3), 3)) for _ in range(3))
        g = Isometry((0, 1, 2), sps)  # identity on coordinates
        coord = rng.randrange(3)
        value = rng.randrange(3)
        left = S.apply_isometry(g).retract(coord, sps[coord][value])
        sub_sps = tuple(sp for i, sp in enumerate(sps) if i != coord)
        g_sub = Isometry(tuple(range(2)), sub_sps)
        right = S.retract(coord, value).apply_isometry(g_sub)
        assert left == right


def test_retract_splitters_match_retract_cells():
    # every coordinate and value, on value tuples and on encoded bytes
    rng = random.Random(3)
    for m in range(5):
        splitters = cube.retract_splitters(m)
        assert len(splitters) == m
        values = tuple(rng.choice((-1, 0, 1)) for _ in range(3 ** m))
        code = bytes(v + 1 for v in values)
        for c, split in enumerate(splitters):
            for seq in (values, code):
                parts = split(seq)
                assert len(parts) == 3
                for d, part in enumerate(parts):
                    assert part == tuple(seq[i] for i in cube.retract_cells(m, 3, c, d))

import itertools
import random

import pytest

from tritrade import cube
from tritrade.construct import (
    BITRADE14_WITNESS,
    bitrade14,
    code_unique_compositions,
    composition,
    distinct_row_compositions,
    embed_in_alphabet,
    face_one_counts,
    grid_cycle_bitrade,
    hamming_dual,
    hprime,
    k_extension,
    maximal_bitrade,
    min_distance,
    pot12,
    product,
    rank2_family,
    recover_monomials,
    rm_embed,
    verify_odd_distance_bound,
)
from tritrade.errors import (
    AmbiguousRecovery,
    BadS,
    BrokenInvariant,
    DimensionTooSmall,
    NotBalanced,
    PreconditionUnverifiable,
)
from helpers import random_q4_unitrade
from tritrade.funcspace import BoolFn, degree, tern_from_trade
from tritrade.monomial import MonomialSet, monomial_cube, rank, trade_from_monomials
from tritrade.trade import BipartiteTrade, TradeSet, bipartition, is_unitrade


class TestProduct:
    def test_cardinality_multiplies(self):
        B = maximal_bitrade(2)
        C = maximal_bitrade(2)
        P = product(B, C)
        assert P.n == 4
        assert P.cardinality == 36
        assert is_unitrade(P.base)
        assert bipartition(P.base) is not None

    def test_with_minimal_doubles(self):
        B = bitrade14(3)
        minimal = bipartition(monomial_cube((0,)))
        P = product(B, minimal)
        assert P.cardinality == 28

    def test_empty_factor(self):
        B = BipartiteTrade(TradeSet(1, 3, 0), 0, 0)
        C = maximal_bitrade(2)
        assert product(B, C).cardinality == 0


class TestKExtension:
    def test_zero_extensions(self):
        B = maximal_bitrade(2)
        assert k_extension(B, 0).base == B.base

    def test_minimal_to_maximal(self):
        B1 = bipartition(TradeSet.from_words(1, 3, [(1,), (2,)]))
        ext = k_extension(B1, 1)
        assert ext.cardinality == 6
        assert ext.base == maximal_bitrade(2).base

    def test_triples_cardinality(self):
        B = bitrade14(3)
        assert k_extension(B, 1).cardinality == 42
        assert k_extension(B, 2).cardinality == 126

    def test_non_ternary_base_raises(self):
        # the signed function has 3^n values: a Q_4 bitrade was truncated
        B = grid_cycle_bitrade(4)
        with pytest.raises(ValueError, match="k = 4"):
            tern_from_trade(B)
        for m in (0, 1):
            with pytest.raises(ValueError, match="k = 4"):
                k_extension(B, m)


class TestMaximalBitrade:
    def test_n2(self):
        B = maximal_bitrade(2)
        assert B.cardinality == 6
        assert (B.half0, B.half1) == (3, 3)

    def test_n3_size(self):
        assert maximal_bitrade(3).cardinality == 18

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_complement_is_mds(self, n):
        B = maximal_bitrade(n)
        comp = TradeSet(n, 3, ((1 << 3 ** n) - 1) ^ B.base.mask)
        assert all(c == 1 for c in comp.line_incidence())

    def test_anf_discrepancy_documented(self):
        # the set {x1+x2 != 0} at n=2 has ANF x1+x2+x1x2, not just x1x2
        from tritrade.funcspace import bool_from_unitrade, mobius

        f = bool_from_unitrade(maximal_bitrade(2).base)
        anf = mobius(f)
        assert anf.to_text() == "0111"


class TestRank2Family:
    def test_sizes_n3(self):
        assert rank2_family(3, 1).cardinality == 12

    def test_sizes_n5(self):
        sizes = [rank2_family(5, s).cardinality for s in range(5)]
        assert sizes == [62, 60, 56, 48, 32]

    def test_s_max_gives_minimal(self):
        B = rank2_family(4, 3)
        assert B.cardinality == 16
        assert rank(B.base) == 1

    def test_rank_is_two(self):
        for s in range(3):
            assert rank(rank2_family(4, s).base) == 2

    def test_bad_s(self):
        with pytest.raises(BadS):
            rank2_family(3, 3)


class TestBitrade14:
    def test_witness(self):
        B = bitrade14(3)
        assert B.cardinality == 14
        assert bipartition(B.base) is not None

    def test_series(self):
        assert bitrade14(4).cardinality == 42
        assert bitrade14(5).cardinality == 126

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooSmall):
            bitrade14(2)

    def test_witness_profile(self):
        from tritrade.monomial import triple_profile

        p = triple_profile(MonomialSet(3, BITRADE14_WITNESS))
        assert (p.k1, p.k2, p.k3, p.k4) == (1, 1, 0, 1)


class TestHammingDual:
    def test_t1(self):
        code = hamming_dual(1)
        assert code.length == 1
        assert sorted(code.codewords()) == [(0,), (1,), (2,)]

    def test_t2_generator_and_weights(self):
        code = hamming_dual(2)
        assert code.generator == ((1, 0, 1, 1), (0, 1, 1, 2))
        assert sorted(set(code.weights())) == [0, 3]

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_equidistant(self, t):
        code = hamming_dual(t)
        assert code.length == (3 ** t - 1) // 2
        assert len(code.codewords()) == 3 ** t
        words = code.codewords()
        from tritrade.cube import hamming_distance

        dist = {
            hamming_distance(u, v)
            for u, v in itertools.combinations(words, 2)
        }
        assert dist == {3 ** (t - 1)}


class TestHPrime:
    def test_t2_length(self):
        assert hprime(2).length == 6

    def test_t3_length(self):
        assert hprime(3).length == 2 ** 3 - 2 + (3 ** 3 - 1) // 2

    @pytest.mark.parametrize("t", [2, 3])
    def test_pairwise_odd(self, t):
        code = hprime(t)
        report = verify_odd_distance_bound(code.codewords(), q=3)
        assert report.pairwise_odd
        assert report.within_bound

    @pytest.mark.parametrize("t", [2, 3])
    def test_row_compositions_distinct(self, t):
        assert distinct_row_compositions(hprime(t))

    def test_in_code_uniqueness_reported(self):
        # only the first row's composition is unique inside H'_2
        assert code_unique_compositions(hprime(2)) == [True, False]


class TestOddDistanceBound:
    def test_hprime2(self):
        rep = verify_odd_distance_bound(hprime(2).codewords(), q=3)
        assert rep.size == 9 and rep.bound == 14 and rep.within_bound

    def test_single_point(self):
        rep = verify_odd_distance_bound([(0, 1, 2)], q=3)
        assert rep.pairwise_odd and rep.within_bound

    @pytest.mark.parametrize("t", [1, 2])
    def test_simplex_one_below_bound(self, t):
        code = hamming_dual(t)
        rep = verify_odd_distance_bound(code.codewords(), q=3)
        assert rep.pairwise_odd
        assert rep.size == (3 - 1) * code.length + 1 == rep.bound - 1


class TestRecoverMonomials:
    def test_single_monomial(self):
        V = MonomialSet(6, [(0, 1, 2, 0, 1, 2)])
        U = trade_from_monomials(V)
        assert recover_monomials(U, 6) == V

    def test_two_far_words(self):
        n = 10
        V = MonomialSet(n, [(0,) * n, (1,) * n])
        U = trade_from_monomials(V)
        assert recover_monomials(U, n) == V

    def test_roundtrip_random(self):
        rng = random.Random(12)
        n = 8
        good = 0
        for _ in range(100):
            words = {tuple(rng.randrange(3) for _ in range(n))}
            while len(words) < 2:
                w = tuple(rng.randrange(3) for _ in range(n))
                if all(
                    sum(1 for a, b in zip(w, u) if a != b) >= n - 1
                    for u in words
                ):
                    words.add(w)
            V = MonomialSet(n, words)
            U = trade_from_monomials(V)
            if recover_monomials(U, min_distance(sorted(words))) == V:
                good += 1
        assert good == 100

    def test_precondition_guard(self):
        # too many close monomials: the inequality fails
        V = MonomialSet(3, [(0, 0, 0), (1, 1, 0)])
        U = trade_from_monomials(V)
        with pytest.raises((PreconditionUnverifiable, AmbiguousRecovery)):
            recover_monomials(U, 2)


class TestPot12:
    def test_linear_example(self):
        f = BoolFn.from_text("0011")  # x1 at n=2
        B = pot12(f)  # f xor parity = x2
        assert B.cardinality == 4
        assert sorted(B.base.words()) == [(0, 1), (0, 2), (1, 1), (1, 2)]

    def test_parity_itself(self):
        from tritrade.funcspace import parity_counter

        p = parity_counter(2)
        assert pot12(p).cardinality == 0

    def test_unbalanced_rejected(self):
        with pytest.raises(NotBalanced):
            pot12(BoolFn(3, 0))

    def test_exhaustive_n3_no_counterexample(self):
        balanced = 0
        for bits in range(256):
            f = BoolFn(3, bits)
            if not all(
                abs(2 * ones - (1 << dim)) <= 2
                for dim, ones in face_one_counts(f)
            ):
                continue
            balanced += 1
            B = pot12(f)
            assert bipartition(B.base) is not None
        assert balanced > 0

    def test_random_n4(self):
        rng = random.Random(13)
        checked = 0
        while checked < 20:
            f = BoolFn(4, rng.getrandbits(16))
            from tritrade.construct import almost_balanced_in_faces

            if not almost_balanced_in_faces(f):
                continue
            checked += 1
            assert bipartition(pot12(f).base) is not None




class TestRmEmbed:
    def test_line_pair(self):
        U = TradeSet.from_words(1, 4, [(0,), (3,)])
        F = rm_embed(U)
        assert F.weight == 2
        assert degree(F) <= 1

    def test_product_of_pairs(self):
        a = bipartition(TradeSet.from_words(1, 4, [(0,), (1,)]))
        b = bipartition(TradeSet.from_words(1, 4, [(2,), (3,)]))
        P = product(a, b)
        F = rm_embed(P.base)
        assert F.weight == 4
        assert degree(F) <= 2

    def test_weight_and_degree_on_random(self):
        rng = random.Random(14)
        for _ in range(100):
            U = random_q4_unitrade(rng)
            F = rm_embed(U)
            assert F.weight == U.cardinality
            assert degree(F) <= U.n


    def test_truth_table_is_the_bit_pair_coding(self):
        # oracle: psi(b, b') = 2b + b' applied word by word over Q_2^(2n)
        psi = {(0, 0): 0, (0, 1): 1, (1, 0): 2, (1, 1): 3}
        rng = random.Random(15)
        for _ in range(300):
            U = random_q4_unitrade(rng)
            bits = 0
            for c2, bword in enumerate(cube.all_words(2 * U.n, 2)):
                word = tuple(psi[bword[2 * i], bword[2 * i + 1]] for i in range(U.n))
                if cube.cell_of_word(word, 4) in U:
                    bits |= 1 << c2
            assert rm_embed(U) == BoolFn(2 * U.n, bits)


class TestAlphabetHelpers:
    def test_embed_keeps_bitrade(self):
        B = embed_in_alphabet(maximal_bitrade(3), 4)
        assert B.cardinality == 18
        assert is_unitrade(B.base)
        assert bipartition(B.base) is not None

    def test_grid_cycles(self):
        for k in (4, 5):
            B = grid_cycle_bitrade(k)
            assert B.cardinality == 2 * k
            assert is_unitrade(B.base)


def test_composition_example():
    assert composition((0, 1, 1, 0, 2)) == (2, 2, 1)


def test_every_construction_is_bipartite_unitrade():
    builders = [
        maximal_bitrade(3),
        rank2_family(4, 2),
        bitrade14(4),
        product(maximal_bitrade(1), maximal_bitrade(2)),
        k_extension(maximal_bitrade(2), 1),
    ]
    for B in builders:
        assert is_unitrade(B.base)
        assert bipartition(B.base) is not None


@pytest.mark.parametrize(
    "build",
    [lambda: rank2_family(3, 1), lambda: bitrade14(3), lambda: grid_cycle_bitrade(4)],
)
def test_non_bipartite_construction_raises(monkeypatch, build):
    # an invariant, not an assert: it must survive python -O
    monkeypatch.setattr("tritrade.construct.bipartition", lambda S: None)
    with pytest.raises(BrokenInvariant):
        build()

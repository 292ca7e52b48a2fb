import hashlib
import itertools
import random

import pytest
from helpers import covering_by_words, random_isometry, signed_cube_by_words

from tritrade import monomial
from tritrade.cube import cell_of_word
from tritrade.errors import BrokenInvariant, DimensionTooLarge, NotAUnitrade
from tritrade.funcspace import BoolFn, bool_from_unitrade, u_from_bool
from tritrade.monomial import (
    CUBE_FACTOR,
    MonomialSet,
    cardinality_formula,
    collapse_pair,
    f_from_monomials,
    is_decomposable,
    jointly_consistent,
    monomial_cube,
    normalize,
    r_of,
    rank,
    rank_branch_and_bound,
    rank_of_boolfn,
    rank_table,
    sign_consistency,
    signed_cube_fn,
    subcube_mask,
    trade_from_monomials,
    triple_cardinality,
    triple_is_bitrade,
    triple_profile,
)
from tritrade.trade import TradeSet, bipartition

NEG_INF = float("-inf")


class TestMonomialCube:
    def test_n1_digit0(self):
        assert sorted(monomial_cube((0,)).words()) == [(0,), (1,)]

    def test_n2_all_ones(self):
        assert sorted(monomial_cube((1, 1)).words()) == [
            (1, 1), (1, 2), (2, 1), (2, 2)
        ]

    def test_size_always_power(self):
        for n in (1, 2, 3, 4):
            for v in itertools.product((0, 1, 2), repeat=n):
                assert monomial_cube(v).cardinality == 2 ** n

    @pytest.mark.parametrize("k", [2, 3])
    def test_subcube_mask_is_product_of_factors(self, k):
        for n in range(5):
            for v in itertools.product((0, 1, 2), repeat=n):
                factors = [[x for x in CUBE_FACTOR[d] if x < k] for d in v]
                expect = 0
                for x in itertools.product(*factors):
                    expect |= 1 << cell_of_word(x, k)
                assert subcube_mask(v, k) == expect

    @pytest.mark.parametrize(
        "call",
        [
            lambda: monomial_cube((-1, 0)),
            lambda: monomial_cube((3,)),
            lambda: subcube_mask((0, -1), 2),
            lambda: signed_cube_fn((-1,)),
            lambda: sign_consistency((-1,), (0,)),
            lambda: sign_consistency((0,), (3,)),
            lambda: MonomialSet(1, [(-1,)]),
        ],
        ids=[
            "cube-minus-1",
            "cube-3",
            "truth-table-minus-1",
            "signed-cube-minus-1",
            "sign-consistency-minus-1",
            "sign-consistency-3",
            "monomial-set-minus-1",
        ],
    )
    def test_rejects_digit_outside_0_1_2(self, call):
        # a digit -1 read the factor of digit 2, and 3 raised IndexError
        with pytest.raises(ValueError, match="digits must lie in"):
            call()

    def test_restriction_is_truth_table(self):
        # the cube's characteristic function on Q_2^n equals the monomial
        for v in itertools.product((0, 1, 2), repeat=2):
            U = monomial_cube(v)
            f = f_from_monomials(MonomialSet(2, [v]))
            assert bool_from_unitrade(U) == f


class TestFFromMonomials:
    def test_empty(self):
        assert f_from_monomials(MonomialSet(2, [])).bits == 0

    def test_xor_pair_size(self):
        V = MonomialSet(2, [(1, 0), (0, 1)])
        U = u_from_bool(f_from_monomials(V))
        assert U.cardinality == 6

    def test_matches_cube_xor(self):
        rng = random.Random(0)
        for _ in range(50):
            words = {tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)}
            V = MonomialSet(3, words)
            assert u_from_bool(f_from_monomials(V)) == trade_from_monomials(V)

    def test_distance1_collapse_identity(self):
        for u in itertools.product((0, 1, 2), repeat=3):
            for i in range(3):
                for d in range(3):
                    if d == u[i]:
                        continue
                    v = u[:i] + (d,) + u[i + 1:]
                    w = collapse_pair(u, v)
                    lhs = f_from_monomials(MonomialSet(3, [u, v]))
                    rhs = f_from_monomials(MonomialSet(3, [w]))
                    assert lhs == rhs


class TestRank:
    def test_single_cube(self):
        for v in itertools.product((0, 1, 2), repeat=3):
            assert rank(monomial_cube(v)) == 1

    def test_xor_of_two(self):
        U = u_from_bool(f_from_monomials(MonomialSet(2, [(1, 0), (0, 1)])))
        assert rank(U) == 2

    def test_parity_n3(self):
        from tritrade.funcspace import parity_counter

        assert rank_of_boolfn(parity_counter(3)) == 3

    def test_requires_unitrade(self):
        with pytest.raises(NotAUnitrade):
            rank(TradeSet.from_words(1, 3, [(0,)]))

    def test_dimension_guard(self):
        with pytest.raises(DimensionTooLarge):
            rank_of_boolfn(BoolFn(5, 1))

    def test_engines_agree_n3_exhaustive_max(self):
        # the branch-and-bound reads only rank_table(n - 1), so it checks
        # the BFS table at n rather than reading it back
        for n in range(4):
            table = rank_table(n)
            for bits in range(len(table)):
                assert rank_branch_and_bound(BoolFn(n, bits)) == table[bits]
        assert max(rank_table(3)) == 3

    def test_engines_agree_n4_sample_per_rank(self, rank4):
        rng = random.Random(4)
        by_rank: dict[int, list[int]] = {}
        for bits, r in enumerate(rank4):
            by_rank.setdefault(r, []).append(bits)
        for r, funcs in sorted(by_rank.items()):
            for bits in rng.sample(funcs, min(10, len(funcs))):
                assert rank_branch_and_bound(BoolFn(4, bits)) == r

    @pytest.mark.parametrize("n", range(5))
    def test_table_rank_distribution(self, n):
        # the known minimal-ESOP distributions: functions per rank 0, 1, ...
        counts = {
            0: [1, 1],
            1: [1, 3],
            2: [1, 9, 6],
            3: [1, 27, 162, 66],
            4: [1, 81, 2268, 21744, 37530, 3888, 24],
        }[n]
        table = rank_table(n)
        assert [table.count(r) for r in range(max(table) + 1)] == counts
        assert len(table) == sum(counts)

    def test_table_n4_bytes_pinned(self, rank4):
        assert hashlib.sha256(rank4).hexdigest() == (
            "cf887880f4634f49988e8c98ed44c9b27c45746c2cce0bdc2b73357125fdbfce"
        )

    def test_incomplete_span_raises(self, monkeypatch):
        # the single-cell function alone reaches 2 of the 16 functions at n=2
        monkeypatch.setattr(monomial, "_monomial_tables", lambda n: (1,))
        rank_table.cache_clear()
        try:
            with pytest.raises(BrokenInvariant):
                rank_table(2)
        finally:
            rank_table.cache_clear()

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_covers_are_the_monomials_true_at_the_cell(self, n):
        # the branch-and-bound's covers: the truth tables with the cell's bit
        tables = monomial._monomial_tables(n)
        for cell in range(1 << n):
            covers = [t for t in tables if t >> cell & 1]
            assert len(covers) == 1 << n
            assert set(covers) == covering_by_words(n, cell)

    def test_n4_max_rank(self, rank4):
        assert max(rank4) == 6

    @pytest.mark.slow
    def test_n5_samples_rank_at_most_9(self):
        rng = random.Random(2)
        for _ in range(12):
            f = BoolFn(5, rng.getrandbits(32))
            assert rank_branch_and_bound(f) <= 9


class TestRankStructure:
    @pytest.mark.parametrize("n", [2, 3])
    def test_subadditive_over_retracts(self, n):
        table = rank_table(n)
        sub = rank_table(n - 1)
        for bits in range(1 << (1 << n)):
            f = BoolFn(n, bits)
            for i in range(n):
                r0 = sub[f.retract(i, 0).bits]
                r1 = sub[f.retract(i, 1).bits]
                assert table[bits] <= r0 + r1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rank2_unitrades_are_bitrades(self, n):
        from tritrade.enumeration import unitrade_supports

        table = rank_table(n)
        for bits, mask in unitrade_supports(n):
            if table[bits] == 2:
                assert bipartition(TradeSet(n, 3, mask)) is not None

    def test_rank_invariant_under_isometry(self):
        rng = random.Random(10)
        for _ in range(25):
            f = BoolFn(3, rng.getrandbits(8))
            U = u_from_bool(f)
            g = random_isometry(rng, 3, 3, allow_sign=False)
            assert rank(U.apply_isometry(g)) == rank(U)

    def test_indecomposable_rank4_is_large(self):
        # contrapositive scan over all unitrades at n <= 3: anything of
        # rank >= 4 and size <= 2.5 * 2^n must be decomposable (vacuously
        # true: the maximal rank at n = 3 is 3, asserted to keep it honest)
        for n in (2, 3):
            table = rank_table(n)
            assert max(table) <= 3
            for bits in range(1 << (1 << n)):
                if table[bits] < 4:
                    continue
                U = u_from_bool(BoolFn(n, bits))
                if U.cardinality <= 5 * 2 ** (n - 1):
                    assert is_decomposable(U)

    def test_indecomposable_rank4_bound_n4(self, rank4):
        # the bound is sharp, not strict: rank-4 indecomposable unitrades
        # of size exactly 2.5 * 2^n exist at n = 4, none below it
        from tritrade.enumeration import unitrade_supports

        below = at_boundary = 0
        for bits, mask in unitrade_supports(4):
            if rank4[bits] < 4:
                continue
            c = mask.bit_count()
            if c > 40:
                continue
            if not is_decomposable(TradeSet(4, 3, mask)):
                if c < 40:
                    below += 1
                else:
                    at_boundary += 1
        assert below == 0
        assert at_boundary == 6642  # frozen census of boundary witnesses


class TestROf:
    def test_singleton(self):
        assert r_of([(0, 1, 2)]) == 3

    def test_disjoint_columns(self):
        assert r_of([(1, 0, 0), (0, 1, 1)]) == 0

    def test_all_symbols_column(self):
        assert r_of([(0, 0), (1, 1), (2, 2)]) == NEG_INF

    def test_matches_cube_intersections(self):
        rng = random.Random(3)
        for _ in range(100):
            ws = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(rng.randrange(1, 4))]
            inter = -1
            for w in ws:
                inter &= subcube_mask(w)
            r = r_of(ws)
            expect = 0 if r == NEG_INF else 2 ** int(r)
            assert inter.bit_count() == expect


class TestCardinalityFormula:
    def test_singleton(self):
        assert cardinality_formula(MonomialSet(3, [(0, 1, 2)])) == 8

    def test_size14_witness(self):
        V = MonomialSet(3, [(1, 0, 0), (0, 1, 1), (0, 0, 2)])
        assert cardinality_formula(V) == 14

    def test_unit_vectors(self):
        V = MonomialSet(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert cardinality_formula(V) == 16

    def test_guard(self):
        words = set(itertools.product((0, 1, 2), repeat=3))
        with pytest.raises(DimensionTooLarge, match="27 monomials means 2"):
            cardinality_formula(MonomialSet(3, words))

    def test_exhaustive_triples_n2(self):
        words = list(itertools.product((0, 1, 2), repeat=2))
        for combo in itertools.combinations(words, 3):
            V = MonomialSet(2, combo)
            assert cardinality_formula(V) == trade_from_monomials(V).cardinality

    def test_random_sets_n3(self):
        rng = random.Random(4)
        for _ in range(500):
            size = rng.randrange(1, 6)
            words = set()
            while len(words) < size:
                words.add(tuple(rng.randrange(3) for _ in range(3)))
            V = MonomialSet(3, words)
            assert cardinality_formula(V) == trade_from_monomials(V).cardinality


class TestTripleProfile:
    def test_spec_witness_profile(self):
        V = MonomialSet(3, [(1, 0, 0), (0, 1, 1), (0, 0, 2)])
        p = triple_profile(V)
        assert (p.k1, p.k2, p.k3, p.k4, p.k_eq) == (1, 1, 0, 1, 0)

    def test_unit_vectors_profile(self):
        V = MonomialSet(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        p = triple_profile(V)
        assert (p.k1, p.k2, p.k3, p.k4) == (1, 1, 1, 0)

    def test_equal_column_count(self):
        V = MonomialSet(3, [(0, 0, 0), (0, 1, 1), (0, 2, 2)])
        assert triple_profile(V).k_eq == 1

    def test_row_order_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            ws = set()
            while len(ws) < 3:
                ws.add(tuple(rng.randrange(3) for _ in range(4)))
            V = MonomialSet(4, ws)
            p = triple_profile(V)
            assert p.k1 >= p.k2 >= p.k3
            assert p.k1 + p.k2 + p.k3 + p.k4 + p.k_eq == 4


class TestTripleCardinality:
    def test_witness(self):
        from tritrade.monomial import TripleProfile

        assert triple_cardinality(TripleProfile(1, 1, 0, 1, 0), 3) == 14

    def test_series_head(self):
        from tritrade.monomial import TripleProfile

        for n in (4, 5, 6):
            p = TripleProfile(n - 2, 2, 0, 0, 0)
            assert triple_cardinality(p, n) == 5 * 2 ** (n - 1) - 6

    def test_maximal_triple(self):
        from tritrade.monomial import TripleProfile

        assert triple_cardinality(TripleProfile(0, 0, 0, 3, 0), 3) == 18

    def test_equal_columns_rejected(self):
        from tritrade.monomial import TripleProfile

        with pytest.raises(ValueError, match="formula assumes no all-equal column"):
            triple_cardinality(TripleProfile(1, 1, 0, 0, 1), 3)

    def test_matches_formula_on_triples(self):
        rng = random.Random(6)
        count = 0
        while count < 100:
            ws = set()
            while len(ws) < 3:
                ws.add(tuple(rng.randrange(3) for _ in range(3)))
            V = MonomialSet(3, ws)
            p = triple_profile(V)
            if p.k_eq:
                continue
            count += 1
            assert triple_cardinality(p, 3) == cardinality_formula(V)


def _normalized_triples(n):
    words = list(itertools.product((0, 1, 2), repeat=n))
    from tritrade.cube import hamming_distance

    for combo in itertools.combinations(words, 3):
        if all(
            hamming_distance(u, v) >= 2
            for u, v in itertools.combinations(combo, 2)
        ):
            yield MonomialSet(n, combo)


class TestTripleIsBitrade:
    def test_odd_sum_is_bitrade(self):
        V = MonomialSet(3, [(1, 0, 0), (0, 1, 1), (0, 0, 2)])
        verdict, rule = triple_is_bitrade(V)
        assert verdict and rule == "odd-distance-sum"

    def test_unit_vectors_not_bitrade(self):
        V = MonomialSet(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        verdict, rule = triple_is_bitrade(V)
        assert not verdict and rule == "blocked-pattern"

    def test_dominated_is_bitrade(self):
        # w agrees with u or v in every coordinate
        V = MonomialSet(4, [(0, 0, 0, 0), (1, 1, 1, 1), (0, 0, 1, 1)])
        verdict, rule = triple_is_bitrade(V)
        assert verdict and rule == "dominated"

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="distance-1 pair collapses"):
            triple_is_bitrade(MonomialSet(2, [(0, 0), (0, 1), (1, 1)]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_oracle_agreement_exhaustive(self, n):
        for V in _normalized_triples(n):
            verdict, _ = triple_is_bitrade(V)
            oracle = bipartition(trade_from_monomials(V)) is not None
            assert verdict == oracle, V.to_text()


class TestNormalize:
    def test_pair_collapse(self):
        V = MonomialSet(2, [(0, 0), (0, 1)])
        assert normalize(V) == MonomialSet(2, [(0, 2)])

    def test_cancellation_to_empty(self):
        # u, v at distance 1 whose collapse equals the third word: all gone
        u, v = (0, 0), (0, 1)
        w = collapse_pair(u, v)
        V = MonomialSet(2, [u, v, w])
        assert len(normalize(V)) in (0, 1)
        assert f_from_monomials(normalize(V)) == f_from_monomials(V)

    def test_preserves_function(self):
        rng = random.Random(7)
        for _ in range(100):
            words = {tuple(rng.randrange(3) for _ in range(3)) for _ in range(4)}
            V = MonomialSet(3, words)
            assert f_from_monomials(normalize(V)) == f_from_monomials(V)


class TestSignConsistency:
    def test_same_word(self):
        assert sign_consistency((0, 1), (0, 1)) == 1

    def test_rejects_words_of_different_lengths(self):
        # zip cut (0, 1) to (0,) and answered +1
        with pytest.raises(ValueError, match="different lengths"):
            sign_consistency((0, 1), (0,))

    def test_relation_constant_on_overlap(self):
        rng = random.Random(8)
        from tritrade.cube import cell_of_word

        for _ in range(50):
            u = tuple(rng.randrange(3) for _ in range(3))
            v = tuple(rng.randrange(3) for _ in range(3))
            bu, bv = signed_cube_fn(u), signed_cube_fn(v)
            prods = {
                a * b
                for a, b in zip(bu.values, bv.values)
                if a and b
            }
            assert prods == {sign_consistency(u, v)}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_signed_cube_matches_word_walk(self, n):
        for v in itertools.product(range(3), repeat=n):
            assert signed_cube_fn(v) == signed_cube_by_words(v)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_signed_functions_on_every_pair(self, n):
        words = list(itertools.product(range(3), repeat=n))
        fns = {w: signed_cube_fn(w).values for w in words}
        for u in words:
            for v in words:
                prods = {a * b for a, b in zip(fns[u], fns[v]) if a and b}
                assert prods == {sign_consistency(u, v)}, (u, v)

    def test_constant_triple_parity(self):
        for n, expect in ((2, False), (3, True), (4, False), (5, True)):
            words = [(0,) * n, (1,) * n, (2,) * n]
            assert jointly_consistent(words) == expect

    def test_odd_distance_sets_are_bitrades(self):
        # all pairwise odd distances -> consistent signing -> bitrade
        rng = random.Random(9)
        found = 0
        while found < 20:
            words = set()
            while len(words) < 3:
                w = tuple(rng.randrange(3) for _ in range(4))
                if all(
                    sum(1 for a, b in zip(w, u) if a != b) % 2 == 1
                    for u in words
                ):
                    words.add(w)
            found += 1
            V = MonomialSet(4, words)
            assert jointly_consistent(sorted(words))
            assert bipartition(trade_from_monomials(V)) is not None


class TestDecomposable:
    def test_product_is_decomposable(self):
        from tritrade.construct import maximal_bitrade, product

        P = product(maximal_bitrade(1), maximal_bitrade(1))
        assert is_decomposable(P.base)

    def test_maximal_n2_is_not(self):
        from tritrade.construct import maximal_bitrade

        assert not is_decomposable(maximal_bitrade(2).base)


def test_monomialset_text_roundtrip():
    V = MonomialSet(3, [(1, 0, 0), (0, 1, 1), (0, 0, 2)])
    assert MonomialSet.from_text(3, V.to_text()) == V
    assert V.to_text() == "002;011;100"

import itertools
import random

import pytest
from helpers import (
    LineSumKind,
    canonical_by_recursion,
    classify,
    double_count_check,
    line_sums,
    match_count_by_runs,
    orbit,
    random_isometry,
    random_n5_function,
)

from tritrade.cube import Isometry
from tritrade.enumeration import enumerate_functions
from tritrade.errors import DimensionTooLarge
from tritrade.funcspace import TernFn, tern_from_trade
from tritrade.symmetry import (
    aut_order,
    canonical_form,
    count_isometries_onto,
    equivalent,
    group_order,
    orbit_values,
)


def _minimal_fn(n):
    from tritrade.monomial import monomial_cube
    from tritrade.trade import bipartition

    return tern_from_trade(bipartition(monomial_cube((0,) * n)))


def _maximal_fn(n):
    from tritrade.construct import maximal_bitrade

    return tern_from_trade(maximal_bitrade(n))


def _all_isometries(n):
    """Every element of the group, enumerated independently of symmetry.py."""
    sym3 = list(itertools.permutations(range(3)))
    return [
        Isometry(cp, sps, flip)
        for flip in (False, True)
        for cp in itertools.permutations(range(n))
        for sps in itertools.product(sym3, repeat=n)
    ]


def _orbit_min_text(f):
    """Reference canonical form: the smallest member of the orbit closure."""
    key = min(orbit_values(f.values, f.n))
    return TernFn(f.n, tuple(b - 1 for b in key)).to_text()


def _scan_count(f, g, group):
    """Reference count of the group elements mapping f onto g."""
    return sum(1 for h in group if f.apply_isometry(h) == g)


class TestCanonicalForm:
    def test_zero_fixed(self):
        z = TernFn(2, (0,) * 9)
        assert canonical_form(z) == z.to_text()

    def test_constant_on_orbit_and_idempotent(self):
        rng = random.Random(1)
        f = _minimal_fn(2)
        key = canonical_form(f)
        for g in orbit(f):
            assert canonical_form(g) == key
        assert canonical_form(TernFn.from_text(key)) == key

    def test_n1_signed_minimal_share_key(self):
        fns = [f for f in enumerate_functions(1) if f.cardinality == 2]
        assert len(fns) == 6
        assert len({canonical_form(f) for f in fns}) == 1

    def test_invariant_under_random_isometry(self):
        rng = random.Random(5)
        for f in list(enumerate_functions(2))[:20]:
            g = random_isometry(rng, 2, 3)
            assert canonical_form(f) == canonical_form(f.apply_isometry(g))

    def test_invariant_at_higher_dimensions(self):
        rng = random.Random(6)
        fns3 = list(enumerate_functions(3))
        for f in rng.sample(fns3, 70):
            g = random_isometry(rng, 3, 3)
            assert canonical_form(f) == canonical_form(f.apply_isometry(g))
        from tritrade.construct import bitrade14
        from tritrade.funcspace import tern_from_trade

        f4 = tern_from_trade(bitrade14(4))
        for _ in range(3):
            g = random_isometry(rng, 4, 3)
            assert canonical_form(f4) == canonical_form(f4.apply_isometry(g))

    def test_distinct_across_classes_n2(self):
        keys = {canonical_form(f) for f in enumerate_functions(2)}
        assert len(keys) == 3

    def test_minimal_over_orbit_small(self):
        for n in (0, 1, 2, 3):
            for f in enumerate_functions(n):
                assert canonical_form(f) == _orbit_min_text(f) == canonical_by_recursion(f)

    def test_minimal_over_orbit_n4_classes(self, classes4):
        rng = random.Random(13)
        for rec in classes4[1]:
            f = rec.representative
            key = _orbit_min_text(f)
            for g in [f] + [f.apply_isometry(random_isometry(rng, 4, 3)) for _ in range(2)]:
                assert canonical_form(g) == key == canonical_by_recursion(g)

    def test_n5_non_representatives(self, classes5):
        # generic functions and their images, looked up in the n = 5 class
        # index through their retract keys; 1-2 s each in the recursion
        rng = random.Random(4)
        fl4 = list(enumerate_functions(4))
        reps = {rec.representative for rec in classes5[1]}
        for _ in range(3):
            f = random_n5_function(rng, fl4)
            g = f.apply_isometry(random_isometry(rng, 5, 3))
            assert f not in reps and g not in reps
            key = canonical_by_recursion(f)
            assert canonical_form(f) == key
            assert canonical_form(g) == key

    @pytest.mark.parametrize(
        "n,values",
        [(1, (1, 1, 0)), (2, (1, -1, 0) * 3), (0, (2,)), (1, (2, -1, -1))],
        ids=["line-sum-nonzero", "columns-nonzero", "value-2-n0", "value-2-n1"],
    )
    def test_rejects_functions_outside_the_space(self, n, values):
        # without the checks (1, 1, 0) and (2,) would get the answers -0+ and -;
        # a value 2 is refused by TernFn itself
        with pytest.raises(ValueError):
            canonical_form(TernFn(n, values))

    def test_capped_at_n5(self):
        with pytest.raises(DimensionTooLarge):
            canonical_form(TernFn(6, (0,) * 3 ** 6))

    def test_minimal_over_orbit_n5_symmetric(self):
        # generic n=5 orbits hold about 933k elements; these hold a few hundred
        rng = random.Random(17)
        for f in (TernFn(5, (0,) * 3 ** 5), _minimal_fn(5), _maximal_fn(5)):
            g = f.apply_isometry(random_isometry(rng, 5, 3))
            key = _orbit_min_text(f)
            assert canonical_form(f) == key
            assert canonical_form(g) == key


class TestOrbit:
    def test_zero(self):
        assert orbit(TernFn(2, (0,) * 9)) == {TernFn(2, (0,) * 9)}

    def test_minimal_n2_size_18(self):
        assert len(orbit(_minimal_fn(2))) == 18

    def test_maximal_n2_size_12(self):
        assert len(orbit(_maximal_fn(2))) == 12

    def test_limit(self):
        # refused before any work: an n = 6 orbit can hold millions of keys
        with pytest.raises(DimensionTooLarge, match="orbit closure capped at n=5"):
            orbit_values((0,) * 3 ** 6, 6)

    def test_closure_is_the_set_of_group_images(self):
        # every function at n <= 2, a seeded sample at n = 3
        rng = random.Random(23)
        fns = [f for n in range(3) for f in enumerate_functions(n)]
        fns += rng.sample(list(enumerate_functions(3)), 6)
        for f in fns:
            images = {bytes(v + 1 for v in f.apply_isometry(h).values)
                      for h in _all_isometries(f.n)}
            assert orbit_values(f.values, f.n) == images


class TestAutOrder:
    def test_zero_full_group(self):
        assert aut_order(TernFn(2, (0,) * 9)) == 144

    def test_minimal_n2(self):
        assert aut_order(_minimal_fn(2)) == 8

    def test_maximal_n2(self):
        assert aut_order(_maximal_fn(2)) == 12

    def test_orbit_stabilizer(self):
        rng = random.Random(7)
        fns = list(enumerate_functions(3))
        for f in rng.sample(fns, 12):
            assert len(orbit(f)) * aut_order(f) == group_order(3)

    def test_matcher_agrees_with_scan(self):
        # every function at n <= 2 (n = 0 has no retract level to prune its
        # leaf), a sample at n = 3, each against an image and against an
        # inequivalent partner
        rng = random.Random(9)
        by_n = {n: list(enumerate_functions(n)) for n in range(4)}
        fns = by_n[0] + by_n[1] + by_n[2] + rng.sample(by_n[3], 8)
        for f in fns:
            group = _all_isometries(f.n)
            assert aut_order(f) == _scan_count(f, f, group)
            g = f.apply_isometry(random_isometry(rng, f.n, 3))
            assert count_isometries_onto(f, g) == _scan_count(f, g, group)
            h = rng.choice(by_n[f.n])
            while _scan_count(f, h, group):
                h = rng.choice(by_n[f.n])
            assert count_isometries_onto(f, h) == 0
            assert not equivalent(f, h)


def _matcher_pairs(rng, n, fns):
    """Seeded (f, g) pairs at dimension n: each f against a random image
    and against a random partner, which is almost always inequivalent."""
    pairs = []
    for f in fns:
        pairs.append((f, f.apply_isometry(random_isometry(rng, n, 3))))
        pairs.append((f, rng.choice(fns)))
    return pairs


def _random_signs(rng, n):
    """A {-1,0,+1} vector with a nonzero line sum."""
    while True:
        f = TernFn(n, tuple(rng.choice((-1, 0, 1)) for _ in range(3 ** n)))
        if LineSumKind.INVALID in line_sums(f):
            return f


class TestMatcherAgainstRunsOracle:
    """count_isometries_onto and equivalent against the test-side run-profile
    recursion, which keeps no face table."""

    def _check(self, pairs):
        for f, g in pairs:
            want = match_count_by_runs(f, g)
            assert count_isometries_onto(f, g) == want
            assert equivalent(f, g) == (want > 0) == (match_count_by_runs(f, g, find_one=True) > 0)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_images_and_partners(self, n):
        rng = random.Random(100 + n)
        if n == 5:
            fl4 = list(enumerate_functions(4))
            fns = [random_n5_function(rng, fl4) for _ in range(8)]
        else:
            fns = rng.sample(list(enumerate_functions(n)), 12)
        pairs = _matcher_pairs(rng, n, fns)
        assert any(match_count_by_runs(f, g) == 0 for f, g in pairs)
        self._check(pairs)

    def test_maximal_bitrade_n4(self):
        rng = random.Random(31)
        f = _maximal_fn(4)
        assert aut_order(f) == match_count_by_runs(f, f) == 1296
        minus = TernFn(4, tuple(-v for v in f.values))
        self._check(_matcher_pairs(rng, 4, [f, minus, _minimal_fn(4)]))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_vectors_off_the_line_sum_zero_space(self, n):
        rng = random.Random(200 + n)
        fns = [_random_signs(rng, n) for _ in range(8 if n < 5 else 4)]
        self._check([(f, f) for f in fns] + _matcher_pairs(rng, n, fns))

    def test_no_state_between_calls(self):
        rng = random.Random(41)
        fns = rng.sample(list(enumerate_functions(4)), 6) + [_maximal_fn(4)]
        calls = [(kind, f, g) for f, g in _matcher_pairs(rng, 4, fns)
                 for kind in (count_isometries_onto, equivalent)]
        forward = [kind(f, g) for kind, f, g in calls]
        backward = [kind(f, g) for kind, f, g in reversed(calls)]
        assert forward == backward[::-1]


class TestClassify:
    def test_n2_classes_and_orbits(self):
        recs = classify(enumerate_functions(2), 2)
        assert len(recs) == 3
        assert sorted(r.orbit_size for r in recs) == [1, 12, 18]
        assert sorted(r.aut for r in recs) == [8, 12, 144]

    def test_n3_classes(self, classes3):
        count, recs = classes3
        assert count == 5
        assert sum(r.orbit_size for r in recs) == 403

    def test_n4_classes(self, classes4):
        count, recs = classes4
        assert count == 13
        assert sum(r.orbit_size for r in recs) == 29875

    def test_orbit_aut_identity(self, closure4):
        # on the class layer orbit = group order // aut by construction; the
        # closure measures the orbits on their own
        for r in closure4:
            assert r.orbit_size * r.aut == group_order(4)


class TestDoubleCount:
    def test_empty(self):
        assert double_count_check([], 0, 2)

    def test_n2_arithmetic(self):
        recs = classify(enumerate_functions(2), 2)
        assert double_count_check(recs, 31, 2)
        assert 144 // 144 + 144 // 8 + 144 // 12 == 31

    def test_n3(self, classes3):
        assert double_count_check(classes3[1], 403, 3)


@pytest.mark.parametrize(
    "call",
    [
        lambda n, v: aut_order(TernFn(n, v)),
        lambda n, v: equivalent(TernFn(n, v), TernFn(n, v)),
        lambda n, v: count_isometries_onto(TernFn(n, (0,) * 3 ** n), TernFn(n, v)),
        lambda n, v: orbit_values(v, n),
    ],
    ids=["aut_order", "equivalent", "count-onto-target", "orbit_values"],
)
@pytest.mark.parametrize(
    "n,values", [(0, (2,)), (1, (2, -1, -1))], ids=["value-2-n0", "value-2-n1"]
)
def test_group_calls_reject_values_outside_signs(call, n, values):
    # without the check aut_order read 2 at n = 1 and orbit_values gave 6 keys
    with pytest.raises(ValueError):
        call(n, values)


@pytest.mark.parametrize("values", [(1, -1, 0, 0), (1, -1)], ids=["long", "short"])
def test_orbit_values_rejects_wrong_length(values):
    # without the check the long tuple gave 8 keys of mixed lengths and the
    # short one an IndexError
    with pytest.raises(ValueError):
        orbit_values(values, 1)


class TestEquivalent:
    def test_sign_flip_is_equivalence(self):
        f = _minimal_fn(2)
        assert equivalent(f, TernFn(f.n, tuple(-v for v in f.values)))

    def test_inequivalent_sizes(self):
        assert not equivalent(_minimal_fn(2), _maximal_fn(2))

    def test_random_images(self):
        rng = random.Random(11)
        for f in (_maximal_fn(3), _maximal_fn(4)):
            for _ in range(5):
                g = random_isometry(rng, f.n, 3)
                assert equivalent(f, f.apply_isometry(g))

    def test_kext_of_minimal_is_maximal_n2(self):
        from tritrade.construct import k_extension
        from tritrade.trade import TradeSet, bipartition

        B1 = bipartition(TradeSet.from_words(1, 3, [(1,), (2,)]))
        ext = k_extension(B1, 1)
        assert ext.cardinality == 6
        assert canonical_form(tern_from_trade(ext)) == canonical_form(_maximal_fn(2))

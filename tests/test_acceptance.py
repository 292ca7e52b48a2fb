"""Acceptance gate: one test per criterion, exact tolerances, one printed
pass line each (run with -s to watch them live)."""

import contextlib
import io
import itertools
import os
import random
import time

import pytest
from helpers import double_count_check

from tritrade import cli, construct, monomial
from tritrade.enumeration import (
    classify_all,
    count_by_retract_classes,
    count_functions,
    unitrade_supports,
)
from tritrade.funcspace import degree
from tritrade.monomial import (
    MonomialSet,
    cardinality_formula,
    trade_from_monomials,
    triple_is_bitrade,
)
from tritrade.refdata import N_FUNCTIONS, NPRIME, SPECTRUM_LISTS
from tritrade.trade import (
    bipartition,
    half_cardinality_stats,
    mod3_admissible,
    small_bitrade_admissible,
    unitrade_alpha_admissible,
)

N_EXPECTED = [3, 7, 31, 403, 29875, 32184151]
NPRIME_EXPECTED = [2, 2, 3, 5, 13]


def _report(line):
    print(f"\nACCEPTANCE {line}")


class TestCriterion1Counts:
    def test_counts_small_under_5s(self):
        t0 = time.time()
        got = [count_functions(n) for n in range(5)]
        elapsed = time.time() - t0
        assert got == N_EXPECTED[:5]
        assert elapsed < 5.0, f"n<=4 counts took {elapsed:.2f}s"
        _report(f"1a: PASS — N(0..4) = {got} in {elapsed:.2f}s (< 5s)")

    def test_count_n5_single_worker(self):
        t0 = time.time()
        got = count_functions(5)
        elapsed = time.time() - t0
        assert got == N_EXPECTED[5]
        assert elapsed < 1800, f"single-worker n=5 took {elapsed:.0f}s"
        _report(f"1b: PASS — N(5) = {got} single-worker in {elapsed:.0f}s (< 30min)")

    def test_count_n5_parallel(self):
        cpus = os.cpu_count() or 1
        jobs = min(8, cpus)
        t0 = time.time()
        got = count_by_retract_classes(5, jobs=jobs)
        elapsed = time.time() - t0
        assert got == N_EXPECTED[5]
        if cpus >= 8:
            assert elapsed < 300, f"8-worker n=5 took {elapsed:.0f}s"
            _report(f"1c: PASS — N(5) from the n = 4 classes, 8 workers, in {elapsed:.1f}s (< 5min)")
        else:
            _report(
                f"1c: PASS — N(5) from the n = 4 classes, {jobs} workers, in {elapsed:.1f}s "
                f"(host has {cpus} CPUs; 8-worker target not measurable)"
            )


class TestCriterion2Classes:
    def test_class_counts_and_double_count(self, classes3, classes4):
        got = []
        for n in range(5):
            if n == 3:
                count, records = classes3
            elif n == 4:
                count, records = classes4
            else:
                count, records = classify_all(n)
            got.append(count)
            assert double_count_check(records, N_EXPECTED[n], n), n
        assert got == NPRIME_EXPECTED
        _report(f"2: PASS — N'(0..4) = {got}, double-count identity exact")

    def test_classes_n5(self, classes5):
        count, records = classes5
        assert count == 92
        assert sum(r.orbit_size for r in records) == N_FUNCTIONS[5]
        assert double_count_check(records, N_EXPECTED[5], 5)
        _report("2: PASS — N'(5) = 92, double-count identity exact")


class TestCriterion3Spectra:
    def test_spectra_entry_for_entry(self, spectra, spectrum5):
        for n, table in {**spectra, 5: spectrum5}.items():
            sizes = range(2 ** n, 2 * 3 ** (n - 1) + 1, 2)
            assert [table.entries.get(s, 0) for s in sizes] == SPECTRUM_LISTS[n], n
        sp5 = spectrum5.entries
        assert (sp5[68], sp5[72], sp5[74], sp5[78], sp5[80]) == (
            58320, 41580, 77760, 116640, 301320,
        )
        assert all(spectrum5.entries.get(s, 0) == 0 for s in (64, 66, 70, 76))
        _report("3: PASS — spectra n=1..5 match the published lists exactly")


class TestCriterion4Theorems:
    def test_mod3_and_zero_at_double(self, spectra, spectrum5):
        tables = {**spectra, 5: spectrum5}
        for n, table in tables.items():
            for size, count in table.entries.items():
                if count:
                    assert mod3_admissible(n, size), (n, size)
            assert table.entries.get(2 ** (n + 1), 0) == 0
        _report("4a: PASS — mod-3 admissibility, zero count at 2^(n+1) (n<=5)")

    def test_minimal_size_count(self, spectra, spectrum5):
        tables = {**spectra, 5: spectrum5}
        for n, table in tables.items():
            assert table.entries.get(2 ** n, 0) == 3 ** n, n
        _report("4b: PASS — minimal-size count = 3^n (n<=5)")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rank2_classification_full_catalog(self, n):
        table = monomial.rank_table(n)
        lo, hi = 2 ** n, 2 ** (n + 1)
        allowed = {2 ** (n + 1) - 2 ** (s + 1) for s in range(n)}
        checked = 0
        for bits, mask in unitrade_supports(n):
            c = mask.bit_count()
            if not lo <= c < hi:
                continue
            checked += 1
            assert c in allowed, (n, c)
            assert table[bits] == (1 if c == lo else 2), (n, bits)
            from tritrade.trade import TradeSet

            assert bipartition(TradeSet(n, 3, mask)) is not None
        assert checked
        if n == 4:
            _report("4c: PASS — rank-2 window classified over full catalogs (n<=4)")

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_alpha_admissible_full_catalog(self, n):
        for _, mask in unitrade_supports(n):
            assert unitrade_alpha_admissible(n, mask.bit_count())
        if n == 4:
            _report("4d: PASS — alpha-admissibility over full catalogs (n<=4)")

    def test_small_cardinality_iff_spectrum(self, spectra, spectrum5):
        tables = {**spectra, 5: spectrum5}
        for n, table in tables.items():
            lo, hi = 2 ** (n + 1), 5 * 2 ** (n - 1)
            for c in range(lo + 2, hi + 1, 2):
                predicted = small_bitrade_admissible(n, c)
                assert predicted == (table.entries.get(c, 0) > 0), (n, c)
        _report("4e: PASS — small-cardinality series <=> spectrum window (n<=5)")

    def test_gap_and_maximal_counts(self, spectra, spectrum5):
        tables = {3: spectra[3], 4: spectra[4], 5: spectrum5}
        for n, table in tables.items():
            gap_lo, gap_hi = 14 * 3 ** (n - 3), 2 * 3 ** (n - 1)
            assert all(
                table.entries.get(s, 0) == 0 for s in range(gap_lo + 2, gap_hi, 2)
            ), n
            assert table.entries.get(gap_hi, 0) == 3 * 2 ** (n - 1), n
        assert [t.entries.get(2 * 3 ** (n - 1), 0) for n, t in tables.items()] == [12, 24, 48]
        _report("4f: PASS — gap theorem and maximal-class counts 12/24/48")


class TestCriterion5FormulaOracles:
    def test_cardinality_formula_exhaustive_n3(self):
        words = list(itertools.product((0, 1, 2), repeat=3))
        t0 = time.time()
        checked = 0
        for size in (1, 2, 3):
            for combo in itertools.combinations(words, size):
                V = MonomialSet(3, combo)
                assert cardinality_formula(V) == trade_from_monomials(V).cardinality
                checked += 1
        elapsed = time.time() - t0
        _report(f"5a: PASS — formula == direct size on all {checked} sets of <=3 monomials, n=3 ({elapsed:.0f}s)")

    def test_cardinality_formula_random_n4(self):
        rng = random.Random(0)
        t0 = time.time()
        for _ in range(10000):
            size = rng.randrange(1, 6)
            words = set()
            while len(words) < size:
                words.add(tuple(rng.randrange(3) for _ in range(4)))
            V = MonomialSet(4, words)
            assert cardinality_formula(V) == trade_from_monomials(V).cardinality
        elapsed = time.time() - t0
        assert elapsed < 600
        _report(f"5b: PASS — formula == direct size on 10^4 random sets, n=4 ({elapsed:.0f}s)")

    def test_triple_classifier_exhaustive_n4(self):
        from tritrade.cube import hamming_distance

        words = list(itertools.product((0, 1, 2), repeat=4))
        t0 = time.time()
        checked = 0
        for combo in itertools.combinations(words, 3):
            u, v, w = combo
            if (
                hamming_distance(u, v) < 2
                or hamming_distance(u, w) < 2
                or hamming_distance(v, w) < 2
            ):
                continue
            checked += 1
            V = MonomialSet(4, combo)
            verdict, _ = triple_is_bitrade(V)
            oracle = bipartition(trade_from_monomials(V)) is not None
            assert verdict == oracle, combo
        elapsed = time.time() - t0
        assert elapsed < 600, f"triple sweep took {elapsed:.0f}s"
        _report(
            f"5c: PASS — classifier == bipartition oracle on {checked} normalized triples, "
            f"n=4 ({elapsed:.0f}s, < 10min)"
        )


class TestCriterion6Statistics:
    def test_half_cardinality_stats(self, catalog2, catalog3):
        m2, s2 = half_cardinality_stats([B for B in catalog2 if B.cardinality])
        m3, s3 = half_cardinality_stats([B for B in catalog3 if B.cardinality])
        assert round(m2, 3) == 2.4 and round(s2, 3) == 0.490
        assert round(m3, 3) == 6.448 and round(s3, 3) == 1.188
        _report("6: PASS — half-cardinality stats 2.4(±0.490), 6.448(±1.188)")


class TestCriterion7Constructions:
    def test_hprime2(self):
        code = construct.hprime(2)
        words = code.codewords()
        assert code.length == 6 and len(words) == 9
        rep = construct.verify_odd_distance_bound(words, q=3)
        assert rep.pairwise_odd
        _report("7a: PASS — hprime(2): length 6, 9 words, pairwise odd distances")

    def test_hamming_dual_equidistant(self):
        from tritrade.cube import hamming_distance

        for t in (1, 2, 3):
            code = construct.hamming_dual(t)
            dists = {
                hamming_distance(u, v)
                for u, v in itertools.combinations(code.codewords(), 2)
            }
            assert dists == {3 ** (t - 1)}, t
        _report("7b: PASS — hamming_dual(t) equidistant with weight 3^(t-1), t<=3")

    def test_recover_roundtrips(self):
        rng = random.Random(1)
        n = 8
        good = 0
        for _ in range(100):
            words = {tuple(rng.randrange(3) for _ in range(n))}
            while len(words) < rng.choice([1, 2, 2, 3]):
                w = tuple(rng.randrange(3) for _ in range(n))
                if all(
                    sum(1 for a, b in zip(w, u) if a != b) >= n - 1
                    for u in words
                ):
                    words.add(w)
            V = MonomialSet(n, words)
            U = trade_from_monomials(V)
            D = construct.min_distance(sorted(words))
            if construct.recover_monomials(U, min(D, n)) == V:
                good += 1
        assert good == 100
        _report("7c: PASS — recover_monomials round-trips 100/100 instances")

    def test_rm_embed_on_random_q4_unitrades(self):
        from helpers import random_q4_unitrade

        rng = random.Random(2)
        for _ in range(100):
            U = random_q4_unitrade(rng)
            F = construct.rm_embed(U)
            assert F.weight == U.cardinality
            d = degree(F)
            assert d <= U.n or d == float("-inf")
        _report("7d: PASS — rm_embed weight equality and degree bound, 100/100")


class TestCriterion8ReferenceData:
    def test_shipped_tables_internally_consistent(self):
        # at n = 6, 7 the spectrum checks read the shipped tables
        for n in (6, 7):
            for check in ("mod3", "small-spectrum", "minimal-count", "max-unique", "gap-14"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(["verify", "--check", check, "--n", str(n)])
                assert code == cli.EXIT_OK, (check, n)
                assert out.getvalue().strip().endswith("pass"), (check, n)
        assert N_FUNCTIONS[6] == 1488159817231
        assert N_FUNCTIONS[7] == 6171914027409468739
        assert NPRIME[6] == 25493
        _report(
            "8: PASS — shipped n=6,7 spectra pass the mod3, small-spectrum, "
            "minimal-count, max-unique and gap-14 checks (not recomputed, by design)"
        )

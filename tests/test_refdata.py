"""Per-property asserts on the shipped reference tables (the cluster-scale
dimensions are data, not recomputation targets).  The `verify` checks of
the command line hold the same tables to the theorems through their own
code (test_cli, acceptance criterion 8)."""

import pytest

from tritrade.refdata import (
    HALF_CARDINALITY_STATS,
    N_FUNCTIONS,
    NPRIME,
    NPRIME_EXACT,
    SPECTRUM_LISTS,
    spectrum_entries,
)
from tritrade.trade import (
    half_cardinality_stats_from_spectrum,
    mod3_admissible,
    small_bitrade_admissible,
)

ALL_N = [1, 2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("n", ALL_N)
def test_sum_identity(n):
    assert 2 * sum(SPECTRUM_LISTS[n]) + 1 == N_FUNCTIONS[n]


@pytest.mark.parametrize("n", ALL_N)
def test_tail_values(n):
    entries = spectrum_entries(n)
    assert SPECTRUM_LISTS[n][0] == entries[2 ** n] == 3 ** n
    assert SPECTRUM_LISTS[n][-1] == entries[2 * 3 ** (n - 1)] == 3 * 2 ** (n - 1)
    assert entries.get(2 ** (n + 1), 0) == 0


@pytest.mark.parametrize("n", ALL_N)
def test_mod3_zeros(n):
    for size, count in spectrum_entries(n).items():
        assert mod3_admissible(n, size), size


@pytest.mark.parametrize("n", [6, 7])
def test_small_window_matches_series(n):
    entries = spectrum_entries(n)
    lo, hi = 2 ** (n + 1), 5 * 2 ** (n - 1)
    for size in range(lo + 2, hi + 1, 2):
        predicted = small_bitrade_admissible(n, size)
        assert predicted == (entries.get(size, 0) > 0), size


def test_nprime_seven_flagged_partial():
    assert not NPRIME_EXACT[7]
    assert all(NPRIME_EXACT[n] for n in range(7))


def test_nprime_monotone():
    vals = [NPRIME[n] for n in range(8)]
    assert vals == sorted(vals)
    assert NPRIME[5] == 92


@pytest.mark.parametrize("n", ALL_N)
def test_half_stats_recomputable_from_spectrum(n):
    mean, std = half_cardinality_stats_from_spectrum(spectrum_entries(n))
    ref_mean, ref_std = HALF_CARDINALITY_STATS[n]
    digits = 3 if n <= 5 else 2  # as published
    assert round(mean, digits) == round(ref_mean, digits)
    assert round(std, digits) == round(ref_std, digits)

"""Planted faults: each fast path has a guard that does not share its leaf.

Every fault goes in by monkeypatch, on a fresh cache where the faulty
object would be cached, so the session's caches stay in place; each test
calls the oracle that must see the fault directly: the certified double
count of the class layer, or the shipped N(5) of `refdata`.
"""

import random
from functools import lru_cache

import pytest
from helpers import values_from_packed

from tritrade import enumeration
from tritrade.enumeration import classify_all, count_by_retract_classes, count_functions
from tritrade.errors import BrokenInvariant
from tritrade.refdata import N_FUNCTIONS

FREE = (-1, 0, 1)


def test_coarse_key_is_caught(monkeypatch):
    from tritrade import enumeration

    monkeypatch.setattr(
        enumeration,
        "_retract_class_key",
        lambda code, n, class_of: len(code) - code.count(0),
    )
    # a fresh cache, so the session's cached layers stay in place
    fresh = lru_cache(maxsize=None)(enumeration._class_layer.__wrapped__)
    monkeypatch.setattr(enumeration, "_class_layer", fresh)
    with pytest.raises(BrokenInvariant):
        classify_all(4)


def test_swapped_unit_weights_are_caught(monkeypatch):
    # the units pair each packed head with its class's orbit size; two
    # weights swapped between heads whose completion counts differ move
    # the class count of N(5) by (w_i - w_j) * (c_j - c_i)
    units = list(enumeration._units(5))
    counts = [
        count_functions(5, [(v,) for v in values_from_packed(head, 4)] + [FREE] * 162)
        for _, head in units
    ]
    i, j = next(
        (i, j)
        for i in range(len(units))
        for j in range(i)
        if units[i][0] != units[j][0] and counts[i] != counts[j]
    )
    assert (units[i][0] - units[j][0]) * (counts[i] - counts[j]) != 0
    (wi, hi), (wj, hj) = units[i], units[j]
    units[i], units[j] = (wj, hi), (wi, hj)
    monkeypatch.setattr(enumeration, "_units", lambda n: tuple(units))
    assert count_by_retract_classes(5) != N_FUNCTIONS[5]


def test_moved_index_bit_is_caught(monkeypatch):
    # one solution's bit in _index(4) moved to another column of the same
    # cell, so every cell still partitions the solutions: the direct N(5)
    # ends in popcounts over those columns
    rng = random.Random(17)
    build = enumeration._index.__wrapped__

    def faulty(n):
        sols, cols = build(n)
        if n == 4:
            i, c = rng.randrange(len(sols)), rng.randrange(81)
            v = values_from_packed(sols[i], 4)[c]
            w = rng.choice([u for u in FREE if u != v])
            cols = list(cols)
            cols[3 * c + v + 1] &= ~(1 << i)
            cols[3 * c + w + 1] |= 1 << i
        return sols, tuple(cols)

    # a fresh cache, so the session's cached index stays in place
    monkeypatch.setattr(enumeration, "_index", lru_cache(maxsize=None)(faulty))
    assert count_functions(5) != N_FUNCTIONS[5]

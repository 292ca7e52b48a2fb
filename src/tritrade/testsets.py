"""Testing sets for hereditary function families over the cube.

A set T distinguishes all members of a family when equal restrictions to T
force equal functions; the Cartesian power of a testing set tests the
product dimension, which gives the |S|^(|T|^l) family bound.

For ternary unitrades the linear structure does better: the GF(2) system
"every line xors to 0" has rank 3^m - 2^m (its kernel is the unitrade
space), and pinning the zero cells of one unitrade U cuts the solution
space down to {0, chi_U}.  The cells whose unit equations survive
elimination, 2^m - 1 of them, form a testing set for bitrades provided
chi_U is not the xor of two bitrade characteristic functions.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

from . import cube
from .errors import BrokenInvariant, NotAUnitrade, PreconditionFailed
from .trade import BipartiteTrade, TradeSet, is_unitrade, xor_of_two_bitrades


@dataclass(frozen=True)
class TestSet:
    __test__ = False  # not a pytest class despite the name

    m: int
    points: frozenset[tuple[int, ...]]

    def __len__(self) -> int:
        return len(self.points)

    def sorted_points(self) -> list[tuple[int, ...]]:
        return sorted(self.points)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "points": ["".join(str(d) for d in p) for p in self.sorted_points()],
        }

    @staticmethod
    def from_json(obj) -> "TestSet":
        """ValueError for a missing field or a point that is not a word of
        m ternary digits."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        missing = [key for key in ("m", "points") if key not in obj]
        if missing:
            raise ValueError(f"testing set JSON lacks the field(s) {', '.join(missing)}")
        m = int(obj["m"])
        pts = frozenset(tuple(int(ch) for ch in s) for s in obj["points"])
        for p in pts:
            cube.checked_cell(p, m, 3)
        return TestSet(m, pts)


def boolean_cube_testset(m: int) -> TestSet:
    """Q_2^m inside Q_3^m: restriction there determines a unitrade, so it
    tests the full unitrade family (and the bound below is tight)."""
    return TestSet(m, frozenset(cube.all_words(m, 2)))


def product_testset(T: TestSet, l: int) -> TestSet:
    """Cartesian power T^l, a testing set for the family at dimension l*m
    whenever the family is hereditary."""
    if l < 1:
        raise ValueError("l >= 1")
    pts = frozenset(
        tuple(itertools.chain.from_iterable(combo))
        for combo in itertools.product(T.sorted_points(), repeat=l)
    )
    return TestSet(T.m * l, pts)


def family_bound(test_size: int, l: int, alphabet: int) -> int:
    """|S|^(test_size^l) as an exact integer."""
    return alphabet ** (test_size ** l)


def restriction(S: TradeSet, T: TestSet) -> tuple[int, ...]:
    """Characteristic values of S on the sorted points of T; ValueError
    unless T lies in the cube of S."""
    if T.m != S.n:
        raise ValueError(f"testing set of dimension {T.m} for a set of dimension {S.n}")
    return tuple(
        1 if cube.checked_cell(p, S.n, S.k) in S else 0 for p in T.sorted_points()
    )


# ---------------------------------------------------------------------------
# GF(2) elimination over the line system
# ---------------------------------------------------------------------------

class _Eliminator:
    """Incremental GF(2) row reduction on bitmask rows; pivot of a reduced
    row is its lowest set cell, matching cell lex order."""

    def __init__(self, pivots: Optional[dict[int, int]] = None):
        self.pivots = dict(pivots or {})  # pivot cell -> reduced row

    def reduce(self, row: int) -> int:
        while row:
            p = (row & -row).bit_length() - 1
            if p not in self.pivots:
                return row
            row ^= self.pivots[p]
        return 0

    def add(self, row: int) -> bool:
        r = self.reduce(row)
        if r == 0:
            return False
        self.pivots[(r & -r).bit_length() - 1] = r
        return True

    @property
    def rank(self) -> int:
        return len(self.pivots)


@lru_cache(maxsize=None)
def _line_pivots(m: int) -> dict[int, int]:
    """Pivot table of the all-lines system over Q_3^m, eliminated in line
    order; BrokenInvariant unless its rank is 3^m - 2^m (the kernel is the
    unitrade space of dimension 2^m).  Callers copy it, never mutate it."""
    elim = _Eliminator()
    for lm in cube.line_masks(m, 3):
        elim.add(lm)
    if elim.rank != 3 ** m - 2 ** m:
        raise BrokenInvariant("line system rank is off")
    return elim.pivots


def line_system_rank(m: int) -> int:
    """GF(2) rank of the all-lines system over Q_3^m: 3^m - 2^m."""
    return len(_line_pivots(m))


def extract_testset(
    U: TradeSet,
    catalog: Optional[Sequence[BipartiteTrade]] = None,
) -> TestSet:
    """A testing set of 2^m - 1 points for bitrades at dimension m.

    Starts from the line equations, eliminated once per m (pivot order:
    line order), then scans the unit equations x_v = 0 for cells v outside
    U in lex order, keeping those independent of everything chosen so far;
    the kept cells are T.  The combined system must leave exactly the
    1-dimensional solution space {0, chi_U}, else BrokenInvariant.

    With a catalog, the hypothesis "U is not an xor of two bitrades" is
    checked and PreconditionFailed carries the witness pair; without one,
    the caller asserts it.
    """
    if not is_unitrade(U):
        raise NotAUnitrade("extraction needs a unitrade")
    if U.mask == 0:
        raise PreconditionFailed(
            "the empty set is the xor of two equal bitrades", witness=None
        )
    m = U.n
    if catalog is not None:
        pair = xor_of_two_bitrades(U, catalog)
        if pair is not None:
            raise PreconditionFailed(
                "input is an xor of two catalog bitrades", witness=pair
            )
    elim = _Eliminator(_line_pivots(m))
    points = []
    for cell in cube.mask_cells(U.mask ^ ((1 << 3 ** m) - 1)):
        if elim.add(1 << cell):
            points.append(cube.word_of_cell(cell, m, 3))
    if elim.rank != 3 ** m - 1 or len(points) != 2 ** m - 1:
        raise BrokenInvariant(
            f"expected rank {3 ** m - 1} and {2 ** m - 1} points, got "
            f"{elim.rank} and {len(points)}"
        )
    return TestSet(m, frozenset(points))

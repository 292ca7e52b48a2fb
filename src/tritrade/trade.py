"""Unitrade and bitrade predicates, bipartition, and cardinality arithmetic.

A *unitrade* U in Q_k^n meets every line in 0 or 2 cells.  A *bitrade* is a
unitrade whose induced Hamming subgraph is bipartite; for k = 3 that graph
is connected, so the two legs are unique up to swapping and the whole
structural layer below (intersection, no proper containment, connectivity)
is specific to the ternary cube.

The predicates read lines as digit planes (`_line_meets`): the cells of a
line differ only in its direction's digit, so a set's digit planes, added
bitwise, mark the lines it meets once, twice or three times, and every
predicate is a few whole-mask steps on those marks.  A breadth-first layer
reaches its neighbours by one multiply per direction (the marks times the
direction's spread), and an odd cycle shows inside the layer that closes
it, as a line meeting that layer twice, so `bipartition` stops there and
never rescans the finished legs.

Cardinality predicates are pure integer arithmetic: the admissible-size
families are expanded to exact integer sets per dimension, never touching
floats, so thresholds like two-and-a-half times 2^n stay exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from . import cube
from .errors import EmptyCatalog, NotAUnitrade, OutOfRange


class TradeSet:
    """Subset of Q_k^n.

    Immutable; the support is a bitmask over cells in base-k cell order.
    """

    __slots__ = ("n", "k", "mask")

    def __init__(self, n: int, k: int, mask: int):
        if mask < 0 or mask >> (k ** n):
            raise ValueError("support mask out of range for the cube")
        self.n = n
        self.k = k
        self.mask = mask

    # ---- constructors -----------------------------------------------------

    @staticmethod
    def from_cells(n: int, k: int, cells: Iterable[int]) -> "TradeSet":
        m = 0
        for c in cells:
            m |= 1 << c
        return TradeSet(n, k, m)

    @staticmethod
    def from_words(n: int, k: int, words: Iterable[tuple[int, ...]]) -> "TradeSet":
        return TradeSet.from_cells(n, k, (cube.cell_of_word(w, k) for w in words))

    @staticmethod
    def from_text(n: int, k: int, text: str) -> "TradeSet":
        if len(text) != k ** n:
            raise ValueError("support string length mismatch")
        m = 0
        for i, ch in enumerate(text):
            if ch == "1":
                m |= 1 << i
            elif ch != "0":
                raise ValueError(f"bad support character {ch!r}")
        return TradeSet(n, k, m)

    @staticmethod
    def from_json(obj) -> "TradeSet":
        if isinstance(obj, str):
            obj = json.loads(obj)
        missing = [key for key in ("n", "k", "support") if key not in obj]
        if missing:
            raise ValueError(f"trade set JSON lacks the field(s) {', '.join(missing)}")
        return TradeSet.from_text(int(obj["n"]), int(obj["k"]), obj["support"])

    # ---- views ------------------------------------------------------------

    def to_text(self) -> str:
        m = self.mask
        return "".join("1" if (m >> i) & 1 else "0" for i in range(self.k ** self.n))

    def to_json(self) -> dict:
        return {"n": self.n, "k": self.k, "support": self.to_text()}

    @property
    def cardinality(self) -> int:
        return self.mask.bit_count()

    def __len__(self) -> int:
        return self.cardinality

    def __contains__(self, cell: int) -> bool:
        return bool((self.mask >> cell) & 1)

    def cells(self) -> list[int]:
        m = self.mask
        out = []
        c = 0
        while m:
            if m & 1:
                out.append(c)
            m >>= 1
            c += 1
        return out

    def words(self) -> list[tuple[int, ...]]:
        return [cube.word_of_cell(c, self.n, self.k) for c in self.cells()]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TradeSet)
            and (self.n, self.k, self.mask) == (other.n, other.k, other.mask)
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.mask))

    def __repr__(self) -> str:
        return f"TradeSet(n={self.n}, k={self.k}, |S|={self.cardinality})"

    # ---- geometry ---------------------------------------------------------

    def line_incidence(self) -> tuple[int, ...]:
        """Per line of ``cube.lines``, the number of support cells on it."""
        m = self.mask
        return tuple((m & lm).bit_count() for lm in cube.line_masks(self.n, self.k))

    def retract(self, coord: int, value: int) -> "TradeSet":
        out = cube.retract_mask(self.mask, self.n, self.k, coord, value)
        return TradeSet(self.n - 1, self.k, out)

    def apply_isometry(self, g: "cube.Isometry") -> "TradeSet":
        cmap = g.cell_map(self.k)
        m = self.mask
        out = 0
        for c in self.cells():
            out |= 1 << cmap[c]
        return TradeSet(self.n, self.k, out)

    def xor(self, other: "TradeSet") -> "TradeSet":
        if (self.n, self.k) != (other.n, other.k):
            raise ValueError("dimension/alphabet mismatch")
        return TradeSet(self.n, self.k, self.mask ^ other.mask)


@lru_cache(maxsize=None)
def _line_planes(n: int, k: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Per coordinate i with digit stride s = k^(n-1-i): the pairs (plane,
    shift) of its k digit planes, where the shift a * s moves plane a onto
    digit 0, and the spread sum_a 1 << a * s, whose product with a set of
    digit-0 cells is the union of their lines in direction i."""
    out = []
    for i, planes in enumerate(cube.digit_masks(n, k)):
        s = k ** (n - 1 - i)
        out.append((
            tuple((plane, a * s) for a, plane in enumerate(planes)),
            sum(1 << a * s for a in range(k)),
        ))
    return tuple(out)


def _line_meets(mask: int, n: int, k: int) -> Iterator[tuple[int, int, int, int]]:
    """Per coordinate i, its spread (`_line_planes`) and the masks at1, at2,
    at3 of the digit-0 cells whose line in direction i meets `mask` in at
    least 1, 2, 3 cells: the k digit planes shifted onto digit 0 and added
    bitwise."""
    for planes, spread in _line_planes(n, k):
        at1 = at2 = at3 = 0
        for plane, shift in planes:
            p = (mask & plane) >> shift
            at3 |= at2 & p
            at2 |= at1 & p
            at1 |= p
        yield spread, at1, at2, at3


def is_unitrade(S: TradeSet) -> bool:
    """Every line meets S in 0 or 2 cells: each line met once is met twice,
    and none three times."""
    return all(at1 == at2 and not at3 for _, at1, at2, at3 in _line_meets(S.mask, S.n, S.k))


def _independent(n: int, k: int, *legs: int) -> bool:
    """No leg has two cells on one line."""
    return not any(at2 for leg in legs for _, _, at2, _ in _line_meets(leg, n, k))


def _layers(mask: int, n: int, k: int) -> Iterator[tuple[int, int]]:
    """Breadth-first layers of the induced Hamming graph on `mask` from its
    smallest cell, each with its clash: the digit-0 cells of the lines that
    meet the layer twice, nonzero iff an edge joins two cells of the layer.
    The next layer is the unreached part of `mask` on the lines through the
    last: at1 times the spread, which cannot carry, since at1 sits on digit 0
    of its direction."""
    layer = reached = mask & -mask
    while layer:
        near = clash = 0
        for spread, at1, at2, _ in _line_meets(layer, n, k):
            near |= at1 * spread
            clash |= at2
        yield layer, clash
        layer = mask & near & ~reached
        reached |= layer


@dataclass(frozen=True)
class BipartiteTrade:
    """A bitrade with its two legs.

    part0 and part1 are support bitmasks of the two independent legs;
    part0 is the leg containing the lexicographically smallest support cell
    of its connected component (for k=3 the graph is connected, so the
    split is unique and the tie-break is global).
    """

    base: TradeSet
    part0: int
    part1: int

    @property
    def n(self) -> int:
        return self.base.n

    @property
    def k(self) -> int:
        return self.base.k

    @property
    def cardinality(self) -> int:
        return self.base.cardinality

    @property
    def half0(self) -> int:
        return self.part0.bit_count()

    @property
    def half1(self) -> int:
        return self.part1.bit_count()

    def to_json(self) -> dict:
        d = self.base.to_json()
        n_cells = self.k ** self.n
        d["part0"] = "".join(
            "1" if (self.part0 >> i) & 1 else "0" for i in range(n_cells)
        )
        return d


def _normalized(base: TradeSet, part0: int, part1: int) -> BipartiteTrade:
    """The bitrade on `base` with legs part0 and part1, swapped so that
    part0 holds the smallest support cell: the one rule for ordering legs."""
    if base.mask:
        low = (base.mask & -base.mask).bit_length() - 1
        if not (part0 >> low) & 1:
            part0, part1 = part1, part0
    return BipartiteTrade(base, part0, part1)


def bipartition(S: TradeSet) -> Optional[BipartiteTrade]:
    """2-color the induced Hamming subgraph; None when an odd cycle exists.

    Raises NotAUnitrade when S fails the line predicate.  Each component is
    colored by the parity of its breadth-first layers from its smallest
    cell, which lands in part0.  Edges join only one layer or two adjacent
    ones, so the coloring is proper iff no layer has two cells on one line:
    the first layer with a clash, in any component, answers None, and no
    pass over the finished legs is needed.
    """
    if not is_unitrade(S):
        raise NotAUnitrade(f"line incidence outside {{0,2}}: {S!r}")
    n, k = S.n, S.k
    part = [0, 0]
    rest = S.mask
    while rest:
        for depth, (layer, clash) in enumerate(_layers(rest, n, k)):
            if clash:
                return None
            part[depth & 1] |= layer
            rest ^= layer
    return BipartiteTrade(S, part[0], part[1])


def is_connected(S: TradeSet) -> bool:
    """The layers grown from the smallest cell of S (disjoint) cover S."""
    return sum(layer for layer, _ in _layers(S.mask, S.n, S.k)) == S.mask


class StructureReport(NamedTuple):
    intersects: bool
    no_proper_containment: bool
    connected: bool


def connectivity_and_structure(S: TradeSet, T: TradeSet) -> StructureReport:
    """Ternary structural facts: nonempty unitrades always intersect, none
    properly contains another, and every unitrade is connected."""
    inter = bool(S.mask & T.mask) if (S.mask and T.mask) else False
    subset = (S.mask | T.mask) == T.mask
    no_proper = (not subset) or S.mask == T.mask or S.mask == 0
    return StructureReport(inter, no_proper, is_connected(S))


# ---------------------------------------------------------------------------
# Cardinality predicates (exact integer arithmetic throughout)
# ---------------------------------------------------------------------------

def mod3_admissible(n: int, c: int) -> bool:
    """c is congruent to 0 or 2^n mod 3: the residue every bitrade hits."""
    return c % 3 in (0, pow(2, n, 3))


def _alpha_families(n: int) -> set[int]:
    fam: set[int] = set()
    # 2 - 2^-j            -> 2^(n+1) - 2^(n-j),            j = 0..n-1
    for j in range(0, n):
        fam.add(2 ** (n + 1) - 2 ** (n - j))
    # 2 + 2^-j            -> 2^(n+1) + 2^(n-j),            j = 2..n//2
    for j in range(2, n // 2 + 1):
        fam.add(2 ** (n + 1) + 2 ** (n - j))
    # 2.5 - 2^-j          -> 5*2^(n-1) - 2^(n-j),          j = 1..n-1
    for j in range(1, n):
        fam.add(5 * 2 ** (n - 1) - 2 ** (n - j))
    # 2.5 - 2^-j - 2^-(j+1) -> 5*2^(n-1) - 3*2^(n-j-1),    j = 2..n-2
    # (j = 2 is needed: sizes 2^m*(2.5*2^4 - 6) are realized by bitrades)
    for j in range(2, n - 1):
        fam.add(5 * 2 ** (n - 1) - 3 * 2 ** (n - j - 1))
    return fam


def unitrade_alpha_admissible(n: int, c: int) -> bool:
    """Whether c is an admissible unitrade cardinality at dimension n.

    Below 2.5 * 2^n the value must be even and sit in one of the four
    binary-weight families; everything even at or above that threshold is
    allowed.  c = 0 (the empty unitrade) is admissible.
    """
    if c == 0:
        return True
    if c % 2:
        return False
    if c >= 5 * 2 ** (n - 1):
        return True
    return c in _alpha_families(n)


_SMALL_SERIES_SPECIAL = {3: 18, 4: 40, 5: 78}  # 2.5*2^3-2, 2.5*2^4, 2.5*2^5-2


def small_bitrade_admissible(N: int, c: int) -> bool:
    """Admissible bitrade sizes in the window (2^(N+1), 5*2^(N-1)].

    True iff c = 2^m * a for some m >= 0 with n = N - m and either
    a = 2.5*2^n - 6 (n >= 4) or (n, a) is one of the three sporadic pairs
    (3, 18), (4, 40), (5, 78).
    """
    if not (2 ** (N + 1) < c <= 5 * 2 ** (N - 1)):
        raise OutOfRange(f"cardinality {c} outside (2^{N + 1}, 5*2^{N - 1}]")
    for m in range(0, N + 1):
        n = N - m
        scale = 2 ** m
        if c % scale:
            continue
        a = c // scale
        if n >= 4 and a == 5 * 2 ** (n - 1) - 6:
            return True
        if _SMALL_SERIES_SPECIAL.get(n) == a:
            return True
    return False


# ---------------------------------------------------------------------------
# XOR decomposition and catalog statistics
# ---------------------------------------------------------------------------

def xor_of_two_bitrades(
    U: TradeSet, catalog: Sequence[BipartiteTrade]
) -> Optional[tuple[BipartiteTrade, BipartiteTrade]]:
    """A pair (B1, B2) of catalog bitrades with chi_U = chi_B1 xor chi_B2.

    The catalog must cover all bitrades of the dimension (including the
    empty one) for a None answer to mean non-existence.  Search is a single
    hash pass: for each B1, look up the mask chi_U xor chi_B1.
    """
    if not is_unitrade(U):
        raise NotAUnitrade("xor decomposition is defined for unitrades")
    by_mask = {B.base.mask: B for B in catalog}
    for B1 in catalog:
        partner = by_mask.get(U.mask ^ B1.base.mask)
        if partner is not None:
            return (B1, partner)
    return None


def half_cardinality_stats(catalog: Sequence[BipartiteTrade]) -> tuple[float, float]:
    """Mean and population standard deviation of |part0| over the catalog.

    The empty trade must be excluded by the caller; an empty catalog is an
    error.  Line sums force the two legs to have equal size, so |part0| is
    always half the cardinality.
    """
    if not catalog:
        raise EmptyCatalog("no trades to aggregate")
    halves = [B.half0 for B in catalog]
    mean = sum(halves) / len(halves)
    var = sum((h - mean) ** 2 for h in halves) / len(halves)
    return mean, math.sqrt(var)


def half_cardinality_stats_from_spectrum(entries: dict[int, int]) -> tuple[float, float]:
    """Same statistic computed from a size -> set-count table."""
    total = sum(entries.values())
    if total == 0:
        raise EmptyCatalog("spectrum has no nonempty trades")
    mean = sum(cnt * (size / 2) for size, cnt in entries.items()) / total
    var = sum(cnt * (size / 2 - mean) ** 2 for size, cnt in entries.items()) / total
    return mean, math.sqrt(var)

"""Function spaces over the cube and the boolean/unitrade bijection.

``BoolFn`` is a boolean function on Q_2^n stored as a truth-table bitmask
(bit j = value at cell j).  ``TernFn`` is a {-1,0,+1}-valued function on
Q_3^n stored as a value tuple.  GF(3) arithmetic is centered: digit 2 of a
word stands for -1, and all mod-3 reductions return representatives in
{-1,0,+1}.

The bridge between the two worlds: for a boolean f, the function
U[f](y) = xor of f over the minimal words below y is the characteristic
function of a ternary unitrade, U[f] restricted to Q_2^n returns f, and the
map f -> U[f] is a bijection onto the 2^(2^n) unitrades.  Restricting U[f]
to the top subcube {0,2}^n instead yields the Moebius transform of f, which
is also the ANF coefficient map G[f].  That is how ``u_from_bool`` builds
U[f]: as the xor of the monomial cubes (``cube.subcube_mask``) of the ANF
terms of f, each of which meets {0,2}^n in one cell.  The definition by
minimal words is kept as the test-side oracle.
"""

from __future__ import annotations

import enum
import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from . import cube
from .errors import BadBaseWord, NotAUnitrade
from .trade import BipartiteTrade, TradeSet, _independent, _normalized, is_unitrade

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# Boolean functions
# ---------------------------------------------------------------------------

class BoolFn:
    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: int):
        if bits < 0 or bits >> (1 << n):
            raise ValueError("truth table out of range")
        self.n = n
        self.bits = bits

    @staticmethod
    def from_values(values: Sequence[int]) -> "BoolFn":
        n = (len(values) - 1).bit_length()
        if len(values) != 1 << n:
            raise ValueError("truth table length must be a power of two")
        bits = 0
        for i, v in enumerate(values):
            if v:
                bits |= 1 << i
        return BoolFn(n, bits)

    @staticmethod
    def from_text(text: str) -> "BoolFn":
        if set(text) - {"0", "1"}:
            raise ValueError(f"truth table text must hold only 0 and 1, got {text!r}")
        return BoolFn.from_values([ch == "1" for ch in text])

    @staticmethod
    def from_callable(n: int, fn) -> "BoolFn":
        bits = 0
        for cell, word in enumerate(cube.all_words(n, 2)):
            if fn(word) & 1:
                bits |= 1 << cell
        return BoolFn(n, bits)

    def to_text(self) -> str:
        return "".join("1" if (self.bits >> i) & 1 else "0" for i in range(1 << self.n))

    def value(self, cell: int) -> int:
        return (self.bits >> cell) & 1

    def __call__(self, word: tuple[int, ...]) -> int:
        return self.value(cube.cell_of_word(word, 2))

    @property
    def weight(self) -> int:
        return self.bits.bit_count()

    def xor(self, other: "BoolFn") -> "BoolFn":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return BoolFn(self.n, self.bits ^ other.bits)

    def retract(self, coord: int, value: int) -> "BoolFn":
        return BoolFn(self.n - 1, cube.retract_mask(self.bits, self.n, 2, coord, value))

    def __eq__(self, other) -> bool:
        return isinstance(other, BoolFn) and (self.n, self.bits) == (other.n, other.bits)

    def __hash__(self) -> int:
        return hash((self.n, self.bits))

    def __repr__(self) -> str:
        return f"BoolFn(n={self.n}, tt={self.to_text()})"


def mobius(f: BoolFn) -> BoolFn:
    """ANF coefficients via the GF(2) Moebius transform; an involution.

    Per coordinate i, the cells with digit 0 there are xored onto their
    digit-1 neighbours; they are the factor mask of digit 2, since
    CUBE_FACTOR[2] meets {0, 1} in {0}.
    """
    t = f.bits
    for i, masks in enumerate(cube._factor_masks(f.n, 2)):
        t ^= (t & masks[2]) << (1 << f.n - 1 - i)
    return BoolFn(f.n, t)


def degree(f: BoolFn):
    """Algebraic degree; -inf for the zero function (never -1, so constant
    functions keep degree 0 in spectra)."""
    a = mobius(f).bits
    if a == 0:
        return NEG_INF
    best = 0
    cell = 0
    while a:
        if a & 1:
            w = cell.bit_count()
            if w > best:
                best = w
        a >>= 1
        cell += 1
    return best


def parity_counter(n: int) -> BoolFn:
    """p(x) = x_1 xor ... xor x_n."""
    bits = 0
    for c in range(1 << n):
        if c.bit_count() & 1:
            bits |= 1 << c
    return BoolFn(n, bits)


# ---------------------------------------------------------------------------
# Ternary functions
# ---------------------------------------------------------------------------

_TERN_CHARS = {-1: "-", 0: "0", 1: "+"}
_TERN_VALS = {"-": -1, "0": 0, "+": 1}


class TernFn:
    __slots__ = ("n", "values", "_cardinality")

    def __init__(self, n: int, values: tuple[int, ...]):
        if len(values) != 3 ** n:
            raise ValueError("value vector length mismatch")
        self.n = n
        self.values = values
        self._cardinality = None

    @classmethod
    def _unchecked(cls, n: int, values: tuple[int, ...], cardinality: int) -> "TernFn":
        """A function whose values and cardinality the caller vouches for,
        built without checks (the enumeration's stream)."""
        f = object.__new__(cls)
        f.n, f.values, f._cardinality = n, values, cardinality
        return f

    @staticmethod
    def zero(n: int) -> "TernFn":
        return TernFn(n, (0,) * 3 ** n)

    @staticmethod
    def from_text(text: str) -> "TernFn":
        if set(text) - set(_TERN_VALS):
            raise ValueError(f"value string must hold only -, 0 and +, got {text!r}")
        n = 0
        while 3 ** n < len(text):
            n += 1
        if 3 ** n != len(text):
            raise ValueError("value string length must be a power of three")
        return TernFn(n, tuple(_TERN_VALS[ch] for ch in text))

    def to_text(self) -> str:
        return "".join(_TERN_CHARS[v] for v in self.values)

    def value(self, cell: int) -> int:
        return self.values[cell]

    def __call__(self, word: tuple[int, ...]) -> int:
        return self.values[cube.cell_of_word(word, 3)]

    @property
    def cardinality(self) -> int:
        c = self._cardinality
        if c is None:
            c = self._cardinality = len(self.values) - self.values.count(0)
        return c

    def support(self) -> TradeSet:
        m = 0
        for c, v in enumerate(self.values):
            if v:
                m |= 1 << c
        return TradeSet(self.n, 3, m)

    def negate(self) -> "TernFn":
        return TernFn(self.n, tuple(-v for v in self.values))

    def retract(self, coord: int, value: int) -> "TernFn":
        cells = cube.retract_cells(self.n, 3, coord, value)
        return TernFn(self.n - 1, tuple(self.values[c] for c in cells))

    def apply_isometry(self, g: "cube.Isometry") -> "TernFn":
        cmap = g.cell_map(3)
        out = [0] * len(self.values)
        if g.sign_flip:
            for c, v in enumerate(self.values):
                out[cmap[c]] = -v
        else:
            for c, v in enumerate(self.values):
                out[cmap[c]] = v
        return TernFn(self.n, tuple(out))

    def __eq__(self, other) -> bool:
        return isinstance(other, TernFn) and (self.n, self.values) == (other.n, other.values)

    def __hash__(self) -> int:
        return hash((self.n, self.values))

    def __repr__(self) -> str:
        return f"TernFn(n={self.n}, {self.to_text()})"


class LineSumKind(enum.Enum):
    ALL_ZERO = "allZero"
    SIGNED_TRIPLE = "signedTriple"
    INVALID = "invalid"


def line_sums(f: TernFn) -> tuple[LineSumKind, ...]:
    """Classify every line of Q_3^n.

    f lies in the line-sum-zero space (with values in {-1,0,+1}) iff no line
    is INVALID; on such f each line either vanishes or carries one +1, one
    -1 and one 0.
    """
    out = []
    vals = f.values
    for ln in cube.lines(f.n, 3):
        a, b, c = (vals[i] for i in ln.cells)
        if a == b == c == 0:
            out.append(LineSumKind.ALL_ZERO)
        elif a + b + c == 0 and (a or b or c):
            out.append(LineSumKind.SIGNED_TRIPLE)
        else:
            out.append(LineSumKind.INVALID)
    return tuple(out)


def in_gf3_space(f: TernFn) -> bool:
    """GF(3)-sum membership: line sums vanish mod 3 only (the monomial
    basis lives here; e.g. the constant 1 sums to 3 on every line)."""
    vals = f.values
    return all(
        sum(vals[i] for i in ln.cells) % 3 == 0 for ln in cube.lines(f.n, 3)
    )


def tern_from_trade(B: BipartiteTrade) -> TernFn:
    """Signed function of a ternary bitrade: +1 on part0, -1 on part1;
    ValueError for a bitrade over another alphabet."""
    if B.k != 3:
        raise ValueError(f"a signed function needs a ternary bitrade, not k = {B.k}")
    vals = [0] * (3 ** B.n)
    for c in range(len(vals)):
        if (B.part0 >> c) & 1:
            vals[c] = 1
        elif (B.part1 >> c) & 1:
            vals[c] = -1
    return TernFn(B.n, tuple(vals))


def _check_signs(values: Sequence[int]) -> None:
    # any other value would be read as its sign, negated or encoded into a
    # key of another function
    if not set(values) <= {-1, 0, 1}:
        raise ValueError("expected a {-1,0,+1}-valued function")


def trade_from_tern(f: TernFn) -> BipartiteTrade:
    """Bitrade whose legs are the sign classes of f; ValueError for a
    value outside {-1,0,+1}, NotAUnitrade unless the support is a unitrade
    and no leg has two cells on one line."""
    _check_signs(f.values)
    p0 = sum(1 << c for c, v in enumerate(f.values) if v > 0)
    p1 = sum(1 << c for c, v in enumerate(f.values) if v < 0)
    base = TradeSet(f.n, 3, p0 | p1)
    if not is_unitrade(base):
        raise NotAUnitrade("support of f is not a unitrade")
    if not _independent(f.n, 3, p0, p1):
        raise NotAUnitrade("a sign class of f has two cells on one line")
    return _normalized(base, p0, p1)


# ---------------------------------------------------------------------------
# The bijection with ternary unitrades
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _anf_cubes(n: int) -> tuple[int, ...]:
    """The monomial cube of every boolean exponent word, in Q_2^n cell
    order: entry c is the cube of the ANF term at cell c."""
    return tuple(cube.subcube_mask(w) for w in cube.all_words(n, 2))


def u_from_bool(f: BoolFn) -> TradeSet:
    """The ternary unitrade with characteristic function U[f].

    U[f] is the xor of the monomial cubes of the ANF terms of f (the set
    bits of mobius(f)): each cube is a unitrade meeting Q_2^n in the truth
    table of its monomial, a xor of ternary unitrades is a unitrade, and a
    unitrade is fixed by its restriction to Q_2^n.
    """
    anf = mobius(f).bits
    mask = 0
    for c, cube_mask in enumerate(_anf_cubes(f.n)):
        if anf >> c & 1:
            mask ^= cube_mask
    return TradeSet(f.n, 3, mask)


@lru_cache(maxsize=None)
def _binary_cells(n: int) -> tuple[int, ...]:
    """The cell of Q_3^n of every word of Q_2^n, in Q_2^n cell order."""
    return tuple(cube.cell_of_word(w, 3) for w in cube.all_words(n, 2))


def bool_from_unitrade(U: TradeSet) -> BoolFn:
    """The unique f with u_from_bool(f) = U: restriction of chi_U to Q_2^n."""
    if U.k != 3:
        raise ValueError("the bijection is specific to k=3")
    mask = U.mask
    bits = 0
    for c2, c3 in enumerate(_binary_cells(U.n)):
        if mask >> c3 & 1:
            bits |= 1 << c2
    f = BoolFn(U.n, bits)
    if u_from_bool(f).mask != U.mask:
        raise NotAUnitrade("restriction does not reproduce the set")
    return f


# ---------------------------------------------------------------------------
# Bases of the line-sum-zero spaces
# ---------------------------------------------------------------------------

def gf2_basis_fn(x: tuple[int, ...], k: int = 3) -> TernFn:
    """Signed characteristic function of the boolean subcube B_x.

    B_x = {y : x <= y}: coordinate i of y is either x_i or the maximal digit
    k-1.  The sign at y is (-1)^(number of coordinates where y keeps x_i),
    i.e. (-1)^wt(y - (k-1)*1).  Worked n=1, k=3 table for x=(0):

        y:      0   1   2
        b_x:   -1   0  +1

    Support meets Q_{k-1}^n exactly in {x}, so the family over all x in
    Q_{k-1}^n is a basis of the line-sum-zero space.
    """
    if k != 3:
        raise ValueError("TernFn output requires k=3")
    n = len(x)
    if any(d >= k - 1 for d in x):
        raise BadBaseWord(f"base word digits must be < {k - 1}: {x}")
    vals = [0] * 3 ** n
    for choice in itertools.product((0, 1), repeat=n):
        y = tuple(x[i] if choice[i] == 0 else 2 for i in range(n))
        low = sum(1 for b in choice if b == 0)
        vals[cube.cell_of_word(y, 3)] = -1 if low % 2 else 1
    return TernFn(n, tuple(vals))


_CENTERED = (0, 1, -1)  # digit -> GF(3) representative


def gf3_basis_fn(alpha: tuple[int, ...]) -> TernFn:
    """Monomial basis function s_alpha(x) = prod over alpha_i=1 of x_i,
    evaluated in centered GF(3) (digit 2 means -1)."""
    n = len(alpha)
    if any(a not in (0, 1) for a in alpha):
        raise ValueError("alpha must be a 0/1 word")
    vals = []
    for word in cube.all_words(n, 3):
        v = 1
        for a, d in zip(alpha, word):
            if a:
                v = (v * _CENTERED[d]) % 3
        vals.append(v - 3 if v == 2 else v)
    return TernFn(n, tuple(vals))


def inner3(f: TernFn, g: TernFn) -> int:
    """Sum of f(x)g(x) mod 3, returned centered in {-1,0,+1}."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    s = sum(a * b for a, b in zip(f.values, g.values)) % 3
    return s - 3 if s == 2 else s


def gf3_rank(rows: Iterable[Sequence[int]]) -> int:
    """Rank over GF(3) of integer row vectors (any residues accepted)."""
    basis: list[list[int]] = []
    for row in rows:
        r = [v % 3 for v in row]
        for b in basis:
            lead = next((i for i, v in enumerate(b) if v), None)
            if lead is not None and r[lead]:
                coef = (r[lead] * pow(b[lead], -1, 3)) % 3
                r = [(a - coef * c) % 3 for a, c in zip(r, b)]
        if any(r):
            basis.append(r)
    return len(basis)

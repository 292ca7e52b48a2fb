"""Function spaces over the cube and the boolean/unitrade bijection.

``BoolFn`` is a boolean function on Q_2^n stored as a truth-table bitmask
(bit j = value at cell j).  ``TernFn`` is a {-1,0,+1}-valued function on
Q_3^n stored as its signed bytes.  GF(3) arithmetic is centered: digit 2 of a
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

import struct
from functools import lru_cache

from . import cube
from .errors import NotAUnitrade
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
    def from_text(text: str) -> "BoolFn":
        """Character c is the value at cell c, so the text is the bits
        read from the least significant end."""
        n = (len(text) - 1).bit_length()
        if len(text) != 1 << n:
            raise ValueError(f"truth table text must have 2^n characters, got {len(text)}")
        return BoolFn(n, cube.text_mask(text))

    def to_text(self) -> str:
        return cube.mask_text(self.bits, 1 << self.n)

    def value(self, cell: int) -> int:
        return (self.bits >> cell) & 1

    def __call__(self, word: tuple[int, ...]) -> int:
        return self.value(cube.checked_cell(word, self.n, 2))

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
    return max(cell.bit_count() for cell in range(1 << f.n) if a >> cell & 1)


def parity_counter(n: int) -> BoolFn:
    """p(x) = x_1 xor ... xor x_n: the xor of the digit-1 planes."""
    bits = 0
    for plane in cube.digit_masks(n, 2):
        bits ^= plane[1]
    return BoolFn(n, bits)


# ---------------------------------------------------------------------------
# Ternary functions
# ---------------------------------------------------------------------------

_TERN_TEXT = bytes.maketrans(b"\xff\x00\x01", b"-0+")  # signed byte -> character
_TERN_BYTES = bytes.maketrans(b"-0+", b"\xff\x00\x01")
_SIGN_FLIP = bytes.maketrans(b"\x01\xff", b"\xff\x01")  # value v -> -v on codes


class TernFn:
    """A {-1,0,+1}-valued function on Q_3^n, held as its code: the signed
    bytes of ``cube.signed_bytes`` in cell order (-1 is 0xff), which the
    stream, the class index and the predicates read; `values` is a new
    tuple built from it on each read.

    The constructor is the package's one value check: any other value would
    be read as its sign, negated or encoded into the key of another
    function.  It raises ValueError for such a value or for a tuple of the
    wrong length; `_unchecked` takes a code the caller vouches for."""

    __slots__ = ("n", "code")

    def __init__(self, n: int, values: tuple[int, ...]):
        if len(values) != 3 ** n:
            raise ValueError("value vector length mismatch")
        if not set(values) <= {-1, 0, 1}:
            raise ValueError("expected a {-1,0,+1}-valued function")
        self.n = n
        try:
            self.code = cube.signed_bytes(values)
        except struct.error:  # a float such as 1.0 passes the set test
            raise ValueError("expected integer values") from None

    @classmethod
    def _unchecked(cls, n: int, code: bytes) -> "TernFn":
        """A function whose 3^n-byte code the caller vouches for, built
        without checks (the enumeration's stream, `_tern_from_legs`)."""
        f = object.__new__(cls)
        f.n, f.code = n, code
        return f

    @staticmethod
    def from_text(text: str) -> "TernFn":
        if not {"-", "0", "+"}.issuperset(text):
            raise ValueError(f"value string must hold only -, 0 and +, got {text!r}")
        n = 0
        while 3 ** n < len(text):
            n += 1
        if 3 ** n != len(text):
            raise ValueError("value string length must be a power of three")
        return TernFn._unchecked(n, text.encode().translate(_TERN_BYTES))

    def to_text(self) -> str:
        return self.code.translate(_TERN_TEXT).decode()

    @property
    def values(self) -> tuple[int, ...]:
        """The value tuple in cell order, a new one on every read."""
        return tuple(memoryview(self.code).cast("b"))

    def value(self, cell: int) -> int:
        return memoryview(self.code).cast("b")[cell]

    def __call__(self, word: tuple[int, ...]) -> int:
        return self.value(cube.checked_cell(word, self.n, 3))

    @property
    def cardinality(self) -> int:
        return len(self.code) - self.code.count(0)

    def support(self) -> TradeSet:
        zeros = cube.bytes_mask(self.code, 0)
        return TradeSet(self.n, 3, zeros ^ ((1 << len(self.code)) - 1))

    def retract(self, coord: int, value: int) -> "TernFn":
        cells = cube.retract_cells(self.n, 3, coord, value)
        return TernFn._unchecked(self.n - 1, bytes(map(self.code.__getitem__, cells)))

    def apply_isometry(self, g: "cube.Isometry") -> "TernFn":
        """The image at cell g(c) is the value at c (negated by a sign flip)."""
        if g.n != self.n:
            raise ValueError(f"an isometry of Q_3^{g.n} does not act on Q_3^{self.n}")
        code = bytes(map(self.code.__getitem__, g.inverse().cell_map(3)))
        return TernFn._unchecked(self.n, code.translate(_SIGN_FLIP) if g.sign_flip else code)

    def __eq__(self, other) -> bool:
        return isinstance(other, TernFn) and (self.n, self.code) == (other.n, other.code)

    def __hash__(self) -> int:
        return hash((self.n, self.code))

    def __repr__(self) -> str:
        return f"TernFn(n={self.n}, {self.to_text()})"


def tern_from_trade(B: BipartiteTrade) -> TernFn:
    """Signed function of a ternary bitrade: +1 on part0, -1 on part1;
    ValueError for a bitrade over another alphabet."""
    if B.k != 3:
        raise ValueError(f"a signed function needs a ternary bitrade, not k = {B.k}")
    return _tern_from_legs(B.n, B.part0, B.part1)


def _tern_from_legs(n: int, plus: int, minus: int) -> TernFn:
    """+1 on the cells of `plus`, -1 on those of the disjoint `minus`: the
    legs' signed bytes (0x01 and 0xff) in cell order."""
    size = 3 ** n
    signed = cube.mask_bytes(plus, size, 0x01) | cube.mask_bytes(minus, size, 0xFF)
    return TernFn._unchecked(n, signed.to_bytes(size, "little"))


def trade_from_tern(f: TernFn) -> BipartiteTrade:
    """Bitrade whose legs are the sign classes of f; NotAUnitrade unless
    the support is a unitrade and no leg has two cells on one line.  The
    two conditions together say that f is line-sum-zero: each line meets
    the support in no cell or in a +1 and a -1.  This is the package's
    test of that space; the test-side oracle `line_sums` reads it cell by
    cell, over the words of ``cube.lines``."""
    p0, p1 = cube.bytes_mask(f.code, 0x01), cube.bytes_mask(f.code, 0xFF)
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

def gf2_basis_fn(x: tuple[int, ...]) -> TernFn:
    """Signed characteristic function of the boolean subcube B_x.

    B_x = {y : x <= y}: coordinate i of y is either x_i or the maximal digit
    2.  The sign at y is (-1)^(number of coordinates where y keeps x_i),
    i.e. (-1)^wt(y - 2*1).  Worked n=1 table for x=(0):

        y:      0   1   2
        b_x:   -1   0  +1

    B_x is the cube of the word 2 - x, so b_x is its signed cube, negated
    when n is odd.  The digits of x must be 0 or 1.  The support meets
    Q_2^n exactly in {x}, so the family over all x in Q_2^n is a basis of
    the line-sum-zero space.
    """
    n = len(x)
    if not {0, 1}.issuperset(x):
        raise ValueError(f"base word digits must be 0 or 1: {x}")
    even, odd = cube.subcube_legs(tuple(2 - d for d in x))
    return _tern_from_legs(n, odd, even) if n % 2 else _tern_from_legs(n, even, odd)


def gf3_basis_fn(alpha: tuple[int, ...]) -> TernFn:
    """Monomial basis function s_alpha(x) = prod over alpha_i=1 of x_i,
    evaluated in centered GF(3) (digit 2 means -1).

    Read off the digit planes: the support is where every coordinate with
    alpha_i = 1 holds digit 1 or 2, and the -1 leg is the cells of the
    support where an odd number of them hold digit 2."""
    n = len(alpha)
    if any(a not in (0, 1) for a in alpha):
        raise ValueError("alpha must be a 0/1 word")
    support, minus = (1 << 3 ** n) - 1, 0
    for a, (_, one, two) in zip(alpha, cube.digit_masks(n, 3)):
        if a:
            support &= one | two
            minus ^= two
    minus &= support
    return _tern_from_legs(n, support ^ minus, minus)


def inner3(f: TernFn, g: TernFn) -> int:
    """Sum of f(x)g(x) mod 3, returned centered in {-1,0,+1}."""
    if f.n != g.n:
        raise ValueError("dimension mismatch")
    s = sum(a * b for a, b in zip(f.values, g.values)) % 3
    return s - 3 if s == 2 else s

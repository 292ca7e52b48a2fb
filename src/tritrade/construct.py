"""Explicit trade constructions and the small coding-theory toolkit.

Products and the alphabet extension realize the cardinality series
|B|*|C|, 2^m*|B| and 3^m*|B|; the named families (maximal, rank-2,
size-14-series, minimal cube) pin concrete witnesses used throughout the test suite.
The ternary codes H_t (simplex, dual-Hamming) and H'_t (column-duplicated,
pairwise odd distances, unique-composition basis) provide the
monomial-recovery playground: a monomial set with large code distance is
recovered exactly from its unitrade by an intersection threshold scan.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional, Sequence

from . import cube
from .errors import BrokenInvariant, DimensionTooLarge, DimensionTooSmall, NotAUnitrade
from .funcspace import (
    BoolFn,
    TernFn,
    parity_counter,
    tern_from_trade,
    trade_from_tern,
    u_from_bool,
)
from .monomial import MonomialSet, _monomial_tables, monomial_cube, trade_from_monomials
from .trade import BipartiteTrade, TradeSet, _normalized, bipartition, is_unitrade


# The largest dimension a construction builds.  A bitrade of Q_3^n is a
# mask of 3^n cells, and each step up costs about eight times as much: the
# maximal bitrade with its JSON and bipartition check took 0.3 s at n = 12
# and 17 s at n = 14 (one run each, 2-core VM).
CONSTRUCT_MAX_N = 12

# The largest t of `hprime`.  Its 3^t codewords have length
# 2^t - 2 + (3^t - 1)/2, and the CLI audits every pair of them: 4.5 s at
# t = 6 and 123 s at t = 7 (one run each, 2-core VM).
HPRIME_MAX_T = 6


def check_dimension(n: int) -> None:
    """DimensionTooLarge above CONSTRUCT_MAX_N, before any mask of 3^n
    cells or truth table of 2^n bits is built."""
    if n > CONSTRUCT_MAX_N:
        raise DimensionTooLarge(f"constructions capped at n={CONSTRUCT_MAX_N}, got n={n}")


# ---------------------------------------------------------------------------
# Products and extensions
# ---------------------------------------------------------------------------

def product(B: BipartiteTrade, C: BipartiteTrade) -> BipartiteTrade:
    """Cartesian product bitrade; legs combine by sign product, so the
    cardinality is exactly |B| * |C| (over any alphabet)."""
    if B.k != C.k:
        raise ValueError("alphabet mismatch")
    check_dimension(B.n + C.n)
    shift = B.k ** C.n
    legs = [0, 0]
    for cb in B.base.cells():
        sb = (B.part1 >> cb) & 1
        legs[sb] |= C.part0 << cb * shift
        legs[1 - sb] |= C.part1 << cb * shift
    return _normalized(TradeSet(B.n + C.n, B.k, legs[0] | legs[1]), *legs)


def k_extension(B: BipartiteTrade, m: int) -> BipartiteTrade:
    """Replace the last coordinate by a sum of two: the signed function
    b(x_1..x_{n-1}, (x_n + x_{n+1}) mod 3) defines a bitrade of dimension
    n+1 and cardinality 3*|B|; iterate m times.  Each step is one read
    through the cached fold table of its dimension, and `trade_from_tern`
    checks the result.  ValueError unless B is ternary."""
    if m < 0:
        raise ValueError("extension count must be >= 0")
    check_dimension(B.n + m)
    f = tern_from_trade(B)
    if m and f.n < 1:
        raise DimensionTooSmall("extension needs at least one coordinate")
    code = f.code
    for n in range(f.n, f.n + m):
        code = bytes(_fold(n)(code))
    return trade_from_tern(TernFn._unchecked(f.n + m, code))


@lru_cache(maxsize=None)
def _fold(n: int) -> Callable[[bytes], tuple[int, ...]]:
    """The code at dimension n to the bytes of the fold at n + 1: cell c
    reads the cell of (x_1..x_{n-1}, (x_n + x_{n+1}) mod 3), that is
    (c // 9) * 3 + (c // 3 + c) % 3.  At n >= 1 it reads 9 or more cells,
    so it returns a tuple."""
    return itemgetter(*((c // 9) * 3 + (c // 3 + c) % 3 for c in range(3 ** (n + 1))))


# ---------------------------------------------------------------------------
# Named families
# ---------------------------------------------------------------------------

def maximal_bitrade(n: int) -> BipartiteTrade:
    """{x : x_1 + ... + x_n != 0 mod 3}: the unique (up to equivalence)
    bitrade of maximal cardinality 2*3^(n-1); its complement meets every
    line exactly once (an MDS code).  The residue classes of the digit sum
    are built one coordinate at a time from its digit planes."""
    if n < 1:
        raise DimensionTooSmall("need n >= 1")
    check_dimension(n)
    part = [(1 << 3 ** n) - 1, 0, 0]
    for p0, p1, p2 in cube.digit_masks(n, 3):
        part = [p0 & part[r] | p1 & part[r - 1] | p2 & part[r - 2] for r in range(3)]
    base = TradeSet(n, 3, part[1] | part[2])
    return _normalized(base, part[1], part[2])


def rank2_family(n: int, s: int) -> BipartiteTrade:
    """XOR of two monomial cubes agreeing in exactly s coordinates:
    a rank <= 2 bitrade of cardinality 2^(n+1) - 2^(s+1)."""
    if not 0 <= s <= n - 1:
        raise ValueError(f"s must be in 0..{n - 1}")
    check_dimension(n)
    u = (0,) * n
    v = (0,) * s + (1,) * (n - s)
    U = trade_from_monomials(MonomialSet(n, [u, v]))
    B = bipartition(U)
    if B is None:
        raise BrokenInvariant(f"rank-2 unitrade {u}, {v} is not bipartite")
    return B


def minimal_bitrade(n: int) -> BipartiteTrade:
    """The monomial cube of the all-zero word: a bitrade of the minimal
    cardinality 2^n."""
    if n < 0:
        raise ValueError("need n >= 0")
    check_dimension(n)
    B = bipartition(monomial_cube((0,) * n))
    if B is None:
        raise BrokenInvariant(f"the monomial cube of dimension {n} is not bipartite")
    return B


BITRADE14_WITNESS = ((1, 0, 0), (0, 1, 1), (0, 0, 2))


def bitrade14(n: int) -> BipartiteTrade:
    """The 14 * 3^(n-3) series: the dimension-3 witness is the monomial
    triple 100/011/002 (odd pairwise distance sum), verified bipartite at
    construction, then alphabet-extended (which applies the dimension
    cap).  No bitrade cardinality lies strictly between 14*3^(n-3) and
    2*3^(n-1)."""
    if n < 3:
        raise DimensionTooSmall("the series starts at n=3")
    U = trade_from_monomials(MonomialSet(3, BITRADE14_WITNESS))
    B = bipartition(U)
    if B is None or B.cardinality != 14:
        raise BrokenInvariant("the witness 100/011/002 is not a size-14 bitrade")
    return k_extension(B, n - 3)


def embed_in_alphabet(B: BipartiteTrade, k_new: int) -> BipartiteTrade:
    """Re-read a trade over a larger alphabet: symbols inject unchanged, so
    lines either restrict to old lines or miss the support entirely."""
    if k_new < B.k:
        raise ValueError("target alphabet must not shrink")
    legs = [
        TradeSet.from_words(B.n, k_new, TradeSet(B.n, B.k, leg).words()).mask
        for leg in (B.part0, B.part1)
    ]
    return _normalized(TradeSet(B.n, k_new, legs[0] | legs[1]), *legs)


def grid_cycle_bitrade(k: int) -> BipartiteTrade:
    """The 2k-cycle (0,0),(0,1),(1,1),(1,2),...,(k-1,k-1),(k-1,0) in Q_k^2:
    every row and column meets it in exactly 2 cells."""
    if k < 4:
        raise DimensionTooSmall("cycles below k=4 are the ternary maximal case")
    words = []
    for i in range(k):
        words.append((i, i))
        words.append((i, (i + 1) % k))
    base = TradeSet.from_words(2, k, words)
    B = bipartition(base)
    if B is None:
        raise BrokenInvariant(f"the {2 * k}-cycle in Q_{k}^2 is not bipartite")
    return B


# ---------------------------------------------------------------------------
# Ternary codes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TernaryCode:
    """Linear code over GF(3) given by generator rows (digits 0/1/2)."""

    length: int
    generator: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.generator)

    @lru_cache(maxsize=None)
    def codewords(self) -> tuple[tuple[int, ...], ...]:
        words = []
        t = self.dimension
        for coeffs in itertools.product(range(3), repeat=t):
            w = [0] * self.length
            for a, row in zip(coeffs, self.generator):
                if a:
                    for i, r in enumerate(row):
                        w[i] = (w[i] + a * r) % 3
            words.append(tuple(w))
        return tuple(words)

    def to_json(self) -> dict:
        return {
            "length": self.length,
            "q": 3,
            "rows": ["".join(str(d) for d in row) for row in self.generator],
        }


def _projective_columns(t: int) -> list[tuple[int, ...]]:
    """Nonzero vectors of GF(3)^t scaled so the first nonzero entry is 1;
    identity columns first, the rest in lex order."""
    reps = set()
    for v in itertools.product(range(3), repeat=t):
        if not any(v):
            continue
        lead = next(x for x in v if x)
        if lead == 2:
            v = tuple((2 * x) % 3 for x in v)
        reps.add(v)
    ident = [tuple(1 if j == i else 0 for j in range(t)) for i in range(t)]
    rest = sorted(reps - set(ident))
    return ident + rest


def hamming_dual(t: int) -> TernaryCode:
    """The equidistant code of length (3^t - 1)/2 with 3^t words, all
    nonzero weights equal to 3^(t-1); dual to the ternary Hamming code."""
    if t < 1:
        raise ValueError("t >= 1")
    cols = _projective_columns(t)
    rows = tuple(tuple(col[i] for col in cols) for i in range(t))
    return TernaryCode(len(cols), rows)


def hprime(t: int) -> TernaryCode:
    """Column-duplicated variant: append 2^(j-1) copies of identity column
    j for j = 2..t.  Length 2^t - 2 + (3^t - 1)/2; all pairwise distances
    stay odd and the basis rows acquire pairwise-unique compositions."""
    if t < 2:
        raise ValueError("t >= 2")
    if t > HPRIME_MAX_T:
        raise DimensionTooLarge(f"constructions capped at t={HPRIME_MAX_T} for hprime, got t={t}")
    base = hamming_dual(t)
    cols = [tuple(row[i] for row in base.generator) for i in range(base.length)]
    for j in range(2, t + 1):
        e = tuple(1 if i == j - 1 else 0 for i in range(t))
        cols.extend([e] * (2 ** (j - 1)))
    rows = tuple(tuple(col[i] for col in cols) for i in range(t))
    return TernaryCode(len(cols), rows)


def composition(word: Sequence[int]) -> tuple[int, int, int]:
    """Symbol census (count of 0s, 1s, 2s)."""
    return (
        sum(1 for d in word if d == 0),
        sum(1 for d in word if d == 1),
        sum(1 for d in word if d == 2),
    )


def distinct_row_compositions(code: TernaryCode) -> bool:
    """Generator rows have pairwise distinct compositions.

    The duplicated-column blocks differ between rows, so this holds for
    the hprime family by construction.
    """
    comps = [composition(row) for row in code.generator]
    return len(set(comps)) == len(comps)


def code_unique_compositions(code: TernaryCode) -> list[bool]:
    """Per generator row: is its composition unique within the whole code?
    (Reported, not asserted: the t=2 duplicated-column code provably has
    no basis of code-unique-composition vectors.)"""
    census: dict[tuple[int, int, int], int] = {}
    for w in code.codewords():
        sp = composition(w)
        census[sp] = census.get(sp, 0) + 1
    return [census[composition(row)] == 1 for row in code.generator]


@dataclass(frozen=True)
class OddDistanceReport:
    m: int
    q: int
    size: int
    pairwise_odd: bool
    bound: int
    within_bound: bool
    at_bound_mod4_ok: Optional[bool]


def verify_odd_distance_bound(A: Sequence[tuple[int, ...]], q: int) -> OddDistanceReport:
    """Check the odd-distance property and the size bound (q-1)m + 2.

    When the set actually attains the bound, the embedded Euclidean point
    count must be divisible by 4; the report records that side condition.
    A finite verifier only: it never proves the bound, just audits a set.
    """
    pts = list(A)
    m = len(pts[0]) if pts else 0
    odd = all(
        cube.hamming_distance(u, v) % 2 == 1
        for u, v in itertools.combinations(pts, 2)
    )
    bound = (q - 1) * m + 2
    at_bound = None
    if odd and len(pts) == bound:
        at_bound = bound % 4 == 0
    return OddDistanceReport(m, q, len(pts), odd, bound, len(pts) <= bound, at_bound)


# ---------------------------------------------------------------------------
# Monomial recovery
# ---------------------------------------------------------------------------

def min_distance(words: Sequence[tuple[int, ...]]) -> int:
    """Minimal pairwise Hamming distance; n+1 for fewer than two words."""
    ws = list(words)
    if len(ws) < 2:
        return (len(ws[0]) if ws else 0) + 1
    return min(
        cube.hamming_distance(u, v) for u, v in itertools.combinations(ws, 2)
    )


def recoverable(size: int, n: int, D: int) -> bool:
    """The recovery precondition |V| * 2^(n-D+1) < 2^(n-2) for a monomial
    set V of `size` words of length n at code distance D."""
    return size * 2 ** (n - D + 1) < 2 ** (n - 2)


def recover_monomials(U: TradeSet, D: int) -> MonomialSet:
    """Recover the generating monomial set of U by intersection counts:
    v is kept exactly when |U and cube_v| >= 2^n - 2^(n-2).  Valid when
    the generator V is `recoverable` at its code distance D; the result
    is checked by round-trip."""
    n = U.n
    threshold = 2 ** n - 2 ** (n - 2)
    found = []
    mask = U.mask
    for v in cube.all_words(n, 3):
        if (mask & cube.subcube_mask(v)).bit_count() >= threshold:
            found.append(v)
    V = MonomialSet(n, found)
    d_found = min_distance(found)
    if not recoverable(len(found), n, min(D, d_found)):
        raise ValueError(
            f"|V|*2^(n-D+1) vs 2^(n-2) fails for |V|={len(found)}, D<={d_found}"
        )
    if trade_from_monomials(V).mask != U.mask:
        raise ValueError("recovered set does not reproduce the input")
    return V


# ---------------------------------------------------------------------------
# Balanced functions
# ---------------------------------------------------------------------------

def face_one_counts(f: BoolFn) -> Iterable[tuple[int, int]]:
    """(dimension, ones) for every face of every dimension of Q_2^n.  The
    faces are the truth tables of the monomials x^v: the face of v fixes
    x_i = 1 where v_i = 1 and x_i = 0 where v_i = 2, and leaves free the
    coordinates where v_i = 0, so a face of dimension d has 2^d cells."""
    bits = f.bits
    return (
        (face.bit_count().bit_length() - 1, (bits & face).bit_count())
        for face in _monomial_tables(f.n)
    )


def almost_balanced_in_faces(f: BoolFn) -> bool:
    """Ones and zeros differ by at most 2 in every face of every size."""
    return all(
        abs(2 * ones - (1 << dim)) <= 2 for dim, ones in face_one_counts(f)
    )


def pot12(f: BoolFn) -> BipartiteTrade:
    """U[f xor parity] for an almost-balanced f; the unitrade is bipartite."""
    check_dimension(f.n)
    if not almost_balanced_in_faces(f):
        raise ValueError("ones/zeros differ by more than 2 in some face")
    U = u_from_bool(f.xor(parity_counter(f.n)))
    B = bipartition(U)
    if B is None:
        raise NotAUnitrade("balanced construction produced a non-bipartite set")
    return B


# ---------------------------------------------------------------------------
# Degree embedding for k = 4
# ---------------------------------------------------------------------------

def rm_embed(U: TradeSet) -> BoolFn:
    """Boolean re-coordinatization of a Q_4^n unitrade via psi(b, b') =
    2b + b', under which a base-4 cell is the base-2 cell of its bit pairs,
    so U's mask is the truth table: weight is preserved exactly and the
    degree is at most n (each fixed n-1 block of bit pairs leaves a whole
    line free, forcing even ones in big faces)."""
    if U.k != 4:
        raise ValueError("the embedding is for k=4")
    if not is_unitrade(U):
        raise NotAUnitrade("input must be a unitrade")
    return BoolFn(2 * U.n, U.mask)

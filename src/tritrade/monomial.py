"""Monomial cubes, XOR-of-monomials representations, and exact rank.

A word v over {0,1,2} (2 standing for -1) encodes both the monomial
x^v = prod x_i^(v_i) with x^1 = x, x^(-1) = x xor 1, x^0 = 1, and the
boolean subcube {0,1}_0 x {1,2}_1 x {0,2}_2 ... picked coordinatewise by
the digits of v.  The restriction of the subcube's characteristic function
to Q_2^n is exactly the monomial's truth table, so XOR combinations of
monomials and symmetric differences of subcubes are the same thing and the
*rank* of a unitrade equals the minimal ESOP term count of its boolean
function.

The signed cube b_v is +1 / -1 on the even / odd leg of
``cube.subcube_legs(v)``; ``sign_consistency`` reads the same parity at
one cell.  Every builder rejects a digit outside {0, 1, 2}.

Rank engines: a bit-sliced BFS over GF(2)^(2^n) gives the full rank table
for n <= 4 in one pass, and `rank` reads it; an independent
iterative-deepening branch-and-bound, bounded by ranks one dimension down,
cross-checks it and, called directly, runs n = 5.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from . import cube
from .cube import CUBE_FACTOR, subcube_legs, subcube_mask
from .errors import BrokenInvariant, DimensionTooLarge, NotAUnitrade
from .funcspace import NEG_INF, BoolFn, TernFn, _tern_from_legs, bool_from_unitrade
from .trade import TradeSet, is_unitrade


class MonomialSet:
    """A set of exponent words over Q_3^n (duplicates are not representable:
    x^v xor x^v cancels, so sets are the right container)."""

    __slots__ = ("n", "words")

    def __init__(self, n: int, words: Iterable[tuple[int, ...]]):
        ws = frozenset(tuple(w) for w in words)
        for w in ws:
            if len(w) != n:
                raise ValueError(f"bad exponent word {w} for n={n}")
            cube.check_digits(w, 3)
        self.n = n
        self.words = ws

    @staticmethod
    def from_text(n: int, text: str) -> "MonomialSet":
        words = [tuple(int(ch) for ch in part) for part in text.split(";") if part]
        return MonomialSet(n, words)

    def to_text(self) -> str:
        return ";".join(
            "".join(str(d) for d in w) for w in sorted(self.words)
        )

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self):
        return iter(sorted(self.words))

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialSet) and (self.n, self.words) == (
            other.n,
            other.words,
        )

    def __hash__(self) -> int:
        return hash((self.n, self.words))

    def __repr__(self) -> str:
        return f"MonomialSet(n={self.n}, {{{self.to_text()}}})"


# ---------------------------------------------------------------------------
# Cubes and truth tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _monomial_tables(n: int) -> tuple[int, ...]:
    """Truth table of every monomial, indexed by the cell of its word."""
    return tuple(subcube_mask(v, 2) for v in cube.all_words(n, 3))


def monomial_cube(v: tuple[int, ...]) -> TradeSet:
    """The boolean subcube picked by v; always a bitrade of size 2^n."""
    return TradeSet(len(v), 3, subcube_mask(v))


def f_from_monomials(V: MonomialSet) -> BoolFn:
    """XOR of the monomials of V as a boolean function on Q_2^n."""
    bits = 0
    for w in V.words:
        bits ^= subcube_mask(w, 2)
    return BoolFn(V.n, bits)


def trade_from_monomials(V: MonomialSet) -> TradeSet:
    """Symmetric difference of the monomial cubes of V."""
    m = 0
    for w in V.words:
        m ^= subcube_mask(w)
    return TradeSet(V.n, 3, m)


def collapse_pair(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    """x^u xor x^v for words at Hamming distance 1 is the single monomial
    whose differing digit is the third symbol."""
    diff = [i for i, (a, b) in enumerate(zip(u, v)) if a != b]
    if len(diff) != 1:
        raise ValueError("words are not at distance 1")
    i = diff[0]
    third = 3 - u[i] - v[i]
    return u[:i] + (third,) + u[i + 1:]


def normalize(V: MonomialSet) -> MonomialSet:
    """Collapse distance-1 pairs until none remain (duplicates cancel)."""
    words = set(V.words)
    changed = True
    while changed:
        changed = False
        for u, v in itertools.combinations(sorted(words), 2):
            if cube.hamming_distance(u, v) == 1:
                words.discard(u)
                words.discard(v)
                w = collapse_pair(u, v)
                if w in words:
                    words.discard(w)
                else:
                    words.add(w)
                changed = True
                break
    return MonomialSet(V.n, words)


# ---------------------------------------------------------------------------
# Exact rank (polynomial complexity)
# ---------------------------------------------------------------------------

_RANK_TABLE_MAX_N = 4


@lru_cache(maxsize=None)
def rank_table(n: int) -> bytes:
    """rank_table(n)[truth table] = minimal ESOP term count, for all 2^(2^n)
    boolean functions at once: the distance from 0 in the Cayley graph of
    GF(2)^(2^n) generated by the 3^n monomial truth tables.

    Bit-sliced BFS: each distance layer is one int whose bit t marks the
    function with truth table t.  Translating a layer by a monomial m swaps,
    for each set bit j of m, the blocks of functions with bit j clear and
    set; the next layer is the union of the frontier's 3^n translates minus
    the functions already reached.  Raises BrokenInvariant if the monomials
    do not span all 2^(2^n) functions.
    """
    if n > _RANK_TABLE_MAX_N:
        raise DimensionTooLarge(f"rank table infeasible at n={n}")
    size = 1 << (1 << n)
    full = (1 << size) - 1
    clear = []  # clear[j]: the functions whose truth table has bit j clear
    for j in range(1 << n):
        mask, width = (1 << (1 << j)) - 1, 2 << j
        while width < size:
            mask |= mask << width
            width *= 2
        clear.append(mask)
    swaps = [
        [(1 << j, clear[j]) for j in cube.mask_cells(m)]
        for m in _monomial_tables(n)
    ]
    layers = [1]
    seen = 1
    while seen != full:
        reach = 0
        for pairs in swaps:
            t = layers[-1]
            for shift, c in pairs:
                t = (t & c) << shift | (t >> shift) & c
            reach |= t
        frontier = reach & ~seen
        if not frontier:
            raise BrokenInvariant(
                f"monomials span {seen.bit_count()} of {size} functions at n={n}"
            )
        layers.append(frontier)
        seen |= frontier
    # byte t is the distance of function t: the layers are disjoint
    table = sum(cube.mask_bytes(layer, size, d) for d, layer in enumerate(layers))
    return table.to_bytes(size, "little")


def rank_of_boolfn(f: BoolFn) -> int:
    """Exact rank read from the table; DimensionTooLarge for n > 4."""
    return rank_table(f.n)[f.bits]


def rank(U: TradeSet) -> int:
    """Minimal number of monomial cubes whose XOR is U."""
    if not is_unitrade(U):
        raise NotAUnitrade("rank is defined for unitrades")
    return rank_of_boolfn(bool_from_unitrade(U))


def _rank_lower_bound(bits: int, n: int) -> int:
    """Restriction to a hyperface maps every monomial to a monomial or
    kills it, so sub-function ranks bound rank from below."""
    if n == 0 or bits == 0:
        return bits  # at n = 0 the one nonzero function is the monomial 1
    sub = rank_table(n - 1)
    return max(
        sub[cube.retract_mask(bits, n, 2, i, c)] for i in range(n) for c in (0, 1)
    )


def rank_upper_bound(f: BoolFn) -> int:
    """Best of the Shannon and both Davio expansions over all coordinates,
    with exact cofactor ranks from the table one dimension down."""
    n = f.n
    if n == 0:
        return f.bits
    sub = rank_table(n - 1)
    best = None
    for i in range(n):
        b0 = cube.retract_mask(f.bits, n, 2, i, 0)
        b1 = cube.retract_mask(f.bits, n, 2, i, 1)
        f0, f1, fx = sub[b0], sub[b1], sub[b0 ^ b1]
        cand = min(f0 + f1, f0 + fx, f1 + fx)
        best = cand if best is None else min(best, cand)
    return best


def rank_branch_and_bound(f: BoolFn) -> int:
    """Exact rank by iterative deepening on the first uncovered cell.

    Independent of the BFS table at its own dimension: both bounds read
    only rank_table(n - 1).
    """
    n = f.n
    if f.bits == 0:
        return 0
    tables = _monomial_tables(n)
    cover_cache: dict[int, tuple[int, ...]] = {}

    def dfs(bits: int, budget: int) -> bool:
        if bits == 0:
            return True
        if budget == 0 or _rank_lower_bound(bits, n) > budget:
            return False
        cell = (bits & -bits).bit_length() - 1
        covers = cover_cache.get(cell)
        if covers is None:
            # the 2^n monomials whose value at `cell` is 1
            covers = cover_cache[cell] = tuple(t for t in tables if t >> cell & 1)
        return any(dfs(bits ^ m, budget - 1) for m in covers)

    budget = _rank_lower_bound(f.bits, n)
    ub = rank_upper_bound(f)
    while budget < ub:
        if dfs(f.bits, budget):
            return budget
        budget += 1
    return ub


# ---------------------------------------------------------------------------
# The r(W) statistic and the cardinality formula
# ---------------------------------------------------------------------------

def r_of(W: Iterable[tuple[int, ...]]):
    """Number of columns where all words of W agree; -inf when some column
    carries all three symbols (the cube intersection is then empty)."""
    rows = list(W)
    if not rows:
        raise ValueError("r is defined for nonempty word sets")
    equal = 0
    for col in zip(*rows):
        distinct = len(set(col))
        if distinct == 1:
            equal += 1
        elif distinct == 3:
            return NEG_INF
    return equal


def _pow2r(W: Sequence[tuple[int, ...]]) -> int:
    r = r_of(W)
    return 0 if r == NEG_INF else 1 << int(r)


MAX_FORMULA_MONOMIALS = 16


def cardinality_formula(V: MonomialSet) -> int:
    """|U[f^V]| from r-values alone: the signed inclusion-exclusion
    sum over subsets W of V of (-2)^(|W|-1) * 2^r(W)."""
    if len(V) > MAX_FORMULA_MONOMIALS:
        raise DimensionTooLarge(
            f"{len(V)} monomials means 2^{len(V)} subset terms"
        )
    words = sorted(V.words)
    total = 0
    for t in range(1, len(words) + 1):
        sign = (-2) ** (t - 1)
        total += sign * sum(
            _pow2r(W) for W in itertools.combinations(words, t)
        )
    return total


# ---------------------------------------------------------------------------
# Rank-3 triples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleProfile:
    """Column census of a 3 x n word table.

    k1 >= k2 >= k3 count the columns where exactly one row differs from the
    two agreeing others (sorted so the profile does not depend on row
    order); k4 counts all-distinct columns, k_eq all-equal ones.
    """

    k1: int
    k2: int
    k3: int
    k4: int
    k_eq: int

    @property
    def n(self) -> int:
        return self.k1 + self.k2 + self.k3 + self.k4 + self.k_eq


def triple_profile(V: MonomialSet) -> TripleProfile:
    if len(V) != 3:
        raise ValueError("profile is defined for triples")
    rows = sorted(V.words)
    counts = [0, 0, 0]  # odd row is rows[0] / rows[1] / rows[2]
    k4 = k_eq = 0
    for col in zip(*rows):
        p, q, r = col
        if p == q == r:
            k_eq += 1
        elif q == r:
            counts[0] += 1
        elif p == r:
            counts[1] += 1
        elif p == q:
            counts[2] += 1
        else:
            k4 += 1
    k1, k2, k3 = sorted(counts, reverse=True)
    return TripleProfile(k1, k2, k3, k4, k_eq)


def triple_cardinality(profile: TripleProfile, n: int) -> int:
    """|U[f^V]| for a triple with no all-equal column:
    3*2^n - 2*(2^k1 + 2^k2 + 2^k3) + 4*[k4 == 0]."""
    if profile.k_eq:
        raise ValueError("formula assumes no all-equal column")
    if profile.n != n:
        raise ValueError("profile does not cover n columns")
    delta = 4 if profile.k4 == 0 else 0
    return 3 * 2 ** n - 2 * (
        2 ** profile.k1 + 2 ** profile.k2 + 2 ** profile.k3
    ) + delta


def triple_is_bitrade(V: MonomialSet) -> tuple[bool, str]:
    """Bitrade verdict for a normalized monomial triple, with the rule that
    fired.  Agrees with the bipartition oracle on the generated set.

    Rules, checked in order on the columns where not all rows agree:
      * two-coordinates: the rows differ in at most 2 columns (the
        two-dimensional case, always bipartite);
      * dominated / blocked: no all-distinct column, and some row agrees
        with another in every column (bitrade) or none does (not);
      * parity: with all-distinct columns present, the pairwise distance
        sum is odd iff k4 is odd (bitrade exactly then).
    """
    words = sorted(V.words)
    if len(words) != 3:
        raise ValueError("need exactly three distinct monomials")
    for u, v in itertools.combinations(words, 2):
        if cube.hamming_distance(u, v) <= 1:
            raise ValueError(
                "distance-1 pair collapses; normalize first (rank <= 2 is "
                "always a bitrade)"
            )
    prof = triple_profile(V)
    active = prof.n - prof.k_eq  # columns where the rows are not all equal
    if active <= 2:
        return True, "two-coordinates"
    if prof.k4 == 0:
        if prof.k3 == 0:
            return True, "dominated"
        return False, "blocked-pattern"
    if prof.k4 % 2:
        return True, "odd-distance-sum"
    return False, "even-distance-sum"


# ---------------------------------------------------------------------------
# Sign functions of monomial cubes
# ---------------------------------------------------------------------------

def signed_cube_fn(v: tuple[int, ...]) -> TernFn:
    """Canonical signed function b_v on the cube of v: alternating signs,
    +1 at the cell whose digits take the low member of every factor, so +1
    on the even leg of `cube.subcube_legs` and -1 on the odd one."""
    return _tern_from_legs(len(v), *subcube_legs(v))


def sign_consistency(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    """Relative sign of b_u and b_v on their (always nonempty, connected)
    cube intersection: +1 when the canonical signings agree there, -1 when
    they oppose.  A pair alone can always be made consistent by flipping
    one sign; for triples in general position the three relations multiply
    to -1 exactly when the pairwise distance sum is odd.
    """
    if len(u) != len(v):
        raise ValueError(f"words of different lengths: {u}, {v}")
    cube.check_digits(u + v, 3)
    # read both signs at the intersection cell of lowest digits: each is the
    # parity of the digits that take the high member of their factor
    flips = 0
    for a, b in zip(u, v):
        x = min(set(CUBE_FACTOR[a]) & set(CUBE_FACTOR[b]))
        flips += (x == CUBE_FACTOR[a][1]) + (x == CUBE_FACTOR[b][1])
    return -1 if flips % 2 else 1


def jointly_consistent(words: Sequence[tuple[int, ...]]) -> bool:
    """Whether signs sigma_v exist making every pair opposed on overlap
    (sigma_u * sigma_v * rel(u, v) = -1); parity propagation over the
    complete graph, so a contradiction is an odd relation cycle."""
    ws = list(words)
    sigma: dict[int, int] = {}
    for i in range(len(ws)):
        if i in sigma:
            continue
        sigma[i] = 1
        stack = [i]
        while stack:
            a = stack.pop()
            for b in range(len(ws)):
                if b == a:
                    continue
                need = -sign_consistency(ws[a], ws[b]) * sigma[a]
                if b in sigma:
                    if sigma[b] != need:
                        return False
                else:
                    sigma[b] = need
                    stack.append(b)
    return True


# ---------------------------------------------------------------------------
# Decomposability (Cartesian product over a coordinate split)
# ---------------------------------------------------------------------------

def is_decomposable(U: TradeSet) -> bool:
    """Whether U = A x B over some split of the coordinate set."""
    n = U.n
    if n < 2:
        return False
    words = U.words()
    if not words:
        return False
    coords = range(n)
    for size in range(1, n // 2 + 1):
        for S in itertools.combinations(coords, size):
            T = tuple(i for i in coords if i not in S)
            left = set()
            right = set()
            pairs = set()
            for w in words:
                a = tuple(w[i] for i in S)
                b = tuple(w[i] for i in T)
                left.add(a)
                right.add(b)
                pairs.add((a, b))
            if len(pairs) == len(left) * len(right):
                return True
    return False

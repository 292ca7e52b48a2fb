"""Isometry-group action on ternary functions: orbits, canonical forms,
automorphism orders and equivalence.

The group is generated by coordinate permutations and by independent symbol
permutations inside each coordinate, extended by a global sign flip (the
flip swaps the two legs of a bitrade; without it the one-point cube would
already split {-1,0,+1} into three classes instead of the two observed).
Order: 2 * n! * 6^n for k = 3.  Five elements generate it (`generators`):
the symbol transposition and 3-cycle at coordinate 0, the coordinate
transposition (0 1), the coordinate n-cycle and the sign flip.
`orbit_values` closes orbits under them.

Equivalence and isometry counts recurse on aligned retract lists instead
of walking the group: an isometry of dimension m is a choice of source
coordinate and value order for target coordinate 0 followed by one
isometry of dimension m-1 applied to every retract.  This matcher is the
layer's one retract recursion.  It counts the branches that reproduce g's
runs of 3^m consecutive cells, over a face table made for each call: every
value tuple the search meets is interned to a small id, split once per
coordinate through ``cube.retract_splitters``, and a node is the tuple of
its members' ids, which is also its memo key.

Canonical forms are not searched for: the class layer
(``enumeration._class_layer``, n <= 5) keeps each class's lex-minimal
member as its representative, and `canonical_form` looks f's class up
there.  Orbit closure and the matcher share no code, so orbit size times
automorphism order equal to the group order is a real cross-check of both.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter, methodcaller
from typing import Callable

from . import cube
from .cube import Isometry
from .errors import DimensionTooLarge, NotAUnitrade
from .funcspace import TernFn, trade_from_tern

_SYM3 = tuple(itertools.permutations((0, 1, 2)))
_ID3 = (0, 1, 2)


def group_order(n: int) -> int:
    return 2 * math.factorial(n) * 6 ** n


def generators(n: int) -> list[Isometry]:
    """Five generators of the group (fewer at n <= 2): the symbol
    transposition (0 1) and the symbol 3-cycle at coordinate 0, which give
    S3 there; the coordinate transposition (0 1) and the coordinate n-cycle,
    which give S_n and carry that S3 to every coordinate; and the sign
    flip."""
    ident = tuple(range(n))
    plain = (_ID3,) * n
    gens = []
    if n >= 1:
        gens += [Isometry(ident, (sp,) + plain[1:]) for sp in ((1, 0, 2), (1, 2, 0))]
    if n >= 2:
        gens.append(Isometry((1, 0) + ident[2:], plain))
    if n >= 3:
        gens.append(Isometry(ident[1:] + (0,), plain))
    gens.append(Isometry(ident, plain, sign_flip=True))
    return gens


@lru_cache(maxsize=None)
def _gen_getters(n: int) -> tuple[Callable[[bytes], tuple[int, ...]], ...]:
    """The unsigned generators, one itemgetter each: getter(old)[j] is
    old[p[j]] for p the cell map of the generator's inverse.  They exist
    only at n >= 1, so each reads at least three cells and returns a
    tuple."""
    return tuple(itemgetter(*g.inverse().cell_map(3)) for g in generators(n) if not g.sign_flip)


_FLIP = bytes.maketrans(b"\x00\x02", b"\x02\x00")  # the sign flip on encoded values
_SHIFT = bytes.maketrans(b"\xff\x00\x01", b"\x00\x01\x02")  # signed byte v -> v + 1


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def canonical_form(f: TernFn) -> str:
    """Lexicographically minimal value string over all group images.

    Defined for line-sum-zero functions with n <= 5: the representative of
    f's class in the class layer (``enumeration._class_layer``), which is
    the class's lex-minimal member, found through the certified retract
    key of f's code, the signed bytes the layer keys every class on.  The
    first call at a dimension builds that layer, about 5 s at n = 5.
    Raises ValueError when f is not line-sum-zero, as `trade_from_tern`
    finds it (the key of such an f can collide with a real class), and
    DimensionTooLarge at n >= 6.
    """
    from .enumeration import _class_layer  # enumeration imports this module

    try:
        trade_from_tern(f)
    except NotAUnitrade as exc:
        raise ValueError(f"canonical forms need a line-sum-zero function: {exc}") from None
    records, index, _ = _class_layer(f.n)
    return records[index[f.code]].representative.to_text()


# ---------------------------------------------------------------------------
# Orbits and stabilizers
# ---------------------------------------------------------------------------

ORBIT_MAX_N = 5


def orbit_values(values: tuple[int, ...], n: int) -> set[bytes]:
    """Closure of a value tuple under the generators, as encoded byte keys
    (value v as byte v + 1).  Images are taken on the keys themselves: the
    sign flip fixes every cell and swaps the bytes 0 and 2, and each other
    generator is one itemgetter over the cells.  The values are read
    through `TernFn(n, values)`, so a value outside {-1,0,+1} or a tuple
    of the wrong length raises ValueError.  DimensionTooLarge above
    n = ORBIT_MAX_N: an n = 6 orbit can hold millions of 729-byte keys."""
    if n > ORBIT_MAX_N:
        raise DimensionTooLarge(f"orbit closure capped at n={ORBIT_MAX_N}")
    gets = _gen_getters(n)
    start = TernFn(n, values).code.translate(_SHIFT)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            images = [bytes(get(key)) for get in gets]
            images.append(key.translate(_FLIP))
            for img in images:
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def aut_order(f: TernFn) -> int:
    """Number of group elements fixing f, counted by the isometry matcher."""
    return count_isometries_onto(f, f)


# ---------------------------------------------------------------------------
# Class records and the isometry matcher
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassRecord:
    representative: TernFn
    orbit_size: int
    aut: int

    @property
    def cardinality(self) -> int:
        return self.representative.cardinality

    def to_json(self) -> dict:
        return {
            "key": self.representative.to_text(),
            "orbit": self.orbit_size,
            "aut": self.aut,
            "cardinality": self.cardinality,
        }


def equivalent(f: TernFn, g: TernFn) -> bool:
    """Whether some isometry (with optional sign flip) maps f to g."""
    return _match_count(f, g, find_one=True) > 0


def count_isometries_onto(f: TernFn, g: TernFn) -> int:
    """Number of group elements mapping f to g (0 when inequivalent)."""
    return _match_count(f, g, find_one=False)


def _match_count(f: TernFn, g: TernFn, find_one: bool) -> int:
    """Backtracking matcher, the retract recursion of the symmetry layer.

    Every node sends a source coordinate to target coordinate 0, so at
    level m the i-th member of the aligned list must become the i-th run
    of 3^m consecutive cells of g, and the profiles of that run's three
    thirds prune each (coordinate, value order).  Every value tuple the
    search meets is interned in a face table made for this call and
    dropped when it returns.  A node is a tuple of the ids of its members:
    its work is table lookups, and it is the memo key.  Ids are equal
    exactly when the contents are, so a symmetric function pays for each
    distinct sub-problem once rather than once per automorphism.  With
    find_one the search stops at the first match and the result is only
    meaningful as zero or nonzero.  f and g are TernFn, so their values
    were checked when they were built."""
    if f.n != g.n:
        return 0
    table = _FaceTable(g.values, g.n)
    memo: dict[tuple[int, ...], int] = {}
    total = 0
    for fv in (f.values, tuple(-v for v in f.values)):
        total += _match_rec((table.intern(fv),), f.n, table, memo, find_one)
        if find_one and total:
            return total
    return total


# per value order: the retract-id triple of a member read in that order,
# and g's profile triple put in the order of the retracts it must match
_ORDER_GETS = tuple(itemgetter(*order) for order in _SYM3)
_TARGET_GETS = tuple(itemgetter(*(order.index(d) for d in range(3))) for order in _SYM3)
_PLUS, _MINUS = methodcaller("count", 1), methodcaller("count", -1)


class _FaceTable:
    """The value tuples of one matcher call, each interned to a small int
    id, and what the search reads about them.

    counts[i]: the (#+1, #-1) pair of id i.  cuts[c][i] and
    profiles[c][i], built the first time a node splits id i at its local
    coordinate c: the ids of i's three retracts there and their profile
    triple, the three pairs.  A node prunes each coordinate on the tuple of
    its members' profile triples and cuts the children of a kept branch
    from their retract ids.

    wants[m], built the first time the search reaches level m: each tuple
    of profile triples a level-m node may show, mapped to the value orders
    that it admits.  It is read off g's runs of 3^(m-1) cells, three to a
    member.
    """

    __slots__ = ("ids", "values", "counts", "cuts", "profiles", "target", "wants")

    def __init__(self, target: tuple[int, ...], n: int):
        self.ids: dict[tuple[int, ...], int] = {}
        self.values: list[tuple[int, ...]] = []
        self.counts: list[tuple[int, int]] = []
        self.cuts: list[dict[int, tuple[int, int, int]]] = [{} for _ in range(n)]
        self.profiles: list[dict[int, tuple]] = [{} for _ in range(n)]
        self.target = target
        self.wants: dict[int, dict[tuple, list]] = {}

    def intern(self, values: tuple[int, ...]) -> int:
        i = self.ids.get(values)
        if i is None:
            i = self.ids[values] = len(self.values)
            self.values.append(values)
            self.counts.append((values.count(1), values.count(-1)))
        return i

    def split(self, fs: tuple[int, ...], c: int, m: int) -> tuple:
        """The profile triples of the members of fs at coordinate c, each
        member split there once."""
        split = cube.retract_splitters(m)[c]
        known, counts = self.ids.get, self.counts
        cuts, profiles = self.cuts[c], self.profiles[c]
        for i in fs:
            if i not in cuts:
                thirds = split(self.values[i])
                ids = tuple(map(known, thirds))
                if None in ids:
                    ids = tuple(map(self.intern, thirds))
                cuts[i] = ids
                profiles[i] = (counts[ids[0]], counts[ids[1]], counts[ids[2]])
        return tuple(map(profiles.__getitem__, fs))

    def want(self, m: int) -> dict[tuple, list]:
        size = 3 ** (m - 1)
        g = self.target
        runs = [g[k:k + size] for k in range(0, len(g), size)]
        pairs = list(zip(map(_PLUS, runs), map(_MINUS, runs)))
        triples = list(zip(pairs[0::3], pairs[1::3], pairs[2::3]))
        want = self.wants[m] = {}
        for order_get, target_get in zip(_ORDER_GETS, _TARGET_GETS):
            want.setdefault(tuple(map(target_get, triples)), []).append(order_get)
        return want


def _match_rec(fs: tuple[int, ...], m: int, table: _FaceTable, memo: dict, find_one: bool) -> int:
    if m == 0:
        # the profiles matched one level up fix every leaf; only n = 0 needs this
        return 1 if table.values[fs[0]] == table.target else 0
    hit = memo.get(fs)
    if hit is not None:
        return hit
    wants = table.wants.get(m) or table.want(m)
    profiles, cuts = table.profiles, table.cuts
    total = 0
    for c in range(m):
        try:
            counts = tuple(map(profiles[c].__getitem__, fs))
        except KeyError:
            counts = table.split(fs, c, m)
        for get in wants.get(counts, ()):
            if m == 1:
                # the matched profiles fix every leaf
                total += 1
            else:
                # the aligned list one level down: each member's retracts in value order
                retracts = map(cuts[c].__getitem__, fs)
                children = tuple(itertools.chain.from_iterable(map(get, retracts)))
                total += _match_rec(children, m - 1, table, memo, find_one)
            if find_one and total:
                return total
    memo[fs] = total
    return total

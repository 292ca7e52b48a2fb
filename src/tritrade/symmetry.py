"""Isometry-group action on ternary functions: orbits, canonical forms,
automorphism orders, and equivalence classification.

The group is generated by coordinate permutations and by independent symbol
permutations inside each coordinate, extended by a global sign flip (the
flip swaps the two legs of a bitrade; without it the one-point cube would
already split {-1,0,+1} into three classes instead of the two observed).
Order: 2 * n! * 6^n for k = 3.

Equivalence and isometry counts recurse on aligned retract lists instead
of walking the group: an isometry of dimension m is a choice of source
coordinate and value order for target coordinate 0 followed by one
isometry of dimension m-1 applied to every retract.  This matcher is the
layer's one retract recursion; it reads retracts through
``cube.retract_splitters``, counts the branches that reproduce g's runs of
3^m consecutive cells, and memoises its sub-problems for one call.

Canonical forms are not searched for: the class layer
(``enumeration._class_layer``, n <= 5) keeps each class's lex-minimal
member as its representative, and `canonical_form` looks f's class up
there.

`classify` is the reference classification that the production class
layer (``enumeration._class_layer``) is tested against: it closes orbits
under a small generator set with hashed membership, and takes automorphism
orders from the isometry matcher, an independent computation, so the
orbit-stabilizer identity is a real cross-check rather than a restatement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from . import cube
from .cube import Isometry
from .errors import OrbitTooLarge
from .funcspace import LineSumKind, TernFn, _check_signs, line_sums

_SYM3 = tuple(itertools.permutations((0, 1, 2)))
_ID3 = (0, 1, 2)


def group_order(n: int) -> int:
    return 2 * math.factorial(n) * 6 ** n


def generators(n: int) -> list[Isometry]:
    """Adjacent coordinate transpositions, one symbol transposition and one
    3-cycle per coordinate, and the sign flip."""
    gens = []
    ident = tuple(range(n))
    for i in range(n - 1):
        cp = list(ident)
        cp[i], cp[i + 1] = cp[i + 1], cp[i]
        gens.append(Isometry(tuple(cp), (_ID3,) * n))
    for i in range(n):
        for sp in ((1, 0, 2), (1, 2, 0)):
            sps = [_ID3] * n
            sps[i] = sp
            gens.append(Isometry(ident, tuple(sps)))
    gens.append(Isometry(ident, (_ID3,) * n, sign_flip=True))
    return gens


@lru_cache(maxsize=None)
def _gen_getters(n: int) -> tuple[Callable[[bytes], tuple[int, ...]], ...]:
    """The unsigned generators, one itemgetter each: getter(old)[j] is
    old[p[j]].  They exist only at n >= 1, so each reads at least three
    cells and returns a tuple."""
    out = []
    for g in generators(n):
        if g.sign_flip:
            continue
        fwd = g.cell_map(3)
        inv = [0] * len(fwd)
        for c, y in enumerate(fwd):
            inv[y] = c
        out.append(itemgetter(*inv))
    return tuple(out)


_FLIP = bytes.maketrans(b"\x00\x02", b"\x02\x00")  # the sign flip on encoded values


def _encode(values: Sequence[int]) -> bytes:
    return bytes(v + 1 for v in values)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def canonical_form(f: TernFn) -> str:
    """Lexicographically minimal value string over all group images.

    Defined for line-sum-zero functions with n <= 5: the representative of
    f's class in the class layer (``enumeration._class_layer``), which is
    the class's lex-minimal member, found through f's certified retract
    key.  The first call at a dimension builds that layer, about 5 s at
    n = 5.  Raises ValueError when f is not line-sum-zero (the key of such
    an f can collide with a real class) and DimensionTooLarge at n >= 6.
    """
    from .enumeration import _class_layer  # enumeration imports this module

    _check_signs(f.values)
    if LineSumKind.INVALID in line_sums(f):
        raise ValueError("canonical forms are defined on line-sum-zero functions")
    records, index = _class_layer(f.n)
    return records[index[_encode(f.values)]].representative.to_text()


# ---------------------------------------------------------------------------
# Orbits and stabilizers
# ---------------------------------------------------------------------------

DEFAULT_ORBIT_LIMIT = 2_000_000


def orbit_values(values: tuple[int, ...], n: int, limit: int = DEFAULT_ORBIT_LIMIT) -> set[bytes]:
    """Closure of a value tuple under the generators, as encoded byte keys
    (value v as byte v + 1).  Images are taken on the keys themselves: the
    sign flip fixes every cell and swaps the bytes 0 and 2, and each other
    generator is one itemgetter over the cells.  Raises ValueError on a
    value outside {-1,0,+1}."""
    _check_signs(values)
    gets = _gen_getters(n)
    start = _encode(values)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for key in frontier:
            images = [bytes(get(key)) for get in gets]
            images.append(key.translate(_FLIP))
            for img in images:
                if img not in seen:
                    if len(seen) >= limit:
                        raise OrbitTooLarge(f"orbit exceeds {limit} elements")
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def orbit(f: TernFn, limit: int = DEFAULT_ORBIT_LIMIT) -> set[TernFn]:
    keys = orbit_values(f.values, f.n, limit)
    return {TernFn(f.n, tuple(b - 1 for b in key)) for key in keys}


def aut_order(f: TernFn) -> int:
    """Number of group elements fixing f, counted by the isometry matcher."""
    return count_isometries_onto(f, f)


# ---------------------------------------------------------------------------
# Classification
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


def classify(stream: Iterable[TernFn], n: int) -> list[ClassRecord]:
    """Partition a stream (each function exactly once) into orbit classes:
    the reference for the class layer.

    Orbit sizes come from generator closure and automorphism orders from the
    isometry matcher, two independent computations, making
    orbit * aut == group order a nontrivial invariant.  Records are sorted by
    cardinality, then by value tuple.
    """
    seen: set[bytes] = set()
    orbits: list[tuple[TernFn, int]] = []
    for f in stream:
        if _encode(f.values) in seen:
            continue
        members = orbit_values(f.values, n)
        seen |= members
        orbits.append((f, len(members)))
    records = [ClassRecord(f, size, aut_order(f)) for f, size in orbits]
    records.sort(key=lambda r: (r.cardinality, r.representative.values))
    return records


def double_count_check(classes: Sequence[ClassRecord], expected_total: int, n: int) -> bool:
    """Sum of group_order/aut over classes must reproduce the plain count."""
    return sum(group_order(n) // rec.aut for rec in classes) == expected_total


def equivalent(f: TernFn, g: TernFn) -> bool:
    """Whether some isometry (with optional sign flip) maps f to g."""
    return _match_count(f, g, find_one=True) > 0


def count_isometries_onto(f: TernFn, g: TernFn) -> int:
    """Number of group elements mapping f to g (0 when inequivalent)."""
    return _match_count(f, g, find_one=False)


def _match_count(f: TernFn, g: TernFn, find_one: bool) -> int:
    """Backtracking matcher, the retract recursion of the symmetry layer.

    Every node sends its source coordinate to target coordinate 0, so at
    level m the i-th aligned list member must become the i-th run of 3^m
    consecutive cells of g.  The value counts of those runs, computed once
    per call, prune each (coordinate, value order); the count below a node
    depends only on its aligned list, the memo key for the whole call, so
    a symmetric function pays for each distinct list once rather than once
    per automorphism.  With find_one the search stops at the first match
    and the result is only meaningful as zero or nonzero.  Raises
    ValueError on a value outside {-1,0,+1} in f or g."""
    _check_signs(f.values)
    _check_signs(g.values)
    if f.n != g.n:
        return 0
    n = f.n
    # targets[m]: at m = 0 the leaf list itself; above, per value order, the
    # counts that the retracts (member i, value d) must have: those of run
    # 3i + order.index(d) of 3^(m-1) cells
    targets: list[tuple] = [tuple((v,) for v in g.values)]
    for size in (3 ** m for m in range(n)):
        runs = [_profile(g.values[i:i + size]) for i in range(0, 3 ** n, size)]
        targets.append(tuple(
            tuple(runs[i + order.index(d)] for i in range(0, len(runs), 3) for d in range(3))
            for order in _SYM3
        ))
    memo: dict[tuple, int] = {}
    total = 0
    for fv in (f.values, tuple(-v for v in f.values)):
        total += _match_rec((fv,), n, targets, memo, find_one)
        if find_one and total:
            return total
    return total


def _profile(values: tuple[int, ...]) -> tuple[int, int]:
    return values.count(1), values.count(-1)


def _match_rec(fs: tuple, m: int, targets: list[tuple], memo: dict, find_one: bool) -> int:
    if m == 0:
        # the counts checked one level up fix every leaf; only n = 0 needs this
        return 1 if fs == targets[0] else 0
    hit = memo.get(fs)
    if hit is not None:
        return hit
    total = 0
    for split in cube.retract_splitters(m):
        blocks = [split(f) for f in fs]
        counts = tuple(_profile(b) for triple in blocks for b in triple)
        for order, want in zip(_SYM3, targets[m]):
            if counts == want:
                # the aligned list one level down: each member's retracts in value order
                children = tuple(b[d] for b in blocks for d in order)
                total += _match_rec(children, m - 1, targets, memo, find_one)
                if find_one and total:
                    return total
    memo[fs] = total
    return total

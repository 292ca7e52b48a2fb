"""Isometry-group action on ternary functions: orbits, canonical forms,
automorphism orders, and equivalence classification.

The group is generated by coordinate permutations and by independent symbol
permutations inside each coordinate, extended by a global sign flip (the
flip swaps the two legs of a bitrade; without it the one-point cube would
already split {-1,0,+1} into three classes instead of the two observed).
Order: 2 * n! * 6^n for k = 3.

Canonical forms, equivalence and isometry counts recurse on aligned
retract lists instead of walking the group: an isometry of dimension m is a
choice of source coordinate and value order for target coordinate 0
followed by one isometry of dimension m-1 applied to every retract, and
each recursion memoises its sub-problems for the duration of one call.
Both read retracts through ``cube.retract_splitters`` and build the next
level's list alike: the canonical form minimises over the branches, the
matcher counts those that reproduce g's runs of 3^m consecutive cells.

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
from typing import Iterable, Sequence

from . import cube
from .cube import Isometry
from .errors import OrbitTooLarge
from .funcspace import TernFn

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
def _gen_cellperms(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Generators as (cell permutation, sign) pairs; new[j] = sign*old[p[j]]."""
    out = []
    for g in generators(n):
        fwd = g.cell_map(3)
        inv = [0] * len(fwd)
        for c, y in enumerate(fwd):
            inv[y] = c
        out.append((tuple(inv), -1 if g.sign_flip else 1))
    return tuple(out)


def _encode(values: Sequence[int]) -> bytes:
    return bytes(v + 1 for v in values)


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def canonical_form(f: TernFn) -> str:
    """Lexicographically minimal value string over all group images.

    The smaller of the retract recursion ``_canon_rec`` on f and on -f, the
    two signs of the group, with one memo: the minimum over the source
    coordinate and value order sent to target coordinate 0, following only
    the branches whose head (the canonical image of their first retract) is
    minimal.  Idempotent: the canonical form of the canonical form is itself.
    """
    memo: dict[tuple, tuple[int, ...]] = {}
    neg = tuple(-v for v in f.values)
    best = min(_canon_rec((f.values,), f.n, memo), _canon_rec((neg,), f.n, memo))
    return TernFn(f.n, best).to_text()


def _canon_rec(
    fs: tuple[tuple[int, ...], ...],
    m: int,
    memo: dict[tuple, tuple[int, ...]],
) -> tuple[int, ...]:
    """Lex-minimal concatenated image of the aligned list fs under the
    unsigned isometries of dimension m.

    In cell order the image of fs is the concatenation of the images of its
    retracts at the source coordinate c sent to target coordinate 0, taken
    in target value order; so the minimum is the minimum over (c, order) of
    the recursion on the reordered retract list.  The first block of each
    candidate is the recursion on the first retract alone (its head), and
    only branches with a minimal head are followed.
    """
    if m == 0:
        return tuple(f[0] for f in fs)
    # the minimum depends only on fs, which also fixes m
    hit = memo.get(fs)
    if hit is not None:
        return hit
    splitters = cube.retract_splitters(m)
    heads = [[_canon_rec((r,), m - 1, memo) for r in split(fs[0])] for split in splitters]
    top = min(map(min, heads))
    best = None
    for split, head in zip(splitters, heads):
        if top not in head:
            continue
        blocks = [split(f) for f in fs]
        for order in _SYM3:
            if head[order[0]] == top:
                img = _canon_rec(_children(blocks, order), m - 1, memo)
                if best is None or img < best:
                    best = img
    memo[fs] = best
    return best


def _children(blocks: list[tuple], order: tuple[int, int, int]) -> tuple:
    """The aligned list one level down: each member's retracts in value order."""
    return tuple(b[d] for b in blocks for d in order)


# ---------------------------------------------------------------------------
# Orbits and stabilizers
# ---------------------------------------------------------------------------

DEFAULT_ORBIT_LIMIT = 2_000_000


def orbit_values(values: tuple[int, ...], n: int, limit: int = DEFAULT_ORBIT_LIMIT) -> set[bytes]:
    """Closure of a value tuple under the generators, as encoded byte keys."""
    gens = _gen_cellperms(n)
    start = _encode(values)
    seen = {start}
    frontier = [values]
    while frontier:
        nxt = []
        for g in frontier:
            for perm, sign in gens:
                if sign == 1:
                    img = tuple(g[p] for p in perm)
                else:
                    img = tuple(-g[p] for p in perm)
                key = _encode(img)
                if key not in seen:
                    if len(seen) >= limit:
                        raise OrbitTooLarge(f"orbit exceeds {limit} elements")
                    seen.add(key)
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
    """Backtracking matcher: the retract recursion of `canonical_form`,
    counted against g instead of minimised.

    Every node sends its source coordinate to target coordinate 0, so at
    level m the i-th aligned list member must become the i-th run of 3^m
    consecutive cells of g.  The value counts of those runs, computed once
    per call, prune each (coordinate, value order); the count below a node
    depends only on its aligned list, the memo key for the whole call, so
    a symmetric function pays for each distinct list once rather than once
    per automorphism.  With find_one the search stops at the first match
    and the result is only meaningful as zero or nonzero."""
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
                total += _match_rec(_children(blocks, order), m - 1, targets, memo, find_one)
                if find_one and total:
                    return total
    memo[fs] = total
    return total

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

Classification never canonicalizes the whole stream: orbits are closed
under a small generator set with hashed membership, and automorphism orders
come from the isometry matcher, an independent computation, so the
orbit-stabilizer identity is a real cross-check rather than a restatement.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

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
    heads = {
        (c, d): _canon_rec((_retract_tuple(fs[0], m, c, d),), m - 1, memo)
        for c in range(m)
        for d in (0, 1, 2)
    }
    top = min(heads.values())
    best = None
    for c in range(m):
        blocks = [[_retract_tuple(f, m, c, d) for d in (0, 1, 2)] for f in fs]
        for order in _SYM3:
            if heads[c, order[0]] != top:
                continue
            sub = tuple(b[d] for b in blocks for d in order)
            img = _canon_rec(sub, m - 1, memo)
            if best is None or img < best:
                best = img
    memo[fs] = best
    return best


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
    key: Optional[str] = None

    @property
    def cardinality(self) -> int:
        return self.representative.cardinality

    def to_json(self) -> dict:
        return {
            "key": self.key,
            "orbit": self.orbit_size,
            "aut": self.aut,
            "cardinality": self.cardinality,
        }


def classify(stream: Iterable[TernFn], n: int) -> tuple[list[ClassRecord], dict[bytes, int]]:
    """Partition a stream (each function exactly once) into orbit classes.

    Orbit sizes come from generator closure and automorphism orders from the
    isometry matcher, two independent computations, making
    orbit * aut == group order a nontrivial invariant.  Records are sorted by
    cardinality, then by value tuple.

    Also returns the member table: each encoded orbit member to the index
    of its class before the records are sorted.
    """
    class_of: dict[bytes, int] = {}
    orbits: list[tuple[TernFn, int]] = []
    for f in stream:
        if _encode(f.values) in class_of:
            continue
        members = orbit_values(f.values, n)
        class_of.update(dict.fromkeys(members, len(orbits)))
        orbits.append((f, len(members)))
    records = [ClassRecord(f, size, aut_order(f)) for f, size in orbits]
    records.sort(key=lambda r: (r.cardinality, r.representative.values))
    return records, class_of


def double_count_check(classes: Sequence[ClassRecord], expected_total: int, n: int) -> bool:
    """Sum of group_order/aut over classes must reproduce the plain count."""
    return sum(group_order(n) // rec.aut for rec in classes) == expected_total


def equivalent(f: TernFn, g: TernFn) -> bool:
    """Whether some isometry (with optional sign flip) maps f to g."""
    return _match_count(f, g, find_one=True) > 0


def count_isometries_onto(f: TernFn, g: TernFn) -> int:
    """Number of group elements mapping f to g (0 when inequivalent)."""
    return _match_count(f, g, find_one=False)


def _value_counts(values: tuple[int, ...]) -> tuple[int, int, int]:
    p = m = 0
    for v in values:
        if v > 0:
            p += 1
        elif v < 0:
            m += 1
    return (p, m, len(values) - p - m)


def _match_count(f: TernFn, g: TernFn, find_one: bool) -> int:
    """Backtracking matcher: assign source coordinates and symbol
    permutations to target positions one at a time, pruning on value-count
    profiles of the aligned retract lists.  Sub-problems are memoised for
    the duration of the call, so a symmetric function pays for each
    distinct pair of aligned retract lists once rather than once per
    automorphism.  With find_one the search stops at the first match and
    the result is only meaningful as zero or nonzero."""
    if f.n != g.n:
        return 0
    n = f.n
    memo: dict[tuple, int] = {}
    total = 0
    for sign in (1, -1):
        fv = f.values if sign == 1 else tuple(-v for v in f.values)
        total += _match_rec((fv,), (g.values,), n, memo, find_one)
        if find_one and total:
            return total
    return total


def _retract_tuple(values: tuple[int, ...], m: int, coord: int, val: int) -> tuple[int, ...]:
    cells = cube.retract_cells(m, 3, coord, val)
    return tuple(values[c] for c in cells)


def _match_rec(
    fs: tuple[tuple[int, ...], ...],
    gs: tuple[tuple[int, ...], ...],
    m: int,
    memo: dict[tuple, int],
    find_one: bool,
) -> int:
    if m == 0:
        return 1 if all(a[0] == b[0] for a, b in zip(fs, gs)) else 0
    # the count below a node depends only on its aligned retract lists
    key = (fs, gs)
    hit = memo.get(key)
    if hit is not None:
        return hit
    g_blocks = [
        [_retract_tuple(g, m, 0, s) for s in (0, 1, 2)] for g in gs
    ]
    g_counts = [[_value_counts(b) for b in blocks] for blocks in g_blocks]
    total = 0
    for c in range(m):
        f_blocks = [
            [_retract_tuple(f, m, c, s) for s in (0, 1, 2)] for f in fs
        ]
        f_counts = [[_value_counts(b) for b in blocks] for blocks in f_blocks]
        for sp in _SYM3:
            # target block s comes from source value sp^{-1}(s); iterate via
            # source value d landing in block sp[d]
            ok = True
            for fc, gc in zip(f_counts, g_counts):
                for d in range(3):
                    if fc[d] != gc[sp[d]]:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            new_fs = []
            new_gs = []
            for fb, gb in zip(f_blocks, g_blocks):
                for d in range(3):
                    new_fs.append(fb[d])
                    new_gs.append(gb[sp[d]])
            total += _match_rec(tuple(new_fs), tuple(new_gs), m - 1, memo, find_one)
            if find_one and total:
                return total
    memo[key] = total
    return total

"""Exhaustive enumeration of line-sum-zero {-1,0,+1} functions on Q_3^n.

The search never branches on a whole cube: cells split into three layers by
the first coordinate, the layer at digit 0 and the layer at digit 1 are
enumerated recursively, and the digit-2 layer is forced cellwise to
-(f0 + f1).  A digit-1 value v survives next to f0's value s when -s-v
stays in {-1,0,+1} and inside the digit-2 cell's domain, so a branch dies
as soon as one digit-1 cell has no value left.  Functions stream in lex
order of their value vectors under -1 < 0 < +1.

Domains are bit-sliced.  A domain vector over L cells is one int of 3L
bits: bit 3c + (v+1) allows value v at cell c, so cell c is octal digit c,
and a solution is the one-hot case.  With B0 the int that has bit 3c set
for every cell, x & B0, (x >> 1) & B0 and (x >> 2) & B0 are the planes of
the values -1, 0 and +1.  Every step on a layer is a fixed number of
big-integer operations, never a loop over its cells: restricting the
digit-1 domains, the empty-cell check, forcing the digit-2 layer, and the
support weight (L minus the bits of the 0 plane).

The restriction runs once per node: _restriction computes the node's
masks, and the stream and the count each apply the per-head step inline,
in their own loop over the heads of the digit-0 layer.

One cache, _index(n) for n <= 4, holds the full stream's packed
solutions in stream order and a bit-column index over them: column k
holds, one bit per solution, the solutions that set packed domain bit k.
The solutions inside a domain vector are those outside the OR of the
columns of the bits it clears (_misfits; the bitmap index of O'Neil and
Quass, SIGMOD 1997).  The index is the one leaf of both searches, and no
memo keyed by domains is kept.  The count stops at n = 4 on the popcount
of that OR, the stream on the solutions it leaves (_tails): a node at
n <= 3 is one read, and a node at n = 4 or 5 reads its digit-1 tails one
dimension down, whatever the domains.

A streamed solution is decoded once: its octal digits, translated to
signed bytes, are unpacked into the value tuple by one cached struct call
per n, and its cardinality is read off the 0 plane, so the TernFn never
counts its zeros.  The direct count runs in one process and stops at
n = 5: it is the cross-check of `count_by_retract_classes`, the one
production count, which reads N(n) for n <= 6 off the class layer one
dimension down and alone fans work over worker processes.

One cached class layer, `_class_layer(n)` for n <= 5, serves every
class-based count: it keeps the first completion of an n-1 representative
per retract-class key, so each representative is its class's canonical
form, which `symmetry.canonical_form` reads through the layer's class
index.  The spectrum and the class-based count stream those completions,
weighted by orbit size; the double count also certifies the keys.

All counters are exact Python integers; reports serialize them as decimal
strings because the dimension-7 reference values overflow 64 bits.
"""

from __future__ import annotations

import itertools
import struct
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import or_
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import cube
from .errors import BrokenInvariant, DimensionTooLarge, DimensionTooSmall
from .funcspace import BoolFn, TernFn, trade_from_tern, u_from_bool
from .symmetry import ClassRecord, aut_order, group_order
from .trade import BipartiteTrade, TradeSet

# ---------------------------------------------------------------------------
# Packed domains: 3 bits per cell, bit 3c + (v+1) allows value v at cell c
# ---------------------------------------------------------------------------

FULL_MASK = 0b111

_DIGIT_VALUE = bytes.maketrans(b"124", b"\xff\x00\x01")  # signed bytes -1, 0, +1


@lru_cache(maxsize=None)
def _b0(cells: int) -> int:
    """The -1 plane: bit 3c set for every cell c < cells."""
    return int("1" * cells, 8)


# octal digit of every domain that lists each of its values once
_DOMAIN_DIGIT = {
    dom: str(sum(1 << (v + 1) for v in dom))
    for k in range(4)
    for dom in itertools.permutations((-1, 0, 1), k)
}


def _packed_domains(n: int, cell_domains: Optional[Sequence[Iterable[int]]]) -> int:
    """Public domain spec (one iterable of allowed values per cell, or None
    for no restriction) to a packed int: cell c is octal digit c."""
    if n < 0:
        raise DimensionTooSmall(f"dimension must be >= 0, got {n}")
    if cell_domains is None:
        return FULL_MASK * _b0(3 ** n)
    digits = [
        _DOMAIN_DIGIT.get(dom) or _DOMAIN_DIGIT.get(tuple(dict.fromkeys(dom)))
        for dom in map(tuple, cell_domains)
    ]
    if None in digits:
        raise ValueError(f"cell {digits.index(None)}: domain value outside {{-1,0,1}}")
    if len(digits) != 3 ** n:
        raise ValueError("need one domain per cell")
    return int("".join(reversed(digits)), 8)


def _pinned(layer: Sequence[int]) -> int:
    """Domains one dimension up with the digit-0 layer fixed to `layer` and
    the other two layers free."""
    pin = "".join(_DOMAIN_DIGIT[(v,)] for v in reversed(layer))
    return int("7" * (2 * len(layer)) + pin, 8)


def _mirror(x: int, b0: int) -> int:
    """Swap the -1 and +1 planes: value v becomes -v in every cell."""
    return (x & b0) << 2 | x & (b0 << 1) | (x >> 2) & b0


def _twist(f: int, b0: int) -> tuple[int, int, int]:
    """The masks of the cells where solution f is 0, -1 and +1, the last two
    without bit 0 and bit 2 respectively (see _restriction)."""
    return ((f >> 1) & b0) * 7, (f & b0) * 6, ((f >> 2) & b0) * 3


def _restriction(n: int, doms: int) -> tuple[int, int, int, int, int]:
    """(b0, d0, up, mid, down) of a node at dimension n: the -1 plane of a
    layer, the digit-0 layer's domains, and the parts of the digit-1
    domains that fit a digit-0 value of -1, 0 and +1.

    A digit-1 value v fits next to f0's value s when the forced digit-2
    value -s-v lies in the digit-2 domain: per cell, the mirrored digit-2
    domain shifted up one bit (s = -1), left alone (s = 0) or shifted down
    (s = +1).  The twist (z, m, p) of a head f0 picks those shifts per
    cell, so its digit-1 domains are d1p = mid & z | up & m | down & p,
    and a cell of d1p with no bit left ends the branch; the same twist
    turns a mirrored digit-1 layer into the forced digit-2 layer.
    """
    w = 3 ** n  # bits per layer
    b0 = _b0(3 ** (n - 1))
    full = FULL_MASK * b0
    d1, r2 = (doms >> w) & full, _mirror(doms >> 2 * w, b0)
    # the shifts carry bits in from the neighbouring cells; the s = -1 mask
    # has no bit 0 and the s = +1 mask no bit 2, which drops them
    return b0, doms & full, d1 & (r2 << 1), d1 & r2, d1 & (r2 >> 1)


def _heads(n: int, doms: int) -> Iterator[tuple[int, tuple[int, int, int]]]:
    """(f, twist) for every solution f inside `doms`, lex order."""
    b0 = _b0(3 ** n)
    return ((f, _twist(f, b0)) for f in _enum(n, doms))


def _enum(n: int, doms: int) -> Iterable[int]:
    """All packed solutions inside `doms`, lex-ascending under -1 < 0 < +1:
    read off _index(n) at n <= 3, split by the first coordinate above."""
    return _tails(n, doms) if n <= 3 else _enum_split(n, doms)


def _enum_split(n: int, doms: int) -> Iterator[int]:
    w = 3 ** n
    b0, d0, up, mid, down = _restriction(n, doms)
    b1 = b0 << 1
    for f0, (z, m, p) in _heads(n - 1, d0):
        d1p = mid & z | up & m | down & p
        if (d1p | d1p >> 1 | d1p >> 2) & b0 == b0:
            for f1 in _tails(n - 1, d1p):
                r1 = (f1 & b0) << 2 | f1 & b1 | (f1 >> 2) & b0  # _mirror(f1, b0)
                f2 = r1 & z | (r1 << 1) & m | (r1 >> 1) & p
                yield f0 | f1 << w | f2 << 2 * w


@lru_cache(maxsize=None)
def _decoder(n: int) -> Callable[[int], tuple[int, ...]]:
    """Packed solution at dimension n to its value tuple: the octal digits,
    cell 0 first, translated once to signed bytes and unpacked in one call."""
    unpack = struct.Struct(f"{3 ** n}b").unpack

    def decode(f: int) -> tuple[int, ...]:
        return unpack(oct(f)[:1:-1].encode().translate(_DIGIT_VALUE))

    return decode


_BLOCK = 4096  # solutions per block of the column build
# an octal digit of a solution to "1" where it holds value -1, 0 and +1
_VALUE_BITS = tuple(bytes.maketrans(b"124", bits) for bits in (b"100", b"010", b"001"))
_CLEARED = bytes.maketrans(b"01", b"\x01\x00")  # binary digits to selectors of the 0 bits
_BYTE_BITS = tuple(tuple(i for i in range(8) if b >> i & 1) for b in range(256))


@lru_cache(maxsize=None)
def _index(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(sols, cols): the full stream at n <= 4, packed, in stream order,
    and its bit-column index.

    The three one-hot domains at n = 0; above, the first-coordinate split
    of the full domains, whose heads and tails read _index(n - 1).  Bit i
    of cols[3c + v + 1] is set when sols[i] has value v at cell c, so
    column k belongs to packed domain bit k.  The build transposes the
    octal digits of blocks of _BLOCK solutions, so besides sols and the
    columns it holds one block's text at a time.  DimensionTooLarge above
    n = 4, before any build: the n = 5 index would hold N(5), 32M
    solutions."""
    if n > 4:
        raise DimensionTooLarge(f"column index capped at n=4, got {n}")
    cells = 3 ** n
    sols = (0b001, 0b010, 0b100) if n == 0 else tuple(_enum_split(n, FULL_MASK * _b0(cells)))
    cols = [0] * (3 * cells)
    for start in range(0, len(sols), _BLOCK):
        # a solution has a nonzero digit at every cell, so its oct() text
        # is "0o" and `cells` digits, cell 0 last: cell c is every
        # (cells + 2)-th byte of the block's texts from cells + 1 - c.  The
        # block goes in reversed, so its first solution is the low bit
        text = "".join(map(oct, reversed(sols[start : start + _BLOCK]))).encode()
        for c in range(cells):
            column = text[cells + 1 - c :: cells + 2]
            for k, values in enumerate(_VALUE_BITS, 3 * c):
                cols[k] |= int(column.translate(values), 2) << start
    return sols, tuple(cols)


def _misfits(n: int, doms: int) -> tuple[tuple[int, ...], int]:
    """(sols, miss) at n <= 4: the solutions of _index(n), and the OR of
    the columns of the bits `doms` clears, so bit i of miss is set when
    sols[i] holds a value `doms` does not allow."""
    sols, cols = _index(n)
    # a sentinel bit above the 3^(n+1) domain bits keeps bin() from
    # dropping the cleared bits at the top
    cleared = bin(doms | 1 << 3 ** (n + 1))[:2:-1].encode().translate(_CLEARED)
    return sols, reduce(or_, itertools.compress(cols, cleared), 0)


def _tails(n: int, doms: int) -> list[int]:
    """The solutions inside `doms` at n <= 4, in stream order: the bits of
    _misfits(n, doms) left clear, their nonzero bytes expanded through
    _BYTE_BITS.

    The read costs a pass over all N(n) bits however few tails fit, and it
    is the stream's one leaf: every node at n <= 3, and every digit-1
    layer of a node at n = 4 or 5, whatever the domains."""
    sols, miss = _misfits(n, doms)
    total = len(sols)
    data = (miss ^ (1 << total) - 1).to_bytes((total + 7) // 8, "little")
    return [
        sols[8 * i + bit]
        for i in itertools.compress(range(len(data)), data)
        for bit in _BYTE_BITS[data[i]]
    ]


def _count(n: int, doms: int) -> int:
    """The number of solutions inside `doms`.  At n <= 4 it is N(n) minus
    the popcount of _misfits(n, doms), the read the stream's _tails makes;
    a popcount takes no step per solution that fits, so the count reads
    the index however few bits `doms` clears.  Above, the per-head
    restriction of _enum_split with a count in place of the stream."""
    if n <= 4:
        sols, miss = _misfits(n, doms)
        return len(sols) - miss.bit_count()
    b0, d0, up, mid, down = _restriction(n, doms)
    total = 0
    for _, (z, m, p) in _heads(n - 1, d0):
        d1p = mid & z | up & m | down & p
        if (d1p | d1p >> 1 | d1p >> 2) & b0 == b0:
            total += _count(n - 1, d1p)
    return total


# ---------------------------------------------------------------------------
# Public streaming / counting API
# ---------------------------------------------------------------------------

STREAM_MAX_N = 5


def enumerate_functions(
    n: int, cell_domains: Optional[Sequence[Iterable[int]]] = None
) -> Iterator[TernFn]:
    """Stream every line-sum-zero function once, in lex cell order."""
    if n > STREAM_MAX_N:
        raise DimensionTooLarge(f"streaming capped at n={STREAM_MAX_N}")
    doms = _packed_domains(n, cell_domains)  # first: it rejects n < 0
    cells, b0 = 3 ** n, _b0(3 ** n)
    decode, new = _decoder(n), TernFn._unchecked
    for f in _enum(n, doms):
        # the 0 plane counts the zeros
        yield new(n, decode(f), cells - ((f >> 1) & b0).bit_count())


COUNT_MAX_N = 5


def count_functions(n: int, cell_domains: Optional[Sequence[Iterable[int]]] = None) -> int:
    """Exact count of line-sum-zero functions, optionally restricted: the
    direct count, serial, and the oracle of `count_by_retract_classes`.
    Its recursion ends in popcounts over the column index of _index(n)
    at n <= 4, which the first call builds, whatever the domains; the
    stream reads the same index for its tails (_tails)."""
    if n > COUNT_MAX_N:
        raise DimensionTooLarge(f"counting capped at n={COUNT_MAX_N}")
    return _count(n, _packed_domains(n, cell_domains))


def _count_units(n: int, units: Sequence[tuple[int, int]]) -> int:
    return sum(weight * _count(n, doms) for weight, doms in units)


def _workers(jobs: int, units: Sequence[tuple[int, int]]) -> int:
    """The processes `_fan_out` counts `units` in: at most one per unit,
    and 1, the caller's own, for one unit or none."""
    return max(1, min(jobs, len(units)))


def _fan_out(n: int, units: Sequence[tuple[int, int]], jobs: int) -> int:
    """Sum of weight * _count(n, doms) over the (weight, doms) units, the
    classes of `count_by_retract_classes`.

    Worker w of _workers(jobs, units) forked workers takes units[w::jobs];
    the merge is an integer sum, so the result does not depend on `jobs`.
    For one worker no pool opens.  The package starts no threads; the
    parent builds the column index its counts end in before it forks, so
    the workers inherit it.
    """
    jobs = _workers(jobs, units)
    if jobs == 1:
        return _count_units(n, units)
    import multiprocessing as mp

    _index(min(n, 4))  # built once here, inherited by every worker
    with mp.get_context("fork").Pool(jobs) as pool:
        return sum(pool.starmap(_count_units, [(n, units[w::jobs]) for w in range(jobs)]))


# ---------------------------------------------------------------------------
# Class-accelerated counting and the spectrum
# ---------------------------------------------------------------------------

def count_by_retract_classes(n: int, jobs: int = 1) -> int:
    """N(n), the package's one production count: the completions of each
    class representative at n-1 as the first hyperplane, weighted by orbit
    size, which certifies the layer at n; `jobs` > 1 fans the classes over
    forked workers (`_fan_out`).  The zero representative's completions
    are the (0, g, -g), so it adds N(n-1), the layer's certified orbit sum.
    At n <= 0 it is the direct count, which rejects n < 0.  Capped at
    n = CLASSIFY_MAX_N + 1 = 6, one above the class layer."""
    if n < 1:
        return count_functions(n)
    if n > CLASSIFY_MAX_N + 1:
        raise DimensionTooLarge(f"class count capped at n={CLASSIFY_MAX_N + 1}")
    layer = _class_layer(n - 1)[0]
    return sum(rec.orbit_size for rec in layer) + _fan_out(n, _units(n), jobs)


def _units(n: int) -> list[tuple[int, int]]:
    """The (orbit size, domains) units of the class count at n >= 1: each
    nonzero class at n-1 with its representative as the first hyperplane."""
    return [
        (rec.orbit_size, _pinned(rec.representative.values))
        for rec in _class_layer(n - 1)[0]
        if rec.representative.cardinality
    ]


def count_workers(n: int, jobs: int) -> int:
    """The processes `count_by_retract_classes(n, jobs)` counts in; call it
    after the count, which rejects the n it cannot count."""
    return 1 if n < 1 else _workers(jobs, _units(n))


@dataclass
class SpectrumTable:
    """Bitrade counts by cardinality (sets, i.e. sign functions / 2)."""

    n: int
    entries: dict[int, int]
    total_functions: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": str(self.total_functions),
            "entries": [
                {"size": s, "sets": str(c)} for s, c in sorted(self.entries.items())
            ],
        }


SPECTRUM_MAX_N = 5


def spectrum(n: int) -> SpectrumTable:
    """Exact per-cardinality bitrade counts: one stream per class of the
    class layer at n-1, its first hyperplane pinned to the representative,
    each function's support weight counted orbit-size times."""
    if n < 1:
        raise DimensionTooSmall("spectrum available for n >= 1")
    if n > SPECTRUM_MAX_N:
        raise DimensionTooLarge(f"spectrum available for n <= {SPECTRUM_MAX_N}")
    cells, b0 = 3 ** n, _b0(3 ** n)
    counts: Counter[int] = Counter()
    total = 0
    for rec in _class_layer(n - 1)[0]:
        weight = rec.orbit_size
        for f in _enum(n, _pinned(rec.representative.values)):
            total += weight
            w = cells - ((f >> 1) & b0).bit_count()  # the 0 plane counts zeros
            if w:
                counts[w] += weight
    if any(c % 2 for c in counts.values()):
        raise BrokenInvariant("every set has two sign functions, got an odd count")
    return SpectrumTable(n, {s: c // 2 for s, c in counts.items()}, total)


# ---------------------------------------------------------------------------
# The class layer
# ---------------------------------------------------------------------------

CLASSIFY_MAX_N = 5


class _ClassIndex(dict):
    """Value string, as the signed bytes of `cube.signed_bytes`, to the
    position of its class in a layer's records, filled on first lookup
    through the layer's certified keys."""

    def __init__(self, n: int, position: dict[tuple, int], below: dict[bytes, int]):
        super().__init__()
        self.n, self.position, self.below = n, position, below

    def __missing__(self, code: bytes) -> int:
        pos = self[code] = self.position[_retract_class_key(code, self.n, self.below)]
        return pos


@lru_cache(maxsize=None)
def _class_layer(n: int) -> tuple[tuple[ClassRecord, ...], dict[bytes, int]]:
    """The classes at dimension n, records sorted by (cardinality, values),
    and their class index; both shared, so callers copy the records and
    only read the index.

    The candidates (the three functions at n = 0, else the completions of
    the n-1 representatives in value order) stream lex-ascending and hit
    every class.  The first per _retract_class_key is kept, and it is the
    class's lex-minimal member: that member's first block is lex-minimal
    in its n-1 class (else an isometry fixing coordinate 0 would lower
    it), so it is a candidate.  A key never splits a class, so the kept
    orbits sum to N(n), counted on a path of its own, exactly when no key
    merges two; otherwise BrokenInvariant.
    """
    if n < 0:
        raise DimensionTooSmall(f"dimension must be >= 0, got {n}")
    if n > CLASSIFY_MAX_N:
        raise DimensionTooLarge(f"classification capped at n={CLASSIFY_MAX_N}")
    if n == 0:
        below: dict[bytes, int] = {}
        candidates: Iterable[int] = _enum(0, FULL_MASK)
    else:
        layer, below = _class_layer(n - 1)
        heads = sorted(rec.representative.values for rec in layer)
        candidates = itertools.chain.from_iterable(_enum(n, _pinned(v)) for v in heads)
    kept: dict[tuple, int] = {}
    for f in candidates:
        code = oct(f)[:1:-1].encode().translate(_DIGIT_VALUE)
        kept.setdefault(_retract_class_key(code, n, below), f)
    decode = _decoder(n)
    reps = {key: TernFn(n, decode(f)) for key, f in kept.items()}
    # reps is in lex order, so a stable sort by cardinality orders the
    # records by (cardinality, values)
    keys = sorted(reps, key=lambda k: reps[k].cardinality)
    records = []
    for key in keys:
        aut = aut_order(reps[key])
        records.append(ClassRecord(reps[key], group_order(n) // aut, aut))
    total = sum(r.orbit_size for r in records)
    expected = count_by_retract_classes(n)
    if total != expected:
        raise BrokenInvariant(f"{len(records)} keys cover {total} functions, N({n}) = {expected}")
    return tuple(records), _ClassIndex(n, {k: i for i, k in enumerate(keys)}, below)


def _retract_class_key(code: bytes, n: int, class_of: dict[bytes, int]) -> tuple:
    """Cardinality and, sorted over coordinates, the sorted triple of the
    classes of the three retracts of the signed-byte value string, whose
    zero bytes are the zero cells.  Invariant under isometry and sign, so
    it never splits a class."""
    per_coord = sorted(
        tuple(sorted(class_of[bytes(r)] for r in split(code)))
        for split in cube.retract_splitters(n)
    )
    return len(code) - code.count(0), tuple(per_coord)


def classify_all(n: int) -> tuple[int, list[ClassRecord]]:
    """Equivalence classes of all line-sum-zero functions at dimension n,
    as a fresh list of the class layer's shared, frozen records; each
    representative is its class's canonical form."""
    records = list(_class_layer(n)[0])
    return len(records), records


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

CATALOG_MAX_N = 4


def unitrade_supports(n: int) -> Iterator[tuple[int, int]]:
    """(truth table, support mask) over all 2^(2^n) unitrades, each support
    built by ``u_from_bool``."""
    if n < 0:
        raise DimensionTooSmall(f"dimension must be >= 0, got {n}")
    if n > CATALOG_MAX_N:
        raise DimensionTooLarge(f"full unitrade catalog capped at n={CATALOG_MAX_N}")
    for bits in range(1 << (1 << n)):
        yield bits, u_from_bool(BoolFn(n, bits)).mask


def bitrade_catalog(n: int) -> list[BipartiteTrade]:
    """Every bitrade of dimension n as a BipartiteTrade, one per set (the
    two sign functions of a trade collapse to one entry), the empty set
    first.  Capped at n = 4 (14938 sets)."""
    if n > CATALOG_MAX_N:
        raise DimensionTooLarge(f"catalog capped at n={CATALOG_MAX_N}")
    out = [BipartiteTrade(TradeSet(n, 3, 0), 0, 0)]
    for f in enumerate_functions(n):
        values = f.values
        first = next((v for v in values if v), 0)
        if first != 1:  # keep the sign choice whose first support cell is +1
            continue
        out.append(trade_from_tern(f))
    return out

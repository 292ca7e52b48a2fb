"""Exhaustive enumeration of line-sum-zero {-1,0,+1} functions on Q_3^n.

The search never branches on a whole cube: cells split into three blocks by
the first coordinate, the block at digit 0 and the block at digit 1 are
enumerated recursively, and the digit-2 block is forced cellwise to
-(f0 + f1).  Compatibility is a per-cell domain intersection (a value v
survives when -f0-v stays in {-1,0,+1} and inside the cell's own domain),
so infeasible branches die at the first bad cell.  Functions stream in lex
order of their value vectors under -1 < 0 < +1.

Counting reuses the recursion with a memo on low-dimensional domain blocks;
the spectrum and the class-based count replace the outer enumeration by one
representative per equivalence class of the hyperplane below, weighted by
orbit size (the double-counting trick that also validates N(n)).

All counters are exact Python integers; reports serialize them as decimal
strings because the dimension-7 reference values overflow 64 bits.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .errors import (
    BrokenInvariant,
    CheckpointMismatch,
    DimensionTooLarge,
    DimensionTooSmall,
    Interrupted,
)
from .funcspace import TernFn, trade_from_tern
from .symmetry import ClassRecord, classify, group_order
from .trade import BipartiteTrade, mod3_admissible

# ---------------------------------------------------------------------------
# Cell domains: 3-bit masks, bit (v+1) allows value v
# ---------------------------------------------------------------------------

FULL_MASK = 0b111

_POP = tuple(bin(m).count("1") for m in range(8))

# the 7 single-line solutions (a, b, c) with a+b+c = 0, lex order
_SOLS1 = tuple(
    sorted(
        (a, b, c)
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
        for c in (-1, 0, 1)
        if a + b + c == 0
    )
)

# _RESTRICT[((s+1)*8 + m1)*8 + m2]: allowed mask for the digit-1 cell when
# the digit-0 cell took value s and the digit-2 cell has domain m2
_RESTRICT = [0] * 192
for _s in (-1, 0, 1):
    for _m1 in range(8):
        for _m2 in range(8):
            _out = 0
            for _v in (-1, 0, 1):
                if (_m1 >> (_v + 1)) & 1:
                    _c = -_s - _v
                    if -1 <= _c <= 1 and (_m2 >> (_c + 1)) & 1:
                        _out |= 1 << (_v + 1)
            _RESTRICT[((_s + 1) * 8 + _m1) * 8 + _m2] = _out


def _full_domains(n: int) -> tuple[int, ...]:
    return (FULL_MASK,) * 3 ** n


def domains_from_values(cell_domains: Sequence[Iterable[int]]) -> tuple[int, ...]:
    """Public domain spec (iterables of allowed values) to internal masks."""
    out = []
    for dom in cell_domains:
        m = 0
        for v in dom:
            if v not in (-1, 0, 1):
                raise ValueError(f"domain value {v} outside {{-1,0,1}}")
            m |= 1 << (v + 1)
        out.append(m)
    return tuple(out)


def compatible_domains(layer: Sequence[int]) -> tuple[int, ...]:
    """Domains for a second layer next to a fixed first layer: value v is
    allowed at a cell when the forced third value -(s+v) stays in range."""
    return tuple(_RESTRICT[((s + 1) * 8 + FULL_MASK) * 8 + FULL_MASK] for s in layer)


def _restrict(
    d1: Sequence[int], d2: Sequence[int], f0: Sequence[int]
) -> Optional[tuple[int, ...]]:
    out = []
    R = _RESTRICT
    for s, m1, m2 in zip(f0, d1, d2):
        m = R[((s + 1) * 8 + m1) * 8 + m2]
        if not m:
            return None
        out.append(m)
    return tuple(out)


def _enum(n: int, doms: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All solutions as value tuples, lex-ascending under -1 < 0 < +1."""
    if n == 1:
        m0, m1, m2 = doms
        for s in _SOLS1:
            if (m0 >> (s[0] + 1)) & 1 and (m1 >> (s[1] + 1)) & 1 and (m2 >> (s[2] + 1)) & 1:
                yield s
        return
    if n == 0:
        for v in (-1, 0, 1):
            if (doms[0] >> (v + 1)) & 1:
                yield (v,)
        return
    t = 3 ** (n - 1)
    d0, d1, d2 = doms[:t], doms[t : 2 * t], doms[2 * t :]
    for f0 in _enum(n - 1, d0):
        d1p = _restrict(d1, d2, f0)
        if d1p is None:
            continue
        for f1 in _enum(n - 1, d1p):
            yield f0 + f1 + tuple(-a - b for a, b in zip(f0, f1))


_MEMO2: dict[bytes, int] = {}


def _count(n: int, doms: Sequence[int]) -> int:
    if n >= 3:
        return _count_rec(n, doms)
    if n == 2:
        key = bytes(doms)
        r = _MEMO2.get(key)
        if r is None:
            r = _count_rec(2, doms)
            _MEMO2[key] = r
        return r
    if n == 1:
        c = 0
        m0, m1, m2 = doms
        for s in _SOLS1:
            if (m0 >> (s[0] + 1)) & 1 and (m1 >> (s[1] + 1)) & 1 and (m2 >> (s[2] + 1)) & 1:
                c += 1
        return c
    return _POP[doms[0]]


def _count_rec(n: int, doms: Sequence[int]) -> int:
    t = 3 ** (n - 1)
    d0, d1, d2 = doms[:t], doms[t : 2 * t], doms[2 * t :]
    total = 0
    for f0 in _enum(n - 1, d0):
        d1p = _restrict(d1, d2, f0)
        if d1p is not None:
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
    doms = (
        _full_domains(n)
        if cell_domains is None
        else domains_from_values(cell_domains)
    )
    if len(doms) != 3 ** n:
        raise ValueError("need one domain per cell")
    for values in _enum(n, doms):
        yield TernFn(n, values)


@dataclass
class SearchCheckpoint:
    """Resumable state of a top-block split count.

    The unit of work is one assignment of the first hyperplane; next_index
    points at the first unit not yet folded into partial_count.  Resuming
    a complete checkpoint returns its result without re-searching.
    """

    version: str
    n: int
    domains_digest: str
    next_index: int
    partial_count: int
    complete: bool = False

    VERSION = "tritrade-ckpt/1"

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "n": self.n,
            "domains_digest": self.domains_digest,
            "next_index": self.next_index,
            "partial_count": str(self.partial_count),
            "complete": self.complete,
        }

    @staticmethod
    def from_json(obj) -> "SearchCheckpoint":
        return SearchCheckpoint(
            version=obj["version"],
            n=int(obj["n"]),
            domains_digest=obj["domains_digest"],
            next_index=int(obj["next_index"]),
            partial_count=int(obj["partial_count"]),
            complete=bool(obj.get("complete", False)),
        )

    def save(self, path: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.to_json(), fh)
        os.replace(tmp, path)

    @staticmethod
    def load(path: str) -> "SearchCheckpoint":
        with open(path) as fh:
            return SearchCheckpoint.from_json(json.load(fh))


def _domains_digest(n: int, doms: Sequence[int]) -> str:
    h = hashlib.sha256()
    h.update(f"n={n};".encode())
    h.update(bytes(doms))
    return h.hexdigest()


COUNT_MAX_N = 6
CHECKPOINT_EVERY = 500  # units between checkpoint saves


def count_functions(
    n: int,
    cell_domains: Optional[Sequence[Iterable[int]]] = None,
    jobs: int = 1,
    checkpoint_path: Optional[str] = None,
    unit_budget: Optional[int] = None,
) -> int:
    """Exact count of line-sum-zero functions, optionally restricted.

    Work splits at the first hyperplane: each of its assignments is one
    unit, processed in stream order.  `jobs` fans units over forked
    workers (unit index mod jobs) with a deterministic ordered merge;
    checkpointing and unit budgets apply to the single-worker path.
    """
    if n > COUNT_MAX_N:
        raise DimensionTooLarge(f"counting capped at n={COUNT_MAX_N}")
    doms = (
        _full_domains(n)
        if cell_domains is None
        else domains_from_values(cell_domains)
    )
    if len(doms) != 3 ** n:
        raise ValueError("need one domain per cell")
    if n == 0:
        return _count(0, doms)
    if jobs > 1:
        if checkpoint_path or unit_budget:
            raise ValueError("checkpoint/budget need jobs=1")
        return _count_parallel(n, doms, jobs)

    digest = _domains_digest(n, doms)
    start = 0
    partial = 0
    if checkpoint_path and os.path.exists(checkpoint_path):
        ck = SearchCheckpoint.load(checkpoint_path)
        if (
            ck.version != SearchCheckpoint.VERSION
            or ck.n != n
            or ck.domains_digest != digest
        ):
            raise CheckpointMismatch(f"checkpoint does not match n={n}")
        if ck.complete:
            return ck.partial_count
        start, partial = ck.next_index, ck.partial_count

    t = 3 ** (n - 1)
    d0, d1, d2 = doms[:t], doms[t : 2 * t], doms[2 * t :]
    total = partial
    done_units = 0
    for idx, f0 in enumerate(_enum(n - 1, d0)):
        if idx < start:
            continue
        d1p = _restrict(d1, d2, f0)
        if d1p is not None:
            total += _count(n - 1, d1p)
        done_units += 1
        if checkpoint_path and done_units % CHECKPOINT_EVERY == 0:
            SearchCheckpoint(
                SearchCheckpoint.VERSION, n, digest, idx + 1, total
            ).save(checkpoint_path)
        if unit_budget is not None and done_units >= unit_budget:
            ck = SearchCheckpoint(
                SearchCheckpoint.VERSION, n, digest, idx + 1, total
            )
            if checkpoint_path:
                ck.save(checkpoint_path)
            raise Interrupted(
                f"unit budget {unit_budget} exhausted", checkpoint=ck
            )
    if checkpoint_path:
        SearchCheckpoint(
            SearchCheckpoint.VERSION, n, digest, 0, total, complete=True
        ).save(checkpoint_path)
    return total


def _count_worker(args) -> tuple[int, int]:
    n, doms, jobs, worker = args
    t = 3 ** (n - 1)
    d0, d1, d2 = doms[:t], doms[t : 2 * t], doms[2 * t :]
    total = 0
    for idx, f0 in enumerate(_enum(n - 1, d0)):
        if idx % jobs != worker:
            continue
        d1p = _restrict(d1, d2, f0)
        if d1p is not None:
            total += _count(n - 1, d1p)
    return worker, total


def _count_parallel(n: int, doms: tuple[int, ...], jobs: int) -> int:
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    with ctx.Pool(jobs) as pool:
        parts = pool.map(
            _count_worker, [(n, doms, jobs, w) for w in range(jobs)]
        )
    return sum(total for _, total in sorted(parts))


# ---------------------------------------------------------------------------
# Class-accelerated counting and the spectrum
# ---------------------------------------------------------------------------

def count_by_retract_classes(n: int, classes: Sequence[ClassRecord]) -> int:
    """N(n) from the dimension n-1 classification: one compatible-layer
    count per representative, weighted by orbit size."""
    if n < 1:
        raise ValueError("needs n >= 1")
    total = 0
    for rec in classes:
        doms = compatible_domains(rec.representative.values)
        if not all(doms):
            continue
        total += rec.orbit_size * _count(n - 1, doms)
    return total


@dataclass
class SpectrumTable:
    """Bitrade counts by cardinality (sets, i.e. sign functions / 2)."""

    n: int
    entries: dict[int, int]
    total_functions: int

    def count_at(self, size: int) -> int:
        return self.entries.get(size, 0)

    def sizes(self) -> list[int]:
        return sorted(self.entries)

    def as_list(self) -> list[int]:
        """Counts at 2^n, 2^n+2, ..., 2*3^(n-1)."""
        lo, hi = 2 ** self.n, 2 * 3 ** (self.n - 1)
        return [self.count_at(s) for s in range(lo, hi + 1, 2)]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": str(self.total_functions),
            "entries": [
                {"size": s, "sets": str(c)} for s, c in sorted(self.entries.items())
            ],
        }

    def consistent(self) -> bool:
        ok = self.total_functions == 2 * sum(self.entries.values()) + 1
        return ok and all(
            mod3_admissible(self.n, s) for s, c in self.entries.items() if c
        )


SPECTRUM_MAX_N = 5


def spectrum(n: int, engine: str = "auto") -> SpectrumTable:
    """Exact per-cardinality bitrade counts.

    engine="direct" streams every function and takes support weights
    (n <= 4); engine="classes" runs one weighted stream per equivalence
    class of the hyperplane below (the only feasible route at n = 5).
    """
    if n < 1:
        raise DimensionTooSmall("spectrum available for n >= 1")
    if n > SPECTRUM_MAX_N:
        raise DimensionTooLarge(f"spectrum available for n <= {SPECTRUM_MAX_N}")
    if engine == "auto":
        engine = "direct" if n <= 3 else "classes"
    counts: Counter[int] = Counter()
    if engine == "direct":
        if n > 4:
            raise DimensionTooLarge("direct spectrum capped at n=4")
        total = 0
        for values in _enum(n, _full_domains(n)):
            total += 1
            w = sum(1 for v in values if v)
            if w:
                counts[w] += 1
    elif engine == "classes":
        classes = classify_all(n - 1)[1]
        total = 0
        for rec in classes:
            rep = rec.representative.values
            doms = compatible_domains(rep)
            if not all(doms):
                continue
            w0 = sum(1 for v in rep if v)
            orb = rec.orbit_size
            for f1 in _enum(n - 1, doms):
                w = w0
                for a, b in zip(rep, f1):
                    if b:
                        w += 1
                    if a + b:
                        w += 1
                total += orb
                if w:
                    counts[w] += orb
    else:
        raise ValueError(f"unknown engine {engine!r}")
    if any(c % 2 for c in counts.values()):
        raise BrokenInvariant("every set has two sign functions, got an odd count")
    return SpectrumTable(n, {s: c // 2 for s, c in counts.items()}, total)


# ---------------------------------------------------------------------------
# Classification of the full stream
# ---------------------------------------------------------------------------

CLASSIFY_MAX_N = 4


def classify_all(
    n: int, with_keys: bool = False, allow_stretch: bool = False
) -> tuple[int, list[ClassRecord]]:
    """Equivalence classes of all line-sum-zero functions at dimension n.

    Up to n = 4 the stream is partitioned by orbit closure.  n = 5 is the
    stretch path (allow_stretch): candidates with a canonical first
    hyperplane are deduplicated by backtracking equivalence tests, and
    orbit sizes come from automorphism orders.
    """
    if n <= CLASSIFY_MAX_N:
        stream = enumerate_functions(n) if n >= 1 else iter(
            [TernFn(0, (v,)) for v in (-1, 0, 1)]
        )
        records = classify(stream, n, with_keys=with_keys)
        return len(records), records
    if n == 5 and allow_stretch:
        return _classify_by_candidates(5, with_keys)
    raise DimensionTooLarge(
        f"classification capped at n={CLASSIFY_MAX_N} (n=5 behind allow_stretch)"
    )


def _cheap_invariant(values: tuple[int, ...], n: int) -> tuple:
    """Isometry-and-sign-invariant bucket key: cardinality, sorted
    per-direction retract-size triples, and the degree histogram of the
    support graph."""
    from . import cube as _cube

    card = sum(1 for v in values if v)
    per_coord = []
    for i in range(n):
        sizes = []
        for val in range(3):
            cells = _cube.retract_cells(n, 3, i, val)
            sizes.append(sum(1 for c in cells if values[c]))
        per_coord.append(tuple(sorted(sizes)))
    degrees: dict[int, int] = {}
    lines_of = _cube.lines_through(n, 3)
    line_list = _cube.lines(n, 3)
    for c, v in enumerate(values):
        if not v:
            continue
        deg = 0
        for li in lines_of[c]:
            for other in line_list[li].cells:
                if other != c and values[other]:
                    deg += 1
        degrees[deg] = degrees.get(deg, 0) + 1
    return (card, tuple(sorted(per_coord)), tuple(sorted(degrees.items())))


def _classify_by_candidates(n: int, with_keys: bool) -> tuple[int, list[ClassRecord]]:
    """Classes from one candidate per (class representative of the first
    hyperplane, compatible second layer): every class is hit because any
    function can be moved so its first retract is its class representative.
    Deduplication is a backtracking isometry search inside invariant
    buckets; orbit sizes come from the automorphism counts."""
    from .symmetry import aut_order, canonical_form, equivalent

    _, below = classify_all(n - 1)
    buckets: dict[tuple, list[TernFn]] = {}
    for rec in below:
        rep = rec.representative.values
        doms = compatible_domains(rep)
        if not all(doms):
            continue
        for f1 in _enum(n - 1, doms):
            full = rep + f1 + tuple(-a - b for a, b in zip(rep, f1))
            cand = TernFn(n, full)
            key = _cheap_invariant(full, n)
            bucket = buckets.setdefault(key, [])
            if not any(equivalent(cand, known) for known in bucket):
                bucket.append(cand)
    records = []
    for bucket in buckets.values():
        for rep in bucket:
            aut = aut_order(rep)
            records.append(
                ClassRecord(rep, group_order(n) // aut, aut,
                            canonical_form(rep) if with_keys else None)
            )
    records.sort(key=lambda r: (r.cardinality, r.key or ""))
    return len(records), records


# ---------------------------------------------------------------------------
# Catalogs
# ---------------------------------------------------------------------------

CATALOG_MAX_N = 4


def unitrade_supports(n: int) -> Iterator[tuple[int, int]]:
    """(truth table, support mask) over all 2^(2^n) unitrades, via the ANF:
    the set is the xor of the boolean-exponent subcubes the ANF selects."""
    if n > CATALOG_MAX_N:
        raise DimensionTooLarge(f"full unitrade catalog capped at n={CATALOG_MAX_N}")
    from . import cube as _cube
    from .funcspace import BoolFn, mobius
    from .monomial import subcube_mask

    bool_masks = [subcube_mask(w) for w in _cube.all_words(n, 2)]
    for bits in range(1 << (1 << n)):
        anf = mobius(BoolFn(n, bits)).bits
        m = 0
        i = 0
        while anf:
            if anf & 1:
                m ^= bool_masks[i]
            anf >>= 1
            i += 1
        yield bits, m


def bitrade_catalog(
    n: int, include_empty: bool = True, allow_big: bool = False
) -> list[BipartiteTrade]:
    """Every bitrade of dimension n as a BipartiteTrade, one per set (the
    two sign functions of a trade collapse to one entry).

    Capped at n = 4 (14938 sets) unless allow_big: the n = 5 catalog holds
    about 16 million sets and needs several GB resident.
    """
    if n > CATALOG_MAX_N and not (n == 5 and allow_big):
        raise DimensionTooLarge(f"catalog capped at n={CATALOG_MAX_N}")
    out = []
    if include_empty:
        from .trade import TradeSet

        out.append(BipartiteTrade(TradeSet(n, 3, 0), 0, 0))
    for f in enumerate_functions(n):
        values = f.values
        first = next((v for v in values if v), 0)
        if first != 1:  # keep the sign choice whose first support cell is +1
            continue
        out.append(trade_from_tern(f))
    return out

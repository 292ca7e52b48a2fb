"""The benchmark's three workloads.

A workload builds the package's tables (``setup``), indexes them for its
own input drawing (``prepare``, not part of the set-up time), then hands
out batches of seeded operations (``make_batch``).  Every batch of a workload holds the
same operations in the same numbers; only the drawn inputs change from
batch to batch, so each batch does comparable work and any failure is the
same share of every run.  An operation is ``Op(kind, run, check)``:
``run(tracer)`` makes the package calls, routing each through
``tracer.call`` so a traced run gets one span per call, and ``check(result)``
compares the result with ``oracles`` after the clock has stopped; it
returns an error message or None.  Checks of later operations may read what
earlier checks of the same batch stored.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import partial
from time import perf_counter
from typing import Any, Callable, NamedTuple, Optional

import oracles as O

# N(0..4), the number of line-sum-zero {-1,0,+1} functions on Q_3^n
PUBLISHED_N = (3, 7, 31, 403, 29875)
# N'(3), the number of their equivalence classes at n = 3
PUBLISHED_CLASSES_3 = 5
FULL = (-1, 0, 1)


class Op(NamedTuple):
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], Optional[str]]


def group_order(n: int) -> int:
    """Isometries of Q_3^n with the global sign flip: 2 * n! * 6^n."""
    return 2 * math.factorial(n) * 6 ** n


def stratum_key(values, n: int):
    """(support size, retract profile) of a nonzero function, else None.
    The profile is an isometry invariant, so two functions with different
    keys are never equivalent."""
    p, m = O.signed_masks(values)
    s = p | m
    return (s.bit_count(), O.retract_profile(s, n)) if s else None


def strata(functions, n: int) -> dict:
    """Nonzero functions grouped by stratum key, keys sorted."""
    out: dict = {}
    for f in functions:
        key = stratum_key(f.values, n)
        if key is not None:
            out.setdefault(key, []).append(f)
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# count-n5
# ---------------------------------------------------------------------------

class CountN5:
    """Completions of a pinned first hyperplane of Q_3^5.

    Each batch pins HYPERPLANES seeded nonzero dimension-4 functions and
    counts the completions of each; one hyperplane in STREAM_EVERY is also
    streamed and its support sizes tallied.  The zero hyperplane is left
    out: its completions are the whole dimension-4 list again, and one draw
    in 29875 would add a second and 60 MB to the run that drew it.

    The draw is stratified: the nonzero hyperplanes are ordered by stratum
    key (an isometry invariant, like the number of completions, which sets
    most of an operation's cost) and cut into HYPERPLANES equal slices, and
    operation i of every batch draws uniformly from slice i.  Over many
    batches every hyperplane is as likely as in a uniform draw, but each
    batch holds the same mix of cheap and costly hyperplanes.
    """

    name = "count-n5"
    HYPERPLANES = 40
    STREAM_EVERY = 5

    def __init__(self, tt):
        self.tt = tt
        self._expected: dict[int, int] = {}

    def setup(self) -> dict[str, float]:
        t0 = perf_counter()
        self.fl4 = list(self.tt.enumeration.enumerate_functions(4))
        return {"function_list_s": perf_counter() - t0}

    def prepare(self) -> None:
        ordered = sorted((key, i) for i, f in enumerate(self.fl4)
                         if (key := stratum_key(f.values, 4)) is not None)
        h = self.HYPERPLANES
        self.slices = [[i for _, i in ordered[j * len(ordered) // h:(j + 1) * len(ordered) // h]]
                       for j in range(h)]

    def check_setup(self) -> list[str]:
        errs = []
        E = self.tt.enumeration
        for n, want in enumerate(PUBLISHED_N[:4]):
            got = sum(1 for _ in E.enumerate_functions(n))
            if got != want:
                errs.append(f"N({n}) = {got}, published {want}")
        if len(self.fl4) != PUBLISHED_N[4]:
            errs.append(f"N(4) = {len(self.fl4)}, published {PUBLISHED_N[4]}")
        self.pm = [O.signed_masks(f.values) for f in self.fl4]
        if len(set(self.pm)) != len(self.pm):
            errs.append("dimension-4 list repeats a function")
        if not all(O.is_signed_trade(p, m, 4) for p, m in self.pm):
            errs.append("dimension-4 list holds a function whose line sums are not zero")
        return errs

    def make_batch(self, rng) -> list[Op]:
        self._expected.clear()
        ops = []
        for i in range(self.HYPERPLANES):
            idx = rng.choice(self.slices[i])
            doms = [(v,) for v in self.fl4[idx].values] + [FULL] * 162
            ops.append(Op("count", partial(self._count, doms),
                          partial(self._check_count, idx)))
            if i % self.STREAM_EVERY == 0:
                ops.append(Op("stream", partial(self._stream, doms),
                              partial(self._check_stream, idx)))
        return ops

    def _count(self, doms, tr):
        c = tr.call("enumeration.count_functions",
                    self.tt.enumeration.count_functions, 5, cell_domains=doms)
        tr.count("enumeration.solutions_counted", c)
        return c

    def _stream(self, doms, tr):
        fns = tr.call("enumeration.enumerate_functions", list,
                      self.tt.enumeration.enumerate_functions(5, cell_domains=doms))
        tr.count("enumeration.functions_streamed", len(fns))
        return fns, Counter(f.cardinality for f in fns)

    def expected(self, idx: int) -> int:
        """Completions of hyperplane idx by bitmask scan: the f1 with no
        cell where f0 and f1 carry the same nonzero value."""
        if idx not in self._expected:
            p0, m0 = self.pm[idx]
            self._expected[idx] = sum(
                1 for p, m in self.pm if not (p & p0 or m & m0)
            )
        return self._expected[idx]

    def _check_count(self, idx, got) -> Optional[str]:
        want = self.expected(idx)
        return None if got == want else f"count {got}, bitmask scan {want}"

    def _check_stream(self, idx, result) -> Optional[str]:
        fns, tally = result
        want = self.expected(idx)
        if len(fns) != want:
            return f"streamed {len(fns)}, bitmask scan {want}"
        f0 = self.fl4[idx].values
        if any(f.values[:81] != f0 for f in fns):
            return "streamed function does not keep the pinned hyperplane"
        if len({f.values for f in fns}) != len(fns):
            return "stream repeats a function"
        sizes = Counter(243 - f.values.count(0) for f in fns)
        if sizes != tally:
            return "support tally disagrees with the value vectors"
        bad = [s for s in sizes if not O.mod3_admissible(s, 5)]
        return f"support sizes {bad} break the mod-3 theorem" if bad else None


# ---------------------------------------------------------------------------
# classify-mix
# ---------------------------------------------------------------------------

class ClassifyMix:
    """Point queries of the isometry-group layer.

    Inputs are drawn per stratum (support size and retract profile) rather
    than uniformly, so every batch holds the same mix of cheap and costly
    symmetry classes.  At n = 4 the stratum of the maximal size 2 * 3^3 is
    left out: it is the class of the maximal bitrade, with 1296
    automorphisms, where one `equivalent` takes about 1.7 s and one
    `count_isometries_onto` 3.4 s against a median of 8 ms, so a batch
    would be half that one call and a uniform draw would hit it in some
    runs and not others.

    The n = 3 operations take 10-20 ms each, and the host's timing jitter
    on one such operation is about 15 %.  If the 90th percentile sat on the
    upper edge of that group it would measure the jitter, so each batch
    adds PLATEAU more `equivalent` calls on the n = 4 stratum of support
    PLATEAU_SUPPORT, where the call takes nearly the same time (about
    22 ms) for every member: the 90th percentile falls in the middle of
    that group.
    """

    name = "classify-mix"
    N3_PER_STRATUM = 5
    ISO5 = 6
    PLATEAU = 10
    PLATEAU_SUPPORT = 30

    def __init__(self, tt):
        self.tt = tt

    def setup(self) -> dict[str, float]:
        E, cube = self.tt.enumeration, self.tt.cube
        t0 = perf_counter()
        self.fl3 = list(E.enumerate_functions(3))
        self.fl4 = list(E.enumerate_functions(4))
        t1 = perf_counter()
        for n in (3, 4, 5):
            cube.digit_table(n, 3)
            for coord in range(n):
                for value in range(3):
                    cube.retract_cells(n, 3, coord, value)
        return {"function_list_s": t1 - t0, "cube_tables_s": perf_counter() - t1}

    def prepare(self) -> None:
        self.strata3 = strata(self.fl3, 3)
        self.strata4 = {key: members for key, members in strata(self.fl4, 4).items()
                        if key[0] < 2 * 3 ** 3}
        [self.plateau] = [members for key, members in self.strata4.items()
                          if key[0] == self.PLATEAU_SUPPORT]
        by_size: dict = {}
        for key in self.strata4:
            by_size.setdefault(key[0], []).append(key)
        # same support size, different profile: inequivalent for certain
        self.split_pairs = [
            pair for keys in by_size.values()
            for pair in itertools.combinations(keys, 2)
        ]

    def check_setup(self) -> list[str]:
        errs = []
        if len(self.fl3) != PUBLISHED_N[3] or len(self.fl4) != PUBLISHED_N[4]:
            errs.append(f"N(3), N(4) = {len(self.fl3)}, {len(self.fl4)}")
        return errs

    def _random5(self, rng):
        """A dimension-5 function from two compatible hyperplanes."""
        while True:
            f0 = rng.choice(self.fl4).values
            f1 = rng.choice(self.fl4).values
            if all(a + b in FULL for a, b in zip(f0, f1)):
                return self.tt.funcspace.TernFn(
                    5, f0 + f1 + tuple(-a - b for a, b in zip(f0, f1)))

    def make_batch(self, rng) -> list[Op]:
        TernFn = self.tt.funcspace.TernFn
        ops: list[Op] = []
        for members in self.strata3.values():
            for _ in range(self.N3_PER_STRATUM):
                f = rng.choice(members)
                img = TernFn(3, O.random_image(f.values, 3, rng))
                ops.extend(self._n3_ops(f, img))
        for members in self.strata4.values():
            f = rng.choice(members)
            ops.append(self._equivalent_op(f, TernFn(4, O.random_image(f.values, 4, rng)), True))
        for _ in range(self.PLATEAU):
            f = rng.choice(self.plateau)
            ops.append(self._equivalent_op(f, TernFn(4, O.random_image(f.values, 4, rng)), True))
        for _ in range(self.ISO5):
            f = self._random5(rng)
            ops.append(self._equivalent_op(f, TernFn(5, O.random_image(f.values, 5, rng)), True))
        # one function per stratum that has a same-size partner stratum;
        # its automorphism count, then one equivalence test per pair
        paired = sorted({key for pair in self.split_pairs for key in pair})
        picked = {key: rng.choice(self.strata4[key]) for key in paired}
        auts: dict = {}
        for key in paired:
            ops.append(Op("count_isometries", partial(self._self_maps, picked[key]),
                          partial(self._check_self_maps, auts, key)))
        for ka, kb in self.split_pairs:
            ops.append(Op("equivalent", partial(self._equivalent, picked[ka], picked[kb]),
                          partial(self._check_split_pair, auts, ka, kb)))
        ops.append(Op("classify_all", self._classify3, self._check_classify3))
        return ops

    # -- n = 3: canonical form, orbit, automorphisms -------------------------

    def _n3_ops(self, f, img) -> list[Op]:
        shared: dict = {}
        return [
            Op("canonical_form", partial(self._canon, lambda: f),
               partial(self._check_canon_first, shared, f)),
            Op("canonical_form", partial(self._canon, lambda: img),
               partial(self._check_canon_same, shared, "image")),
            Op("canonical_form",
               partial(self._canon, lambda: self.tt.funcspace.TernFn.from_text(shared["canon"])),
               partial(self._check_canon_same, shared, "canonical form")),
            Op("orbit_values", partial(self._orbit, f),
               partial(self._check_orbit, shared, f, img)),
            Op("aut_order", partial(self._aut, f),
               partial(self._check_aut, shared)),
        ]

    def _canon(self, source, tr):
        return tr.call("symmetry.canonical_form", self.tt.symmetry.canonical_form, source())

    def _check_canon_first(self, shared, f, canon) -> Optional[str]:
        shared["canon"] = canon
        values = tuple({"-": -1, "0": 0, "+": 1}[ch] for ch in canon)
        shared["canon_values"] = values
        return None if values <= f.values else "canonical form exceeds the function"

    def _check_canon_same(self, shared, what, canon) -> Optional[str]:
        ok = canon == shared.get("canon")
        return None if ok else f"canonical form of the {what} differs"

    def _orbit(self, f, tr):
        orbit = tr.call("symmetry.orbit_values", self.tt.symmetry.orbit_values, f.values, 3)
        tr.count("symmetry.orbit_elements", len(orbit))
        return orbit

    def _check_orbit(self, shared, f, img, orbit) -> Optional[str]:
        shared["orbit"] = len(orbit)
        for what, values in (("function", f.values), ("image", img.values),
                             ("canonical form", shared.get("canon_values", ()))):
            if bytes(v + 1 for v in values) not in orbit:
                return f"orbit misses the {what}"
        return None

    def _aut(self, f, tr):
        return tr.call("symmetry.aut_order", self.tt.symmetry.aut_order, f)

    def _check_aut(self, shared, aut) -> Optional[str]:
        got = shared.get("orbit", 0) * aut
        return None if got == group_order(3) else f"orbit * aut = {got}"

    # -- equivalence and automorphism counts --------------------------------

    def _equivalent_op(self, f, g, want: bool) -> Op:
        return Op("equivalent", partial(self._equivalent, f, g),
                  lambda got: None if got == want else f"equivalent {got}, expected {want}")

    def _equivalent(self, f, g, tr):
        return tr.call("symmetry.equivalent", self.tt.symmetry.equivalent, f, g)

    def _self_maps(self, f, tr):
        return tr.call("symmetry.count_isometries_onto",
                       self.tt.symmetry.count_isometries_onto, f, f)

    @staticmethod
    def _check_self_maps(auts, key, aut) -> Optional[str]:
        auts[key] = aut
        if aut < 1 or group_order(4) % aut:
            return f"automorphism count {aut} does not divide the group order"
        return None

    @staticmethod
    def _check_split_pair(auts, ka, kb, got) -> Optional[str]:
        """The pair's retract profiles differ, so it is inequivalent; so is
        every pair whose automorphism orders differ."""
        if got:
            why = "automorphism orders differ" if auts.get(ka) != auts.get(kb) else "profiles differ"
            return f"equivalent on a pair whose {why}"
        return None

    # -- classify_all(3) ----------------------------------------------------

    def _classify3(self, tr):
        return tr.call("enumeration.classify_all", self.tt.enumeration.classify_all, 3)

    def _check_classify3(self, result) -> Optional[str]:
        count, records = result
        if count != PUBLISHED_CLASSES_3 or len(records) != count:
            return f"classify_all(3) gave {count} classes"
        if sum(r.orbit_size for r in records) != PUBLISHED_N[3]:
            return "orbit sizes do not add up to N(3)"
        if any(r.orbit_size * r.aut != group_order(3) for r in records):
            return "orbit * aut differs from the group order"
        return None


# ---------------------------------------------------------------------------
# trade-queries
# ---------------------------------------------------------------------------

class TradeQueries:
    """Light queries on single sets: the bijection, predicates, rank and
    the cardinality formula, the named constructions, and testing sets."""

    name = "trade-queries"
    # boolean functions per dimension, half uniform, half a xor of 1..3
    # monomials; the 20 bijection calls at n = 6 are the slowest 15 % of
    # the batch, so the 90th percentile lies inside them
    BOOL_FUNCTIONS = {4: 4, 5: 4, 6: 10}
    RANKS = 8
    FORMULA_SIZES = (3, 4, 5, 6, 7, 8)
    MONOMIAL_DIMS = (6, 7, 8)
    TRIPLES = 6
    CONSTRUCT_DIMS = (4, 5)   # each family once per dimension
    TESTSETS = 4

    def __init__(self, tt):
        self.tt = tt

    def setup(self) -> dict[str, float]:
        cube, monomial = self.tt.cube, self.tt.monomial
        t0 = perf_counter()
        for n in range(1, max(self.BOOL_FUNCTIONS) + 1):
            cube.lines(n, 3)
            cube.line_masks(n, 3)
            cube.lines_through(n, 3)
        for n in range(3, max(self.CONSTRUCT_DIMS) + 1):
            monomial.f_from_monomials(monomial.MonomialSet(n, []))
        for n in self.MONOMIAL_DIMS:
            monomial.monomial_cube((0,) * n)
        t1 = perf_counter()
        monomial.rank_table(4)
        return {"cube_tables_s": t1 - t0, "rank_table_s": perf_counter() - t1}

    def prepare(self) -> None:
        pass

    def check_setup(self) -> list[str]:
        self.unitrades3 = O.all_unitrades(3)
        return []

    # -- input drawing ------------------------------------------------------

    @staticmethod
    def _word(rng, n):
        return tuple(rng.randrange(3) for _ in range(n))

    def _sparse_bool(self, rng, n) -> int:
        """Truth table of a xor of 1..3 random monomials."""
        mask = O.cube_xor([self._word(rng, n) for _ in range(rng.randint(1, 3))], n)
        return O.boolean_restriction(mask, n)

    def make_batch(self, rng) -> list[Op]:
        tt = self.tt
        ops: list[Op] = []
        for n, count in self.BOOL_FUNCTIONS.items():
            for j in range(count):
                bits = rng.getrandbits(1 << n) if j % 2 == 0 else self._sparse_bool(rng, n)
                ops.extend(self._bool_ops(n, bits, rng))
        for _ in range(self.RANKS):
            bits = rng.getrandbits(16)
            U = tt.trade.TradeSet(4, 3, O.unitrade_of_bool(bits, 4))
            ops.append(Op("rank", self._call("monomial.rank", tt.monomial.rank, U),
                          partial(self._check_rank, bits)))
        for k in self.FORMULA_SIZES:
            n = rng.choice(self.MONOMIAL_DIMS)
            words = set()
            while len(words) < k:
                words.add(self._word(rng, n))
            ops.extend(self._formula_ops(n, sorted(words)))
        for i in range(self.TRIPLES):
            n = self.MONOMIAL_DIMS[i % len(self.MONOMIAL_DIMS)]
            ops.append(self._triple_op(n, rng))
        for n in self.CONSTRUCT_DIMS:
            ops.extend(self._construct_ops(n, rng))
        for _ in range(self.TESTSETS):
            bits = rng.randrange(1, 256)
            U = tt.trade.TradeSet(3, 3, O.unitrade_of_bool(bits, 3))
            ops.append(Op("extract_testset",
                          self._call("testsets.extract_testset", tt.testsets.extract_testset, U),
                          partial(self._check_testset, U.mask)))
        return ops

    @staticmethod
    def _call(name, fn, *args):
        return lambda tr: tr.call(name, fn, *args)

    # -- the bijection and the predicates -----------------------------------

    def _bool_ops(self, n, bits, rng) -> list[Op]:
        tt = self.tt
        TradeSet = tt.trade.TradeSet
        umask = O.unitrade_of_bool(bits, n)
        broken = umask ^ (1 << rng.randrange(3 ** n))
        return [
            Op("u_from_bool",
               self._call("funcspace.u_from_bool", tt.funcspace.u_from_bool, tt.funcspace.BoolFn(n, bits)),
               lambda U: None if U.mask == umask else "u_from_bool differs from the definition"),
            Op("bool_from_unitrade",
               self._call("funcspace.bool_from_unitrade", tt.funcspace.bool_from_unitrade, TradeSet(n, 3, umask)),
               lambda f: None if f.bits == bits else "bool_from_unitrade does not round-trip"),
            Op("is_unitrade",
               self._call("trade.is_unitrade", tt.trade.is_unitrade, TradeSet(n, 3, umask)),
               partial(self._check_is_unitrade, umask, n)),
            Op("is_unitrade",
               self._call("trade.is_unitrade", tt.trade.is_unitrade, TradeSet(n, 3, broken)),
               partial(self._check_is_unitrade, broken, n)),
            Op("bipartition",
               self._call("trade.bipartition", tt.trade.bipartition, TradeSet(n, 3, umask)),
               partial(self._check_bipartition, umask, n)),
        ]

    @staticmethod
    def _check_is_unitrade(mask, n, got) -> Optional[str]:
        want = O.is_unitrade(mask, n)
        return None if got == want else f"is_unitrade {got}, line scan {want}"

    @staticmethod
    def _check_bipartition(mask, n, B) -> Optional[str]:
        legs = O.two_colour(mask, n)
        if (B is None) != (legs is None):
            return f"bipartition says bitrade={B is not None}, 2-colouring {legs is not None}"
        if B is None:
            return None
        return _check_bitrade(B, n, mask.bit_count())

    def _check_rank(self, bits, r) -> Optional[str]:
        terms = O.anf_terms(bits, 4)
        if (r == 0) != (bits == 0) or r > terms:
            return f"rank {r} against {terms} ANF terms"
        return None

    # -- monomial sets ------------------------------------------------------

    def _formula_ops(self, n, words) -> list[Op]:
        monomial = self.tt.monomial
        V = monomial.MonomialSet(n, words)
        want = O.cube_xor(words, n)
        return [
            Op("cardinality_formula", partial(self._formula, V),
               lambda c: None if c == want.bit_count()
               else f"formula {c}, cube xor {want.bit_count()}"),
            Op("trade_from_monomials",
               self._call("monomial.trade_from_monomials", monomial.trade_from_monomials, V),
               lambda U: None if U.mask == want else "trade_from_monomials differs from the cube xor"),
        ]

    def _formula(self, V, tr):
        tr.count("monomial.formula_terms", 2 ** len(V) - 1)
        return tr.call("monomial.cardinality_formula", self.tt.monomial.cardinality_formula, V)

    def _triple_op(self, n, rng) -> Op:
        while True:
            words = [self._word(rng, n) for _ in range(3)]
            if all(sum(a != b for a, b in zip(u, v)) >= 2
                   for u, v in itertools.combinations(words, 2)):
                break
        mask = O.cube_xor(words, n)
        V = self.tt.monomial.MonomialSet(n, words)

        def check(result) -> Optional[str]:
            want = O.two_colour(mask, n) is not None
            return None if result[0] == want else f"triple verdict {result}, 2-colouring {want}"

        return Op("triple_is_bitrade",
                  self._call("monomial.triple_is_bitrade", self.tt.monomial.triple_is_bitrade, V),
                  check)

    # -- constructions ------------------------------------------------------

    def _construct_ops(self, n, rng) -> list[Op]:
        C = self.tt.construct
        s = rng.randrange(n)
        # product factors: a maximal bitrade and a rank-2 one, n_b + n_c = n
        nb = rng.randint(1, n - 1)
        nc = n - nb
        sc = rng.randrange(nc)
        factors = (C.maximal_bitrade(nb), C.rank2_family(nc, sc))
        product_size = _maximal_size(nb) * _rank2_size(nc, sc)
        # extension base: the size-14 witness or a maximal square, m to n
        if n > 3 and rng.random() < 0.5:
            base, base_size = C.bitrade14(3), 14
        else:
            base, base_size = C.maximal_bitrade(2), _maximal_size(2)
        m = n - base.n
        return [
            self._construct_op("maximal_bitrade", C.maximal_bitrade, (n,), n, _maximal_size(n)),
            self._construct_op("rank2_family", C.rank2_family, (n, s), n, _rank2_size(n, s)),
            self._construct_op("bitrade14", C.bitrade14, (n,), n, 14 * 3 ** (n - 3)),
            self._construct_op("product", C.product, factors, nb + nc, product_size),
            self._construct_op("k_extension", C.k_extension, (base, m), base.n + m, 3 ** m * base_size),
        ]

    def _construct_op(self, fname, fn, args, n, size) -> Op:
        def run(tr):
            B = tr.call("construct." + fname, fn, *args)
            tr.count("construct.cells_built", B.cardinality)
            return B
        return Op(fname, run, lambda B: _check_bitrade(B, n, size))

    # -- testing sets -------------------------------------------------------

    def _check_testset(self, umask, T) -> Optional[str]:
        if len(T) != 7:
            return f"testing set of {len(T)} points, expected 2^3 - 1"
        tmask = 0
        for p in T.points:
            tmask |= 1 << (9 * p[0] + 3 * p[1] + p[2])
        if tmask & umask:
            return "testing set meets the unitrade"
        vanishing = {W for W in self.unitrades3 if not W & tmask}
        if vanishing != {0, umask}:
            return f"{len(vanishing)} unitrades vanish on the testing set, expected 0 and U"
        return None


def _maximal_size(n: int) -> int:
    return 2 * 3 ** (n - 1)


def _rank2_size(n: int, s: int) -> int:
    return 2 ** (n + 1) - 2 ** (s + 1)


def _check_bitrade(B, n: int, size: int) -> Optional[str]:
    """Closed-form size, legs that make a signed line-sum-zero function,
    and the mod-3 theorem."""
    if B.n != n or B.cardinality != size:
        return f"bitrade of dimension {B.n} and size {B.cardinality}, expected {n} and {size}"
    if B.part0 | B.part1 != B.base.mask or not O.is_signed_trade(B.part0, B.part1, n):
        return "legs are not a 2-colouring of a bitrade"
    if not O.mod3_admissible(size, n):
        return f"size {size} breaks the mod-3 theorem"
    return None


WORKLOADS = {w.name: w for w in (CountN5, ClassifyMix, TradeQueries)}

"""Shared test utilities."""

import enum
import itertools

from tritrade import cube
from tritrade.construct import embed_in_alphabet, grid_cycle_bitrade
from tritrade.cube import CUBE_FACTOR, Isometry
from tritrade.funcspace import BoolFn, TernFn, tern_from_trade, trade_from_tern, u_from_bool
from tritrade.symmetry import (
    ClassRecord,
    aut_order,
    group_order,
    orbit_values,
)
from tritrade.trade import bipartition

_SYM3 = tuple(itertools.permutations((0, 1, 2)))


def random_q4_unitrade(rng):
    """Products/embeddings of ternary bitrades and grid cycles, randomly
    isotoped inside Q_4^n."""
    n = rng.choice([1, 2])
    if rng.random() < 0.5:
        B = None
        while B is None:
            f = BoolFn(n, rng.getrandbits(1 << n))
            B = bipartition(u_from_bool(f))
        U = embed_in_alphabet(B, 4).base
    else:
        U = grid_cycle_bitrade(4).base
    g = random_isometry(rng, U.n, 4, allow_sign=False)
    return U.apply_isometry(g)


def random_isometry(rng, n, k, allow_sign=True):
    """A random isometry of Q_k^n: a shuffled coordinate order, a shuffled
    alphabet per coordinate and, when allowed, a random sign flip."""
    cp = list(range(n))
    rng.shuffle(cp)
    sps = []
    for _ in range(n):
        sp = list(range(k))
        rng.shuffle(sp)
        sps.append(tuple(sp))
    flip = allow_sign and bool(rng.getrandbits(1))
    return Isometry(tuple(cp), tuple(sps), flip)


def weight(u):
    """The Hamming weight of a word: its nonzero digits."""
    return sum(1 for a in u if a)


def unitrade_by_line_counts(S):
    """Reference unitrade test, independent of the digit-plane view: a
    count of the support cells on each line of ``cube.lines``."""
    return all(count in (0, 2) for count in line_incidence(S))


def line_incidence(S):
    """Per line of ``cube.lines``, the number of support cells on it."""
    m = S.mask
    return tuple(sum(m >> c & 1 for c in ln.cells) for ln in cube.lines(S.n, S.k))


class LineSumKind(enum.Enum):
    ALL_ZERO = "allZero"
    SIGNED_TRIPLE = "signedTriple"
    INVALID = "invalid"


def line_sums(f):
    """Reference line-sum-zero test, independent of `trade_from_tern`: the
    kind of every line of ``cube.lines``, from the values on its cells.

    f lies in the line-sum-zero space (with values in {-1,0,+1}) iff no line
    is INVALID; on such f each line either vanishes or carries one +1, one
    -1 and one 0.
    """
    out = []
    vals = f.values
    for ln in cube.lines(f.n, 3):
        a, b, c = (vals[i] for i in ln.cells)
        if a == b == c == 0:
            out.append(LineSumKind.ALL_ZERO)
        elif a + b + c == 0 and (a or b or c):
            out.append(LineSumKind.SIGNED_TRIPLE)
        else:
            out.append(LineSumKind.INVALID)
    return tuple(out)


def in_gf3_space(f):
    """GF(3)-sum membership: line sums vanish mod 3 only (the monomial
    basis lives here; e.g. the constant 1 sums to 3 on every line)."""
    vals = f.values
    return all(sum(vals[i] for i in ln.cells) % 3 == 0 for ln in cube.lines(f.n, 3))


def gf3_rank(rows):
    """Rank over GF(3) of integer row vectors (any residues accepted)."""
    basis = []
    for row in rows:
        r = [v % 3 for v in row]
        for b in basis:
            lead = next((i for i, v in enumerate(b) if v), None)
            if lead is not None and r[lead]:
                coef = (r[lead] * pow(b[lead], -1, 3)) % 3
                r = [(a - coef * c) % 3 for a, c in zip(r, b)]
        if any(r):
            basis.append(r)
    return len(basis)


def color_by_cells(S):
    """Reference 2-coloring of the induced Hamming graph on S, independent
    of the digit-plane view: a walk from cell to cell over
    ``cube.lines_through``, each component from its smallest cell, which
    gets color 0.  Returns (part0, part1, proper, components)."""
    lines = cube.lines(S.n, S.k)
    through = cube.lines_through(S.n, S.k)
    color = {}
    proper = True
    components = 0
    for start in S.cells():
        if start in color:
            continue
        components += 1
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for li in through[u]:
                for v in lines[li].cells:
                    if v == u or v not in S:
                        continue
                    if v not in color:
                        color[v] = 1 - color[u]
                        stack.append(v)
                    elif color[v] == color[u]:
                        proper = False
    parts = [0, 0]
    for c, col in color.items():
        parts[col] |= 1 << c
    return parts[0], parts[1], proper, components


def canonical_by_recursion(f):
    """Reference canonical form, independent of the class layer: the
    smaller of the retract recursion on f and on -f, the two signs of the
    group, with one memo."""
    memo = {}
    neg = tuple(-v for v in f.values)
    best = min(_canon_rec((f.values,), f.n, memo), _canon_rec((neg,), f.n, memo))
    return TernFn(f.n, best).to_text()


def _canon_rec(fs, m, memo):
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
                children = tuple(b[d] for b in blocks for d in order)
                img = _canon_rec(children, m - 1, memo)
                if best is None or img < best:
                    best = img
    memo[fs] = best
    return best


def k_extension_by_words(B, m):
    """Reference alphabet extension, independent of the fold table: every
    cell of each step rebuilt from its word, with the last two digits
    folded into their sum mod 3."""
    f = tern_from_trade(B)
    for _ in range(m):
        n, values = f.n, f.values
        vals = []
        for word in cube.all_words(n + 1, 3):
            folded = word[: n - 1] + ((word[n - 1] + word[n]) % 3,)
            vals.append(values[cube.cell_of_word(folded, 3)])
        f = TernFn(n + 1, tuple(vals))
    return trade_from_tern(f)


def signed_cube_by_words(v):
    """Reference signed cube b_v, independent of the digit planes: a walk
    over the words of the cube of v, each signed by the parity of its
    digits at the high member of their factor."""
    n = len(v)
    vals = [0] * 3 ** n
    for combo in itertools.product(*(CUBE_FACTOR[d] for d in v)):
        parity = sum(1 for d, x in zip(v, combo) if x == CUBE_FACTOR[d][1])
        vals[cube.cell_of_word(combo, 3)] = -1 if parity % 2 else 1
    return TernFn(n, tuple(vals))


def gf2_basis_by_words(x):
    """Reference GF(2) basis function b_x: a walk over B_x = {y : x <= y},
    each y signed by the parity of the coordinates where it keeps x_i."""
    n = len(x)
    vals = [0] * 3 ** n
    for choice in itertools.product((0, 1), repeat=n):
        y = tuple(x[i] if choice[i] == 0 else 2 for i in range(n))
        low = sum(1 for b in choice if b == 0)
        vals[cube.cell_of_word(y, 3)] = -1 if low % 2 else 1
    return TernFn(n, tuple(vals))


_CENTERED = (0, 1, -1)  # digit -> GF(3) representative


def gf3_basis_by_words(alpha):
    """Reference GF(3) monomial s_alpha: a walk over the words of Q_3^n,
    each the centered product of its digits at the coordinates of alpha."""
    n = len(alpha)
    vals = []
    for word in cube.all_words(n, 3):
        v = 1
        for a, d in zip(alpha, word):
            if a:
                v = (v * _CENTERED[d]) % 3
        vals.append(v - 3 if v == 2 else v)
    return TernFn(n, tuple(vals))


def face_counts_by_words(f):
    """Reference (dimension, ones) of every face of Q_2^n, independent of
    the monomial truth tables: per face spec in {0, 1, free}^n, a walk over
    the words of the face."""
    n = f.n
    out = []
    for spec in itertools.product((0, 1, None), repeat=n):
        free = [i for i, s in enumerate(spec) if s is None]
        ones = 0
        for fill in itertools.product((0, 1), repeat=len(free)):
            word = list(spec)
            for i, b in zip(free, fill):
                word[i] = b
            ones += f.value(cube.cell_of_word(tuple(word), 2))
        out.append((len(free), ones))
    return out


def covering_by_words(n, cell):
    """Reference truth tables of the 2^n monomials whose value at the cell
    of Q_2^n is 1: x_i = 1 is covered by the digits 0 and 1, x_i = 0 by 0
    and 2."""
    word = cube.word_of_cell(cell, n, 2)
    choices = [(0, 1) if d else (0, 2) for d in word]
    return {cube.subcube_mask(v, 2) for v in itertools.product(*choices)}


def maximal_legs_by_word_sums(n):
    """Reference legs of the maximal bitrade: the cells whose digit sum is
    1 / 2 mod 3, from a walk over all words."""
    part = [0, 0, 0]
    for cell, word in enumerate(cube.all_words(n, 3)):
        part[sum(word) % 3] |= 1 << cell
    return part[1], part[2]


def random_n5_function(rng, fl4):
    """A dimension-5 function from two compatible n = 4 hyperplanes drawn
    from the list fl4; the third hyperplane is forced."""
    while True:
        f0 = rng.choice(fl4).values
        f1 = rng.choice(fl4).values
        if all(-1 <= a + b <= 1 for a, b in zip(f0, f1)):
            return TernFn(5, f0 + f1 + tuple(-a - b for a, b in zip(f0, f1)))


_ONE_HOT = {1: -1, 2: 0, 4: 1}  # octal digit of a packed solution to its value


def values_from_packed(f, n):
    """Reference decode of a packed solution, independent of the
    enumeration's decoder: cell c is the octal digit c of f, read with
    shifts and a dict."""
    return tuple(_ONE_HOT[f >> 3 * c & 7] for c in range(3 ** n))


def bool_by_word_walk(U):
    """Reference restriction of a ternary set to Q_2^n: a walk over the
    words of Q_2^n and their cells in Q_3^n."""
    bits = 0
    for c2, word in enumerate(cube.all_words(U.n, 2)):
        if cube.cell_of_word(word, 3) in U:
            bits |= 1 << c2
    return bits


def orbit(f):
    """The orbit of f as a set of functions, from the closure over encoded
    values."""
    keys = orbit_values(f.values, f.n)
    return {TernFn(f.n, tuple(b - 1 for b in key)) for key in keys}


def classify(stream, n):
    """Reference classification, independent of the class layer: partition
    a stream (each function exactly once) into orbits by generator
    closure, with automorphism orders from the isometry matcher, so
    orbit * aut == group order checks two computations that share no
    code.  Records are sorted by cardinality, then by value tuple."""
    seen = set()
    orbits = []
    for f in stream:
        if bytes(v + 1 for v in f.values) in seen:
            continue
        members = orbit_values(f.values, n)
        seen |= members
        orbits.append((f, len(members)))
    records = [ClassRecord(f, size, aut_order(f)) for f, size in orbits]
    records.sort(key=lambda r: (r.cardinality, r.representative.values))
    return records


def double_count_check(classes, expected_total, n):
    """Sum of group_order/aut over classes must reproduce the plain count."""
    return sum(group_order(n) // rec.aut for rec in classes) == expected_total


def match_count_by_runs(f, g, find_one=False):
    """Reference isometry count, independent of the face table: the retract
    recursion on aligned lists of value tuples, each member split and
    counted at every node, pruned against the (#+1, #-1) counts of g's
    runs of 3^(m-1) consecutive cells, all built before the search.  With
    find_one it stops at the first match (then only zero or nonzero is
    meaningful)."""
    if f.n != g.n:
        return 0
    n = f.n
    # targets[m]: at m = 0 the leaf list itself; above, per value order, the
    # counts that the retracts (member i, value d) must have: those of run
    # 3i + order.index(d) of 3^(m-1) cells
    gv = g.values
    targets = [tuple((v,) for v in gv)]
    for size in (3 ** m for m in range(n)):
        runs = [_run_profile(gv[i:i + size]) for i in range(0, 3 ** n, size)]
        targets.append(tuple(
            tuple(runs[i + order.index(d)] for i in range(0, len(runs), 3) for d in range(3))
            for order in _SYM3
        ))
    memo = {}
    total = 0
    for fv in (f.values, tuple(-v for v in f.values)):
        total += _match_runs_rec((fv,), n, targets, memo, find_one)
        if find_one and total:
            return total
    return total


def _run_profile(values):
    return values.count(1), values.count(-1)


def _match_runs_rec(fs, m, targets, memo, find_one):
    if m == 0:
        return 1 if fs == targets[0] else 0
    hit = memo.get(fs)
    if hit is not None:
        return hit
    total = 0
    for split in cube.retract_splitters(m):
        blocks = [split(f) for f in fs]
        counts = tuple(_run_profile(b) for triple in blocks for b in triple)
        for order, want in zip(_SYM3, targets[m]):
            if counts == want:
                children = tuple(b[d] for b in blocks for d in order)
                total += _match_runs_rec(children, m - 1, targets, memo, find_one)
                if find_one and total:
                    return total
    memo[fs] = total
    return total


def text_by_bits(mask, size):
    """Reference cell-order text, independent of the codec: one shift per
    cell."""
    return "".join("1" if mask >> c & 1 else "0" for c in range(size))


def mask_by_chars(text):
    """Reference mask of a 0/1 text, independent of the codec: one
    character at a time, ValueError on any other character."""
    mask = 0
    for c, ch in enumerate(text):
        if ch == "1":
            mask |= 1 << c
        elif ch != "0":
            raise ValueError(f"bad character {ch!r}")
    return mask


def cells_by_shifts(mask):
    """Reference cell list, independent of the codec: the mask shifted
    down one cell at a time."""
    out = []
    c = 0
    while mask:
        if mask & 1:
            out.append(c)
        mask >>= 1
        c += 1
    return out


def bytes_by_bits(mask, size, byte):
    """Reference per-cell bytes: `byte` at each cell of the mask, 0 at the
    others, one cell at a time."""
    return bytes(byte if mask >> c & 1 else 0 for c in range(size))


def signed_masks_by_values(values):
    """Reference masks of the cells holding +1 and of those holding -1,
    one cell at a time."""
    plus = minus = 0
    for c, v in enumerate(values):
        if v == 1:
            plus |= 1 << c
        elif v == -1:
            minus |= 1 << c
    return plus, minus

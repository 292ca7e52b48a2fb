"""Shared test utilities."""

import itertools

from tritrade import cube
from tritrade.construct import embed_in_alphabet, grid_cycle_bitrade
from tritrade.cube import Isometry
from tritrade.funcspace import BoolFn, TernFn, u_from_bool
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
    g = Isometry.random(rng, U.n, 4, allow_sign=False)
    return U.apply_isometry(g)


def unitrade_by_line_counts(S):
    """Reference unitrade test, independent of the digit-plane view: one
    popcount per line of ``cube.line_masks``."""
    return all((S.mask & lm).bit_count() in (0, 2) for lm in cube.line_masks(S.n, S.k))


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

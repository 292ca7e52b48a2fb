"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports the package: cells, lines, unitrades, colourings and
isometries are rebuilt from their definitions, so a check compares the
package against a second computation rather than against itself.  Cells
are base-3 integers with coordinate 0 most significant; a signed function
is a pair of bitmasks (cells with value +1, cells with value -1).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

# digit of an exponent word -> the two digits of its cube factor
CUBE_FACTOR = ((0, 1), (1, 2), (0, 2))


def strides(n: int) -> tuple[int, ...]:
    return tuple(3 ** (n - 1 - i) for i in range(n))


@lru_cache(maxsize=None)
def words(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(itertools.product(range(3), repeat=n))


@lru_cache(maxsize=None)
def line_masks(n: int) -> tuple[int, ...]:
    """Bitmask of the three cells of every line of Q_3^n."""
    out = []
    for i, s in enumerate(strides(n)):
        for c, w in enumerate(words(n)):
            if w[i] == 0:
                out.append((1 << c) | (1 << (c + s)) | (1 << (c + 2 * s)))
    return tuple(out)


@lru_cache(maxsize=None)
def digit_masks(n: int) -> tuple[tuple[int, int, int], ...]:
    """Per coordinate, the cells whose digit there is 0 / 1 / 2."""
    out = []
    for i in range(n):
        m = [0, 0, 0]
        for c, w in enumerate(words(n)):
            m[w[i]] |= 1 << c
        out.append(tuple(m))
    return tuple(out)


def signed_masks(values) -> tuple[int, int]:
    p = m = 0
    for c, v in enumerate(values):
        if v > 0:
            p |= 1 << c
        elif v < 0:
            m |= 1 << c
    return p, m


def is_unitrade(mask: int, n: int) -> bool:
    """Every line meets the set in 0 or 2 cells."""
    return all((mask & ln).bit_count() in (0, 2) for ln in line_masks(n))


def is_signed_trade(p: int, m: int, n: int) -> bool:
    """The function +1 on p, -1 on m sums to zero on every line with
    values in {-1,0,+1}: each line holds one cell of each leg or none."""
    if p & m:
        return False
    for ln in line_masks(n):
        a = (p & ln).bit_count()
        if a > 1 or a != (m & ln).bit_count():
            return False
    return True


def two_colour(mask: int, n: int):
    """Legs of the support graph (cells adjacent when on a common line),
    or None when it has an odd cycle."""
    st = strides(n)
    colour: dict[int, int] = {}
    cells = [c for c in range(3 ** n) if (mask >> c) & 1]
    for start in cells:
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            cu = colour[u]
            for s in st:
                d = (u // s) % 3
                for e in range(3):
                    if e == d:
                        continue
                    v = u + (e - d) * s
                    if not (mask >> v) & 1:
                        continue
                    cv = colour.get(v)
                    if cv is None:
                        colour[v] = 1 - cu
                        stack.append(v)
                    elif cv == cu:
                        return None
    legs = [0, 0]
    for c, col in colour.items():
        legs[col] |= 1 << c
    return legs[0], legs[1]


def mod3_admissible(size: int, n: int) -> bool:
    """The paper's theorem: a bitrade has 0 or 2^n cells modulo 3."""
    return size % 3 in (0, pow(2, n, 3))


def unitrade_of_bool(bits: int, n: int) -> int:
    """U[f] by definition: at y, the xor of f over the boolean words below
    y (every digit 2 of y replaced by 0 or 1)."""
    mask = 0
    for c, w in enumerate(words(n)):
        acc = 0
        for low in itertools.product(*((0, 1) if d == 2 else (d,) for d in w)):
            b = 0
            for d in low:
                b = 2 * b + d
            acc ^= (bits >> b) & 1
        if acc:
            mask |= 1 << c
    return mask


def anf_terms(bits: int, n: int) -> int:
    """Number of monomials in the algebraic normal form of a boolean f."""
    coeffs = [(bits >> c) & 1 for c in range(1 << n)]
    for i in range(n):
        step = 1 << i
        for c in range(1 << n):
            if c & step:
                coeffs[c] ^= coeffs[c ^ step]
    return sum(coeffs)


def cube_xor(exponents, n: int) -> int:
    """Symmetric difference of the monomial cubes: the cube of v is the set
    of words x with x_i in CUBE_FACTOR[v_i] for every i."""
    dms = digit_masks(n)
    mask = 0
    for v in exponents:
        cube = -1
        for dm, d in zip(dms, v):
            a, b = CUBE_FACTOR[d]
            cube &= dm[a] | dm[b]
        mask ^= cube
    return mask


def boolean_restriction(mask: int, n: int) -> int:
    """Truth table over Q_2^n of a set's trace on the words without a 2."""
    bits = 0
    for b, w in enumerate(itertools.product((0, 1), repeat=n)):
        c = 0
        for d in w:
            c = 3 * c + d
        if (mask >> c) & 1:
            bits |= 1 << b
    return bits


def random_image(values: tuple[int, ...], n: int, rng) -> tuple[int, ...]:
    """Image under a random coordinate permutation, symbol permutations in
    every coordinate and sign: y[perm[i]] = sym[i][x[i]], value sign*f(x)."""
    perm = list(range(n))
    rng.shuffle(perm)
    syms = []
    for _ in range(n):
        s = [0, 1, 2]
        rng.shuffle(s)
        syms.append(s)
    sign = rng.choice((1, -1))
    st = strides(n)
    out = [0] * len(values)
    for c, w in enumerate(words(n)):
        target = sum(syms[i][w[i]] * st[perm[i]] for i in range(n))
        out[target] = sign * values[c]
    return tuple(out)


def retract_profile(mask: int, n: int) -> tuple:
    """Isometry invariant of a support: per coordinate, the sorted sizes of
    its three hyperplane sections, sorted over coordinates."""
    return tuple(sorted(
        tuple(sorted((mask & dm).bit_count() for dm in dms))
        for dms in digit_masks(n)
    ))


def all_unitrades(n: int) -> list[int]:
    """Every unitrade of Q_3^n, one per boolean function on Q_2^n."""
    return [unitrade_of_bool(bits, n) for bits in range(1 << (1 << n))]

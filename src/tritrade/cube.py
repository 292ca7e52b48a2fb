"""Geometry of the q-ary hypercube Q_k^n.

Words are tuples of n digits in {0..k-1}.  Every dense array in the package
is indexed by the *cell* of a word: the base-k integer value of its digits
with coordinate 0 as the most significant digit.  For k = 3 the digit 2
plays two roles at once: it is the maximal element of the partial order
(every other digit sits below it) and it represents -1 of GF(3) in the
centered convention used by the function-space layer.

A *line* is a 1-dimensional face: k pairwise adjacent words differing in a
single coordinate.  Lines are the maximal cliques of the Hamming graph and
everything trade-related is phrased through them.  ``line_planes`` reads
them off the digit planes of ``digit_masks``: the trade predicates and
``line_masks`` (the line system of the testing sets) both come from it.
``lines`` and ``lines_through`` walk the words of each line instead; no
module of the package reads them.

Isometries of the cube are generated by coordinate permutations and by
independent symbol permutations in each coordinate.  ``Isometry`` carries an
extra ``sign_flip`` bit which only matters when acting on sign functions:
it swaps the two legs of a bitrade.
"""

from __future__ import annotations

import itertools
import struct
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence


def cell_of_word(word: tuple[int, ...], k: int) -> int:
    c = 0
    for d in word:
        c = c * k + d
    return c


def check_digits(word: tuple[int, ...], k: int) -> None:
    """ValueError unless every digit of word lies in 0..k-1 (a digit -1
    would index the last cell, a digit k the next block)."""
    if not set(range(k)).issuperset(word):
        raise ValueError(f"word digits must lie in 0..{k - 1}: {word}")


def checked_cell(word: tuple[int, ...], n: int, k: int) -> int:
    """The cell of a word that must have n digits in 0..k-1."""
    if len(word) != n:
        raise ValueError(f"expected a word of {n} digits: {word}")
    check_digits(word, k)
    return cell_of_word(word, k)


def word_of_cell(cell: int, n: int, k: int) -> tuple[int, ...]:
    ds = [0] * n
    for i in range(n - 1, -1, -1):
        ds[i] = cell % k
        cell //= k
    return tuple(ds)


def all_words(n: int, k: int) -> Iterator[tuple[int, ...]]:
    return itertools.product(range(k), repeat=n)


@lru_cache(maxsize=None)
def digit_table(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """digit_table(n,k)[cell] = word digits of that cell."""
    return tuple(word_of_cell(c, n, k) for c in range(k ** n))


# ---------------------------------------------------------------------------
# Cell-order codec: bit c of a mask, character c of its text and byte c of
# its bytes all belong to cell c
# ---------------------------------------------------------------------------

_ZERO, _ONE = b"01"  # the bytes of the digits 0 and 1


@lru_cache(maxsize=None)
def _table(byte: int, hit: int, miss: int) -> bytes:
    """A bytes.translate table sending `byte` to `hit` and the rest to `miss`."""
    return bytes(hit if b == byte else miss for b in range(256))


def mask_text(mask: int, size: int) -> str:
    """The 0/1 text of a mask over `size` cells, character c for cell c."""
    return format(mask, f"0{size}b")[::-1]


def text_mask(text: str) -> int:
    """The mask of a 0/1 text, cell c for character c; ValueError on any
    other character (int() alone would read signs, underscores and
    non-ASCII digits)."""
    if not {"0", "1"}.issuperset(text):
        raise ValueError(f"cell text holds {sorted(set(text) - {'0', '1'})}, not only 0 and 1")
    return int(text[::-1] or "0", 2)


def mask_cells(mask: int) -> list[int]:
    """The cells of a mask in increasing order."""
    flags = format(mask, "b")[::-1].encode().translate(_table(_ONE, 1, 0))
    return list(itertools.compress(itertools.count(), flags))


def mask_bytes(mask: int, size: int, byte: int) -> int:
    """The int whose byte c, from the least significant end, is `byte` at
    each cell c of the mask and 0 at the other cells below `size`.  Such
    ints of disjoint masks add, and ``to_bytes(size, "little")`` of the sum
    lists the bytes in cell order."""
    digits = format(mask, f"0{size}b").encode()
    return int.from_bytes(digits.translate(_table(_ONE, byte, 0)), "big")


def bytes_mask(data: bytes, byte: int) -> int:
    """The mask of the cells c with data[c] == byte."""
    return int(data.translate(_table(byte, _ONE, _ZERO))[::-1] or b"0", 2)


@lru_cache(maxsize=None)
def _signed_packer(size: int) -> Callable[..., bytes]:
    return struct.Struct(f"{size}b").pack


def signed_bytes(values: Sequence[int]) -> bytes:
    """Byte c is values[c] as a signed byte (-1 is 0xff)."""
    return _signed_packer(len(values))(*values)


def hamming_distance(u: tuple[int, ...], v: tuple[int, ...]) -> int:
    return sum(1 for a, b in zip(u, v) if a != b)


# ---------------------------------------------------------------------------
# Lines (1-dimensional faces / maximal cliques)
# ---------------------------------------------------------------------------

class Line(NamedTuple):
    direction: int
    base: tuple[int, ...]      # word with digit 0 at `direction`
    cells: tuple[int, ...]     # the k member cells in digit order


@lru_cache(maxsize=None)
def lines(n: int, k: int) -> tuple[Line, ...]:
    """All n*k^(n-1) lines, direction-major, base in lex order: a walk over
    the words of each line."""
    if n == 0:
        return ()
    out = []
    step_of = [k ** (n - 1 - i) for i in range(n)]
    for direction in range(n):
        step = step_of[direction]
        for base_word in itertools.product(
            *[range(k) if i != direction else (0,) for i in range(n)]
        ):
            base_cell = cell_of_word(base_word, k)
            cells = tuple(base_cell + d * step for d in range(k))
            out.append(Line(direction, base_word, cells))
    return tuple(out)


@lru_cache(maxsize=None)
def lines_through(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """lines_through(n,k)[cell] = indices of the n lines containing the cell."""
    table: list[list[int]] = [[] for _ in range(k ** n)]
    for idx, ln in enumerate(lines(n, k)):
        for c in ln.cells:
            table[c].append(idx)
    return tuple(tuple(t) for t in table)


@lru_cache(maxsize=None)
def digit_masks(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """digit_masks(n, k)[i][a] = mask over Q_k^n of the cells whose digit i
    is a: runs of s = k^(n-1-i) cells with period k * s, so a shift by
    a * s moves plane a onto plane 0 along the lines in direction i."""
    out = []
    for i in range(n):
        stride = k ** (n - 1 - i)
        # one bit per period of k * stride cells: a product repeats a block
        repeat = ((1 << k ** n) - 1) // ((1 << k * stride) - 1)
        out.append(tuple((((1 << stride) - 1) << a * stride) * repeat for a in range(k)))
    return tuple(out)


@lru_cache(maxsize=None)
def line_planes(n: int, k: int) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
    """Per coordinate i with digit stride s = k^(n-1-i): the pairs (plane,
    shift) of its k digit planes, where the shift a * s moves plane a onto
    digit 0, and the spread sum_a 1 << a * s, whose product with a set of
    digit-0 cells is the union of their lines in direction i."""
    out = []
    for i, planes in enumerate(digit_masks(n, k)):
        s = k ** (n - 1 - i)
        out.append((
            tuple((plane, a * s) for a, plane in enumerate(planes)),
            sum(1 << a * s for a in range(k)),
        ))
    return tuple(out)


@lru_cache(maxsize=None)
def line_masks(n: int, k: int) -> tuple[int, ...]:
    """Per line, the mask of its k cells, in the order of ``lines``: in
    direction i the lines are the spread shifted to each cell of digit
    plane 0, in ascending order."""
    return tuple(
        spread << c for planes, spread in line_planes(n, k) for c in mask_cells(planes[0][0])
    )


# ---------------------------------------------------------------------------
# Partial order: digit k-1 is maximal, all other digits incomparable
# ---------------------------------------------------------------------------

def below(y: tuple[int, ...], k: int) -> list[tuple[int, ...]]:
    """Minimal words under y: each maximal digit replaced by any of 0..k-2.

    The result has (k-1)^s elements where s counts the maximal digits of y;
    it is the trace of the face G_y on the bottom subcube Q_{k-1}^n.
    ValueError for a digit of y outside 0..k-1.
    """
    check_digits(y, k)
    choices = [range(k - 1) if d == k - 1 else (d,) for d in y]
    return [tuple(w) for w in itertools.product(*choices)]


# ---------------------------------------------------------------------------
# Retract indexing
# ---------------------------------------------------------------------------

def _check_face(n: int, k: int, coord: int, value: int) -> None:
    if not 0 <= coord < n:
        raise ValueError(f"coord {coord} out of range for n={n}")
    if not 0 <= value < k:
        raise ValueError(f"value {value} out of range for k={k}")


@lru_cache(maxsize=None)
def retract_cells(n: int, k: int, coord: int, value: int) -> tuple[int, ...]:
    """Cells of the hyperface x_coord = value, in sub-cube cell order.

    Entry j is the full-cube cell whose word, with the fixed coordinate
    dropped, has sub-cube cell index j.
    """
    _check_face(n, k, coord, value)
    out = []
    for sub in itertools.product(range(k), repeat=n - 1):
        word = sub[:coord] + (value,) + sub[coord:]
        out.append(cell_of_word(word, k))
    return tuple(out)


def retract_mask(mask: int, n: int, k: int, coord: int, value: int) -> int:
    """Restriction of a cell mask over Q_k^n to the hyperface
    x_coord = value, as a mask over Q_k^(n-1) in sub-cube cell order.

    The hyperface is k^coord runs of s = k^(n-1-coord) consecutive cells,
    one run per block of k*s, so the restriction moves runs, not bits.
    """
    _check_face(n, k, coord, value)
    s = k ** (n - 1 - coord)
    run = (1 << s) - 1
    mask >>= value * s
    out = 0
    for t in range(k ** coord):
        out |= (mask >> t * k * s & run) << t * s
    return out


@lru_cache(maxsize=None)
def retract_splitters(n: int) -> tuple[Callable[[Sequence], tuple], ...]:
    """Per coordinate c of Q_3^n, a callable that splits a 3^n-long value
    tuple or bytes string into its three retracts at x_c = 0, 1, 2, each a
    tuple in sub-cube cell order.

    One itemgetter per coordinate reads the three retracts at once (the
    cells of ``retract_cells(n, 3, c, d)`` for d = 0, 1, 2, concatenated)
    and the result is cut into three runs of 3^(n-1) entries.
    """
    out = []
    for c in range(n):
        get = itemgetter(*(cell for d in range(3) for cell in retract_cells(n, 3, c, d)))

        def split(values, get=get, a=3 ** (n - 1), b=2 * 3 ** (n - 1)):
            flat = get(values)
            return flat[:a], flat[a:b], flat[b:]

        out.append(split)
    return tuple(out)


# ---------------------------------------------------------------------------
# Boolean subcubes
# ---------------------------------------------------------------------------

# per-digit 2-subsets of Q_3: digit of v -> member digits of the cube factor
CUBE_FACTOR = ((0, 1), (1, 2), (0, 2))


@lru_cache(maxsize=None)
def _factor_masks(n: int, k: int) -> tuple[tuple[int, int, int], ...]:
    """_factor_masks(n, k)[i][d] = mask over Q_k^n of the cells whose
    digit i lies in CUBE_FACTOR[d]."""
    return tuple(
        tuple(sum(digit[a] for a in f if a < k) for f in CUBE_FACTOR)
        for digit in digit_masks(n, k)
    )


def subcube_mask(v: tuple[int, ...], k: int = 3) -> int:
    """Mask over Q_k^n of the cells x with x_i in CUBE_FACTOR[v_i] for all i.

    k = 3 gives the monomial cube of v; k = 2 gives the truth table of x^v,
    since CUBE_FACTOR[d] meets {0, 1} in exactly the literal set of x^d.
    """
    check_digits(v, 3)
    m = (1 << k ** len(v)) - 1
    for masks, d in zip(_factor_masks(len(v), k), v):
        m &= masks[d]
    return m


def subcube_legs(v: tuple[int, ...]) -> tuple[int, int]:
    """(even, odd): the monomial cube of v split by the parity of the
    coordinates at the high member CUBE_FACTOR[v_i][1] of their factor,
    which is the xor of those members' digit planes."""
    cube_mask = subcube_mask(v)
    parity = 0
    for digit, d in zip(digit_masks(len(v), 3), v):
        parity ^= digit[CUBE_FACTOR[d][1]]
    odd = cube_mask & parity
    return cube_mask ^ odd, odd


# ---------------------------------------------------------------------------
# Isometries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Isometry:
    """coord_perm sends coordinate i of the source to coord_perm[i] of the
    image; symbol_perms[i] permutes the alphabet inside source coordinate i.
    On words: y[coord_perm[i]] = symbol_perms[i][x[i]].
    """

    coord_perm: tuple[int, ...]
    symbol_perms: tuple[tuple[int, ...], ...]
    sign_flip: bool = False

    @property
    def n(self) -> int:
        return len(self.coord_perm)

    @property
    def k(self) -> int:
        return len(self.symbol_perms[0]) if self.symbol_perms else 0

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        n = self.n
        cp = tuple(self.coord_perm[other.coord_perm[i]] for i in range(n))
        sps = []
        for i in range(n):
            inner = other.symbol_perms[i]
            outer = self.symbol_perms[other.coord_perm[i]]
            sps.append(tuple(outer[inner[d]] for d in range(len(inner))))
        return Isometry(cp, tuple(sps), self.sign_flip ^ other.sign_flip)

    def inverse(self) -> "Isometry":
        """Image coordinate j goes back to source coordinate i =
        coord_perm.index(j), through the inverse of symbol_perms[i]."""
        inv_cp = tuple(map(self.coord_perm.index, range(self.n)))
        sps = tuple(tuple(map(self.symbol_perms[i].index, range(self.k))) for i in inv_cp)
        return Isometry(inv_cp, sps, self.sign_flip)

    def cell_map(self, k: int) -> tuple[int, ...]:
        """cell_map[source cell] = image cell."""
        n = self.n
        pw = [k ** (n - 1 - i) for i in range(n)]
        contrib = [
            tuple(self.symbol_perms[i][d] * pw[self.coord_perm[i]] for d in range(k))
            for i in range(n)
        ]
        table = digit_table(n, k)
        return tuple(
            sum(contrib[i][ds[i]] for i in range(n)) for ds in table
        )


"""Artin presentations: the defining free-group identity, composition, and
exponent-sum matrices.

An Artin presentation on n generators is a presentation
<x_1, ..., x_n | r_1, ..., r_n> whose relators satisfy

    x_1 x_2 ... x_n = (r_1^-1 x_1 r_1)(r_2^-1 x_2 r_2) ... (r_n^-1 x_n r_n)

in the free group F_n.  The set of all such presentations forms a group
under the composition implemented here, and the exponent-sum matrix is an
additive homomorphism from that group to the n x n integer matrices.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import sub
from typing import Sequence

from .words import (
    MAX_EXPONENT,
    MAX_LETTERS,
    ParseError,
    Word,
    _bounded,
    _join,
    _read_word,
    format_word,
    invert,
    max_generator,
    reduce_relators,
)


@dataclass(frozen=True)
class ExponentMatrix:
    """Square integer matrix; entry (i, j) is the exponent sum of x_i in
    relator j.  Symmetric whenever it comes from an Artin presentation."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(tuple(row) for row in self.entries))
        for row in self.entries:
            if len(row) != len(self.entries):
                raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.entries)

    def det(self) -> int:
        """Determinant, read off _bareiss: the maximal minor it finds at
        full rank, else 0; det of the empty matrix is 1.  Exact over
        arbitrary-size integers."""
        rank, minor = _bareiss(self.entries)
        return minor if rank == self.n else 0

    def is_symmetric(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.n)
            for j in range(i + 1, self.n)
        )

    def __add__(self, other: "ExponentMatrix") -> "ExponentMatrix":
        if self.n != other.n:
            raise ValueError("matrix sizes differ")
        return ExponentMatrix(
            tuple(
                tuple(a + b for a, b in zip(row_a, row_b))
                for row_a, row_b in zip(self.entries, other.entries)
            )
        )

    def __neg__(self) -> "ExponentMatrix":
        return ExponentMatrix(tuple(tuple(-a for a in row) for row in self.entries))


def _checked(n: int, relators: Sequence[Word]) -> tuple[Word, ...]:
    """The relators reduced and range-checked once, n of them."""
    reduced = reduce_relators(n, relators)
    if len(reduced) != n:
        raise ValueError(f"expected {n} relators, got {len(reduced)}")
    return reduced


def _defect(n: int, relators: tuple[Word, ...]) -> Word:
    """The defect of reduced relators in x_1 .. x_n; every factor of the
    identity's product is reduced, so they are joined without another check."""
    factors = chain.from_iterable(
        (invert(relator), (i,), relator) for i, relator in enumerate(relators, start=1)
    )
    return _join((invert(_join(factors)), tuple(range(1, n + 1))))


def artin_defect(n: int, relators: Sequence[Word]) -> Word:
    """Reduced word measuring failure of the defining identity.

    Returns reduce(inverse(product of r_i^-1 x_i r_i) * x_1...x_n), which is
    empty exactly when (n, relators) is an Artin presentation.
    """
    return _defect(n, _checked(n, relators))


def is_artin(n: int, relators: Sequence[Word]) -> bool:
    """True exactly when the candidate satisfies the defining identity."""
    return not artin_defect(n, relators)


@dataclass(frozen=True)
class ArtinPresentation:
    """A validated Artin presentation.

    The constructor reduces and range-checks the relators, then rejects any
    relator list violating the defining identity, so every instance in
    circulation is genuinely Artin.  Relators are stored freely reduced (but
    not cyclically reduced).  Equality is literal word-for-word equality of
    the reduced relators.  Library code whose relators are already reduced
    words in x_1 .. x_n builds instances through _from_reduced, which skips
    only the reduction.
    """

    n: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relators", _checked(self.n, self.relators))
        self._require_artin()

    def _require_artin(self) -> None:
        defect = _defect(self.n, self.relators)
        if defect:
            raise ValueError(
                f"relators do not satisfy the Artin identity (defect {format_word(defect)})"
            )

    def exponent_matrix(self) -> ExponentMatrix:
        return exponent_matrix(self.n, self.relators)

    def __mul__(self, other: "ArtinPresentation") -> "ArtinPresentation":
        return compose(self, other)

    def __str__(self) -> str:
        return format_presentation(self.n, self.relators)


def _from_reduced(n: int, relators: tuple[Word, ...]) -> ArtinPresentation:
    """ArtinPresentation(n, relators) for n reduced relators in x_1 .. x_n,
    such as joins of reduced words: the Artin check runs, the reduction
    and range check, a no-op on such words, do not."""
    p = object.__new__(ArtinPresentation)
    object.__setattr__(p, "n", n)
    object.__setattr__(p, "relators", relators)
    p._require_artin()
    return p


def identity_presentation(n: int) -> ArtinPresentation:
    """The identity element: all relators empty."""
    return ArtinPresentation(n, ((),) * n)


def compose(u: ArtinPresentation, r: ArtinPresentation) -> ArtinPresentation:
    """Group operation: relator i of the result is u_i * R_i, where R_i is
    r_i with every x_j replaced by u_j^-1 x_j u_j.

    The exponent matrix of the result is the sum of the two inputs'.  The
    images of x_j and x_j^-1 are built once; they and the stored relators
    are reduced, so each relator is one join of them, and the result is
    Artin-checked without being reduced again.
    """
    if u.n != r.n:
        raise ValueError(f"generator counts differ: {u.n} vs {r.n}")
    table = {}
    for j, u_j in enumerate(u.relators, start=1):
        table[j] = _join((invert(u_j), (j,), u_j))
        table[-j] = invert(table[j])
    relators = tuple(
        _join((u_i, *map(table.__getitem__, r_i))) for u_i, r_i in zip(u.relators, r.relators)
    )
    return _from_reduced(u.n, relators)


def exponent_matrix(n: int, relators: Sequence[Word]) -> ExponentMatrix:
    """Exponent-sum matrix of any candidate presentation (no Artin check):
    entry (i, j) is exponent_sum(relators[j], i), read from one count of
    each relator's letters."""
    if len(relators) != n:
        raise ValueError(f"expected {n} relators, got {len(relators)}")
    counts = [Counter(relator) for relator in relators]
    return ExponentMatrix(
        tuple(tuple(c[i] - c[-i] for c in counts) for i in range(1, n + 1))
    )


def is_unimodular(matrix: ExponentMatrix) -> bool:
    """True when the determinant is +1 or -1."""
    return matrix.det() in (1, -1)


def abelianization_invariants(matrix: ExponentMatrix) -> tuple[int, ...]:
    """Smith normal form diagonal of the matrix, as nonnegative integers.

    These are the elementary divisors of Z^n / Im(matrix): the group
    presented by the relators abelianizes to the direct sum of Z/d for each
    diagonal entry d (with d = 0 contributing a free Z factor).  All entries
    equal 1 exactly when the matrix is unimodular.
    """
    return tuple(_smith_diagonal(matrix.entries))


def _bareiss(entries: Sequence[Sequence[int]]) -> tuple[int, int]:
    """(rank, minor) of a square integer matrix by fraction-free (Bareiss)
    elimination.  A zero pivot is swapped with a nonzero entry lower in its
    column, or else the column is passed over.  minor is the last pivot, a
    nonzero rank x rank minor: the determinant at full rank, 1 at rank 0."""
    m = [list(row) for row in entries]
    size = len(m)
    rank, sign, prev = 0, 1, 1
    for j in range(size):
        if not m[rank][j]:
            i = next((i for i in range(rank + 1, size) if m[i][j]), 0)
            if not i:
                continue
            m[rank], m[i] = m[i], m[rank]
            sign = -sign
        top = m[rank]
        pivot = top[j]
        for row in m[rank + 1 :]:
            a = row[j]
            for k in range(j + 1, size):
                row[k] = (row[k] * pivot - a * top[k]) // prev
        prev = pivot
        rank += 1
    return rank, sign * prev


def _smith_diagonal(entries: tuple[tuple[int, ...], ...]) -> list[int]:
    # Diagonalize over Z, then sort the diagonal into a divisor chain.  The
    # least nonzero entry of the block moves to the top left as the pivot.
    # A row below loses a multiple of the top row when the pivot divides its
    # first entry; otherwise one unimodular Bezout step on the two rows puts
    # their gcd in the pivot's place and 0 below it.  A top-row entry the
    # pivot does not divide gets the same step on columns, which may refill
    # the first column, so that repeats with a smaller pivot.  Once the
    # pivot divides its whole row, clearing that row changes nothing else,
    # so the pivot splits off from the block after it.
    #
    # M = |minor| for the nonzero r x r minor of _bareiss, r the rank.
    # Adding multiples of M to entries gives the cokernel of [E | M I],
    # which is (Z/M)^(n-r) + T, T the torsion of coker E: the exponent of T
    # divides |T| = d_r, the gcd of the r x r minors, so it divides M, and
    # T/MT = T.  So each time a pivot splits off, the block left is reduced
    # modulo M, each diagonal entry d stands for Z/gcd(d, M), and after the
    # sweep below the last n - r entries, M each, become the 0s of E's
    # Smith form (Cohen, A Course in Computational Algebraic Number Theory
    # (1993), 2.4, where r = n and M = |det|).
    rank, minor = _bareiss(entries)
    modulus = abs(minor)
    block = [list(row) for row in entries]
    size = len(block)
    diagonal: list[int] = []
    while block:
        width = len(block)
        flat = [abs(x) for row in block for x in row]
        least = min(filter(None, flat), default=0)
        if not least:
            break
        pi, pj = divmod(flat.index(least), width)
        block[0], block[pi] = block[pi], block[0]
        if pj:
            for row in block:
                row[0], row[pj] = row[pj], row[0]
        while True:
            top = block[0]
            pivot = top[0]
            for i in range(1, width):
                row = block[i]
                a = row[0]
                if not a:
                    continue
                q, r = divmod(a, pivot)
                if r:
                    pivot, x, y = _bezout(pivot, a)
                    u, v = top[0] // pivot, a // pivot
                    block[i] = [u * s - v * t for t, s in zip(top, row)]
                    block[0] = top = [x * t + y * s for t, s in zip(top, row)]
                else:
                    block[i] = list(map(sub, row, map(q.__mul__, top)))
            j = next((j for j, b in enumerate(top) if b % pivot), 0)
            if not j:
                break
            g, x, y = _bezout(pivot, top[j])
            u, v = pivot // g, top[j] // g
            for row in block:
                row[0], row[j] = x * row[0] + y * row[j], u * row[j] - v * row[0]
        diagonal.append(abs(pivot))
        block = [[x % modulus for x in row[1:]] for row in block[1:]]
    diagonal += [0] * (size - len(diagonal))
    diagonal = [gcd(d, modulus) for d in diagonal]
    # diag(d, e) and diag(gcd, lcm) are equivalent; after the sweep each
    # entry divides every later one
    for i in range(size):
        for j in range(i + 1, size):
            g = gcd(diagonal[i], diagonal[j])
            if g != diagonal[i]:
                diagonal[i], diagonal[j] = g, diagonal[i] // g * diagonal[j]
    diagonal[rank:] = [0] * (size - rank)
    return diagonal


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with x a + y b = g, where g is a gcd of a and b of
    either sign."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


_HEADER = re.compile(r"artin\s+0*(\d+)", re.ASCII)
_RELATOR_LINE = re.compile(r"r0*(\d+)\s*=\s*(.+)", re.ASCII)


def parse_presentation(text: str) -> tuple[int, tuple[Word, ...]]:
    """Parse the presentation text format into a raw (n, relators) candidate.

    Line 1 is ``artin <n>``, the generator count; any number of lines
    ``r<i> = <word>`` follow in order, so T(2,3,5) can feed enumerate_cosets.
    ArtinPresentation, artin_defect and exponent_matrix raise ValueError
    unless there are n.  Relators are read by parse_word's reader,
    re-reduced on parse, which also gives the largest index among a
    relator's distinct tokens.  That index bounds the relator's letters;
    only past n is the reduced relator scanned with max_generator, so a
    token beyond x_n that cancels is accepted.  No Artin check is performed,
    so the result can feed artin_defect directly.  Numbers are read as
    words.parse_runs reads them: n beyond MAX_EXPONENT is a ParseError, and
    a label is matched digit for digit, so no string reaches int() whole.
    A relator of more than MAX_LETTERS letters raises parse_word's
    ParseError, and so do reduced relators of more than MAX_LETTERS letters
    in all.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty presentation text")
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise ParseError(f"expected 'artin <n>' header, got {lines[0]!r}")
    n = _bounded(header.group(1))
    if n is None:
        raise ParseError(f"generator count beyond {MAX_EXPONENT} in 'artin <n>' header")
    relators = []
    letters = 0
    for i, line in enumerate(lines[1:], start=1):
        match = _RELATOR_LINE.fullmatch(line)
        if match is None or match.group(1) != str(i):
            raise ParseError(f"expected 'r{i} = <word>', got {line!r}")
        word, largest = _read_word(match.group(2))
        if largest > n and max_generator(word) > n:
            raise ParseError(f"relator r{i} uses a generator beyond x{n}")
        letters += len(word)
        if letters > MAX_LETTERS:
            raise ParseError(f"relators of more than {MAX_LETTERS} letters in all")
        relators.append(word)
    return n, tuple(relators)


def format_presentation(n: int, relators: Sequence[Word]) -> str:
    """Canonical text form; parse_presentation round-trips it when the
    relators hold at most MAX_LETTERS letters in all."""
    lines = [f"artin {n}"]
    lines.extend(f"r{i} = {format_word(r)}" for i, r in enumerate(relators, start=1))
    return "\n".join(lines)

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
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .words import (
    ParseError,
    Word,
    _join,
    exponent_sum,
    format_word,
    invert,
    max_generator,
    parse_word,
    reduce_relators,
    substitute,
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
        """Determinant by fraction-free (Bareiss) elimination; det of the
        empty matrix is 1.  Exact over arbitrary-size integers."""
        size = self.n
        if size == 0:
            return 1
        m = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(size - 1):
            if m[k][k] == 0:
                for i in range(k + 1, size):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, size):
                for j in range(k + 1, size):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[size - 1][size - 1]

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


def _checked_defect(n: int, relators: Sequence[Word]) -> tuple[tuple[Word, ...], Word]:
    """The relators reduced and range-checked once, and the defect on them;
    every factor of the identity's product is reduced, so they are joined
    without another check."""
    reduced = reduce_relators(n, relators)
    if len(reduced) != n:
        raise ValueError(f"expected {n} relators, got {len(reduced)}")
    factors = chain.from_iterable(
        (invert(relator), (i,), relator) for i, relator in enumerate(reduced, start=1)
    )
    return reduced, _join((invert(_join(factors)), tuple(range(1, n + 1))))


def artin_defect(n: int, relators: Sequence[Word]) -> Word:
    """Reduced word measuring failure of the defining identity.

    Returns reduce(inverse(product of r_i^-1 x_i r_i) * x_1...x_n), which is
    empty exactly when (n, relators) is an Artin presentation.
    """
    return _checked_defect(n, relators)[1]


def is_artin(n: int, relators: Sequence[Word]) -> bool:
    """True exactly when the candidate satisfies the defining identity."""
    return not artin_defect(n, relators)


@dataclass(frozen=True)
class ArtinPresentation:
    """A validated Artin presentation.

    Relators are stored freely reduced (but not cyclically reduced), and the
    constructor rejects any relator list violating the defining identity, so
    every instance in circulation is genuinely Artin.  Equality is literal
    word-for-word equality of the reduced relators.
    """

    n: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        relators, defect = _checked_defect(self.n, self.relators)
        object.__setattr__(self, "relators", relators)
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


def identity_presentation(n: int) -> ArtinPresentation:
    """The identity element: all relators empty."""
    if n < 0:
        raise ValueError("generator count must be nonnegative")
    return ArtinPresentation(n, ((),) * n)


def compose(u: ArtinPresentation, r: ArtinPresentation) -> ArtinPresentation:
    """Group operation: relator i of the result is u_i * R_i, where R_i is
    r_i with every x_j replaced by u_j^-1 x_j u_j.

    The exponent matrix of the result is the sum of the two inputs'.  Stored
    relators and substitute's output are reduced, so the products are joined
    without another check.
    """
    if u.n != r.n:
        raise ValueError(f"generator counts differ: {u.n} vs {r.n}")
    images = {j: _join((invert(u_j), (j,), u_j)) for j, u_j in enumerate(u.relators, start=1)}
    relators = tuple(
        _join((u_i, substitute(r_i, images))) for u_i, r_i in zip(u.relators, r.relators)
    )
    return ArtinPresentation(u.n, relators)


def exponent_matrix(n: int, relators: Sequence[Word]) -> ExponentMatrix:
    """Exponent-sum matrix of any candidate presentation (no Artin check)."""
    if len(relators) != n:
        raise ValueError(f"expected {n} relators, got {len(relators)}")
    return ExponentMatrix(
        tuple(
            tuple(exponent_sum(relators[j], i) for j in range(n))
            for i in range(1, n + 1)
        )
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


def _smith_diagonal(entries: tuple[tuple[int, ...], ...]) -> list[int]:
    # Elementary row/column reduction over Z.  Pivot selection takes the
    # smallest nonzero entry of the trailing block; the divisibility fold
    # keeps the diagonal a divisor chain.
    m = [list(row) for row in entries]
    size = len(m)
    diagonal: list[int] = []
    t = 0
    while t < size:
        pivot = None
        for i in range(t, size):
            for j in range(t, size):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            diagonal.extend([0] * (size - t))
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, size):
                while m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, size):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
            for j in range(t + 1, size):
                while m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, size):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
            if any(m[i][t] for i in range(t + 1, size)):
                continue
            offender = next(
                (
                    i
                    for i in range(t + 1, size)
                    for j in range(t + 1, size)
                    if m[i][j] % m[t][t]
                ),
                None,
            )
            if offender is None:
                break
            for j in range(t, size):
                m[t][j] += m[offender][j]
        diagonal.append(abs(m[t][t]))
        t += 1
    return diagonal


_HEADER = re.compile(r"artin\s+(\d+)")
_RELATOR_LINE = re.compile(r"r(\d+)\s*=\s*(.+)")


def parse_presentation(text: str) -> tuple[int, tuple[Word, ...]]:
    """Parse the presentation text format into a raw (n, relators) candidate.

    Line 1 is ``artin <n>``; the following n lines are ``r<i> = <word>`` in
    order.  Relators are re-reduced on parse.  No Artin check is performed,
    so the result can feed artin_defect directly.
    """
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if not lines:
        raise ParseError("empty presentation text")
    header = _HEADER.fullmatch(lines[0])
    if header is None:
        raise ParseError(f"expected 'artin <n>' header, got {lines[0]!r}")
    n = int(header.group(1))
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} relator lines after the header, got {len(lines) - 1}")
    relators = []
    for i, line in enumerate(lines[1:], start=1):
        match = _RELATOR_LINE.fullmatch(line)
        if match is None or int(match.group(1)) != i:
            raise ParseError(f"expected 'r{i} = <word>', got {line!r}")
        word = parse_word(match.group(2))
        if max_generator(word) > n:
            raise ParseError(f"relator r{i} uses a generator beyond x{n}")
        relators.append(word)
    return n, tuple(relators)


def format_presentation(n: int, relators: Sequence[Word]) -> str:
    """Canonical text form; parse_presentation round-trips it."""
    lines = [f"artin {n}"]
    lines.extend(f"r{i} = {format_word(r)}" for i, r in enumerate(relators, start=1))
    return "\n".join(lines)

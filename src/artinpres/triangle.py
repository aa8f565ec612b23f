"""Triangle (von Dyck) groups and the quotient certificates they provide
for the two-generator family.

T(l, m, n) = <x, y | x^l, y^m, (xy)^n> is finite exactly when
1/l + 1/m + 1/n > 1.  Adding the relation (x1 x2)^c to r(a, b, c) yields a
surjection of its group onto T(|a-c|, |b-c|, |c|), so whenever those three
values are all at least 2 the group is certified nontrivial, and infinite
when additionally 1/|a-c| + 1/|b-c| + 1/|c| <= 1.  Triviality certificates
go the other way: through the coset enumerator.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .artin import exponent_matrix, is_unimodular
from .coset import Exceeded, Finite, FinitePresentation, Strategy, enumerate_cosets
from .twogen import Tuple3, _twist_power, build_r2


@dataclass(frozen=True)
class TriangleParams:
    """Rotation orders (l, m, n), each at least 2."""

    l: int
    m: int
    n: int

    def __post_init__(self) -> None:
        for value in (self.l, self.m, self.n):
            if value < 2:
                raise ValueError(f"triangle parameters must be >= 2, got {value}")


class GeometryClass(Enum):
    SPHERICAL = "spherical"
    EUCLIDEAN = "euclidean"
    HYPERBOLIC = "hyperbolic"


class TriangleVerdict(Enum):
    """What the triangle-quotient certificate can say about a group in the
    two-generator family.  INFINITE is the stronger claim and implies
    NONTRIVIAL; INCONCLUSIVE carries no information."""

    NONTRIVIAL = "nontrivial"
    INFINITE = "infinite"
    INCONCLUSIVE = "inconclusive"


def delta(t: TriangleParams) -> Fraction:
    """1/l + 1/m + 1/n as an exact rational; 1 is the geometry boundary."""
    return Fraction(1, t.l) + Fraction(1, t.m) + Fraction(1, t.n)


def classify_geometry(t: TriangleParams) -> GeometryClass:
    d = delta(t)
    if d > 1:
        return GeometryClass.SPHERICAL
    if d == 1:
        return GeometryClass.EUCLIDEAN
    return GeometryClass.HYPERBOLIC


def spherical_order(t: TriangleParams) -> int:
    """Order of the finite triangle group, 2/(delta - 1).

    Always an integer for spherical parameters; cross-validated against the
    coset enumerator in the test suite.
    """
    if classify_geometry(t) is not GeometryClass.SPHERICAL:
        raise ValueError(f"({t.l},{t.m},{t.n}) is not spherical")
    order = 2 / (delta(t) - 1)
    if order.denominator != 1:
        raise ArithmeticError(f"order {order} of ({t.l},{t.m},{t.n}) is not an integer")
    return int(order)


def triangle_presentation(t: TriangleParams) -> FinitePresentation:
    """<x, y | x^l, y^m, (xy)^n> on two generators."""
    return FinitePresentation(2, ((1,) * t.l, (2,) * t.m, (1, 2) * t.n))


def triangle_quotient(t: Tuple3) -> FinitePresentation:
    """The quotient of r(a, b, c) by the extra relation (x1 x2)^c.

    Equivalent after cancellation to the triangle presentation on
    (|a-c|, |b-c|, |c|), which makes the certificate chain checkable by
    coset enumeration on finite cases.
    """
    p = build_r2(t)
    return FinitePresentation(2, p.relators + (_twist_power(t[2]),))


def triangle_verdict(t: Tuple3) -> TriangleVerdict:
    """Certificate for r(a, b, c) via its triangle-group quotient.

    Applicable when |a-c|, |b-c| and |c| are all at least 2; then the group
    is NONTRIVIAL, and INFINITE when the quotient is Euclidean or
    hyperbolic.  Invariant under negating the whole triple.
    """
    a, b, c = t
    p, q, s = abs(a - c), abs(b - c), abs(c)
    if min(p, q, s) < 2:
        return TriangleVerdict.INCONCLUSIVE
    if Fraction(1, p) + Fraction(1, q) + Fraction(1, s) <= 1:
        return TriangleVerdict.INFINITE
    return TriangleVerdict.NONTRIVIAL


class Triviality(Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TrivialityResult:
    status: Triviality
    reason: str | None = None


def triviality_status(t: Tuple3, max_cosets: int = 100_000) -> TrivialityResult:
    """Combined oracle for whether r(a, b, c) presents the trivial group.

    Checks, in order: a non-unimodular exponent matrix (nontrivial
    abelianization), the triangle-quotient certificate, and finally coset
    enumeration within the budget.  An exhausted budget is UNKNOWN.
    """
    matrix = exponent_matrix(2, relators := build_r2(t).relators)
    if not is_unimodular(matrix):
        return TrivialityResult(Triviality.NONTRIVIAL, "abelianization")
    if triangle_verdict(t) is not TriangleVerdict.INCONCLUSIVE:
        return TrivialityResult(Triviality.NONTRIVIAL, "triangle-quotient")
    result = enumerate_cosets(
        FinitePresentation(2, relators),
        max_cosets=max_cosets,
        strategy=Strategy.RELATOR_FIRST,
    )
    if isinstance(result, Finite):
        if result.order == 1:
            return TrivialityResult(Triviality.TRIVIAL)
        return TrivialityResult(Triviality.NONTRIVIAL, "coset-order")
    if not isinstance(result, Exceeded):
        raise TypeError(f"unexpected coset enumeration result {result!r}")
    return TrivialityResult(Triviality.UNKNOWN)

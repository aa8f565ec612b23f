"""Triangle (von Dyck) groups and the quotient certificates they provide
for the two-generator family.

T(l, m, n) = <x, y | x^l, y^m, (xy)^n> is finite exactly when
1/l + 1/m + 1/n > 1.  Adding the relation (x1 x2)^c to r(a, b, c) yields a
surjection of its group onto T(|a-c|, |b-c|, |c|), so whenever those three
values are all at least 2 the group is certified nontrivial, and infinite
when additionally 1/|a-c| + 1/|b-c| + 1/|c| <= 1.  Triviality certificates
go the other way: a straight-line program that writes x1 and x2 as
products of conjugates of the relators, checked by free reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .coset import FinitePresentation
from .twogen import Tuple3, _relators, _twist_power, build_r2
from .words import Word, _conjugator_length, _join, invert


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


def _excess(l: int, m: int, n: int) -> int:
    """lmn (1/l + 1/m + 1/n - 1), which has the sign of delta - 1."""
    return m * n + l * n + l * m - l * m * n


def classify_geometry(t: TriangleParams) -> GeometryClass:
    excess = _excess(t.l, t.m, t.n)
    if excess > 0:
        return GeometryClass.SPHERICAL
    if excess == 0:
        return GeometryClass.EUCLIDEAN
    return GeometryClass.HYPERBOLIC


def spherical_order(t: TriangleParams) -> int:
    """Order of the finite triangle group, 2/(delta - 1).

    Always an integer for spherical parameters; cross-validated against the
    coset enumerator in the test suite.
    """
    excess = _excess(t.l, t.m, t.n)
    if excess <= 0:
        raise ValueError(f"({t.l},{t.m},{t.n}) is not spherical")
    order, remainder = divmod(2 * t.l * t.m * t.n, excess)
    if remainder:
        raise ArithmeticError(f"order of ({t.l},{t.m},{t.n}) is not an integer")
    return order


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
    if _excess(p, q, s) <= 0:
        return TriangleVerdict.INFINITE
    return TriangleVerdict.NONTRIVIAL


# A step (name, ((symbol, exponent), ...)) defines name as the product of
# the powers; symbols are the letters x1, x2, r1, r2 and earlier names.
CertificateStep = tuple[str, tuple[tuple[str, int], ...]]
TrivialityCertificate = tuple[CertificateStep, ...]


def _other_output(k: int) -> CertificateStep:
    """The output X_(3-k) from X_k and Y, a step that maps to x1 x2."""
    if k == 1:
        return ("X2", (("X1", -1), ("Y", 1)))
    return ("X1", (("Y", 1), ("X2", -1)))


def triviality_certificate(t: Tuple3) -> TrivialityCertificate | None:
    """A straight-line program proving r(a, b, c) trivial, or None when
    |ab - c^2| != 1 or min(|a-c|, |b-c|, |c|) >= 2.

    With y = x1 x2, p = a - c and q = b - c the relators are r1 = x1^p y^c
    and r2 = x2^q y^c.  Each case isolates one element from a relator
    whose other exponent is 0 or +-1: for c = 0, r_i^(+-1) = x_i; for
    p = 0 or q = 0, r_i^c = y; for |p| = 1 or |q| = 1, r_i y^-c is x_i or
    its inverse, which writes the other generator in y and leaves
    y^(+-det) as a product of relator conjugates; for |c| = 1 the same
    steps run with x1 in place of y.  Every step has a few factors, so
    check_certificate runs in O(|a| + |b| + |c|) letters.
    """
    a, b, c = t
    det = a * b - c * c
    p, q = a - c, b - c
    if abs(det) != 1 or min(abs(p), abs(q), abs(c)) > 1:
        return None
    if c == 0:  # |p| = |q| = 1
        return (("X1", (("r1", p),)), ("X2", (("r2", q),)))
    if p == 0 or q == 0:  # det = cq or cp, so |c| = 1 and the other is +-1
        i, j, e = (1, 2, q) if p == 0 else (2, 1, p)
        return (
            ("Y", ((f"r{i}", c),)),
            ("B", ((f"r{j}", 1), ("Y", -c))),
            (f"X{j}", (("B", e),)),
            _other_output(j),
        )
    if abs(p) == 1 or abs(q) == 1:
        # When both are +-1, a +1 pivot is taken: on (0, 0, 1), where
        # r1 = x2, pivoting on r1 leaves a second valid program one
        # exponent flip away, and a certificate should have no such twin.
        i, j, e, f = (1, 2, p, q) if p == 1 or abs(q) != 1 else (2, 1, q, p)
        d = e * det  # G maps to y^d when r1, r2 -> 1
        return (
            ("y", (("x1", 1), ("x2", 1))),
            ("A", ((f"r{i}", 1), ("y", -c))),
            ("F", (("A", -e), ("y", 1)) if i == 1 else (("y", 1), ("A", -e))),
            ("G", (("F", f), ("y", c), (f"r{j}", -1))),
            ("Z", (("y", d), ("G", -1))),
            ("Y", (("Z", d),)),
            ("B", ((f"r{i}", 1), ("Y", -c))),
            (f"X{i}", (("B", e),)),
            _other_output(i),
        )
    d = -c * det  # |c| = 1; G maps to x1^d when r1, r2 -> 1
    return (
        ("A", (("x1", -p), ("r1", 1))),
        ("W", (("A", c),)),
        ("F", (("x1", -1), ("W", 1))),
        ("G", (("F", q), ("W", c), ("r2", -1))),
        ("Z", (("x1", d), ("G", -1))),
        ("X1", (("Z", d),)),
        ("B", (("X1", -p), ("r1", 1))),
        ("Y", (("B", c),)),
        _other_output(1),
    )


def _power(word: Word, exponent: int) -> Word:
    """word^exponent of a reduced word: with word = u v u^-1 and v
    cyclically reduced, it is u v^exponent u^-1, built without cancelling."""
    if exponent < 0:
        word, exponent = invert(word), -exponent
    if not word or not exponent:
        return ()
    k = _conjugator_length(word)
    return word[:k] + word[k : len(word) - k] * exponent + word[len(word) - k :]


def check_certificate(t: Tuple3, certificate: TrivialityCertificate) -> bool:
    """Whether the program proves r(a, b, c) trivial.

    It runs twice.  With r_i read as its relator x_i^(k-c) (x1 x2)^c (k is
    a for r1 and b for r2), the outputs X1 and X2 must be x1 and x2.  With
    r_i read as 1, both must be the identity, which puts each output in
    the normal closure of r1 and r2 in the free group on x1, x2, r1, r2;
    the first run then puts x1 and x2 in the normal closure of the
    relators.  Every product is a free reduction of reduced words.
    """
    for (r1, r2), outputs in ((_relators(t), ((1,), (2,))), (((), ()), ((), ()))):
        values = {"x1": (1,), "x2": (2,), "r1": r1, "r2": r2}
        for name, factors in certificate:
            values[name] = _join(_power(values[symbol], e) for symbol, e in factors)
        if (values.get("X1"), values.get("X2")) != outputs:
            return False
    return True


class Triviality(Enum):
    """triviality_status returns TRIVIAL or NONTRIVIAL.  UNKNOWN is never
    returned; it stays because benchmarks/certify_sweep.py still names it."""

    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class TrivialityResult:
    status: Triviality
    reason: str | None = None
    certificate: TrivialityCertificate | None = field(compare=False, default=None)


def triviality_status(t: Tuple3) -> TrivialityResult:
    """Whether r(a, b, c) presents the trivial group, decided from the triple.

    The paper's main theorem: r(a, b, c) is trivial exactly when
    |ab - c^2| = 1 and min(|a-c|, |b-c|, |c|) <= 1, the families T1-T5.
    Otherwise the verdict is NONTRIVIAL with reason "abelianization" when
    ab - c^2 != +-1, or "triangle-quotient" when the group maps onto
    T(|a-c|, |b-c|, |c|).  A TRIVIAL verdict carries the certificate of
    triviality_certificate, and check_certificate has passed on it; a
    certificate that fails raises RuntimeError.  No presentation is built
    and no coset is enumerated.
    """
    a, b, c = t
    if abs(a * b - c * c) != 1:
        return TrivialityResult(Triviality.NONTRIVIAL, "abelianization")
    if triangle_verdict(t) is not TriangleVerdict.INCONCLUSIVE:
        return TrivialityResult(Triviality.NONTRIVIAL, "triangle-quotient")
    certificate = triviality_certificate(t)
    if certificate is None or not check_certificate(t, certificate):
        raise RuntimeError(f"the triviality certificate of r{t} failed its check")
    return TrivialityResult(Triviality.TRIVIAL, certificate=certificate)

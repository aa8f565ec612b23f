"""The canonical two-generator family r(a, b, c).

Every Artin presentation on two generators has relators

    r1 = x1^(a-c) (x1 x2)^c        r2 = x2^(b-c) (x1 x2)^c

for a unique integer triple (a, b, c), and its exponent matrix is
[[a, c], [c, b]].  Componentwise addition of triples realizes the group
law: the family is a copy of Z^3.
"""

from __future__ import annotations

from .artin import ArtinPresentation
from .words import ParseError, Word, _join, generator_power

Tuple3 = tuple[int, int, int]


def _twist_power(c: int) -> Word:
    """(x1 x2)^c as a letter sequence."""
    return (1, 2) * c if c >= 0 else (-2, -1) * (-c)


def _relators(t: Tuple3) -> tuple[Word, Word]:
    """The reduced relators x1^(a-c)(x1x2)^c and x2^(b-c)(x1x2)^c.

    One code path for all triples; degenerate cases (c = 0, a = c, ...)
    fall out of the join.
    """
    a, b, c = t
    twist = _twist_power(c)
    return _join((generator_power(1, a - c), twist)), _join((generator_power(2, b - c), twist))


def build_r2(t: Tuple3) -> ArtinPresentation:
    """Presentation with relators x1^(a-c)(x1x2)^c and x2^(b-c)(x1x2)^c."""
    return ArtinPresentation(2, _relators(t))


def recognize_r2(p: ArtinPresentation) -> Tuple3:
    """Read (a, b, c) off the exponent matrix and verify the canonical form
    word for word.  A mismatch means the input is not in the two-generator
    canonical family and raises ValueError."""
    if p.n != 2:
        raise ValueError(f"expected a two-generator presentation, got n={p.n}")
    m = p.exponent_matrix().entries
    t = (m[0][0], m[1][1], m[0][1])
    if build_r2(t) != p:
        raise ValueError(f"presentation does not match the canonical form for {t}")
    return t


def tuple_add(s: Tuple3, t: Tuple3) -> Tuple3:
    """Componentwise sum; build_r2(tuple_add(s, t)) equals the composition
    of build_r2(s) and build_r2(t)."""
    return (s[0] + t[0], s[1] + t[1], s[2] + t[2])


def tuple_neg(t: Tuple3) -> Tuple3:
    """Componentwise negation; build_r2(tuple_neg(t)) is the composition
    inverse of build_r2(t)."""
    return (-t[0], -t[1], -t[2])


def parse_tuple3(text: str) -> Tuple3:
    """Parse ``a,b,c`` (comma-separated integers)."""
    parts = text.strip().split(",")
    if len(parts) != 3:
        raise ParseError(f"expected three comma-separated integers, got {text!r}")
    try:
        a, b, c = (int(part) for part in parts)
    except ValueError:
        raise ParseError(f"expected three comma-separated integers, got {text!r}") from None
    return (a, b, c)


def format_tuple3(t: Tuple3) -> str:
    return f"{t[0]},{t[1]},{t[2]}"

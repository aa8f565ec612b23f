"""The canonical two-generator family r(a, b, c).

Every Artin presentation on two generators has relators

    r1 = x1^(a-c) (x1 x2)^c        r2 = x2^(b-c) (x1 x2)^c

for a unique integer triple (a, b, c), and its exponent matrix is
[[a, c], [c, b]].  Componentwise addition of triples realizes the group
law: the family is a copy of Z^3.
"""

from __future__ import annotations

from .artin import ArtinPresentation, _from_reduced
from .words import ParseError, Word, _integer, _join, _power, generator_power

Tuple3 = tuple[int, int, int]


def _relators(t: Tuple3) -> tuple[Word, Word]:
    """The reduced relators x1^(a-c)(x1x2)^c and x2^(b-c)(x1x2)^c.

    One code path for all triples; degenerate cases (c = 0, a = c, ...)
    fall out of the join.
    """
    a, b, c = t
    twist = _power((1, 2), c)
    return _join((generator_power(1, a - c), twist)), _join((generator_power(2, b - c), twist))


def build_r2(t: Tuple3) -> ArtinPresentation:
    """Presentation with relators x1^(a-c)(x1x2)^c and x2^(b-c)(x1x2)^c,
    which are reduced, so only the Artin check runs on them."""
    return _from_reduced(2, _relators(t))


def recognize_r2(p: ArtinPresentation) -> Tuple3:
    """The triple (a, b, c) of a two-generator Artin presentation, read off
    its exponent matrix [[a, c], [c, b]].

    The relators of p are exactly _relators((a, b, c)), so no word is built
    or compared.  The map x_i -> r_i^-1 x_i r_i fixes y = x1 x2 and sends
    each x_i to a conjugate of itself, so by Artin's theorem (E. Artin,
    "Theory of braids", Ann. of Math. 48 (1947); J. Birman, *Braids, Links,
    and Mapping Class Groups* (1974), ch. 1) it is the action of a pure
    2-braid.  The pure braid group P2 is generated by s1^2, which under this
    package's convention acts as conjugation by y: generator_images of
    BraidWord(2, (1, 1)) is (y^-1 x1 y, y^-1 x2 y).  So r_i^-1 x_i r_i =
    y^-m x_i y^m for one integer m, and r_i y^-m centralizes x_i.  The
    centralizer of x_i in F2 is <x_i>, so r_i = x_i^k_i y^m.  Exponent sums
    give m = c, k1 = a - c and k2 = b - c, and free reduction is unique, so
    the stored relators are the words of _relators.
    """
    if p.n != 2:
        raise ValueError(f"expected a two-generator presentation, got n={p.n}")
    m = p.exponent_matrix().entries
    return (m[0][0], m[1][1], m[0][1])


def tuple_add(s: Tuple3, t: Tuple3) -> Tuple3:
    """Componentwise sum; build_r2(tuple_add(s, t)) equals the composition
    of build_r2(s) and build_r2(t)."""
    return (s[0] + t[0], s[1] + t[1], s[2] + t[2])


def tuple_neg(t: Tuple3) -> Tuple3:
    """Componentwise negation; build_r2(tuple_neg(t)) is the composition
    inverse of build_r2(t)."""
    return (-t[0], -t[1], -t[2])


def parse_tuple3(text: str) -> Tuple3:
    """Parse ``a,b,c``: three comma-separated ASCII integers ``[+-]?[0-9]+``,
    each with optional surrounding whitespace and at most 4,000 digits."""
    try:
        a, b, c = map(_integer, text.split(","))
    except ParseError:  # a part past the digit cap
        raise
    except ValueError:
        raise ParseError(f"expected three comma-separated integers, got {text!r}") from None
    return (a, b, c)


def format_tuple3(t: Tuple3) -> str:
    return f"{t[0]},{t[1]},{t[2]}"

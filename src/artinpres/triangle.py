"""The paper's first theorem: which two-generator Artin presentations
r(a, b, c) present the trivial group (_is_trivial), their five families
T1-T5 (trivial_family, enumerate_trivial), and certificates either way.

T(l, m, n) = <x, y | x^l, y^m, (xy)^n> is finite exactly when
1/l + 1/m + 1/n > 1, that is when _excess(l, m, n) > 0, and then has
order 2lmn / _excess(l, m, n).  Adding the relation (x1 x2)^c to
r(a, b, c) yields a surjection of its group onto T(|a-c|, |b-c|, |c|)
(triangle_quotient), so whenever those three values are all at least 2
the group is certified nontrivial, and infinite when the excess is at
most 0 (triangle_verdict).  Triviality certificates go the other way: a
straight-line program, chosen by family, that writes x1 and x2 as
products of conjugates of the relators, checked on syllable words in the
free basis {x_i, x1 x2} (check_certificate).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain

from .coset import FinitePresentation
from .twogen import Tuple3, _relators
from .words import _power


class TriangleVerdict(Enum):
    """What the triangle-quotient certificate can say about a group in the
    two-generator family.  INFINITE is the stronger claim and implies
    NONTRIVIAL; INCONCLUSIVE carries no information."""

    NONTRIVIAL = "nontrivial"
    INFINITE = "infinite"
    INCONCLUSIVE = "inconclusive"


def _excess(l: int, m: int, n: int) -> int:
    """lmn (1/l + 1/m + 1/n - 1) in integers: positive exactly when
    T(l, m, n) is spherical (finite), 0 when Euclidean, negative when
    hyperbolic."""
    return m * n + l * n + l * m - l * m * n


def triangle_quotient(t: Tuple3) -> FinitePresentation:
    """The quotient of r(a, b, c) by the extra relation (x1 x2)^c.

    Equivalent after cancellation to the triangle presentation on
    (|a-c|, |b-c|, |c|), which makes the certificate chain checkable by
    coset enumeration on finite cases.
    """
    return FinitePresentation(2, _relators(t) + (_power((1, 2), t[2]),))


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


def _is_trivial(t: Tuple3) -> bool:
    """The library's one triviality decision, the paper's main theorem:
    r(a, b, c) is trivial exactly when |ab - c^2| = 1 and
    min(|a-c|, |b-c|, |c|) <= 1, the families T1-T5."""
    a, b, c = t
    return abs(a * b - c * c) == 1 and min(abs(a - c), abs(b - c), abs(c)) <= 1


class Family(Enum):
    """The five parameter families of triples presenting the trivial group."""

    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"


def trivial_family(t: Tuple3) -> Family | None:
    """First family containing the triple, or None when r(a, b, c) is not
    trivial, which _is_trivial decides.

    T1: (+-1, +-1, 0).  T2: +-(2, 1, +-1) and +-(1, 2, +-1).
    T3: +-(1, 5, 2), +-(5, 1, 2), +-(2, 5, 3), +-(5, 2, 3).
    T4: (a, 0, +-1) and (0, b, +-1).  T5: (c + 1, c - 1, c) and
    (c - 1, c + 1, c).  On a trivial triple, c = 0 forces ab = +-1 (T1);
    |c| = 1 gives ab = 2 (T2) or 0 (T4, ahead of T5); for |c| >= 2,
    a = c + e with e = +-1 (a = c is impossible) gives b = c - e (T5) or
    (c + e) | 2, the eight T3 triples, and likewise with b for a.
    """
    if not _is_trivial(t):
        return None
    a, b, c = t
    if c == 0:
        return Family.T1
    if abs(c) == 1:
        return Family.T2 if a * b == 2 else Family.T4
    return Family.T5 if a + b == 2 * c else Family.T3


def enumerate_trivial(bound: int) -> Iterator[Tuple3]:
    """All family members with max(|a|, |b|, |c|) <= bound, each once, in
    lexicographic order, streamed row by row in a; the bound is checked at
    the call.  Row 0 is every (0, b, +-1) (T4).  Row a != 0 sorts a few
    candidates: |c| <= 1 or |a - c| <= 1 with b solving ab = c^2 +- 1, and
    |b - c| <= 1, which forces |a - b| <= 4 since b (a - b - 2e) = e^2 +- 1
    for c = b + e (b = 0 gives |c| = 1).  O(bound) time, O(1) memory."""
    if bound < 1:
        raise ValueError("bound must be at least 1")
    return _trivial_rows(bound)


def _trivial_rows(bound: int) -> Iterator[Tuple3]:
    span = range(-bound, bound + 1)
    for a in span:
        if a == 0:
            yield from ((0, b, c) for b in span for c in (-1, 1))
            continue
        near = (-1, 0, 1, a - 1, a, a + 1)
        row = {(a, n // a, c) for c in near for n in (c * c - 1, c * c + 1) if n % a == 0}
        row.update((a, b, c) for b in range(a - 4, a + 5) for c in (b - 1, b, b + 1)
                   if abs(a * b - c * c) == 1)
        yield from sorted(t for t in row if max(abs(t[1]), abs(t[2])) <= bound and _is_trivial(t))


def _step(name: str, *factors: tuple[str, int]) -> CertificateStep:
    """A step without its factors of exponent 0, which a flip would leave
    unchanged."""
    return (name, tuple(factor for factor in factors if factor[1]))


def triviality_certificate(t: Tuple3) -> TrivialityCertificate | None:
    """A straight-line program proving r(a, b, c) trivial, or None exactly
    when _is_trivial(t) is false; trivial_family chooses the program.

    With y = x1 x2, p = a - c and q = b - c the relators are r1 = x1^p y^c
    and r2 = x2^q y^c.

    T1 (c = 0, |p| = |q| = 1), 2 steps: r_i^(+-1) = x_i.

    T4 (|c| = 1, ab = 0), 2 steps; one relator is a conjugate of a
    generator, and (0, 0, +-1) takes the program of (0, b, +-1):
      (0, b, 1):  r1 = x2, so X2 = r1 and X1 = X2^(1-b) r2 X2^-1;
      (0, b, -1): r1^-1 = x1 x2 x1^-1 and r2 = x2^b x1^-1, so
                  r1^-b = x1 x2^b x1^-1 = x1 r2, X1 = r1^-b r2^-1 and
                  X2 = X1^-1 r1^-1 X1;
      (a, 0, 1):  r1 = x1^a x2 and r2 = x2^-1 x1 x2, so
                  r2^a = x2^-1 x1^a x2 = x2^-1 r1, X2 = r1 r2^-a and
                  X1 = X2 r2 X2^-1;
      (a, 0, -1): r2 = x1^-1, so X1 = r2^-1 and X2 = X1^-1 r1^-1 X1^(a+1).

    T5 (p = -q = +-1, |c| >= 2; its four members with |c| = 1 are in T4
    and take T4's program), 3 steps: for p = 1, r1 r2^-1 = x1 y^c y^-c x2
    = y, so Y = r1 r2^-1, X1 = r1 Y^-c and X2 = X1^-1 Y; for p = -1,
    r1^-1 r2 = y^-c x1 x2 y^c = y, so Y = r1^-1 r2, X1 = Y^c r1^-1 and
    X2 = X1^-1 Y.

    T3 (8 triples, |c| >= 2), 9 steps: exactly one of |p| and |q| is 1,
    so r_i y^-c is x_i or its inverse, which writes the other generator in
    y and leaves y^(+-det) as a product of relator conjugates.

    T2 (8 triples, |c| = 1, ab = 2): a relator whose other exponent is 0
    gives y = r_i^c (4 steps); otherwise the T3 steps run with x1 in place
    of y (9 steps).

    Every factor of exponent 0 is left out.  Every step has a few factors
    and every value has O(1) syllables in check_certificate's basis, so a
    check costs O(steps) whatever the size of the triple.
    """
    family = trivial_family(t)
    if family is None:
        return None
    a, b, c = t
    p, q = a - c, b - c
    if family is Family.T1:  # p = a and q = b
        return (("X1", (("r1", p),)), ("X2", (("r2", q),)))
    if family is Family.T4:  # a = 0 or b = 0
        if a == 0 and c == 1:
            return (("X2", (("r1", 1),)), _step("X1", ("X2", 1 - b), ("r2", 1), ("X2", -1)))
        if a == 0:
            x1 = _step("X1", ("r1", -b), ("r2", -1))
            return (x1, ("X2", (("X1", -1), ("r1", -1), ("X1", 1))))
        if c == 1:
            return (_step("X2", ("r1", 1), ("r2", -a)), ("X1", (("X2", 1), ("r2", 1), ("X2", -1))))
        return (("X1", (("r2", -1),)), _step("X2", ("X1", -1), ("r1", -1), ("X1", a + 1)))
    if family is Family.T5:  # p = -q = +-1
        x1 = (("r1", 1), ("Y", -c)) if p == 1 else (("Y", c), ("r1", -1))
        return (("Y", (("r1", p), ("r2", -p))), ("X1", x1), _other_output(1))
    det = a * b - c * c
    if family is Family.T3:  # exactly one of |p| and |q| is 1
        i, j, e, f = (1, 2, p, q) if abs(p) == 1 else (2, 1, q, p)
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
    # T2: |c| = 1 and ab = 2
    if p == 0 or q == 0:  # det = cq or cp, so the other is +-1
        i, j, e = (1, 2, q) if p == 0 else (2, 1, p)
        return (
            ("Y", ((f"r{i}", c),)),
            ("B", ((f"r{j}", 1), ("Y", -c))),
            (f"X{j}", (("B", e),)),
            _other_output(j),
        )
    d = -c * det  # G maps to x1^d when r1, r2 -> 1
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


# A word in syllables: (generator, exponent) pairs, exponents nonzero and no
# two neighbours on one generator.  Reduced syllable tuples are a normal
# form of the free group, so group equality is tuple equality; the
# helpers below keep it at any rank.
_Syllables = tuple[tuple[str, int], ...]

# The most syllables a product may reach, or a power copy out, before it is
# refused with ValueError: a bound on what check_certificate builds.
_MAX_SYLLABLES = 10**6

# The most bits an exponent of a step's value may have beyond the largest
# entry of the triple or exponent of the program: the other such bound.
_MAX_EXTRA_BITS = 64


def _syllable_product(factors: Iterable[_Syllables]) -> _Syllables:
    """Product of reduced syllable words: the exponents add at each
    junction, and a syllable whose exponent reaches 0 lets the next pair
    meet.  Raises ValueError once the product passes _MAX_SYLLABLES."""
    out: list[tuple[str, int]] = []
    for word in factors:
        k = 0
        while out and k < len(word) and out[-1][0] == word[k][0]:
            g, e = out.pop()
            e += word[k][1]
            k += 1
            if e:
                out.append((g, e))
                break
        out.extend(word[k:])
        if len(out) > _MAX_SYLLABLES:
            raise ValueError(f"a product of more than {_MAX_SYLLABLES} syllables")
    return tuple(out)


def _syllable_inverse(word: _Syllables) -> _Syllables:
    return tuple((g, -e) for g, e in reversed(word))


def _syllable_power(word: _Syllables, n: int) -> _Syllables:
    """word^n of a reduced syllable word.  End syllables that cancel
    exactly, (g, e) ... (g, -e), peel into a conjugator: word = U V U^-1.
    One syllable V = (g, e) gives U (g, e n) U^-1 at any n; otherwise the
    power is the product of |n| copies of word or its inverse, whose
    junction merge cancels each U^-1 U and joins V's ends on one generator.
    Only that case grows with n: it raises ValueError before making the
    copies when len(word) |n| passes _MAX_SYLLABLES."""
    if n < 0:
        word, n = _syllable_inverse(word), -n
    if n == 1:
        return word
    if not word or not n:
        return ()
    k, last = 0, len(word) - 1
    while k < last - k and word[k] == (word[last - k][0], -word[last - k][1]):
        k += 1
    if k == last - k:
        g, e = word[k]
        return word[:k] + ((g, e * n),) + word[k + 1 :]
    if len(word) * n > _MAX_SYLLABLES:
        raise ValueError(f"a power of more than {_MAX_SYLLABLES} syllables")
    return _syllable_product((word,) * n)


def check_certificate(t: Tuple3, certificate: TrivialityCertificate) -> bool:
    """Whether the program proves r(a, b, c) trivial.

    It runs twice.  With r_i read as its relator x_i^(k-c) (x1 x2)^c (k is
    a for r1 and b for r2), the outputs X1 and X2 must be x1 and x2.  With
    r_i read as 1, both must be the identity, which puts each output in
    the normal closure of r1 and r2 in the free group on x1, x2, r1, r2;
    the first run then puts x1 and x2 in the normal closure of the
    relators.

    Values are reduced syllable words in the free basis {u, y} of F2, with
    y = x1 x2 and u = x1 when |a-c| >= |b-c|, else u = x2 (a Nielsen
    change of basis: x2 = u^-1 y, or x1 = y u^-1).  The change of basis is
    an automorphism and reduced syllable tuples are a normal form, so
    tuple equality is group equality and the verdict is that of free
    reduction on letters.  The relators take O(1 + min(|a-c|, |b-c|))
    syllables, which is O(1) on every family member.  A power costs
    O(len(value)) when the value is a conjugate of one syllable, whatever
    the exponent, and O(len(value) |exponent|) otherwise, so a check of
    the library's certificates costs O(steps) whatever the size of the
    triple.  Two bounds keep a check's cost finite on any input.  No value,
    and no power on its way to one, may pass _MAX_SYLLABLES = 10^6
    syllables.  No exponent of a step's value may have more than B +
    _MAX_EXTRA_BITS bits, B the largest bit length among the triple's
    entries and the program's exponents, so repeated powers cannot
    multiply an exponent's digits.  A program or triple that would pass
    either raises ValueError naming the step, or the relators, instead of
    exhausting time or memory.
    """
    a, b, c = t
    if abs(a - c) >= abs(b - c):  # u = x1
        x1, x2 = (("u", 1),), (("u", -1), ("y", 1))
    else:  # u = x2
        x1, x2 = (("y", 1), ("u", -1)), (("u", 1),)
    # B + _MAX_EXTRA_BITS, read only once an exponent passes _MAX_EXTRA_BITS
    exponents = chain(t, (e for _, factors in certificate for _, e in factors))
    bits = 0
    name = None  # no step has run while the relators are built
    try:
        twist = _syllable_power((("y", 1),), c)
        relators = tuple(
            _syllable_product((_syllable_power(x, k - c), twist)) for x, k in ((x1, a), (x2, b))
        )
        for (r1, r2), outputs in ((relators, (x1, x2)), (((), ()), ((), ()))):
            values = {"x1": x1, "x2": x2, "r1": r1, "r2": r2}
            for name, factors in certificate:
                value = values[name] = _syllable_product(
                    _syllable_power(values[symbol], e) for symbol, e in factors
                )
                for _, e in value:
                    if e.bit_length() > _MAX_EXTRA_BITS:
                        bits = bits or max(map(abs, exponents)).bit_length() + _MAX_EXTRA_BITS
                        if e.bit_length() > bits:
                            raise ValueError(f"an exponent of more than {bits} bits")
            if (values.get("X1"), values.get("X2")) != outputs:
                return False
    except KeyError:
        # a step names a symbol that no earlier step defines
        return False
    except ValueError as error:
        where = "the relators" if name is None else f"step {name!r}"
        raise ValueError(f"{where}: {error}") from None
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

    _is_trivial decides.  A NONTRIVIAL verdict has reason "abelianization"
    when ab - c^2 != +-1, else "triangle-quotient": |a-c|, |b-c| and |c|
    are then all at least 2, and triangle_verdict certifies the map onto
    T(|a-c|, |b-c|, |c|).  A TRIVIAL verdict carries the certificate of
    triviality_certificate, checked by check_certificate; a missing or
    failed certificate raises RuntimeError.  No presentation is built and
    no coset is enumerated.
    """
    if not _is_trivial(t):
        a, b, c = t
        reason = "abelianization" if abs(a * b - c * c) != 1 else "triangle-quotient"
        return TrivialityResult(Triviality.NONTRIVIAL, reason)
    certificate = triviality_certificate(t)
    if certificate is None or not check_certificate(t, certificate):
        raise RuntimeError(f"the triviality certificate of r{t} failed its check")
    return TrivialityResult(Triviality.TRIVIAL, certificate=certificate)

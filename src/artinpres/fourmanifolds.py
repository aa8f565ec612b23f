"""Tuple moves, trivial-group families, intersection-form invariants, and
the closed 4-manifold attached to each trivial two-generator presentation.

Each r(a, b, c) is the boundary data of a 4-dimensional 2-handlebody whose
Kirby diagram is the closure of s1^(2c) with framings a and b, and whose
intersection form is [[a, c], [c, b]].  Two handle slides act on triples as

    slide1: (a, b, c) -> (a + b - 2c, b, b - c)
    slide2: (a, b, c) -> (a, a + b - 2c, a - c)

preserving the manifold, hence the determinant and signature.  Swapping the
components, flipping the sign of c when |c| = 1, and mirroring (negating
everything, which reverses orientation) are diffeomorphisms as well.  For
triples presenting the trivial group, chaining these moves down to a
handful of base diagrams identifies the closed manifold, which is one of
CP2 # CP2, CP2 # mCP2, mCP2 # mCP2, or S2 x S2 (mCP2 denoting the
orientation-reversed complex projective plane).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .triangle import _is_trivial
from .twogen import Tuple3, format_tuple3, tuple_neg


def slide1(t: Tuple3) -> Tuple3:
    """Slide the first handle over the second."""
    a, b, c = t
    return (a + b - 2 * c, b, b - c)


def slide2(t: Tuple3) -> Tuple3:
    """Slide the second handle over the first."""
    a, b, c = t
    return (a, a + b - 2 * c, a - c)


def swap(t: Tuple3) -> Tuple3:
    """Interchange the two link components."""
    a, b, c = t
    return (b, a, c)


def flipc(t: Tuple3) -> Tuple3:
    """Flip the sign of the single clasp; defined only for |c| = 1."""
    a, b, c = t
    if abs(c) != 1:
        raise ValueError(f"flipc requires |c| = 1, got c = {c}")
    return (a, b, -c)


def mirror(t: Tuple3) -> Tuple3:
    """Mirror the diagram; negates the triple and reverses orientation."""
    return tuple_neg(t)


class Family(Enum):
    """The five parameter families of triples presenting the trivial group."""

    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"


def trivial_family(t: Tuple3) -> Family | None:
    """First family containing the triple, or None when r(a, b, c) is not
    trivial, which triangle._is_trivial decides.

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


class Parity(Enum):
    EVEN = "even"
    ODD = "odd"


class FourManifold(Enum):
    CP2_CP2 = "CP2#CP2"
    CP2_MCP2 = "CP2#mCP2"
    MCP2_MCP2 = "mCP2#mCP2"
    S2XS2 = "S2xS2"


@dataclass(frozen=True)
class FormInvariants:
    """Determinant, signature, and parity of the form [[a, c], [c, b]]."""

    det: int
    signature: int
    parity: Parity


def form_invariants(t: Tuple3) -> FormInvariants:
    """Exact invariants of the intersection form.

    The signature is computed from integer sign analysis alone: a negative
    determinant forces one eigenvalue of each sign; a positive determinant
    puts both on the side of the trace; a singular form contributes the
    sign of the trace.  The form is even exactly when both diagonal entries
    are.
    """
    a, b, c = t
    det = a * b - c * c
    if det < 0:
        signature = 0
    elif det > 0:
        signature = 2 if a > 0 else -2
    else:
        trace = a + b
        signature = 0 if trace == 0 else (1 if trace > 0 else -1)
    parity = Parity.EVEN if a % 2 == 0 and b % 2 == 0 else Parity.ODD
    return FormInvariants(det, signature, parity)


@dataclass(frozen=True)
class MoveStep:
    move: str
    result: Tuple3


@dataclass(frozen=True)
class MovePath:
    """A chain of diffeomorphism moves from a triple down to a base diagram,
    with a flag recording whether an odd number of mirrors was used."""

    start: Tuple3
    steps: tuple[MoveStep, ...]

    @property
    def final(self) -> Tuple3:
        return self.steps[-1].result if self.steps else self.start

    @property
    def orientation_reversed(self) -> bool:
        return sum(1 for step in self.steps if step.move == "mirror") % 2 == 1


def _base_class(t: Tuple3) -> FourManifold | None:
    """Manifold of a base diagram, or None if t is not one."""
    if t == (1, 1, 0):
        return FourManifold.CP2_CP2
    if t == (1, -1, 0):
        return FourManifold.CP2_MCP2
    if t[1] == 0 and t[2] == 1:
        return FourManifold.S2XS2 if t[0] % 2 == 0 else FourManifold.CP2_MCP2
    return None


_REVERSED = {
    FourManifold.CP2_CP2: FourManifold.MCP2_MCP2,
    FourManifold.MCP2_MCP2: FourManifold.CP2_CP2,
    FourManifold.CP2_MCP2: FourManifold.CP2_MCP2,
    FourManifold.S2XS2: FourManifold.S2XS2,
}


def reduce_to_base(t: Tuple3) -> MovePath:
    """Greedy normalization to a base diagram.

    Swaps when that lands on a base; otherwise takes a slide that strictly
    shrinks |a| + |b| + |c|, flips a negative single clasp, or mirrors a
    negative-trace triple, in that order, and raises RuntimeError when none
    applies.  The loop ends: every slide lowers |a| + |b| + |c|, at most
    flipc, mirror, flipc come between two slides (mirror needs a + b < 0 and
    leaves a + b > 0; flipc keeps a + b), and the only swap ends the loop.
    No other swap helps: slide1(swap(u)) = swap(slide2(u)),
    slide2(swap(u)) = swap(slide1(u)) and swap keeps |a| + |b| + |c|.
    """
    steps: list[MoveStep] = []
    current = t

    def size(u: Tuple3) -> int:
        return abs(u[0]) + abs(u[1]) + abs(u[2])

    def push(move: str, result: Tuple3) -> None:
        nonlocal current
        steps.append(MoveStep(move, result))
        current = result

    while _base_class(current) is None:
        s = size(current)
        if _base_class(swapped := swap(current)) is not None:
            push("swap", swapped)
        elif size(first := slide1(current)) < s:
            push("slide1", first)
        elif size(second := slide2(current)) < s:
            push("slide2", second)
        elif current[2] == -1:
            push("flipc", flipc(current))
        elif current[0] + current[1] < 0:
            push("mirror", mirror(current))
        else:
            raise RuntimeError(f"no shrinking move available at {current} (from {t})")
    return MovePath(t, tuple(steps))


def _invariant_class(inv: FormInvariants) -> FourManifold:
    if inv.signature == 2:
        return FourManifold.CP2_CP2
    if inv.signature == -2:
        return FourManifold.MCP2_MCP2
    if inv.signature == 0 and inv.det in (1, -1):
        return FourManifold.CP2_MCP2 if inv.parity is Parity.ODD else FourManifold.S2XS2
    raise ValueError(f"invariants {inv} do not match a rank-2 unimodular form")


def classify_x4_with_path(t: Tuple3) -> tuple[FourManifold, MovePath]:
    """Closed 4-manifold of a trivial-group triple, plus the move path.

    The move-based answer is cross-checked against the invariant rule
    (signature and parity of the intersection form); a disagreement would
    be an internal bug and raises RuntimeError.  A triple that is not
    trivial raises ValueError("a,b,c is outside the trivial-group
    families"), the text the classify command prints.
    """
    if not _is_trivial(t):
        raise ValueError(f"{format_tuple3(t)} is outside the trivial-group families")
    path = reduce_to_base(t)
    by_moves = _base_class(path.final)
    if path.orientation_reversed:
        by_moves = _REVERSED[by_moves]
    by_invariants = _invariant_class(form_invariants(t))
    if by_moves != by_invariants:
        raise RuntimeError(
            f"move path gives {by_moves.value} but invariants give "
            f"{by_invariants.value} for {t}"
        )
    return by_moves, path


def classify_x4(t: Tuple3) -> FourManifold:
    return classify_x4_with_path(t)[0]


def export_kirby(t: Tuple3) -> str:
    """Framed-link descriptor of the handlebody diagram: the closure of
    s1^(2c) with framings a and b."""
    a, b, c = t
    return f"strands=2; braid=s1^{2 * c}; framings={a},{b}"

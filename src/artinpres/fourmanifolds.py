"""The paper's second theorem: the closed 4-manifold attached to each
trivial two-generator presentation, named by its intersection form and
proved by tuple moves.  Which triples are trivial, and their families
T1-T5, is the first theorem, in triangle.

Each r(a, b, c) is the boundary data of a 4-dimensional 2-handlebody whose
Kirby diagram is the closure of s1^(2c) with framings a and b, and whose
intersection form is [[a, c], [c, b]].  Two handle slides act on triples as

    slide1: (a, b, c) -> (a + b - 2c, b, b - c)
    slide2: (a, b, c) -> (a, a + b - 2c, a - c)

preserving the manifold, hence the determinant and signature.  Swapping the
components, flipping the sign of c when |c| = 1, and mirroring (negating
everything, which reverses orientation) are diffeomorphisms as well.  For
a trivial-group triple the form is unimodular, so its signature and parity
name the closed manifold: CP2 # CP2, CP2 # mCP2, mCP2 # mCP2, or S2 x S2
(mCP2 is CP2 with orientation reversed).  Moves down to a base diagram
prove it; the form at their end, signature negated after an odd number of
mirrors, must be the form of the triple.
"""

from __future__ import annotations

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


def _form(t: Tuple3) -> tuple[int, int, Parity]:
    """(det, signature, parity) of the form [[a, c], [c, b]], the fields of
    FormInvariants as a plain tuple.

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
    return det, signature, Parity.EVEN if a % 2 == 0 and b % 2 == 0 else Parity.ODD


def form_invariants(t: Tuple3) -> FormInvariants:
    """Exact invariants of the intersection form (see _form)."""
    return FormInvariants(*_form(t))


@dataclass(frozen=True)
class MoveStep:
    move: str
    result: Tuple3


@dataclass(frozen=True)
class MovePath:
    """A chain of diffeomorphism moves from a triple down to a base diagram;
    orientation_reversed says whether it mirrors an odd number of times."""

    start: Tuple3
    steps: tuple[MoveStep, ...]

    @property
    def final(self) -> Tuple3:
        return self.steps[-1].result if self.steps else self.start

    @property
    def orientation_reversed(self) -> bool:
        return sum(1 for step in self.steps if step.move == "mirror") % 2 == 1


def _is_base(t: Tuple3) -> bool:
    """Whether t is a base diagram: (1, 1, 0), (1, -1, 0) or (a, 0, 1)."""
    return t in ((1, 1, 0), (1, -1, 0)) or (t[1] == 0 and t[2] == 1)


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

    while not _is_base(current):
        s = size(current)
        if _is_base(swapped := swap(current)):
            move, current = "swap", swapped
        elif size(first := slide1(current)) < s:
            move, current = "slide1", first
        elif size(second := slide2(current)) < s:
            move, current = "slide2", second
        elif current[2] == -1:
            move, current = "flipc", flipc(current)
        elif current[0] + current[1] < 0:
            move, current = "mirror", mirror(current)
        else:
            raise RuntimeError(f"no shrinking move available at {current} (from {t})")
        steps.append(MoveStep(move, current))
    return MovePath(t, tuple(steps))


def _invariant_class(form: tuple[int, int, Parity]) -> FourManifold:
    """The manifold that the (det, signature, parity) of _form names."""
    det, signature, parity = form
    if signature == 2:
        return FourManifold.CP2_CP2
    if signature == -2:
        return FourManifold.MCP2_MCP2
    if signature == 0 and det in (1, -1):
        return FourManifold.CP2_MCP2 if parity is Parity.ODD else FourManifold.S2XS2
    raise ValueError(f"invariants {FormInvariants(*form)} do not match a rank-2 unimodular form")


def classify_x4_with_path(t: Tuple3) -> tuple[FourManifold, MovePath]:
    """Closed 4-manifold of a trivial-group triple, plus the move path.

    The signature/parity rule names the manifold from the form of t.  The
    path must end at a base diagram whose form, with the signature negated
    when the path reverses orientation, is the form of t; anything else
    would be an internal bug and raises RuntimeError.  A triple that is not
    trivial raises ValueError("a,b,c is outside the trivial-group
    families"), the text the classify command prints.
    """
    if not _is_trivial(t):
        raise ValueError(f"{format_tuple3(t)} is outside the trivial-group families")
    path = reduce_to_base(t)
    final = path.final
    form = _form(t)
    # mirroring keeps det and parity and negates the signature
    end = _form(mirror(final) if path.orientation_reversed else final)
    if not _is_base(final) or end != form:
        raise RuntimeError(
            f"move path ends at {final} with {FormInvariants(*end)}, "
            f"but {t} has {FormInvariants(*form)}"
        )
    return _invariant_class(form), path


def classify_x4(t: Tuple3) -> FourManifold:
    return classify_x4_with_path(t)[0]


def export_kirby(t: Tuple3) -> str:
    """Framed-link descriptor of the handlebody diagram: the closure of
    s1^(2c) with framings a and b."""
    a, b, c = t
    return f"strands=2; braid=s1^{2 * c}; framings={a},{b}"

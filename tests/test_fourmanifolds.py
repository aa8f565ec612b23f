from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpres.coset import Finite, FinitePresentation, enumerate_cosets
from artinpres.fourmanifolds import (
    FourManifold,
    MovePath,
    MoveStep,
    Parity,
    _invariant_class,
    classify_x4,
    classify_x4_with_path,
    export_kirby,
    flipc,
    form_invariants,
    mirror,
    reduce_to_base,
    slide1,
    slide2,
    swap,
)
from artinpres.triangle import (
    Family,
    Triviality,
    enumerate_trivial,
    trivial_family,
    triviality_status,
)
from artinpres.twogen import build_r2, tuple_neg
from conftest import large_members


class TestMoves:
    def test_slide_examples(self):
        assert slide1((2, 1, 1)) == (1, 1, 0)
        assert slide1((2, 1, -1)) == (5, 1, 2)
        assert slide2((5, 1, 2)) == (5, 2, 3)

    @pytest.mark.parametrize("c", [-3, 0, 1, 4])
    def test_slide2_flattens_adjacent_family(self, c):
        assert slide2((c + 1, c - 1, c)) == (c + 1, 0, 1)

    def test_swap(self):
        assert swap((5, 1, 2)) == (1, 5, 2)

    def test_flipc(self):
        assert flipc((2, 1, 1)) == (2, 1, -1)

    def test_flipc_requires_unit_clasp(self):
        with pytest.raises(ValueError):
            flipc((2, 1, 2))

    def test_mirror(self):
        assert mirror((1, 1, 0)) == (-1, -1, 0)

    def test_det_and_signature_invariance_small_grid(self):
        for t in product(range(-8, 9), repeat=3):
            inv = form_invariants(t)
            for moved in (slide1(t), slide2(t), swap(t)):
                other = form_invariants(moved)
                assert other.det == inv.det and other.signature == inv.signature
            if abs(t[2]) == 1:
                other = form_invariants(flipc(t))
                assert other.det == inv.det and other.signature == inv.signature
            mirrored = form_invariants(mirror(t))
            assert mirrored.det == inv.det
            assert mirrored.signature == -inv.signature


# Reference: the paper's families T1-T5 listed literally, first match wins.
# It does not use the closed-form rule that trivial_family names them by.

REFERENCE_T1 = {(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)}
REFERENCE_T2 = {
    (2, 1, 1), (2, 1, -1), (-2, -1, -1), (-2, -1, 1),
    (1, 2, 1), (1, 2, -1), (-1, -2, -1), (-1, -2, 1),
}
REFERENCE_T3 = {
    (1, 5, 2), (-1, -5, -2), (5, 1, 2), (-5, -1, -2),
    (2, 5, 3), (-2, -5, -3), (5, 2, 3), (-5, -2, -3),
}


def reference_family(t):
    a, b, c = t
    if t in REFERENCE_T1:
        return Family.T1
    if t in REFERENCE_T2:
        return Family.T2
    if t in REFERENCE_T3:
        return Family.T3
    if abs(c) == 1 and (a == 0 or b == 0):
        return Family.T4
    if (a == c + 1 and b == c - 1) or (a == c - 1 and b == c + 1):
        return Family.T5
    return None


def reference_enumerate(bound):
    """The members of each listed family in the box, sorted."""
    found = {t for t in REFERENCE_T1 | REFERENCE_T2 | REFERENCE_T3 if max(map(abs, t)) <= bound}
    for v in range(-bound, bound + 1):
        for c in (1, -1):
            found.update({(v, 0, c), (0, v, c)})
    for c in range(-(bound - 1), bound):
        found.update({(c + 1, c - 1, c), (c - 1, c + 1, c)})
    return sorted(found)


class TestFamilies:
    def test_examples(self):
        assert trivial_family((1, 5, 2)) is Family.T3
        assert trivial_family((7, 0, 1)) is Family.T4
        assert trivial_family((4, 2, 3)) is Family.T5
        assert trivial_family((2, 3, 5)) is None

    def test_first_match_ordering(self):
        # (1, -1, 0) also matches the adjacent family with c = 0
        assert trivial_family((1, -1, 0)) is Family.T1
        assert trivial_family((2, 1, 1)) is Family.T2

    def test_negation_stability(self):
        for t in [(2, 1, -1), (5, 2, 3), (9, 0, 1), (6, 4, 5), (1, 1, 0)]:
            assert trivial_family(t) is not None
            assert trivial_family(tuple_neg(t)) is not None

    def test_matches_reference_up_to_25(self):
        for t in product(range(-25, 26), repeat=3):
            assert trivial_family(t) is reference_family(t), t

    @given(large_members(st.integers(-(10**12), 10**12)))
    def test_matches_reference_on_large_members(self, t):
        assert trivial_family(t) is reference_family(t) is not None


class TestEnumerateTrivial:
    def test_bound_one_count(self):
        found = list(enumerate_trivial(1))
        assert len(found) == 14

    def test_bound_one_membership(self):
        found = list(enumerate_trivial(1))
        assert (1, 1, 0) in found
        assert (1, 1, 1) not in found

    def test_sorted_and_unique(self):
        found = list(enumerate_trivial(6))
        assert found == sorted(set(found))

    def test_every_member_in_some_family(self):
        for t in enumerate_trivial(8):
            assert trivial_family(t) is not None

    def test_negation_closure(self):
        members = set(enumerate_trivial(8))
        assert members == {tuple_neg(t) for t in members}

    def test_brute_force_oracle(self):
        # independent filter: unimodular and coset-certified trivial
        certified = set()
        for t in product(range(-4, 5), repeat=3):
            a, b, c = t
            if abs(a * b - c * c) != 1:
                continue
            result = enumerate_cosets(
                FinitePresentation(2, build_r2(t).relators), max_cosets=5000
            )
            if isinstance(result, Finite) and result.order == 1:
                certified.add(t)
        assert certified == set(enumerate_trivial(4))

    def test_dichotomy_up_to_twelve(self):
        # every unimodular triple is either a family member or has all three
        # triangle parameters at least 2
        members = set(enumerate_trivial(12))
        for t in product(range(-12, 13), repeat=3):
            a, b, c = t
            if abs(a * b - c * c) != 1 or t in members:
                continue
            assert min(abs(a - c), abs(b - c), abs(c)) >= 2, t

    def test_completeness_oracle_small(self):
        for t in enumerate_trivial(3):
            assert triviality_status(t).status is Triviality.TRIVIAL

    def test_bound_validated(self):
        with pytest.raises(ValueError):
            enumerate_trivial(0)

    @pytest.mark.parametrize("bound", [1, 2, 3, 5, 8, 12, 50, 100, 300])
    def test_matches_reference(self, bound):
        assert list(enumerate_trivial(bound)) == reference_enumerate(bound)

    def test_streams_from_a_large_bound(self):
        # the first triples arrive without the 10^7 rows before them built
        found = enumerate_trivial(10**7)
        assert next(found) == (-(10**7), -(10**7) + 2, -(10**7) + 1)
        assert next(found) == (-(10**7), 0, -1)


class TestFormInvariants:
    def test_positive_definite(self):
        inv = form_invariants((1, 1, 0))
        assert (inv.det, inv.signature, inv.parity) == (1, 2, Parity.ODD)

    def test_hyperbolic_even(self):
        inv = form_invariants((0, 0, 1))
        assert (inv.det, inv.signature, inv.parity) == (-1, 0, Parity.EVEN)

    def test_indefinite_odd(self):
        inv = form_invariants((-1, -3, 2))
        assert (inv.det, inv.signature, inv.parity) == (-1, 0, Parity.ODD)

    def test_negative_definite(self):
        inv = form_invariants((-1, -1, 0))
        assert (inv.det, inv.signature) == (1, -2)

    def test_degenerate_trace_sign(self):
        assert form_invariants((1, 1, 1)).signature == 1
        assert form_invariants((0, 0, 0)).signature == 0


class TestClassify:
    @pytest.mark.parametrize(
        "t, manifold",
        [
            ((1, 1, 0), FourManifold.CP2_CP2),
            ((1, -1, 0), FourManifold.CP2_MCP2),
            ((2, 1, 1), FourManifold.CP2_CP2),
            ((5, 1, 2), FourManifold.CP2_CP2),
            ((5, 2, 3), FourManifold.CP2_CP2),
            ((4, 0, 1), FourManifold.S2XS2),
            ((7, 0, 1), FourManifold.CP2_MCP2),
            ((3, 1, 2), FourManifold.CP2_MCP2),
            ((-1, -1, 0), FourManifold.MCP2_MCP2),
            ((-5, -2, -3), FourManifold.MCP2_MCP2),
        ],
    )
    def test_table(self, t, manifold):
        assert classify_x4(t) is manifold

    def test_outside_families_rejected(self):
        with pytest.raises(ValueError):
            classify_x4((2, 3, 5))

    def test_base_case_has_empty_path(self):
        _, path = classify_x4_with_path((1, 1, 0))
        assert path.steps == ()
        assert path.final == (1, 1, 0)

    def test_path_records_moves(self):
        _, path = classify_x4_with_path((5, 2, 3))
        assert [step.move for step in path.steps] == ["slide1", "flipc", "slide2"]
        assert path.final == (1, 1, 0)
        assert not path.orientation_reversed

    def test_mirror_tracks_orientation(self):
        _, path = classify_x4_with_path((-1, -1, 0))
        assert path.orientation_reversed

    def test_grid_instances_classify_consistently(self):
        # classify_x4 checks the move path against the form internally
        for t in enumerate_trivial(12):
            classify_x4(t)

    def test_adjacent_family_parity_rule(self):
        for c in range(-11, 12):
            expected = (
                FourManifold.S2XS2 if c % 2 else FourManifold.CP2_MCP2
            )
            assert classify_x4((c + 1, c - 1, c)) is expected
            assert classify_x4((c - 1, c + 1, c)) is expected

    def test_hopf_family_parity_rule(self):
        for a in range(-12, 13):
            expected = (
                FourManifold.S2XS2 if a % 2 == 0 else FourManifold.CP2_MCP2
            )
            assert classify_x4((a, 0, 1)) is expected
            assert classify_x4((0, a, 1)) is expected

    def test_reduce_to_base_terminates_on_families(self):
        for t in enumerate_trivial(10):
            path = reduce_to_base(t)
            assert path.start == t

    @pytest.mark.parametrize(
        "steps",
        [
            # ends at a base diagram whose form has det -1, not 1
            (MoveStep("slide1", (1, -1, 0)),),
            # the right form, except that an odd mirror count negates it
            (MoveStep("slide1", (1, 1, 0)), MoveStep("mirror", (1, 1, 0))),
            # the form of (2, 1, 1) itself, but not a base diagram
            (),
        ],
    )
    def test_path_that_disagrees_with_the_form_raises(self, monkeypatch, steps):
        fake = MovePath((2, 1, 1), steps)
        monkeypatch.setattr("artinpres.fourmanifolds.reduce_to_base", lambda t: fake)
        with pytest.raises(RuntimeError, match=r"^move path ends at "):
            classify_x4_with_path((2, 1, 1))


class TestExportKirby:
    def test_hopf_link(self):
        assert export_kirby((7, 0, 1)) == "strands=2; braid=s1^2; framings=7,0"

    def test_unlink(self):
        assert export_kirby((1, 1, 0)) == "strands=2; braid=s1^0; framings=1,1"

    def test_torus_link(self):
        assert export_kirby((-1, -3, 2)) == "strands=2; braid=s1^4; framings=-1,-3"


# Naive reference: the greedy normalizer before swaps were tried first.  It
# takes slides, flipc and mirror before a swap, guards the swap with the
# slides of the swapped triple, and stops after a fixed number of steps.
# It keeps its own base test, so it does not lean on the code it checks.


def reference_is_base(t):
    return t in ((1, 1, 0), (1, -1, 0)) or (t[1] == 0 and t[2] == 1)


# The manifold of each base diagram, read off its Kirby diagram, and of its
# mirror image; path_class uses these, not the classifier's form rule.
def reference_base_class(t):
    if t == (1, 1, 0):
        return FourManifold.CP2_CP2
    if t == (1, -1, 0):
        return FourManifold.CP2_MCP2
    return FourManifold.S2XS2 if t[0] % 2 == 0 else FourManifold.CP2_MCP2


REFERENCE_REVERSED = {
    FourManifold.CP2_CP2: FourManifold.MCP2_MCP2,
    FourManifold.MCP2_MCP2: FourManifold.CP2_CP2,
    FourManifold.CP2_MCP2: FourManifold.CP2_MCP2,
    FourManifold.S2XS2: FourManifold.S2XS2,
}


def reference_reduce_to_base(t):
    steps = []
    current = t

    def size(u):
        return abs(u[0]) + abs(u[1]) + abs(u[2])

    def push(move, result):
        nonlocal current
        steps.append(MoveStep(move, result))
        current = result

    for _ in range(1000):
        if reference_is_base(current):
            return MovePath(t, tuple(steps))
        s = size(current)
        first = slide1(current)
        if size(first) < s:
            push("slide1", first)
            continue
        second = slide2(current)
        if size(second) < s:
            push("slide2", second)
            continue
        if current[2] == -1:
            push("flipc", flipc(current))
            continue
        if current[0] + current[1] < 0:
            push("mirror", mirror(current))
            continue
        swapped = swap(current)
        if (
            reference_is_base(swapped)
            or size(slide1(swapped)) < s
            or size(slide2(swapped)) < s
        ):
            push("swap", swapped)
            continue
        raise RuntimeError(f"no shrinking move available at {current} (from {t})")
    raise RuntimeError(f"move normalization did not terminate for {t}")


MOVES = {"slide1": slide1, "slide2": slide2, "swap": swap, "flipc": flipc, "mirror": mirror}


def path_class(path):
    """4-manifold read off a move path; every step is replayed first."""
    current = path.start
    for step in path.steps:
        current = MOVES[step.move](current)
        assert step.result == current
    assert reference_is_base(path.final), path
    manifold = reference_base_class(path.final)
    return REFERENCE_REVERSED[manifold] if path.orientation_reversed else manifold


def normalize_or_none(normalize, t):
    try:
        return normalize(t)
    except RuntimeError as exc:
        assert str(exc).startswith("no shrinking move available"), exc
        return None


class TestAgainstGreedyReference:
    def test_grid_up_to_twelve(self):
        for t in product(range(-12, 13), repeat=3):
            new = normalize_or_none(reduce_to_base, t)
            old = normalize_or_none(reference_reduce_to_base, t)
            assert (new is None) == (old is None), t
            if new is not None:
                assert path_class(new) is path_class(old), t
                assert len(new.steps) <= len(old.steps), t

    @settings(max_examples=300, deadline=None)
    @given(large_members(st.integers(-(10**12), 10**12)))
    def test_large_members_reach_a_base_in_five_moves(self, t):
        manifold, path = classify_x4_with_path(t)
        assert len(path.steps) <= 5
        assert path_class(path) is manifold is _invariant_class(form_invariants(t))

    @given(st.tuples(*[st.integers(-(10**12), 10**12)] * 3))
    def test_slides_trade_places_under_swap(self, t):
        assert slide1(swap(t)) == swap(slide2(t))
        assert slide2(swap(t)) == swap(slide1(t))

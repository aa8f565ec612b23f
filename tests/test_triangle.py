from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpres import coset, triangle, twogen
from artinpres.coset import Finite, FinitePresentation, enumerate_cosets
from artinpres.fourmanifolds import enumerate_trivial, trivial_family
from artinpres.triangle import (
    GeometryClass,
    TriangleParams,
    TriangleVerdict,
    Triviality,
    TrivialityResult,
    check_certificate,
    classify_geometry,
    delta,
    spherical_order,
    triangle_presentation,
    triangle_quotient,
    triangle_verdict,
    triviality_certificate,
    triviality_status,
)
from artinpres.twogen import build_r2
from artinpres.words import concat, free_reduce, invert
from conftest import large_members


class TestDelta:
    def test_icosahedral(self):
        assert delta(TriangleParams(2, 3, 5)) == Fraction(31, 30)

    def test_euclidean_boundary(self):
        assert delta(TriangleParams(3, 3, 3)) == 1

    def test_hyperbolic(self):
        assert delta(TriangleParams(2, 3, 7)) == Fraction(41, 42)

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            TriangleParams(1, 3, 3)


class TestGeometry:
    def test_spherical(self):
        assert classify_geometry(TriangleParams(2, 3, 5)) is GeometryClass.SPHERICAL

    def test_hyperbolic(self):
        assert classify_geometry(TriangleParams(3, 3, 4)) is GeometryClass.HYPERBOLIC

    def test_euclidean(self):
        assert classify_geometry(TriangleParams(2, 4, 4)) is GeometryClass.EUCLIDEAN


class TestSphericalOrder:
    def test_icosahedral(self):
        assert spherical_order(TriangleParams(2, 3, 5)) == 60

    def test_dihedral(self):
        # value frozen from coset enumeration of <x,y | x^2, y^2, (xy)^7>
        assert spherical_order(TriangleParams(2, 2, 7)) == 14

    def test_octahedral(self):
        assert spherical_order(TriangleParams(2, 3, 4)) == 24

    def test_non_spherical_rejected(self):
        with pytest.raises(ValueError):
            spherical_order(TriangleParams(3, 3, 3))

    def test_agrees_with_coset_enumeration_on_grid(self):
        for l, m, n in product(range(2, 7), repeat=3):
            params = TriangleParams(l, m, n)
            if classify_geometry(params) is not GeometryClass.SPHERICAL:
                continue
            result = enumerate_cosets(triangle_presentation(params))
            assert isinstance(result, Finite)
            assert result.order == spherical_order(params)

    def test_order_independent_of_parameter_listing(self):
        for perm in permutations((2, 3, 5)):
            assert spherical_order(TriangleParams(*perm)) == 60


class TestTrianglePresentation:
    def test_icosahedral(self):
        p = triangle_presentation(TriangleParams(2, 3, 5))
        assert p.relators == ((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 1, 2))

    def test_smallest(self):
        p = triangle_presentation(TriangleParams(2, 2, 2))
        assert p.relators == ((1, 1), (2, 2), (1, 2, 1, 2))

    def test_reordered_parameters(self):
        p = triangle_presentation(TriangleParams(3, 5, 2))
        assert p.relators == ((1, 1, 1), (2, 2, 2, 2, 2), (1, 2, 1, 2))


class TestTriangleVerdict:
    def test_binary_icosahedral_nontrivial(self):
        assert triangle_verdict((-1, -3, 2)) is TriangleVerdict.NONTRIVIAL

    def test_infinite_case(self):
        assert triangle_verdict((10, 1, 3)) is TriangleVerdict.INFINITE

    def test_inconclusive_when_parameter_small(self):
        assert triangle_verdict((1, 1, 0)) is TriangleVerdict.INCONCLUSIVE

    def test_negation_invariance(self):
        for t in product(range(-6, 7), repeat=3):
            assert triangle_verdict(t) is triangle_verdict((-t[0], -t[1], -t[2]))

    def test_integer_rule_matches_fractions(self):
        for p, q, s in product(range(2, 41), repeat=3):
            params = TriangleParams(p, q, s)
            d = delta(params)
            assert d == Fraction(1, p) + Fraction(1, q) + Fraction(1, s)
            expected = TriangleVerdict.INFINITE if d <= 1 else TriangleVerdict.NONTRIVIAL
            assert triangle_verdict((s + p, s - q, s)) is expected, (p, q, s)
            if d > 1:
                assert classify_geometry(params) is GeometryClass.SPHERICAL
                assert spherical_order(params) == 2 / (d - 1), (p, q, s)
                continue
            geometry = GeometryClass.EUCLIDEAN if d == 1 else GeometryClass.HYPERBOLIC
            assert classify_geometry(params) is geometry, (p, q, s)
            with pytest.raises(ValueError):
                spherical_order(params)

    def test_verdict_consistent_with_coset_order(self):
        # whenever the certificate fires and enumeration still closes, the
        # reported order is at least 2
        result = enumerate_cosets(FinitePresentation(2, build_r2((-1, -3, 2)).relators))
        assert isinstance(result, Finite) and result.order == 120


class TestTriangleQuotient:
    def test_quotient_relators(self):
        q = triangle_quotient((-1, -3, 2))
        assert q.relators[2] == (1, 2, 1, 2)

    def test_quotient_order_matches_triangle_group(self):
        # adding the twist relation to r(-1,-3,2) collapses onto T(3,5,2) = A5
        result = enumerate_cosets(triangle_quotient((-1, -3, 2)))
        assert isinstance(result, Finite) and result.order == 60

    def test_quotient_order_small_spherical(self):
        # r(5,6,3) maps onto T(2,3,3) of order 12
        result = enumerate_cosets(triangle_quotient((5, 6, 3)))
        assert isinstance(result, Finite) and result.order == 12


class TestTrivialityStatus:
    def test_nontrivial_by_abelianization(self):
        status = triviality_status((3, 3, 2))
        assert status.status is Triviality.NONTRIVIAL
        assert status.reason == "abelianization"

    def test_nontrivial_by_triangle_quotient(self):
        status = triviality_status((10, 1, 3))
        assert status.status is Triviality.NONTRIVIAL
        assert status.reason == "triangle-quotient"

    def test_trivial_by_coset_closure(self):
        status = triviality_status((5, 1, 2))
        assert status.status is Triviality.TRIVIAL
        assert status.reason is None
        assert status.certificate == triviality_certificate((5, 1, 2))

    def test_certificate_left_out_of_equality(self):
        assert triviality_status((5, 1, 2)) == TrivialityResult(Triviality.TRIVIAL)

    def test_no_presentation_or_enumeration(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("triviality_status built a presentation or enumerated")

        monkeypatch.setattr(triangle, "build_r2", fail)
        monkeypatch.setattr(twogen, "build_r2", fail)
        monkeypatch.setattr(coset, "enumerate_cosets", fail)
        monkeypatch.setattr(coset.CosetTable, "__init__", fail)
        for t in enumerate_trivial(8) + [(2001, 1999, 2000), (0, 2000, -1)]:
            assert triviality_status(t).status is Triviality.TRIVIAL

    def test_failed_certificate_raises(self, monkeypatch):
        def flipped(t):
            (name, factors), *rest = triviality_certificate(t)
            (symbol, exponent), *others = factors
            return ((name, ((symbol, -exponent), *others)), *rest)

        monkeypatch.setattr(triangle, "triviality_certificate", flipped)
        for t in [(5, 1, 2), (1, 1, 0), (7, 0, 1), (4, 2, 3)]:
            with pytest.raises(RuntimeError, match="certificate"):
                triviality_status(t)

    def test_missing_certificate_raises(self, monkeypatch):
        monkeypatch.setattr(triangle, "triviality_certificate", lambda t: None)
        with pytest.raises(RuntimeError, match="certificate"):
            triviality_status((5, 1, 2))


_SWAPPED = {"r1": "r2", "r2": "r1"}


def single_mutations(certificate):
    """Every certificate one exponent flip, or one step with r1 and r2
    swapped, away from the given one."""
    for k, (name, factors) in enumerate(certificate):
        variants = [
            factors[:m] + ((symbol, -exponent),) + factors[m + 1 :]
            for m, (symbol, exponent) in enumerate(factors)
        ]
        if any(symbol in _SWAPPED for symbol, _ in factors):
            variants.append(tuple((_SWAPPED.get(s, s), e) for s, e in factors))
        for variant in variants:
            yield certificate[:k] + ((name, variant),) + certificate[k + 1 :]


def unimodular(bound):
    return [
        t
        for t in product(range(-bound, bound + 1), repeat=3)
        if abs(t[0] * t[1] - t[2] * t[2]) == 1
    ]


class TestTrivialityCertificate:
    def test_exists_exactly_for_family_members(self):
        for t in unimodular(20):
            certificate = triviality_certificate(t)
            assert (certificate is not None) == (trivial_family(t) is not None), t
            assert certificate is None or check_certificate(t, certificate), t

    def test_none_off_the_unimodular_triples(self):
        for t in [(0, 0, 0), (2, 2, 0), (3, 3, 2), (1, 1, 1), (5, 1, 3)]:
            assert triviality_certificate(t) is None

    @given(large_members(st.integers(-(10**4), 10**4)))
    def test_verifies_on_large_members(self, t):
        assert check_certificate(t, triviality_certificate(t))

    def test_every_single_mutation_fails(self):
        checked = 0
        for t in unimodular(20):
            certificate = triviality_certificate(t)
            if certificate is None:
                continue
            for mutant in single_mutations(certificate):
                assert not check_certificate(t, mutant), (t, mutant)
                checked += 1
        assert checked > 4000

    def test_each_run_is_needed(self):
        # right images but not in the normal closure, and the reverse
        generators = (("X1", (("x1", 1),)), ("X2", (("x2", 1),)))
        identities = (("X1", ()), ("X2", ()))
        for t in enumerate_trivial(3):
            assert not check_certificate(t, generators)
            assert not check_certificate(t, identities)

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=16), st.integers(-6, 6))
    def test_power_matches_repeated_product(self, letters, exponent):
        word = free_reduce(letters)
        factor = word if exponent >= 0 else invert(word)
        assert triangle._power(word, exponent) == concat(*[factor] * abs(exponent))

    def test_wrong_triple_fails(self):
        assert not check_certificate((5, 2, 3), triviality_certificate((5, 1, 2)))
        assert not check_certificate((2, 1, 1), triviality_certificate((1, 2, 1)))


class TestClosedFormAgainstEnumeration:
    """The coset enumerator is the independent oracle for the closed form."""

    def test_trivial_exactly_when_order_one(self):
        for t in product(range(-4, 5), repeat=3):
            result = enumerate_cosets(FinitePresentation(2, build_r2(t).relators), max_cosets=5000)
            order_one = isinstance(result, Finite) and result.order == 1
            assert (triviality_status(t).status is Triviality.TRIVIAL) == order_one, t

    def test_cyclic_of_order_det_when_a_parameter_is_one(self):
        for t in product(range(-5, 6), repeat=3):
            a, b, c = t
            det = a * b - c * c
            if det == 0 or min(abs(a - c), abs(b - c), abs(c)) != 1:
                continue
            result = enumerate_cosets(FinitePresentation(2, build_r2(t).relators))
            assert isinstance(result, Finite) and result.order == abs(det), (t, result)

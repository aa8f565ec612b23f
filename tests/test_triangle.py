from fractions import Fraction
from hashlib import sha256
from itertools import chain, groupby, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpres import coset, triangle, twogen, words
from artinpres.artin import parse_presentation
from artinpres.coset import Exceeded, Finite, FinitePresentation, Strategy, enumerate_cosets
from artinpres.triangle import (
    Family,
    TriangleVerdict,
    Triviality,
    TrivialityResult,
    _excess,
    check_certificate,
    enumerate_trivial,
    triangle_quotient,
    triangle_verdict,
    trivial_family,
    triviality_certificate,
    triviality_status,
)
from artinpres.twogen import build_r2
from artinpres.words import concat, free_reduce, generator_power, invert
from conftest import large_members
from test_fourmanifolds import reference_family


def delta(p, q, s):
    """1/p + 1/q + 1/s, exactly: T(p, q, s) is finite when it exceeds 1,
    and then has order 2 / (delta - 1)."""
    return Fraction(1, p) + Fraction(1, q) + Fraction(1, s)


def realising(p, q, s):
    """The triple r(p + s, q + s, s), whose triangle_quotient is T(p, q, s)
    after cancellation."""
    return (p + s, q + s, s)


def quotient_order(p, q, s, strategy=Strategy.RELATOR_FIRST):
    result = enumerate_cosets(triangle_quotient(realising(p, q, s)), strategy=strategy)
    assert isinstance(result, Finite), (p, q, s)
    return result.order


def triangle_text(l, m, n):
    """T(l, m, n) as a presentation file, powers of products expanded."""
    return f"artin 2\nr1 = x1^{l}\nr2 = x2^{m}\nr3 = " + " ".join(["x1 x2"] * n)


class TestDelta:
    """_excess(l, m, n) is lmn (delta - 1) in integers."""

    def test_icosahedral(self):
        assert delta(2, 3, 5) == Fraction(31, 30)
        assert _excess(2, 3, 5) == 1

    def test_euclidean_boundary(self):
        assert delta(3, 3, 3) == 1
        assert _excess(3, 3, 3) == 0

    def test_hyperbolic(self):
        assert delta(2, 3, 7) == Fraction(41, 42)
        assert _excess(2, 3, 7) == -1

    def test_parameters_validated(self):
        # a parameter below 2 certifies nothing
        assert triangle_verdict(realising(1, 3, 3)) is TriangleVerdict.INCONCLUSIVE


class TestGeometry:
    """The geometry of T(p, q, s), read through triangle_verdict on the
    realising triple: spherical is NONTRIVIAL, the others INFINITE."""

    def test_spherical(self):
        assert triangle_verdict(realising(2, 3, 5)) is TriangleVerdict.NONTRIVIAL

    def test_hyperbolic(self):
        assert triangle_verdict(realising(3, 3, 4)) is TriangleVerdict.INFINITE

    def test_euclidean(self):
        assert triangle_verdict(realising(2, 4, 4)) is TriangleVerdict.INFINITE


class TestSphericalOrder:
    """Orders of triangle_quotient on realising triples, against
    2 / (delta - 1)."""

    def test_icosahedral(self):
        assert quotient_order(2, 3, 5) == 60

    def test_dihedral(self):
        assert quotient_order(2, 2, 7) == 14

    def test_octahedral(self):
        assert quotient_order(2, 3, 4) == 24

    def test_non_spherical_rejected(self):
        # T(3,3,3) is infinite: the verdict says so, and no budget closes it
        assert triangle_verdict(realising(3, 3, 3)) is TriangleVerdict.INFINITE
        result = enumerate_cosets(triangle_quotient(realising(3, 3, 3)), max_cosets=2000)
        assert isinstance(result, Exceeded)

    def test_agrees_with_coset_enumeration_on_grid(self):
        spherical = [t for t in product(range(2, 7), repeat=3) if delta(*t) > 1]
        assert len(spherical) == 28
        for t, strategy in product(spherical, Strategy):
            assert quotient_order(*t, strategy=strategy) == 2 / (delta(*t) - 1), (t, strategy)

    def test_order_independent_of_parameter_listing(self):
        for perm in permutations((2, 3, 5)):
            assert quotient_order(*perm) == 60


class TestTrianglePresentation:
    """T(l, m, n) enters as a presentation file with three relators."""

    def test_icosahedral(self):
        n, relators = parse_presentation(triangle_text(2, 3, 5))
        assert (n, relators) == (2, ((1, 1), (2, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 1, 2)))
        assert enumerate_cosets(FinitePresentation(n, relators)).order == 60

    def test_smallest(self):
        assert parse_presentation(triangle_text(2, 2, 2)) == (2, ((1, 1), (2, 2), (1, 2, 1, 2)))

    def test_reordered_parameters(self):
        assert parse_presentation(triangle_text(3, 5, 2)) == (
            2,
            ((1, 1, 1), (2, 2, 2, 2, 2), (1, 2, 1, 2)),
        )


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
            d = delta(p, q, s)
            assert _excess(p, q, s) == p * q * s * (d - 1), (p, q, s)
            expected = TriangleVerdict.INFINITE if d <= 1 else TriangleVerdict.NONTRIVIAL
            assert triangle_verdict((s + p, s - q, s)) is expected, (p, q, s)
            if d > 1:  # the order 2 / (delta - 1) = 2pqs / excess is an integer
                assert 2 * p * q * s % _excess(p, q, s) == 0, (p, q, s)

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

    def test_no_artin_presentation_built(self, monkeypatch):
        t = (-1, -3, 2)
        relators = build_r2(t).relators + ((1, 2, 1, 2),)

        def fail(*args, **kwargs):
            raise AssertionError("triangle_quotient built an Artin presentation")

        monkeypatch.setattr(twogen, "_from_reduced", fail)
        monkeypatch.setattr(twogen.ArtinPresentation, "__post_init__", fail)
        assert triangle_quotient(t).relators == relators


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

        monkeypatch.setattr(twogen, "build_r2", fail)
        monkeypatch.setattr(twogen, "_from_reduced", fail)
        monkeypatch.setattr(coset, "enumerate_cosets", fail)
        monkeypatch.setattr(coset.CosetTable, "__init__", fail)
        for t in [*enumerate_trivial(8), (2001, 1999, 2000), (0, 2000, -1), *huge_members()]:
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


def huge_members():
    """T4 and T5 members with entries near N = 10**4000, far past what a
    letter word of the relators could hold."""
    n = 10**4000
    t4 = [(0, s * n, e) for s in (1, -1) for e in (1, -1)]
    t4 += [(s * n, 0, e) for s in (1, -1) for e in (1, -1)]
    t5 = [(n + 1, n - 1, n), (n - 1, n + 1, n)]
    return t4 + t5 + [(-a, -b, -c) for a, b, c in t5]


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


def reference_check(t, certificate):
    """check_certificate on letter words: the relators as words in x1, x2,
    and every product a free reduction."""
    for (r1, r2), outputs in ((twogen._relators(t), ((1,), (2,))), (((), ()), ((), ()))):
        values = {"x1": (1,), "x2": (2,), "r1": r1, "r2": r2}
        try:
            for name, factors in certificate:
                values[name] = words._join(words._power(values[symbol], e) for symbol, e in factors)
        except KeyError:
            return False
        if (values.get("X1"), values.get("X2")) != outputs:
            return False
    return True


# Syllable words over three generators, read as the letters 1, 2 and 3:
# the syllable kernel is not tied to rank 2.
_LETTER = {"a": 1, "b": 2, "c": 3}
_NAME = {letter: name for name, letter in _LETTER.items()}


def letters(word):
    return tuple(chain.from_iterable(generator_power(_LETTER[g], e) for g, e in word))


def expanded(word):
    """The letters of a syllable word, which must be in normal form:
    nonzero exponents and no two neighbours on one generator."""
    assert all(e for _, e in word), word
    assert all(g != h for (g, _), (h, _) in zip(word, word[1:])), word
    return letters(word)


def syllables_of(word):
    """The syllables of a reduced letter word: its runs of one letter."""
    runs = ((letter, len(list(run))) for letter, run in groupby(word))
    return tuple((_NAME[abs(letter)], n if letter > 0 else -n) for letter, n in runs)


syllable_words = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(-3, 3).filter(bool)), max_size=8
).map(lambda word: syllables_of(free_reduce(letters(word))))

_NAMES = ["A", "B", "X1", "X2"]
programs = st.lists(
    st.tuples(
        st.sampled_from(_NAMES),
        st.lists(
            st.tuples(st.sampled_from(["x1", "x2", "r1", "r2", *_NAMES]), st.integers(-2, 2)),
            max_size=4,
        ).map(tuple),
    ),
    max_size=5,
).map(tuple)


class TestTrivialityCertificate:
    def test_exists_exactly_for_family_members(self):
        for t in unimodular(20):
            certificate = triviality_certificate(t)
            assert (certificate is not None) == (reference_family(t) is not None), t
            assert certificate is None or check_certificate(t, certificate), t

    def test_none_off_the_unimodular_triples(self):
        for t in [(0, 0, 0), (2, 2, 0), (3, 3, 2), (1, 1, 1), (5, 1, 3)]:
            assert triviality_certificate(t) is None

    @given(large_members(st.integers(-(10**4), 10**4)))
    def test_verifies_on_large_members(self, t):
        assert check_certificate(t, triviality_certificate(t))

    def test_every_single_mutation_fails(self):
        # the T4 and T5 programs have 2 and 3 steps, so the grid reaches
        # |.| <= 50 to keep the floor on the number of mutants
        checked = 0
        for t in unimodular(50):
            certificate = triviality_certificate(t)
            if certificate is None:
                continue
            for mutant in single_mutations(certificate):
                assert not check_certificate(t, mutant), (t, mutant)
                checked += 1
        assert checked > 4000

    def test_steps_per_family(self):
        steps = {}
        for t in enumerate_trivial(50):
            steps.setdefault(trivial_family(t), set()).add(len(triviality_certificate(t)))
        assert steps == {
            Family.T1: {2},
            Family.T2: {4, 9},
            Family.T3: {9},
            Family.T4: {2},
            Family.T5: {3},
        }

    # Digests of the certificate bytes: a program that changes for any
    # member up to 50, or for any triple of the cube, shows here.
    def test_member_certificates_pinned(self):
        rows = [
            (t, trivial_family(t).value, triviality_certificate(t)) for t in enumerate_trivial(50)
        ]
        assert len(rows) == 614
        digest = sha256(repr(rows).encode()).hexdigest()
        assert digest == "ae1e578d8dcd041a1eec8032dfbd30048a439a5e08c0929da13546a543324b56"

    def test_cube_certificates_pinned(self):
        span = range(-12, 13)
        rows = [(t, triviality_certificate(t)) for t in product(span, span, span)]
        digest = sha256(repr(rows).encode()).hexdigest()
        assert digest == "d28fc91f6d593ff39eb1bfaeb494d9d02361abf4ff977d9e62f573cf44982fe0"

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
        assert words._power(word, exponent) == concat(*[factor] * abs(exponent))

    @given(st.lists(syllable_words, max_size=4))
    def test_syllable_product_matches_join(self, factors):
        result = triangle._syllable_product(factors)
        assert expanded(result) == words._join(map(expanded, factors))

    @given(syllable_words)
    def test_syllable_inverse_matches_invert(self, word):
        assert expanded(triangle._syllable_inverse(word)) == invert(expanded(word))

    @given(syllable_words, syllable_words, st.integers(-5, 5))
    def test_syllable_power_matches_power(self, conjugator, core, exponent):
        # u v u^-1 reaches the full and the partial peel of the conjugator
        u = expanded(conjugator)
        word = syllables_of(concat(u, expanded(core), invert(u)))
        power = triangle._syllable_power(word, exponent)
        assert expanded(power) == words._power(expanded(word), exponent)

    def test_agrees_with_reference_on_single_mutations(self):
        for t in unimodular(50):
            certificate = triviality_certificate(t)
            if certificate is None:
                continue
            for program in (certificate, *single_mutations(certificate)):
                assert check_certificate(t, program) == reference_check(t, program), (t, program)

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.sampled_from(list(enumerate_trivial(20))),
            st.tuples(*[st.integers(-30, 30)] * 3),
        ),
        programs,
        st.sampled_from(["alone", "before", "after"]),
    )
    def test_agrees_with_reference_on_drawn_programs(self, t, program, place):
        certificate = triviality_certificate(t)
        if certificate is not None and place == "before":
            # a certificate defines every name before it reads it, so steps
            # ahead of it leave it valid when they read only defined names
            defined = {"x1", "x2", "r1", "r2"}
            reads_defined = True
            for name, factors in program:
                reads_defined &= all(symbol in defined for symbol, _ in factors)
                defined.add(name)
            program = program + certificate
            assert check_certificate(t, program) is reads_defined
        elif certificate is not None and place == "after":
            program = certificate + program
        assert check_certificate(t, program) == reference_check(t, program)

    def test_wrong_triple_fails(self):
        assert not check_certificate((5, 2, 3), triviality_certificate((5, 1, 2)))
        assert not check_certificate((2, 1, 1), triviality_certificate((1, 2, 1)))

    @pytest.mark.parametrize(
        "program",
        [
            (("X1", (("Q", 1),)),),  # not a symbol of the program
            (("X1", (("X1", 1),)),),  # used before its own step defines it
        ],
    )
    def test_undefined_symbol_fails(self, program):
        assert not check_certificate((5, 1, 2), program)

    def test_power_past_the_bound_raises(self):
        # r2 = x2^(n-1) (x1 x2) is two syllables in the basis {x2, x1 x2},
        # so its n-th power is the product case, refused before any copy
        n = 10**4000
        with pytest.raises(ValueError, match="step 'A'"):
            check_certificate((0, n, 1), (("A", (("r2", n),)),))

    def test_doubling_past_the_bound_raises(self):
        # B0 = x1 x2 x1^-1 x2^-1 is four syllables in the basis {x1, x1 x2},
        # and B_k = B_(k-1) x1 B_(k-1) twice as many as B_(k-1): each step
        # has power 1 only, and B18 passes 10^6 syllables
        program = [("B0", (("x1", 1), ("x2", 1), ("x1", -1), ("x2", -1)))]
        for k in range(1, 20):
            program.append((f"B{k}", ((f"B{k - 1}", 1), ("x1", 1), (f"B{k - 1}", 1))))
        with pytest.raises(ValueError, match="step 'B18'"):
            check_certificate((1, 1, 0), tuple(program))
        assert check_certificate((1, 1, 0), tuple(program[:18])) is False

    def test_exponent_past_the_bound_raises(self):
        # A_k = A_(k-1)^n multiplies the exponent's digits at every step;
        # A2 = x1^(n^2) already has twice the bits of n
        n = 10**4000
        program = [("A1", (("x1", n),))]
        program += [(f"A{k}", ((f"A{k - 1}", n),)) for k in range(2, 51)]
        with pytest.raises(ValueError, match="step 'A2'"):
            check_certificate((1, 1, 0), tuple(program))

    def test_relators_past_the_bound_raise(self):
        # x2 = x1^-1 (x1 x2) is two syllables, and r2 = x2^(b-c) with
        # |b - c| = 10^6 would be twice the bound
        with pytest.raises(ValueError, match="the relators"):
            check_certificate((10**6, -(10**6), 0), ())


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

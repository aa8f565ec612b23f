import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpres.artin import (
    ArtinPresentation,
    ExponentMatrix,
    abelianization_invariants,
    artin_defect,
    compose,
    exponent_matrix,
    format_presentation,
    identity_presentation,
    is_artin,
    is_unimodular,
    parse_presentation,
)
from artinpres.coset import FinitePresentation
from artinpres.twogen import build_r2
from artinpres.words import (
    ParseError,
    concat,
    conjugate,
    free_reduce,
    invert,
    max_generator,
    reduce_relators,
    substitute,
)

from conftest import random_framed_pure_braid


class TestArtinDefect:
    @pytest.mark.parametrize("a", [-3, -1, 0, 1, 5])
    def test_single_generator_power(self, a):
        relator = (1,) * a if a >= 0 else (-1,) * (-a)
        assert artin_defect(1, (relator,)) == ()

    def test_swapped_generators_fail(self):
        defect = artin_defect(2, ((2,), (1,)))
        assert defect != ()
        assert defect == (-1, -2, 1, -2, -1, 2, 1, 2)

    def test_empty_presentation(self):
        assert artin_defect(0, ()) == ()

    def test_out_of_range_generator(self):
        with pytest.raises(ValueError):
            artin_defect(1, ((2,),))

    def test_relator_count_mismatch(self):
        with pytest.raises(ValueError):
            artin_defect(2, ((1,),))

    def test_out_of_range_message_shared_with_finite_presentations(self):
        message = "^relator r2 uses a generator beyond x2$"
        for construct in (artin_defect, ArtinPresentation, FinitePresentation):
            with pytest.raises(ValueError, match=message):
                construct(2, ((1,), (2, -3, 1)))


# Naive reference: the defect as it was computed before the relator check
# moved to words.reduce_relators, with one conjugate per generator.


def reference_artin_defect(n, relators):
    if n < 0:
        raise ValueError("generator count must be nonnegative")
    reduced = tuple(free_reduce(r) for r in relators)
    if len(reduced) != n:
        raise ValueError(f"expected {n} relators, got {len(reduced)}")
    for i, relator in enumerate(reduced, start=1):
        if max_generator(relator) > n:
            raise ValueError(f"relator r{i} uses a generator beyond x{n}")
    product = concat(*(conjugate((i,), reduced[i - 1]) for i in range(1, n + 1)))
    return concat(invert(product), tuple(range(1, n + 1)))


def defect_outcome(defect, n, relators):
    """The defect word, or the type of the exception it raised."""
    try:
        return defect(n, relators)
    except Exception as exc:
        return type(exc)


@st.composite
def candidates(draw):
    """Unreduced relator lists of rank 0-4; about half carry one fault: a
    relator too many, the letter 0, or a generator beyond x_n."""
    n = draw(st.integers(0, 4))
    letters = st.integers(-n, n).filter(bool) if n else st.nothing()
    relators = draw(st.lists(st.lists(letters, max_size=12), min_size=n, max_size=n))
    fault = draw(st.sampled_from([None, None, None, "extra", 0, -(n + 1)]))
    if fault == "extra" or (fault is not None and not n):
        relators.append([] if fault == "extra" else [fault])
    elif fault is not None:
        relator = relators[draw(st.integers(0, n - 1))]
        relator.insert(draw(st.integers(0, len(relator))), fault)
    return n, tuple(map(tuple, relators))


class TestAgainstConjugateReference:
    @settings(max_examples=300, deadline=None)
    @given(candidates())
    def test_random_candidates(self, candidate):
        n, relators = candidate
        expected = defect_outcome(reference_artin_defect, n, relators)
        assert defect_outcome(artin_defect, n, relators) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 5))
    def test_braid_outputs_and_a_perturbation(self, seed, n):
        from artinpres.braids import braid_to_artin

        p = braid_to_artin(random_framed_pure_braid(random.Random(seed), n))
        perturbed = (p.relators[0] + (2,),) + p.relators[1:]
        for relators in (p.relators, perturbed):
            assert artin_defect(n, relators) == reference_artin_defect(n, relators)


# Reference: compose and the defect as they were before products of words
# known to be reduced were joined without another check; every product went
# through concat, which checks each factor again.


def concat_compose(u, r):
    images = {j: conjugate((j,), u.relators[j - 1]) for j in range(1, u.n + 1)}
    return tuple(concat(u.relators[i], substitute(r.relators[i], images)) for i in range(u.n))


def concat_defect(n, relators):
    reduced = reduce_relators(n, relators)
    if len(reduced) != n:
        raise ValueError(f"expected {n} relators, got {len(reduced)}")
    factors = chain.from_iterable(
        (invert(relator), (i,), relator) for i, relator in enumerate(reduced, start=1)
    )
    return concat(invert(concat(*factors)), tuple(range(1, n + 1)))


@st.composite
def presentation_pairs(draw):
    """Two braid_to_artin outputs of rank 2-4, or two build_r2 outputs."""
    from artinpres.braids import braid_to_artin

    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(2, 4))
        return tuple(braid_to_artin(random_framed_pure_braid(rng, n)) for _ in range(2))
    triples = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-4, 4))
    return build_r2(draw(triples)), build_r2(draw(triples))


class TestAgainstConcatReference:
    @settings(max_examples=150, deadline=None)
    @given(presentation_pairs())
    def test_compose_and_defect(self, pair):
        u, r = pair
        relators = concat_compose(u, r)
        assert compose(u, r).relators == relators
        raw = tuple(u_i + r_i for u_i, r_i in zip(u.relators, r.relators))
        perturbed = (relators[0] + (2,),) + relators[1:]
        for candidate in (relators, raw, perturbed, u.relators + r.relators):
            expected = defect_outcome(concat_defect, u.n, candidate)
            assert defect_outcome(artin_defect, u.n, candidate) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 4))
    def test_composition_with_inverse(self, seed, n):
        from artinpres.braids import artin_inverse, braid_to_artin

        fp = random_framed_pure_braid(random.Random(seed), n)
        p, q = braid_to_artin(fp), artin_inverse(fp)
        # every junction u_i * image cancels completely
        for u, r in ((p, q), (q, p)):
            assert compose(u, r) == identity_presentation(n)
            assert concat_compose(u, r) == ((),) * n


class TestIsArtin:
    def test_canonical_family_member(self):
        p = build_r2((-1, -3, 2))
        assert is_artin(p.n, p.relators)

    def test_right_twist(self):
        assert is_artin(2, ((1, 2), (1, 2)))

    def test_repeated_first_generator_fails(self):
        assert not is_artin(2, ((1,), (1,)))

    def test_constructor_rejects_non_artin(self):
        with pytest.raises(ValueError, match="Artin identity"):
            ArtinPresentation(2, ((1,), (1,)))


class TestCompose:
    def test_identity_laws(self):
        r = build_r2((3, -2, 1))
        e = identity_presentation(2)
        assert compose(e, r) == r
        assert compose(r, e) == r

    def test_power_presentations_add(self):
        assert compose(build_r2((0, 1, 0)), build_r2((1, 0, 0))) == build_r2((1, 1, 0))

    def test_twist_squared(self):
        t = build_r2((1, 1, 1))
        assert compose(t, t) == build_r2((2, 2, 2))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_presentation(1), identity_presentation(2))

    def test_operator_alias(self):
        t = build_r2((1, 1, 1))
        assert t * t == compose(t, t)

    def test_associative_on_braid_samples(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 4)
            u, v, w = (
                braid_to_artin(random_framed_pure_braid(rng, n, max_letters=12))
                for _ in range(3)
            )
            assert compose(compose(u, v), w) == compose(u, compose(v, w))


class TestIdentityPresentation:
    def test_empty(self):
        p = identity_presentation(0)
        assert p.n == 0 and p.relators == ()

    def test_two_generators(self):
        p = identity_presentation(2)
        assert p.relators == ((), ())
        assert is_artin(p.n, p.relators)

    def test_zero_matrix(self):
        m = identity_presentation(3).exponent_matrix()
        assert m.entries == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


class TestExponentMatrix:
    @pytest.mark.parametrize("t", [(1, 1, 1), (-1, -3, 2), (5, 2, 3), (0, 7, -2)])
    def test_canonical_family(self, t):
        a, b, c = t
        assert build_r2(t).exponent_matrix().entries == ((a, c), (c, b))

    @pytest.mark.parametrize("a", [-2, 0, 3])
    def test_single_generator(self, a):
        relator = (1,) * a if a >= 0 else (-1,) * (-a)
        assert exponent_matrix(1, (relator,)).entries == ((a,),)

    def test_symmetric_for_braid_generated(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 5)
            p = braid_to_artin(random_framed_pure_braid(rng, n))
            assert p.exponent_matrix().is_symmetric()

    def test_additivity(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 4)
            u = braid_to_artin(random_framed_pure_braid(rng, n))
            r = braid_to_artin(random_framed_pure_braid(rng, n))
            total = compose(u, r).exponent_matrix()
            assert total == u.exponent_matrix() + r.exponent_matrix()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ExponentMatrix(((1, 2),))


class TestDeterminantAndUnimodularity:
    def test_binary_icosahedral_matrix(self):
        m = build_r2((-1, -3, 2)).exponent_matrix()
        assert m.det() == -1
        assert is_unimodular(m)

    def test_determinant_five(self):
        m = build_r2((3, 3, 2)).exponent_matrix()
        assert m.det() == 5
        assert not is_unimodular(m)

    def test_empty_matrix(self):
        m = ExponentMatrix(())
        assert m.det() == 1
        assert is_unimodular(m)

    def test_bareiss_handles_zero_pivot(self):
        assert ExponentMatrix(((0, 1), (1, 0))).det() == -1
        assert ExponentMatrix(((0, 2, 1), (1, 0, 3), (2, 1, 0))).det() == 13


class TestAbelianizationInvariants:
    def test_identity_matrix(self):
        assert abelianization_invariants(build_r2((1, 1, 0)).exponent_matrix()) == (1, 1)

    @pytest.mark.parametrize("a", [-7, -1, 0, 4])
    def test_rank_one(self, a):
        assert abelianization_invariants(ExponentMatrix(((a,),))) == (abs(a),)

    def test_direct_smith_form(self):
        assert abelianization_invariants(ExponentMatrix(((2, 0), (0, 0)))) == (2, 0)

    def test_three_by_three(self):
        m = ExponentMatrix(((12, 6, 4), (3, 9, 6), (2, 16, 14)))
        assert abelianization_invariants(m) == (1, 10, 30)

    def test_divisor_chain(self):
        invariants = abelianization_invariants(ExponentMatrix(((4, 2), (2, 4))))
        nonzero = [d for d in invariants if d]
        for first, second in zip(nonzero, nonzero[1:]):
            assert second % first == 0

    def test_unimodular_iff_all_ones(self):
        for t in [(1, 1, 0), (-1, -3, 2), (5, 2, 3), (3, 3, 2), (2, 2, 0), (0, 0, 0)]:
            m = build_r2(t).exponent_matrix()
            assert is_unimodular(m) == all(
                d == 1 for d in abelianization_invariants(m)
            )


class TestPresentationText:
    def test_round_trip(self):
        p = build_r2((-1, -3, 2))
        text = format_presentation(p.n, p.relators)
        assert parse_presentation(text) == (p.n, p.relators)

    def test_exact_format(self):
        p = build_r2((1, 1, 1))
        assert format_presentation(p.n, p.relators) == "artin 2\nr1 = x1 x2\nr2 = x1 x2"

    def test_relators_rereduced_on_parse(self):
        n, relators = parse_presentation("artin 1\nr1 = x1 x1^-1")
        assert relators == ((),)

    def test_non_artin_candidate_parses(self):
        n, relators = parse_presentation("artin 2\nr1 = x1\nr2 = x1")
        assert (n, relators) == (2, ((1,), (1,)))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_presentation("group 2\nr1 = x1\nr2 = x2")

    def test_wrong_relator_count(self):
        with pytest.raises(ParseError):
            parse_presentation("artin 2\nr1 = x1")

    def test_out_of_range_generator(self):
        with pytest.raises(ParseError):
            parse_presentation("artin 1\nr1 = x2")

    def test_misnumbered_relator(self):
        with pytest.raises(ParseError):
            parse_presentation("artin 2\nr1 = x1\nr3 = x2")

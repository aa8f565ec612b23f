import random
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from artinpres import twogen
from artinpres.artin import ArtinPresentation, compose, identity_presentation, parse_presentation
from artinpres.braids import BraidWord, FramedPureBraid, artin_inverse, braid_to_artin
from artinpres.twogen import (
    _relators,
    build_r2,
    format_tuple3,
    parse_tuple3,
    recognize_r2,
    tuple_add,
    tuple_neg,
)
from artinpres.words import ParseError, free_reduce, generator_power

from conftest import large_members


def relators_by_free_reduction(t):
    """x1^(a-c)(x1x2)^c and x2^(b-c)(x1x2)^c, concatenated, then reduced."""
    a, b, c = t
    twist = (1, 2) * c if c >= 0 else (-2, -1) * -c
    return (
        free_reduce(generator_power(1, a - c) + twist),
        free_reduce(generator_power(2, b - c) + twist),
    )


class TestBuild:
    def test_right_twist(self):
        assert build_r2((1, 1, 1)).relators == ((1, 2), (1, 2))

    def test_binary_icosahedral(self):
        p = build_r2((-1, -3, 2))
        assert p.relators == ((-1, -1, 2, 1, 2), (-2, -2, -2, -2, -2, 1, 2, 1, 2))

    def test_zero_tuple(self):
        assert build_r2((0, 0, 0)) == identity_presentation(2)

    def test_negative_twist(self):
        assert build_r2((-1, -1, -1)).relators == ((-2, -1), (-2, -1))

    @pytest.mark.parametrize("t", [(5, 2, 3), (0, 7, -2), (-4, 4, 0), (2, 2, 2)])
    def test_matrix_shape(self, t):
        a, b, c = t
        assert build_r2(t).exponent_matrix().entries == ((a, c), (c, b))


class TestSharedRelators:
    def test_small_grid(self):
        for t in product(range(-6, 7), repeat=3):
            relators = _relators(t)
            assert relators == relators_by_free_reduction(t) == build_r2(t).relators, t

    @given(large_members(st.integers(-(10**4), 10**4)))
    def test_large_members(self, t):
        relators = _relators(t)
        assert relators == relators_by_free_reduction(t) == build_r2(t).relators


class TestRecognize:
    def test_round_trip(self):
        assert recognize_r2(build_r2((5, 2, 3))) == (5, 2, 3)

    def test_twist(self):
        assert recognize_r2(build_r2((1, 1, 1))) == (1, 1, 1)

    def test_identity(self):
        assert recognize_r2(identity_presentation(2)) == (0, 0, 0)

    def test_wrong_rank(self):
        with pytest.raises(ValueError):
            recognize_r2(identity_presentation(3))

    def test_no_artin_presentation_built(self, monkeypatch):
        p = build_r2((5, 2, 3))

        def fail(*args, **kwargs):
            raise AssertionError("recognize_r2 built an Artin presentation")

        monkeypatch.setattr(twogen, "_from_reduced", fail)
        monkeypatch.setattr(twogen.ArtinPresentation, "__post_init__", fail)
        assert recognize_r2(p) == (5, 2, 3)

    def test_grid_round_trip(self):
        for a in range(-20, 21):
            for b in range(-20, 21):
                for c in range(-20, 21):
                    assert recognize_r2(build_r2((a, b, c))) == (a, b, c)


def framed_pure_2_braid(letters, framings):
    return FramedPureBraid(BraidWord(2, tuple(letters)), framings)


def with_cancelling_pair(p, i, at):
    """The text of p with "x1 x1^-1" inserted before token `at` of relator i,
    read back: the same presentation through an unreduced input."""
    lines = str(p).split("\n")
    label, word = lines[i].split(" = ")
    tokens = [] if word == "1" else word.split()
    tokens.insert(at % (len(tokens) + 1), "x1 x1^-1")
    lines[i] = f"{label} = {' '.join(tokens)}"
    return ArtinPresentation(*parse_presentation("\n".join(lines)))


triples = st.tuples(*[st.integers(-9, 9)] * 3)
# a 2-strand braid is pure exactly when it has an even number of crossings
framed_pure_braids = st.builds(
    framed_pure_2_braid,
    st.lists(st.tuples(*[st.sampled_from([1, -1])] * 2), max_size=15).map(
        lambda pairs: [letter for pair in pairs for letter in pair]
    ),
    st.tuples(*[st.integers(-9, 9)] * 2),
)
# every way the library builds a rank-2 presentation
rank_2_presentations = st.one_of(
    framed_pure_braids.map(braid_to_artin),
    framed_pure_braids.map(artin_inverse),
    st.builds(
        lambda fp, t, first: compose(braid_to_artin(fp), build_r2(t)) if first
        else compose(build_r2(t), braid_to_artin(fp)),
        framed_pure_braids,
        triples,
        st.booleans(),
    ),
    st.builds(
        with_cancelling_pair,
        framed_pure_braids.map(braid_to_artin),
        st.integers(1, 2),
        st.integers(0, 40),
    ),
)


class TestArtinTheorem:
    """Every rank-2 Artin presentation is literally r(a, b, c): its relators
    are the words _relators gives for the triple on its exponent matrix."""

    @given(rank_2_presentations)
    @example(braid_to_artin(framed_pure_2_braid((), (0, 0))))
    @example(braid_to_artin(framed_pure_2_braid((-1, -1), (-1, -1))))
    def test_relators_are_the_canonical_words(self, p):
        t = recognize_r2(p)
        assert _relators(t) == p.relators
        assert build_r2(t) == p


class TestTupleArithmetic:
    def test_twist_doubles(self):
        s = (1, 1, 1)
        assert tuple_add(s, s) == (2, 2, 2)
        assert compose(build_r2(s), build_r2(s)) == build_r2((2, 2, 2))

    def test_zero_is_neutral(self):
        assert tuple_add((3, -2, 5), (0, 0, 0)) == (3, -2, 5)

    def test_neg_gives_compose_inverse(self):
        t = (-1, -3, 2)
        assert tuple_neg(t) == (1, 3, -2)
        assert compose(build_r2(tuple_neg(t)), build_r2(t)) == identity_presentation(2)

    def test_addition_matches_composition_on_samples(self):
        rng = random.Random(17)
        for _ in range(300):
            s = tuple(rng.randint(-20, 20) for _ in range(3))
            t = tuple(rng.randint(-20, 20) for _ in range(3))
            assert compose(build_r2(s), build_r2(t)) == build_r2(tuple_add(s, t))

    def test_matrix_negation_symmetry(self):
        rng = random.Random(19)
        for _ in range(100):
            t = tuple(rng.randint(-15, 15) for _ in range(3))
            assert build_r2(tuple_neg(t)).exponent_matrix() == -build_r2(t).exponent_matrix()

    def test_negation_preserves_group_order(self):
        # x_i -> x_i induces an isomorphism between the groups of t and -t;
        # checked through the coset oracle on finite cases
        from artinpres.coset import Finite, FinitePresentation, enumerate_cosets

        for t, order in [((-1, -3, 2), 120), ((5, 1, 2), 1), ((2, 1, 1), 1)]:
            for candidate in (t, tuple_neg(t)):
                result = enumerate_cosets(
                    FinitePresentation(2, build_r2(candidate).relators)
                )
                assert isinstance(result, Finite) and result.order == order


class TestTupleText:
    def test_parse(self):
        assert parse_tuple3("-1,-3,2") == (-1, -3, 2)

    def test_parse_with_spaces(self):
        assert parse_tuple3(" 5,2,3 ") == (5, 2, 3)
        assert parse_tuple3(" +5 , -2,3\t") == (5, -2, 3)

    def test_format(self):
        assert format_tuple3((-1, -3, 2)) == "-1,-3,2"

    # int() takes 1_0 and non-ASCII digits; a part must be ASCII [+-]?[0-9]+
    @pytest.mark.parametrize(
        "bad", ["1,2", "1,2,3,4", "a,b,c", "", "1_0,0,1", "\u0665,0,1", "1,0,\uff11", "1,+-2,3"]
    )
    def test_bad_input(self, bad):
        with pytest.raises(ParseError):
            parse_tuple3(bad)

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpres.artin import compose, identity_presentation
from artinpres.twogen import (
    _relators,
    _twist_power,
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
    twist = _twist_power(c)
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

    def test_grid_round_trip(self):
        for a in range(-20, 21):
            for b in range(-20, 21):
                for c in range(-20, 21):
                    assert recognize_r2(build_r2((a, b, c))) == (a, b, c)


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

    def test_format(self):
        assert format_tuple3((-1, -3, 2)) == "-1,-3,2"

    @pytest.mark.parametrize("bad", ["1,2", "1,2,3,4", "a,b,c", ""])
    def test_bad_input(self, bad):
        with pytest.raises(ParseError):
            parse_tuple3(bad)

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpres.artin import ArtinPresentation, compose, identity_presentation
from artinpres.braids import (
    BraidWord,
    FramedPureBraid,
    _split_conjugate,
    artin_inverse,
    braid_automorphism,
    braid_permutation,
    braid_to_artin,
    format_braid,
    generator_images,
    parse_braid,
)
from artinpres.twogen import build_r2
from artinpres.words import (
    MAX_EXPONENT,
    MAX_LETTERS,
    ParseError,
    concat,
    exponent_sum,
    free_reduce,
    invert,
    max_generator,
    substitute,
)

from conftest import random_framed_pure_braid

braid_letters = st.lists(
    st.integers(min_value=-3, max_value=3).filter(lambda k: k != 0), max_size=16
)


def tuple_sum(xs, ys):
    return tuple(x + y for x, y in zip(xs, ys))


class TestBraidWord:
    def test_letter_range_enforced(self):
        with pytest.raises(ValueError):
            BraidWord(2, (2,))
        with pytest.raises(ValueError):
            BraidWord(3, (0,))
        with pytest.raises(ValueError, match="nonnegative"):
            BraidWord(-1, ())

    def test_identity_braid_allowed_for_any_n(self):
        assert BraidWord(0, ()).letters == ()
        assert BraidWord(1, ()).letters == ()


class TestPermutation:
    def test_empty_word(self):
        assert braid_permutation(BraidWord(3, ())) == (1, 2, 3)

    def test_single_crossing(self):
        assert braid_permutation(BraidWord(2, (1,))) == (2, 1)

    def test_crossing_squared(self):
        assert braid_permutation(BraidWord(2, (1, 1))) == (1, 2)

    def test_three_strand_cycle(self):
        assert braid_permutation(BraidWord(3, (1, 2))) == (2, 3, 1)


class TestAutomorphism:
    def test_empty_word_is_identity(self):
        assert braid_automorphism(BraidWord(2, ())) == {1: ((), 1), 2: ((), 2)}

    def test_single_positive_crossing(self):
        # s_1 : x1 -> x2, x2 -> x2^-1 x1 x2 (handedness pinned by the twist fixture)
        assert generator_images(BraidWord(2, (1,))) == ((2,), (-2, 1, 2))
        assert braid_automorphism(BraidWord(2, (1,))) == {1: ((), 2), 2: ((-2,), 1)}

    def test_crossing_squared(self):
        assert generator_images(BraidWord(2, (1, 1))) == (
            (-2, 1, 2),
            (-2, -1, 2, 1, 2),
        )
        assert braid_automorphism(BraidWord(2, (1, 1))) == {
            1: ((-2,), 1),
            2: ((-2, -1), 2),
        }

    def test_targets_match_permutation(self):
        for letters in [(1,), (2, 1), (1, 2, -1), (-2, -2, 1)]:
            braid = BraidWord(3, letters)
            perm = braid_permutation(braid)
            for i, (_, target) in braid_automorphism(braid).items():
                assert target == perm[i - 1]

    @given(braid_letters)
    def test_product_of_generators_preserved(self, letters):
        braid = BraidWord(4, tuple(letters))
        images = {i + 1: w for i, w in enumerate(generator_images(braid))}
        assert substitute((1, 2, 3, 4), images) == (1, 2, 3, 4)


def split_conjugate_reference(image):
    """The per-letter loop that _split_conjugate replaced."""
    left, right = 0, len(image) - 1
    while left < right and image[left] == -image[right]:
        left += 1
        right -= 1
    if left != right or image[left] < 0:
        raise RuntimeError(f"image {image!r} is not a conjugate of a generator")
    return image[:left], image[left]


def split_outcome(split, image):
    try:
        return split(image)
    except RuntimeError:
        return "not a conjugate"


free_letters = st.lists(st.integers(-4, 4).filter(bool), max_size=12)


class TestSplitConjugate:
    @given(free_letters, st.integers(1, 4))
    def test_conjugates_of_a_generator(self, letters, k):
        image = concat(tuple(letters), (k,), invert(free_reduce(letters)))
        conjugator, target = _split_conjugate(image)
        assert (conjugator, target) == split_conjugate_reference(image)
        assert concat(conjugator, (target,), invert(conjugator)) == image

    @given(free_letters, st.integers(-4, 4).filter(bool), free_letters)
    def test_other_words(self, left, middle, right):
        # g x_k^-1 g^-1 has an inverse middle letter; g x g'^-1 is rarely a
        # conjugate; the raw letters need not be reduced
        g = free_reduce(left)
        for image in (
            g + (-abs(middle),) + invert(g),
            concat(g, (middle,), tuple(right)),
            tuple(left) + tuple(right),
        ):
            expected = split_outcome(split_conjugate_reference, image)
            assert split_outcome(_split_conjugate, image) == expected, image


class TestFramedPureBraid:
    def test_purity_enforced_at_construction(self):
        with pytest.raises(ValueError, match="not pure"):
            FramedPureBraid(BraidWord(2, (1,)), (0, 0))

    def test_framing_count_enforced(self):
        with pytest.raises(ValueError):
            FramedPureBraid(BraidWord(2, ()), (1,))


class TestBraidToArtin:
    def test_identity_braid_gives_powers(self):
        fp = FramedPureBraid(BraidWord(3, ()), (2, 0, -3))
        p = braid_to_artin(fp)
        assert p.relators == ((1, 1), (), (-3, -3, -3))

    def test_right_twist_fixture(self):
        fp = FramedPureBraid(BraidWord(2, (1, 1)), (1, 1))
        assert braid_to_artin(fp) == build_r2((1, 1, 1))

    def test_left_twist_fixture(self):
        fp = FramedPureBraid(BraidWord(2, (-1, -1)), (-1, -1))
        p = braid_to_artin(fp)
        assert p == build_r2((-1, -1, -1))
        assert p.relators == ((-2, -1), (-2, -1))

    def test_torus_closures_give_canonical_family(self):
        for c in range(-3, 4):
            word = (1,) * (2 * c) if c >= 0 else (-1,) * (-2 * c)
            for a in range(-2, 3):
                for b in range(-2, 3):
                    fp = FramedPureBraid(BraidWord(2, word), (a, b))
                    assert braid_to_artin(fp) == build_r2((a, b, c))

    def test_diagonal_matches_framings(self):
        rng = random.Random(3)
        for _ in range(60):
            n = rng.randint(2, 5)
            fp = random_framed_pure_braid(rng, n)
            matrix = braid_to_artin(fp).exponent_matrix()
            assert tuple(matrix.entries[i][i] for i in range(n)) == fp.framings

    def test_functorial_for_concatenation(self):
        rng = random.Random(5)
        for _ in range(40):
            n = rng.randint(2, 5)
            fp1 = random_framed_pure_braid(rng, n, max_letters=12)
            fp2 = random_framed_pure_braid(rng, n, max_letters=12)
            joined = FramedPureBraid(
                BraidWord(n, fp1.braid.letters + fp2.braid.letters),
                tuple_sum(fp1.framings, fp2.framings),
            )
            assert braid_to_artin(joined) == compose(
                braid_to_artin(fp1), braid_to_artin(fp2)
            )

    @given(st.integers(0, 2**32), st.integers(2, 5))
    def test_relators_reduced_in_range_and_public(self, seed, n):
        # braid_to_artin and build_r2 skip the constructor's reduction, which
        # must then have nothing to do
        rng = random.Random(seed)
        t = tuple(rng.randint(-8, 8) for _ in range(3))
        fp = random_framed_pure_braid(rng, n)
        for p in (braid_to_artin(fp), artin_inverse(fp), build_r2(t)):
            assert ArtinPresentation(p.n, p.relators) == p
            for relator in p.relators:
                assert free_reduce(relator) == relator
                assert max_generator(relator) <= p.n


class TestArtinInverse:
    def test_identity_braid_power(self):
        fp = FramedPureBraid(BraidWord(1, ()), (4,))
        assert artin_inverse(fp).relators == ((-1, -1, -1, -1),)

    def test_twist_inverse(self):
        fp = FramedPureBraid(BraidWord(2, (1, 1)), (1, 1))
        inv = artin_inverse(fp)
        assert inv == build_r2((-1, -1, -1))
        assert compose(inv, braid_to_artin(fp)) == identity_presentation(2)

    def test_empty_braid(self):
        fp = FramedPureBraid(BraidWord(3, ()), (0, 0, 0))
        assert artin_inverse(fp) == identity_presentation(3)

    def test_two_sided_contract_on_random_braids(self):
        rng = random.Random(9)
        for _ in range(30):
            n = rng.randint(2, 5)
            fp = random_framed_pure_braid(rng, n)
            p = braid_to_artin(fp)
            inv = artin_inverse(fp)
            assert compose(inv, p) == identity_presentation(n)
            assert compose(p, inv) == identity_presentation(n)


class TestBraidText:
    def test_parse_example(self):
        fp = parse_braid("braid 2 : s1^2 ; framings = 1,1")
        assert fp.braid.letters == (1, 1)
        assert fp.framings == (1, 1)

    def test_parse_identity_braid(self):
        fp = parse_braid("braid 3 : ; framings = 2,0,-3")
        assert fp.braid.letters == ()

    def test_round_trip(self):
        fp = FramedPureBraid(BraidWord(3, (2, 1, 1, -2)), (1, 0, -2))
        assert parse_braid(format_braid(fp)) == fp

    def test_exponent_expansion(self):
        fp = parse_braid("braid 2 : s1^-2 ; framings = -1,-1")
        assert fp.braid.letters == (-1, -1)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_braid("braid 2 : t1 ; framings = 0,0")

    def test_crossing_out_of_range(self):
        with pytest.raises(ParseError):
            parse_braid("braid 2 : s2 ; framings = 0,0")

    def test_framings_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_braid("braid 2 : s1^2 ; framings = 1")

    def test_braid_past_the_letter_cap_is_refused(self):
        tokens = " ".join([f"s1^{MAX_EXPONENT}"] * 11)
        with pytest.raises(ParseError, match=f"^braid of more than {MAX_LETTERS} letters$"):
            parse_braid(f"braid 2 : {tokens} ; framings = 0,0")

    def test_non_pure_is_domain_error(self):
        with pytest.raises(ValueError, match="not pure"):
            parse_braid("braid 2 : s1 ; framings = 0,0")

    def test_exponent_sum_zero_framing(self):
        fp = parse_braid("braid 2 : s1^2 ; framings = 0,0")
        p = braid_to_artin(fp)
        assert exponent_sum(p.relators[0], 1) == 0

    @pytest.mark.parametrize(
        "text, message",
        [
            ("braid 2 : s1 t1 ; framings = 0,0", "bad braid token 't1' at position 2"),
            (
                "braid 3 : s1 s2 s3^2 ; framings = 0,0,0",
                "crossing index must be in 1..2 in token 's3^2'",
            ),
            # fewer than two strands leave no crossing index to name a range of
            ("braid 1 : s1 ; framings = 0", "a braid on 1 strand has no crossings, got token 's1'"),
            ("braid 0 : s1^2 ; framings = ", "a braid on 0 strands has no crossings, got token 's1^2'"),
            (
                "braid 2 : s1^2 s1^-2000000 ; framings = 0,0",
                "exponent beyond 1000000 in braid token 's1^-2000000' at position 2",
            ),
            # more digits than int() converts by default (4,300)
            (
                "braid 2 : s1^2 s1^-" + "7" * 5000 + " ; framings = 0,0",
                f"exponent beyond 1000000 in braid token 's1^-{'7' * 5000}' at position 2",
            ),
            (
                "braid 2 : s" + "7" * 5000 + " ; framings = 0,0",
                f"index beyond 1000000 in braid token 's{'7' * 5000}' at position 1",
            ),
            (
                "braid " + "7" * 5000 + " : s1 ; framings = 0",
                "strand count beyond 1000000 in 'braid <n>' header",
            ),
            (
                "braid 1000001 : s1 ; framings = 0",
                "strand count beyond 1000000 in 'braid <n>' header",
            ),
            (
                "braid 2 : ; framings = 1000001,0",
                "framing beyond 1000000 in framings entry '1000001' at position 1",
            ),
            (
                "braid 2 : ; framings = 0 , -1000001",
                "framing beyond 1000000 in framings entry '-1000001' at position 2",
            ),
            # more digits than int() converts by default (4,300)
            (
                "braid 2 : ; framings = 0,-" + "7" * 5000,
                f"framing beyond 1000000 in framings entry '-{'7' * 5000}' at position 2",
            ),
            # int() and an unflagged \d take these; the grammar is ASCII
            ("braid 2 : ; framings = 1_0,5", "bad framings list '1_0,5'"),
            ("braid 2 : ; framings = 1,\u0665", "bad framings list '1,\u0665'"),
            ("braid \u0662 : ; framings = 1,1", "expected 'braid <n> : <tokens> ; framings = <list>'"),
            ("braid 2 : s\u0661^2 ; framings = 1,1", "bad braid token 's\u0661^2' at position 1"),
        ],
    )
    def test_parse_error_text(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_braid(text)
        assert str(caught.value) == message

    def test_framings_up_to_the_cap(self):
        assert parse_braid("braid 2 : ; framings = 1000000,-1000000").framings == (10**6, -(10**6))

    def test_framings_take_signs_and_spaces(self):
        assert parse_braid("braid 2 : ; framings = +1 , -2").framings == (1, -2)

    def test_zero_padded_numbers(self):
        fp = parse_braid("braid 2 : s01^0002 s1^" + "0" * 5000 + "2 ; framings = 0,0")
        assert fp.braid.letters == (1,) * 4
        assert parse_braid("braid 2 : ; framings = -" + "0" * 5000 + "7, 000").framings == (-7, 0)
        assert parse_braid("braid " + "0" * 5000 + "2 : s1^2 ; framings = 0,0").n == 2

    def test_round_trip_long_runs(self):
        fp = FramedPureBraid(BraidWord(3, (1,) * 12 + (-2,) * 6 + (2, 1, 1, -2)), (0, 1, -1))
        assert format_braid(fp) == "braid 3 : s1^12 s2^-6 s2 s1^2 s2^-1 ; framings = 0,1,-1"
        assert parse_braid(format_braid(fp)) == fp

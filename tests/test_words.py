import re
import tracemalloc
from itertools import chain, groupby

import pytest
from hypothesis import given
from hypothesis import strategies as st

from artinpres.words import (
    MAX_EXPONENT,
    MAX_LETTERS,
    ParseError,
    _bounded,
    concat,
    conjugate,
    exponent_sum,
    format_runs,
    format_word,
    free_reduce,
    generator_power,
    invert,
    max_generator,
    parse_runs,
    parse_word,
    substitute,
)

letters = st.lists(
    st.integers(min_value=-5, max_value=5).filter(lambda k: k != 0), max_size=40
)
words = letters.map(lambda ls: free_reduce(ls))


class TestFreeReduce:
    def test_single_cancellation(self):
        assert free_reduce([1, -1]) == ()

    def test_nested_cancellation(self):
        assert free_reduce([1, 2, -2, -1, 3]) == (3,)

    def test_interior_cancellation(self):
        assert free_reduce([2, -1, 1, 2, 2]) == (2, 2, 2)

    def test_zero_letter_rejected(self):
        with pytest.raises(ValueError):
            free_reduce([1, 0, 2])

    @given(letters)
    def test_idempotent_and_nonincreasing(self, raw):
        once = free_reduce(raw)
        assert free_reduce(once) == once
        assert len(once) <= len(raw)


class TestConcat:
    def test_inverse_pair(self):
        assert concat((1, 2), (-2, -1)) == ()

    def test_disjoint(self):
        assert concat((1,), (2,)) == (1, 2)

    def test_boundary_cancellation(self):
        assert concat((1, 2), (-2, 3)) == (1, 3)

    @given(words, words, words)
    def test_associative_with_identity(self, u, v, w):
        assert concat(concat(u, v), w) == concat(u, concat(v, w))
        assert concat(u, ()) == u
        assert concat((), u) == u

    @given(words)
    def test_inverse_law(self, w):
        assert concat(w, invert(w)) == ()
        assert concat(invert(w), w) == ()


class TestInvert:
    def test_empty(self):
        assert invert(()) == ()

    def test_two_letters(self):
        assert invert((1, 2)) == (-2, -1)

    def test_mixed_signs(self):
        assert invert((1, -3, 1)) == (-1, 3, -1)


class TestSubstitute:
    def test_rename(self):
        assert substitute((1, 1), {1: (2,)}) == (2, 2)

    def test_conjugating_image(self):
        assert substitute((1,), {1: concat((-2,), (1,), (2,))}) == (-2, 1, 2)

    def test_identity_endomorphism(self):
        assert substitute((1, -2), {1: (1,), 2: (2,)}) == (1, -2)

    def test_missing_image(self):
        with pytest.raises(ValueError):
            substitute((1, 2), {1: (1,)})

    @given(words, words, st.integers(1, 3))
    def test_distributes_over_concat(self, u, v, seed):
        images = {i: free_reduce([((i + seed) % 3) + 1, -((i % 2) + 1)]) for i in range(1, 6)}
        assert substitute(concat(u, v), images) == concat(
            substitute(u, images), substitute(v, images)
        )


class TestExponentSum:
    def test_simple(self):
        assert exponent_sum((1, 1, -2), 1) == 2

    def test_cancelled_word(self):
        assert exponent_sum(free_reduce([1, -1]), 1) == 0

    def test_conjugation_has_zero_sum(self):
        assert exponent_sum((-2, 1, 2), 2) == 0

    def test_bad_index(self):
        with pytest.raises(ValueError):
            exponent_sum((1,), 0)

    @given(words, words, st.integers(1, 5))
    def test_additive_under_concat(self, u, v, i):
        assert exponent_sum(concat(u, v), i) == exponent_sum(u, i) + exponent_sum(v, i)


class TestParseFormat:
    def test_power_expansion_reduces(self):
        # x1^-3 (x1 x2)^2 written out reduces to x1^-2 x2 x1 x2
        assert parse_word("x1^-3 x1 x2 x1 x2") == (-1, -1, 2, 1, 2)

    def test_identity_token(self):
        assert parse_word("1") == ()

    def test_negative_exponent(self):
        assert parse_word("x2^2 x1^-1") == (2, 2, -1)

    def test_zero_exponent_gives_no_letters(self):
        assert parse_word("x1^0 x2") == (2,)

    def test_format_empty(self):
        assert format_word(()) == "1"

    def test_format_collapses_runs(self):
        assert format_word((2, 2, -1)) == "x2^2 x1^-1"

    def test_exponent_cap_is_inclusive(self):
        assert parse_word(f"x1^-{MAX_EXPONENT} x2") == (-1,) * MAX_EXPONENT + (2,)

    def test_run_past_exponent_cap_formats_as_several_tokens(self):
        w = (1,) * (2 * MAX_EXPONENT + 1) + (-2,) * (MAX_EXPONENT + 3)
        text = format_word(w)
        assert text == f"x1^{MAX_EXPONENT} x1^{MAX_EXPONENT} x1^1 x2^-{MAX_EXPONENT} x2^-3"
        assert parse_word(text) == w

    def test_bad_token_reports_position(self):
        with pytest.raises(ParseError, match="position 2"):
            parse_word("x1 y3")

    def test_index_zero_rejected(self):
        with pytest.raises(ParseError):
            parse_word("x0")

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            parse_word("   ")

    @given(words)
    def test_round_trip(self, w):
        assert parse_word(format_word(w)) == w


class TestLetterCap:
    def test_cap_value(self):
        assert MAX_LETTERS == 10**7

    def test_eleven_full_tokens_are_refused(self):
        with pytest.raises(ParseError, match=f"^word of more than {MAX_LETTERS} letters$"):
            parse_word(" ".join([f"x1^{MAX_EXPONENT}"] * 11))

    def test_distinct_tokens_are_refused_before_their_letters_are_built(self):
        # 2 * 10^7 letters: 340 MiB at the tracemalloc peak without the cap
        text = " ".join(f"x{i}^{MAX_EXPONENT}" for i in range(1, 21))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="^word of more than"):
                parse_word(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "text, letters",
        [
            ("x1^10", 10),  # one token at the cap
            ("x1 " * 10, 10),  # many short tokens at the cap, no total taken
            ("x1^9 x2", 10),  # tokens times longest is past the cap, the total is not
            ("x1^-9 x1", 10),  # the cap counts letters before reduction
            ("x1^5 1 x2^-5", 10),
        ],
    )
    def test_cap_is_inclusive(self, monkeypatch, text, letters):
        monkeypatch.setattr("artinpres.words.MAX_LETTERS", 10)
        assert len(parse_runs(text.split(), "x", "word", lambda k: k >= 1, "", "1")) == letters

    @pytest.mark.parametrize("text", ["x1^11", "x1 " * 11, "x1^9 x2^2", "x1^-9 x1 x1", "x2 x1^10"])
    def test_one_letter_past_the_cap_is_refused(self, monkeypatch, text):
        monkeypatch.setattr("artinpres.words.MAX_LETTERS", 10)
        with pytest.raises(ParseError, match="^word of more than 10 letters$"):
            parse_word(text)

    def test_bad_token_past_the_bound_is_named_first(self, monkeypatch):
        monkeypatch.setattr("artinpres.words.MAX_LETTERS", 10)
        with pytest.raises(ParseError, match="^bad word token 'y' at position 3$"):
            parse_word("x1^9 x2^9 y")


class TestHelpers:
    def test_generator_power(self):
        assert generator_power(2, -3) == (-2, -2, -2)
        assert generator_power(1, 0) == ()
        with pytest.raises(ValueError, match="index must be >= 1"):
            generator_power(0, 1)

    def test_conjugate(self):
        assert conjugate((1,), (2,)) == (-2, 1, 2)

    def test_max_generator(self):
        assert max_generator(()) == 0
        assert max_generator((1, -4, 2)) == 4


# Naive references: the letter-by-letter stack and while-loop codecs the
# word layer used before junction-only products and the run-length helpers.
# The fast primitives must agree with them exactly.


def naive_stack(letters):
    stack = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def naive_free_reduce(letters):
    if 0 in letters:
        raise ValueError("0 is not a valid letter")
    return naive_stack(letters)


def naive_concat(*factors):
    return naive_stack([letter for word in factors for letter in word])


def naive_invert(word):
    return tuple(-letter for letter in reversed(word))


def naive_substitute(word, images):
    pieces = []
    for letter in word:
        image = images.get(abs(letter))
        if image is None:
            raise ValueError(f"no image given for generator x{abs(letter)}")
        pieces.append(image if letter > 0 else naive_invert(image))
    return naive_concat(*pieces)


def naive_format(word):
    if not word:
        return "1"
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        exponent = (j - i) if word[i] > 0 else -(j - i)
        name = f"x{abs(word[i])}"
        parts.append(name if exponent == 1 else f"{name}^{exponent}")
        i = j
    return " ".join(parts)


def naive_parse(text):
    letters = []
    for token in text.split():
        if token == "1":
            continue
        index, _, exponent = token[1:].partition("^")
        exponent = int(exponent) if exponent else 1
        letters.extend([int(index) if exponent > 0 else -int(index)] * abs(exponent))
    return naive_free_reduce(letters)


nonzero = st.integers(min_value=-4, max_value=4).filter(lambda k: k != 0)
raw_words = st.lists(nonzero, max_size=30).map(tuple)
reduced_words = raw_words.map(naive_stack)
# runs of one generator with long and negative exponents, e.g. x2^-17 x1^40
runs = st.lists(
    st.tuples(st.integers(1, 4), st.integers(-60, 60).filter(lambda e: e != 0)),
    max_size=8,
)
run_words = runs.map(
    lambda rs: naive_stack([k if e > 0 else -k for k, e in rs for _ in range(abs(e))])
)


class TestAgainstNaiveReference:
    @given(st.lists(reduced_words, max_size=6))
    def test_concat_reduced_factors(self, factors):
        assert concat(*factors) == naive_concat(*factors)

    @given(st.lists(st.lists(st.integers(-4, 4), max_size=20).map(tuple), max_size=6))
    def test_concat_unreduced_factors(self, factors):
        # concat never rejected the letter 0: the stack cancels 0 against 0
        assert concat(*factors) == naive_concat(*factors)

    @given(st.lists(reduced_words, min_size=1, max_size=4), reduced_words)
    def test_concat_whole_factors_cancel_across_junctions(self, left, tail):
        # u1 .. uk uk^-1 .. u1^-1 tail: every factor before tail cancels whole
        factors = left + [invert(u) for u in reversed(left)] + [tail]
        assert len(factors) >= 3
        assert concat(*factors) == tail == naive_concat(*factors)

    @given(reduced_words, reduced_words, raw_words)
    def test_concat_unreduced_middle_factor(self, u, w, middle):
        factors = (u, middle, invert(middle), w)
        assert concat(*factors) == naive_concat(*factors) == concat(u, w)

    @given(reduced_words)
    def test_free_reduce_returns_reduced_input_as_is(self, w):
        assert free_reduce(w) is w
        assert free_reduce(list(w)) == w

    @given(raw_words)
    def test_free_reduce_unreduced(self, raw):
        assert free_reduce(raw) == naive_free_reduce(raw)
        assert free_reduce(iter(raw)) == naive_free_reduce(raw)

    @given(raw_words, raw_words)
    def test_free_reduce_rejects_zero_anywhere(self, before, after):
        with pytest.raises(ValueError, match="0 is not a valid letter"):
            free_reduce(before + (0,) + after)

    @given(raw_words)
    def test_invert(self, w):
        assert invert(w) == naive_invert(w)

    @given(raw_words, st.integers(1, 5))
    def test_exponent_sum(self, w, i):
        assert exponent_sum(w, i) == sum(1 if k == i else -1 if k == -i else 0 for k in w)

    @given(raw_words)
    def test_max_generator(self, w):
        assert max_generator(w) == max((abs(k) for k in w), default=0)

    @given(reduced_words, st.dictionaries(st.integers(1, 4), raw_words))
    def test_substitute(self, w, images):
        try:
            expected = naive_substitute(w, images)
        except ValueError as exc:
            with pytest.raises(ValueError) as caught:
                substitute(w, images)
            assert str(caught.value) == str(exc)
        else:
            assert substitute(w, images) == expected

    def test_substitute_names_first_missing_generator(self):
        with pytest.raises(ValueError, match="no image given for generator x3"):
            substitute((1, -3, 2), {1: (1,)})

    @given(run_words)
    def test_format_parse_round_trip_long_runs(self, w):
        text = format_word(w)
        assert text == naive_format(w)
        assert parse_word(text) == w

    @given(runs)
    def test_parse_unreduced_runs(self, rs):
        text = " ".join(f"x{k}^{e}" for k, e in rs) + " 1 x1^0"
        assert parse_word(text) == naive_parse(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1 y3", "bad word token 'y3' at position 2"),
            ("x1 x2^ x1 x2^", "bad word token 'x2^' at position 2"),
            ("x2 x1^2 x0^3", "generator index must be >= 1 in token 'x0^3' at position 3"),
            ("x1 x0 y", "generator index must be >= 1 in token 'x0' at position 2"),
            (
                "x1 x2^1000001",
                "exponent beyond 1000000 in word token 'x2^1000001' at position 2",
            ),
            (
                "x2 x1^-1000001 x1^1000000000",
                "exponent beyond 1000000 in word token 'x1^-1000001' at position 2",
            ),
            ("x1 x1000001", "index beyond 1000000 in word token 'x1000001' at position 2"),
            # more digits than int() converts by default (4,300)
            (
                "x1 x1^" + "7" * 5000,
                f"exponent beyond 1000000 in word token 'x1^{'7' * 5000}' at position 2",
            ),
            (
                "x1 x2 x" + "7" * 5000,
                f"index beyond 1000000 in word token 'x{'7' * 5000}' at position 3",
            ),
            # an unflagged \d takes non-ASCII digits; the grammar does not
            ("x\u0665", "bad word token 'x\u0665' at position 1"),
            ("x1 x1^\u0662", "bad word token 'x1^\u0662' at position 2"),
            ("x1^-\uff13", "bad word token 'x1^-\uff13' at position 1"),
        ],
    )
    def test_parse_error_text(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_word(text)
        assert str(caught.value) == message

    def test_leading_zeros_do_not_count_toward_the_cap(self):
        assert parse_word("x1^007") == (1,) * 7
        assert parse_word("x0002^-03") == (-2,) * 3
        assert parse_word(f"x1^{MAX_EXPONENT:010d}") == (1,) * MAX_EXPONENT
        assert parse_word("x1^" + "0" * 5000 + "1") == (1,)
        assert parse_word("x" + "0" * 5000 + "2^-" + "0" * 5000) == ()


# Reference: format_runs as it was before it grouped the adjacent-equal
# flags, one groupby step per run.  The new formatter must match it byte for
# byte, on unreduced braid letters as well as on reduced words.


def groupby_format_runs(letters, symbol):
    names = {k: f"{symbol}{k}" if k > 0 else f"{symbol}{-k}^-1" for k in set(letters)}
    tokens = [
        names[k] if (e := len(list(run))) == 1 else f"{symbol}{abs(k)}^{e if k > 0 else -e}"
        for k, run in groupby(letters)
    ]
    return " ".join(tokens)


# single letters mixed with runs of length 2-50
mixed_letters = st.lists(
    st.tuples(nonzero, st.one_of(st.just(1), st.integers(2, 50))), max_size=12
).map(lambda pieces: tuple(k for k, e in pieces for _ in range(e)))
mixed_words = mixed_letters.map(naive_stack)


class TestFormatRunsAgainstGroupby:
    @given(mixed_words, st.sampled_from("xs"))
    def test_reduced_words(self, w, symbol):
        assert format_runs(w, symbol) == groupby_format_runs(w, symbol)

    @given(mixed_letters, st.sampled_from("xs"))
    def test_unreduced_letters(self, letters, symbol):
        assert format_runs(letters, symbol) == groupby_format_runs(letters, symbol)
        assert format_runs(list(letters), symbol) == groupby_format_runs(letters, symbol)

    @given(mixed_words)
    def test_word_round_trip(self, w):
        assert parse_word(format_word(w)) == w

    def test_empty_word(self):
        for symbol in "xs":
            assert format_runs((), symbol) == groupby_format_runs((), symbol) == ""
        assert format_word(()) == "1"

    def test_long_run(self):
        w = (1,) * 100_000 + (-2,) * 3
        assert format_word(w) == "x1^100000 x2^-3"
        assert parse_word("x1^100000 x2^-3") == w


# Reference: parse_runs as it was before its memo built each entry on first
# lookup, with a dict.fromkeys pass over the tokens to parse each distinct one
# and a chain.from_iterable expansion.  The new parser must return the same
# letters, or raise the same ParseError text, on every token list.


def reference_parse_runs(tokens, symbol, kind, index_ok, index_error, identity=None):
    pattern = re.compile(rf"{symbol}0*(\d+)(?:\^(-?)0*(\d+))?", re.ASCII)
    memo = {identity: ()}
    beyond = f"beyond {MAX_EXPONENT} in {kind} token {{token!r}} at position {{position}}"
    for token in dict.fromkeys(tokens):
        match = pattern.fullmatch(token)
        if not match:
            if token == identity:
                continue
            message = f"bad {kind} token {{token!r}} at position {{position}}"
        elif (index := _bounded(match.group(1))) is None:
            message = "index " + beyond
        elif not index_ok(index):
            message = index_error
        elif (exponent := _bounded(match.group(3) or "1")) is None:
            message = "exponent " + beyond
        else:
            memo[token] = generator_power(index, -exponent if match.group(2) else exponent)
            continue
        raise ParseError(message.format(token=token, position=tokens.index(token) + 1))
    return tuple(chain.from_iterable(map(memo.__getitem__, tokens)))


# the two grammars: word tokens x<k>^<e> with the identity 1, and braid
# tokens s<k>^<e> on 4 strands with no identity token
GRAMMARS = {
    "x": (
        "word",
        lambda k: k >= 1,
        "generator index must be >= 1 in token {token!r} at position {position}",
        "1",
    ),
    "s": ("braid", lambda k: 1 <= k < 4, "crossing index must be in 1..3 in token {token!r}", None),
}
PAST_CAP = [str(MAX_EXPONENT + 1), "7" * 5000]


def mostly(common, rare):
    """Draws from ``common`` nine times in ten, else from ``rare``."""
    return st.integers(0, 9).flatmap(lambda i: rare if i == 0 else common)


padding = mostly(st.just(""), st.sampled_from(["0", "000", "0" * 5000]))
# exponents stay small or past the cap, so no drawn word is long
exponent_texts = mostly(st.integers(0, 40).map(str), st.sampled_from(PAST_CAP))
exponent_parts = st.one_of(
    st.just(""),
    st.builds("^{}{}{}".format, st.sampled_from(["", "-"]), padding, exponent_texts),
)
odd_indices = st.sampled_from(["0", "4", "5", str(MAX_EXPONENT)] + PAST_CAP)
index_texts = mostly(st.integers(1, 3).map(str), odd_indices)


def token_lists(symbol):
    runs = st.builds(f"{symbol}{{}}{{}}{{}}".format, padding, index_texts, exponent_parts)
    # an odd index and an exponent past the cap in one token: the checks' order decides the error
    odd_runs = st.builds(f"{symbol}{{}}{{}}^{{}}".format, padding, odd_indices, st.sampled_from(PAST_CAP))
    other = "s" if symbol == "x" else "x"
    malformed = st.sampled_from(
        ["y2", symbol, f"{symbol}1^", f"{symbol}-1", f"{symbol}1^+2", f"{symbol}\u0661",
         f"{symbol}1^--1", f"{other}2", "^2", f"{symbol}1^2^3"]
    )
    return st.lists(mostly(runs, st.one_of(st.just("1"), malformed, odd_runs)), max_size=12)


class TestParseRunsAgainstReference:
    @given(st.sampled_from("xs").flatmap(lambda s: st.tuples(st.just(s), token_lists(s))))
    def test_same_letters_or_error(self, drawn):
        symbol, tokens = drawn
        args = (tokens, symbol, *GRAMMARS[symbol])
        try:
            expected = reference_parse_runs(*args)
        except ParseError as exc:
            with pytest.raises(ParseError) as caught:
                parse_runs(*args)
            assert str(caught.value) == str(exc)
        else:
            assert parse_runs(*args) == expected

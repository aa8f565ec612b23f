"""Grammar fuzzing: each text parser either parses a drawn text, and then
round-trips it through its formatter, or raises ParseError; the command line
answers a dash-led argument with a comma by a usage or parse error that
echoes it as typed."""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from artinpres.artin import format_presentation, parse_presentation
from artinpres.braids import format_braid, parse_braid
from artinpres.cli import main
from artinpres.twogen import format_tuple3, parse_tuple3
from artinpres.words import ParseError, format_word, max_generator, parse_word

# Numbers as the grammars write them and as int() alone would take them
# (underscores, non-ASCII digits), plus some past the caps.
numbers = st.one_of(
    st.integers(-12, 12).map(str),
    st.text("0123456789", min_size=1, max_size=8),
    st.sampled_from(["1_0", "٥", "+3", "-0", "007", "9" * 25]),
)
junk = st.text(" \t\n-+^=,;:x s r 1", max_size=6)


def glued(*parts):
    """Text made by joining a few drawn parts."""
    return st.lists(st.one_of(*parts), max_size=8).map("".join)


def tokens(letter):
    """Tokens ``<letter><k>`` and ``<letter><k>^<e>``, mostly with a small k."""
    return st.builds(
        lambda k, e: f"{letter}{k}" + (f"^{e}" if e is not None else ""),
        st.integers(1, 4).map(str) | numbers,
        st.none() | numbers,
    )


# Arbitrary text, text from the grammar's pieces, and text of the grammar's
# shape, whose numbers and tokens may still be wrong.
word_texts = st.one_of(
    st.text(max_size=30),
    glued(tokens("x"), junk, st.just(" "), st.just("1")),
    st.lists(tokens("x"), min_size=1, max_size=4).map(" ".join),
)
presentation_texts = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda n, lines, noise: f"artin {n}\n" + "\n".join(lines) + noise,
        numbers,
        st.lists(st.builds(lambda i, w: f"r{i} = {w}", numbers, word_texts), max_size=3),
        junk,
    ),
    st.lists(word_texts, max_size=3).map(
        lambda ws: f"artin {len(ws)}\n" + "".join(f"r{i} = {w}\n" for i, w in enumerate(ws, 1))
    ),
)
braid_texts = st.one_of(
    st.text(max_size=40),
    st.builds(
        lambda n, w, framings, noise: f"braid {n} : {w} ; framings = {','.join(framings)}{noise}",
        numbers,
        word_texts,
        st.lists(numbers, max_size=4),
        junk,
    ),
    st.integers(1, 3).flatmap(
        lambda n: st.builds(
            lambda w, framings: f"braid {n} : {w} ; framings = {','.join(framings)}",
            st.lists(tokens("s"), max_size=3).map(" ".join),
            st.lists(numbers, min_size=n, max_size=n),
        )
    ),
)
tuple_texts = st.one_of(
    st.text(max_size=20),
    glued(numbers, junk, st.just(",")),
    st.lists(numbers, min_size=3, max_size=3).map(",".join),
)


@settings(max_examples=300, deadline=None)
@given(word_texts)
def test_parse_word_raises_only_parse_error(text):
    try:
        w = parse_word(text)
    except ParseError:
        return
    assert parse_word(format_word(w)) == w


@settings(max_examples=300, deadline=None)
@given(presentation_texts)
def test_parse_presentation_raises_only_parse_error(text):
    try:
        n, relators = parse_presentation(text)
    except ParseError:
        return
    assert parse_presentation(format_presentation(n, relators)) == (n, relators)


# A relator line is read as parse_word reads its text: the same word, kept
# when its letters lie in x_1 .. x_n, and the same message for a bad token.
@settings(max_examples=300, deadline=None)
@given(word_texts.filter(lambda w: w.strip() and w.splitlines() == [w]), st.integers(0, 5))
def test_relator_line_reads_as_parse_word(text, n):
    presentation = f"artin {n}\nr1 = {text}"
    try:
        word = parse_word(text)
    except ParseError as error:
        with pytest.raises(ParseError) as caught:
            parse_presentation(presentation)
        assert str(caught.value) == str(error)
        return
    if max_generator(word) <= n:
        assert parse_presentation(presentation) == (n, (word,))
    else:
        with pytest.raises(ParseError, match=f"^relator r1 uses a generator beyond x{n}$"):
            parse_presentation(presentation)


@settings(max_examples=300, deadline=None)
@given(braid_texts)
def test_parse_braid_raises_parse_error_or_not_pure(text):
    try:
        fp = parse_braid(text)
    except ParseError:
        return
    except ValueError as exc:  # documented: well-formed, but not a pure braid
        assert str(exc).startswith("braid is not pure")
        return
    assert parse_braid(format_braid(fp)) == fp


@settings(max_examples=300, deadline=None)
@given(tuple_texts)
def test_parse_tuple3_raises_only_parse_error(text):
    try:
        t = parse_tuple3(text)
    except ParseError:
        return
    assert parse_tuple3(format_tuple3(t)) == t


COMMANDS = [
    ["verify"], ["compose"], ["matrix"], ["braid2artin"], ["invert"], ["tuple"],
    ["tuple", "build"], ["tuple", "recognize"], ["tuple", "add"], ["tuple", "neg"],
    ["classify"], ["enum-trivial"], ["coset"], ["export-kirby"],
]
# What sys.argv can hold: no NUL, and of the surrogates only those that
# stand for undecodable bytes
argv_text = st.text(
    st.characters(exclude_categories=("Cs",), exclude_characters="\x00")
    | st.characters(min_codepoint=0xDC80, max_codepoint=0xDCFF),
    max_size=8,
)
dash_comma = st.builds(lambda head, tail: f"-{head},{tail}", argv_text, argv_text)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(COMMANDS), dash_comma)
def test_dash_comma_argument_is_echoed_as_typed(command, arg):
    # a triple command on a valid triple prints its answer; that is no error
    if command[-1] in ("build", "neg", "classify", "export-kirby"):
        try:
            parse_tuple3(arg)
        except ParseError:
            pass
        else:
            assume(False)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([*command, arg])
    assert (code, out.getvalue()) == (2, "")
    assert repr(" " + arg) not in err.getvalue() and "  " + arg not in err.getvalue()

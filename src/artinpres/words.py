"""Free-group word arithmetic on flat integer sequences.

A word in the free group F_n is a tuple of nonzero integers: the letter
k > 0 is the generator x_k and -k is its inverse.  Every function here
returns freely reduced words (no adjacent x x^-1 pair), so group equality
is plain tuple equality and the empty tuple is the identity element.
Words are n-agnostic; the ambient rank is a property of the context they
are used in.
"""

from __future__ import annotations

import re
from itertools import chain, compress, count, groupby, islice
from operator import add, eq, neg
from typing import Any, Callable, Iterable, Mapping, Sequence

Word = tuple[int, ...]

# Largest |exponent|, and largest index, parse_runs accepts in one token, so
# that a short text cannot ask for an arbitrarily long word.
MAX_EXPONENT = 10**6
_MAX_DIGITS = len(str(MAX_EXPONENT))
# Most letters parse_runs builds for one word, and parse_presentation keeps
# over all its relators, so that many tokens cannot exhaust memory either.
MAX_LETTERS = 10**7


class ParseError(ValueError):
    """Malformed textual input (word grammar, presentation or braid files)."""


class _Memo(dict):
    """A dict whose missing entry is ``build(key)``, made when the key is first looked up."""

    def __init__(self, build: Callable[[Any], Any]) -> None:
        self.build = build

    def __missing__(self, key: Any) -> Any:
        value = self[key] = self.build(key)
        return value


def _reduced(word: Iterable[int]) -> Word:
    """The word as a tuple; the stack runs only if some adjacent pair cancels."""
    word = tuple(word)
    if 0 not in map(add, word, islice(word, 1, None)):
        return word
    stack: list[int] = []
    for letter in word:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return tuple(stack)


def _join(factors: Iterable[Word]) -> Word:
    """Product of reduced words: the overlap at each junction is the first
    index where the reversed product so far and the factor do not cancel."""
    out: list[int] = []
    for word in factors:
        if out and word and out[-1] == -word[0]:
            cancels = map(add, reversed(out), word)
            overlap = next(compress(count(), cancels), min(len(out), len(word)))
            del out[-overlap:]
            word = word[overlap:]
        out.extend(word)
    return tuple(out)


def _conjugator_length(word: Word) -> int:
    """Length k of the longest prefix u = word[:k], k at most half the word,
    such that the word ends in u^-1: word = u v u^-1 letter for letter.  On
    a nonempty reduced word v is cyclically reduced.  Pairs compare in C."""
    return next(compress(count(), map(add, word, reversed(word))), len(word) // 2)


def _power(word: Word, exponent: int) -> Word:
    """word^exponent of a reduced word: with word = u v u^-1 and v
    cyclically reduced, it is u v^exponent u^-1, built without cancelling."""
    if exponent < 0:
        word, exponent = invert(word), -exponent
    if exponent == 1:
        return word
    if not word or not exponent:
        return ()
    k = _conjugator_length(word)
    return word[:k] + word[k : len(word) - k] * exponent + word[len(word) - k :]


def free_reduce(letters: Iterable[int]) -> Word:
    """Cancel adjacent inverse pairs until none remain.  Idempotent and
    length-nonincreasing; a reduced word comes back as it is.  Raises
    ValueError on the letter 0, which encodes no generator."""
    word = tuple(letters)
    if 0 in word:
        raise ValueError("0 is not a valid letter")
    return _reduced(word)


def concat(*factors: Word) -> Word:
    """Reduced product, associative with identity ().  Reduced factors
    cancel only at their junctions; a factor that is not reduced is reduced
    first, so the result is the free reduction of all the letters."""
    return _join(map(_reduced, factors))


def invert(word: Word) -> Word:
    """Inverse word: letters reversed, signs flipped."""
    return tuple(map(neg, reversed(word)))


def generator_power(index: int, exponent: int) -> Word:
    """The word x_index^exponent (empty when exponent is 0)."""
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    return (index if exponent > 0 else -index,) * abs(exponent)


def conjugate(word: Word, by: Word) -> Word:
    """by^-1 * word * by, reduced."""
    return concat(invert(by), word, by)


def substitute(word: Word, images: Mapping[int, Word]) -> Word:
    """Image of a word under the endomorphism x_j -> images[j].

    Inverse letters map to the inverted image.  Every generator index
    appearing in the word must have an image; each is resolved once.
    """
    table = {}
    for letter in dict.fromkeys(word):
        image = images.get(abs(letter))
        if image is None:
            raise ValueError(f"no image given for generator x{abs(letter)}")
        table[letter] = _reduced(image) if letter > 0 else invert(_reduced(image))
    return _join(map(table.__getitem__, word))


def exponent_sum(word: Word, index: int) -> int:
    """Signed count of occurrences of x_index; additive under concat."""
    if index < 1:
        raise ValueError(f"generator index must be >= 1, got {index}")
    return word.count(index) - word.count(-index)


def max_generator(word: Word) -> int:
    """Largest generator index used, 0 for the empty word."""
    return max(max(word), -min(word)) if word else 0


def reduce_relators(n: int, relators: Iterable[Iterable[int]]) -> tuple[Word, ...]:
    """The relators freely reduced and checked to use only x_1 .. x_n; raises
    ValueError on a negative n, the letter 0 or a generator beyond x_n."""
    if n < 0:
        raise ValueError("generator count must be nonnegative")
    reduced = tuple(map(free_reduce, relators))
    for i, relator in enumerate(reduced, start=1):
        if max_generator(relator) > n:
            raise ValueError(f"relator r{i} uses a generator beyond x{n}")
    return reduced


def format_runs(letters: Sequence[int], symbol: str) -> str:
    """Space-separated ``<symbol><k>`` / ``<symbol><k>^<e>`` tokens, one per
    run of equal letters; unambiguous on reduced words.  A run longer than
    MAX_EXPONENT goes out as several tokens of at most MAX_EXPONENT letters,
    so parse_runs reads back every formatted word of at most MAX_LETTERS
    letters.

    Cost: the per-letter work runs in C, plus one Python step per run longer
    than one letter and per distinct letter, named when first met.  Flags
    are grouped, so each stretch of single letters goes out in one
    ``extend`` and each long run as one token per MAX_EXPONENT letters.
    """
    names = _Memo(lambda k: f"{symbol}{k}" if k > 0 else f"{symbol}{-k}^-1")
    tokens: list[str] = []
    done = 0  # letters before this index are in tokens
    flag = 0  # flag i says whether letters i and i + 1 are equal
    for equal, flags in groupby(map(eq, islice(letters, 1, None), letters)):
        start, flag = flag, flag + len(list(flags))
        if equal:
            tokens.extend(map(names.__getitem__, letters[done:start]))
            k, e = letters[start], flag - start + 1
            while e > MAX_EXPONENT:
                tokens.append(f"{symbol}{abs(k)}^{MAX_EXPONENT if k > 0 else -MAX_EXPONENT}")
                e -= MAX_EXPONENT
            tokens.append(f"{symbol}{abs(k)}^{e if k > 0 else -e}")
            done = flag + 1
    tokens.extend(map(names.__getitem__, letters[done:]))
    return " ".join(tokens)


def parse_runs(
    tokens: Sequence[str],
    symbol: str,
    kind: str,
    index_ok: Callable[[int], bool],
    index_error: str,
    identity: str | None = None,
) -> Word:
    """Unreduced letters of format_runs tokens; ``identity`` stands for none.

    A memo parses each distinct token, ``index_ok`` seeing its index, when
    the token is first met, so errors name the first bad token and its
    position; ``index_error`` is formatted with both.  A token whose index
    or exponent exceeds MAX_EXPONENT in absolute value is an error too.
    Leading zeros are dropped and the remaining digits counted before int()
    sees them, so no token is too long for int() to convert.

    A word of more than MAX_LETTERS letters is a ParseError naming the cap,
    raised before its letters are built.  While the tokens times the
    longest distinct token so far stay within the cap, no total is taken;
    the first distinct token past that bound sums the exponents of all the
    tokens.
    """
    pattern = re.compile(rf"{symbol}0*(\d+)(?:\^(-?)0*(\d+))?", re.ASCII)
    beyond = f"beyond {MAX_EXPONENT} in {kind} token {{token!r}} at position {{position}}"
    within_cap = False  # whether all the tokens together are known to be within MAX_LETTERS

    def run(token: str) -> tuple[int, int]:
        match = pattern.fullmatch(token)
        if not match:
            message = f"bad {kind} token {{token!r}} at position {{position}}"
        elif (index := _bounded(match.group(1))) is None:
            message = "index " + beyond
        elif not index_ok(index):
            message = index_error
        elif (exponent := _bounded(match.group(3) or "1")) is None:
            message = "exponent " + beyond
        else:
            return index, -exponent if match.group(2) else exponent
        raise ParseError(message.format(token=token, position=tokens.index(token) + 1))

    def letters(token: str) -> Word:
        nonlocal within_cap
        index, exponent = runs[token]
        if not within_cap and len(tokens) * abs(exponent) > MAX_LETTERS:
            if sum(abs(runs[t][1]) for t in tokens) > MAX_LETTERS:
                raise ParseError(f"{kind} of more than {MAX_LETTERS} letters")
            within_cap = True
        return generator_power(index, exponent)

    runs = _Memo(run)
    runs[identity] = (1, 0)
    memo = _Memo(letters)
    memo[identity] = ()
    return tuple(chain.from_iterable(map(memo.__getitem__, tokens)))


def _bounded(digits: str) -> int | None:
    """The value of a digit string without leading zeros, or None past
    MAX_EXPONENT; too many digits mean None before int() is called."""
    if len(digits) > _MAX_DIGITS or (value := int(digits)) > MAX_EXPONENT:
        return None
    return value


_INTEGER = re.compile(r"[+-]?[0-9]+")
# Most digits _integer reads, below the 4,300 that int() and str() convert by
# default, so a sum or a double of two such integers still prints.
_INTEGER_DIGITS = 4000


def _integer(text: str) -> int:
    """int() of an ASCII ``[+-]?[0-9]+`` once stripped; anything else int()
    takes, such as ``1_0`` or non-ASCII digits, raises ValueError.  More than
    _INTEGER_DIGITS digits, leading zeros aside, raise ParseError; they are
    counted before int() is called."""
    if not _INTEGER.fullmatch(text := text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    if len(text.lstrip("+-").lstrip("0")) > _INTEGER_DIGITS:
        raise ParseError(f"integer of more than {_INTEGER_DIGITS} digits")
    return int(text)


_WORD_INDEX_ERROR = "generator index must be >= 1 in token {token!r} at position {position}"


def _read_word(text: str) -> tuple[Word, int]:
    """parse_word's reader: the word and the largest index among its
    distinct tokens, 0 when there is none.  That index bounds the word's
    letters, so a caller checks a range without a scan of the word."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty word text; write '1' for the identity")
    indices = [0]  # the index of each distinct token
    letters = parse_runs(
        tokens, "x", "word", lambda k: indices.append(k) or k >= 1, _WORD_INDEX_ERROR, "1"
    )
    return _reduced(letters), max(indices)


def parse_word(text: str) -> Word:
    """Parse whitespace-separated ``x<k>`` / ``x<k>^<e>`` tokens.

    The token ``1`` denotes the empty word and exponents may be negative or
    zero.  The result is freely reduced; parse_runs has already rejected
    every index below 1, so no letter is 0.
    """
    return _read_word(text)[0]


def format_word(word: Word) -> str:
    """Inverse of parse_word; the empty word prints as ``1``."""
    return format_runs(word, "x") or "1"

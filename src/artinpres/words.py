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
from typing import Callable, Iterable, Mapping, Sequence

Word = tuple[int, ...]


class ParseError(ValueError):
    """Malformed textual input (word grammar, presentation or braid files)."""


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
    run of equal letters; unambiguous on reduced words.

    Cost: the per-letter work runs in C, plus one Python step per run longer
    than one letter.  Adjacent-equal flags are grouped, so each stretch of
    single letters goes out in one ``extend`` and each long run as one token.
    """
    names = {k: f"{symbol}{k}" if k > 0 else f"{symbol}{-k}^-1" for k in set(letters)}
    tokens: list[str] = []
    done = 0  # letters before this index are in tokens
    flag = 0  # flag i says whether letters i and i + 1 are equal
    for equal, flags in groupby(map(eq, islice(letters, 1, None), letters)):
        start, flag = flag, flag + len(list(flags))
        if equal:
            tokens.extend(map(names.__getitem__, letters[done:start]))
            k, e = letters[start], flag - start + 1
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

    Each distinct token is parsed once, so errors name the first bad token
    and its position; ``index_error`` is formatted with both.
    """
    pattern = re.compile(rf"{symbol}(\d+)(?:\^(-?\d+))?")
    memo: dict[str | None, Word] = {identity: ()}
    for token in dict.fromkeys(tokens):
        match = pattern.fullmatch(token)
        if match and index_ok(index := int(match.group(1))):
            memo[token] = generator_power(index, int(match.group(2) or 1))
        elif token != identity:
            message = index_error if match else f"bad {kind} token {{token!r}} at position {{position}}"
            raise ParseError(message.format(token=token, position=tokens.index(token) + 1))
    return tuple(chain.from_iterable(map(memo.__getitem__, tokens)))


def parse_word(text: str) -> Word:
    """Parse whitespace-separated ``x<k>`` / ``x<k>^<e>`` tokens.

    The token ``1`` denotes the empty word and exponents may be negative or
    zero.  The result is freely reduced; parse_runs has already rejected
    every index below 1, so no letter is 0.
    """
    tokens = text.split()
    if not tokens:
        raise ParseError("empty word text; write '1' for the identity")
    message = "generator index must be >= 1 in token {token!r} at position {position}"
    return _reduced(parse_runs(tokens, "x", "word", lambda k: k >= 1, message, "1"))


def format_word(word: Word) -> str:
    """Inverse of parse_word; the empty word prints as ``1``."""
    return format_runs(word, "x") or "1"

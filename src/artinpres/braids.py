"""Braid words, their action on free groups, and the framed-pure-braid
bridge to Artin presentations.

A braid word on n strands is a sequence of nonzero integers i with
|i| < n, the letter i denoting the elementary crossing s_i and -i its
inverse.  Each braid word induces an automorphism of F_n sending every
generator to a conjugate of a generator; for pure braids (identity strand
permutation) each x_i maps to a conjugate of itself, and together with an
integer framing per strand this determines an Artin presentation.

Conventions, pinned by the twist fixtures in the test suite:

* positive crossing:  s_i : x_i -> x_{i+1},  x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}
* braid words act left to right, and the bridge turns concatenation of
  framed braids (framings added) into composition of presentations in the
  same order.

Under this choice s_1^2 with framings (1, 1) maps to the right-handed twist
presentation <x1 x2, x1 x2>, and s_1^-2 with framings (-1, -1) to its
left-handed mirror <x2^-1 x1^-1, x2^-1 x1^-1>.  The opposite handedness is
rejected by those fixtures.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .artin import ArtinPresentation
from .words import (
    ParseError,
    Word,
    _conjugator_length,
    _join,
    exponent_sum,
    format_runs,
    generator_power,
    invert,
    parse_runs,
)


@dataclass(frozen=True)
class BraidWord:
    """Word in the elementary crossings of the n strand braid group."""

    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("strand count must be nonnegative")
        object.__setattr__(self, "letters", tuple(self.letters))
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.n - 1:
                raise ValueError(
                    f"crossing index {letter} out of range for {self.n} strands"
                )


def braid_permutation(braid: BraidWord) -> tuple[int, ...]:
    """Strand permutation, as the tuple of images of 1..n."""
    perm = list(range(1, braid.n + 1))
    for letter in braid.letters:
        j = abs(letter)
        perm[j - 1], perm[j] = perm[j], perm[j - 1]
    return tuple(perm)


def generator_images(braid: BraidWord) -> tuple[Word, ...]:
    """Images of x_1..x_n under the induced automorphism of F_n.

    Computed letter by letter; the product x_1 x_2 ... x_n is preserved by
    every crossing, hence by every braid word.  Every image stays reduced,
    so the products are joined without another check.
    """
    images: list[Word] = [(i,) for i in range(1, braid.n + 1)]
    for letter in braid.letters:
        j = abs(letter)
        a, b = images[j - 1], images[j]
        if letter > 0:
            images[j - 1] = b
            images[j] = _join((invert(b), a, b))
        else:
            images[j - 1] = _join((a, b, invert(a)))
            images[j] = a
    return tuple(images)


def _split_conjugate(image: Word) -> tuple[Word, int]:
    """Write a reduced conjugate of a generator as (g, k) with image
    g x_k g^-1.

    Reduced conjugates of generators always carry this literal shape, so a
    failure to strip down to a single positive letter indicates a convention
    bug, not bad input.
    """
    k = _conjugator_length(image)
    if len(image) != 2 * k + 1 or image[k] < 0:
        raise RuntimeError(f"image {image!r} is not a conjugate of a generator")
    return image[:k], image[k]


def braid_automorphism(braid: BraidWord) -> dict[int, tuple[Word, int]]:
    """The induced automorphism in conjugate form: i -> (g_i, k_i) with
    x_i mapping to g_i x_{k_i} g_i^-1, where k = braid_permutation image."""
    return {
        i: _split_conjugate(image)
        for i, image in enumerate(generator_images(braid), start=1)
    }


@dataclass(frozen=True)
class FramedPureBraid:
    """A pure braid word with an integer framing per strand.

    Purity (identity strand permutation) is checked at construction.
    """

    braid: BraidWord
    framings: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "framings", tuple(self.framings))
        if len(self.framings) != self.braid.n:
            raise ValueError(
                f"expected {self.braid.n} framings, got {len(self.framings)}"
            )
        perm = braid_permutation(self.braid)
        if perm != tuple(range(1, self.braid.n + 1)):
            raise ValueError(f"braid is not pure (permutation {perm})")

    @property
    def n(self) -> int:
        return self.braid.n


def braid_to_artin(fp: FramedPureBraid) -> ArtinPresentation:
    """Artin presentation of a framed pure braid.

    With the automorphism writing x_i as g_i x_i g_i^-1, relator i is
    x_i^{k_i} g_i^-1, the power chosen so that the diagonal entry of the
    exponent matrix equals the requested framing.  The generator power is
    applied after extraction, never folded into the conjugator.
    """
    images = generator_images(fp.braid)
    relators = []
    for i, image in enumerate(images, start=1):
        conjugator, target = _split_conjugate(image)
        if target != i:
            raise RuntimeError(f"pure braid moved generator x{i} to x{target}")
        tail = invert(conjugator)
        power = fp.framings[i - 1] - exponent_sum(tail, i)
        relators.append(_join((generator_power(i, power), tail)))
    return ArtinPresentation(fp.n, tuple(relators))


def artin_inverse(fp: FramedPureBraid) -> ArtinPresentation:
    """Presentation of the inverse framed braid (reversed, sign-flipped word
    and negated framings); composing with braid_to_artin(fp) on either side
    gives the identity presentation."""
    reversed_braid = BraidWord(fp.n, invert(fp.braid.letters))
    return braid_to_artin(
        FramedPureBraid(reversed_braid, tuple(-f for f in fp.framings))
    )


_BRAID_TEXT = re.compile(
    r"braid\s+(\d+)\s*:\s*(.*?)\s*;\s*framings\s*=\s*(.*)", re.DOTALL
)


def parse_braid(text: str) -> FramedPureBraid:
    """Parse ``braid <n> : <tokens> ; framings = <f1>,...,<fn>``.

    Tokens are ``s<k>`` or ``s<k>^<e>``; the token list may be empty for the
    identity braid.  Syntax problems raise ParseError; a well-formed but
    non-pure braid raises ValueError.
    """
    match = _BRAID_TEXT.fullmatch(text.strip())
    if match is None:
        raise ParseError("expected 'braid <n> : <tokens> ; framings = <list>'")
    n = int(match.group(1))
    message = f"crossing index must be in 1..{n - 1} in token {{token!r}}"
    letters = parse_runs(match.group(2).split(), "s", "braid", lambda k: 1 <= k < n, message)
    framings_text = match.group(3).strip()
    if framings_text:
        try:
            framings = tuple(int(part) for part in framings_text.split(","))
        except ValueError:
            raise ParseError(f"bad framings list {framings_text!r}") from None
    else:
        framings = ()
    if len(framings) != n:
        raise ParseError(f"expected {n} framings, got {len(framings)}")
    return FramedPureBraid(BraidWord(n, letters), framings)


def format_braid(fp: FramedPureBraid) -> str:
    """Canonical text form; parse_braid round-trips it."""
    framings = ",".join(str(f) for f in fp.framings)
    return f"braid {fp.n} : {format_runs(fp.braid.letters, 's')} ; framings = {framings}"

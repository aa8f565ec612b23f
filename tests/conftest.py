import random

from hypothesis import strategies as st

from artinpres.braids import BraidWord, FramedPureBraid


def pure_braid_generator(i: int, j: int) -> tuple[int, ...]:
    """The standard pure braid generator wrapping strand i around strand j
    (1 <= i < j), as a crossing word: s_{j-1} .. s_{i+1} s_i^2 s_{i+1}^-1 .. s_{j-1}^-1."""
    assert 1 <= i < j
    middle = tuple(range(j - 1, i, -1))
    return middle + (i, i) + tuple(-k for k in reversed(middle))


def random_framed_pure_braid(
    rng: random.Random, n: int, max_letters: int = 20
) -> FramedPureBraid:
    """Random pure braid built from the standard generators and their
    inverses, capped at max_letters crossings, with small random framings."""
    letters: list[int] = []
    while True:
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        gen = pure_braid_generator(i, j)
        if rng.random() < 0.5:
            gen = tuple(-k for k in reversed(gen))
        if len(letters) + len(gen) > max_letters:
            break
        letters.extend(gen)
    framings = tuple(rng.randint(-3, 3) for _ in range(n))
    return FramedPureBraid(BraidWord(n, tuple(letters)), framings)


def large_members(entries):
    """T4 and T5 members built from one integer v: (v, 0, +-1), (0, v, +-1),
    (v + 1, v - 1, v) and (v - 1, v + 1, v)."""
    shapes = [
        lambda v: (v, 0, 1),
        lambda v: (v, 0, -1),
        lambda v: (0, v, 1),
        lambda v: (0, v, -1),
        lambda v: (v + 1, v - 1, v),
        lambda v: (v - 1, v + 1, v),
    ]
    return st.builds(lambda shape, v: shape(v), st.sampled_from(shapes), entries)

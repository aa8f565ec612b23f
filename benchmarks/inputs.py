"""Seeded inputs for the three workloads, as plain tuples.

Nothing here imports artinpres: the library receives only what these
functions return, and the same (workload, seed, size) always gives the same
inputs.
"""

from __future__ import annotations

import math
import random

# Workload sizes.  "full" is what the benchmark measures; "tiny" is for the
# smoke test.
SIZES = {
    "full": {
        # group-law: pairs and associativity triples are drawn in seed order
        # until their compositions have produced the budget of letters; the
        # pools are large enough that they never run dry.
        "pair_pool": 400,
        "pair_budget": 900_000,
        "assoc_pool": 200,
        "assoc_budget": 300_000,
        "compose_cap": 400_000,
        "r2_laws": 200,
        # coset-orders: symmetric groups S5..S8 relator-first.
        "coxeter_max": 8,
        # certify-sweep
        "bound": 100,
        "tail": 128,
    },
    "tiny": {
        "pair_pool": 100,
        "pair_budget": 40_000,
        "assoc_pool": 100,
        "assoc_budget": 20_000,
        "compose_cap": 30_000,
        "r2_laws": 20,
        "coxeter_max": 6,
        "bound": 10,
        "tail": 4,
    },
}


def pure_braid_generator(i: int, j: int) -> tuple[int, ...]:
    """Standard pure braid generator A_ij (1 <= i < j) as a crossing word:
    s_{j-1} .. s_{i+1} s_i^2 s_{i+1}^-1 .. s_{j-1}^-1."""
    middle = tuple(range(j - 1, i, -1))
    return middle + (i, i) + tuple(-k for k in reversed(middle))


def random_framed_pure_braid(
    rng: random.Random, n: int, max_letters: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(crossings, framings) of a random pure braid on n strands: standard
    generators and their inverses appended until the next one would pass
    max_letters crossings, framings uniform in [-3, 3]."""
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
    return tuple(letters), tuple(rng.randint(-3, 3) for _ in range(n))


def group_law(seed: int, size: str) -> dict:
    """Braid pairs (20 crossings), braid triples (14 crossings) and r(a,b,c)
    pairs in [-20, 20].  Strand counts cycle through 2..5 so that every seed
    has the same mix of ranks."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    pairs = []
    for k in range(cfg["pair_pool"]):
        n = 2 + k % 4
        pairs.append((n, random_framed_pure_braid(rng, n, 20), random_framed_pure_braid(rng, n, 20)))
    triples = []
    for k in range(cfg["assoc_pool"]):
        n = 2 + k % 4
        triples.append((n,) + tuple(random_framed_pure_braid(rng, n, 14) for _ in range(3)))
    laws = [
        (
            tuple(rng.randint(-20, 20) for _ in range(3)),
            tuple(rng.randint(-20, 20) for _ in range(3)),
        )
        for _ in range(cfg["r2_laws"])
    ]
    return {
        "pairs": pairs,
        "triples": triples,
        "laws": laws,
        "pair_budget": cfg["pair_budget"],
        "assoc_budget": cfg["assoc_budget"],
        "compose_cap": cfg["compose_cap"],
    }


def coxeter_symmetric(n: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Coxeter presentation of S_n on n-1 generators."""
    m = n - 1
    relators = [(i, i) for i in range(1, m + 1)]
    relators += [(i, i + 1) * 3 for i in range(1, m)]
    relators += [(i, j) * 2 for i in range(1, m + 1) for j in range(i + 2, m + 1)]
    return m, tuple(relators)


# (name, generator count, relators, exact order)
_T235 = ("T(2,3,5)", 2, ((1, 1), (2, 2, 2), (1, 2) * 5), 60)
_R132 = ("r(-1,-3,2)", 2, ((-1, -1, 2, 1, 2), (-2, -2, -2, -2, -2, 1, 2, 1, 2)), 120)
_PSL27 = ("PSL(2,7)", 2, ((1, 1), (2, 2, 2), (1, 2) * 7, (-1, -2, 1, 2) * 4), 168)


def coset_orders(seed: int, size: str) -> dict:
    """Presentations of known order, each with its relators cyclically
    rotated and reordered by the seed; neither changes the group."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    groups = {g[0]: g[1:] for g in (_T235, _R132, _PSL27)}
    for n in range(5, cfg["coxeter_max"] + 1):
        groups[f"S{n}"] = coxeter_symmetric(n) + (math.factorial(n),)
    plan = [(name, "relator-first") for name in groups]
    definition_first = ["T(2,3,5)", "r(-1,-3,2)", "PSL(2,7)", "S5"]
    if size == "tiny":
        definition_first = ["T(2,3,5)"]
    plan += [(name, "definition-first") for name in definition_first]
    cases = []
    for name, strategy in plan:
        ngens, relators, order = groups[name]
        rotated = []
        for word in relators:
            k = rng.randrange(len(word))
            rotated.append(word[k:] + word[:k])
        rng.shuffle(rotated)
        cases.append((name, strategy, ngens, tuple(rotated), order))
    return {"cases": cases}


def unimodular_triples(bound: int) -> list[tuple[int, int, int]]:
    """Every (a, b, c) with max(|a|, |b|, |c|) <= bound and ab - c^2 = +-1,
    found by solving c^2 = ab -+ 1 with isqrt."""
    found = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for square in (a * b - 1, a * b + 1):
                if square < 0:
                    continue
                c = math.isqrt(square)
                if c * c == square and c <= bound:
                    found.add((a, b, c))
                    found.add((a, b, -c))
    return sorted(found)


def certify_sweep(seed: int, size: str) -> dict:
    """The unimodular sweep in seeded order, plus a seeded tail of T4 and T5
    members with |b| or |c| in 1000..2000."""
    cfg = SIZES[size]
    rng = random.Random(seed)
    sweep = unimodular_triples(cfg["bound"])
    rng.shuffle(sweep)
    tail: list[tuple[int, int, int]] = []
    while len(tail) < cfg["tail"]:
        v = rng.choice((1, -1)) * rng.randint(1000, 2000)
        if len(tail) % 2 == 0:
            t = (0, v, rng.choice((1, -1)))
        elif rng.random() < 0.5:
            t = (v + 1, v - 1, v)
        else:
            t = (v - 1, v + 1, v)
        if t not in tail:
            tail.append(t)
    return {"sweep": sweep, "tail": tail, "bound": cfg["bound"]}


GENERATORS = {
    "group-law": group_law,
    "coset-orders": coset_orders,
    "certify-sweep": certify_sweep,
}

"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line (visible with
``pytest -s``).  All tolerances are exact: group orders, classification
tables, and algebraic identities admit no numerical slack.
"""

import random
import time
from functools import wraps
from itertools import product
from pathlib import Path

from artinpres.artin import compose
from artinpres.braids import braid_to_artin
from artinpres.cli import main
from artinpres.coset import Finite, FinitePresentation, enumerate_cosets
from artinpres.fourmanifolds import (
    FourManifold,
    classify_x4,
    classify_x4_with_path,
    flipc,
    form_invariants,
    mirror,
    reduce_to_base,
    slide1,
    slide2,
    swap,
)
from artinpres.triangle import Triviality, enumerate_trivial, trivial_family, triviality_status
from artinpres.twogen import build_r2, tuple_add

from conftest import random_framed_pure_braid

GOLDEN = Path(__file__).parent / "golden"


def criterion(number, name):
    def decorate(func):
        @wraps(func)
        def wrapper(*args, **kwargs):
            try:
                result = func(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({name}): PASS")
            return result

        return wrapper

    return decorate


def presentation_of(t):
    return FinitePresentation(2, build_r2(t).relators)


@criterion(1, "oracle orders")
def test_criterion_1_oracle_orders():
    budget = 100_000

    start = time.monotonic()
    result = enumerate_cosets(
        FinitePresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 5)), max_cosets=budget
    )
    assert isinstance(result, Finite) and result.order == 60
    assert time.monotonic() - start < 5.0

    start = time.monotonic()
    result = enumerate_cosets(presentation_of((-1, -3, 2)), max_cosets=budget)
    assert isinstance(result, Finite) and result.order == 120
    assert time.monotonic() - start < 5.0

    for t in enumerate_trivial(8):
        start = time.monotonic()
        result = enumerate_cosets(presentation_of(t), max_cosets=budget)
        assert isinstance(result, Finite) and result.order == 1, (t, result)
        assert time.monotonic() - start < 5.0


@criterion(2, "trivial-group completeness, max <= 8")
def test_criterion_2_completeness():
    start = time.monotonic()
    members = set(enumerate_trivial(8))
    for t in product(range(-8, 9), repeat=3):
        a, b, c = t
        if abs(a * b - c * c) != 1:
            continue
        if t in members:
            status = triviality_status(t)
            assert status.status is Triviality.TRIVIAL, (t, status)
        else:
            assert min(abs(a - c), abs(b - c), abs(c)) >= 2, t
    assert time.monotonic() - start < 120.0


@criterion(3, "4-manifold table, max <= 12")
def test_criterion_3_manifold_table():
    expected = {
        (1, 1, 0): FourManifold.CP2_CP2,
        (1, -1, 0): FourManifold.CP2_MCP2,
        (2, 1, 1): FourManifold.CP2_CP2,
        (5, 1, 2): FourManifold.CP2_CP2,
        (5, 2, 3): FourManifold.CP2_CP2,
    }
    for t, manifold in expected.items():
        assert classify_x4(t) is manifold, t
    for a in range(-12, 13):
        parity_class = FourManifold.S2XS2 if a % 2 == 0 else FourManifold.CP2_MCP2
        assert classify_x4((a, 0, 1)) is parity_class, a
    for c in range(-11, 12):
        parity_class = FourManifold.CP2_MCP2 if c % 2 == 0 else FourManifold.S2XS2
        assert classify_x4((c + 1, c - 1, c)) is parity_class, c
        assert classify_x4((c - 1, c + 1, c)) is parity_class, c

    # move-path method against the invariant method on every family instance
    for t in enumerate_trivial(12):
        manifold, path = classify_x4_with_path(t)
        inv = form_invariants(t)
        if inv.signature == 2:
            by_invariants = FourManifold.CP2_CP2
        elif inv.signature == -2:
            by_invariants = FourManifold.MCP2_MCP2
        elif inv.parity.value == "odd":
            by_invariants = FourManifold.CP2_MCP2
        else:
            by_invariants = FourManifold.S2XS2
        assert manifold is by_invariants, (t, manifold, by_invariants)
        assert path.start == t


@criterion(4, "group-law properties on random braid images")
def test_criterion_4_group_laws():
    rng = random.Random(2024)
    pairs = 0
    while pairs < 1000:
        n = rng.randint(2, 5)
        u = braid_to_artin(random_framed_pure_braid(rng, n, max_letters=20))
        r = braid_to_artin(random_framed_pure_braid(rng, n, max_letters=20))
        combined = compose(u, r)  # construction re-checks the Artin identity
        mu, mr, mc = (p.exponent_matrix() for p in (u, r, combined))
        assert mu.is_symmetric() and mr.is_symmetric() and mc.is_symmetric()
        assert mc == mu + mr
        pairs += 1

    for _ in range(350):
        n = rng.randint(2, 5)
        u, v, w = (
            braid_to_artin(random_framed_pure_braid(rng, n, max_letters=14))
            for _ in range(3)
        )
        assert compose(compose(u, v), w) == compose(u, compose(v, w))

    for _ in range(1000):
        s = tuple(rng.randint(-20, 20) for _ in range(3))
        t = tuple(rng.randint(-20, 20) for _ in range(3))
        assert compose(build_r2(s), build_r2(t)) == build_r2(tuple_add(s, t))


@criterion(5, "move invariance on the max <= 50 grid")
def test_criterion_5_move_invariance():
    for a in range(-50, 51):
        for b in range(-50, 51):
            for c in range(-50, 51):
                t = (a, b, c)
                inv = form_invariants(t)
                for moved in (slide1(t), slide2(t), swap(t)):
                    other = form_invariants(moved)
                    assert other.det == inv.det, (t, moved)
                    assert other.signature == inv.signature, (t, moved)
                if abs(c) == 1:
                    other = form_invariants(flipc(t))
                    assert other.det == inv.det and other.signature == inv.signature
                mirrored = form_invariants(mirror(t))
                assert mirrored.det == inv.det
                assert mirrored.signature == -inv.signature


@criterion(6, "braid fixture fidelity through the CLI")
def test_criterion_6_fixture_fidelity(capsys):
    for name in ("identity_braid", "right_twist", "left_twist"):
        code = main(["braid2artin", str(GOLDEN / f"{name}.braid")])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (GOLDEN / f"{name}.expected").read_text(), name

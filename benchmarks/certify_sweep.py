"""certify-sweep: every unimodular triple up to a bound, certified one by one.

Thousands of tiny calls: r(a,b,c) construction, determinant, triangle
verdicts, order-1 coset enumerations and 4-manifold move paths, so per-call
overhead dominates.  The tail of T4/T5 members with |b| or |c| in
1000..2000 is where reduce_to_base hits its step limit; those operations
are counted as failed, and the tail stays out of the output hash so the
hash does not change when that limit is lifted.  No other failure is
allowed: classify_x4_with_path raising anything but the step-limit error
is a wrong answer, and so is a triple raising anywhere else.
"""

from __future__ import annotations

import contextlib
import io

from artinpres import (
    Finite,
    FinitePresentation,
    Strategy,
    TriangleVerdict,
    Triviality,
    build_r2,
    classify_x4_with_path,
    cli,
    enumerate_cosets,
    exponent_matrix,
    generator_power,
    triangle_verdict,
    trivial_family,
    triviality_status,
)

from harness import WrongAnswer, check, quantile
from layers import counted_free_reduce

DIGEST_PER_SEED = False

STEP_LIMIT = "move normalization did not terminate"

_BASES = {(1, 1, 0), (1, -1, 0)}
_MOVES = {
    "slide1": lambda a, b, c: (a + b - 2 * c, b, b - c),
    "slide2": lambda a, b, c: (a, a + b - 2 * c, a - c),
    "swap": lambda a, b, c: (b, a, c),
    "flipc": lambda a, b, c: (a, b, -c),
    "mirror": lambda a, b, c: (-a, -b, -c),
}


def invariant_class(t) -> str:
    """Closed 4-manifold of a trivial triple by the signature/parity rule."""
    a, b, c = t
    det = a * b - c * c
    signature = 0 if det < 0 else (2 if a > 0 else -2)
    if signature == 2:
        return "CP2#CP2"
    if signature == -2:
        return "mCP2#mCP2"
    return "S2xS2" if a % 2 == 0 and b % 2 == 0 else "CP2#mCP2"


def _check_path(t, path) -> None:
    check(path.start == t, f"move path of {t} starts at {path.start}")
    current = t
    for step in path.steps:
        check(step.move in _MOVES, f"unknown move {step.move!r}")
        check(step.result == _MOVES[step.move](*current), f"bad {step.move} step from {current}")
        current = step.result
    check(current in _BASES or (current[1] == 0 and current[2] == 1), f"{t} ends at {current}")


def _staged(p, t, status) -> None:
    """triviality_status one stage at a time; the verdicts must agree."""
    a, b, c = t
    twist = (1, 2) * c if c >= 0 else (-2, -1) * -c
    words = tuple(
        counted_free_reduce(p, p.call("words.generator_power", generator_power, k, e) + twist)
        for k, e in ((1, a - c), (2, b - c))
    )
    presentation = p.call("twogen.build_r2", build_r2, t)
    check(words == presentation.relators, f"r{t} relators differ from their formula")
    p.values.setdefault("relator_len", []).extend(map(len, words))
    matrix = p.call("artin.exponent_matrix", exponent_matrix, 2, presentation.relators)
    if p.call("artin.det", matrix.det) not in (1, -1):
        staged = (Triviality.NONTRIVIAL, "abelianization")
    elif p.call("triangle.triangle_verdict", triangle_verdict, t) is not TriangleVerdict.INCONCLUSIVE:
        staged = (Triviality.NONTRIVIAL, "triangle-quotient")
    else:
        fp = p.call("coset.FinitePresentation", FinitePresentation, 2, presentation.relators)
        result = p.call(
            "coset.enumerate_cosets", enumerate_cosets, fp, 100_000, Strategy.RELATOR_FIRST
        )
        if not isinstance(result, Finite):
            staged = (Triviality.UNKNOWN, None)
        elif result.order == 1:
            staged = (Triviality.TRIVIAL, None)
        else:
            staged = (Triviality.NONTRIVIAL, "coset-order")
        if isinstance(result, Finite):
            p.stats["coset.cosets_defined"] += result.cosets_defined
            p.stats["coset.order_sum"] += result.order
    check(staged == (status.status, status.reason), f"staged verdict for {t} is {staged}")


_SETTLED = {
    "abelianization": "triangle.settled_abelianization",
    "triangle-quotient": "triangle.settled_quotient",
    "coset-order": "triangle.settled_coset",
    None: "triangle.settled_coset",
}


def _library(p, spent, name, fn, *args):
    """p.call, adding the call's time to spent[0]."""
    start = p.clock()
    try:
        return p.call(name, fn, *args)
    finally:
        spent[0] += p.clock() - start


def _triple_op(p, t, lines, members):
    """Certify one triple.  Its latency sample is the time of its library
    calls, without the replay and checks around them."""
    a, b, c = t
    spent = [0.0]
    status = _library(p, spent, "triangle.triviality_status", triviality_status, t)
    if p.traced:
        _staged(p, t, status)
    p.stats[_SETTLED[status.reason]] += 1
    family = _library(p, spent, "fourmanifolds.trivial_family", trivial_family, t)
    if family is None:
        check(status.status is Triviality.NONTRIVIAL, f"non-member {t} is {status.status.value}")
        check(min(abs(a - c), abs(b - c), abs(c)) >= 2, f"non-member {t} has no triangle quotient")
        line = f"{a},{b},{c} {status.status.value}"
    else:
        check(status.status is Triviality.TRIVIAL, f"member {t} is {status.status.value}")
        p.stats["sweep.members"] += 1
        if members is not None:
            members.add(t)
        try:
            manifold, path = _library(
                p, spent, "fourmanifolds.classify_x4_with_path", classify_x4_with_path, t
            )
        except Exception as exc:
            if not (isinstance(exc, RuntimeError) and str(exc).startswith(STEP_LIMIT)):
                raise WrongAnswer(f"classify_x4_with_path{t} raised {exc!r}") from exc
            p.stats["fourmanifolds.failed"] += 1
            raise
        check(manifold.value == invariant_class(t), f"{t} classified as {manifold.value}")
        _check_path(t, path)
        p.stats["fourmanifolds.path_steps"] += len(path.steps)
        p.stats["fourmanifolds.path_len_max"] = max(
            p.stats["fourmanifolds.path_len_max"], len(path.steps)
        )
        line = f"{a},{b},{c} {status.status.value} {manifold.value}"
    p.samples.setdefault("triple", []).append(spent[0])
    if lines is not None:
        lines.append(line)


def _cli_op(p, bound, members) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = p.call("cli.main", cli.main, ["enum-trivial", "--bound", str(bound)])
    text = out.getvalue()
    check(code == 0, f"enum-trivial exited with {code}")
    listed = set()
    for line in text.splitlines():
        triple, _, x4 = line.split()
        t = tuple(int(x) for x in triple.split(","))
        check(x4 == f"X4={invariant_class(t)}", f"enum-trivial gives {line!r}")
        listed.add(t)
    check(listed == members, "enum-trivial disagrees with the sweep's trivial triples")
    p.stats["cli.stdout_bytes"] += len(text.encode())
    p.emit(text)


def run_pass(p, inputs) -> None:
    lines: list[str] = []
    members = set()
    for t in inputs["sweep"]:
        p.op("triple", _triple_op, p, t, lines, members)
    for t in inputs["tail"]:
        p.stats["sweep.tail"] += 1
        failed = sum(p.failed.values())
        p.op("triple", _triple_op, p, t, None, None)
        p.stats["sweep.tail_failed"] += sum(p.failed.values()) - failed
    check(
        sum(p.failed.values()) == p.stats["fourmanifolds.failed"],
        f"triples failed other than on the step limit: {dict(p.failed)}",
    )
    for line in sorted(lines):
        p.emit(line)
    p.op("cli", _cli_op, p, inputs["bound"], members)


def summary(passes, inputs) -> tuple[dict, dict]:
    """(workload metrics as name -> (value, unit, samples), input properties)."""
    lat = [x for p in passes for x in p.samples.get("triple", ())]
    first = passes[0]
    stats = first.stats
    count = len(inputs["sweep"]) + len(inputs["tail"])
    metrics = {
        "triples_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "triple_p50_ms": (quantile(lat, 0.5) * 1e3, "ms", len(lat)),
        "triple_p99_ms": (quantile(lat, 0.99) * 1e3, "ms", len(lat)),
    }
    props = {
        "bound": inputs["bound"],
        "sweep_triples": len(inputs["sweep"]),
        "tail_triples": len(inputs["tail"]),
        "member_share": stats["sweep.members"] / count,
        "settled_abelianization_share": stats["triangle.settled_abelianization"] / count,
        "settled_quotient_share": stats["triangle.settled_quotient"] / count,
        "settled_coset_share": stats["triangle.settled_coset"] / count,
        "tail_failed": stats["sweep.tail_failed"],
        "tail_failed_share": stats["sweep.tail_failed"] / max(stats["sweep.tail"], 1),
        "path_len_max": stats["fourmanifolds.path_len_max"],
    }
    return metrics, props

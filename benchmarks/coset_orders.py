"""coset-orders: Todd-Coxeter enumeration of presentations of known order.

A few large tables (S7 and S8 relator-first) and the definition-first
strategy on small groups do nearly all the work; the word layer is idle.
"""

from __future__ import annotations

from artinpres import Exceeded, FinitePresentation, Strategy, enumerate_cosets

from harness import check

DIGEST_PER_SEED = False

# S8 relator-first defines about 115,000 cosets; the default budget of
# enumerate_cosets is 100,000.
MAX_COSETS = 1_000_000


class BudgetExceeded(Exception):
    """enumerate_cosets returned Exceeded on a group of known finite order."""


def _case_op(p, case):
    name, strategy, ngens, relators, order = case
    p.values.setdefault("relator_len", []).extend(map(len, relators))
    presentation = p.call("coset.FinitePresentation", FinitePresentation, ngens, relators)
    result = p.timed(
        f"enumerate {strategy}",
        "coset.enumerate_cosets",
        enumerate_cosets,
        presentation,
        MAX_COSETS,
        Strategy(strategy),
    )
    if isinstance(result, Exceeded):
        p.stats["coset.exceeded"] += 1
        raise BudgetExceeded(f"{name} {strategy}: more than {MAX_COSETS} cosets")
    check(result.order == order, f"{name} {strategy}: order {result.order}, expected {order}")
    p.stats["coset.cosets_defined"] += result.cosets_defined
    p.stats["coset.order_sum"] += order
    p.stats[f"cosets {name} {strategy}"] = result.cosets_defined
    p.emit(f"{name} {strategy} order={result.order}")


def run_pass(p, inputs) -> None:
    for case in inputs["cases"]:
        p.op("case", _case_op, p, case)


def summary(passes, inputs) -> tuple[dict, dict]:
    """(workload metrics as name -> (value, unit, samples), input properties)."""
    lat = [
        x
        for p in passes
        for kind in ("enumerate relator-first", "enumerate definition-first")
        for x in p.samples.get(kind, ())
    ]
    defined = sum(p.stats["coset.cosets_defined"] for p in passes)
    first = passes[0]
    metrics = {
        "cosets_per_s": (defined / sum(lat), "1/s", len(lat)),
    }
    props = {
        "cases": len(inputs["cases"]),
        "cosets_defined": first.stats["coset.cosets_defined"],
        "useful_ratio": first.stats["coset.order_sum"] / max(first.stats["coset.cosets_defined"], 1),
        "cosets_defined_per_case": {
            key[len("cosets ") :]: value
            for key, value in first.stats.items()
            if key.startswith("cosets ")
        },
    }
    return metrics, props

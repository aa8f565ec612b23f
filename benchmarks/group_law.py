"""group-law: the Artin-presentation group law on framed pure braids.

Relator lengths of braid-built presentations are heavy-tailed, so a fixed
number of draws would give each seed a very different amount of work.
Instead, braid pairs and associativity triples are drawn in seed order until
a budget of work units is spent.  A unit is one letter of a relator built by
braid_to_artin or compose; a composition also costs 1/16 unit per letter
before cancellation, about the ratio of compose's cost per such letter to
the text round trip's cost per output letter as measured when this
benchmark was written.  Before each composition its length
before cancellation is predicted from its factors, an upper bound: a draw
that would exceed the per-composition cap or the budget left is skipped.
"""

from __future__ import annotations

from math import prod

from artinpres import (
    BraidWord,
    FramedPureBraid,
    abelianization_invariants,
    artin_defect,
    braid_to_artin,
    build_r2,
    compose,
    format_presentation,
    generator_images,
    invert,
    parse_presentation,
    substitute,
    tuple_add,
)

from harness import check, quantile
from layers import counted_concat, counted_free_reduce

DIGEST_PER_SEED = True


def _to_artin(p, n, braid, budget):
    letters, framings = braid
    p.stats["braids.crossings"] += len(letters)
    p.stats["group.braids"] += 1
    fp = FramedPureBraid(BraidWord(n, letters), framings)
    if p.traced:
        p.call("braids.generator_images", generator_images, fp.braid)
    presentation = p.call("braids.braid_to_artin", braid_to_artin, fp)
    budget[0] -= sum(map(len, presentation.relators))
    return presentation


def _letter_counts(presentation):
    """Row i: occurrences of x_j^{+-1} in relator i."""
    n = presentation.n
    return [[w.count(j) + w.count(-j) for j in range(1, n + 1)] for w in presentation.relators]


def _predict(cu, cr):
    """Letter counts of compose(u, r) before cancellation: relator i is
    u_i followed by r_i with each x_k replaced by u_k^-1 x_k u_k."""
    n = len(cu)
    out = []
    for i in range(n):
        row = list(cu[i])
        for k in range(n):
            m = cr[i][k]
            if m:
                for j in range(n):
                    row[j] += 2 * m * cu[k][j]
                row[k] += m
        out.append(row)
    return out


def _total(counts) -> int:
    return sum(map(sum, counts))


def _replay_compose(p, u, r, composed):
    """The steps of compose(u, r), one public call at a time."""
    images = {}
    for j in range(1, u.n + 1):
        conjugator = u.relators[j - 1]
        images[j] = counted_concat(p, p.call("words.invert", invert, conjugator), (j,), conjugator)
    relators = []
    for i in range(u.n):
        image = p.call("words.substitute", substitute, r.relators[i], images)
        relators.append(counted_free_reduce(p, counted_concat(p, u.relators[i], image)))
    defect = p.call("artin.artin_defect", artin_defect, u.n, relators)
    check(not defect, "replayed composition is not Artin")
    check(tuple(relators) == composed.relators, "replayed composition differs from compose")


def _compose(p, u, r, budget=None, predicted=0):
    """compose(u, r), its text round trip and, traced, its replay.  Its
    work units, with `predicted` letters before cancellation, are taken
    from the budget, if any."""
    c = p.timed("compose", "artin.compose", compose, u, r)
    if p.traced:
        _replay_compose(p, u, r, c)
    text = p.call("artin.format_presentation", format_presentation, c.n, c.relators)
    parsed = p.call("artin.parse_presentation", parse_presentation, text)
    check(parsed == (c.n, c.relators), "text round trip changed a presentation")
    lengths = [len(w) for w in c.relators]
    p.values.setdefault("relator_len", []).extend(lengths)
    p.stats["group.letters_out"] += sum(lengths)
    p.stats["group.predicted_letters"] += predicted
    if budget is not None:
        budget[0] -= sum(lengths) + predicted // 16
    return c, text


def _matrix(p, presentation):
    matrix = p.call("artin.exponent_matrix", presentation.exponent_matrix)
    m = matrix.entries
    check(
        all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i)),
        "exponent matrix is not symmetric",
    )
    return matrix


def _admit(p, kind, totals, budget, cap) -> bool:
    """Whether compositions with these predicted lengths before
    cancellation fit under the cap and in the budget left."""
    if max(totals) > cap:
        p.stats[f"group.{kind}_skipped_cap"] += 1
        return False
    if sum(totals) + sum(totals) // 16 > budget[0]:
        p.stats[f"group.{kind}_skipped_budget"] += 1
        return False
    return True


def _pair_op(p, item, budget, cap):
    n, ub, rb = item
    p.stats["group.pair_drawn"] += 1
    u, r = _to_artin(p, n, ub, budget), _to_artin(p, n, rb, budget)
    predicted = _total(_predict(_letter_counts(u), _letter_counts(r)))
    if not _admit(p, "pair", [predicted], budget, cap):
        return
    c, text = _compose(p, u, r, budget, predicted)
    mu, mr, matrix = (_matrix(p, x) for x in (u, r, c))
    check(
        matrix.entries
        == tuple(tuple(x + y for x, y in zip(a, b)) for a, b in zip(mu.entries, mr.entries)),
        "exponent matrices do not add under composition",
    )
    det = p.call("artin.det", matrix.det)
    snf = p.call("artin.abelianization_invariants", abelianization_invariants, matrix)
    check(prod(snf) == abs(det), "Smith form disagrees with the determinant")
    p.stats["group.pair_composed"] += 1
    p.emit(f"{text}\ndet={det} snf={snf}")


def _triple_op(p, item, budget, cap):
    n, *braids = item
    p.stats["group.triple_drawn"] += 1
    u, v, w = (_to_artin(p, n, b, budget) for b in braids)
    cu, cv, cw = (_letter_counts(x) for x in (u, v, w))
    inner = [_total(_predict(cu, cv)), _total(_predict(cv, cw))]
    if not _admit(p, "triple", inner, budget, cap):
        return
    uv, _ = _compose(p, u, v, budget, inner[0])
    vw, _ = _compose(p, v, w, budget, inner[1])
    outer = [_total(_predict(_letter_counts(uv), cw)), _total(_predict(cu, _letter_counts(vw)))]
    if not _admit(p, "triple", outer, budget, cap):
        return
    left, text = _compose(p, uv, w, budget, outer[0])
    right, _ = _compose(p, u, vw, budget, outer[1])
    check(left == right, "composition is not associative")
    p.stats["group.triple_composed"] += 1
    p.emit(text)


def _law_op(p, s, t):
    ps = p.call("twogen.build_r2", build_r2, s)
    pt = p.call("twogen.build_r2", build_r2, t)
    c, text = _compose(p, ps, pt)
    expected = p.call("twogen.build_r2", build_r2, p.call("twogen.tuple_add", tuple_add, s, t))
    check(c == expected, f"compose(r{s}, r{t}) is not r(s + t)")
    p.emit(text)


def _drain(p, name, op, items, total, cap):
    budget = [total]
    for item in items:
        if budget[0] < total // 100:
            return
        p.op(name, op, p, item, budget, cap)
    p.stats[f"group.{name}_pool_exhausted"] += 1


def run_pass(p, inputs) -> None:
    cap = inputs["compose_cap"]
    _drain(p, "pair", _pair_op, inputs["pairs"], inputs["pair_budget"], cap)
    _drain(p, "triple", _triple_op, inputs["triples"], inputs["assoc_budget"], cap)
    for s, t in inputs["laws"]:
        p.op("law", _law_op, p, s, t)


def summary(passes, inputs) -> tuple[dict, dict]:
    """(workload metrics as name -> (value, unit, samples), input properties)."""
    lat = [x for p in passes for x in p.samples.get("compose", ())]
    first = passes[0]
    lengths = first.values.get("relator_len", [])
    metrics = {
        "compose_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "compose_p50_ms": (quantile(lat, 0.5) * 1e3, "ms", len(lat)),
        "compose_p99_ms": (quantile(lat, 0.99) * 1e3, "ms", len(lat)),
    }
    stats = first.stats
    props = {
        "compose_calls": len(first.samples.get("compose", ())),
        "relator_len_p50": quantile(lengths, 0.5),
        "relator_len_p90": quantile(lengths, 0.9),
        "relator_len_p99": quantile(lengths, 0.99),
        "relator_len_max": max(lengths, default=0),
        "letters_out": stats["group.letters_out"],
        "predicted_letters": stats["group.predicted_letters"],
        "braids": stats["group.braids"],
        "crossings_per_braid": stats["braids.crossings"] / max(stats["group.braids"], 1),
    }
    for kind in ("pair", "triple"):
        composed = stats[f"group.{kind}_composed"]
        cap = stats[f"group.{kind}_skipped_cap"]
        drawn = stats[f"group.{kind}_drawn"]
        props[f"{kind}s_drawn"] = drawn
        props[f"{kind}s_composed"] = composed
        props[f"{kind}_share_over_cap"] = cap / drawn if drawn else 0.0
        props[f"{kind}_pool_exhausted"] = bool(stats[f"group.{kind}_pool_exhausted"])
    props["r2_laws"] = len(inputs["laws"])
    return metrics, props

"""Counted calls into the word layer, and the per-layer metrics of a traced
run.

Layers are the modules of artinpres.  Spans are named ``module.function``;
a layer's time is the self time of its spans.
"""

from __future__ import annotations

from collections import Counter

from artinpres import concat, free_reduce

from harness import quantile, self_times


def counted_concat(p, *factors):
    """words.concat, counting letters in and letters cancelled."""
    word = p.call("words.concat", concat, *factors)
    letters_in = sum(len(f) for f in factors)
    p.stats["words.concat_calls"] += 1
    p.stats["words.concat_letters_in"] += letters_in
    p.stats["words.concat_cancelled"] += letters_in - len(word)
    return word


def counted_free_reduce(p, letters):
    """words.free_reduce, counting calls whose input was already reduced."""
    word = p.call("words.free_reduce", free_reduce, letters)
    p.stats["words.free_reduce_calls"] += 1
    if len(word) == len(letters):
        p.stats["words.free_reduce_noop"] += 1
    return word


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> unit, in report order
PER_LAYER = {
    "words.concat_s": "s",
    "words.concat_calls": "count",
    "words.concat_letters_in": "count",
    "words.concat_cancel_ratio": "ratio",
    "words.free_reduce_s": "s",
    "words.free_reduce_calls": "count",
    "words.free_reduce_noop_share": "ratio",
    "words.substitute_s": "s",
    "words.invert_s": "s",
    "words.relator_len_p50": "letters",
    "words.relator_len_max": "letters",
    "artin.compose_s": "s",
    "artin.compose_calls": "count",
    "artin.defect_s": "s",
    "artin.defect_share": "ratio",
    "artin.exponent_matrix_s": "s",
    "artin.det_s": "s",
    "artin.smith_s": "s",
    "artin.text_s": "s",
    "braids.braid_to_artin_s": "s",
    "braids.generator_images_s": "s",
    "braids.crossings": "count",
    "twogen.build_r2_s": "s",
    "twogen.build_r2_calls": "count",
    "coset.enum_s": "s",
    "coset.enum_calls": "count",
    "coset.cosets_defined": "count",
    "coset.useful_ratio": "ratio",
    "coset.relator_first_s": "s",
    "coset.definition_first_s": "s",
    "coset.exceeded": "count",
    "triangle.status_s": "s",
    "triangle.verdict_s": "s",
    "triangle.settled_abelianization": "count",
    "triangle.settled_quotient": "count",
    "triangle.settled_coset": "count",
    "fourmanifolds.classify_s": "s",
    "fourmanifolds.classify_calls": "count",
    "fourmanifolds.path_steps": "count",
    "fourmanifolds.path_len_max": "count",
    "fourmanifolds.failed": "count",
    "cli.main_s": "s",
    "cli.calls": "count",
    "cli.stdout_bytes": "count",
    "bench.self_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(passes, overhead_s: float) -> dict[str, float]:
    """Per-pass per-layer metrics from the traced passes.  Times are scaled
    like wall_s (see harness.SpeedProbe), so they share a basis with
    `overhead_s`, the scaled traced wall time minus the untraced one.
    Times and counts are averaged over the passes; maxima and ratios are
    over all of them."""
    k = len(passes)
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    strategy_s: Counter[str] = Counter()
    for p in passes:
        for name, seconds in self_times(p.spans).items():
            self_s[name] += seconds * p.scale
        calls.update(span[3] for span in p.spans)
        for strategy in ("relator-first", "definition-first"):
            strategy_s[strategy] += sum(p.samples.get(f"enumerate {strategy}", ()))
    stats: Counter[str] = Counter()
    for p in passes:
        stats.update(p.stats)
    lengths = [x for p in passes for x in p.values.get("relator_len", ())]
    bench_self = sum(v for name, v in self_s.items() if name.startswith("bench."))
    values = {
        "words.concat_s": self_s["words.concat"],
        "words.concat_calls": stats["words.concat_calls"],
        "words.concat_letters_in": stats["words.concat_letters_in"],
        "words.concat_cancel_ratio": _ratio(
            stats["words.concat_cancelled"], stats["words.concat_letters_in"]
        ),
        "words.free_reduce_s": self_s["words.free_reduce"],
        "words.free_reduce_calls": stats["words.free_reduce_calls"],
        "words.free_reduce_noop_share": _ratio(
            stats["words.free_reduce_noop"], stats["words.free_reduce_calls"]
        ),
        "words.substitute_s": self_s["words.substitute"],
        "words.invert_s": self_s["words.invert"],
        "words.relator_len_p50": quantile(lengths, 0.5),
        "words.relator_len_max": max(lengths, default=0),
        "artin.compose_s": self_s["artin.compose"],
        "artin.compose_calls": calls["artin.compose"],
        "artin.defect_s": self_s["artin.artin_defect"],
        "artin.defect_share": _ratio(self_s["artin.artin_defect"], self_s["artin.compose"]),
        "artin.exponent_matrix_s": self_s["artin.exponent_matrix"],
        "artin.det_s": self_s["artin.det"],
        "artin.smith_s": self_s["artin.abelianization_invariants"],
        "artin.text_s": self_s["artin.format_presentation"] + self_s["artin.parse_presentation"],
        "braids.braid_to_artin_s": self_s["braids.braid_to_artin"],
        "braids.generator_images_s": self_s["braids.generator_images"],
        "braids.crossings": stats["braids.crossings"],
        "twogen.build_r2_s": self_s["twogen.build_r2"],
        "twogen.build_r2_calls": calls["twogen.build_r2"],
        "coset.enum_s": self_s["coset.enumerate_cosets"],
        "coset.enum_calls": calls["coset.enumerate_cosets"],
        "coset.cosets_defined": stats["coset.cosets_defined"],
        "coset.useful_ratio": _ratio(stats["coset.order_sum"], stats["coset.cosets_defined"]),
        "coset.relator_first_s": strategy_s["relator-first"],
        "coset.definition_first_s": strategy_s["definition-first"],
        "coset.exceeded": stats["coset.exceeded"],
        "triangle.status_s": self_s["triangle.triviality_status"],
        "triangle.verdict_s": self_s["triangle.triangle_verdict"],
        "triangle.settled_abelianization": stats["triangle.settled_abelianization"],
        "triangle.settled_quotient": stats["triangle.settled_quotient"],
        "triangle.settled_coset": stats["triangle.settled_coset"],
        "fourmanifolds.classify_s": self_s["fourmanifolds.classify_x4_with_path"],
        "fourmanifolds.classify_calls": calls["fourmanifolds.classify_x4_with_path"],
        "fourmanifolds.path_steps": stats["fourmanifolds.path_steps"],
        "fourmanifolds.path_len_max": max(
            (p.stats["fourmanifolds.path_len_max"] for p in passes), default=0
        ),
        "fourmanifolds.failed": stats["fourmanifolds.failed"],
        "cli.main_s": self_s["cli.main"],
        "cli.calls": calls["cli.main"],
        "cli.stdout_bytes": stats["cli.stdout_bytes"],
        "bench.self_s": bench_self,
        "trace.overhead_s": overhead_s,
    }
    per_pass = {
        name
        for name, unit in PER_LAYER.items()
        if unit in ("s", "count") and not name.endswith("_max") and name != "trace.overhead_s"
    }
    return {
        name: (value / k if name in per_pass else value) for name, value in values.items()
    }

"""Benchmark for artinpres.

    python3 benchmarks/run.py --workload group-law --seed 1 --seconds 20 --trace 0

Runs one workload in this process, on one thread, as a closed loop: each
call into artinpres is sent only after the previous one returned.  Set-up
(importing artinpres from ./src and generating the seeded inputs) is
repeated and its median reported; then whole passes over the inputs run
until the next one would end after --seconds.  Every pass checks its
outputs exactly and hashes them; the hash must be the same in every pass
and, where digests.json holds one, equal to it.  Reported times are scaled
to a nominal machine speed (see harness.py); raw times are in the report.

The report goes to stdout as JSON; the last line is the summary
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics of a traced run (--trace 1).  A wrong
output prints correct=false and exits with 1.  Without ./src/artinpres the
run exits with 2 before printing anything.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time

from harness import Pass, SpeedProbe, WrongAnswer
from inputs import GENERATORS, SIZES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
TRACE_DIR = os.path.join(HERE, "out")

MODULES = {
    "group-law": "group_law",
    "coset-orders": "coset_orders",
    "certify-sweep": "certify_sweep",
}

# name -> unit of the metrics on the summary line with tracing off.  The
# report has more (peak memory, latency percentiles, rates); these two are
# the ones that stay within a few percent from seed to seed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
}

SETUP_REPEATS = 5


def _fresh_import():
    for name in [m for m in sys.modules if m == "artinpres" or m.startswith("artinpres.")]:
        del sys.modules[name]
    return importlib.import_module("artinpres")


def _setup(workload: str, seed: int, size: str, probe: SpeedProbe):
    """Import artinpres and generate the inputs, SETUP_REPEATS times; the
    last import stays loaded.  Returns (inputs, raw seconds of each
    repetition, scale factor)."""
    first = len(probe.samples)
    times = []
    for _ in range(SETUP_REPEATS):
        spent = probe.spent
        start = time.perf_counter()
        _fresh_import()
        inputs = GENERATORS[workload](seed, size)
        times.append(time.perf_counter() - start - (probe.spent - spent))
    return inputs, times, probe.scale(first)


def _run_passes(module, inputs, seconds: float, trace: bool, probe: SpeedProbe):
    """Closed-loop passes until the next one would end after `seconds`;
    traced runs alternate untraced and traced passes.  Returns lists of
    (raw seconds, scaled seconds, pass) for untraced and traced passes; the
    pass's latency samples are scaled in place and its scale factor is
    kept as `pass.scale`."""
    untraced: list[tuple[float, float, Pass]] = []
    traced: list[tuple[float, float, Pass]] = []
    start = time.perf_counter()
    while True:
        for with_spans in ((False, True) if trace else (False,)):
            p = Pass(with_spans, probe)
            first, spent = len(probe.samples), probe.spent
            t0 = time.perf_counter()
            module.run_pass(p, inputs)
            raw = time.perf_counter() - t0 - (probe.spent - spent)
            scale = p.scale = probe.scale(first)
            for values in p.samples.values():
                values[:] = [x * scale for x in values]
            (traced if with_spans else untraced).append((raw, raw * scale, p))
        cycle = (time.perf_counter() - start) / len(untraced)
        if time.perf_counter() - start + cycle > seconds:
            return untraced, traced


def _digest_key(module, seed: int) -> str:
    return str(seed) if module.DIGEST_PER_SEED else "*"


def _load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)


def _write_spans(workload: str, seed: int, passes) -> str:
    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write('["pass", "id", "parent", "op", "name", "start", "end"]\n')
        for k, (_, _, p) in enumerate(passes):
            for span in p.spans:
                handle.write(json.dumps((k,) + span) + "\n")
    return os.path.relpath(path, ROOT)


def _summary_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "artinpres", "__init__.py")):
        print(f"error: no artinpres sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    report = {
        "provenance": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "seconds": args.seconds,
            "trace": args.trace,
            "loop": "single process, one thread, closed loop",
        }
    }
    try:
        with SpeedProbe() as probe:
            inputs, setup_raw, setup_scale = _setup(args.workload, args.seed, args.size, probe)
            module = importlib.import_module(MODULES[args.workload])
            untraced, traced = _run_passes(module, inputs, args.seconds, bool(args.trace), probe)
    except WrongAnswer as exc:
        report["wrong_answer"] = str(exc)
        print(json.dumps(report, indent=1))
        print(_summary_line(False, 1, 0, {}))
        return 1

    passes = untraced + traced
    digests = {p.digest.hexdigest() for _, _, p in passes}
    digest = digests.pop() if len(digests) == 1 else None
    key = _digest_key(module, args.seed)
    stored = _load_digests().get(args.size, {}).get(args.workload, {}).get(key)
    if digest is None:
        digest_check = "passes disagree"
    elif stored is None:
        digest_check = "none stored for this seed"
    else:
        digest_check = "match" if stored == digest else "mismatch"
    correct = digest_check in ("match", "none stored for this seed")

    attempted = sum(p.attempted for _, _, p in untraced)
    failures: dict[str, int] = {}
    for _, _, p in untraced:
        for name, count in p.failed.items():
            failures[name] = failures.get(name, 0) + count
    failed = sum(failures.values())
    wall_s = statistics.median(scaled for _, scaled, _ in untraced)
    metrics, props = module.summary([p for _, _, p in untraced], inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    workload_metrics = {
        "setup_s": (statistics.median(setup_raw) * setup_scale, "s", SETUP_REPEATS),
        "wall_s": (wall_s, "s", len(untraced)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
        "failed_share": (failed / attempted, "ratio", attempted),
        **metrics,
    }
    report.update(
        {
            "passes": len(untraced),
            "raw_setup_s": setup_raw,
            "raw_pass_s": [raw for raw, _, _ in untraced],
            "scaled_pass_s": [scaled for _, scaled, _ in untraced],
            "probe_samples": len(probe.samples),
            "probe_mean_s": statistics.mean(probe.samples),
            "digest": digest,
            "digest_check": digest_check,
            "failures": failures,
            "metrics": {
                name: {"value": value, "unit": unit, "samples": samples}
                for name, (value, unit, samples) in workload_metrics.items()
            },
            "inputs": props,
        }
    )
    if args.trace:
        from layers import PER_LAYER, layer_metrics

        traced_wall = statistics.median(scaled for _, scaled, _ in traced)
        layers = layer_metrics([p for _, _, p in traced], traced_wall - wall_s)
        report["traced_passes"] = len(traced)
        report["traced_wall_s"] = traced_wall
        report["spans_file"] = _write_spans(args.workload, args.seed, traced)
        summary = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items()}
        report["layers"] = summary
    else:
        summary = {
            name: {"value": workload_metrics[name][0], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps(report, indent=1))
    print(_summary_line(correct, attempted, failed, summary))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

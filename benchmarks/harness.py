"""Operation accounting, tracing and machine-speed scaling shared by the
workloads.

Every call the benchmark makes into artinpres goes through ``Pass.call``.
Untraced, that is a plain call.  Traced, it records a span (name, start,
end, parent span, operation id) in memory; spans are written out only when
the run ends.  Span times and latency samples are read from ``Pass.clock``,
which leaves out the SpeedProbe's own time.

The benchmark runs on shared machines whose speed changes by tens of
percent from one second to the next and from one minute to the next.  A
SpeedProbe samples that speed while the workload runs, and reported times
are scaled to a nominal speed.
"""

from __future__ import annotations

import hashlib
import random
import signal
import statistics
import time
from collections import Counter

perf_counter = time.perf_counter

PROBE_EVERY_S = 0.05
# Mean time of the reference workload on a 2-vCPU VM with Python 3.11.
REFERENCE_NOMINAL_S = 0.0008
_REFERENCE_WORD = [random.Random(0).choice((1, -1, 2, -2, 3, -3)) for _ in range(10_000)]


class SpeedProbe:
    """Every PROBE_EVERY_S of wall time, a SIGALRM handler in this thread
    times a fixed reference workload that does not use artinpres:
    stack-based cancellation over a 10,000-letter word, shaped like the
    program's own work.  On a shared 2-vCPU VM with Python 3.11, the log
    time of a pass regressed on the log mean reference time during that
    pass, over the passes of 20 runs per workload, gave slopes of 1.08 to
    1.14 (r = 0.96 to 0.97) while the machine's speed swung widely, and
    0.63 to 1.09 (r = 0.72 to 0.91) while it was quiet and there was
    little to correct.  The handler's time is tracked so that callers can
    take it out of their measurements.

    Sampling at a fixed period weights every moment of a measurement
    equally, also inside one long call into the library.  A time scaled by
    ``scale`` is the time on a machine where the reference workload takes
    REFERENCE_NOMINAL_S."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        stack: list[int] = []
        for letter in _REFERENCE_WORD:
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
        tuple(stack)
        end = perf_counter()
        self.samples.append(end - start)
        self.spent += end - start

    def scale(self, first: int) -> float:
        """Factor from raw to scaled seconds for the time since sample
        `first`, or over all samples when none was taken since."""
        recent = self.samples[first:] or self.samples
        return REFERENCE_NOMINAL_S / statistics.mean(recent)


class WrongAnswer(Exception):
    """The program returned an output that fails an exact check."""


class Pass:
    """State of one pass over a workload's inputs.

    ``op`` wraps one operation: an exception from the program is counted by
    type and the pass goes on; a WrongAnswer is never caught here.
    ``scale`` is set by the runner once the pass has ended.
    """

    def __init__(self, traced: bool, probe: SpeedProbe) -> None:
        self.traced = traced
        self.probe = probe
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self._stack: list[int] = []
        self.op_id = 0
        self.attempted = 0
        self.failed: Counter[str] = Counter()
        self.stats: Counter[str] = Counter()
        # latencies in seconds by kind, without the probe's time
        self.samples: dict[str, list[float]] = {}
        # other per-call values, such as relator lengths
        self.values: dict[str, list[int]] = {}
        self.digest = hashlib.sha256()
        self.scale = 1.0

    def clock(self) -> float:
        """Seconds of perf_counter without the probe handler's time."""
        return perf_counter() - self.probe.spent

    def call(self, name, fn, *args):
        if not self.traced:
            return fn(*args)
        sid = len(self.spans)
        self.spans.append((sid, -1, -1, name, 0.0, 0.0))
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = self.clock()
        try:
            return fn(*args)
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op_id, name, start, end)

    def op(self, name, fn, *args):
        """Run one operation under a root span; returns None if it raised."""
        self.attempted += 1
        self.op_id += 1
        try:
            return self.call(f"bench.{name}", fn, *args)
        except WrongAnswer:
            raise
        except Exception as exc:  # any program failure is counted, not fatal
            self.failed[type(exc).__name__] += 1
            return None

    def timed(self, sample: str, name, fn, *args):
        """A call whose latency is also kept as a sample."""
        start = self.clock()
        try:
            return self.call(name, fn, *args)
        finally:
            self.samples.setdefault(sample, []).append(self.clock() - start)

    def emit(self, line: str) -> None:
        """Add one canonical output line to the pass's sha256."""
        self.digest.update(line.encode())
        self.digest.update(b"\n")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


def self_times(spans) -> Counter:
    """Total self time per span name: duration minus the time covered by
    direct children.  Calls are sequential, so children never overlap."""
    child_time: Counter[int] = Counter()
    for _, parent, _, _, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: Counter[str] = Counter()
    for sid, _, _, name, start, end in spans:
        totals[name] += (end - start) - child_time[sid]
    return totals


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0 <= q <= 1); 0.0 for no values."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)

"""Span tracer that measures mpslab layers from outside the package.

Each traced function is replaced by a timing wrapper at *every* module
attribute that binds it, not only in the defining module: mpslab modules
import by name (``experiments.compress``, ``exact.compress``,
``classify.train_arrays``), so patching ``mps.compress`` alone would miss
most calls.  Methods are patched on their class.  Spans record name,
start, end and parent; a span's self time is its duration minus the part
of it covered by its direct children.  Spans stay in memory and are
summarized after each op.
"""

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# Percentiles tried for a tail, highest first; a tail needs at least
# TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner.attr`` recorded under ``label``.

    ``extra(args, kwargs, out)``, when given, returns a per-call quantity
    (a flop count, a byte count or a hashable input key) kept with the
    span statistics.
    """

    label: str
    owner: object  # a module or a class
    attr: str
    extra: object = None


class Tracer:
    """In-memory span recorder plus the bindings it patched."""

    def __init__(self):
        self.missing = []
        self._stack = []
        self._patches = []
        self.reset()

    def reset(self):
        """Drop the recorded spans, extras and counts."""
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.extras = defaultdict(list)
        self.einsum_calls = 0

    def open(self, name) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def _wrap(self, label, fn, extra):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(label)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if extra is not None:
                tracer.extras[label].append(extra(args, kwargs, out))
            return out

        return traced

    def _count_einsum(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.einsum_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, obj, name, value):
        self._patches.append((obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def install(self, targets, modules, numpy_module=None) -> None:
        """Patch every binding of each target in ``modules``.

        Targets whose attribute no longer exists are skipped and listed
        in ``self.missing``; their metrics then read zero.
        """
        self.missing = []
        for t in targets:
            if isinstance(t.owner, type):
                if t.attr not in vars(t.owner):
                    self.missing.append(t.label + ":" + t.attr)
                    continue
                original = vars(t.owner)[t.attr]
                self._patch(t.owner, t.attr, self._wrap(t.label, original,
                                                        t.extra))
                continue
            original = getattr(t.owner, t.attr, None)
            if original is None:
                self.missing.append(t.label + ":" + t.attr)
                continue
            self._rebind(original, self._wrap(t.label, original, t.extra),
                         modules)
        if numpy_module is not None:
            original = numpy_module.einsum
            self._rebind(original, self._count_einsum(original),
                         [numpy_module] + list(modules))

    def _rebind(self, original, wrapper, modules):
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            obj, name, value = self._patches.pop()
            setattr(obj, name, value)

    @contextmanager
    def installed(self, targets, modules, numpy_module=None):
        self.install(targets, modules, numpy_module)
        try:
            yield self
        finally:
            self.uninstall()


def package_modules(prefix="mpslab"):
    """Every loaded module of the package, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix
                                  or name.startswith(prefix + "."))]


# ---------------------------------------------------------------------------
# arithmetic on spans

def covered_length(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(starts, ends, parents):
    """Each span's duration minus the time its direct children cover."""
    children = [[] for _ in starts]
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    return [ends[i] - starts[i]
            - covered_length(children[i], starts[i], ends[i])
            for i in range(len(starts))]


def percentile(values, p) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest ladder percentile with at least ten of n samples beyond it,
    or None when n is too small for any."""
    for p in TAIL_LADDER:
        if round(n * (100.0 - p) / 100.0, 6) >= TAIL_MIN_BEYOND:
            return p
    return None


# ---------------------------------------------------------------------------
# summaries

@dataclass
class LayerStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    durations: list = field(default_factory=list)
    extras: list = field(default_factory=list)
    child_calls: Counter = field(default_factory=Counter)

    def merge(self, other: "LayerStats") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.self_seconds += other.self_seconds
        self.durations.extend(other.durations)
        self.extras.extend(other.extras)
        self.child_calls.update(other.child_calls)


@dataclass
class TraceSummary:
    """Per-label statistics of one or more traced ops."""

    layers: dict = field(default_factory=lambda: defaultdict(LayerStats))
    phase_calls: dict = field(default_factory=lambda: defaultdict(Counter))
    root_seconds: float = 0.0
    root_self_seconds: float = 0.0
    einsum_calls: int = 0
    ops: int = 0

    def layer(self, label) -> LayerStats:
        return self.layers.get(label, LayerStats())

    def merge(self, other: "TraceSummary") -> None:
        for label, stats in other.layers.items():
            self.layers[label].merge(stats)
        for phase, counts in other.phase_calls.items():
            self.phase_calls[phase].update(counts)
        self.root_seconds += other.root_seconds
        self.root_self_seconds += other.root_self_seconds
        self.einsum_calls += other.einsum_calls
        self.ops += other.ops


def summarize(tracer: Tracer) -> TraceSummary:
    """Fold the tracer's spans into one op's TraceSummary.

    Spans without a parent are the benchmark's phase roots (set-up and
    op); their self time is the part of the run no layer span covers.
    """
    out = TraceSummary(einsum_calls=tracer.einsum_calls, ops=1)
    names, parents = tracer.names, tracer.parents
    selfs = self_times(tracer.starts, tracer.ends, parents)
    root = [0] * len(names)
    for i, p in enumerate(parents):
        root[i] = i if p < 0 else root[p]
    for i, name in enumerate(names):
        dur = tracer.ends[i] - tracer.starts[i]
        if parents[i] < 0:
            out.root_seconds += dur
            out.root_self_seconds += selfs[i]
            continue
        stats = out.layers[name]
        stats.calls += 1
        stats.seconds += dur
        stats.self_seconds += selfs[i]
        stats.durations.append(dur)
        if parents[parents[i]] >= 0:
            out.layers[names[parents[i]]].child_calls[name] += 1
        out.phase_calls[names[root[i]]][name] += 1
    for label, values in tracer.extras.items():
        out.layers[label].extras.extend(values)
    return out


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0

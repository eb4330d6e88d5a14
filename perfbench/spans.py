"""Spans, counters and percentiles for the traced benchmark run.

The tracer lives in a benchmark worker process and wraps public functions of
``railbeam`` modules from outside; the library itself is not edited.
Spans nest in call order on one thread, so self time is computed online:
a span's self time is its duration minus the time covered by spans of
*other* layers below it (time spent in a same-layer child counts as the
parent's own layer work, as in "rate_region self time excludes numerics").
"""

from __future__ import annotations

import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 100) of ``samples``."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10
MAX_KEPT_SPANS = 5000


def highest_supported(samples: list[float]) -> dict:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples above it.

    Returns the percentile, its value and the sample count; ``percentile``
    is None when even the median lacks ``MIN_BEYOND`` samples beyond it.
    """
    n = len(samples)
    best = None
    for q in LADDER:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND - 1e-9:
            best = q
    return {
        "percentile": best,
        "value": percentile(samples, best) if best is not None else None,
        "samples": n,
    }


@dataclass
class _Frame:
    name: str
    layer: str
    start: float
    parent: "_Frame | None"
    keep: bool
    span_id: int
    foreign_s: float = 0.0  # time covered by other-layer descendants


@dataclass
class NameStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)


@dataclass
class Tracer:
    """In-memory spans and counters for one traced process.

    ``keep=False`` spans update the statistics of their name and layer but
    are not stored one by one; use it for calls made tens of thousands of
    times per run. Names in ``sampled`` also keep every duration, for
    percentiles. At most ``MAX_KEPT_SPANS`` spans are stored; later ones only
    update the statistics and are counted in ``dropped``. While ``active``
    is false, wrapped functions run untraced (used while the benchmark
    checks outputs).
    """

    run_id: str
    clock: Callable[[], float] = time.perf_counter
    sampled: set[str] = field(default_factory=set)
    active: bool = True
    dropped: int = 0
    spans: list[dict] = field(default_factory=list)
    stats: dict[str, NameStats] = field(default_factory=dict)
    layer_busy: dict[str, float] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    _top: _Frame | None = None
    _open_layers: dict[str, int] = field(default_factory=dict)
    _next_id: int = 1

    def open(self, name: str, layer: str, keep: bool = True) -> _Frame:
        frame = _Frame(name, layer, self.clock(), self._top, keep, self._next_id)
        self._next_id += 1
        self._top = frame
        self._open_layers[layer] = self._open_layers.get(layer, 0) + 1
        return frame

    def close(self, frame: _Frame) -> None:
        end = self.clock()
        if frame is not self._top:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        self._top = frame.parent
        duration = end - frame.start
        self_s = duration - frame.foreign_s
        parent = frame.parent
        if parent is not None:
            parent.foreign_s += frame.foreign_s if parent.layer == frame.layer else duration
        depth = self._open_layers[frame.layer] - 1
        self._open_layers[frame.layer] = depth
        if depth == 0:
            self.layer_busy[frame.layer] = self.layer_busy.get(frame.layer, 0.0) + duration
        st = self.stats.get(frame.name)
        if st is None:
            st = self.stats[frame.name] = NameStats()
        st.calls += 1
        st.busy_s += duration
        st.self_s += self_s
        if frame.name in self.sampled:
            st.durations.append(duration)
        if frame.keep and len(self.spans) >= MAX_KEPT_SPANS:
            self.dropped += 1
        elif frame.keep:
            self.spans.append({
                "id": frame.span_id,
                "parent": parent.span_id if parent is not None else None,
                "name": frame.name,
                "layer": frame.layer,
                "start": frame.start,
                "end": end,
                "self_s": self_s,
                "run": self.run_id,
            })

    @contextmanager
    def span(self, name: str, layer: str, keep: bool = True):
        frame = self.open(name, layer, keep)
        try:
            yield frame
        finally:
            self.close(frame)

    def wrap(self, fn: Callable, name: str, layer: str, keep: bool = True) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.open(name, layer, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        traced.__wrapped__ = fn
        return traced


def replace_everywhere(original: object, replacement: object) -> None:
    """Rebind every attribute of a loaded ``railbeam`` module that is ``original``.

    Modules that imported a function by name hold their own binding, so a
    wrapper must replace each of them.
    """
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "railbeam" or mod_name.startswith("railbeam.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


@dataclass(frozen=True)
class Probe:
    """One public function to time: ``module.attr`` (or ``module.Class.attr``)."""

    name: str
    module: str
    attr: str
    keep: bool = True

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def instrument(tracer: Tracer, probes: list[Probe]) -> dict[str, str]:
    """Wrap each probe's function; returns {span name: reason} for absent ones."""
    absent = {}
    for probe in probes:
        name = probe.name
        module = sys.modules.get(probe.module)
        owner = module
        *path, leaf = probe.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None) if owner is not None else None
        original = getattr(owner, leaf, None) if owner is not None else None
        if original is None:
            absent[name] = f"{probe.module}.{probe.attr} not found"
            continue
        wrapped = tracer.wrap(original, name, probe.layer, probe.keep)
        if path:
            setattr(owner, leaf, wrapped)
        else:
            replace_everywhere(original, wrapped)
    return absent


def count_integrand(tracer: Tracer) -> str | None:
    """Count integrand evaluations made through ``adaptive_simpson``.

    Wraps the quadrature's integrand argument with a counter. Returns a
    reason string when the quadrature function does not exist.
    """
    original = getattr(sys.modules.get("railbeam.numerics"), "adaptive_simpson", None)
    if original is None:
        return "railbeam.numerics.adaptive_simpson not found"
    counters = tracer.counters
    counters.setdefault("numerics.integrand.evals", 0)

    def counted_simpson(f, *args, **kwargs):
        if not tracer.active:
            return original(f, *args, **kwargs)

        def counted(x):
            counters["numerics.integrand.evals"] += 1
            return f(x)

        return original(counted, *args, **kwargs)

    counted_simpson.__wrapped__ = original
    replace_everywhere(original, counted_simpson)
    return None

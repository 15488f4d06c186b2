"""Outside-in layer tracing: spans around the public calls into each layer.

:func:`install` replaces each layer's public function with a wrapper at the
module (or class, or registry) attribute its caller resolves, so the program
itself is unchanged; the returned callable puts every original back.  Spans
stay in memory on the :class:`Tracer` until the benchmark writes them out.

A span's self time is its duration minus the durations of its direct
children.  Spans nest strictly on one thread, so children never overlap and
the self times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional


@dataclass
class Span:
    """One timed call into a layer."""

    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Tracer.spans`, or ``None``.
    parent: Optional[int]
    #: Pass label, plus ``/<spec index>`` for spans inside one spec's run.
    run: str
    #: Counts taken at the same boundary (e.g. the rounds a simulation ran).
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        """Seconds between the call and its return."""
        return self.end - self.start


class Tracer:
    """Collects spans; ``pass_label`` names the current ``execute`` pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.pass_label = ""
        self._stack: List[int] = []
        self._spec_index: Optional[int] = None
        self._specs_seen = 0

    def _run_id(self) -> str:
        if self._spec_index is None:
            return self.pass_label
        return f"{self.pass_label}/{self._spec_index}"

    def wrap(
        self,
        name: str,
        fn: Callable,
        counts: Optional[Callable[[Any], Dict[str, int]]] = None,
        per_spec: bool = False,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        ``counts(result)`` attaches counts to the span; ``per_spec`` marks
        the call that runs one spec, whose spans share its run id.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if per_spec:
                tracer._spec_index = tracer._specs_seen
                tracer._specs_seen += 1
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, 0.0, 0.0, parent, tracer._run_id())
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if per_spec:
                    tracer._spec_index = None
            if counts is not None:
                span.counts = counts(result)
            return result

        return traced


def _sim_counts(result) -> Dict[str, int]:
    metrics = result.metrics
    return {
        "rounds": metrics.rounds,
        "rounds_executed": metrics.rounds_executed,
        "moves": metrics.total_moves,
    }


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced layer call; returns the function that unwraps them.

    Each target is the attribute the default serial path resolves at call
    time: ``repro.runtime.execute`` (called by the benchmark), the executor
    module's ``execute_spec``, the spec module's ``graph_for``,
    ``assign_labels`` and ``PLACEMENT_BUILDERS`` entries, the experiments
    module's ``verify_uxs_for_graph``, ``practical_plan`` and
    ``record_from_result``, the UXS-Gathering program's ``practical_plan``,
    and the ``World.run`` and ``ResultCache.put``/``get`` methods.
    """
    import repro.runtime
    from repro.analysis import experiments
    from repro.core import uxs_gathering
    from repro.runtime import executor, spec
    from repro.runtime.cache import ResultCache
    from repro.sim.world import World

    targets = [
        (repro.runtime, "execute", "runtime.execute", {}),
        (executor, "execute_spec", "runtime.spec", {"per_spec": True}),
        (spec, "graph_for", "graphs", {}),
        (spec, "assign_labels", "placement", {}),
        (experiments, "verify_uxs_for_graph", "uxs.verify", {}),
        (experiments, "practical_plan", "uxs.certify", {}),
        (uxs_gathering, "practical_plan", "uxs.certify", {}),
        (World, "run", "sim", {"counts": _sim_counts}),
        (experiments, "record_from_result", "record", {}),
        (ResultCache, "put", "cache.put", {}),
        (ResultCache, "get", "cache.get", {}),
    ]
    targets += [(spec.PLACEMENT_BUILDERS, key, "placement", {})
                for key in spec.PLACEMENT_BUILDERS]

    originals = []
    for owner, attr, name, options in targets:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = tracer.wrap(name, original, **options)
        else:
            original = vars(owner)[attr]
            setattr(owner, attr, tracer.wrap(name, original, **options))
        originals.append((owner, attr, original))

    def uninstall() -> None:
        for owner, attr, original in reversed(originals):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    return uninstall


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.duration
    return [span.duration - c for span, c in zip(spans, child)]


def rollup(spans: List[Span], pass_label: str) -> Dict[str, Dict[str, float]]:
    """``{layer: {"self_s", "calls", <counts>...}}`` over one pass's spans."""
    out: Dict[str, Dict[str, float]] = {}
    for span, self_s in zip(spans, self_times(spans)):
        if span.run.split("/")[0] != pass_label:
            continue
        layer = out.setdefault(span.name, {"self_s": 0.0, "calls": 0})
        layer["self_s"] += self_s
        layer["calls"] += 1
        for key, value in span.counts.items():
            layer[key] = layer.get(key, 0) + value
    return out

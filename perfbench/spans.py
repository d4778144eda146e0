"""In-memory span recorder for the traced benchmark run.

:class:`Recorder` wraps the simulator's layer entry points *where their
callers look them up* (a class attribute, or the module global a caller
resolves at call time) and records one :class:`Span` per call: name,
start, end, parent span and grid point id, plus an optional measured
value (events drained, bytes written, cache hit).  Spans stay in memory
and are written out by the caller when the run ends.

The recorder is installed only around traced passes; untraced passes run
the simulator unmodified.  Self times come from the spans alone: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

from repro.experiments import base
from repro.sim import engine, store, system


class Span:
    __slots__ = ("name", "start", "end", "parent", "point", "value")

    def __init__(self, name: str, parent: int, point: Optional[str]):
        self.name = name
        self.parent = parent
        self.point = point
        self.start = 0.0
        self.end = 0.0
        self.value: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def point_id(app: str, design: str, scale: float) -> str:
    """Grid point id shared by spans and the reference table."""
    return f"{app}/{design}@{scale:g}"


def _key_point(args: tuple) -> str:
    profile, spec, cfg = args[:3]
    return point_id(profile.name, spec.label, cfg.scale)


def _init_point(args: tuple) -> str:
    workload, spec, cfg = args[1:4]
    return point_id(workload.name, spec.label, cfg.scale)


def _run_point(args: tuple) -> str:
    sim = args[0]
    return point_id(sim.workload.name, sim.spec.label, sim.cfg.scale)


def _hit(args: tuple, out: object) -> float:
    return 0.0 if out is None else 1.0


def _put_bytes(args: tuple, out: object) -> float:
    cache, key = args[0], args[1]
    return float(cache.path_for(key).stat().st_size)


def _events(args: tuple, out: object) -> float:
    return float(args[0].events_processed)


class Recorder:
    """Records spans at the layer boundaries while installed.

    ``key_points`` maps each grid point's cache key to its point id, so
    store reads and writes (which only see the key) are attributed to
    the point they serve.
    """

    def __init__(self, key_points: Dict[str, str]):
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._saved: list = []
        self._key_points = key_points

    def _store_point(self, args: tuple) -> Optional[str]:
        return self._key_points.get(args[1])

    def _targets(self) -> Sequence[tuple]:
        # (owner, attribute, span name, point id of the call, value).
        # sim_cache_key has two bindings: validate_grid resolves it from
        # repro.sim.store at call time, Runner from repro.experiments.base.
        return (
            (base.Runner, "run_many", "runner.run_many", None, None),
            (base, "validate_grid", "validation.validate_grid", None, None),
            (store, "sim_cache_key", "store.key", _key_point, None),
            (base, "sim_cache_key", "store.key", _key_point, None),
            (store.DiskResultCache, "get", "store.get",
             self._store_point, _hit),
            (store.DiskResultCache, "put", "store.put",
             self._store_point, _put_bytes),
            (system, "generate_workload", "workloads.generate", None, None),
            (system.GPUSystem, "__init__", "system.init", _init_point, None),
            (system.GPUSystem, "run", "system.run", _run_point, None),
            (engine.Engine, "run", "engine.run", None, _events),
        )

    def _wrap(
        self,
        name: str,
        fn: Callable,
        point_of: Optional[Callable[[tuple], Optional[str]]],
        value_of: Optional[Callable[[tuple, object], float]],
    ) -> Callable:
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            point = point_of(args) if point_of is not None else None
            if point is None and parent >= 0:
                point = spans[parent].point
            span = Span(name, parent, point)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if value_of is not None:
                span.value = value_of(args, out)
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, point_of, value_of in self._targets():
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, point_of, value_of))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def self_times(self) -> List[float]:
        """Per span: its duration minus its direct children's durations."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "point": s.point, "value": s.value,
                }, separators=(",", ":")) + "\n")

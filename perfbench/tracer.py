"""Span tracer that wraps the library's public functions from outside.

Each wrapped call records one span: name, start, end, parent span and the id
of the simulation event being processed. Spans stay in memory until the run
ends; `dump` writes them as JSON lines. Nothing under `src/` is modified: the
wrappers replace module attributes where callers look them up (for example
`scheduler.build_mip`) and methods on the classes, and are removed again when
the `active()` block exits.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

from vdcembed import metrics, online_search, paths, scheduler, state, topology
from vdcembed.errors import CommitRejectedError
from vdcembed.online_search import OnlineResult

import workloads

# (owner, attribute, span name); an owner is a module or a class
TARGETS = (
    (topology, "build_fat_tree", "topology.build_fat_tree"),
    (workloads, "generate_vdc_request", "topology.generate_request"),
    (paths, "enumerate_paths", "paths.enumerate"),
    (scheduler, "run_simulation", "scheduler.run_simulation"),
    (scheduler.Simulation, "process", "scheduler.process"),
    (scheduler, "build_mip", "batch_solver.build_mip"),
    (scheduler, "solve_exact", "batch_solver.solve_exact"),
    (scheduler, "extract_assignments", "batch_solver.extract"),
    (scheduler, "try_online_embed", "online_search.try_online_embed"),
    (scheduler, "compute_fragments", "online_search.compute_fragments"),
    (online_search, "compute_fragments", "online_search.compute_fragments"),
    (online_search, "greedy_temp_map", "online_search.greedy_temp_map"),
    (online_search, "swap_repair", "online_search.swap_repair"),
    (state.EmbeddingState, "commit", "state.commit"),
    (state.EmbeddingState, "release", "state.release"),
    (state.EmbeddingState, "check_assignment", "state.check_assignment"),
    (state.EmbeddingState, "audit", "state.audit"),
    (state.EmbeddingState, "residual_vectors", "state.residual_vectors"),
    (metrics, "aggregate", "metrics.aggregate"),
    (metrics, "serialize_trace", "metrics.serialize_trace"),
    (metrics, "write_csv", "metrics.write_csv"),
)


class Tracer:
    """Collects spans and counters while `active()` is entered."""

    def __init__(self):
        self.t0 = time.perf_counter()
        # (span id, name, parent id, event id, start, end)
        self.spans: list[tuple[int, str, int | None, int | None, float, float]] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._next_id = 0
        self._event: int | None = None
        self._events = 0

    # -- recording -------------------------------------------------------------

    def _observe(self, name: str, result, exc):
        """Counters taken at the span boundary, from arguments and results."""
        c = self.counts
        c[name + ".calls"] += 1
        if name == "batch_solver.build_mip" and exc is None:
            self.samples.setdefault("vars", []).append(result.num_vars)
            self.samples.setdefault("rows", []).append(result.num_constraints)
        elif name == "batch_solver.solve_exact" and exc is None:
            c["solve.status." + result.status] += 1
            c["solve.nodes"] += result.nodes
        elif name == "online_search.try_online_embed" and isinstance(result, OnlineResult):
            c["online.swaps"] += len(result.moves)
        elif name == "state.commit" and isinstance(exc, CommitRejectedError):
            c["state.commit_rejected"] += 1
        elif name == "topology.generate_request":
            c["topology.requests"] += 1

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            outer_event = tracer._event
            if name == "scheduler.process":
                tracer._event = tracer._events
                tracer._events += 1
            event = tracer._event
            tracer._stack.append(span_id)
            result = exc = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._event = outer_event
                tracer.spans.append((span_id, name, parent, event, start, end))
                tracer._observe(name, result, exc)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        """Install the wrappers; restore the original attributes on exit."""
        saved = []
        try:
            for owner, attr, name in TARGETS:
                fn = owner.__dict__[attr]
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- analysis --------------------------------------------------------------

    def _child_time(self) -> Counter:
        child = Counter()
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        return child

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = self._child_time()
        out: Counter = Counter()
        for span_id, name, _, _, start, end in self.spans:
            out[name] += (end - start) - child[span_id]
        return dict(out)

    def durations(self, name: str) -> list[float]:
        """Inclusive seconds of each span with this name."""
        return [end - start for _, n, _, _, start, end in self.spans if n == name]

    def dump(self, path):
        """Write one JSON line per span with inclusive and self seconds."""
        child = self._child_time()
        with open(path, "w") as fp:
            for span_id, name, parent, event, start, end in sorted(self.spans):
                fp.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "parent": parent,
                            "event": event,
                            "start": start - self.t0,
                            "end": end - self.t0,
                            "self": (end - start) - child[span_id],
                        }
                    )
                    + "\n"
                )

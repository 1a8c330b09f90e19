"""Outside-in tracing: wrappers around the public entry points of each layer.

Nothing under ``src/`` is changed.  ``Tracer.install`` replaces module and
class attributes with timing wrappers and ``Tracer.uninstall`` puts the
originals back.  Callers must look the wrapped functions up through their
modules (``pag.parse_program``, not a name imported earlier).

Two kinds of record are kept in memory and written out when the run ends:

- spans (name, start, end, parent span, solve id) for the coarse calls:
  parsing, hierarchy building, numbering, each type-mask build, the
  footprint, the verification pass, and the solve spans the benchmark opens;
- per-phase counters for the hot calls (``add_all``, the element-wise
  fallback, ``or_overlapping``), which run up to ~10^6 times a solve and
  would swamp memory as single spans.  They are written as aggregate child
  spans (name, parent, kind, calls, seconds, useful).

``add_all`` is counted on outermost calls only: a hybrid set forwarding to
its overflow, or any set falling back to ``PointsToSet.add_all``, is one
call from the solver.  Fallback calls are counted at every depth.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from rangepta import bitsets, hierarchy, pag, ptsets, solver

perf_counter = time.perf_counter

# indices into a phase's counter list
ADD_CALLS, ADD_S, ADD_USEFUL, FB_CALLS, FB_S, OR_CALLS, OR_S, OR_USEFUL = range(8)

# wrapped coarse entry points: (owner, attribute, span name)
SPANNED = (
    (pag, "parse_program", "pag.parse_program"),
    (pag, "build_hierarchy", "hierarchy.build_hierarchy"),
    (hierarchy, "number_allocations", "hierarchy.number_allocations"),
    (ptsets, "build_type_mask", "hierarchy.build_type_mask"),
    (ptsets.SetFactory, "total_footprint", "ptsets.total_footprint"),
    (solver, "run_extra_pass", "solver.run_extra_pass"),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "solve_id", "child_s")

    def __init__(self, name, parent, solve_id):
        self.name = name
        self.parent = parent
        self.solve_id = solve_id
        self.start = perf_counter()
        self.end = None
        self.child_s = 0.0  # wall time covered by direct children

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.phases: dict[tuple[str, str], list] = {}  # (phase, kind) -> counters
        self.solve_kind: dict[int, str] = {}
        self.solve_id = None
        self.counters = [0] * 8  # absorbs hot calls outside any phase
        self._add_depth = 0
        self._saved: list[tuple] = []

    # -- spans and phases ---------------------------------------------------

    def open(self, name: str) -> Span:
        span = Span(name, self.stack[-1] if self.stack else None, self.solve_id)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: Span):
        span.end = perf_counter()
        if self.stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if span.parent is not None:
            span.parent.child_s += span.seconds

    @contextmanager
    def phase(self, phase: str, kind: str, solve_id: int, span_name=None):
        """Direct hot-call counters to (phase, kind) and tag spans with
        solve_id; optionally open a span around the block."""
        saved = self.counters
        self.counters = self.phases.setdefault((phase, kind), [0] * 8)
        self.solve_id = solve_id
        self.solve_kind[solve_id] = kind
        span = self.open(span_name) if span_name else None
        try:
            yield
        finally:
            if span is not None:
                self.close(span)
            self.counters = saved
            self.solve_id = None

    # -- wrappers -------------------------------------------------------------

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def _add_all(self, fn, fallback: bool):
        tracer = self

        def add_all(s, src):
            outer = not tracer._add_depth
            tracer._add_depth += 1
            t0 = perf_counter()
            try:
                changed = fn(s, src)
            finally:
                tracer._add_depth -= 1
            dt = perf_counter() - t0
            c = tracer.counters
            if fallback:
                c[FB_CALLS] += 1
                c[FB_S] += dt
            if outer:
                c[ADD_CALLS] += 1
                c[ADD_S] += dt
                c[ADD_USEFUL] += bool(changed)
                if tracer.stack:
                    tracer.stack[-1].child_s += dt
            return changed

        return add_all

    def _or_overlapping(self, fn):
        tracer = self

        def or_overlapping(v, other):
            t0 = perf_counter()
            changed = fn(v, other)
            c = tracer.counters
            c[OR_CALLS] += 1
            c[OR_S] += perf_counter() - t0
            c[OR_USEFUL] += bool(changed)
            return changed

        return or_overlapping

    def _patch(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(name, owner.__dict__[attr]))
        for cls in vars(ptsets).values():
            if (
                isinstance(cls, type)
                and issubclass(cls, ptsets.PointsToSet)
                and "add_all" in cls.__dict__
            ):
                fallback = cls is ptsets.PointsToSet
                self._patch(cls, "add_all", self._add_all(cls.__dict__["add_all"], fallback))
        rbv = bitsets.RangedBitVector
        self._patch(rbv, "or_overlapping", self._or_overlapping(rbv.__dict__["or_overlapping"]))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    # -- results --------------------------------------------------------------

    def spans_of(self, name: str, kind=None, parent=None) -> list[Span]:
        """Spans called name, optionally of one kind's solves and directly
        under a span called parent."""
        return [
            s
            for s in self.spans
            if s.name == name
            and (kind is None or self.solve_kind.get(s.solve_id) == kind)
            and (parent is None or (s.parent is not None and s.parent.name == parent))
        ]

    def counts(self, phase: str, kind: str) -> list:
        return self.phases.get((phase, kind), [0] * 8)

    def dump(self) -> dict:
        """Spans and aggregate hot-call spans as plain JSON data."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        spans = [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": index.get(id(s.parent)),
                "solve_id": s.solve_id,
            }
            for s in self.spans
        ]
        aggregates = []
        for (phase, kind), c in self.phases.items():
            for name, calls, secs, useful in (
                ("ptsets.add_all", c[ADD_CALLS], c[ADD_S], c[ADD_USEFUL]),
                ("ptsets.PointsToSet.add_all", c[FB_CALLS], c[FB_S], None),
                ("bitsets.RangedBitVector.or_overlapping", c[OR_CALLS], c[OR_S], c[OR_USEFUL]),
            ):
                if calls:
                    aggregates.append(
                        {"name": name, "phase": phase, "kind": kind, "calls": calls,
                         "seconds": secs, "useful": useful}
                    )
        return {"spans": spans, "aggregates": aggregates}

"""Andersen-style worklist propagation with pluggable set representation.

The worklist is a FIFO queue of variable nodes seeded by allocation edges;
a node re-enters the queue whenever its set changes.  Concrete field sets
are created lazily, keyed by (allocation index, field), with the field's
declared type as owner.  Every constraint is re-applied whenever one of its
inputs changes, so the drained worklist is the least fixpoint.
``run_extra_pass`` checks that from outside: one full constraint pass over
a finished solution must perform zero successful unions.
"""

from __future__ import annotations

import time
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .bitsets import ChunkConfig
from .errors import ConfigConflictError, UniverseMismatchError
from .hierarchy import NumberingResult
from .pag import PAG
from .ptsets import SET_KINDS, PointsToSet, SetFactory

FILTER_MODES = ("mask", "intrinsic", "none")

HISTOGRAM_BUCKETS = ("0", "1", "2", "3-10", "11-100", "101-1000", "1000+")


@dataclass(frozen=True)
class SolverConfig:
    set_kind: str = "hybrid"
    filter_mode: str = "mask"
    chunk_bits: int = 64

    def validate(self):
        if self.set_kind not in SET_KINDS:
            raise ConfigConflictError(f"unknown set kind {self.set_kind!r}")
        if self.filter_mode not in FILTER_MODES:
            raise ConfigConflictError(f"unknown filter mode {self.filter_mode!r}")
        ranged = SET_KINDS[self.set_kind].ranged
        if self.filter_mode == "intrinsic" and not ranged:
            raise ConfigConflictError(
                "intrinsic filtering requires a ranged set kind"
            )
        if self.filter_mode == "mask" and ranged:
            raise ConfigConflictError(
                "mask filtering requires a non-ranged set kind"
            )


@dataclass
class PropagationStats:
    union_ops: int = 0  # successful (state-changing) unions/insertions
    nodes_processed: int = 0
    wall_time: float = 0.0
    total_footprint_bytes: int = 0


@dataclass
class Solution:
    config: SolverConfig
    nr: NumberingResult
    pag: PAG
    factory: SetFactory
    var_sets: dict[str, PointsToSet]
    field_sets: dict[tuple[int, str], PointsToSet]
    stats: PropagationStats = field(default_factory=PropagationStats)

    def var_members(self, v: str) -> tuple[int, ...]:
        s = self.var_sets.get(v)
        return tuple(s.iterate()) if s is not None else ()

    def field_members(self, key: tuple[int, str]) -> tuple[int, ...]:
        s = self.field_sets.get(key)
        return tuple(s.iterate()) if s is not None else ()


class _Engine:
    def __init__(self, pag: PAG, nr: NumberingResult, cfg: SolverConfig):
        cfg.validate()
        self.pag = pag
        self.nr = nr
        self.cfg = cfg
        self.factory = SetFactory(nr, ChunkConfig(cfg.chunk_bits))
        self.h = nr.hierarchy
        self.var_sets: dict[str, PointsToSet] = {}
        self.field_sets: dict[tuple[int, str], PointsToSet] = {}
        self.stats = PropagationStats()

        self.assign_out = defaultdict(list)  # src -> [dst]
        for dst, src in pag.assign_edges:
            self.assign_out[src].append(dst)
        self.stores_by_src = defaultdict(list)  # src -> [(base, f)]
        self.stores_by_base = defaultdict(list)  # base -> [(f, src)]
        for base, f, src in pag.store_edges:
            self.stores_by_src[src].append((base, f))
            self.stores_by_base[base].append((f, src))
        self.loads_by_base = defaultdict(list)  # base -> [(f, dst)]
        self.loads_by_field = defaultdict(list)  # f -> [(base, dst)]
        for dst, base, f in pag.load_edges:
            self.loads_by_base[base].append((f, dst))
            self.loads_by_field[f].append((base, dst))

    def _owner(self, type_name: str) -> str:
        if self.cfg.filter_mode == "none":
            return self.h.root.name
        return type_name

    def var_set(self, v: str) -> PointsToSet:
        s = self.var_sets.get(v)
        if s is None:
            s = self.factory.make_set(self.cfg.set_kind, self._owner(self.pag.var_types[v]))
            self.var_sets[v] = s
        return s

    def field_set(self, alloc_idx: int, f: str) -> PointsToSet:
        key = (alloc_idx, f)
        s = self.field_sets.get(key)
        if s is None:
            s = self.factory.make_set(self.cfg.set_kind, self._owner(self.pag.field_types[f]))
            self.field_sets[key] = s
        return s

    def solve(self) -> Solution:
        start = time.perf_counter()
        queue: deque[str] = deque()
        queued: set[str] = set()

        def enqueue(v: str):
            if v not in queued:
                queued.add(v)
                queue.append(v)

        # every variable a constraint names owns a set, also one that no
        # object ever reaches: its empty set counts in the modeled bytes
        pag = self.pag
        named = [v for dst, src in pag.assign_edges for v in (dst, src)]
        named += [v for base, _, src in pag.store_edges for v in (base, src)]
        named += [v for dst, base, _ in pag.load_edges for v in (dst, base)]
        for v in named:
            self.var_set(v)

        for oid, v in pag.alloc_edges:
            if self.var_set(v).add(self.nr.index_of[oid]):
                self.stats.union_ops += 1
                enqueue(v)

        while queue:
            v = queue.popleft()
            queued.discard(v)
            self.stats.nodes_processed += 1
            self._process(v, enqueue)

        self.stats.wall_time = time.perf_counter() - start
        all_sets = list(self.var_sets.values()) + list(self.field_sets.values())
        self.stats.total_footprint_bytes = self.factory.total_footprint(all_sets)
        return Solution(
            config=self.cfg,
            nr=self.nr,
            pag=self.pag,
            factory=self.factory,
            var_sets=self.var_sets,
            field_sets=self.field_sets,
            stats=self.stats,
        )

    def _process(self, v: str, enqueue):
        pv = self.var_set(v)
        changed_fields: list[tuple[int, str]] = []

        for dst in self.assign_out.get(v, ()):
            if self.var_set(dst).add_all(pv):
                self.stats.union_ops += 1
                enqueue(dst)

        for base, f in self.stores_by_src.get(v, ()):
            for o in list(self.var_set(base).iterate_objects()):
                if self.field_set(o, f).add_all(pv):
                    self.stats.union_ops += 1
                    changed_fields.append((o, f))

        for f, src in self.stores_by_base.get(v, ()):
            ps = self.var_set(src)
            for o in list(pv.iterate_objects()):
                if self.field_set(o, f).add_all(ps):
                    self.stats.union_ops += 1
                    changed_fields.append((o, f))

        for f, dst in self.loads_by_base.get(v, ()):
            for o in list(pv.iterate_objects()):
                if self.var_set(dst).add_all(self.field_set(o, f)):
                    self.stats.union_ops += 1
                    enqueue(dst)

        for o, f in changed_fields:
            fs = self.field_sets[(o, f)]
            for base, dst in self.loads_by_field.get(f, ()):
                if self.var_set(base).contains_object(o):
                    if self.var_set(dst).add_all(fs):
                        self.stats.union_ops += 1
                        enqueue(dst)

    def run_one_pass(self) -> int:
        """Apply every constraint once; return the number of successful
        unions (zero exactly at a fixpoint)."""
        hits = 0
        for oid, v in self.pag.alloc_edges:
            if self.var_set(v).add(self.nr.index_of[oid]):
                hits += 1
        for dst, src in self.pag.assign_edges:
            if self.var_set(dst).add_all(self.var_set(src)):
                hits += 1
        for base, f, src in self.pag.store_edges:
            ps = self.var_set(src)
            for o in list(self.var_set(base).iterate_objects()):
                if self.field_set(o, f).add_all(ps):
                    hits += 1
        for dst, base, f in self.pag.load_edges:
            pd = self.var_set(dst)
            for o in list(self.var_set(base).iterate_objects()):
                if pd.add_all(self.field_set(o, f)):
                    hits += 1
        self.stats.union_ops += hits
        return hits


def propagate(pag: PAG, nr: NumberingResult, cfg: SolverConfig) -> Solution:
    """Run inclusion-based propagation to the least fixpoint."""
    return _Engine(pag, nr, cfg).solve()


def run_extra_pass(sol: Solution) -> int:
    """One more full constraint pass over a solution; returns the number of
    successful unions (must be zero at a fixpoint)."""
    eng = _Engine(sol.pag, sol.nr, sol.config)
    eng.var_sets = sol.var_sets
    eng.field_sets = sol.field_sets
    eng.factory = sol.factory
    return eng.run_one_pass()


def emit_solution(sol: Solution) -> str:
    """Canonical sorted text form of per-node memberships, for diffing."""
    lines = []
    for v in sorted(sol.pag.var_types):
        members = " ".join(str(i) for i in sol.var_members(v))
        lines.append(f"var {v} : {members}".rstrip())
    for key in sorted(sol.field_sets):
        members = " ".join(str(i) for i in sol.field_members(key))
        if members:
            lines.append(f"field {key[0]} {key[1]} : {members}")
    return "\n".join(lines) + "\n"


def precision_histogram(sol: Solution) -> tuple[list[float], int]:
    """Percentage of dereferenced variables per points-to set size bucket.

    Buckets: 0, 1, 2, 3-10, 11-100, 101-1000, >1000.  Returns (percentages,
    population size); an empty population reports all-zero percentages.
    """
    population = sol.pag.dereferenced_vars()
    counts = [0] * 7
    for v in population:
        n = len(sol.var_sets[v]) if v in sol.var_sets else 0
        if n == 0:
            counts[0] += 1
        elif n == 1:
            counts[1] += 1
        elif n == 2:
            counts[2] += 1
        elif n <= 10:
            counts[3] += 1
        elif n <= 100:
            counts[4] += 1
        elif n <= 1000:
            counts[5] += 1
        else:
            counts[6] += 1
    total = len(population)
    if total == 0:
        return [0.0] * 7, 0
    return [100.0 * c / total for c in counts], total


@dataclass
class DiffEntry:
    node: str
    extra_index: int
    in_slack: bool


@dataclass
class CompareResult:
    status: str  # 'equal' | 'a_superset' | 'incomparable'
    diffs: list[DiffEntry] = field(default_factory=list)
    witnesses: list[DiffEntry] = field(default_factory=list)  # members of b missing in a


def _slack_flag(s: PointsToSet | None, idx: int) -> bool:
    """True iff s is ranged and idx lies in its owner's chunk spans but
    outside its intervals."""
    if s is None or not s.ranged:
        return False
    interval_bits, span_bits = s.factory.ranged_geometry(s.owner.name)
    return bool((span_bits & ~interval_bits) >> idx & 1)


def compare_solutions(a: Solution, b: Solution) -> CompareResult:
    """Per-node membership comparison of two solutions over the same corpus.

    Members are alloc indices, so both solutions must number the same
    allocs in the same order."""
    ids_a = [site.id for site in a.nr.global_array]
    ids_b = [site.id for site in b.nr.global_array]
    if ids_a != ids_b or set(a.pag.var_types) != set(b.pag.var_types):
        raise UniverseMismatchError("solutions computed over different universes")
    diffs: list[DiffEntry] = []
    witnesses: list[DiffEntry] = []

    def check(label: str, sa, ma: frozenset, mb: frozenset):
        for e in sorted(ma - mb):
            diffs.append(DiffEntry(label, e, _slack_flag(sa, e)))
        for e in sorted(mb - ma):
            witnesses.append(DiffEntry(label, e, False))

    for v in sorted(a.pag.var_types):
        check(
            f"var {v}",
            a.var_sets.get(v),
            frozenset(a.var_members(v)),
            frozenset(b.var_members(v)),
        )
    for key in sorted(set(a.field_sets) | set(b.field_sets)):
        check(
            f"field {key[0]} {key[1]}",
            a.field_sets.get(key),
            frozenset(a.field_members(key)),
            frozenset(b.field_members(key)),
        )
    if witnesses:
        return CompareResult("incomparable", diffs, witnesses)
    if diffs:
        return CompareResult("a_superset", diffs)
    return CompareResult("equal")

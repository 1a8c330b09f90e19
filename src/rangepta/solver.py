"""Andersen-style worklist propagation with pluggable set representation.

Before seeding, every variable that any constraint names (alloc edges
included) owns one set, also a variable no object ever reaches: its empty
set counts in the modeled bytes.  The constraint edges are then indexed
over those set objects, not over variable names, and the worklist is a
FIFO queue of sets seeded by the allocation edges; a set re-enters the
queue whenever it changes.  Concrete field sets are created lazily, keyed
by (allocation index, field), with the field's declared type as owner.
Every constraint is re-applied whenever one of its inputs changes, so the
drained worklist is the least fixpoint.

When a pop grows field set (o, f), each load ``dst = base.f`` whose base
holds o unites that set into dst, in load order.  Those loads come from an
index, ``holders[f][o]``, whose bit j is set iff the base of load j of f
holds o under ``iterate_objects``.  Field sets are never load bases, and
every successful union into a variable set calls ``enqueue``, which adds
the base's new objects to the index; so the index is exact at every point
of the drain.  The feedback step visits the set bits in ascending order
and re-reads the bits above j after each successful union, since that
union may have made a later load's base hold o.  It thus unites exactly
the loads that probing every load of f in order would, in the same order,
and the union schedule (counts, shared folds, modeled bytes) is that of
the probe.

A popped base does not re-unite every object it holds for each of its
stores and loads.  Each such edge keeps the base's objects as of its last
run and skips only calls that would have returned False, so the
successful unions, and with them the schedule above, are those of
re-walking every object.  A union that has once carried a source into a
destination changes nothing when repeated until that source grows, and:

- an object the base gained since the edge last ran is always united;
- for a store ``base.f = src``, an object it already saw holds src as of
  src's last growth unless src is still queued: a popped src has itself
  united into o.f for every object o of the base;
- for a load ``dst = base.f``, an object o it already saw has reached dst
  unless o.f grew earlier in the same pop: growth in an earlier pop went
  to every load whose base holds o through the feedback step of that pop.

``PropagationStats.union_attempts`` counts the add/add_all calls made,
seeding included; ``union_ops`` counts those that changed a set; and
``spilled_sets`` the var and field sets that end past a hybrid's inline
slots.

``run_extra_pass`` checks the fixpoint from outside: one full pass over
the PAG's edge lists, by variable name and not through the solver's
indices, must perform zero successful unions.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .bitsets import ChunkConfig, _iter_bits
from .errors import ConfigConflictError, UniverseMismatchError
from .hierarchy import NumberingResult
from .pag import PAG
from .ptsets import SET_KINDS, PointsToSet, SetFactory

FILTER_MODES = ("mask", "intrinsic", "none")

HISTOGRAM_BUCKETS = ("0", "1", "2", "3-10", "11-100", "101-1000", "1000+")
# the largest set size of each bucket but the last
HISTOGRAM_BOUNDS = (0, 1, 2, 10, 100, 1000)


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
    union_attempts: int = 0  # add/add_all calls, seeding included
    spilled_sets: int = 0  # var and field sets past a hybrid's inline slots
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


def _set_at(
    sets: dict, key, factory: SetFactory, cfg: SolverConfig, type_name: str
) -> PointsToSet:
    """sets[key], first made as an empty set of the declared type; under
    filter mode 'none' every set takes the root type instead."""
    s = sets.get(key)
    if s is None:
        owner = factory.h.root.name if cfg.filter_mode == "none" else type_name
        s = sets[key] = factory.make_set(cfg.set_kind, owner)
    return s


def propagate(pag: PAG, nr: NumberingResult, cfg: SolverConfig) -> Solution:
    """Run inclusion-based propagation to the least fixpoint."""
    cfg.validate()
    start = time.perf_counter()
    factory = SetFactory(nr, ChunkConfig(cfg.chunk_bits))
    var_sets: dict[str, PointsToSet] = {}
    field_sets: dict[tuple[int, str], PointsToSet] = {}

    # sets for every constraint-named variable before seeding (module doc)
    named = [v for dst, src in pag.assign_edges for v in (dst, src)]
    named += [v for base, _, src in pag.store_edges for v in (base, src)]
    named += [v for dst, base, _ in pag.load_edges for v in (dst, base)]
    named += [v for _, v in pag.alloc_edges]
    for v in named:
        _set_at(var_sets, v, factory, cfg, pag.var_types[v])

    def field_set(o: int, f: str) -> PointsToSet:
        s = field_sets.get((o, f))
        if s is None:
            s = _set_at(field_sets, (o, f), factory, cfg, pag.field_types[f])
        return s

    assign_out = defaultdict(list)  # src -> [dst]
    for dst, src in pag.assign_edges:
        assign_out[var_sets[src]].append(var_sets[dst])
    stores_by_src = defaultdict(list)  # src -> [(base, f)]
    stores_by_base = defaultdict(list)  # base -> [(f, src, store number)]
    for k, (base, f, src) in enumerate(pag.store_edges):
        stores_by_src[var_sets[src]].append((var_sets[base], f))
        stores_by_base[var_sets[base]].append((f, var_sets[src], k))
    loads_by_base = defaultdict(list)  # base -> [(f, dst, load number)]
    loads_by_field = defaultdict(list)  # f -> [dst], by load position
    # holders[f][o]: bit j set iff load position j of f has a base holding o
    holders: dict[str, dict[int, int]] = {}
    load_slots = defaultdict(list)  # base -> [(holders[f], 1 << j)]
    for k, (dst, base, f) in enumerate(pag.load_edges):
        pb, pd = var_sets[base], var_sets[dst]
        loads_by_base[pb].append((f, pd, k))
        by_obj = holders.setdefault(f, {})
        load_slots[pb].append((by_obj, 1 << len(loads_by_field[f])))
        loads_by_field[f].append(pd)
    indexed = dict.fromkeys(load_slots, 0)  # base -> objects already in holders
    # each store's and load's base objects when the edge last ran
    store_seen = [0] * len(pag.store_edges)
    load_seen = [0] * len(pag.load_edges)

    queue: deque[PointsToSet] = deque()
    queued: set[PointsToSet] = set()
    unions = pops = 0
    attempts = len(pag.alloc_edges)

    def enqueue(s: PointsToSet):
        """Called after every successful union into a var set: index the
        objects s newly holds, then queue s."""
        slots = load_slots.get(s)
        if slots is not None:
            new = s.objects_int() & ~indexed[s]
            if new:
                indexed[s] |= new
                for o in _iter_bits(new, 0):
                    for by_obj, bit in slots:
                        by_obj[o] = by_obj.get(o, 0) | bit
        if s not in queued:
            queued.add(s)
            queue.append(s)

    for oid, v in pag.alloc_edges:
        pv = var_sets[v]
        if pv.add(nr.index_of[oid]):
            unions += 1
            enqueue(pv)

    while queue:
        pv = queue.popleft()
        queued.discard(pv)
        pops += 1
        changed_fields = []  # (o, f, set of o.f) for each field set that grew

        dsts = assign_out.get(pv, ())
        attempts += len(dsts)
        for pd in dsts:
            if pd.add_all(pv):
                unions += 1
                enqueue(pd)

        for pb, f in stores_by_src.get(pv, ()):
            objects = list(pb.iterate_objects())
            attempts += len(objects)
            for o in objects:
                fs = field_set(o, f)
                if fs.add_all(pv):
                    unions += 1
                    changed_fields.append((o, f, fs))

        # an object the store already saw holds src, unless src has grown
        # and not yet popped (module doc)
        stores = stores_by_base.get(pv, ())
        if stores:  # only field sets grow in this loop
            held = indexed[pv] if pv in indexed else pv.objects_int()
        for f, ps, k in stores:
            todo = held if ps in queued else held & ~store_seen[k]
            store_seen[k] = held
            attempts += todo.bit_count()
            for o in _iter_bits(todo, 0):
                fs = field_set(o, f)
                if fs.add_all(ps):
                    unions += 1
                    changed_fields.append((o, f, fs))

        loads = loads_by_base.get(pv)
        if loads:
            grown = defaultdict(int)  # f -> objects o whose o.f grew this pop
            for o, f, _ in changed_fields:
                grown[f] |= 1 << o
            # an object the load already saw has reached dst through the
            # field feedback, unless its field grew earlier in this pop
            for f, pd, k in loads:
                held = indexed[pv]
                todo = held & (~load_seen[k] | grown[f])
                load_seen[k] = held
                attempts += todo.bit_count()
                for o in _iter_bits(todo, 0):
                    if pd.add_all(field_set(o, f)):
                        unions += 1
                        enqueue(pd)

        for o, f, fs in changed_fields:
            by_obj = holders.get(f, {})
            pending = by_obj.get(o, 0)
            while pending:
                attempts += 1
                low = pending & -pending
                pd = loads_by_field[f][low.bit_length() - 1]
                if pd.add_all(fs):
                    unions += 1
                    enqueue(pd)
                    # the union may have made a later load's base hold o
                    pending = by_obj[o] & ~(2 * low - 1)
                else:
                    pending ^= low

    wall_time = time.perf_counter() - start
    all_sets = list(var_sets.values()) + list(field_sets.values())
    stats = PropagationStats(
        union_ops=unions,
        nodes_processed=pops,
        union_attempts=attempts,
        spilled_sets=sum(s.spilled for s in all_sets),
        wall_time=wall_time,
        total_footprint_bytes=factory.total_footprint(all_sets),
    )
    return Solution(cfg, nr, pag, factory, var_sets, field_sets, stats)


def run_extra_pass(sol: Solution) -> int:
    """One more full pass over the PAG's edge lists, by variable name;
    returns the number of successful unions (zero exactly at a fixpoint).
    A missing variable or field set is made in sol, so a solve that skipped
    one shows in sol's set keys."""
    pag, factory, cfg = sol.pag, sol.factory, sol.config

    def var_of(v):
        return _set_at(sol.var_sets, v, factory, cfg, pag.var_types[v])

    def field_of(o, f):
        return _set_at(sol.field_sets, (o, f), factory, cfg, pag.field_types[f])

    hits = 0
    for oid, v in pag.alloc_edges:
        hits += var_of(v).add(sol.nr.index_of[oid])
    for dst, src in pag.assign_edges:
        hits += var_of(dst).add_all(var_of(src))
    for base, f, src in pag.store_edges:
        ps = var_of(src)
        for o in list(var_of(base).iterate_objects()):
            hits += field_of(o, f).add_all(ps)
    for dst, base, f in pag.load_edges:
        pd = var_of(dst)
        for o in list(var_of(base).iterate_objects()):
            hits += pd.add_all(field_of(o, f))
    return hits


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
    counts = [0] * len(HISTOGRAM_BUCKETS)
    for v in population:
        n = len(sol.var_sets[v]) if v in sol.var_sets else 0
        counts[bisect_left(HISTOGRAM_BOUNDS, n)] += 1
    total = len(population)
    if total == 0:
        return [0.0] * len(HISTOGRAM_BUCKETS), 0
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
    g = s.factory.ranged_geometry(s.owner.name)
    return bool((g.span_bits & ~g.interval_bits) >> idx & 1)


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

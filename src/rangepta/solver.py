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

A solve runs one kernel: ``propagate`` builds one ``SetFactory`` for the
config's kind, and every set is made by calling that factory's maker for
its owner type (``SetFactory.maker``), resolved once per declared type on
its first set; under filter mode ``none`` that owner is the root for every
type.  ``run_extra_pass`` makes its missing sets the same way, from the
solution's factory.  So every union's source is a set of the
destination's own kernel, and each kernel's union has one path.

When a pop grows field set (o, f), each load ``dst = base.f`` whose base
holds o unites that set into dst, in load order.  Those loads come from
f's index ``holders``, which each of f's loads carries in its
``loads_by_base`` entry with its bit: bit j of ``holders[o]`` is set iff
the base of f's j-th load holds o under ``iterate_objects``.  Field sets
are never load bases.  Every base of a store or a load is indexed: its
objects are kept both as an int and as an ascending tuple, built from the
walk of the new objects that fills ``holders``.  A store or load that
walks every object of its base iterates the tuple, and a partial walk
peels the int.  A growth replaces the tuple, so a walk in progress keeps
the objects it started with; ``x = x.f`` grows its own base during its
walk.  Seeding reads no index: it runs every allocation edge's ``add``,
then calls ``enqueue``, the only code that queues a set, once per set that
grew, in the order each first grew, so each seeded set is indexed once.
During the drain every successful union into a variable set calls
``enqueue``, so the index is exact at every point of the drain.  The
feedback step visits the set bits in ascending order and re-reads the bits
above j after each successful union, since that union may have made a
later load's base hold o.  Field sets are found through a per-field index,
``by_field[f][o]``; ``Solution.field_sets`` keeps the (o, f) keys in
creation order.

The solver makes no union call whose result is known to be False, but one
kind: the feedback walk (rule 2) re-probes the popped base's own loads of
f for each o whose o.f grew in this pop, just after the load loop (rule 5)
united that set into the same dst.  Unless the base grew during its own
load loop (``x = x.f``), these fail: at shuffle seed 0, 2,821 / 4,361 / 20
of the 32,830 / 174,907 / 13,418 calls ``pure`` makes on ``deep`` /
``suite`` / ``wide`` (``ranged``: 2,821 / 4,465 / 25).  Apart from it, a
union that has once carried a source into a destination changes nothing
when repeated until that source grows, and members only grow, so a source
with the member count it had then holds the same members.  Every call
skipped below is thus one that re-walking every object of a popped base
and probing every load of f would make
(``tests/oracles.rewalk_propagate``) and that would return False; the
successful unions, their order, the pops and shared's folds, and with them
the modeled bytes, are the re-walk's.  Only ``union_attempts`` differs.

1. Each distinct assign, store and load edge is indexed once, in
   first-occurrence order: a repeat would run right after its first copy
   with the same inputs.  The exception is a base that some load of its
   own writes to (``x = x.f``): such a load grows the base in the middle
   of the base's load loop, so a later copy of any of its loads can see
   new objects, and its loads keep their repeats.
2. A feedback walk tries each destination once: the field set it unites
   does not change during the walk.
3. The load loop creates a field set it has not seen, so the set keys and
   modeled bytes stay those of the re-walk, but does not unite it: a new
   field set is empty.
4. Each store ``base.f = src`` keeps a mark, (src's member count, the
   base's objects), set whenever the edge has covered every object of its
   base: after a popped src has run it, and after a popped base has.  A
   run from either side skips the marked objects while src still has the
   marked count, since each of them already holds src.
5. A load ``dst = base.f`` run from its popped base unites the objects
   the base gained since the load last ran, and the objects o it already
   saw only if o.f grew earlier in the same pop: growth in an earlier pop
   went to every load whose base holds o through that pop's feedback.
6. A store whose src is empty (member count 0) makes no union call: it
   creates the field sets it has not seen, as rule 3's load does, and
   keeps its mark.

``PropagationStats.union_attempts`` counts the add/add_all calls actually
made, seeding included, and ``union_ops`` those that changed a set.
Beyond the counters and the time, ``propagate`` only charges the sets
once, into ``total_footprint_bytes``, the total the benchmark checks.
``measure`` reads the counters and the time from the stats and charges
the kind itself: every number that depends on the kind, from the kind's
``SET_KINDS`` row and the solve's own sets.  Kinds on one kernel make
the same unions, so a solve relabelled as a sibling kind is measured as
that kind.

``propagate`` pauses Python's cyclic garbage collector from its entry to
the end of its drain, if the caller has it on, and restores the caller's
setting in a ``finally``, so a solve that raises never leaves it off.  The
pause is process-wide: nothing else that runs meanwhile, a signal handler
or another thread, gets a cyclic collection either.  It is safe because a
solve makes no reference cycles.  Its tens of thousands of containers
(sets, (o, f) keys, index tuples) are freed by reference counting alone,
during the drain and after the last reference to the solution
(``test_finished_solve_is_freed_by_reference_counting``).  Left on, the
collector would start dozens of passes over them per solve on larger
corpora, full ones among them that walk the whole process heap, wherever
earlier allocations had left its counters.  The first allocation after the
drain runs the one pass then due, normally of the youngest generation,
over the solve's sets; ``wall_time`` is read after it, so the solve pays
for it and the caller does not.

``run_extra_pass`` checks the fixpoint from outside: one full pass over
the PAG's edge lists, by variable name and not through the solver's
indices, must perform zero successful unions.
"""

from __future__ import annotations

import gc
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
    """A solve's set kind, type filter and chunk width, checked when made,
    so no invalid config exists.  The filter defaults to the kind's own:
    ``intrinsic`` for a ranged kernel, ``mask`` otherwise."""

    set_kind: str = "hybrid"
    filter_mode: str | None = None
    chunk_bits: int = 64

    def __post_init__(self):
        if self.set_kind not in SET_KINDS:
            raise ConfigConflictError(f"unknown set kind {self.set_kind!r}")
        ranged = SET_KINDS[self.set_kind].kernel.ranged
        if self.filter_mode is None:
            object.__setattr__(self, "filter_mode", "intrinsic" if ranged else "mask")
        if self.filter_mode not in FILTER_MODES:
            raise ConfigConflictError(f"unknown filter mode {self.filter_mode!r}")
        if self.filter_mode == "intrinsic" and not ranged:
            raise ConfigConflictError(
                "intrinsic filtering requires a ranged set kind"
            )
        if self.filter_mode == "mask" and ranged:
            raise ConfigConflictError(
                "mask filtering requires a non-ranged set kind"
            )
        ChunkConfig(self.chunk_bits)  # rejects an unsupported chunk width


@dataclass
class PropagationStats:
    union_ops: int = 0  # successful (state-changing) unions/insertions
    nodes_processed: int = 0
    union_attempts: int = 0  # add/add_all calls, seeding included
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


class _Makers(dict):
    """Declared type name -> the factory's maker of its sets, resolved on
    first use; under filter mode 'none' every set takes the root type
    instead."""

    def __init__(self, factory: SetFactory, cfg: SolverConfig):
        super().__init__()
        self.factory = factory
        self.root = factory.h.root.name if cfg.filter_mode == "none" else None

    def __missing__(self, type_name: str):
        make = self[type_name] = self.factory.maker(self.root or type_name)
        return make


def _distinct_edges(pag: PAG) -> tuple[list, list, list]:
    """The assign, store and load edges, each distinct edge once in
    first-occurrence order, except that every copy of a load is kept whose
    base some load writes to (module doc, rule 1)."""
    self_loaded = {base for dst, base, _ in pag.load_edges if dst == base}
    loads, seen = [], set()
    for e in pag.load_edges:
        if e not in seen or e[1] in self_loaded:
            seen.add(e)
            loads.append(e)
    assigns = list(dict.fromkeys(pag.assign_edges))
    stores = list(dict.fromkeys(pag.store_edges))
    return assigns, stores, loads


def propagate(pag: PAG, nr: NumberingResult, cfg: SolverConfig) -> Solution:
    """Run inclusion-based propagation to the least fixpoint, with the
    cyclic collector paused until the drain ends (module doc)."""
    start = time.perf_counter()
    collecting = gc.isenabled()
    gc.disable()
    try:
        factory = SetFactory(nr, ChunkConfig(cfg.chunk_bits), cfg.set_kind)
        makers = _Makers(factory, cfg)
        field_types = pag.field_types
        var_sets: dict[str, PointsToSet] = {}
        field_sets: dict[tuple[int, str], PointsToSet] = {}

        assign_edges, store_edges, load_edges = _distinct_edges(pag)

        # sets for every constraint-named variable before seeding (module doc)
        named = [v for dst, src in assign_edges for v in (dst, src)]
        named += [v for base, _, src in store_edges for v in (base, src)]
        named += [v for dst, base, _ in load_edges for v in (dst, base)]
        named += [v for _, v in pag.alloc_edges]
        for v in dict.fromkeys(named):
            var_sets[v] = makers[pag.var_types[v]]()

        # f -> {o: field set (o, f)}; a new set goes into it and field_sets
        by_field = defaultdict(dict)

        assign_out = defaultdict(list)  # src -> [dst]
        for dst, src in assign_edges:
            assign_out[var_sets[src]].append(var_sets[dst])
        # v -> [(base, src, f's sets, f, f's type, store number)]: the stores
        # whose source is v, then those whose base is v
        stores = [
            (var_sets[base], var_sets[src], by_field[f], f, field_types[f], k)
            for k, (base, f, src) in enumerate(store_edges)
        ]
        stores_of = defaultdict(list)
        for store in stores:
            stores_of[store[1]].append(store)
        for store in stores:
            stores_of[store[0]].append(store)
        # f -> (holders, [dst], [bits of every position of f's loads into that
        # dst]), both lists by f's load position j (module doc)
        feedback = {}
        # base -> [(f's sets, f, f's type, dst, load number, f's holders, 1 << j)]
        loads_by_base = defaultdict(list)
        for k, (dst, base, f) in enumerate(load_edges):
            pd = var_sets[dst]
            by_obj, dsts, _ = feedback.setdefault(f, ({}, [], []))
            loads_by_base[var_sets[base]].append(
                (by_field[f], f, field_types[f], pd, k, by_obj, 1 << len(dsts))
            )
            dsts.append(pd)
        # kept: a per-walk set of tried dsts made deep's solves 3-6 % slower
        for _, dsts, into in feedback.values():
            bits = defaultdict(int)
            for j, pd in enumerate(dsts):
                bits[pd] |= 1 << j
            into += [bits[pd] for pd in dsts]
        # every store or load base -> its objects indexed so far, as an int and
        # as an ascending tuple (module doc)
        indexed = dict.fromkeys([store[0] for store in stores] + list(loads_by_base), 0)
        objects = dict.fromkeys(indexed, ())
        # per store, src's member count and the base's objects when the edge
        # last covered its base; per load, its base's objects when it last ran
        mark_size = [0] * len(store_edges)
        mark_objs = [0] * len(store_edges)
        load_seen = [0] * len(load_edges)

        queue: deque[PointsToSet] = deque()
        queued: set[PointsToSet] = set()
        unions = pops = 0
        attempts = len(pag.alloc_edges)

        def enqueue(s: PointsToSet):
            """Index the objects s holds that the index lacks, if s is a store
            or load base, then queue s unless it is queued.  Called once per
            set that seeding grew, then after every successful union into a
            var set."""
            held = indexed.get(s)
            if held is not None:
                new = s.objects_int() & ~held
                if new:
                    indexed[s] = held | new
                    fresh = tuple(_iter_bits(new, 0))
                    old = objects[s]
                    # two ascending runs: sorting merges them in linear time
                    if old and old[-1] > fresh[0]:
                        objects[s] = tuple(sorted(old + fresh))
                    else:
                        objects[s] = old + fresh
                    for fsets, f, ft, pd, k, by_obj, bit in loads_by_base.get(s, ()):
                        for o in fresh:
                            by_obj[o] = by_obj.get(o, 0) | bit
            if s not in queued:
                queued.add(s)
                queue.append(s)

        # seeding reads no index: every allocation's add first, then each set
        # that grew is indexed and queued once, in the order it first grew
        grew = [pv for oid, v in pag.alloc_edges if (pv := var_sets[v]).add(nr.index_of[oid])]
        unions += len(grew)
        for pv in dict.fromkeys(grew):
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

            # a store skips the objects of its mark while src keeps the mark's
            # member count (module doc, rule 4); only field sets grow here
            for pb, ps, fsets, f, ft, k in stores_of.get(pv, ()):
                held = indexed[pb]
                size = len(ps)
                todo = held & ~mark_objs[k] if mark_size[k] == size else held
                mark_size[k] = size
                mark_objs[k] = held
                if size:  # an empty src only creates sets (rule 6)
                    attempts += todo.bit_count()
                for o in objects[pb] if todo == held else _iter_bits(todo, 0):
                    fs = fsets.get(o)
                    if fs is None:
                        fs = fsets[o] = field_sets[o, f] = makers[ft]()
                    if size and fs.add_all(ps):
                        unions += 1
                        changed_fields.append((o, f, fs))

            loads = loads_by_base.get(pv)
            if loads:
                # f -> objects o whose o.f grew this pop
                grown = {}
                for o, f, _ in changed_fields:
                    grown[f] = grown.get(f, 0) | 1 << o
                # an object the load already saw has reached dst through the
                # field feedback, unless its field grew earlier in this pop (rule 5)
                for fsets, f, ft, pd, k, _, _ in loads:
                    held = indexed[pv]
                    todo = held & (~load_seen[k] | grown.get(f, 0))
                    load_seen[k] = held
                    for o in objects[pv] if todo == held else _iter_bits(todo, 0):
                        fs = fsets.get(o)
                        if fs is None:  # new, so empty (rule 3)
                            fsets[o] = field_sets[o, f] = makers[ft]()
                            continue
                        attempts += 1
                        if pd.add_all(fs):
                            unions += 1
                            enqueue(pd)

            # fs stays fixed during its walk, so each dst is tried once (rule 2)
            for o, f, fs in changed_fields:
                if f not in feedback:
                    continue
                by_obj, targets, into = feedback[f]
                pending = by_obj.get(o, 0)
                done = 0  # positions below the walk and those of dsts tried
                while pending:
                    attempts += 1
                    low = pending & -pending
                    j = low.bit_length() - 1
                    done |= into[j] | (low - 1)
                    if targets[j].add_all(fs):
                        unions += 1
                        enqueue(targets[j])
                        # the union may have made a later load's base hold o
                        pending = by_obj[o] & ~done
                    else:
                        pending &= ~done
    finally:
        if collecting:
            gc.enable()
    # the first allocation after the drain runs the collection then due
    all_sets = list(var_sets.values()) + list(field_sets.values())
    wall_time = time.perf_counter() - start
    stats = PropagationStats(
        union_ops=unions,
        nodes_processed=pops,
        union_attempts=attempts,
        wall_time=wall_time,
        total_footprint_bytes=factory.total_footprint(all_sets, cfg.set_kind),
    )
    return Solution(cfg, nr, pag, factory, var_sets, field_sets, stats)


def measure(sol: Solution) -> dict:
    """Every number of a finished solve, keyed by report column in report
    order, with its sets charged as ``sol.config.set_kind``.  The counters
    and ``wall_time_s`` (raw seconds, the only timed entry) come from the
    stats; the spilled sets and the bytes from the kind's row, the shared
    bases as what the total charges beyond the var and field sets.  A
    solve is charged as a sibling kind on its kernel by relabelling it,
    ``measure(replace(sol, config=replace(sol.config, set_kind=k)))``; a
    kind on another kernel raises ``ConfigMismatchError``."""
    kind = sol.config.set_kind
    row = SET_KINDS[kind]
    var_sets = list(sol.var_sets.values())
    field_sets = list(sol.field_sets.values())
    all_sets = var_sets + field_sets
    total = sol.factory.total_footprint(all_sets, kind)  # checks the kernel
    var_bytes = sum(map(row.footprint_bytes, var_sets))
    field_bytes = sum(map(row.footprint_bytes, field_sets))
    stats = sol.stats
    return {
        "total_allocs": sol.nr.total_allocs,
        "num_vars": len(sol.pag.var_types),
        "union_ops": stats.union_ops,
        "union_attempts": stats.union_attempts,
        "nodes_processed": stats.nodes_processed,
        "spilled_sets": 0 if row.spilled is None else sum(map(row.spilled, all_sets)),
        "wall_time_s": stats.wall_time,
        "var_set_bytes": var_bytes,
        "field_set_bytes": field_bytes,
        "shared_base_bytes": total - var_bytes - field_bytes,
        "total_bytes": total,
    }


def run_extra_pass(sol: Solution) -> int:
    """One more full pass over the PAG's edge lists, by variable name;
    returns the number of successful unions (zero exactly at a fixpoint).
    A missing variable or field set is made in sol, so a solve that skipped
    one shows in sol's set keys."""
    pag = sol.pag
    makers = _Makers(sol.factory, sol.config)

    def set_at(sets, key, type_name):
        s = sets.get(key)
        if s is None:
            s = sets[key] = makers[type_name]()
        return s

    def var_of(v):
        return set_at(sol.var_sets, v, pag.var_types[v])

    def field_of(o, f):
        return set_at(sol.field_sets, (o, f), pag.field_types[f])

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
    return [100.0 * c / max(total, 1) for c in counts], total


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


def compare_solutions(a: Solution, b: Solution) -> CompareResult:
    """Per-node membership comparison of two solutions over the same corpus.

    Members are alloc indices, so both solutions must number the same
    allocs in the same order.  Each node's diffs and witnesses come in
    ascending order from the member ints; a diff is in slack iff a's set
    holds it outside its objects (``as_int() & ~objects_int()``), which no
    exactly filtered set does."""
    if a.nr.index_of != b.nr.index_of or set(a.pag.var_types) != set(b.pag.var_types):
        raise UniverseMismatchError("solutions computed over different universes")
    diffs: list[DiffEntry] = []
    witnesses: list[DiffEntry] = []

    def check(label: str, sa: PointsToSet | None, sb: PointsToSet | None):
        ma = 0 if sa is None else sa.as_int()
        mb = 0 if sb is None else sb.as_int()
        extra = ma & ~mb
        if extra:  # so sa is a set
            slack = ma & ~sa.objects_int()
            diffs.extend(DiffEntry(label, e, bool(slack >> e & 1)) for e in _iter_bits(extra, 0))
        witnesses.extend(DiffEntry(label, e, False) for e in _iter_bits(mb & ~ma, 0))

    for v in sorted(a.pag.var_types):
        check(f"var {v}", a.var_sets.get(v), b.var_sets.get(v))
    for key in sorted(set(a.field_sets) | set(b.field_sets)):
        check(f"field {key[0]} {key[1]}", a.field_sets.get(key), b.field_sets.get(key))
    status = "incomparable" if witnesses else "a_superset" if diffs else "equal"
    return CompareResult(status, diffs, witnesses)

"""Independent reference implementations used only to check the package.

These deliberately avoid the production code paths: subtyping is a
transitive closure over the raw declarations, propagation is a brute-force
round-based fixpoint over plain Python sets, the ranged-union oracle
manipulates index sets bit by bit, the bit-walk oracle peels one bit at a
time, and the type-mask oracle tests every class against the type one by
one.  The one reference that runs on production sets, ``rewalk_propagate``,
does so because what it pins is the order in which those sets are united;
its worklist scans the edge lists and re-unites every object of a popped
base.
"""

from __future__ import annotations

from collections import deque

from rangepta.bitsets import ChunkConfig
from rangepta.ptsets import SetFactory


def closure_supertypes(class_decls, iface_decls):
    """class name -> set of all compatible type names, from raw decls."""
    parent = {n: p for n, p, _ in class_decls}
    direct_impl = {n: set(i) for n, _, i in class_decls}
    ext = {n: set(e) for n, e in iface_decls}

    def iface_closure(i):
        seen, work = {i}, [i]
        while work:
            for s in ext[work.pop()]:
                if s not in seen:
                    seen.add(s)
                    work.append(s)
        return seen

    out = {}
    for name, _, _ in class_decls:
        sup = set()
        cur = name
        while cur is not None:
            sup.add(cur)
            for i in direct_impl[cur]:
                sup |= iface_closure(i)
            cur = parent[cur]
        out[name] = sup
    return out


def compatible_indices(nr, supertypes, tname):
    """Indices of allocs compatible with tname, by brute force."""
    return {
        i
        for i in range(1, nr.total_allocs + 1)
        if tname in supertypes[nr.type_of_index(i)]
    }


def walk_type_mask(nr, h, tname):
    """tname's mask by one subtype test per class and one scan of all allocs:
    the subtype relation, independent of the intervals the production masks
    are read from."""
    compat = {c for c in h.parent if h.is_subtype(c, tname)}
    bits = 0
    for i, site in enumerate(nr.global_array, start=1):
        if site.type_name in compat:
            bits |= 1 << i
    return bits


def peel_bits(value, base):
    """base + i for each set bit i of value, ascending: the lowest bit is
    peeled off one at a time."""
    out = []
    while value:
        low = value & -value
        out.append(base + low.bit_length() - 1)
        value ^= low
    return out


def runs_of(indices):
    """Maximal runs of consecutive integers, as (lo, hi) pairs."""
    out = []
    for i in sorted(indices):
        if out and i == out[-1][1] + 1:
            out[-1] = (out[-1][0], i)
        else:
            out.append((i, i))
    return out


def aligned_span(interval, cb):
    """(first, last) absolute index covered by the interval's chunks."""
    lo = (interval[0] // cb) * cb
    hi_chunk = interval[1] // cb
    return lo, hi_chunk * cb + cb - 1


def ranged_union_oracle(interval, held, incoming, cb):
    """Expected contents of one ranged vector after a chunk-wise union.

    interval: the vector's (lo, hi); held: the absolute indices it holds;
    incoming: the source's members inside the source's own intervals (bits
    a source holds as slack are never re-exported).  The vector keeps what
    it held and gains every incoming index inside its aligned chunk span,
    slack positions included; an empty vector gains nothing.
    """
    if interval[1] < interval[0]:
        return set(held)
    lo, hi = aligned_span(interval, cb)
    return set(held) | {b for b in incoming if lo <= b <= hi}


def brute_force_propagate(pag, index_of, type_of_index, supertypes, filtered=True):
    """Round-based fixpoint with exact type filtering over plain sets.

    Returns (var -> frozenset of indices, (alloc index, field) -> frozenset).
    """
    var_type = pag.var_types
    field_type = pag.field_types

    def keep(tname, idx):
        return not filtered or tname in supertypes[type_of_index(idx)]

    pt = {v: set() for v in var_type}
    fpt = {}

    def flow(members, dst_set, dst_type):
        added = False
        for i in members:
            if i not in dst_set and keep(dst_type, i):
                dst_set.add(i)
                added = True
        return added

    changed = True
    while changed:
        changed = False
        for oid, v in pag.alloc_edges:
            if flow({index_of[oid]}, pt[v], var_type[v]):
                changed = True
        for dst, src in pag.assign_edges:
            if flow(pt[src], pt[dst], var_type[dst]):
                changed = True
        for base, f, src in pag.store_edges:
            for o in sorted(pt[base]):
                s = fpt.setdefault((o, f), set())
                if flow(pt[src], s, field_type[f]):
                    changed = True
        for dst, base, f in pag.load_edges:
            for o in sorted(pt[base]):
                s = fpt.get((o, f))
                if s and flow(s, pt[dst], var_type[dst]):
                    changed = True
    return (
        {v: frozenset(s) for v, s in pt.items()},
        {k: frozenset(s) for k, s in fpt.items()},
    )


def rewalk_propagate(pag, nr, cfg):
    """The worklist solve over production sets with no skipped unions.

    A popped variable v is united into each assign target; each store
    whose source is v, and then each store and load whose base is v,
    unites across every object its base holds; then, for each field set
    (o, f) that grew, every load of f whose base holds o is probed in load
    order.  Returns (var sets, field sets, successful unions, pops).
    """
    factory = SetFactory(nr, ChunkConfig(cfg.chunk_bits), cfg.set_kind)

    def make(type_name):
        owner = factory.h.root.name if cfg.filter_mode == "none" else type_name
        return factory.maker(owner)()

    var_sets = {}
    for v in pag.var_types:
        var_sets[v] = make(pag.var_types[v])
    field_sets = {}

    def field_set(o, f):
        if (o, f) not in field_sets:
            field_sets[o, f] = make(pag.field_types[f])
        return field_sets[o, f]

    queue, queued = deque(), set()
    unions = pops = 0

    def push(v):
        """Count a successful union into v's set, then queue v."""
        nonlocal unions
        unions += 1
        if v not in queued:
            queued.add(v)
            queue.append(v)

    for oid, v in pag.alloc_edges:
        if var_sets[v].add(nr.index_of[oid]):
            push(v)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        pops += 1
        pv = var_sets[v]
        grown = []
        for dst, src in pag.assign_edges:
            if src == v and var_sets[dst].add_all(pv):
                push(dst)
        for base, f, src in pag.store_edges:
            if src == v:
                for o in list(var_sets[base].iterate_objects()):
                    if field_set(o, f).add_all(pv):
                        unions += 1
                        grown.append((o, f))
        for base, f, src in pag.store_edges:
            if base == v:
                for o in list(pv.iterate_objects()):
                    if field_set(o, f).add_all(var_sets[src]):
                        unions += 1
                        grown.append((o, f))
        for dst, base, f in pag.load_edges:
            if base == v:
                for o in list(pv.iterate_objects()):
                    if var_sets[dst].add_all(field_set(o, f)):
                        push(dst)
        for o, f in grown:
            for dst, base, g in pag.load_edges:
                if g == f and o in var_sets[base].iterate_objects():
                    if var_sets[dst].add_all(field_sets[o, f]):
                        push(dst)
    return var_sets, field_sets, unions, pops


def zero_window_savings(arrays, cb):
    """Bytes saved by an 8-word sparse decomposition, counted bit by bit.

    arrays: iterable of (num_chunks, set of bit offsets relative to the
    array start).
    """
    saved = 0
    window_bits = 8 * cb
    for num_chunks, offsets in arrays:
        windows = -(-num_chunks // 8)
        for w in range(windows):
            lo, hi = w * window_bits, (w + 1) * window_bits - 1
            if not any(lo <= b <= hi for b in offsets):
                saved += 8 * (cb // 8)
    return saved

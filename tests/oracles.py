"""Independent reference implementations used only to check the package.

These deliberately avoid the production code paths: subtyping is a
transitive closure over the raw declarations, propagation is a brute-force
round-based fixpoint over plain Python sets, and the ranged-union oracle
manipulates index sets bit by bit.
"""

from __future__ import annotations


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

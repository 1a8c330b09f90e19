"""Correctness gate: every solve is checked against an independent reference.

The reference is the test suite's brute-force fixpoint over plain Python
sets (``tests/oracles.py``, used read-only), run with the alloc sites in
declaration order and keyed by alloc id, so neither the interval numbering
nor any set kind under test takes part in it.

- Exactly filtered kinds must match the reference member for member.
- Ranged kinds must contain the reference; every extra member must be chunk
  slack: an alloc not compatible with the set's owner type whose index lies
  in the chunk-aligned span of a run of compatible indices.
"""

from __future__ import annotations

from oracles import aligned_span, brute_force_propagate, closure_supertypes, runs_of

# var name -> alloc ids, and (alloc id, field) -> alloc ids
Members = tuple[dict[str, frozenset], dict[tuple[str, str], frozenset]]


class Reference:
    """Brute-force solution of one corpus plus the facts the slack test needs."""

    def __init__(self, pag, nr, chunk_bits: int):
        self.pag = pag
        self.nr = nr
        self.chunk_bits = chunk_bits
        self.supertypes = closure_supertypes(pag.class_decls, pag.iface_decls)
        ids = list(pag.allocs)
        pos = {oid: i for i, oid in enumerate(ids, start=1)}
        alloc_type = {oid: a.type_name for oid, a in pag.allocs.items()}
        var_pt, field_pt = brute_force_propagate(
            pag, pos, lambda i: alloc_type[ids[i - 1]], self.supertypes
        )
        self.vars = {v: frozenset(ids[i - 1] for i in s) for v, s in var_pt.items() if s}
        self.fields = {
            (ids[o - 1], f): frozenset(ids[i - 1] for i in s)
            for (o, f), s in field_pt.items()
            if s
        }
        self._slack: dict[str, frozenset] = {}

    def slack(self, type_name: str) -> frozenset:
        """Alloc ids a ranged set owned by type_name may hold as slack."""
        s = self._slack.get(type_name)
        if s is None:
            nr, sup = self.nr, self.supertypes
            compat = {
                i
                for i in range(1, nr.total_allocs + 1)
                if type_name in sup[nr.type_of_index(i)]
            }
            spans = [aligned_span(run, self.chunk_bits) for run in runs_of(compat)]
            s = frozenset(
                nr.site_of_index(i).id
                for lo, hi in spans
                for i in range(max(lo, 1), min(hi, nr.total_allocs) + 1)
                if i not in compat
            )
            self._slack[type_name] = s
        return s


def members_of(sol) -> Members:
    """A solution's memberships translated from indices to alloc ids."""
    arr = sol.nr.global_array
    vars_ = {}
    for v, s in sol.var_sets.items():
        m = frozenset(arr[i - 1].id for i in s.iterate())
        if m:
            vars_[v] = m
    fields = {}
    for (o, f), s in sol.field_sets.items():
        m = frozenset(arr[i - 1].id for i in s.iterate())
        if m:
            fields[(arr[o - 1].id, f)] = m
    return vars_, fields


def check(members: Members, ref: Reference, ranged: bool) -> list[str]:
    """Describe every way members differs from what ref allows; [] if none."""
    errors = []
    pag = ref.pag
    groups = (
        ("var", members[0], ref.vars, lambda key: pag.var_types[key]),
        ("field", members[1], ref.fields, lambda key: pag.field_types[key[1]]),
    )
    for label, got_all, want_all, owner in groups:
        for key in sorted(set(got_all) | set(want_all)):
            got = got_all.get(key, frozenset())
            want = want_all.get(key, frozenset())
            missing = want - got
            if missing:
                errors.append(f"{label} {key}: missing {sorted(missing)[:5]}")
            extra = got - want
            if extra and ranged:
                extra -= ref.slack(owner(key))
            if extra:
                errors.append(f"{label} {key}: extra {sorted(extra)[:5]}")
    return errors

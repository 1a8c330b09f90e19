"""Class hierarchy, allocation-site numbering, intervals and type masks.

Allocation sites are renumbered by a depth-first walk of the class tree so
that every class owns one contiguous index interval covering its own sites
and those of all its subclasses.  Interfaces map to one interval per topmost
implementing class.  Indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import (
    DuplicateTypeError,
    InheritanceCycleError,
    UnknownTypeError,
)


@dataclass(frozen=True)
class TypeRef:
    name: str
    kind: str  # 'class' | 'interface' | 'array'

    @property
    def is_classlike(self) -> bool:
        # arrays behave like classes in the tree
        return self.kind != "interface"


@dataclass
class AllocSite:
    id: str
    type_name: str
    index: Optional[int] = None  # assigned by number_allocations


@dataclass(frozen=True)
class Interval:
    lower: int
    upper: int

    @property
    def empty(self) -> bool:
        return self.upper == self.lower - 1

    def contains(self, idx: int) -> bool:
        return self.lower <= idx <= self.upper


class ClassHierarchy:
    """Single-inheritance class tree plus interface implementation relation.

    Immutable once built; construct via :func:`build_hierarchy`.
    """

    def __init__(self):
        self.types: dict[str, TypeRef] = {}
        self.root: Optional[TypeRef] = None
        self.parent: dict[str, Optional[str]] = {}
        self.children: dict[str, list[str]] = {}  # declaration order
        self.implements: dict[str, tuple[str, ...]] = {}
        self.iface_extends: dict[str, tuple[str, ...]] = {}
        # caches filled by _finalize
        self._all_ifaces_of_class: dict[str, frozenset[str]] = {}
        # a class's subtree is the preorder range [_pre[c], _last[c]]
        self._pre: dict[str, int] = {}
        self._last: dict[str, int] = {}

    # -- queries ------------------------------------------------------

    def lookup(self, name: str) -> TypeRef:
        try:
            return self.types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type: {name}") from None

    def is_declared(self, name: str) -> bool:
        return name in self.types

    def class_names(self) -> list[str]:
        """All class-like type names in preorder of the tree."""
        out = []
        stack = [self.root.name]
        while stack:
            c = stack.pop()
            out.append(c)
            stack.extend(reversed(self.children[c]))
        return out

    def interface_names(self) -> list[str]:
        return [n for n, t in self.types.items() if t.kind == "interface"]

    def super_interfaces(self, iface: str) -> frozenset[str]:
        """iface plus everything it extends, transitively."""
        seen = {iface}
        work = [iface]
        while work:
            for sup in self.iface_extends.get(work.pop(), ()):
                if sup not in seen:
                    seen.add(sup)
                    work.append(sup)
        return frozenset(seen)

    def interfaces_of_class(self, cls: str) -> frozenset[str]:
        """All interfaces cls is compatible with, via ancestors and extension."""
        return self._all_ifaces_of_class[cls]

    def is_subtype(self, s, t) -> bool:
        """True iff a value of type s may be held by a slot of type t."""
        sn = s.name if isinstance(s, TypeRef) else s
        tn = t.name if isinstance(t, TypeRef) else t
        st = self.lookup(sn)
        tt = self.lookup(tn)
        if sn == tn:
            return True
        if st.kind == "interface":
            return tt.kind == "interface" and tn in self.super_interfaces(sn)
        if tt.kind == "interface":
            return tn in self._all_ifaces_of_class[sn]
        return self._pre[tn] <= self._pre[sn] <= self._last[tn]

    # -- construction helpers -----------------------------------------

    def _add_class(self, t: TypeRef, parent: Optional[str], ifaces: Iterable[str]):
        self.types[t.name] = t
        self.parent[t.name] = parent
        self.children[t.name] = []
        self.implements[t.name] = tuple(ifaces)
        if parent is not None:
            self.children[parent].append(t.name)

    def _finalize(self):
        # one preorder walk, parents before children: a class shares its
        # parent's interface set unless it implements interfaces of its own
        order = self.class_names()
        for cls in order:
            parent = self.parent[cls]
            ifs = frozenset() if parent is None else self._all_ifaces_of_class[parent]
            own = self.implements[cls]
            if own:
                ifs = ifs.union(*(self.super_interfaces(i) for i in own))
            self._all_ifaces_of_class[cls] = ifs
        self._pre = {cls: n for n, cls in enumerate(order)}
        self._last = dict(self._pre)
        for cls in reversed(order):  # descendants before ancestors
            parent = self.parent[cls]
            if parent is not None:
                self._last[parent] = max(self._last[parent], self._last[cls])


def build_hierarchy(
    class_decls: Sequence[tuple[str, Optional[str], Sequence[str]]],
    iface_decls: Sequence[tuple[str, Sequence[str]]] = (),
    array_types: Sequence[str] = (),
) -> ClassHierarchy:
    """Validate declarations and build an immutable hierarchy.

    class_decls: (name, parent or None for the root, implemented interfaces).
    iface_decls: (name, extended interfaces).
    array_types: array type names (``Elem[]``, ``Elem[][]`` ...) to graft in
    as synthetic classes mirroring their element hierarchy.
    """
    h = ClassHierarchy()
    names: set[str] = set()
    for name, _, _ in class_decls:
        if name in names:
            raise DuplicateTypeError(f"duplicate type: {name}")
        names.add(name)
    for name, _ in iface_decls:
        if name in names:
            raise DuplicateTypeError(f"duplicate type: {name}")
        names.add(name)

    roots = [d for d in class_decls if d[1] is None]
    if len(roots) != 1:
        # reported at the second root, or at the first class if none is a root
        if roots:
            at = roots[1][0]
        else:
            at = class_decls[0][0] if class_decls else None
        raise InheritanceCycleError(
            f"expected exactly one root class, found {len(roots)}", decl=at
        )

    iface_names = {name for name, _ in iface_decls}
    class_names = {name for name, _, _ in class_decls}

    for name, parent, ifaces in class_decls:
        if parent is not None and parent not in class_names:
            raise UnknownTypeError(f"class {name}: unknown parent {parent}", decl=name)
        for i in ifaces:
            if i not in iface_names:
                raise UnknownTypeError(f"class {name}: unknown interface {i}", decl=name)
    for name, exts in iface_decls:
        for e in exts:
            if e not in iface_names:
                raise UnknownTypeError(f"interface {name}: unknown interface {e}", decl=name)

    h.root = TypeRef(roots[0][0], "class")
    # one walk from the root, pushing each class's child declarations in
    # reverse so that children lists keep declaration order
    child_decls: dict[str, list] = {name: [] for name in class_names}
    for d in class_decls:
        if d[1] is not None:
            child_decls[d[1]].append(d)
    todo = [roots[0]]
    while todo:
        name, parent, ifaces = todo.pop()
        h._add_class(TypeRef(name, "class"), parent, ifaces)
        todo.extend(reversed(child_decls[name]))
    if len(h.parent) != len(class_decls):
        # the parent chain of an unreached class never ends at the root
        unreached = [name for name, _, _ in class_decls if name not in h.parent]
        raise InheritanceCycleError(
            "class inheritance cycle; classes unreachable from the root: "
            + ", ".join(unreached),
            decl=unreached[0],
        )

    # cycle check on interface extension
    ext_map = {name: tuple(exts) for name, exts in iface_decls}
    istate: dict[str, int] = {}

    # depth-first with an explicit stack, so deep extension chains cannot
    # exhaust the interpreter's recursion limit
    for start in ext_map:
        if start in istate:
            continue
        istate[start] = 1
        stack = [(start, iter(ext_map[start]))]
        while stack:
            i, sups = stack[-1]
            sup = next(sups, None)
            if sup is None:
                istate[i] = 2
                stack.pop()
            elif istate.get(sup) == 1:
                raise InheritanceCycleError(
                    f"interface extension cycle through {sup}", decl=i
                )
            elif sup not in istate:
                istate[sup] = 1
                stack.append((sup, iter(ext_map[sup])))

    for name, exts in iface_decls:
        h.types[name] = TypeRef(name, "interface")
        h.iface_extends[name] = tuple(exts)

    for a in array_types:
        _ensure_array(h, a)

    h._finalize()
    return h


def _ensure_array(h: ClassHierarchy, name: str) -> None:
    """Register an array type (and its mirror ancestors) as synthetic classes.

    ``T[]`` is a subtype of ``S[]`` iff T is a subtype of S; every array type
    is ultimately a subtype of the root class.  Element and parent arrays are
    registered first, element first, through an explicit stack.
    """
    mention = name
    pending = [name]
    while pending:
        name = pending[-1]
        if name in h.types:
            pending.pop()
            continue
        if not name.endswith("[]"):
            raise UnknownTypeError(f"unknown type: {name}")
        elem = name[:-2]
        if elem not in h.types:
            if not elem.endswith("[]"):
                raise UnknownTypeError(f"unknown array element type: {elem}", decl=mention)
            pending.append(elem)
            continue
        if h.types[elem].kind == "interface":
            raise UnknownTypeError(
                f"interface element arrays are not supported: {name}", decl=mention
            )
        elem_parent = h.parent[elem]
        parent = h.root.name if elem_parent is None else elem_parent + "[]"
        if parent not in h.types:
            pending.append(parent)
            continue
        h._add_class(TypeRef(name, "array"), parent, ())
        pending.pop()


@dataclass
class NumberingResult:
    hierarchy: ClassHierarchy
    global_array: tuple[AllocSite, ...]  # position i-1 holds the alloc with index i
    type2interval: dict[str, Interval]
    iface2intervals: dict[str, tuple[Interval, ...]]
    total_allocs: int
    postorder: tuple[str, ...]  # interval creation order
    index_of: dict[str, int] = field(default_factory=dict)  # alloc id -> index

    def type_of_index(self, idx: int) -> str:
        return self.global_array[idx - 1].type_name

    def site_of_index(self, idx: int) -> AllocSite:
        return self.global_array[idx - 1]


def number_allocations(h: ClassHierarchy, allocs: Sequence[AllocSite]) -> NumberingResult:
    """Depth-first renumbering; fills indices and per-type intervals."""
    class2allocs: dict[str, list[AllocSite]] = {c: [] for c in h.parent}
    for a in allocs:
        t = h.lookup(a.type_name)
        if not t.is_classlike:
            raise UnknownTypeError(
                f"alloc {a.id}: allocated type may not be an interface"
            )
        class2allocs[a.type_name].append(a)

    global_array: list[AllocSite] = []
    type2interval: dict[str, Interval] = {}
    postorder: list[str] = []

    def enter(cls: str):
        lower = len(global_array) + 1
        for alloc in class2allocs[cls]:
            global_array.append(alloc)
            alloc.index = len(global_array)
        return cls, lower, iter(h.children[cls])

    # depth-first with an explicit stack, so deep class chains cannot
    # exhaust the interpreter's recursion limit
    stack = [enter(h.root.name)]
    while stack:
        cls, lower, children = stack[-1]
        child = next(children, None)
        if child is not None:
            stack.append(enter(child))
            continue
        stack.pop()
        type2interval[cls] = Interval(lower, len(global_array))
        postorder.append(cls)

    nr = NumberingResult(
        hierarchy=h,
        global_array=tuple(global_array),
        type2interval=type2interval,
        iface2intervals={},
        total_allocs=len(global_array),
        postorder=tuple(postorder),
        index_of={a.id: a.index for a in global_array},
    )
    for iface in h.interface_names():
        nr.iface2intervals[iface] = tuple(_interface_intervals(nr, h, iface))
    return nr


def _interface_intervals(nr: NumberingResult, h: ClassHierarchy, iface: str) -> list[Interval]:
    # classes compatible with iface, keeping only the topmost ones; interface
    # sets are inherited, so those are the ones whose parent is not compatible
    tops = [
        c
        for c, parent in h.parent.items()
        if iface in h.interfaces_of_class(c)
        and (parent is None or iface not in h.interfaces_of_class(parent))
    ]
    ivs = sorted(
        (nr.type2interval[c] for c in tops if not nr.type2interval[c].empty),
        key=lambda iv: iv.lower,
    )
    merged: list[Interval] = []
    for iv in ivs:
        if merged and iv.lower <= merged[-1].upper + 1:
            merged[-1] = Interval(merged[-1].lower, max(merged[-1].upper, iv.upper))
        else:
            merged.append(iv)
    return merged


def intervals_of(nr: NumberingResult, h: ClassHierarchy, t) -> list[Interval]:
    """Index intervals covering all allocs compatible with t.

    Classes get their single interval; interfaces get one interval per
    topmost implementing class, merged when adjacent, sorted by lower bound.
    """
    name = t.name if isinstance(t, TypeRef) else t
    tt = h.lookup(name)
    if tt.kind == "interface":
        return list(nr.iface2intervals[name])
    return [nr.type2interval[name]]


def build_type_mask(nr: NumberingResult, h: ClassHierarchy, t) -> int:
    """Full-universe int with bit i set iff the alloc with index i is
    compatible with t."""
    name = t.name if isinstance(t, TypeRef) else t
    bits = 0
    # deliberately defined via the subtype test, not via intervals, so that
    # mask/interval agreement stays a checkable property of the numbering
    compat = {c for c in h.parent if h.is_subtype(c, name)}
    for i, site in enumerate(nr.global_array, start=1):
        if site.type_name in compat:
            bits |= 1 << i
    return bits

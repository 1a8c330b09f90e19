"""Class hierarchy, allocation-site numbering, intervals and type masks.

A depth-first walk of the class tree gives every class one contiguous
preorder range: the class and its subclasses.  The range is the class's
subtype test, and numbering allocation sites class by class in the same
preorder makes it the class's index interval too: the allocations of the
classes in its preorder range.  Interfaces map to one interval per topmost
implementing class.  Indices are 1-based.  A type's mask, the filter of
the pure and shared bit-vector kernels (``pure``, ``hybrid``, ``sparse``
and ``shared``), is the bits of its intervals.  ``naive`` filters by the
type's index set and the ranged kinds by its intervals and their chunk
spans, so neither builds a mask.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .bitsets import _iter_bits
from .errors import (
    DuplicateTypeError,
    InheritanceCycleError,
    UnknownTypeError,
)


@dataclass(frozen=True, slots=True)
class TypeRef:
    name: str
    kind: str  # 'class' | 'interface' | 'array'

    @property
    def is_classlike(self) -> bool:
        # arrays behave like classes in the tree
        return self.kind != "interface"


@dataclass(slots=True)
class AllocSite:
    id: str
    type_name: str


@dataclass(frozen=True, slots=True)
class Interval:
    lower: int
    upper: int

    @property
    def empty(self) -> bool:
        return self.upper == self.lower - 1


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
        # interface sets are ints over interface ordinals: bit k stands for
        # _iface_names[k], in declaration order
        self._iface_names: list[str] = []
        self._iface_ord: dict[str, int] = {}
        # interface -> itself and everything it extends, transitively;
        # folded by build_hierarchy in topological order
        self._iface_closure: dict[str, int] = {}
        # class -> every interface it is compatible with; filled by _finalize
        self._ifaces_of_class: dict[str, int] = {}
        # a class's subtree is the preorder range [_pre[c], _last[c]];
        # _pre lists the classes in preorder
        self._pre: dict[str, int] = {}
        self._last: dict[str, int] = {}

    # -- queries ------------------------------------------------------

    def lookup(self, name: str) -> TypeRef:
        try:
            return self.types[name]
        except KeyError:
            raise UnknownTypeError(f"unknown type: {name}") from None

    def class_names(self) -> list[str]:
        """All class-like type names in preorder of the tree."""
        out = []
        stack = [self.root.name]
        while stack:
            c = stack.pop()
            out.append(c)
            stack.extend(reversed(self.children[c]))
        return out

    def _iface_set(self, bits: int) -> frozenset[str]:
        names = self._iface_names
        return frozenset(names[k] for k in _iter_bits(bits, 0))

    def super_interfaces(self, iface: str) -> frozenset[str]:
        """iface plus everything it extends, transitively."""
        return self._iface_set(self._iface_closure[iface])

    def interfaces_of_class(self, cls: str) -> frozenset[str]:
        """All interfaces cls is compatible with, via ancestors and extension."""
        return self._iface_set(self._ifaces_of_class[cls])

    def is_subtype(self, s: str, t: str) -> bool:
        """True iff a value of type s may be held by a slot of type t."""
        st = self.lookup(s)
        tt = self.lookup(t)
        if s == t:
            return True
        if st.kind == "interface":
            if tt.kind != "interface":
                return t == self.root.name  # a root-typed slot holds any object
            return bool(self._iface_closure[s] >> self._iface_ord[t] & 1)
        if tt.kind == "interface":
            return bool(self._ifaces_of_class[s] >> self._iface_ord[t] & 1)
        return self._pre[t] <= self._pre[s] <= self._last[t]

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
            ifs = 0 if parent is None else self._ifaces_of_class[parent]
            for i in self.implements[cls]:
                ifs |= self._iface_closure[i]
            self._ifaces_of_class[cls] = ifs
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

    An interface extension cycle is reported through an interface on it, at
    a declaration on it that extends that interface.  With several cycles it
    is the first closed by ``graphlib``'s depth-first walk down "extended by"
    edges, from the interfaces in the order the declarations first name them.
    """
    h = ClassHierarchy()
    names: set[str] = set()
    for name in [d[0] for d in class_decls] + [d[0] for d in iface_decls]:
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

    child_decls: dict[str, list] = {name: [] for name, _, _ in class_decls}
    ext_map = {name: tuple(exts) for name, exts in iface_decls}

    for name, parent, ifaces in class_decls:
        if parent is not None and parent not in child_decls:
            raise UnknownTypeError(f"class {name}: unknown parent {parent}", decl=name)
        for i in ifaces:
            if i not in ext_map:
                raise UnknownTypeError(f"class {name}: unknown interface {i}", decl=name)
    for name, exts in ext_map.items():
        for e in exts:
            if e not in ext_map:
                raise UnknownTypeError(f"interface {name}: unknown interface {e}", decl=name)

    h.root = TypeRef(roots[0][0], "class")
    # one walk from the root, pushing each class's child declarations in
    # reverse so that children lists keep declaration order
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

    # each interface after all it extends: its own bit ORed with their closures
    h._iface_names = list(ext_map)
    h._iface_ord = {name: k for k, name in enumerate(h._iface_names)}
    closure = h._iface_closure
    try:
        for i in graphlib.TopologicalSorter(ext_map).static_order():
            bits = 1 << h._iface_ord[i]
            for e in ext_map[i]:
                bits |= closure[e]
            closure[i] = bits
    except graphlib.CycleError as e:
        # [through, decl, ..., through]: each is extended by the next
        through, decl = e.args[1][:2]
        raise InheritanceCycleError(
            f"interface extension cycle through {through}", decl=decl
        ) from None

    for name in ext_map:
        h.types[name] = TypeRef(name, "interface")

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
    # keys in creation order: each class after its descendants
    type2interval: dict[str, Interval]
    iface2intervals: dict[str, tuple[Interval, ...]]
    total_allocs: int
    index_of: dict[str, int] = field(default_factory=dict)  # alloc id -> index
    # type name -> mask, filled by build_type_mask
    _masks: dict[str, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    # chunk width -> {type name -> ranged geometry}, by RangedPointsToSet.type_state
    _ranged_geometry: dict[int, dict] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def type_of_index(self, idx: int) -> str:
        return self.global_array[idx - 1].type_name

    def site_of_index(self, idx: int) -> AllocSite:
        return self.global_array[idx - 1]


def number_allocations(h: ClassHierarchy, allocs: Sequence[AllocSite]) -> NumberingResult:
    """Number the allocations class by class in the hierarchy's preorder;
    a class's interval holds the allocations of its preorder range."""
    class2allocs: dict[str, list[AllocSite]] = {c: [] for c in h._pre}
    for a in allocs:
        t = h.lookup(a.type_name)
        if not t.is_classlike:
            raise UnknownTypeError(
                f"alloc {a.id}: allocated type may not be an interface"
            )
        class2allocs[a.type_name].append(a)

    global_array: list[AllocSite] = []
    # before[n]: how many allocations the classes at preorder positions
    # below n hold
    before: list[int] = []
    for sites in class2allocs.values():  # preorder
        before.append(len(global_array))
        global_array.extend(sites)
    before.append(len(global_array))
    # a class finishes with the last class of its range, after its descendants
    postorder = sorted(h._pre, key=lambda c: (h._last[c], -h._pre[c]))

    nr = NumberingResult(
        hierarchy=h,
        global_array=tuple(global_array),
        type2interval={
            c: Interval(before[h._pre[c]] + 1, before[h._last[c] + 1]) for c in postorder
        },
        iface2intervals={},
        total_allocs=len(global_array),
        index_of={a.id: i for i, a in enumerate(global_array, start=1)},
    )
    # an implementing class is topmost for an interface iff its parent is
    # not compatible with it; one walk finds the topmost classes of all
    tops: list[list[str]] = [[] for _ in h._iface_names]
    ifaces_of = h._ifaces_of_class
    for c, parent in h.parent.items():
        ifs = ifaces_of[c]
        if parent is not None:
            ifs &= ~ifaces_of[parent]
        for k in _iter_bits(ifs, 0):
            tops[k].append(c)
    for iface, classes in zip(h._iface_names, tops):
        nr.iface2intervals[iface] = tuple(_merged_intervals(nr, classes))
    return nr


def _merged_intervals(nr: NumberingResult, classes: list[str]) -> list[Interval]:
    """The nonempty intervals of classes, sorted by lower bound, adjacent
    and overlapping ones merged."""
    ivs = sorted(
        (nr.type2interval[c] for c in classes if not nr.type2interval[c].empty),
        key=lambda iv: iv.lower,
    )
    merged: list[Interval] = []
    for iv in ivs:
        if merged and iv.lower <= merged[-1].upper + 1:
            merged[-1] = Interval(merged[-1].lower, max(merged[-1].upper, iv.upper))
        else:
            merged.append(iv)
    return merged


def intervals_of(nr: NumberingResult, name: str) -> list[Interval]:
    """Index intervals covering all allocs compatible with the named type.

    Classes get their single interval, none if it is empty; interfaces get
    one nonempty interval per topmost implementing class, merged when
    adjacent, sorted by lower bound.
    """
    if nr.hierarchy.lookup(name).kind == "interface":
        return list(nr.iface2intervals[name])
    iv = nr.type2interval[name]
    return [] if iv.empty else [iv]


def build_type_mask(nr: NumberingResult, name: str) -> int:
    """Full-universe int with bit i set iff the alloc with index i is
    compatible with the named type: the bits of its intervals, built on
    the first call for the type and cached on nr."""
    m = nr._masks.get(name)
    if m is None:
        m = nr._masks[name] = sum(
            (1 << iv.upper + 1) - (1 << iv.lower) for iv in intervals_of(nr, name)
        )
    return m

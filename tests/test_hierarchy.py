import random
import sys
import tracemalloc

import pytest

from conftest import WORKED_CLASSES, WORKED_IFACES, random_hierarchy, worked_allocs
from oracles import closure_supertypes, compatible_indices
from rangepta.errors import (
    DuplicateTypeError,
    InheritanceCycleError,
    UnknownTypeError,
)
from rangepta.hierarchy import (
    AllocSite,
    Interval,
    build_hierarchy,
    build_type_mask,
    intervals_of,
    number_allocations,
)


class TestBuildHierarchy:
    def test_chain(self):
        h = build_hierarchy([("Object", None, ()), ("A", "Object", ()), ("B", "A", ())])
        assert h.parent["B"] == "A"
        assert h.parent["A"] == "Object"
        assert h.root.name == "Object"

    def test_two_cycle(self):
        with pytest.raises(InheritanceCycleError):
            build_hierarchy([("Object", None, ()), ("A", "B", ()), ("B", "A", ())])

    def test_cycle_names_unreached_classes(self):
        with pytest.raises(InheritanceCycleError, match="unreachable from the root: A, B, C$"):
            build_hierarchy(
                [("Object", None, ()), ("A", "B", ()), ("B", "A", ()), ("C", "A", ())]
            )

    def test_children_in_declaration_order(self):
        h = build_hierarchy(
            [("Object", None, ()), ("B", "A", ()), ("A", "Object", ()), ("C", "A", ())]
        )
        assert h.children["A"] == ["B", "C"]

    def test_single_interface(self):
        h = build_hierarchy(
            [("Object", None, ()), ("A", "Object", ("I",))], [("I", ())]
        )
        assert h.implements["A"] == ("I",)

    def test_duplicate_type(self):
        with pytest.raises(DuplicateTypeError):
            build_hierarchy([("Object", None, ()), ("A", "Object", ()), ("A", "Object", ())])

    def test_unknown_parent(self):
        with pytest.raises(UnknownTypeError):
            build_hierarchy([("Object", None, ()), ("A", "Nope", ())])

    def test_two_roots_rejected(self):
        with pytest.raises(InheritanceCycleError):
            build_hierarchy([("Object", None, ()), ("Other", None, ())])

    def test_iface_cycle(self):
        with pytest.raises(InheritanceCycleError):
            build_hierarchy(
                [("Object", None, ())], [("I", ("J",)), ("J", ("I",))]
            )


class TestNumbering:
    def test_worked_example(self, worked_hierarchy):
        nr = number_allocations(worked_hierarchy, worked_allocs())
        assert nr.type2interval == {
            "B": Interval(6, 6),
            "C": Interval(7, 8),
            "A": Interval(3, 8),
            "D": Interval(9, 12),
            "Object": Interval(1, 12),
        }
        assert nr.postorder == ("B", "C", "A", "D", "Object")
        assert nr.total_allocs == 12
        assert [a.index for a in nr.global_array] == list(range(1, 13))

    def test_empty_program(self):
        h = build_hierarchy([("Object", None, ())])
        nr = number_allocations(h, [])
        assert nr.total_allocs == 0
        iv = nr.type2interval["Object"]
        assert iv == Interval(1, 0) and iv.empty

    def test_passthrough_parent(self):
        h = build_hierarchy([("Object", None, ()), ("A", "Object", ()), ("B", "A", ())])
        allocs = [AllocSite(f"b{i}", "B") for i in range(3)]
        nr = number_allocations(h, allocs)
        assert nr.type2interval["A"] == nr.type2interval["B"] == Interval(1, 3)

    def test_interface_alloc_rejected(self):
        h = build_hierarchy([("Object", None, ())], [("I", ())])
        with pytest.raises(UnknownTypeError):
            number_allocations(h, [AllocSite("x", "I")])

    def test_determinism(self, worked_hierarchy):
        a = number_allocations(worked_hierarchy, worked_allocs())
        b = number_allocations(
            build_hierarchy(WORKED_CLASSES, WORKED_IFACES), worked_allocs()
        )
        assert a.type2interval == b.type2interval
        assert [s.id for s in a.global_array] == [s.id for s in b.global_array]


class TestIntervalsOf:
    def test_root_class(self, worked_numbering, worked_hierarchy):
        assert intervals_of(worked_numbering, worked_hierarchy, "Object") == [
            Interval(1, 12)
        ]

    def test_interface_two_tops(self, worked_numbering, worked_hierarchy):
        # I implemented by B and D only
        assert intervals_of(worked_numbering, worked_hierarchy, "I") == [
            Interval(6, 6),
            Interval(9, 12),
        ]

    def test_interface_inherited_absorbs_subtree(self):
        h = build_hierarchy(
            [
                ("Object", None, ()),
                ("A", "Object", ("I",)),
                ("B", "A", ()),
                ("C", "A", ()),
            ],
            [("I", ())],
        )
        allocs = []
        for cls, n in [("Object", 2), ("A", 3), ("B", 1), ("C", 2)]:
            allocs += [AllocSite(f"{cls}{i}", cls) for i in range(n)]
        nr = number_allocations(h, allocs)
        assert intervals_of(nr, h, "I") == [Interval(3, 8)]

    def test_adjacent_merged(self):
        # B and C adjacent subtrees both implement I: one merged interval
        h = build_hierarchy(
            [
                ("Object", None, ()),
                ("B", "Object", ("I",)),
                ("C", "Object", ("I",)),
            ],
            [("I", ())],
        )
        allocs = [AllocSite("b", "B"), AllocSite("c", "C")]
        nr = number_allocations(h, allocs)
        assert intervals_of(nr, h, "I") == [Interval(1, 2)]

    def test_unknown(self, worked_numbering, worked_hierarchy):
        with pytest.raises(UnknownTypeError):
            intervals_of(worked_numbering, worked_hierarchy, "Nope")


class TestIsSubtype:
    def test_direct_child(self, worked_hierarchy):
        assert worked_hierarchy.is_subtype("B", "A")

    def test_reversed(self, worked_hierarchy):
        assert not worked_hierarchy.is_subtype("A", "B")

    def test_interface_via_ancestor(self):
        h = build_hierarchy(
            [("Object", None, ()), ("A", "Object", ("I",)), ("C", "A", ())],
            [("I", ())],
        )
        assert h.is_subtype("C", "I")

    def test_super_interface(self):
        h = build_hierarchy(
            [("Object", None, ()), ("A", "Object", ("J",))],
            [("I", ()), ("J", ("I",))],
        )
        assert h.is_subtype("A", "I")
        assert h.is_subtype("J", "I")
        assert not h.is_subtype("I", "J")

    def test_arrays(self):
        h = build_hierarchy(
            [("Object", None, ()), ("A", "Object", ()), ("B", "A", ())],
            [],
            array_types=["B[]", "A[]"],
        )
        assert h.is_subtype("B[]", "A[]")
        assert h.is_subtype("B[]", "Object")
        assert not h.is_subtype("A[]", "B[]")
        assert not h.is_subtype("A[]", "A")


class TestMaskBits:
    def test_mid_class(self, worked_numbering, worked_hierarchy):
        m = build_type_mask(worked_numbering, worked_hierarchy, "A")
        assert [i for i in range(1, 13) if m >> i & 1] == [3, 4, 5, 6, 7, 8]

    def test_root(self, worked_numbering, worked_hierarchy):
        m = build_type_mask(worked_numbering, worked_hierarchy, "Object")
        assert m == sum(1 << i for i in range(1, 13))

    def test_empty_leaf(self):
        h = build_hierarchy([("Object", None, ()), ("L", "Object", ())])
        nr = number_allocations(h, [AllocSite("o", "Object")])
        m = build_type_mask(nr, h, "L")
        assert m == 0

    def test_interface_mask(self, worked_numbering, worked_hierarchy):
        m = build_type_mask(worked_numbering, worked_hierarchy, "I")
        assert [i for i in range(1, 13) if m >> i & 1] == [6, 9, 10, 11, 12]


class TestRandomizedProperties:
    def test_contiguity_laminar_masks_and_interface_cover(self):
        rng = random.Random(7)
        for _ in range(60):
            classes, ifaces, allocs = random_hierarchy(rng)
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            supers = closure_supertypes(classes, ifaces)

            ivs = list(nr.type2interval.values())
            for cls in nr.type2interval:
                compat = compatible_indices(nr, supers, cls)
                iv = nr.type2interval[cls]
                expected = set(range(iv.lower, iv.upper + 1))
                # contiguity: compatible allocs fill the interval exactly
                assert compat == expected, cls
                # mask/interval agreement
                m = build_type_mask(nr, h, cls)
                assert m == sum(1 << i for i in expected)
            # laminar family
            for x in ivs:
                for y in ivs:
                    if x.empty or y.empty:
                        continue
                    sx = set(range(x.lower, x.upper + 1))
                    sy = set(range(y.lower, y.upper + 1))
                    assert not (sx & sy) or sx <= sy or sy <= sx
            # interface cover
            for iname, _ in ifaces:
                covered = set()
                merged = intervals_of(nr, h, iname)
                assert merged == sorted(merged, key=lambda i: i.lower)
                for iv in merged:
                    block = set(range(iv.lower, iv.upper + 1))
                    assert not covered & block  # pairwise disjoint
                    covered |= block
                assert covered == compatible_indices(nr, supers, iname)

    def test_subtype_matches_closure(self):
        rng = random.Random(11)
        for _ in range(30):
            classes, ifaces, _ = random_hierarchy(rng)
            h = build_hierarchy(classes, ifaces)
            supers = closure_supertypes(classes, ifaces)
            names = [c[0] for c in classes]
            targets = names + [i[0] for i in ifaces]
            for s in names:
                for t in targets:
                    assert h.is_subtype(s, t) == (t in supers[s]), (s, t)


def test_deep_chain_bookkeeping_is_linear():
    # per-class ancestor sets would make this quadratic in chain depth
    depth = 3000
    classes = [("Object", None, ())] + [
        (f"C{i}", f"C{i - 1}" if i else "Object", ("I",) if i % 500 == 0 else ())
        for i in range(depth)
    ]
    allocs = [AllocSite(f"o{i}", f"C{i}") for i in range(0, depth, 100)]
    tracemalloc.start()
    try:
        h = build_hierarchy(classes, [("I", ())])
        nr = number_allocations(h, allocs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert nr.total_allocs == depth // 100
    assert h.is_subtype(f"C{depth - 1}", "C0") and not h.is_subtype("C0", "C1")
    assert h.is_subtype(f"C{depth - 1}", "I") and not h.is_subtype("Object", "I")
    assert intervals_of(nr, h, "I") == [nr.type2interval["C0"]]


def _line_events(fn, *args):
    """Call fn(*args) and count the line events it runs: a measure of work
    that, unlike wall time, is the same on every run."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, count


def test_leaf_first_chain_builds_in_one_walk():
    # repeated passes over classes whose parent is not yet added made a
    # chain declared leaf-first quadratic in its depth
    depth = 3000
    root_first = [("Object", None, ())] + [
        (f"C{i}", f"C{i - 1}" if i else "Object", ()) for i in range(depth)
    ]
    leaf_first = root_first[:1] + root_first[:0:-1]
    _, root_first_lines = _line_events(build_hierarchy, root_first)
    h, leaf_first_lines = _line_events(build_hierarchy, leaf_first)
    assert leaf_first_lines <= 2 * root_first_lines
    allocs = [AllocSite(f"o{i}", f"C{i}") for i in range(0, depth, 100)]
    nr = number_allocations(h, allocs)
    assert [a.id for a in nr.global_array] == [a.id for a in allocs]
    assert h.children["C0"] == ["C1"] and h.parent["C0"] == "Object"

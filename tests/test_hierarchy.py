import hashlib
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

from conftest import WORKED_CLASSES, WORKED_IFACES, random_hierarchy, worked_allocs
from oracles import closure_supertypes, compatible_indices, runs_of, walk_type_mask
from rangepta import hierarchy
from rangepta.bitsets import ChunkConfig
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
from rangepta.pag import GenParams, generate_synthetic, parse_program
from rangepta.ptsets import NaiveSet, SetFactory
from rangepta.solver import SolverConfig, propagate

# the shape of the benchmark's wide workload (800 classes, 40 interfaces),
# with fewer statements
WIDE_SHAPE = GenParams(
    num_classes=800,
    num_interfaces=40,
    max_depth=10,
    num_fields=30,
    num_vars=1500,
    num_statements=3000,
    allocs_per_class=(1, 4),
    store_load_ratio=0.4,
    violation_rate=0.05,
)


@pytest.fixture(scope="module")
def wide_text():
    return generate_synthetic(WIDE_SHAPE, 0)


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

    def test_unknown_array_element(self):
        with pytest.raises(UnknownTypeError, match=r"^unknown type: Foo$"):
            build_hierarchy([("Object", None, ())], array_types=["Foo"])

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
        assert tuple(nr.type2interval) == ("B", "C", "A", "D", "Object")
        assert nr.total_allocs == 12
        assert [nr.index_of[a.id] for a in nr.global_array] == list(range(1, 13))

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
    def test_root_class(self, worked_numbering):
        assert intervals_of(worked_numbering, "Object") == [
            Interval(1, 12)
        ]

    def test_interface_two_tops(self, worked_numbering):
        # I implemented by B and D only
        assert intervals_of(worked_numbering, "I") == [
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
        assert intervals_of(nr, "I") == [Interval(3, 8)]

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
        assert intervals_of(nr, "I") == [Interval(1, 2)]

    def test_unknown(self, worked_numbering):
        with pytest.raises(UnknownTypeError):
            intervals_of(worked_numbering, "Nope")


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

    def test_interface_held_by_the_root_only(self):
        # a root-typed slot holds any object, and the root's mask admits
        # every allocation; no other class or array holds an interface
        h = build_hierarchy(
            [("Object", None, ()), ("A", "Object", ("I",))],
            [("I", ()), ("J", ("I",))],
            array_types=["A[]"],
        )
        for iface in ("I", "J"):
            assert h.is_subtype(iface, "Object")
            assert not h.is_subtype(iface, "A")
            assert not h.is_subtype(iface, "A[]")


class TestMaskBits:
    def test_mid_class(self, worked_numbering):
        m = build_type_mask(worked_numbering, "A")
        assert [i for i in range(1, 13) if m >> i & 1] == [3, 4, 5, 6, 7, 8]

    def test_root(self, worked_numbering):
        m = build_type_mask(worked_numbering, "Object")
        assert m == sum(1 << i for i in range(1, 13))

    def test_empty_leaf(self):
        h = build_hierarchy([("Object", None, ()), ("L", "Object", ())])
        nr = number_allocations(h, [AllocSite("o", "Object")])
        m = build_type_mask(nr, "L")
        assert m == 0

    def test_interface_mask(self, worked_numbering):
        m = build_type_mask(worked_numbering, "I")
        assert [i for i in range(1, 13) if m >> i & 1] == [6, 9, 10, 11, 12]

    def test_unknown_name(self, worked_numbering):
        with pytest.raises(UnknownTypeError, match="unknown type: Nope"):
            build_type_mask(worked_numbering, "Nope")
        # a failed lookup caches nothing, and later lookups still answer
        assert build_type_mask(worked_numbering, "D") == sum(
            1 << i for i in range(9, 13)
        )


def _all_masks_match_walk(h, nr):
    factory = SetFactory(nr, ChunkConfig(64), "naive")
    for t in h.types:
        walk = walk_type_mask(nr, h, t)
        assert build_type_mask(nr, t) == walk, t
        # naive's filter reads the intervals too, not the mask
        assert NaiveSet.type_state(factory, t) == {
            i for i in range(1, nr.total_allocs + 1) if walk >> i & 1
        }, t


def test_mask_table_matches_walk_on_random_hierarchies():
    rng = random.Random(5)
    for _ in range(40):
        classes, ifaces, allocs = random_hierarchy(rng)
        names = [c[0] for c in classes]
        arrays = {f"{c}[]" for c in rng.sample(names, min(3, len(names)))}
        arrays |= {f"{a}[]" for a in rng.sample(sorted(arrays), 1)}
        h = build_hierarchy(classes, ifaces, array_types=sorted(arrays))
        classlike = sorted(h.parent)  # arrays included
        allocs += [AllocSite(f"x{k}", rng.choice(classlike)) for k in range(rng.randint(0, 8))]
        nr = number_allocations(h, allocs)
        _all_masks_match_walk(h, nr)


def test_mask_table_matches_walk_on_wide_corpus(wide_text):
    h, pag = parse_program(wide_text)
    nr = number_allocations(h, list(pag.allocs.values()))
    assert len(pag.iface_decls) == WIDE_SHAPE.num_interfaces
    _all_masks_match_walk(h, nr)


def _dfs_orders(h):
    """Preorder and postorder of a recursive walk over the class tree."""
    pre, post = [], []

    def walk(c):
        pre.append(c)
        for child in h.children[c]:
            walk(child)
        post.append(c)

    walk(h.root.name)
    return pre, post


class TestRandomizedProperties:
    def test_contiguity_laminar_masks_and_interface_cover(self):
        rng = random.Random(7)
        empty_classes = 0
        spanning_runs = 0
        for _ in range(60):
            classes, ifaces, allocs = random_hierarchy(rng)
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            supers = closure_supertypes(classes, ifaces)
            holders = {a.type_name for a in allocs}

            # the numbering's order is the tree's own depth-first order:
            # classes in preorder, each class's allocs in the given order
            pre, post = _dfs_orders(h)
            assert tuple(nr.type2interval) == tuple(post)
            assert [a.id for a in nr.global_array] == [
                a.id for a in sorted(allocs, key=lambda a: pre.index(a.type_name))
            ]
            for cls, iv in nr.type2interval.items():
                assert intervals_of(nr, cls) == ([] if iv.empty else [iv]), cls
                empty_classes += iv.empty

            ivs = list(nr.type2interval.values())
            for cls in nr.type2interval:
                compat = compatible_indices(nr, supers, cls)
                iv = nr.type2interval[cls]
                expected = set(range(iv.lower, iv.upper + 1))
                # contiguity: compatible allocs fill the interval exactly
                assert compat == expected, cls
                # mask/interval agreement
                m = build_type_mask(nr, cls)
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
                merged = intervals_of(nr, iname)
                assert merged == sorted(merged, key=lambda i: i.lower)
                for iv in merged:
                    block = set(range(iv.lower, iv.upper + 1))
                    assert not covered & block  # pairwise disjoint
                    covered |= block
                assert covered == compatible_indices(nr, supers, iname)
                # maximal runs: adjacent intervals are merged
                runs = runs_of(compatible_indices(nr, supers, iname))
                assert [(iv.lower, iv.upper) for iv in intervals_of(nr, iname)] == runs
                # a run spans an incompatible class with no allocations
                # when one lies in preorder between its first and last class
                for lo, hi in runs:
                    first = pre.index(nr.type_of_index(lo))
                    last = pre.index(nr.type_of_index(hi))
                    spanning_runs += any(
                        c not in holders and iname not in supers[c]
                        for c in pre[first:last]
                    )
        # allocation-less classes occur, or their intervals go unchecked
        assert empty_classes, empty_classes
        # a run reaches past such a class, or the merge across it goes unchecked
        assert spanning_runs, spanning_runs

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


def _iface_closures(iface_decls):
    """interface -> itself and everything it extends, from the raw
    declarations: the oracle's supertypes of a class that implements only
    that interface, less the class and the root."""
    classes = [("Object", None, ())] + [(f"K{i}", "Object", (i,)) for i, _ in iface_decls]
    supers = closure_supertypes(classes, iface_decls)
    return {i: supers[f"K{i}"] - {f"K{i}", "Object"} for i, _ in iface_decls}


def test_interface_subtyping_matches_declarations():
    # random extension DAGs, declared in shuffled order so that a walk meets
    # interfaces it has not finished
    rng = random.Random(22)
    diamonds = 0
    for _ in range(40):
        names = [f"I{k}" for k in range(rng.randint(2, 14))]
        decls = [
            (n, tuple(rng.sample(names[:k], rng.randint(0, min(3, k)))))
            for k, n in enumerate(names)
        ]
        rng.shuffle(decls)
        h = build_hierarchy([("Object", None, ())], decls)
        closures = _iface_closures(decls)
        ext = dict(decls)
        # a diamond: two of an interface's direct supertypes share one
        diamonds += any(
            closures[a] & closures[b]
            for i in names for a in ext[i] for b in ext[i] if a < b
        )
        for i in names:
            assert h.super_interfaces(i) == closures[i], i
            for j in names:
                assert h.is_subtype(i, j) == (j in closures[i]), (i, j)
    assert diamonds >= 10, diamonds


def test_iface_cycle_is_reported_on_the_cycle():
    # random extension graphs, self-extension allowed: building fails iff
    # some interface reaches itself by extension, and then the error names
    # an interface on a cycle, at a declaration on it that extends it
    rng = random.Random(31)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        names = [f"I{k}" for k in range(rng.randint(1, 8))]
        decls = [(n, tuple(rng.sample(names, rng.randint(0, min(2, len(names))))))
                 for n in names]
        rng.shuffle(decls)
        ext = dict(decls)
        reach = {}  # interface -> what it reaches in one step or more
        for i in names:
            seen, work = set(), list(ext[i])
            while work:
                j = work.pop()
                if j not in seen:
                    seen.add(j)
                    work.extend(ext[j])
            reach[i] = seen
        cyclic = any(i in reach[i] for i in names)
        outcomes[cyclic] += 1
        if not cyclic:
            h = build_hierarchy([("Object", None, ())], decls)
            for i in names:
                assert h.super_interfaces(i) == reach[i] | {i}, decls
            continue
        with pytest.raises(InheritanceCycleError) as info:
            build_hierarchy([("Object", None, ())], decls)
        e = info.value
        through = str(e).removeprefix("interface extension cycle through ")
        assert through in ext[e.decl] and e.decl in reach[through], (decls, str(e))
    assert min(outcomes.values()) >= 50, outcomes


def test_deep_iface_cycle():
    # a cycle longer than the interpreter's default recursion limit
    depth = 3000
    decls = [(f"I{k}", (f"I{k - 1}" if k else f"I{depth - 1}",)) for k in range(depth)]
    with pytest.raises(InheritanceCycleError, match="^interface extension cycle through I"):
        build_hierarchy([("Object", None, ())], decls)
    text = "class Object\n" + "".join(f"interface {n} extends {e}\n" for n, (e,) in decls)
    with pytest.raises(
        InheritanceCycleError, match=r"^line \d+: interface extension cycle through I"
    ):
        parse_program(text)


def test_deep_interface_chain():
    # deeper than the interpreter's default recursion limit; no time bound.
    # The closures are quadratic in the depth: as ints over interface
    # ordinals, set-up peaks at ~2.5 MB traced; as frozensets of names, ~205 MB
    depth = 3000
    decls = [(f"I{k}", (f"I{k - 1}",) if k else ()) for k in range(depth)]
    leaf_name = f"I{depth - 1}"
    tracemalloc.start()
    try:
        h = build_hierarchy([("Object", None, (leaf_name,))], decls[::-1])
        nr = number_allocations(h, [AllocSite("o1", "Object")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
    assert intervals_of(nr, "I0") == [Interval(1, 1)]
    leaf = h.super_interfaces(leaf_name)
    assert len(leaf) == depth and leaf == {n for n, _ in decls}
    assert h.super_interfaces("I0") == {"I0"}
    assert h.is_subtype(leaf_name, "I0") and not h.is_subtype("I0", "I1")
    assert h.interfaces_of_class("Object") == leaf


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
    assert intervals_of(nr, "I") == [nr.type2interval["C0"]]


def _line_events(fn, *args, only=None):
    """Call fn(*args) and count the line events it runs: a measure of work
    that, unlike wall time, is the same on every run.  With only, count just
    the lines of code from that source file."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if only is not None and frame.f_code.co_filename != only:
            return None
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


def test_mask_building_is_linear_in_the_hierarchy(wide_text):
    # a subtype test of every class against every type made the masks of an
    # 800-class corpus cost ~10^7 traced lines; reading each mask the solve
    # uses off its type's intervals costs ~1.3 * 10^4
    h, pag = parse_program(wide_text)
    nr = number_allocations(h, list(pag.allocs.values()))
    _, lines = _line_events(
        propagate, pag, nr, SolverConfig("pure", "mask"), only=hierarchy.__file__
    )
    iface_pairs = sum(len(h.interfaces_of_class(c)) for c in h.parent)
    size = len(h.types) + nr.total_allocs + iface_pairs
    assert lines <= 10 * size, (lines, size)


# array types, an interface extending another and an empty class, beside
# the generated corpora, which declare none of these
ARRAY_CORPUS = """\
class Object
class A extends Object implements J
class B extends A
class C extends Object implements I
class D extends A
interface I
interface J extends I
alloc o1 : B[]
alloc o2 : A
alloc o3 : Object[]
alloc o4 : C
alloc o5 : A[][]
alloc o6 : B
alloc o7 : A[]
alloc o8 : Object
alloc o9 : C[]
"""


def test_numbering_is_pinned():
    # every modeled byte the benchmark records reads the numbering of its
    # corpora; a refactor of the hierarchy must leave it be
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    from workloads import WORKLOADS

    texts = [
        generate_synthetic(*WORKLOADS["deep"].programs[0]),
        generate_synthetic(*WORKLOADS["wide"].programs[0]),
        generate_synthetic(*WORKLOADS["suite"].programs[0]),
        ARRAY_CORPUS,
    ]
    digest = hashlib.sha256()
    for text in texts:
        h, pag = parse_program(text)
        nr = number_allocations(h, list(pag.allocs.values()))
        digest.update(repr((
            [a.id for a in nr.global_array],
            sorted(nr.type2interval.items()),
            sorted(nr.iface2intervals.items()),
            tuple(nr.type2interval),
            sorted(nr.index_of.items()),
        )).encode())
    assert digest.hexdigest() == (
        "57f2ee7dc5d6ef706918911b3b482753e7d09bfa2240e01a62aba3b0169829e9"
    )

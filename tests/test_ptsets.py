import collections
import itertools
import random
import sys
from functools import partial

import pytest

from conftest import random_hierarchy, worked_allocs
from oracles import (
    aligned_span,
    closure_supertypes,
    compatible_indices,
    runs_of,
    zero_window_savings,
)
from test_acceptance import _union_corpus
from test_hierarchy import _line_events
from rangepta import ptsets
from rangepta.bitsets import ChunkConfig, RangedBitVector
from rangepta.errors import (
    ConfigMismatchError,
    IndexOutOfRangeError,
    UnknownTypeError,
    UnsupportedKindError,
)
from rangepta.hierarchy import (
    AllocSite,
    Interval,
    build_hierarchy,
    intervals_of,
    number_allocations,
)
from rangepta.ptsets import (
    ARRAY_HEADER,
    HYBRID_INLINE_CAP,
    OBJECT_HEADER,
    REF_BYTES,
    SET_KINDS,
    SHARED_OVERFLOW_CAP,
    NaiveSet,
    PointsToSet,
    PureBitVectorSet,
    RangedPointsToSet,
    SetFactory,
    SharedBitVectorSet,
    SPARSE_ELEMENT_WORDS,
    sparse_savings,
)

EXACT_KINDS = ("naive", "pure", "hybrid", "shared", "sparse")
RANGED = ("ranged", "ranged-hybrid")
# one kind on each of the four kernels
KERNEL_KINDS = ("naive", "pure", "shared", "ranged")


def footprint(s, kind):
    return SET_KINDS[kind].footprint_bytes(s)


def spilled(s, kind):
    return SET_KINDS[kind].spilled(s)


def arrays(s, kind):
    return SET_KINDS[kind].chunk_arrays(s)


@pytest.fixture
def factory8(worked_numbering):
    """kind -> a new factory of the kind's sets at chunk width 8."""
    return partial(SetFactory, worked_numbering, ChunkConfig(8))


@pytest.fixture
def factory64(worked_numbering):
    """kind -> a new factory of the kind's sets at chunk width 64."""
    return partial(SetFactory, worked_numbering, ChunkConfig(64))


def big_factory(kind, per_class=30, cb=64):
    h = build_hierarchy(
        [("Object", None, ()), ("A", "Object", ()), ("B", "A", ())]
    )
    allocs = []
    for cls in ("Object", "A", "B"):
        allocs += [AllocSite(f"{cls}{i}", cls) for i in range(per_class)]
    nr = number_allocations(h, allocs)
    return SetFactory(nr, ChunkConfig(cb), kind)


class TestMakeSet:
    def test_ranged_class(self, factory64, worked_numbering):
        s = factory64("ranged").maker("A")()
        assert intervals_of(worked_numbering, "A") == [Interval(3, 8)]
        assert arrays(s, "ranged") == [(1, 0)]

    def test_ranged_interface(self, factory64, worked_numbering):
        s = factory64("ranged").maker("I")()
        assert intervals_of(worked_numbering, "I") == [Interval(6, 6), Interval(9, 12)]
        assert arrays(s, "ranged") == [(1, 0), (1, 0)]

    def test_hybrid_ranged_initial(self, factory64):
        s = factory64("ranged-hybrid").maker("A")()
        assert not spilled(s, "ranged-hybrid") and arrays(s, "ranged-hybrid") == []
        assert len(s) == 0

    def test_unknown_owner(self, factory64):
        with pytest.raises(UnknownTypeError):
            factory64("ranged").maker("Nope")

    def test_all_kinds_start_empty(self, factory64):
        for kind in SET_KINDS:
            s = factory64(kind).maker("Object")()
            assert len(s) == 0 and list(s.iterate()) == []


# the row's footprint_bytes and chunk_arrays (None: the kind keeps no dense
# chunk arrays) of a new set owned by a class, an interface and the root, at
# chunk 8 on the worked numbering (A's interval [3, 8], I's [6, 6] and
# [9, 12], 12 allocs)
MAKER_OWNERS = ("A", "I", "Object")
NEW_SET_SHAPES = {
    "naive": [(16, None)] * 3,
    "pure": [(34, [(2, 0)])] * 3,
    "hybrid": [(144, [])] * 3,
    "shared": [(24, None)] * 3,
    "sparse": [(16, None)] * 3,
    "ranged": [(34, [(2, 0)]), (50, [(1, 0), (1, 0)]), (34, [(2, 0)])],
    "ranged-hybrid": [(144, [])] * 3,
}


def shape(s, kind):
    row = SET_KINDS[kind]
    chunk_arrays = None if row.chunk_arrays is None else row.chunk_arrays(s)
    return row.footprint_bytes(s), chunk_arrays


class TestMaker:
    @pytest.mark.parametrize("kind", sorted(SET_KINDS))
    def test_makes_fresh_empty_sets(self, kind, factory8, monkeypatch):
        # each maker is new, but the per-type state is built once per type
        built = []
        kernel = SET_KINDS[kind].kernel
        type_state = kernel.type_state

        def counted(cls, factory, type_name):
            built.append(type_name)
            return type_state(factory, type_name)

        monkeypatch.setattr(kernel, "type_state", classmethod(counted))
        f = factory8(kind)
        for k, (owner, want) in enumerate(zip(MAKER_OWNERS, NEW_SET_SHAPES[kind])):
            make = f.maker(owner)
            assert f.maker(owner) is not make
            assert built == list(MAKER_OWNERS[: k + 1])
            first = make()
            assert type(first) is kernel and first.factory is f
            assert len(first) == 0 and shape(first, kind) == want
            for i in range(1, f.total + 1):  # past hybrid's slots
                first.add(i)
            assert len(first) > 0
            later = make()
            assert later is not first and len(later) == 0 and shape(later, kind) == want
            if kind == "naive":
                assert later.members == set() and later.members is not first.members

    def test_kinds_on_one_kernel_share_its_type_state(self, factory8, monkeypatch):
        # pure, hybrid and sparse are pure kernels, ranged-hybrid a ranged
        # one: each factory builds an owner's per-type state once, and the
        # masks and geometries are cached on the numbering, so the factories
        # of kinds on one kernel hold one state per owner
        built = collections.Counter()
        for kernel in {row.kernel for row in SET_KINDS.values()}:

            def counted(cls, factory, type_name, _type_state=kernel.type_state):
                built[factory, type_name] += 1
                return _type_state(factory, type_name)

            monkeypatch.setattr(kernel, "type_state", classmethod(counted))
        factories = {kind: factory8(kind) for kind in SET_KINDS}
        for owner in MAKER_OWNERS:
            for _ in range(2):
                sets = {kind: f.maker(owner)() for kind, f in factories.items()}
            assert sets["hybrid"].mask is sets["sparse"].mask is sets["pure"].mask
            assert sets["ranged-hybrid"].geometry is sets["ranged"].geometry
        assert built == {(f, owner): 1 for f in factories.values() for owner in MAKER_OWNERS}

    def test_unknown_kind_or_type_raises(self, factory8, worked_numbering):
        with pytest.raises(UnsupportedKindError):
            SetFactory(worked_numbering, ChunkConfig(8), "bogus")
        for kind in KERNEL_KINDS:
            f = factory8(kind)
            for _ in range(2):  # a failed lookup caches nothing
                with pytest.raises(UnknownTypeError):
                    f.maker("Nope")
            assert len(f.maker("A")()) == 0

    def test_geometry_is_shared_per_numbering_and_chunk_width(self, factory8, factory64):
        f8, g8 = factory8("ranged"), factory8("ranged-hybrid")
        f64 = factory64("ranged")
        for owner in MAKER_OWNERS:
            geometry = RangedPointsToSet.type_state
            assert geometry(f8, owner) is geometry(g8, owner)
            assert geometry(f8, owner) is not geometry(f64, owner)
            assert f8.maker(owner)().geometry is geometry(g8, owner)
        assert f8.maker("A") is not g8.maker("A")

    def test_interned_bases_are_per_factory(self):
        f = big_factory("shared")
        g = SetFactory(f.nr, f.cfg, "shared")
        folded = []
        for factory in (f, g, f):
            s = factory.maker("Object")()
            for i in range(1, 22):  # one fold, into a base of 1..21
                s.add(i)
            folded.append(s.base)
        assert folded[0] == folded[1] == folded[2]
        assert folded[2] is folded[0] and folded[1] is not folded[0]


class TestAdd:
    def test_naive_filters_incompatible(self, factory64):
        s = factory64("naive").maker("D")()
        assert s.add(6) is False  # index 6 is the B alloc, B is not a D
        assert s.add(9) is True

    def test_hybrid_threshold(self):
        f = big_factory("hybrid")
        s = f.maker("Object")()
        for i in range(1, 17):
            assert s.add(i) is True
        assert not spilled(s, "hybrid")
        assert s.add(17) is True
        assert spilled(s, "hybrid")
        assert len(s) == 17
        assert set(s.iterate()) == set(range(1, 18))

    def test_ranged_hybrid_threshold(self):
        f = big_factory("ranged-hybrid")
        s = f.maker("A")()
        # A's interval is [31, 90]: 60 compatible allocs
        for i in range(31, 47):
            assert s.add(i) is True
        assert not spilled(s, "ranged-hybrid")
        assert s.add(47) is True
        assert spilled(s, "ranged-hybrid") and len(s) == 17
        assert s.add(5) is False  # outside A's interval even after the spill

    def test_ranged_idempotent(self, factory64):
        s = factory64("ranged").maker("A")()
        assert s.add(5) is True
        assert s.add(5) is False

    def test_out_of_range(self, factory64):
        s = factory64("naive").maker("Object")()
        with pytest.raises(IndexOutOfRangeError):
            s.add(13)
        with pytest.raises(IndexOutOfRangeError):
            s.add(0)


def one_member(f, idx):
    """A root-owned set of f's exact kernel holding idx alone, its member
    state written directly rather than through add."""
    src = f.maker("Object")()
    if type(src) is NaiveSet:
        src.members = {idx}
    else:
        src.bits = 1 << idx
    return src


def add_state(s, kind):
    """What add may change: members, objects, modeled bytes, shared's
    interned base and ranged's copied positions."""
    state = [s.as_int(), s.objects_int(), footprint(s, kind)]
    if kind == "shared":
        state.append(s.base)
    if kind in RANGED:
        state.append(s.copies)
    return state


@pytest.mark.parametrize("kind", sorted(SET_KINDS))
def test_add_is_a_one_member_union(kind):
    # add(idx), over random inserts in no particular order (out-of-range
    # ones among them) and interleaved unions from sets of the same kind,
    # against an independent reference: the owner's compatible indices by
    # brute force.  idx joins the members iff it is compatible; an index
    # outside [1, total] raises and changes nothing.  For an exact kind, add
    # is also a union of a root-owned source holding idx alone: a twin set
    # that takes those unions ends in the same state, shared's base and
    # modeled bytes included.  For a ranged kind, add admits no slack: the
    # objects are the members within the intervals, and no copy is recorded
    rng = random.Random(35)
    seen = collections.Counter()
    for _ in range(25):
        classes, ifaces, allocs = random_hierarchy(rng)
        if not allocs:
            continue
        nr = number_allocations(build_hierarchy(classes, ifaces), allocs)
        f = SetFactory(nr, ChunkConfig(rng.choice((8, 64))), kind)
        total = nr.total_allocs
        supertypes = closure_supertypes(classes, ifaces)
        type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
        for owner in ["Object"] + rng.sample(type_names, min(3, len(type_names))):
            compatible = sum(1 << i for i in compatible_indices(nr, supertypes, owner))
            make = f.maker(owner)
            s, twin = make(), make()
            for _ in range(rng.randint(1, 3 * total)):
                roll = rng.random()
                if roll < 0.1:
                    src = f.maker(rng.choice(type_names))()
                    for i in rng.sample(range(1, total + 1), rng.randint(0, total)):
                        src.add(i)
                    changed = s.add_all(src)
                    if kind not in RANGED:
                        assert twin.add_all(src) == changed
                elif roll < 0.15:
                    idx = rng.choice((0, -1, total + 1, 10 * total))
                    before = add_state(s, kind)
                    with pytest.raises(IndexOutOfRangeError):
                        s.add(idx)
                    assert add_state(s, kind) == before
                    seen["out of range"] += 1
                else:
                    idx = rng.randint(1, total)
                    members = s.as_int()
                    copies = s.copies if kind in RANGED else None
                    changed = s.add(idx)
                    want = members | (1 << idx & compatible)
                    assert changed == (want != members)
                    assert s.as_int() == want, (owner, kind, idx)
                    if kind in RANGED:
                        assert (s.objects_int(), s.copies) == (want & compatible, copies)
                    else:
                        assert twin.add_all(one_member(f, idx)) == changed
                    seen["changed" if changed else "unchanged"] += 1
                if kind not in RANGED:
                    assert add_state(s, kind) == add_state(twin, kind), (owner, kind)
            seen["interface owner"] += owner in {i[0] for i in ifaces}
            if kind == "shared":
                seen["folded"] += bool(s.base)
            if kind in RANGED:
                seen["copies"] += bool(s.copies)
                seen["slack"] += s.as_int() != s.objects_int()
    want = {"changed", "unchanged", "interface owner", "out of range"}
    if kind == "shared":
        want.add("folded")
    if kind in RANGED:
        want |= {"copies", "slack"}
    assert want <= {k for k, n in seen.items() if n}, seen


@pytest.mark.parametrize("kind", sorted(SET_KINDS))
def test_add_out_of_range_changes_nothing(kind):
    f = big_factory(kind, cb=8)
    s = f.maker("Object")()
    for i in range(1, 40):
        s.add(i)
    before = add_state(s, kind)
    for idx in (0, -1, f.total + 1, 10 * f.total):
        with pytest.raises(IndexOutOfRangeError):
            s.add(idx)
        assert add_state(s, kind) == before


class TestAddAll:
    def test_universal_dst(self, factory64):
        f = factory64("naive")
        src = f.maker("Object")()
        src.add(6), src.add(9)
        dst = f.maker("Object")()
        assert dst.add_all(src) is True
        assert set(dst.iterate()) == {6, 9}

    def test_filtered_dst(self, factory64):
        f = factory64("naive")
        src = f.maker("Object")()
        src.add(6), src.add(10)
        dst = f.maker("D")()
        assert dst.add_all(src) is True
        assert set(dst.iterate()) == {10}

    def test_ranged_slack_admission(self, factory8):
        f = factory8("ranged")
        src = f.maker("Object")()
        src.add(2), src.add(5)
        dst = f.maker("A")()  # interval [3,8], alignedLower 0
        assert dst.add_all(src) is True
        assert set(dst.iterate()) == {2, 5}

    @pytest.mark.parametrize("kind", list(SET_KINDS))
    def test_union_across_factories(self, kind, worked_hierarchy, worked_numbering, factory64):
        # an equal but separately built numbering, another chunk width, and
        # another factory over the same numbering and width
        other_nr = number_allocations(worked_hierarchy, worked_allocs())
        dst = factory64(kind).maker("Object")()
        for other in (SetFactory(other_nr, ChunkConfig(64), kind),
                      SetFactory(worked_numbering, ChunkConfig(8), kind),
                      factory64(kind)):
            src = other.maker("Object")()
            src.add(3)
            with pytest.raises(ConfigMismatchError):
                dst.add_all(src)
        assert len(dst) == 0


@pytest.mark.parametrize(
    "dst_kind, src_kind", list(itertools.permutations(KERNEL_KINDS, 2))
)
def test_union_from_another_kernel_raises(dst_kind, src_kind, factory8):
    # a set of another kernel comes from another factory, so the factory
    # test every union makes rejects it; the destination keeps its state
    dst = factory8(dst_kind).maker("A")()
    src = factory8(src_kind).maker("Object")()
    for i in range(1, 13):
        dst.add(i)
        src.add(i)
    before = add_state(dst, dst_kind)
    with pytest.raises(ConfigMismatchError):
        dst.add_all(src)
    assert add_state(dst, dst_kind) == before


class TestQueries:
    def test_fresh(self, factory64):
        for kind in SET_KINDS:
            s = factory64(kind).maker("A")()
            assert len(s) == 0 and list(s.iterate()) == []

    def test_contains_after_add(self, factory64):
        s = factory64("sparse").maker("A")()
        s.add(5)
        assert 5 in s and 6 not in s


def apply_op(factory, s, op, elementwise=False):
    """Apply one log entry to s, a set of factory's, and return whether s
    changed; elementwise=True replaces a bulk union by single insertions of
    the source's members in ascending order."""
    if op[0] == "add":
        return s.add(op[1])
    other = factory.maker(op[1])()
    for i in op[2]:
        other.add(i)
    if elementwise:
        return any([s.add(i) for i in sorted(other.iterate())])
    return s.add_all(other)


def apply_log(factory, owner, log, elementwise=False):
    """Replay log on a fresh set of factory's."""
    s = factory.maker(owner)()
    for op in log:
        apply_op(factory, s, op, elementwise)
    return s


def random_log(rng, total, type_names):
    log = []
    for _ in range(rng.randint(1, 25)):
        if rng.random() < 0.6:
            log.append(("add", rng.randint(1, total)))
        else:
            src_type = rng.choice(type_names)
            members = [rng.randint(1, total) for _ in range(rng.randint(0, 30))]
            log.append(("addall", src_type, members))
    return log


def assert_bulk_matches_elementwise(factory, kind, owner, log):
    """Same members, modeled bytes and, for shared, fold points: a bulk
    union must re-encode exactly as ascending single insertions do."""
    bulk = apply_log(factory, owner, log)
    one = apply_log(factory, owner, log, elementwise=True)
    assert list(bulk.iterate()) == list(one.iterate()), (kind, owner)
    assert footprint(bulk, kind) == footprint(one, kind), (kind, owner)
    if kind == "shared":
        assert bulk.base == one.base, owner
        assert bulk.bits ^ bulk.base == one.bits ^ one.base, owner
        for s in (bulk, one):
            # the overflow is read off the member int and the interned base;
            # a fold that keeps no overflow leaves no second int
            if s.base and not s.bits ^ s.base:
                assert s.bits is s.base, owner
    return bulk


class TestOracleEquivalence:
    def test_exact_kinds_match_naive(self):
        rng = random.Random(21)
        for _ in range(15):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            f = {kind: SetFactory(nr, ChunkConfig(64), kind) for kind in EXACT_KINDS}
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(6):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                ref = set(apply_log(f["naive"], owner, log).iterate())
                for kind in EXACT_KINDS[1:]:
                    got = set(apply_log(f[kind], owner, log).iterate())
                    assert got == ref, (kind, owner)

    def test_bulk_union_matches_elementwise(self):
        rng = random.Random(24)
        for _ in range(15):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(6):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                for kind in EXACT_KINDS:
                    f = SetFactory(nr, ChunkConfig(8), kind)
                    assert_bulk_matches_elementwise(f, kind, owner, log)

    def test_bulk_union_spill_and_fold_points(self):
        # unions ending below, at and past the hybrid spill (17th member)
        # and the shared folds (21st and 42nd overflow member)
        # A's interval is [31, 90]
        factories = {kind: big_factory(kind) for kind in EXACT_KINDS}
        for held in (0, 5, 16, 20):
            for k in range(41):
                log = [("add", i) for i in range(31, 31 + held)]
                log.append(("addall", "Object", list(range(50, 50 + k))))
                for kind, f in factories.items():
                    assert_bulk_matches_elementwise(f, kind, "A", log)

    def test_shared_fold_on_a_wide_universe(self):
        # universes of 1,200 and 5,700 allocations, the second as wide as
        # the deep benchmark's member ints: one bulk union whose members
        # reach across A's interval, after 0, 7 or 20 held overflow
        # members below or above them, leaves every kept count 0..20 after
        # one fold and after two; the overflow keeps the top new members
        for per_class in (400, 1900):
            f = big_factory("shared", per_class=per_class)
            # A's interval is [per_class + 1, 3 * per_class]
            lo, hi = per_class + 1, 3 * per_class
            kept = set()
            for held in (0, 7, 20):
                for held_members in (range(lo, lo + held), range(hi, hi - held, -1)):
                    rest = [i for i in range(lo, hi + 1) if i not in held_members]
                    for m in range(SHARED_OVERFLOW_CAP + 1 - held, 63 - held):
                        bulk = [rest[j * len(rest) // m] for j in range(m)]
                        log = [("add", i) for i in held_members]
                        log.append(("addall", "Object", bulk))
                        s = assert_bulk_matches_elementwise(f, "shared", "A", log)
                        k = (held + m) % (SHARED_OVERFLOW_CAP + 1)
                        top = sum(1 << i for i in bulk[m - k:])
                        assert s.bits ^ s.base == top, (per_class, held, m)
                        kept.add(k)
            assert kept == set(range(SHARED_OVERFLOW_CAP + 1)), per_class

    def test_ranged_conservative_superset(self):
        rng = random.Random(22)
        for _ in range(15):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            cb = 8
            f = {kind: SetFactory(nr, ChunkConfig(cb), kind) for kind in ("naive",) + RANGED}
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(6):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                exact = set(apply_log(f["naive"], owner, log).iterate())
                for kind in RANGED:
                    got = set(apply_log(f[kind], owner, log).iterate())
                    assert got >= exact, (kind, owner)
                    ivs = [iv for iv in intervals_of(nr, owner) if not iv.empty]
                    for e in got - exact:
                        assert any(
                            iv.lower - (cb - 1) <= e < iv.lower
                            or iv.upper < e <= iv.upper + (cb - 1)
                            for iv in ivs
                        ), (kind, owner, e)

    def test_hybrid_transparency(self):
        f = {kind: big_factory(kind) for kind in ("pure", "hybrid", "ranged", "ranged-hybrid")}
        rng = random.Random(23)
        for owner in ("Object", "A", "B"):
            log = random_log(rng, f["pure"].total, ["Object", "A", "B"])
            assert set(apply_log(f["hybrid"], owner, log).iterate()) == set(
                apply_log(f["pure"], owner, log).iterate()
            )
            assert set(apply_log(f["ranged-hybrid"], owner, log).iterate()) == set(
                apply_log(f["ranged"], owner, log).iterate()
            )


def assert_set_contract(s, kind):
    """The queries every kind answers agree with each other."""
    members = list(s.iterate())
    assert members == sorted(set(members)), kind
    assert len(s) == len(members), kind
    held = set(members)
    objects = list(s.iterate_objects())
    assert set(objects) <= held, kind
    bits = s.objects_int()
    assert [i for i in range(bits.bit_length()) if bits >> i & 1] == objects, kind
    for i in range(1, s.factory.total + 1):
        assert (i in s) == (i in held), (kind, i)


class TestSetContract:
    def test_queries_agree_before_and_after_spill_and_fold(self):
        rng = random.Random(26)
        spills = folded = 0
        for _ in range(10):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(4):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                for kind in SET_KINDS:
                    f = SetFactory(nr, ChunkConfig(8), kind)
                    s = f.maker(owner)()
                    assert_set_contract(s, kind)
                    for op in log:
                        apply_op(f, s, op)
                        assert_set_contract(s, kind)
                    if kind in ("hybrid", "ranged-hybrid"):
                        spills += spilled(s, kind)
                    elif kind == "shared":
                        folded += s.base != 0
        # the logs must reach both re-encodings, or the test checks less
        # than it claims
        assert spills and folded

    @pytest.mark.parametrize("kind", ["hybrid", "ranged-hybrid"])
    def test_union_stays_inline_up_to_cap(self, kind):
        f = big_factory(kind)  # A's interval is [31, 90]
        for held in (0, 5, HYBRID_INLINE_CAP):
            for k in range(held, 41):
                s = f.maker("A")()
                for i in range(31, 31 + held):
                    s.add(i)
                src = f.maker("Object")()
                for i in range(31, 31 + k):
                    src.add(i)
                s.add_all(src)
                assert len(s) == k, (held, k)
                assert spilled(s, kind) == (k > HYBRID_INLINE_CAP), (held, k)


@pytest.mark.parametrize(
    "kind, cap",
    [
        ("hybrid", HYBRID_INLINE_CAP),
        ("ranged-hybrid", HYBRID_INLINE_CAP),
        ("shared", SHARED_OVERFLOW_CAP),
    ],
)
def test_union_cost_does_not_grow_with_unspilled_members(kind, cap):
    # a union must not cost more for each member held inline or in the
    # overflow: those members are one int, not a list to rebuild
    f = big_factory(kind)  # A's interval is [31, 90]
    per_union = []
    for held in (1, cap):
        s = f.maker("A")()
        src = f.maker("A")()
        for i in range(31, 31 + held):
            s.add(i)
            src.add(i)
        if kind == "shared":
            assert s.base == 0  # not folded
        else:
            assert not spilled(s, kind)
        changed, lines = _line_events(
            lambda: [s.add_all(src) for _ in range(100)], only=ptsets.__file__
        )
        assert not any(changed)
        per_union.append(lines / 100)
    assert per_union[0] == per_union[1], per_union


def owner_relation(compat, src_owner, dst_owner):
    """How the source owner's compatible set meets the destination's."""
    inner, outer = compat[src_owner], compat[dst_owner]
    if src_owner == dst_owner:
        return "same type"
    if inner <= outer:
        return "subset"
    if not inner & outer:
        return "disjoint"
    return "superset" if inner > outer else "overlapping"


def test_naive_union_is_the_filtered_source():
    # naive sets of every owner pair (the same type, a source type whose
    # compatible set lies within the destination's, one whose compatible
    # set strictly contains it, overlapping and disjoint ones, a type with
    # no allocation) take exactly
    # src ∩ compatible(dst) from each union, and report a change iff that
    # adds a member.  A union from a source the filter cannot trim (the
    # same type or a subset) that adds nothing leaves the destination's
    # hash table at its size; merging a set into another resizes the table
    # for the incoming count up front, new members or not
    rng = random.Random(34)
    seen = collections.Counter()
    for _ in range(30):
        classes, ifaces, allocs = random_hierarchy(rng, max_ifaces=5)
        if not allocs:
            continue
        classes.append(("Bare", rng.choice(classes)[0], ()))  # no allocation
        nr = number_allocations(build_hierarchy(classes, ifaces), allocs)
        f = SetFactory(nr, ChunkConfig(8), "naive")
        supertypes = closure_supertypes(classes, ifaces)
        type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
        compat = {t: compatible_indices(nr, supertypes, t) for t in type_names}
        assert not compat["Bare"]
        owners = [t for t in type_names for _ in range(2)]
        sets = [f.maker(t)() for t in owners]
        want = [set() for _ in sets]
        for _ in range(400):
            d = rng.randrange(len(sets))
            dst, dst_owner = sets[d], owners[d]
            if rng.random() < 0.3:
                idx = rng.randint(1, nr.total_allocs)
                calls, covered = 1, False
                new = {idx} & compat[dst_owner] - want[d]
                op = partial(dst.add, idx)
            else:
                s = rng.randrange(len(sets))
                src_owner = owners[s]
                relation = owner_relation(compat, src_owner, dst_owner)
                seen[relation] += 1
                seen["no allocation"] += "Bare" in (src_owner, dst_owner)
                calls = 2  # the repeat adds nothing, whatever the first added
                covered = relation in ("same type", "subset")
                new = want[s] & compat[dst_owner] - want[d]
                op = partial(dst.add_all, sets[s])
            for _ in range(calls):
                size = sys.getsizeof(dst.members)
                assert op() == bool(new)
                want[d] |= new
                assert dst.members == want[d]
                if covered and not new:
                    assert sys.getsizeof(dst.members) == size
                new = set()
        seen["large sets"] += max(map(len, want)) > 20
    # every owner relation, a type with no allocation and sets past 20
    # members are reached, or the test checks less than it claims
    assert len(seen) == 7 and all(seen.values()), seen


@pytest.mark.parametrize("cb", [8, 64])
def test_byte_rules_read_the_member_int(cb):
    # hybrid and sparse are pure sets, so one pure set is charged three
    # ways from its member int.  hybrid is charged 16 inline slots up to 16
    # members, then the pure vector plus a reference to it; sparse is
    # charged one element per eight-chunk window its members touch, and
    # sparse_savings of the pure set charges the others
    assert {SET_KINDS[k].kernel for k in ("pure", "hybrid", "sparse")} == {
        PureBitVectorSet
    }
    rng = random.Random(33)
    window_bits = 8 * cb
    seen = {"at cap": 0, "spilled": 0, "several elements": 0}

    def replay(f, owner, log):
        s = f.maker(owner)()
        all_windows = -(-f.universe_chunks // SPARSE_ELEMENT_WORDS)
        for op in [None, *log]:
            if op is not None:
                apply_op(f, s, op)
            members = s.as_int()
            if members.bit_count() <= 16:
                assert footprint(s, "hybrid") == 144
            else:
                assert footprint(s, "hybrid") == 152 + footprint(s, "pure")
            windows = {
                i // window_bits for i in range(members.bit_length()) if members >> i & 1
            }
            assert footprint(s, "sparse") == 16 + len(windows) * (24 + cb), op
            assert sparse_savings(s, "pure") == (all_windows - len(windows)) * cb, op
            seen["at cap"] += members.bit_count() == 16
            seen["spilled"] += members.bit_count() > 16
            seen["several elements"] += len(windows) > 1

    # window boundaries: the empty set, a lone member on a window's first
    # bit, and a member on a window's last bit next to one in the following
    # window (universe of 600 allocs: 2 windows at cb 64, 10 at cb 8)
    f = big_factory("pure", per_class=200, cb=cb)
    replay(f, "Object", [])
    replay(f, "Object", [("add", window_bits)])
    replay(f, "Object", [("addall", "Object", [window_bits - 1, window_bits])])
    replay(f, "Object", [("add", window_bits - 1), ("add", window_bits)])
    for _ in range(12):
        classes, ifaces, _ = random_hierarchy(rng)
        allocs = [
            AllocSite(f"{c[0]}_{k}", c[0])
            for c in classes
            for k in range(rng.randint(0, 100))
        ]
        if not allocs:
            continue
        nr = number_allocations(build_hierarchy(classes, ifaces), allocs)
        f = SetFactory(nr, ChunkConfig(cb), "pure")
        type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
        for _ in range(6):
            replay(f, rng.choice(type_names), random_log(rng, nr.total_allocs, type_names))
    # every branch of both rules is reached, or the test checks less than
    # it claims
    assert all(seen.values()), seen


@pytest.mark.parametrize("cb", [8, 64])
def test_ranged_hybrid_is_ranged_charged_by_member_count(cb):
    # a ranged-hybrid set is a ranged set, so one ranged set is charged both
    # ways: as ranged-hybrid it keeps no chunk arrays and is charged 16
    # inline slots up to 16 members, then ranged's chunk arrays and vectors
    # plus a reference to them
    assert SET_KINDS["ranged-hybrid"].kernel is SET_KINDS["ranged"].kernel
    rng = random.Random(28)
    seen = {"at cap": 0, "spilled": 0, "copy only": 0, "shared chunk": 0}
    for _ in range(80):
        classes, ifaces, allocs = random_hierarchy(rng, max_ifaces=6)
        if not allocs:
            continue
        nr = number_allocations(build_hierarchy(classes, ifaces), allocs)
        f = SetFactory(nr, ChunkConfig(cb), "ranged")
        type_names = [c[0] for c in classes] + [i[0] for i in ifaces]

        def shares_a_chunk(t):
            spans = [aligned_span((iv.lower, iv.upper), cb) for iv in intervals_of(nr, t)]
            return any(a[1] >= b[0] for a, b in zip(spans, spans[1:]))

        # where the two forms could differ: owners whose vectors share a chunk
        owners = [t for t in type_names if shares_a_chunk(t)]
        for owner in owners + rng.sample(type_names, min(3, len(type_names))):
            s = f.maker(owner)()
            for op in random_log(rng, nr.total_allocs, type_names):
                before = s.as_int()
                changed = apply_op(f, s, op)
                n = len(s)
                if n <= HYBRID_INLINE_CAP:
                    assert not spilled(s, "ranged-hybrid")
                    assert arrays(s, "ranged-hybrid") == []
                    assert footprint(s, "ranged-hybrid") == 144
                else:
                    assert spilled(s, "ranged-hybrid")
                    assert arrays(s, "ranged-hybrid") == arrays(s, "ranged"), (owner, op)
                    assert footprint(s, "ranged-hybrid") == 152 + footprint(s, "ranged")
                seen["at cap"] += n == HYBRID_INLINE_CAP
                seen["spilled"] += n > HYBRID_INLINE_CAP
                seen["copy only"] += changed and s.as_int() == before
                seen["shared chunk"] += n > HYBRID_INLINE_CAP and owner in owners
    # every form is reached, and spilled sets whose vectors share a chunk
    # and unions that only copy a member, or the test checks less than it
    # claims
    assert all(seen.values()), seen


@pytest.mark.parametrize("cb", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", RANGED)
def test_ranged_objects_are_the_members_within_the_intervals(kind, cb):
    # a ranged set keeps its objects as an int beside its members: after
    # every add (by interval) and add_all (by chunk span, from sources that
    # may hold slack), that int is the members within the owner's
    # intervals, and while the set holds no slack it is the member int
    # itself
    rng = random.Random(30)
    seen = {"slack": 0, "slack source": 0, "add": 0}
    for _ in range(12):
        classes, ifaces, allocs = random_hierarchy(rng, max_ifaces=6)
        if not allocs:
            continue
        nr = number_allocations(build_hierarchy(classes, ifaces), allocs)
        f = SetFactory(nr, ChunkConfig(cb), kind)
        type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
        for owner in rng.sample(type_names, min(4, len(type_names))):
            s = f.maker(owner)()
            interval_bits = RangedPointsToSet.type_state(f, owner).interval_bits
            for _ in range(15):
                if rng.random() < 0.3:
                    s.add(rng.randint(1, nr.total_allocs))
                    seen["add"] += 1
                else:
                    log = random_log(rng, nr.total_allocs, type_names)
                    src = apply_log(f, rng.choice(type_names), log)
                    s.add_all(src)
                    seen["slack source"] += src.as_int() != src.objects_int()
                members, objects = s.as_int(), s.objects_int()
                assert objects == members & interval_bits, (owner, cb)
                assert list(s.iterate_objects()) == [
                    i for i in range(objects.bit_length()) if objects >> i & 1
                ]
                if objects == members:
                    assert objects is members
                seen["slack"] += objects != members
    # inserts, sources holding slack and sets holding slack are reached, or
    # the test checks less than it claims
    assert all(seen.values()), seen


def _partly_overlap(x, y):
    return x[0] < y[0] <= x[1] < y[1] or y[0] < x[0] <= y[1] < x[1]


@pytest.mark.parametrize("cb", [8, 16, 32, 64])
@pytest.mark.parametrize("kind", RANGED)
def test_ranged_union_is_or_overlapping_per_vector(kind, cb):
    # RangedBitVector is the reference a ranged union follows: each union
    # into a ranged set is replayed on one reference vector per interval of
    # the destination.  A source gives every vector its objects, of which
    # or_overlapping takes those inside the vector's chunks; add(i) gives a
    # vector i if i is within its interval.  The union returns whether some
    # vector changed, and the set's chunk arrays are the vectors' (chunk
    # count, value)
    cfg = ChunkConfig(cb)
    chunk_arrays = SET_KINDS["ranged"].chunk_arrays
    rng = random.Random(31)
    seen = {"copy only": 0, "slack source": 0, "partly overlapping spans": 0}
    calls = 0
    # at least 5,000 calls, and more until every case below is reached
    while calls < 5000 or not all(seen.values()) and calls < 50_000:
        # interfaces over runs of classes, so spans share chunks; at wider
        # chunks, some corpora with more allocs a class, so spans also
        # overlap partly
        nr, compat = _union_corpus(rng, rng.choice((6, max(6, cb // 2))))
        f = SetFactory(nr, cfg, kind)
        sets, vectors, spans = {}, {}, {}
        for t in compat:
            ivs = intervals_of(nr, t)
            sets[t] = f.maker(t)()
            vectors[t] = [
                (RangedBitVector(iv, cfg), (1 << iv.upper + 1) - (1 << iv.lower)) for iv in ivs
            ]
            spans[t] = [aligned_span((iv.lower, iv.upper), cb) for iv in ivs]
        # some of each type's own members first, and every shared position
        # (so a ranged source can copy it), then every ordered pair of types
        # twice, so sets hold members before they act as sources
        ops = [
            (t, t, i)
            for t in compat
            for i in compat[t]
            if RangedPointsToSet.type_state(f, t).shared_bits >> i & 1 or rng.random() < 0.3
        ]
        pairs = [(dt, st, None) for dt in compat for st in compat] * 2
        rng.shuffle(pairs)
        for dt, st, i in ops + pairs:
            dst, before = sets[dt], sets[dt].as_int()
            roll = rng.random()
            if i is not None or roll < 0.3:
                i = i or rng.randint(1, nr.total_allocs)
                changed = dst.add(i)
                wanted = [v.or_overlapping((1 << i) & own) for v, own in vectors[dt]]
            else:
                src = sets[st]
                changed = dst.add_all(src)
                bits = src.objects_int()
                wanted = [v.or_overlapping(bits) for v, _ in vectors[dt]]
                seen["slack source"] += src.as_int() != bits
                seen["partly overlapping spans"] += any(
                    _partly_overlap(x, y) for x in spans[dt] for y in spans[st]
                )
            assert changed == any(wanted), (dt, st, cb)
            held = [(v.num_chunks, v.value) for v, _ in vectors[dt]]
            assert chunk_arrays(dst) == held, (dt, st, cb)
            seen["copy only"] += changed and dst.as_int() == before
            calls += 1
    # copy-only changes, sources holding slack and partly overlapping spans
    # are each reached, or the test checks less than it claims
    assert all(seen.values()), (seen, calls)


@pytest.mark.parametrize("cb", [8, 16, 32, 64])
def test_ranged_geometry_matches_aligned_spans(cb):
    # per owner, index by index: interval bits are the compatible allocs,
    # span bits the chunks of their runs, shared bits the compatible allocs
    # another run's chunks cover; the bytes charge each run's chunks
    rng = random.Random(29)
    shared = 0
    for _ in range(30):
        classes, ifaces, allocs = random_hierarchy(rng, max_ifaces=6)
        if not allocs:
            continue
        nr = number_allocations(build_hierarchy(classes, ifaces), allocs)
        f = SetFactory(nr, ChunkConfig(cb), "ranged")
        supertypes = closure_supertypes(classes, ifaces)
        for owner in [c[0] for c in classes] + [i[0] for i in ifaces]:
            compat = compatible_indices(nr, supertypes, owner)
            runs = runs_of(compat)
            spans = [aligned_span(r, cb) for r in runs]
            g = RangedPointsToSet.type_state(f, owner)
            assert g.interval_bits == sum(1 << i for i in compat)
            covered = {i for lo, hi in spans for i in range(lo, hi + 1)}
            assert g.span_bits == sum(1 << i for i in covered)
            want = {
                i
                for ((lo, hi), _), (_, (slo, shi)) in itertools.permutations(zip(runs, spans), 2)
                for i in range(max(lo, slo), min(hi, shi) + 1)
            }
            assert g.shared_bits == sum(1 << i for i in want), owner
            assert g.bytes == OBJECT_HEADER + sum(
                ARRAY_HEADER + (hi - lo + 1) // 8 for lo, hi in spans
            )
            shared += bool(want)
    # owners whose runs share a chunk, or the shared bits go unchecked
    assert shared, shared


class TestSharingSafety:
    def test_no_aliasing_through_interned_bases(self):
        f = big_factory("shared")
        a = f.maker("Object")()
        b = f.maker("Object")()
        for i in range(1, 22):  # force a to fold into an interned base
            a.add(i)
        snapshot = set(b.iterate())
        for i in range(1, 22):
            b.add(i)  # b folds into the same interned base
        b.add(25)
        assert set(a.iterate()) == set(range(1, 22))
        assert snapshot == set()
        a2 = set(a.iterate())
        b.add(30)
        assert set(a.iterate()) == a2


class TestFootprint:
    def test_empty_ranged_over_empty_interval(self):
        h = build_hierarchy([("Object", None, ()), ("L", "Object", ())])
        nr = number_allocations(h, [AllocSite("o", "Object")])
        f = SetFactory(nr, ChunkConfig(64), "ranged")
        s = f.maker("L")()
        assert intervals_of(nr, "L") == [] and arrays(s, "ranged") == []
        assert footprint(s, "ranged") == OBJECT_HEADER

    def test_ranged_vector_bytes(self):
        h = build_hierarchy([("Object", None, ()), ("L", "Object", ())])
        allocs = [AllocSite(f"o{i}", "Object") for i in range(9)] + [
            AllocSite(f"l{i}", "L") for i in range(11)
        ]
        nr = number_allocations(h, allocs)
        f = SetFactory(nr, ChunkConfig(8), "ranged")
        s = f.maker("L")()  # interval [10, 20]: 2 one-byte chunks
        assert footprint(s, "ranged") == OBJECT_HEADER + ARRAY_HEADER + 2

    def test_pure_bytes(self, factory64):
        s = factory64("pure").maker("Object")()
        assert footprint(s, "pure") == OBJECT_HEADER + ARRAY_HEADER + 8

    def test_ranged_never_larger_than_pure_for_subchunk_classes(self):
        f = big_factory("ranged", per_class=50, cb=8)
        g = SetFactory(f.nr, f.cfg, "pure")
        for owner in ("A", "B"):
            ranged = f.maker(owner)()
            pure = g.maker(owner)()
            if sum(n for n, _ in arrays(ranged, "ranged")) < f.universe_chunks:
                assert footprint(ranged, "ranged") <= footprint(pure, "pure")

    def test_shared_base_counted_once(self):
        f = big_factory("shared")
        sets = []
        for _ in range(4):
            s = f.maker("Object")()
            for i in range(1, 22):
                s.add(i)
            sets.append(s)
        per_set = sum(footprint(s, "shared") for s in sets)
        total = f.total_footprint(sets, "shared")
        universe_chunks = f.total // 64 + 1
        assert total == per_set + (ARRAY_HEADER + universe_chunks * 8)

    def test_kind_charges_one_set_its_own_way(self):
        # a set made by a factory for hybrid or sparse is a pure kernel:
        # only the kind passed to total_footprint decides how it is charged,
        # and no shared base is charged unless the kind is shared
        for kind in ("pure", "hybrid", "sparse"):
            f = big_factory(kind)
            sets = [f.maker("Object")() for _ in range(3)]
            for s in sets:
                s.add(5)
            for charged_as in ("pure", "hybrid", "sparse"):
                assert f.total_footprint(sets, charged_as) == 3 * footprint(
                    sets[0], charged_as
                )
        assert footprint(sets[0], "pure") == OBJECT_HEADER + f.universe_bytes
        assert footprint(sets[0], "hybrid") == OBJECT_HEADER + 16 * 8
        assert footprint(sets[0], "sparse") == 2 * OBJECT_HEADER + 8 * 8 + 8

    def test_window_counts_are_per_chunk_width(self):
        # one member int charged through factories at two chunk widths gets
        # each width's own count, whichever width counts it first
        f8 = big_factory("sparse", per_class=200, cb=8)  # 600 allocs
        f64 = SetFactory(f8.nr, ChunkConfig(64), "sparse")
        members = (1, 70, 130, 600)  # windows 0, 1, 2, 9 of 64 bits; 0, 1 of 512
        for first, then in ((f8, f64), (f64, f8)):
            sets = [g.maker("Object")() for g in (first, then)]
            for s in sets:
                for i in members:
                    s.add(i)
            assert sets[0].bits == sets[1].bits
            charged = {s.factory.cfg.chunk_bits: footprint(s, "sparse") for s in sets}
            assert charged == {
                8: OBJECT_HEADER + 4 * (OBJECT_HEADER + 8 * 1 + REF_BYTES),
                64: OBJECT_HEADER + 2 * (OBJECT_HEADER + 8 * 8 + REF_BYTES),
            }
            assert f8.occupied_windows(sets[0].bits) == 4
            assert f64.occupied_windows(sets[0].bits) == 2


class TestSparseSavings:
    def test_all_zero_sixteen_words(self):
        f = big_factory("pure", per_class=200, cb=8)  # universe 600 allocs, 76 chunks
        s = f.maker("Object")()
        windows = -(-(f.total // 8 + 1) // SPARSE_ELEMENT_WORDS)
        assert sparse_savings(s, "pure") == windows * SPARSE_ELEMENT_WORDS

    def test_one_bit_per_window(self):
        f = big_factory("pure", per_class=200, cb=8)
        s = f.maker("Object")()
        window_bits = SPARSE_ELEMENT_WORDS * 8
        for w in range(-(-(f.total // 8 + 1) // SPARSE_ELEMENT_WORDS)):
            idx = max(1, w * window_bits)
            s.add(idx)
        assert sparse_savings(s, "pure") == 0

    def test_random_matches_window_oracle(self):
        rng = random.Random(31)
        f = big_factory("ranged", per_class=100, cb=8)
        for _ in range(40):
            s = f.maker(rng.choice(["Object", "A", "B"]))()
            for _ in range(rng.randint(0, 20)):
                s.add(rng.randint(1, f.total))
            arrays = [
                (n, {b for b in range(value.bit_length()) if value >> b & 1})
                for n, value in SET_KINDS["ranged"].chunk_arrays(s)
            ]
            assert sparse_savings(s, "ranged") == zero_window_savings(arrays, 8)

    def test_unsupported_kind(self, factory64):
        # sparse keeps no dense chunk arrays, though its kernel is pure's
        for kind in ("naive", "shared", "sparse"):
            with pytest.raises(UnsupportedKindError):
                sparse_savings(factory64(kind).maker("A")(), kind)
        # the kind passed decides, not the kind the set was made for
        empty = sparse_savings(factory64("pure").maker("A")(), "pure")
        assert sparse_savings(factory64("sparse").maker("A")(), "pure") == empty


@pytest.mark.parametrize("kind", sorted(SET_KINDS))
def test_charging_another_kernels_set_raises(kind, factory64):
    # total_footprint and sparse_savings charge only sets of the kind's own
    # kernel; measure charges through total_footprint
    f = factory64(kind)
    s = f.maker("A")()
    s.add(3)
    kernel = SET_KINDS[kind].kernel
    for other, row in SET_KINDS.items():
        if row.kernel is kernel:
            f.total_footprint([s], other)
            if row.chunk_arrays is not None:
                sparse_savings(s, other)
            continue
        with pytest.raises(ConfigMismatchError):
            f.total_footprint([s], other)
        # a set of another kernel raises wherever it stands in the list
        t = factory64(other).maker("A")()
        for mixed in ([s, t], [t, s]):
            with pytest.raises(ConfigMismatchError):
                f.total_footprint(mixed, kind)
        if row.chunk_arrays is not None:
            with pytest.raises(ConfigMismatchError):
                sparse_savings(s, other)


# each kernel's slots: its factory, its per-type state and its members,
# and no owner.  perfbench/run.py's py_bytes tells a set's own objects from
# those it shares with its factory by these names
KERNEL_ATTRS = {
    NaiveSet: {"factory", "members", "_compatible"},
    PureBitVectorSet: {"factory", "bits", "mask"},
    SharedBitVectorSet: {"factory", "base", "bits", "_mask"},
    RangedPointsToSet: {"factory", "geometry", "bits", "objects", "copies"},
}


def slot_names(cls):
    return {name for c in cls.__mro__ for name in c.__dict__.get("__slots__", ())}


@pytest.mark.parametrize("kind", sorted(SET_KINDS))
def test_sets_hold_only_their_kernel_state(kind):
    f = big_factory(kind, cb=8)  # A's interval is [31, 90]
    src = f.maker("Object")()
    for i in range(1, f.total + 1):
        src.add(i)
    s = f.maker("A")()
    kernel = SET_KINDS[kind].kernel
    want = KERNEL_ATTRS[kernel]
    # a kernel, or a base, that forgets __slots__ gives its sets a __dict__
    assert slot_names(kernel) == want
    assert not hasattr(s, "__dict__")
    # py_bytes walks the most-derived class's own __slots__
    assert kernel.__dict__["__slots__"]
    for held in (s, src):
        assert all(hasattr(held, name) for name in want)
    assert s.add_all(src)  # past hybrid's slots and shared's first fold
    assert all(hasattr(s, name) for name in want)
    if kernel is RangedPointsToSet:
        assert not hasattr(s.geometry, "__dict__")
        assert type(s.geometry).__slots__


def test_each_kernel_is_bound_to_one_module_name():
    # the benchmark's tracer and the tests that count unions patch add_all
    # on every PointsToSet subclass in vars(ptsets): a second name for a
    # kernel would have it patched twice
    names = collections.defaultdict(list)
    for name, value in vars(ptsets).items():
        if isinstance(value, type) and issubclass(value, PointsToSet):
            names[value].append(name)
    assert all(len(n) == 1 for n in names.values()), dict(names)
    # four kernels and their base
    kernels = {NaiveSet, PureBitVectorSet, SharedBitVectorSet, RangedPointsToSet}
    assert {row.kernel for row in SET_KINDS.values()} == kernels
    assert set(names) == kernels | {PointsToSet}
    # a set answers no charging question: the kind's row does
    for cls in names:
        for attr in ("footprint_bytes", "chunk_arrays", "spilled", "dense_chunks", "kind"):
            assert not hasattr(cls, attr), (cls, attr)

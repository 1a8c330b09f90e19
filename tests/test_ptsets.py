import random

import pytest

from conftest import random_hierarchy, worked_allocs
from oracles import zero_window_savings
from rangepta.bitsets import ChunkConfig
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
    number_allocations,
)
from rangepta.ptsets import (
    ARRAY_HEADER,
    HYBRID_INLINE_CAP,
    OBJECT_HEADER,
    SET_KINDS,
    SetFactory,
    SPARSE_ELEMENT_WORDS,
    sparse_savings,
)

EXACT_KINDS = ("naive", "pure", "hybrid", "shared", "sparse")
RANGED = ("ranged", "ranged-hybrid")


@pytest.fixture
def factory8(worked_numbering):
    return SetFactory(worked_numbering, ChunkConfig(8))


@pytest.fixture
def factory64(worked_numbering):
    return SetFactory(worked_numbering, ChunkConfig(64))


def big_factory(per_class=30, cb=64):
    h = build_hierarchy(
        [("Object", None, ()), ("A", "Object", ()), ("B", "A", ())]
    )
    allocs = []
    for cls in ("Object", "A", "B"):
        allocs += [AllocSite(f"{cls}{i}", cls) for i in range(per_class)]
    nr = number_allocations(h, allocs)
    return SetFactory(nr, ChunkConfig(cb))


class TestMakeSet:
    def test_ranged_class(self, factory64):
        s = factory64.make_set("ranged", "A")
        assert [v.interval for v in s.vectors] == [Interval(3, 8)]

    def test_ranged_interface(self, factory64):
        s = factory64.make_set("ranged", "I")
        assert [v.interval for v in s.vectors] == [Interval(6, 6), Interval(9, 12)]

    def test_hybrid_ranged_initial(self, factory64):
        s = factory64.make_set("ranged-hybrid", "A")
        assert s.inline == [] and s.overflow is None and len(s) == 0

    def test_unknown_owner(self, factory64):
        with pytest.raises(UnknownTypeError):
            factory64.make_set("ranged", "Nope")

    def test_all_kinds_start_empty(self, factory64):
        for kind in SET_KINDS:
            s = factory64.make_set(kind, "Object")
            assert len(s) == 0 and list(s.iterate()) == []


class TestAdd:
    def test_naive_filters_incompatible(self, factory64):
        s = factory64.make_set("naive", "D")
        assert s.add(6) is False  # index 6 is the B alloc, B is not a D
        assert s.add(9) is True

    def test_hybrid_threshold(self):
        f = big_factory()
        s = f.make_set("hybrid", "Object")
        for i in range(1, 17):
            assert s.add(i) is True
        assert s.overflow is None
        assert s.add(17) is True
        assert s.overflow is not None
        assert len(s) == 17
        assert set(s.iterate()) == set(range(1, 18))

    def test_ranged_hybrid_threshold(self):
        f = big_factory()
        s = f.make_set("ranged-hybrid", "A")
        # A's interval is [31, 90]: 60 compatible allocs
        for i in range(31, 48):
            assert s.add(i) is True
        assert s.overflow is not None and len(s) == 17
        assert s.add(5) is False  # outside A's interval even after overflow

    def test_ranged_idempotent(self, factory64):
        s = factory64.make_set("ranged", "A")
        assert s.add(5) is True
        assert s.add(5) is False

    def test_out_of_range(self, factory64):
        s = factory64.make_set("naive", "Object")
        with pytest.raises(IndexOutOfRangeError):
            s.add(13)
        with pytest.raises(IndexOutOfRangeError):
            s.add(0)


class TestAddAll:
    def test_universal_dst(self, factory64):
        src = factory64.make_set("naive", "Object")
        src.add(6), src.add(9)
        dst = factory64.make_set("naive", "Object")
        assert dst.add_all(src) is True
        assert set(dst.iterate()) == {6, 9}

    def test_filtered_dst(self, factory64):
        src = factory64.make_set("naive", "Object")
        src.add(6), src.add(10)
        dst = factory64.make_set("naive", "D")
        assert dst.add_all(src) is True
        assert set(dst.iterate()) == {10}

    def test_ranged_slack_admission(self, factory8):
        src = factory8.make_set("ranged", "Object")
        src.add(2), src.add(5)
        dst = factory8.make_set("ranged", "A")  # interval [3,8], alignedLower 0
        assert dst.add_all(src) is True
        assert set(dst.iterate()) == {2, 5}

    def test_cross_representation(self, factory64):
        for src_kind in SET_KINDS:
            src = factory64.make_set(src_kind, "Object")
            for i in (3, 6, 9):
                src.add(i)
            for dst_kind in SET_KINDS:
                dst = factory64.make_set(dst_kind, "A")
                dst.add_all(src)
                if dst_kind in RANGED and src_kind in RANGED:
                    # chunk-wise path admits 9 as slack (one 64-bit chunk)
                    assert set(dst.iterate()) == {3, 6, 9}, (src_kind, dst_kind)
                else:
                    assert set(dst.iterate()) == {3, 6}, (src_kind, dst_kind)

    @pytest.mark.parametrize("kind", list(SET_KINDS))
    def test_union_across_factories(self, kind, worked_hierarchy, factory64):
        # an equal but separately built numbering, and another chunk width
        other_nr = number_allocations(worked_hierarchy, worked_allocs())
        dst = factory64.make_set(kind, "Object")
        for other in (SetFactory(other_nr, ChunkConfig(64)),
                      SetFactory(factory64.nr, ChunkConfig(8))):
            src = other.make_set(kind, "Object")
            src.add(3)
            with pytest.raises(ConfigMismatchError):
                dst.add_all(src)
        assert len(dst) == 0


class TestQueries:
    def test_fresh(self, factory64):
        for kind in SET_KINDS:
            s = factory64.make_set(kind, "A")
            assert len(s) == 0 and list(s.iterate()) == []

    def test_contains_after_add(self, factory64):
        s = factory64.make_set("sparse", "A")
        s.add(5)
        assert 5 in s and 6 not in s


def apply_op(factory, kind, s, op, elementwise=False):
    """Apply one log entry to s; elementwise=True replaces a bulk union by
    single insertions of the source's members in ascending order."""
    if op[0] == "add":
        s.add(op[1])
        return
    other = factory.make_set(kind, op[1])
    for i in op[2]:
        other.add(i)
    if elementwise:
        for i in sorted(other.iterate()):
            s.add(i)
    else:
        s.add_all(other)


def apply_log(factory, kind, owner, log, elementwise=False):
    """Replay log on a fresh set."""
    s = factory.make_set(kind, owner)
    for op in log:
        apply_op(factory, kind, s, op, elementwise)
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
    bulk = apply_log(factory, kind, owner, log)
    one = apply_log(factory, kind, owner, log, elementwise=True)
    assert list(bulk.iterate()) == list(one.iterate()), (kind, owner)
    assert bulk.footprint_bytes() == one.footprint_bytes(), (kind, owner)
    if kind == "shared":
        assert bulk.base == one.base, owner
        assert set(bulk.overflow) == set(one.overflow), owner


class TestOracleEquivalence:
    def test_exact_kinds_match_naive(self):
        rng = random.Random(21)
        for _ in range(15):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            f = SetFactory(nr, ChunkConfig(64))
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(6):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                ref = set(apply_log(f, "naive", owner, log).iterate())
                for kind in EXACT_KINDS[1:]:
                    got = set(apply_log(f, kind, owner, log).iterate())
                    assert got == ref, (kind, owner)

    def test_bulk_union_matches_elementwise(self):
        rng = random.Random(24)
        for _ in range(15):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            f = SetFactory(nr, ChunkConfig(8))
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(6):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                for kind in EXACT_KINDS:
                    assert_bulk_matches_elementwise(f, kind, owner, log)

    def test_bulk_union_spill_and_fold_points(self):
        # unions ending below, at and past the hybrid spill (17th member)
        # and the shared folds (21st and 42nd overflow member)
        f = big_factory()  # A's interval is [31, 90]
        for held in (0, 5, 16, 20):
            for k in range(41):
                log = [("add", i) for i in range(31, 31 + held)]
                log.append(("addall", "Object", list(range(50, 50 + k))))
                for kind in EXACT_KINDS:
                    assert_bulk_matches_elementwise(f, kind, "A", log)

    def test_ranged_conservative_superset(self):
        rng = random.Random(22)
        for _ in range(15):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            cb = 8
            f = SetFactory(nr, ChunkConfig(cb))
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(6):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                exact = set(apply_log(f, "naive", owner, log).iterate())
                for kind in RANGED:
                    got = set(apply_log(f, kind, owner, log).iterate())
                    assert got >= exact, (kind, owner)
                    from rangepta.hierarchy import intervals_of

                    ivs = [
                        iv
                        for iv in intervals_of(nr, h, owner)
                        if not iv.empty
                    ]
                    for e in got - exact:
                        assert any(
                            iv.lower - (cb - 1) <= e < iv.lower
                            or iv.upper < e <= iv.upper + (cb - 1)
                            for iv in ivs
                        ), (kind, owner, e)

    def test_hybrid_transparency(self):
        f = big_factory()
        rng = random.Random(23)
        for owner in ("Object", "A", "B"):
            log = random_log(rng, f.total, ["Object", "A", "B"])
            assert set(apply_log(f, "hybrid", owner, log).iterate()) == set(
                apply_log(f, "pure", owner, log).iterate()
            )
            assert set(apply_log(f, "ranged-hybrid", owner, log).iterate()) == set(
                apply_log(f, "ranged", owner, log).iterate()
            )


def assert_set_contract(s):
    """The queries every kind answers agree with each other."""
    members = list(s.iterate())
    assert members == sorted(set(members)), s.kind
    assert len(s) == len(members), s.kind
    held = set(members)
    objects = set(s.iterate_objects())
    assert objects <= held, s.kind
    for i in range(1, s.factory.total + 1):
        assert (i in s) == (i in held), (s.kind, i)
        assert s.contains_object(i) == (i in objects), (s.kind, i)


class TestSetContract:
    def test_queries_agree_before_and_after_spill_and_fold(self):
        rng = random.Random(26)
        spilled = folded = 0
        for _ in range(10):
            classes, ifaces, allocs = random_hierarchy(rng)
            if not allocs:
                continue
            h = build_hierarchy(classes, ifaces)
            nr = number_allocations(h, allocs)
            f = SetFactory(nr, ChunkConfig(8))
            type_names = [c[0] for c in classes] + [i[0] for i in ifaces]
            for trial in range(4):
                owner = rng.choice(type_names)
                log = random_log(rng, nr.total_allocs, type_names)
                for kind in SET_KINDS:
                    s = f.make_set(kind, owner)
                    assert_set_contract(s)
                    for op in log:
                        apply_op(f, kind, s, op)
                        assert_set_contract(s)
                    if kind in ("hybrid", "ranged-hybrid"):
                        spilled += s.overflow is not None
                    elif kind == "shared":
                        folded += s.base != 0
        # the logs must reach both re-encodings, or the test checks less
        # than it claims
        assert spilled and folded

    @pytest.mark.parametrize("kind", ["hybrid", "ranged-hybrid"])
    def test_union_stays_inline_up_to_cap(self, kind):
        f = big_factory()  # A's interval is [31, 90]
        for held in (0, 5, HYBRID_INLINE_CAP):
            for k in range(held, 41):
                s = f.make_set(kind, "A")
                for i in range(31, 31 + held):
                    s.add(i)
                src = f.make_set("naive", "Object")
                for i in range(31, 31 + k):
                    src.add(i)
                s.add_all(src)
                assert len(s) == k, (held, k)
                assert (s.overflow is None) == (k <= HYBRID_INLINE_CAP), (held, k)


class TestSharingSafety:
    def test_no_aliasing_through_interned_bases(self):
        f = big_factory()
        a = f.make_set("shared", "Object")
        b = f.make_set("shared", "Object")
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
        f = SetFactory(nr, ChunkConfig(64))
        s = f.make_set("ranged", "L")
        assert s.vectors == []
        assert s.footprint_bytes() == OBJECT_HEADER

    def test_ranged_vector_bytes(self):
        h = build_hierarchy([("Object", None, ()), ("L", "Object", ())])
        allocs = [AllocSite(f"o{i}", "Object") for i in range(9)] + [
            AllocSite(f"l{i}", "L") for i in range(11)
        ]
        nr = number_allocations(h, allocs)
        f = SetFactory(nr, ChunkConfig(8))
        s = f.make_set("ranged", "L")  # interval [10, 20]: 2 one-byte chunks
        assert s.footprint_bytes() == OBJECT_HEADER + ARRAY_HEADER + 2

    def test_pure_bytes(self, factory64):
        s = factory64.make_set("pure", "Object")
        assert s.footprint_bytes() == OBJECT_HEADER + ARRAY_HEADER + 8

    def test_ranged_never_larger_than_pure_for_subchunk_classes(self):
        f = big_factory(per_class=50, cb=8)
        for owner in ("A", "B"):
            ranged = f.make_set("ranged", owner)
            pure = f.make_set("pure", owner)
            if sum(v.num_chunks for v in ranged.vectors) < f.universe_chunks:
                assert ranged.footprint_bytes() <= pure.footprint_bytes()

    def test_shared_base_counted_once(self):
        f = big_factory()
        sets = []
        for _ in range(4):
            s = f.make_set("shared", "Object")
            for i in range(1, 22):
                s.add(i)
            sets.append(s)
        per_set = sum(s.footprint_bytes() for s in sets)
        total = f.total_footprint(sets)
        universe_chunks = f.total // 64 + 1
        assert total == per_set + (ARRAY_HEADER + universe_chunks * 8)


class TestSparseSavings:
    def test_all_zero_sixteen_words(self):
        f = big_factory(per_class=200, cb=8)  # universe 600 allocs, 76 chunks
        s = f.make_set("pure", "Object")
        windows = -(-(f.total // 8 + 1) // SPARSE_ELEMENT_WORDS)
        assert sparse_savings(s, f.cfg) == windows * SPARSE_ELEMENT_WORDS

    def test_one_bit_per_window(self):
        f = big_factory(per_class=200, cb=8)
        s = f.make_set("pure", "Object")
        window_bits = SPARSE_ELEMENT_WORDS * 8
        for w in range(-(-(f.total // 8 + 1) // SPARSE_ELEMENT_WORDS)):
            idx = max(1, w * window_bits)
            s.add(idx)
        assert sparse_savings(s, f.cfg) == 0

    def test_random_matches_window_oracle(self):
        rng = random.Random(31)
        f = big_factory(per_class=100, cb=8)
        for _ in range(40):
            s = f.make_set("ranged", rng.choice(["Object", "A", "B"]))
            for _ in range(rng.randint(0, 20)):
                s.add(rng.randint(1, f.total))
            arrays = [
                (
                    v.num_chunks,
                    {b - v.aligned_lower for b in v.iterate()},
                )
                for v in s.vectors
            ]
            assert sparse_savings(s, f.cfg) == zero_window_savings(arrays, 8)

    def test_unsupported_kind(self, factory64):
        with pytest.raises(UnsupportedKindError):
            sparse_savings(factory64.make_set("naive", "A"), factory64.cfg)

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import aligned_span, peel_bits, ranged_union_oracle
from rangepta.bitsets import ChunkConfig, RangedBitVector, _iter_bits, chunk_index_of
from rangepta.errors import ConfigMismatchError, InvalidParamsError
from rangepta.hierarchy import AllocSite, Interval, build_hierarchy, number_allocations
from rangepta.ptsets import SetFactory


def bits_of(indices):
    return sum(1 << i for i in indices)


def make_rbv(interval, cb, bits=()):
    """A vector holding bits, each inside its interval."""
    v = RangedBitVector(Interval(*interval), ChunkConfig(cb))
    for b in bits:
        assert interval[0] <= b <= interval[1]
    v.or_overlapping(bits_of(bits))
    return v


def members(v):
    return set(v.iterate())


class TestChunkIndex:
    def test_fig3_comment_case(self):
        # interval [10,20] with 8-bit chunks spans chunks 1..2
        assert chunk_index_of(10, ChunkConfig(8)) == 1
        assert chunk_index_of(20, ChunkConfig(8)) == 2

    def test_zero(self):
        assert chunk_index_of(0, ChunkConfig(64)) == 0

    def test_boundary(self):
        assert chunk_index_of(64, ChunkConfig(64)) == 1

    def test_bad_chunk_bits(self):
        with pytest.raises(InvalidParamsError):
            ChunkConfig(12)


class TestNew:
    def test_fig3_allocation(self):
        v = make_rbv((10, 20), 8)
        assert v.aligned_lower == 8
        assert v.num_chunks == 2

    def test_empty_interval(self):
        v = make_rbv((1, 0), 64)
        assert v.num_chunks == 0

    def test_low_interval(self):
        v = make_rbv((1, 12), 8)
        assert v.aligned_lower == 0
        assert v.num_chunks == 2

    def test_chunk_count_exhaustive(self):
        # chunk count equals the number of distinct chunks touched
        for cb in (8, 64):
            for lo in range(1, 40):
                for hi in range(lo, 40):
                    v = make_rbv((lo, hi), cb)
                    assert v.num_chunks == hi // cb - lo // cb + 1


class TestOr:
    """The union the solver runs: or_overlapping with a source already
    trimmed to its intervals, as RangedPointsToSet.objects_int passes it."""

    def test_offset_in_chunks(self):
        v = make_rbv((10, 20), 8)
        assert v.or_overlapping(bits_of([10]))
        # position 10 - alignedLower(8) = 2 within chunk 1
        assert v.value == 1 << 2
        assert members(v) == {10}

    def test_subrange_into_super(self):
        x = make_rbv((1, 12), 8)
        assert x.or_overlapping(bits_of([9])) is True
        assert members(x) == {9}

    def test_disjoint_no_op(self):
        # [3,7] and [9,12] share no chunk at width 8
        x = make_rbv((3, 7), 8, [5])
        assert x.or_overlapping(bits_of([10])) is False
        assert members(x) == {5}

    def test_self_union(self):
        x = make_rbv((3, 8), 8, [4, 7])
        assert x.or_overlapping(bits_of(members(x))) is False

    def test_slack_admission(self):
        # a source spanning chunk 0 supplies a bit below x's interval
        x = make_rbv((3, 8), 8)
        assert x.or_overlapping(bits_of([2])) is True
        assert members(x) == {2}

    def test_config_mismatch(self):
        h = build_hierarchy([("Object", None, ())])
        nr = number_allocations(h, [AllocSite("o", "Object")])
        x = SetFactory(nr, ChunkConfig(8), "ranged").maker("Object")()
        y = SetFactory(nr, ChunkConfig(64), "ranged").maker("Object")()
        with pytest.raises(ConfigMismatchError):
            x.add_all(y)

    def test_empty_sides(self):
        x = make_rbv((1, 0), 8)
        assert x.or_overlapping(bits_of([3])) is False
        assert members(x) == set()
        z = make_rbv((1, 12), 8, [3])
        assert z.or_overlapping(bits_of(members(x))) is False
        assert members(z) == {3}


@st.composite
def union_cases(draw):
    """A vector (chunk width, interval, held bits) and the source bits of
    one union, scattered below, across and above the vector's span, so a
    source span may overlap it only partly or share one chunk."""
    cb = draw(st.sampled_from([8, 64]))
    lo = draw(st.integers(1, 150))
    xi = (lo, lo + draw(st.integers(-1, 90)))  # (lo, lo - 1) is empty
    xb = set()
    if xi[1] >= xi[0]:
        inside = st.integers(xi[0], xi[1])
        xb = draw(st.sets(inside, max_size=4))
    arg = draw(st.sets(st.integers(0, 299), max_size=25))
    if xi[1] >= xi[0]:
        first, last = aligned_span(xi, cb)
        arg |= draw(st.sets(st.integers(first, last), max_size=4))
    return cb, xi, xb, arg


@settings(max_examples=600, deadline=None)
@given(union_cases())
def test_or_matches_oracle(case):
    # exactly the argument's bits inside the allocated chunks are added,
    # slack positions included; the result says whether the value changed
    cb, xi, xb, arg = case
    x = make_rbv(xi, cb, sorted(xb))
    expected = ranged_union_oracle(xi, xb, arg, cb)
    changed = x.or_overlapping(bits_of(arg))
    assert members(x) == expected
    assert changed == (expected != xb)


@settings(max_examples=200, deadline=None)
@given(union_cases())
def test_slack_bound_and_monotonicity(case):
    cb, xi, xb, arg = case
    x = make_rbv(xi, cb, sorted(xb))
    x.or_overlapping(bits_of(arg))
    for b in members(x):
        if not (xi[0] <= b <= xi[1]):
            assert xi[0] - (cb - 1) <= b < xi[0] or xi[1] < b <= xi[1] + (cb - 1)
    assert xb <= members(x)  # no bit is ever cleared


def test_alignment_exactness():
    # chunk-aligned bounds leave no slack: the union is the exact filtered one
    rng = random.Random(3)
    cb = 8
    for _ in range(200):
        xl = rng.randrange(0, 5) * cb
        xlen = rng.randrange(1, 4) * cb
        yl = xl + rng.randrange(0, 3) * cb
        ylen = rng.randrange(1, 3) * cb
        xi = (max(xl, 1), xl + xlen - 1)
        yi = (max(yl, 1), yl + ylen - 1)
        xb = {b for b in rng.sample(range(xi[0], xi[1] + 1), min(4, xi[1] - xi[0] + 1))}
        yb = {b for b in rng.sample(range(yi[0], yi[1] + 1), min(4, yi[1] - yi[0] + 1))}
        x = make_rbv(xi, cb, sorted(xb))
        x.or_overlapping(bits_of(yb))
        assert members(x) == ranged_union_oracle(xi, xb, yb, cb)
        assert members(x) == xb | {b for b in yb if xi[0] <= b <= xi[1]}


def test_or_overlapping_matches_bit_oracle():
    # exactly the argument's bits inside the allocated chunks are added,
    # slack positions included; the result says whether the value changed
    rng = random.Random(5)
    for _ in range(600):
        cb = rng.choice([8, 64])
        lo = rng.randint(1, 150)
        xi = (lo, lo + rng.randint(-1, 90))  # (lo, lo - 1) is empty
        held = []
        if xi[1] >= xi[0]:
            held = rng.sample(range(xi[0], xi[1] + 1), min(3, xi[1] - xi[0] + 1))
        x = make_rbv(xi, cb, held)
        window = range(x.aligned_lower, x.aligned_lower + x.num_chunks * cb)
        before = members(x)
        # argument bits scattered below, across and above the span, so the
        # source's span may overlap this one only partly
        arg = set(rng.sample(range(0, 300), rng.randint(0, 25)))
        if window:
            arg |= set(rng.sample(window, min(4, len(window))))
        expected = before | {i for i in arg if i in window}
        changed = x.or_overlapping(bits_of(arg))
        assert members(x) == expected
        assert changed == (expected != before)


class TestIterate:
    def test_empty(self):
        assert list(make_rbv((5, 20), 64).iterate()) == []

    def test_two_bits(self):
        v = make_rbv((9, 12), 64, [12, 9])
        assert list(v.iterate()) == [9, 12]

    def test_random_matches_naive(self):
        rng = random.Random(9)
        for _ in range(50):
            lo = rng.randint(1, 50)
            hi = lo + rng.randint(0, 40)
            bits = sorted(rng.sample(range(lo, hi + 1), rng.randint(0, min(10, hi - lo + 1))))
            v = make_rbv((lo, hi), 8, bits)
            assert list(v.iterate()) == bits


# widths around a machine word, suite's (~360), wide's (1,998), deep's (5,567)
# and deep x16's (89,501) universes
WALK_WIDTHS = (0, 1, 63, 64, 65, 360, 1998, 5567, 89501)


@pytest.mark.parametrize("width", WALK_WIDTHS)
def test_iter_bits_matches_peel_oracle(width):
    # member counts on both sides of the 16-member switch to the scan and a
    # half-full value, against the oracle; all-ones and top-bit-only values
    # against their closed forms; each at base 0 and base 37
    rng = random.Random(width)
    cases = [(0, [])]
    if width:
        top = 1 << width - 1
        cases += [((1 << width) - 1, list(range(width))), (top, [width - 1])]
        for n in (1, 2, 15, 16, 17, 40, 300, width // 2):
            value = top | bits_of(rng.sample(range(width - 1), min(n, width - 1)))
            cases.append((value, peel_bits(value, 0)))
    for value, members in cases:
        for base in (0, 37):
            walk = _iter_bits(value, base)
            assert inspect.isgenerator(walk)
            assert list(walk) == [base + i for i in members]

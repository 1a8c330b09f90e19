"""Points-to set kinds: each is a union kernel and a charging row.

Seven kinds share one mutation/query contract: a naive hash set, a
pure masked bit-vector, Spark-style hybrid (16 inline slots, then pure),
Heintze-style shared base + overflow, GCC/LLVM-style sparse bitmaps, the
ranged set (one ranged vector per interval of the owner type) and its
hybrid variant.  ``SET_KINDS`` maps each name to one ``SetKind`` row: the
kernel class that holds the kind's sets and makes their unions, and the
functions that charge a finished set of that kernel (its modeled bytes,
whether it has spilled past inline slots, and its dense chunk arrays;
the last two are ``None`` for a kind that has no inline slots or keeps
no arrays).  Members only grow, so every charging function reads
the final members, and no kind moves its members when it spills.  A
kernel answers no charging question; its one flag, ``ranged``, gives
``solver.SolverConfig`` the kind's default filter.  Kinds on one kernel
hold the same sets after the same unions, so ``solver.measure`` charges a
solve of a kernel as any of its kinds.

- ``NaiveSet`` (``naive``): a hash set of the owner's compatible members.
  A source whose compatible set lies within the owner's (a subset test
  made once per pair of compatible sets) needs no filter: the union takes
  the members the owner lacks, so one that adds nothing leaves the table
  as it is.  Any other source's members are intersected with the
  compatible set.  Charged one slot per member;
- ``PureBitVectorSet`` (``pure``, ``hybrid``, ``sparse``): one
  full-universe member int, ORed under the owner's type mask.  ``pure``
  is charged the full-universe array; ``hybrid`` 16 inline slots up to 16
  members, then pure's array plus a reference to it (Lhotak & Hendren, CC
  2003); ``sparse`` one eight-word element per eight-chunk window its
  member int occupies, and keeps no dense chunk arrays.  Its factory
  counts the windows once per distinct member int
  (``SetFactory.occupied_windows``), since many sets of a solve hold
  the same int;
- ``SharedBitVectorSet`` (``shared``): one member int, ORed under the type
  mask as ``pure``'s, beside an interned base int; the overflow is the
  members outside the base, folded into a new base past 20 overflow
  members.  Charged one slot per overflow member.  Where it folds depends
  on the order members arrive, so it keeps its own kernel;
- ``RangedPointsToSet`` (``ranged``, ``ranged-hybrid``): three ints read
  against the owner's geometry: the members (slack included), the members
  within the owner's intervals (the objects), and the shared positions a
  union has copied.  ``ranged`` is charged its vectors;
  ``ranged-hybrid`` 16 inline slots up to 16 members, then the vectors
  plus a reference.

Every kernel exposes its members as one full-universe int (``as_int``, bit
i set iff i is a member, slack included) and its dereferenceable members
as another (``objects_int``, an exact kernel's ``as_int``).

One solve uses one kernel.  A ``SetFactory`` is bound to one kind's
kernel, one solve builds every set with one factory, and a union takes
its source from the destination's own factory, so the source is always a
set of the destination's own kernel.  ``add_all`` raises
``ConfigMismatchError`` for a source made by another factory: a set of
another kernel, or one of the same kernel over another chunk width or an
equal but separately built numbering.  Each kernel's ``add_all``
therefore has one path, which reads the source's own fields: a masked OR
of the source's members (naive's hash set, or ``bits``) under the owner's
type filter, or, for a ranged set, of the source's objects (never its
slack) under the owner's chunk spans, followed only by ``shared``'s fold
or ``ranged``'s record of copied positions.  No kernel falls back to
element-wise insertion, so spill and fold points land exactly where
element-wise insertion in ascending order would put them.  A ranged
union gives each vector exactly what ``RangedBitVector.or_overlapping``,
the reference chunk-wise union, would: the source's objects within the
vector's chunk span.

Each kernel inserts one alloc index with its own ``add(idx)``, under the
owner's exact filter (naive's compatible set, the type mask, or a ranged
owner's intervals, never its chunk spans), so ``add`` admits no slack; an
index outside ``[1, total]`` raises ``IndexOutOfRangeError`` before any
change, and ``shared`` folds after an insertion as after any union.  The
queries ``in``, ``len`` and ``iterate`` are read from ``as_int``, and
``iterate_objects`` from ``objects_int``; only ``naive``, the hash-set
layout, answers them from its own hash set.

A set is its kernel over its owner's per-type state, which the kernel's
``type_state`` reads off the owner's intervals (the type mask, the ranged
geometry or naive's compatible index set); it keeps no owner.  Every
kernel's constructor takes (factory, state), and the factory's maker for
an owner type binds both, so making a set is one call that reads no
table.  The type masks (``build_type_mask``) and the ranged geometries
(``RangedPointsToSet.type_state``) are cached on the ``NumberingResult``,
the geometries per chunk width, so every factory over one numbering
shares them.  The per-type states, naive's subset tests, the interned
shared bases and the window counts of sparse charging and
``sparse_savings`` are per factory, and the counts hold only ints.  A
factory holds no maker, which would refer back to it, so a finished
solve is freed by reference counting alone.

Sets and ranged geometries are slotted: they hold only the attributes
named here, and no instance dict.

Memory accounting is a deterministic model, not process measurement:
16 bytes per object header, 16 per array header, 8 per reference slot,
chunk_bits/8 bytes per chunk.  Shared bases are counted once per distinct
interned base across a whole solution.  A ranged set's vectors, and so
its modeled bytes, depend on its owner type and the chunk width alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .bitsets import ChunkConfig, _iter_bits, chunk_index_of
from .errors import (
    ConfigMismatchError,
    IndexOutOfRangeError,
    UnsupportedKindError,
)
from .hierarchy import (
    ClassHierarchy,
    NumberingResult,
    build_type_mask,
    intervals_of,
)

OBJECT_HEADER = 16
ARRAY_HEADER = 16
REF_BYTES = 8

HYBRID_INLINE_CAP = 16
SHARED_OVERFLOW_CAP = 20
SPARSE_ELEMENT_WORDS = 8


@dataclass(frozen=True, slots=True)
class RangedGeometry:
    """A type's ranged vectors as full-universe ints.  Span bits outside
    the intervals are slack; shared bits are interval positions that
    another vector's chunk span also covers."""

    interval_bits: int
    span_bits: int
    shared_bits: int
    # per vector, by lower bound: (chunk count, aligned lower bound,
    # interval bits, chunk-span bits)
    vectors: tuple[tuple[int, int, int, int], ...]
    bytes: int  # the modeled footprint of a set over these vectors


class SetFactory:
    """Builds and charges the sets of one kernel over one numbering/chunk
    configuration.

    The factory is bound to ``kind``'s kernel: an unknown kind raises
    ``UnsupportedKindError`` here.  ``maker(owner)`` is the one way a set
    is made: the kernel over the owner's per-type state, built on the
    first maker for that type.  ``total_footprint(sets, kind)`` charges
    sets of the kind's kernel by the kind's row, so one factory serves
    every kind on its kernel.  Type masks and ranged geometry come from
    caches on the numbering, which every factory over it shares; the
    factory caches every owner's per-type state, the interned shared bases,
    naive's subset tests and the occupied windows of each int it has
    counted."""

    def __init__(self, nr: NumberingResult, cfg: ChunkConfig, kind: str):
        row = SET_KINDS.get(kind)
        if row is None:
            raise UnsupportedKindError(f"unknown set kind: {kind}")
        self.kernel = row.kernel
        self.nr = nr
        self.h: ClassHierarchy = nr.hierarchy
        self.cfg = cfg
        self.total = nr.total_allocs
        # chunks of a full-universe bit array over indices 0..total
        self.universe_chunks = 0 if self.total == 0 else chunk_index_of(self.total, cfg) + 1
        # the modeled bytes of one full-universe bit array
        self.universe_bytes = ARRAY_HEADER + self.universe_chunks * cfg.chunk_bytes
        # owner -> per-type state
        self._type_states: dict[str, object] = {}
        self._interned_bases: dict[int, int] = {}
        # (source, destination) naive compatible sets -> whether the source
        # lies within the destination
        self._covers: dict[tuple[frozenset, frozenset], bool] = {}
        # member int -> its occupied eight-chunk windows, and the last pair
        # asked for: sets made and filled by one walk sit next to each
        # other and often hold one int (0 occupies no window)
        self._windows: dict[int, int] = {}
        self._last_value = 0
        self._last_windows = 0

    def maker(self, owner: str) -> Callable[[], "PointsToSet"]:
        """The zero-argument constructor of empty sets owned by the named
        type: the kernel over the state its ``type_state`` built on the
        first call for the owner.  Each call makes a new one."""
        kernel = self.kernel
        state = self._type_states.get(owner)
        if state is None:
            state = self._type_states[owner] = kernel.type_state(self, owner)
        return partial(kernel, self, state)

    def occupied_windows(self, value: int) -> int:
        """``_occupied_windows(value, cfg)`` at this factory's chunk width,
        counted once per distinct value for the factory's life."""
        # kept: a dict-only memo made deep's sparse solve 5 % slower
        if value == self._last_value:
            return self._last_windows
        n = self._windows.get(value)
        if n is None:
            n = self._windows[value] = _occupied_windows(value, self.cfg)
        self._last_value = value
        self._last_windows = n
        return n

    def total_footprint(self, sets: Sequence["PointsToSet"], kind: str) -> int:
        """The modeled bytes of ``kind`` sets: each set as the kind's row
        charges it, plus each distinct shared base once.  Another kernel's
        sets raise ``ConfigMismatchError``, wherever they stand in sets."""
        row = SET_KINDS[kind]
        if not set(map(type, sets)) <= {row.kernel}:
            raise ConfigMismatchError(f"set kind {kind!r} did not make these sets")
        total = sum(map(row.footprint_bytes, sets))
        if row.kernel is SharedBitVectorSet:
            total += len({s.base for s in sets}) * self.universe_bytes
        return total


def _bits_of(indices: Iterable[int]) -> int:
    v = 0
    for i in indices:
        v |= 1 << i
    return v


class PointsToSet:
    """A union kernel: holds a set's members and makes its unions."""

    __slots__ = ("factory",)

    # unions are chunk-wise and may admit slack; SolverConfig's default
    # filter reads this flag
    ranged = False

    @classmethod
    def type_state(cls, factory: SetFactory, type_name: str):
        """The per-type state each set of this kernel owned by the type
        holds, built once per factory and type by ``SetFactory.maker``: the
        type mask unless the kernel says otherwise.  A kernel's constructor
        takes (factory, this state)."""
        return build_type_mask(factory.nr, type_name)

    def _out_of_range(self, idx: int):
        # each add makes the bounds test inline and calls this only when it
        # fails, as add_all does with _check_universe
        raise IndexOutOfRangeError(f"alloc index {idx} outside [1, {self.factory.total}]")

    def _check_universe(self, src: "PointsToSet"):
        # each add_all makes the same test inline and calls this only when
        # it fails, which saves a call per union
        if src.factory is not self.factory:
            raise ConfigMismatchError("sets built by different factories")

    def add_all(self, src: "PointsToSet") -> bool:
        """Unite src, a set of self's own factory and so of self's kernel,
        into self under self's filter; True iff self changed."""
        raise NotImplementedError

    def as_int(self) -> int:
        """Members, slack included, as a full-universe int."""
        raise NotImplementedError

    def objects_int(self) -> int:
        """The iterate_objects() members as a full-universe int; an exact
        kernel's ``as_int``."""
        raise NotImplementedError

    def __contains__(self, idx: int) -> bool:
        return bool(self.as_int() >> idx & 1)

    def __len__(self) -> int:
        return self.as_int().bit_count()

    def iterate(self) -> Iterator[int]:
        """Members, slack included, in ascending order."""
        return _iter_bits(self.as_int(), 0)

    def iterate_objects(self) -> Iterator[int]:
        """Members interpreted as real objects of the owner's type, in
        ascending order.

        For exactly filtered kinds this is iterate(); ranged kinds skip
        slack bits so a falsely included index is never dereferenced."""
        return _iter_bits(self.objects_int(), 0)


class NaiveSet(PointsToSet):
    """The hash-set layout: an exactly filtered set of the owner's
    compatible members."""

    __slots__ = ("members", "_compatible")

    def __init__(self, factory, compatible):
        self.factory = factory
        self.members: set[int] = set()
        self._compatible = compatible

    @classmethod
    def type_state(cls, factory, type_name):
        # the indices of the type's intervals, as a hash set
        ivs = intervals_of(factory.nr, type_name)
        return frozenset(i for iv in ivs for i in range(iv.lower, iv.upper + 1))

    def add(self, idx):
        """Insert one alloc index if compatible; True iff self changed."""
        if not 1 <= idx <= self.factory.total:
            self._out_of_range(idx)
        members = self.members
        if idx in members or idx not in self._compatible:
            return False
        members.add(idx)
        return True

    def add_all(self, src):
        if src.factory is not self.factory:
            self._check_universe(src)
        members = self.members
        compatible = self._compatible
        key = src._compatible, compatible
        covers = self.factory._covers
        covered = covers.get(key)
        if covered is None:
            covered = covers[key] = key[0] <= compatible
        if covered:
            # the filter admits every source member: take only the new
            # ones, so a union that adds nothing leaves the table as is
            new = src.members - members
            if not new:
                return False
            members |= new
            return True
        before = len(members)
        members |= compatible.intersection(src.members)
        return len(members) != before

    def as_int(self):
        return _bits_of(self.members)

    def __contains__(self, idx):
        return idx in self.members

    def __len__(self):
        return len(self.members)

    def iterate(self):
        return iter(sorted(self.members))

    objects_int = as_int
    iterate_objects = iterate


class PureBitVectorSet(PointsToSet):
    """Full-universe bit vector, filtered by ANDing with the owner's type
    mask on every union."""

    __slots__ = ("bits", "mask")

    def __init__(self, factory, mask):
        self.factory = factory
        self.bits = 0
        self.mask = mask

    def add(self, idx):
        """Insert one alloc index under the type mask; True iff self changed."""
        if not 1 <= idx <= self.factory.total:
            self._out_of_range(idx)
        new = self.bits | (1 << idx & self.mask)
        if new == self.bits:
            return False
        self.bits = new
        return True

    def add_all(self, src):
        if src.factory is not self.factory:
            self._check_universe(src)
        new = self.bits | (src.bits & self.mask)
        if new == self.bits:
            return False
        self.bits = new
        return True

    def as_int(self):
        return self.bits

    objects_int = as_int


class SharedBitVectorSet(PointsToSet):
    """Immutable interned base vector plus a small overflow.

    When the overflow would exceed 20 members, base and overflow are folded
    into a new canonical base and interned in a content-keyed table.  The
    set holds its members as one full-universe int, ``bits``, beside the
    interned ``base``; the overflow is the members outside the base, and
    the model charges one slot per overflow member.  A fold that keeps no
    overflow makes ``bits`` the interned base itself."""

    __slots__ = ("base", "bits", "_mask")

    def __init__(self, factory, mask):
        self.factory = factory
        self.base = 0  # the empty base: equal ints are one base to the model
        self.bits = 0
        self._mask = mask

    def add(self, idx):
        """Insert one alloc index under the type mask, folding as any union
        would; True iff self changed."""
        if not 1 <= idx <= self.factory.total:
            self._out_of_range(idx)
        grown = self.bits | (1 << idx & self._mask)
        if grown == self.bits:
            return False
        self._grow(grown)
        return True

    def add_all(self, src):
        if src.factory is not self.factory:
            self._check_universe(src)
        grown = self.bits | (src.bits & self._mask)
        if grown == self.bits:
            return False
        self._grow(grown)
        return True

    def _grow(self, grown):
        # hold grown, a strict superset of bits, folding the overflow into
        # a new interned base past SHARED_OVERFLOW_CAP members
        n = (grown ^ self.base).bit_count()
        if n <= SHARED_OVERFLOW_CAP:
            self.bits = grown
            return
        # ascending insertion folds each time the overflow reaches 21, so
        # the overflow keeps the top n % 21 new members and the base the
        # rest
        keep = 0
        new = grown ^ self.bits
        for _ in range(n % (SHARED_OVERFLOW_CAP + 1)):
            top = 1 << new.bit_length() - 1
            keep |= top
            new ^= top
        base = grown ^ keep
        base = self.base = self.factory._interned_bases.setdefault(base, base)
        self.bits = grown if keep else base

    def as_int(self):
        return self.bits

    objects_int = as_int


class RangedPointsToSet(PointsToSet):
    """One ranged bit vector per (non-empty, merged) interval of the owner
    type; ``add`` filters at the interval and a union at chunk granularity.

    The vectors are read from two ints and the owner's geometry.  ``bits``
    holds the members, slack included.  ``objects`` caches ``bits`` within
    the intervals, which every union reads from its source; it is the very
    int ``bits`` holds while the set holds no slack, so only a set with
    slack keeps a second one.  A vector holds every member in its chunk
    span except another interval's members that only ``add`` inserted:
    only a chunk-wise union copies a member into every vector whose span
    covers it.  ``copies`` records those of the geometry's shared positions
    (interval positions another vector's span covers) that have come from a
    union.  Slack outside every interval arrives only that way, so it is in
    every covering vector."""

    __slots__ = ("geometry", "bits", "objects", "copies")

    ranged = True

    def __init__(self, factory, geometry):
        self.factory = factory
        self.geometry = geometry
        self.bits = 0
        self.objects = 0
        self.copies = 0

    @classmethod
    def type_state(cls, factory, type_name):
        # the type's vectors, laid out once per numbering, chunk width and type
        cfg = factory.cfg
        cb = cfg.chunk_bits
        geometries = factory.nr._ranged_geometry.setdefault(cb, {})
        g = geometries.get(type_name)
        if g is None:
            vectors = []
            for iv in intervals_of(factory.nr, type_name):
                # the chunks holding the interval's first and last index
                first, last = iv.lower // cb, iv.upper // cb
                own = (1 << iv.upper + 1) - (1 << iv.lower)
                span = (1 << (last + 1) * cb) - (1 << first * cb)
                vectors.append((last - first + 1, first * cb, own, span))
            interval_bits = span_bits = shared_bits = 0
            for _, _, own, span in vectors:
                interval_bits |= own
                span_bits |= span
            for _, _, own, span in vectors:
                shared_bits |= span & interval_bits & ~own
            chunks = sum(n for n, *_ in vectors)
            g = geometries[type_name] = RangedGeometry(
                interval_bits,
                span_bits,
                shared_bits,
                tuple(vectors),
                OBJECT_HEADER + len(vectors) * ARRAY_HEADER + chunks * cfg.chunk_bytes,
            )
        return g

    def add(self, idx):
        """Insert one alloc index within the owner's intervals, never as
        slack; True iff self changed."""
        if not 1 <= idx <= self.factory.total:
            self._out_of_range(idx)
        interval_bits = self.geometry.interval_bits
        new = self.bits | (1 << idx & interval_bits)
        if new == self.bits:
            return False
        self.bits = new
        objects = new & interval_bits
        # without slack the members are the objects: hold one int
        self.objects = new if objects == new else objects
        return True

    def add_all(self, src):
        if src.factory is not self.factory:
            self._check_universe(src)
        g = self.geometry
        incoming = src.objects & g.span_bits
        copies = self.copies | (incoming & g.shared_bits)
        new = self.bits | incoming
        if new == self.bits and copies == self.copies:
            return False
        self.bits = new
        objects = new & g.interval_bits
        # without slack the members are the objects: hold one int
        self.objects = new if objects == new else objects
        self.copies = copies
        return True

    def as_int(self):
        return self.bits

    def objects_int(self):
        return self.objects


def _occupied_windows(value: int, cfg: ChunkConfig) -> int:
    """Eight-chunk windows of value (bit 0 starts window 0) that hold a set
    bit: the one window count, which ``SetFactory.occupied_windows``
    memoizes."""
    window_bits = SPARSE_ELEMENT_WORDS * cfg.chunk_bits
    n = 0
    while value:
        low = (value & -value).bit_length() - 1
        value >>= (low // window_bits + 1) * window_bits
        n += 1
    return n


# -- charging rows: each function charges one finished set of its row's
# kernel; all but sparse's allocate nothing but their result, and sparse's
# fills its factory's window counts (SetFactory.occupied_windows)

INLINE_BYTES = OBJECT_HEADER + HYBRID_INLINE_CAP * REF_BYTES


def _naive_bytes(s: NaiveSet) -> int:
    return OBJECT_HEADER + len(s.members) * REF_BYTES


def _pure_bytes(s: PureBitVectorSet) -> int:
    return OBJECT_HEADER + s.factory.universe_bytes


def _pure_arrays(s: PureBitVectorSet) -> list[tuple[int, int]]:
    return [(s.factory.universe_chunks, s.bits)]


def _sparse_bytes(s: PureBitVectorSet) -> int:
    """GCC/LLVM-style sparse bitmap: a list of eight-word elements, one
    wherever the member int occupies an eight-chunk window; members only
    grow, so the windows a set ever touched are exactly those."""
    f = s.factory
    per_element = OBJECT_HEADER + SPARSE_ELEMENT_WORDS * f.cfg.chunk_bytes + REF_BYTES
    return OBJECT_HEADER + f.occupied_windows(s.bits) * per_element


def _shared_bytes(s: SharedBitVectorSet) -> int:
    # the base is shared; SetFactory.total_footprint charges it once
    return OBJECT_HEADER + REF_BYTES + (s.bits ^ s.base).bit_count() * REF_BYTES


def _ranged_bytes(s: RangedPointsToSet) -> int:
    return s.geometry.bytes


def _ranged_arrays(s: RangedPointsToSet) -> list[tuple[int, int]]:
    g = s.geometry
    uncopied = g.interval_bits & ~s.copies
    return [
        (chunks, (s.bits & span & ~(uncopied & ~own)) >> lower)
        for chunks, lower, own, span in g.vectors
    ]


def _past_inline_slots(s: PointsToSet) -> bool:
    return s.bits.bit_count() > HYBRID_INLINE_CAP


def _inline_slots(spilled_bytes, spilled_arrays):
    """Spark's hybrid rule (Lhotak & Hendren, CC 2003) over a kernel's
    layout, as (bytes, spilled, chunk arrays) charging functions: 16
    inline slots up to 16 members, then the layout, built at the 17th,
    plus a reference to it."""

    def footprint_bytes(s):
        if s.bits.bit_count() <= HYBRID_INLINE_CAP:
            return INLINE_BYTES
        return INLINE_BYTES + REF_BYTES + spilled_bytes(s)

    def chunk_arrays(s):
        return spilled_arrays(s) if _past_inline_slots(s) else []

    return footprint_bytes, _past_inline_slots, chunk_arrays


class SetKind(NamedTuple):
    """A set kind: the kernel that holds its sets, and how a finished set
    is charged: its modeled bytes, whether it is past inline slots,
    ``None`` for a kind without them, and the (chunk count, value) of each
    dense bit array it keeps, ``None`` for a kind that keeps none."""

    kernel: type[PointsToSet]
    footprint_bytes: Callable[[PointsToSet], int]
    spilled: Optional[Callable[[PointsToSet], bool]] = None
    chunk_arrays: Optional[Callable[[PointsToSet], list[tuple[int, int]]]] = None


SET_KINDS: dict[str, SetKind] = {
    "naive": SetKind(NaiveSet, _naive_bytes),
    "pure": SetKind(PureBitVectorSet, _pure_bytes, chunk_arrays=_pure_arrays),
    "hybrid": SetKind(PureBitVectorSet, *_inline_slots(_pure_bytes, _pure_arrays)),
    "shared": SetKind(SharedBitVectorSet, _shared_bytes),
    "sparse": SetKind(PureBitVectorSet, _sparse_bytes),
    "ranged": SetKind(RangedPointsToSet, _ranged_bytes, chunk_arrays=_ranged_arrays),
    "ranged-hybrid": SetKind(
        RangedPointsToSet, *_inline_slots(_ranged_bytes, _ranged_arrays)
    ),
}


def sparse_savings(s: PointsToSet, kind: str) -> int:
    """Bytes a sparse eight-word-element decomposition of the bit arrays
    ``kind`` keeps for s, at s's own chunk width, would not allocate
    (all-zero windows), post-propagation."""
    row = SET_KINDS[kind]
    if row.chunk_arrays is None:
        raise UnsupportedKindError(f"sparse savings undefined for set kind {kind!r}")
    if type(s) is not row.kernel:
        raise ConfigMismatchError(f"set kind {kind!r} did not make this set")
    f = s.factory
    empty = 0
    for num_chunks, value in row.chunk_arrays(s):
        windows = -(-num_chunks // SPARSE_ELEMENT_WORDS)
        empty += windows - f.occupied_windows(value)
    return empty * SPARSE_ELEMENT_WORDS * f.cfg.chunk_bytes

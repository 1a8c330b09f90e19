"""Points-to set representations behind one mutation/query contract.

Seven kinds share the contract: a naive hash-set oracle, a pure masked
bit-vector, Spark-style hybrid (16 inline slots, then pure), Heintze-style
shared base + overflow list, GCC/LLVM-style sparse bitmaps, the ranged set
(one ranged vector per interval of the owner type) and its hybrid variant.
``SET_KINDS`` registers them by name.

Every kind exposes its members as one full-universe int (``as_int``, bit i
set iff i is a member, slack included) and its dereferenceable members as
another (``objects_int``).  Each kind's ``add_all`` is one bulk union over
the source's int view: a masked OR under the owner's filter (type mask for
exact kinds; chunk spans for a ranged source entering a ranged set,
intervals for any other source), followed only by the kind's own
re-encoding of the new bits.  No kind falls back to element-wise insertion,
so spill and fold points land exactly where element-wise insertion in
ascending order would put them.

A kind thus writes its representation through ``add_all`` alone:
``add(idx)`` is a union with a private one-member source, so a single
insertion takes the same filter, spill and fold as any other union.  The
queries ``in``, ``len`` and ``iterate`` are read from ``as_int``.
``naive``, ``shared`` and the hybrids keep a direct ``__contains__``: the
solver probes it through ``contains_object`` on every field access, and
their int view would be rebuilt per probe.

A union takes its source from the destination's own ``SetFactory``: one
solve builds every set with one factory, and ``add_all`` raises
``ConfigMismatchError`` for a source made by another factory, even one over
an equal numbering and chunk width.

Memory accounting is a deterministic model, not process measurement:
16 bytes per object header, 16 per array header, 8 per reference slot,
chunk_bits/8 bytes per chunk.  Shared bases are counted once per distinct
interned base across a whole solution.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Iterator, Optional

from .bitsets import ChunkConfig, RangedBitVector, _iter_bits, chunk_index_of
from .errors import (
    ConfigMismatchError,
    IndexOutOfRangeError,
    UnsupportedKindError,
)
from .hierarchy import (
    ClassHierarchy,
    Interval,
    NumberingResult,
    TypeRef,
    build_type_mask,
    intervals_of,
)

OBJECT_HEADER = 16
ARRAY_HEADER = 16
REF_BYTES = 8

HYBRID_INLINE_CAP = 16
SHARED_OVERFLOW_CAP = 20
SPARSE_ELEMENT_WORDS = 8


class SetFactory:
    """Builds sets over one numbering/chunk configuration and caches the
    per-type masks, compatible-index sets, merged intervals, ranged
    geometry and interned shared bases."""

    def __init__(self, nr: NumberingResult, cfg: ChunkConfig = ChunkConfig()):
        self.nr = nr
        self.h: ClassHierarchy = nr.hierarchy
        self.cfg = cfg
        self.total = nr.total_allocs
        # chunks of a full-universe bit array over indices 0..total
        self.universe_chunks = 0 if self.total == 0 else chunk_index_of(self.total, cfg) + 1
        self._masks: dict[str, int] = {}
        self._compatible: dict[str, frozenset[int]] = {}
        self._intervals: dict[str, tuple[Interval, ...]] = {}
        self._geometry: dict[str, tuple[int, int]] = {}
        self._interned_bases: dict[int, int] = {}

    def mask_bits(self, type_name: str) -> int:
        m = self._masks.get(type_name)
        if m is None:
            m = build_type_mask(self.nr, self.h, type_name)
            self._masks[type_name] = m
        return m

    def compatible(self, type_name: str) -> frozenset[int]:
        """The indices set in the type's mask, as a hash set."""
        c = self._compatible.get(type_name)
        if c is None:
            c = frozenset(_iter_bits(self.mask_bits(type_name), 0))
            self._compatible[type_name] = c
        return c

    def intervals(self, type_name: str) -> tuple[Interval, ...]:
        ivs = self._intervals.get(type_name)
        if ivs is None:
            ivs = tuple(
                iv for iv in intervals_of(self.nr, self.h, type_name) if not iv.empty
            )
            self._intervals[type_name] = ivs
        return ivs

    def ranged_geometry(self, type_name: str) -> tuple[int, int]:
        """(interval bits, chunk-span bits) of the type's ranged vectors as
        full-universe ints.  Span bits outside the intervals are slack."""
        g = self._geometry.get(type_name)
        if g is None:
            interval_bits = span_bits = 0
            for iv in self.intervals(type_name):
                v = RangedBitVector(iv, self.cfg)
                interval_bits |= v.interval_mask << v.aligned_lower
                span_bits |= ((1 << (v.num_chunks * self.cfg.chunk_bits)) - 1) << v.aligned_lower
            g = (interval_bits, span_bits)
            self._geometry[type_name] = g
        return g

    def intern_base(self, value: int) -> int:
        return self._interned_bases.setdefault(value, value)

    def make_set(self, kind: str, owner) -> "PointsToSet":
        owner_t = self.h.lookup(owner.name if isinstance(owner, TypeRef) else owner)
        cls = SET_KINDS.get(kind)
        if cls is None:
            raise UnsupportedKindError(f"unknown set kind: {kind}")
        return cls(self, owner_t)

    def total_footprint(self, sets: Iterable["PointsToSet"]) -> int:
        """Sum of modeled set sizes plus each distinct shared base once."""
        total = 0
        bases: set[int] = set()
        base_cost = ARRAY_HEADER + self.universe_chunks * self.cfg.chunk_bytes
        for s in sets:
            total += s.footprint_bytes()
            if isinstance(s, SharedBitVectorSet):
                bases.add(s.base)
        total += len(bases) * base_cost
        return total


def _bits_of(indices: Iterable[int]) -> int:
    v = 0
    for i in indices:
        v |= 1 << i
    return v


class PointsToSet:
    kind = "abstract"
    ranged = False  # unions are chunk-wise and may admit slack
    dense_chunks = False  # members kept in dense chunk arrays: sparse_savings applies

    def __init__(self, factory: SetFactory, owner: TypeRef):
        self.factory = factory
        self.owner = owner

    def _check_index(self, idx: int):
        if not 1 <= idx <= self.factory.total:
            raise IndexOutOfRangeError(
                f"alloc index {idx} outside [1, {self.factory.total}]"
            )

    def _check_universe(self, src: "PointsToSet"):
        if src.factory is not self.factory:
            raise ConfigMismatchError("sets built by different factories")

    def add(self, idx: int) -> bool:
        """Insert one alloc index under self's filter; True iff self changed."""
        self._check_index(idx)
        return self.add_all(_OneMember(self.factory, idx))

    def add_all(self, src: "PointsToSet") -> bool:
        """Unite src into self under self's filter; True iff self changed."""
        raise NotImplementedError

    def as_int(self) -> int:
        """Members, slack included, as a full-universe int."""
        raise NotImplementedError

    def objects_int(self) -> int:
        """The iterate_objects() members as a full-universe int."""
        return self.as_int()

    def __contains__(self, idx: int) -> bool:
        return bool(self.as_int() >> idx & 1)

    def __len__(self) -> int:
        return self.as_int().bit_count()

    def iterate(self) -> Iterator[int]:
        """Members, slack included, in ascending order."""
        return _iter_bits(self.as_int(), 0)

    def iterate_objects(self) -> Iterator[int]:
        """Members interpreted as real objects of the owner's type.

        For exactly filtered kinds this is iterate(); ranged kinds skip
        slack bits so a falsely included index is never dereferenced."""
        return self.iterate()

    def contains_object(self, idx: int) -> bool:
        """Membership under the iterate_objects interpretation."""
        return idx in self

    def footprint_bytes(self) -> int:
        raise NotImplementedError

    def chunk_arrays(self) -> list[tuple[int, int]]:
        """(chunk count, value) of each dense bit array held; defined for
        the dense_chunks kinds only."""
        raise NotImplementedError


class NaiveSet(PointsToSet):
    """Exactly filtered hash-set; the oracle the other kinds are checked
    against."""

    kind = "naive"

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        self.members: set[int] = set()
        self._compatible = factory.compatible(owner.name)

    def add_all(self, src):
        self._check_universe(src)
        before = len(self.members)
        self.members |= self._compatible.intersection(src.iterate())
        return len(self.members) != before

    def as_int(self):
        return _bits_of(self.members)

    def __contains__(self, idx):
        return idx in self.members

    def __len__(self):
        return len(self.members)

    def iterate(self):
        return iter(sorted(self.members))

    def footprint_bytes(self):
        return OBJECT_HEADER + len(self.members) * REF_BYTES


class _OneMember(PointsToSet):
    """The source of ``add(idx)``: one member and not ranged, so a ranged
    destination filters it by interval."""

    def __init__(self, factory, idx):
        self.factory = factory
        self.bits = 1 << idx

    def as_int(self):
        return self.bits


class PureBitVectorSet(PointsToSet):
    """Full-universe bit vector, filtered by ANDing with the owner's type
    mask on every union."""

    kind = "pure"
    dense_chunks = True

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        self.bits = 0
        self.mask = factory.mask_bits(owner.name)

    def add_all(self, src):
        self._check_universe(src)
        new = self.bits | (src.as_int() & self.mask)
        if new == self.bits:
            return False
        self.bits = new
        return True

    def as_int(self):
        return self.bits

    def footprint_bytes(self):
        return (
            OBJECT_HEADER
            + ARRAY_HEADER
            + self.factory.universe_chunks * self.factory.cfg.chunk_bytes
        )

    def chunk_arrays(self):
        return [(self.factory.universe_chunks, self.bits)]


class _InlineThenOverflow(PointsToSet):
    """Spark's hybrid set (Lhotak & Hendren, CC 2003), the shape of both
    hybrid kinds: up to 16 members in an inline list, then every operation
    goes to an overflow set built at the 17th member.

    A kind supplies ``_admitted(src)``, the bits a union takes from src
    (what the spilled form would admit, so membership never depends on
    whether the set has spilled yet), and ``_spill()``."""

    dense_chunks = True  # once spilled; the inline list has no chunk arrays

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        self.inline: list[int] = []
        self.overflow: Optional[PointsToSet] = None

    def _admitted(self, src: PointsToSet) -> int:
        raise NotImplementedError

    def _spill(self):
        """Move the inline members into a new overflow set."""
        raise NotImplementedError

    def add_all(self, src):
        self._check_universe(src)
        if self.overflow is not None:
            return self.overflow.add_all(src)
        new = self._admitted(src) & ~_bits_of(self.inline)
        if not new:
            return False
        if len(self.inline) + new.bit_count() <= HYBRID_INLINE_CAP:
            self.inline.extend(_iter_bits(new, 0))
        else:
            self._spill()
            self.overflow.add_all(src)
        return True

    def as_int(self):
        if self.overflow is not None:
            return self.overflow.as_int()
        return _bits_of(self.inline)

    def __contains__(self, idx):
        if self.overflow is not None:
            return idx in self.overflow
        return idx in self.inline

    def footprint_bytes(self):
        base = OBJECT_HEADER + HYBRID_INLINE_CAP * REF_BYTES
        if self.overflow is not None:
            base += REF_BYTES + self.overflow.footprint_bytes()
        return base

    def chunk_arrays(self):
        return [] if self.overflow is None else self.overflow.chunk_arrays()


class HybridSet(_InlineThenOverflow):
    """Up to 16 members inline; becomes a pure bit-vector set on the 17th."""

    kind = "hybrid"

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        self._mask = factory.mask_bits(owner.name)

    def _admitted(self, src):
        return src.as_int() & self._mask

    def _spill(self):
        self.overflow = PureBitVectorSet(self.factory, self.owner)
        self.overflow.bits = _bits_of(self.inline)
        self.inline = []


class SharedBitVectorSet(PointsToSet):
    """Immutable interned base vector plus a small overflow list.

    When the overflow would exceed 20 members, base and overflow are folded
    into a new canonical base and interned in a content-keyed table."""

    kind = "shared"

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        self.base: int = factory.intern_base(0)
        self.overflow: list[int] = []
        self._mask = factory.mask_bits(owner.name)

    def add_all(self, src):
        self._check_universe(src)
        held = self.as_int()
        new = src.as_int() & self._mask & ~held
        if not new:
            return False
        n = len(self.overflow) + new.bit_count()
        if n <= SHARED_OVERFLOW_CAP:
            self.overflow.extend(_iter_bits(new, 0))
            return True
        # ascending insertion folds each time the overflow reaches 21, so
        # the overflow keeps the last n % 21 new members and the base the rest
        keep = []
        for _ in range(n % (SHARED_OVERFLOW_CAP + 1)):
            top = new.bit_length() - 1
            keep.append(top)
            new ^= 1 << top
        keep.reverse()
        self.base = self.factory.intern_base(held | new)
        self.overflow = keep
        return True

    def as_int(self):
        return self.base | _bits_of(self.overflow)

    def __contains__(self, idx):
        return bool(self.base >> idx & 1) or idx in self.overflow

    def footprint_bytes(self):
        # base is shared; SetFactory.total_footprint charges it once
        return OBJECT_HEADER + REF_BYTES + len(self.overflow) * REF_BYTES


class SparseBitmapSet(PointsToSet):
    """Ordered sequence of eight-word bit blocks, allocated only where at
    least one bit is set.  The members are also kept as one int, so a union
    splits only its new bits into blocks."""

    kind = "sparse"

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        self.element_bits = SPARSE_ELEMENT_WORDS * factory.cfg.chunk_bits
        self.blocks: dict[int, int] = {}
        self._bits = 0
        self._mask = factory.mask_bits(owner.name)

    def add_all(self, src):
        self._check_universe(src)
        new = src.as_int() & self._mask & ~self._bits
        if not new:
            return False
        self._bits |= new
        eb = self.element_bits
        block_mask = (1 << eb) - 1
        e = 0
        while new:
            skip = ((new & -new).bit_length() - 1) // eb
            new >>= skip * eb
            e += skip
            self.blocks[e] = self.blocks.get(e, 0) | (new & block_mask)
            new >>= eb
            e += 1
        return True

    def as_int(self):
        return self._bits

    def footprint_bytes(self):
        per_element = (
            OBJECT_HEADER
            + SPARSE_ELEMENT_WORDS * self.factory.cfg.chunk_bytes
            + REF_BYTES  # next link
        )
        return OBJECT_HEADER + len(self.blocks) * per_element


class RangedPointsToSet(PointsToSet):
    """One ranged bit vector per (non-empty, merged) interval of the owner
    type; a union filters an unranged source at the interval and a ranged
    one at chunk granularity."""

    kind = "ranged"
    ranged = True
    dense_chunks = True

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        self.vectors = [
            RangedBitVector(iv, factory.cfg) for iv in factory.intervals(owner.name)
        ]
        self._lowers = [v.interval.lower for v in self.vectors]

    def _route(self, idx) -> Optional[RangedBitVector]:
        pos = bisect_right(self._lowers, idx) - 1
        if pos >= 0 and self.vectors[pos].interval.contains(idx):
            return self.vectors[pos]
        return None

    def _set_raw(self, idx) -> bool:
        """Place an already-admitted member (possibly slack) by span.

        An in-interval home takes priority: a member stored as slack of a
        neighboring vector would not survive re-export, since unions trim
        the source to its interval."""
        v = self._route(idx)
        if v is not None:
            return v.set(idx)
        for v in self.vectors:
            if v.set_raw(idx):
                return True
        return False

    def add_all(self, src):
        self._check_universe(src)
        bits = src.objects_int()
        changed = False
        for vec in self.vectors:
            # a ranged source unites chunk-wise; any other source, add()'s
            # one-member source included, is filtered strictly by this
            # vector's interval
            incoming = bits if src.ranged else bits & (vec.interval_mask << vec.aligned_lower)
            if vec.or_overlapping(incoming):
                changed = True
        return changed

    def as_int(self):
        v = 0
        for vec in self.vectors:
            v |= vec.value << vec.aligned_lower
        return v

    def objects_int(self):
        v = 0
        for vec in self.vectors:
            v |= (vec.value & vec.interval_mask) << vec.aligned_lower
        return v

    def contains_object(self, idx):
        v = self._route(idx)
        return v is not None and v.get(idx)

    def iterate_objects(self):
        return _iter_bits(self.objects_int(), 0)

    def footprint_bytes(self):
        cb = self.factory.cfg.chunk_bytes
        return OBJECT_HEADER + sum(
            ARRAY_HEADER + v.num_chunks * cb for v in self.vectors
        )

    def chunk_arrays(self):
        return [(v.num_chunks, v.value) for v in self.vectors]


class HybridRangedPointsToSet(_InlineThenOverflow):
    """Up to 16 members inline; becomes a ranged set on the 17th.  The
    inline list admits what the ranged vectors would: an unranged source
    by interval, a ranged one by chunk span."""

    kind = "ranged-hybrid"
    ranged = True

    def __init__(self, factory, owner):
        super().__init__(factory, owner)
        # _mask holds the interval bits
        self._mask, self._span_bits = factory.ranged_geometry(owner.name)

    def _admitted(self, src):
        return src.objects_int() & (self._span_bits if src.ranged else self._mask)

    def _spill(self):
        """Rehouse the inline members, slack bits included, in ranged vectors."""
        r = RangedPointsToSet(self.factory, self.owner)
        for i in self.inline:
            r._set_raw(i)
        self.overflow = r
        self.inline = []

    def objects_int(self):
        if self.overflow is not None:
            return self.overflow.objects_int()
        return _bits_of(self.inline) & self._mask

    def iterate_objects(self):
        return _iter_bits(self.objects_int(), 0)

    def contains_object(self, idx):
        if self.overflow is not None:
            return self.overflow.contains_object(idx)
        return idx in self.inline and bool(self._mask >> idx & 1)


SET_KINDS: dict[str, type[PointsToSet]] = {
    cls.kind: cls
    for cls in (
        NaiveSet,
        PureBitVectorSet,
        HybridSet,
        SharedBitVectorSet,
        SparseBitmapSet,
        RangedPointsToSet,
        HybridRangedPointsToSet,
    )
}


def sparse_savings(s: PointsToSet, cfg: ChunkConfig) -> int:
    """Bytes a sparse eight-word-element decomposition of s's bit arrays
    would not allocate (all-zero windows), post-propagation."""
    if not s.dense_chunks:
        raise UnsupportedKindError(
            f"sparse savings undefined for set kind {s.kind!r}"
        )
    element_bits = SPARSE_ELEMENT_WORDS * cfg.chunk_bits
    payload_bytes = SPARSE_ELEMENT_WORDS * cfg.chunk_bytes
    saved = 0
    for num_chunks, value in s.chunk_arrays():
        windows = -(-num_chunks // SPARSE_ELEMENT_WORDS)
        for w in range(windows):
            if not value >> (w * element_bits) & ((1 << element_bits) - 1):
                saved += payload_bytes
    return saved

"""Chunk geometry and the reference ranged bit vector.

Every other bit array in the package is a plain full-universe Python int
(bit i for absolute index i).  The ranged vector stores its bits as an int
relative to a chunk-aligned base, and tracks its chunk geometry (aligned
lower bound, chunk count) explicitly, since modeled memory accounting
depends on the number of allocated chunks.  It is the reference that the
ranged set is checked against: ``ptsets`` lays out a ranged set's vectors
from its intervals and the chunk width alone, to the same geometry, and
its union reproduces ``or_overlapping``, the reference chunk-wise union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import InvalidParamsError

if TYPE_CHECKING:
    from .hierarchy import Interval

_VALID_CHUNK_BITS = (8, 16, 32, 64)


@dataclass(frozen=True)
class ChunkConfig:
    chunk_bits: int = 64

    def __post_init__(self):
        # an int, not a bool or a float that equals one of the widths
        if type(self.chunk_bits) is not int or self.chunk_bits not in _VALID_CHUNK_BITS:
            raise InvalidParamsError(
                f"chunk_bits must be one of {_VALID_CHUNK_BITS}, got {self.chunk_bits}"
            )

    @property
    def chunk_bytes(self) -> int:
        return self.chunk_bits // 8


def chunk_index_of(abs_index: int, cfg: ChunkConfig) -> int:
    """Index of the chunk holding an absolute bit position."""
    return abs_index // cfg.chunk_bits


def _iter_bits(value: int, base: int) -> Iterator[int]:
    """base + i for each set bit i of value, lazily and in ascending order.

    Peeling off the lowest bit costs O(width), so the peel loop costs
    O(members x width).  One ``bin()`` conversion and one ``str.rfind`` per
    member cost O(width + members), but the conversion outweighs a few
    peels: one member at 5,567 bits takes 0.8 us peeled and 8.5 us scanned
    (CPython 3.11).  So a value of at most 16 members is peeled and any
    other scanned.  Timed on random values, the scan wins from 12-20
    members at 5,567 and 89,501 bits, and from 24-64 members at 360-2,800
    bits, where both walks are cheap.
    """
    if value.bit_count() <= 16:
        while value:
            low = value & -value
            yield base + low.bit_length() - 1
            value ^= low
        return
    digits = bin(value)  # "0b" then the bits, most significant first
    top = base + len(digits) - 1  # digit i stands for index top - i
    i = digits.rfind("1", 2)
    while i >= 0:
        yield top - i
        i = digits.rfind("1", 2, i)


class RangedBitVector:
    """Bit vector over one interval, stored relative to a chunk-aligned base.

    Every write is a chunk-wise union (``or_overlapping``) of bits the
    caller has already filtered; positions within the allocated chunks
    but outside the interval (slack) are set only when the caller passes
    them.
    """

    __slots__ = ("cfg", "aligned_lower", "num_chunks", "value")

    def __init__(self, interval: Interval, cfg: ChunkConfig):
        self.cfg = cfg
        if interval.empty:
            self.aligned_lower = 0
            self.num_chunks = 0
        else:
            cb = cfg.chunk_bits
            self.aligned_lower = (interval.lower // cb) * cb
            self.num_chunks = (
                chunk_index_of(interval.upper, cfg)
                - chunk_index_of(interval.lower, cfg)
                + 1
            )
        self.value = 0  # bit p holds absolute index aligned_lower + p

    def or_overlapping(self, bits: int) -> bool:
        """Chunk-wise union: take every bit of a full-universe int (bit i
        for absolute index i) that falls inside the allocated chunks.

        Callers pass a source already trimmed to its intervals, so slack
        admitted elsewhere is never re-exported.  Where the source's span
        only partly overlaps this one (merged interface intervals), the
        common chunks transfer.  Returns True iff self changed."""
        window = (1 << (self.num_chunks * self.cfg.chunk_bits)) - 1
        new = self.value | ((bits >> self.aligned_lower) & window)
        if new == self.value:
            return False
        self.value = new
        return True

    def iterate(self) -> Iterator[int]:
        """All set bits (slack included) as ascending absolute indices."""
        return _iter_bits(self.value, self.aligned_lower)

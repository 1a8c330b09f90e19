"""Chunk geometry and the ranged bit vector.

Every other bit array in the package is a plain full-universe Python int
(bit i for absolute index i).  The ranged vector also stores its bits as an
int, but relative to a chunk-aligned base, and tracks its chunk geometry
(aligned lower bound, chunk count) explicitly: the union into it proceeds
chunk by chunk, and modeled memory accounting depends on the number of
allocated chunks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import InvalidParamsError
from .hierarchy import Interval

_VALID_CHUNK_BITS = (8, 16, 32, 64)


@dataclass(frozen=True)
class ChunkConfig:
    chunk_bits: int = 64

    def __post_init__(self):
        if self.chunk_bits not in _VALID_CHUNK_BITS:
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
    while value:
        low = value & -value
        yield base + low.bit_length() - 1
        value ^= low


class RangedBitVector:
    """Bit vector over one interval, stored relative to a chunk-aligned base.

    Positions within the allocated chunks but outside the interval (slack)
    can only become set through chunk-wise union, never through set().
    """

    __slots__ = ("cfg", "interval", "aligned_lower", "num_chunks", "interval_mask", "value")

    def __init__(self, interval: Interval, cfg: ChunkConfig):
        self.cfg = cfg
        self.interval = interval
        if interval.empty:
            self.aligned_lower = 0
            self.num_chunks = 0
            self.interval_mask = 0
        else:
            cb = cfg.chunk_bits
            self.aligned_lower = (interval.lower // cb) * cb
            self.num_chunks = (
                chunk_index_of(interval.upper, cfg)
                - chunk_index_of(interval.lower, cfg)
                + 1
            )
            self.interval_mask = ((1 << (interval.upper - interval.lower + 1)) - 1) << (
                interval.lower - self.aligned_lower
            )
        self.value = 0  # bit p holds absolute index aligned_lower + p

    @property
    def span_end(self) -> int:
        """Last absolute index covered by the allocated chunks."""
        return self.aligned_lower + self.num_chunks * self.cfg.chunk_bits - 1

    def set(self, abs_index: int) -> bool:
        """Insert with strict interval filtering; no-op outside the interval."""
        if not self.interval.contains(abs_index):
            return False
        bit = 1 << (abs_index - self.aligned_lower)
        if self.value & bit:
            return False
        self.value |= bit
        return True

    def get(self, abs_index: int) -> bool:
        if self.num_chunks == 0 or not (self.aligned_lower <= abs_index <= self.span_end):
            return False
        return bool(self.value >> (abs_index - self.aligned_lower) & 1)

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

    def set_raw(self, abs_index: int) -> bool:
        """Set a bit anywhere in the allocated chunks, slack included.

        Used when migrating members that were already admitted through
        chunk-wise unions; ordinary insertion goes through set()."""
        if self.num_chunks == 0 or not (self.aligned_lower <= abs_index <= self.span_end):
            return False
        bit = 1 << (abs_index - self.aligned_lower)
        if self.value & bit:
            return False
        self.value |= bit
        return True

    def iterate(self) -> Iterator[int]:
        """All set bits (slack included) as ascending absolute indices."""
        return _iter_bits(self.value, self.aligned_lower)

"""Points-to analysis with type-aware interval numbering of allocation
sites and ranged bit-vector points-to sets."""

from .bitsets import ChunkConfig, RangedBitVector, chunk_index_of
from .hierarchy import (
    AllocSite,
    ClassHierarchy,
    Interval,
    NumberingResult,
    TypeRef,
    build_hierarchy,
    build_type_mask,
    intervals_of,
    number_allocations,
)
from .pag import GenParams, PAG, generate_synthetic, parse_program
from .ptsets import SET_KINDS, SetFactory, sparse_savings
from .solver import (
    SolverConfig,
    Solution,
    compare_solutions,
    emit_solution,
    precision_histogram,
    propagate,
    run_extra_pass,
)

__version__ = "0.1.0"

__all__ = [
    "AllocSite",
    "ChunkConfig",
    "ClassHierarchy",
    "GenParams",
    "Interval",
    "NumberingResult",
    "PAG",
    "RangedBitVector",
    "SET_KINDS",
    "SetFactory",
    "Solution",
    "SolverConfig",
    "TypeRef",
    "build_hierarchy",
    "build_type_mask",
    "chunk_index_of",
    "compare_solutions",
    "emit_solution",
    "generate_synthetic",
    "intervals_of",
    "number_allocations",
    "parse_program",
    "precision_histogram",
    "propagate",
    "run_extra_pass",
    "sparse_savings",
]

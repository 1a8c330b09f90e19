"""The benchmark's workloads: which corpora each one solves, and why.

Every generator parameter is spelled out instead of imported from the test
suite or taken from ``GenParams`` defaults, so that a later change to either
cannot silently change what the benchmark measures.  ``DEEP`` and
``suite_params`` copy ``DEEP_PARAMS`` and ``_suite_params`` of
``tests/test_acceptance.py`` as they stood when the benchmark was defined.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from rangepta.pag import GenParams

# (set kind, filter mode): the five exactly filtered kinds use type masks,
# the two ranged kinds filter intrinsically by interval.
KINDS = (
    ("naive", "mask"),
    ("pure", "mask"),
    ("hybrid", "mask"),
    ("shared", "mask"),
    ("sparse", "mask"),
    ("ranged", "intrinsic"),
    ("ranged-hybrid", "intrinsic"),
)
KIND_NAMES = tuple(k for k, _ in KINDS)
MASK_KINDS = tuple(k for k, mode in KINDS if mode == "mask")
RANGED_KINDS = tuple(k for k, mode in KINDS if mode == "intrinsic")
HYBRID_KINDS = ("hybrid", "ranged-hybrid")
# the order kinds are first timed in: cheapest first on every workload when
# the benchmark was defined (hybrid and shared then ran the element-wise
# fallback)
TIMING_ORDER = tuple(
    (k, m)
    for name in ("pure", "ranged", "sparse", "naive", "ranged-hybrid", "hybrid", "shared")
    for k, m in KINDS
    if k == name
)

DEEP = GenParams(
    num_classes=80,
    num_interfaces=0,
    max_depth=12,
    num_fields=6,
    num_vars=40,
    num_statements=2500,
    allocs_per_class=(60, 80),
    store_load_ratio=0.1,
    violation_rate=0.02,
    pad_chunk=None,
)

WIDE = GenParams(
    num_classes=800,
    num_interfaces=40,
    max_depth=10,
    num_fields=30,
    num_vars=1500,
    num_statements=12000,
    allocs_per_class=(1, 4),
    store_load_ratio=0.4,
    violation_rate=0.05,
    pad_chunk=None,
)

SUITE_SIZE = 50


def suite_params(i: int) -> GenParams:
    """Corpus i of the acceptance suite: 35 x 300, 10 x 800, 5 x 2000 statements."""
    if i < 35:
        n_vars, n_stmts = 40, 300
    elif i < 45:
        n_vars, n_stmts = 60, 800
    else:
        n_vars, n_stmts = 80, 2000
    return GenParams(
        num_classes=30,
        num_interfaces=4,
        max_depth=6,
        num_fields=6,
        num_vars=n_vars,
        num_statements=n_stmts,
        allocs_per_class=(8, 16),
        store_load_ratio=0.2,
        violation_rate=0.1,
        pad_chunk=None,
    )


@dataclass(frozen=True)
class Workload:
    """Fixed generated programs; the run seed shuffles their statement order.

    One program's cost varies up to 3x between generator seeds, and the
    suite's cost is dominated by its five largest corpora, so drawing new
    programs per run seed would make runs incomparable.  The programs stay
    fixed and the run seed shuffles the order of their statement lines
    (seed 0 keeps the generator's order): the solution stays the same; the
    worklist schedule, the unions tried and the history-dependent shared-set
    folds vary."""

    name: str
    chunk_bits: int
    why: str
    programs: tuple[tuple[GenParams, int], ...]  # (generator params, generator seed)

    def corpora(self, seed: int) -> list[tuple[GenParams, int, int]]:
        """(generator params, generator seed, statement shuffle seed) per corpus."""
        return [(p, gen_seed, seed) for p, gen_seed in self.programs]

    def describe(self, seed: int) -> dict:
        groups: dict[str, dict] = {}
        for p, gen_seed in self.programs:
            g = groups.setdefault(repr(p), {"params": asdict(p), "generator_seeds": []})
            g["generator_seeds"].append(gen_seed)
        return {
            "workload": self.name,
            "chunk_bits": self.chunk_bits,
            "shuffle_seed": seed,
            "corpus_groups": list(groups.values()),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "deep",
            8,
            "a few huge sets on a deep tree: set kernels and the element-wise "
            "add_all fallback do nearly all the work; masks and the worklist little",
            ((DEEP, 0),),
        ),
        Workload(
            "suite",
            8,
            "50 small acceptance corpora: many small sets, interface-merged ranged "
            "sets, worklist and verification pass weigh most; parsing is non-trivial",
            # the acceptance suite: corpus i is generated with seed i
            tuple((suite_params(i), i) for i in range(SUITE_SIZE)),
        ),
        Workload(
            "wide",
            64,
            "800 classes and 40 interfaces: hundreds of type masks dominate the mask "
            "kinds, ranged kinds build none; many new small field sets",
            ((WIDE, 0),),
        ),
    )
}

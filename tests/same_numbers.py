"""Print the numbers a refactor must keep, one line per configuration.

    python3 tests/same_numbers.py [workload ...] > numbers.txt

Run from the repository root, once on each of two checkouts, and diff the
outputs.  For every benchmark workload (``perfbench/workloads.py``, all
three by default), statement shuffle seed 0-2 (as ``perfbench/run.py``
shuffles), chunk width 8/16/32/64 and set kind, the line gives:

- ``members``, ``chunks`` and ``savings``: digests of every var and field
  set's ``as_int()``, of the chunk arrays its kind's ``SET_KINDS`` row
  charges (kinds whose row has ``chunk_arrays``) and of its
  ``sparse_savings`` (the total comes first);
- ``unions``, ``pops``, ``attempts``, ``spills`` and ``bytes``: the
  ``solver.measure`` columns in ``COLUMNS`` (the solver's counters,
  spilled sets and modeled bytes), summed over the workload's corpora;
- ``extra``: successful unions of ``run_extra_pass``, taken after the
  digests, since a pass that finds work changes the sets.

Kinds on one kernel make the same unions, so each corpus is solved once
per kernel, under the first of its kinds in ``KINDS`` order, and each of
those kinds is charged from that solve relabelled as the kind
(``solver.measure``); the extra pass runs once per solve, after all of
the kernel's digests, and every kind on the kernel prints its total.

Digests hash the sets in sorted key order, so two solves that reach the
same sets through a different union order print the same line.  The file
name does not start with ``test_``, so pytest does not collect it;
``test_same_numbers.py`` runs ``numbers`` on small inputs.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from rangepta import pag, solver  # noqa: E402
from rangepta.ptsets import SET_KINDS, sparse_savings  # noqa: E402
from run import setup, shuffle_statements  # noqa: E402
from workloads import KINDS, WORKLOADS  # noqa: E402

SEEDS = (0, 1, 2)
CHUNKS = (8, 16, 32, 64)
# printed name -> the ``solver.measure`` column it sums
COLUMNS = {
    "unions": "union_ops",
    "pops": "nodes_processed",
    "attempts": "union_attempts",
    "spills": "spilled_sets",
    "bytes": "total_bytes",
}


def sorted_sets(sol):
    yield from sorted(sol.var_sets.items())
    yield from sorted(sol.field_sets.items())


def digest(parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()[:12]


def charged(sols, kind: str) -> str:
    """The line of sols, one solve per corpus, charged as kind, without
    ``extra``."""
    chunk_arrays = SET_KINDS[kind].chunk_arrays
    members, chunks, savings = [], [], []
    total_savings = 0
    counts = dict.fromkeys(COLUMNS, 0)
    for sol in sols:
        sol = replace(sol, config=replace(sol.config, set_kind=kind))
        for key, s in sorted_sets(sol):
            members.append((key, s.as_int()))
            if chunk_arrays is not None:
                saved = sparse_savings(s, kind)
                chunks.append((key, chunk_arrays(s)))
                savings.append((key, saved))
                total_savings += saved
        m = solver.measure(sol)
        for name, column in COLUMNS.items():
            counts[name] += m[column]
    return (
        f"members={digest(members)} chunks={digest(chunks)} "
        f"savings={total_savings}/{digest(savings)} "
        + " ".join(f"{k}={v}" for k, v in counts.items())
    )


def numbers(progs, chunk: int) -> dict[str, str]:
    """Each kind's line at one chunk width, in ``KINDS`` order, from one
    solve of each corpus per kernel and filter mode."""
    siblings = {}  # (kernel, mode) -> [kind], in KINDS order
    for kind, mode in KINDS:
        siblings.setdefault((SET_KINDS[kind].kernel, mode), []).append(kind)
    lines = {}
    for (_, mode), kinds in siblings.items():
        cfg = solver.SolverConfig(kinds[0], mode, chunk)
        sols = [solver.propagate(p, nr, cfg) for p, nr in progs]
        for kind in kinds:
            lines[kind] = charged(sols, kind)
        extra = sum(map(solver.run_extra_pass, sols))
        for kind in kinds:
            lines[kind] += f" extra={extra}"
    return {kind: lines[kind] for kind, _ in KINDS}


def programs(texts, seed: int) -> list:
    """(PAG, numbering) of each corpus text, its statements shuffled by seed,
    built as the benchmark builds them."""
    return setup([shuffle_statements(t, seed) for t in texts])


def main(names) -> None:
    for name in names or WORKLOADS:
        w = WORKLOADS[name]
        texts = [pag.generate_synthetic(p, s) for p, s in w.programs]
        for seed in SEEDS:
            progs = programs(texts, seed)
            for chunk in CHUNKS:
                for kind, line in numbers(progs, chunk).items():
                    print(f"{name} seed={seed} chunk={chunk} {kind} {line}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])

"""Record each kind's modeled bytes per corpus into modeled_bytes.json.

    python3 perfbench/record_modeled_bytes.py --workload deep --seeds 0-15

The gate in run.py compares every solve's modeled footprint with the value
recorded here for its workload, seed, kind and corpus, so a change that
moves modeled bytes (a spill or fold landing at another member count, say)
fails the benchmark.  Seeds without a record skip that comparison.  Record
only from a commit whose modeled bytes are known to be right.
"""

from __future__ import annotations

import argparse
import json

from run import HERE, corpus_text, pin_hash_seed, setup, shuffle_statements, solver
from workloads import KINDS, WORKLOADS


def seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, type=seed_range, help="N or N-M")
    args = ap.parse_args()
    pin_hash_seed()
    w = WORKLOADS[args.workload]
    path = HERE / "modeled_bytes.json"
    table = json.loads(path.read_text())
    for seed in args.seeds:
        texts = [shuffle_statements(corpus_text(p, g), s) for p, g, s in w.corpora(seed)]
        progs = setup(texts)
        table.setdefault(w.name, {})[str(seed)] = {
            kind: [
                solver.propagate(p, nr, solver.SolverConfig(kind, mode, w.chunk_bits))
                .stats.total_footprint_bytes
                for p, nr in progs
            ]
            for kind, mode in KINDS
        }
        print(w.name, seed, "recorded", flush=True)
        path.write_text(json.dumps(table, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()

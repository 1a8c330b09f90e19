"""The rangepta benchmark: solve one workload under all seven set kinds.

    python3 perfbench/run.py --workload deep --seed 0 --seconds 10 --trace 0

Run from the repository root.  With ``--trace 0`` it reports the
end-to-end metrics (set-up time, solve time of each kind, peak RSS); with
``--trace 1`` it reports the per-layer metrics from one untraced and one
traced solve per kind.  Every solve is checked against an independent
reference (``gate.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run (metrics,
corpus parameters, seeds, versions, and every timing sample or, when
traced, every span) is written
to ``.perfbench/`` under the repository root.  See README.md for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
HASH_SEED = "0"
SETUP_MIN_REPEATS = 7
SETUP_SECONDS = 1.0
MIN_SAMPLES = 3


def _require_sources():
    for f in ("src/rangepta/__init__.py", "tests/oracles.py"):
        if not (ROOT / f).is_file():
            sys.exit(f"perfbench: {f} not found; run from a rangepta checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]


_require_sources()

from rangepta import hierarchy, pag, solver  # noqa: E402

from gate import Reference, check, members_of  # noqa: E402
from probe import SpeedProbe  # noqa: E402
from tracing import (  # noqa: E402
    ADD_CALLS, ADD_S, ADD_USEFUL, FB_CALLS, FB_S, OR_CALLS, OR_S, OR_USEFUL, Tracer,
)
from workloads import (  # noqa: E402
    HYBRID_KINDS, KIND_NAMES, KINDS, MASK_KINDS, RANGED_KINDS, TIMING_ORDER, WORKLOADS,
)

perf_counter = time.perf_counter


# -- inputs ------------------------------------------------------------------


def corpus_text(params, seed: int) -> str:
    """Generated fact text, cached by (params, seed, generator source)."""
    key = hashlib.sha256(
        json.dumps([asdict(params), seed]).encode()
        + (ROOT / "src/rangepta/pag.py").read_bytes()
    ).hexdigest()[:20]
    path = OUT / "corpora" / f"{key}.facts"
    if path.is_file():
        return path.read_text()
    text = pag.generate_synthetic(params, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(text)
    os.replace(tmp, path)
    return text


STATEMENTS = ("new", "assign", "store", "load")


def shuffle_statements(text: str, seed: int) -> str:
    """text with its statement lines in a seeded random order; seed 0 keeps
    the generator's order.  Declarations stay first and in place."""
    if not seed:
        return text
    decls, stmts = [], []
    for line in text.splitlines():
        (stmts if line.split(" ", 1)[0] in STATEMENTS else decls).append(line)
    random.Random(seed).shuffle(stmts)
    return "\n".join(decls + stmts) + "\n"


def setup(texts):
    """Parse and number every corpus: the work each kind's solve reuses."""
    progs = []
    for text in texts:
        h, p = pag.parse_program(text)
        nr = hierarchy.number_allocations(h, list(p.allocs.values()))
        progs.append((p, nr))
    return progs


def fact_count(p) -> int:
    return (
        len(p.class_decls) + len(p.iface_decls) + len(p.field_types)
        + len(p.var_types) + len(p.allocs) + len(p.alloc_edges)
        + len(p.assign_edges) + len(p.store_edges) + len(p.load_edges)
    )


def load_modeled_bytes(workload: str, seed: int) -> dict:
    """Recorded per-corpus modeled bytes of each kind, or {} for an
    unrecorded seed (see record_modeled_bytes.py)."""
    table = json.loads((HERE / "modeled_bytes.json").read_text())
    return table.get(workload, {}).get(str(seed), {})


# -- measurement -------------------------------------------------------------


class Run:
    """One workload at one seed: its programs, references and gate tally."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.texts = [
            shuffle_statements(corpus_text(p, gen_seed), shuffle_seed)
            for p, gen_seed, shuffle_seed in workload.corpora(seed)
        ]
        self.progs = setup(self.texts)
        self.refs = [Reference(p, nr, workload.chunk_bits) for p, nr in self.progs]
        self.expected_bytes = load_modeled_bytes(workload.name, seed)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def config(self, kind: str, mode: str):
        return solver.SolverConfig(kind, mode, self.workload.chunk_bits)

    def gate(self, sol, i: int, kind: str, mode: str):
        """Count one solve and check it; outside any timed region."""
        self.attempted += 1
        errors = check(members_of(sol), self.refs[i], ranged=mode == "intrinsic")
        expected = self.expected_bytes.get(kind)
        got = sol.stats.total_footprint_bytes
        if expected is not None and expected[i] != got:
            errors.append(f"modeled bytes {got}, recorded {expected[i]}")
        if errors:
            self.failed += 1
            self.problems.append(f"{kind} corpus {i}: " + "; ".join(errors[:3]))

    def solve_round(self, kinds, probe: SpeedProbe) -> dict[str, list[float]]:
        """Solve every corpus once under each of kinds, taking the kinds in
        turn on each corpus so that a slow spell of the machine hits all of
        them; return each kind's propagate time summed over the corpora, as
        [wall seconds, seconds at the probe's reference speed]."""
        totals = {k: [0.0, 0.0] for k, _ in kinds}
        configs = [(k, m, self.config(k, m)) for k, m in kinds]
        gc.collect()
        for i, (p, nr) in enumerate(self.progs):
            for kind, mode, cfg in configs:
                sol, wall, scaled = probe.time(solver.propagate, p, nr, cfg)
                totals[kind][0] += wall
                totals[kind][1] += scaled
                self.gate(sol, i, kind, mode)
                del sol
        return totals


def measure(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics: median set-up time and median solve time per
    kind, in seconds at the probe's reference speed (probe.py); and the
    samples behind them, wall and scaled."""
    probe = SpeedProbe()
    setup_walls: list[float] = []
    setup_times: list[float] = []
    while len(setup_walls) < SETUP_MIN_REPEATS or sum(setup_walls) < SETUP_SECONDS:
        gc.collect()
        _, wall, scaled = probe.time(setup, run.texts)
        setup_walls.append(wall)
        setup_times.append(scaled)
    metrics = {"setup_s": (statistics.median(setup_times), "s")}
    # Each kind repeats until it has used its share of the run and has
    # MIN_SAMPLES samples, or until it has used half the run: a single solve
    # is at the mercy of a slow spell of the machine.  A kind's first round comes in TIMING_ORDER, cheapest first; after each first
    # round, every kind already started that lags an even pace through the
    # run takes another turn, so cheap kinds are sampled throughout the run,
    # not only after the slow kinds are done.
    share = seconds / len(KINDS)
    walls: dict[str, list[float]] = {k: [] for k in KIND_NAMES}
    samples: dict[str, list[float]] = {k: [] for k in KIND_NAMES}

    def take(kinds):
        for kind, (wall, scaled) in run.solve_round(kinds, probe).items():
            walls[kind].append(wall)
            samples[kind].append(scaled)

    def lagging(kinds, target):
        return [(k, m) for k, m in kinds if sum(walls[k]) < target]

    for j in range(len(TIMING_ORDER)):
        take(TIMING_ORDER[j : j + 1])
        behind = lagging(TIMING_ORDER[:j], share * (j + 1) / len(KINDS))
        if behind:
            take(behind)
    while active := [
        (k, m)
        for k, m in TIMING_ORDER
        if sum(walls[k]) < share
        or (len(walls[k]) < MIN_SAMPLES and sum(walls[k]) < seconds / 2)
    ]:
        take(active)
    for kind in KIND_NAMES:
        metrics[f"solve_s.{kind}"] = (statistics.median(samples[kind]), "s")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    walls["setup"], samples["setup"] = setup_walls, setup_times
    return metrics, {"wall_s": walls, "scaled_s": samples}


def py_bytes(sets) -> int:
    """Bytes of the Python objects the sets retain, by a sys.getsizeof walk.

    Objects every set shares with its factory (the factory, owner type,
    chunk config, cached masks and intervals) are not the set's own."""
    skip_attrs = {"factory", "owner", "cfg", "interval", "_intervals", "_mask", "mask"}
    seen = set()
    total = 0
    stack = list(sets)
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        total += sys.getsizeof(o)
        if isinstance(o, dict):
            stack.extend(o.keys())
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
        elif hasattr(o, "__slots__") or hasattr(o, "__dict__"):
            names = getattr(o, "__slots__", None) or list(vars(o))
            if hasattr(o, "__dict__"):
                total += sys.getsizeof(vars(o))
            stack.extend(getattr(o, a) for a in names if a not in skip_attrs)
    return total


def measure_layers(run: Run) -> tuple[dict, dict]:
    """Per-layer metrics from one untraced and one traced solve per kind."""
    untraced = sum(wall for wall, _ in run.solve_round(KINDS, SpeedProbe()).values())
    tracer = Tracer()
    tracer.install()
    try:
        setup(run.texts)
        traced = 0.0
        per_kind = {}
        sid = 0
        for kind, mode in KINDS:
            cfg = run.config(kind, mode)
            gc.collect()
            acc = dict.fromkeys(
                ("pops", "unions", "spilled", "modeled", "py_bytes", "hits"), 0
            )
            for i, (p, nr) in enumerate(run.progs):
                sid += 1
                with tracer.phase("solve", kind, sid, "solver.propagate"):
                    t0 = perf_counter()
                    sol = solver.propagate(p, nr, cfg)
                    traced += perf_counter() - t0
                run.gate(sol, i, kind, mode)
                with tracer.phase("verify", kind, sid):
                    hits = solver.run_extra_pass(sol)
                if hits:
                    run.failed += 1
                    run.problems.append(f"{kind} corpus {i}: {hits} verification hits")
                sets = list(sol.var_sets.values()) + list(sol.field_sets.values())
                acc["pops"] += sol.stats.nodes_processed
                acc["unions"] += sol.stats.union_ops
                acc["spilled"] += sum(getattr(s, "overflow", None) is not None for s in sets)
                acc["modeled"] += sol.stats.total_footprint_bytes
                acc["py_bytes"] += py_bytes(sets)
                acc["hits"] += hits
                del sol, sets
            per_kind[kind] = acc
    finally:
        tracer.uninstall()

    def total(spans, self_time=False):
        return sum(s.self_seconds if self_time else s.seconds for s in spans)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    m = {
        "pag.parse_s": (total(tracer.spans_of("pag.parse_program"), True), "s"),
        "pag.facts": (sum(fact_count(p) for p, _ in run.progs), "count"),
        "hierarchy.build_s": (total(tracer.spans_of("hierarchy.build_hierarchy")), "s"),
        "hierarchy.number_s": (total(tracer.spans_of("hierarchy.number_allocations")), "s"),
    }
    for k in MASK_KINDS:
        masks = tracer.spans_of("hierarchy.build_type_mask", k, parent="solver.propagate")
        m[f"hierarchy.masks_built.{k}"] = (len(masks), "count")
        m[f"hierarchy.mask_s.{k}"] = (total(masks), "s")
    for k in RANGED_KINDS:
        c = tracer.counts("solve", k)
        m[f"bitsets.or_overlapping_calls.{k}"] = (c[OR_CALLS], "count")
        m[f"bitsets.or_overlapping_s.{k}"] = (c[OR_S], "s")
        m[f"bitsets.or_overlapping_useful.{k}"] = (ratio(c[OR_USEFUL], c[OR_CALLS]), "ratio")
    for k, _ in KINDS:
        c = tracer.counts("solve", k)
        m[f"ptsets.add_all_calls.{k}"] = (c[ADD_CALLS], "count")
        m[f"ptsets.add_all_s.{k}"] = (c[ADD_S], "s")
        m[f"ptsets.add_all_useful.{k}"] = (ratio(c[ADD_USEFUL], c[ADD_CALLS]), "ratio")
        m[f"ptsets.fallback_calls.{k}"] = (c[FB_CALLS], "count")
        m[f"ptsets.fallback_s.{k}"] = (c[FB_S], "s")
    for k in HYBRID_KINDS:
        m[f"ptsets.spilled_sets.{k}"] = (per_kind[k]["spilled"], "count")
    for k, _ in KINDS:
        acc = per_kind[k]
        m[f"ptsets.modeled_bytes.{k}"] = (acc["modeled"], "bytes")
        m[f"ptsets.py_bytes.{k}"] = (acc["py_bytes"], "bytes")
        m[f"solver.pops.{k}"] = (acc["pops"], "count")
        m[f"solver.unions_ok.{k}"] = (acc["unions"], "count")
        m[f"solver.self_s.{k}"] = (total(tracer.spans_of("solver.propagate", k), True), "s")
        m[f"solver.verify_s.{k}"] = (total(tracer.spans_of("solver.run_extra_pass", k)), "s")
        m[f"solver.verify_hits.{k}"] = (acc["hits"], "count")
    m["trace.overhead_s"] = (traced - untraced, "s")
    return m, tracer.dump()


# -- reporting ---------------------------------------------------------------


def git_sha() -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(run: Run, args) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **run.workload.describe(args.seed),
    }


def pin_hash_seed():
    """Re-execute the running script under a fixed PYTHONHASHSEED.

    A fixed hash seed makes dict and set layouts, and so py_bytes, repeat
    exactly.  exec replaces this process rather than starting a second one."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = str(Path(sys.argv[0]).resolve())
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    pin_hash_seed()
    run = Run(WORKLOADS[args.workload], args.seed)
    if args.trace:
        metrics, trace = measure_layers(run)
        detail = {"trace": trace}
    else:
        metrics, samples = measure(run, args.seconds)
        detail = {"samples": samples}

    for name, (value, unit) in metrics.items():
        print(f"{name:42s} {value:>16.6g} {unit}")
    for name, walls in detail.get("samples", {}).get("wall_s", {}).items():
        print(f"{'wall median ' + name:42s} {statistics.median(walls):>16.6g} s")
    for problem in run.problems[:20]:
        print("FAILED", problem)
    record = {
        "environment": environment(run, args),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(dict(record, **detail), indent=1))
    print(json.dumps(record["environment"]))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

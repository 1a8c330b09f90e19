"""Self-test of the benchmark itself; run from the repository root:

    python3 perfbench/selftest.py

It checks, on a tiny two-corpus workload (a few seconds):

1. an untraced and a traced run emit exactly the metric names BENCHMARK.json
   declares, each matching [A-Za-z0-9_.-]+, and every solve passes the gate;
2. two traced runs give identical counts;
3. the gate is not vacuous: a solution with one member dropped is counted as
   failed, a non-slack member added to a ranged solution is rejected, and so
   is any extra member of an exact solution, while a slack member added to a
   ranged solution is accepted;
4. the speed probe returns the timed call's result and positive times, and
   disarms its timer and restores the SIGALRM handler, also when the call
   raises;
5. in a directory holding only BENCHMARK.json and the benchmark's files, the
   benchmark exits non-zero without printing a result.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import re
import shutil
import signal
import subprocess
import sys
import time

from run import HERE, OUT, ROOT, Run, measure, measure_layers, solver
from gate import check, members_of
from probe import SpeedProbe
from rangepta.pag import GenParams
from workloads import Workload

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
TINY = GenParams(
    num_classes=14,
    num_interfaces=3,
    max_depth=5,
    num_fields=4,
    num_vars=24,
    num_statements=160,
    allocs_per_class=(2, 6),
    store_load_ratio=0.2,
    violation_rate=0.1,
    pad_chunk=None,
)
TINY_WORKLOAD = Workload("tiny", 8, "self-test only", ((TINY, 3), (TINY, 4)))

failures: list[str] = []


def expect(ok: bool, what: str):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def test_metric_names():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for mode, key, produce in (
        (0, "end_to_end", lambda run: measure(run, 0.5)[0]),
        (1, "per_layer", lambda run: measure_layers(run)[0]),
    ):
        run = Run(TINY_WORKLOAD, 3)
        names = list(produce(run))
        want = [m["name"] for m in declared[key]]
        expect(names == want, f"--trace {mode} emits the {len(want)} {key} names in order")
        expect(all(NAME.match(n) for n in names), f"--trace {mode} names match {NAME.pattern}")
        expect(run.attempted > 0 and run.failed == 0, f"--trace {mode}: every solve passes")


def test_counts_repeat():
    def counts():
        metrics = measure_layers(Run(TINY_WORKLOAD, 5))[0]
        return {k: v for k, (v, unit) in metrics.items() if unit != "s"}

    a, b = counts(), counts()
    expect(a == b, f"two traced runs give identical counts ({len(a)} metrics)")


def some_var(members, ref, pick):
    """First var whose owner type admits pick(owner) -> alloc id or None."""
    for v in sorted(ref.pag.var_types):
        oid = pick(ref.pag.var_types[v], members[0].get(v, frozenset()))
        if oid is not None:
            return v, oid
    raise RuntimeError("tiny corpus has no suitable variable")


def with_extra(members, v, oid):
    vars_ = dict(members[0])
    vars_[v] = vars_.get(v, frozenset()) | {oid}
    return vars_, members[1]


def test_gate_not_vacuous():
    run = Run(TINY_WORKLOAD, 0)
    p, nr = run.progs[0]
    ref = run.refs[0]
    all_ids = [a.id for a in nr.global_array]

    # dropping one member of an exact solution counts the solve as failed
    sol = solver.propagate(p, nr, run.config("naive", "mask"))
    v = next(v for v in sorted(sol.var_sets) if sol.var_sets[v].members)
    sol.var_sets[v].members.discard(min(sol.var_sets[v].members))
    run.gate(sol, 0, "naive", "mask")
    expect(run.failed == 1, "a solution with one member dropped is counted as failed")

    sol = solver.propagate(p, nr, run.config("ranged", "intrinsic"))
    members = members_of(sol)
    expect(check(members, ref, ranged=True) == [], "the unmodified ranged solution passes")

    def non_slack(owner, have):
        slack = ref.slack(owner)
        compatible = {
            site.id for site in nr.global_array if owner in ref.supertypes[site.type_name]
        }
        return next(
            (o for o in all_ids if o not in have and o not in slack and o not in compatible),
            None,
        )

    v, oid = some_var(members, ref, non_slack)
    expect(
        check(with_extra(members, v, oid), ref, ranged=True) != [],
        "a ranged solution with a non-slack member added fails",
    )

    def in_slack(owner, have):
        return next((o for o in sorted(ref.slack(owner)) if o not in have), None)

    v, oid = some_var(members, ref, in_slack)
    expect(
        check(with_extra(members, v, oid), ref, ranged=True) == [],
        "a ranged solution with a slack member added passes",
    )
    exact = members_of(solver.propagate(p, nr, run.config("pure", "mask")))
    expect(
        check(with_extra(exact, v, oid), ref, ranged=False) != [],
        "an exact solution with that same member added fails",
    )


def test_probe():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    def boom():
        raise ValueError

    probe = SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    result, wall, scaled = probe.time(busy, 0.05)
    expect(
        result == "done" and wall >= 0.05 and scaled > 0 and len(probe.samples) > 2,
        "the probe returns the result and positive times, sampling during the call",
    )
    try:
        probe.time(boom)
    except ValueError:
        pass
    expect(
        signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        and signal.getsignal(signal.SIGALRM) is before,
        "the probe disarms its timer and restores the handler, also after a raise",
    )


def test_fails_without_sources():
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    cmd = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    res = subprocess.run(
        [sys.executable, *cmd[1:], "--workload", "deep", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    expect(
        res.returncode != 0 and '"correct"' not in res.stdout,
        "without the sources it exits non-zero and prints no result",
    )


if __name__ == "__main__":
    test_metric_names()
    test_counts_repeat()
    test_gate_not_vacuous()
    test_probe()
    test_fails_without_sources()
    print(f"{len(failures)} failed" if failures else "all passed")
    sys.exit(1 if failures else 0)

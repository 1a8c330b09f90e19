"""Command-line front end: corpus generation, solving, comparison reports.

Reports go to stdout, diagnostics to stderr; exit code 0 iff no errors.
Space figures are modeled bytes (MB at 10**6 bytes), not process
measurement.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import os
import statistics
import sys
from pathlib import Path
from typing import Optional

from .errors import FactSyntaxError, InvalidParamsError, PtaError, UnsupportedKindError
from .hierarchy import NumberingResult, number_allocations
from .pag import PAG, GenParams, generate_synthetic, parse_program
from .ptsets import SET_KINDS, sparse_savings
from .solver import (
    FILTER_MODES,
    HISTOGRAM_BUCKETS,
    Solution,
    SolverConfig,
    compare_solutions,
    emit_solution,
    measure,
    precision_histogram,
    propagate,
)


def _default_chunk() -> int:
    raw = os.environ.get("RANGE_PTA_CHUNK")
    if not raw:
        return SolverConfig.chunk_bits
    try:
        return int(raw)
    except ValueError:
        raise InvalidParamsError(
            f"RANGE_PTA_CHUNK must be an integer, got {raw!r}"
        ) from None


def _load_corpus(path: str) -> tuple[PAG, NumberingResult]:
    """Decode, parse and number a fact file: the input of every solve.  A
    leading UTF-8 byte-order mark is dropped."""
    data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FactSyntaxError(f"invalid UTF-8 byte 0x{data[e.start]:02x}", line) from None
    h, pag = parse_program(text)
    return pag, number_allocations(h, list(pag.allocs.values()))


def _make_report(path: str, sol: Solution) -> dict:
    """The solve report: column name -> value, in CSV column order.  Every
    report format reads this one dict: the corpus and config, then
    ``measure(sol)`` with the time to four places."""
    cfg = sol.config
    report = {
        "corpus": path,
        "set_kind": cfg.set_kind,
        "filter_mode": cfg.filter_mode,
        "chunk_bits": cfg.chunk_bits,
        **measure(sol),
    }
    report["wall_time_s"] = f"{report['wall_time_s']:.4f}"
    return report


def _report_text(report: dict) -> str:
    return (
        "corpus: {corpus}\n"
        "config: set={set_kind} filter={filter_mode} chunk={chunk_bits}\n"
        "universe: {total_allocs} allocs, {num_vars} vars\n"
        "propagation: unions={union_ops} attempts={union_attempts} "
        "nodes={nodes_processed} spills={spilled_sets} time={wall_time_s}s\n"
        "modeled space (bytes): var-sets={var_set_bytes} field-sets={field_set_bytes} "
        "shared-bases={shared_base_bytes} total={total_bytes}\n"
    ).format(**report)


def _report_csv(report: dict) -> str:
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([report.keys(), report.values()])
    return out.getvalue()


def _report_markdown(report: dict) -> str:
    lines = ["| metric | value |", "| --- | --- |"]
    for name, value in report.items():
        value = str(value).replace("|", r"\|")
        lines.append(f"| {name} | {value} |")
    return "\n".join(lines) + "\n"


# gen flag -> the GenParams field it sets, and takes its default from;
# --allocs-min and --allocs-max set the two ends of allocs_per_class
_GEN_FLAGS = {
    "--classes": "num_classes",
    "--interfaces": "num_interfaces",
    "--max-depth": "max_depth",
    "--fields": "num_fields",
    "--vars": "num_vars",
    "--statements": "num_statements",
    "--store-load-ratio": "store_load_ratio",
    "--violation-rate": "violation_rate",
    "--pad-chunk": "pad_chunk",
}


def _gen_params(args) -> GenParams:
    fields = {name: getattr(args, name) for name in _GEN_FLAGS.values()}
    return GenParams(allocs_per_class=(args.allocs_min, args.allocs_max), **fields)


def cmd_gen(args) -> int:
    out = Path(args.out)
    if out.exists() and not args.force:
        print(f"error: {out} exists (use --force to overwrite)", file=sys.stderr)
        return 1
    text = generate_synthetic(_gen_params(args), args.seed)
    parse_program(text)  # sanity: generated corpora always parse
    out.write_text(text)
    print(f"wrote {out}")
    return 0


def _config_from(args, suffix: str = "") -> SolverConfig:
    return SolverConfig(
        set_kind=getattr(args, "set" + suffix),
        filter_mode=getattr(args, "filter" + suffix),  # None: the kind's own
        chunk_bits=_default_chunk() if args.chunk is None else args.chunk,
    )


def cmd_solve(args) -> int:
    cfg = _config_from(args)
    sol = propagate(*_load_corpus(args.corpus), cfg)
    report = _make_report(args.corpus, sol)
    print(_report_text(report), end="")
    if args.emit_solution:
        Path(args.emit_solution).write_text(emit_solution(sol))
    if args.csv:
        Path(args.csv).write_text(_report_csv(report))
    if args.md:
        Path(args.md).write_text(_report_markdown(report))
    return 0


def cmd_compare(args) -> int:
    cfg_a = _config_from(args, "_a")
    cfg_b = _config_from(args, "_b")
    pag, nr = _load_corpus(args.corpus)
    sol_a = propagate(pag, nr, cfg_a)
    sol_b = propagate(pag, nr, cfg_b)
    result = compare_solutions(sol_a, sol_b)
    hist_a, pop_a = precision_histogram(sol_a)
    hist_b, pop_b = precision_histogram(sol_b)

    print(f"corpus: {args.corpus}")
    print(f"A: set={cfg_a.set_kind} filter={cfg_a.filter_mode}")
    print(f"B: set={cfg_b.set_kind} filter={cfg_b.filter_mode}")
    print(f"comparison: {result.status}")
    if result.diffs:
        slack = sum(1 for d in result.diffs if d.in_slack)
        print(f"extra members in A: {len(result.diffs)} ({slack} in interval slack)")
    if result.witnesses:
        for w in result.witnesses[:10]:
            print(f"  B-only member: {w.node} index {w.extra_index}")
    print(f"dereferenced variables: {pop_a}")
    print("bucket  A/B (% of dereferenced variables)")
    for name, pa, pb in zip(HISTOGRAM_BUCKETS, hist_a, hist_b):
        print(f"{name:>8}  {pa:.2f}/{pb:.2f}")
    return 0


def cmd_savings(args) -> int:
    cfg = _config_from(args)
    if SET_KINDS[cfg.set_kind].chunk_arrays is None:
        raise UnsupportedKindError(
            f"sparse savings undefined for set kind {cfg.set_kind!r}"
        )
    sol = propagate(*_load_corpus(args.corpus), cfg)
    all_sets = list(sol.var_sets.values()) + list(sol.field_sets.values())
    saved = sum(sparse_savings(s, cfg.set_kind) for s in all_sets)
    total = measure(sol)["total_bytes"]
    print(f"corpus: {args.corpus}")
    print(f"config: set={cfg.set_kind} filter={cfg.filter_mode} chunk={cfg.chunk_bits}")
    print("total set size / space saved with sparse elements (MB, modeled):")
    print(f"{total / 1e6:.1f}/{saved / 1e6:.1f}")
    return 0


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise InvalidParamsError(f"--repeat must be at least 1, got {args.repeat}")
    cfg = _config_from(args)
    pag, nr = _load_corpus(args.corpus)
    times = []
    sol: Optional[Solution] = None
    for _ in range(args.repeat):
        sol = propagate(pag, nr, cfg)
        times.append(sol.stats.wall_time)
    print(_report_text(_make_report(args.corpus, sol)), end="")
    print(f"median propagation time over {args.repeat} runs: {statistics.median(times):.4f}s")
    return 0


def _add_solver_flags(p, suffix: str = ""):
    p.add_argument("--set" + suffix.replace("_", "-"), dest="set" + suffix,
                   choices=SET_KINDS, default=SolverConfig.set_kind)
    p.add_argument("--filter" + suffix.replace("_", "-"), dest="filter" + suffix,
                   choices=FILTER_MODES,
                   help="default: intrinsic for a ranged set kind, mask otherwise")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rangepta",
        description="Points-to analysis with interval-numbered ranged bit-vector sets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic corpus")
    defaults = GenParams()
    for flag, name in _GEN_FLAGS.items():
        default = getattr(defaults, name)
        # the ratios are floats; every other field, pad_chunk included, an int
        g.add_argument(flag, dest=name, default=default,
                       type=float if isinstance(default, float) else int)
    lo, hi = defaults.allocs_per_class
    g.add_argument("--allocs-min", type=int, default=lo)
    g.add_argument("--allocs-max", type=int, default=hi)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    # the corpus and chunk width of every subcommand that solves
    solving = argparse.ArgumentParser(add_help=False)
    solving.add_argument("corpus")
    solving.add_argument("--chunk", type=int)

    s = sub.add_parser("solve", parents=[solving],
                       help="run the analysis and print a report")
    _add_solver_flags(s)
    s.add_argument("--emit-solution", metavar="PATH")
    s.add_argument("--csv", metavar="PATH")
    s.add_argument("--md", metavar="PATH")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", parents=[solving],
                       help="compare two configurations on one corpus")
    _add_solver_flags(c, "_a")
    _add_solver_flags(c, "_b")
    c.set_defaults(func=cmd_compare)

    v = sub.add_parser("savings", parents=[solving],
                       help="sparse-bitmap space savings report")
    _add_solver_flags(v)
    v.set_defaults(func=cmd_savings)

    b = sub.add_parser("bench", parents=[solving],
                       help="repeat solve and report the median time")
    _add_solver_flags(b)
    b.add_argument("--repeat", type=int, default=5)
    b.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (PtaError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

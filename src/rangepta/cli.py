"""Command-line front end: corpus generation, solving, comparison reports.

Reports go to stdout, diagnostics to stderr; exit code 0 iff no errors.
Space figures are modeled bytes (MB at 10**6 bytes), not process
measurement.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from dataclasses import dataclass, fields as dc_fields
from pathlib import Path
from typing import Optional

from .bitsets import ChunkConfig
from .errors import FactSyntaxError, InvalidParamsError, PtaError, UnsupportedKindError
from .hierarchy import number_allocations
from .pag import GenParams, generate_synthetic, parse_program
from .ptsets import SET_KINDS, sparse_savings
from .solver import (
    FILTER_MODES,
    HISTOGRAM_BUCKETS,
    Solution,
    SolverConfig,
    compare_solutions,
    emit_solution,
    precision_histogram,
    propagate,
)


def _default_chunk() -> int:
    raw = os.environ.get("RANGE_PTA_CHUNK")
    if not raw:
        return 64
    try:
        return int(raw)
    except ValueError:
        raise InvalidParamsError(
            f"RANGE_PTA_CHUNK must be an integer, got {raw!r}"
        ) from None


@dataclass
class RunReport:
    corpus: str
    set_kind: str
    filter_mode: str
    chunk_bits: int
    total_allocs: int
    num_vars: int
    union_ops: int
    nodes_processed: int
    wall_time_s: str
    var_set_bytes: int
    field_set_bytes: int
    shared_base_bytes: int
    total_bytes: int

    def to_csv(self) -> str:
        names = [f.name for f in dc_fields(self)]
        values = [str(getattr(self, n)) for n in names]
        return ",".join(names) + "\n" + ",".join(values) + "\n"

    def to_markdown(self) -> str:
        names = [f.name for f in dc_fields(self)]
        lines = ["| metric | value |", "| --- | --- |"]
        for n in names:
            lines.append(f"| {n} | {getattr(self, n)} |")
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        lines = [f"corpus: {self.corpus}"]
        lines.append(
            f"config: set={self.set_kind} filter={self.filter_mode} chunk={self.chunk_bits}"
        )
        lines.append(f"universe: {self.total_allocs} allocs, {self.num_vars} vars")
        lines.append(
            f"propagation: unions={self.union_ops} "
            f"nodes={self.nodes_processed} time={self.wall_time_s}s"
        )
        lines.append(
            "modeled space (bytes): "
            f"var-sets={self.var_set_bytes} field-sets={self.field_set_bytes} "
            f"shared-bases={self.shared_base_bytes} total={self.total_bytes}"
        )
        return "\n".join(lines) + "\n"


def _solve_corpus(path: str, cfg: SolverConfig) -> Solution:
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise FactSyntaxError(f"invalid UTF-8 byte 0x{data[e.start]:02x}", line) from None
    h, pag = parse_program(text)
    nr = number_allocations(h, list(pag.allocs.values()))
    return propagate(pag, nr, cfg)


def _make_report(path: str, sol: Solution) -> RunReport:
    var_bytes = sum(s.footprint_bytes() for s in sol.var_sets.values())
    field_bytes = sum(s.footprint_bytes() for s in sol.field_sets.values())
    total = sol.stats.total_footprint_bytes
    return RunReport(
        corpus=path,
        set_kind=sol.config.set_kind,
        filter_mode=sol.config.filter_mode,
        chunk_bits=sol.config.chunk_bits,
        total_allocs=sol.nr.total_allocs,
        num_vars=len(sol.pag.var_types),
        union_ops=sol.stats.union_ops,
        nodes_processed=sol.stats.nodes_processed,
        wall_time_s=f"{sol.stats.wall_time:.4f}",
        var_set_bytes=var_bytes,
        field_set_bytes=field_bytes,
        shared_base_bytes=total - var_bytes - field_bytes,
        total_bytes=total,
    )


def _gen_params(args) -> GenParams:
    return GenParams(
        num_classes=args.classes,
        num_interfaces=args.interfaces,
        max_depth=args.max_depth,
        num_fields=args.fields,
        num_vars=args.vars,
        num_statements=args.statements,
        allocs_per_class=(args.allocs_min, args.allocs_max),
        store_load_ratio=args.store_load_ratio,
        violation_rate=args.violation_rate,
        pad_chunk=args.pad_chunk,
    )


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
    cfg = SolverConfig(
        set_kind=getattr(args, "set" + suffix),
        filter_mode=getattr(args, "filter" + suffix),
        chunk_bits=_default_chunk() if args.chunk is None else args.chunk,
    )
    cfg.validate()
    return cfg


def cmd_solve(args) -> int:
    cfg = _config_from(args)
    sol = _solve_corpus(args.corpus, cfg)
    report = _make_report(args.corpus, sol)
    print(report.to_text(), end="")
    if args.emit_solution:
        Path(args.emit_solution).write_text(emit_solution(sol))
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    if args.md:
        Path(args.md).write_text(report.to_markdown())
    return 0


def cmd_compare(args) -> int:
    cfg_a = _config_from(args, "_a")
    cfg_b = _config_from(args, "_b")
    sol_a = _solve_corpus(args.corpus, cfg_a)
    sol_b = _solve_corpus(args.corpus, cfg_b)
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
    if not SET_KINDS[cfg.set_kind].dense_chunks:
        raise UnsupportedKindError(
            f"sparse savings undefined for set kind {cfg.set_kind!r}"
        )
    sol = _solve_corpus(args.corpus, cfg)
    chunk_cfg = ChunkConfig(cfg.chunk_bits)
    all_sets = list(sol.var_sets.values()) + list(sol.field_sets.values())
    saved = sum(sparse_savings(s, chunk_cfg) for s in all_sets)
    total = sol.stats.total_footprint_bytes
    print(f"corpus: {args.corpus}")
    print(f"config: set={cfg.set_kind} filter={cfg.filter_mode} chunk={cfg.chunk_bits}")
    print("total set size / space saved with sparse elements (MB, modeled):")
    print(f"{total / 1e6:.1f}/{saved / 1e6:.1f}")
    return 0


def cmd_bench(args) -> int:
    if args.repeat < 1:
        raise InvalidParamsError(f"--repeat must be at least 1, got {args.repeat}")
    cfg = _config_from(args)
    times = []
    sol: Optional[Solution] = None
    for _ in range(args.repeat):
        sol = _solve_corpus(args.corpus, cfg)
        times.append(sol.stats.wall_time)
    report = _make_report(args.corpus, sol)
    print(report.to_text(), end="")
    print(f"median propagation time over {args.repeat} runs: {statistics.median(times):.4f}s")
    return 0


def _add_solver_flags(p, suffix: str = ""):
    p.add_argument("--set" + suffix.replace("_", "-"), dest="set" + suffix,
                   choices=SET_KINDS, default="hybrid")
    p.add_argument("--filter" + suffix.replace("_", "-"), dest="filter" + suffix,
                   choices=FILTER_MODES, default="mask")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rangepta",
        description="Points-to analysis with interval-numbered ranged bit-vector sets",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a synthetic corpus")
    g.add_argument("--classes", type=int, default=30)
    g.add_argument("--interfaces", type=int, default=5)
    g.add_argument("--max-depth", type=int, default=6)
    g.add_argument("--fields", type=int, default=8)
    g.add_argument("--vars", type=int, default=60)
    g.add_argument("--statements", type=int, default=400)
    g.add_argument("--allocs-min", type=int, default=1)
    g.add_argument("--allocs-max", type=int, default=4)
    g.add_argument("--store-load-ratio", type=float, default=0.2)
    g.add_argument("--violation-rate", type=float, default=0.1)
    g.add_argument("--pad-chunk", type=int, default=None)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("-o", "--out", required=True)
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("solve", help="run the analysis and print a report")
    s.add_argument("corpus")
    _add_solver_flags(s)
    s.add_argument("--chunk", type=int)
    s.add_argument("--emit-solution", metavar="PATH")
    s.add_argument("--csv", metavar="PATH")
    s.add_argument("--md", metavar="PATH")
    s.set_defaults(func=cmd_solve)

    c = sub.add_parser("compare", help="compare two configurations on one corpus")
    c.add_argument("corpus")
    _add_solver_flags(c, "_a")
    _add_solver_flags(c, "_b")
    c.add_argument("--chunk", type=int)
    c.set_defaults(func=cmd_compare)

    v = sub.add_parser("savings", help="sparse-bitmap space savings report")
    v.add_argument("corpus")
    _add_solver_flags(v)
    v.add_argument("--chunk", type=int)
    v.set_defaults(func=cmd_savings)

    b = sub.add_parser("bench", help="repeat solve and report the median time")
    b.add_argument("corpus")
    _add_solver_flags(b)
    b.add_argument("--chunk", type=int)
    b.add_argument("--repeat", type=int, default=5)
    b.set_defaults(func=cmd_bench)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except PtaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end acceptance checks for the analysis engine.

Each criterion is one test; the ``pytest -v`` line for the test doubles as
its pass/fail record, and every test additionally prints a one-line verdict
with its headline numbers.  Solutions are cached module-wide so the
criteria that share corpora do not re-solve them.
"""

import random
import re
import time

from oracles import (
    aligned_span,
    closure_supertypes,
    compatible_indices,
    ranged_union_oracle,
    runs_of,
)
from rangepta.bitsets import ChunkConfig
from rangepta.cli import main
from rangepta.hierarchy import (
    AllocSite,
    Interval,
    build_hierarchy,
    intervals_of,
    number_allocations,
)
from rangepta.pag import GenParams, generate_synthetic, parse_program
from rangepta.ptsets import (
    HYBRID_INLINE_CAP,
    SET_KINDS,
    PureBitVectorSet,
    RangedPointsToSet,
    SetFactory,
    sparse_savings,
)
from rangepta.solver import (
    HISTOGRAM_BUCKETS,
    SolverConfig,
    compare_solutions,
    emit_solution,
    precision_histogram,
    propagate,
    run_extra_pass,
)

EXACT_KINDS = ("naive", "pure", "hybrid", "shared", "sparse")

SUITE_SIZE = 50
SUITE_CHUNK = 8


def _suite_params(i):
    """Default corpus suite: 50 corpora, the last ones at 2000 statements."""
    if i < 35:
        n_vars, n_stmts = 40, 300
    elif i < 45:
        n_vars, n_stmts = 60, 800
    else:
        n_vars, n_stmts = 80, 2000
    return GenParams(
        num_classes=30,
        num_interfaces=4,
        num_fields=6,
        num_vars=n_vars,
        num_statements=n_stmts,
        allocs_per_class=(8, 16),
    )


DEEP_SUITE_SIZE = 5
DEEP_PARAMS = GenParams(
    num_classes=80,
    max_depth=12,
    num_interfaces=0,
    num_fields=6,
    num_vars=40,
    num_statements=2500,
    allocs_per_class=(60, 80),
    store_load_ratio=0.1,
    violation_rate=0.02,
)

_texts = {}
_corpora = {}
_solutions = {}


def suite_text(i):
    if i not in _texts:
        _texts[i] = generate_synthetic(_suite_params(i), i)
    return _texts[i]


def load_corpus(text):
    if text not in _corpora:
        h, pag = parse_program(text)
        nr = number_allocations(h, list(pag.allocs.values()))
        _corpora[text] = (pag, nr)
    return _corpora[text]


def solve_text(text, kind, mode, chunk=SUITE_CHUNK):
    key = (text, kind, mode, chunk)
    if key not in _solutions:
        pag, nr = load_corpus(text)
        _solutions[key] = propagate(pag, nr, SolverConfig(kind, mode, chunk))
    return _solutions[key]


def verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok


def test_criterion_01_numbering_correctness():
    rng = random.Random(11)
    start = time.perf_counter()
    for _ in range(200):
        n = rng.randint(1, 100)
        classes = [("Object", None, ())]
        names = ["Object"]
        for i in range(1, n):
            classes.append((f"K{i}", rng.choice(names), ()))
            names.append(f"K{i}")
        budget = 500
        allocs = []
        for cls in names:
            k = min(rng.randint(0, 6), budget)
            budget -= k
            for j in range(k):
                allocs.append(AllocSite(f"{cls}_{j}", cls))
        h = build_hierarchy(classes)
        nr = number_allocations(h, allocs)

        # independent oracle: transitive-closure compatibility per index
        supertypes = closure_supertypes(classes, [])
        compatible = {c: set() for c in names}
        for i in range(1, nr.total_allocs + 1):
            for sup in supertypes[nr.type_of_index(i)]:
                compatible[sup].add(i)
        intervals = {}
        for c in names:
            iv = nr.type2interval[c]
            got = set() if iv.empty else set(range(iv.lower, iv.upper + 1))
            assert got == compatible[c], c
            if not iv.empty:
                intervals[c] = (iv.lower, iv.upper)

        # laminar family: any two class intervals nest or are disjoint
        ivs = sorted(intervals.values())
        for (al, au) in ivs:
            for (bl, bu) in ivs:
                assert (
                    (al <= bl and bu <= au)
                    or (bl <= al and au <= bu)
                    or au < bl
                    or bu < al
                )
    elapsed = time.perf_counter() - start
    verdict(1, elapsed < 10.0, f"200 hierarchies exact+laminar in {elapsed:.1f}s")


def test_criterion_02_worked_numbering_trace():
    classes = [
        ("Object", None, ()),
        ("A", "Object", ()),
        ("B", "A", ()),
        ("C", "A", ()),
        ("D", "Object", ()),
    ]
    counts = [("Object", 2), ("A", 3), ("B", 1), ("C", 2), ("D", 4)]
    allocs = [
        AllocSite(f"{c.lower()}{k}", c) for c, n in counts for k in range(n)
    ]
    nr = number_allocations(build_hierarchy(classes), allocs)
    expected = {
        "B": Interval(6, 6),
        "C": Interval(7, 8),
        "A": Interval(3, 8),
        "D": Interval(9, 12),
        "Object": Interval(1, 12),
    }
    ok = all(nr.type2interval[c] == iv for c, iv in expected.items())
    ok = ok and tuple(nr.type2interval) == ("B", "C", "A", "D", "Object")
    verdict(2, ok, f"intervals {sorted(expected)} exact, creation order B,C,A,D,Object")


def _union_corpus(rng, max_allocs=6):
    """A random class tree of classes with 1..max_allocs allocs; each
    interface is implemented by a run of consecutively declared classes, so
    intervals nest, interface intervals overlap partly, and disjoint
    intervals share chunks."""
    n = rng.randint(2, 12)
    runs = {}
    for j in range(rng.randint(4, 10)):
        lo = rng.randrange(n)
        runs[f"I{j}"] = range(lo, lo + rng.randint(2, 4))
    classes = [("Object", None, ())]
    for i in range(n):
        # mostly children of the root, so declaration order is tree order
        parent = "Object" if rng.random() < 0.7 else rng.choice(classes)[0]
        impl = tuple(j for j, r in runs.items() if i in r)
        classes.append((f"C{i}", parent, impl))
    ifaces = list(runs)
    allocs = [
        AllocSite(f"{name}_{k}", name)
        for name, _, _ in classes
        for k in range(rng.randint(1, max_allocs))
    ]
    iface_decls = [(j, ()) for j in ifaces]
    nr = number_allocations(build_hierarchy(classes, iface_decls), allocs)
    supertypes = closure_supertypes(classes, iface_decls)
    types = [name for name, _, _ in classes] + ifaces
    compat = {t: compatible_indices(nr, supertypes, t) for t in types}
    return nr, compat


def _held(s, owner):
    """The absolute indices each vector of s, a set of the named owner
    type, holds, by lower bound."""
    cb = s.factory.cfg.chunk_bits
    ivs = intervals_of(s.factory.nr, owner)
    return [
        {aligned_span((iv.lower, iv.upper), cb)[0] + b for b in _bit_offsets(value)}
        for iv, (_, value) in zip(ivs, SET_KINDS["ranged"].chunk_arrays(s))
    ]


def test_criterion_03_ranged_or_oracle():
    # the documented geometry: with 8-bit chunks, a type whose interval
    # is [10,20] gets one vector of 2 chunks from aligned lower bound 8
    h = build_hierarchy([("Object", None, ()), ("L", "Object", ())])
    allocs = [AllocSite(f"o{i}", "Object") for i in range(9)]
    allocs += [AllocSite(f"l{i}", "L") for i in range(11)]
    f = SetFactory(number_allocations(h, allocs), ChunkConfig(8), "ranged")
    assert intervals_of(f.nr, "L") == [Interval(10, 20)]
    assert [v[:2] for v in f.maker("L")().geometry.vectors] == [(2, 8)]

    # the union the solver runs (RangedPointsToSet.add_all) against a
    # bit-level oracle:
    # each vector gains the source's in-interval members inside its
    # aligned chunk span, whatever the two types' intervals
    rng = random.Random(23)
    cases = slack_src = partial = shared_chunk = copied = 0
    while cases < 10_000:
        cb = rng.choice((8, 64))
        nr, compat = _union_corpus(rng)
        f = SetFactory(nr, ChunkConfig(cb), "ranged")
        sets = {t: f.maker(t)() for t in compat}
        for t, s in sets.items():
            ivs = intervals_of(nr, t)
            assert [(iv.lower, iv.upper) for iv in ivs] == runs_of(compat[t])
            assert len(SET_KINDS["ranged"].chunk_arrays(s)) == len(ivs)
            for i in compat[t]:
                if rng.random() < 0.3:
                    s.add(i)
        # every ordered pair of types twice, in random order, so sets pick
        # up slack from earlier unions before they act as sources
        pairs = [(dt, st) for dt in compat for st in compat] * 2
        rng.shuffle(pairs)
        for dt, st in pairs:
            dst, src = sets[dt], sets[st]
            if rng.random() < 0.2:
                dst.add(rng.randint(1, nr.total_allocs))
            src_held = set().union(*_held(src, st))
            incoming = src_held & compat[st]
            before = _held(dst, dt)
            expected = [
                ranged_union_oracle((iv.lower, iv.upper), held, incoming, cb)
                for iv, held in zip(intervals_of(nr, dt), before)
            ]
            changed = dst.add_all(src)
            assert _held(dst, dt) == expected, (dt, st, cb)
            assert changed == (expected != before), (dt, st, cb)
            cases += 1

            # the case mix: interval pairs of the two types, with their spans
            geometry = [
                (x, aligned_span(x, cb), y, aligned_span(y, cb))
                for x in runs_of(compat[dt])
                for y in runs_of(compat[st])
            ]
            partial += any(
                x[0] < y[0] <= x[1] < y[1] or y[0] < x[0] <= y[1] < x[1]
                for x, _, y, _ in geometry
            )
            shared_chunk += any(
                (x[1] < y[0] or y[1] < x[0]) and ys[0] <= xs[1] and xs[0] <= ys[1]
                for x, xs, y, ys in geometry
            )
            slack_src += src_held != incoming
            copied += changed and set().union(*before) == set().union(*expected)
    verdict(
        3,
        min(slack_src, partial, shared_chunk, copied) > 0,
        f"{cases} randomized unions match the oracle (sources with slack {slack_src}, "
        f"partly overlapping intervals {partial}, disjoint intervals sharing a chunk "
        f"{shared_chunk}, changes that only copy a member {copied})",
    )


def test_criterion_04_representation_equivalence():
    start = time.perf_counter()
    diffs = 0
    for i in range(SUITE_SIZE):
        text = suite_text(i)
        outputs = {
            emit_solution(solve_text(text, kind, "mask")) for kind in EXACT_KINDS
        }
        if len(outputs) != 1:
            diffs += 1
    elapsed = time.perf_counter() - start
    verdict(
        4,
        diffs == 0 and elapsed < 60.0,
        f"{SUITE_SIZE} corpora x {len(EXACT_KINDS)} kinds bytewise equal in {elapsed:.1f}s",
    )


def test_criterion_05_filter_ordering_and_slack_confinement():
    extras = unconfined = 0
    for i in range(SUITE_SIZE):
        text = suite_text(i)
        a = solve_text(text, "ranged-hybrid", "intrinsic")
        b = solve_text(text, "hybrid", "mask")
        res = compare_solutions(a, b)
        assert res.status in ("equal", "a_superset"), i
        assert not res.witnesses
        extras += len(res.diffs)
        unconfined += sum(1 for d in res.diffs if not d.in_slack)

    # alignment collapse: chunk-padded corpora leave no slack at all
    padded = GenParams(
        num_classes=20,
        num_interfaces=3,
        num_fields=5,
        num_vars=30,
        num_statements=200,
        allocs_per_class=(1, 6),
        pad_chunk=SUITE_CHUNK,
    )
    collapsed = 0
    for seed in range(6):
        text = generate_synthetic(padded, seed)
        a = solve_text(text, "ranged-hybrid", "intrinsic")
        b = solve_text(text, "hybrid", "mask")
        if compare_solutions(a, b).status == "equal":
            collapsed += 1
    verdict(
        5,
        unconfined == 0 and collapsed == 6,
        f"{extras} extras all within chunk slack; 6/6 padded corpora identical",
    )


def test_criterion_06_precision_delta_smallness():
    counts_a = [0.0] * 7
    counts_b = [0.0] * 7
    population = 0
    for i in range(SUITE_SIZE):
        text = suite_text(i)
        pa, na = precision_histogram(solve_text(text, "ranged-hybrid", "intrinsic"))
        pb, nb = precision_histogram(solve_text(text, "hybrid", "mask"))
        assert na == nb
        for j in range(7):
            counts_a[j] += pa[j] * na / 100.0
            counts_b[j] += pb[j] * nb / 100.0
        population += na
    pct_a = [100.0 * c / population for c in counts_a]
    pct_b = [100.0 * c / population for c in counts_b]

    print("points-to set size distribution, % of dereferenced variables")
    print(f"{'bucket':>8}  intrinsic / type masking")
    for name, a, b in zip(HISTOGRAM_BUCKETS, pct_a, pct_b):
        print(f"{name:>8}  {a:9.2f} / {b:.2f}")
    worst = max(abs(a - b) for a, b in zip(pct_a, pct_b))
    verdict(6, worst <= 1.0, f"max bucket delta {worst:.2f}pp over {population} vars")


def test_criterion_07_memory_ratio_direction():
    total_ranged = total_hybrid = 0
    ratios = []
    for seed in range(DEEP_SUITE_SIZE):
        text = generate_synthetic(DEEP_PARAMS, seed)
        r = solve_text(text, "ranged-hybrid", "intrinsic")
        h = solve_text(text, "hybrid", "mask")
        total_ranged += r.stats.total_footprint_bytes
        total_hybrid += h.stats.total_footprint_bytes
        ratios.append(r.stats.total_footprint_bytes / h.stats.total_footprint_bytes)
    ratio = total_ranged / total_hybrid
    print("per-corpus ranged-hybrid/hybrid footprint ratios:",
          " ".join(f"{x:.3f}" for x in ratios))
    verdict(7, ratio <= 0.7, f"suite footprint ratio {ratio:.3f} (bound 0.7)")


def _bit_offsets(value):
    out = set()
    while value:
        low = value & -value
        out.add(low.bit_length() - 1)
        value ^= low
    return out


def _savings_oracle(s, kind, cb):
    """Brute-force zero-window count over the bit arrays kind keeps for a
    set; cb is the chunk width in bits, a window is eight chunks."""
    if kind in ("hybrid", "ranged-hybrid") and len(s) <= HYBRID_INLINE_CAP:
        return 0  # still in its inline slots
    if isinstance(s, PureBitVectorSet):  # a spilled hybrid set too
        arrays = [(s.factory.universe_chunks, _bit_offsets(s.bits))]
    else:
        assert isinstance(s, RangedPointsToSet)  # a spilled ranged-hybrid set too
        ranged_arrays = SET_KINDS["ranged"].chunk_arrays(s)
        arrays = [(n, _bit_offsets(value)) for n, value in ranged_arrays]
    window_bits = 8 * cb
    saved = 0
    for num_chunks, offsets in arrays:
        for w in range(-(-num_chunks // 8)):
            lo, hi = w * window_bits, (w + 1) * window_bits - 1
            if not any(lo <= b <= hi for b in offsets):
                saved += 8 * (cb // 8)
    return saved


def test_criterion_08_sparse_savings_oracle(tmp_path, capsys):
    params = GenParams(
        num_classes=15,
        num_interfaces=2,
        num_fields=4,
        num_vars=20,
        num_statements=120,
        allocs_per_class=(2, 8),
    )
    kinds = [("pure", "mask"), ("hybrid", "mask"),
             ("ranged", "intrinsic"), ("ranged-hybrid", "intrinsic")]
    checked = 0
    for seed in range(100):
        kind, mode = kinds[seed % len(kinds)]
        chunk = (8, 64)[seed % 2]
        sol = solve_text(generate_synthetic(params, seed), kind, mode, chunk)
        all_sets = list(sol.var_sets.values()) + list(sol.field_sets.values())
        got = sum(sparse_savings(s, kind) for s in all_sets)
        want = sum(_savings_oracle(s, kind, chunk) for s in all_sets)
        assert got == want, seed
        checked += 1

    corpus = tmp_path / "c.facts"
    corpus.write_text(generate_synthetic(params, 0))
    assert main(["savings", str(corpus), "--set", "ranged", "--filter", "intrinsic"]) == 0
    cell = capsys.readouterr().out.strip().splitlines()[-1]
    fmt_ok = re.fullmatch(r"\d+\.\d/\d+\.\d", cell) is not None
    verdict(8, checked == 100 and fmt_ok,
            f"100 solutions bit-exact; report cell {cell!r}")


def test_criterion_09_determinism():
    p = _suite_params(0)
    gen_ok = generate_synthetic(p, 5) == generate_synthetic(p, 5)
    text = suite_text(0)
    ok = gen_ok
    for kind, mode in (("hybrid", "mask"), ("ranged-hybrid", "intrinsic")):
        pag, nr = load_corpus(text)
        a = propagate(pag, nr, SolverConfig(kind, mode, SUITE_CHUNK))
        b = propagate(pag, nr, SolverConfig(kind, mode, SUITE_CHUNK))
        ok = ok and emit_solution(a) == emit_solution(b)
        ok = ok and (a.stats.union_ops, a.stats.nodes_processed,
                     a.stats.total_footprint_bytes) == (
            b.stats.union_ops, b.stats.nodes_processed,
            b.stats.total_footprint_bytes)
    verdict(9, ok, "repeated gen/solve byte-identical incl. counters")


def test_criterion_10_fixpoint_idempotence():
    rechecked = hits = 0
    for i in range(SUITE_SIZE):
        text = suite_text(i)
        for kind, mode in (("hybrid", "mask"), ("ranged-hybrid", "intrinsic")):
            hits += run_extra_pass(solve_text(text, kind, mode))
            rechecked += 1
    for kind in EXACT_KINDS:
        for i in (0, 17, 49):
            hits += run_extra_pass(solve_text(suite_text(i), kind, "mask"))
            rechecked += 1
    verdict(10, hits == 0, f"{rechecked} solutions, zero unions on the extra pass")

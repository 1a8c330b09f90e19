import gc
import re
import weakref
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    aligned_span,
    brute_force_propagate,
    closure_supertypes,
    compatible_indices,
    rewalk_propagate,
    runs_of,
)
from test_acceptance import SUITE_CHUNK, suite_text
from test_hierarchy import WIDE_SHAPE, _line_events
from rangepta import ptsets, solver
from rangepta.bitsets import ChunkConfig
from rangepta.errors import (
    ConfigConflictError,
    ConfigMismatchError,
    InvalidParamsError,
    PtaError,
    UniverseMismatchError,
    UnknownTypeError,
)
from rangepta.hierarchy import build_type_mask, number_allocations
from rangepta.pag import GenParams, generate_synthetic, parse_program
from rangepta.ptsets import (
    OBJECT_HEADER,
    REF_BYTES,
    SET_KINDS,
    SPARSE_ELEMENT_WORDS,
    _occupied_windows,
    sparse_savings,
)
from rangepta.solver import (
    SolverConfig,
    compare_solutions,
    emit_solution,
    measure,
    precision_histogram,
    propagate,
    run_extra_pass,
)

EXACT_CONFIGS = [
    SolverConfig("naive", "mask"),
    SolverConfig("pure", "mask"),
    SolverConfig("hybrid", "mask"),
    SolverConfig("shared", "mask"),
    SolverConfig("sparse", "mask"),
]
RANGED_CONFIGS = [
    SolverConfig("ranged", "intrinsic"),
    SolverConfig("ranged-hybrid", "intrinsic"),
]

BASIC = """\
class Object
class A extends Object
class B extends A
var a : A
var b : B
var o : Object
field f : A
alloc oa : A
alloc ob : B
new a oa
new b ob
assign a b
assign o a
assign b a
store o f b
load a o f
"""


def load_corpus(text):
    h, pag = parse_program(text)
    nr = number_allocations(h, list(pag.allocs.values()))
    return pag, nr


def solve_text(text, cfg):
    pag, nr = load_corpus(text)
    return propagate(pag, nr, cfg)


def oracle_for(pag, nr, filtered=True):
    sup = closure_supertypes(pag.class_decls, pag.iface_decls)
    return brute_force_propagate(pag, nr.index_of, nr.type_of_index, sup, filtered)


class TestConfig:
    # a config checks itself when made, so each case below is a constructor

    def test_valid(self):
        for cfg in EXACT_CONFIGS + RANGED_CONFIGS:
            SolverConfig(cfg.set_kind, cfg.filter_mode)
        SolverConfig("ranged", "none")
        SolverConfig("naive", "none")

    def test_intrinsic_needs_ranged(self):
        with pytest.raises(ConfigConflictError):
            SolverConfig("hybrid", "intrinsic")

    def test_mask_needs_unranged(self):
        with pytest.raises(ConfigConflictError):
            SolverConfig("ranged", "mask")

    def test_unknown_names(self):
        with pytest.raises(ConfigConflictError):
            SolverConfig("fancy", "mask")
        with pytest.raises(ConfigConflictError):
            SolverConfig("naive", "strict")

    # (constructor arguments, the PtaError subclass raised, its message)
    INVALID = [
        (("fancy", "mask"), ConfigConflictError, "unknown set kind 'fancy'"),
        (("fancy",), ConfigConflictError, "unknown set kind 'fancy'"),
        (("naive", "strict"), ConfigConflictError, "unknown filter mode 'strict'"),
        (("ranged", "mask"), ConfigConflictError,
         "mask filtering requires a non-ranged set kind"),
        (("ranged-hybrid", "mask"), ConfigConflictError,
         "mask filtering requires a non-ranged set kind"),
        (("hybrid", "intrinsic"), ConfigConflictError,
         "intrinsic filtering requires a ranged set kind"),
        (("naive", "intrinsic"), ConfigConflictError,
         "intrinsic filtering requires a ranged set kind"),
        (("pure", "mask", 7), InvalidParamsError,
         "chunk_bits must be one of (8, 16, 32, 64), got 7"),
        (("ranged", None, 7), InvalidParamsError,
         "chunk_bits must be one of (8, 16, 32, 64), got 7"),
    ]

    @pytest.mark.parametrize(
        "args, error, message", INVALID, ids=["-".join(map(str, c[0])) for c in INVALID]
    )
    def test_invalid_config_raises_when_made(self, args, error, message):
        assert issubclass(error, PtaError)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SolverConfig(*args)

    def test_default_is_hybrid_with_its_own_filter(self):
        assert SolverConfig() == SolverConfig("hybrid", "mask", 64)


CHUNK_8_0 = "chunk_bits must be one of (8, 16, 32, 64), got 8.0"
# (case, constructor, the InvalidParamsError message): a wrongly typed
# value fails where it is made, naming its field, before any solve or
# generation could reach it
WRONGLY_TYPED = [
    ("chunk-float", lambda: ChunkConfig(8.0), CHUNK_8_0),
    ("solver-pure-chunk-float", lambda: SolverConfig("pure", None, 8.0), CHUNK_8_0),
    ("solver-ranged-chunk-float", lambda: SolverConfig("ranged", None, 8.0), CHUNK_8_0),
    ("gen-pad-chunk-float", lambda: GenParams(pad_chunk=8.0), f"pad_chunk: {CHUNK_8_0}"),
] + [
    (f"gen-{name}-float", lambda name=name: GenParams(**{name: 4.0}),
     f"{name} must be an int, got 4.0")
    for name in ("num_classes", "num_interfaces", "max_depth", "num_fields",
                 "num_vars", "num_statements")
] + [
    ("gen-num_vars-bool", lambda: GenParams(num_vars=True),
     "num_vars must be an int, got True"),
] + [
    (f"gen-allocs-{value!r}", lambda value=value: GenParams(allocs_per_class=value),
     f"allocs_per_class must be a pair of ints, got {value!r}")
    for value in [(1.0, 2.0), (1, 2, 3), (1,), 5, "12"]
] + [
    ("gen-store-load-ratio-str", lambda: GenParams(store_load_ratio="0.2"),
     "store_load_ratio must be a number, got '0.2'"),
    ("gen-violation-rate-none", lambda: GenParams(violation_rate=None),
     "violation_rate must be a number, got None"),
]


@pytest.mark.parametrize(
    "make, message", [c[1:] for c in WRONGLY_TYPED], ids=[c[0] for c in WRONGLY_TYPED]
)
def test_wrongly_typed_value_is_rejected_when_made(make, message):
    with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
        make()


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_kind_alone_takes_its_own_filter(cfg):
    # a config left without a filter takes its kind's own: intrinsic for a
    # ranged kernel, mask otherwise; it equals the explicit config and
    # solves the same
    own = SolverConfig(cfg.set_kind)
    assert own == cfg
    assert own.filter_mode == ("intrinsic" if SET_KINDS[cfg.set_kind].kernel.ranged else "mask")
    a, b = solve_text(BASIC, own), solve_text(BASIC, cfg)
    assert emit_solution(a) == emit_solution(b)
    assert replace(a.stats, wall_time=0.0) == replace(b.stats, wall_time=0.0)


class TestBasicFlow:
    def test_allocation_seeds(self):
        sol = solve_text(BASIC, SolverConfig("naive", "mask"))
        ia, ib = sol.nr.index_of["oa"], sol.nr.index_of["ob"]
        assert set(sol.var_members("a")) >= {ia, ib}

    def test_assignment_filtering(self):
        # flowing A-typed contents into a B-typed variable keeps only B objects
        sol = solve_text(BASIC, SolverConfig("naive", "mask"))
        assert set(sol.var_members("b")) == {sol.nr.index_of["ob"]}

    def test_field_flow(self):
        sol = solve_text(BASIC, SolverConfig("naive", "mask"))
        ia, ib = sol.nr.index_of["oa"], sol.nr.index_of["ob"]
        # o.f := b for every object o points to, then read back into a
        for o in sol.var_members("o"):
            assert set(sol.field_members((o, "f"))) == {ib}
        assert set(sol.var_members("a")) == {ia, ib}

    def test_unfiltered_mode_is_wider(self):
        filt = solve_text(BASIC, SolverConfig("naive", "mask"))
        free = solve_text(BASIC, SolverConfig("naive", "none"))
        assert set(free.var_members("b")) > set(filt.var_members("b"))


def small_corpora():
    p = GenParams(
        num_classes=10,
        num_interfaces=3,
        num_fields=4,
        num_vars=18,
        num_statements=90,
        allocs_per_class=(0, 3),
    )
    return [generate_synthetic(p, seed) for seed in range(6)]


class TestOracleEquivalence:
    @pytest.mark.parametrize("cfg", EXACT_CONFIGS, ids=lambda c: c.set_kind)
    def test_exact_kinds_match_oracle(self, cfg):
        for text in small_corpora():
            pag, nr = load_corpus(text)
            sol = propagate(pag, nr, cfg)
            pt, fpt = oracle_for(pag, nr)
            for v in pag.var_types:
                assert frozenset(sol.var_members(v)) == pt[v], (cfg.set_kind, v)
            for key, s in fpt.items():
                assert frozenset(sol.field_members(key)) == s

    def test_none_mode_matches_unfiltered_oracle(self):
        for text in small_corpora()[:3]:
            pag, nr = load_corpus(text)
            sol = propagate(pag, nr, SolverConfig("naive", "none"))
            pt, _ = oracle_for(pag, nr, filtered=False)
            for v in pag.var_types:
                assert frozenset(sol.var_members(v)) == pt[v]

    @pytest.mark.parametrize("cfg", RANGED_CONFIGS, ids=lambda c: c.set_kind)
    def test_ranged_kinds_superset_of_oracle(self, cfg):
        for text in small_corpora():
            pag, nr = load_corpus(text)
            sol = propagate(pag, nr, cfg)
            pt, fpt = oracle_for(pag, nr)
            for v in pag.var_types:
                assert frozenset(sol.var_members(v)) >= pt[v]
            for key, s in fpt.items():
                assert frozenset(sol.field_members(key)) >= s


@cache
def exact_bits(text):
    """The brute-force oracle's type-filtered solution of the corpus, each
    set as a full-universe int: (var -> int, (alloc index, field) -> int)."""
    pag, nr = load_corpus(text)
    pt, fpt = oracle_for(pag, nr)

    def bits(members):
        return sum(1 << i for i in members)

    return {v: bits(s) for v, s in pt.items()}, {k: bits(s) for k, s in fpt.items()}


@pytest.mark.parametrize("kind", ["ranged", "ranged-hybrid"])
def test_ranged_objects_are_the_exact_solution(kind):
    # slack costs stored bits, never precision: on every small and re-walk
    # corpus at every chunk width, each var and field set's objects are
    # exactly the oracle's type-filtered members, whatever slack it holds.
    # Sets holding slack are reached, or the test checks less than it claims
    texts = dict.fromkeys([*small_corpora(), *(text for text, _ in rewalk_corpora())])
    slack = 0
    for text in texts:
        pag, nr = load_corpus(text)
        var_want, field_want = exact_bits(text)
        for cb in (8, 16, 32, 64):
            sol = propagate(pag, nr, SolverConfig(kind, "intrinsic", cb))
            assert_objects_exact(sol, var_want, field_want)
            sets = [*sol.var_sets.values(), *sol.field_sets.values()]
            slack += sum(s.as_int() != s.objects_int() for s in sets)
    assert slack


def assert_objects_exact(sol, var_want, field_want):
    """Each var and field set's objects are the oracle's members."""
    cb = sol.factory.cfg.chunk_bits
    for v, want in var_want.items():
        s = sol.var_sets.get(v)
        assert (0 if s is None else s.objects_int()) == want, (cb, v)
    for key in set(field_want) | set(sol.field_sets):
        s = sol.field_sets.get(key)
        got = 0 if s is None else s.objects_int()
        assert got == field_want.get(key, 0), (cb, key)


@st.composite
def interface_programs(draw):
    """A small fact text whose classes implement drawn interfaces and whose
    vars and fields are declared mostly with interface types.  Each var is
    seeded with sites of classes that name its type, and C1 implements I0
    and its site c1_0 is put in v0 : I0, so an interface-typed set is never
    empty."""
    ifaces = [f"I{i}" for i in range(draw(st.integers(1, 4)))]
    classes = ["Object"] + [f"C{i}" for i in range(1, draw(st.integers(2, 8)))]
    lines = ["class Object"]
    for i, name in enumerate(ifaces):
        exts = draw(st.lists(st.sampled_from(ifaces[:i]), max_size=2, unique=True)) if i else []
        lines.append(f"interface {name}" + (" extends " + ",".join(exts) if exts else ""))
    allocs = []
    sites = {t: [] for t in ifaces + classes}  # type -> sites of classes naming it
    for i, name in enumerate(classes[1:], start=1):
        parent = draw(st.sampled_from(classes[:i]))
        impl = [t for t in ifaces if (i, t) == (1, "I0") or draw(st.booleans())]
        lines.append(f"class {name} extends {parent}"
                     + (" implements " + ",".join(impl) if impl else ""))
        own = [f"c{i}_{j}" for j in range(draw(st.integers(i == 1, 4)))]
        allocs += [(a, name) for a in own]
        for t in [name, *impl]:
            sites[t] += own
    typ = st.one_of(st.sampled_from(ifaces), st.sampled_from(classes))
    fields = [f"f{i}" for i in range(draw(st.integers(1, 3)))]
    var_types = [("v0", "I0")]
    var_types += [(f"v{i}", draw(typ)) for i in range(1, draw(st.integers(2, 8)))]
    lines += [f"field {f} : {draw(typ)}" for f in fields]
    lines += [f"var {v} : {t}" for v, t in var_types]
    lines += [f"alloc {a} : {t}" for a, t in allocs]
    lines.append("new v0 c1_0")
    # sets of interfaces whose sites span several intervals fill in more
    # than one
    for v, t in var_types:
        if sites[t]:
            seeds = draw(st.lists(st.sampled_from(sites[t]), max_size=3, unique=True))
            lines += [f"new {v} {a}" for a in seeds]
    var, fld = st.sampled_from([v for v, _ in var_types]), st.sampled_from(fields)
    statement = st.one_of(
        st.builds("new {} {}".format, var, st.sampled_from([a for a, _ in allocs])),
        st.builds("assign {} {}".format, var, var),
        st.builds("store {} {} {}".format, var, fld, var),
        st.builds("load {} {} {}".format, var, var, fld),
    )
    lines += draw(st.lists(statement, min_size=5, max_size=40))
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(interface_programs(), st.sampled_from((8, 16, 32, 64)))
def test_ranged_objects_are_exact_with_interfaces(text, cb):
    # the pin above on drawn hierarchies with interfaces, which the
    # generator rarely makes: interface-typed sets, non-empty ones among
    # them, over interfaces whose sites span several intervals
    pag, nr = load_corpus(text)
    var_want, field_want = exact_bits(text)
    ifaces = {name for name, _ in pag.iface_decls}
    for kind in ("ranged", "ranged-hybrid"):
        sol = propagate(pag, nr, SolverConfig(kind, "intrinsic", cb))
        assert_objects_exact(sol, var_want, field_want)
        typed = [s for v, s in sol.var_sets.items() if pag.var_types[v] in ifaces]
        typed += [s for (_, f), s in sol.field_sets.items() if pag.field_types[f] in ifaces]
        assert any(s.objects_int() for s in typed)


class TestOrdering:
    def test_filter_modes_nest(self):
        # none admits at least what intrinsic does, which admits at least mask
        for text in small_corpora()[:3]:
            mask = solve_text(text, SolverConfig("hybrid", "mask"))
            intr = solve_text(text, SolverConfig("ranged", "intrinsic"))
            free = solve_text(text, SolverConfig("hybrid", "none"))
            for v in mask.pag.var_types:
                m = set(mask.var_members(v))
                i = set(intr.var_members(v))
                f = set(free.var_members(v))
                assert m <= i <= f


class TestAlignmentCollapse:
    def test_padded_corpus_is_exact(self):
        # chunk-aligned intervals leave no slack: ranged == masked exactly
        p = GenParams(
            num_classes=8,
            num_interfaces=2,
            num_vars=16,
            num_statements=80,
            allocs_per_class=(0, 3),
            pad_chunk=8,
        )
        for seed in range(4):
            text = generate_synthetic(p, seed)
            a = solve_text(text, SolverConfig("ranged", "intrinsic", chunk_bits=8))
            b = solve_text(text, SolverConfig("hybrid", "mask", chunk_bits=8))
            assert compare_solutions(a, b).status == "equal"


class TestDeterminism:
    def test_repeat_runs_identical(self):
        text = small_corpora()[0]
        for cfg in (SolverConfig("hybrid", "mask"), SolverConfig("ranged", "intrinsic")):
            assert emit_solution(solve_text(text, cfg)) == emit_solution(
                solve_text(text, cfg)
            )

    def test_exact_kinds_agree(self):
        text = small_corpora()[1]
        outputs = {emit_solution(solve_text(text, cfg)) for cfg in EXACT_CONFIGS}
        assert len(outputs) == 1


# every valid configuration: each kind under its own filter and under none
ALL_CONFIGS = EXACT_CONFIGS + RANGED_CONFIGS + [
    SolverConfig(kind, "none") for kind in SET_KINDS
]


class TestFixpoint:
    @pytest.mark.parametrize(
        "cfg",
        ALL_CONFIGS,
        ids=lambda c: c.set_kind + ("-none" if c.filter_mode == "none" else ""),
    )
    def test_extra_pass_is_noop(self, cfg):
        for text in small_corpora()[:3]:
            sol = solve_text(text, cfg)
            assert run_extra_pass(sol) == 0

    @pytest.mark.parametrize(
        "cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind
    )
    def test_extra_pass_creates_no_sets(self, cfg):
        # solve() already owns a set for every variable a constraint names,
        # so the modeled bytes of the returned solution are complete
        for text in small_corpora()[:3]:
            sol = solve_text(text, cfg)
            var_keys, field_keys = set(sol.var_sets), set(sol.field_sets)

            def footprint():
                sets = list(sol.var_sets.values()) + list(sol.field_sets.values())
                return sol.factory.total_footprint(sets, cfg.set_kind)

            assert footprint() == sol.stats.total_footprint_bytes
            run_extra_pass(sol)
            assert set(sol.var_sets) == var_keys
            assert set(sol.field_sets) == field_keys
            assert footprint() == sol.stats.total_footprint_bytes

    @pytest.mark.parametrize(
        "cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind
    )
    def test_extra_pass_remakes_a_missing_field_set(self, cfg):
        # a solve that skipped a field set shows: the pass makes the set
        # under its key, refills it and reports the unions that did
        sol = solve_text(small_corpora()[0], cfg)
        key = next(k for k, s in sol.field_sets.items() if len(s))
        members = sol.field_members(key)
        del sol.field_sets[key]
        assert run_extra_pass(sol) >= 1
        assert sol.field_members(key) == members
        assert run_extra_pass(sol) == 0


# (union_ops, nodes_processed, total_footprint_bytes) of acceptance-suite
# corpora 0, 1 and 45 at chunk 8, each kind under its benchmark filter mode.
# Reordering the unions moves the counts and shared's bytes; a change that
# alters the union schedule on purpose re-records these values.
UNION_SCHEDULE = {
    0: {
        "naive": (214, 49, 6352), "pure": (214, 49, 18480),
        "hybrid": (214, 49, 34815), "shared": (214, 49, 8226),
        "sparse": (214, 49, 8160), "ranged": (214, 49, 9430),
        "ranged-hybrid": (214, 49, 34779),
    },
    1: {
        "naive": (134, 36, 4600), "pure": (134, 36, 16160),
        "hybrid": (134, 36, 29440), "shared": (134, 36, 5904),
        "sparse": (134, 36, 4864), "ranged": (134, 36, 7303),
        "ranged-hybrid": (134, 36, 29440),
    },
    45: {
        "naive": (4204, 160, 216552), "pure": (4204, 160, 135888),
        "hybrid": (4204, 160, 270492), "shared": (4204, 160, 102456),
        "sparse": (4204, 160, 98912), "ranged": (4205, 160, 75632),
        "ranged-hybrid": (4205, 160, 267468),
    },
}


@pytest.mark.parametrize("corpus", sorted(UNION_SCHEDULE))
def test_union_schedule_is_pinned(corpus):
    pag, nr = load_corpus(suite_text(corpus))
    got = {}
    for cfg in EXACT_CONFIGS + RANGED_CONFIGS:
        sol = propagate(pag, nr, SolverConfig(cfg.set_kind, cfg.filter_mode, SUITE_CHUNK))
        s = sol.stats
        got[cfg.set_kind] = (s.union_ops, s.nodes_processed, s.total_footprint_bytes)
    assert got == UNION_SCHEDULE[corpus]


# the feedback union into y makes y, the base of the later load z = y.f,
# hold o1
FEEDBACK_CHAIN = """\
class Object
var s : Object
var x : Object
var y : Object
var z : Object
var w : Object
field f : Object
alloc o1 : Object
new s o1
new x o1
store x f s
load y x f
load z y f
assign w x
"""


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_feedback_union_order_is_pinned(cfg, monkeypatch):
    # union and pop counts cannot tell this order from "s x (1,f) y w z",
    # which a feedback step blind to its own unions would give; add(idx)
    # is seeding's one-member union
    done = []
    for cls in vars(ptsets).values():
        for method in ("add", "add_all"):
            if isinstance(cls, type) and method in cls.__dict__:

                def grown(s, src, _orig=cls.__dict__[method]):
                    changed = _orig(s, src)
                    if changed:
                        done.append(s)
                    return changed

                monkeypatch.setattr(cls, method, grown)
    sol = solve_text(FEEDBACK_CHAIN, cfg)
    names = {id(s): v for v, s in sol.var_sets.items()}
    names.update({id(s): key for key, s in sol.field_sets.items()})
    order = [names[id(s)] for s in done if id(s) in names]
    assert order == ["s", "x", (1, "f"), "y", "z", "w"]


def test_field_feedback_is_linear_in_the_index():
    # n stores grow o.f n times while n loads of f have bases that never
    # hold o; probing every load of f on each growth cost ~n^2 lines
    n = 400
    lines = ["class Object", "field f : Object", "var x : Object", "alloc ox : Object"]
    lines += ["alloc ob : Object", "new x ox"]
    for i in range(n):
        lines += [f"var s{i} : Object", f"var b{i} : Object", f"var y{i} : Object"]
        lines += [f"alloc os{i} : Object", f"new s{i} os{i}", f"new b{i} ob"]
        lines += [f"store x f s{i}", f"load y{i} b{i} f"]
    pag, nr = load_corpus("\n".join(lines) + "\n")
    sol, events = _line_events(
        propagate, pag, nr, SolverConfig("pure", "mask"), only=solver.__file__
    )
    facts = len(pag.alloc_edges) + len(pag.assign_edges)
    facts += len(pag.store_edges) + len(pag.load_edges)
    index_entries = sum(len(sol.var_sets[b]) for _, b, _ in pag.load_edges)
    size = facts + sol.stats.union_ops + index_entries
    assert events <= 25 * size, (events, size)


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_field_set_creation_cost_is_constant(cfg):
    # x holds n objects and its store's source stays empty, so the solve
    # differs from the one with an assign in the store's place by the n
    # field sets x.f, made and never united (rule 6).  Making each through
    # a kind and type lookup per set and an __init__ chain, then uniting the
    # empty source, cost 37-46 solver and ptsets lines a set; a maker call,
    # the loop around it and the kind's charge of the set cost 10-16 (naive
    # 12, pure 10, hybrid 12, shared 12.1, sparse 16, ranged 12,
    # ranged-hybrid 14; a kind without inline slots runs no spill rule).
    # The cost a set is the slope between n = 100 and n = 400, so lines a
    # solve runs once, whatever n, do not count
    def corpus(n, statement):
        lines = ["class Object", "field f : Object", "var x : Object", "var s : Object"]
        lines.append(statement)
        for i in range(n):
            lines += [f"alloc o{i} : Object", f"new x o{i}"]
        return "\n".join(lines) + "\n"

    def lines_run(text):
        pag, nr = load_corpus(text)
        total = 0
        for module in (solver, ptsets):
            sol, events = _line_events(propagate, pag, nr, cfg, only=module.__file__)
            total += events
        return sol, total

    extra = {}
    for n in (100, 400):
        sol, with_store = lines_run(corpus(n, "store x f s"))
        assert len(sol.field_sets) == n and sol.stats.union_attempts == n
        _, without = lines_run(corpus(n, "assign s x"))
        extra[n] = with_store - without
    per_set = (extra[400] - extra[100]) / 300
    assert per_set <= 25, per_set


class TestStats:
    def test_counters_populated(self):
        sol = solve_text(BASIC, SolverConfig("hybrid", "mask"))
        assert sol.stats.nodes_processed > 0
        assert sol.stats.union_ops > 0
        assert sol.stats.wall_time >= 0.0
        assert sol.stats.total_footprint_bytes > 0

    @pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
    def test_spilled_sets_are_hybrids_past_their_inline_slots(self, cfg):
        # a hybrid or ranged-hybrid set spills at its 17th member; no other
        # kind has inline slots.  measure counts them, not the solve
        text = suite_text(45)
        sol = solve_text(text, SolverConfig(cfg.set_kind, cfg.filter_mode, SUITE_CHUNK))
        sets = list(sol.var_sets.values()) + list(sol.field_sets.values())
        if cfg.set_kind in ("hybrid", "ranged-hybrid"):
            want = sum(len(s) > 16 for s in sets)
        else:
            want = 0
            # a row without inline slots has no spill rule to run
            assert SET_KINDS[cfg.set_kind].spilled is None
        assert measure(sol)["spilled_sets"] == want
        assert want > 0 or "hybrid" not in cfg.set_kind


class TestMeasure:
    @pytest.mark.parametrize("chunk", [8, 64])
    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_measure_reads_the_solve(self, kind, chunk):
        cfg = SolverConfig(kind, chunk_bits=chunk)
        for text in small_corpora()[:3]:
            pag, nr = load_corpus(text)
            sol = propagate(pag, nr, cfg)
            st, m = sol.stats, measure(sol)
            sets = list(sol.var_sets.values()) + list(sol.field_sets.values())
            spills = sum(len(s) > 16 for s in sets) if "hybrid" in kind else 0
            assert (
                m["total_allocs"], m["num_vars"], m["union_ops"], m["union_attempts"],
                m["nodes_processed"], m["spilled_sets"], m["wall_time_s"],
                m["total_bytes"],
            ) == (
                nr.total_allocs, len(pag.var_types), st.union_ops, st.union_attempts,
                st.nodes_processed, spills, st.wall_time,
                st.total_footprint_bytes,
            )
            split = m["var_set_bytes"] + m["field_set_bytes"] + m["shared_base_bytes"]
            assert split == st.total_footprint_bytes
            var_sets = list(sol.var_sets.values())
            if kind == "shared":
                # each distinct base once, at the full-universe array's cost
                bases = {s.base for s in var_sets + list(sol.field_sets.values())}
                assert m["shared_base_bytes"] == len(bases) * sol.factory.universe_bytes
            else:
                assert m["shared_base_bytes"] == 0
                assert m["var_set_bytes"] == sol.factory.total_footprint(var_sets, kind)
            again = measure(propagate(pag, nr, cfg))
            del m["wall_time_s"], again["wall_time_s"]
            assert again == m

    @pytest.mark.parametrize("chunk", [8, 64])
    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_a_relabelled_solve_is_measured_as_its_sibling(self, kind, chunk):
        # kinds on one kernel make the same unions, so a solve relabelled as
        # a sibling kind measures as that kind's own solve but for the time;
        # a kind on another kernel did not make the sets
        cfg = SolverConfig(kind, chunk_bits=chunk)
        kernel = SET_KINDS[kind].kernel
        for text in small_corpora()[:3]:
            pag, nr = load_corpus(text)
            sol = propagate(pag, nr, cfg)
            for other, row in SET_KINDS.items():
                if row.kernel is not kernel:
                    alien = SolverConfig(other, chunk_bits=chunk)
                    with pytest.raises(ConfigMismatchError):
                        measure(replace(sol, config=alien))
                    continue
                got = measure(replace(sol, config=replace(cfg, set_kind=other)))
                want = measure(propagate(pag, nr, SolverConfig(other, chunk_bits=chunk)))
                del got["wall_time_s"], want["wall_time_s"]
                assert got == want, (kind, other)


class TestHistogram:
    def test_basic_population(self):
        sol = solve_text(BASIC, SolverConfig("naive", "mask"))
        pct, total = precision_histogram(sol)
        assert total == 1  # only o is dereferenced
        assert pct[2] == 100.0  # pt(o) == {oa, ob}

    def test_percentages_sum(self):
        sol = solve_text(small_corpora()[0], SolverConfig("hybrid", "mask"))
        pct, total = precision_histogram(sol)
        assert total == len(sol.pag.dereferenced_vars())
        assert sum(pct) == pytest.approx(100.0)

    def test_empty_population(self):
        sol = solve_text("class Object\nvar x : Object\n", SolverConfig("naive", "mask"))
        assert precision_histogram(sol) == ([0.0] * 7, 0)

    def test_bucket_edges(self):
        # one dereferenced variable on each side of every bucket edge
        sizes = (0, 1, 2, 3, 10, 11, 100, 101, 1000, 1001)
        lines = ["class Object", "field f : Object", "var x : Object"]
        lines += [f"alloc o{i} : Object" for i in range(max(sizes))]
        for k, n in enumerate(sizes):
            lines.append(f"var d{k} : Object")
            lines += [f"new d{k} o{i}" for i in range(n)]
            lines.append(f"load x d{k} f")
        sol = solve_text("\n".join(lines) + "\n", SolverConfig("naive", "mask"))
        assert [len(sol.var_sets[f"d{k}"]) for k in range(len(sizes))] == list(sizes)
        pct, total = precision_histogram(sol)
        assert total == len(sizes)
        assert pct == [10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 10.0]


class TestCompare:
    def test_equal(self):
        a = solve_text(BASIC, SolverConfig("naive", "mask"))
        b = solve_text(BASIC, SolverConfig("pure", "mask"))
        res = compare_solutions(a, b)
        assert res.status == "equal"
        assert not res.diffs and not res.witnesses

    def test_superset_with_slack_flags(self):
        text = small_corpora()[2]
        a = solve_text(text, SolverConfig("ranged", "intrinsic", chunk_bits=64))
        b = solve_text(text, SolverConfig("naive", "mask"))
        res = compare_solutions(a, b)
        assert res.status in ("equal", "a_superset")
        assert not res.witnesses

    def test_slack_flags_match_the_chunk_spans(self):
        # b drops every other new, so a also holds members outside its slack:
        # a flag that is always True, or always False, fails
        cb = 64
        slack = non_slack = 0
        for text in small_corpora()[:3]:
            lines = text.splitlines(keepends=True)
            news = [k for k, line in enumerate(lines) if line.startswith("new ")]
            dropped = set(news[::2])
            fewer_news = "".join(line for k, line in enumerate(lines) if k not in dropped)
            a = solve_text(text, SolverConfig("ranged", "intrinsic", chunk_bits=cb))
            b = solve_text(fewer_news, SolverConfig("naive", "mask"))
            res = compare_solutions(a, b)
            assert res.status == "a_superset" and not res.witnesses

            # the slack of an owner type's sets, from the raw declarations:
            # each run of its compatible indices widened to its chunks, minus
            # those indices
            pag, nr = a.pag, a.nr
            sup = closure_supertypes(pag.class_decls, pag.iface_decls)
            slack_of = {}
            for t in set(pag.var_types.values()) | set(pag.field_types.values()):
                compat = compatible_indices(nr, sup, t)
                span = set()
                for run in runs_of(compat):
                    lo, hi = aligned_span(run, cb)
                    span.update(range(lo, hi + 1))
                slack_of[t] = span - compat

            by_node = {}
            for d in res.diffs:
                by_node.setdefault(d.node, []).append(d.extra_index)
                what, *key = d.node.split()
                if what == "var":
                    owner = pag.var_types[key[0]]
                else:
                    owner = pag.field_types[key[1]]
                assert d.in_slack == (d.extra_index in slack_of[owner]), d
                slack += d.in_slack
                non_slack += not d.in_slack
            for node, extras in by_node.items():
                assert extras == sorted(set(extras)), node
        assert slack and non_slack, (slack, non_slack)

    def test_exact_kinds_flag_no_slack(self):
        text = small_corpora()[2]
        a = solve_text(text, SolverConfig("naive", "none"))
        b = solve_text(text, SolverConfig("naive", "mask"))
        res = compare_solutions(a, b)
        assert res.status == "a_superset" and res.diffs
        assert not any(d.in_slack for d in res.diffs)

    def test_incomparable(self):
        a = solve_text(BASIC, SolverConfig("naive", "mask"))
        b = solve_text(BASIC, SolverConfig("naive", "none"))
        assert compare_solutions(a, b).status == "incomparable"

    def test_universe_mismatch(self):
        a = solve_text(BASIC, SolverConfig("naive", "mask"))
        b = solve_text(BASIC + "var z : A\n", SolverConfig("naive", "mask"))
        with pytest.raises(UniverseMismatchError):
            compare_solutions(a, b)

    def test_numbering_mismatch(self):
        # same allocs and vars, but o1 and o2 swap indices
        head = "class Object\nclass A extends Object\nvar x : A\n"
        tail = "new x o1\n"
        a = solve_text(head + "alloc o1 : A\nalloc o2 : A\n" + tail,
                       SolverConfig("naive", "mask"))
        b = solve_text(head + "alloc o2 : A\nalloc o1 : A\n" + tail,
                       SolverConfig("naive", "mask"))
        assert a.nr.index_of["o1"] != b.nr.index_of["o1"]
        with pytest.raises(UniverseMismatchError):
            compare_solutions(a, b)


def union_log(monkeypatch):
    """Log every outermost add_all and add call, as (dst, src, changed),
    from here to the end of the test; add(idx) logs the one-member union
    ("new", idx) as its src."""
    log = []
    depth = 0
    for cls in vars(ptsets).values():
        for method in ("add", "add_all"):
            if isinstance(cls, type) and method in cls.__dict__:

                def union(s, arg, _orig=cls.__dict__[method], _add=method == "add"):
                    nonlocal depth
                    depth += 1
                    try:
                        changed = _orig(s, arg)
                    finally:
                        depth -= 1
                    if depth == 0:
                        log.append((s, ("new", arg) if _add else arg, changed))
                    return changed

                monkeypatch.setattr(cls, method, union)
    return log


def named_calls(log, var_sets, field_sets):
    """Every call of log as (dst, src, changed), a set named by its var
    name or (o, f) key and a one-member source as ("new", index)."""
    names = {id(s): v for v, s in var_sets.items()}
    names.update({id(s): key for key, s in field_sets.items()})

    def name(s):
        return names.get(id(s), s)

    return [(name(dst), name(src), changed) for dst, src, changed in log]


def schedule(log, var_sets, field_sets):
    """The successful unions of log as (dst, src) names."""
    return [(d, s) for d, s, changed in named_calls(log, var_sets, field_sets) if changed]


# I's two intervals share chunk 0, and b (a B) is slack in both spans.  d
# takes b from o1.f while it holds 16 members or fewer, then grows past 16;
# x pops again for o2, and a re-walk of o1 unites o1.f into d once more,
# which changes nothing only if b already sits in both of d's vectors
SPILL_SLACK_COPY = "\n".join(
    [
        "class Object", "interface I", "class A extends Object implements I",
        "class B extends Object", "class C extends Object implements I",
        "var x : Object", "var x2 : Object", "var y : Object", "var w : Object",
        "var d : I", "var t : I", "field f : Object",
        "alloc b : B", "alloc o1 : A", "alloc o2 : A",
        "new x o1", "new y o1", "new w b", "new x2 o2",
        "store y f w", "load d x f",
    ]
    + [f"alloc a{i} : {'AC'[i % 2]}\nnew t a{i}" for i in range(20)]
    + ["assign d t", "assign x x2", ""]
)



def _corpus(names, allocs, statements):
    """Corpus text over one class, Object: fields f and g, a var per name,
    an alloc per alloc name, then the statements."""
    lines = ["class Object", "field f : Object", "field g : Object"]
    lines += [f"var {v} : Object" for v in names]
    lines += [f"alloc {o} : Object" for o in allocs]
    return "\n".join(lines + statements) + "\n"


# each of the solver's skips (module doc, rules 1-4 and 6) has a corpus here
SKIP_CORPORA = {
    # every assign, store and load edge twice; only the first copies run
    "DUPLICATE_EDGES": _corpus(
        ("a", "b", "x", "y"), ("oa", "ox"),
        ["new b oa", "new x ox", "assign a b", "store x f b", "load y x f",
         "assign a b", "store x f b", "load y x f"],
    ),
    # x pops holding o1: the store grows o1.f to {o2}, the self load x = x.f
    # then adds o2 to x, and the repeated load y = x.g, run after it, unites
    # o2.g into y in the same pop; without that repeat y would take o2.g
    # only at x's next pop, after s's
    "SELF_LOAD_REPEAT": _corpus(
        ("u", "t", "x", "s", "y"), ("o1", "o2", "o3"),
        ["new u o2", "new t o3", "new x o1", "new s o2", "store u g t",
         "store x f s", "load y x g", "load x x f", "load y x g"],
    ),
    # s pops after t: o1.f grows, and the feedback walk unites it into e,
    # which then holds o1, and into d; d = e.f, a later load of f into d,
    # is not tried again in that walk
    "FEEDBACK_REPEAT": _corpus(
        ("b", "c", "t", "s", "d", "e"), ("o1",),
        ["new b o1", "new c o1", "new t o1", "store b f s", "load e c f",
         "load d c f", "load d e f", "assign s t"],
    ),
    # x pops while s is queued and unites s into o1.f and o2.f; s then
    # pops unchanged and its store unites nothing
    "STORE_SRC_UNCHANGED": _corpus(
        ("x", "s"), ("o1", "o2", "os"),
        ["new x o1", "new x o2", "new s os", "store x f s"],
    ),
    # x pops holding o1, then again holding o2, while s is empty: its store
    # creates o1.f and then o2.f and unites neither; s then takes os along
    # t -> u -> s, pops, and its store unites it into both
    "STORE_SRC_EMPTY": _corpus(
        ("x", "x2", "s", "t", "u"), ("o1", "o2", "os"),
        ["new x o1", "new x2 o2", "new t os", "store x f s", "assign x x2",
         "assign u t", "assign s u"],
    ),
}


# x takes o1 and o3 from w after the stores have made o1.f = {o2},
# o2.f = {o4} and o3.f = {o5}, so no feedback reaches x.  At x's pop the
# load x = x.f walks every object x holds and grows x in the middle of the
# walk, by o2 (between o1 and o3) and o5: the walk keeps the objects it
# started with, (o1, o3), as the re-walk's snapshot does, so y = x runs at
# x's next pop before x takes o2.f
SELF_LOAD_WALK = _corpus(
    ("a", "b", "c", "d", "e", "h", "w", "x", "y"), ("o1", "o2", "o3", "o4", "o5"),
    ["new a o1", "new b o2", "new c o2", "new d o4", "new e o3", "new h o5",
     "new w o1", "new w o3", "store a f b", "store c f d", "store e f h",
     "assign x w", "assign y x", "load x x f"],
)


def rewalk_corpora():
    """Suite corpora 0, 1 and 45 at the suite chunk width, suite corpus 38
    and SPILL_SLACK_COPY at chunk 64 (a ranged-hybrid set there holds slack
    in two vectors), the SKIP_CORPORA and SELF_LOAD_WALK, two deep-shaped
    generated corpora (few variables, many statements, so many repeated
    edges and some self loads) and a deep-width one (over 1,000 sites, sets of hundreds of
    members) at chunk 8, a wide-shaped one (many types, fields and
    variables, so most field sets are created by stores whose source stays
    empty) at chunk 64, then 20 small generated corpora, interfaces and
    stores included, at chunk 8 and 64."""
    out = [(suite_text(i), SUITE_CHUNK) for i in (0, 1, 45)]
    out += [(suite_text(38), 64), (SPILL_SLACK_COPY, 64)]
    out += [(text, 8) for text in [*SKIP_CORPORA.values(), SELF_LOAD_WALK]]
    deep_shaped = GenParams(
        num_classes=16,
        max_depth=8,
        num_interfaces=0,
        num_fields=3,
        num_vars=8,
        num_statements=300,
        allocs_per_class=(2, 4),
        store_load_ratio=0.15,
        violation_rate=0.02,
    )
    out += [(generate_synthetic(deep_shaped, seed), 8) for seed in (200, 201)]
    # a universe of 1,089 sites and sets of up to 297 members, so that both
    # paths of the bit walk and the index built after seeding run at
    # deep-like width
    deep_width = replace(deep_shaped, num_vars=6, num_statements=800,
                         allocs_per_class=(60, 80), store_load_ratio=0.1)
    out.append((generate_synthetic(deep_width, 400), 8))
    wide_shaped = GenParams(
        num_classes=60,
        num_interfaces=6,
        num_fields=12,
        num_vars=120,
        num_statements=400,
        allocs_per_class=(1, 3),
        store_load_ratio=0.4,
        violation_rate=0.05,
    )
    out.append((generate_synthetic(wide_shaped, 300), 64))
    for seed in range(20):
        p = GenParams(
            num_classes=8 + seed % 5,
            num_interfaces=2 + seed % 3,
            num_fields=3,
            num_vars=14 + seed % 7,
            num_statements=60 + 5 * seed,
            allocs_per_class=(0, 3),
            store_load_ratio=0.2 + 0.02 * (seed % 6),
        )
        text = generate_synthetic(p, 100 + seed)
        out += [(text, 8), (text, 64)]
    return out


@cache
def rewalk_reference(kernel, filter_mode, text, chunk):
    """rewalk_propagate's successful unions, union and pop counts and field
    keys on the corpus, made once per kernel with its first kind: kinds on
    one kernel make the same unions, so they share it."""
    kind = next(k for k, row in SET_KINDS.items() if row.kernel is kernel)
    pag, nr = load_corpus(text)
    with pytest.MonkeyPatch.context() as mp:
        log = union_log(mp)
        cfg = SolverConfig(kind, filter_mode, chunk)
        var_sets, field_sets, unions, pops = rewalk_propagate(pag, nr, cfg)
    return schedule(log, var_sets, field_sets), unions, pops, set(field_sets)


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_union_schedule_matches_rewalk(cfg, monkeypatch):
    # the unions propagate skips would each have changed nothing: the
    # successful unions of a solve that re-walks every object of a popped
    # base come in the same order
    log = union_log(monkeypatch)
    kernel = SET_KINDS[cfg.set_kind].kernel
    for text, chunk in rewalk_corpora():
        want, unions, pops, field_keys = rewalk_reference(kernel, cfg.filter_mode, text, chunk)
        pag, nr = load_corpus(text)
        log.clear()
        sol = propagate(pag, nr, SolverConfig(cfg.set_kind, cfg.filter_mode, chunk))
        assert schedule(log, sol.var_sets, sol.field_sets) == want, chunk
        assert (sol.stats.union_ops, sol.stats.nodes_processed) == (unions, pops)
        assert set(sol.field_sets) == field_keys


def test_exact_kernels_make_one_union_schedule(monkeypatch):
    # naive, pure and shared make the same union calls, failed ones
    # included, in the same order, so one kind's schedule is all three's
    log = union_log(monkeypatch)
    corpora = rewalk_corpora() + [(text, 8) for text in small_corpora()]
    for text, chunk in corpora:
        pag, nr = load_corpus(text)
        runs = []
        for kind in ("naive", "pure", "shared"):
            log.clear()
            sol = propagate(pag, nr, SolverConfig(kind, "mask", chunk))
            st = sol.stats
            runs.append((
                named_calls(log, sol.var_sets, sol.field_sets),
                (st.union_ops, st.nodes_processed, st.union_attempts),
            ))
        assert runs[1] == runs[0], ("pure", chunk)
        assert runs[2] == runs[0], ("shared", chunk)


# (union calls made, successful unions) on each SKIP_CORPORA corpus, the
# same under every kind.  Calls the rules skip, beside the successful ones:
# DUPLICATE_EDGES each second copy on every side it runs from (4), the
# feedback walk's repeat of y, and x's store of b over ox, which b's pop
# already ran (12 calls made without the skips); SELF_LOAD_REPEAT three store calls over marked objects,
# from either side, and the load loop's union from the new o1.g (18);
# FEEDBACK_REPEAT d = e.f in the walk and b's store while s is empty (12);
# STORE_SRC_UNCHANGED s's store over o1 and o2 (7); STORE_SRC_EMPTY x's
# store over o1, then over o2, while s is empty (10)
SKIP_ATTEMPTS = {
    "DUPLICATE_EDGES": (6, 5),
    "SELF_LOAD_REPEAT": (14, 9),
    "FEEDBACK_REPEAT": (10, 7),
    "STORE_SRC_UNCHANGED": (5, 5),
    "STORE_SRC_EMPTY": (8, 8),
}


@pytest.mark.parametrize("corpus", sorted(SKIP_ATTEMPTS))
@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_skipped_union_calls_are_pinned(cfg, corpus):
    sol = solve_text(SKIP_CORPORA[corpus], cfg)
    assert (sol.stats.union_attempts, sol.stats.union_ops) == SKIP_ATTEMPTS[corpus]


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_union_attempts_count_outermost_calls(cfg, monkeypatch):
    log = union_log(monkeypatch)
    for text in [BASIC, FEEDBACK_CHAIN] + small_corpora()[:2]:
        log.clear()
        sol = solve_text(text, cfg)
        assert sol.stats.union_attempts == len(log)
        assert sol.stats.union_ops == sum(changed for _, _, changed in log)


# x pops again, holding o2, while s has grown and not yet popped: the
# store x.f = s unites s into o1.f then, and not at s's pop
STORE_SRC_QUEUED = """\
class Object
var x : Object
var x2 : Object
var s : Object
var s2 : Object
field f : Object
alloc o1 : Object
alloc os1 : Object
alloc o2 : Object
alloc os2 : Object
new x o1
new s os1
new x2 o2
new s2 os2
store x f s
assign x x2
assign s s2
"""

# x pops again, holding o2, and the store w.f = x grows o1.f in that pop:
# the load y = x.f unites o1.f into y then, before the load z = x.g runs,
# and not in the feedback after it
LOAD_FIELD_GROWN = """\
class Object
var x : Object
var w : Object
var v : Object
var x2 : Object
var y : Object
var z : Object
field f : Object
field g : Object
alloc o1 : Object
alloc o2 : Object
new x o1
new w o1
new v o2
new x2 o2
load y x f
load z x g
store w f x
store v g v
assign x x2
"""

BASE_SIDE_ORDERS = {
    "STORE_SRC_QUEUED": (STORE_SRC_QUEUED, [
        ("x", ("new", 1)), ("s", ("new", 2)), ("x2", ("new", 3)), ("s2", ("new", 4)),
        ((1, "f"), "s"), ("x", "x2"), ("s", "s2"), ((1, "f"), "s"), ((3, "f"), "s"),
    ]),
    "LOAD_FIELD_GROWN": (LOAD_FIELD_GROWN, [
        ("x", ("new", 1)), ("w", ("new", 1)), ("v", ("new", 2)), ("x2", ("new", 2)),
        ((1, "f"), "x"), ("y", (1, "f")), ((2, "g"), "v"), ("x", "x2"),
        ((1, "f"), "x"), ("y", (1, "f")), ("z", (2, "g")),
    ]),
}


@pytest.mark.parametrize("corpus", sorted(BASE_SIDE_ORDERS))
@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_base_side_union_order_is_pinned(cfg, corpus, monkeypatch):
    text, order = BASE_SIDE_ORDERS[corpus]
    log = union_log(monkeypatch)
    sol = solve_text(text, cfg)
    assert schedule(log, sol.var_sets, sol.field_sets) == order


def test_base_side_attempts_are_linear():
    # x1 pops about n times along the assign chain, one new object each
    # time; re-walking all its objects for its load and its store cost
    # ~n^2 calls that change nothing
    n = 200
    lines = ["class Object", "field f : Object", "var s : Object", "var y : Object"]
    lines += ["alloc os : Object", "new s os", "store x1 f s", "load y x1 f"]
    for i in range(1, n + 1):
        lines += [f"var x{i} : Object", f"alloc o{i} : Object", f"new x{i} o{i}"]
    lines += [f"assign x{i} x{i + 1}" for i in range(1, n)]
    sol = solve_text("\n".join(lines) + "\n", SolverConfig("pure", "mask"))
    assert len(sol.var_sets["x1"]) == n
    assert sol.stats.union_attempts - sol.stats.union_ops <= 4 * n


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_seeding_indexes_a_load_base_once(cfg, monkeypatch):
    # x, the base of a load, takes n objects from n allocation edges and
    # is no union's source; indexing it after each one read its objects n
    # times (naive rebuilds them from its hash set on every read)
    n = 50
    lines = ["class Object", "field f : Object", "var x : Object", "var y : Object"]
    for i in range(n):
        lines += [f"alloc o{i} : Object", f"new x o{i}"]
    pag, nr = load_corpus("\n".join(lines + ["load y x f"]) + "\n")
    reads = []
    for cls in vars(ptsets).values():
        if isinstance(cls, type) and "objects_int" in cls.__dict__:

            def objects_int(s, _orig=cls.__dict__["objects_int"]):
                reads.append(s)
                return _orig(s)

            monkeypatch.setattr(cls, "objects_int", objects_int)
    sol = propagate(pag, nr, cfg)
    assert len(sol.var_sets["x"]) == n
    assert sum(s is sol.var_sets["x"] for s in reads) == 1


@pytest.mark.parametrize("kind", ["ranged", "ranged-hybrid"])
def test_extra_pass_is_noop_where_vectors_share_slack(kind):
    # on suite corpus 38 at chunk 64, v46 (owner I3) holds members of one
    # interval that another of its vectors' spans covers; a union the extra
    # pass repeats must find them copied wherever a ranged source put them
    assert run_extra_pass(solve_text(suite_text(38), SolverConfig(kind, "intrinsic", 64))) == 0


def test_ranged_and_naive_kinds_build_no_mask(monkeypatch):
    # each mask kind reads its filter off build_type_mask once per owner
    # type; the ranged kinds and naive read the intervals instead
    calls = []

    def counted(nr, name):
        calls.append(name)
        return build_type_mask(nr, name)

    monkeypatch.setattr(ptsets, "build_type_mask", counted)
    pag, nr = load_corpus(suite_text(0))
    for cfg in EXACT_CONFIGS + RANGED_CONFIGS:
        calls.clear()
        sol = propagate(pag, nr, SolverConfig(cfg.set_kind, cfg.filter_mode, SUITE_CHUNK))
        if cfg.set_kind in ("naive", "ranged", "ranged-hybrid"):
            assert calls == [], cfg.set_kind
        else:
            owners = {pag.var_types[v] for v in sol.var_sets}
            owners |= {pag.field_types[f] for _, f in sol.field_sets}
            assert sorted(calls) == sorted(owners), cfg.set_kind


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_finished_solve_is_freed_by_reference_counting(cfg):
    # nothing a solution holds refers back to it or to its factory, so the
    # sets, the factory and its per-type state go at the last reference,
    # without waiting for a full collection
    pag, nr = load_corpus(suite_text(0))
    gc.disable()
    try:
        sol = propagate(pag, nr, replace(cfg, chunk_bits=SUITE_CHUNK))
        assert run_extra_pass(sol) == 0
        # charging fills the factory's window counts: a sparse solve's own
        # charge, and sparse_savings of a kind that keeps chunk arrays
        measure(sol)
        if SET_KINDS[cfg.set_kind].chunk_arrays is not None:
            sets = [*sol.var_sets.values(), *sol.field_sets.values()]
            assert sum(sparse_savings(s, cfg.set_kind) for s in sets) >= 0
            del sets
        if cfg.set_kind not in ("naive", "shared"):
            assert sol.factory._windows
        factory = weakref.ref(sol.factory)
        del sol
        assert factory() is None
    finally:
        gc.enable()


def direct_sparse_bytes(s):
    cfg = s.factory.cfg
    per_element = OBJECT_HEADER + SPARSE_ELEMENT_WORDS * cfg.chunk_bytes + REF_BYTES
    return OBJECT_HEADER + _occupied_windows(s.bits, cfg) * per_element


def direct_sparse_savings(s, kind):
    cfg = s.factory.cfg
    empty = sum(-(-n // SPARSE_ELEMENT_WORDS) - _occupied_windows(value, cfg)
                for n, value in SET_KINDS[kind].chunk_arrays(s))
    return empty * SPARSE_ELEMENT_WORDS * cfg.chunk_bytes


@pytest.mark.parametrize("cb", [8, 16, 32, 64])
def test_window_counts_are_the_direct_count(cb):
    # the factory counts an int's windows once and every later charge reads
    # that count: each sparse charge and each sparse_savings equals one
    # counted directly, on the first charge, a repeat and a reversed pass
    cfg = ChunkConfig(cb)
    for text in small_corpora():
        pag, nr = load_corpus(text)
        sol = propagate(pag, nr, SolverConfig("sparse", "mask", cb))
        sets = [*sol.var_sets.values(), *sol.field_sets.values()]
        want = sum(map(direct_sparse_bytes, sets))
        assert sol.stats.total_footprint_bytes == want
        for again in (sets, sets[::-1]):
            assert sol.factory.total_footprint(again, "sparse") == want
        windows = sol.factory._windows
        assert windows == {v: _occupied_windows(v, cfg) for v in windows}
        assert set(windows) | {0} == {s.bits for s in sets} | {0}
        for kind, mode in [("pure", "mask"), ("hybrid", "mask"),
                           ("ranged", "intrinsic"), ("ranged-hybrid", "intrinsic")]:
            sol = propagate(pag, nr, SolverConfig(kind, mode, cb))
            sets = [*sol.var_sets.values(), *sol.field_sets.values()]
            want = [direct_sparse_savings(s, kind) for s in sets]
            assert [sparse_savings(s, kind) for s in sets] == want, kind
            assert [sparse_savings(s, kind) for s in sets] == want, kind
            assert [sparse_savings(s, kind) for s in sets[::-1]] == want[::-1], kind
            windows = sol.factory._windows
            assert all(n == _occupied_windows(v, cfg) for v, n in windows.items())
            assert {type(x) for x in [*windows, *windows.values()]} <= {int}


def test_sparse_counts_each_member_int_once(monkeypatch):
    # a deep-width corpus: hundreds of sets over a universe of 1,089 sites
    # hold a few dozen distinct ints, and the solve's charge counts the
    # windows of each one at most once
    text, chunk = max(rewalk_corpora(), key=lambda tc: tc[0].count("\nalloc "))
    pag, nr = load_corpus(text)
    counted = []

    def occupied_windows(value, cfg):
        counted.append(value)
        return _occupied_windows(value, cfg)

    monkeypatch.setattr(ptsets, "_occupied_windows", occupied_windows)
    sol = propagate(pag, nr, SolverConfig("sparse", "mask", chunk))
    sets = [*sol.var_sets.values(), *sol.field_sets.values()]
    assert nr.total_allocs > 1000
    assert len(counted) == len(set(counted))
    assert set(counted) | {0} == {s.bits for s in sets} | {0}
    assert 10 * len(counted) < len(sets)


@cache
def wide_corpus():
    """A corpus generated with the benchmark's wide parameters."""
    return load_corpus(generate_synthetic(replace(WIDE_SHAPE, num_statements=12000), 0))


@pytest.mark.parametrize("enabled", [True, False])
def test_propagate_leaves_the_collector_as_it_found_it(enabled):
    # propagate pauses the collector for its drain and restores the
    # caller's setting, also when the maker raises
    pag, nr = load_corpus(BASIC)
    (gc.enable if enabled else gc.disable)()
    try:
        propagate(pag, nr, SolverConfig("pure"))
        assert gc.isenabled() is enabled
        pag.var_types["a"] = "Missing"  # a type the hierarchy lacks
        with pytest.raises(UnknownTypeError):
            propagate(pag, nr, SolverConfig("pure"))
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_a_dropped_solve_leaves_no_cyclic_garbage(cfg):
    # what pausing the collector rests on (module doc): a solve, its
    # measurement and its extra pass make no reference cycles, so a
    # dropped solution leaves a collection nothing to find
    corpora = [(load_corpus(suite_text(0)), SUITE_CHUNK), (wide_corpus(), 64)]
    for (pag, nr), chunk in corpora:
        gc.disable()
        try:
            gc.collect()
            sol = propagate(pag, nr, replace(cfg, chunk_bits=chunk))
            measure(sol)
            assert run_extra_pass(sol) == 0
            del sol
            assert gc.collect() == 0
        finally:
            gc.enable()


@pytest.mark.parametrize("cfg", EXACT_CONFIGS + RANGED_CONFIGS, ids=lambda c: c.set_kind)
def test_the_collection_a_solve_makes_due_runs_after_its_drain(cfg, monkeypatch):
    # no collection starts before propagate turns the collector back on at
    # the end of its drain; the one that falls due then starts before
    # propagate returns.  After a full collection it is of generation 0
    pag, nr = wide_corpus()
    cfg = replace(cfg, chunk_bits=64)
    events = []
    enable = gc.enable

    def enabled():
        events.append("enable")
        enable()

    def started(phase, info):
        if phase == "start":
            events.append(info["generation"])

    monkeypatch.setattr(gc, "enable", enabled)
    gc.callbacks.append(started)
    try:
        gc.collect()
        events.clear()
        propagate(pag, nr, cfg)
        assert events == ["enable", 0]
    finally:
        gc.callbacks.remove(started)

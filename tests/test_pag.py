import hashlib
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from rangepta.errors import (
    DuplicateNameError,
    FactSyntaxError,
    InheritanceCycleError,
    InvalidParamsError,
    PtaError,
    UndeclaredVariableError,
    UnknownTypeError,
)
from rangepta.hierarchy import number_allocations
from rangepta.pag import GenParams, format_program, generate_synthetic, parse_program
from rangepta.ptsets import SET_KINDS
from rangepta.solver import SolverConfig, propagate, run_extra_pass
from same_numbers import WORKLOADS, shuffle_statements
from test_acceptance import suite_text

# declarations before the line-3 cases of test_type_errors_have_line
HEAD = "class Object\ninterface I\n"

MINIMAL = """\
class Object
class A extends Object
var x : A
alloc o1 : A
new x o1
"""


class TestParser:
    def test_minimal_program(self):
        h, pag = parse_program(MINIMAL)
        assert pag.alloc_edges == [("o1", "x")]
        assert pag.var_types == {"x": "A"}
        assert h.parent["A"] == "Object"

    def test_undeclared_variable_has_line(self):
        text = MINIMAL + "assign y x\n"
        with pytest.raises(UndeclaredVariableError, match="line 6.*'y'"):
            parse_program(text)

    def test_round_trip(self):
        extra = MINIMAL + "field f : A\nstore x f x\nload x x f\nassign x x\n"
        _, pag1 = parse_program(extra)
        printed = format_program(pag1)
        _, pag2 = parse_program(printed)
        assert format_program(pag2) == printed

    def test_comments_and_blank_lines(self):
        h, pag = parse_program("# hello\n\nclass Object  # root\n")
        assert h.root.name == "Object"

    def test_unknown_directive(self):
        with pytest.raises(FactSyntaxError, match="line 1"):
            parse_program("frobnicate x y\n")

    @pytest.mark.parametrize(
        "text", ["class Object # a\x0cb\nbogus x\n", "class Object # \x1c\nbogus\n"]
    )
    def test_only_newline_ends_a_line(self, text):
        # other line boundaries stay inside the comment, as in the CLI's
        # line count for a decoding error
        with pytest.raises(FactSyntaxError, match="line 2: unknown directive 'bogus'"):
            parse_program(text)

    def test_crlf_corpus_parses_as_lf(self):
        text = MINIMAL + "field f : A\nstore x f x  # c\nload x x f\n"
        h_lf, pag_lf = parse_program(text)
        h_crlf, pag_crlf = parse_program(text.replace("\n", "\r\n"))
        assert pag_crlf == pag_lf
        assert h_crlf.parent == h_lf.parent

    def test_duplicate_var(self):
        with pytest.raises(DuplicateNameError):
            parse_program("class Object\nvar x : Object\nvar x : Object\n")

    def test_unknown_var_type(self):
        with pytest.raises(UnknownTypeError):
            parse_program("class Object\nvar x : Missing\n")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            (HEAD + "var x : Nope", UnknownTypeError, "line 3: var x: unknown type Nope"),
            (HEAD + "field f : Nope", UnknownTypeError,
             "line 3: field f: unknown type Nope"),
            (HEAD + "alloc o : Nope", UnknownTypeError,
             "line 3: alloc o: unknown type Nope"),
            (HEAD + "alloc o : I", UnknownTypeError,
             "line 3: alloc o: allocated type I is an interface"),
            (HEAD + "class A extends Nope", UnknownTypeError,
             "line 3: class A: unknown parent Nope"),
            (HEAD + "class A extends Object implements Nope", UnknownTypeError,
             "line 3: class A: unknown interface Nope"),
            (HEAD + "interface J extends Nope", UnknownTypeError,
             "line 3: interface J: unknown interface Nope"),
            (HEAD + "var x : Nope[][]\nvar y : Nope[]", UnknownTypeError,
             "line 3: unknown array element type: Nope"),
            (HEAD + "field f : Object\nvar x : I[]", UnknownTypeError,
             "line 4: interface element arrays are not supported: I[]"),
            (HEAD + "class A extends Object\nclass B", InheritanceCycleError,
             "line 4: expected exactly one root class, found 2"),
            ("interface I\nclass A extends B\nclass B extends A", InheritanceCycleError,
             "line 2: expected exactly one root class, found 0"),
            ("# no classes\ninterface I", InheritanceCycleError,
             "line 1: expected exactly one root class, found 0"),
            (HEAD + "class A extends B\nclass C extends Object\nclass B extends A",
             InheritanceCycleError,
             "line 3: class inheritance cycle; classes unreachable from the root: A, B"),
            (HEAD + "interface J extends K\ninterface K extends J", InheritanceCycleError,
             "line 4: interface extension cycle through J"),
            (HEAD + "class A extends Object with I", FactSyntaxError,
             "line 3: expected 'implements'"),
            (HEAD + "interface J implements I", FactSyntaxError,
             "line 3: expected 'extends'"),
            (HEAD + "class A extends Object implements ,", FactSyntaxError,
             "line 3: empty name list"),
            # a declared type in the wrong role
            (HEAD + "class A extends I", UnknownTypeError,
             "line 3: class A: parent I is an interface"),
            (HEAD + "class B extends Object\nclass A extends Object implements B",
             UnknownTypeError, "line 4: class A: implemented B is a class"),
            (HEAD + "interface J extends Object", UnknownTypeError,
             "line 3: interface J: extended Object is a class"),
            # an empty name anywhere in a comma list
            (HEAD + "interface J\nclass A extends Object implements I,,J",
             FactSyntaxError, "line 4: empty name in list 'I,,J'"),
            (HEAD + "class A extends Object implements I,", FactSyntaxError,
             "line 3: empty name in list 'I,'"),
            (HEAD + "interface J extends ,I", FactSyntaxError,
             "line 3: empty name in list ',I'"),
            # a type name repeated on a later declaration line
            (HEAD + "var x : 1T\nvar y : 1T", FactSyntaxError,
             "line 3: invalid identifier '1T'"),
            (HEAD + "var x : Nope[]\nfield f : Nope[]", UnknownTypeError,
             "line 3: unknown array element type: Nope"),
        ],
        ids=["var", "field", "alloc", "alloc-interface", "parent", "implements",
             "extends", "array-element", "array-interface", "two-roots", "no-root",
             "no-class", "class-cycle", "interface-cycle", "not-implements",
             "interface-implements", "empty-name-list", "parent-is-interface",
             "implements-class", "extends-class", "empty-inner-name",
             "empty-last-name", "empty-first-name", "repeated-invalid-type",
             "repeated-array-type"],
    )
    def test_type_errors_have_line(self, text, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_program(text + "\n")

    def test_interface_alloc_rejected(self):
        with pytest.raises(UnknownTypeError):
            parse_program("class Object\ninterface I\nalloc o : I\n")

    def test_array_types(self):
        h, pag = parse_program(
            "class Object\nclass A extends Object\nvar xs : A[]\nalloc o : A[]\n"
            "new xs o\n"
        )
        assert h.is_subtype("A[]", "Object[]")
        assert h.is_subtype("A[]", "Object")

    def test_interface_array_rejected(self):
        with pytest.raises(UnknownTypeError):
            parse_program("class Object\ninterface I\nvar xs : I[]\n")

    def test_implements_list(self):
        h, _ = parse_program(
            "class Object\ninterface I\ninterface J\n"
            "class A extends Object implements I,J\n"
        )
        assert h.implements["A"] == ("I", "J")

    @pytest.mark.parametrize(
        "stmts, message",
        [
            ("new y o", "line 5: undeclared variable 'y'"),
            ("new x p", "line 5: undeclared alloc 'p'"),
            ("assign y x", "line 5: undeclared variable 'y'"),
            ("assign x y", "line 5: undeclared variable 'y'"),
            ("store y f x", "line 5: undeclared variable 'y'"),
            ("store x g x", "line 5: undeclared field 'g'"),
            ("store x f y", "line 5: undeclared variable 'y'"),
            ("load y x f", "line 5: undeclared variable 'y'"),
            ("load x y f", "line 5: undeclared variable 'y'"),
            ("load x x g", "line 5: undeclared field 'g'"),
            # the first undeclared name of a statement, in token order
            ("new v p", "line 5: undeclared variable 'v'"),
            ("store b g s", "line 5: undeclared variable 'b'"),
            ("store x g s", "line 5: undeclared field 'g'"),
            ("load a b g", "line 5: undeclared variable 'a'"),
            ("load x x g\nassign y x", "line 5: undeclared field 'g'"),
            # a name of one kind declared only as another
            ("assign x f", "line 5: undeclared variable 'f'"),
            ("assign x o", "line 5: undeclared variable 'o'"),
            ("store x x x", "line 5: undeclared field 'x'"),
            ("new x x", "line 5: undeclared alloc 'x'"),
            ("load x x o", "line 5: undeclared field 'o'"),
            # a comment glued to the last name
            ("assign x y#c", "line 5: undeclared variable 'y'"),
            # names mentioned before a declaration that comes later
            ("assign x z\nvar z : Object\nassign y z", "line 7: undeclared variable 'y'"),
            ("store x g y\nfield g : Object\nvar y : Object\nnew x p",
             "line 8: undeclared alloc 'p'"),
            ("assign x y\nassign y z\nvar y : Object", "line 6: undeclared variable 'z'"),
            ("assign x y\nassign y z\nvar z : Object", "line 5: undeclared variable 'y'"),
            ("new x p\nassign x y\nalloc p : Object\nnew x q",
             "line 6: undeclared variable 'y'"),
        ],
    )
    def test_first_undeclared_name_is_reported(self, stmts, message):
        decls = "class Object\nvar x : Object\nfield f : Object\nalloc o : Object\n"
        with pytest.raises(UndeclaredVariableError, match=f"^{re.escape(message)}$"):
            parse_program(decls + stmts + "\n")

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("assign x y\nclass Object\nvar x : Nope", UnknownTypeError,
             "line 3: var x: unknown type Nope"),
            ("assign x y\nclass Object\nvar x : Object\nvar x : Object",
             DuplicateNameError, "line 4: duplicate var name 'x'"),
            ("assign x y\nclass Object\nnew x", FactSyntaxError,
             "line 3: expected: new <var> <allocId>"),
        ],
        ids=["unknown-type", "duplicate", "syntax"],
    )
    def test_undeclared_names_are_reported_last(self, text, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            parse_program(text + "\n")

    @pytest.mark.parametrize(
        "stmts, message",
        [
            ("assign x :", "line 5: invalid identifier ':'"),
            ("new x[] o", "line 5: invalid identifier 'x[]'"),
            ("store x 1x x", "line 5: invalid identifier '1x'"),
            # the syntax error wins over an undeclared name before it
            ("assign x y\nload x x f[]", "line 6: invalid identifier 'f[]'"),
        ],
    )
    def test_statement_names_are_identifiers(self, stmts, message):
        decls = "class Object\nvar x : Object\nfield f : Object\nalloc o : Object\n"
        with pytest.raises(FactSyntaxError, match=f"^{re.escape(message)}$"):
            parse_program(decls + stmts + "\n")

    def test_fuzzed_lines_never_crash(self):
        rng = random.Random(5)
        tokens = ["class", "var", "alloc", "new", ":", "extends", "x", "1o", "[]",
                  "Object", "assign", "#", "store", "load", "field", ","]
        for _ in range(300):
            text = "\n".join(
                " ".join(rng.choices(tokens, k=rng.randint(1, 5)))
                for _ in range(rng.randint(1, 8))
            )
            try:
                parse_program(text)
            except PtaError:
                pass  # positioned diagnostics are fine; crashes are not


class TestGenerator:
    def test_minimal_params(self):
        p = GenParams(
            num_classes=1,
            num_interfaces=0,
            num_fields=0,
            num_vars=1,
            num_statements=1,
            allocs_per_class=(1, 1),
        )
        text = generate_synthetic(p, 3)
        h, pag = parse_program(text)
        assert len(pag.allocs) == 1

    def test_determinism(self):
        p = GenParams()
        assert generate_synthetic(p, 42) == generate_synthetic(p, 42)
        assert generate_synthetic(p, 42) != generate_synthetic(p, 43)

    def test_parse_back_counts(self):
        p = GenParams(num_classes=12, num_vars=20, num_statements=100)
        h, pag = parse_program(generate_synthetic(p, 42))
        assert len(pag.class_decls) == 12
        assert len(pag.var_types) == 20
        n_stmts = (
            len(pag.alloc_edges)
            + len(pag.assign_edges)
            + len(pag.store_edges)
            + len(pag.load_edges)
        )
        assert n_stmts == 100

    def test_invalid_params(self):
        # params check themselves when made, before any generation
        with pytest.raises(InvalidParamsError, match=r"^num_classes must be >= 1$"):
            GenParams(num_classes=0)
        with pytest.raises(InvalidParamsError, match=r"^bad allocs_per_class range$"):
            GenParams(allocs_per_class=(3, 1))
        # the chunk-width rule is ChunkConfig's; the message names the field
        with pytest.raises(InvalidParamsError, match=r"^pad_chunk: .* got 7$"):
            GenParams(pad_chunk=7)
        for params, message in [
            ({"num_interfaces": -1}, "counts must be non-negative"),
            ({"num_fields": -1}, "counts must be non-negative"),
            ({"num_vars": 0}, "need at least one variable"),
            ({"max_depth": 0, "num_classes": 1}, "max_depth must be >= 1"),
            ({"store_load_ratio": 1.5}, "store_load_ratio must be in [0,1]"),
            ({"violation_rate": -0.1}, "violation_rate must be in [0,1]"),
        ]:
            with pytest.raises(InvalidParamsError, match=f"^{re.escape(message)}$"):
                GenParams(**params)

    @pytest.mark.parametrize(
        "params, absent",
        [
            (GenParams(allocs_per_class=(0, 0)), {"new"}),
            (GenParams(num_fields=0), {"store", "load"}),
        ],
        ids=["no-allocs", "no-fields"],
    )
    def test_statements_fall_back_to_assigns(self, params, absent):
        # with no allocation to name there is no new, and with no field no
        # store or load: those statements become assigns
        text = generate_synthetic(params, 5)
        directives = {line.split()[0] for line in text.splitlines() if line[:1] != "#"}
        assert not directives & absent and "assign" in directives
        h, pag = parse_program(text)
        nr = number_allocations(h, list(pag.allocs.values()))
        for kind in SET_KINDS:
            assert run_extra_pass(propagate(pag, nr, SolverConfig(kind))) == 0, kind

    def test_padded_counts_are_chunk_multiples(self):
        p = GenParams(num_classes=10, pad_chunk=8, allocs_per_class=(0, 3))
        h, pag = parse_program(generate_synthetic(p, 9))
        counts = {}
        for a in pag.allocs.values():
            counts[a.type_name] = counts.get(a.type_name, 0) + 1
        for cls, _, _ in pag.class_decls:
            n = counts.get(cls, 0)
            if cls == "Object":
                assert n % 8 == 7
            else:
                assert n % 8 == 0

    def test_many_seeds_parse(self):
        p = GenParams(num_classes=8, num_vars=10, num_statements=40)
        for seed in range(10):
            parse_program(generate_synthetic(p, seed))

    @pytest.mark.parametrize("max_depth", [2, 3, 5])
    def test_class_tree_respects_max_depth(self, max_depth):
        p = GenParams(num_classes=60, num_interfaces=0, max_depth=max_depth)
        _, pag = parse_program(generate_synthetic(p, 1))
        depth = {"Object": 0}
        for cls, parent, _ in pag.class_decls[1:]:  # each parent comes first
            depth[cls] = depth[parent] + 1
        assert max(depth.values()) == max_depth - 1

    def test_output_is_pinned(self):
        # the benchmark's recorded bytes and every pinned schedule depend
        # on these texts; a refactor of the generator must leave them be
        wide = GenParams(
            num_classes=300, num_interfaces=30, max_depth=10, num_fields=12,
            num_vars=400, num_statements=1500,
        )
        corpora = [
            (GenParams(), 0),
            (GenParams(), 7),
            (GenParams(pad_chunk=8), 0),
            (GenParams(num_classes=80, num_interfaces=0, max_depth=12), 3),
            (wide, 0),
            (wide, 3),
        ]
        digest = hashlib.sha256()
        for params, seed in corpora:
            digest.update(generate_synthetic(params, seed).encode())
        assert digest.hexdigest() == (
            "55e71d78b9291d877fb87796caa525fa91816153e9a9789ba2d1e073bdd39c7c"
        )


# statements before the declarations they name, and array types
LATE_DECLS = """\
new x o1
assign y x
store x f y
load y x f
class Object
interface I
class A extends Object implements I
var x : A[]
var y : I
field f : A[]
alloc o1 : A[][]
alloc o2 : A
"""


def _canonical(d):
    """Each key of d mapped to itself: the key object for an equal name."""
    return {k: k for k in d}


STATEMENTS = ("new", "assign", "store", "load")


def _declarations_last(text):
    """text with every declaration (and comment) moved after the statements."""
    lines = text.splitlines()
    stmts = [ln for ln in lines if ln.split(" ", 1)[0] in STATEMENTS]
    decls = [ln for ln in lines if ln.split(" ", 1)[0] not in STATEMENTS]
    return "\n".join(stmts + decls) + "\n"


# sha256 of format_program for (workload, corpus index, shuffle seed),
# recorded before the parser's line loop was rewritten for speed
PARSE_PINS = {
    ("deep", 0, 0): "d426d20edf3129c8848e89028c2eb23cef6b4bd84c31671182092913d223a112",
    ("deep", 0, 1): "478310ae85da8e12dc909ffe53accb2460dba8dfda1db33b3099af89efd127da",
    ("wide", 0, 0): "ae4716f7e7e8045a391397d755e08bc4e2bada329a7eedaab3678eaf897bb171",
    ("wide", 0, 1): "c1e485aae8f2aaf59ed1d84cefa4ef4ebb38733830d3ba18c6bed29e935f265a",
    ("suite", 0, 0): "82c438c1134917ffa029a3bc56e0cb73078e229de49d9fa996910c232928bee9",
    ("suite", 0, 1): "8fb3a86afe605360701d33bce065506ef062110d0dfe3d5966ea0722270b52e3",
    ("suite", 1, 0): "d235a4076fcd61af5be7235eab63aee6610b6f2332b352e96b9178d93f7d531f",
    ("suite", 1, 1): "7c41a4e674f3e5f3215ba3775e69456482bffb595e91ec9f94e6e296a16eb14c",
    ("suite", 2, 0): "29d1d89c688fc97a4cdb1d08413155ab0217c4a14d25fe10effe4e09ae866e58",
    ("suite", 2, 1): "d4274c00b23ff0d298940247a6844adb92a9a059a03ab2739df4db3457b8e17c",
}


def _assert_names_canonical(h, pag):
    """Every name in an edge or a type field is the declaration's object."""
    var = _canonical(pag.var_types)
    fld = _canonical(pag.field_types)
    alloc = _canonical(pag.allocs)
    typ = _canonical(h.types)
    for o, v in pag.alloc_edges:
        assert alloc[o] is o and pag.allocs[o].id is o and var[v] is v
    for dst, src in pag.assign_edges:
        assert var[dst] is dst and var[src] is src
    for base, f, src in pag.store_edges:
        assert var[base] is base and fld[f] is f and var[src] is src
    for dst, base, f in pag.load_edges:
        assert var[dst] is dst and var[base] is base and fld[f] is f
    for tname in [*pag.var_types.values(), *pag.field_types.values()]:
        assert typ[tname] is tname
    for a in pag.allocs.values():
        assert typ[a.type_name] is a.type_name is h.types[a.type_name].name


class TestCanonicalNames:
    @pytest.mark.parametrize(
        "text",
        [LATE_DECLS, suite_text(49), _declarations_last(suite_text(49))],
        ids=["late", "suite49", "suite49-late"],
    )
    def test_parsed_names_are_the_declared_objects(self, text):
        _assert_names_canonical(*parse_program(text))

    def test_parsed_program_is_pinned(self):
        # format_program holds declaration order, edge order and canonical
        # type names; same_numbers digests solves, which a reordered dict
        # or edge list can leave the same
        digests = {}
        for name, count in (("deep", 1), ("wide", 1), ("suite", 3)):
            for i, (params, gen_seed) in enumerate(WORKLOADS[name].programs[:count]):
                text = generate_synthetic(params, gen_seed)
                for seed in (0, 1):
                    h, pag = parse_program(shuffle_statements(text, seed))
                    _assert_names_canonical(h, pag)
                    printed = format_program(pag).encode()
                    digests[name, i, seed] = hashlib.sha256(printed).hexdigest()
        assert digests == PARSE_PINS

    def test_late_declarations_parse_as_declared_first(self):
        text = suite_text(49)
        late = _declarations_last(text)
        assert late != text
        _, pag = parse_program(text)
        _, pag_late = parse_program(late)
        for attr in ("alloc_edges", "assign_edges", "store_edges", "load_edges",
                     "var_types", "field_types", "allocs"):
            assert getattr(pag_late, attr) == getattr(pag, attr), attr

    def test_records_are_slotted(self):
        h, pag = parse_program(LATE_DECLS)
        nr = number_allocations(h, list(pag.allocs.values()))
        for record in (h.types["A[]"], pag.allocs["o1"], nr.type2interval["A"]):
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_parsed_corpus_memory_is_bounded(self):
        # a 2,000-statement suite corpus, parsed and numbered, holds ~200 KiB
        # with each name once and peaks at ~390 KiB with each statement
        # resolved on its own line; buffering the statements until the end
        # of the file peaked at ~590 KiB in this test
        text = suite_text(49)
        tracemalloc.start()
        try:
            h, pag = parse_program(text)
            nr = number_allocations(h, list(pag.allocs.values()))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert nr.total_allocs == len(pag.allocs)
        assert held < 450 * 2**10, held
        assert peak < 512 * 2**10, peak


FUZZ_PARAMS = GenParams(
    num_classes=4,
    num_interfaces=2,
    num_fields=2,
    num_vars=4,
    num_statements=8,
    allocs_per_class=(0, 2),
)
FUZZ_TOKENS = ("class", "interface", "extends", "implements", ":", ",", "#", "[]",
               "Object", "I9", "1x", "x[]", "new", "assign", "store", "load")


@st.composite
def mutated_corpora(draw):
    """A small generated corpus with a few lines or tokens deleted,
    duplicated, swapped or replaced."""
    lines = generate_synthetic(FUZZ_PARAMS, draw(st.integers(0, 30))).splitlines()
    words = sorted({w for line in lines for w in line.split()} | set(FUZZ_TOKENS))
    for _ in range(draw(st.integers(1, 4))):
        target = draw(st.sampled_from(("line", "token")))
        op = draw(st.sampled_from(("delete", "duplicate", "swap", "replace")))
        if target == "line":
            seq = lines
            new = draw(st.sampled_from(lines))
        else:
            i = draw(st.integers(0, len(lines) - 1))
            seq = lines[i].split()
            new = draw(st.sampled_from(words))
        if not seq:
            continue
        a = draw(st.integers(0, len(seq) - 1))
        b = draw(st.integers(0, len(seq) - 1))
        if op == "delete":
            del seq[a]
        elif op == "duplicate":
            seq.insert(b, seq[a])
        elif op == "swap":
            seq[a], seq[b] = seq[b], seq[a]
        else:
            seq[a] = new
        if target == "token":
            lines[i] = " ".join(seq)
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(mutated_corpora())
def test_mutated_corpora_parse_or_fail_with_line(text):
    # every rejection names its line; every accepted program round-trips
    try:
        _, pag = parse_program(text)
    except PtaError as e:
        assert re.match(r"line \d+: ", str(e)), str(e)
        return
    printed = format_program(pag)
    assert format_program(parse_program(printed)[1]) == printed

import random
import re

import pytest

from rangepta.errors import (
    DuplicateNameError,
    FactSyntaxError,
    InvalidParamsError,
    PtaError,
    UndeclaredVariableError,
    UnknownTypeError,
)
from rangepta.pag import GenParams, format_program, generate_synthetic, parse_program

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

    def test_duplicate_var(self):
        with pytest.raises(DuplicateNameError):
            parse_program("class Object\nvar x : Object\nvar x : Object\n")

    def test_unknown_var_type(self):
        with pytest.raises(UnknownTypeError):
            parse_program("class Object\nvar x : Missing\n")

    @pytest.mark.parametrize(
        "decls, message",
        [
            ("var x : Nope", "line 3: var x: unknown type Nope"),
            ("field f : Nope", "line 3: field f: unknown type Nope"),
            ("alloc o : Nope", "line 3: alloc o: unknown type Nope"),
            ("alloc o : I", "line 3: alloc o: allocated type I is an interface"),
            ("class A extends Nope", "line 3: class A: unknown parent Nope"),
            ("class A extends Object implements Nope",
             "line 3: class A: unknown interface Nope"),
            ("interface J extends Nope", "line 3: interface J: unknown interface Nope"),
            ("var x : Nope[][]\nvar y : Nope[]", "line 3: unknown array element type: Nope"),
            ("field f : Object\nvar x : I[]",
             "line 4: interface element arrays are not supported: I[]"),
        ],
        ids=["var", "field", "alloc", "alloc-interface", "parent", "implements",
             "extends", "array-element", "array-interface"],
    )
    def test_type_errors_have_line(self, decls, message):
        with pytest.raises(UnknownTypeError, match=f"^{re.escape(message)}$"):
            parse_program(f"class Object\ninterface I\n{decls}\n")

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
        with pytest.raises(InvalidParamsError):
            generate_synthetic(GenParams(num_classes=0), 1)
        with pytest.raises(InvalidParamsError):
            generate_synthetic(GenParams(allocs_per_class=(3, 1)), 1)

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

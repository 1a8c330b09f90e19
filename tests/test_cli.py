import csv
import re

import pytest

from rangepta import cli
from rangepta.cli import main
from rangepta.pag import GenParams, generate_synthetic, parse_program
from rangepta.ptsets import SET_KINDS
from rangepta.solver import measure, propagate

GEN_ARGS = [
    "gen", "--classes", "8", "--interfaces", "2", "--vars", "14",
    "--statements", "60", "--seed", "7",
]


@pytest.fixture
def corpus(tmp_path):
    path = tmp_path / "corpus.facts"
    assert main(GEN_ARGS + ["-o", str(path)]) == 0
    return path


@pytest.fixture
def parse_calls(monkeypatch):
    """The texts the CLI passes to parse_program."""
    calls = []

    def counting(text):
        calls.append(text)
        return parse_program(text)

    monkeypatch.setattr(cli, "parse_program", counting)
    return calls


class TestGen:
    def test_writes_corpus(self, corpus, capsys):
        assert corpus.exists()
        assert "class" in corpus.read_text()

    def test_refuses_overwrite(self, corpus, capsys):
        assert main(GEN_ARGS + ["-o", str(corpus)]) == 1
        assert "exists" in capsys.readouterr().err

    def test_force_overwrites(self, corpus):
        assert main(GEN_ARGS + ["-o", str(corpus), "--force"]) == 0

    def test_defaults_are_gen_params(self, tmp_path):
        # every flag left out takes GenParams' own default, the seed 0
        out = tmp_path / "x.facts"
        assert main(["gen", "-o", str(out)]) == 0
        assert out.read_text() == generate_synthetic(GenParams(), 0)

    def test_ignores_chunk_env(self, tmp_path, monkeypatch):
        # gen takes no chunk width, so a bad RANGE_PTA_CHUNK is not its error
        monkeypatch.setenv("RANGE_PTA_CHUNK", "abc")
        assert main(GEN_ARGS + ["-o", str(tmp_path / "x.facts")]) == 0

    def test_bad_params(self, tmp_path, capsys):
        rc = main(["gen", "--classes", "0", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_negative_statements(self, tmp_path, capsys):
        rc = main(["gen", "--statements", "-1", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == "error: num_statements must be >= 0\n"

    def test_depth_too_small_for_classes(self, tmp_path, capsys):
        # with depth 1 only Object fits, so no other class can take a parent
        rc = main(["gen", "--max-depth", "1", "--classes", "5", "-o", str(tmp_path / "x")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: max_depth must be >= 2 for more than one class\n"
        )


class TestSolve:
    def test_default_report(self, corpus, capsys):
        assert main(["solve", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "config: set=hybrid filter=mask chunk=64" in out
        assert "modeled space" in out

    def test_conflicting_config(self, corpus, capsys):
        assert main(["solve", str(corpus), "--set", "hybrid", "--filter", "intrinsic"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_filter_defaults_to_the_kinds_own(self, corpus, capsys):
        assert main(["solve", str(corpus), "--set", "ranged-hybrid"]) == 0
        assert "config: set=ranged-hybrid filter=intrinsic chunk=64" in capsys.readouterr().out

    def test_missing_corpus(self, tmp_path, capsys):
        assert main(["solve", str(tmp_path / "nope.facts")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_corpus(self, tmp_path, capsys):
        path = tmp_path / "bad.facts"
        path.write_bytes(b"class Object\n\xff\xfe var x : Object\n")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 2: invalid UTF-8 byte 0xff\n"

    def test_byte_order_mark_is_dropped(self, corpus, capsys):
        def report():
            assert main(["solve", str(corpus)]) == 0
            return re.sub(r"time=\d+\.\d{4}s", "time=Ts", capsys.readouterr().out)

        plain = report()
        corpus.write_bytes(b"\xef\xbb\xbf" + corpus.read_bytes())
        assert report() == plain

    def test_byte_order_mark_keeps_error_positions(self, tmp_path, capsys):
        # the bad byte is found after the mark, and reported as itself
        path = tmp_path / "bad.facts"
        path.write_bytes(b"\xef\xbb\xbfclass Object\nab\xff var x : Object\n")
        assert main(["solve", str(path)]) == 1
        assert capsys.readouterr().err == "error: line 2: invalid UTF-8 byte 0xff\n"

    def test_emit_solution(self, corpus, tmp_path, capsys):
        sol_path = tmp_path / "sol.txt"
        assert main(["solve", str(corpus), "--emit-solution", str(sol_path)]) == 0
        text = sol_path.read_text()
        assert text.startswith("var ")
        # canonical form is config-independent for exact kinds
        assert main([
            "solve", str(corpus), "--set", "naive",
            "--emit-solution", str(tmp_path / "sol2.txt"),
        ]) == 0
        assert (tmp_path / "sol2.txt").read_text() == text

    def test_csv_and_md_agree_with_text(self, corpus, tmp_path, capsys):
        csv_path, md_path = tmp_path / "r.csv", tmp_path / "r.md"
        assert main([
            "solve", str(corpus), "--csv", str(csv_path), "--md", str(md_path),
        ]) == 0
        out = capsys.readouterr().out
        header, values = csv_path.read_text().splitlines()
        row = dict(zip(header.split(","), values.split(",")))
        text = dict(tok.split("=", 1) for tok in out.split() if "=" in tok)
        md = md_path.read_text()
        for column, label in [
            ("total_bytes", "total"),
            ("union_ops", "unions"),
            ("union_attempts", "attempts"),
            ("nodes_processed", "nodes"),
            ("spilled_sets", "spills"),
        ]:
            assert text[label] == row[column], column
            assert f"| {column} | {row[column]} |" in md

    def test_report_formats_are_pinned(self, corpus, tmp_path, capsys):
        # the columns, their order and the text labels, with the wall time
        # masked; shared is the kind whose shared-bases column is not 0
        csv_path, md_path = tmp_path / "r.csv", tmp_path / "r.md"
        assert main([
            "solve", str(corpus), "--set", "shared",
            "--csv", str(csv_path), "--md", str(md_path),
        ]) == 0
        out = capsys.readouterr().out
        text = re.sub(r"time=\d+\.\d{4}s", "time=Ts", out)
        assert text.splitlines() == [
            f"corpus: {corpus}",
            "config: set=shared filter=mask chunk=64",
            "universe: 18 allocs, 14 vars",
            "propagation: unions=28 attempts=48 nodes=15 spills=0 time=Ts",
            "modeled space (bytes): var-sets=568 field-sets=648 shared-bases=24 total=1240",
        ]
        header, values = csv.reader(csv_path.read_text().splitlines())
        assert header == [
            "corpus", "set_kind", "filter_mode", "chunk_bits", "total_allocs",
            "num_vars", "union_ops", "union_attempts", "nodes_processed",
            "spilled_sets", "wall_time_s", "var_set_bytes", "field_set_bytes",
            "shared_base_bytes", "total_bytes",
        ]
        wall = values[header.index("wall_time_s")]
        assert re.fullmatch(r"\d+\.\d{4}", wall) and f" time={wall}s\n" in out
        assert values == [
            str(corpus), "shared", "mask", "64", "18", "14", "28", "48", "15",
            "0", wall, "568", "648", "24", "1240",
        ]
        assert md_path.read_text().splitlines() == [
            "| metric | value |", "| --- | --- |",
        ] + [f"| {name} | {value} |" for name, value in zip(header, values)]

    @pytest.mark.parametrize("kind", SET_KINDS)
    def test_report_columns_are_measure(self, kind, corpus, tmp_path, capsys,
                                        monkeypatch):
        # after the corpus and config come solver.measure's columns, the
        # time to four places
        solves = []

        def recording(*args):
            solves.append(propagate(*args))
            return solves[-1]

        monkeypatch.setattr(cli, "propagate", recording)
        csv_path = tmp_path / "r.csv"
        assert main(["solve", str(corpus), "--set", kind, "--csv", str(csv_path)]) == 0
        header, values = csv.reader(csv_path.read_text().splitlines())
        (sol,) = solves
        m = measure(sol)
        m["wall_time_s"] = f"{m['wall_time_s']:.4f}"
        assert header[:4] == ["corpus", "set_kind", "filter_mode", "chunk_bits"]
        assert dict(zip(header[4:], values[4:])) == {k: str(v) for k, v in m.items()}
        assert header[4:] == list(m)

    def test_csv_and_md_quote_an_unusual_path(self, corpus, tmp_path, capsys):
        odd = tmp_path / "a,b|c" / "c.facts"
        odd.parent.mkdir()
        odd.write_bytes(corpus.read_bytes())
        csv_path, md_path = tmp_path / "r.csv", tmp_path / "r.md"
        assert main([
            "solve", str(odd), "--csv", str(csv_path), "--md", str(md_path),
        ]) == 0
        header, values = csv.reader(csv_path.read_text().splitlines())
        assert len(values) == len(header)
        assert dict(zip(header, values))["corpus"] == str(odd)
        rows = md_path.read_text().splitlines()
        # each row has two cells: three pipes that no backslash escapes
        assert all(len(re.split(r"(?<!\\)\|", row)) == 4 for row in rows)
        escaped = str(odd).replace("|", "\\|")
        assert f"| corpus | {escaped} |" in rows

    @pytest.mark.parametrize("how", ["flag", "env"])
    def test_bad_chunk_rejected_before_parsing(
        self, corpus, capsys, monkeypatch, parse_calls, how
    ):
        argv = ["solve", str(corpus)]
        if how == "flag":
            argv += ["--chunk", "12"]
        else:
            monkeypatch.setenv("RANGE_PTA_CHUNK", "12")
        assert main(argv) == 1
        assert "chunk_bits must be one of" in capsys.readouterr().err
        assert parse_calls == []

    def test_chunk_env_default(self, corpus, capsys, monkeypatch):
        monkeypatch.setenv("RANGE_PTA_CHUNK", "8")
        assert main(["solve", str(corpus)]) == 0
        assert "chunk=8" in capsys.readouterr().out

    @pytest.mark.parametrize("raw", ["abc", "12"])
    def test_bad_chunk_env(self, corpus, capsys, monkeypatch, raw):
        monkeypatch.setenv("RANGE_PTA_CHUNK", raw)
        assert main(["solve", str(corpus)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deep_class_chain(self, tmp_path, capsys):
        # deeper than the interpreter's default recursion limit
        lines = ["class Object"] + [
            f"class C{i} extends {'C' + str(i - 1) if i else 'Object'}"
            for i in range(1500)
        ]
        lines += ["var x : C1499", "alloc o : C1499", "new x o"]
        path = tmp_path / "chain.facts"
        path.write_text("\n".join(lines) + "\n")
        assert main(["solve", str(path)]) == 0
        assert "universe: 1 allocs" in capsys.readouterr().out


class TestCompare:
    def test_ranged_vs_exact(self, corpus, capsys):
        rc = main([
            "compare", str(corpus),
            "--set-a", "ranged", "--filter-a", "intrinsic",
            "--set-b", "naive", "--filter-b", "mask",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "comparison: equal" in out or "comparison: a_superset" in out
        assert "B-only" not in out
        assert "bucket" in out
        for bucket in ("0", "1", "2", "3-10", "11-100"):
            assert f"{bucket:>8} " in out

    def test_incomparable_reports_witnesses(self, corpus, capsys):
        rc = main([
            "compare", str(corpus),
            "--set-a", "naive", "--filter-a", "mask",
            "--set-b", "naive", "--filter-b", "none",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "comparison: incomparable" in out
        assert "B-only member:" in out

    def test_parses_corpus_once(self, corpus, capsys, parse_calls):
        assert main(["compare", str(corpus), "--set-a", "naive", "--set-b", "pure"]) == 0
        assert len(parse_calls) == 1


class TestSavings:
    def test_report_format(self, corpus, capsys):
        assert main(["savings", str(corpus), "--set", "pure"]) == 0
        out = capsys.readouterr().out
        line = out.strip().splitlines()[-1]
        total, saved = line.split("/")
        assert float(total) >= float(saved) >= 0.0

    @pytest.mark.parametrize("kind", ["naive", "shared", "sparse"])
    def test_unsupported_kind(self, corpus, capsys, kind):
        assert main(["savings", str(corpus), "--set", kind]) == 1
        assert "error:" in capsys.readouterr().err


class TestBench:
    def test_median_line(self, corpus, capsys):
        assert main(["bench", str(corpus), "--repeat", "3"]) == 0
        assert "median propagation time over 3 runs:" in capsys.readouterr().out

    def test_parses_corpus_once(self, corpus, capsys, parse_calls):
        # only propagate is repeated and timed; the corpus is loaded once
        assert main(["bench", str(corpus), "--repeat", "3"]) == 0
        assert len(parse_calls) == 1

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_repeat_below_one(self, corpus, capsys, repeat):
        assert main(["bench", str(corpus), "--repeat", repeat]) == 1
        assert "error:" in capsys.readouterr().err

"""Command line behavior: exit codes, formats, determinism."""

import csv
import io
import json

import pytest

from threepage import InternalError, cli
from threepage.cli import CSV_COLUMNS, main

from conftest import (
    CORPUS_PATH,
    CORPUS_TEXTS,
    DEGENERATE_PATH,
    FIGURE_EIGHT,
    HOPF,
    NON_SPHERE,
    TREFOIL,
    TREFOIL_SWITCHED,
    braid_closure_pd,
    disjoint_union,
)


def write_entries(tmp_path, lines, name="input.txt"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestExitCodes:
    def test_corpus_ok(self, capsys):
        code, out, _ = run_cli(["batch", str(CORPUS_PATH)], capsys)
        assert code == 0
        assert len(csv_rows(out)) == 17

    def test_parse_error(self, tmp_path, capsys):
        path = write_entries(tmp_path, ["bad: PD[X(1,2,3)]"])
        code, _, _ = run_cli(["batch", path], capsys)
        assert code == 1

    def test_validation_error(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"curl: {NON_SPHERE}"])
        code, _, _ = run_cli(["batch", path], capsys)
        assert code == 2

    def test_exact_budget_hit_on_long_braid(self, tmp_path, capsys):
        word = [(i % 2 + 1) * (-1) ** i for i in range(2400)]
        path = write_entries(tmp_path, [f"long: {braid_closure_pd(word, 3)}"])
        code, out, _ = run_cli(["batch", path, "--exact", "--budget", "1500"],
                               capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert (row["m_mode"], row["verified"]) == ("exact(budget-hit)", "true")

    def test_verification_error(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"ts: {TREFOIL_SWITCHED}"])
        code, out, _ = run_cli(["batch", path, "--no-repair", "--exact"],
                               capsys)
        assert code == 3
        row = csv_rows(out)[0]
        assert row["verified"] == "false"
        assert row["bound"] == ""
        assert row["failure"].startswith("verification:")

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run_cli(["batch", str(tmp_path / "nope.txt")], capsys)
        assert code == 1
        assert err

    def test_batch_continues_exit_is_max(self, tmp_path, capsys):
        path = write_entries(tmp_path, [
            f"good: {HOPF}",
            "junk line without separator",
            f"curl: {NON_SPHERE}",
        ])
        code, out, _ = run_cli(["batch", path], capsys)
        assert code == 2
        assert len(csv_rows(out)) == 3

    def test_invalid_utf8_line_is_one_parse_row(self, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(f"a: {HOPF}\n".encode() + b"b: \xff\n"
                         + f"c: {TREFOIL}\r\n# caf\u00e9\n".encode())
        code, out, err = run_cli(["batch", str(path)], capsys)
        assert (code, err) == (1, "")
        rows = {r["name"]: r for r in csv_rows(out)}
        assert rows["line-2"]["failure"] == "parse: line 2 is not valid UTF-8"
        assert [rows[k]["verified"] for k in ("a", "c")] == ["true", "true"]
        assert len(rows) == 3

    def test_label_past_the_int_digit_limit_is_a_parse_row(self, tmp_path,
                                                           capsys):
        # int() refuses strings of more than 4,300 digits by default.
        big = "1" * 4301
        path = write_entries(tmp_path, [
            f"big: PD[X({big},{big},2,2)]",
            f"big_entry: PD[X({big},{big},2,2) junk]",
            f"hopf: {HOPF}",
        ])
        code, out, err = run_cli(["batch", path], capsys)
        assert (code, err) == (1, "")
        rows = {r["name"]: r for r in csv_rows(out)}
        for name in ("big", "big_entry"):
            assert rows[name]["failure"] == \
                "parse: label of 4301 digits is too long"
        assert rows["hopf"]["verified"] == "true"

    def test_byte_order_mark_before_a_comment(self, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xef\xbb\xbf# knots\n" + f"a: {HOPF}\n".encode())
        code, out, err = run_cli(["batch", str(path)], capsys)
        assert (code, err) == (0, "")
        assert [r["name"] for r in csv_rows(out)] == ["a"]

    def test_byte_order_mark_before_a_row(self, tmp_path, capsys):
        path = tmp_path / "input.txt"
        path.write_bytes(b"\xef\xbb\xbf" + f"trefoil: {TREFOIL}\n"
                         f"hopf: {HOPF}\n".encode())
        svg_dir = tmp_path / "svg"
        code, out, _ = run_cli(["batch", str(path), "--svg", str(svg_dir)],
                               capsys)
        assert code == 0
        assert [r["name"] for r in csv_rows(out)] == ["hopf", "trefoil"]
        assert sorted(p.name for p in svg_dir.iterdir()) == \
            ["hopf.svg", "trefoil.svg"]

    @pytest.mark.parametrize("budget", ["0", "-3", "many"])
    def test_budget_must_be_positive(self, tmp_path, capsys, budget):
        path = write_entries(tmp_path, [f"hopf: {HOPF}"])
        with pytest.raises(SystemExit) as exc:
            main(["batch", path, "--nsis", "--budget", budget])
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err
        code, out, _ = run_cli(["batch", path, "--nsis", "--budget", "1"],
                               capsys)
        assert code == 0 and csv_rows(out)[0]["verified"] == "true"

    def test_analyze_stops_at_first_failure(self, tmp_path, capsys):
        path = write_entries(tmp_path, [
            f"aaa_curl: {NON_SPHERE}",
            f"zzz_good: {HOPF}",
        ])
        code, out, _ = run_cli(["analyze", path, "--format", "csv"], capsys)
        assert code == 2
        rows = csv_rows(out)
        assert len(rows) == 1
        assert rows[0]["name"] == "aaa_curl"

    def test_unexpected_exception_fails_one_row(self, tmp_path, capsys,
                                                monkeypatch):
        """Any exception a step is not documented to raise, InternalError
        included, fails its own row as internal and exits 3."""
        inner = cli.certify
        path = write_entries(tmp_path, [
            f"hopf: {HOPF}",
            f"trefoil: {TREFOIL}",
            f"eight: {FIGURE_EIGHT}",
        ])
        for exc, failure in [
                (KeyError("boom"), "internal: KeyError: 'boom'"),
                (InternalError("boom"), "internal: InternalError: boom")]:

            def certify(comp, config=None, exc=exc):
                if comp.n == 3:
                    raise exc
                return inner(comp, config)

            monkeypatch.setattr(cli, "certify", certify)
            code, out, err = run_cli(["batch", path], capsys)
            assert code == 3
            rows = {r["name"]: r for r in csv_rows(out)}
            assert rows["trefoil"]["failure"] == failure
            assert rows["trefoil"]["bound"] == ""
            assert [rows[k]["verified"] for k in ("hopf", "eight")] == \
                ["true", "true"]
            assert "Traceback" in err and type(exc).__name__ in err
            code, out, _ = run_cli(["batch", path, "--format", "text"],
                                   capsys)
            assert code == 3
            assert f"trefoil: FAIL {failure}" in out
            assert out.splitlines()[-1] == \
                "summary: ok=2 parse=0 validation=0 verification=1"


class TestBounds:
    def test_exact_bounds(self, tmp_path, capsys):
        path = write_entries(tmp_path, [
            f"hopf: {HOPF}",
            f"trefoil: {TREFOIL}",
            f"fig8: {FIGURE_EIGHT}",
        ])
        code, out, _ = run_cli(["batch", path, "--exact"], capsys)
        assert code == 0
        got = {r["name"]: int(r["bound"]) for r in csv_rows(out)}
        assert got == {"hopf": 6, "trefoil": 8, "fig8": 11}

    def test_no_extend_trefoil(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"trefoil: {TREFOIL}"])
        code, out, _ = run_cli(["batch", path, "--no-extend"], capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert int(row["bound"]) == 10
        assert row["m"] == "0"
        assert row["m_mode"] == "tree-only"

    def test_split_link_sums_components(self, tmp_path, capsys):
        body = disjoint_union(HOPF, TREFOIL)
        path = write_entries(tmp_path, [f"split: {body}"])
        code, out, _ = run_cli(["batch", path, "--exact"], capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert row["components"] == "2"
        assert int(row["bound"]) == 14
        assert "split" in row["notes"]

    @pytest.mark.parametrize("granny_first", [False, True])
    def test_split_row_is_budget_hit_if_any_component_is(self, granny_first):
        """The trefoil's search finishes and the granny's hits the budget,
        so the summed m is only a lower bound, in either order."""
        parts = (CORPUS_TEXTS["granny"], TREFOIL)
        body = disjoint_union(*(parts if granny_first else parts[::-1]))
        row, severity = cli.analyze_entry(
            "split", body, cli.RunConfig(exact=True, nsis=True, budget=20))
        assert severity == cli.OK and row["components"] == 2
        assert row["m_mode"] == "exact(budget-hit)"

    def test_budget_hit_before_any_face(self, capsys):
        """At budget 1 the search stops before it takes a face, so every
        one-crossing component is walked round its empty tree."""
        code, out, _ = run_cli(["batch", DEGENERATE_PATH, "--exact",
                                "--budget", "1"], capsys)
        assert code == 0
        rows = [r for r in csv_rows(out) if r["n"] != "0"]
        assert rows and all(
            (r["m_mode"], r["m"], r["verified"]) ==
            ("exact(budget-hit)", "0", "true") for r in rows)
        kinks = [r for r in rows if r["name"].startswith(("kink_", "split"))]
        assert kinks and all(
            r["points_before"] == r["bound"] == str(4 * int(r["n"]))
            for r in kinks)

    def test_empty_code_is_one_arc(self, tmp_path, capsys):
        path = write_entries(tmp_path, ["unknot: PD[]"])
        code, out, _ = run_cli(["batch", path], capsys)
        assert code == 0
        row = csv_rows(out)[0]
        assert int(row["bound"]) == 1
        assert row["n"] == "0"
        assert "no crossings" in row["notes"]
        # PD[] has no reduced or alternating value (blank cells above), so
        # its text line names neither.
        code, out, _ = run_cli(["batch", path, "--format", "text"], capsys)
        assert code == 0
        assert out.splitlines()[0] == "unknot: n=0 components=1 bound=1"


class TestColumnsAndFormats:
    def test_csv_header(self, capsys):
        _, out, _ = run_cli(["batch", str(CORPUS_PATH)], capsys)
        header = out.splitlines()[0]
        assert header.split(",") == CSV_COLUMNS

    def test_json_shape(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"hopf: {HOPF}"])
        code, out, _ = run_cli(
            ["batch", path, "--format", "json", "--nsis"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["exit"] == 0
        assert doc["rows"][0]["name"] == "hopf"
        assert doc["rows"][0]["bound"] == 6
        assert "nsis_report" in doc

    def test_text_format_summary(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"hopf: {HOPF}"])
        code, out, _ = run_cli(["analyze", path], capsys)
        assert code == 0
        assert "bound" in out
        assert "ok=1" in out

    def test_oracle_column(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"trefoil: {TREFOIL}"])
        _, out, _ = run_cli(["batch", path, "--oracle", "--exact"], capsys)
        row = csv_rows(out)[0]
        assert row["oracle_m"] == row["m"] == "2"

    def test_oracle_skips_large(self, tmp_path, capsys, corpus):
        path = write_entries(tmp_path, [f"t2_7: {corpus['t2_7'].pd_text()}"])
        _, out, _ = run_cli(["batch", path, "--oracle"], capsys)
        row = csv_rows(out)[0]
        assert row["oracle_m"] == ""
        assert "oracle" in row["notes"]

    def test_nsis_columns(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"hopf: {HOPF}", f"trefoil: {TREFOIL}"])
        code, out, _ = run_cli(
            ["batch", path, "--nsis", "--exact", "--format", "text"], capsys)
        assert code == 0
        assert "min nsis_max/n" in out
        assert "0.5000" in out

    def test_witness_column(self, capsys):
        _, out, _ = run_cli(["batch", str(CORPUS_PATH), "--exact"], capsys)
        rows = {r["name"]: r for r in csv_rows(out)}
        assert rows["trefoil"]["witness"].startswith("e")
        assert rows["hopf"]["witness"] == "skipped"


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_repeat_runs_identical(self, fmt, capsys):
        args = ["batch", str(CORPUS_PATH), "--format", fmt, "--nsis"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


class TestSvgOutput:
    def test_batch_svg_files(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"hopf: {HOPF}"])
        outdir = tmp_path / "figs"
        code, _, _ = run_cli(["batch", path, "--svg", str(outdir)], capsys)
        assert code == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert files == ["hopf.svg"]
        assert (outdir / "hopf.svg").read_text().startswith("<svg")

    def test_render_lists_paths(self, tmp_path, capsys):
        path = write_entries(tmp_path, [
            f"b_trefoil: {TREFOIL}",
            f"a_hopf: {HOPF}",
        ])
        outdir = tmp_path / "out"
        code, out, _ = run_cli(["render", path, str(outdir)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert [l.rsplit("/", 1)[-1] for l in lines] == \
            ["a_hopf.svg", "b_trefoil.svg"]

    def test_split_render_numbers_components(self, tmp_path, capsys):
        body = disjoint_union(HOPF, TREFOIL)
        path = write_entries(tmp_path, [f"split: {body}"])
        outdir = tmp_path / "out"
        code, _, _ = run_cli(["render", path, str(outdir)], capsys)
        assert code == 0
        files = sorted(p.name for p in outdir.iterdir())
        assert files == ["split.0.svg", "split.1.svg"]

    def test_svg_bytes_deterministic(self, tmp_path, capsys):
        path = write_entries(tmp_path, [f"hopf: {HOPF}"])
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_cli(["batch", path, "--svg", str(d1)], capsys)
        run_cli(["batch", path, "--svg", str(d2)], capsys)
        assert (d1 / "hopf.svg").read_bytes() == (d2 / "hopf.svg").read_bytes()

    @pytest.mark.parametrize("mode", ["render", "batch"])
    def test_unwritable_svg_dir_keeps_the_rows(self, tmp_path, capsys, mode):
        """--svg at a regular file, or render into a path through one: the
        path goes to stderr, the rows are still printed, and exit is 2."""
        path = write_entries(tmp_path, [f"trefoil: {TREFOIL}",
                                        f"hopf: {HOPF}"])
        blocker = tmp_path / "figs"
        blocker.write_text("not a directory\n")
        if mode == "render":
            target = str(blocker / "sub")
            args = ["render", path, target]
        else:
            target = str(blocker)
            args = ["batch", path, "--svg", target]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert err.startswith("validation: cannot write SVG: ")
        assert repr(target) in err
        assert "Traceback" not in err
        assert blocker.read_text() == "not a directory\n"
        if mode == "render":
            assert out == ""    # no figure was written
        else:
            _, plain, _ = run_cli(["batch", path], capsys)
            assert out == plain
            code, out, _ = run_cli(args + ["--format", "json"], capsys)
            assert code == 2 and json.loads(out)["exit"] == 2

    def test_unwritable_svg_file_keeps_the_other_figures(self, tmp_path,
                                                         capsys):
        path = write_entries(tmp_path, [f"trefoil: {TREFOIL}",
                                        f"hopf: {HOPF}"])
        outdir = tmp_path / "out"
        (outdir / "hopf.svg").mkdir(parents=True)
        code, out, err = run_cli(["render", path, str(outdir)], capsys)
        assert code == 2
        assert err.startswith("validation: cannot write SVG: ")
        assert repr(str(outdir / "hopf.svg")) in err
        assert "Traceback" not in err
        assert [l.rsplit("/", 1)[-1] for l in out.splitlines()] == \
            ["trefoil.svg"]
        assert (outdir / "trefoil.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("mode", ["render", "batch"])
    def test_colliding_names_keep_the_first_figure(self, tmp_path, capsys,
                                                   mode):
        path = write_entries(tmp_path, [
            f"a_b: {TREFOIL}",
            f"a b: {HOPF}",
            f"hopf: {HOPF}",
            f"hopf: {TREFOIL}",
        ])
        outdir = tmp_path / "out"
        args = [mode, path, str(outdir)] if mode == "render" else \
            ["batch", path, "--svg", str(outdir)]
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert "rows 'a b' and 'a_b' both map to" in err
        assert "rows 'hopf' and 'hopf' both map to" in err
        assert sorted(p.name for p in outdir.iterdir()) == \
            ["a_b.svg", "hopf.svg"]
        if mode == "render":
            assert [l.rsplit("/", 1)[-1] for l in out.splitlines()] == \
                ["a_b.svg", "hopf.svg"]
        else:
            assert all(r["verified"] == "true" for r in csv_rows(out))
        single = write_entries(tmp_path, [f"hopf: {HOPF}"], "single.txt")
        run_cli(["render", single, str(tmp_path / "single")], capsys)
        hopf = (tmp_path / "single" / "hopf.svg").read_bytes()
        assert (outdir / "a_b.svg").read_bytes() == hopf   # 'a b' sorts first
        assert (outdir / "hopf.svg").read_bytes() == hopf  # input order

"""End-to-end tests of the command-line interface.

Commands are exercised through ``main(argv)`` for speed.  One subprocess test
runs the console-script entry point declared in ``pyproject.toml`` the way the
installed wrapper does; a second runs the installed ``homhom`` executable when
one is on ``PATH``.  JSON outputs are checked for the documented invariants:
sorted keys, no floats, determinism up to the timing fields, and stable exit
codes.
"""

from __future__ import annotations

import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from homhom import cli, recognizers
from homhom.cli import build_family, main, parse_classes
from homhom.families import bcpm_graph, clique_chain, cycle_graph, path_graph
from homhom.graphs import Graph, from_graph6, is_isomorphic, to_graph6
from homhom.oracle import CLASS_CODES


def run_cli(capsys, argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def normalize_timing(text: str) -> str:
    return re.sub(r'"elapsedMs":\s*\d+', '"elapsedMs":0', text)


def assert_no_floats(obj) -> None:
    if isinstance(obj, float):
        raise AssertionError(f"float {obj!r} in JSON output")
    if isinstance(obj, dict):
        for k, v in obj.items():
            assert isinstance(k, str)
            assert_no_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_no_floats(v)


def assert_sorted_keys(text: str) -> None:
    # json.loads keeps document order, so each object literal must already
    # list its keys in sorted order.
    def walk(obj):
        if isinstance(obj, dict):
            assert list(obj) == sorted(obj), f"unsorted keys: {list(obj)}"
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(json.loads(text))


class TestClassParsing:
    def test_aliases_map_to_descriptive_codes(self):
        assert parse_classes("c-ii,c-mi,c-hi,c-ih,c-mh,c-hh", CLASS_CODES) == [
            "iso-iso",
            "mono-iso",
            "homo-iso",
            "iso-homo",
            "mono-homo",
            "homo-homo",
        ]

    def test_aliases_are_case_insensitive_and_deduped(self):
        assert parse_classes("C-HH, homo-homo ,c-hh", CLASS_CODES) == ["homo-homo"]

    def test_descriptive_codes_pass_through(self):
        assert parse_classes("mono-iso", CLASS_CODES) == ["mono-iso"]

    def test_default_when_omitted(self):
        assert parse_classes(None, CLASS_CODES) == list(CLASS_CODES)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValueError, match="unknown class"):
            parse_classes("c-xx", CLASS_CODES)


class TestFamilyBuilding:
    def test_named_families_build(self):
        assert build_family(["petersen"]).n == 10
        assert build_family(["cycle", "6"]).n == 6
        assert build_family(["bcpm", "4"]).n == 8
        assert build_family(["multiclaw", "2", "1", "3", "3"]).n == 8

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            build_family(["moebius", "5"])

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError, match="parameters"):
            build_family(["cycle"])
        with pytest.raises(ValueError, match="parameters"):
            build_family(["petersen", "3"])

    def test_non_integer_parameter_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            build_family(["cycle", "six"])


class TestClassify:
    def test_petersen_in_iso_iso_but_not_mono_homo(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--family", "petersen"])
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"]["iso-iso"]["verdict"] == "yes"
        assert doc["classes"]["iso-iso"]["family"] == "petersen"
        assert doc["classes"]["mono-homo"]["verdict"] == "no"
        assert doc["classes"]["mono-homo"]["witness"] is not None

    def test_empty_graph_is_single_vertex_case(self, capsys):
        code, out, _ = run_cli(capsys, ["classify", "--g6", "E???", "--classes", "c-hh"])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 6
        assert doc["classes"]["homo-homo"]["verdict"] == "yes"
        assert "case (a)" in doc["classes"]["homo-homo"]["note"]
        assert "homo-homo-case-a" in doc["familyTags"]
        assert list(doc["classes"]) == ["homo-homo"]

    def test_six_cycle_from_stdin_edge_list(self, capsys, monkeypatch):
        edges = "6 6\n0 1\n1 2\n2 3\n3 4\n4 5\n5 0\n"
        code, out, _ = run_cli(
            capsys,
            ["classify", "--classes", "c-mi,c-hh,c-hi"],
            stdin=edges,
            monkeypatch=monkeypatch,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["classes"]["mono-iso"]["verdict"] == "yes"
        assert doc["classes"]["homo-homo"]["verdict"] == "yes"
        assert doc["classes"]["homo-iso"]["verdict"] == "no"

    def test_edge_list_accepts_either_endpoint_order(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["classify", "--classes", "c-ii"],
            stdin="3 2\n2 0\n1 0\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert is_isomorphic(from_graph6(json.loads(out)["graph6"]), path_graph(2))

    def test_graph6_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            capsys,
            ["classify", "--classes", "c-ii"],
            stdin="DUW\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert json.loads(out)["n"] == 5

    def test_output_is_schema_stable(self, capsys):
        _, out, _ = run_cli(capsys, ["classify", "--family", "cycle", "5"])
        assert_sorted_keys(out)
        assert_no_floats(json.loads(out))
        doc = json.loads(out)
        assert set(doc) == {"classes", "familyTags", "graph6", "n"}
        for entry in doc["classes"].values():
            assert set(entry) == {"family", "note", "source", "verdict", "witness"}

    def test_bad_graph6_is_an_input_error(self, capsys):
        code, _, err = run_cli(capsys, ["classify", "--g6", "zzz"])
        assert code == 2
        assert "error:" in err

    def test_64_vertex_edge_list(self, capsys, tmp_path):
        # 63 and more vertices take graph6's long header in the output
        edges = tmp_path / "c64.txt"
        edges.write_text(
            "64 64\n" + "".join(f"{i} {(i + 1) % 64}\n" for i in range(64))
        )
        code, out, _ = run_cli(capsys, ["classify", "--edges", str(edges)])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 64 and doc["graph6"].startswith("~?@?")
        assert from_graph6(doc["graph6"]) == cycle_graph(64)
        assert doc["classes"]["iso-iso"]["family"] == "cycle(64)"

    def test_recognizers_run_once_per_graph(self, capsys, rebind):
        # the family tags reuse the recognizer results of the verdicts
        names = ("chh_case_and_families", "classify_cii")
        calls: list[str] = []
        for name in names:
            original = getattr(recognizers, name)

            def counted(g, _name=name, _original=original):
                calls.append(_name)
                return _original(g)

            rebind(original, counted)
        code, out, _ = run_cli(capsys, ["classify", "--family", "cycle", "6"])
        assert code == 0
        assert "matching-complement(3)" in json.loads(out)["familyTags"]
        assert sorted(calls) == list(names)
        calls.clear()
        record = cli.sweep_record(to_graph6(cycle_graph(6)), CLASS_CODES, False)
        assert "matching-complement(3)" in record["familyTags"]
        assert sorted(calls) == list(names)

    def test_homo_homo_families_matched_once_per_graph(self, capsys, rebind):
        # the case tag and the families come from one match per component
        original = recognizers.chh_connected_families
        calls = []
        rebind(original, lambda g: calls.append(g) or original(g))
        code, _, _ = run_cli(capsys, ["classify", "--family", "cycle", "6"])
        assert code == 0 and len(calls) == 1
        cli.sweep_record(to_graph6(cycle_graph(6)), CLASS_CODES, False)
        assert len(calls) == 2

    def test_two_graphs_is_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["classify", "--family", "cycle", "5", "--g6", "A_"]
        )
        assert code == 2
        assert "expected 1 graph" in err


class TestSweep:
    def test_small_sweep_has_no_mismatches(self, capsys):
        code, out, err = run_cli(capsys, ["sweep", "--max-n", "4"])
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 18  # isomorphism classes on 1..4 vertices
        assert all(not r["mismatch"] for r in records)
        summary = json.loads(err)
        assert summary["mismatchCount"] == 0
        assert summary["graphCount"] == 18

    def test_records_sorted_and_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, ["sweep", "--max-n", "4"])
        _, out2, _ = run_cli(capsys, ["sweep", "--max-n", "4"])
        assert normalize_timing(out1) == normalize_timing(out2)
        ns = [json.loads(line)["n"] for line in out1.splitlines()]
        assert ns == sorted(ns)

    def test_parallel_sweep_matches_serial(self, capsys):
        _, serial, _ = run_cli(capsys, ["sweep", "--max-n", "4"])
        _, parallel, _ = run_cli(capsys, ["sweep", "--max-n", "4", "--jobs", "2"])
        assert normalize_timing(serial) == normalize_timing(parallel)

    def test_class_filter_limits_verdicts(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "--max-n", "3", "--classes", "c-hh"])
        for line in out.splitlines():
            assert list(json.loads(line)["verdicts"]) == ["homo-homo"]

    def test_connected_flag_drops_disconnected_graphs(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "--max-n", "4", "--connected"])
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == 10  # connected isomorphism classes on 1..4 vertices
        assert "A?" not in {r["graph6"] for r in records}

    def test_record_schema(self, capsys):
        _, out, _ = run_cli(capsys, ["sweep", "--max-n", "3"])
        for line in out.splitlines():
            rec = json.loads(line)
            assert set(rec) == {
                "elapsedMs",
                "familyTags",
                "graph6",
                "mismatch",
                "n",
                "verdicts",
                "witnesses",
            }
            assert_no_floats(rec)
            assert_sorted_keys(line)
            for cell in rec["verdicts"].values():
                assert set(cell) == {"oracle", "recognizer"}

    def test_out_file_and_resume_skip(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        code, stdout, _ = run_cli(capsys, ["sweep", "--max-n", "4", "--out", str(out_file)])
        assert code == 0
        assert stdout.strip().startswith("{")  # summary goes to stdout with --out
        full = out_file.read_text().splitlines()
        assert len(full) == 18

        # Truncate, then resume: the skipped prefix is kept, the rest recomputed.
        out_file.write_text("\n".join(full[:7]) + "\n")
        code, stdout, _ = run_cli(
            capsys, ["sweep", "--max-n", "4", "--out", str(out_file), "--resume"]
        )
        assert code == 0
        summary = json.loads(stdout)
        assert summary["skippedCount"] == 7
        assert summary["graphCount"] == 11
        resumed = out_file.read_text().splitlines()
        assert [json.loads(l)["graph6"] for l in resumed] == [
            json.loads(l)["graph6"] for l in full
        ]

    def test_budget_aborts_count_as_oracle_unknown(self, capsys, monkeypatch):
        # a 3-vertex budget refuses the oracle on all eleven 4-vertex graphs
        monkeypatch.setenv("HOMHOM_BUDGET", "3")
        code, out, err = run_cli(
            capsys, ["sweep", "--max-n", "4", "--classes", "c-hh", "--force"]
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        undecided = [r for r in records if r["verdicts"]["homo-homo"]["oracle"] is None]
        assert {r["n"] for r in undecided} == {4} and len(undecided) == 11
        counts = json.loads(err)["perClass"]["homo-homo"]
        assert counts["oracleUnknown"] == 11
        assert counts["yes"] + counts["no"] == 7  # graphs on 1..3 vertices
        assert counts["unknown"] == 0  # the recognizer decided every graph

    def test_budget_abort_leaves_out_file_untouched(self, capsys, monkeypatch, tmp_path):
        # without --force a 3-vertex budget stops the sweep at the first
        # 4-vertex graph (exit 3), after --out was opened
        out_file = tmp_path / "sweep.jsonl"
        out_file.write_text("keep\n")
        monkeypatch.setenv("HOMHOM_BUDGET", "3")
        code, _, err = run_cli(
            capsys, ["sweep", "--max-n", "4", "--classes", "c-hh", "--out", str(out_file)]
        )
        assert code == 3 and err.startswith("error: ")
        assert out_file.read_text() == "keep\n"

    def test_max_n_above_budget_needs_force(self, capsys):
        code, _, err = run_cli(capsys, ["sweep", "--max-n", "8"])
        assert code == 3
        assert err == (
            "error: sweeping all graphs on up to 8 vertices is outside the "
            "supported budget (7); pass --force to try anyway\n"
        )


class TestSymmetric:
    def test_six_cycle_and_long_path_are_not_symmetric(self, capsys):
        code, out, _ = run_cli(
            capsys, ["symmetric", "--family", "cycle", "6", "--family", "path", "4"]
        )
        assert code == 0  # recognizer and oracle agree, so no mismatch exit
        doc = json.loads(out)
        assert doc["oracle"] is False
        assert doc["recognizer"] is False
        assert doc["mismatch"] is False
        wit = doc["witness"]
        assert wit is not None
        # The blocked extension: an induced five-vertex path of the cycle laid
        # onto the whole path leaves the closing vertex with no valid image.
        assert wit["stuckVertex"] is not None or "no total" in wit["note"]

    def test_edge_and_six_cycle_are_symmetric(self, capsys):
        code, out, _ = run_cli(
            capsys, ["symmetric", "--family", "complete", "2", "--family", "cycle", "6"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"] is True
        assert doc["recognizer"] is True

    def test_matching_complement_pair(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["symmetric", "--family", "bcpm", "4", "--family", "pcm_example", "4"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["oracle"] is True
        assert doc["recognizer"] is True

    def test_recognizer_is_null_outside_homo_homo(self, capsys):
        code, out, _ = run_cli(
            capsys,
            [
                "symmetric",
                "--family", "complete", "3",
                "--family", "complete", "3",
                "--classes", "c-ii",
            ],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["recognizer"] is None
        assert doc["oracle"] is True

    def test_recognizer_is_null_for_non_members(self, capsys):
        # A five-cycle is not homo-homo, so the structural ladder does not
        # apply; the oracle still gives a verdict.
        code, out, _ = run_cli(
            capsys, ["symmetric", "--family", "cycle", "5", "--family", "cycle", "5"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["recognizer"] is None
        assert isinstance(doc["oracle"], bool)

    def test_needs_exactly_two_graphs(self, capsys):
        code, _, err = run_cli(capsys, ["symmetric", "--family", "cycle", "6"])
        assert code == 2
        assert "expected 2 graph" in err

    def test_single_class_only(self, capsys):
        code, _, err = run_cli(
            capsys,
            [
                "symmetric",
                "--family", "complete", "2",
                "--family", "complete", "2",
                "--classes", "c-ii,c-hh",
            ],
        )
        assert code == 2
        assert "one class" in err


class TestCore:
    def check_retraction(self, g: Graph, doc: dict) -> None:
        retr = {int(k): v for k, v in doc["retraction"].items()}
        assert sorted(retr) == list(range(g.n))
        core_vertices = sorted(set(retr.values()))
        for v in core_vertices:
            assert retr[v] == v
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if g.has_edge(u, v):
                    assert g.has_edge(retr[u], retr[v])

    def test_six_cycle_core_is_an_edge(self, capsys):
        code, out, _ = run_cli(capsys, ["core", "--family", "cycle", "6"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coreN"] == 2
        assert is_isomorphic(from_graph6(doc["coreGraph6"]), path_graph(1))
        self.check_retraction(cycle_graph(6), doc)

    def test_two_triangles_share_a_vertex_core_is_a_triangle(self, capsys):
        code, out, _ = run_cli(capsys, ["core", "--family", "clique_chain", "3", "2"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coreN"] == 3
        assert is_isomorphic(from_graph6(doc["coreGraph6"]), clique_chain(3, 1))
        self.check_retraction(clique_chain(3, 2), doc)

    def test_five_cycle_is_its_own_core(self, capsys):
        code, out, _ = run_cli(capsys, ["core", "--family", "cycle", "5"])
        assert code == 0
        doc = json.loads(out)
        assert doc["coreN"] == 5
        assert doc["coreGraph6"] == doc["graph6"]
        assert all(int(k) == v for k, v in doc["retraction"].items())

    def test_large_graph_needs_force(self, capsys, monkeypatch):
        monkeypatch.delenv("HOMHOM_BUDGET", raising=False)
        code, _, err = run_cli(capsys, ["core", "--family", "bcpm", "7"])
        assert code == 3
        assert "budget" in err

        code, out, _ = run_cli(capsys, ["core", "--family", "bcpm", "7", "--force"])
        assert code == 0
        assert json.loads(out)["coreN"] == 2

    def test_env_var_raises_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("HOMHOM_BUDGET", "14")
        code, out, _ = run_cli(capsys, ["core", "--family", "bcpm", "7"])
        assert code == 0
        assert json.loads(out)["coreN"] == 2


class TestGenerateEnumerate:
    def test_generate_prints_graph6(self, capsys):
        code, out, _ = run_cli(
            capsys, ["generate", "--family", "petersen", "--family", "bcpm", "4"]
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert from_graph6(lines[0]).n == 10
        assert is_isomorphic(from_graph6(lines[1]), bcpm_graph(4))

    def test_generated_graphs_round_trip(self, capsys):
        for tokens in (["petersen"], ["rook", "3"], ["multiclaw", "2", "1", "3", "3"]):
            capsys.readouterr()
            code, out, _ = run_cli(capsys, ["generate", "--family", *tokens])
            assert code == 0
            g = build_family(tokens)
            assert is_isomorphic(from_graph6(out.strip()), g)

    def test_enumerate_counts(self, capsys):
        code, out, _ = run_cli(capsys, ["enumerate", "--max-n", "3"])
        assert code == 0
        assert len(out.splitlines()) == 7
        code, out, _ = run_cli(capsys, ["enumerate", "--max-n", "3", "--connected"])
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_enumerate_is_sorted_and_duplicate_free(self, capsys):
        _, out, _ = run_cli(capsys, ["enumerate", "--max-n", "4"])
        lines = out.splitlines()
        assert len(set(lines)) == len(lines)
        ns = [from_graph6(line).n for line in lines]
        assert ns == sorted(ns)


REPO_ROOT = Path(__file__).resolve().parents[1]

# What the wrapper generated for ``[project.scripts] homhom = "homhom.cli:main"``
# does, so the declared entry point runs without an installation.
ENTRY_POINT_PROGRAM = (
    "import sys; sys.argv[0] = 'homhom'; from homhom.cli import main; sys.exit(main())"
)

CLASSIFY_K3 = ["classify", "--family", "complete", "3", "--classes", "c-ii"]


def checkout_env(**overrides: str) -> dict[str, str]:
    """The test's environment with this checkout's ``src`` first on
    PYTHONPATH, no HOMHOM_BUDGET, then ``overrides``."""
    env = dict(os.environ)
    env.pop("HOMHOM_BUDGET", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.update(overrides)
    return env


def run_module(args, cwd, **env_overrides: str) -> subprocess.CompletedProcess:
    """``python -m homhom ARGS`` from ``cwd``, run from this checkout."""
    return subprocess.run(
        [sys.executable, "-m", "homhom", *args],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env=checkout_env(**env_overrides),
    )


def assert_k3_iso_iso(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["classes"]["iso-iso"]["verdict"] == "yes"
    assert doc["classes"]["iso-iso"]["family"] == "complete(3)"


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        """The declared console script runs end to end from any directory."""
        env = checkout_env()

        def run(args):
            return subprocess.run(
                [sys.executable, "-c", ENTRY_POINT_PROGRAM, *args],
                capture_output=True,
                text=True,
                timeout=60,
                cwd=tmp_path,
                env=env,
            )

        assert_k3_iso_iso(run(CLASSIFY_K3))
        # The exit code of main() is the process exit code.
        bad = run(["classify", "--family", "moebius", "5"])
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: unknown family")

        # Python 3.10 has no tomllib; only this declaration check needs it.
        tomllib = pytest.importorskip("tomllib")
        with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts["homhom"] == "homhom.cli:main"

    def test_python_dash_m(self, tmp_path):
        """``python -m homhom`` runs the same CLI, exit code included."""
        assert_k3_iso_iso(run_module(CLASSIFY_K3, tmp_path))
        bad = run_module(["classify", "--family", "moebius", "5"], tmp_path)
        assert bad.returncode == 2
        assert bad.stderr.startswith("error: unknown family")

    @pytest.mark.skipif(
        shutil.which("homhom") is None, reason="homhom console script not installed"
    )
    def test_executable_on_path(self):
        proc = subprocess.run(
            ["homhom", *CLASSIFY_K3],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert_k3_iso_iso(proc)


class TestErrorContract:
    """Bad input exits 2 with one ``error:`` line on stderr, never a traceback."""

    @pytest.mark.parametrize(
        "args, env",
        [
            (["core", "--family", "cycle", "5"], {"HOMHOM_BUDGET": "abc"}),
            (["classify", "--family", "cycle", "5"], {"HOMHOM_BUDGET": "abc"}),
            (["sweep", "--max-n", "3"], {"HOMHOM_BUDGET": "2.5"}),
            (["sweep", "--max-n", "0"], {}),
            (["enumerate", "--max-n", "0"], {}),
            (["enumerate", "--max-n", "9"], {}),
            (["sweep", "--max-n", "9", "--force"], {}),
            (["sweep", "--max-n", "2", "--resume", "--out", "truncated.jsonl"], {}),
            (["sweep", "--max-n", "2", "--out", "missing/records.jsonl"], {}),
        ],
        ids=[
            "core-budget",
            "classify-budget",
            "sweep-budget",
            "sweep-n0",
            "enumerate-n0",
            "enumerate-n9",
            "sweep-n9-force",
            "resume-truncated",
            "out-missing-directory",
        ],
    )
    def test_one_line_error(self, tmp_path, args, env):
        # the resume row reads this file: one record, then a line cut short
        (tmp_path / "truncated.jsonl").write_text('{"graph6":"@"}\n{"graph6":"A')
        proc = run_module(args, tmp_path, **env)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args", [["enumerate", "--max-n", "5"], CLASSIFY_K3], ids=["enumerate", "classify"]
    )
    def test_closed_reader_exits_quietly(self, tmp_path, args, unbuffered):
        # like ``| head -1`` that has already exited: every write hits a
        # pipe with no reader, from print or from the final flush
        proc = run_into_closed_pipe(
            ["-m", "homhom", *args], tmp_path, PYTHONUNBUFFERED=unbuffered
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize(
        "action, code",
        [("return 1", 1), ("raise cli.BudgetExceededError('over budget')", 3)],
        ids=["mismatch", "budget"],
    )
    def test_closed_reader_keeps_failure_codes(self, tmp_path, action, code):
        # a command that prints, then reports a mismatch (1) or a budget
        # refusal (3): its buffered output only meets the closed pipe in the
        # final flush, which must not turn the failure into success
        script = (
            "import sys\n"
            "from homhom import cli\n"
            "def fake(args):\n"
            "    print('partial output')\n"
            f"    {action}\n"
            "cli.cmd_enumerate = fake\n"
            "sys.exit(cli.main(['enumerate']))\n"
        )
        proc = run_into_closed_pipe(["-c", script], tmp_path, PYTHONUNBUFFERED="")
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception" not in proc.stderr
        expected = ["error: over budget"] if code == 3 else []
        assert proc.stderr.splitlines() == expected


def run_into_closed_pipe(
    python_args, cwd, **env_overrides: str
) -> subprocess.CompletedProcess:
    """``python PYTHON_ARGS`` with stdout a pipe whose reader has already
    closed, as under ``| head -1`` once head has exited."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, *python_args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
            cwd=cwd,
            env=checkout_env(**env_overrides),
        )
    finally:
        os.close(write_end)

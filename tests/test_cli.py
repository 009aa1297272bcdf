"""End-to-end tests of the command-line interface.

Commands are exercised through ``main(argv)`` for speed.  One subprocess test
runs the console-script entry point declared in ``pyproject.toml`` the way the
installed wrapper does; a second runs the installed ``homhom`` executable when
one is on ``PATH``.  JSON outputs are checked for the documented invariants:
sorted keys, no floats, determinism up to the timing fields, and stable exit
codes.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from homhom import cli, families, graphs, recognizers
from homhom.cli import build_family, main, parse_classes
from homhom.families import (
    FAMILIES,
    bcpm_graph,
    clique_chain,
    cycle_graph,
    enumerate_graphs,
    path_graph,
)
from homhom.graphs import Graph, from_graph6, to_graph6
from homhom.oracle import CLASS_CODES
from helpers import count_kept_steps, is_isomorphic


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
        with pytest.raises(ValueError) as info:
            parse_classes("c-xx", CLASS_CODES)
        assert str(info.value) == (
            "unknown class 'c-xx' (known: iso-iso, mono-iso, homo-iso, iso-homo, "
            "mono-homo, homo-homo, c-hh, c-hi, c-ih, c-ii, c-mh, c-mi)"
        )


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

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError, match="^--family needs a family name$"):
            build_family([])

    @pytest.mark.parametrize(
        "tokens, line",
        [
            (
                ["moebius", "5"],
                "unknown family 'moebius' (known: bcpm, biclique_chain, clebsch, "
                "clique_chain, complete, cycle, empty, multiclaw, path, pcm_example, "
                "petersen, regular_multipartite, rook, two_squares)",
            ),
            (["cycle"], "family 'cycle' takes 1 parameters, got 0"),
            (["petersen", "3"], "family 'petersen' takes 0 parameters, got 1"),
            (
                ["biclique_chain", "1", "2", "3", "4"],
                "family 'biclique_chain' takes 3 parameters, got 4",
            ),
            (["multiclaw", "1", "2"], "family 'multiclaw' takes 3+ parameters, got 2"),
            (
                ["CYCLE", "six"],
                "family parameters must be integers: invalid literal for int() "
                "with base 10: 'six'",
            ),
            (["cycle", "2"], "cannot build family 'cycle': cycle needs n >= 3"),
            (["empty", "0"], "cannot build family 'empty': empty graph needs n >= 1"),
            (
                ["multiclaw", "1", "2", "1"],
                "cannot build family 'multiclaw': multiclaw needs clique_size >= 0, "
                "blob_size >= 1 and every blob count >= 2",
            ),
        ],
        ids=[
            "unknown",
            "too-few",
            "too-many",
            "too-many-3",
            "multiclaw-3-plus",
            "non-integer",
            "builder-cycle",
            "builder-empty",
            "builder-multiclaw",
        ],
    )
    def test_error_line(self, capsys, tokens, line):
        code, out, err = run_cli(capsys, ["generate", "--family", *tokens])
        assert (code, out, err) == (2, "", f"error: {line}\n")

    # one oversized parameter list per parameterised family; the vertex
    # counts are small enough that a builder that checked late would still
    # reach ``from_edges`` quickly, where the test stops it
    OVERSIZED = {
        "complete": ["65"],
        "empty": ["65"],
        "cycle": ["65"],
        "path": ["64"],
        "regular_multipartite": ["5", "13"],
        "rook": ["9"],
        "bcpm": ["33"],
        "pcm_example": ["62"],
        "multiclaw": ["63", "1", "2"],
        "clique_chain": ["3", "32"],
        "biclique_chain": ["4", "4", "10"],
    }

    def test_oversized_table_covers_every_parameterised_family(self):
        assert set(self.OVERSIZED) == {n for n, f in FAMILIES.items() if f.min_params}

    def test_oversized_chain_reads_no_block_edge(self):
        def block():
            raise AssertionError("an oversized chain read its block edges")
            yield

        with pytest.raises(ValueError, match="^glued graph would have 65 > 64 vertices$"):
            families._chain(block(), 1, 64)

    @pytest.mark.parametrize("name", sorted(OVERSIZED))
    def test_oversized_family_refused_before_any_edge(self, name, capsys, monkeypatch):
        def refuse(*_):
            raise AssertionError("an oversized family reached from_edges")

        monkeypatch.setattr(families, "from_edges", refuse)
        params = self.OVERSIZED[name]
        with pytest.raises(ValueError, match=r" would have \d+ > 64 vertices$"):
            FAMILIES[name].build(*map(int, params))
        with pytest.raises(cli.InputError, match=f"^cannot build family '{name}': "):
            build_family([name, *params])
        code, out, err = run_cli(capsys, ["generate", "--family", name, *params])
        assert (code, out) == (2, "") and err.startswith(f"error: cannot build family '{name}'")

    def test_readme_names_every_family(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        start = readme.index("Named families (`--family NAME PARAMS...`):")
        paragraph = readme[start : readme.index("\n\n", start)]
        names = {item.split()[0] for item in re.findall(r"`([^`]+)`", paragraph)[1:]}
        assert names == set(FAMILIES)


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

    def test_recognizers_run_once_per_graph(self, capsys, monkeypatch):
        # the family tags reuse the recognizer results of the verdicts: each
        # is computed once, for the one graph, however often it is read
        names = ("chh_case_and_families", "classify_cii")
        calls = count_kept_steps(monkeypatch)
        code, out, _ = run_cli(capsys, ["classify", "--family", "cycle", "6"])
        assert code == 0
        assert "matching-complement(3)" in json.loads(out)["familyTags"]
        assert sorted(name for name, _ in calls if name in names) == list(names)
        assert set(calls.values()) == {1}
        calls.clear()
        g = cycle_graph(6)
        record = cli.sweep_record(to_graph6(g), g, CLASS_CODES, False)
        assert "matching-complement(3)" in record["familyTags"]
        assert sorted(name for name, _ in calls if name in names) == list(names)
        assert set(calls.values()) == {1}

    @pytest.mark.parametrize(
        "family", [["rook", "6"], ["bcpm", "20"], ["cycle", "40"]], ids=["rook6", "bcpm20", "cycle40"]
    )
    def test_structural_steps_run_once_per_graph(self, capsys, monkeypatch, family):
        # a recognizer-only classify, family tags included, computes each of
        # these once for its graph, however many recognizers read it
        monkeypatch.setenv("HOMHOM_BUDGET", "0")
        calls = count_kept_steps(monkeypatch)
        code, _, _ = run_cli(capsys, ["classify", "--family", *family])
        assert code == 0
        assert calls and set(calls.values()) == {1}

    def test_sweep_records_run_structural_steps_once_per_graph(self, capsys, monkeypatch, rebind):
        # each graph object a record builds or reads computes each value it
        # keeps at most once, its symmetry data and complement included, and
        # builds each subgraph, each component of a disconnected graph among
        # them, once
        calls = count_kept_steps(monkeypatch)
        original = graphs.induced_subgraph
        built = []
        rebind(original, lambda g, mask: built.append((g, mask)) or original(g, mask))
        code, _, err = run_cli(capsys, ["sweep", "--max-n", "6", "--jobs", "1"])
        assert code == 0 and json.loads(err)["graphCount"] == 208
        assert len(calls) > 208 and set(calls.values()) == {1}
        assert sum(step == "_symmetry" for step, _ in calls) == 208
        # the 65 disconnected graphs split into components once each
        assert sum(step == "_component_graphs" for step, _ in calls) == 65
        assert built and len({(id(g), mask) for g, mask in built}) == len(built)

    def test_connected_homo_homo_sweep_generator_search_gate(self, capsys, monkeypatch):
        # the one-point engine builds no symmetry data for a graph it decides
        # by a triangle edge mapped onto an edge in no triangle, so the 996
        # records and the enumerator run 485 generator searches (1 061 when
        # every record built its graph's symmetry data)
        calls = count_kept_steps(monkeypatch)
        argv = ["sweep", "--max-n", "7", "--connected", "--classes", "c-hh", "--jobs", "1"]
        code, _, err = run_cli(capsys, argv)
        assert code == 0 and json.loads(err)["graphCount"] == 996
        assert sum(k for (step, _), k in calls.items() if step == "automorphism_generators") == 485

    def test_homo_homo_families_matched_once_per_graph(self, capsys, rebind):
        # the case tag and the families come from one match per component
        original = recognizers.chh_connected_families
        calls = []
        rebind(original, lambda g: calls.append(g) or original(g))
        code, _, _ = run_cli(capsys, ["classify", "--family", "cycle", "6"])
        assert code == 0 and len(calls) == 1
        g = cycle_graph(6)
        cli.sweep_record(to_graph6(g), g, CLASS_CODES, False)
        assert len(calls) == 2

    def test_two_graphs_is_an_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, ["classify", "--family", "cycle", "5", "--g6", "A_"]
        )
        assert code == 2
        assert "expected 1 graph" in err


@pytest.fixture(scope="module")
def sweep4(tmp_path_factory):
    """The records, one line each, and the summary of an uninterrupted
    ``sweep --max-n 4 --out FILE``."""
    out_file = tmp_path_factory.mktemp("sweep4") / "sweep.jsonl"
    with contextlib.redirect_stdout(io.StringIO()) as summary:
        assert main(["sweep", "--max-n", "4", "--out", str(out_file)]) == 0
    return out_file.read_text().splitlines(keepends=True), json.loads(summary.getvalue())


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

    def test_records_take_the_enumerated_graphs(self, capsys, rebind):
        # each record reads the graph the enumerator built, so no graph6
        # string is parsed back on the sweep path
        def refuse(*_args):
            raise AssertionError("the sweep parsed a graph6 string")

        rebind(from_graph6, refuse)
        code, out, err = run_cli(capsys, ["sweep", "--max-n", "6", "--jobs", "1"])
        assert code == 0
        assert len(out.splitlines()) == json.loads(err)["graphCount"] == 208

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
        # without --resume a left-over FILE.partial is emptied, not read
        (tmp_path / "sweep.jsonl.partial").write_text("not a record\n")
        code, stdout, _ = run_cli(capsys, ["sweep", "--max-n", "4", "--out", str(out_file)])
        assert code == 0
        assert stdout.strip().startswith("{")  # summary goes to stdout with --out
        uninterrupted = json.loads(stdout)
        assert uninterrupted["skippedCount"] == 0
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
        # the summary describes all of FILE, not only the records written now
        untimed = {**summary, "elapsedMs": 0, "skippedCount": 0}
        assert untimed == {**uninterrupted, "elapsedMs": 0}
        assert summary["graphCount"] == 18
        resumed = out_file.read_text().splitlines()
        assert [json.loads(l)["graph6"] for l in resumed] == [
            json.loads(l)["graph6"] for l in full
        ]
        assert not (tmp_path / "sweep.jsonl.partial").exists()

    def test_mismatch_read_back_fails_the_resumed_run(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.jsonl"
        argv = ["sweep", "--max-n", "3", "--classes", "c-hh", "--out", str(out_file)]
        assert run_cli(capsys, argv)[0] == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        records[1]["mismatch"] = True
        out_file.write_text("".join(json.dumps(r) + "\n" for r in records[:3]))
        code, out, _ = run_cli(capsys, argv + ["--resume"])
        summary = json.loads(out)
        assert (code, summary["mismatchCount"], summary["graphCount"]) == (1, 1, 7)
        assert summary["skippedCount"] == 3

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out-file"])
    def test_sweep_streams(self, capsys, rebind, tmp_path, to_file):
        # when graph k is swept, the records of graphs 1..k-1 are written
        # already: to stdout, or to FILE.partial with --out
        original = cli.sweep_record
        partial = tmp_path / "sweep.jsonl.partial"
        swept: list[str] = []
        written: list[str] = [""]

        def watched(g6, g, codes, force):
            if to_file:
                written.append(partial.read_text())
            else:
                written.append(written[-1] + capsys.readouterr().out)
            swept.append(g6)
            return original(g6, g, codes, force)

        rebind(original, watched)
        argv = ["sweep", "--max-n", "4"]
        if to_file:
            argv += ["--out", str(tmp_path / "sweep.jsonl")]
        assert run_cli(capsys, argv)[0] == 0
        assert len(swept) == 18
        for k, text in enumerate(written[1:]):
            assert [json.loads(line)["graph6"] for line in text.splitlines()] == swept[:k]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_interrupted_sweep_resumes_from_partial_file(
        self, capsys, monkeypatch, tmp_path, jobs
    ):
        _, expected, _ = run_cli(capsys, ["sweep", "--max-n", "4", "--classes", "c-hh"])
        out_file = tmp_path / "sweep.jsonl"
        partial = tmp_path / "sweep.jsonl.partial"
        out_file.write_text("keep\n")
        argv = ["sweep", "--max-n", "4", "--classes", "c-hh", "--jobs", jobs]
        argv += ["--out", str(out_file)]
        # a 3-vertex budget stops the sweep at the first 4-vertex graph
        monkeypatch.setenv("HOMHOM_BUDGET", "3")
        code, _, err = run_cli(capsys, argv)
        assert code == 3 and err.startswith("error: ")
        assert out_file.read_text() == "keep\n"
        kept = expected.splitlines()[:7]  # the records on 1..3 vertices
        assert normalize_timing(partial.read_text()).splitlines() == [
            normalize_timing(line) for line in kept
        ]
        # --resume continues FILE.partial, not FILE, and replaces FILE at the end
        monkeypatch.delenv("HOMHOM_BUDGET")
        code, out, _ = run_cli(capsys, argv + ["--resume"])
        assert code == 0
        summary = json.loads(out)
        assert (summary["skippedCount"], summary["graphCount"]) == (7, 18)
        assert normalize_timing(out_file.read_text()) == normalize_timing(expected)
        assert not partial.exists()

    @pytest.mark.parametrize("source", ["FILE", "FILE.partial"])
    @pytest.mark.parametrize(
        "jobs, k", [*(("1", k) for k in range(19)), ("2", 0), ("2", 9), ("2", 18)]
    )
    def test_resume_from_every_cut(self, capsys, tmp_path, sweep4, source, jobs, k):
        # the uninterrupted run's first k records, in FILE or in FILE.partial
        # (which is read instead of FILE when it exists), resume to the whole run
        lines, uninterrupted = sweep4
        out_file = tmp_path / "sweep.jsonl"
        partial = tmp_path / "sweep.jsonl.partial"
        if source == "FILE":
            out_file.write_text("".join(lines[:k]))
        else:
            out_file.write_text("stale\n")
            partial.write_text("".join(lines[:k]))
        argv = ["sweep", "--max-n", "4", "--jobs", jobs, "--out", str(out_file), "--resume"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert normalize_timing(out_file.read_text()) == normalize_timing("".join(lines))
        assert not partial.exists()
        summary = json.loads(out)
        assert summary["skippedCount"] == k
        assert {**summary, "elapsedMs": 0, "skippedCount": 0} == {**uninterrupted, "elapsedMs": 0}

    @pytest.mark.parametrize("source", ["FILE", "FILE.partial"])
    @pytest.mark.parametrize(
        "swept, resumed, edit, problem",
        [
            (
                ["--max-n", "4", "--connected"],
                ["--max-n", "4"],
                str,
                "line 2 is a record of 'A_', not 'A?' (another --connected?)",
            ),
            (
                ["--max-n", "3", "--classes", "c-hh"],
                ["--max-n", "3"],
                str,
                "line 1 is swept for homo-homo, "
                "not iso-iso,mono-iso,homo-iso,iso-homo,mono-homo,homo-homo",
            ),
            (
                ["--max-n", "4"],
                ["--max-n", "3"],
                str,
                "line 8 is past this sweep's last graph (a larger --max-n?)",
            ),
            (
                ["--max-n", "4"],
                ["--max-n", "4"],
                lambda text: text[:-1],
                "line 18 is cut short: it has no newline",
            ),
            (
                ["--max-n", "4"],
                ["--max-n", "4"],
                lambda text: text.replace("\n", "\n\n", 1),
                "line 2 is not a sweep record",
            ),
        ],
        ids=["another-graph", "another-class-list", "past-the-last-graph", "cut-short", "blank"],
    )
    def test_resume_refuses_what_is_not_the_head_of_the_sweep(
        self, capsys, tmp_path, source, swept, resumed, edit, problem
    ):
        # one error line, exit 2, and FILE and FILE.partial as they were (an
        # absent FILE.partial stays absent)
        out_file = tmp_path / "sweep.jsonl"
        partial = tmp_path / "sweep.jsonl.partial"
        assert run_cli(capsys, ["sweep", *swept, "--out", str(out_file)])[0] == 0
        text = edit(out_file.read_text())
        read = out_file if source == "FILE" else partial
        if source == "FILE.partial":
            out_file.write_text("keep\n")
        read.write_text(text)
        before = {path: path.read_bytes() for path in (out_file, partial) if path.exists()}
        argv = ["sweep", *resumed, "--out", str(out_file), "--resume"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"error: cannot resume from {str(read)!r}: {problem}\n"
        assert {path: path.read_bytes() for path in (out_file, partial) if path.exists()} == before

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
        code, _, err = run_cli(capsys, ["sweep", "--max-n", "9"])
        assert code == 3
        assert err == (
            "error: sweeping all graphs on up to 9 vertices is outside the "
            "supported budget (8); pass --force to try anyway\n"
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

    @pytest.mark.parametrize(
        "family, n", [("cycle", 11), ("complete", 11), ("complete", 12)]
    )
    def test_cores_above_ten_vertices(self, capsys, monkeypatch, family, n):
        # graphs that are their own cores, within the 12-vertex budget
        monkeypatch.delenv("HOMHOM_BUDGET", raising=False)
        code, out, _ = run_cli(capsys, ["core", "--family", family, str(n)])
        assert code == 0
        doc = json.loads(out)
        assert doc["coreN"] == n
        assert doc["coreGraph6"] == doc["graph6"]
        self.check_retraction(build_family([family, str(n)]), doc)

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

    def test_library_warning_is_one_stderr_line(self, capsys, rebind):
        # a stand-in that warns as enumerate_graphs(8) does, without its cost
        _, expected, _ = run_cli(capsys, ["enumerate", "--max-n", "3"])
        original = cli.enumerate_graphs

        def warning_stand_in(max_n, connected_only=True):
            warnings.warn("enumerating all graphs on 3 vertices is slow", stacklevel=2)
            return original(max_n, connected_only)

        rebind(original, warning_stand_in)
        code, out, err = run_cli(capsys, ["enumerate", "--max-n", "3"])
        assert code == 0
        assert out == expected
        assert err == "warning: enumerating all graphs on 3 vertices is slow\n"

    def test_enumerate_streams(self, capsys, rebind):
        # the first line is out before the enumerator is asked for a second
        # graph, let alone finishes
        original = cli.enumerate_graphs
        written = []

        def watched(max_n, connected_only=True):
            for g in original(max_n, connected_only):
                yield g
                written.append(capsys.readouterr().out)

        rebind(original, watched)
        code, out, _ = run_cli(capsys, ["enumerate", "--max-n", "4"])
        assert code == 0
        assert written[0] == "@\n"
        assert "".join(written) + out == "\n".join(
            to_graph6(g) for g in original(4, False)
        ) + "\n"

    def test_enumerate_is_sorted_and_duplicate_free(self, capsys):
        _, out, _ = run_cli(capsys, ["enumerate", "--max-n", "4"])
        lines = out.splitlines()
        assert len(set(lines)) == len(lines)
        ns = [from_graph6(line).n for line in lines]
        assert ns == sorted(ns)


# The help and error text as argparse prints it on Python 3.11 at 80 columns,
# the same whichever sub-parsers ``main`` builds.
USAGE = "usage: homhom [-h] {classify,sweep,symmetric,core,generate,enumerate} ...\n"
TOP_HELP = USAGE + """
Decide membership of finite graphs in the six connected-source extension-
homogeneity classes.

positional arguments:
  {classify,sweep,symmetric,core,generate,enumerate}
    classify            six-class report for one graph
    sweep               classify every small graph, recognizers vs oracle
    symmetric           two-sided extension verdict for a pair
    core                smallest retract with a witnessing retraction
    generate            print a named family member as graph6
    enumerate           all graphs up to --max-n, one graph6 per line

options:
  -h, --help            show this help message and exit
"""
CLASSIFY_HELP = """usage: homhom classify [-h] [--g6 STRING] [--edges FILE]
                       [--family NAME [NAME ...]] [--classes CLASSES]

options:
  -h, --help            show this help message and exit
  --g6 STRING           graph6 input (repeatable)
  --edges FILE          edge-list file, '-' for stdin (header 'n m', then 'u
                        v' lines)
  --family NAME [NAME ...]
                        named family with integer parameters, e.g. --family
                        bcpm 4
  --classes CLASSES     comma-separated class list (default: all six)
"""
SWEEP_USAGE = """usage: homhom sweep [-h] [--max-n MAX_N] [--classes CLASSES] [--connected]
                    [--jobs JOBS] [--out FILE] [--resume] [--force]
"""
SWEEP_HELP = SWEEP_USAGE + """
options:
  -h, --help         show this help message and exit
  --max-n MAX_N      largest vertex count (default 6)
  --classes CLASSES  comma-separated class list (default: all six)
  --connected        connected graphs only
  --jobs JOBS        worker processes (default 1)
  --out FILE         write JSON-lines records here
  --resume           skip graphs already in --out
  --force            record null instead of aborting on budget
"""


def invalid_choice(name: str) -> str:
    return USAGE + (
        f"homhom: error: argument command: invalid choice: {name!r} (choose from "
        "'classify', 'sweep', 'symmetric', 'core', 'generate', 'enumerate')\n"
    )


def unrecognized(text: str) -> str:
    return USAGE + f"homhom: error: unrecognized arguments: {text}\n"


def exit_code(argv) -> int:
    """``main(argv)``'s result, or the status argparse exits with."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


HELP_CASES = [
    ([], 2, "", USAGE + "homhom: error: the following arguments are required: command\n"),
    (["--help"], 0, TOP_HELP, ""),
    (["-h", "classify"], 0, TOP_HELP, ""),
    (["classify", "--help"], 0, CLASSIFY_HELP, ""),
    (["sweep", "-h"], 0, SWEEP_HELP, ""),
    (["bogus"], 2, "", invalid_choice("bogus")),
    (["clas"], 2, "", invalid_choice("clas")),
    (["classify", "--bogus"], 2, "", unrecognized("--bogus")),
    (["classify", "--g6", "A_", "--bogus"], 2, "", unrecognized("--bogus")),
    (["enumerate", "--max-n", "2", "extra"], 2, "", unrecognized("extra")),
    (["classify", "--", "x"], 2, "", unrecognized("-- x")),
    (["sweep", "--jobs", "2", "-x"], 2, "", unrecognized("-x")),
    (
        ["sweep", "--max-n", "x"],
        2,
        "",
        SWEEP_USAGE + "homhom sweep: error: argument --max-n: invalid int value: 'x'\n",
    ),
    (
        ["generate"],
        2,
        "",
        "usage: homhom generate [-h] --family NAME [NAME ...]\n"
        "homhom generate: error: the following arguments are required: --family\n",
    ),
    (["--", "classify", "--g6", "A_"], 2, "", invalid_choice("--")),
]


class TestHelpText:
    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="argparse words its help and errors differently on other Python versions",
    )
    @pytest.mark.parametrize(
        "argv, code, out, err", HELP_CASES, ids=[" ".join(case[0]) or "none" for case in HELP_CASES]
    )
    def test_text_is_pinned(self, capsys, monkeypatch, argv, code, out, err):
        monkeypatch.setenv("COLUMNS", "80")
        assert exit_code(argv) == code
        assert capsys.readouterr() == (out, err)

    def test_one_sub_parser_per_command(self, capsys, monkeypatch):
        # a command builds only its own parser; help builds the top-level
        # parser and all six sub-parsers, listed in the table's order
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert exit_code(["classify", "--g6", "A_"]) == 0
        assert len(built) == 1
        capsys.readouterr()
        built.clear()
        assert exit_code(["--help"]) == 0
        assert len(built) == 7
        help_lines = capsys.readouterr().out.splitlines()
        listed = [line.split()[0] for line in help_lines if line.startswith("    ")]
        assert listed == list(cli.COMMANDS)
        assert sorted(listed) == ["classify", "core", "enumerate", "generate", "sweep", "symmetric"]


REPO_ROOT = Path(__file__).resolve().parents[1]

# What the wrapper generated for ``[project.scripts] homhom = "homhom.cli:main"``
# does, so the declared entry point runs without an installation.
ENTRY_POINT_PROGRAM = (
    "import sys; sys.argv[0] = 'homhom'; from homhom.cli import main; sys.exit(main())"
)

CLASSIFY_K3 = ["classify", "--family", "complete", "3", "--classes", "c-ii"]

# the standard-library modules that ``src`` imports at module level
STDLIB_AT_IMPORT = (
    "__future__",
    "argparse",
    "contextlib",
    "dataclasses",
    "enum",
    "functools",
    "itertools",
    "json",
    "math",
    "os",
    "shutil",
    "sys",
    "time",
    "types",
    "typing",
    "warnings",
)


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

    def test_import_loads_only_the_named_stdlib_modules(self, tmp_path):
        """Every CLI call pays for what importing homhom loads, so that is
        the standard-library modules ``src`` imports at module level, what
        they load themselves, and nothing else.  ``multiprocessing`` is not
        among them: only ``sweep --jobs N`` with N > 1 needs a pool."""
        src = REPO_ROOT / "src" / "homhom"
        named = set()
        for path in src.glob("*.py"):
            for node in ast.parse(path.read_text(encoding="utf-8")).body:
                if isinstance(node, ast.Import):
                    named.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    named.add(node.module.split(".")[0])
        assert named == set(STDLIB_AT_IMPORT)

        def loaded(code: str) -> set[str]:
            proc = subprocess.run(
                [sys.executable, "-c", f"import sys; {code}; print(*sys.modules)"],
                capture_output=True,
                text=True,
                timeout=60,
                cwd=tmp_path,
                env=checkout_env(),
            )
            assert (proc.returncode, proc.stderr) == (0, "")
            return set(proc.stdout.split())

        # the allowed set comes from the same interpreter, so that it
        # follows the Python version
        allowed = loaded(f"import {', '.join(STDLIB_AT_IMPORT)}")
        extra = loaded("import homhom.cli") - allowed
        assert "multiprocessing" not in allowed
        assert sorted(m for m in extra if m.split(".")[0] != "homhom") == []

    def test_sources_parse_at_the_oldest_supported_python(self):
        """Every module parses under the grammar of the oldest Python that
        ``requires-python`` admits, so no newer syntax slips in unnoticed."""
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        oldest = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
        assert oldest is not None
        version = (int(oldest[1]), int(oldest[2]))
        for path in sorted((REPO_ROOT / "src" / "homhom").glob("*.py")):
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=version)

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
            (["enumerate", "--max-n", "10"], {}),
            (["sweep", "--max-n", "10", "--force"], {}),
            (["sweep", "--max-n", "10"], {}),
            (["sweep", "--max-n", "2", "--resume", "--out", "truncated.jsonl"], {}),
            (["sweep", "--max-n", "2", "--out", "missing/records.jsonl"], {}),
            (["sweep", "--max-n", "2", "--out", "."], {}),
        ],
        ids=[
            "core-budget",
            "classify-budget",
            "sweep-budget",
            "sweep-n0",
            "enumerate-n0",
            "enumerate-n10",
            "sweep-n10-force",
            "sweep-n10",
            "resume-truncated",
            "out-missing-directory",
            "out-directory",
        ],
    )
    def test_one_line_error(self, tmp_path, args, env):
        # the resume row reads this file: a line that is no whole sweep record
        # (it has no verdicts), then a line cut short
        (tmp_path / "truncated.jsonl").write_text('{"graph6":"@"}\n{"graph6":"A')
        proc = run_module(args, tmp_path, **env)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert proc.stdout == ""

    def test_sweep_past_the_soft_cap_needs_force(self, tmp_path):
        proc = run_module(["sweep", "--max-n", "9"], tmp_path)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: sweeping all graphs on up to 9 vertices is outside the "
            "supported budget (8); pass --force to try anyway\n"
        )
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "args",
        [["--jobs", "0"], ["--jobs", "-1"], ["--max-n", "10"], ["--resume"]],
        ids=["jobs-0", "jobs-negative", "n10", "resume-without-out"],
    )
    def test_sweep_input_errors_enumerate_nothing(self, capsys, rebind, args):
        def refuse(*_args, **_kwargs):
            raise AssertionError("enumerated before the input was checked")

        rebind(enumerate_graphs, refuse)
        code, out, err = run_cli(capsys, ["sweep", *args])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: --"), err

    def test_interrupt_exits_quietly(self, tmp_path):
        # Ctrl-C, which a terminal sends to the whole process group, once
        # the first record is written: one error line and exit 130, from the
        # main process and the workers, FILE never created, and FILE.partial
        # whole records only
        out_file = tmp_path / "sweep.jsonl"
        partial = tmp_path / "sweep.jsonl.partial"
        args = ["sweep", "--max-n", "8", "--connected", "--classes", "c-hh", "--jobs", "2"]
        with subprocess.Popen(
            [sys.executable, "-m", "homhom", *args, "--out", str(out_file)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=tmp_path,
            env=checkout_env(),
            start_new_session=True,
        ) as proc:
            try:
                deadline = time.monotonic() + 60
                while not (partial.exists() and "\n" in partial.read_text()):
                    assert proc.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                os.killpg(proc.pid, signal.SIGINT)
                out, err = proc.communicate(timeout=60)
            finally:
                if proc.poll() is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        assert (proc.returncode, out, err) == (130, "", "error: interrupted\n")
        assert not out_file.exists()
        lines = partial.read_text().splitlines()
        assert lines and all("graph6" in json.loads(line) for line in lines)

    @pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "args",
        [["enumerate", "--max-n", "5"], ["sweep", "--max-n", "6"], CLASSIFY_K3],
        ids=["enumerate", "sweep", "classify"],
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

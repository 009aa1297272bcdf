"""Output checks, run after the timed passes.

A pass is correct when every verdict it produced equals the reference
table, no sweep record or summary reports a recognizer/oracle mismatch, and
``homhom.oracle.validate_witness`` accepts every "no" witness.  Witnesses
are checked for validity, not compared byte for byte, so a search that
finds a different valid witness still passes.

Undecided or missing decisions are failures, not errors: they are counted
from the per-graph records (``oracle: null``, "oracle-only", exceptions and
non-zero exits), never from the sweep summary.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from stats import count_failed
from workloads import PassResult, Workload

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)

    def add(self, other: "Check") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += [e for e in other.errors if e not in self.errors]
        self.failures += [f for f in other.failures if f not in self.failures]


def load_reference(name: str) -> dict[str, Any]:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


class WitnessValidator:
    """``validate_witness`` on a JSON witness, remembered per distinct input."""

    def __init__(self) -> None:
        self._seen: dict[tuple[Any, ...], bool] = {}

    def __call__(self, graph: Any, code: str, wit: dict[str, Any] | None) -> bool:
        if wit is None:
            return False
        key = (graph.adj, code, json.dumps(wit, sort_keys=True))
        if key not in self._seen:
            self._seen[key] = self._validate(graph, code, wit)
        return self._seen[key]

    @staticmethod
    def _validate(graph: Any, code: str, wit: dict[str, Any]) -> bool:
        from homhom.oracle import Witness, query_for_code, validate_witness

        try:
            domain = 0
            for v in wit["domain"]:
                domain |= 1 << v
            mapping = {int(v): w for v, w in wit["mapping"].items()}
            witness = Witness(domain, mapping, wit.get("stuckVertex"), wit.get("note", ""))
            return validate_witness(graph, graph, query_for_code(code), witness)
        except (KeyError, TypeError, ValueError, AttributeError):
            return False


def _isomorphic(a: Any, b: Any) -> bool:
    """Backtracking isomorphism test for the small sweep graphs."""
    n = a.n
    deg_a = [row.bit_count() for row in a.adj]
    deg_b = [row.bit_count() for row in b.adj]
    if n != b.n or sorted(deg_a) != sorted(deg_b):
        return False
    image = [0] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_b[w] != deg_a[v]:
                continue
            if all((a.adj[u] >> v & 1) == (b.adj[image[u]] >> w & 1) for u in range(v)):
                image[v], used[w] = w, True
                if extend(v + 1):
                    return True
                used[w] = False
        return False

    return extend(0)


class SweepReference:
    """Reference verdicts of a sweep, ``{graph6: {class: [recognizer, oracle]}}``.

    Looked up by the record's graph6; a graph relabelled by a different
    canonical form is found by isomorphism instead.
    """

    def __init__(self, graphs: dict[str, dict[str, list[bool | None]]]) -> None:
        self.graphs = graphs
        self._by_shape: dict[tuple[Any, ...], list[tuple[str, Any]]] | None = None

    def key(self, g6: str, graph: Any) -> str | None:
        if g6 in self.graphs:
            return g6
        if self._by_shape is None:
            from homhom.graphs import from_graph6

            self._by_shape = {}
            for ref in self.graphs:
                h = from_graph6(ref)
                self._by_shape.setdefault(self._shape(h), []).append((ref, h))
        for ref, h in self._by_shape.get(self._shape(graph), []):
            if _isomorphic(graph, h):
                return ref
        return None

    @staticmethod
    def _shape(g: Any) -> tuple[Any, ...]:
        return (g.n, tuple(sorted(row.bit_count() for row in g.adj)))


def check_sweep(workload: Workload, result: PassResult, ref: SweepReference, validate: WitnessValidator) -> Check:
    from homhom.graphs import from_graph6

    codes = workload.classes
    check = Check()
    requested = [(g6, code) for g6 in ref.graphs for code in codes]
    check.attempted = len(requested)
    outcomes: dict[tuple[str, str], bool | None] = {}
    run = result.runs[0][1]
    if run.error is not None or run.status not in (0, 1):
        check.failures.append(f"sweep ended with {run.error or f'exit status {run.status}'}")
    try:
        records = [json.loads(line) for line in run.stdout.splitlines() if line.strip()]
    except ValueError as exc:
        check.errors.append(f"unreadable sweep record: {exc}")
        records = []
    for rec in records:
        g = from_graph6(rec["graph6"])
        key = ref.key(rec["graph6"], g)
        if key is None:
            check.errors.append(f"{rec['graph6']}: not in the reference population")
            continue
        if rec["mismatch"]:
            check.errors.append(f"{rec['graph6']}: the record reports a recognizer/oracle mismatch")
        witnesses = {w["class"]: w for w in rec["witnesses"]}
        for code in codes:
            cell = rec["verdicts"][code]
            want_rec, want_orc = ref.graphs[key][code]
            if cell["recognizer"] != want_rec:
                check.errors.append(f"{rec['graph6']} {code}: recognizer {cell['recognizer']}, reference {want_rec}")
            orc = cell["oracle"]
            outcomes[(key, code)] = orc
            if orc is None:
                check.failures.append(f"{rec['graph6']} {code}: oracle undecided")
            elif orc != want_orc:
                check.errors.append(f"{rec['graph6']} {code}: oracle {orc}, reference {want_orc}")
            elif orc is False and not validate(g, code, witnesses.get(code)):
                check.errors.append(f"{rec['graph6']} {code}: missing or invalid witness")
    if run.status in (0, 1):
        try:
            mismatches = json.loads(run.stderr)["mismatchCount"]
        except (ValueError, KeyError) as exc:
            check.errors.append(f"unreadable sweep summary: {exc}")
        else:
            if mismatches != 0:
                check.errors.append(f"sweep summary reports mismatchCount {mismatches}")
    check.failed = count_failed(requested, outcomes)
    return check


def check_classify(workload: Workload, result: PassResult, ref: dict[str, dict[str, str]], validate: WitnessValidator) -> Check:
    codes = workload.classes
    check = Check()
    requested = [(gi.label, code) for gi in workload.graphs for code in codes]
    check.attempted = len(requested)
    outcomes: dict[tuple[str, str], bool | None] = {}
    for gi, run in result.runs:
        if gi.expected is not None:
            want = {code: "yes" if v else "no" for code, v in gi.expected.items()}
        elif gi.name in ref:
            want = ref[gi.name]
        else:
            check.errors.append(f"{gi.name}: no reference verdicts")
            continue
        if run.error is not None or run.status != 0:
            check.failures.append(f"{gi.label}: {run.error or f'exit status {run.status}'}")
            continue
        try:
            got = json.loads(run.stdout)["classes"]
        except (ValueError, KeyError) as exc:
            check.errors.append(f"{gi.label}: unreadable classify output: {exc}")
            continue
        if sorted(got) != sorted(codes):
            check.errors.append(f"{gi.label}: classes {sorted(got)} instead of {sorted(codes)}")
            continue
        for code in codes:
            entry = got[code]
            verdict = entry["verdict"]
            if verdict not in ("yes", "no"):
                outcomes[(gi.label, code)] = None
                check.failures.append(f"{gi.label} {code}: {verdict}")
                continue
            outcomes[(gi.label, code)] = verdict == "yes"
            if verdict != want[code]:
                check.errors.append(f"{gi.label} {code}: {verdict}, reference {want[code]}")
            elif verdict == "no" and entry["source"] == "oracle" and not validate(gi.graph, code, entry["witness"]):
                check.errors.append(f"{gi.label} {code}: missing or invalid witness")
    check.failed = count_failed(requested, outcomes)
    return check


class Checker:
    """Checks the passes of one workload against its reference table."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        data = load_reference(workload.name)["graphs"]
        self.ref = SweepReference(data) if workload.is_sweep else data
        self.validate = WitnessValidator()

    def __call__(self, result: PassResult) -> Check:
        if self.workload.is_sweep:
            return check_sweep(self.workload, result, self.ref, self.validate)
        return check_classify(self.workload, result, self.ref, self.validate)

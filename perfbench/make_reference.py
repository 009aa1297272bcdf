"""Regenerate the reference verdict tables in ``reference/``.

    python3 perfbench/make_reference.py

Sweep tables hold both roads' verdicts for every graph of the population,
and are written only when the two roads agree and the oracle decided every
graph.  Classify tables hold the verdicts of ``homhom.recognizers.classify``
on the unrelabelled inputs; verdicts do not depend on the labelling, so one
table serves every seed.  Random inputs carry their verdicts by
construction and are not tabled.
"""

from __future__ import annotations

import json
import sys

from check import REFERENCE_DIR
from workloads import NAMED, SWEEPS, build, import_homhom, run_cli

import_homhom()


def sweep_table(name: str) -> dict[str, dict[str, list[bool | None]]]:
    from homhom import cli

    workload = build(name, 0)
    run = run_cli(cli.main, workload.argv)
    if run.status != 0:
        raise SystemExit(f"{name}: sweep exited {run.status} ({run.error or run.stderr.strip()})")
    table = {}
    for line in run.stdout.splitlines():
        rec = json.loads(line)
        cells = rec["verdicts"]
        if any(cells[code]["oracle"] is None for code in workload.classes):
            raise SystemExit(f"{name}: the oracle left {rec['graph6']} undecided")
        table[rec["graph6"]] = {code: [cells[code]["recognizer"], cells[code]["oracle"]] for code in workload.classes}
    return table


def classify_table(name: str) -> dict[str, dict[str, str]]:
    from homhom.recognizers import classify

    workload = build(name, 0)
    table = {}
    for gi in workload.graphs:
        if gi.expected is not None or gi.name in table:
            continue
        report = classify(gi.graph)
        verdicts = {code: report.verdict(code).value for code in workload.classes}
        if any(v not in ("yes", "no") for v in verdicts.values()):
            raise SystemExit(f"{name}: {gi.name} is undecided: {verdicts}")
        table[gi.name] = verdicts
    return table


def main() -> int:
    for name in list(SWEEPS) + list(NAMED):
        graphs = sweep_table(name) if name in SWEEPS else classify_table(name)
        path = REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "graphs": graphs}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"{path.name}: {len(graphs)} graphs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

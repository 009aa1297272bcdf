"""Command-line front end: parse graphs, classify, sweep, compare, emit JSON.

Output contract: every JSON document has a fixed key set per command, keys
are emitted sorted, and no floats appear anywhere (durations are integer
milliseconds).  Apart from the timing fields, identical invocations produce
byte-identical output.

Exit codes: 0 success, 1 a recognizer/oracle mismatch was found, 2 input
error, 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing
import os
import sys
import time
from typing import Any, Callable, Iterable, Sequence

from .families import (
    ENUMERATION_HARD_CAP,
    ENUMERATION_SOFT_CAP,
    FamilyDescriptor,
    bcpm_graph,
    biclique_chain,
    clebsch_graph,
    clique_chain,
    complete_graph,
    cycle_graph,
    empty_graph,
    enumerate_graphs,
    multiclaw_graph,
    path_graph,
    pcm_example_graph,
    petersen_graph,
    regular_multipartite_graph,
    rook_graph,
    two_squares_graph,
)
from .graphs import (
    Graph,
    canonical_form,
    from_edge_list_text,
    from_graph6,
    induced_subgraph,
    to_graph6,
)
from .morphisms import MorphKind, complete_map, core_mask
from .oracle import (
    BUDGET_ENV_VAR,
    CLASS_CODES,
    BudgetExceededError,
    Witness,
    env_budget,
    extension_symmetric,
    is_class_member,
    query_for_code,
)
from .recognizers import (
    ChhFamily,
    chh_case_and_families,
    chh_symmetric,
    classify,
    classify_cii,
    multiclaw_parameters,
    recognizer_verdict,
)

# Short aliases accepted anywhere a class list is read: the first letter pair
# names the source-morphism kind, the second the target kind.
CLASS_ALIASES = {
    "c-ii": "iso-iso",
    "c-mi": "mono-iso",
    "c-hi": "homo-iso",
    "c-ih": "iso-homo",
    "c-mh": "mono-homo",
    "c-hh": "homo-homo",
}

DEFAULT_CORE_BUDGET = 12

FAMILY_BUILDERS: dict[str, tuple[Callable[..., Graph], int, int | None]] = {
    "complete": (complete_graph, 1, 1),
    "empty": (empty_graph, 1, 1),
    "cycle": (cycle_graph, 1, 1),
    "path": (path_graph, 1, 1),
    "regular_multipartite": (regular_multipartite_graph, 2, 2),
    "rook": (rook_graph, 1, 1),
    "bcpm": (bcpm_graph, 1, 1),
    "petersen": (petersen_graph, 0, 0),
    "clebsch": (clebsch_graph, 0, 0),
    "two_squares": (two_squares_graph, 0, 0),
    "pcm_example": (pcm_example_graph, 1, 1),
    "multiclaw": (lambda c, b, *counts: multiclaw_graph(c, b, counts), 3, None),
    "clique_chain": (clique_chain, 2, 2),
    "biclique_chain": (biclique_chain, 3, 3),
}


class InputError(ValueError):
    """A graph source or flag value could not be understood."""


# ---------------------------------------------------------------------------
# graph input


def build_family(tokens: Sequence[str]) -> Graph:
    if not tokens:
        raise InputError("--family needs a family name")
    name = tokens[0].lower()
    if name not in FAMILY_BUILDERS:
        known = ", ".join(sorted(FAMILY_BUILDERS))
        raise InputError(f"unknown family {name!r} (known: {known})")
    func, lo, hi = FAMILY_BUILDERS[name]
    try:
        params = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InputError(f"family parameters must be integers: {exc}") from exc
    if len(params) < lo or (hi is not None and len(params) > hi):
        span = str(lo) if hi == lo else (f"{lo}+" if hi is None else f"{lo}..{hi}")
        raise InputError(f"family {name!r} takes {span} parameters, got {len(params)}")
    try:
        return func(*params)
    except ValueError as exc:
        raise InputError(f"cannot build family {name!r}: {exc}") from exc


def parse_graph_text(text: str) -> Graph:
    """Parse stdin-style input: an edge list ("n m" header) or a graph6 line."""
    try:
        return from_edge_list_text(text)
    except ValueError as edge_err:
        line = next((ln.strip() for ln in text.splitlines() if ln.strip()), "")
        try:
            return from_graph6(line)
        except ValueError:
            raise InputError(
                f"input is neither an edge list ({edge_err}) nor a graph6 line"
            ) from edge_err


def collect_graphs(args: argparse.Namespace, want: int) -> list[Graph]:
    """The graphs named by --g6/--edges/--family flags, else one from stdin."""
    graphs: list[Graph] = []
    for g6 in args.g6 or []:
        try:
            graphs.append(from_graph6(g6))
        except ValueError as exc:
            raise InputError(f"bad graph6 string {g6!r}: {exc}") from exc
    for path in args.edges or []:
        try:
            if path == "-":
                text = sys.stdin.read()
            else:
                with open(path, encoding="utf-8") as fh:
                    text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path!r}: {exc}") from exc
        try:
            graphs.append(from_edge_list_text(text))
        except ValueError as exc:
            raise InputError(f"bad edge list in {path!r}: {exc}") from exc
    for tokens in args.family or []:
        graphs.append(build_family(tokens))
    if not graphs and want == 1:
        graphs.append(parse_graph_text(sys.stdin.read()))
    if len(graphs) != want:
        raise InputError(f"expected {want} graph(s), got {len(graphs)}")
    return graphs


def parse_classes(text: str | None, default: Sequence[str]) -> list[str]:
    if text is None:
        return list(default)
    codes = []
    for raw in text.split(","):
        token = raw.strip().lower()
        if not token:
            continue
        code = CLASS_ALIASES.get(token, token)
        if code not in CLASS_CODES:
            known = ", ".join(list(CLASS_CODES) + sorted(CLASS_ALIASES))
            raise InputError(f"unknown class {raw!r} (known: {known})")
        if code not in codes:
            codes.append(code)
    if not codes:
        raise InputError("empty class list")
    return codes


# ---------------------------------------------------------------------------
# JSON shaping


def witness_json(wit: Witness) -> dict[str, Any]:
    return {
        "domain": sorted(wit.mapping),
        "mapping": {str(v): wit.mapping[v] for v in sorted(wit.mapping)},
        "stuckVertex": wit.stuck_vertex,
        "note": wit.note,
    }


def dump_line(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def print_object(obj: Any) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def family_tags(
    g: Graph,
    cii: FamilyDescriptor | None,
    hh_case: str | None,
    hh_families: Sequence[ChhFamily],
) -> list[str]:
    """Sorted family tags of ``g``, from the recognizer results the caller
    already has: its iso-iso family, its homo-homo case and, for a
    connected member, its homo-homo families."""
    tags: list[str] = []
    if cii is not None:
        tags.append(str(cii))
    claw = multiclaw_parameters(g)
    if claw is not None:
        clique_size, blob_size, counts = claw
        tags.append(str(FamilyDescriptor("MULTICLAW", (clique_size, blob_size) + counts)))
    if hh_case is not None:
        tags.append(f"homo-homo-case-{hh_case}")
        tags.extend(str(f) for f in hh_families)
    return sorted(set(tags))


# ---------------------------------------------------------------------------
# classify


def cmd_classify(args: argparse.Namespace) -> int:
    g = collect_graphs(args, 1)[0]
    codes = parse_classes(args.classes, CLASS_CODES)
    report = classify(g)
    classes_json: dict[str, Any] = {}
    for code in codes:
        entry = report.classes[code]
        classes_json[code] = {
            "verdict": entry.verdict.value,
            "source": entry.source,
            "family": str(entry.family) if entry.family is not None else None,
            "witness": witness_json(entry.witness) if entry.witness is not None else None,
            "note": entry.note,
        }
    print_object(
        {
            "graph6": to_graph6(g),
            "n": g.n,
            "classes": classes_json,
            "familyTags": family_tags(
                g, report.classes["iso-iso"].family, report.hh_case, report.hh_families
            ),
        }
    )
    return 0


# ---------------------------------------------------------------------------
# sweep


def sweep_record(g6: str, codes: Sequence[str], force: bool) -> dict[str, Any]:
    g = from_graph6(g6)
    started = time.perf_counter_ns()
    # the family tags need the iso-iso family and the homo-homo case and
    # families, so those two recognizer verdicts are read off them, not
    # computed again
    cii, (case, hh_families) = classify_cii(g), chh_case_and_families(g)
    structural = {"iso-iso": cii is not None, "homo-homo": case is not None}
    verdicts: dict[str, Any] = {}
    witnesses: list[dict[str, Any]] = []
    mismatch = False
    for code in codes:
        rec = structural[code] if code in structural else recognizer_verdict(g, code)
        try:
            result = is_class_member(g, query_for_code(code))
            orc: bool | None = result.holds
            if result.witness is not None:
                witnesses.append({"class": code, **witness_json(result.witness)})
        except BudgetExceededError:
            if not force:
                raise
            orc = None
        if rec is not None and orc is not None and rec != orc:
            mismatch = True
        verdicts[code] = {"recognizer": rec, "oracle": orc}
    elapsed_ms = (time.perf_counter_ns() - started) // 1_000_000
    return {
        "graph6": g6,
        "n": g.n,
        "verdicts": verdicts,
        "familyTags": family_tags(g, cii, case, hh_families),
        "witnesses": witnesses,
        "mismatch": mismatch,
        "elapsedMs": elapsed_ms,
    }


def _sweep_worker(payload: tuple[str, tuple[str, ...], bool]) -> dict[str, Any]:
    g6, codes, force = payload
    return sweep_record(g6, codes, force)


def sorted_graphs(args: argparse.Namespace) -> list[Graph]:
    """Every graph on 1..--max-n vertices (connected ones with --connected),
    one per isomorphism class, ordered by vertex count then canonical form."""
    if not 1 <= args.max_n <= ENUMERATION_HARD_CAP:
        raise InputError(
            f"--max-n must be in 1..{ENUMERATION_HARD_CAP}, got {args.max_n}"
        )
    return sorted(
        enumerate_graphs(args.max_n, connected_only=args.connected),
        key=lambda g: (g.n, canonical_form(g)),
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    codes = parse_classes(args.classes, CLASS_CODES)
    if args.max_n > ENUMERATION_SOFT_CAP and not args.force:
        raise BudgetExceededError(
            f"sweeping all graphs on up to {args.max_n} vertices is outside the "
            f"supported budget ({ENUMERATION_SOFT_CAP}); pass --force to try anyway"
        )
    started = time.perf_counter_ns()
    graphs = sorted_graphs(args)
    position = {to_graph6(g): i for i, g in enumerate(graphs)}
    done: set[str] = set()
    if args.resume and args.out and os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    done.add(json.loads(line)["graph6"])
                except (ValueError, KeyError, TypeError) as exc:
                    raise InputError(
                        f"cannot resume from {args.out!r}: line {lineno} is not "
                        f"a sweep record ({type(exc).__name__}: {exc})"
                    ) from None
    payloads = [
        (g6, tuple(codes), args.force) for g6 in position if g6 not in done
    ]
    # --out is opened before the sweep, so that a path that cannot be
    # written is refused before any work is done; it is opened for appending
    # and emptied only once the records are ready, so a sweep that stops
    # early leaves the file as it was
    sink: Any = contextlib.nullcontext(sys.stdout)
    if args.out:
        try:
            sink = open(args.out, "a", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {args.out!r}: {exc}") from None
    with sink as fh:
        if args.jobs > 1:
            with multiprocessing.Pool(args.jobs) as pool:
                records = list(pool.imap(_sweep_worker, payloads, chunksize=8))
        else:
            records = [_sweep_worker(p) for p in payloads]
        records.sort(key=lambda r: position[r["graph6"]])
        if args.out and not done:
            fh.truncate(0)
        for rec in records:
            fh.write(dump_line(rec) + "\n")

    # yes/no count oracle verdicts only; a graph on which the oracle gave up
    # counts in oracleUnknown, and also in unknown when no recognizer exists
    per_class: dict[str, dict[str, int]] = {
        code: {"yes": 0, "no": 0, "oracleUnknown": 0, "unknown": 0} for code in codes
    }
    mismatches = 0
    for rec in records:
        if rec["mismatch"]:
            mismatches += 1
        for code in codes:
            cell = rec["verdicts"][code]
            counts = per_class[code]
            if cell["oracle"] is not None:
                counts["yes" if cell["oracle"] else "no"] += 1
            else:
                counts["oracleUnknown"] += 1
                if cell["recognizer"] is None:
                    counts["unknown"] += 1
    summary = {
        "graphCount": len(records),
        "skippedCount": len(done),
        "mismatchCount": mismatches,
        "perClass": per_class,
        "elapsedMs": (time.perf_counter_ns() - started) // 1_000_000,
    }
    out = sys.stdout if args.out else sys.stderr
    print(json.dumps(summary, sort_keys=True, indent=2), file=out)
    return 1 if mismatches else 0


# ---------------------------------------------------------------------------
# symmetric


def cmd_symmetric(args: argparse.Namespace) -> int:
    g1, g2 = collect_graphs(args, 2)
    codes = parse_classes(args.classes, ["homo-homo"])
    if len(codes) != 1:
        raise InputError("symmetric takes exactly one class")
    code = codes[0]
    recognizer: bool | None = None
    if code == "homo-homo":
        try:
            recognizer = chh_symmetric(g1, g2)
        except ValueError:
            recognizer = None  # at least one side is not a connected member
    result = extension_symmetric(g1, g2, query_for_code(code))
    mismatch = recognizer is not None and recognizer != result.holds
    print_object(
        {
            "class": code,
            "graph6": [to_graph6(g1), to_graph6(g2)],
            "recognizer": recognizer,
            "oracle": result.holds,
            "mismatch": mismatch,
            "witness": witness_json(result.witness) if result.witness is not None else None,
        }
    )
    return 1 if mismatch else 0


# ---------------------------------------------------------------------------
# core


def cmd_core(args: argparse.Namespace) -> int:
    g = collect_graphs(args, 1)[0]
    budget = env_budget()
    if budget is None:
        budget = DEFAULT_CORE_BUDGET
    if g.n > budget and not args.force:
        raise BudgetExceededError(
            f"{g.n} vertices exceeds the core-search budget of {budget} "
            f"(set {BUDGET_ENV_VAR} or pass --force)"
        )
    mask = core_mask(g)
    fixed = {v: v for v in range(g.n) if mask >> v & 1}
    retraction = complete_map(g, g, fixed, MorphKind.HOMO, allowed_mask=mask)
    assert retraction is not None, "a graph always retracts onto its core"
    core_graph = induced_subgraph(g, mask)
    print_object(
        {
            "graph6": to_graph6(g),
            "coreGraph6": to_graph6(core_graph),
            "coreN": core_graph.n,
            "retraction": {str(v): retraction[v] for v in sorted(retraction)},
        }
    )
    return 0


# ---------------------------------------------------------------------------
# generate / enumerate


def cmd_generate(args: argparse.Namespace) -> int:
    if not args.family:
        raise InputError("generate needs --family NAME [PARAMS...]")
    for tokens in args.family:
        print(to_graph6(build_family(tokens)))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    for g in sorted_graphs(args):
        print(to_graph6(g))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


def add_graph_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--g6", action="append", metavar="STRING", help="graph6 input (repeatable)")
    p.add_argument(
        "--edges",
        action="append",
        metavar="FILE",
        help="edge-list file, '-' for stdin (header 'n m', then 'u v' lines)",
    )
    p.add_argument(
        "--family",
        action="append",
        nargs="+",
        metavar="NAME",
        help="named family with integer parameters, e.g. --family bcpm 4",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homhom",
        description="Decide membership of finite graphs in the six "
        "connected-source extension-homogeneity classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="six-class report for one graph")
    add_graph_flags(p)
    p.add_argument("--classes", help="comma-separated class list (default: all six)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="classify every small graph, recognizers vs oracle")
    p.add_argument("--max-n", type=int, default=6, help="largest vertex count (default 6)")
    p.add_argument("--classes", help="comma-separated class list (default: all six)")
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    p.add_argument("--out", metavar="FILE", help="write JSON-lines records here")
    p.add_argument("--resume", action="store_true", help="skip graphs already in --out")
    p.add_argument("--force", action="store_true", help="record null instead of aborting on budget")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("symmetric", help="two-sided extension verdict for a pair")
    add_graph_flags(p)
    p.add_argument("--classes", help="single class (default homo-homo)")
    p.set_defaults(func=cmd_symmetric)

    p = sub.add_parser("core", help="smallest retract with a witnessing retraction")
    add_graph_flags(p)
    p.add_argument("--force", action="store_true", help="ignore the core-search budget")
    p.set_defaults(func=cmd_core)

    p = sub.add_parser("generate", help="print a named family member as graph6")
    p.add_argument(
        "--family",
        action="append",
        nargs="+",
        metavar="NAME",
        required=True,
        help="family name and integer parameters (repeatable)",
    )
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("enumerate", help="all graphs up to --max-n, one graph6 per line")
    p.add_argument("--max-n", type=int, default=6, help="largest vertex count (default 6)")
    p.add_argument("--connected", action="store_true", help="connected graphs only")
    p.set_defaults(func=cmd_enumerate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        env_budget()  # a malformed HOMHOM_BUDGET is refused before any work
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
    except BrokenPipeError:
        code = 0  # the reader stopped early (``| head``), which is not an error
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    try:
        sys.stdout.flush()  # a closed reader shows up here, not at exit
    except BrokenPipeError:
        # The command's exit code stands: a closed reader does not hide a
        # mismatch or a budget refusal.  Later flushes of stdout go to the
        # null device, so the interpreter's own flush at exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())

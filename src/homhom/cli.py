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
import os
import shutil
import sys
import time
import warnings
from typing import Any, Callable, Iterator, Sequence

from .families import (
    ENUMERATION_HARD_CAP,
    ENUMERATION_SOFT_CAP,
    FAMILIES,
    FamilyDescriptor,
    enumerate_graphs,
)
from .graphs import (
    Graph,
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

# Short aliases accepted anywhere a class list is read: ``c-`` and the first
# letter of each half, the source-morphism kind then the target kind.
CLASS_ALIASES = {
    "c-" + "".join(half[0] for half in code.split("-")): code for code in CLASS_CODES
}

DEFAULT_CORE_BUDGET = 12


class InputError(ValueError):
    """A graph source or flag value could not be understood."""


# ---------------------------------------------------------------------------
# graph input


def build_family(tokens: Sequence[str]) -> Graph:
    if not tokens:
        raise InputError("--family needs a family name")
    name = tokens[0].lower()
    family = FAMILIES.get(name)
    if family is None:
        known = ", ".join(sorted(FAMILIES))
        raise InputError(f"unknown family {name!r} (known: {known})")
    try:
        params = [int(t) for t in tokens[1:]]
    except ValueError as exc:
        raise InputError(f"family parameters must be integers: {exc}") from exc
    try:
        family.check_param_count(len(params), f"family {name!r}")
    except ValueError as exc:
        raise InputError(str(exc)) from None
    try:
        return family.build(*params)
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


def _sweep_worker(payload: tuple[str, tuple[str, ...], bool]) -> Any:
    """``sweep_record``, or the budget refusal in the record's place, so that
    a pool still returns the records before it in its chunk."""
    try:
        return sweep_record(*payload)
    except BudgetExceededError as exc:
        return exc


def sorted_graphs(args: argparse.Namespace) -> Iterator[Graph]:
    """``enumerate_graphs`` for --max-n and --connected, with --max-n checked
    at the call, before any graph is made."""
    if not 1 <= args.max_n <= ENUMERATION_HARD_CAP:
        raise InputError(
            f"--max-n must be in 1..{ENUMERATION_HARD_CAP}, got {args.max_n}"
        )
    return enumerate_graphs(args.max_n, connected_only=args.connected)


def read_back(path: str, graph6s: Iterator[str], codes: Sequence[str], tally: Callable) -> int:
    """The count of records in ``path``, each checked to be the whole record of
    the next of ``graph6s``, swept for ``codes``, and then passed to ``tally``."""
    k, problem = 0, ""
    try:
        with open(path, "rb") as fh:  # bytes: a line that is not UTF-8 is refused by number
            for k, line in enumerate(fh, 1):
                g6 = next(graph6s, None)
                if g6 is None:
                    problem = "is past this sweep's last graph (a larger --max-n?)"
                elif not line.endswith(b"\n"):
                    problem = "is cut short: it has no newline"
                elif (rec := json.loads(line))["graph6"] != g6:
                    problem = f"is a record of {rec['graph6']!r}, not {g6!r} (another --connected?)"
                elif sorted(rec["verdicts"]) != sorted(codes):
                    problem = f"is swept for {','.join(rec['verdicts'])}, not {','.join(codes)}"
                if problem:
                    break
                tally(rec)
    except OSError as exc:
        raise InputError(f"cannot resume from {path!r}: {exc}") from None
    except (ValueError, KeyError, TypeError):
        problem = "is not a sweep record"
    if problem:
        raise InputError(f"cannot resume from {path!r}: line {k} {problem}")
    return k


def cmd_sweep(args: argparse.Namespace) -> int:
    codes = parse_classes(args.classes, CLASS_CODES)
    if args.jobs < 1:
        raise InputError(f"--jobs must be at least 1, got {args.jobs}")
    if args.resume and not args.out:
        raise InputError("--resume needs --out")
    started = time.perf_counter_ns()
    graph6s = map(to_graph6, sorted_graphs(args))  # an --max-n out of range exits 2 here
    if args.max_n > ENUMERATION_SOFT_CAP and not args.force:
        raise BudgetExceededError(
            f"sweeping all graphs on up to {args.max_n} vertices is outside the "
            f"supported budget ({ENUMERATION_SOFT_CAP}); pass --force to try anyway"
        )
    # yes/no count oracle verdicts only; a graph on which the oracle gave up
    # counts in oracleUnknown, and also in unknown when no recognizer exists
    per_class: dict[str, dict[str, int]] = {
        code: {"yes": 0, "no": 0, "oracleUnknown": 0, "unknown": 0} for code in codes
    }
    graph_count = mismatches = skipped = 0

    def tally(rec: dict[str, Any]) -> None:
        nonlocal graph_count, mismatches
        graph_count += 1
        mismatches += rec["mismatch"]
        for code in codes:
            cell, counts = rec["verdicts"][code], per_class[code]
            if cell["oracle"] is not None:
                counts["yes" if cell["oracle"] else "no"] += 1
            else:
                counts["oracleUnknown"] += 1
                counts["unknown"] += cell["recognizer"] is None

    with contextlib.ExitStack() as stack:
        fh = sys.stdout
        if args.out:
            # Records stream into FILE.partial, a line per write, which replaces
            # FILE once all are written; --resume continues FILE.partial, else a
            # copy of FILE that read_back accepts.  Unwritable paths fail first.
            partial = args.out + ".partial"
            source = partial if args.resume and os.path.exists(partial) else args.out
            if args.resume and os.path.exists(source):
                skipped = read_back(source, graph6s, codes, tally)
            if os.path.isdir(args.out):
                raise InputError(f"cannot write {args.out!r}: it is a directory")
            try:
                if skipped and source == args.out:
                    shutil.copyfile(args.out, partial)
                fh = stack.enter_context(
                    open(partial, "a" if args.resume else "w", encoding="utf-8", buffering=1)
                )
            except OSError as exc:
                raise InputError(f"cannot write {args.out!r}: {exc}") from None
        payloads = ((g6, tuple(codes), args.force) for g6 in graph6s)
        if args.jobs > 1:
            import multiprocessing  # only a pool needs it; it slows start-up
            import signal

            # workers leave Ctrl-C to the main process, which ends the pool
            ignore = (signal.SIGINT, signal.SIG_IGN)
            pool = stack.enter_context(multiprocessing.Pool(args.jobs, signal.signal, ignore))
            records = pool.imap(_sweep_worker, payloads, chunksize=8)
        else:
            records = map(_sweep_worker, payloads)
        for rec in records:
            if isinstance(rec, BudgetExceededError):
                raise rec
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n")
            tally(rec)
    if args.out:
        os.replace(partial, args.out)
    summary = {
        "graphCount": graph_count,
        "skippedCount": skipped,
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
    budget = env_budget(DEFAULT_CORE_BUDGET)
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
    for tokens in args.family:
        print(to_graph6(build_family(tokens)))
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    for g in sorted_graphs(args):
        print(to_graph6(g))
    return 0


# ---------------------------------------------------------------------------
# argument plumbing


# Each command's help line and flags in help order, as (flag, ``add_argument``
# keywords) pairs.  ``main`` runs ``cmd_<name>``.
FAMILY_KEYWORDS = {"action": "append", "nargs": "+", "metavar": "NAME"}
GRAPH_FLAGS: tuple[tuple[str, dict[str, Any]], ...] = (
    ("--g6", {"action": "append", "metavar": "STRING", "help": "graph6 input (repeatable)"}),
    ("--edges", {"action": "append", "metavar": "FILE",
                 "help": "edge-list file, '-' for stdin (header 'n m', then 'u v' lines)"}),
    ("--family", {**FAMILY_KEYWORDS,
                  "help": "named family with integer parameters, e.g. --family bcpm 4"}),
)
CLASSES_FLAG = ("--classes", {"help": "comma-separated class list (default: all six)"})
MAX_N_FLAG = ("--max-n", {"type": int, "default": 6, "help": "largest vertex count (default 6)"})
CONNECTED_FLAG = ("--connected", {"action": "store_true", "help": "connected graphs only"})

COMMANDS: dict[str, tuple[str, tuple[tuple[str, dict[str, Any]], ...]]] = {
    "classify": ("six-class report for one graph", (*GRAPH_FLAGS, CLASSES_FLAG)),
    "sweep": ("classify every small graph, recognizers vs oracle", (
        MAX_N_FLAG,
        CLASSES_FLAG,
        CONNECTED_FLAG,
        ("--jobs", {"type": int, "default": 1, "help": "worker processes (default 1)"}),
        ("--out", {"metavar": "FILE", "help": "write JSON-lines records here"}),
        ("--resume", {"action": "store_true", "help": "skip graphs already in --out"}),
        ("--force", {"action": "store_true", "help": "record null instead of aborting on budget"}),
    )),
    "symmetric": ("two-sided extension verdict for a pair", (
        *GRAPH_FLAGS,
        ("--classes", {"help": "single class (default homo-homo)"}),
    )),
    "core": ("smallest retract with a witnessing retraction", (
        *GRAPH_FLAGS,
        ("--force", {"action": "store_true", "help": "ignore the core-search budget"}),
    )),
    "generate": ("print a named family member as graph6", (
        ("--family", {**FAMILY_KEYWORDS, "required": True,
                      "help": "family name and integer parameters (repeatable)"}),
    )),
    "enumerate": ("all graphs up to --max-n, one graph6 per line", (MAX_N_FLAG, CONNECTED_FLAG)),
}


def with_flags(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser``, a parser of its own or a sub-parser, given command
    ``name``'s flags from ``COMMANDS``."""
    for flag, keywords in COMMANDS[name][1]:
        parser.add_argument(flag, **keywords)
    return parser


def _print_warning(message: Warning | str, *_: Any) -> None:
    """Show a library warning as one ``warning: ...`` line on stderr, like
    the ``error: ...`` lines, instead of Python's source-quoting format."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    name = argv[0] if argv else None
    if name in COMMANDS:
        alone = argparse.ArgumentParser(prog=f"homhom {name}")
        args, extra = with_flags(alone, name).parse_known_args(argv[1:])
    if name not in COMMANDS or extra:
        # help, or an error under the usage line that lists every command
        parser = argparse.ArgumentParser(
            prog="homhom",
            description="Decide membership of finite graphs in the six "
            "connected-source extension-homogeneity classes.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        for each, (help_text, _) in COMMANDS.items():
            with_flags(sub.add_parser(each, help=help_text), each)
        args = parser.parse_args(argv)
        name = args.command
    try:
        env_budget(DEFAULT_CORE_BUDGET)  # a malformed HOMHOM_BUDGET is refused before any work
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            code = globals()[f"cmd_{name}"](args)  # looked up here, so it can be patched
    except BrokenPipeError:
        code = 0  # the reader stopped early (``| head``), which is not an error
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130  # 128 + SIGINT, as a shell reports it
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

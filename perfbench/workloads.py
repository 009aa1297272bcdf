"""The benchmark's workloads: their inputs and one pass of each through the CLI.

Every pass drives ``homhom.cli.main`` in this process, one call after the
other (a closed loop with one client), exactly as a user's ``homhom ...``
command would run after start-up.  The sweeps are one ``sweep --jobs 1``
call each; the classify workloads are one ``classify --edges -`` call per
graph, fed an edge list on standard input.
"""

from __future__ import annotations

import contextlib
import io
import random
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

SRC = Path(__file__).resolve().parent.parent / "src"

# The benchmark's own copy of the class codes: metric names in
# BENCHMARK.json must not change when the program's list does.
CLASS_CODES = ("iso-iso", "mono-iso", "homo-iso", "iso-homo", "mono-homo", "homo-homo")
RECOGNIZER_CLASSES = ("iso-iso", "mono-iso", "homo-iso", "homo-homo")

SWEEPS = {
    "sweep-n6-all": (["sweep", "--max-n", "6", "--jobs", "1"], CLASS_CODES),
    "sweep-n7c-hh": (
        ["sweep", "--max-n", "7", "--connected", "--classes", "c-hh", "--jobs", "1"],
        ("homo-homo",),
    ),
}

# Named inputs, as ``--family`` takes them.  Each workload has over twenty
# graphs, so that its per-graph median and tail rest on enough samples;
# classify-named is kept to about 30 s a pass on a 2-core box, so that its
# traced run (three passes) ends well inside three minutes.
NAMED = {
    "classify-named": [
        "petersen",
        "bcpm 5",
        "complete 8",
        "regular_multipartite 2 4",
        "regular_multipartite 3 3",
        "rook 3",
        "clique_chain 3 4",
        "biclique_chain 2 3 2",
        "pcm_example 4",
        "two_squares",
        "cycle 8",
        "path 9",
        "rook 4",
        "bcpm 4",
        "regular_multipartite 4 2",
        "clique_chain 2 8",
        "clique_chain 2 12",
        "multiclaw 2 1 3 3",
        "cycle 9",
        "cycle 10",
        "cycle 11",
        "cycle 12",
        "cycle 14",
        "path 8",
        "path 10",
        "path 11",
        "path 12",
    ],
    "recognize-large": [
        "rook 6",
        "bcpm 20",
        "clique_chain 3 20",
        "biclique_chain 2 3 6",
        "regular_multipartite 4 8",
        "complete 32",
        "cycle 62",
        "path 62",  # 63 vertices
        "path 63",  # 64 vertices
        "cycle 64",
        "rook 5",
        "bcpm 9",
        "bcpm 12",
        "complete 17",
        "complete 24",
        "regular_multipartite 2 9",
        "regular_multipartite 3 6",
        "regular_multipartite 6 3",
        "clique_chain 3 10",
        "clique_chain 4 8",
        "clique_chain 5 6",
        "biclique_chain 2 2 8",
        "biclique_chain 3 3 4",
        "multiclaw 2 3 3 3",
        "pcm_example 16",
        "cycle 20",
        "cycle 32",
        "cycle 48",
        "path 24",
        "path 40",
        "path 56",
    ],
}

WORKLOADS = tuple(SWEEPS) + tuple(NAMED)


# Inputs that dominate a pass's time appear once.  Every other named input
# appears COPIES times under independent relabellings, so that the per-graph
# median and tail rest on about a hundred samples.
COPIES = 3
SINGLE = {"complete 8", "rook 4", "rook 6", "bcpm 20", "Q5", "bcpm 6 + K_8,8"}


@dataclass(frozen=True)
class GraphInput:
    """One ``classify`` input: the graph as relabelled and its edge list."""

    name: str  # the named input, which keys the reference table
    label: str  # ``name``, or ``name #i`` for the i-th relabelled copy
    graph: Any  # homhom.graphs.Graph
    text: str
    expected: dict[str, bool] | None = None  # verdicts known by construction


@dataclass
class Workload:
    name: str
    seed: int
    classes: tuple[str, ...]
    argv: list[str] = field(default_factory=list)  # sweeps
    graphs: list[GraphInput] = field(default_factory=list)  # classify workloads

    @property
    def is_sweep(self) -> bool:
        return self.name in SWEEPS


@dataclass(frozen=True)
class CliRun:
    """One ``cli.main`` call: its exit status, or the exception it raised."""

    status: int | None
    stdout: str
    stderr: str
    error: str | None = None


@dataclass
class PassResult:
    wall_ns: int
    graph_ns: list[int]
    runs: list[tuple[GraphInput | None, CliRun]]


# ---------------------------------------------------------------------------
# the program


def import_homhom() -> None:
    """Import homhom from this checkout's ``src`` and nowhere else."""
    init = SRC / "homhom" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; the benchmark runs inside a homhom checkout")
    sys.path.insert(0, str(SRC))
    import homhom
    import homhom.cli  # noqa: F401

    if Path(homhom.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported homhom from {homhom.__file__}, not from {SRC}")


def homhom_modules() -> list[Any]:
    return [m for name, m in sorted(sys.modules.items()) if name == "homhom" or name.startswith("homhom.")]


@contextmanager
def patched(modules: Sequence[Any], original: Callable, replacement: Callable) -> Iterator[None]:
    """Rebind every module-level name bound to ``original`` to ``replacement``."""
    undo = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr))
    if not undo:
        raise LookupError(f"{original.__module__}.{original.__name__} is bound nowhere")
    try:
        yield
    finally:
        for mod, attr in undo:
            setattr(mod, attr, original)


# ---------------------------------------------------------------------------
# inputs


def _hypercube_edges(d: int) -> list[tuple[int, int]]:
    return [(u, u ^ 1 << i) for u in range(1 << d) for i in range(d) if u < u ^ 1 << i]


def _adjacency(n: int, edges: list[tuple[int, int]]) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _connected(adj: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        nxt = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def _has_induced_c4(adj: list[int]) -> bool:
    n = len(adj)
    for u in range(n):
        for v in range(u + 1, n):
            if adj[u] >> v & 1:
                continue
            both = adj[u] & adj[v]
            common = [w for w in range(n) if both >> w & 1]
            for i, a in enumerate(common):
                if any(not adj[a] >> b & 1 for b in common[i + 1 :]):
                    return True
    return False


def _has_odd_cycle(adj: list[int]) -> bool:
    side = {0: 0}
    order = [0]
    for v in order:
        for w in range(len(adj)):
            if adj[v] >> w & 1:
                if w not in side:
                    side[w] = 1 - side[v]
                    order.append(w)
                elif side[w] == side[v]:
                    return True
    return False


def random_gnp(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """G(n, p), redrawn until it is connected, irregular, has an odd cycle
    and an induced 4-cycle.  Then it is in none of the four recognizer
    classes: the iso-iso, mono-iso and homo-iso members are disjoint unions
    of regular graphs, and a connected homo-homo graph is bipartite or a
    tree of cliques, which has no induced 4-cycle."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        adj = _adjacency(n, edges)
        degrees = {row.bit_count() for row in adj}
        if len(degrees) > 1 and _connected(adj) and _has_odd_cycle(adj) and _has_induced_c4(adj):
            return edges


def random_dominated_bipartite(rng: random.Random, a: int, b: int, p: float) -> list[tuple[int, int]]:
    """Random bipartite graph on parts 0..a-1 and a..a+b-1 in which vertex 0
    sees the whole second part and vertex a the whole first part, with at
    least one non-edge, redrawn until irregular.  Every part has a common
    neighbour, so it is homo-homo (part-dominated bipartite); irregular and
    connected, it is in none of the three automorphism-target classes."""
    while True:
        edges = [
            (u, a + w)
            for u in range(a)
            for w in range(b)
            if u == 0 or w == 0 or rng.random() < p
        ]
        adj = _adjacency(a + b, edges)
        if len({row.bit_count() for row in adj}) > 1 and len(edges) < a * b:
            return edges


# small enough that every draw classifies in a few milliseconds
RANDOM_GRAPHS = {
    "gnp 18 0.25": lambda rng: (18, random_gnp(rng, 18, 0.25), False),
    "gnp 20 0.2": lambda rng: (20, random_gnp(rng, 20, 0.2), False),
    "bipartite 9 9 0.4": lambda rng: (18, random_dominated_bipartite(rng, 9, 9, 0.4), True),
    "bipartite 8 10 0.4": lambda rng: (18, random_dominated_bipartite(rng, 8, 10, 0.4), True),
}


def _relabelled(graphs_mod: Any, g: Any, rng: random.Random) -> Any:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graphs_mod.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def build(name: str, seed: int) -> Workload:
    """Import homhom and build a workload's inputs from the seed."""
    from homhom import cli, graphs

    if name in SWEEPS:
        argv, classes = SWEEPS[name]
        return Workload(name, seed, tuple(classes), argv=list(argv))
    if name not in NAMED:
        raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")
    base: dict[str, tuple[Any, dict[str, bool] | None]] = {
        label: (cli.build_family(label.split()), None) for label in NAMED[name]
    }
    classes = CLASS_CODES
    if name == "recognize-large":
        classes = RECOGNIZER_CLASSES
        base["Q5"] = (graphs.from_edges(32, _hypercube_edges(5)), None)
        base["bcpm 6 + K_8,8"] = (
            graphs.disjoint_union(
                cli.build_family(["bcpm", "6"]),
                cli.build_family(["regular_multipartite", "2", "8"]),
            ),
            None,
        )
        for label, make in RANDOM_GRAPHS.items():
            n, edges, homo_homo = make(random.Random(f"{seed}/{label}"))
            expected = {code: False for code in classes}
            expected["homo-homo"] = homo_homo
            base[label] = (graphs.from_edges(n, edges), expected)
    inputs = []
    for label, (g, expected) in base.items():
        copies = 1 if label in SINGLE else COPIES
        for i in range(1, copies + 1):
            h = _relabelled(graphs, g, random.Random(f"{seed}/relabel/{label}/{i}"))
            copy = label if copies == 1 else f"{label} #{i}"
            inputs.append(GraphInput(label, copy, h, graphs.to_edge_list_text(h), expected))
    return Workload(name, seed, tuple(classes), graphs=inputs)


# ---------------------------------------------------------------------------
# passes


def run_cli(main: Callable[[list[str]], int], argv: list[str], stdin_text: str = "") -> CliRun:
    """Call ``main(argv)`` with the given standard input, capturing its
    output; an exception is recorded as the run's error, not raised."""
    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return CliRun(exc.code if isinstance(exc.code, int) else 2, out.getvalue(), err.getvalue())
    except Exception as exc:  # a crash is a failed decision, not a benchmark error
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return CliRun(None, out.getvalue(), err.getvalue(), last)
    finally:
        sys.stdin = saved_stdin
    return CliRun(status, out.getvalue(), err.getvalue())


def run_pass(workload: Workload, tracer: Any = None, between: Callable[[], int] | None = None) -> PassResult:
    """One full pass over the workload.

    ``tracer`` (if given) is told which graph each classify call is about.
    ``between`` (if given) is called before each graph, outside the graph's
    timing, and returns the nanoseconds it spent; they are left out of the
    pass's wall time.
    """
    from homhom import cli

    graph_ns: list[int] = []
    runs: list[tuple[GraphInput | None, CliRun]] = []
    aside = 0

    def gap() -> None:
        nonlocal aside
        if between is not None:
            aside += between()

    if workload.is_sweep:
        inner = cli.sweep_record

        def timed(*args: Any, **kwargs: Any) -> Any:
            gap()
            t0 = time.perf_counter_ns()
            try:
                return inner(*args, **kwargs)
            finally:
                graph_ns.append(time.perf_counter_ns() - t0)

        with patched(homhom_modules(), inner, timed):
            t0 = time.perf_counter_ns()
            runs.append((None, run_cli(cli.main, workload.argv)))
            wall = time.perf_counter_ns() - t0
        return PassResult(wall - aside, graph_ns, runs)

    argv = ["classify", "--edges", "-", "--classes", ",".join(workload.classes)]
    t0 = time.perf_counter_ns()
    for gi in workload.graphs:
        gap()
        if tracer is not None:
            tracer.graph = gi.label
        t1 = time.perf_counter_ns()
        run = run_cli(cli.main, argv, gi.text)
        graph_ns.append(time.perf_counter_ns() - t1)
        runs.append((gi, run))
    return PassResult(time.perf_counter_ns() - t0 - aside, graph_ns, runs)

"""Span tracer that wraps homhom's public functions from outside the package.

A function is wrapped at every module-level binding in every loaded
``homhom`` module: ``complete_map`` is imported by name into ``oracle`` and
``cli``, so patching only ``homhom.morphisms.complete_map`` would miss most
calls.  Each call records a span (name, start, end, parent, group); a group
is one (graph, class) pair, so the spans of one decision share an id.
Generator functions get one span per ``next()`` call, because their work
happens there and not when the generator is created.

Spans live in flat arrays while the pass runs and are written out after
it.  Deterministic work counts (calls, maps, found, checked maps, budget
refusals) are kept beside them.  ``cli.self_s`` is the self time of the
whole ``cli`` layer, summed over its traced functions.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from workloads import CLASS_CODES, homhom_modules, patched


@dataclass(frozen=True)
class Target:
    """One traced function and how its calls are named and counted."""

    module: str
    function: str
    generator_count: str | None = None  # per-yield counter of a generator
    split_by_class: bool = False  # one span name per class code
    sets_graph: bool = False  # first argument names the graph (a graph6 string)

    @property
    def name(self) -> str:
        return f"{self.module}.{self.function}"


TARGETS = (
    Target("graphs", "canonical_form"),
    Target("graphs", "induced_cycle_lengths"),
    Target("families", "enumerate_graphs", generator_count="graphs"),
    Target("morphisms", "enumerate_morphisms", generator_count="maps"),
    Target("morphisms", "complete_map"),
    Target("morphisms", "check_kind"),
    Target("morphisms", "automorphism_generators"),
    Target("oracle", "is_class_member", split_by_class=True),
    Target("recognizers", "recognizer_verdict", split_by_class=True),
    Target("recognizers", "classify"),
    Target("recognizers", "is_chh"),
    Target("recognizers", "embeds_pcm"),
    Target("cli", "family_tags"),
    Target("cli", "sweep_record", sets_graph=True),
    Target("cli", "main"),
)

# counts a target's results add beyond its calls
_RESULT_COUNTS = {
    "morphisms.complete_map": ("found",),
    "oracle.is_class_member": ("checked_maps", "budget_refused"),
}


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out: list[tuple[str, str]] = []
    for t in TARGETS:
        names = [f"{t.name}.{code}" for code in CLASS_CODES] if t.split_by_class else [t.name]
        extras = _RESULT_COUNTS.get(t.name, ()) + ((t.generator_count,) if t.generator_count else ())
        for name in names:
            out += [(f"{name}.calls", "count"), (f"{name}.s", "s"), (f"{name}.self_s", "s")]
            out += [(f"{name}.{extra}", "count") for extra in extras]
    out += [
        ("morphisms.complete_map.found_per_call", "ratio"),
        ("cli.self_s", "s"),
        ("trace.spans", "count"),
        ("trace.wall_s", "s"),
        ("trace.overhead_s", "s"),
    ]
    return out


class Tracer:
    """Records spans and counts for the functions in ``TARGETS``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.groups: list[tuple[str | None, str | None]] = []
        self._group_ids: dict[tuple[str | None, str | None], int] = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.group = array("q")
        self.counts: Counter[str] = Counter()
        self.graph: str | None = None
        self._stack: list[tuple[int, str | None]] = []

    def _id(self, table: list, ids: dict, key: Any) -> int:
        i = ids.get(key)
        if i is None:
            i = ids[key] = len(table)
            table.append(key)
        return i

    def enter(self, name: str, cls: str | None = None) -> int:
        if self._stack:
            parent, inherited = self._stack[-1]
        else:
            parent, inherited = -1, None
        cls = cls or inherited
        idx = len(self.start)
        self.name.append(self._id(self.names, self._name_ids, name))
        self.group.append(self._id(self.groups, self._group_ids, (self.graph, cls)))
        self.parent.append(parent)
        self.end.append(0)
        self._stack.append((idx, cls))
        self.start.append(time.perf_counter_ns())
        return idx

    def exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def work_counts(self) -> dict[str, int]:
        """The counts that must repeat exactly for one seed: calls, maps,
        graphs, found, checked maps, budget refusals and spans."""
        return {**self.counts, "trace.spans": len(self.start)}

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        counts = self.counts
        budget_error = sys.modules["homhom.oracle"].BudgetExceededError

        if target.generator_count:
            per_item = f"{name}.{target.generator_count}"

            @functools.wraps(fn)
            def gen_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                counts[f"{name}.calls"] += 1
                return self._drive(name, fn(*args, **kwargs), per_item)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cls = None
            span = name
            if target.split_by_class:  # recognizer_verdict(g, code), is_class_member(g, query)
                arg = args[1] if len(args) > 1 else kwargs.get("query", kwargs.get("code"))
                cls = arg if isinstance(arg, str) else arg.code
                span = f"{name}.{cls}"
            if target.sets_graph:
                self.graph = args[0]
            counts[f"{span}.calls"] += 1
            idx = self.enter(span, cls)
            try:
                result = fn(*args, **kwargs)
            except budget_error:
                counts[f"{span}.budget_refused"] += 1
                raise
            finally:
                self.exit(idx)
            if name == "morphisms.complete_map" and result is not None:
                counts[f"{span}.found"] += 1
            elif name == "oracle.is_class_member":
                counts[f"{span}.checked_maps"] += result.checked_maps
            return result

        return wrapper

    def _drive(self, name: str, gen: Iterator[Any], per_item: str) -> Iterator[Any]:
        try:
            while True:
                idx = self.enter(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self.exit(idx)
                self.counts[per_item] += 1
                yield item
        finally:
            gen.close()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target at all of its bindings for the ``with`` body."""
        modules = homhom_modules()
        with ExitStack() as stack:
            for target in TARGETS:
                fn = getattr(sys.modules[f"homhom.{target.module}"], target.function)
                stack.enter_context(patched(modules, fn, self._wrap(target, fn)))
            yield self

    # -- output --------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write the spans as gzip'd tab-separated lines: name, start_ns,
        end_ns, parent index (-1 for a root), group id "graph/class"."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tgroup\n")
            for i in range(len(self.start)):
                graph, cls = self.groups[self.group[i]]
                fh.write(
                    f"{self.names[self.name[i]]}\t{self.start[i]}\t{self.end[i]}\t"
                    f"{self.parent[i]}\t{graph}/{cls}\n"
                )


def span_times(
    names: Sequence[str],
    name_ids: Sequence[int],
    start: Sequence[int],
    end: Sequence[int],
    parent: Sequence[int],
) -> dict[str, tuple[float, float]]:
    """Total and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly (one thread), so the children cover
    disjoint parts of the parent's interval.
    """
    child = [0] * len(start)
    for i in range(len(start)):
        p = parent[i]
        if p >= 0:
            child[p] += end[i] - start[i]
    total: Counter[str] = Counter()
    own: Counter[str] = Counter()
    for i in range(len(start)):
        nm = names[name_ids[i]]
        dur = end[i] - start[i]
        total[nm] += dur
        own[nm] += dur - child[i]
    return {nm: (total[nm] / 1e9, own[nm] / 1e9) for nm in total}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced pass, zero for layers it never entered.

    ``trace.wall_s`` and ``trace.overhead_s`` need the pass timings and are
    left to the caller.
    """
    times = span_times(tracer.names, tracer.name, tracer.start, tracer.end, tracer.parent)
    values: dict[str, float] = {}
    for metric, _unit in per_layer_metric_names():
        base, stat = metric.rsplit(".", 1)
        if stat in ("s", "self_s"):
            values[metric] = times.get(base, (0.0, 0.0))[stat == "self_s"]
        else:
            values[metric] = tracer.counts.get(metric, 0)
    calls = values["morphisms.complete_map.calls"]
    values["morphisms.complete_map.found_per_call"] = (
        values["morphisms.complete_map.found"] / calls if calls else 0.0
    )
    values["cli.self_s"] = sum(own for name, (_, own) in times.items() if name.startswith("cli."))
    values["trace.spans"] = len(tracer.start)
    return values

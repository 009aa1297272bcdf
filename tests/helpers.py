"""Reference searches that the tests check the library against, and the
counter of what a graph keeps, kept out of ``src`` because no library code
needs them."""

from __future__ import annotations

from collections import Counter

from homhom import graphs, oracle, recognizers
from homhom.graphs import Graph, _complement_rows, popcount
from homhom.morphisms import MorphKind, complete_map


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Cheap invariants first (order, size, sorted degrees), then one
    isomorphism completion from the empty map."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(map(popcount, g1.adj)) != sorted(map(popcount, g2.adj)):
        return False
    return complete_map(g1, g2, {}, MorphKind.ISO) is not None


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_rows(g))


def kept_steps() -> set:
    """Every function a graph keeps the value of: the wrappers ``_kept``
    makes, which all run its one code object."""
    once = graphs._complement_rows.__code__
    return {
        fn
        for module in (graphs, oracle, recognizers)
        for fn in vars(module).values()
        if getattr(fn, "__code__", None) is once
    }


def count_kept_steps(monkeypatch) -> Counter:
    """Count, per step and graph object, each computation of a value the
    graph keeps once computed.  The graphs stay referenced, so no object id
    is reused while the counts are kept."""
    calls: Counter = Counter()
    seen: list[Graph] = []
    for fn in kept_steps():
        def counted(g, _name=fn.__qualname__, _compute=fn.__wrapped__):
            seen.append(g)
            calls[_name, id(g)] += 1
            return _compute(g)

        monkeypatch.setattr(fn, "__wrapped__", counted)
    return calls

"""Reference searches that the tests check the library against, kept out of
``src`` because no library code needs them."""

from __future__ import annotations

from homhom.graphs import Graph, popcount
from homhom.morphisms import MorphKind, complete_map


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Cheap invariants first (order, size, sorted degrees), then one
    isomorphism completion from the empty map."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(map(popcount, g1.adj)) != sorted(map(popcount, g2.adj)):
        return False
    return complete_map(g1, g2, {}, MorphKind.ISO) is not None

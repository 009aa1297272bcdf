"""Generators for the named graph families and small-graph enumeration.

Every generator documents its vertex layout, since witnesses and tests refer
to concrete vertex ids.  ``FAMILIES`` is the one table of the named families:
the CLI's ``--family`` names, the tags naming a family in a descriptor, the
builders and their parameter counts are all read from it.  ``enumerate_graphs``
streams one representative per isomorphism class in a fixed order (vertex
count ascending, then canonical graph6 bytes ascending).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .graphs import (
    MAX_VERTICES,
    Graph,
    _canonical_labelling,
    _graph_from_rows,
    _refined_colors,
    from_edges,
    is_connected,
    popcount,
)
from .morphisms import (
    MorphKind,
    _source_representatives,
    automorphism_generators,
    complete_map,
)


def _check_order(n: int, what: str) -> None:
    """Refuse a ``what`` of more than ``MAX_VERTICES`` vertices, so that a
    builder given a large parameter fails before it builds any edge."""
    if n > MAX_VERTICES:
        raise ValueError(f"{what} would have {n} > {MAX_VERTICES} vertices")


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    _check_order(n, "complete graph")
    return from_edges(n, itertools.combinations(range(n), 2))


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise ValueError("empty graph needs n >= 1")
    _check_order(n, "empty graph")
    return from_edges(n, ())


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices: i ~ i+1 (mod n)."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    _check_order(n, "cycle")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n - 1)] + [(0, n - 1)])


def path_graph(length: int) -> Graph:
    """Path with ``length`` edges, i.e. length+1 vertices 0..length in a row."""
    if length < 0:
        raise ValueError("path length must be >= 0")
    _check_order(length + 1, "path")
    return from_edges(length + 1, [(i, i + 1) for i in range(length)])


def regular_multipartite_graph(parts: int, part_size: int) -> Graph:
    """Complete multipartite graph with ``parts`` independent sets of equal
    ``part_size``; sides are consecutive vertex blocks, edges across blocks."""
    if parts < 2 or part_size < 2:
        raise ValueError("regular multipartite graph needs parts >= 2 and size >= 2")
    n = parts * part_size
    _check_order(n, "regular multipartite graph")
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u // part_size != v // part_size
    ]
    return from_edges(n, edges)


def rook_graph(s: int) -> Graph:
    """The s x s rook's graph (line graph of the complete bipartite K_{s,s}).

    Vertex (row, col) is r*s + c; two vertices are adjacent iff they share a
    row or a column.
    """
    if s < 2:
        raise ValueError("rook graph needs s >= 2")
    n = s * s
    _check_order(n, "rook graph")
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if u // s == v // s or u % s == v % s:
                edges.append((u, v))
    return from_edges(n, edges)


def bcpm_graph(n: int) -> Graph:
    """Complete bipartite K_{n,n} minus a perfect matching.

    Left vertices 0..n-1, right vertices n..2n-1; i ~ n+j iff i != j.
    Connected exactly when n >= 3 (n = 2 gives two disjoint edges).
    """
    if n < 2:
        raise ValueError("bipartite complement of a perfect matching needs n >= 2")
    _check_order(2 * n, "bipartite complement of a perfect matching")
    return from_edges(
        2 * n, [(i, n + j) for i in range(n) for j in range(n) if i != j]
    )


def petersen_graph() -> Graph:
    """Petersen graph: 2-subsets of a 5-set in lexicographic order, adjacent
    iff disjoint."""
    pairs = list(itertools.combinations(range(5), 2))
    edges = [
        (i, j)
        for i in range(10)
        for j in range(i + 1, 10)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return from_edges(10, edges)


def clebsch_graph() -> Graph:
    """Clebsch graph via folding the 5-cube: antipodal vertex classes of the
    5-dimensional hypercube.

    Class representatives are the 16 bitstrings with the top (5th) bit clear,
    i.e. plain 0..15; two classes are adjacent iff some representatives differ
    in exactly one of five coordinates, which for the chosen representatives
    means popcount(a ^ b) is 1 or 4.
    """
    edges = [
        (a, b)
        for a in range(16)
        for b in range(a + 1, 16)
        if (a ^ b).bit_count() in (1, 4)
    ]
    return from_edges(16, edges)


def two_squares_graph() -> Graph:
    """Two squares sharing an edge: the 6-cycle 0..5 plus the long chord 2-5."""
    return from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(2, 5)])


def pcm_example_graph(n: int) -> Graph:
    """Bipartite graph with a 3-vertex side 0..2 and an n-vertex side 3..n+2,
    complete across except exactly four non-edges: 0~b1, 0~b3, 1~b2, 1~b3 are
    missing (b_j is vertex j+2).

    Needs n >= 4.  Every side-subset has a common neighbour, the two-squares
    graph embeds, yet no induced subgraph is an n-matched-complement pattern.
    """
    if n < 4:
        raise ValueError("the example needs a large side of size >= 4")
    _check_order(n + 3, "the example")
    missing = {(0, 3), (0, 5), (1, 4), (1, 5)}
    edges = [
        (a, b)
        for a in range(3)
        for b in range(3, n + 3)
        if (a, b) not in missing
    ]
    return from_edges(n + 3, edges)


def multiclaw_graph(clique_size: int, blob_size: int, blob_counts: tuple[int, ...]) -> Graph:
    """Generalised multiclaw: a clique joined to groups of disjoint equal blobs.

    The graph is K_m joined completely to every group; group alpha consists of
    blob_counts[alpha] >= 2 pairwise-disjoint copies of K_k; distinct groups
    are also joined completely.  Complete multipartite graphs are the special
    case k = 1, m = 0.  Vertex layout: the K_m clique first, then the groups
    in order, each group its blobs in order.
    """
    m, k = clique_size, blob_size
    if m < 0 or k < 1 or not blob_counts or any(j < 2 for j in blob_counts):
        raise ValueError(
            "multiclaw needs clique_size >= 0, blob_size >= 1 and every "
            "blob count >= 2"
        )
    _check_order(m + k * sum(blob_counts), "multiclaw")
    # group id -1 = the clique; inside a group, blob id distinguishes blobs
    labels: list[tuple[int, int]] = [(-1, i) for i in range(m)]
    for alpha, j in enumerate(blob_counts):
        for blob in range(j):
            labels.extend((alpha, blob) for _ in range(k))
    n = len(labels)
    edges = []
    for u in range(n):
        gu, bu = labels[u]
        for v in range(u + 1, n):
            gv, bv = labels[v]
            if gu == -1 and gv == -1:
                edges.append((u, v))  # inside the clique
            elif gu != gv:
                edges.append((u, v))  # across groups / clique-to-group
            elif bu == bv:
                edges.append((u, v))  # inside one blob
    return from_edges(n, edges)


# ---------------------------------------------------------------------------
# chains of blocks


def _chain(block_edges: Iterable[tuple[int, int]], step: int, count: int) -> Graph:
    """``count`` copies of one block on vertices 0..step, copy i shifted to
    i*step..i*step+step, so consecutive copies share one vertex.  The block
    edges are read only once the size is known to fit."""
    n = count * step + 1
    _check_order(n, "glued graph")
    block = list(block_edges)
    return from_edges(
        n, [(i * step + u, i * step + w) for i in range(count) for u, w in block]
    )


def clique_chain(clique_size: int, count: int) -> Graph:
    """Chain of ``count`` complete blocks of ``clique_size``, consecutive
    blocks sharing one vertex (the canonical concrete clique-tree shape).

    Block i is vertices i*s..i*s+s with s = clique_size - 1."""
    if count < 1:
        raise ValueError("need at least one block")
    if count == 1:
        return complete_graph(clique_size)
    if clique_size < 2:
        raise ValueError("complete blocks need size >= 2")
    return _chain(itertools.combinations(range(clique_size), 2), clique_size - 1, count)


def biclique_chain(side_a: int, side_b: int, count: int) -> Graph:
    """Chain of ``count`` complete bipartite blocks K_{side_a, side_b},
    consecutive blocks sharing one vertex.

    Block i is vertices i*s..i*s+s with s = side_a + side_b - 1, side a
    first: its edges are (i*s+u, i*s+side_a+w)."""
    if count < 1:
        raise ValueError("need at least one block")
    m, n = side_a, side_b
    if m < 1 or n < 1:
        raise ValueError("bipartite blocks need both sides >= 1")
    return _chain(((u, m + w) for u in range(m) for w in range(n)), m + n - 1, count)


# ---------------------------------------------------------------------------
# the family table


class Family(NamedTuple):
    """One named family: its ``--family`` name, the tag that names it in a
    ``FamilyDescriptor`` (None: none does), its builder over flat integer
    parameters, and how many it takes (``max_params`` None: no upper limit).
    Recognizers report COMPLETE, REGULAR_MULTIPARTITE, CYCLE, LINE_KSS, BCPM,
    PETERSEN, CLEBSCH and MULTICLAW; the other tags only name descriptors."""

    name: str
    tag: str | None
    build: Callable[..., Graph]
    min_params: int
    max_params: int | None

    def check_param_count(self, count: int, who: str) -> None:
        """Raise ValueError, naming ``who``, unless ``count`` parameters fit."""
        lo, hi = self.min_params, self.max_params
        if count < lo or (hi is not None and count > hi):
            span = str(lo) if hi == lo else (f"{lo}+" if hi is None else f"{lo}..{hi}")
            raise ValueError(f"{who} takes {span} parameters, got {count}")


FAMILIES = {
    f.name: f
    for f in (
        Family("complete", "COMPLETE", complete_graph, 1, 1),
        Family("empty", None, empty_graph, 1, 1),
        Family("cycle", "CYCLE", cycle_graph, 1, 1),
        Family("path", "PATH", path_graph, 1, 1),
        Family("regular_multipartite", "REGULAR_MULTIPARTITE", regular_multipartite_graph, 2, 2),
        Family("rook", "LINE_KSS", rook_graph, 1, 1),
        Family("bcpm", "BCPM", bcpm_graph, 1, 1),
        Family("petersen", "PETERSEN", petersen_graph, 0, 0),
        Family("clebsch", "CLEBSCH", clebsch_graph, 0, 0),
        Family("two_squares", "TWO_SQUARES", two_squares_graph, 0, 0),
        Family("pcm_example", "PCM_EXAMPLE", pcm_example_graph, 1, 1),
        Family(
            "multiclaw",
            "MULTICLAW",
            lambda clique, blob, *counts: multiclaw_graph(clique, blob, counts),
            3,
            None,
        ),
        Family("clique_chain", "KN_TREELIKE", clique_chain, 2, 2),
        Family("biclique_chain", "KMN_TREELIKE", biclique_chain, 3, 3),
    )
}
_BY_TAG = {f.tag: f for f in FAMILIES.values() if f.tag is not None}


@dataclass(frozen=True)
class FamilyDescriptor:
    """A named family member: tag plus integer parameters."""

    tag: str
    params: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.tag not in _BY_TAG:
            raise ValueError(f"unknown family tag {self.tag!r}")
        _BY_TAG[self.tag].check_param_count(len(self.params), self.tag)

    def __str__(self) -> str:
        if not self.params:
            return self.tag.lower()
        inner = ",".join(map(str, self.params))
        return f"{self.tag.lower()}({inner})"


# ---------------------------------------------------------------------------
# exhaustive enumeration of small graphs


ENUMERATION_SOFT_CAP = 8
ENUMERATION_HARD_CAP = 9


def enumerate_graphs(max_n: int, connected_only: bool = True) -> Iterator[Graph]:
    """Stream one representative per isomorphism class, up to ``max_n`` vertices.

    Graphs are grown by canonical augmentation (McKay, "Isomorph-free
    exhaustive generation", J. Algorithms 1998).  A child C is a parent
    representative on n-1 vertices plus a new vertex x = n-1 with some
    neighbour mask.  Let m(C) be the vertex in the last slot of C's
    canonical labelling; any two optimal labellings differ by an
    automorphism, so the Aut(C)-orbit of m(C) is an isomorphism invariant.
    C is kept iff x lies in that orbit.
    - Every class on n vertices is kept at least once: C - m(C) is
      isomorphic to some parent P, and that isomorphism extends to one from
      C onto a child of P that maps m(C) to x, so that child is kept.
    - Kept children of different parents are not isomorphic: a kept C
      gives C - x ≅ C - m(C), so isomorphic kept children have isomorphic
      parents, and the parents are distinct classes.
    - A parent P is extended by the empty mask and one mask per orbit of
      Aut(P) on vertex subsets (``_source_representatives`` under
      ``automorphism_generators(P)``), or by every mask when P has no
      generators.  This keeps the same set of forms: an automorphism s of
      P, extended by x -> x, is an isomorphism from the child with mask M
      onto the child with mask s(M) that fixes x, so both have one
      canonical form and one keep verdict.
    - Kept children of one parent from masks in different orbits are not
      isomorphic: an isomorphism between kept children can be chosen to
      fix x, and then it restricts to an automorphism of P carrying one
      mask to the other.  So the level's set of canonical forms, sorted
      for output, holds the same forms as with every mask, and the same
      graphs come out in the same order.
    The cheap tests run first, on C's adjacency rows.  The last slot holds
    the top colour of ``_refined_colors``, whose class holds vertices of
    maximum degree only, so x must have maximum degree and the top colour
    before C is labelled.  The degree test reads the mask M alone: with
    at_least[k] the parent's vertices of degree >= k, x has degree
    k = |M|, a vertex in M gains one and the others keep theirs, so x has
    maximum degree exactly when k is at least the parent's maximum degree
    and M misses at_least[k].  Only when m(C) != x does an isomorphism
    search decide the orbit, and only then is C built as a ``Graph``.

    Each level is kept as the rows and automorphism generators of its
    graphs.  A graph's generators are read once the caller has resumed
    the enumeration, so that a caller that searched them on the graph it
    was given (the oracle does) shares that search, and the graph, with
    what the caller computed on it, goes when the caller drops it.

    Representatives are canonically labelled; order is (vertex count,
    canonical graph6 bytes) ascending.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    if max_n > ENUMERATION_HARD_CAP:
        raise ValueError(
            f"enumeration beyond {ENUMERATION_HARD_CAP} vertices is not supported"
        )
    if max_n > ENUMERATION_SOFT_CAP:
        warnings.warn(
            f"enumerating all graphs on {max_n} vertices is slow "
            f"(the intended ceiling is {ENUMERATION_SOFT_CAP})",
            stacklevel=2,
        )
    g = empty_graph(1)
    yield g
    level = [(g.adj, automorphism_generators(g))]
    for n in range(2, max_n + 1):
        x = n - 1
        forms = set()
        for rows, gens in level:
            degrees = [popcount(row) for row in rows]
            top_degree = max(degrees)
            at_least = [sum(1 << v for v, d in enumerate(degrees) if d >= k) for k in range(n)]
            if gens:
                levels = _source_representatives(rows, False, gens)
                masks = [0, *itertools.chain.from_iterable(levels)]
            else:
                masks = range(1 << x)
            for mask in masks:
                k = popcount(mask)
                if k < top_degree or mask & at_least[k]:
                    continue
                child = (*(row | (mask >> v & 1) << x for v, row in enumerate(rows)), mask)
                colors = _refined_colors(child)
                if colors[x] != max(colors):
                    continue
                canon, perm = _canonical_labelling(child, colors)
                m = perm[-1]
                if m != x:
                    g = Graph(n, child)
                    if complete_map(g, g, {x: m}, MorphKind.ISO) is None:
                        continue
                forms.add(canon)
        # the rows of one size sort as their graph6 bytes do
        level = []
        for canon in sorted(forms):
            g = _graph_from_rows(n, canon)
            if not connected_only or is_connected(g):
                yield g
            if n < max_n:
                level.append((g.adj, automorphism_generators(g)))

"""Core graph operations: frozen facts, format round-trips, property tests."""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhom.families import enumerate_graphs
from homhom.graphs import (
    MAX_VERTICES,
    Graph,
    _canonical_labelling,
    _refined_colors,
    bipartition,
    bits,
    canonical_form,
    common_neighbors,
    connected_components,
    connected_within,
    disjoint_union,
    from_edge_list_text,
    from_edges,
    from_graph6,
    induced_cycle_lengths,
    induced_subgraph,
    is_connected,
    mask_of,
    to_edge_list_text,
    to_graph6,
)
from helpers import (
    complement,
    is_isomorphic,
    reference_bits,
    reference_canonical_labelling,
    reference_refined_colors,
)

# -- small fixtures ---------------------------------------------------------


def cycle(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(edges: int) -> Graph:
    return from_edges(edges + 1, [(i, i + 1) for i in range(edges)])


def complete(n: int) -> Graph:
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def random_graph(n: int, seed: int) -> Graph:
    import random

    rng = random.Random(seed)
    return from_edges(
        n,
        [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5],
    )


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


graph_strategy = st.builds(
    random_graph, n=st.integers(min_value=1, max_value=9), seed=st.integers(0, 10**6)
)


# -- construction and invariants --------------------------------------------


def test_graph_validation_rejects_bad_input():
    with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.64, got 0"):
        Graph(0, ())
    with pytest.raises(ValueError, match=r"vertex count must be in 1\.\.64, got 65"):
        Graph(65, (0,) * 65)
    with pytest.raises(ValueError, match="adjacency row count does not match vertex count"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="adjacency row of vertex 1 mentions vertices >= n"):
        Graph(2, (0b00, 0b100))
    with pytest.raises(ValueError, match="vertex 0 has a self-loop"):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match=r"adjacency is not symmetric at \(1, 0\)"):
        Graph(2, (0b00, 0b01))  # the edge is missing from the lower row only
    with pytest.raises(ValueError):
        from_edges(2, [(0, 2)])


def test_mask_helpers():
    assert mask_of([0, 2, 5]) == 0b100101
    assert list(bits(0b100101)) == [0, 2, 5]
    assert list(bits(0)) == []


def test_bits_matches_the_reference_walk():
    # every width 0..64, each at seeded masks of one bit, two bits,
    # densities 0.1, 0.5 and 0.9, and all bits set
    import random

    rng = random.Random(36)
    masks = [1 << 63, (1 << 64) - 1]
    for width in range(MAX_VERTICES + 1):
        masks.append((1 << width) - 1)
        for _ in range(3):
            if width >= 1:
                masks.append(1 << rng.randrange(width))
            if width >= 2:
                a, b = rng.sample(range(width), 2)
                masks.append(1 << a | 1 << b)
            for p in (0.1, 0.5, 0.9):
                masks.append(mask_of(i for i in range(width) if rng.random() < p))
    for m in masks:
        got = bits(m)
        assert type(got) is tuple and got == tuple(reference_bits(m)), hex(m)
    # a bit past MAX_VERTICES is refused, not dropped
    for m in (1 << MAX_VERTICES, (1 << MAX_VERTICES + 1) - 1):
        with pytest.raises(IndexError):
            bits(m)


# -- neighbours and common neighbours ----------------------------------------


def test_neighbors_and_common_neighbors():
    p2 = path(2)  # 0 - 1 - 2
    assert p2.adj[1] == mask_of([0, 2])
    assert common_neighbors(p2, mask_of([0, 2])) == mask_of([1])
    assert common_neighbors(p2, mask_of([0, 1])) == 0
    with pytest.raises(ValueError):
        common_neighbors(p2, 0)


def test_induced_subgraph_of_cycle_is_path():
    sub = induced_subgraph(cycle(6), mask_of([0, 1, 2]))
    assert sub.n == 3 and sub.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        induced_subgraph(cycle(6), 0)


def test_induced_subgraph_on_every_vertex_is_the_graph_itself():
    g = cycle(6)
    assert induced_subgraph(g, g.full_mask) is g


# -- connectivity -------------------------------------------------------------


def test_connectivity_basics():
    g = disjoint_union(complete(3), complete(2))
    assert not is_connected(g)
    assert connected_components(g) == (complete(3), complete(2))
    assert connected_within(g, mask_of([0, 1]))
    assert not connected_within(g, mask_of([0, 3]))


# -- bipartition --------------------------------------------------------------


def test_bipartition_even_cycle():
    x, y = bipartition(cycle(6))
    assert x == mask_of([0, 2, 4]) and y == mask_of([1, 3, 5])


def test_bipartition_odd_cycle_is_none():
    assert bipartition(cycle(5)) is None


@given(graph_strategy)
@settings(max_examples=200, deadline=None)
def test_bipartition_matches_networkx(g):
    ours = bipartition(g)
    assert (ours is not None) == nx.is_bipartite(to_nx(g))
    if ours is not None:
        x, y = ours
        assert x | y == g.full_mask and x & y == 0
        for u, v in g.edges():
            assert (x >> u & 1) != (x >> v & 1)


# -- induced cycles -----------------------------------------------------------


def test_induced_cycle_lengths():
    assert induced_cycle_lengths(cycle(7)) == frozenset({7})
    assert induced_cycle_lengths(path(4)) == frozenset()
    assert induced_cycle_lengths(complete(5)) == frozenset({3})
    two_sq = from_edges(6, [(i, (i + 1) % 6) for i in range(6)] + [(2, 5)])
    assert induced_cycle_lengths(two_sq) == frozenset({4})
    # complete bipartite K_{2,3}: every induced cycle is a square
    k23 = from_edges(5, [(i, j) for i in range(2) for j in range(2, 5)])
    assert induced_cycle_lengths(k23) == frozenset({4})


@given(graph_strategy)
@settings(max_examples=120, deadline=None)
def test_induced_cycles_against_networkx_chordless(g):
    expected = {len(c) for c in nx.chordless_cycles(to_nx(g)) if len(c) >= 3}
    assert induced_cycle_lengths(g) == frozenset(expected)


# -- unions, complement ---------------------------------------------------------


def test_complement_of_clique_union_is_complete_multipartite():
    g = complement(disjoint_union(complete(2), complete(3)))
    # K_{2,3}: sides {0,1} and {2,3,4}
    assert g.edge_count() == 6
    assert all(g.has_edge(i, j) for i in range(2) for j in range(2, 5))
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)


def test_complement_involution():
    g = random_graph(7, 1234)
    assert complement(complement(g)) == g


# -- canonical form ----------------------------------------------------------------


def test_canonical_form_c4_equals_k22():
    c4 = cycle(4)
    k22 = from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert canonical_form(c4) == canonical_form(k22)


@given(graph_strategy, st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_canonical_form_invariant_under_relabelling(g, seed):
    import random

    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_form(g) == canonical_form(h)


@given(graph_strategy)
@settings(max_examples=100, deadline=None)
def test_canonical_graph_is_isomorphic_to_input(g):
    assert is_isomorphic(from_graph6(canonical_form(g).decode()), g)


def test_canonical_form_separates_non_isomorphic_6_vertex_graphs():
    """Count distinct canonical forms over all labeled connected graphs on 6
    vertices — the independent (labeled-iteration) route to the class count.

    112 connected graphs on 6 vertices is a standard enumeration fact.
    """
    pairs = list(itertools.combinations(range(6), 2))
    forms = set()
    for code in range(1 << len(pairs)):
        g = from_edges(6, [pairs[i] for i in range(len(pairs)) if code >> i & 1])
        if is_connected(g):
            forms.add(canonical_form(g))
    assert len(forms) == 112


@pytest.mark.parametrize("g", [complete(11), cycle(12)], ids=["K11", "C12"])
def test_canonical_form_above_ten_vertices(g):
    # the sizes ``core`` reaches under its 12-vertex budget
    perm = [(5 * v + 3) % g.n for v in range(g.n)]
    h = from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    form = canonical_form(g)
    assert canonical_form(h) == form
    assert is_isomorphic(from_graph6(form.decode()), g)


def relabelled_rows(adj: tuple[int, ...], perm: list[int]) -> tuple[int, ...]:
    """The rows of the graph with vertex v renamed perm[v]."""
    rows = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in bits(row):
            rows[perm[v]] |= 1 << perm[u]
    return tuple(rows)


def test_refinement_and_labelling_match_the_reference_to_seven_vertices():
    # every graph on at most 7 vertices, as enumerated and under a seeded
    # relabelling: the same colour ids, canonical rows and permutation
    import random

    rng = random.Random(7)
    for g in enumerate_graphs(7, connected_only=False):
        perm = list(range(g.n))
        rng.shuffle(perm)
        for adj in (g.adj, relabelled_rows(g.adj, perm)):
            colors = _refined_colors(adj)
            assert colors == reference_refined_colors(adj), adj
            assert _canonical_labelling(adj) == reference_canonical_labelling(adj), adj
            assert _canonical_labelling(adj, colors) == _canonical_labelling(adj)


def test_refinement_and_labelling_match_the_reference_to_64_vertices():
    # 300 seeded random graphs on 9-64 vertices at densities 0.05-0.95;
    # the reference labelling is exponential where many vertices share a
    # colour, so labellings are compared where at most 2 vertices do
    import random
    from collections import Counter

    rng = random.Random(64)
    labelled = 0
    for _ in range(300):
        n, p = rng.randint(9, 64), rng.uniform(0.05, 0.95)
        g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
        colors = _refined_colors(g.adj)
        assert colors == reference_refined_colors(g.adj), g.adj
        if sum(c for c in Counter(colors).values() if c > 1) <= 2:
            labelled += 1
            assert _canonical_labelling(g.adj) == reference_canonical_labelling(g.adj), g.adj
    assert labelled == 258
    for g in (cycle(64), complete(64), path(63)):  # one or few colours
        assert _refined_colors(g.adj) == reference_refined_colors(g.adj)


# -- graph6 -----------------------------------------------------------------------


def test_graph6_known_encodings():
    # nx is the reference implementation for the format; its atlas holds
    # every graph on at most 6 vertices, 208 of them
    atlas = [from_edges(len(a), a.edges()) for a in nx.graph_atlas_g() if 1 <= len(a) <= 6]
    assert len(atlas) == 208
    for g in [complete(5), cycle(6), path(3), random_graph(9, 7), *atlas]:
        assert to_graph6(g) == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()


@given(graph_strategy)
@settings(max_examples=200, deadline=None)
def test_graph6_round_trip(g):
    assert from_graph6(to_graph6(g)) == g


@pytest.mark.parametrize("n", [62, 63, 64])
def test_graph6_round_trip_up_to_64_vertices(n):
    # from 63 vertices on, the count is '~' and three 6-bit characters
    for g in [path(n - 1), cycle(n), random_graph(n, n)]:
        text = to_graph6(g)
        assert text == nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert from_graph6(text) == g
    assert to_graph6(cycle(n)).startswith({62: "}", 63: "~??~", 64: "~?@?"}[n])


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("D")  # promises 5 vertices, no body
    for header in ["~", "~??", "~?@@", "~~??????"]:  # short, 65, 258048 vertices
        with pytest.raises(ValueError):
            from_graph6(header)
    # 64 vertices need the long header; DEL as a one-byte count is not graph6
    with pytest.raises(ValueError):
        from_graph6("\x7f" + "?" * 336)
    assert from_graph6("~?@?" + "?" * 336).n == 64


# -- edge-list text ------------------------------------------------------------------


def test_edge_list_round_trip_and_comments():
    g = random_graph(6, 99)
    assert from_edge_list_text(to_edge_list_text(g)) == g
    text = "# a comment\n3 2\n\n0 1\n# another\n1 2\n"
    assert from_edge_list_text(text) == path(2)
    text = "  # a comment\n3 2\n\n 2 1 \n\t# another\n1 0\n"
    assert from_edge_list_text(text) == path(2)


def test_edge_list_accepts_either_endpoint_order():
    assert from_edge_list_text("3 2\n1 0\n2 1\n") == path(2)


@pytest.mark.parametrize(
    "bad, message",
    [
        ("", "edge-list input is empty"),
        ("# only a comment\n\n", "edge-list input is empty"),
        ("3\n", "expected header 'n m', got '3'"),
        ("3 x\n", "non-integer header '3 x'"),
        ("0 0\n", "vertex count must be in 1..64, got 0"),
        ("65 0\n", "vertex count must be in 1..64, got 65"),
        ("3 2\n0 1\n", "header promises 2 edges, found 1"),
        # the count is checked before any edge line is read
        ("3 2\n0 x y\n", "header promises 2 edges, found 1"),
        ("3 1\n0 1 2\n", "expected edge line 'u v', got '0 1 2'"),
        ("3 1\n0 y\n", "invalid literal for int() with base 10: 'y'"),
        ("3 1\n3 0\n", "edge (0, 3) violates 0 <= u < v < n=3"),
        ("3 1\n1 1\n", "edge (1, 1) violates 0 <= u < v < n=3"),
        ("3 2\n0 1\n1 0\n", "duplicate edge (0, 1)"),
    ],
    ids=[
        "empty",
        "comments-only",
        "header-one-field",
        "header-not-integer",
        "n-zero",
        "n-65",
        "too-few-edges",
        "count-before-edge-lines",
        "edge-three-fields",
        "endpoint-not-integer",
        "endpoint-out-of-range",
        "self-loop",
        "duplicate-flipped",
    ],
)
def test_edge_list_rejects_bad_input(bad, message):
    with pytest.raises(ValueError) as info:
        from_edge_list_text(bad)
    assert str(info.value) == message


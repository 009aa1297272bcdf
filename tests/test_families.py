"""Family generators: frozen structural facts and enumeration counts."""

from __future__ import annotations

import hashlib
import itertools
import warnings
import weakref
from collections import Counter

import networkx as nx
import pytest

from homhom.families import (
    FAMILIES,
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
from homhom.graphs import (
    Graph,
    _canonical_labelling,
    _refined_colors,
    bipartition,
    bits,
    canonical_form,
    connected_components,
    from_edges,
    from_graph6,
    induced_cycle_lengths,
    induced_subgraph,
    is_connected,
    to_graph6,
)
from homhom.morphisms import automorphism_generators
from helpers import count_kept_steps, is_isomorphic, popcount


def degrees(g: Graph) -> list[int]:
    return [popcount(row) for row in g.adj]


def to_nx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


class TestBasicFamilies:
    def test_complete(self):
        g = complete_graph(5)
        assert g.n == 5 and g.edge_count() == 10
        assert complete_graph(1).edge_count() == 0

    def test_empty(self):
        g = empty_graph(4)
        assert g.edge_count() == 0 and g.n == 4

    def test_cycle_and_path(self):
        assert cycle_graph(6).edge_count() == 6
        assert nx.girth(to_nx(cycle_graph(5))) == 5
        p = path_graph(4)
        assert p.n == 5 and p.edge_count() == 4
        assert path_graph(0).n == 1

    def test_regular_multipartite(self):
        assert is_isomorphic(regular_multipartite_graph(2, 2), cycle_graph(4))
        octa = regular_multipartite_graph(3, 2)
        assert octa.n == 6 and octa.edge_count() == 12
        assert degrees(octa) == [4] * 6

    def test_rook(self):
        g = rook_graph(3)
        assert g.n == 9 and degrees(g) == [4] * 9
        assert is_isomorphic(rook_graph(2), cycle_graph(4))

    def test_bcpm(self):
        assert is_isomorphic(bcpm_graph(3), cycle_graph(6))
        assert len(connected_components(bcpm_graph(2))) == 2
        cube = from_edges(
            8,
            [
                (a, b)
                for a in range(8)
                for b in range(a + 1, 8)
                if popcount(a ^ b) == 1
            ],
        )
        g4 = bcpm_graph(4)
        assert is_isomorphic(g4, cube)
        assert nx.diameter(to_nx(g4)) == 3

    def test_petersen(self):
        g = petersen_graph()
        assert g.n == 10 and degrees(g) == [3] * 10
        assert nx.girth(to_nx(g)) == 5
        # vertex 0 is the pair {0,1}; its neighbours are the pairs avoiding both
        assert sorted(bits(g.adj[0])) == [7, 8, 9]

    def test_clebsch(self):
        g = clebsch_graph()
        assert g.n == 16 and degrees(g) == [5] * 16
        assert g.edge_count() == 40
        nbrs = induced_subgraph(g, g.adj[0])
        assert nbrs.edge_count() == 0  # neighbourhoods are independent 5-sets
        rest = g.full_mask & ~g.adj[0] & ~1
        assert is_isomorphic(induced_subgraph(g, rest), petersen_graph())

    def test_two_squares(self):
        g = two_squares_graph()
        parts = bipartition(g)
        assert parts is not None
        assert sorted(map(popcount, parts)) == [3, 3]
        assert induced_cycle_lengths(g) == frozenset({4})

    def test_pcm_example(self):
        g = pcm_example_graph(4)
        assert g.n == 7 and g.edge_count() == 8
        assert bipartition(g) is not None
        assert is_connected(g)
        # the two-squares shape embeds: dropping b3 leaves K_{3,3} minus the
        # 2-matching a1b1, a2b2
        sub = induced_subgraph(g, g.full_mask & ~(1 << 5))
        assert is_isomorphic(sub, two_squares_graph())

    def test_multiclaw(self):
        # blob size 1, no clique: plain complete multipartite
        assert is_isomorphic(multiclaw_graph(0, 1, (2, 2)), cycle_graph(4))
        # one clique vertex joined to two isolated vertices: a 2-edge star
        assert is_isomorphic(multiclaw_graph(1, 1, (2,)), path_graph(2))
        g = multiclaw_graph(2, 3, (2, 3))
        # 2 + 2*3 + 3*3 vertices; blobs are cliques, groups joined completely
        assert g.n == 17
        assert is_connected(g)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (complete_graph, (0,)),
            (cycle_graph, (2,)),
            (path_graph, (-1,)),
            (regular_multipartite_graph, (1, 2)),
            (regular_multipartite_graph, (2, 1)),
            (rook_graph, (1,)),
            (bcpm_graph, (1,)),
            (pcm_example_graph, (3,)),
            (multiclaw_graph, (0, 0, (2,))),
            (multiclaw_graph, (0, 1, ())),
            (multiclaw_graph, (0, 1, (1, 2))),
            (multiclaw_graph, (-1, 1, (2,))),
        ],
    )
    def test_rejects_bad_parameters(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)


class TestTreelike:
    def test_clique_chain_shape(self):
        g = clique_chain(3, 3)
        assert g.n == 7 and g.edge_count() == 9
        assert induced_cycle_lengths(g) == frozenset({3})
        assert clique_chain(4, 1).n == 4

    def test_star_of_cliques(self):
        # three triangles all sharing one vertex: the clique first, then
        # the three blobs
        g = multiclaw_graph(1, 2, (3,))
        assert g.n == 7 and g.edge_count() == 9
        assert popcount(g.adj[0]) == 6  # the shared vertex meets all
        assert induced_cycle_lengths(g) == frozenset({3})

    def test_biclique_chain_shape(self):
        g = biclique_chain(2, 3, 2)
        assert g.n == 9 and bipartition(g) is not None
        assert is_isomorphic(biclique_chain(1, 1, 3), path_graph(3))

    @pytest.mark.parametrize(
        "fn, args, message",
        [
            (clique_chain, (3, 0), "need at least one block"),
            (clique_chain, (3, -1), "need at least one block"),
            (biclique_chain, (2, 2, 0), "need at least one block"),
            (clique_chain, (1, 2), "complete blocks need size >= 2"),
            (clique_chain, (0, 3), "complete blocks need size >= 2"),
            (biclique_chain, (0, 2, 1), "bipartite blocks need both sides >= 1"),
            (biclique_chain, (2, -1, 2), "bipartite blocks need both sides >= 1"),
            (clique_chain, (3, 32), "glued graph would have 65 > 64 vertices"),
            (biclique_chain, (4, 4, 10), "glued graph would have 71 > 64 vertices"),
        ],
    )
    def test_rejects_bad_shapes(self, fn, args, message):
        with pytest.raises(ValueError) as info:
            fn(*args)
        assert str(info.value) == message

    def test_chain_layouts_pinned(self):
        # every chain and every rejection over a grid of parameters, bad
        # ones included, hashed so that a change to a vertex id shows
        def line(name, fn, *args):
            try:
                out = to_graph6(fn(*args))
            except ValueError as e:
                out = f"ValueError: {e}"
            return " ".join([name, *map(str, args), out])

        lines = [
            line("clique_chain", clique_chain, k, c)
            for k in range(-1, 12)
            for c in range(-1, 40)
        ]
        lines += [
            line("biclique_chain", biclique_chain, a, b, c)
            for a in range(-1, 8)
            for b in range(-1, 8)
            for c in range(-1, 30)
        ]
        assert len(lines) == 3044
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "180bd0e91c80a75e167217924f42b357ea44c8ad26bf08aac0e1f72cc878ff1e"
        )


class TestDescriptors:
    def test_dispatch_round_trip(self):
        cases = [
            (FamilyDescriptor("COMPLETE", (4,)), complete_graph(4)),
            (FamilyDescriptor("REGULAR_MULTIPARTITE", (3, 2)), regular_multipartite_graph(3, 2)),
            (FamilyDescriptor("CYCLE", (7,)), cycle_graph(7)),
            (FamilyDescriptor("PATH", (3,)), path_graph(3)),
            (FamilyDescriptor("LINE_KSS", (3,)), rook_graph(3)),
            (FamilyDescriptor("BCPM", (4,)), bcpm_graph(4)),
            (FamilyDescriptor("PETERSEN"), petersen_graph()),
            (FamilyDescriptor("CLEBSCH"), clebsch_graph()),
            (FamilyDescriptor("TWO_SQUARES"), two_squares_graph()),
            (FamilyDescriptor("KN_TREELIKE", (3, 2)), clique_chain(3, 2)),
            (FamilyDescriptor("KMN_TREELIKE", (2, 2, 2)), biclique_chain(2, 2, 2)),
            (FamilyDescriptor("PCM_EXAMPLE", (5,)), pcm_example_graph(5)),
            (FamilyDescriptor("MULTICLAW", (1, 2, 2, 2)), multiclaw_graph(1, 2, (2, 2))),
        ]
        by_tag = {f.tag: f for f in FAMILIES.values() if f.tag is not None}
        assert {c[0].tag for c in cases} == set(by_tag)
        for desc, expected in cases:
            assert by_tag[desc.tag].build(*desc.params) == expected

    def test_descriptor_validation(self):
        with pytest.raises(ValueError, match="^unknown family tag 'NO_SUCH_FAMILY'$"):
            FamilyDescriptor("NO_SUCH_FAMILY", ())
        with pytest.raises(ValueError, match="^CYCLE takes 1 parameters, got 2$"):
            FamilyDescriptor("CYCLE", (3, 4))
        with pytest.raises(ValueError, match="^PETERSEN takes 0 parameters, got 1$"):
            FamilyDescriptor("PETERSEN", (1,))
        with pytest.raises(ValueError, match=r"^MULTICLAW takes 3\+ parameters, got 2$"):
            FamilyDescriptor("MULTICLAW", (1, 2))
        assert str(FamilyDescriptor("BCPM", (4,))) == "bcpm(4)"
        assert str(FamilyDescriptor("MULTICLAW", (1, 2, 2, 3))) == "multiclaw(1,2,2,3)"


# class counts per vertex count (OEIS A000088 / A001349)
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# SHA-256 of the newline-joined graph6 lines of enumerate_graphs(7, ...), as
# the "every mask, dedupe" enumerator produced them
N7_SHA256 = {
    False: "6207d5ea27b8b308d5638de11e576b426bc64b8c51677584817050c700367e8b",
    True: "105860e8b0697294fc2bd533032b06cb6507c6ef528c99f8397442503fb5322b",
}
# and of enumerate_graphs(8, connected_only=False), as the enumerator that
# built every candidate child as a graph produced it
N8_SHA256 = "1f24429b52e47c4eadcfd5657fc25358e374caff5f75ee6d12030643113dd9dc"


def enumerate_by_dedupe(max_n: int) -> list[Graph]:
    """Reference enumerator: extend every representative on n-1 vertices by
    every neighbour mask and keep one graph per canonical form."""
    level = [empty_graph(1)]
    out = list(level)
    for n in range(2, max_n + 1):
        forms = set()
        for g in level:
            for mask in range(1 << (n - 1)):
                rows = [row | (mask >> v & 1) << (n - 1) for v, row in enumerate(g.adj)]
                forms.add(canonical_form(Graph(n, (*rows, mask))))
        level = [from_graph6(f.decode("ascii")) for f in sorted(forms)]
        out += level
    return out


class TestEnumeration:
    def test_all_counts_to_six(self):
        graphs = list(enumerate_graphs(6, connected_only=False))
        by_n: dict[int, int] = {}
        for g in graphs:
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == {n: c for n, c in ALL_COUNTS.items() if n <= 6}

    def test_connected_counts_to_seven(self):
        by_n: dict[int, int] = {}
        for g in enumerate_graphs(7):
            assert is_connected(g)
            by_n[g.n] = by_n.get(g.n, 0) + 1
        assert by_n == {n: c for n, c in CONNECTED_COUNTS.items() if n <= 7}

    def test_counts_to_eight(self, rebind):
        # 8 is the intended ceiling, so no warning; one canonical labelling
        # per class above one vertex, and 27 for children that are not kept
        # (22 264 with every neighbour mask)
        calls = []
        rebind(
            _canonical_labelling,
            lambda *a, **k: calls.append(1) or _canonical_labelling(*a, **k),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            graphs = list(enumerate_graphs(8, connected_only=False))
        assert Counter(g.n for g in graphs) == ALL_COUNTS
        assert Counter(g.n for g in graphs if is_connected(g)) == CONNECTED_COUNTS
        assert len(calls) == 13624
        lines = "\n".join(to_graph6(g) for g in graphs)
        assert hashlib.sha256(lines.encode()).hexdigest() == N8_SHA256

    def test_levels_built_from_canonical_rows(self, rebind):
        # each level's graphs are built from the rows the labelling returned;
        # no graph6 string is parsed again
        def refuse(*_args):
            raise AssertionError("enumerate_graphs parsed a graph6 string")

        rebind(from_graph6, refuse)
        graphs = enumerate_graphs(6, connected_only=False)
        assert Counter(g.n for g in graphs) == {n: c for n, c in ALL_COUNTS.items() if n <= 6}

    def test_yielded_graphs_are_not_kept_as_parents(self):
        # a level is kept as its rows, not as the graphs it yielded, so what a
        # caller computes on a graph is freed when the caller drops it
        graphs = enumerate_graphs(6, connected_only=False)
        alive = [weakref.ref(g) for g in itertools.islice(graphs, 52)]  # every graph on <= 5 vertices
        assert sum(r() is not None for r in alive) <= 1  # the generator holds the last in hand
        assert next(graphs).n == 6

    def test_generator_search_shared_with_the_caller(self, monkeypatch):
        # the enumerator reads a parent's generators off the graph it
        # yielded once the caller is done with it, so a caller that searched
        # them (as a sweep record's oracle does) leaves nothing to search
        # again: one search per graph, where a rebuilt parent made its own
        calls = count_kept_steps(monkeypatch)
        for g in enumerate_graphs(6, connected_only=False):
            automorphism_generators(g)
        searches = [k for k in calls if k[0] == "automorphism_generators"]
        assert len(searches) == 208 and {calls[k] for k in searches} == {1}
        calls.clear()
        list(enumerate_graphs(6, connected_only=False))
        assert sum(calls.values()) == 52  # the graphs on <= 5 vertices, as parents

    def test_matches_dedupe_enumerator_to_six(self):
        ours = [to_graph6(g) for g in enumerate_graphs(6, connected_only=False)]
        assert ours == [to_graph6(g) for g in enumerate_by_dedupe(6)]

    @pytest.mark.parametrize("connected", [False, True], ids=["all", "connected"])
    def test_lists_to_seven_are_pinned(self, connected):
        lines = [to_graph6(g) for g in enumerate_graphs(7, connected_only=connected)]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == N7_SHA256[connected]

    def test_labelling_count_to_seven(self, rebind):
        # the dedupe enumerator labels all 11 290 children; canonical
        # augmentation refines only the children whose new vertex has
        # maximum degree, and labels only those where it has the top colour,
        # from one neighbour mask per orbit of the parent's automorphisms
        # (2 365 labellings with every mask)
        calls, refined = [], []
        rebind(
            _canonical_labelling,
            lambda *a, **k: calls.append(1) or _canonical_labelling(*a, **k),
        )
        rebind(_refined_colors, lambda adj: refined.append(1) or _refined_colors(adj))
        list(enumerate_graphs(7, connected_only=False))
        assert len(calls) == 1253
        assert len(refined) == 1639

    def test_children_are_screened_as_rows(self, monkeypatch):
        # a candidate child stays adjacency rows: a graph is built for each
        # of the 1 252 graphs yielded, and for the 13 children whose orbit
        # check needs an isomorphism search (3 100 when every child
        # refined was built as a graph)
        built = []
        validate = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__", lambda g: built.append(1) or validate(g))
        assert sum(1 for _ in enumerate_graphs(7, connected_only=False)) == 1252
        assert len(built) <= 1266

    def test_representatives_are_canonical_and_ordered(self):
        # sweep takes this order as it comes, without sorting again
        for connected in (True, False):
            graphs = list(enumerate_graphs(7, connected_only=connected))
            keys = [(g.n, canonical_form(g)) for g in graphs]
            assert keys == sorted(keys)
            assert len(set(keys)) == len(keys)
        for g in graphs:
            assert canonical_form(g) == canonical_form(g)  # stable
        # spot checks: exactly one complete graph per size, one 5-cycle
        assert sum(1 for g in graphs if g.n == 5 and g.edge_count() == 10) == 1
        assert sum(
            1
            for g in graphs
            if g.n == 5 and is_isomorphic(g, cycle_graph(5))
        ) == 1

    def test_matches_labelled_iteration_at_four(self):
        # independent oracle: canonicalise every labelled 4-vertex graph
        pairs = list(itertools.combinations(range(4), 2))
        forms = set()
        for picks in range(1 << len(pairs)):
            edges = [p for i, p in enumerate(pairs) if picks >> i & 1]
            forms.add(canonical_form(from_edges(4, edges)))
        ours = {
            canonical_form(g)
            for g in enumerate_graphs(4, connected_only=False)
            if g.n == 4
        }
        assert ours == forms

    def test_bounds(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(0))
        with pytest.raises(ValueError):
            list(enumerate_graphs(10))

    def test_warns_above_eight(self):
        # the warning comes before the first graph, so nothing on 9 vertices
        # is built
        with pytest.warns(UserWarning, match="on 9 vertices is slow"):
            first = next(enumerate_graphs(9))
        assert first.n == 1

"""Morphism machinery: frozen counts, completion, automorphisms, cores."""

from __future__ import annotations

import gc
import itertools
import random
from collections import Counter, defaultdict

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhom.families import (
    bcpm_graph,
    clebsch_graph,
    clique_chain,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    path_graph,
    petersen_graph,
    rook_graph,
    two_squares_graph,
)
from homhom.graphs import (
    Graph,
    bits,
    disjoint_union,
    from_edges,
    induced_subgraph,
    mask_of,
    popcount,
)
from homhom.morphisms import (
    MorphKind,
    _variable_order,
    automorphism_generators,
    check_kind,
    complete_map,
    core_mask,
    enumerate_morphisms,
    orbit_closure,
)
from homhom.oracle import is_class_member, query_for_code
from helpers import is_isomorphic

HOMO, MONO, ISO = MorphKind.HOMO, MorphKind.MONO, MorphKind.ISO


def group_order_from_generators(n: int, gens) -> int:
    """The product over b of the orbit length of b under the generators
    that fix 0..b-1.  Those orbits lie inside the orbits of the stabilisers
    in the generated group H, so the product is at most |H|, and it equals
    |H| for a strong generating set relative to the base 0, 1, ..., n-1.
    So a product equal to |Aut(g)| shows the generators generate Aut(g)."""
    order = 1
    for b in range(n):
        level = [p for p in gens if all(p[u] == u for u in range(b))]
        order *= popcount(orbit_closure(1 << b, level))
    return order


def random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return from_edges(n, edges)


graph_strategy = st.builds(
    random_graph, n=st.integers(1, 6), seed=st.integers(0, 10**6)
)


def relabelled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def to_nx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


def reference_variable_order(g: Graph, domain_mask: int) -> list[int]:
    """The variable order by definition: each step takes the least of the
    rest under (most ordered neighbours, highest degree in the domain,
    least id)."""
    order: list[int] = []
    placed = 0
    rest = set(bits(domain_mask))
    while rest:
        v = min(
            rest,
            key=lambda v: (
                -popcount(g.adj[v] & placed),
                -popcount(g.adj[v] & domain_mask),
                v,
            ),
        )
        order.append(v)
        placed |= 1 << v
        rest.remove(v)
    return order


class TestVariableOrder:
    def test_matches_reference_on_every_domain_of_small_graphs(self):
        graphs = list(enumerate_graphs(7, connected_only=False))
        assert len(graphs) == 1252
        for g in graphs:
            for domain in range(1, 1 << g.n):
                want = reference_variable_order(g, domain)
                assert _variable_order(g, domain) == want, (g, domain)

    @pytest.mark.parametrize(
        "g",
        [rook_graph(4), petersen_graph(), clique_chain(2, 12)],
        ids=["rook4", "petersen", "clique-chain-2-12"],
    )
    def test_matches_reference_on_random_domains(self, g):
        rng = random.Random(2026)
        for _ in range(3_000):
            domain = rng.getrandbits(g.n) or 1
            want = reference_variable_order(g, domain)
            assert _variable_order(g, domain) == want, (g, domain)


class TestCheckKind:
    def test_partial_maps(self):
        c4, k2 = cycle_graph(4), complete_graph(2)
        assert check_kind(c4, k2, {0: 0, 1: 1}, HOMO)
        assert not check_kind(c4, k2, {0: 0, 1: 0}, HOMO)  # edge collapsed
        assert check_kind(c4, k2, {0: 0, 2: 1}, HOMO)  # non-edge, anything goes
        assert not check_kind(c4, k2, {0: 0, 2: 1}, ISO)  # non-edge hits edge
        assert not check_kind(c4, c4, {0: 0, 2: 0}, MONO)  # not injective
        assert check_kind(c4, c4, {0: 0, 2: 2}, ISO)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            check_kind(complete_graph(2), complete_graph(2), {0: 5}, HOMO)


class TestCounts:
    @pytest.mark.parametrize(
        "g1, g2, kind, expected",
        [
            (complete_graph(2), complete_graph(3), HOMO, 6),
            (complete_graph(3), complete_graph(2), HOMO, 0),
            (cycle_graph(5), cycle_graph(5), ISO, 10),
            (complete_graph(2), complete_graph(3), MONO, 6),
            (complete_graph(2), complete_graph(2), HOMO, 2),
            (path_graph(2), complete_graph(2), HOMO, 2),
            (complete_graph(2), cycle_graph(4), ISO, 8),
        ],
    )
    def test_frozen_counts(self, g1, g2, kind, expected):
        assert sum(1 for _ in enumerate_morphisms(g1, g2, kind)) == expected

    def test_domain_restriction(self):
        # maps out of one edge of C_4 into K_3: six embeddings
        c4 = cycle_graph(4)
        maps = enumerate_morphisms(c4, complete_graph(3), ISO, mask_of([0, 1]))
        assert sum(1 for _ in maps) == 6

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_morphisms(cycle_graph(4), cycle_graph(4), HOMO, 0))
        with pytest.raises(ValueError):
            list(enumerate_morphisms(cycle_graph(4), cycle_graph(4), HOMO, 1 << 6))

    def test_deterministic_stream(self):
        a = list(enumerate_morphisms(cycle_graph(5), complete_graph(3), HOMO))
        b = list(enumerate_morphisms(cycle_graph(5), complete_graph(3), HOMO))
        assert a == b and len(a) == 30  # 5-cycle into a triangle: 30 maps

    @given(graph_strategy, st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_every_enumerated_map_checks_out(self, g, seed):
        h = random_graph(4, seed)
        for kind in (HOMO, MONO, ISO):
            for i, m in enumerate(enumerate_morphisms(g, h, kind)):
                assert check_kind(g, h, m, kind)
                assert set(m) == set(range(g.n))
                if i > 200:
                    break


class TestCompletion:
    def test_extend_partial_automorphism(self):
        c4 = cycle_graph(4)
        m = complete_map(c4, c4, {0: 0}, ISO)
        assert m is not None and check_kind(c4, c4, m, ISO) and len(m) == 4
        # 0 and 2 are non-adjacent; 0 and 1 adjacent, so no automorphism
        assert complete_map(c4, c4, {0: 0, 2: 1}, ISO) is None

    def test_extend_endomorphism_collapse(self):
        # C_6 folds onto one edge
        c6 = cycle_graph(6)
        m = complete_map(c6, c6, {0: 0, 1: 1}, HOMO, allowed_mask=mask_of([0, 1]))
        assert m is not None
        assert set(m.values()) <= {0, 1}
        assert check_kind(c6, c6, m, HOMO)

    def test_odd_cycle_does_not_collapse(self):
        c5 = cycle_graph(5)
        assert complete_map(c5, c5, {}, HOMO, allowed_mask=mask_of([0, 1])) is None

    def test_iso_between_requires_same_size(self):
        assert complete_map(complete_graph(2), complete_graph(3), {}, ISO) is None
        m = complete_map(cycle_graph(4), cycle_graph(4), {}, ISO)
        assert m is not None

    def test_mono_completion_rejected(self):
        with pytest.raises(ValueError):
            complete_map(cycle_graph(4), cycle_graph(4), {}, MONO)

    def test_invalid_partial_returns_none(self):
        k3 = complete_graph(3)
        assert complete_map(k3, complete_graph(2), {0: 0, 1: 0}, HOMO) is None

    @given(graph_strategy)
    @settings(max_examples=30, deadline=None)
    def test_completion_agrees_with_enumeration(self, g):
        h = complete_graph(3)
        found = complete_map(g, h, {}, HOMO)
        total = sum(1 for _ in enumerate_morphisms(g, h, HOMO))
        assert (found is not None) == (total > 0)
        if found is not None:
            assert check_kind(g, h, found, HOMO) and len(found) == g.n

    @pytest.mark.parametrize(
        "code, holds", [("iso-iso", True), ("mono-homo", False), ("homo-homo", False)]
    )
    def test_searches_leave_no_reference_cycles(self, code, holds):
        # the recursive searches are module-level functions, so the
        # refcounts free everything they build without the cyclic collector
        g = petersen_graph()
        gc.collect()
        gc.disable()
        try:
            assert is_class_member(g, query_for_code(code)).holds == holds
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestIsomorphism:
    @given(
        st.builds(random_graph, n=st.integers(1, 9), seed=st.integers(0, 10**6)),
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_relabelled_copies(self, g, seed):
        assert is_isomorphic(g, relabelled(g, random.Random(seed)))

    def test_distinguishes(self):
        # same degree sequence (all 2s): triangle+triangle vs hexagon
        assert not is_isomorphic(disjoint_union(complete_graph(3), complete_graph(3)), cycle_graph(6))
        assert is_isomorphic(cycle_graph(6), cycle_graph(6))

    def test_agrees_with_networkx_on_equal_degree_sequences(self):
        # every pair of graphs with at most 6 vertices that shares a degree
        # sequence, the second relabelled, so only the search tells them apart
        rng = random.Random(6)
        groups = defaultdict(list)
        for g in enumerate_graphs(6, connected_only=False):
            groups[g.n, tuple(sorted(map(popcount, g.adj)))].append(g)
        verdicts = Counter()
        for group in groups.values():
            for g1, g2 in itertools.combinations_with_replacement(group, 2):
                h = relabelled(g2, rng)
                same = is_isomorphic(g1, h)
                assert same == nx.is_isomorphic(to_nx(g1), to_nx(h)), (g1, g2)
                verdicts[same] += 1
        assert verdicts[True] == 208 and verdicts[False] > 0

    def test_shrikhande_is_not_rook4(self, shrikhande):
        # the one input that passes the rook(4) filters of the iso-iso
        # recognizer without being rook(4)
        rook = rook_graph(4)
        assert shrikhande.edge_count() == rook.edge_count()
        assert sorted(map(popcount, shrikhande.adj)) == sorted(map(popcount, rook.adj))
        assert not is_isomorphic(shrikhande, rook)
        assert not nx.is_isomorphic(to_nx(shrikhande), to_nx(rook))
        assert is_isomorphic(shrikhande, relabelled(shrikhande, random.Random(16)))
        assert is_isomorphic(rook, relabelled(rook, random.Random(16)))

    def test_induced_embedding_facts(self):
        # the induced-embedding reference of the recognizer tests
        def embeds(pattern, host):
            return next(enumerate_morphisms(pattern, host, ISO), None) is not None

        assert embeds(path_graph(2), cycle_graph(6))
        assert not embeds(path_graph(2), complete_graph(4))  # the 2-path needs a non-edge
        assert embeds(complete_graph(3), complete_graph(4))
        assert not embeds(cycle_graph(4), cycle_graph(6))  # no induced square in a hexagon
        assert embeds(cycle_graph(6), cycle_graph(6))


def degree_only_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``automorphism_generators`` as it was when it tried every image of
    b's degree: the reference for the search that skips more images."""
    degrees = [popcount(row) for row in g.adj]
    gens: list[tuple[int, ...]] = []
    for b in range(g.n - 2, -1, -1):
        orbit = 1 << b
        for v in range(b + 1, g.n):
            if orbit >> v & 1 or degrees[v] != degrees[b]:
                continue
            m = complete_map(g, g, {**{u: u for u in range(b)}, b: v}, ISO)
            if m is not None:
                gens.append(tuple(m[u] for u in range(g.n)))
                orbit = orbit_closure(orbit, gens)
    return tuple(gens)


class TestAutomorphisms:
    @pytest.mark.parametrize(
        "g, order",
        [
            (complete_graph(4), 24),
            (cycle_graph(5), 10),
            (path_graph(3), 2),
            (two_squares_graph(), 4),
            (petersen_graph(), 120),
            (complete_graph(8), 40_320),
            (rook_graph(4), 1_152),
        ],
    )
    def test_group_orders(self, g, order):
        auts = list(enumerate_morphisms(g, g, ISO))
        assert len(auts) == order
        gens = automorphism_generators(g)
        assert group_order_from_generators(g.n, gens) == order

    @pytest.mark.parametrize(
        "make",
        [lambda: complete_graph(8), lambda: rook_graph(4), clebsch_graph],
        ids=["K8", "rook4", "clebsch"],
    )
    def test_generators_never_enumerate_the_group(self, make, rebind):
        # K8 has 40 320 automorphisms; individualisation finds 7 generators,
        # rook(4) 6 and Clebsch 5, each with the one completion that found it
        def refuse(*args, **kwargs):
            raise AssertionError("the automorphism group was enumerated")

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return complete_map(*args, **kwargs)

        rebind(enumerate_morphisms, refuse)
        rebind(complete_map, counted)
        g = make()
        gens = automorphism_generators(g)
        assert len(calls) == len(gens) <= g.n - 1
        assert all(sorted(p) == list(range(g.n)) for p in gens)

    @pytest.mark.parametrize(
        "graphs",
        [
            lambda: enumerate_graphs(7),
            lambda: [
                complete_graph(8), rook_graph(4), petersen_graph(), clebsch_graph(), bcpm_graph(5)
            ],
        ],
        ids=["n<=7", "named"],
    )
    def test_generators_match_the_degree_only_search(self, graphs):
        # the same generators as the search that tries every image of b's
        # degree, so the images skipped for their neighbours among 0..b-1
        # are only ones that complete_map refuses
        for g in graphs():
            assert automorphism_generators(g) == degree_only_generators(g), g

    def test_clebsch_group_order(self):
        g = clebsch_graph()
        gens = automorphism_generators(g)
        assert group_order_from_generators(g.n, gens) == 1920

    @given(graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx(self, g):
        nxg = to_nx(g)
        matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
        auts = enumerate_morphisms(g, g, ISO)
        assert sum(1 for _ in auts) == sum(1 for _ in matcher.isomorphisms_iter())


class TestHomEquivalence:
    def test_basics(self):
        assert complete_map(cycle_graph(6), complete_graph(2), {}, HOMO) is not None
        assert complete_map(complete_graph(2), cycle_graph(6), {}, HOMO) is not None
        assert complete_map(complete_graph(2), complete_graph(3), {}, HOMO) is not None
        assert complete_map(complete_graph(3), complete_graph(2), {}, HOMO) is None
        assert complete_map(cycle_graph(5), complete_graph(3), {}, HOMO) is not None


class TestCores:
    @pytest.mark.parametrize(
        "g, expected",
        [
            (cycle_graph(6), complete_graph(2)),
            (cycle_graph(5), cycle_graph(5)),
            (complete_graph(4), complete_graph(4)),
            (path_graph(3), complete_graph(2)),
            (two_squares_graph(), complete_graph(2)),
            (bcpm_graph(4), complete_graph(2)),
            (clique_chain(3, 3), complete_graph(3)),
            (disjoint_union(complete_graph(3), complete_graph(2)), complete_graph(3)),
            (Graph(3, (0, 0, 0)), Graph(1, (0,))),
        ],
    )
    def test_known_cores(self, g, expected):
        assert is_isomorphic(induced_subgraph(g, core_mask(g)), expected)

    def test_core_mask_is_deterministic_retract(self):
        g = cycle_graph(6)
        m = core_mask(g)
        assert popcount(m) == 2
        fixed = {v: v for v in range(6) if m >> v & 1}
        r = complete_map(g, g, fixed, HOMO, allowed_mask=m)
        assert r is not None and mask_of(r.values()) == m
        assert core_mask(g) == m  # repeatable

    @given(graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_core_is_hom_equivalent_and_minimal(self, g):
        c = induced_subgraph(g, core_mask(g))
        assert complete_map(g, c, {}, HOMO) is not None
        assert complete_map(c, g, {}, HOMO) is not None
        # a core has no proper retract: its own core is itself
        assert induced_subgraph(c, core_mask(c)).n == c.n

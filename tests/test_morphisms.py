"""Morphism machinery: frozen counts, completion, automorphisms, cores."""

from __future__ import annotations

import gc

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
    path_graph,
    petersen_graph,
    rook_graph,
    two_squares_graph,
)
from homhom.graphs import (
    Graph,
    disjoint_union,
    from_edges,
    is_isomorphic,
    mask_of,
    popcount,
)
from homhom.morphisms import (
    MorphKind,
    automorphism_generators,
    automorphisms,
    check_kind,
    complete_map,
    core_mask,
    core_of,
    count_morphisms,
    enumerate_morphisms,
    extend_to_automorphism,
    extend_to_endomorphism,
    group_order_from_generators,
    has_homomorphism,
    hom_equivalent,
)
from homhom.oracle import is_class_member, query_for_code

HOMO, MONO, ISO = MorphKind.HOMO, MorphKind.MONO, MorphKind.ISO


def random_graph(n: int, seed: int) -> Graph:
    import random

    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return from_edges(n, edges)


graph_strategy = st.builds(
    random_graph, n=st.integers(1, 6), seed=st.integers(0, 10**6)
)


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
        assert count_morphisms(g1, g2, kind) == expected

    def test_domain_restriction(self):
        # maps out of one edge of C_4 into K_3: six embeddings
        c4 = cycle_graph(4)
        assert count_morphisms(c4, complete_graph(3), ISO, mask_of([0, 1])) == 6

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            list(enumerate_morphisms(cycle_graph(4), cycle_graph(4), HOMO, 0))
        with pytest.raises(ValueError):
            list(enumerate_morphisms(cycle_graph(4), cycle_graph(4), HOMO, 1 << 6))

    def test_deterministic_stream(self):
        a = list(enumerate_morphisms(cycle_graph(5), complete_graph(3), HOMO))
        b = list(enumerate_morphisms(cycle_graph(5), complete_graph(3), HOMO))
        assert a == b and len(a) == 30  # 5-cycle into a triangle: 30 maps

    def test_first_images_split_the_stream(self):
        # the first vertex of the variable order is 0 here (all degrees tie)
        c5, k3 = cycle_graph(5), complete_graph(3)
        parts = [
            list(enumerate_morphisms(c5, k3, HOMO, first_images=1 << w))
            for w in range(3)
        ]
        assert [{m[0] for m in part} for part in parts] == [{0}, {1}, {2}]
        assert sum(parts, []) == list(enumerate_morphisms(c5, k3, HOMO))

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
        m = extend_to_automorphism(c4, {0: 0})
        assert m is not None and check_kind(c4, c4, m, ISO) and len(m) == 4
        # 0 and 2 are non-adjacent; 0 and 1 adjacent, so no automorphism
        assert extend_to_automorphism(c4, {0: 0, 2: 1}) is None

    def test_extend_endomorphism_collapse(self):
        # C_6 folds onto one edge
        c6 = cycle_graph(6)
        m = extend_to_endomorphism(c6, {0: 0, 1: 1}, allowed_mask=mask_of([0, 1]))
        assert m is not None
        assert set(m.values()) <= {0, 1}
        assert check_kind(c6, c6, m, HOMO)

    def test_odd_cycle_does_not_collapse(self):
        c5 = cycle_graph(5)
        assert extend_to_endomorphism(c5, {}, allowed_mask=mask_of([0, 1])) is None

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
        total = count_morphisms(g, h, HOMO)
        assert (found is not None) == (total > 0)
        if found is not None:
            assert check_kind(g, h, found, HOMO) and len(found) == g.n

    @pytest.mark.parametrize("code, holds", [("iso-iso", True), ("homo-homo", False)])
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
        auts = automorphisms(g)
        assert len(auts) == order
        gens = automorphism_generators(g)
        assert group_order_from_generators(g.n, gens) == order

    @pytest.mark.parametrize(
        "make",
        [lambda: complete_graph(8), lambda: rook_graph(4), clebsch_graph],
        ids=["K8", "rook4", "clebsch"],
    )
    def test_generators_never_enumerate_the_group(self, make, rebind):
        # K8 has 40 320 automorphisms; individualisation finds 7 generators
        # with at most 28 completions, rook(4) 6 and Clebsch 5
        def refuse(*args, **kwargs):
            raise AssertionError("the automorphism group was enumerated")

        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return complete_map(*args, **kwargs)

        rebind(enumerate_morphisms, refuse)
        rebind(complete_map, counted)
        g = make()  # a new object, so the memo cannot answer
        gens = automorphism_generators(g)
        assert len(calls) <= g.n * (g.n - 1) // 2
        assert len(gens) <= g.n - 1
        assert all(sorted(p) == list(range(g.n)) for p in gens)

    def test_clebsch_group_order(self):
        g = clebsch_graph()
        gens = automorphism_generators(g)
        assert group_order_from_generators(g.n, gens) == 1920

    @given(graph_strategy)
    @settings(max_examples=25, deadline=None)
    def test_matches_networkx(self, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        matcher = nx.algorithms.isomorphism.GraphMatcher(nxg, nxg)
        assert len(automorphisms(g)) == sum(1 for _ in matcher.isomorphisms_iter())


class TestHomEquivalence:
    def test_basics(self):
        assert hom_equivalent(cycle_graph(6), complete_graph(2))
        assert not hom_equivalent(complete_graph(3), complete_graph(2))
        assert has_homomorphism(complete_graph(2), complete_graph(3))
        assert not has_homomorphism(complete_graph(3), complete_graph(2))
        assert has_homomorphism(cycle_graph(5), complete_graph(3))


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
        assert is_isomorphic(core_of(g), expected)

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
        c = core_of(g)
        assert hom_equivalent(g, c)
        # a core has no proper retract: its own core is itself
        assert core_of(c).n == c.n

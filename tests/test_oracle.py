"""Exhaustive-oracle tests: frozen memberships, engine agreement, witnesses."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhom import morphisms, oracle
from homhom.families import (
    bcpm_graph,
    clique_chain,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    path_graph,
    petersen_graph,
    regular_multipartite_graph,
    rook_graph,
    two_squares_graph,
)
from homhom.graphs import (
    Graph,
    bits,
    connected_within,
    disjoint_union,
    from_edges,
    from_graph6,
    mask_of,
)
from homhom.morphisms import (
    MorphKind,
    automorphism_generators,
    automorphisms,
    complete_map,
    enumerate_morphisms,
)
from homhom.oracle import (
    CLASS_CODES,
    BudgetExceededError,
    ClassQuery,
    extension_morphic,
    extension_symmetric,
    is_class_member,
    member_via_components,
    query_for_code,
    validate_witness,
)

HOMO, MONO, ISO = MorphKind.HOMO, MorphKind.MONO, MorphKind.ISO


def memberships(g: Graph, **opts) -> dict[str, bool]:
    return {
        code: is_class_member(g, query_for_code(code), **opts).holds
        for code in CLASS_CODES
    }


def random_graph(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return from_edges(n, edges)


def relabelled(g: Graph, seed: int) -> Graph:
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def star_graph(n: int, centre: int) -> Graph:
    return from_edges(n, [(centre, v) for v in range(n) if v != centre])


class TestQueryCodes:
    def test_round_trip(self):
        for code in CLASS_CODES:
            q = query_for_code(code)
            assert q.code == code and q.connected_sources

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            query_for_code("iso")
        with pytest.raises(ValueError):
            query_for_code("iso-epi")
        with pytest.raises(ValueError):
            ClassQuery(ISO, MONO)


#: frozen membership profiles, order: iso-iso, mono-iso, homo-iso,
#: iso-homo, mono-homo, homo-homo
PROFILES = [
    (complete_graph(1), (1, 1, 1, 1, 1, 1)),
    (complete_graph(3), (1, 1, 1, 1, 1, 1)),
    (cycle_graph(5), (1, 1, 0, 1, 1, 0)),
    (cycle_graph(6), (1, 1, 0, 1, 1, 1)),
    (cycle_graph(7), (1, 1, 0, 1, 1, 0)),
    (path_graph(3), (0, 0, 0, 1, 1, 1)),
    (two_squares_graph(), (0, 0, 0, 1, 1, 1)),
    (regular_multipartite_graph(2, 3), (1, 1, 0, 1, 1, 1)),  # K_{3,3}
    (disjoint_union(complete_graph(3), complete_graph(3)), (1, 1, 1, 1, 1, 1)),
    (disjoint_union(complete_graph(3), complete_graph(2)), (0, 0, 0, 0, 0, 0)),
    (Graph(3, (0, 0, 0)), (1, 1, 1, 1, 1, 1)),  # independent set
]


class TestFrozenProfiles:
    @pytest.mark.parametrize("g, profile", PROFILES)
    def test_profile(self, g, profile):
        got = tuple(int(b) for b in memberships(g).values())
        assert got == profile

    def test_connected_flag_matters(self):
        # the 6-cycle extends all its connected embeddings, but an antipodal
        # independent pair maps to a distance-2 pair: no automorphism does that
        c6 = cycle_graph(6)
        assert is_class_member(c6, ClassQuery(ISO, ISO, True)).holds
        res = is_class_member(c6, ClassQuery(ISO, ISO, False))
        assert not res.holds
        assert validate_witness(c6, c6, ClassQuery(ISO, ISO, False), res.witness)

    def test_petersen_spot_checks(self):
        g = petersen_graph()
        assert is_class_member(g, query_for_code("iso-iso")).holds
        res = is_class_member(g, query_for_code("mono-iso"))
        assert not res.holds
        assert validate_witness(g, g, query_for_code("mono-iso"), res.witness)


def brute_force_sources(g: Graph, connected: bool, reduce: bool) -> list[int]:
    """The per-map sources by definition: every subset, connected ones when
    asked, smallest first and then in ``tuple(bits)`` order; with ``reduce``,
    the first subset of each orbit under the whole automorphism group."""
    masks = [
        m
        for size in range(1, g.n + 1)
        for m in map(mask_of, itertools.combinations(range(g.n), size))
        if not connected or connected_within(g, m)
    ]
    if not reduce:
        return masks
    auts = automorphisms(g)
    seen: set[int] = set()
    reps = []
    for m in masks:
        if m not in seen:
            reps.append(m)
            seen.update(mask_of(a[v] for v in bits(m)) for a in auts)
    return reps


def grown_sources(g: Graph, connected: bool, reduce: bool) -> list[int]:
    gens = automorphism_generators(g) if reduce else ()
    return oracle._source_representatives(g, connected, gens)


class TestSourceRepresentatives:
    def test_match_brute_force_on_all_small_graphs(self):
        graphs = list(enumerate_graphs(6, connected_only=False))
        assert len(graphs) == 208
        for g in graphs:
            for connected, reduce in itertools.product((True, False), repeat=2):
                want = brute_force_sources(g, connected, reduce)
                assert grown_sources(g, connected, reduce) == want, (
                    g,
                    connected,
                    reduce,
                )

    @pytest.mark.parametrize(
        "g",
        [
            rook_graph(3),
            petersen_graph(),
            bcpm_graph(4),
            cycle_graph(12),
            regular_multipartite_graph(3, 3),
        ],
        ids=["rook3", "petersen", "bcpm4", "cycle12", "K333"],
    )
    @pytest.mark.parametrize("connected", [True, False])
    @pytest.mark.parametrize("reduce", [True, False])
    def test_match_brute_force_on_named_graphs(self, g, connected, reduce):
        want = brute_force_sources(g, connected, reduce)
        assert grown_sources(g, connected, reduce) == want


class TestEngineAgreement:
    def test_one_point_matches_per_map_on_all_small_graphs(self):
        q = query_for_code("homo-homo")
        for g in enumerate_graphs(5, connected_only=False):
            fast = is_class_member(g, q)
            slow = is_class_member(g, q, force_per_map=True)
            assert fast.holds == slow.holds, g

    def test_one_point_matches_per_map_on_all_small_pairs(self):
        # 18 graphs on at most 4 vertices, 324 ordered pairs; the diagonal
        # passes the same object twice, which shares the vertex orbits.
        # Then 400 sampled pairs with g1 on 5-6 vertices and g2 on at most
        # 5: g2 is never g1, so the seeds come from g2's own orbits, and the
        # candidate fields are g2.n bits wide for a g1 of another size
        q = query_for_code("homo-homo")
        graphs = list(enumerate_graphs(4, connected_only=False))
        assert len(graphs) == 18
        sources = [g for g in enumerate_graphs(6, connected_only=False) if g.n >= 5]
        targets = list(enumerate_graphs(5, connected_only=False))
        rng = random.Random(2026)
        pairs = [(g1, g2) for g1 in graphs for g2 in graphs] + [
            (rng.choice(sources), rng.choice(targets)) for _ in range(400)
        ]
        for g1, g2 in pairs:
            fast = extension_morphic(g1, g2, q)
            slow = extension_morphic(g1, g2, q, force_per_map=True)
            assert fast.holds == slow.holds, (g1, g2)
            if not fast.holds:
                assert validate_witness(g1, g2, q, fast.witness), (g1, g2)

    def test_vertex_orbits_match_the_automorphism_group(self):
        for g in enumerate_graphs(6, connected_only=False):
            auts = automorphisms(g)
            want = sorted(
                {mask_of(a[v] for a in auts) for v in range(g.n)},
                key=lambda m: m & -m,
            )
            assert oracle._vertex_orbits(g) == want, g

    def test_k8_counter_gate_never_enumerates_the_group(self, rebind):
        # the start orbits come from the generators: at most n(n-1)/2 = 28
        # completions on a fresh K8, and no morphism is enumerated
        def refuse(*args, **kwargs):
            raise AssertionError("the one-point engine enumerated morphisms")

        completions = []
        rebind(enumerate_morphisms, refuse)
        rebind(
            complete_map, lambda *args: completions.append(args) or complete_map(*args)
        )
        res = is_class_member(
            complete_graph(8), query_for_code("homo-homo"), state_limit=5_000
        )
        assert res.holds and res.checked_maps <= 5_000  # 3 432 (D, cand) keys
        assert len(completions) <= 8 * 7 // 2

    @pytest.mark.parametrize("centre", [0, 7])
    def test_star_decided_whatever_its_labels(self, centre):
        # K_{1,7}: keyed by phi, centre 0 took over 2 M states and centre 7
        # took 262 k; keyed by (D, cand) they take 257 and 131
        g = star_graph(8, centre)
        res = is_class_member(g, query_for_code("homo-homo"), state_limit=1_000)
        assert res.holds and res.checked_maps <= 1_000

    def test_connected_population_counter_gate(self):
        # all 996 connected graphs on at most 7 vertices pop 40 631 states
        # (423 575 when states were keyed by phi)
        q = query_for_code("homo-homo")
        total = sum(
            is_class_member(g, q).checked_maps
            for g in enumerate_graphs(7, connected_only=True)
        )
        assert total <= 45_000

    @given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_verdicts_survive_relabelling(self, n1, n2, seed):
        q = query_for_code("homo-homo")
        g1 = random_graph(n1, seed)
        g2 = random_graph(n2, seed + 1)
        h1, h2 = relabelled(g1, seed + 2), relabelled(g2, seed + 3)
        runs = [
            (g1, g2, extension_morphic(g1, g2, q)),
            (h1, h2, extension_morphic(h1, h2, q)),
            (g1, g1, is_class_member(g1, q)),
            (h1, h1, is_class_member(h1, q)),
        ]
        assert runs[0][2].holds == runs[1][2].holds
        assert runs[2][2].holds == runs[3][2].holds
        for a, b, res in runs:
            if not res.holds:
                assert validate_witness(a, b, q, res.witness)

    @pytest.mark.parametrize(
        "g, message",
        [
            (
                star_graph(8, 0),
                "more than 5 partial-map states (popped 1, seeding phase 1 "
                "of 2, largest domain 2 of 8 vertices)",
            ),
            (
                star_graph(8, 7),
                "more than 5 partial-map states (popped 2, seeding phase 1 "
                "of 2, largest domain 3 of 8 vertices)",
            ),
        ],
        ids=["centre-0", "centre-7"],
    )
    def test_state_budget_error_says_how_far_it_got(self, g, message):
        with pytest.raises(BudgetExceededError) as info:
            is_class_member(g, query_for_code("homo-homo"), state_limit=5)
        assert str(info.value) == message

    def test_generators_computed_once_per_graph_object(self, monkeypatch, rebind):
        calls = []
        real = morphisms._generating_set
        monkeypatch.setattr(
            morphisms, "_generating_set", lambda g: calls.append(g) or real(g)
        )
        g = cycle_graph(6)
        for code in CLASS_CODES[:5]:  # the per-map classes
            is_class_member(g, query_for_code(code))
        assert calls == [g]
        # the one-point engine reads its start orbits off the same generators
        completions = []
        rebind(
            complete_map, lambda *args: completions.append(args) or complete_map(*args)
        )
        assert is_class_member(g, query_for_code("homo-homo")).holds
        assert calls == [g] and completions == []
        is_class_member(cycle_graph(6), query_for_code("iso-iso"))
        assert len(calls) == 2

    def test_orbit_reduction_is_exact(self):
        for g in enumerate_graphs(5):
            for code in CLASS_CODES:
                q = query_for_code(code)
                a = is_class_member(g, q, orbit_reduction=True, force_per_map=True)
                b = is_class_member(g, q, orbit_reduction=False, force_per_map=True)
                assert a.holds == b.holds, (g, code)

    def test_orbit_reduction_is_exact_between_graphs(self):
        # targets are separate objects, so g2 is never g1 and the target's
        # orbits come from _vertex_orbits; 324 ordered pairs, five classes
        sources = list(enumerate_graphs(4, connected_only=False))
        targets = list(enumerate_graphs(4, connected_only=False))
        for code in CLASS_CODES[:5]:
            q = query_for_code(code)
            for g1 in sources:
                for g2 in targets:
                    on = extension_morphic(g1, g2, q, force_per_map=True)
                    off = extension_morphic(
                        g1, g2, q, force_per_map=True, orbit_reduction=False
                    )
                    assert on.holds == off.holds, (code, g1, g2)
                    for res in (on, off):
                        if not res.holds:
                            assert validate_witness(g1, g2, q, res.witness)

    @pytest.mark.parametrize(
        "g, code, limit",
        [
            (complete_graph(8), "iso-homo", 13_700),
            (complete_graph(8), "mono-homo", 13_700),
            (rook_graph(4), "iso-homo", 11_000),
        ],
        ids=["K8-iso-homo", "K8-mono-homo", "rook4-iso-homo"],
    )
    def test_per_map_counter_gate(self, g, code, limit, rebind):
        # one first image per Aut(g) orbit: a vertex-transitive graph checks
        # 1/n of the maps (K8: 109 600 -> 13 700, rook(4): 164 656 -> 10 291);
        # the sources are grown, never filtered out of all 2^n subsets
        def refuse(g, mask):
            raise AssertionError("a source subset was tested for connectedness")

        rebind(connected_within, refuse)
        res = is_class_member(g, query_for_code(code))
        assert res.holds and res.checked_maps <= limit

    def test_componentwise_criterion_matches(self):
        for g in enumerate_graphs(4, connected_only=False):
            for code in CLASS_CODES:
                q = query_for_code(code)
                assert is_class_member(g, q).holds == member_via_components(g, q), (
                    g,
                    code,
                )


class TestBetweenGraphs:
    def test_edge_and_cycle_pairs(self):
        q = query_for_code("homo-homo")
        k2, c6, p4 = complete_graph(2), cycle_graph(6), path_graph(4)
        assert extension_symmetric(k2, c6, q).holds
        assert extension_symmetric(k2, p4, q).holds
        res = extension_symmetric(c6, p4, q)
        assert not res.holds  # symmetry fails despite both pairs above holding

    def test_known_stuck_witness(self):
        # mapping five consecutive cycle vertices onto the path leaves the
        # sixth needing a common neighbour of the path's two endpoints
        q = query_for_code("homo-homo")
        c6, p4 = cycle_graph(6), path_graph(4)
        res = extension_morphic(c6, p4, q)
        assert not res.holds
        assert validate_witness(c6, p4, q, res.witness)
        phi = {i: i for i in range(5)}
        assert validate_witness(c6, p4, q, type(res.witness)(0b011111, phi))

    @pytest.mark.parametrize("g1, g2", [("E?CW", "EKYW"), ("EBj?", "E_Cw")])
    def test_seeds_use_the_targets_own_orbits(self, g1, g2):
        # equal-sized pairs whose failures all need a start image that g1's
        # orbit representatives, read as vertices of g2, do not reach; the
        # per-map engine's first images are chosen the same way
        q = query_for_code("homo-homo")
        g1, g2 = from_graph6(g1), from_graph6(g2)
        res = extension_morphic(g1, g2, q)
        assert not res.holds
        assert not extension_morphic(g1, g2, q, force_per_map=True).holds
        assert validate_witness(g1, g2, q, res.witness)

    def test_unmappable_component(self):
        q = query_for_code("homo-homo")
        g1 = disjoint_union(complete_graph(3), complete_graph(1))
        res = extension_morphic(g1, complete_graph(2), q)
        assert not res.holds
        assert "component" in res.witness.note
        assert validate_witness(g1, complete_graph(2), q, res.witness)
        assert extension_morphic(complete_graph(1), complete_graph(2), q).holds

    def test_iso_target_needs_isomorphic_graphs(self):
        q = query_for_code("iso-iso")
        res = extension_morphic(complete_graph(2), complete_graph(3), q)
        assert not res.holds


class TestBudgetsAndSampling:
    def test_homo_budget_default(self):
        with pytest.raises(BudgetExceededError):
            is_class_member(complete_graph(11), query_for_code("homo-homo"))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HOMHOM_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            is_class_member(cycle_graph(6), query_for_code("iso-iso"))
        monkeypatch.delenv("HOMHOM_BUDGET")
        assert is_class_member(cycle_graph(6), query_for_code("iso-iso")).holds

    def test_explicit_budget_wins(self):
        assert is_class_member(
            cycle_graph(6), query_for_code("homo-homo"), budget=6
        ).holds
        with pytest.raises(BudgetExceededError):
            is_class_member(cycle_graph(6), query_for_code("homo-homo"), budget=5)

    @pytest.mark.parametrize("reduce", [True, False])
    def test_sources_above_sixteen_vertices(self, reduce):
        # 17 vertices take the generic mask images instead of the byte
        # tables; C17 checks 33 maps with orbit reduction and 8 993 without
        res = is_class_member(
            cycle_graph(17),
            query_for_code("iso-iso"),
            budget=17,
            orbit_reduction=reduce,
        )
        assert res.holds
        assert res.checked_maps == (33 if reduce else 8_993)

    def test_witness_above_sixteen_vertices(self):
        g = clique_chain(2, 16)  # the path on 17 vertices
        q = query_for_code("iso-iso")
        res = is_class_member(g, q, budget=17)
        assert not res.holds
        assert validate_witness(g, g, q, res.witness)


class TestHierarchyAndWitnesses:
    @given(st.integers(1, 5), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_implications_and_witnesses(self, n, seed):
        g = random_graph(n, seed)
        m = memberships(g)
        # stronger source kinds imply weaker ones
        assert not m["homo-iso"] or m["mono-iso"]
        assert not m["mono-iso"] or m["iso-iso"]
        assert not m["homo-homo"] or m["mono-homo"]
        assert not m["mono-homo"] or m["iso-homo"]
        # automorphism extensions are endomorphism extensions
        assert not m["iso-iso"] or m["iso-homo"]
        assert not m["mono-iso"] or m["mono-homo"]
        assert not m["homo-iso"] or m["homo-homo"]
        for code in CLASS_CODES:
            res = is_class_member(g, query_for_code(code))
            if not res.holds:
                assert validate_witness(g, g, query_for_code(code), res.witness)

    def test_witness_minimality_order(self):
        # sources are tried smallest-first, so witnesses are minimum-size
        res = is_class_member(path_graph(3), query_for_code("iso-iso"))
        assert not res.holds
        assert res.witness.domain_mask.bit_count() == 1

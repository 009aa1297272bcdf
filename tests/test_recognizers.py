"""Recognizer tests: structural predicates, pattern extraction, class deciders."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhom import recognizers
from homhom.cli import build_family
from homhom.families import (
    FAMILIES,
    FamilyDescriptor,
    bcpm_graph,
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
    bipartition,
    bits,
    canonical_form,
    common_neighbors,
    connected_components,
    connected_within,
    disjoint_union,
    from_edges,
    induced_cycle_lengths,
    induced_subgraph,
    is_connected,
    popcount,
    to_graph6,
)
from homhom.morphisms import (
    MorphKind,
    _complete,
    _source_representatives,
    complete_map,
    enumerate_morphisms,
)
from homhom.oracle import (
    extension_symmetric,
    is_class_member,
    query_for_code,
    validate_witness,
)
from homhom.recognizers import (
    ChhFamily,
    ClassEntry,
    ClassReport,
    PcmCertificate,
    Verdict,
    _clique_partition,
    _known_one_sided_note,
    b1_holds,
    b2_star_holds,
    chh_case_and_families,
    chh_connected_families,
    chh_symmetric,
    classify,
    classify_cii,
    complete_multipartite_parts,
    embeds_pcm,
    is_bcpm,
    is_chh,
    is_chi,
    is_cmi,
    is_kn_treelike,
    multiclaw_parameters,
    pcm_extract,
    recognizer_verdict,
    validate_pcm_certificate,
)
from helpers import complement, count_kept_steps, is_isomorphic

BOWTIE = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
DIAMOND = from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
PAW = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
K23 = from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
STAR5 = from_edges(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def recognizers_only(monkeypatch):
    """``classify`` reports from the recognizers alone: a budget of no
    vertices refuses every oracle search before it starts."""
    monkeypatch.setenv("HOMHOM_BUDGET", "0")


def mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def chain_graph(s: int) -> Graph:
    """The chain graph with sides of s: x_i ~ y_j iff i + j <= s - 1, so the
    neighbourhoods on each side are nested.  Connected, part-dominated and
    free of every complement-matching pattern."""
    return from_edges(2 * s, [(i, s + j) for i in range(s) for j in range(s - i)])


def embeds(pattern: Graph, host: Graph) -> bool:
    """Reference induced-subgraph test: some induced embedding exists."""
    return next(enumerate_morphisms(pattern, host, MorphKind.ISO), None) is not None


def to_nx(g: Graph) -> nx.Graph:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from(g.edges())
    return nxg


class TestKnTreelike:
    def test_complete_graphs(self):
        for n in range(2, 8):
            assert is_kn_treelike(complete_graph(n)) == n

    def test_trees_are_block_two(self):
        assert is_kn_treelike(path_graph(5)) == 2
        assert is_kn_treelike(STAR5) == 2
        spider = from_edges(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (3, 6)])
        assert is_kn_treelike(spider) == 2

    def test_single_vertex_has_no_block_size(self):
        assert is_kn_treelike(complete_graph(1)) is None

    def test_clique_trees(self):
        assert is_kn_treelike(BOWTIE) == 3
        assert is_kn_treelike(clique_chain(4, 3)) == 4
        assert is_kn_treelike(clique_chain(3, 5)) == 3

    def test_rejects_cycles_and_overlapping_cliques(self):
        assert is_kn_treelike(cycle_graph(4)) is None
        assert is_kn_treelike(cycle_graph(5)) is None
        assert is_kn_treelike(DIAMOND) is None
        # paw: one vertex sees a K_2 block, another a K_1 block
        assert is_kn_treelike(PAW) is None

    def test_mixed_block_sizes_rejected(self):
        # a triangle and a pendant edge share a cut vertex
        g = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
        assert is_kn_treelike(g) is None

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            is_kn_treelike(disjoint_union(complete_graph(3), complete_graph(3)))


class TestBipartitePredicates:
    def test_b1_examples(self):
        assert b1_holds(regular_multipartite_graph(2, 3))
        assert b1_holds(path_graph(6))
        assert b1_holds(cycle_graph(4))
        assert b1_holds(complete_graph(1))
        assert b1_holds(complete_graph(2))
        assert not b1_holds(cycle_graph(6))
        assert not b1_holds(two_squares_graph())
        assert not b1_holds(pcm_example_graph(4))

    def test_b2_profiles(self):
        # (b2, b2*, bcpm order) triples
        assert (b2_by_subsets(bcpm_graph(4)), b2_star_holds(bcpm_graph(4)), is_bcpm(bcpm_graph(4))) == (True, False, 4)
        assert (b2_by_subsets(cycle_graph(6)), b2_star_holds(cycle_graph(6)), is_bcpm(cycle_graph(6))) == (True, False, 3)
        assert (b2_by_subsets(complete_graph(2)), b2_star_holds(complete_graph(2)), is_bcpm(complete_graph(2))) == (True, True, None)
        assert b2_star_holds(STAR5)
        assert b2_star_holds(pcm_example_graph(4))
        assert b2_star_holds(two_squares_graph())
        assert not b2_by_subsets(path_graph(4))

    def test_b2_false_outside_connected_bipartite(self):
        assert not b2_by_subsets(complete_graph(3))
        assert not b2_by_subsets(disjoint_union(complete_graph(2), complete_graph(2)))
        assert not b2_star_holds(complete_graph(3))

    def test_disconnected_graphs_fail_without_a_connectivity_test(self):
        # b2* and the matching-complement test read the bipartition alone: on
        # a disconnected graph side x holds a vertex of each component, so it
        # has no common neighbour, and n - 1 regular parts of n >= 3 vertices
        # are connected.  So both refuse every disconnected graph, on every
        # graph up to 7 vertices and on unions of graphs that pass one test
        unions = [
            disjoint_union(a, b)
            for a, b in itertools.combinations_with_replacement(
                [complete_graph(1), complete_graph(2), STAR5, bcpm_graph(3), bcpm_graph(4)], 2
            )
        ]
        for g in [*enumerate_graphs(7, connected_only=False), *unions]:
            if not is_connected(g):
                assert not b2_star_holds(g) and is_bcpm(g) is None, g

    def test_bcpm_recognizes_only_the_matching_complements(self):
        for n in range(3, 7):
            assert is_bcpm(bcpm_graph(n)) == n
        assert is_bcpm(regular_multipartite_graph(2, 3)) is None
        assert is_bcpm(cycle_graph(4)) is None  # would need n >= 3
        assert is_bcpm(cycle_graph(8)) is None  # right degrees, wrong size

    def test_b2_equivalence_on_small_graphs(self):
        # B2 holds exactly when the graph is a matching complement or each
        # part has a common neighbour.  The single vertex is the one
        # degenerate exception (vacuous B2, no neighbour at all), so start
        # at two vertices.
        for g in enumerate_graphs(7, connected_only=True):
            if g.n < 2 or bipartition(g) is None:
                continue
            assert b2_by_subsets(g) == (is_bcpm(g) is not None or b2_star_holds(g)), to_graph6(g)


class TestPcmCertificates:
    def test_validate_accepts_the_canonical_pattern(self):
        g = bcpm_graph(4)
        cert = PcmCertificate(z_mask=mask([0, 1]), w_mask=mask([4, 5, 6, 7]), matching=((0, 4), (1, 5)))
        assert validate_pcm_certificate(g, cert, 4)

    def test_validate_rejects_adjacent_matching_pairs(self):
        g = bcpm_graph(4)
        # 0 ~ 5 in the matching complement, so (0, 5) is not a usable pair
        cert = PcmCertificate(z_mask=mask([0, 1]), w_mask=mask([4, 5, 6, 7]), matching=((0, 5), (1, 4)))
        assert not validate_pcm_certificate(g, cert, 4)

    def test_validate_rejects_wrong_target_size(self):
        g = bcpm_graph(4)
        cert = PcmCertificate(z_mask=mask([0, 1]), w_mask=mask([4, 5, 6]), matching=((0, 4), (1, 5)))
        assert not validate_pcm_certificate(g, cert, 4)

    def test_validate_rejects_non_independent_side(self):
        g = disjoint_union(complete_graph(2), empty_graph(4))
        # vertices 0,1 are adjacent, so they cannot form the source side
        cert = PcmCertificate(z_mask=mask([0, 1]), w_mask=mask([2, 3, 4]), matching=((0, 2), (1, 3)))
        assert not validate_pcm_certificate(g, cert, 3)

    def test_validate_rejects_disconnected_pattern(self):
        g = disjoint_union(path_graph(1), path_graph(1), path_graph(1), path_graph(1))
        cert = PcmCertificate(z_mask=mask([0, 2]), w_mask=mask([1, 3, 5]), matching=((0, 3), (2, 1)))
        assert not validate_pcm_certificate(g, cert, 3)


class TestEmbedsPcm:
    def test_matching_complement_embeds_its_own_order(self):
        for n in range(3, 6):
            g = bcpm_graph(n)
            cert = embeds_pcm(g, n)
            assert cert is not None and validate_pcm_certificate(g, cert, n)

    def test_first_certificate_in_matching_complement_four(self):
        cert = embeds_pcm(bcpm_graph(4), 4)
        assert cert == PcmCertificate(z_mask=mask([0, 1]), w_mask=mask([4, 5, 6, 7]), matching=((0, 4), (1, 5)))

    def test_dominated_example_is_pattern_free(self):
        assert embeds_pcm(pcm_example_graph(4), 4) is None
        assert embeds_pcm(pcm_example_graph(5), 5) is None

    def test_complete_bipartite_is_pattern_free(self):
        # no vertex of a complete bipartite graph has a non-neighbour across
        k34 = from_edges(7, [(i, j) for i in range(3) for j in range(3, 7)])
        assert embeds_pcm(k34, 3) is None
        assert embeds_pcm(regular_multipartite_graph(2, 3), 3) is None

    def test_six_cycle_and_two_squares_embed_order_three(self):
        for g in (cycle_graph(6), two_squares_graph()):
            cert = embeds_pcm(g, 3)
            assert cert is not None and validate_pcm_certificate(g, cert, 3)

    def test_order_below_three_rejected(self):
        with pytest.raises(ValueError):
            embeds_pcm(cycle_graph(6), 2)

    def test_non_bipartite_host_rejected(self):
        with pytest.raises(ValueError, match="bipartite"):
            embeds_pcm(cycle_graph(7), 3)

    def test_every_found_pattern_contains_two_disjoint_edges(self):
        # a connected pattern with an injective non-neighbour assignment
        # cannot have chain-ordered neighbourhoods, so two disjoint edges
        # always appear inside it
        two_k2 = disjoint_union(complete_graph(2), complete_graph(2))
        seen = 0
        for g in enumerate_graphs(6, connected_only=True):
            if bipartition(g) is None:
                continue
            for n in (3, 4):
                cert = embeds_pcm(g, n)
                if cert is None:
                    continue
                seen += 1
                pattern = induced_subgraph(g, cert.z_mask | cert.w_mask)
                assert embeds(two_k2, pattern), to_graph6(g)
        assert seen >= 10


def random_extract_input(n: int, extra_w: int, nz: int, seed: int) -> tuple[Graph, int] | None:
    """A random bipartite host satisfying the extraction preconditions.

    Source vertices 0..nz-1, target vertices nz..nz+n+extra_w-1.  Every
    source vertex keeps at least one non-neighbour on the target side.
    Returns None when the sampled graph comes out disconnected.
    """
    rng = random.Random(seed)
    nw = n + extra_w
    w_ids = list(range(nz, nz + nw))
    edges = []
    for z in range(nz):
        k = rng.randint(1, nw - 1)  # proper nonempty neighbourhood
        for w in rng.sample(w_ids, k):
            edges.append((z, w))
    g = from_edges(nz + nw, edges)
    if not is_connected(g):
        return None
    return g, mask(w_ids)


class TestPcmExtract:
    def test_frozen_run_on_matching_complement_four(self):
        g = bcpm_graph(4)
        cert = pcm_extract(g, mask([4, 5, 6, 7]), 4)
        assert cert == PcmCertificate(z_mask=mask([0, 1]), w_mask=mask([4, 5, 6, 7]), matching=((0, 4), (1, 5)))
        assert validate_pcm_certificate(g, cert, 4)

    def test_dominating_vertex_rejected_by_name(self):
        # in the dominated example, source vertex 2 sees the whole target side
        g = pcm_example_graph(4)
        with pytest.raises(ValueError, match="vertex 2"):
            pcm_extract(g, mask([3, 4, 5, 6]), 4)

    def test_small_order_rejected(self):
        with pytest.raises(ValueError):
            pcm_extract(cycle_graph(6), mask([1, 3, 5]), 2)

    def test_short_target_side_rejected(self):
        with pytest.raises(ValueError):
            pcm_extract(cycle_graph(6), mask([1, 3, 5]), 4)

    def test_disconnected_host_rejected(self):
        g = disjoint_union(cycle_graph(4), cycle_graph(4))
        with pytest.raises(ValueError):
            pcm_extract(g, mask([1, 3, 5, 7]), 3)

    def test_dependent_side_rejected(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            pcm_extract(g, mask([1, 2, 3]), 3)

    def test_six_cycle_extraction(self):
        cert = pcm_extract(cycle_graph(6), mask([1, 3, 5]), 3)
        assert validate_pcm_certificate(cycle_graph(6), cert, 3)
        assert cert.w_mask == mask([1, 3, 5])

    @given(
        st.integers(3, 5),
        st.integers(0, 2),
        st.integers(2, 4),
        st.integers(0, 10**6),
    )
    @settings(max_examples=120, deadline=None)
    def test_random_hosts_yield_valid_certificates(self, n, extra_w, nz, seed):
        built = random_extract_input(n, extra_w, nz, seed)
        if built is None:
            return
        g, w_side = built
        cert = pcm_extract(g, w_side, n)
        assert validate_pcm_certificate(g, cert, n)
        # the certificate proves the host embeds an order-n pattern
        assert embeds_pcm(g, n) is not None

    def test_agrees_with_search_on_small_hosts(self):
        # wherever the preconditions hold, extraction succeeds, so the
        # search must find a pattern too
        for g in enumerate_graphs(6, connected_only=True):
            parts = bipartition(g)
            if parts is None or not is_connected(g):
                continue
            for w_side in parts:
                n = bin(w_side).count("1")
                z_side = sum(1 << v for v in range(g.n)) & ~w_side
                if n < 3 or z_side == 0:
                    continue
                if any(g.adj[z] & w_side == w_side for z in bits(z_side)):
                    continue
                cert = pcm_extract(g, w_side, n)
                assert validate_pcm_certificate(g, cert, n)
                assert embeds_pcm(g, n) is not None, to_graph6(g)


class TestChhFamilyType:
    def test_str_forms(self):
        assert str(ChhFamily("single-vertex")) == "single-vertex"
        assert str(ChhFamily("clique-tree", 3)) == "clique-tree(3)"
        assert str(ChhFamily("matching-complement", 4)) == "matching-complement(4)"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ChhFamily("pineapple")

    def test_rejects_mismatched_order(self):
        with pytest.raises(ValueError):
            ChhFamily("single-vertex", 2)
        with pytest.raises(ValueError):
            ChhFamily("clique-tree")


class TestChhConnectedFamilies:
    def test_examples(self):
        assert str(chh_connected_families(BOWTIE)[0]) == "clique-tree(3)"
        assert str(chh_connected_families(pcm_example_graph(4))[0]) == "part-dominated-bipartite"
        assert str(chh_connected_families(cycle_graph(6))[0]) == "matching-complement(3)"
        assert str(chh_connected_families(two_squares_graph())[0]) == "part-dominated-bipartite"
        assert chh_connected_families(cycle_graph(5)) == ()
        assert chh_connected_families(petersen_graph()) == ()

    def test_overlapping_families_are_all_reported(self):
        assert tuple(map(str, chh_connected_families(complete_graph(1)))) == (
            "single-vertex",
            "square-only-bipartite",
        )
        assert tuple(map(str, chh_connected_families(complete_graph(2)))) == (
            "clique-tree(2)",
            "square-only-bipartite",
            "part-dominated-bipartite",
        )
        # a star is a tree, square-only, and part-dominated all at once
        assert tuple(map(str, chh_connected_families(STAR5))) == (
            "clique-tree(2)",
            "square-only-bipartite",
            "part-dominated-bipartite",
        )

    def test_matching_complement_is_exclusive(self):
        assert tuple(map(str, chh_connected_families(bcpm_graph(4)))) == ("matching-complement(4)",)

    def test_requires_connected(self):
        with pytest.raises(ValueError):
            chh_connected_families(disjoint_union(complete_graph(2), complete_graph(2)))

    def test_agrees_with_oracle_on_small_graphs(self):
        q = query_for_code("homo-homo")
        for g in enumerate_graphs(6, connected_only=True):
            rec = chh_connected_families(g) != ()
            assert rec == is_class_member(g, q).holds, to_graph6(g)


class TestChhSymmetric:
    def test_example_pairs(self):
        assert chh_symmetric(complete_graph(2), cycle_graph(6))
        assert not chh_symmetric(cycle_graph(6), path_graph(4))
        assert not chh_symmetric(bcpm_graph(4), bcpm_graph(5))
        assert chh_symmetric(pcm_example_graph(4), bcpm_graph(4))
        assert chh_symmetric(pcm_example_graph(5), bcpm_graph(5))
        assert chh_symmetric(complete_graph(1), complete_graph(1))
        assert not chh_symmetric(complete_graph(1), complete_graph(2))
        assert chh_symmetric(BOWTIE, complete_graph(3))
        assert not chh_symmetric(BOWTIE, clique_chain(4, 2))
        assert chh_symmetric(two_squares_graph(), bcpm_graph(4))
        assert chh_symmetric(K23, STAR5)

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            chh_symmetric(cycle_graph(5), cycle_graph(6))
        with pytest.raises(ValueError):
            chh_symmetric(cycle_graph(6), petersen_graph())

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            chh_symmetric(disjoint_union(complete_graph(2), complete_graph(2)), cycle_graph(6))

    def test_agrees_with_oracle_on_small_pairs(self):
        q = query_for_code("homo-homo")
        members = [
            g
            for g in enumerate_graphs(5, connected_only=True)
            if chh_connected_families(g)
        ]
        assert len(members) == 15
        for i, g1 in enumerate(members):
            for g2 in members[i:]:
                rec = chh_symmetric(g1, g2)
                orc = extension_symmetric(g1, g2, q).holds
                assert rec == orc, f"{to_graph6(g1)} vs {to_graph6(g2)}"


class TestIsChh:
    def test_case_a_independent_sets(self):
        assert is_chh(empty_graph(7)) == "a"
        assert is_chh(complete_graph(1)) == "a"

    def test_single_vertex_component_forces_independence(self):
        assert is_chh(disjoint_union(complete_graph(1), complete_graph(2))) is None
        assert is_chh(disjoint_union(complete_graph(3), complete_graph(1))) is None
        assert is_chh(disjoint_union(complete_graph(1), cycle_graph(6))) is None

    def test_case_b_clique_trees(self):
        assert is_chh(disjoint_union(BOWTIE, complete_graph(3))) == "b"
        assert is_chh(disjoint_union(clique_chain(4, 2), complete_graph(4))) == "b"
        # block sizes must agree, and plain trees do not qualify for this case
        assert is_chh(disjoint_union(BOWTIE, complete_graph(4))) is None

    def test_case_c_square_only(self):
        assert is_chh(disjoint_union(path_graph(3), path_graph(5), complete_graph(2))) == "c"
        assert is_chh(disjoint_union(K23, STAR5)) == "c"
        assert is_chh(disjoint_union(cycle_graph(4), regular_multipartite_graph(2, 3))) == "c"

    def test_case_d_part_dominated(self):
        assert is_chh(two_squares_graph()) == "d"
        assert is_chh(disjoint_union(pcm_example_graph(4), two_squares_graph())) == "d"

    def test_case_e_matching_complements_with_free_companions(self):
        assert is_chh(cycle_graph(6)) == "e"
        assert is_chh(disjoint_union(cycle_graph(6), cycle_graph(6))) == "e"
        assert is_chh(disjoint_union(bcpm_graph(4), pcm_example_graph(4))) == "e"
        assert is_chh(disjoint_union(bcpm_graph(5), pcm_example_graph(5))) == "e"
        assert is_chh(disjoint_union(complete_graph(2), cycle_graph(6))) == "e"

    def test_case_e_companion_tested_without_listing_vertex_subsets(self, monkeypatch):
        # A subset search for the order-6 pattern in the 16-vertex chain
        # graph built 18 748 subgraphs and ran 38 506 connectivity tests.
        # Pruning the chain graph's sides leaves no candidate at all, so the
        # only subgraphs are the two components.
        calls: Counter[str] = Counter()

        def counted(name):
            inner = getattr(recognizers, name)

            def wrapper(*args):
                calls[name] += 1
                return inner(*args)

            return wrapper

        for name in ("induced_subgraph", "connected_within"):
            monkeypatch.setattr(recognizers, name, counted(name))
        case, _ = chh_case_and_families(disjoint_union(bcpm_graph(6), chain_graph(8)))
        assert case == "e"
        assert calls["induced_subgraph"] <= 4
        assert calls["connected_within"] == 0

    def test_non_members(self):
        assert is_chh(cycle_graph(5)) is None
        assert is_chh(petersen_graph()) is None
        assert is_chh(disjoint_union(cycle_graph(6), path_graph(4))) is None
        assert is_chh(disjoint_union(cycle_graph(6), bcpm_graph(4))) is None
        assert is_chh(disjoint_union(cycle_graph(6), complete_graph(3))) is None

    def test_connected_graphs_land_in_their_component_case(self):
        assert is_chh(complete_graph(5)) == "b"
        assert is_chh(path_graph(6)) == "c"
        assert is_chh(pcm_example_graph(4)) == "d"
        assert is_chh(bcpm_graph(4)) == "e"


class TestClassifyCii:
    def test_single_family_members(self):
        assert str(classify_cii(petersen_graph())) == "petersen"
        assert str(classify_cii(clebsch_graph())) == "clebsch"
        assert str(classify_cii(complete_graph(5))) == "complete(5)"
        assert str(classify_cii(complete_graph(1))) == "complete(1)"
        assert str(classify_cii(cycle_graph(6))) == "cycle(6)"
        assert str(classify_cii(cycle_graph(7))) == "cycle(7)"
        assert str(classify_cii(regular_multipartite_graph(2, 3))) == "regular_multipartite(2,3)"
        assert str(classify_cii(regular_multipartite_graph(3, 2))) == "regular_multipartite(3,2)"
        assert str(classify_cii(rook_graph(3))) == "line_kss(3)"
        assert str(classify_cii(rook_graph(4))) == "line_kss(4)"
        assert str(classify_cii(bcpm_graph(4))) == "bcpm(4)"
        assert str(classify_cii(bcpm_graph(5))) == "bcpm(5)"

    def test_small_cycles_fold_into_other_families(self):
        assert str(classify_cii(cycle_graph(3))) == "complete(3)"
        assert str(classify_cii(cycle_graph(4))) == "regular_multipartite(2,2)"
        # the six-cycle is also the order-3 matching complement; the cycle
        # tag wins by fixed precedence
        assert str(classify_cii(cycle_graph(6))) == "cycle(6)"

    def test_disjoint_copies(self):
        three_k4 = disjoint_union(complete_graph(4), complete_graph(4), complete_graph(4))
        assert str(classify_cii(three_k4)) == "complete(4)"
        assert str(classify_cii(disjoint_union(petersen_graph(), petersen_graph()))) == "petersen"
        assert str(classify_cii(empty_graph(5))) == "complete(1)"

    def test_non_members(self):
        assert classify_cii(K23) is None
        assert classify_cii(disjoint_union(cycle_graph(5), cycle_graph(6))) is None
        assert classify_cii(PAW) is None
        assert classify_cii(path_graph(3)) is None
        assert classify_cii(disjoint_union(complete_graph(3), complete_graph(4))) is None


class TestIsCmiAndIsChi:
    def test_cmi_members(self):
        assert is_cmi(regular_multipartite_graph(2, 3))
        assert is_cmi(cycle_graph(3))
        assert is_cmi(cycle_graph(4))
        assert is_cmi(cycle_graph(7))
        assert is_cmi(complete_graph(6))
        assert is_cmi(disjoint_union(cycle_graph(5), cycle_graph(5)))
        assert is_cmi(empty_graph(3))

    def test_cmi_non_members(self):
        assert not is_cmi(K23)
        assert not is_cmi(disjoint_union(cycle_graph(5), cycle_graph(7)))
        assert not is_cmi(bcpm_graph(4))
        assert not is_cmi(petersen_graph())
        assert not is_cmi(rook_graph(3))

    def test_chi_members(self):
        assert is_chi(disjoint_union(complete_graph(4), complete_graph(4)))
        assert is_chi(complete_graph(1))
        assert is_chi(empty_graph(4))
        assert is_chi(complete_graph(7))

    def test_chi_non_members(self):
        assert not is_chi(path_graph(2))
        assert not is_chi(disjoint_union(complete_graph(3), complete_graph(4)))
        assert not is_chi(cycle_graph(4))


def common_component_by_pairs(g: Graph) -> Graph | None:
    """The common component when every component of ``g`` is isomorphic to
    the first: the pairwise definition that the descriptors replaced."""
    comps = connected_components(g)
    if all(is_isomorphic(c, comps[0]) for c in comps[1:]):
        return comps[0]
    return None


def cmi_by_pairs(g: Graph) -> bool:
    c = common_component_by_pairs(g)
    if c is None:
        return False
    n = c.n
    if c.edge_count() == n * (n - 1) // 2:
        return True
    if n >= 3 and all(popcount(row) == 2 for row in c.adj):
        return True
    parts = bipartition(c)
    return parts is not None and popcount(parts[0]) == popcount(parts[1]) >= 2 and (
        c.edge_count() == popcount(parts[0]) ** 2
    )


def prism() -> Graph:
    # K3 x K2: 3-regular on 6 vertices with 9 edges, like K_{3,3}
    return from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


class TestUnionsAgainstPairwiseIsomorphism:
    def members(self, shrikhande) -> list[Graph]:
        # named members and near misses; rook(4) and Shrikhande, K_{3,3}
        # and the prism, and C4 and K_{2,2} share n, m and degrees
        return [
            complete_graph(2),
            complete_graph(3),
            cycle_graph(4),
            cycle_graph(5),
            cycle_graph(6),
            cycle_graph(10),
            regular_multipartite_graph(2, 3),
            prism(),
            path_graph(2),
            bcpm_graph(4),
            petersen_graph(),
            rook_graph(4),
            shrikhande,
        ]

    def test_cii_and_cmi_agree_on_unions_of_two_to_four(self, shrikhande):
        rng = random.Random(23)
        seen = Counter()
        names = set()
        for k in (2, 3, 4):
            for parts in itertools.combinations_with_replacement(self.members(shrikhande), k):
                if sum(p.n for p in parts) > 64:
                    continue
                u = disjoint_union(*parts)
                perm = list(range(u.n))
                rng.shuffle(perm)
                g = from_edges(u.n, [(perm[a], perm[b]) for a, b in u.edges()])
                common = common_component_by_pairs(g)
                expected = None if common is None else classify_cii(common)
                assert classify_cii(g) == expected, to_graph6(u)
                assert is_cmi(g) == cmi_by_pairs(g), to_graph6(u)
                seen["cii", expected is not None] += 1
                seen["cmi", is_cmi(g)] += 1
                names.add(to_graph6(u))
        # C6 + K3 + K3 and 2 C5 + C10 are among them
        assert to_graph6(disjoint_union(complete_graph(3), complete_graph(3), cycle_graph(6))) in names
        assert to_graph6(disjoint_union(cycle_graph(5), cycle_graph(5), cycle_graph(10))) in names
        # one copy of each member, 2 to 4 times over, and no other union
        assert seen == {
            ("cii", True): 30,
            ("cii", False): 2_336,
            ("cmi", True): 21,
            ("cmi", False): 2_345,
        }


class TestMulticlawParameters:
    def test_generated_multiclaws_round_trip(self):
        for clique, blob, counts in [
            (2, 2, (2, 3)),
            (0, 1, (2,)),
            (1, 3, (2,)),
            (3, 2, (4,)),
            (2, 1, (2, 2, 5)),
        ]:
            g = multiclaw_graph(clique, blob, counts)
            assert multiclaw_parameters(g) == (clique, blob, tuple(sorted(counts)))

    def test_complete_bipartite_is_a_multiclaw(self):
        assert multiclaw_parameters(K23) == (0, 1, (2, 3))
        assert multiclaw_parameters(regular_multipartite_graph(2, 3)) == (0, 1, (3, 3))

    def test_independent_sets_and_stars(self):
        assert multiclaw_parameters(empty_graph(4)) == (0, 1, (4,))
        assert multiclaw_parameters(STAR5) == (1, 1, (5,))

    def test_non_members(self):
        assert multiclaw_parameters(petersen_graph()) is None
        assert multiclaw_parameters(complete_graph(5)) is None
        assert multiclaw_parameters(cycle_graph(5)) is None
        assert multiclaw_parameters(path_graph(3)) is None

    def test_complete_multipartite_helper(self):
        assert complete_multipartite_parts(K23) == (2, 3)
        assert complete_multipartite_parts(regular_multipartite_graph(3, 2)) == (2, 2, 2)
        assert complete_multipartite_parts(cycle_graph(5)) is None
        assert complete_multipartite_parts(complete_graph(4)) == (1, 1, 1, 1)


class TestRecognizerOracleAgreement:
    def test_all_recognizer_classes_on_all_small_graphs(self):
        codes = ["iso-iso", "mono-iso", "homo-iso", "homo-homo"]
        for g in enumerate_graphs(5, connected_only=False):
            for code in codes:
                rec = recognizer_verdict(g, code)
                orc = is_class_member(g, query_for_code(code)).holds
                assert rec == orc, f"{code} on {to_graph6(g)}"

    def test_shrikhande_graph(self, shrikhande):
        # it passes the rook(4) degree filter of the iso-iso recognizer; both
        # roads say "no" to every recognizer class, with valid witnesses
        for code in ("iso-iso", "mono-iso", "homo-iso", "homo-homo"):
            q = query_for_code(code)
            res = is_class_member(shrikhande, q)
            assert recognizer_verdict(shrikhande, code) is False, code
            assert not res.holds, code
            assert validate_witness(shrikhande, shrikhande, q, res.witness), code

    def test_recognizer_verdict_is_none_for_oracle_only_classes(self):
        assert recognizer_verdict(cycle_graph(5), "iso-homo") is None
        assert recognizer_verdict(cycle_graph(5), "mono-homo") is None

    def test_recognizer_verdict_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            recognizer_verdict(cycle_graph(5), "homo-mono")


class TestStructuralLaws:
    def members(self, max_n: int):
        for g in enumerate_graphs(max_n, connected_only=True):
            if chh_connected_families(g):
                yield g

    def test_girth_of_members_is_three_four_or_six(self):
        for g in self.members(6):
            gi = nx.girth(to_nx(g))
            assert gi in (float("inf"), 3, 4, 6), to_graph6(g)

    def test_members_with_long_squares_have_small_diameter(self):
        # a member embedding a six-cycle or the two-squares graph satisfies
        # the common-neighbour condition, which caps the diameter at three
        for g in self.members(6):
            if b1_holds(g) or is_kn_treelike(g) is not None:
                continue
            assert nx.diameter(to_nx(g)) <= 3, to_graph6(g)

    def test_neighbourhoods_are_equal_cliques(self):
        # inside one member every vertex neighbourhood splits into cliques
        # of one common size
        for g in self.members(6):
            sizes = set()
            for v in range(g.n):
                nb = g.adj[v]
                if nb == 0:
                    continue
                sub = induced_subgraph(g, nb)
                for comp in connected_components(sub):
                    cnt = comp.n
                    assert comp.edge_count() == cnt * (cnt - 1) // 2, to_graph6(g)
                    sizes.add(cnt)
            assert len(sizes) <= 1, to_graph6(g)


class TestClassifyReport:
    def test_petersen_report(self, recognizers_only):
        rep = classify(petersen_graph())
        assert rep.verdict("iso-iso") is Verdict.YES
        assert rep.verdict("mono-iso") is Verdict.NO
        assert rep.verdict("homo-iso") is Verdict.NO
        assert rep.verdict("homo-homo") is Verdict.NO
        assert rep.verdict("mono-homo") is Verdict.ORACLE_ONLY
        assert "known non-member" in rep.classes["mono-homo"].note
        assert str(rep.classes["iso-iso"].family) == "petersen"

    def test_six_cycle_report(self, recognizers_only):
        rep = classify(cycle_graph(6))
        assert rep.verdict("iso-iso") is Verdict.YES
        assert rep.verdict("mono-iso") is Verdict.YES
        assert rep.verdict("homo-iso") is Verdict.NO
        assert rep.verdict("homo-homo") is Verdict.YES
        assert "case (e)" in rep.classes["homo-homo"].note

    def test_report_carries_the_homo_homo_result(self, recognizers_only):
        rep = classify(STAR5)
        entry = rep.classes["homo-homo"]
        assert (entry.family, entry.note) == (chh_connected_families(STAR5)[0], "components match case (c)")
        two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
        entry = classify(two_triangles).classes["homo-homo"]
        assert (entry.verdict, entry.family, entry.note) == (Verdict.YES, None, "components match case (b)")
        entry = classify(petersen_graph()).classes["homo-homo"]
        assert (entry.verdict, entry.family, entry.note) == (Verdict.NO, None, "")

    def test_known_one_sided_notes(self, recognizers_only):
        rep = classify(clebsch_graph())
        assert rep.verdict("mono-homo") is Verdict.ORACLE_ONLY
        assert "known non-member" in rep.classes["mono-homo"].note
        # neither iso-iso nor homo-homo, so no implication decides iso-homo
        rep = classify(multiclaw_graph(2, 1, (3, 3)))
        assert rep.verdict("iso-homo") is Verdict.ORACLE_ONLY
        assert "known member" in rep.classes["iso-homo"].note
        rep = classify(rook_graph(3))
        assert "known non-member" in rep.classes["mono-homo"].note
        rep = classify(regular_multipartite_graph(3, 2))
        assert "known non-member" in rep.classes["mono-homo"].note

    def test_rook_family_is_matched_once(self, rebind, recognizers_only):
        # the family is tested by its parameters, with no graph built to
        # compare against, and the mono-homo note reuses the iso-iso family
        # of a connected graph
        g = rook_graph(6)

        def refuse(*args):
            raise AssertionError("a family graph was built")

        for builder in (rook_graph, petersen_graph, clebsch_graph):
            rebind(builder, refuse)
        rep = classify(g)
        fam = FamilyDescriptor("LINE_KSS", (6,))
        assert rep.classes["iso-iso"] == ClassEntry(Verdict.YES, "recognizer", family=fam)
        assert rep.classes["mono-homo"] == ClassEntry(
            Verdict.ORACLE_ONLY, "", family=fam, note="line_kss(6): known non-member"
        )
        assert rep.classes["iso-homo"] == ClassEntry(
            Verdict.YES, "implied", note="implied by iso-iso"
        )
        assert [rep.verdict(code) for code in ("mono-iso", "homo-iso", "homo-homo")] == [
            Verdict.NO
        ] * 3
        assert rep.classes["homo-homo"].family is None

    def test_oracle_filled_entries_carry_valid_witnesses(self):
        rep = classify(regular_multipartite_graph(3, 2))
        entry = rep.classes["mono-homo"]
        assert rep.verdict("mono-homo") is Verdict.NO
        assert entry.source == "oracle"
        assert entry.witness is not None
        host = regular_multipartite_graph(3, 2)
        assert validate_witness(host, host, query_for_code("mono-homo"), entry.witness)
        assert rep.verdict("iso-homo") is Verdict.YES

    def test_all_six_verdicts_on_a_member_of_everything(self):
        rep = classify(complete_graph(3))
        for code in ("iso-iso", "mono-iso", "homo-iso", "iso-homo", "mono-homo", "homo-homo"):
            assert rep.verdict(code) is Verdict.YES, code

    def test_five_cycle_memberships(self):
        rep = classify(cycle_graph(5))
        values = tuple(
            rep.verdict(c).value
            for c in ("iso-iso", "mono-iso", "homo-iso", "iso-homo", "mono-homo", "homo-homo")
        )
        assert values == ("yes", "yes", "no", "yes", "yes", "no")

    def test_report_is_frozen_and_complete(self, recognizers_only):
        rep = classify(complete_graph(2))
        assert isinstance(rep, ClassReport)
        assert set(rep.classes) == {
            "iso-iso",
            "mono-iso",
            "homo-iso",
            "iso-homo",
            "mono-homo",
            "homo-homo",
        }
        with pytest.raises(Exception):
            rep.classes["iso-iso"] = None  # type: ignore[index]


# the 27 inputs of the benchmark's classify-named workload
CLASSIFY_NAMED = (
    "petersen;bcpm 5;complete 8;regular_multipartite 2 4;regular_multipartite 3 3;"
    "rook 3;clique_chain 3 4;biclique_chain 2 3 2;pcm_example 4;two_squares;cycle 8;"
    "path 9;rook 4;bcpm 4;regular_multipartite 4 2;clique_chain 2 8;clique_chain 2 12;"
    "multiclaw 2 1 3 3;cycle 9;cycle 10;cycle 11;cycle 12;cycle 14;path 8;path 10;"
    "path 11;path 12"
).split(";")


class TestDescriptorRoundTrip:
    def test_cii_descriptor_builds_each_component(self):
        # the family table's builder for the tag classify_cii reports makes
        # the graph the descriptor names: every component, up to isomorphism
        graphs = list(enumerate_graphs(6, connected_only=False))
        graphs += [build_family(name.split()) for name in CLASSIFY_NAMED]
        tags = Counter()
        for g in graphs:
            desc = classify_cii(g)
            if desc is None:
                continue
            tags[desc.tag] += 1
            (family,) = (f for f in FAMILIES.values() if f.tag == desc.tag)
            built = family.build(*desc.params)
            for comp in connected_components(g):
                assert is_isomorphic(built, comp), (g, desc)
        assert tags == {
            "COMPLETE": 15,
            "CYCLE": 8,
            "REGULAR_MULTIPARTITE": 6,
            "BCPM": 2,
            "LINE_KSS": 2,
            "PETERSEN": 1,
        }


class TestImpliedEntries:
    def test_implied_entries_match_the_oracle(self, rebind):
        # every implied verdict is the oracle's, every implied "no" carries
        # a valid mono-homo witness, and classify asks the oracle about
        # exactly the classes it does not imply
        graphs = list(enumerate_graphs(6, connected_only=False))
        assert len(graphs) == 208
        graphs += [build_family(name.split()) for name in CLASSIFY_NAMED]
        asked: list[str] = []
        member = is_class_member
        rebind(member, lambda g, q, **kw: asked.append(q.code) or member(g, q, **kw))
        implied = {Verdict.YES: 0, Verdict.NO: 0}
        for g in graphs:
            asked.clear()
            rep = classify(g)
            searched = [c for c in ("iso-homo", "mono-homo") if rep.classes[c].source == "oracle"]
            assert asked == searched, g
            for code in ("iso-homo", "mono-homo"):
                entry = rep.classes[code]
                if entry.source != "implied":
                    continue
                implied[entry.verdict] += 1
                q = query_for_code(code)
                assert member(g, q).holds is (entry.verdict is Verdict.YES), (g, code)
                if entry.verdict is Verdict.NO:
                    assert code == "mono-homo" and entry.note == "implied by iso-homo"
                    assert entry.witness == rep.classes["iso-homo"].witness
                    assert validate_witness(g, g, q, entry.witness), g
        assert implied == {Verdict.YES: 142, Verdict.NO: 150}

    def test_complete_graph_asks_the_oracle_nothing(self, rebind):
        asked = []
        member = is_class_member
        rebind(member, lambda g, q, **kw: asked.append(q) or member(g, q, **kw))
        rep = classify(complete_graph(8))
        assert asked == []
        assert [rep.classes[c].note for c in ("iso-homo", "mono-homo")] == [
            "implied by iso-iso",
            "implied by mono-iso",
        ]

    def test_rook4_builds_few_sources(self, rebind):
        # iso-homo is implied by iso-iso; the mono-homo search stops at a
        # witness on a small domain, so the larger source sizes of rook(4)'s
        # 153 connected representatives are never built
        built = []
        grow = _source_representatives

        def counting(adj, connected, gens):
            for level in grow(adj, connected, gens):
                built.extend(level)
                yield level

        rebind(grow, counting)
        rep = classify(rook_graph(4))
        assert rep.classes["iso-homo"].source == "implied"
        assert rep.classes["mono-homo"].source == "oracle"
        assert rep.verdict("mono-homo") is Verdict.NO
        assert 0 < len(built) <= 8

    def test_implied_entry_keeps_the_one_sided_family(self):
        rep = classify(K23)
        entry = rep.classes["iso-homo"]
        assert (entry.verdict, entry.source) == (Verdict.YES, "implied")
        assert entry.note == "implied by homo-homo"
        assert entry.family == FamilyDescriptor("MULTICLAW", (0, 1, 2, 3))


class TestKnownOneSidedNotes:
    def test_notes_agree_with_the_oracle_to_seven_vertices(self):
        # every generalized multiclaw is an iso-homo member, and every
        # complete multipartite graph with 3 or more parts, one of size 2 or
        # more, is not a mono-homo member
        claims = {"known member": 0, "known non-member": 0}
        for g in enumerate_graphs(7, connected_only=False):
            for code in ("iso-homo", "mono-homo"):
                note, _ = _known_one_sided_note(g, code)
                if not note:
                    continue
                claim = note.rsplit(": ", 1)[1]
                holds = is_class_member(g, query_for_code(code)).holds
                assert holds is (claim == "known member"), (g, code, note)
                claims[claim] += 1
        assert claims == {"known member": 45, "known non-member": 20}


class TestFamilyDescriptorsFromRecognizers:
    def test_cii_families_are_descriptors(self):
        fam = classify_cii(bcpm_graph(4))
        assert isinstance(fam, FamilyDescriptor)
        assert fam.tag == "BCPM" and fam.params == (4,)

    def test_multiclaw_descriptor_in_report(self, recognizers_only):
        rep = classify(K23)
        fam = rep.classes["iso-homo"].family
        assert isinstance(fam, FamilyDescriptor)
        assert fam.tag == "MULTICLAW"


# --------------------------------------------------------------------------
# The polynomial family tests against their cycle-based definitions


def kn_treelike_by_cycles(g: Graph) -> int | None:
    """Reference clique-tree test: every induced cycle is a triangle, and
    every neighbourhood is a disjoint union of cliques of one size k-1."""
    if g.n == 1 or not induced_cycle_lengths(g) <= {3}:
        return None
    sizes = set()
    for v in range(g.n):
        nbhd = g.adj[v]
        for u in bits(nbhd):
            clique = nbhd & (g.adj[u] | 1 << u)  # u's clique inside N(v)
            if any(nbhd & (g.adj[w] | 1 << w) != clique for w in bits(clique)):
                return None
            sizes.add(popcount(clique))
    return sizes.pop() + 1 if len(sizes) == 1 else None


def b2_by_subsets(g: Graph) -> bool:
    """Reference B2 test: connected bipartite, and every k-subset of a part
    (k up to the maximum degree) has a common neighbour."""
    parts = bipartition(g) if is_connected(g) else None
    if parts is None:
        return False
    for part in parts:
        verts = list(bits(part))
        for k in range(1, min(max(map(popcount, g.adj)), len(verts)) + 1):
            if any(common_neighbors(g, mask(combo)) == 0 for combo in itertools.combinations(verts, k)):
                return False
    return True


def b1_by_cycles(g: Graph) -> bool:
    """Reference square-only test: induced cycles are squares, no domino."""
    return induced_cycle_lengths(g) <= {4} and not embeds(two_squares_graph(), g)


def b1_by_rescan(g: Graph) -> bool:
    """Reference pendant-and-twin pruning: delete the first vertex, in
    ascending order, of degree at most 1 or with the live neighbourhood of
    an earlier vertex, rescanning every live vertex after each deletion."""
    alive = g.full_mask
    while alive:
        seen: set[int] = set()
        for v in bits(alive):
            nbhd = g.adj[v] & alive
            if nbhd & (nbhd - 1) == 0 or nbhd in seen:
                break
            seen.add(nbhd)
        else:
            return False
        alive &= ~(1 << v)
    return True


def random_tree(n: int, seed: int) -> Graph:
    rng = random.Random(seed)
    return from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def two_switched(g: Graph, seed: int, switches: int) -> Graph:
    """``g`` after ``switches`` random 2-switches, then relabelled at random.
    A 2-switch trades edges ab and cd for the non-edges ac and bd, so every
    degree stays the same."""
    rng = random.Random(seed)
    edges = set(g.edges())
    done = 0
    while done < switches:
        (a, b), (c, d) = rng.sample(sorted(edges), 2)
        if rng.random() < 0.5:
            c, d = d, c
        ac, bd = (min(a, c), max(a, c)), (min(b, d), max(b, d))
        if len({a, b, c, d}) == 4 and ac not in edges and bd not in edges:
            edges -= {(a, b), (min(c, d), max(c, d))}
            edges |= {ac, bd}
            done += 1
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in edges])


def pcm_parts_by_brute_force(g: Graph, n: int) -> tuple[int, int] | None:
    """Reference pattern search over vertex subsets: the (Z, W) masks of the
    smallest pattern, by vertex count then lexicographically, or None."""
    for size in range(n + 2, min(2 * n, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            sub_mask = mask(combo)
            if not connected_within(g, sub_mask):
                continue
            parts = bipartition(induced_subgraph(g, sub_mask))
            if parts is None:
                continue
            sides = [mask(combo[i] for i in bits(part)) for part in parts]
            for z_side, w_side in (sides, sides[::-1]):
                if popcount(w_side) != n or not 2 <= popcount(z_side) <= n:
                    continue
                z_list = list(bits(z_side))
                for images in itertools.permutations(bits(w_side), len(z_list)):
                    if all(not g.has_edge(z, w) for z, w in zip(z_list, images)):
                        return z_side, w_side
    return None


def bipartite_graphs_up_to_8() -> list[Graph]:
    """One graph per isomorphism class of bipartite graphs on 1..8 vertices
    (452 of them): the ones on up to 7 vertices, then every bipartite
    extension of a 7-vertex one by an eighth vertex."""
    small = [g for g in enumerate_graphs(7, connected_only=False) if bipartition(g) is not None]
    forms: dict[bytes, Graph] = {}
    for g in small:
        if g.n != 7:
            continue
        for new_nbhd in range(1 << 7):
            adj = [row | (new_nbhd >> v & 1) << 7 for v, row in enumerate(g.adj)]
            h = Graph(8, (*adj, new_nbhd))
            if bipartition(h) is not None:
                forms.setdefault(canonical_form(h), h)
    return small + list(forms.values())


def grown_graph(n: int, mode: int, extra_edge: bool, seed: int) -> Graph:
    """A random graph on n vertices grown the way members are: mode 0 glues
    cliques of one random size at existing vertices, mode 1 adds pendant
    vertices and false twins (a bipartite distance-hereditary graph), mode 2
    adds random edges with probability 0.3.  ``extra_edge`` adds one more
    random edge, which usually turns a member into a near miss."""
    rng = random.Random(seed)
    edges: set[tuple[int, int]] = set()
    if mode == 0:
        k, count = rng.randint(2, 4), 1
        while count + k - 1 <= n:
            clique = [rng.randrange(count), *range(count, count + k - 1)]
            edges.update(itertools.combinations(sorted(clique), 2))
            count += k - 1
    elif mode == 1:
        nbhds: list[set[int]] = [set()]
        for v in range(1, n):
            u = rng.randrange(v)
            nbhds.append(set(nbhds[u]) if nbhds[u] and rng.random() < 0.5 else {u})
            for w in nbhds[v]:
                nbhds[w].add(v)
        edges = {(min(u, v), max(u, v)) for v in range(n) for u in nbhds[v]}
    else:
        edges = {(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.3}
    if extra_edge and n >= 2:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return from_edges(n, sorted(edges))


def hypercube(d: int) -> Graph:
    return from_edges(1 << d, [(u, u | 1 << i) for u in range(1 << d) for i in range(d) if not u >> i & 1])


class TestPolynomialRecognizers:
    def test_agree_with_cycle_definitions_on_all_graphs_up_to_7(self):
        graphs = list(enumerate_graphs(7, connected_only=False))
        assert len(graphs) == 1252
        for g in graphs:
            if is_connected(g):
                assert is_kn_treelike(g) == kn_treelike_by_cycles(g), to_graph6(g)
            assert b1_holds(g) == b1_by_cycles(g), to_graph6(g)

    @given(
        st.integers(1, 11),
        st.integers(0, 2),
        st.booleans(),
        st.integers(0, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_agree_with_cycle_definitions_on_random_graphs(self, n, mode, extra_edge, seed):
        g = grown_graph(n, mode, extra_edge, seed)
        if is_connected(g):
            assert is_kn_treelike(g) == kn_treelike_by_cycles(g), to_graph6(g)
        assert b1_holds(g) == b1_by_cycles(g), to_graph6(g)

    def test_embeds_pcm_matches_brute_force_on_bipartite_graphs_up_to_8(self):
        graphs = bipartite_graphs_up_to_8()
        assert len(graphs) == 452
        found = 0
        for g in graphs:
            for n in (3, 4, 5):
                cert = embeds_pcm(g, n)
                expected = pcm_parts_by_brute_force(g, n)
                assert (cert is None) == (expected is None), f"n={n} on {to_graph6(g)}"
                if cert is not None:
                    found += 1
                    assert validate_pcm_certificate(g, cert, n)
        assert found >= 100

    @given(
        st.integers(9, 12),
        st.integers(3, 5),
        st.floats(0.2, 0.8),
        st.integers(0, 10**6),
    )
    @settings(max_examples=150, deadline=None)
    def test_embeds_pcm_matches_brute_force_on_random_bipartite_hosts(self, size, n, density, seed):
        rng = random.Random(seed)
        left = rng.randint(2, size - 2)
        g = from_edges(
            size,
            [(u, v) for u in range(left) for v in range(left, size) if rng.random() < density],
        )
        cert = embeds_pcm(g, n)
        assert (cert is None) == (pcm_parts_by_brute_force(g, n) is None), f"n={n} on {to_graph6(g)}"
        if cert is not None:
            assert validate_pcm_certificate(g, cert, n)

    @pytest.mark.parametrize(
        "build, members",
        [
            (lambda: rook_graph(7), {"iso-iso"}),
            (lambda: rook_graph(8), {"iso-iso"}),
            (lambda: hypercube(6), set()),
            (lambda: bcpm_graph(32), {"iso-iso", "homo-homo"}),
            (lambda: regular_multipartite_graph(2, 32), {"iso-iso", "mono-iso", "homo-homo"}),
            (lambda: disjoint_union(bcpm_graph(6), regular_multipartite_graph(2, 8)), {"homo-homo"}),
        ],
        ids=["rook7", "rook8", "Q6", "bcpm32", "K32,32", "bcpm6+K8,8"],
    )
    def test_large_graphs_decided_without_cycle_enumeration(
        self, rebind, build, members, recognizers_only
    ):
        # the families fix these verdicts; the cycle-based recognizers took
        # 149 s on rook(7) and did not finish Q6 within 100 s
        def refuse(*args, **kwargs):
            raise AssertionError("induced_cycle_lengths was called")

        rebind(induced_cycle_lengths, refuse)
        report = classify(build())
        codes = ("iso-iso", "mono-iso", "homo-iso", "homo-homo")
        assert {c for c in codes if report.verdict(c) is Verdict.YES} == members
        assert {c for c in codes if report.verdict(c) is Verdict.NO} == set(codes) - members

    def test_b1_worklist_agrees_with_rescan_on_all_graphs_up_to_7(self):
        graphs = list(enumerate_graphs(7, connected_only=False))
        assert len(graphs) == 1252
        assert sum(b1_holds(g) for g in graphs) > 100
        for g in graphs:
            assert b1_holds(g) == b1_by_rescan(g), to_graph6(g)

    def test_b1_worklist_agrees_with_rescan_up_to_64_vertices(self):
        shapes = [
            *(path_graph(n - 1) for n in range(2, 65, 7)),
            *(cycle_graph(n) for n in range(3, 65, 5)),
            *(from_edges(n, [(0, v) for v in range(1, n)]) for n in range(2, 65, 9)),
            *(random_tree(n, seed) for n in (16, 40, 64) for seed in range(3)),
        ]
        shapes += [disjoint_union(g, h) for g, h in zip(shapes[:6], shapes[-6:]) if g.n + h.n <= 64]
        for g in shapes:
            assert b1_holds(g) == b1_by_rescan(g), to_graph6(g)
        assert b1_holds(random_tree(64, 0)) and not b1_holds(cycle_graph(64))


FAMILY_GRAPHS = {
    "rook 3": (lambda: rook_graph(3), "line_kss(3)"),
    "rook 4": (lambda: rook_graph(4), "line_kss(4)"),
    "rook 5": (lambda: rook_graph(5), "line_kss(5)"),
    "petersen": (petersen_graph, "petersen"),
    "clebsch": (clebsch_graph, "clebsch"),
}


class TestFamilyParameters:
    """rook(s), Petersen and Clebsch are recognized by their parameters, with
    no isomorphism search."""

    @pytest.mark.parametrize("name", list(FAMILY_GRAPHS))
    def test_agree_with_isomorphism_on_switched_copies(self, name):
        build, tag = FAMILY_GRAPHS[name]
        base = build()
        members = 0
        for seed in range(24):
            g = two_switched(base, seed, seed % 4)
            fam = classify_cii(g)
            same = is_isomorphic(g, base)
            assert (fam is not None and str(fam) == tag) == same, (name, seed)
            members += same
        assert members >= 6

    def test_rook_needs_both_cliques_of_every_neighbourhood(self):
        # the line graph of a bipartite graph with degrees 4, 4, 4, 4 on one
        # side and 4, 4, 4, 2, 2 on the other, so every neighbourhood is two
        # cliques; with these labels the clique of the lowest neighbour
        # always has 3 vertices, as in rook(4), yet four degrees are 4
        edges = [
            (1, 3), (1, 12), (1, 14), (1, 11), (1, 10), (1, 15), (3, 12), (3, 14),
            (3, 6), (3, 4), (3, 7), (12, 14), (12, 8), (14, 13), (14, 2), (14, 0),
            (5, 6), (5, 13), (5, 11), (5, 9), (6, 13), (6, 11), (6, 4), (6, 7),
            (13, 11), (13, 2), (13, 0), (11, 10), (11, 15), (9, 10), (9, 2), (9, 4),
            (10, 2), (10, 4), (10, 15), (2, 4), (2, 0), (4, 7), (0, 15), (0, 7),
            (0, 8), (15, 7), (15, 8), (7, 8),
        ]
        g = from_edges(16, edges)
        assert sorted(map(popcount, g.adj)) == [4] * 4 + [6] * 12
        assert classify_cii(g) is None and not is_isomorphic(g, rook_graph(4))

    @pytest.mark.parametrize(
        "name, tag",
        [
            ("switched rook 7", None),
            ("switched rook 8", None),
            ("shrikhande", None),
            ("rook 8", "line_kss(8)"),
            ("petersen", "petersen"),
            ("clebsch", "clebsch"),
        ],
    )
    def test_classify_runs_no_isomorphism_search(
        self, rebind, request, name, tag, recognizers_only
    ):
        # a 2-switched rook(7) or rook(8) kept the search of the old family
        # test busy past 120 s; Shrikhande has rook(4)'s parameters
        g = {
            "switched rook 7": lambda: two_switched(rook_graph(7), 7, 1),
            "switched rook 8": lambda: two_switched(rook_graph(8), 8, 1),
            "shrikhande": lambda: request.getfixturevalue("shrikhande"),
            "rook 8": lambda: rook_graph(8),
            "petersen": petersen_graph,
            "clebsch": clebsch_graph,
        }[name]()

        def refuse(*args):
            raise AssertionError("an isomorphism search ran")

        rebind(complete_map, refuse)
        rebind(_complete, refuse)
        fam = classify(g).classes["iso-iso"].family
        assert (None if fam is None else str(fam)) == tag


# --------------------------------------------------------------------------
# The clique-partition recognizers against the subgraph-building ones they
# replaced


def kn_treelike_by_subgraphs(g: Graph) -> int | None:
    """Reference ``is_kn_treelike``: each neighbourhood built as a graph,
    each of its components checked for a full edge count."""
    if not is_connected(g):
        raise ValueError("is_kn_treelike requires a connected graph")
    if g.n == 1:
        return None
    block: int | None = None
    for v in range(g.n):
        nbhd = induced_subgraph(g, g.adj[v])
        for comp in connected_components(nbhd):
            k = comp.n
            if comp.edge_count() != k * (k - 1) // 2:
                return None
            if block is None:
                block = k
            elif block != k:
                return None
    assert block is not None
    k = block + 1
    return k if 2 * g.edge_count() == k * (g.n - 1) else None


def multipartite_parts_by_subgraphs(g: Graph) -> tuple[int, ...] | None:
    """Reference ``complete_multipartite_parts``: every component of the
    complement graph must be a clique."""
    comp = complement(g)
    parts = connected_components(comp)
    if len(parts) < 2:
        return None
    sizes = []
    for part in parts:
        k = part.n
        if part.edge_count() != k * (k - 1) // 2:
            return None
        sizes.append(k)
    return tuple(sorted(sizes))


def chi_by_subgraphs(g: Graph) -> bool:
    """Reference ``is_chi``: components of one size, each a clique."""
    comps = connected_components(g)
    sizes = {c.n for c in comps}
    if len(sizes) != 1:
        return False
    k = sizes.pop()
    return all(c.edge_count() == k * (k - 1) // 2 for c in comps)


def multiclaw_by_subgraphs(g: Graph) -> tuple[int, int, tuple[int, ...]] | None:
    """Reference ``multiclaw_parameters``: each non-singleton component of
    the complement graph must be complete multipartite with equal parts."""
    comp = complement(g)
    clique_size = 0
    blob_size: int | None = None
    counts: list[int] = []
    for part in connected_components(comp):
        if part.n == 1:
            clique_size += 1
            continue
        sizes = multipartite_parts_by_subgraphs(part)
        if sizes is None or len(set(sizes)) != 1:
            return None
        if blob_size is None:
            blob_size = sizes[0]
        elif blob_size != sizes[0]:
            return None
        counts.append(len(sizes))
    if not counts:
        return None
    return clique_size, blob_size or 1, tuple(sorted(counts))


def assert_recognizers_match_references(g: Graph) -> None:
    label = to_graph6(g)
    if is_connected(g):
        assert is_kn_treelike(g) == kn_treelike_by_subgraphs(g), label
    assert complete_multipartite_parts(g) == multipartite_parts_by_subgraphs(g), label
    assert is_chi(g) == chi_by_subgraphs(g), label
    assert multiclaw_parameters(g) == multiclaw_by_subgraphs(g), label


LARGE_FAMILY_GRAPHS = {
    "complete 64": lambda: complete_graph(64),
    "rook 8": lambda: rook_graph(8),
    "regular_multipartite 2 32": lambda: regular_multipartite_graph(2, 32),
    "regular_multipartite 8 8": lambda: regular_multipartite_graph(8, 8),
    "bcpm 32": lambda: bcpm_graph(32),
    "clique_chain 3 31": lambda: clique_chain(3, 31),
    "multiclaw 2 3 3 3": lambda: multiclaw_graph(2, 3, (3, 3)),
}


class TestCliquePartition:
    def test_splits_a_union_of_cliques_lowest_vertex_first(self):
        g = disjoint_union(complete_graph(2), complete_graph(3), complete_graph(1))
        assert _clique_partition(g.adj, g.full_mask) == [0b11, 0b11100, 0b100000]
        assert _clique_partition(g.adj, 0b110110) == [0b10, 0b10100, 0b100000]

    def test_rejects_a_path_whatever_its_labels(self):
        # the lowest vertex's closed neighbourhood is a clique in both
        # labellings; only a member's own neighbourhood shows the path
        for g in (path_graph(2), from_edges(3, [(0, 2), (1, 2)])):
            assert _clique_partition(g.adj, g.full_mask) is None

    def test_recognizers_match_subgraph_references_on_small_graphs(self):
        graphs = list(enumerate_graphs(7, connected_only=False))
        assert len(graphs) == 1252
        for g in graphs:
            assert_recognizers_match_references(g)
            assert_recognizers_match_references(complement(g))

    @pytest.mark.parametrize("name", list(LARGE_FAMILY_GRAPHS))
    def test_recognizers_match_subgraph_references_on_large_families(self, name):
        assert_recognizers_match_references(LARGE_FAMILY_GRAPHS[name]())

    @pytest.mark.parametrize("name", list(LARGE_FAMILY_GRAPHS)[:6])
    def test_classify_splits_a_connected_graph_once(self, monkeypatch, name, recognizers_only):
        # a connected graph is its own one component, so classify builds no
        # graph, neither a subgraph nor a complement graph; the graph is
        # split into components and 2-coloured once, however many
        # recognizers read the result
        calls = count_kept_steps(monkeypatch)
        g = LARGE_FAMILY_GRAPHS[name]()
        assert g.n >= 63 and is_connected(g)
        built = []
        check = Graph.__post_init__
        monkeypatch.setattr(Graph, "__post_init__", lambda h: built.append(h) or check(h))
        classify(g)
        assert built == []
        steps = {step for step, _ in calls}
        assert {"_components", "bipartition"} <= steps and "_component_graphs" not in steps
        assert set(calls.values()) == {1}

"""Recognizer tests: structural predicates, pattern extraction, class deciders."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhom.families import (
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
    connected_components,
    connected_within,
    disjoint_union,
    embeds,
    from_edges,
    girth,
    induced_cycle_lengths,
    induced_subgraph,
    is_connected,
    max_degree,
    popcount,
    to_graph6,
)
from homhom.oracle import (
    extension_symmetric,
    is_class_member,
    query_for_code,
    validate_witness,
)
from homhom.recognizers import (
    ChhFamily,
    ClassReport,
    PcmCertificate,
    Verdict,
    b1_holds,
    b2_holds,
    b2_star_holds,
    chh_connected_families,
    chh_symmetric,
    classify,
    classify_cii,
    complete_multipartite_parts,
    embeds_pcm,
    is_bcpm,
    is_chh,
    is_chh_connected,
    is_chi,
    is_cmi,
    is_kn_treelike,
    multiclaw_parameters,
    pcm_extract,
    recognizer_verdict,
    validate_pcm_certificate,
)

BOWTIE = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
DIAMOND = from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
PAW = from_edges(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
K23 = from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
STAR5 = from_edges(6, [(0, i) for i in range(1, 6)])


def mask(vertices) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


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
        assert (b2_holds(bcpm_graph(4)), b2_star_holds(bcpm_graph(4)), is_bcpm(bcpm_graph(4))) == (True, False, 4)
        assert (b2_holds(cycle_graph(6)), b2_star_holds(cycle_graph(6)), is_bcpm(cycle_graph(6))) == (True, False, 3)
        assert (b2_holds(complete_graph(2)), b2_star_holds(complete_graph(2)), is_bcpm(complete_graph(2))) == (True, True, None)
        assert b2_star_holds(STAR5)
        assert b2_star_holds(pcm_example_graph(4))
        assert b2_star_holds(two_squares_graph())
        assert not b2_holds(path_graph(4))

    def test_b2_false_outside_connected_bipartite(self):
        assert not b2_holds(complete_graph(3))
        assert not b2_holds(disjoint_union(complete_graph(2), complete_graph(2)))
        assert not b2_star_holds(complete_graph(3))

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
        for g in enumerate_graphs(6, connected_only=True):
            if g.n < 2 or bipartition(g) is None:
                continue
            assert b2_holds(g) == (is_bcpm(g) is not None or b2_star_holds(g)), to_graph6(g)


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
        assert cert == PcmCertificate(z_mask=mask([4, 5]), w_mask=mask([0, 1, 2, 3]), matching=((4, 0), (5, 1)))

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
                pattern = induced_subgraph(g, cert.subgraph_mask())
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
        assert str(is_chh_connected(BOWTIE)) == "clique-tree(3)"
        assert str(is_chh_connected(pcm_example_graph(4))) == "part-dominated-bipartite"
        assert str(is_chh_connected(cycle_graph(6))) == "matching-complement(3)"
        assert str(is_chh_connected(two_squares_graph())) == "part-dominated-bipartite"
        assert is_chh_connected(cycle_graph(5)) is None
        assert is_chh_connected(petersen_graph()) is None

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
            rec = is_chh_connected(g) is not None
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
            if is_chh_connected(g) is not None
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

    def test_recognizer_verdict_is_none_for_oracle_only_classes(self):
        assert recognizer_verdict(cycle_graph(5), "iso-homo") is None
        assert recognizer_verdict(cycle_graph(5), "mono-homo") is None

    def test_recognizer_verdict_rejects_unknown_code(self):
        with pytest.raises(ValueError):
            recognizer_verdict(cycle_graph(5), "homo-mono")


class TestStructuralLaws:
    def members(self, max_n: int):
        for g in enumerate_graphs(max_n, connected_only=True):
            if is_chh_connected(g) is not None:
                yield g

    def test_girth_of_members_is_three_four_or_six(self):
        for g in self.members(6):
            gi = girth(g)
            assert gi in (None, 3, 4, 6), to_graph6(g)

    def test_members_with_long_squares_have_small_diameter(self):
        # a member embedding a six-cycle or the two-squares graph satisfies
        # the common-neighbour condition, which caps the diameter at three
        for g in self.members(6):
            if b1_holds(g) or is_kn_treelike(g) is not None:
                continue
            from homhom.graphs import diameter

            assert diameter(g) <= 3, to_graph6(g)

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
                    cnt = bin(comp).count("1")
                    comp_graph = induced_subgraph(sub, comp)
                    assert comp_graph.edge_count() == cnt * (cnt - 1) // 2, to_graph6(g)
                    sizes.add(cnt)
            assert len(sizes) <= 1, to_graph6(g)


class TestClassifyReport:
    def test_petersen_report(self):
        rep = classify(petersen_graph(), use_oracle=False)
        assert rep.verdict("iso-iso") is Verdict.YES
        assert rep.verdict("mono-iso") is Verdict.NO
        assert rep.verdict("homo-iso") is Verdict.NO
        assert rep.verdict("homo-homo") is Verdict.NO
        assert rep.verdict("mono-homo") is Verdict.ORACLE_ONLY
        assert "known non-member" in rep.classes["mono-homo"].note
        assert str(rep.classes["iso-iso"].family) == "petersen"

    def test_six_cycle_report(self):
        rep = classify(cycle_graph(6), use_oracle=False)
        assert rep.verdict("iso-iso") is Verdict.YES
        assert rep.verdict("mono-iso") is Verdict.YES
        assert rep.verdict("homo-iso") is Verdict.NO
        assert rep.verdict("homo-homo") is Verdict.YES
        assert "case (e)" in rep.classes["homo-homo"].note

    def test_report_carries_the_homo_homo_result(self):
        rep = classify(STAR5, use_oracle=False)
        assert rep.hh_case == "c"
        assert rep.hh_families == chh_connected_families(STAR5)
        assert rep.classes["homo-homo"].family == rep.hh_families[0]
        two_triangles = disjoint_union(complete_graph(3), complete_graph(3))
        rep = classify(two_triangles, use_oracle=False)
        assert (rep.hh_case, rep.hh_families) == ("b", ())
        rep = classify(petersen_graph(), use_oracle=False)
        assert (rep.hh_case, rep.hh_families) == (None, ())

    def test_known_one_sided_notes(self):
        rep = classify(clebsch_graph(), use_oracle=False)
        assert rep.verdict("mono-homo") is Verdict.ORACLE_ONLY
        assert "known non-member" in rep.classes["mono-homo"].note
        rep = classify(K23, use_oracle=False)
        assert rep.verdict("iso-homo") is Verdict.ORACLE_ONLY
        assert "known member" in rep.classes["iso-homo"].note
        rep = classify(rook_graph(3), use_oracle=False)
        assert "known non-member" in rep.classes["mono-homo"].note
        rep = classify(regular_multipartite_graph(3, 2), use_oracle=False)
        assert "known non-member" in rep.classes["mono-homo"].note

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

    def test_report_is_frozen_and_complete(self):
        rep = classify(complete_graph(2), use_oracle=False)
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


class TestFamilyDescriptorsFromRecognizers:
    def test_cii_families_are_descriptors(self):
        fam = classify_cii(bcpm_graph(4))
        assert isinstance(fam, FamilyDescriptor)
        assert fam.tag == "BCPM" and fam.params == (4,)

    def test_multiclaw_descriptor_in_report(self):
        rep = classify(K23, use_oracle=False)
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


def b1_by_cycles(g: Graph) -> bool:
    """Reference square-only test: induced cycles are squares, no domino."""
    return induced_cycle_lengths(g) <= {4} and not embeds(two_squares_graph(), g)


def pcm_parts_by_brute_force(g: Graph, n: int) -> tuple[int, int] | None:
    """Reference pattern search, with no early exit: the (Z, W) masks of the
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
            for n in (3, 4):
                cert = embeds_pcm(g, n)
                expected = pcm_parts_by_brute_force(g, n)
                got = None if cert is None else (cert.z_mask, cert.w_mask)
                assert got == expected, f"n={n} on {to_graph6(g)}"
                if cert is not None:
                    found += 1
                    assert validate_pcm_certificate(g, cert, n)
        assert found >= 100

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
    def test_large_graphs_decided_without_cycle_enumeration(self, rebind, build, members):
        # the families fix these verdicts; the cycle-based recognizers took
        # 149 s on rook(7) and did not finish Q6 within 100 s
        def refuse(*args, **kwargs):
            raise AssertionError("induced_cycle_lengths was called")

        rebind(induced_cycle_lengths, refuse)
        report = classify(build(), use_oracle=False)
        codes = ("iso-iso", "mono-iso", "homo-iso", "homo-homo")
        assert {c for c in codes if report.verdict(c) is Verdict.YES} == members
        assert {c for c in codes if report.verdict(c) is Verdict.NO} == set(codes) - members

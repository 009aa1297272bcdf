"""Acceptance checks: one test per contract, one pass/fail line each.

Every test here states an end-to-end property of the finished system —
catalog soundness, exhaustive recognizer/oracle agreement, hierarchy shape,
named negative witnesses, two-sided extension behaviour, neighbour-set
structure, complement-matching machinery, and core laws.  Each runs at desk
scale (seconds to a few minutes) and is deterministic.
"""

from __future__ import annotations

import itertools
import random

import pytest

from homhom.families import (
    TreeOfCliques,
    bcpm_graph,
    clebsch_graph,
    clique_chain,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    make_treelike,
    path_graph,
    pcm_example_graph,
    petersen_graph,
    regular_multipartite_graph,
    rook_graph,
)
from homhom.graphs import (
    Graph,
    bipartition,
    canonical_form,
    connected_components,
    from_edges,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    to_graph6,
)
from homhom.morphisms import core_of
from homhom.oracle import (
    CLASS_CODES,
    extension_symmetric,
    is_class_member,
    member_via_components,
    query_for_code,
    validate_witness,
)
from homhom.recognizers import (
    chh_symmetric,
    classify_cii,
    embeds_pcm,
    is_chh,
    pcm_extract,
    recognizer_verdict,
    validate_pcm_certificate,
)

STRUCTURAL_CODES = ("iso-iso", "mono-iso", "homo-iso", "homo-homo")


def mask(vertices) -> int:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@pytest.fixture(scope="module")
def small_graphs() -> list[Graph]:
    """One representative per isomorphism class, every graph on <= 6 vertices."""
    graphs = sorted(
        enumerate_graphs(6, connected_only=False),
        key=lambda g: (g.n, canonical_form(g)),
    )
    assert len(graphs) == 208
    return graphs


@pytest.fixture(scope="module")
def oracle_verdicts(small_graphs) -> dict[str, dict[str, bool]]:
    """Definition-level verdicts for all six classes over the small sweep."""
    table: dict[str, dict[str, bool]] = {}
    for g in small_graphs:
        table[to_graph6(g)] = {
            code: is_class_member(g, query_for_code(code)).holds
            for code in CLASS_CODES
        }
    return table


def test_catalog_members_extend_embeddings_to_automorphisms():
    """The named highly symmetric graphs all pass the strictest class."""
    members = [
        ("triangle", complete_graph(3)),
        ("five-clique", complete_graph(5)),
        ("four-cocktail", regular_multipartite_graph(2, 2)),
        ("octahedron", regular_multipartite_graph(3, 2)),
        ("five-cycle", cycle_graph(5)),
        ("six-cycle", cycle_graph(6)),
        ("seven-cycle", cycle_graph(7)),
        ("three-rook", rook_graph(3)),
        ("matching-complement-3", bcpm_graph(3)),
        ("matching-complement-4", bcpm_graph(4)),
        ("petersen", petersen_graph()),
    ]
    q = query_for_code("iso-iso")
    for name, g in members:
        result = is_class_member(g, q)
        assert result.holds, f"{name} failed: {result}"

    # The largest catalog graph is checked structurally, then exhaustively.
    clebsch = clebsch_graph()
    fam = classify_cii(clebsch)
    assert fam is not None and str(fam) == "clebsch"
    exact = is_class_member(clebsch, q)
    assert exact.holds


def test_recognizers_agree_with_oracle_on_all_small_graphs(
    small_graphs, oracle_verdicts
):
    """Structure-based recognizers equal brute force on every small graph."""
    mismatches = []
    for g in small_graphs:
        g6 = to_graph6(g)
        for code in STRUCTURAL_CODES:
            rec = recognizer_verdict(g, code)
            assert rec is not None
            if rec != oracle_verdicts[g6][code]:
                mismatches.append((g6, code, rec, oracle_verdicts[g6][code]))
    assert mismatches == []

    seven = [g for g in enumerate_graphs(7, connected_only=True) if g.n == 7]
    assert len(seven) == 853  # known count of connected 7-vertex graphs
    q = query_for_code("homo-homo")
    for g in seven:
        rec = is_chh(g) is not None
        assert rec == is_class_member(g, q).holds, to_graph6(g)


def test_membership_hierarchy_regions_and_inclusions(small_graphs, oracle_verdicts):
    """Each membership region is inhabited and no implication edge breaks."""

    def verdicts(g: Graph) -> dict[str, bool]:
        return {c: is_class_member(g, query_for_code(c)).holds for c in CLASS_CODES}

    k33 = verdicts(regular_multipartite_graph(2, 3))
    assert k33["mono-iso"] and not k33["homo-iso"]

    c7 = verdicts(cycle_graph(7))
    assert c7["mono-iso"] and not c7["homo-homo"] and not c7["homo-iso"]

    c6 = verdicts(cycle_graph(6))
    assert c6["mono-iso"] and c6["homo-homo"] and not c6["homo-iso"]

    # The 4-rung matching complement sits strictly between: embeddings extend
    # to automorphisms and homomorphisms extend to endomorphisms, but a
    # non-injective-free mono source already defeats automorphism extension.
    q3 = verdicts(bcpm_graph(4))
    assert q3["iso-iso"] and q3["homo-homo"] and not q3["mono-iso"]

    octa = verdicts(regular_multipartite_graph(3, 2))
    assert octa["iso-iso"] and not octa["mono-homo"]

    k23 = verdicts(from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]))
    assert k23["homo-homo"] and not k23["iso-iso"]

    # Implication edges: stronger source kinds and stricter target kinds.
    edges = [
        ("homo-iso", "mono-iso"),
        ("mono-iso", "iso-iso"),
        ("homo-homo", "mono-homo"),
        ("mono-homo", "iso-homo"),
        ("homo-iso", "homo-homo"),
        ("mono-iso", "mono-homo"),
        ("iso-iso", "iso-homo"),
    ]
    for g6, row in oracle_verdicts.items():
        for stronger, weaker in edges:
            assert not row[stronger] or row[weaker], (g6, stronger, weaker)


def test_named_graphs_fail_mono_extension_with_validating_witnesses():
    """Known non-members produce independently checkable refusal witnesses."""
    q = query_for_code("mono-homo")
    cases = [
        ("petersen", petersen_graph(), {}),
        ("three-rook", rook_graph(3), {}),
        ("octahedron", regular_multipartite_graph(3, 2), {}),
        ("clebsch", clebsch_graph(), {"budget": 16}),
    ]
    for name, g, opts in cases:
        result = is_class_member(g, q, **opts)
        assert not result.holds, name
        assert result.witness is not None, name
        assert validate_witness(g, g, q, result.witness), name


def test_two_sided_extension_exhibits_and_recognizer_agreement(
    small_graphs, oracle_verdicts
):
    """Pair-level extension: named exhibits, ladder agreement, splitting law."""
    q = query_for_code("homo-homo")
    k2, c6, p4 = complete_graph(2), cycle_graph(6), path_graph(4)

    assert extension_symmetric(k2, c6, q).holds
    assert extension_symmetric(k2, p4, q).holds
    bad = extension_symmetric(c6, p4, q)
    assert not bad.holds
    assert bad.witness is not None
    source, target = (c6, p4) if bad.witness.note.startswith("forward") else (p4, c6)
    assert validate_witness(source, target, q, bad.witness)

    # The structural pair test agrees with brute force on every pair of
    # connected members (including each member with itself).
    members = [
        g
        for g in small_graphs
        if is_connected(g) and oracle_verdicts[to_graph6(g)]["homo-homo"]
    ]
    assert len(members) == 33
    for a, b in itertools.combinations_with_replacement(members, 2):
        assert chh_symmetric(a, b) == extension_symmetric(a, b, q).holds, (
            to_graph6(a),
            to_graph6(b),
        )

    # Membership of a disconnected graph splits into member components that
    # are pairwise symmetric, for all six classes.
    disconnected = [g for g in small_graphs if not is_connected(g)]
    assert len(disconnected) == 65
    for g in disconnected:
        row = oracle_verdicts[to_graph6(g)]
        for code in CLASS_CODES:
            split = member_via_components(g, query_for_code(code))
            assert split == row[code], (to_graph6(g), code)


def test_neighbour_subgraphs_form_equal_cliques_and_stay_homogeneous(
    small_graphs, oracle_verdicts
):
    """Vertex neighbourhoods inherit the structure membership promises."""
    plain_iso = query_for_code("iso-iso", connected_sources=False)
    for g in small_graphs:
        row = oracle_verdicts[to_graph6(g)]
        if row["homo-homo"] and is_connected(g):
            for v in range(g.n):
                if g.adj[v] == 0:
                    continue  # a lone vertex: nothing to constrain
                h = induced_subgraph(g, g.adj[v])
                comps = [induced_subgraph(h, m) for m in connected_components(h)]
                sizes = {c.n for c in comps}
                assert len(sizes) <= 1, (to_graph6(g), v)
                for c in comps:
                    assert c.edge_count() == c.n * (c.n - 1) // 2, (to_graph6(g), v)
        if row["iso-iso"]:
            for v in range(g.n):
                if g.adj[v] == 0:
                    continue
                h = induced_subgraph(g, g.adj[v])
                assert is_class_member(h, plain_iso).holds, (to_graph6(g), v)


def test_complement_matching_machinery(small_graphs):
    """Pattern search, the no-pattern example, and the extraction algorithm."""
    certificates = []

    for n in (4, 5):
        fig8 = pcm_example_graph(n)
        assert embeds_pcm(fig8, n) is None
        assert chh_symmetric(fig8, bcpm_graph(n))

    # Sweep small bipartite hosts for patterns.
    found = 0
    for g in small_graphs:
        if not is_connected(g) or bipartition(g) is None:
            continue
        for n in (3, 4):
            cert = embeds_pcm(g, n)
            if cert is not None:
                assert validate_pcm_certificate(g, cert, n), to_graph6(g)
                certificates.append((g, cert))
                found += 1
    assert found >= 10

    # The extraction algorithm succeeds on randomly built inputs that meet
    # its preconditions, and its output always re-validates.
    produced = 0
    for seed in range(10_000):
        if produced == 100:
            break
        rng = random.Random(seed)
        n = rng.randint(3, 5)
        nz = rng.randint(2, 4)
        nw = n + rng.randint(0, 2)
        w_ids = list(range(nz, nz + nw))
        edges = []
        for z in range(nz):
            for w in rng.sample(w_ids, rng.randint(1, nw - 1)):
                edges.append((z, w))
        g = from_edges(nz + nw, edges)
        if not is_connected(g):
            continue
        cert = pcm_extract(g, mask(w_ids), n)
        assert validate_pcm_certificate(g, cert, n), f"seed {seed}"
        certificates.append((g, cert))
        produced += 1
    assert produced == 100

    # Every certificate's pattern contains two disjoint edges with no
    # connection between them.
    for g, cert in certificates:
        pattern = induced_subgraph(g, cert.z_mask | cert.w_mask)
        pairs = [
            (u, v)
            for u in range(pattern.n)
            for v in range(u + 1, pattern.n)
            if pattern.has_edge(u, v)
        ]
        assert any(
            not ({a, b} & {c, d})
            and not pattern.has_edge(a, c)
            and not pattern.has_edge(a, d)
            and not pattern.has_edge(b, c)
            and not pattern.has_edge(b, d)
            for (a, b), (c, d) in itertools.combinations(pairs, 2)
        ), (to_graph6(g), cert)


def test_core_laws_on_small_graphs_and_clique_trees(small_graphs, oracle_verdicts):
    """Cores collapse as promised and keep the extension property."""
    for g in small_graphs:
        if is_connected(g) and g.edge_count() >= 1 and bipartition(g) is not None:
            assert is_isomorphic(core_of(g), complete_graph(2)), to_graph6(g)

    # Trees of equal-size cliques glued at single vertices collapse to one
    # clique; shapes cover chains, stars, and a branched tree, up to 12
    # vertices with clique sizes 2..5.
    shapes: list[tuple[int, Graph]] = []
    for k in (2, 3, 4, 5):
        max_blocks = (12 - 1) // (k - 1)
        for b in range(1, max_blocks + 1):
            shapes.append((k, clique_chain(k, b)))
        if max_blocks >= 3:
            star = TreeOfCliques(
                blocks=(k,) * 3, glues=((0, 0, 1, 0), (0, 0, 2, 0))
            )
            shapes.append((k, make_treelike(star)))
    branched = TreeOfCliques(
        blocks=(3,) * 5,
        glues=((0, 1, 1, 0), (1, 2, 2, 0), (1, 1, 3, 0), (2, 1, 4, 0)),
    )
    shapes.append((3, make_treelike(branched)))
    for k, g in shapes:
        assert g.n <= 12
        assert is_isomorphic(core_of(g), complete_graph(k)), (k, g.n)

    # For members of the weakest class, the core itself lands in the
    # strictest homomorphism class and stays pair-symmetric with the graph.
    hi_query = query_for_code("homo-iso")
    hh_query = query_for_code("homo-homo")
    for g in small_graphs:
        if not oracle_verdicts[to_graph6(g)]["homo-homo"]:
            continue
        core = core_of(g)
        assert is_class_member(core, hi_query).holds, to_graph6(g)
        assert extension_symmetric(g, core, hh_query).holds, to_graph6(g)

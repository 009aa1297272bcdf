"""Exhaustive-oracle tests: frozen memberships, engine agreement, witnesses."""

from __future__ import annotations

import gc
import hashlib
import itertools
import pickle
import random
import weakref
from typing import Callable, Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homhom import oracle
from homhom.cli import sweep_record
from homhom.families import (
    bcpm_graph,
    clique_chain,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    multiclaw_graph,
    path_graph,
    petersen_graph,
    regular_multipartite_graph,
    rook_graph,
    two_squares_graph,
)
from homhom.graphs import (
    Graph,
    bits,
    connected_components,
    connected_within,
    disjoint_union,
    from_edges,
    from_graph6,
    mask_of,
    to_graph6,
)
from homhom.morphisms import (
    MorphKind,
    _mask_images,
    _permutation_table,
    _source_representatives,
    _variable_order,
    automorphism_generators,
    check_kind,
    complete_map,
    enumerate_morphisms,
)
from homhom.oracle import (
    CLASS_CODES,
    BudgetExceededError,
    ClassQuery,
    Witness,
    extension_morphic,
    extension_symmetric,
    is_class_member,
    query_for_code,
    validate_witness,
)
from homhom.recognizers import chh_case_and_families, classify
from helpers import count_kept_steps, popcount, reference_one_point

HOMO, MONO, ISO = MorphKind.HOMO, MorphKind.MONO, MorphKind.ISO

# see TestEngineAgreement.test_one_point_results_are_pinned; the one-point
# engine gave POP_TIME_SHA256 when it tested each state for a stuck vertex
# as it was popped, and helpers.reference_one_point still does; it gave
# d332cd8482ca4064c1ba2135d931b39542b21b69a675bd4925fbed8dc61d8490 before
# it looked for a triangle edge mapped onto an edge in no triangle, and the
# verdicts alone, ONE_POINT_VERDICTS_SHA256, were pinned then
ONE_POINT_SHA256 = "f0d270293a5eb028cd721b470a25a51cdd0f15a5fbe599a19a723a187a030cd8"
ONE_POINT_VERDICTS_SHA256 = "83a27daca57cca78313ec9d98ac1012405c1b070948f6afc5e4ab50adf5d9b3d"
POP_TIME_SHA256 = "cee7d392e342559501c9d683b9cf568c5ce5178bf479490b340969b56566b3a2"
# see TestKeyedPerMapSearch.test_per_map_results_are_pinned
PER_MAP_SHA256 = "e208e44bd7833a57bb4bfd5dbcd0619b7203ab974f7675b8c6d2a6b0560fefc4"


def small_pairs() -> list[tuple[Graph, Graph]]:
    """The 18 graphs on at most 4 vertices in all 324 ordered pairs; the
    diagonal passes the same object twice, which shares the vertex orbits.
    Then 400 sampled pairs with g1 on 5-6 vertices and g2 on at most 5: g2
    is never g1, so the seeds come from g2's own orbits, and the candidate
    fields are g2.n bits wide for a g1 of another size."""
    graphs = list(enumerate_graphs(4, connected_only=False))
    assert len(graphs) == 18
    sources = [g for g in enumerate_graphs(6, connected_only=False) if g.n >= 5]
    targets = list(enumerate_graphs(5, connected_only=False))
    rng = random.Random(2026)
    return [(g1, g2) for g1 in graphs for g2 in graphs] + [
        (rng.choice(sources), rng.choice(targets)) for _ in range(400)
    ]


def one_point_runs(search: Callable) -> list[tuple]:
    """``search`` on every connected graph on at most 7 vertices into
    itself, then on every ordered pair of graphs on at most 4, each with
    the graph6 names of its line: g1's, then g2's for a pair."""
    cases = [([to_graph6(g)], g, g) for g in enumerate_graphs(7, connected_only=True)]
    small = list(enumerate_graphs(4, connected_only=False))
    cases += [([to_graph6(a), to_graph6(b)], a, b) for a in small for b in small]
    assert len(cases) == 996 + 18 * 18
    return [(names, g1, g2, search(g1, g2)) for names, g1, g2 in cases]


def one_point_digest(runs: list) -> str:
    """SHA-256 of one line per run: its names, holds, checked_maps, and the
    witness domain, mapping and stuck vertex."""
    lines = []
    for names, _, _, res in runs:
        w = res.witness
        wit = "-" if w is None else (
            f"{w.domain_mask} {sorted(w.mapping.items())} {w.stuck_vertex}"
        )
        lines.append(f"{' '.join(names)} {res.holds} {res.checked_maps} {wit}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def one_point_verdicts_digest(runs: list) -> str:
    """SHA-256 of one line per run: its names and holds."""
    lines = [f"{' '.join(names)} {res.holds}" for names, _, _, res in runs]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def memberships(g: Graph) -> dict[str, bool]:
    return {
        code: is_class_member(g, query_for_code(code)).holds
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


def member_via_components(g: Graph, query: ClassQuery) -> bool:
    """Equivalent componentwise criterion: every component has the property
    and every pair of components has it symmetrically."""
    comps = connected_components(g)
    for c in comps:
        if not is_class_member(c, query).holds:
            return False
    for a, b in itertools.combinations(comps, 2):
        if not extension_symmetric(a, b, query).holds:
            return False
    return True


class TestQueryCodes:
    def test_round_trip(self):
        for code in CLASS_CODES:
            q = query_for_code(code)
            assert q.code == code

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

    def test_sources_must_be_connected(self):
        # the 6-cycle extends all its connected embeddings, but an antipodal
        # independent pair maps to a distance-2 pair: no automorphism does
        # that, and such a disconnected domain is no witness
        c6, q = cycle_graph(6), ClassQuery(ISO, ISO)
        assert is_class_member(c6, q).holds
        res = per_map(c6, c6, q, connected=False)
        assert not res.holds and popcount(res.witness.domain_mask) == 2
        assert not connected_within(c6, res.witness.domain_mask)
        assert not validate_witness(c6, c6, q, res.witness)

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
    auts = list(enumerate_morphisms(g, g, ISO))
    seen: set[int] = set()
    reps = []
    for m in masks:
        if m not in seen:
            reps.append(m)
            seen.update(mask_of(a[v] for v in bits(m)) for a in auts)
    return reps


def grown_sources(g: Graph, connected: bool, reduce: bool) -> list[int]:
    """The streamed sizes, flattened; each is one non-empty size, larger
    than the one before."""
    gens = automorphism_generators(g) if reduce else ()
    levels = list(_source_representatives(g.adj, connected, gens))
    sizes = [{popcount(m) for m in level} for level in levels]
    assert all(len(s) == 1 for s in sizes)
    assert [s.pop() for s in sizes] == sorted({popcount(m) for m in sum(levels, [])})
    return list(itertools.chain.from_iterable(levels))


def level_recorder(built: list) -> Callable:
    """A stand-in for ``_source_representatives`` that appends (adjacency
    rows, connected, size) to ``built`` for each size it yields.  Each graph
    built here has its own rows object, which ``built`` keeps alive, so the
    rows tell graph objects apart."""
    grow = _source_representatives

    def recording(adj: tuple, connected: bool, gens: tuple) -> Iterator[list[int]]:
        for level in grow(adj, connected, gens):
            built.append((adj, connected, popcount(level[0])))
            yield level

    return recording


def built_once(built: list) -> bool:
    keys = [(id(adj), connected, size) for adj, connected, size in built]
    return len(set(keys)) == len(keys)


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

    @pytest.mark.parametrize("reduce", [True, False])
    def test_match_brute_force_at_sixteen_vertices(self, reduce):
        # the largest graphs the lookup tables serve, with both tables full
        # length; connected sources keep the brute force to 2^16 subsets
        g = cycle_graph(16)
        assert grown_sources(g, True, reduce) == brute_force_sources(g, True, reduce)

    @pytest.mark.parametrize(
        "g",
        [complete_graph(17), cycle_graph(20), bcpm_graph(9)],
        ids=["K17", "cycle20", "bcpm9"],
    )
    def test_chunk_tables_above_sixteen_vertices(self, g, rebind):
        # above 16 vertices the tables cover 8-bit chunks, the last one
        # shorter; the first three sizes must be those got by applying each
        # permutation vertex by vertex
        gens = automorphism_generators(g)
        got = list(itertools.islice(_source_representatives(g.adj, True, gens), 3))

        def vertex_by_vertex(n: int, perms: tuple) -> Callable:
            return lambda q: [mask_of(p[v] for v in bits(q)) for p in perms]

        rebind(_mask_images, vertex_by_vertex)
        want = list(itertools.islice(_source_representatives(g.adj, True, gens), 3))
        assert got == want and [popcount(level[0]) for level in got] == [1, 2, 3]


def reference_per_map(
    g1: Graph, g2: Graph, q: ClassQuery, connected: bool
) -> tuple[bool, int, dict]:
    """The per-map search without keys: every source map on each orbit
    representative domain whose first vertex lands on an orbit
    representative of g2, completed one by one in stream order."""
    gens = automorphism_generators(g1)
    reps = mask_of((o & -o).bit_length() - 1 for o in oracle._symmetry(g2).orbits)
    for domain in itertools.chain.from_iterable(_source_representatives(g1.adj, connected, gens)):
        for phi in enumerate_morphisms(g1, g2, q.source, domain):
            if reps >> phi[next(iter(phi))] & 1:
                if complete_map(g1, g2, phi, q.target) is None:
                    return False, domain, phi
    return True, 0, {}


def per_map(g1: Graph, g2: Graph, q: ClassQuery, connected: bool = True) -> oracle.OracleResult:
    """``oracle._per_map``, or with ``connected`` false the same search on
    one source subset per automorphism orbit of g1, connected or not: the
    engine itself does not care whether its domains are connected."""
    if connected:
        return oracle._per_map(g1, g2, q)
    levels = _source_representatives(g1.adj, False, oracle._symmetry(g1).generators)
    sources = itertools.chain.from_iterable(levels)
    return oracle._per_map_search(g1, g2, q, sources, oracle._symmetry(g2))


def assert_matches_reference(
    g1: Graph, g2: Graph, q: ClassQuery, connected: bool = True
) -> None:
    res = per_map(g1, g2, q, connected)
    holds, domain, phi = reference_per_map(g1, g2, q, connected)
    assert res.holds == holds, (g1, g2, q)
    if not holds:
        assert res.witness.domain_mask == domain, (g1, g2, q)
        assert list(res.witness.mapping.items()) == list(phi.items()), (g1, g2, q)


def unreduced(g1: Graph, g2: Graph, q: ClassQuery) -> oracle.OracleResult:
    """The per-map search on every source subset, with no symmetry."""
    levels = _source_representatives(g1.adj, True, ())
    return oracle._per_map_search(g1, g2, q, itertools.chain.from_iterable(levels), None)


class TestLazySources:
    @pytest.mark.parametrize(
        "g", [rook_graph(3), petersen_graph(), cycle_graph(8)], ids=["rook3", "petersen", "cycle8"]
    )
    def test_consumers_share_one_list_in_eager_order(self, g, rebind):
        # the first reader stops after a few sources, the second reads past
        # it to the end, and the first then resumes: both see the eager
        # list, and each size is built once
        eager = grown_sources(g, True, True)
        built = []
        rebind(_source_representatives, level_recorder(built))
        sym = oracle._Symmetry(Graph(g.n, g.adj))
        first = sym.sources()
        head = list(itertools.islice(first, 3))
        assert head == eager[:3] and len(built) < len({popcount(m) for m in eager})
        assert list(sym.sources()) == eager
        assert head + list(first) == eager
        assert list(sym.sources()) == eager
        assert built_once(built) and len(built) == len({popcount(m) for m in eager})

    def test_search_stopping_early_builds_no_larger_size(self, rebind):
        # path 9's iso-iso fails on a single vertex: only size 1 is built,
        # read off the vertex orbits, so no permutation table is built
        # until a reader asks for size 2
        built, tables = [], []
        rebind(_source_representatives, level_recorder(built))
        rebind(
            _permutation_table,
            lambda *args: tables.append(args) or _permutation_table(*args),
        )
        g = path_graph(9)
        res = is_class_member(g, query_for_code("iso-iso"))
        assert not res.holds and [size for _, _, size in built] == [1]
        assert tables == []
        assert len(list(itertools.islice(oracle._symmetry(g).sources(), 6))) == 6
        assert [size for _, _, size in built] == [1, 2] and tables


class TestKeyedPerMapSearch:
    # the keyed search skips states whose future an earlier map had; it
    # must return the verdict and the witness of completing every map
    QUERIES = [
        (query_for_code(code), connected)
        for code in CLASS_CODES
        for connected in (True, False)
    ]

    def test_matches_reference_on_all_small_graphs(self):
        graphs = list(enumerate_graphs(6, connected_only=False))
        assert len(graphs) == 208
        for g in graphs:
            for q, connected in self.QUERIES:
                assert_matches_reference(g, g, q, connected)

    def test_matches_reference_between_graphs(self):
        # iso targets between graphs of different sizes fail on every map,
        # and homo sources into iso targets fail once a map is not an
        # induced embedding; 324 ordered pairs
        graphs = list(enumerate_graphs(4, connected_only=False))
        for g1 in graphs:
            for g2 in graphs:
                for q, connected in self.QUERIES:
                    assert_matches_reference(g1, g2, q, connected)

    @pytest.mark.parametrize(
        "g",
        [
            petersen_graph(),
            rook_graph(3),
            regular_multipartite_graph(3, 3),
            bcpm_graph(4),
            multiclaw_graph(2, 1, (3, 3)),
        ],
        ids=["petersen", "rook3", "K333", "bcpm4", "multiclaw-2-1-3-3"],
    )
    def test_matches_reference_on_named_graphs(self, g):
        for q, connected in self.QUERIES:
            assert_matches_reference(g, g, q, connected)

    def test_first_failing_map_on_each_domain(self):
        # one domain at a time and every first image, so that no earlier
        # domain fails first: on every subset, connected or not, the search
        # returns the first map of the stream that does not extend
        for g in enumerate_graphs(5, connected_only=False):
            for code in CLASS_CODES:
                q = query_for_code(code)
                for domain in range(1, 1 << g.n):
                    res = oracle._per_map_search(g, g, q, [domain])
                    want = next(
                        (
                            phi
                            for phi in enumerate_morphisms(g, g, q.source, domain)
                            if complete_map(g, g, phi, q.target) is None
                        ),
                        {},
                    )
                    got = {} if res.holds else res.witness.mapping
                    assert list(got.items()) == list(want.items()), (g, code, domain)

    def test_stabiliser_pruning_keeps_the_witness(self):
        # in the unpruned stream the first failing map already has each
        # image least in its orbit under the generators fixing the images
        # before it, so pruning returns the same verdict and witness.  The
        # pairs are separate objects, so g2's own stabilisers are used.
        # rook(4)'s connected iso-iso and iso-homo hold and take 148 305
        # completions each unpruned, so they are left to the reference tests
        small = list(enumerate_graphs(6, connected_only=False))
        sources = list(enumerate_graphs(4, connected_only=False))
        targets = list(enumerate_graphs(4, connected_only=False))
        rook4 = rook_graph(4)
        named = [
            rook_graph(3),
            rook4,
            petersen_graph(),
            regular_multipartite_graph(3, 3),
            bcpm_graph(5),
            clique_chain(3, 4),
            multiclaw_graph(2, 1, (3, 3)),
        ]
        pairs = [(g, g) for g in small + named]
        pairs += [(g1, g2) for g1 in sources for g2 in targets]
        for g1, g2 in pairs:
            sym2 = oracle._symmetry(g2)
            for connected in (True, False):
                domains = grown_sources(g1, connected, True)
                for code in CLASS_CODES[:5]:
                    if g1 is rook4 and connected and code.startswith("iso"):
                        continue
                    q = query_for_code(code)
                    pruned = oracle._per_map_search(g1, g2, q, domains, sym2)
                    full = oracle._per_map_search(g1, g2, q, domains)
                    assert pruned.holds == full.holds, (g1, g2, q)
                    if not full.holds:
                        a, b = pruned.witness, full.witness
                        assert a.domain_mask == b.domain_mask, (g1, g2, q)
                        assert list(a.mapping.items()) == list(b.mapping.items())

    def test_per_map_results_are_pinned(self):
        # SHA-256 of one line per decision, (graph6 of g1 [and g2], class,
        # holds, checked_maps, witness domain and mapping in stream order):
        # the six classes through the per-map engine on each graph with at
        # most 6 vertices, one object asked in turn, and the five per-map
        # classes on every ordered pair of graphs with at most 4
        def line(names, code, res):
            w = res.witness
            wit = "-" if w is None else f"{w.domain_mask} {list(w.mapping.items())}"
            return f"{' '.join(names)} {code} {res.holds} {res.checked_maps} {wit}"

        lines = [
            line([to_graph6(g)], code, oracle._per_map(g, g, query_for_code(code)))
            for g in enumerate_graphs(6, connected_only=False)
            for code in CLASS_CODES
        ]
        small = list(enumerate_graphs(4, connected_only=False))
        per_map = [(code, query_for_code(code)) for code in CLASS_CODES[:5]]
        lines += [
            line([to_graph6(a), to_graph6(b)], code, extension_morphic(a, b, q))
            for a in small
            for b in small
            for code, q in per_map
        ]
        assert len(lines) == 208 * 6 + 18 * 18 * 5
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == PER_MAP_SHA256

    def test_built_symmetry_leaves_no_checked_completion(self, rebind):
        # once a graph's symmetry data is built, a per-map call completes
        # maps straight from their keys: no complete_map and no check_kind
        calls = []
        rebind(complete_map, lambda *args: calls.append(args) or complete_map(*args))
        rebind(check_kind, lambda *args: calls.append(args) or check_kind(*args))
        for g in (rook_graph(3), petersen_graph(), multiclaw_graph(2, 1, (3, 3))):
            oracle._symmetry(g)
            calls.clear()
            checked = sum(
                is_class_member(g, query_for_code(code)).checked_maps
                for code in CLASS_CODES[:5]
            )
            assert checked and calls == [], g

    def test_population_counter_gate(self):
        # the five per-map classes, asked in turn of each of the 208 graphs
        # with at most 6 vertices, complete 2 229 maps; 2 814 with a record
        # per call, 6 695 without the recorded extensions, 7 605 also with
        # one first image per orbit and no pruning below, and 14 427
        # completing every map
        total = sum(
            is_class_member(g, query_for_code(code)).checked_maps
            for g in enumerate_graphs(6, connected_only=False)
            for code in CLASS_CODES[:5]
        )
        assert total == 2_229


class TestRecordedExtensions:
    # a homo-target map is not completed when every outside component has
    # a recorded extension agreeing with the map's masks on its rim; such
    # a map always extends.  TestKeyedPerMapSearch checks verdicts and
    # witnesses against the reference for every query, homo-homo through
    # the per-map engine, on all graphs with at most 6 vertices and all ordered
    # pairs with at most 4
    def test_per_map_homo_homo_counter_gate(self):
        # the population gate above counts the other homo targets
        q = query_for_code("homo-homo")
        total = sum(
            oracle._per_map(g, g, q).checked_maps
            for g in enumerate_graphs(6, connected_only=False)
        )
        assert total == 760  # 3 010 without the recorded extensions

    def test_passed_rims_are_told_apart_by_their_vertices(self):
        # the failing map leaves an outside vertex with no candidate image,
        # so its rim's masks equal, as bits, those of a smaller rim that
        # passed earlier; keyed by masks alone, it was skipped and a later
        # map on domain 76 became the witness
        g = from_graph6("F`G}w")
        q = query_for_code("iso-homo")
        assert_matches_reference(g, g, q)
        res = is_class_member(g, q)
        assert res.witness.domain_mask == 28

    @pytest.mark.parametrize("code", ["iso-homo", "mono-homo", "homo-homo"])
    def test_component_with_an_empty_rim(self, code):
        # the domains inside P4 leave K3 with no neighbour in them, so a
        # recorded extension covers it on every leaf; the first failing map
        # sends K3's vertex 5 into P4
        g = disjoint_union(path_graph(4), complete_graph(3))
        q = query_for_code(code)
        assert_matches_reference(g, g, q)
        res = oracle._per_map(g, g, q)
        assert not res.holds and res.witness.mapping == {5: 0}
        assert res.checked_maps <= 5  # 13 without the recorded extensions

    def test_answers_do_not_depend_on_earlier_queries(self):
        # a graph object keeps each domain's order and rims and one record
        # for its homo targets, shared by every query on it; every answer,
        # asked forward and then in reverse on one object, must be the one
        # a fresh object gives
        queries = [
            (query_for_code(code), connected)
            for connected in (True, False)
            for code in CLASS_CODES
        ]
        graphs = list(enumerate_graphs(6, connected_only=False)) + [
            rook_graph(3),
            petersen_graph(),
            bcpm_graph(5),
            clique_chain(3, 4),
            multiclaw_graph(2, 1, (3, 3)),
        ]

        def answer(g: Graph, q: ClassQuery, connected: bool) -> tuple:
            res = per_map(g, g, q, connected)
            w = res.witness
            return res.holds, w and (w.domain_mask, list(w.mapping.items()))

        for g in graphs:
            fresh = {query: answer(Graph(g.n, g.adj), *query) for query in queries}
            for query in queries + queries[::-1]:
                assert answer(g, *query) == fresh[query], (g, query)

    def test_mono_homo_after_iso_homo_counter_gate(self):
        # iso-homo's extensions already extend every mono-homo map on the
        # same object, which completes 26 maps on a fresh one
        g = clique_chain(2, 12)
        assert is_class_member(g, query_for_code("iso-homo")).holds
        res = is_class_member(g, query_for_code("mono-homo"))
        assert res.holds and res.checked_maps == 0

    def test_classify_sets_up_each_domain_once(self, rebind):
        # iso-homo and mono-homo share each domain's order and rims; no
        # implication decides either class here, so both are searched
        g = multiclaw_graph(2, 1, (3, 3))
        orders, rims = [], []
        build_rims = oracle._rims
        rebind(
            _variable_order, lambda h, d: orders.append(d) or _variable_order(h, d)
        )
        rebind(build_rims, lambda h, d, *a: rims.append(d) or build_rims(h, d, *a))
        report = classify(g)
        for code in ("iso-homo", "mono-homo"):
            assert report.classes[code].source == "oracle"
        assert rims and len(set(rims)) == len(rims)
        assert len(set(orders)) == len(orders)


class TestEngineAgreement:
    def test_one_point_matches_per_map_on_all_small_graphs(self):
        q = query_for_code("homo-homo")
        for g in enumerate_graphs(5, connected_only=False):
            fast = is_class_member(g, q)
            slow = oracle._per_map(g, g, q)
            assert fast.holds == slow.holds, g

    def test_one_point_matches_per_map_on_all_small_pairs(self):
        q = query_for_code("homo-homo")
        for g1, g2 in small_pairs():
            fast = extension_morphic(g1, g2, q)
            slow = oracle._per_map(g1, g2, q)
            assert fast.holds == slow.holds, (g1, g2)
            if not fast.holds:
                assert validate_witness(g1, g2, q, fast.witness), (g1, g2)

    def test_one_point_matches_the_pop_time_reference(self):
        # the engine tests each state for a stuck vertex when it is made,
        # the reference when it is popped: the same verdicts, the same
        # states on every "yes" search and never more on a "no" search
        q = query_for_code("homo-homo")
        cases = [(g, g) for g in enumerate_graphs(7, connected_only=True)]
        for g1, g2 in cases + small_pairs():
            fast = extension_morphic(g1, g2, q)
            slow = reference_one_point(g1, g2)
            assert fast.holds == slow.holds, (g1, g2)
            if fast.holds:
                assert fast.checked_maps == slow.checked_maps, (g1, g2)
            else:
                assert fast.checked_maps <= slow.checked_maps, (g1, g2)
                assert validate_witness(g1, g2, q, fast.witness), (g1, g2)
                assert validate_witness(g1, g2, q, slow.witness), (g1, g2)

    def test_vertex_orbits_match_the_automorphism_group(self):
        for g in enumerate_graphs(6, connected_only=False):
            auts = list(enumerate_morphisms(g, g, ISO))
            want = sorted(
                {mask_of(a[v] for a in auts) for v in range(g.n)},
                key=lambda m: m & -m,
            )
            assert oracle._symmetry(g).orbits == want, g

    def test_k8_counter_gate_never_enumerates_the_group(self, rebind):
        # the start orbits and stabilisers come from the generators: at most
        # n(n-1)/2 = 28 completions on a fresh K8, and no morphism is
        # enumerated; the stabiliser pruning grows one chain of 8 states
        # (3 432 (D, cand) keys without it)
        def refuse(*args, **kwargs):
            raise AssertionError("the one-point engine enumerated morphisms")

        completions = []
        rebind(enumerate_morphisms, refuse)
        rebind(
            complete_map, lambda *args: completions.append(args) or complete_map(*args)
        )
        res = is_class_member(complete_graph(8), query_for_code("homo-homo"))
        assert res.holds and res.checked_maps == 8
        assert len(completions) <= 8 * 7 // 2

    @pytest.mark.parametrize("centre", [0, 7])
    def test_star_decided_whatever_its_labels(self, centre):
        # K_{1,7}: keyed by phi, centre 0 took over 2 M states and centre 7
        # took 262 k; keyed by (D, cand) they took 257 and 131, and with the
        # stabiliser pruning both take 17
        g = star_graph(8, centre)
        res = is_class_member(g, query_for_code("homo-homo"))
        assert res.holds and res.checked_maps == 17

    @pytest.mark.parametrize(
        "family, args, states",
        [
            (complete_graph, (12,), 12),
            (complete_graph, (16,), 16),
            (regular_multipartite_graph, (2, 8), 65),
            (clique_chain, (4, 4), 35_598),
            (bcpm_graph, (6,), 98_037),
        ],
        ids=["K12", "K16", "multipartite-2-8", "clique-chain-4-4", "bcpm-6"],
    )
    def test_symmetric_members_state_gate(self, family, args, states):
        # without the stabiliser pruning K12 took 705 432 states,
        # multipartite 2 8 took 32 641 and clique chain 4 4 took 671 491,
        # and K16 and bcpm(6) gave up at 2 M
        g = family(*args)
        res = is_class_member(g, query_for_code("homo-homo"))
        assert res.checked_maps == states
        assert res.holds == (chh_case_and_families(g)[0] is not None)

    def test_connected_population_counter_gate(self):
        # all 996 connected graphs on at most 7 vertices pop 13 842 states
        # (16 282 before the triangle-edge certificate decided 647 of them
        # with none, 25 422 when each state was tested for a stuck vertex as
        # it was popped, not as it was made, 40 631 before the stabiliser
        # pruning, 423 575 when states were keyed by phi)
        q = query_for_code("homo-homo")
        total = sum(
            is_class_member(g, q).checked_maps
            for g in enumerate_graphs(7, connected_only=True)
        )
        assert total == 13_842

    def test_one_point_results_are_pinned(self):
        # pins the states popped and each witness of ``one_point_runs``,
        # not only the verdicts, and checks each witness before pinning it;
        # the verdicts alone keep an older pin
        q = query_for_code("homo-homo")
        runs = one_point_runs(lambda g1, g2: extension_morphic(g1, g2, q))
        for _, g1, g2, res in runs:
            if not res.holds:
                assert validate_witness(g1, g2, q, res.witness), (g1, g2)
        assert one_point_digest(runs) == ONE_POINT_SHA256
        assert one_point_verdicts_digest(runs) == ONE_POINT_VERDICTS_SHA256

    def test_reference_keeps_the_pop_time_pin(self):
        # the reference is the engine that tested each state when popped:
        # it still gives that engine's pinned lines
        runs = one_point_runs(reference_one_point)
        assert one_point_digest(runs) == POP_TIME_SHA256
        assert one_point_verdicts_digest(runs) == ONE_POINT_VERDICTS_SHA256

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
                "more than 5 partial-map states (popped 4, seeding phase 1 "
                "of 2, largest domain 4 of 8 vertices)",
            ),
            (
                star_graph(8, 7),
                "more than 5 partial-map states (popped 4, seeding phase 1 "
                "of 2, largest domain 4 of 8 vertices)",
            ),
        ],
        ids=["centre-0", "centre-7"],
    )
    def test_state_budget_error_says_how_far_it_got(self, g, message, monkeypatch):
        monkeypatch.setattr(oracle, "STATE_LIMIT", 5)
        with pytest.raises(BudgetExceededError) as info:
            is_class_member(g, query_for_code("homo-homo"))
        assert str(info.value) == message

    def test_generators_computed_once_per_graph_object(self, rebind, monkeypatch):
        # the symmetry data of a graph object, its generators and vertex
        # orbits, is built once, and each size of its source list at most
        # once, whatever classes are asked about it; the graph keeps its
        # generators too, so one search serves the data and any other reader
        calls = count_kept_steps(monkeypatch)
        built = []
        rebind(_source_representatives, level_recorder(built))
        g = cycle_graph(6)
        once = {("_symmetry", id(g)): 1, ("automorphism_generators", id(g)): 1}
        for code in CLASS_CODES[:5]:  # the per-map classes
            is_class_member(g, query_for_code(code))
        assert calls == once and built and built_once(built)
        assert {(adj, connected) for adj, connected, _ in built} == {(g.adj, True)}
        # the one-point engine reads its start orbits off the same generators
        completions = []
        rebind(
            complete_map, lambda *args: completions.append(args) or complete_map(*args)
        )
        assert is_class_member(g, query_for_code("homo-homo")).holds
        assert calls == once and completions == []
        before = len(built)
        h = cycle_graph(6)
        is_class_member(h, query_for_code("iso-iso"))
        assert calls[("_symmetry", id(h))] == calls[("automorphism_generators", id(h))] == 1
        assert len(calls) == 4
        assert len(built) > before and built_once(built)

    def test_extension_symmetric_builds_each_graphs_symmetry_once(self, monkeypatch):
        # each of two equal graph objects keeps its own symmetry data, and
        # the generators it is built from, which both directions read
        calls = count_kept_steps(monkeypatch)
        g1, g2 = cycle_graph(6), cycle_graph(6)
        for code in CLASS_CODES:
            extension_symmetric(g1, g2, query_for_code(code))
        assert calls == {
            (step, id(g)): 1 for step in ("_symmetry", "automorphism_generators") for g in (g1, g2)
        }

    def test_sources_grown_once_per_record_and_classify(self, rebind):
        # all five per-map classes use connected sources, so one list serves
        # a whole sweep record, and both oracle classes of a classify: each
        # size of it is built at most once per graph object
        built = []
        rebind(_source_representatives, level_recorder(built))
        for g in enumerate_graphs(6, connected_only=False):
            before = len(built)
            sweep_record(to_graph6(g), g, CLASS_CODES, False)
            assert len(built) > before and built_once(built), g
            assert all(connected for _, connected, _ in built[before:]), g
        built.clear()
        report = classify(multiclaw_graph(2, 1, (3, 3)))
        assert built and built_once(built)
        for code in ("iso-homo", "mono-homo"):
            assert report.classes[code].source == "oracle"

    def test_orbit_reduction_is_exact(self):
        for g in enumerate_graphs(5):
            for code in CLASS_CODES:
                q = query_for_code(code)
                assert oracle._per_map(g, g, q).holds == unreduced(g, g, q).holds, (g, code)

    def test_orbit_reduction_is_exact_between_graphs(self):
        # targets are separate objects, so g2 is never g1 and the target's
        # orbits come from its own symmetry data; 324 ordered pairs, five
        # classes
        sources = list(enumerate_graphs(4, connected_only=False))
        targets = list(enumerate_graphs(4, connected_only=False))
        for code in CLASS_CODES[:5]:
            q = query_for_code(code)
            for g1 in sources:
                for g2 in targets:
                    on = oracle._per_map(g1, g2, q)
                    off = unreduced(g1, g2, q)
                    assert on.holds == off.holds, (code, g1, g2)
                    for res in (on, off):
                        if not res.holds:
                            assert validate_witness(g1, g2, q, res.witness)

    @pytest.mark.parametrize(
        "g, code, limit",
        [
            (complete_graph(8), "iso-homo", 1),
            (complete_graph(8), "mono-homo", 1),
            (rook_graph(4), "iso-homo", 9),
            (complete_graph(16), "iso-homo", 1),
            (bcpm_graph(6), "mono-homo", 20),
            (clique_chain(2, 12), "iso-homo", 26),
            (multiclaw_graph(2, 2, (2, 2, 2)), "iso-homo", 645),
        ],
        ids=[
            "K8-iso-homo",
            "K8-mono-homo",
            "rook4-iso-homo",
            "K16-iso-homo",
            "bcpm6-mono-homo",
            "clique-chain-2-12-iso-homo",
            "multiclaw-2-2-2-2-2-iso-homo",
        ],
    )
    def test_per_map_counter_gate(self, g, code, limit, rebind):
        # each depth tries only images least in their orbit under the
        # generators fixing the images before it, only maps with new
        # candidate masks are completed, and a map the recorded extensions
        # already extend is not: K_n completes one map (one per domain size
        # without the recorded extensions; K8: 128 and K16: 32 768 with one
        # first image per orbit and no pruning below), rook(4) 9 (153;
        # 9 977), bcpm(6) mono-homo 20 (92; 4 078), clique_chain(2, 12) 26
        # (382) and multiclaw 2 2 2 2 2 645 (1 916); the sources are grown,
        # never filtered out of all 2^n subsets
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


class TestTriangleEdgeCertificate:
    """An edge of g1 in a triangle, mapped onto an edge of g2 in no
    triangle, is a stuck map: the one-point engine looks for one before it
    builds any symmetry data."""

    @staticmethod
    def expected(g1: Graph, g2: Graph) -> tuple | None:
        """(domain, mapping, stuck vertex) of the least triangle edge u < v
        of g1, its least third vertex x, and the first edge a < b of g2 in
        no triangle, or None when either is missing."""
        triangles = [
            (u, v, (common & -common).bit_length() - 1)
            for u, v in g1.edges()
            if (common := g1.adj[u] & g1.adj[v])
        ]
        free = [(a, b) for a, b in g2.edges() if not g2.adj[a] & g2.adj[b]]
        if not triangles or not free:
            return None
        (u, v, x), (a, b) = triangles[0], free[0]
        return 1 << u | 1 << v, {u: a, v: b}, x

    def test_fires_exactly_on_a_triangle_edge_and_an_edge_in_no_triangle(
        self, monkeypatch
    ):
        # every connected graph on at most 7 vertices into itself, then
        # ``small_pairs``: the certificate decides 647 of the 996 graphs with
        # no state popped and no symmetry data built, and no other input
        q = query_for_code("homo-homo")
        calls = count_kept_steps(monkeypatch)

        def symmetry_steps() -> int:
            return sum(k for (step, _), k in calls.items() if step == "_symmetry")

        connected = [(g, g) for g in enumerate_graphs(7, connected_only=True)]
        assert len(connected) == 996
        fired = 0
        for i, (a, b) in enumerate(connected + small_pairs()):
            # fresh objects keep no symmetry data; a diagonal pair stays one
            g1 = Graph(a.n, a.adj)
            g2 = g1 if b is a else Graph(b.n, b.adj)
            before = symmetry_steps()
            res = extension_morphic(g1, g2, q)
            want = self.expected(g1, g2)
            w = res.witness
            certified = (
                res.checked_maps == 0 and w is not None and popcount(w.domain_mask) == 2
            )
            assert certified == (want is not None), (g1, g2)
            if want is None:
                assert symmetry_steps() > before, (g1, g2)
                continue
            fired += i < len(connected)
            assert (w.domain_mask, w.mapping, w.stuck_vertex) == want, (g1, g2)
            assert w.note.startswith("the edge "), (g1, g2)
            assert validate_witness(g1, g2, q, w), (g1, g2)
            assert symmetry_steps() == before, (g1, g2)
        assert fired == 647

    @pytest.mark.parametrize("bcpm_first", [True, False], ids=["bcpm6-K3", "K3-bcpm6"])
    def test_a_triangle_seeded_last_pops_no_state(self, bcpm_first):
        # bcpm(6) + K3 into bcpm(8) popped 186 830 states, the whole phase of
        # bcpm(6), before the triangle's phase got stuck, and K3 + bcpm(6)
        # popped 1; the order still matters for a stuck component with no
        # triangle (bcpm(5) + C5 into bcpm(8) pops 13 312, C5 + bcpm(5) 3)
        q = query_for_code("homo-homo")
        parts = [bcpm_graph(6), complete_graph(3)]
        g1 = disjoint_union(*(parts if bcpm_first else parts[::-1]))
        g2 = bcpm_graph(8)
        res = extension_morphic(g1, g2, q)
        assert not res.holds and res.checked_maps == 0
        assert validate_witness(g1, g2, q, res.witness)


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

    @pytest.mark.parametrize("image", [99, 5, -1])
    def test_witness_with_an_image_outside_the_target_is_refused(self, image):
        # a map into a vertex that g2 does not have is no morphism: refused
        # like every other invalid witness, not raised on
        c5 = cycle_graph(5)
        for code in CLASS_CODES:
            q = query_for_code(code)
            assert validate_witness(c5, c5, q, Witness(1, {0: image})) is False, code
            assert validate_witness(c5, c5, q, Witness(0b11, {0: 0, 1: image})) is False, code

    @pytest.mark.parametrize("g1, g2", [("E?CW", "EKYW"), ("EBj?", "E_Cw")])
    def test_seeds_use_the_targets_own_orbits(self, g1, g2):
        # equal-sized pairs whose failures all need a start image that g1's
        # orbit representatives, read as vertices of g2, do not reach; the
        # per-map engine's first images are chosen the same way
        q = query_for_code("homo-homo")
        g1, g2 = from_graph6(g1), from_graph6(g2)
        res = extension_morphic(g1, g2, q)
        assert not res.holds
        assert not oracle._per_map(g1, g2, q).holds
        assert validate_witness(g1, g2, q, res.witness)

    def test_unmappable_component(self):
        # the triangle has no homomorphism into K2, so growth inside it gets
        # stuck with no test of the component as a whole
        q = query_for_code("homo-homo")
        g1 = disjoint_union(complete_graph(3), complete_graph(1))
        res = extension_morphic(g1, complete_graph(2), q)
        assert not res.holds
        assert res.witness.domain_mask | 1 << res.witness.stuck_vertex == 0b111
        assert validate_witness(g1, complete_graph(2), q, res.witness)
        assert extension_morphic(complete_graph(1), complete_graph(2), q).holds

    def test_iso_target_needs_isomorphic_graphs(self):
        q = query_for_code("iso-iso")
        res = extension_morphic(complete_graph(2), complete_graph(3), q)
        assert not res.holds


class TestBudgetsAndSampling:
    def test_homo_budget_default(self):
        with pytest.raises(BudgetExceededError, match="the source budget of 16 "):
            is_class_member(complete_graph(17), query_for_code("homo-homo"))

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("HOMHOM_BUDGET", "5")
        with pytest.raises(BudgetExceededError):
            is_class_member(cycle_graph(6), query_for_code("iso-iso"))
        monkeypatch.delenv("HOMHOM_BUDGET")
        assert is_class_member(cycle_graph(6), query_for_code("iso-iso")).holds

    @pytest.mark.parametrize("reduce", [True, False])
    def test_sources_above_sixteen_vertices(self, reduce, monkeypatch):
        # 17 vertices take the generic mask images instead of the byte
        # tables; C17 completes 17 maps with orbit reduction and 8 671
        # without (32 with one first image per orbit and no pruning below,
        # 33 and 8 993 when every map was completed)
        monkeypatch.setenv("HOMHOM_BUDGET", "17")
        g, q = cycle_graph(17), query_for_code("iso-iso")
        res = is_class_member(g, q) if reduce else unreduced(g, g, q)
        assert res.holds
        assert res.checked_maps == (17 if reduce else 8_671)

    def test_witness_above_sixteen_vertices(self, monkeypatch):
        monkeypatch.setenv("HOMHOM_BUDGET", "17")
        g = clique_chain(2, 16)  # the path on 17 vertices
        q = query_for_code("iso-iso")
        res = is_class_member(g, q)
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


class TestWhatAGraphKeeps:
    GRAPHS = {
        "cycle6": lambda: cycle_graph(6),
        "P3+K3": lambda: disjoint_union(path_graph(3), complete_graph(3)),
        "multiclaw": lambda: multiclaw_graph(2, 1, (3, 3)),
    }

    @pytest.mark.parametrize("make", list(GRAPHS.values()), ids=list(GRAPHS))
    def test_a_dropped_graph_is_freed_without_the_cycle_collector(self, make):
        # nothing a graph keeps refers back to it, and no module holds it,
        # so reference counting frees it once its caller drops it
        def six_classes(g: Graph) -> None:
            for code in CLASS_CODES:
                is_class_member(g, query_for_code(code))

        def both_ways(g: Graph) -> None:
            other = make()
            for code in CLASS_CODES:
                extension_symmetric(g, other, query_for_code(code))
            others.append(weakref.ref(other))

        uses = [
            classify,
            six_classes,
            lambda g: sweep_record(to_graph6(g), g, CLASS_CODES, False),
            both_ways,
        ]
        others: list = []
        gc.disable()
        try:
            for use in uses:
                g = make()
                ref = weakref.ref(g)
                use(g)
                del g
                assert ref() is None, use
            assert [r() for r in others] == [None]
        finally:
            gc.enable()

    def test_a_pickle_carries_the_graph_alone(self):
        # a graph keeps a generator in its symmetry data once the oracle has
        # read it; a pickle of it carries n and adj and nothing kept
        g = multiclaw_graph(2, 1, (3, 3))
        classify(g)
        assert "homhom.oracle._symmetry" in vars(g)
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and vars(copy) == {"n": g.n, "adj": g.adj}

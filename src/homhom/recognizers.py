"""Structure-matching deciders for the extension classes with known shape.

Four of the six extension properties decided by :mod:`homhom.oracle` admit
fast structural recognizers: membership is equivalent to the graph being a
disjoint union of copies drawn from a short list of families.  This module
implements those recognizers, the bipartite predicates they are built from
(square-only cycles, common-neighbour conditions, complement matchings), the
pattern extraction machinery for the homo-homo case analysis, and a combined
per-graph report.  The two remaining properties (iso-homo and mono-homo) have
no known structural description and stay with the search oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from math import isqrt
from types import MappingProxyType
from typing import Mapping

from .families import (
    FamilyDescriptor,
    clebsch_graph,
    petersen_graph,
    rook_graph,
)
from .graphs import (
    Graph,
    bipartition,
    bits,
    common_neighbors,
    complement,
    connected_components,
    connected_within,
    degree,
    induced_subgraph,
    is_connected,
    is_isomorphic,
    mask_of,
    max_degree,
    neighbors,
    popcount,
)
from .oracle import (
    BudgetExceededError,
    Witness,
    is_class_member,
    query_for_code,
)

__all__ = [
    "CHH_FAMILY_KINDS",
    "ChhFamily",
    "ClassEntry",
    "ClassReport",
    "PcmCertificate",
    "Verdict",
    "b1_holds",
    "b2_holds",
    "b2_star_holds",
    "chh_case_and_families",
    "chh_connected_families",
    "chh_symmetric",
    "classify",
    "classify_cii",
    "complete_multipartite_parts",
    "embeds_pcm",
    "is_bcpm",
    "is_chh",
    "is_chh_connected",
    "is_chi",
    "is_cmi",
    "is_kn_treelike",
    "multiclaw_parameters",
    "pcm_extract",
    "recognizer_verdict",
    "validate_pcm_certificate",
]


# --------------------------------------------------------------------------
# Structural predicates
# --------------------------------------------------------------------------


def is_kn_treelike(g: Graph) -> int | None:
    """Block size k if ``g`` is a tree of k-cliques glued at cut vertices.

    Two polynomial tests.  First, every vertex neighbourhood must induce a
    disjoint union of cliques of one global size k-1.  Then every edge uv
    lies in exactly one k-clique, v plus the clique of u in N(v), so the m
    edges split into b = m / C(k,2) such cliques.  Their vertex-clique
    incidence graph is connected, with n + b vertices and k*b edges, so
    n - 1 <= (k-1)*b, with equality exactly when it is a tree.  The second
    test is that identity, (n-1)*C(k,2) = (k-1)*m, or 2m = k(n-1).

    It is exact: a chordless cycle of length >= 4 in ``g`` would give a
    closed walk in the tree, alternating cycle vertices and the cliques of
    consecutive cycle edges.  Such a walk must turn back somewhere, and it
    can only do so at a vertex whose two cycle edges lie in one clique,
    which makes a chord.  Conversely, when the neighbourhood test holds
    ``g`` has no induced diamond, and a graph with no diamond and no hole is
    a block graph, whose incidence graph is a tree (Bandelt & Mulder,
    "Distance-hereditary graphs", JCTB 1986).

    Returns None when no (unique) k >= 2 fits; a single vertex has no unique
    block size.  Raises ValueError on a disconnected graph.
    """
    if not is_connected(g):
        raise ValueError("is_kn_treelike requires a connected graph")
    if g.n == 1:
        return None
    block: int | None = None
    for v in range(g.n):
        nbhd = induced_subgraph(g, neighbors(g, v))
        for comp in connected_components(nbhd):
            k = popcount(comp)
            if induced_subgraph(nbhd, comp).edge_count() != k * (k - 1) // 2:
                return None
            if block is None:
                block = k
            elif block != k:
                return None
    assert block is not None  # connected with n >= 2: every vertex has a neighbour
    k = block + 1
    return k if 2 * g.edge_count() == k * (g.n - 1) else None


def b1_holds(g: Graph) -> bool:
    """Every induced cycle is a square and the two-squares graph (the
    domino) does not embed; that is, ``g`` is bipartite and
    distance-hereditary.

    Distance-hereditary graphs are those with no induced house, hole of
    length >= 5, domino or gem, and the connected ones are exactly those
    built from one vertex by adding pendant vertices and twins (Bandelt &
    Mulder, JCTB 1986).  A bipartite graph has no house, gem or odd hole,
    and a graph whose induced cycles are all squares has no odd cycle, so
    the two descriptions agree.  In a bipartite graph, adjacent twins only
    form a K2 component, so pendant vertices and non-adjacent twins
    (N(u) = N(v)) suffice, and these two steps build only bipartite graphs.
    The test undoes them: delete, one at a time, a vertex of degree at most
    1 or one vertex of a pair with N(u) = N(v).  Each deletion keeps the
    graph inside or outside the class, so ``g`` passes exactly when the
    deletions empty it.  At most n deletions, each found in one pass.
    """
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


def _connected_bipartition(g: Graph) -> tuple[int, int] | None:
    if not is_connected(g):
        return None
    return bipartition(g)


def b2_holds(g: Graph) -> bool:
    """Connected bipartite, and every k-subset of a part (k up to the maximum
    degree) has a common neighbour.  False when not connected bipartite."""
    parts = _connected_bipartition(g)
    if parts is None:
        return False
    dmax = max_degree(g)
    for part in parts:
        verts = list(bits(part))
        for k in range(1, min(dmax, len(verts)) + 1):
            for combo in itertools.combinations(verts, k):
                if common_neighbors(g, mask_of(combo)) == 0:
                    return False
    return True


def b2_star_holds(g: Graph) -> bool:
    """Connected bipartite and each (nonempty) part has a common neighbour."""
    parts = _connected_bipartition(g)
    if parts is None:
        return False
    for part in parts:
        if part and common_neighbors(g, part) == 0:
            return False
    return True


def is_bcpm(g: Graph) -> int | None:
    """Order n if ``g`` is a complete bipartite graph on n+n vertices minus a
    perfect matching (n >= 3); None otherwise (including when ``g`` is not
    connected bipartite).

    A connected bipartite graph with equal parts of size n and all degrees
    n-1 is forced to be exactly that: each vertex misses a unique cross
    vertex, and the missed pairs form a perfect matching.
    """
    parts = _connected_bipartition(g)
    if parts is None:
        return None
    x, y = parts
    n = popcount(x)
    if n != popcount(y) or n < 3:
        return None
    if any(degree(g, v) != n - 1 for v in range(g.n)):
        return None
    return n


# --------------------------------------------------------------------------
# Complement-matching patterns
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PcmCertificate:
    """Witness that a host graph contains a complement-matching pattern.

    ``z_mask``/``w_mask`` are vertex sets of the host; the induced subgraph
    on their union is connected and bipartite with exactly those parts,
    2 <= |Z| <= |W| = n, and ``matching`` assigns to every z a distinct
    non-neighbour in W.
    """

    z_mask: int
    w_mask: int
    matching: tuple[tuple[int, int], ...]

    def subgraph_mask(self) -> int:
        return self.z_mask | self.w_mask


def validate_pcm_certificate(g: Graph, cert: PcmCertificate, n: int) -> bool:
    """Check every invariant of ``cert`` as a PCM(n) pattern inside ``g``."""
    z, w = cert.z_mask, cert.w_mask
    if z & w or not z or not w:
        return False
    if (z | w) & ~g.full_mask:
        return False
    if not 2 <= popcount(z) <= popcount(w) == n:
        return False
    for side in (z, w):
        if any(neighbors(g, v) & side for v in bits(side)):
            return False  # parts must be independent sets
    if not connected_within(g, z | w):
        return False
    if sorted(zz for zz, _ in cert.matching) != list(bits(z)):
        return False
    seen_w = set()
    for zz, ww in cert.matching:
        if not (w >> ww) & 1 or ww in seen_w:
            return False
        seen_w.add(ww)
        if (neighbors(g, zz) >> ww) & 1:
            return False  # matched pairs must be non-adjacent
    return True


def _complement_matching(g: Graph, z_list: list[int], w_list: list[int]) -> dict[int, int] | None:
    """Matching saturating ``z_list`` with distinct non-neighbours from
    ``w_list`` (augmenting-path search), or None."""
    owner: dict[int, int] = {}

    def assign(z: int, seen: set[int]) -> bool:
        for w in w_list:
            if w in seen or (neighbors(g, z) >> w) & 1:
                continue
            seen.add(w)
            if w not in owner or assign(owner[w], seen):
                owner[w] = z
                return True
        return False

    for z in z_list:
        if not assign(z, set()):
            return None
    return {z: w for w, z in owner.items()}


def _may_hold_pcm(g: Graph, z_side: int, w_side: int, n: int) -> bool:
    """Whether a bipartite host could hold a pattern with its small part in
    ``z_side`` and its target part in ``w_side``: that side needs n
    vertices, and two vertices of ``z_side`` need distinct non-neighbours in
    it.  Two such vertices exist exactly when at least two vertices miss
    something there and, together, they miss at least two vertices."""
    if popcount(w_side) < n:
        return False
    missed = [w_side & ~neighbors(g, z) for z in bits(z_side)]
    missed = [m for m in missed if m]
    union = 0
    for m in missed:
        union |= m
    return len(missed) >= 2 and popcount(union) >= 2


def embeds_pcm(g: Graph, n: int) -> PcmCertificate | None:
    """Smallest (by vertex count, then lexicographic) complement-matching
    pattern with target part size ``n`` inside ``g``, or None when ``g`` is
    PCM(n)-free.  n must be at least 3.

    Brute force over vertex subsets, after one exact early exit.  A pattern
    is connected, so in a bipartite host its two parts lie on opposite
    sides of the host's bipartition, each z opposite its matched w.  When
    neither side can hold the small part (see ``_may_hold_pcm``), no
    pattern exists and the search is skipped; a complete bipartite host
    always exits here.  Other hosts still take the search, which is
    exponential in n.
    """
    if n < 3:
        raise ValueError(f"the pattern's target part size must be at least 3, got {n}")
    parts = bipartition(g)
    if parts is not None and not any(
        _may_hold_pcm(g, z_side, w_side, n) for z_side, w_side in (parts, parts[::-1])
    ):
        return None
    for size in range(n + 2, min(2 * n, g.n) + 1):
        for combo in itertools.combinations(range(g.n), size):
            mask = mask_of(combo)
            if not connected_within(g, mask):
                continue
            sub = induced_subgraph(g, mask)
            parts = bipartition(sub)
            if parts is None:
                continue
            verts = sorted(combo)
            side_a = [verts[i] for i in bits(parts[0])]
            side_b = [verts[i] for i in bits(parts[1])]
            for z_list, w_list in ((side_a, side_b), (side_b, side_a)):
                if len(w_list) != n or not 2 <= len(z_list) <= n:
                    continue
                matching = _complement_matching(g, z_list, w_list)
                if matching is None:
                    continue
                cert = PcmCertificate(
                    z_mask=mask_of(z_list),
                    w_mask=mask_of(w_list),
                    matching=tuple(sorted(matching.items())),
                )
                assert validate_pcm_certificate(g, cert, n)
                return cert
    return None


def pcm_extract(a: Graph, w_side: int, n: int) -> PcmCertificate:
    """Extract a complement-matching pattern with target part size ``n`` from
    a connected bipartite graph ``a`` whose distinguished part is ``w_side``.

    Preconditions (ValueError otherwise, naming the offending vertex or
    size): n >= 3; both sides independent; ``a`` connected; the distinguished
    part has at least n vertices; every vertex of the other part has a
    non-neighbour in the distinguished part.

    The pattern is grown greedily: start a two-vertex seed around a
    maximal-degree vertex, then repeatedly absorb the seed's neighbourhood
    plus one outside vertex reached through a new vertex of the small side
    chosen to see as many unabsorbed vertices as possible, keeping a
    complement matching updated along the way; stop once the absorbed
    neighbourhood reaches size n and pad from it.  All ties break to the
    smallest vertex id, so runs are deterministic.
    """
    if n < 3:
        raise ValueError(f"the pattern's target part size must be at least 3, got {n}")
    w_side &= a.full_mask
    z_side = a.full_mask & ~w_side
    if not w_side or not z_side:
        raise ValueError("both sides of the bipartition must be nonempty")
    for side, label in ((z_side, "source"), (w_side, "target")):
        for v in bits(side):
            if neighbors(a, v) & side:
                raise ValueError(f"the {label} side is not independent: vertex {v} has a neighbour inside it")
    if not is_connected(a):
        raise ValueError("the graph must be connected")
    nw = popcount(w_side)
    if nw < n:
        raise ValueError(f"the target side has {nw} vertices, fewer than the required {n}")
    for z in bits(z_side):
        if not (w_side & ~neighbors(a, z)):
            raise ValueError(f"vertex {z} is adjacent to the whole target side")

    # Seed: a maximal-degree z1, a second small-side vertex z2 two steps away
    # seeing as many vertices outside N(z1) as possible, plus one shared
    # neighbour w0, one private neighbour w1 of z2 and one private w2 of z1.
    z1 = max(bits(z_side), key=lambda v: (degree(a, v), -v))
    n_z1 = neighbors(a, z1)
    best_gain, z2 = 0, -1
    for cand in bits(z_side & ~(1 << z1)):
        if not (neighbors(a, cand) & n_z1):
            continue
        gain = popcount(neighbors(a, cand) & ~n_z1)
        if gain > best_gain:
            best_gain, z2 = gain, cand
    if z2 < 0:
        raise ValueError(f"no second seed vertex is reachable from vertex {z1} with a private neighbour")
    w0 = next(bits(n_z1 & neighbors(a, z2)))
    w1 = next(bits(neighbors(a, z2) & ~n_z1))
    private_z1 = n_z1 & ~neighbors(a, z2)
    if not private_z1:
        raise ValueError(f"vertex {z1} has no neighbour missed by vertex {z2}")
    w2 = next(bits(private_z1))
    z_order = [z1, z2]
    w_mask = mask_of((w0, w1, w2))
    matching = {z1: w1, z2: w2}

    while True:
        absorbed = 0
        for z in z_order:
            absorbed |= neighbors(a, z)
        if popcount(absorbed) >= n:
            break
        in_seed = mask_of(z_order)
        best_gain, z_new = 0, -1
        for cand in bits(z_side & ~in_seed):
            nb = neighbors(a, cand)
            if not (nb & absorbed):
                continue
            gain = popcount(nb & ~absorbed)
            if gain > best_gain:
                best_gain, z_new = gain, cand
        if z_new < 0:
            raise ValueError("the pattern cannot grow further; the graph cannot be connected")
        outside = next(bits(neighbors(a, z_new) & ~absorbed))
        free = absorbed & ~neighbors(a, z_new) & ~mask_of(matching.values())
        if free:
            matching[z_new] = next(bits(free))
        else:
            # Every non-neighbour of z_new in the absorbed set is already
            # matched: steal the earliest such partner and re-match its owner
            # to the fresh outside vertex, which no seed vertex sees yet.
            for z_old in z_order:
                if not (neighbors(a, z_new) >> matching[z_old]) & 1:
                    matching[z_new] = matching[z_old]
                    matching[z_old] = outside
                    break
            else:
                raise ValueError(f"vertex {z_new} is adjacent to all absorbed vertices; preconditions violated")
        z_order.append(z_new)
        w_mask = absorbed | (1 << outside)

    padding = [w for w in bits(absorbed & ~w_mask)][: n - popcount(w_mask)]
    cert = PcmCertificate(
        z_mask=mask_of(z_order),
        w_mask=w_mask | mask_of(padding),
        matching=tuple(sorted(matching.items())),
    )
    if not validate_pcm_certificate(a, cert, n):
        raise RuntimeError("internal error: extraction produced an invalid certificate")
    return cert


# --------------------------------------------------------------------------
# Connected homo-homo families
# --------------------------------------------------------------------------

CHH_FAMILY_KINDS = (
    "single-vertex",
    "clique-tree",
    "square-only-bipartite",
    "part-dominated-bipartite",
    "matching-complement",
)

_KINDS_WITH_ORDER = {"clique-tree", "matching-complement"}


@dataclass(frozen=True)
class ChhFamily:
    """One of the five shapes a connected homo-homo graph can take."""

    kind: str
    order: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in CHH_FAMILY_KINDS:
            raise ValueError(f"unknown homo-homo family kind {self.kind!r}")
        if (self.order is not None) != (self.kind in _KINDS_WITH_ORDER):
            raise ValueError(f"family kind {self.kind!r} and order {self.order!r} do not go together")

    def __str__(self) -> str:
        return self.kind if self.order is None else f"{self.kind}({self.order})"


def chh_connected_families(g: Graph) -> tuple[ChhFamily, ...]:
    """All the homo-homo family shapes a connected graph matches, in the
    fixed order single vertex, clique tree, square-only bipartite,
    part-dominated bipartite, matching complement.  Overlaps are real (every
    tree is both a clique tree of 2-blocks and square-only bipartite).
    Empty tuple means the graph is not homo-homo."""
    if not is_connected(g):
        raise ValueError("chh_connected_families requires a connected graph")
    matches: list[ChhFamily] = []
    if g.n == 1:
        matches.append(ChhFamily("single-vertex"))
    block = is_kn_treelike(g) if g.n > 1 else None
    if block is not None:
        matches.append(ChhFamily("clique-tree", block))
    if bipartition(g) is not None:
        if b1_holds(g):
            matches.append(ChhFamily("square-only-bipartite"))
        if b2_star_holds(g):
            matches.append(ChhFamily("part-dominated-bipartite"))
        order = is_bcpm(g)
        if order is not None:
            matches.append(ChhFamily("matching-complement", order))
    return tuple(matches)


def is_chh_connected(g: Graph) -> ChhFamily | None:
    """First matching homo-homo family of a connected graph, or None."""
    matches = chh_connected_families(g)
    return matches[0] if matches else None


def chh_symmetric(g1: Graph, g2: Graph) -> bool:
    """Whether two connected homo-homo graphs are homo-homo symmetric: every
    homomorphism from a connected induced subgraph of either into the other
    extends to a total homomorphism, in both directions.

    Decision ladder: a single vertex pairs only with a single vertex; a
    clique tree with blocks of size >= 3 pairs only with a same-size clique
    tree; two square-only bipartite graphs always pair; otherwise both must
    satisfy the every-subset common-neighbour condition, and then: two
    matching complements pair only when equal, equal maximum degrees always
    pair, a part-dominated smaller-degree graph always pairs, and a
    matching-complement smaller-degree graph pairs exactly when the larger
    graph is free of the corresponding complement-matching pattern.
    """
    fams = []
    for g in (g1, g2):
        fam = is_chh_connected(g)
        if fam is None:
            raise ValueError("chh_symmetric requires both graphs to be connected homo-homo graphs")
        fams.append(fam)
    if g1.n == 1 or g2.n == 1:
        return g1.n == 1 and g2.n == 1
    t1 = is_kn_treelike(g1)
    t2 = is_kn_treelike(g2)
    if (t1 is not None and t1 >= 3) or (t2 is not None and t2 >= 3):
        return t1 == t2
    # both bipartite from here on
    if b1_holds(g1) and b1_holds(g2):
        return True
    if not (b2_holds(g1) and b2_holds(g2)):
        return False
    order1, order2 = is_bcpm(g1), is_bcpm(g2)
    if order1 is not None and order2 is not None:
        return order1 == order2  # matching complements are isomorphic iff equal order
    d1, d2 = max_degree(g1), max_degree(g2)
    if d1 == d2:
        return True
    small, big = (g1, g2) if d1 < d2 else (g2, g1)
    if b2_star_holds(small):
        return True
    # The smaller-degree graph is a matching complement of order n; the
    # larger satisfies the part-domination condition, so symmetry comes down
    # to the larger graph being free of the order-n pattern.
    order = is_bcpm(small)
    assert order is not None
    return embeds_pcm(big, order) is None


CHH_CASES = ("a", "b", "c", "d", "e")


def is_chh(g: Graph) -> str | None:
    """Case tag if ``g`` (connected or not) is a homo-homo graph, else None.

    (a) independent set; (b) every component a clique tree with one block
    size >= 3; (c) every component square-only bipartite; (d) every
    component part-dominated bipartite; (e) matching complements of one
    order n mixed with part-dominated components free of the order-n
    pattern.  The first matching case is reported.  A connected graph lands
    in the case its single component matches.
    """
    return chh_case_and_families(g)[0]


def chh_case_and_families(g: Graph) -> tuple[str | None, tuple[ChhFamily, ...]]:
    """``is_chh(g)``, and with it ``chh_connected_families(g)`` when ``g`` is
    a connected member (empty otherwise), from one family match per
    component."""
    comps = [induced_subgraph(g, m) for m in connected_components(g)]
    fams = []
    for comp in comps:
        kinds = {fam.kind: fam for fam in chh_connected_families(comp)}
        if not kinds:
            return None, ()
        fams.append(kinds)
    case = _chh_case(comps, fams)
    return case, tuple(fams[0].values()) if case is not None and len(comps) == 1 else ()


def _chh_case(comps: list[Graph], fams: list[dict[str, ChhFamily]]) -> str | None:
    """The case tag of ``is_chh`` from the components, each of which matches
    at least one family, and their families keyed by kind."""
    if any(comp.n == 1 for comp in comps):
        # A single vertex admits no homomorphism from an edge, so it can only
        # sit beside other single vertices.
        return "a" if all(comp.n == 1 for comp in comps) else None
    blocks = {kinds["clique-tree"].order if "clique-tree" in kinds else None for kinds in fams}
    if len(blocks) == 1:
        block = blocks.pop()
        if block is not None and block >= 3:
            return "b"
    if all("square-only-bipartite" in kinds for kinds in fams):
        return "c"
    if all("part-dominated-bipartite" in kinds for kinds in fams):
        return "d"
    orders = set()
    others: list[Graph] = []
    for comp, kinds in zip(comps, fams):
        if "matching-complement" in kinds:
            orders.add(kinds["matching-complement"].order)
        elif "part-dominated-bipartite" in kinds:
            others.append(comp)
        else:
            return None
    if len(orders) != 1:
        return None
    order = orders.pop()
    for comp in others:
        # A part-dominated component embedding the order-n pattern has a
        # vertex adjacent to all n pattern targets, so max degree <= n-1
        # already guarantees pattern-freeness.
        if max_degree(comp) <= order - 1:
            continue
        if embeds_pcm(comp, order) is not None:
            return None
    return "e"


# --------------------------------------------------------------------------
# The three automorphism-target classes
# --------------------------------------------------------------------------


def _isomorphic_components(g: Graph) -> Graph | None:
    """The common component when all components of ``g`` are isomorphic."""
    comps = [induced_subgraph(g, m) for m in connected_components(g)]
    first = comps[0]
    for comp in comps[1:]:
        if comp.n != first.n or comp.edge_count() != first.edge_count() or not is_isomorphic(comp, first):
            return None
    return first


def complete_multipartite_parts(g: Graph) -> tuple[int, ...] | None:
    """Sorted part sizes if ``g`` is complete multipartite (2+ parts), else None."""
    comp = complement(g)
    parts = connected_components(comp)
    if len(parts) < 2:
        return None
    sizes = []
    for part in parts:
        k = popcount(part)
        if induced_subgraph(comp, part).edge_count() != k * (k - 1) // 2:
            return None
        sizes.append(k)
    return tuple(sorted(sizes))


def _cii_component_family(c: Graph) -> FamilyDescriptor | None:
    """Family of one connected component, in the fixed match order: complete,
    regular complete multipartite, cycle (length >= 5), rook graph (side >=
    3), matching complement (order >= 3), then the two sporadic graphs."""
    n = c.n
    if c.edge_count() == n * (n - 1) // 2:
        return FamilyDescriptor("COMPLETE", (n,))
    parts = complete_multipartite_parts(c)
    if parts is not None and len(set(parts)) == 1 and parts[0] >= 2:
        return FamilyDescriptor("REGULAR_MULTIPARTITE", (len(parts), parts[0]))
    if n >= 5 and all(degree(c, v) == 2 for v in range(n)):
        return FamilyDescriptor("CYCLE", (n,))
    side = isqrt(n)
    if side >= 3 and side * side == n and all(degree(c, v) == 2 * (side - 1) for v in range(n)):
        if is_isomorphic(c, rook_graph(side)):
            return FamilyDescriptor("LINE_KSS", (side,))
    order = is_bcpm(c)
    if order is not None:
        return FamilyDescriptor("BCPM", (order,))
    if n == 10 and all(degree(c, v) == 3 for v in range(n)) and is_isomorphic(c, petersen_graph()):
        return FamilyDescriptor("PETERSEN")
    if n == 16 and all(degree(c, v) == 5 for v in range(n)) and is_isomorphic(c, clebsch_graph()):
        return FamilyDescriptor("CLEBSCH")
    return None


def classify_cii(g: Graph) -> FamilyDescriptor | None:
    """Family descriptor if ``g`` is a disjoint union of copies of a single
    iso-iso family member, else None."""
    common = _isomorphic_components(g)
    if common is None:
        return None
    return _cii_component_family(common)


def is_cmi(g: Graph) -> bool:
    """Whether ``g`` is a disjoint union of copies of one of: a complete
    graph, a complete bipartite graph with equal parts, or a cycle."""
    c = _isomorphic_components(g)
    if c is None:
        return False
    n = c.n
    if c.edge_count() == n * (n - 1) // 2:
        return True
    if n >= 3 and all(degree(c, v) == 2 for v in range(n)):
        return True
    parts = bipartition(c)
    if parts is not None:
        s = popcount(parts[0])
        if s >= 2 and s == popcount(parts[1]) and c.edge_count() == s * s:
            return True
    return False


def is_chi(g: Graph) -> bool:
    """Whether every component of ``g`` is a complete graph of one size."""
    comps = connected_components(g)
    sizes = {popcount(m) for m in comps}
    if len(sizes) != 1:
        return False
    k = sizes.pop()
    return all(induced_subgraph(g, m).edge_count() == k * (k - 1) // 2 for m in comps)


def multiclaw_parameters(g: Graph) -> tuple[int, int, tuple[int, ...]] | None:
    """Parameters (clique size, blob size, blob counts) if ``g`` is a
    generalized multiclaw: a clique joined completely to one or more groups,
    each group a disjoint union of >= 2 equal cliques of one global size.

    Matched through the complement, which must split into isolated vertices
    (the clique) plus complete-multipartite components with equal part sizes
    (the groups)."""
    comp = complement(g)
    clique_size = 0
    blob_size: int | None = None
    counts: list[int] = []
    for part in connected_components(comp):
        if popcount(part) == 1:
            clique_size += 1
            continue
        sub = induced_subgraph(comp, part)
        sizes = complete_multipartite_parts(sub)
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


# --------------------------------------------------------------------------
# Combined report
# --------------------------------------------------------------------------


class Verdict(str, Enum):
    YES = "yes"
    NO = "no"
    ORACLE_ONLY = "oracle-only"


@dataclass(frozen=True)
class ClassEntry:
    """Verdict for one extension class, with its provenance and evidence."""

    verdict: Verdict
    source: str = ""  # "recognizer", "oracle", or "" when undecided
    family: FamilyDescriptor | ChhFamily | None = None
    witness: Witness | None = None
    note: str = ""


@dataclass(frozen=True)
class ClassReport:
    """Per-class entries for one graph, keyed by class code, with the
    homo-homo recognizer's full result: ``hh_case`` is the case tag (None
    for a non-member), and ``hh_families`` every family a connected member
    matches (empty otherwise)."""

    classes: Mapping[str, ClassEntry]
    hh_case: str | None = None
    hh_families: tuple[ChhFamily, ...] = ()

    def verdict(self, code: str) -> Verdict:
        return self.classes[code].verdict


def recognizer_verdict(g: Graph, code: str) -> bool | None:
    """Structural verdict for one class code, or None where no structural
    characterisation exists (iso-homo, mono-homo)."""
    if code == "iso-iso":
        return classify_cii(g) is not None
    if code == "mono-iso":
        return is_cmi(g)
    if code == "homo-iso":
        return is_chi(g)
    if code == "homo-homo":
        return is_chh(g) is not None
    if code in ("iso-homo", "mono-homo"):
        return None
    raise ValueError(f"unknown class code {code!r}")


def _known_one_sided_note(g: Graph, code: str) -> tuple[str, FamilyDescriptor | None]:
    """A fact about ``g``'s membership known without search, when one applies."""
    if code == "iso-homo":
        params = multiclaw_parameters(g)
        if params is not None:
            clique_size, blob_size, counts = params
            desc = FamilyDescriptor("MULTICLAW", (clique_size, blob_size, *counts))
            return "generalized multiclaw: known member", desc
    if code == "mono-homo" and is_connected(g):
        fam = _cii_component_family(g)
        if fam is not None:
            if fam.tag in ("PETERSEN", "CLEBSCH") or (fam.tag == "LINE_KSS" and fam.params[0] > 2):
                return f"{fam}: known non-member", fam
        parts = complete_multipartite_parts(g)
        if parts is not None and len(parts) >= 3 and parts[-1] >= 2:
            return "complete multipartite with 3+ parts: known non-member", None
    return "", None


def classify(g: Graph, *, use_oracle: bool = True) -> ClassReport:
    """Full per-class report for ``g``.

    The four structurally characterised classes are decided by the
    recognizers.  The two endomorphism-target classes without a structural
    description are decided by the search oracle when the graph fits the
    budget, and otherwise left open with any known one-sided fact noted.
    """
    entries: dict[str, ClassEntry] = {}
    fam = classify_cii(g)
    entries["iso-iso"] = ClassEntry(
        Verdict.YES if fam is not None else Verdict.NO, "recognizer", family=fam
    )
    entries["mono-iso"] = ClassEntry(
        Verdict.YES if is_cmi(g) else Verdict.NO, "recognizer"
    )
    entries["homo-iso"] = ClassEntry(
        Verdict.YES if is_chi(g) else Verdict.NO, "recognizer"
    )
    case, hh_families = chh_case_and_families(g)
    entries["homo-homo"] = ClassEntry(
        Verdict.YES if case is not None else Verdict.NO,
        "recognizer",
        family=hh_families[0] if hh_families else None,
        note=f"components match case ({case})" if case is not None else "",
    )
    for code in ("iso-homo", "mono-homo"):
        entry: ClassEntry | None = None
        if use_oracle:
            try:
                result = is_class_member(g, query_for_code(code))
            except BudgetExceededError:
                pass
            else:
                entry = ClassEntry(
                    Verdict.YES if result.holds else Verdict.NO, "oracle", witness=result.witness
                )
        if entry is None:
            note, desc = _known_one_sided_note(g, code)
            entry = ClassEntry(Verdict.ORACLE_ONLY, "", family=desc, note=note)
        entries[code] = entry
    return ClassReport(MappingProxyType(entries), case, hh_families)

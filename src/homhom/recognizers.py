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

from dataclasses import dataclass
from enum import Enum
from math import isqrt
from types import MappingProxyType
from typing import Callable, Hashable, Mapping, Sequence

from .families import FamilyDescriptor
from .graphs import (
    Graph,
    _complement_rows,
    _kept,
    _reach,
    bipartition,
    bits,
    common_neighbors,
    connected_components,
    connected_within,
    induced_subgraph,
    is_connected,
    mask_of,
    popcount,
)
from .oracle import (
    BudgetExceededError,
    Witness,
    is_class_member,
    query_for_code,
)


# --------------------------------------------------------------------------
# Structural predicates
# --------------------------------------------------------------------------


def _clique_partition(rows: Sequence[int], within: int) -> list[int] | None:
    """The clique masks, lowest vertex first, when the adjacency ``rows``
    restricted to ``within`` form a disjoint union of cliques; else None.

    Take the lowest vertex u not yet covered and its closed neighbourhood C
    inside ``within``; every member w of C must have that same closed
    neighbourhood.  Then C is a clique (each w sees all of C) with no edge
    leaving it (each w sees nothing else), so it is a component.  It misses
    the cliques already removed, since each of those is closed and does not
    contain u.  Conversely, in a disjoint union of cliques every closed
    neighbourhood is the vertex's own clique, so the test never fails on
    one.  One pass over ``within``, no subgraph built.
    """
    cliques: list[int] = []
    left = within
    while left:
        low = left & -left
        clique = rows[low.bit_length() - 1] & within | low
        # walked by hand, not through ``bits``: the scan usually stops at
        # its first vertex, before a tuple of the clique would pay off
        rest = clique
        while rest:
            w = rest & -rest
            if rows[w.bit_length() - 1] & within | w != clique:
                return None
            rest ^= w
        cliques.append(clique)
        left &= ~clique
    return cliques


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
    sizes: set[int] = set()
    for row in g.adj:
        cliques = _clique_partition(g.adj, row)
        if cliques is None:
            return None
        sizes.update(map(popcount, cliques))
        if len(sizes) > 1:
            return None
    # connected with n >= 2: every vertex has a neighbour, so sizes is nonempty
    k = sizes.pop() + 1
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
    graph inside or outside the class, so the order does not matter, and
    ``g`` passes exactly when the deletions empty it.  A worklist holds the
    vertices to look at, and a count per live neighbourhood finds twins: a
    deletion changes only its neighbours' neighbourhoods, so only they go
    back on the list.  O(m) dictionary steps in all.
    """
    nbhd = list(g.adj)
    count: dict[int, int] = {}
    for row in nbhd:
        count[row] = count.get(row, 0) + 1
    alive = g.full_mask
    todo = list(range(g.n))
    while todo:
        v = todo.pop()
        row = nbhd[v]
        if not alive >> v & 1 or (row & (row - 1) and count[row] == 1):
            continue
        alive ^= 1 << v
        count[row] -= 1
        for u in bits(row):
            count[nbhd[u]] -= 1
            nbhd[u] ^= 1 << v
            count[nbhd[u]] = count.get(nbhd[u], 0) + 1
            todo.append(u)
    return not alive


def b2_star_holds(g: Graph) -> bool:
    """Connected bipartite and each (nonempty) part has a common neighbour.

    Connectedness needs no test of its own: ``bipartition`` puts the lowest
    vertex of each component on side x, and vertices of two components
    have no common neighbour."""
    parts = bipartition(g)
    if parts is None:
        return False
    for part in parts:
        if part and common_neighbors(g, part) == 0:
            return False
    return True


@_kept
def is_bcpm(g: Graph) -> int | None:
    """Order n if ``g`` is a complete bipartite graph on n+n vertices minus a
    perfect matching (n >= 3); None otherwise (including when ``g`` is not
    connected bipartite).

    A bipartite graph with equal parts of size n >= 3 and all degrees n-1
    is forced to be exactly that: each vertex misses a unique cross vertex,
    and the missed pairs form a perfect matching.  It is connected, as any
    two vertices of one part share n-2 >= 1 of their n-1 neighbours.
    """
    parts = bipartition(g)
    if parts is None:
        return None
    x, y = parts
    n = popcount(x)
    if n != popcount(y) or n < 3:
        return None
    if any(popcount(row) != n - 1 for row in g.adj):
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
        if any(g.adj[v] & side for v in bits(side)):
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
        if (g.adj[zz] >> ww) & 1:
            return False  # matched pairs must be non-adjacent
    return True


def embeds_pcm(g: Graph, n: int) -> PcmCertificate | None:
    """A complement-matching pattern with target part size ``n`` inside the
    bipartite host ``g``, or None when ``g`` is PCM(n)-free.  Raises
    ValueError when n < 3 or ``g`` is not bipartite.

    A pattern is connected, so its parts Z and W lie on opposite sides of
    the host's bipartition; try each side as the home of Z.  Let S be that
    side.  Split S into the components of S with its neighbours, and drop
    every z whose neighbourhood is its whole component's; repeat until
    nothing is dropped.  A component left whose neighbourhood N has at
    least n vertices meets ``pcm_extract``'s preconditions: it is connected
    and bipartite, and every z left misses a vertex of N.  So the
    extraction finds a pattern, and a pattern induced in the component is
    induced in ``g``.  Conversely, a pattern's z is never dropped: its
    component's neighbourhood contains N(Z), which contains W, and z misses
    its matched vertex of W.  Z with N(Z) is connected, so Z stays inside
    one component, whose neighbourhood has at least |W| = n vertices.  At
    most |S| rounds of one linear pass each.  The pattern returned is the
    extraction's, not the smallest.
    """
    if n < 3:
        raise ValueError(f"the pattern's target part size must be at least 3, got {n}")
    parts = bipartition(g)
    if parts is None:
        raise ValueError("the host of a complement-matching pattern must be bipartite")
    for z_side, w_side in (parts, parts[::-1]):
        while True:
            comps = []
            rest = z_side
            while rest:
                comp = _reach(g.adj, rest & -rest, z_side | w_side)
                rest &= ~comp
                comps.append((comp & z_side, comp & w_side))
            full = mask_of(z for zs, ws in comps for z in bits(zs) if g.adj[z] == ws)
            if not full:
                break
            z_side &= ~full
        for zs, ws in comps:
            if popcount(ws) >= n:
                old = bits(zs | ws)
                sub_w = mask_of(i for i, v in enumerate(old) if ws >> v & 1)
                cert = pcm_extract(induced_subgraph(g, zs | ws), sub_w, n)
                return PcmCertificate(
                    z_mask=mask_of(old[i] for i in bits(cert.z_mask)),
                    w_mask=mask_of(old[i] for i in bits(cert.w_mask)),
                    matching=tuple((old[z], old[w]) for z, w in cert.matching),
                )
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
            if a.adj[v] & side:
                raise ValueError(f"the {label} side is not independent: vertex {v} has a neighbour inside it")
    if not is_connected(a):
        raise ValueError("the graph must be connected")
    nw = popcount(w_side)
    if nw < n:
        raise ValueError(f"the target side has {nw} vertices, fewer than the required {n}")
    for z in bits(z_side):
        if not (w_side & ~a.adj[z]):
            raise ValueError(f"vertex {z} is adjacent to the whole target side")

    # Seed: a maximal-degree z1, a second small-side vertex z2 two steps away
    # seeing as many vertices outside N(z1) as possible, plus one shared
    # neighbour w0, one private neighbour w1 of z2 and one private w2 of z1.
    z1 = max(bits(z_side), key=lambda v: (popcount(a.adj[v]), -v))
    n_z1 = a.adj[z1]
    best_gain, z2 = 0, -1
    for cand in bits(z_side & ~(1 << z1)):
        if not (a.adj[cand] & n_z1):
            continue
        gain = popcount(a.adj[cand] & ~n_z1)
        if gain > best_gain:
            best_gain, z2 = gain, cand
    if z2 < 0:
        raise ValueError(f"no second seed vertex is reachable from vertex {z1} with a private neighbour")
    w0 = bits(n_z1 & a.adj[z2])[0]
    w1 = bits(a.adj[z2] & ~n_z1)[0]
    private_z1 = n_z1 & ~a.adj[z2]
    if not private_z1:
        raise ValueError(f"vertex {z1} has no neighbour missed by vertex {z2}")
    w2 = bits(private_z1)[0]
    z_order = [z1, z2]
    w_mask = mask_of((w0, w1, w2))
    matching = {z1: w1, z2: w2}

    while True:
        absorbed = 0
        for z in z_order:
            absorbed |= a.adj[z]
        if popcount(absorbed) >= n:
            break
        in_seed = mask_of(z_order)
        best_gain, z_new = 0, -1
        for cand in bits(z_side & ~in_seed):
            nb = a.adj[cand]
            if not (nb & absorbed):
                continue
            gain = popcount(nb & ~absorbed)
            if gain > best_gain:
                best_gain, z_new = gain, cand
        if z_new < 0:
            raise ValueError("the pattern cannot grow further; the graph cannot be connected")
        outside = bits(a.adj[z_new] & ~absorbed)[0]
        free = absorbed & ~a.adj[z_new] & ~mask_of(matching.values())
        if free:
            matching[z_new] = bits(free)[0]
        else:
            # Every non-neighbour of z_new in the absorbed set is already
            # matched: steal the earliest such partner and re-match its owner
            # to the fresh outside vertex, which no seed vertex sees yet.
            for z_old in z_order:
                if not (a.adj[z_new] >> matching[z_old]) & 1:
                    matching[z_new] = matching[z_old]
                    matching[z_old] = outside
                    break
            else:
                raise ValueError(f"vertex {z_new} is adjacent to all absorbed vertices; preconditions violated")
        z_order.append(z_new)
        w_mask = absorbed | (1 << outside)

    padding = bits(absorbed & ~w_mask)[: n - popcount(w_mask)]
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


def chh_symmetric(g1: Graph, g2: Graph) -> bool:
    """Whether two connected homo-homo graphs are homo-homo symmetric: every
    homomorphism from a connected induced subgraph of either into the other
    extends to a total homomorphism, in both directions.

    Decision ladder: a single vertex pairs only with a single vertex; a
    clique tree with blocks of size >= 3 pairs only with a same-size clique
    tree; two square-only bipartite graphs always pair; otherwise both must
    be part-dominated or matching complements, and then: two matching
    complements pair only when equal, equal maximum degrees always pair, a
    part-dominated smaller-degree graph always pairs, and a
    matching-complement smaller-degree graph pairs exactly when the larger
    graph is free of the corresponding complement-matching pattern.
    """
    fams = []
    for g in (g1, g2):
        fam = {f.kind: f for f in chh_connected_families(g)}
        if not fam:
            raise ValueError("chh_symmetric requires both graphs to be connected homo-homo graphs")
        fams.append(fam)
    f1, f2 = fams
    if g1.n == 1 or g2.n == 1:
        return g1.n == 1 and g2.n == 1
    t1, t2 = (f["clique-tree"].order if "clique-tree" in f else None for f in fams)
    if (t1 is not None and t1 >= 3) or (t2 is not None and t2 >= 3):
        return t1 == t2
    # both bipartite from here on
    if "square-only-bipartite" in f1 and "square-only-bipartite" in f2:
        return True
    # Both need a common neighbour for each subset of a part of up to the
    # maximum degree D.  Part-dominated graphs and matching complements have
    # one (in bcpm(m) a set of at most m - 1 vertices misses a vertex, whose
    # partner sees the rest), and no other connected bipartite graph does.
    # If a part X has none, |X| > D and every D-subset of X is N(y) for its
    # own y, so C(|X|, D) <= |Y|.  If Y has none either, also C(|Y|, D) <=
    # |X|, so |X| = |Y| = D + 1: bcpm(D + 1).  If Y has one, |Y| <= D <
    # C(|X|, D), a contradiction.
    if not all("part-dominated-bipartite" in f or "matching-complement" in f for f in fams):
        return False
    if "matching-complement" in f1 and "matching-complement" in f2:
        # matching complements are isomorphic iff equal order
        return f1["matching-complement"].order == f2["matching-complement"].order
    d1, d2 = max(map(popcount, g1.adj)), max(map(popcount, g2.adj))
    if d1 == d2:
        return True
    small, big = (f1, g2) if d1 < d2 else (f2, g1)
    if "part-dominated-bipartite" in small:
        return True
    # The smaller-degree graph is a matching complement of order n; the
    # larger satisfies the part-domination condition, so symmetry comes down
    # to the larger graph being free of the order-n pattern.
    order = small["matching-complement"].order
    return embeds_pcm(big, order) is None


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


@_kept
def chh_case_and_families(g: Graph) -> tuple[str | None, tuple[ChhFamily, ...]]:
    """``is_chh(g)``, and with it ``chh_connected_families(g)`` when ``g`` is
    a connected member (empty otherwise), from one family match per
    component."""
    comps = connected_components(g)
    fams = []
    for comp in comps:
        kinds = {fam.kind: fam for fam in chh_connected_families(comp)}
        if not kinds:
            return None, ()
        fams.append(kinds)
    case = _chh_case(comps, fams)
    return case, tuple(fams[0].values()) if case is not None and len(comps) == 1 else ()


def _chh_case(comps: Sequence[Graph], fams: list[dict[str, ChhFamily]]) -> str | None:
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
    if any(embeds_pcm(comp, order) is not None for comp in others):
        return None
    return "e"


# --------------------------------------------------------------------------
# The three automorphism-target classes
# --------------------------------------------------------------------------


@_kept
def complete_multipartite_parts(g: Graph) -> tuple[int, ...] | None:
    """Sorted part sizes if ``g`` is complete multipartite (2+ parts), else
    None: the complement must be a disjoint union of 2+ cliques."""
    parts = _clique_partition(_complement_rows(g), g.full_mask)
    if parts is None or len(parts) < 2:
        return None
    return tuple(sorted(map(popcount, parts)))


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
    if n >= 5 and all(popcount(row) == 2 for row in c.adj):
        return FamilyDescriptor("CYCLE", (n,))
    side = isqrt(n)
    if side >= 3 and side * side == n and _is_rook(c, side):
        return FamilyDescriptor("LINE_KSS", (side,))
    order = is_bcpm(c)
    if order is not None:
        return FamilyDescriptor("BCPM", (order,))
    if n == 10 and _strongly_regular(c, 3, 0, 1):
        return FamilyDescriptor("PETERSEN")
    if n == 16 and _strongly_regular(c, 5, 0, 2):
        return FamilyDescriptor("CLEBSCH")
    return None


def _is_rook(c: Graph, side: int) -> bool:
    """Whether ``c``, with side**2 vertices and side >= 3, is the rook graph
    K_side x K_side: every neighbourhood is two disjoint (side-1)-cliques.

    Then v's two closed cliques are its two lines, each of side vertices.
    For a in one of them, v and the other side-2 >= 1 members share a
    clique of N(a), so the lines are the same seen from any member, each
    edge lies in one line, and two lines meet in at most one vertex.  So
    ``c`` is the line graph of the graph H of its 2*side lines, which is
    side-regular with side**2 edges.  H has no triangle: three lines
    meeting pairwise at x, y and z would put y and z in different cliques
    of N(x), yet y and z share the third line, so they are adjacent.  By
    Mantel's theorem H is K_{side,side}, whose line graph is the rook
    graph; and the rook graph passes the test.
    """
    size = side - 1
    for row in c.adj:
        if popcount(row) != 2 * size:
            return False
        cliques = _clique_partition(c.adj, row)
        if cliques is None or len(cliques) != 2 or popcount(cliques[0]) != size:
            return False
    return True


def _strongly_regular(c: Graph, k: int, lam: int, mu: int) -> bool:
    """Whether ``c`` is k-regular, adjacent vertices share ``lam``
    neighbours and non-adjacent ones ``mu``.  For (10, 3, 0, 1) that is the
    Petersen graph and for (16, 5, 0, 2) the Clebsch graph, each the one
    strongly regular graph with its parameters (Seidel, Linear Algebra
    Appl. 1968)."""
    adj = c.adj
    for v, row in enumerate(adj):
        if popcount(row) != k:
            return False
        for u in range(v + 1, c.n):
            if popcount(row & adj[u]) != (lam if row >> u & 1 else mu):
                return False
    return True


def _single_key(g: Graph, key: Callable[[Graph], Hashable | None]) -> Hashable | None:
    """The common ``key`` of every component of ``g``, or None when a
    component's key is None or two components' keys differ."""
    common = None
    for comp in connected_components(g):
        k = key(comp)
        if k is None or common not in (None, k):
            return None
        common = k
    return common


@_kept
def classify_cii(g: Graph) -> FamilyDescriptor | None:
    """Family descriptor if ``g`` is a disjoint union of copies of a single
    iso-iso family member, else None.  A descriptor fixes its member up to
    isomorphism, so equal descriptors mean isomorphic components."""
    return _single_key(g, _cii_component_family)


def _cmi_shape(c: Graph) -> tuple[str, int] | None:
    """Shape of one connected component, in the fixed test order: complete
    n, cycle n, or K_{s,s} with s >= 2."""
    n = c.n
    if c.edge_count() == n * (n - 1) // 2:
        return "complete", n
    if n >= 3 and all(popcount(row) == 2 for row in c.adj):
        return "cycle", n
    parts = bipartition(c)
    if parts is not None:
        s = popcount(parts[0])
        if s >= 2 and s == popcount(parts[1]) and c.edge_count() == s * s:
            return "kss", s
    return None


def is_cmi(g: Graph) -> bool:
    """Whether ``g`` is a disjoint union of copies of one of: a complete
    graph, a complete bipartite graph with equal parts, or a cycle."""
    return _single_key(g, _cmi_shape) is not None


def is_chi(g: Graph) -> bool:
    """Whether every component of ``g`` is a complete graph of one size."""
    cliques = _clique_partition(g.adj, g.full_mask)
    return cliques is not None and len(set(map(popcount, cliques))) == 1


@_kept
def multiclaw_parameters(g: Graph) -> tuple[int, int, tuple[int, ...]] | None:
    """Parameters (clique size, blob size, blob counts) if ``g`` is a
    generalized multiclaw: a clique joined completely to one or more groups,
    each group a disjoint union of >= 2 equal cliques of one global size.

    Matched through the complement, which must split into isolated vertices
    (the clique) plus components (the groups) on each of which ``g`` is a
    disjoint union of equal cliques, two or more since the component is
    connected in the complement."""
    co_rows = _complement_rows(g)
    clique_size = 0
    sizes: set[int] = set()
    counts: list[int] = []
    left = g.full_mask
    while left:
        part = _reach(co_rows, left & -left, left)
        left &= ~part
        if popcount(part) == 1:
            clique_size += 1
            continue
        blobs = _clique_partition(g.adj, part)
        if blobs is None:
            return None
        sizes.update(map(popcount, blobs))
        if len(sizes) > 1:
            return None
        counts.append(len(blobs))
    if not counts:
        return None
    return clique_size, sizes.pop(), tuple(sorted(counts))


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
    source: str = ""  # "recognizer", "oracle", "implied", or "" when undecided
    family: FamilyDescriptor | ChhFamily | None = None
    witness: Witness | None = None
    note: str = ""


@dataclass(frozen=True)
class ClassReport:
    """Per-class entries for one graph, keyed by class code."""

    classes: Mapping[str, ClassEntry]

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
    """A fact about ``g``'s membership known without search, when one
    applies."""
    if code == "iso-homo":
        params = multiclaw_parameters(g)
        if params is not None:
            clique_size, blob_size, counts = params
            desc = FamilyDescriptor("MULTICLAW", (clique_size, blob_size, *counts))
            return "generalized multiclaw: known member", desc
    if code == "mono-homo" and is_connected(g):
        # a connected graph is its one component, so this is its family
        cii = classify_cii(g)
        if cii is not None:
            if cii.tag in ("PETERSEN", "CLEBSCH") or (cii.tag == "LINE_KSS" and cii.params[0] > 2):
                return f"{cii}: known non-member", cii
        parts = complete_multipartite_parts(g)
        if parts is not None and len(parts) >= 3 and parts[-1] >= 2:
            return "complete multipartite with 3+ parts: known non-member", None
    return "", None


# the classes whose members the definitions put in iso-homo or mono-homo
_IMPLIED_BY = {
    "iso-homo": ("iso-iso", "homo-homo"),
    "mono-homo": ("mono-iso", "homo-homo"),
}


def _implied_entry(g: Graph, code: str, entries: Mapping[str, ClassEntry]) -> ClassEntry | None:
    """The entry of iso-homo or mono-homo that the entries decided before it
    force, or None.

    An automorphism is an endomorphism, and an induced embedding is a
    monomorphism, which is a homomorphism.  So a member of iso-iso or
    homo-homo is one of iso-homo, a member of mono-iso or homo-homo is one
    of mono-homo, and an iso-homo witness, an induced embedding with no
    extension, is a mono-homo witness.  The note names the class the
    verdict follows from, and the family is the one-sided note's."""
    premise = next((c for c in _IMPLIED_BY[code] if entries[c].verdict is Verdict.YES), None)
    verdict, witness = Verdict.YES, None
    if premise is None:
        if code != "mono-homo" or entries["iso-homo"].verdict is not Verdict.NO:
            return None
        premise, verdict, witness = "iso-homo", Verdict.NO, entries["iso-homo"].witness
    _, family = _known_one_sided_note(g, code)
    return ClassEntry(verdict, "implied", family, witness, f"implied by {premise}")


def classify(g: Graph) -> ClassReport:
    """Full per-class report for ``g``.

    The four structurally characterised classes are decided by the
    recognizers.  Each of the two endomorphism-target classes without a
    structural description is implied where the verdicts before it force
    it (``_implied_entry``), else decided by the search oracle when the
    graph fits the budget, and otherwise left open with any known one-sided
    fact noted, so ``HOMHOM_BUDGET=0`` gives a recognizer-only report.
    ``sweep`` still runs the oracle on every class.
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
        entry = _implied_entry(g, code, entries)
        if entry is None:
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
    return ClassReport(MappingProxyType(entries))

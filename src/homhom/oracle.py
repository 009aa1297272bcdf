"""Brute-force decision of extension properties, straight from the definition.

A graph G satisfies the (source -> target) extension property when every
source-kind morphism out of a connected induced subgraph of G extends to a
total target-kind morphism G -> G.  Six properties matter here, named by
their morphism kinds::

    iso-iso    mono-iso    homo-iso      (extend to an automorphism)
    iso-homo   mono-homo   homo-homo     (extend to an endomorphism)

The same machinery decides the relative versions between two graphs: every
source map out of g1 landing in g2 must extend to a total morphism g1 -> g2.

Everything here is exhaustive search with witnesses, meant as ground truth
for the structural recognizers; budgets guard against accidentally feeding
it graphs where exhaustion cannot finish.

Two engines do the search, and both prune by the symmetry that one strong
generating set of each graph's automorphism group gives (``_Symmetry``).
Each graph object keeps its own, built on first need, so every class asked
about it, and both directions between two graphs, read the same one.
The per-map engine decides five of the properties.  It tries the source
maps on one source subset per automorphism orbit of g1, keyed by the
candidate images each vertex has left, and returns the first failing map
in ``enumerate_morphisms`` order; see ``_per_map_search`` for why each of
its reductions is exact.  Connected homo-homo uses the one-point reduction
of Cameron and Nesetril (CPC 2006) instead: it holds exactly when no
homomorphism from a connected induced subgraph gets stuck, that is, has an
adjacent vertex with no feasible image.  That engine grows such maps one
vertex at a time from one start per pair of vertex orbits, keyed by domain
and candidate images, under the stabilisers of the domain and of its
image, and tests each map for a stuck vertex when it is made (forward
checking; Haralick and Elliott, Artif. Intell. 1980), so a "no" search
stops at the first stuck map it builds.  Before it builds any symmetry
data it looks for the smallest stuck map, a triangle edge mapped onto an
edge in no triangle; see ``_one_point_search`` for why it misses no stuck
map.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, _kept, _reach, bits, connected_within
from .morphisms import (
    MorphKind,
    _complete,
    _source_representatives,
    _variable_order,
    _vertex_orbits,
    automorphism_generators,
    check_kind,
    complete_map,
)


class BudgetExceededError(RuntimeError):
    """The graph is too large for exhaustive checking under the current budget."""


@dataclass(frozen=True)
class ClassQuery:
    """Which extension property to decide."""

    source: MorphKind
    target: MorphKind

    def __post_init__(self) -> None:
        if self.target is MorphKind.MONO:
            raise ValueError("extension targets are iso or homo")

    @property
    def code(self) -> str:
        return f"{self.source.value}-{self.target.value}"


# the six connected extension properties, in hierarchy-friendly order
CLASS_CODES = (
    "iso-iso",
    "mono-iso",
    "homo-iso",
    "iso-homo",
    "mono-homo",
    "homo-homo",
)

_KIND_BY_NAME = {k.value: k for k in MorphKind}


def query_for_code(code: str) -> ClassQuery:
    parts = code.split("-")
    if len(parts) != 2 or any(p not in _KIND_BY_NAME for p in parts):
        raise ValueError(f"unknown class code {code!r} (expected e.g. 'mono-homo')")
    return ClassQuery(_KIND_BY_NAME[parts[0]], _KIND_BY_NAME[parts[1]])


@dataclass(frozen=True)
class Witness:
    """A source map that cannot be extended.

    ``mapping`` is a valid source-kind morphism on ``domain_mask`` with no
    total target-kind extension.  ``stuck_vertex``, when set, is a vertex
    adjacent to the domain that already has no feasible image (the one-point
    search's reason for failure); re-validation never relies on it.
    """

    domain_mask: int
    mapping: dict[int, int]
    stuck_vertex: int | None = None
    note: str = ""


@dataclass(frozen=True)
class OracleResult:
    holds: bool
    witness: Witness | None
    checked_maps: int


# the most vertices g1 may have, for every source kind
SOURCE_BUDGET = 16
# the most (D, cand) states the one-point engine keeps before it gives up
STATE_LIMIT = 2_000_000

BUDGET_ENV_VAR = "HOMHOM_BUDGET"


def env_budget(default: int) -> int:
    """The vertex budget set by ``HOMHOM_BUDGET``, or ``default`` when it is
    unset.

    Raises ValueError with a one-line message when the value is not an
    integer.
    """
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return default
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# the symmetry data each graph keeps


class _Record:
    """Total homomorphisms g1 -> g2 that per-map searches found:
    ``hold[x][w]`` masks the indices of those sending x to w, ``found``
    counts them, and ``proved`` keeps the (rim fields, masks) pairs they
    cover; see ``_per_map_search``."""

    def __init__(self, n1: int, n2: int) -> None:
        self.hold = [[0] * n2 for _ in range(n1)]
        self.found = 0
        self.proved: set[tuple[int, int]] = set()


_Layout = tuple[list[int], list[int], int, list[int], list[int]]


def _key_layout(adj1: Sequence[int], n2: int) -> _Layout:
    """The key layout of ``_per_map_search`` from the graph g1 with the
    adjacency rows ``adj1`` into a graph on ``n2`` vertices: ``at[x]`` and
    ``high[x]``, where vertex x's source and target masks start,
    ``spread_all``, with bit ``at[x]`` set for every x, and for each vertex
    v, ``near_spread[v]`` and ``far_spread[v]``, those bits of v's
    neighbours and of the vertices neither v nor next to it."""
    dbits = len(adj1).bit_length()
    at = [dbits + x * 2 * n2 for x in range(len(adj1))]
    spread_all = sum(1 << a for a in at)
    near_spread = [sum(1 << at[x] for x in bits(row)) for row in adj1]
    far_spread = [spread_all ^ near ^ 1 << a for near, a in zip(near_spread, at)]
    return at, [a + n2 for a in at], spread_all, near_spread, far_spread


class _Symmetry:
    """The symmetry data of one graph object, and the per-map search's work
    on it, shared by every oracle call on it; the graph keeps it
    (``_symmetry``).  It holds the graph's ``n`` and ``adj`` rows, not the
    graph, so that it does not keep the graph alive.

    ``generators`` is ``automorphism_generators(graph)``, ``orbits`` the
    vertex orbits of the group they generate, Aut(graph), and ``fixers[w]``
    the generators fixing w, as a mask of their indices.  ``fixers`` and
    ``least`` serve the stabiliser pruning of both engines.
    ``sources()`` streams the connected ``_source_representatives`` under
    the same generators, and the key ``layout`` serves the per-map search;
    each is built the first time it is asked for.  The searches from the graph
    to itself also keep here each domain's ``[order, rims]``, built at
    first need, and the ``record`` of every homo-target search.
    All of it is shared by every later call on the graph object, so
    callers only read it, except that searches extend the record and the
    source list.
    """

    def __init__(self, g: Graph) -> None:
        self.n, self.adj = g.n, g.adj
        self.generators = automorphism_generators(g)
        self.orbits = _vertex_orbits(g.n, self.generators)
        self.fixers = fixers = [0] * g.n
        for i, p in enumerate(self.generators):
            bit = 1 << i
            for w, image in enumerate(p):
                if image == w:
                    fixers[w] |= bit
        self._sources: list[int] = []
        self._levels = _source_representatives(g.adj, True, self.generators)
        # under the whole group, the least vertices are the orbits' least
        everyone = (1 << len(self.generators)) - 1
        self._least = {0: g.full_mask, everyone: sum(o & -o for o in self.orbits)}
        self.domains: dict[int, list] = {}

    @cached_property
    def record(self) -> _Record:
        return _Record(self.n, self.n)

    @cached_property
    def layout(self) -> _Layout:
        return _key_layout(self.adj, self.n)

    def least(self, h: int) -> int:
        """The mask of the vertices least in their orbit under the
        generators in ``h``, a mask over their indices."""
        if h not in self._least:
            gens = [self.generators[i] for i in bits(h)]
            self._least[h] = sum(o & -o for o in _vertex_orbits(self.n, gens))
        return self._least[h]

    def sources(self) -> Iterator[int]:
        """The connected source representatives in
        ``_source_representatives`` order.

        They are kept in one list for the graph object, which grows by a
        whole size only when a reader passes its end, so a search that stops
        early builds no larger size, and each size is built once however
        many searches read it."""
        built, levels = self._sources, self._levels
        i = 0
        while True:
            if i == len(built):
                level = next(levels, None)
                if level is None:
                    return
                built.extend(level)
            yield built[i]
            i += 1


@_kept
def _symmetry(g: Graph) -> _Symmetry:
    return _Symmetry(g)


# ---------------------------------------------------------------------------
# the two decision engines


def _rims(g: Graph, domain: int, shifts: list[int], full: int) -> list[tuple[int, int]]:
    """The rim of each component outside ``domain`` that touches it: the
    OR of the fields ``full << shifts[x]`` of its vertices x with a
    neighbour in ``domain``, and the mask of those vertices."""
    outside, touch = g.full_mask & ~domain, 0
    for v in bits(domain):
        touch |= g.adj[v]
    touch &= outside
    rims = []
    while touch:
        rim = _reach(g.adj, touch & -touch, outside) & touch
        touch ^= rim
        fields = 0
        for x in bits(rim):
            fields |= full << shifts[x]
        rims.append((fields, rim))
    return rims


def _recorded(
    key: int, rims: list[tuple[int, int]], rec: _Record, shifts: list[int], full: int
) -> bool:
    """Whether each of ``_rims`` has a recorded extension agreeing with
    ``key``; see ``_per_map_search``."""
    hold, proved = rec.hold, rec.proved
    for fields, rim in rims:
        sub = (fields, key & fields)
        if sub in proved:
            continue
        common = -1
        for x in bits(rim):
            row, ext = hold[x], 0
            for w in bits(key >> shifts[x] & full):
                ext |= row[w]
            common &= ext
            if not common:
                return False
        proved.add(sub)
    return True


def _per_map_search(
    g1: Graph,
    g2: Graph,
    query: ClassQuery,
    sources: Iterable[int],
    sym2: _Symmetry | None = None,
) -> OracleResult:
    """Decide the property by trying every source map on each domain of
    ``sources``, skipping the maps whose future an earlier map already had.

    One depth-first search per domain D assigns the vertices of
    ``_variable_order(g1, D)`` in turn, images ascending, so it meets the
    source maps in the order ``enumerate_morphisms`` streams them.  With
    ``sym2``, the symmetry data of g2, a state keeps h, the generators that
    fix every image it assigned, and tries only the images least in their
    orbit under h.  That misses no failing map.  For a in Aut(g2), a o phi
    is a source map on the same domain and fails exactly when phi does.  If
    the first failing map phi in stream order had an image w at depth d not
    least in its orbit under that state's h, some a in the group h
    generates would send w lower and fix phi's images before depth d, so
    a o phi would fail and come earlier.  This holds below any state, so
    the pruned search below a key finds a failing map whenever one exists,
    and the least candidate, never pruned, leads to the first map below a
    doomed state.  Pre-composing a failing map with an automorphism of g1
    gives a failing map on the orbit-mate domain, so ``_per_map`` passes
    one domain per Aut(g1) orbit; that acts on the other side, so the two
    reductions combine.

    A state is keyed by its depth and candidate masks.  Each unassigned
    domain vertex has its source mask: the images adjacent to the images
    of its assigned neighbours, for an iso source also not adjacent to
    those of its other assigned vertices, and for a mono or iso source not
    yet used.  Each outside vertex has its target mask, built the same way
    with the target kind and adjacent to its neighbours in D.  When the
    target is iso and the source is not, each unassigned domain vertex
    also has its target mask.  Assigning v to w allows exactly the w in
    v's source mask and narrows every other mask by w alone.  A complete
    map extends exactly when its total target-kind extension exists; for
    an iso target that needs each domain image inside its target mask, and
    then the completer's candidates are the outside target masks.  So
    every map below a state, and whether it extends, depends only on the
    key.  A child whose key this domain has seen is skipped: that key was
    explored to the end with no failing map, else the search would have
    stopped, so skipping is exact.  A choice outside a domain vertex's
    target mask makes every map below it fail, and the first source map
    below is returned.

    A complete map is completed only when its key is new, and
    ``checked_maps`` counts those completions.  Its outside target masks
    are exactly the candidates ``complete_map`` would build for it, and
    the map is a target-kind morphism on its domain (every source kind
    keeps edges, and each image of an iso target lay in its target mask),
    so ``complete_map``'s check cannot fail.  So ``_complete`` starts from
    those masks, keyed in ascending vertex order, which keeps its
    tie-break, and ``complete_map``'s size rule is kept: an iso target on
    a different number of vertices has no extension.

    With a homo target each extension found is recorded (the good
    recording of Jegou and Terrioux, Artif. Intell. 2003) in ``hold[x][w]``,
    a mask of those sending x to w.  No edge joins two components outside
    D, and the target masks of a component's rim, its vertices next to D,
    are in the key.  If a recorded e sends each rim vertex into its mask,
    phi with e on the component keeps every edge; when every component has
    one (any e if the rim is empty), the glued map is a total homomorphism,
    so phi is not completed.  The test reads only rims and masks, and
    records only grow, so a (rim, masks) pair that passed is kept in
    ``proved``.  When ``sym2`` is g1's own, the record is the graph's and
    every homo-target search on it reads and extends it: each entry is an
    endomorphism whatever query found it, an outside vertex's target mask
    is the common neighbourhood of its neighbours' images whatever the
    source kind, and the key layout depends only on g1.n, so a pair proved
    once stays proved.  The orders and rims depend only on g1 and D.

    Skipped states and maps hold no failing map, so the first failing map
    met is the first in ``enumerate_morphisms`` order, and the witness is
    the one that enumerating and completing every map would return.

    A key is one int: the depth in the low bits, then one 2 * g2.n-bit
    field per vertex x of g1, x's source mask in the low half and its
    target mask in the high half.  Masks a vertex does not have are zero.
    Assigning v to w is ``(key & step[v][w]) + 1``: the mask ANDs every
    neighbour's field with ``near[w]`` and every other vertex's with
    ``far[w]``, through a product with the spread of the neighbours or the
    others, and clears v's own field; the sum adds one to the depth.  A
    row of ``step`` is built the first time its vertex is assigned.  The
    field offsets and spreads, ``_key_layout``, depend only on g1's rows and
    g2.n, so the searches from a graph to itself read the one kept in the
    graph's ``_Symmetry``.
    """
    n1, n2, full2, adj2 = g1.n, g2.n, g2.full_mask, g2.adj
    src_iso = query.source is MorphKind.ISO
    src_inj = query.source is not MorphKind.HOMO
    tgt_iso = query.target is MorphKind.ISO
    track = tgt_iso and not src_iso  # domain vertices carry target masks
    # an isomorphism needs as many vertices on both sides
    extendable = not tgt_iso or n1 == n2
    depth_bits = (1 << n1.bit_length()) - 1
    shared = sym2 is not None and sym2 is _symmetry(g1)
    layout = sym2.layout if shared else _key_layout(g1.adj, n2)
    at, high, spread_all, near_spread, far_spread = layout
    near: list[int] = []
    far: list[int] = []
    for w in range(n2):
        unused = full2 & ~(1 << w)
        src_w = unused if src_inj else full2
        tgt_w = unused if tgt_iso else full2
        near.append(adj2[w] & src_w | (adj2[w] & tgt_w) << n2)
        far.append(
            (~adj2[w] if src_iso else full2) & src_w
            | ((~adj2[w] if tgt_iso else full2) & tgt_w) << n2
        )
    everyone = (1 << len(sym2.generators)) - 1 if sym2 else 0
    fixers = sym2.fixers if sym2 else [0] * n2
    step: list[list[int] | None] = [None] * n1
    note = f"no total {query.target.value} extension exists"
    checked = 0
    domains = sym2.domains if shared else {}
    # only homo targets record
    rec = None if tgt_iso else sym2.record if shared else _Record(n1, n2)

    for domain in sources:
        entry = domains.get(domain)
        if entry is None:
            entry = domains[domain] = [_variable_order(g1, domain), None]
        order = entry[0]
        inside = sum(1 << at[x] for x in bits(domain))
        rest = bits(g1.full_mask ^ domain)
        outside = spread_all if track else spread_all ^ inside
        start = full2 * inside | (full2 << n2) * outside
        seen: set[int] = set()
        # (key, images of order[:depth], whether every map below fails,
        # the generators fixing those images)
        stack = [(start, (), False, everyone)]
        while stack:
            key, images, doomed, h = stack.pop()
            depth = len(images)
            if depth == len(order):
                if not doomed:
                    if rec is not None and rec.found:
                        if entry[1] is None:
                            entry[1] = _rims(g1, domain, high, full2)
                        if _recorded(key, entry[1], rec, high, full2):
                            continue
                    checked += 1
                    ext: dict[int, int] = {}
                    if extendable and _complete(
                        g1, g2, tgt_iso, {x: key >> high[x] & full2 for x in rest}, ext
                    ):
                        if rec is not None:
                            bit, rec.found = 1 << rec.found, rec.found + 1
                            ext.update(zip(order, images))
                            for x, w in ext.items():
                                rec.hold[x][w] |= bit
                        continue
                phi = dict(zip(order, images))
                return OracleResult(False, Witness(domain, phi, None, note), checked)
            v = order[depth]
            cand = key >> at[v] & full2
            if h:
                cand &= sym2.least(h)
            allowed = key >> high[v] & full2 if track else full2
            row = step[v]
            if row is None:
                near_v, far_v = near_spread[v], far_spread[v]
                row = step[v] = [
                    depth_bits | near[w] * near_v | far[w] * far_v for w in range(n2)
                ]
            children = []
            for w in bits(cand):
                child = (key & row[w]) + 1
                dooms = doomed or not allowed >> w & 1
                if not dooms:
                    if child in seen:
                        continue
                    seen.add(child)
                children.append((child, images + (w,), dooms, h & fixers[w]))
            stack.extend(reversed(children))
    return OracleResult(True, None, checked)


def _triangle_edge_stuck(g1: Graph, g2: Graph) -> Witness | None:
    """The stuck map {u: a, v: b} of an edge uv of g1 in a triangle uvx onto
    an edge ab of g2 in no triangle, with x stuck, or None when there is
    none: the least u < v, then the least x, and the first a < b."""
    adj1, adj2 = g1.adj, g2.adj
    for a, row in enumerate(adj2):
        for b in bits(row >> a + 1 << a + 1):
            if not row & adj2[b]:
                for u, urow in enumerate(adj1):
                    for v in bits(urow >> u + 1 << u + 1):
                        common = urow & adj1[v]
                        if common:
                            x = (common & -common).bit_length() - 1
                            note = (
                                f"the edge {u}-{v} lies in a triangle with {x}, "
                                f"its image {a}-{b} in none"
                            )
                            return Witness(1 << u | 1 << v, {u: a, v: b}, x, note)
                return None
    return None


def _one_point_search(g1: Graph, g2: Graph) -> OracleResult:
    """Decide the connected homo-homo property by one-point extensions.

    A state is a connected domain D of g1 with a homomorphism phi: D -> g2,
    grown one adjacent vertex at a time.  A state where some vertex adjacent
    to D has no feasible image is exactly a homomorphism from a connected
    induced subgraph with no total extension (any total extension would
    provide the missing image).  If no state is stuck, greedy growth extends
    any source map across its component, and maps every other component C
    too: growth from a vertex of C, mapped to any vertex of g2, never gets
    stuck, so it covers C.  So every source map extends, and a component
    with no homomorphism into g2 needs no test of its own.

    Only one state per orbit of start points is explored.  Let O_1, O_2, ...
    be the vertex orbits of Aut(g1) ordered by least vertex r_i, and R2 a
    set of orbit representatives of Aut(g2).  Phase i seeds r_i -> w for w
    in R2 and grows domains only into vertices outside O_1 ... O_(i-1); the
    stuck test still looks at unmapped neighbours inside them.  This is
    exact because stuckness is invariant under Aut(g1) x Aut(g2): given a
    stuck state, let i be the least index with D meeting O_i; an
    automorphism pair moves it to a stuck state containing r_i -> (a member
    of R2) that avoids the earlier orbits, and that state is reached by
    growth from its seed inside the allowed vertices, since a connected set
    containing r_i can be built from r_i one adjacent vertex at a time.

    States are told apart by their key (D, cand), not by phi.  For v outside
    D, cand(v) is the intersection of N(phi(u)) over the neighbours u of v
    in D, all of g2 when there are none.  The stuck test asks whether some
    cand(v) is empty, and mapping v to w allows exactly the w in cand(v) and
    replaces cand(x) by cand(x) & N(w) for each neighbour x of v; the allowed
    vertices are fixed by D's phase, because each phase's domains contain
    its start vertex and avoid the earlier orbits.  So everything reachable
    from a state, stuck states included, depends only on its key.  The
    stack keeps the first phi that reached each key.  Its children take
    their images from cand of that key, which is cand of that phi, so every
    phi kept is a genuine homomorphism and the witness returned is one.

    Each state grows only part of its children, pruned by stabilisers on
    both sides.  Its entry carries h1, the generators of Aut(g1) fixing
    every vertex of D, and h2, those of Aut(g2) fixing every image in
    phi(D), as masks over ``_Symmetry.fixers``: a seed r -> w starts them at
    ``fixers[r]`` and ``fixers[w]``, and mapping v to w ANDs them with
    ``fixers[v]`` and ``fixers[w]``.  The state grows only the allowed
    frontier vertices least in their orbit under h1, and maps each v only to
    the images in cand(v) least in their orbit under h2
    (``_Symmetry.least``); the stuck test reads every field a child narrows,
    grown or not.  No stuck state is missed.  Take b in the group H1 that h1
    generates and a in the group H2 that h2 generates.  b fixes D pointwise,
    so it maps the frontier onto itself, and the allowed set, a union of
    orbits of Aut(g1), too, and b(v) has the neighbours in D that v has, so
    cand(b(v)) = cand(v).  a fixes each phi(u), u in D, so it maps each
    N(phi(u)), and with them every cand field, onto itself.  So (b, a) fixes
    the state and carries its child v -> w onto its child b(v) -> a(w), and
    carries the growth inside the allowed set below the one onto growth
    below the other, stuck states onto stuck states.  Call a key doomed at
    distance d when d growth steps inside the allowed set reach a stuck
    state from it, and no fewer.  Induct on d, that is, on the size of D
    counted down from that stuck state's: a doomed key at distance 0 is
    stuck, and the stuck test fires when the key is first made, since each
    seed is tested before it is pushed and each child before it enters
    ``seen``; a key already in ``seen`` passed that test when it was added.
    At distance d > 0, some child v -> w is doomed at distance d - 1; b in
    H1 moves v to the least of its orbit under H1, then a in H2 moves w to
    the least of its orbit under H2, so a child that the entry keeps is
    doomed at distance d - 1.  It is made when the entry is popped; at d = 1
    the stuck test fires on it, and further out it is pushed unless its key
    was pushed before, and either way it is popped.  That holds whichever
    phi, with its own h1 and h2, first reached the key, so every doomed key
    pushed leads to a stuck state, and a phase with a stuck state has a
    doomed seed, as above.  A frontier with one allowed vertex, or a cand(v)
    with one image, needs no orbit lookup: H1 maps the first onto itself and
    H2 the second, so their lone member is fixed, hence least.

    A key is one int: D in the low n1 bits, then one g2.n-bit field per
    vertex of g1 holding cand, with the fields of D cleared.  Mapping v to w
    is ``key & step[v][w] | 1 << v``.  ``step[v][w]`` holds N(w) in every
    neighbour's field, the product of N(w) with the lowest bits of those
    fields, zeros in v's own field and ones everywhere else, so D and the
    other fields stay whole.  A row of ``step`` is built the first time its
    vertex is assigned.  A field differs from all of g2 exactly when its
    vertex is next to D, since a row of g2 never contains its own vertex.  So
    each stack entry carries the frontier N(D) \\ D as a vertex mask, grown
    by ``(front | N(v)) & ~(D | 1 << v)``.  A state popped is never stuck,
    since its key passed the stuck test when it was made, so it reads only
    the fields of the frontier vertices it grows, in ascending order.  A new
    key reads the fields its last step can have emptied, ascending, and the
    first empty one returns the witness: D and v, phi and v -> w, and that
    neighbour stuck.  A seed r -> w gives each neighbour of r the field
    N(w), empty when w is isolated.  A child v -> w ANDs N(w) into the field
    of each neighbour of v outside D and v, and only those already on the
    frontier, ``adj1[v] & front``, can empty: the others get N(w) itself,
    which holds the image of v's neighbour in D.  The stack holds (key,
    front, phi, h1, h2), phi packed with phi(v) + 1 in a ``width``-bit
    field per vertex.

    Before any symmetry data is built, ``_triangle_edge_stuck`` looks for
    the smallest stuck map there is: an edge uv of g1 with a common
    neighbour x, mapped onto an edge ab of g2 with none.  {u: a, v: b} keeps
    the edge, so it is a homomorphism on a connected domain, and cand(x) is
    N(a) & N(b), empty: a stuck state, so the verdict "no" is exact, with
    no state popped.  It is a certificate for "no" alone; when there is no
    such pair the search runs as above, and only it says "yes".

    More than ``STATE_LIMIT`` states raise ``BudgetExceededError``.
    """
    wit = _triangle_edge_stuck(g1, g2)
    if wit is not None:
        return OracleResult(False, wit, 0)
    limit = STATE_LIMIT
    sym1, sym2 = _symmetry(g1), _symmetry(g2)
    orbits1, fixers1, fixers2 = sym1.orbits, sym1.fixers, sym2.fixers
    least1, least2 = sym1.least, sym2.least
    reps2 = [(orbit & -orbit).bit_length() - 1 for orbit in sym2.orbits]
    n1, n2, full2, adj1, adj2 = g1.n, g2.n, g2.full_mask, g1.adj, g2.adj
    shifts = [n1 + v * n2 for v in range(n1)]
    everything = (1 << n1 + n1 * n2) - 1
    step: list[list[int] | None] = [None] * n1

    def row_of(v: int) -> list[int]:
        spread = 0
        for u in bits(adj1[v]):
            spread |= 1 << shifts[u]
        keep = everything & ~(full2 * (spread | 1 << shifts[v]))
        step[v] = [keep | adj2[w] * spread for w in range(n2)]
        return step[v]

    width = n2.bit_length()
    field = (1 << width) - 1
    start = everything & ~g1.full_mask  # D empty, every cand all of g2
    seen: set[int] = set()
    checked = 0

    def stuck(key: int, phi: int, v: int) -> OracleResult:
        domain = key & g1.full_mask
        wit = Witness(
            domain,
            {u: (phi >> u * width & field) - 1 for u in bits(domain)},
            v,
            "no image is adjacent to the images of the vertex's mapped neighbours",
        )
        return OracleResult(False, wit, checked)

    allowed = g1.full_mask
    for phase, orbit in enumerate(orbits1, 1):
        r = (orbit & -orbit).bit_length() - 1
        row = step[r] or row_of(r)
        stack: list[tuple[int, int, int, int, int]] = []
        for w in reps2:
            key = start & row[w] | 1 << r
            if key not in seen:
                phi = (w + 1) << r * width
                for u in bits(adj1[r]):
                    if not key >> shifts[u] & full2:
                        return stuck(key, phi, u)
                seen.add(key)
                stack.append((key, adj1[r], phi, fixers1[r], fixers2[w]))
        while stack:
            key, front, phi, h1, h2 = stack.pop()
            checked += 1
            grow = front & allowed
            if h1 and grow & (grow - 1):
                grow &= least1(h1)
            for v in bits(grow):
                cand = key >> shifts[v] & full2
                if h2 and cand & (cand - 1):
                    cand &= least2(h2)
                row = step[v] or row_of(v)
                bit = 1 << v
                grown = (front | adj1[v]) & ~(key | bit)
                at = v * width
                h1v = h1 & fixers1[v]
                for w in bits(cand):
                    nxt = key & row[w] | bit
                    if nxt not in seen:
                        for u in bits(adj1[v] & front):
                            if not nxt >> shifts[u] & full2:
                                return stuck(nxt, phi | (w + 1) << at, u)
                        if len(seen) >= limit:
                            largest = max((k & g1.full_mask).bit_count() for k in seen)
                            raise BudgetExceededError(
                                f"more than {limit} partial-map states "
                                f"(popped {checked}, seeding phase {phase} of "
                                f"{len(orbits1)}, largest domain {largest} of "
                                f"{n1} vertices)"
                            )
                        seen.add(nxt)
                        stack.append(
                            (nxt, grown, phi | (w + 1) << at, h1v, h2 & fixers2[w])
                        )
        allowed &= ~orbit
    return OracleResult(True, None, checked)


def _per_map(g1: Graph, g2: Graph, query: ClassQuery) -> OracleResult:
    """``_per_map_search`` on one source subset per automorphism orbit of
    g1, pruned by the stabilisers in Aut(g2)."""
    return _per_map_search(g1, g2, query, _symmetry(g1).sources(), _symmetry(g2))


# ---------------------------------------------------------------------------
# public API


def extension_morphic(g1: Graph, g2: Graph, query: ClassQuery) -> OracleResult:
    """Does every source map out of g1 into g2 extend to a total morphism
    g1 -> g2 of the target kind?

    The search is always exhaustive.  g1 may have at most ``SOURCE_BUDGET``
    vertices, or as many as ``HOMHOM_BUDGET`` says.  Homo-homo is decided by
    the one-point engine, every other query by the per-map engine.
    """
    budget = env_budget(SOURCE_BUDGET)
    if g1.n > budget:
        raise BudgetExceededError(
            f"{g1.n} vertices exceeds the source budget of {budget} (set {BUDGET_ENV_VAR})"
        )
    if query.source is MorphKind.HOMO and query.target is MorphKind.HOMO:
        return _one_point_search(g1, g2)
    return _per_map(g1, g2, query)


def is_class_member(g: Graph, query: ClassQuery) -> OracleResult:
    """Decide the extension property for one graph (maps g -> g)."""
    return extension_morphic(g, g, query)


def extension_symmetric(g1: Graph, g2: Graph, query: ClassQuery) -> OracleResult:
    """Both directions of ``extension_morphic``; witness notes the direction."""
    checked = 0
    for direction, a, b in (("forward", g1, g2), ("backward", g2, g1)):
        res = extension_morphic(a, b, query)
        checked += res.checked_maps
        if not res.holds:
            wit = replace(res.witness, note=f"{direction} direction: {res.witness.note}")
            return OracleResult(False, wit, checked)
    return OracleResult(True, None, checked)


def validate_witness(g1: Graph, g2: Graph, query: ClassQuery, wit: Witness) -> bool:
    """Re-check a witness from scratch: its map must be a genuine source-kind
    morphism on its domain, and the exhaustive completer must fail on it."""
    if wit.domain_mask == 0 or wit.domain_mask & ~g1.full_mask:
        return False
    if not connected_within(g1, wit.domain_mask):  # sources are connected
        return False
    if set(wit.mapping) != set(bits(wit.domain_mask)):
        return False
    if any(not 0 <= w < g2.n for w in wit.mapping.values()):
        return False
    if not check_kind(g1, g2, wit.mapping, query.source):
        return False
    return complete_map(g1, g2, wit.mapping, query.target) is None

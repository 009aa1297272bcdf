"""Brute-force decision of extension properties, straight from the definition.

A graph G satisfies the (source -> target) extension property when every
source-kind morphism out of a connected induced subgraph of G extends to a
total target-kind morphism G -> G.  Six properties matter here, named by
their morphism kinds::

    iso-iso    mono-iso    homo-iso      (extend to an automorphism)
    iso-homo   mono-homo   homo-homo     (extend to an endomorphism)

``connected_sources=False`` drops the connectedness restriction on sources.
The same machinery decides the relative versions between two graphs: every
source map out of g1 landing in g2 must extend to a total morphism g1 -> g2.

Everything here is exhaustive search with witnesses, meant as ground truth
for the structural recognizers; budgets guard against accidentally feeding
it graphs where exhaustion cannot finish.

Two engines do the search.  The per-map engine completes every source map
on one source subset per automorphism orbit of g1, and only those maps
whose first vertex lands on one chosen vertex per orbit of Aut(g2).  Both
reductions are exact.  Pre-composing a failing map with an automorphism of
g1 gives a failing map on the orbit-mate subset.  For a in Aut(g2), a o phi
extends exactly when phi does (a o e extends a o phi, and a^-1 o e' extends
phi), so post-composition keeps the failing maps on the same subset and can
move phi's first image to its orbit's representative; the two compositions
act on different sides, so they combine.  Connected homo-homo uses the
one-point reduction of Cameron and Nesetril (CPC 2006) instead: it holds
exactly when no homomorphism from a connected induced subgraph gets stuck,
that is, has an adjacent vertex with no feasible image.  Stuckness is
invariant under Aut(g1) x Aut(g2), so that engine starts only from the least
vertex of each vertex orbit of g1, mapped to one vertex per orbit of g2,
and grows each start only into orbits not already started from; see
``_one_point_search`` for why this misses no stuck state.  It also keeps
one state per pair (D, cand), where D is the domain and cand(v), for v
outside D, is the set of images still adjacent to every image of v's
neighbours in D.  The stuck test and every growth step read only that
pair, so two maps with the same pair have the same future and one of them
is explored.  The map kept for a pair is the first that reached it, grown
only by images from its own cand, so each witness is a real homomorphism.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Iterable

from .graphs import (
    Graph,
    bits,
    connected_components,
    connected_within,
    induced_subgraph,
    mask_of,
    popcount,
)
from .morphisms import (
    MorphKind,
    automorphism_generators,
    check_kind,
    complete_map,
    enumerate_morphisms,
    has_homomorphism,
    orbit_closure,
)


class BudgetExceededError(RuntimeError):
    """The graph is too large for exhaustive checking under the current budget."""


@dataclass(frozen=True)
class ClassQuery:
    """Which extension property to decide."""

    source: MorphKind
    target: MorphKind
    connected_sources: bool = True

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


def query_for_code(code: str, connected_sources: bool = True) -> ClassQuery:
    parts = code.split("-")
    if len(parts) != 2 or any(p not in _KIND_BY_NAME for p in parts):
        raise ValueError(f"unknown class code {code!r} (expected e.g. 'mono-homo')")
    return ClassQuery(
        _KIND_BY_NAME[parts[0]], _KIND_BY_NAME[parts[1]], connected_sources
    )


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


DEFAULT_SOURCE_BUDGETS = {
    MorphKind.ISO: 16,
    MorphKind.MONO: 16,
    MorphKind.HOMO: 10,
}
DEFAULT_STATE_LIMIT = 2_000_000

BUDGET_ENV_VAR = "HOMHOM_BUDGET"


def env_budget() -> int | None:
    """The vertex budget set by ``HOMHOM_BUDGET``, or None when it is unset.

    Raises ValueError with a one-line message when the value is not an
    integer.
    """
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return None
    try:
        return int(env)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None


def _resolve_budget(explicit: int | None, kind: MorphKind) -> int:
    if explicit is not None:
        return explicit
    env = env_budget()
    return DEFAULT_SOURCE_BUDGETS[kind] if env is None else env


# ---------------------------------------------------------------------------
# source enumeration


def _source_representatives(
    g: Graph, connected: bool, gens: tuple[tuple[int, ...], ...]
) -> list[int]:
    """The source subsets of ``g``, one per orbit of the group ``gens``
    generates, each orbit represented by its lexicographically first
    member: smallest first, then ascending as ``tuple(bits(mask))``.

    Sound for extension checking: relabelling a failing source map by an
    automorphism yields a failing source map on the orbit-mate.  With no
    generators every orbit is one subset, so this is every source subset.

    The subsets are grown one size at a time and never filtered out of all
    2^n.  Size 1 is the singletons.  The candidates of size k+1 are R | {v}
    for each representative R of size k and each v outside R, adjacent to R
    when sources must be connected.  Each candidate not yet seen has its
    orbit closed under the generators, and the orbit's first member is kept.
    Every orbit of size k+1 is reached: a connected set S of size k+1 has a
    vertex whose removal leaves a connected set T (a leaf of a spanning
    tree), and if a sends T to its representative R, then a(S) = R | {a(v)}
    is a candidate in S's orbit.  Without connectedness any vertex of S will
    do.  So each size lists the same subsets as filtering every subset and
    keeping the first of each orbit in ``tuple(bits)`` order.
    """
    if g.n <= 16:
        # permutation applied to a vertex mask, via byte lookup tables
        tables: list[tuple[list[int], list[int]]] = []
        for p in gens:
            t0 = [0] * 256
            t1 = [0] * 256
            for b in range(1, 256):
                low = b & -b
                i = low.bit_length() - 1
                t0[b] = t0[b ^ low] | (1 << p[i] if i < g.n else 0)
                t1[b] = t1[b ^ low] | (1 << p[i + 8] if i + 8 < g.n else 0)
            tables.append((t0, t1))

        def images(q: int) -> Iterable[int]:
            for t0, t1 in tables:
                yield t0[q & 255] | t1[q >> 8]

    else:  # general fallback, reached only with a budget above 16

        def images(q: int) -> Iterable[int]:
            for p in gens:
                yield mask_of(p[v] for v in bits(q))

    def growth(r: int) -> int:
        if not connected:
            return g.full_mask & ~r
        reach = 0
        for v in bits(r):
            reach |= g.adj[v]
        return reach & ~r

    out: list[int] = []
    candidates: Iterable[int] = [1 << v for v in range(g.n)]
    for size in range(1, g.n + 1):
        seen: set[int] = set()
        reps: list[int] = []
        for m in candidates:
            if m in seen:
                continue
            seen.add(m)
            first = m
            frontier = [m]
            while frontier:
                q = frontier.pop()
                for im in images(q):
                    if im not in seen:
                        seen.add(im)
                        frontier.append(im)
                        low = (im ^ first) & -(im ^ first)
                        if im & low:  # im has the least element they differ on
                            first = im
            reps.append(first)
        reps.sort(key=lambda m: tuple(bits(m)))
        out.extend(reps)
        candidates = (r | 1 << v for r in reps for v in bits(growth(r)))
    return out


# ---------------------------------------------------------------------------
# the two decision engines


def _per_map_search(
    g1: Graph,
    g2: Graph,
    query: ClassQuery,
    sources: list[int],
    first_images: int,
) -> OracleResult:
    """Try every source map individually; extension via the CSP completer.

    On each domain only the maps sending the first vertex of the variable
    order into ``first_images`` are tried.  With one vertex per orbit of
    Aut(g2) that misses no failing map: for a in Aut(g2), a o phi is a
    source map on the same domain, and it extends exactly when phi does
    (a o e extends a o phi, and a^-1 o e' extends phi), so some failing map
    has its first image on an orbit representative whenever any map fails.
    This is post-composition, while the choice of one domain per Aut(g1)
    orbit is pre-composition; the two commute, so they combine.
    """
    checked = 0
    for domain in sources:
        for phi in enumerate_morphisms(
            g1, g2, query.source, domain, first_images=first_images
        ):
            checked += 1
            if complete_map(g1, g2, phi, query.target) is None:
                wit = Witness(
                    domain,
                    phi,
                    None,
                    f"no total {query.target.value} extension exists",
                )
                return OracleResult(False, wit, checked)
    return OracleResult(True, None, checked)


def _vertex_orbits(g: Graph) -> list[int]:
    """The vertex orbits of Aut(g) as masks, ordered by least vertex.

    Each vertex not yet placed starts an orbit, closed under the generators
    of ``automorphism_generators``; they generate Aut(g), so the closure is
    the vertex's whole orbit.  A sweep record or a ``classify`` has already
    built them for the per-map classes of the same graph object.
    """
    gens = automorphism_generators(g)
    orbits: list[int] = []
    placed = 0
    for v in range(g.n):
        if not placed >> v & 1:
            orbits.append(orbit_closure(1 << v, gens))
            placed |= orbits[-1]
    return orbits


def _one_point_search(g1: Graph, g2: Graph, state_limit: int) -> OracleResult:
    """Decide the connected homo-homo property by one-point extensions.

    A state is a connected domain D of g1 with a homomorphism phi: D -> g2,
    grown one adjacent vertex at a time.  A state where some vertex adjacent
    to D has no feasible image is exactly a homomorphism from a connected
    induced subgraph with no total extension (any total extension would
    provide the missing image); if no state is stuck, greedy growth extends
    any source map across its component, and the caller guarantees the other
    components of g1 map into g2, so every source map extends.

    Only one state per orbit of start points is explored.  Let O_1, O_2, ...
    be the vertex orbits of Aut(g1) ordered by least vertex r_i, and R2 a set
    of orbit representatives of Aut(g2).  Phase i seeds r_i -> w for w in R2
    and grows domains only into vertices outside O_1 ... O_(i-1); the stuck
    test still looks at every unmapped neighbour.  This is exact because
    stuckness is invariant under Aut(g1) x Aut(g2): given a stuck state, let
    i be the least index with D meeting O_i; an automorphism pair moves it
    to a stuck state containing r_i -> (a member of R2) that avoids the
    earlier orbits, and that state is reached by growth from its seed inside
    the allowed vertices, since a connected set containing r_i can be built
    from r_i one adjacent vertex at a time.

    States are told apart by their key (D, cand), not by phi.  For v outside
    D, cand(v) is the intersection of N(phi(u)) over the neighbours u of v
    in D, all of g2 when there are none.  The stuck test asks whether some
    cand(v) is empty, and mapping v to w allows exactly the w in cand(v) and
    replaces cand(x) by cand(x) & N(w) for each neighbour x of v; the allowed
    vertices are fixed by D's phase, because each phase's domains contain
    its start vertex and avoid the earlier orbits.  So everything reachable
    from a state, stuck states included, depends only on its key, and two
    maps with the same key need one exploration.  The stack keeps the first
    phi that reached each key.  Its children take their images from cand of
    that key, which is cand of that phi, so every phi kept is a genuine
    homomorphism and the witness returned is one.

    A key is one int: D in the low n1 bits, then one g2.n-bit field per
    vertex of g1 holding cand, with the fields of D cleared.  Mapping v to w
    is ``key & (keep[v] | adj2[w] * spread[v]) | 1 << v``: ``spread[v]`` has
    the lowest bit of each neighbour's field, so the product puts N(w) into
    every neighbour's field, and ``keep[v]`` keeps D and the fields of the
    other vertices whole.  A field equals all of g2 exactly when its vertex
    has no neighbour in D, since a row of g2 never contains its own vertex.
    The stack holds (key, phi) pairs, phi packed with phi(v) + 1 in a
    ``width``-bit field per vertex.

    Assumes the caller verified each component of g1 admits a homomorphism
    into g2 (within one graph that is the identity).
    """
    orbits1 = _vertex_orbits(g1)
    orbits2 = orbits1 if g2 is g1 else _vertex_orbits(g2)
    reps2 = [(orbit & -orbit).bit_length() - 1 for orbit in orbits2]
    n1, n2, full2, adj2 = g1.n, g2.n, g2.full_mask, g2.adj
    shifts = [n1 + v * n2 for v in range(n1)]
    everything = (1 << n1 + n1 * n2) - 1
    spread = [sum(1 << shifts[x] for x in bits(row)) for row in g1.adj]
    keep = [
        everything & ~(full2 * (spread[v] | 1 << shifts[v])) for v in range(n1)
    ]
    width = n2.bit_length()
    field = (1 << width) - 1
    start = everything & ~g1.full_mask  # D empty, every cand all of g2
    seen: set[int] = set()
    checked = 0
    allowed = g1.full_mask
    for phase, orbit in enumerate(orbits1, 1):
        r = (orbit & -orbit).bit_length() - 1
        stack: list[tuple[int, int]] = []
        for w in reps2:
            key = start & (keep[r] | adj2[w] * spread[r]) | 1 << r
            if key not in seen:
                seen.add(key)
                stack.append((key, (w + 1) << r * width))
        while stack:
            key, phi = stack.pop()
            checked += 1
            for v, shift in enumerate(shifts):
                cand = key >> shift & full2
                if cand == full2 or key >> v & 1:
                    continue
                if not cand:
                    domain = key & g1.full_mask
                    wit = Witness(
                        domain,
                        {u: (phi >> u * width & field) - 1 for u in bits(domain)},
                        v,
                        "no image is adjacent to the images of the vertex's "
                        "mapped neighbours",
                    )
                    return OracleResult(False, wit, checked)
                if not allowed >> v & 1:
                    continue
                kept, sp, bit = key & keep[v], spread[v], 1 << v
                for w in bits(cand):
                    nxt = kept | key & adj2[w] * sp | bit
                    if nxt not in seen:
                        if len(seen) >= state_limit:
                            largest = max(popcount(k & g1.full_mask) for k in seen)
                            raise BudgetExceededError(
                                f"more than {state_limit} partial-map states "
                                f"(popped {checked}, seeding phase {phase} of "
                                f"{len(orbits1)}, largest domain {largest} of "
                                f"{n1} vertices)"
                            )
                        seen.add(nxt)
                        stack.append((nxt, phi | (w + 1) << v * width))
        allowed &= ~orbit
    return OracleResult(True, None, checked)


# ---------------------------------------------------------------------------
# public API


def extension_morphic(
    g1: Graph,
    g2: Graph,
    query: ClassQuery,
    *,
    budget: int | None = None,
    orbit_reduction: bool = True,
    state_limit: int = DEFAULT_STATE_LIMIT,
    force_per_map: bool = False,
) -> OracleResult:
    """Does every source map out of g1 into g2 extend to a total morphism
    g1 -> g2 of the target kind?

    The search is always exhaustive.  Options: ``budget`` caps g1's vertex
    count (default per source kind, ``HOMHOM_BUDGET`` overrides);
    ``orbit_reduction`` checks one source subset per automorphism orbit of
    g1 and one first image per orbit of Aut(g2), the least vertex of each
    orbit of ``_vertex_orbits`` (exact, on by default); ``state_limit``
    caps the one-point engine's states; ``force_per_map`` disables the
    one-point engine (for cross-validation in tests).
    """
    budget_n = _resolve_budget(budget, query.source)
    if g1.n > budget_n:
        raise BudgetExceededError(
            f"{g1.n} vertices exceeds the {query.source.value}-source "
            f"budget of {budget_n} (set {BUDGET_ENV_VAR} or pass budget=...)"
        )
    fast = (
        query.source is MorphKind.HOMO
        and query.target is MorphKind.HOMO
        and query.connected_sources
        and not force_per_map
    )
    if fast:
        if g1 is not g2:
            for comp in connected_components(g1):
                if not has_homomorphism(induced_subgraph(g1, comp), g2):
                    v = min(bits(comp))
                    wit = Witness(
                        1 << v,
                        {v: 0},
                        None,
                        "the vertex's whole component admits no homomorphism "
                        "into the target graph",
                    )
                    return OracleResult(False, wit, 0)
        return _one_point_search(g1, g2, state_limit)
    if orbit_reduction:
        gens = automorphism_generators(g1)
        first_images = mask_of(
            (orbit & -orbit).bit_length() - 1 for orbit in _vertex_orbits(g2)
        )
    else:
        gens, first_images = (), g2.full_mask
    sources = _source_representatives(g1, query.connected_sources, gens)
    return _per_map_search(g1, g2, query, sources, first_images)


def is_class_member(g: Graph, query: ClassQuery, **options) -> OracleResult:
    """Decide the extension property for one graph (maps g -> g)."""
    return extension_morphic(g, g, query, **options)


def extension_symmetric(
    g1: Graph, g2: Graph, query: ClassQuery, **options
) -> OracleResult:
    """Both directions of ``extension_morphic``; witness notes the direction."""
    fwd = extension_morphic(g1, g2, query, **options)
    if not fwd.holds:
        wit = Witness(
            fwd.witness.domain_mask,
            fwd.witness.mapping,
            fwd.witness.stuck_vertex,
            f"forward direction: {fwd.witness.note}",
        )
        return OracleResult(False, wit, fwd.checked_maps)
    bwd = extension_morphic(g2, g1, query, **options)
    if not bwd.holds:
        wit = Witness(
            bwd.witness.domain_mask,
            bwd.witness.mapping,
            bwd.witness.stuck_vertex,
            f"backward direction: {bwd.witness.note}",
        )
        return OracleResult(False, wit, fwd.checked_maps + bwd.checked_maps)
    return OracleResult(True, None, fwd.checked_maps + bwd.checked_maps)


def member_via_components(g: Graph, query: ClassQuery, **options) -> bool:
    """Equivalent componentwise criterion: every component has the property
    and every pair of components has it symmetrically."""
    comps = [induced_subgraph(g, m) for m in connected_components(g)]
    for c in comps:
        if not is_class_member(c, query, **options).holds:
            return False
    for a, b in itertools.combinations(comps, 2):
        if not extension_symmetric(a, b, query, **options).holds:
            return False
    return True


def validate_witness(g1: Graph, g2: Graph, query: ClassQuery, wit: Witness) -> bool:
    """Re-check a witness from scratch: its map must be a genuine source-kind
    morphism on its domain, and the exhaustive completer must fail on it."""
    if wit.domain_mask == 0 or wit.domain_mask & ~g1.full_mask:
        return False
    if query.connected_sources and not connected_within(g1, wit.domain_mask):
        return False
    if set(wit.mapping) != set(bits(wit.domain_mask)):
        return False
    if not check_kind(g1, g2, wit.mapping, query.source):
        return False
    return complete_map(g1, g2, wit.mapping, query.target) is None

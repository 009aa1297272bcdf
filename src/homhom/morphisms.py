"""Graph morphisms: enumeration, completion of partial maps, isomorphism, cores.

Three morphism flavours, as maps between vertex sets:

* ``HOMO`` — every edge maps to an edge (plain homomorphism),
* ``MONO`` — injective homomorphism (non-edges may land on edges),
* ``ISO``  — injective, edges land on edges and non-edges on non-edges.

For maps out of a vertex subset, ``ISO`` means an isomorphism onto the
induced image (an induced embedding).  For total maps produced by the
completion functions, ``ISO`` additionally requires the two graphs to have
the same vertex count, so the result is a genuine isomorphism (automorphism
when source and target coincide).
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .graphs import Graph, _kept, bits, mask_of


class MorphKind(Enum):
    HOMO = "homo"
    MONO = "mono"
    ISO = "iso"

    def __str__(self) -> str:  # for CLI / reports
        return self.value


def check_kind(g1: Graph, g2: Graph, mapping: Mapping[int, int], kind: MorphKind) -> bool:
    """Is the (possibly partial) vertex map a valid morphism of this kind,
    judged on the pairs inside its domain?"""
    items = list(mapping.items())
    for u, w in items:
        if not (0 <= u < g1.n and 0 <= w < g2.n):
            raise ValueError(f"map entry {u}->{w} out of range")
    if kind is not MorphKind.HOMO:
        if len({w for _, w in items}) != len(items):
            return False
    iso = kind is MorphKind.ISO
    for i, (u, wu) in enumerate(items):
        row1, row2 = g1.adj[u], g2.adj[wu]
        for v, wv in items[i + 1 :]:
            if row1 >> v & 1:
                if not row2 >> wv & 1:
                    return False
            elif iso and row2 >> wv & 1:
                return False
    return True


def _variable_order(g: Graph, domain_mask: int) -> list[int]:
    """Static search order: prefer vertices with many already-ordered
    neighbours (so constraints bind early), then high degree, then id.

    ``score[v]`` is (ordered neighbours) * n + (degree in the domain), which
    orders as the pair since a degree is below n; ``max`` over the rest,
    ascending, returns the first best, so each step is one linear scan."""
    n, rest = g.n, list(bits(domain_mask))
    score = [0] * n
    for v in rest:
        score[v] = (g.adj[v] & domain_mask).bit_count()
    order: list[int] = []
    while rest:
        v = max(rest, key=score.__getitem__)
        order.append(v)
        rest.remove(v)
        for u in bits(g.adj[v] & domain_mask):
            score[u] += n
    return order


def enumerate_morphisms(
    g1: Graph,
    g2: Graph,
    kind: MorphKind,
    domain_mask: int | None = None,
) -> Iterator[dict[int, int]]:
    """Stream every ``kind``-morphism from the induced subgraph of ``g1`` on
    ``domain_mask`` (default: all of ``g1``) into ``g2``.

    Maps are keyed by original ``g1`` vertex ids.  The stream is
    deterministic: a fixed variable order with candidate images ascending.
    """
    if domain_mask is None:
        domain_mask = g1.full_mask
    if domain_mask == 0:
        raise ValueError("domain must be non-empty")
    if domain_mask & ~g1.full_mask:
        raise ValueError("domain mask mentions vertices outside the graph")
    order = _variable_order(g1, domain_mask)
    injective = kind is not MorphKind.HOMO
    iso = kind is MorphKind.ISO
    yield from _extend_morphism(g1, g2, order, 0, {}, 0, injective, iso)


def _extend_morphism(
    g1: Graph,
    g2: Graph,
    order: list[int],
    i: int,
    assign: dict[int, int],
    used: int,
    injective: bool,
    iso: bool,
) -> Iterator[dict[int, int]]:
    """Stream the extensions of ``assign`` (the images of ``order[:i]``)
    over the rest of ``order``; ``used`` is the mask of its images."""
    if i == len(order):
        yield dict(assign)
        return
    v = order[i]
    cand = g2.full_mask & ~used if injective else g2.full_mask
    for u, w in assign.items():
        if g1.has_edge(u, v):
            cand &= g2.adj[w]
        elif iso:
            cand &= ~g2.adj[w]
        if not cand:
            return
    for w in bits(cand):
        assign[v] = w
        yield from _extend_morphism(
            g1, g2, order, i + 1, assign, used | 1 << w, injective, iso
        )
        del assign[v]


# ---------------------------------------------------------------------------
# completing partial maps to total morphisms


def complete_map(
    g1: Graph,
    g2: Graph,
    partial: Mapping[int, int],
    kind: MorphKind,
    allowed_mask: int | None = None,
) -> dict[int, int] | None:
    """Extend ``partial`` to a total ``kind``-morphism g1 -> g2, or None.

    ``kind`` must be HOMO or ISO (the extension targets of interest); for ISO
    the graphs must have equal vertex counts, so a completion is a full
    isomorphism.  ``allowed_mask`` restricts the image (useful for finding
    retractions).  Deterministic: minimum-remaining-candidates variable
    choice with id tie-break, candidate images ascending.
    """
    if kind is MorphKind.MONO:
        raise ValueError("completion targets are HOMO or ISO")
    iso = kind is MorphKind.ISO
    allowed = g2.full_mask if allowed_mask is None else allowed_mask & g2.full_mask
    if not check_kind(g1, g2, partial, kind):
        return None
    if any(not allowed >> w & 1 for w in partial.values()):
        return None
    if iso and (g1.n != g2.n or allowed.bit_count() < g1.n):
        return None

    used = mask_of(partial.values()) if iso else 0
    cand: dict[int, int] = {}
    for v in range(g1.n):
        if v in partial:
            continue
        c = allowed & ~used
        row = g1.adj[v]
        for u, w in partial.items():
            if row >> u & 1:
                c &= g2.adj[w]
            elif iso:
                c &= ~g2.adj[w]
        if not c:
            return None
        cand[v] = c

    assign = dict(partial)
    return assign if _complete(g1, g2, iso, cand, assign) else None


def _complete(
    g1: Graph, g2: Graph, iso: bool, cand: dict[int, int], assign: dict[int, int]
) -> bool:
    """Assign every vertex of ``cand`` an image from its candidate mask,
    consistently with ``assign``, recording the images in ``assign``."""
    if not cand:
        return True
    # fewest candidates, then the least id: the keys of cand ascend
    v, fewest = -1, g2.n + 1
    for u, c in cand.items():
        k = c.bit_count()
        if k < fewest:
            v, fewest = u, k
    row = g1.adj[v]
    for w in bits(cand[v]):
        adj_w = g2.adj[w]
        non_adj_w = ~(adj_w | 1 << w)
        narrowed: dict[int, int] = {}
        dead = False
        for u, c in cand.items():
            if u == v:
                continue
            if row >> u & 1:
                c &= adj_w
            elif iso:
                c &= non_adj_w
            if not c:
                dead = True
                break
            narrowed[u] = c
        if not dead:
            assign[v] = w
            if _complete(g1, g2, iso, narrowed, assign):
                return True
            del assign[v]
    return False


# ---------------------------------------------------------------------------
# automorphism groups


@_kept
def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """A strong generating set for Aut(g) relative to the base 0, 1, ...,
    n-1, as image tuples, found by individualisation; the group itself is
    never enumerated.  The graph keeps its set, which the oracle's
    ``_Symmetry`` and ``families.enumerate_graphs`` both read, so a sweep
    record and the enumerator share one search on the same graph object.

    Let G_b be the automorphisms fixing 0..b-1 pointwise, so G_0 = Aut(g)
    and G_(n-1) is trivial.  Levels run deepest first, b = n-2 down to 0,
    and on entering level b the generators found so far generate G_(b+1).
    They all lie in G_b, so closing {b} under them gives part of b's orbit
    under G_b.  For each v > b outside that part with b's degree and b's
    neighbours among 0..b-1, which G_b keeps, one ``complete_map`` call
    looks for a member of G_b sending b to v; each one found becomes a
    generator, and the orbit is closed again under all generators so far.
    A v that no member of G_b reaches stays outside, so the generated group
    H lies in G_b, has b's whole G_b-orbit, and contains G_(b+1), which is
    the stabiliser of b in G_b; hence |H| = |orbit| * |G_(b+1)| = |G_b|,
    and the invariant holds at level b-1.  So for every b the generators
    fixing 0..b-1 generate G_b.  Level b makes at most n-1-b calls,
    n(n-1)/2 in all, and each generator at least doubles the group
    generated before it.
    """
    n = g.n
    degrees = [row.bit_count() for row in g.adj]
    gens: list[tuple[int, ...]] = []
    for b in range(n - 2, -1, -1):
        fixed = {u: u for u in range(b)}
        orbit = 1 << b  # every generator so far fixes b
        low, row = (1 << b) - 1, g.adj[b]
        for v in range(b + 1, n):
            if orbit >> v & 1 or degrees[v] != degrees[b] or (g.adj[v] ^ row) & low:
                continue
            m = complete_map(g, g, {**fixed, b: v}, MorphKind.ISO)
            if m is None:
                continue
            gens.append(tuple(m[u] for u in range(n)))
            orbit = orbit_closure(orbit, gens)
    return tuple(gens)


def orbit_closure(mask: int, gens: Sequence[tuple[int, ...]]) -> int:
    """The least vertex mask containing ``mask`` that every permutation in
    ``gens`` maps to itself: the union of the orbits of its vertices under
    the group ``gens`` generates."""
    frontier = list(bits(mask))
    while frontier:
        u = frontier.pop()
        for p in gens:
            if not mask >> p[u] & 1:
                mask |= 1 << p[u]
                frontier.append(p[u])
    return mask


def _vertex_orbits(n: int, gens: Sequence[tuple[int, ...]]) -> list[int]:
    """The vertex orbits of the group ``gens`` generates, as masks ordered by
    least vertex: each vertex not yet placed starts an orbit, closed under
    the generators."""
    orbits, placed = [], 0
    for v in range(n):
        if not placed >> v & 1:
            orbits.append(orbit_closure(1 << v, gens))
            placed |= orbits[-1]
    return orbits


def _permutation_table(p: tuple[int, ...], offset: int, size: int) -> list[int]:
    """``t[b]`` is the image under ``p`` of the vertex mask ``b << offset``,
    for every ``b`` below ``size``."""
    t = [0] * size
    for b in range(1, size):
        low = b & -b
        t[b] = t[b ^ low] | 1 << p[offset + low.bit_length() - 1]
    return t


def _mask_images(n: int, gens: Sequence[tuple[int, ...]]) -> Callable[[int], Iterable[int]]:
    """A function streaming the image of a vertex mask under each of
    ``gens``, through ``_permutation_table`` lookups on 8-bit chunks of the
    mask, each table sized to the bits the graph has there.  Up to 16
    vertices there are two chunks, looked up without a loop."""
    if n <= 16:
        low_size, high_size = 1 << min(n, 8), 1 << max(n - 8, 0)
        pairs = [
            (_permutation_table(p, 0, low_size), _permutation_table(p, 8, high_size))
            for p in gens
        ]

        def images(q: int) -> Iterable[int]:
            for t0, t1 in pairs:
                yield t0[q & 255] | t1[q >> 8]

        return images

    offsets = range(0, n, 8)
    tables = [
        [_permutation_table(p, c, 1 << min(8, n - c)) for c in offsets] for p in gens
    ]

    def chunked(q: int) -> Iterable[int]:
        chunks = [q >> c & 255 for c in offsets]
        for row in tables:
            im = 0
            for t, b in zip(row, chunks):
                im |= t[b]
            yield im

    return chunked


def _source_representatives(
    adj: Sequence[int], connected: bool, gens: tuple[tuple[int, ...], ...]
) -> Iterator[list[int]]:
    """The source subsets of the graph with the adjacency rows ``adj``, one
    per orbit of the group ``gens`` generates, each orbit represented by
    its lexicographically first member, yielded one size at a time,
    smallest first, each size's list ascending as ``bits(mask)``;
    the stream ends at the first size with no subset.  Each size is built
    only when it is asked for, so a search that stops early builds none of
    the larger ones.

    Sound for extension checking: relabelling a failing source map by an
    automorphism yields a failing source map on the orbit-mate.  With no
    generators every orbit is one subset, so this is every source subset.
    Unconnected, it also gives ``families.enumerate_graphs`` one neighbour
    mask per orbit of a parent's automorphism group.

    The subsets are grown one size at a time and never filtered out of all
    2^n.  Size 1 is the least vertex of each vertex orbit, read off
    ``_vertex_orbits``.  The permutation tables of ``_mask_images`` are
    built when size 2 is asked for, so a search that stops at a single
    vertex builds none.  The candidates of size k+1 are R | {v} for each
    representative R of size k and each v outside R, adjacent to R when
    sources must be connected.  Each candidate not yet seen has its orbit
    closed under the generators, and the orbit's first member is kept.
    Every orbit of size k+1 is reached: a connected set S of size k+1 has a
    vertex whose removal leaves a connected set T (a leaf of a spanning
    tree), and if a sends T to its representative R, then a(S) = R | {a(v)}
    is a candidate in S's orbit.  Without connectedness any vertex of S will
    do.  So each size lists the same subsets as filtering every subset and
    keeping the first of each orbit in ``bits`` order.
    """
    n = len(adj)
    reps = [o & -o for o in _vertex_orbits(n, gens)]
    if not reps:
        return
    yield reps
    images = _mask_images(n, gens)

    def growth(r: int) -> int:
        if not connected:
            return (1 << n) - 1 & ~r
        reach = 0
        for v in bits(r):
            reach |= adj[v]
        return reach & ~r

    for _ in range(1, n):
        candidates = (r | 1 << v for r in reps for v in bits(growth(r)))
        seen: set[int] = set()
        reps = []
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
        if not reps:
            return
        reps.sort(key=bits)
        yield reps


# ---------------------------------------------------------------------------
# cores


def core_mask(g: Graph) -> int:
    """Vertex mask of the core: a minimum-size induced subgraph onto which the
    whole graph retracts (an endomorphism fixing the subset pointwise).

    Every minimum-size retract is a core, and the cores of a graph are
    isomorphic (Hell & Nesetril, Discrete Math. 1992), so the choice among
    them is of a mask alone: the least one.
    """
    for size in range(1, g.n + 1):
        found: list[int] = []
        for combo in itertools.combinations(range(g.n), size):
            m = mask_of(combo)
            fixed = {v: v for v in combo}
            if complete_map(g, g, fixed, MorphKind.HOMO, allowed_mask=m) is not None:
                found.append(m)
        if found:
            return min(found)
    raise AssertionError("identity is always a retraction")  # pragma: no cover

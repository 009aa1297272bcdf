"""Graph morphisms: enumeration, completion of partial maps, cores.

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
from typing import Iterator, Mapping, Sequence

from .graphs import (
    Graph,
    bits,
    canonical_form,
    induced_subgraph,
    mask_of,
    popcount,
)


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
    for i, (u, wu) in enumerate(items):
        for v, wv in items[i + 1 :]:
            if g1.has_edge(u, v):
                if not g2.has_edge(wu, wv):
                    return False
            elif kind is MorphKind.ISO and g2.has_edge(wu, wv):
                return False
    return True


def _variable_order(g: Graph, domain_mask: int) -> list[int]:
    """Static search order: prefer vertices with many already-ordered
    neighbours (so constraints bind early), then high degree, then id."""
    order: list[int] = []
    placed = 0
    rest = set(bits(domain_mask))
    while rest:
        v = min(
            rest,
            key=lambda v: (
                -popcount(g.adj[v] & placed),
                -popcount(g.adj[v] & domain_mask),
                v,
            ),
        )
        order.append(v)
        placed |= 1 << v
        rest.remove(v)
    return order


def enumerate_morphisms(
    g1: Graph,
    g2: Graph,
    kind: MorphKind,
    domain_mask: int | None = None,
    *,
    first_images: int | None = None,
) -> Iterator[dict[int, int]]:
    """Stream every ``kind``-morphism from the induced subgraph of ``g1`` on
    ``domain_mask`` (default: all of ``g1``) into ``g2``.

    ``first_images``, when given, is a mask of the images allowed for the
    first vertex of the variable order; only those maps are streamed.

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
    v = order[0]
    first = g2.full_mask if first_images is None else g2.full_mask & first_images
    for w in bits(first):
        yield from _extend_morphism(g1, g2, order, 1, {v: w}, 1 << w, injective, iso)


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


def count_morphisms(g1: Graph, g2: Graph, kind: MorphKind, domain_mask: int | None = None) -> int:
    return sum(1 for _ in enumerate_morphisms(g1, g2, kind, domain_mask))


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
    if iso and (g1.n != g2.n or popcount(allowed) < g1.n):
        return None

    used = mask_of(partial.values()) if iso else 0
    cand: dict[int, int] = {}
    for v in range(g1.n):
        if v in partial:
            continue
        c = allowed & ~used
        for u, w in partial.items():
            if g1.has_edge(u, v):
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
    v = min(cand, key=lambda u: (popcount(cand[u]), u))
    for w in bits(cand[v]):
        narrowed: dict[int, int] = {}
        dead = False
        for u, c in cand.items():
            if u == v:
                continue
            if g1.has_edge(u, v):
                c &= g2.adj[w]
            elif iso:
                c &= ~g2.adj[w] & ~(1 << w)
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


def extend_to_endomorphism(
    g: Graph, partial: Mapping[int, int], allowed_mask: int | None = None
) -> dict[int, int] | None:
    return complete_map(g, g, partial, MorphKind.HOMO, allowed_mask)


def extend_to_automorphism(g: Graph, partial: Mapping[int, int]) -> dict[int, int] | None:
    return complete_map(g, g, partial, MorphKind.ISO)


def has_homomorphism(g1: Graph, g2: Graph) -> bool:
    return complete_map(g1, g2, {}, MorphKind.HOMO) is not None


def hom_equivalent(g1: Graph, g2: Graph) -> bool:
    """Do homomorphisms exist both ways?"""
    return has_homomorphism(g1, g2) and has_homomorphism(g2, g1)


# ---------------------------------------------------------------------------
# automorphism groups


def automorphisms(g: Graph) -> list[dict[int, int]]:
    """All automorphisms, in the deterministic enumeration order."""
    return list(enumerate_morphisms(g, g, MorphKind.ISO))


# the graph object last asked about, and its generating set
_last_generators: tuple[Graph, tuple[tuple[int, ...], ...]] | None = None


def automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """A strong generating set for the automorphism group, as image tuples.

    See ``_generating_set``.  A sweep record or a ``classify`` asks once per
    per-map class of the same graph object, so the result for the last
    object asked about is kept.  The memo is keyed by identity, not
    equality, so a call on a new graph object, even an equal one, does the
    same work whatever was asked before it.
    """
    global _last_generators
    if _last_generators is None or _last_generators[0] is not g:
        _last_generators = (g, _generating_set(g))
    return _last_generators[1]


def _generating_set(g: Graph) -> tuple[tuple[int, ...], ...]:
    """A strong generating set for Aut(g) relative to the base 0, 1, ...,
    n-1, found by individualisation; the group itself is never enumerated.

    Let G_b be the automorphisms fixing 0..b-1 pointwise, so G_0 = Aut(g)
    and G_(n-1) is trivial.  Levels run deepest first, b = n-2 down to 0,
    and on entering level b the generators found so far generate G_(b+1).
    They all lie in G_b, so closing {b} under them gives part of b's orbit
    under G_b.  For each v > b of b's degree outside that part, one
    ``complete_map`` call looks for an automorphism fixing 0..b-1 and
    sending b to v; each one found becomes a generator, and the orbit is
    closed again under all generators so far.  A v that no member of G_b
    reaches stays outside, so the generated group H lies in G_b, has b's
    whole G_b-orbit, and contains G_(b+1), which is the stabiliser of b in
    G_b; hence |H| = |orbit| * |G_(b+1)| = |G_b|, and the invariant holds
    at level b-1.  So for every b the generators fixing 0..b-1 generate
    G_b.  Level b makes at most n-1-b calls, n(n-1)/2 in all, and each
    generator at least doubles the group generated before it.
    """
    n = g.n
    degrees = [popcount(row) for row in g.adj]
    gens: list[tuple[int, ...]] = []
    for b in range(n - 2, -1, -1):
        fixed = {u: u for u in range(b)}
        orbit = 1 << b  # every generator so far fixes b
        for v in range(b + 1, n):
            if orbit >> v & 1 or degrees[v] != degrees[b]:
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


def group_order_from_generators(n: int, gens: Sequence[tuple[int, ...]]) -> int:
    """Order of the permutation group the generators produce."""
    identity = tuple(range(n))
    known = {identity}
    frontier = [identity]
    while frontier:
        q = frontier.pop()
        for r in gens:
            s = tuple(q[r[v]] for v in range(n))
            if s not in known:
                known.add(s)
                frontier.append(s)
    return len(known)


# ---------------------------------------------------------------------------
# cores


def core_mask(g: Graph) -> int:
    """Vertex mask of the core: a minimum-size induced subgraph onto which the
    whole graph retracts (an endomorphism fixing the subset pointwise).

    Among minimum-size retracts the winner has the lexicographically least
    (canonical form, mask) pair, so the choice is deterministic.
    """
    for size in range(1, g.n + 1):
        found: list[int] = []
        for combo in itertools.combinations(range(g.n), size):
            m = mask_of(combo)
            fixed = {v: v for v in combo}
            if complete_map(g, g, fixed, MorphKind.HOMO, allowed_mask=m) is not None:
                found.append(m)
        if found:
            return min(
                found, key=lambda m: (canonical_form(induced_subgraph(g, m)), m)
            )
    raise AssertionError("identity is always a retraction")  # pragma: no cover


def core_of(g: Graph) -> Graph:
    """The core as a standalone graph (vertices relabelled ascending)."""
    return induced_subgraph(g, core_mask(g))

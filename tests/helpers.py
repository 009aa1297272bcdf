"""Reference searches that the tests check the library against, and the
counter of what a graph keeps, kept out of ``src`` because no library code
needs them."""

from __future__ import annotations

from collections import Counter
from typing import Iterator

from homhom import graphs, morphisms, oracle, recognizers
from homhom.graphs import Graph, _complement_rows, bipartition, bits, connected_components
from homhom.morphisms import MorphKind, complete_map
from homhom.oracle import OracleResult, Witness


def popcount(mask: int) -> int:
    return mask.bit_count()


def reference_bits(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` in ascending order, one lowest bit at
    a time: ``graphs.bits`` as first written."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Cheap invariants first (order, size, sorted degrees), then one
    isomorphism completion from the empty map."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    if sorted(map(popcount, g1.adj)) != sorted(map(popcount, g2.adj)):
        return False
    return complete_map(g1, g2, {}, MorphKind.ISO) is not None


def reference_cmi_shape(c: Graph) -> tuple[str, int] | None:
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


def reference_is_cmi(g: Graph) -> bool:
    """``recognizers.is_cmi`` as first written: a second match of every
    component against its own list of shapes, all components one shape."""
    common = None
    for comp in connected_components(g):
        k = reference_cmi_shape(comp)
        if k is None or common not in (None, k):
            return False
        common = k
    return True


def reference_refined_colors(adj: tuple[int, ...]) -> list[int]:
    """Neighbourhood refinement as first written: degrees, then rounds that
    rank the signatures (colour, sorted neighbour colours) as tuples, until
    a round gives the ids of the round before."""
    n = len(adj)
    colors = [popcount(row) for row in adj]
    for _ in range(n):
        sigs = [(colors[v], tuple(sorted(colors[u] for u in bits(adj[v])))) for v in range(n)]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def reference_canonical_labelling(
    adj: tuple[int, ...],
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The canonical labelling's branch-and-bound as first written: every
    slot builds, sorts and twin-checks its list of candidate vertices."""
    n = len(adj)
    colors = reference_refined_colors(adj)
    slot_color = sorted(colors)
    best: list[int] | None = None
    best_perm: list[int] = []
    perm: list[int] = []
    rows: list[int] = []

    def twins(u: int, v: int) -> bool:
        return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)

    def place(i: int, tight: bool) -> None:
        nonlocal best, best_perm
        if i == n:
            if best is None or rows < best:
                best = rows.copy()
                best_perm = perm.copy()
            return
        options = []
        for v in range(n):
            if colors[v] != slot_color[i] or v in perm:
                continue
            row = 0
            for u in perm:
                row = row << 1 | (adj[v] >> u & 1)
            options.append((row, v))
        options.sort()
        tried: list[tuple[int, int]] = []
        for row, v in options:
            if any(r == row and twins(u, v) for r, u in tried):
                continue
            tried.append((row, v))
            child_tight = tight
            if i > 0:
                if best is not None and tight:
                    ref = best[i - 1]
                    if row > ref:
                        break
                    child_tight = row == ref
                rows.append(row)
            perm.append(v)
            place(i + 1, child_tight)
            perm.pop()
            if i > 0:
                rows.pop()

    place(0, True)
    assert best is not None
    return tuple(best), tuple(best_perm)


def reference_one_point(g1: Graph, g2: Graph) -> OracleResult:
    """The one-point engine as first keyed by (D, cand): the same states,
    stabiliser pruning and seeds as ``oracle._one_point_search``, but each
    state is tested for a stuck vertex when it is popped, reading every
    frontier vertex, so a "no" search may pop more states first."""
    sym1, sym2 = oracle._symmetry(g1), oracle._symmetry(g2)
    reps2 = [(orbit & -orbit).bit_length() - 1 for orbit in sym2.orbits]
    n1, n2, full2, adj1, adj2 = g1.n, g2.n, g2.full_mask, g1.adj, g2.adj
    shifts = [n1 + v * n2 for v in range(n1)]
    everything = (1 << n1 + n1 * n2) - 1
    step: list[list[int] | None] = [None] * n1

    def row_of(v: int) -> list[int]:
        spread = sum(1 << shifts[u] for u in bits(adj1[v]))
        keep = everything & ~(full2 * (spread | 1 << shifts[v]))
        step[v] = [keep | adj2[w] * spread for w in range(n2)]
        return step[v]

    width = n2.bit_length()
    field = (1 << width) - 1
    start = everything & ~g1.full_mask
    seen: set[int] = set()
    checked = 0
    allowed = g1.full_mask
    for orbit in sym1.orbits:
        r = (orbit & -orbit).bit_length() - 1
        row = step[r] or row_of(r)
        stack = []
        for w in reps2:
            key = start & row[w] | 1 << r
            if key not in seen:
                seen.add(key)
                stack.append(
                    (key, adj1[r], (w + 1) << r * width, sym1.fixers[r], sym2.fixers[w])
                )
        while stack:
            key, front, phi, h1, h2 = stack.pop()
            checked += 1
            grow = front & allowed
            if h1 and grow & (grow - 1):
                grow &= sym1.least(h1)
            for v in bits(front):
                cand = key >> shifts[v] & full2
                if not cand:
                    domain = key & g1.full_mask
                    phi_map = {u: (phi >> u * width & field) - 1 for u in bits(domain)}
                    return OracleResult(False, Witness(domain, phi_map, v), checked)
                if not grow >> v & 1:
                    continue
                if h2 and cand & (cand - 1):
                    cand &= sym2.least(h2)
                row = step[v] or row_of(v)
                bit = 1 << v
                grown = (front | adj1[v]) & ~(key | bit)
                h1v = h1 & sym1.fixers[v]
                for w in bits(cand):
                    nxt = key & row[w] | bit
                    if nxt not in seen:
                        seen.add(nxt)
                        h2w = h2 & sym2.fixers[w]
                        stack.append((nxt, grown, phi | (w + 1) << v * width, h1v, h2w))
        allowed &= ~orbit
    return OracleResult(True, None, checked)


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_rows(g))


def kept_steps() -> set:
    """Every function a graph keeps the value of: the wrappers ``_kept``
    makes, which all run its one code object."""
    once = graphs._complement_rows.__code__
    return {
        fn
        for module in (graphs, morphisms, oracle, recognizers)
        for fn in vars(module).values()
        if getattr(fn, "__code__", None) is once
    }


def count_kept_steps(monkeypatch) -> Counter:
    """Count, per step and graph object, each computation of a value the
    graph keeps once computed.  The graphs stay referenced, so no object id
    is reused while the counts are kept."""
    calls: Counter = Counter()
    seen: list[Graph] = []
    for fn in kept_steps():
        def counted(g, _name=fn.__qualname__, _compute=fn.__wrapped__):
            seen.append(g)
            calls[_name, id(g)] += 1
            return _compute(g)

        monkeypatch.setattr(fn, "__wrapped__", counted)
    return calls

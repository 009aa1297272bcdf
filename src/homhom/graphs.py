"""Small undirected graphs as bitmask adjacency rows, plus the core operations.

Vertices are always 0..n-1.  A set of vertices is an ``int`` bitmask (bit v set
iff vertex v is a member), which keeps the search loops in this package cheap.
``Graph.adj[v]`` is the bitmask of neighbours of v.  Everything here is
deterministic: vertex iteration is ascending unless stated otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, update_wrapper
from typing import Callable, Iterable, Iterator, Sequence

MAX_VERTICES = 64


def _kept(fn: Callable) -> Callable:
    """``fn(g)``, computed once per graph and kept in ``g.__dict__``, as
    ``cached_property`` keeps a value, under a dotted key no attribute has;
    a first call computes it through ``__wrapped__``."""
    key = f"{fn.__module__}.{fn.__qualname__}"

    def once(g: Graph) -> object:
        if key not in g.__dict__:
            g.__dict__[key] = once.__wrapped__(g)
        return g.__dict__[key]

    return update_wrapper(once, fn)


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with exactly the given vertex bits set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield the set bits of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def popcount(mask: int) -> int:
    return mask.bit_count()


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with bitmask adjacency rows."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if len(self.adj) != self.n:
            raise ValueError("adjacency row count does not match vertex count")
        full = (1 << self.n) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"adjacency row of vertex {v} mentions vertices >= n")
            if row >> v & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        adj = self.adj
        for v, row in enumerate(adj):
            while row:
                low = row & -row
                u = low.bit_length() - 1
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency is not symmetric at ({v}, {u})")
                row ^= low

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(popcount(row) for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted ascending."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    # The two values below depend on (n, adj) alone, so each graph computes
    # them on first read and keeps them; equality, hash and repr ignore them.

    @cached_property
    def _components(self) -> tuple[int, ...]:
        """Masks of the connected components, ordered by their lowest vertex."""
        remaining = self.full_mask
        comps = []
        while remaining:
            comp = _reach(self.adj, remaining & -remaining, remaining)
            comps.append(comp)
            remaining &= ~comp
        return tuple(comps)

    @cached_property
    def _bipartition(self) -> tuple[int, int] | None:
        """One BFS per component, colouring by the parity of the distance
        from its lowest vertex, then one check that no edge joins a side."""
        adj = self.adj
        x = 0
        for comp in self._components:
            frontier = comp & -comp
            seen = frontier
            level = 0
            while frontier:
                if not level:
                    x |= frontier
                level ^= 1
                nxt = 0
                for v in bits(frontier):
                    nxt |= adj[v]
                frontier = nxt & ~seen
                seen |= frontier
        y = self.full_mask & ~x
        for v, row in enumerate(adj):
            if row & (x if x >> v & 1 else y):
                return None
        return x, y

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self.n}, edges={self.edges()})"


def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; rejects loops and out-of-range ends."""
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


# ---------------------------------------------------------------------------
# basic local operations


def neighbors(g: Graph, v: int) -> int:
    """Bitmask of neighbours of v."""
    return g.adj[v]


def degree(g: Graph, v: int) -> int:
    return popcount(g.adj[v])


def max_degree(g: Graph) -> int:
    return max(popcount(row) for row in g.adj)


def common_neighbors(g: Graph, vertex_mask: int) -> int:
    """Bitmask of vertices adjacent to *every* vertex in ``vertex_mask``.

    The empty set is rejected: "common neighbours of nothing" has no sensible
    answer here and silent defaults hide caller bugs.
    """
    if vertex_mask == 0:
        raise ValueError("common_neighbors of the empty vertex set is undefined")
    out = g.full_mask
    for v in bits(vertex_mask):
        out &= g.adj[v]
        if not out:
            break
    return out


def induced_subgraph(g: Graph, vertex_mask: int) -> Graph:
    """Induced subgraph on the masked vertices, relabelled 0..k-1 ascending.

    The full mask returns ``g`` itself, not a copy: ``Graph`` is frozen.
    """
    if vertex_mask == 0:
        raise ValueError("induced subgraph on the empty vertex set is not a graph")
    if vertex_mask & ~g.full_mask:
        raise ValueError("vertex mask mentions vertices outside the graph")
    if vertex_mask == g.full_mask:
        return g
    old = list(bits(vertex_mask))
    index = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in bits(g.adj[v] & vertex_mask):
            row |= 1 << index[u]
        rows.append(row)
    return Graph(len(old), tuple(rows))


# ---------------------------------------------------------------------------
# connectivity


def _reach(rows: Sequence[int], start_bit: int, within: int) -> int:
    """Bitmask of vertices reachable from start_bit inside ``within``, along
    the adjacency ``rows`` (a graph's ``adj``, or rows derived from it)."""
    reached = start_bit
    frontier = start_bit
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= rows[v]
        frontier = nxt & within & ~reached
        reached |= frontier
    return reached


def connected_within(g: Graph, vertex_mask: int) -> bool:
    """True iff the induced subgraph on the (nonempty) mask is connected."""
    if vertex_mask == 0:
        return False
    start = vertex_mask & -vertex_mask
    return _reach(g.adj, start, vertex_mask) == vertex_mask


def is_connected(g: Graph) -> bool:
    return len(g._components) == 1


def connected_components(g: Graph) -> list[int]:
    """Masks of the connected components, ordered by their lowest vertex."""
    return list(g._components)


def bipartition(g: Graph) -> tuple[int, int] | None:
    """A 2-colouring (side_x_mask, side_y_mask) or None if none exists.

    Deterministic: the lowest vertex of each component goes to side x.
    """
    return g._bipartition


def induced_cycle_lengths(g: Graph) -> frozenset[int]:
    """Set of lengths of induced (chordless) cycles.

    DFS over chordless paths: a path is grown only by vertices adjacent to its
    endpoint and to no interior vertex; a vertex adjacent to the path's start
    closes a cycle.  States (path vertex set, endpoint) are memoised — two
    chordless paths with the same vertex set and endpoint have identical
    continuations.  Exponential in the worst case, which is fine at the sizes
    this package works with.
    """
    n = g.n
    lengths: set[int] = set()
    seen_states: set[tuple[int, int]] = set()

    def grow(start: int, path_mask: int, last: int) -> None:
        interior = path_mask & ~(1 << start) & ~(1 << last)
        for w in bits(g.adj[last] & ~path_mask):
            if w <= start:
                continue  # the start is the smallest vertex of any cycle found
            if g.adj[w] & interior:
                continue  # chord to the path interior
            if g.adj[w] >> start & 1:
                # the path has at least two vertices, so the cycle has three
                lengths.add(popcount(path_mask) + 1)
                continue  # extending past w would leave a chord to start
            if popcount(path_mask) + 1 < n:
                state = (path_mask | 1 << w, w)
                if state not in seen_states:
                    seen_states.add(state)
                    grow(start, *state)

    for s in range(g.n):
        for a in bits(g.adj[s]):
            if a > s:
                grow(s, (1 << s) | (1 << a), a)
    return frozenset(lengths)


# ---------------------------------------------------------------------------
# gluing graphs together


def disjoint_union(*graphs: Graph) -> Graph:
    """Disjoint union; vertex blocks keep the argument order."""
    if not graphs:
        raise ValueError("disjoint_union of no graphs")
    rows: list[int] = []
    offset = 0
    for g in graphs:
        rows.extend(row << offset for row in g.adj)
        offset += g.n
    return Graph(offset, tuple(rows))


@_kept
def _complement_rows(g: Graph) -> tuple[int, ...]:
    full = g.full_mask
    return tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj))


def complement(g: Graph) -> Graph:
    return Graph(g.n, _complement_rows(g))


# ---------------------------------------------------------------------------
# canonical form


def _refined_colors(g: Graph) -> list[int]:
    """Iterated neighbourhood-refinement colours (isomorphism-invariant ids).

    The first colours are the degrees, and each round numbers the classes
    by their sorted signatures, which begin with the previous colour.  So a
    round only splits classes and never reorders them: the top colour class
    holds vertices of maximum degree only, which ``enumerate_graphs`` relies
    on to reject a child before labelling it.
    """
    colors = [popcount(row) for row in g.adj]
    for _ in range(g.n):
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        ids = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [ids[s] for s in sigs]
        if new == colors:
            break
        colors = new
    return colors


def _canonical_labelling(
    g: Graph, colors: list[int] | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically-minimal upper-triangle rows over vertex relabellings,
    and the relabelling that first reached them.

    Returns ``(rows, perm)``: ``perm[i]`` is the vertex placed in slot i, and
    entry j-1 of ``rows`` holds the bits (slot i, slot j) for i < j, most
    significant first — the same bit order graph6 uses, so minimising this
    tuple minimises the graph6 string.  Relabellings are restricted to those
    listing the refined colour classes in ascending colour order (colour ids
    are isomorphism-invariant, so the minimum is too).  Branch-and-bound
    beyond that.  Two relabellings that reach the minimum differ by an
    automorphism.  ``colors`` passes in ``_refined_colors(g)`` when the
    caller has it already.
    """
    n = g.n
    if colors is None:
        colors = _refined_colors(g)
    slot_color = sorted(colors)
    best: list[int] | None = None
    best_perm: list[int] = []
    perm: list[int] = []
    rows: list[int] = []

    def twins(u: int, v: int) -> bool:
        # swapping u and v is an automorphism (equal neighbourhoods apart
        # from each other), so their subtrees are interchangeable
        return g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u)

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
            av = g.adj[v]
            for u in perm:
                row = row << 1 | (av >> u & 1)
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
                        break  # options are sorted; everything later is worse
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


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 byte string: equal iff the graphs are isomorphic."""
    return _graph6_from_rows(g.n, _canonical_labelling(g)[0])


# ---------------------------------------------------------------------------
# graph6 format (standard; n <= 62 in one byte, larger n as '~' and three
# 6-bit characters)


def _graph6_from_rows(n: int, rows: Iterable[int]) -> bytes:
    """graph6 bytes from upper-triangle rows: row j-1 (j = 1..n-1) holds the
    j bits (i, j), i < j, with i = 0 the most significant."""
    stream = 0
    for j, row in enumerate(rows, 1):
        stream = stream << j | row
    length = n * (n - 1) // 2
    pad = -length % 6  # the last 6-bit character is padded with zeros
    stream <<= pad
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126] + [(n >> shift & 63) + 63 for shift in (12, 6, 0)])
    return head + bytes((stream >> shift & 63) + 63 for shift in range(length + pad - 6, -1, -6))


def _graph_from_rows(n: int, rows: Iterable[int]) -> Graph:
    """The graph on n vertices with the upper-triangle rows that
    ``_graph6_from_rows`` reads."""
    return from_edges(
        n, ((i, j) for j, row in enumerate(rows, 1) for i in range(j) if row >> j - 1 - i & 1)
    )


def to_graph6(g: Graph) -> str:
    """Standard graph6 encoding of g with its current labelling."""
    # column j is the low j bits of adj[j], reversed so that i = 0 comes first
    columns = (int(format(g.adj[j] & (1 << j) - 1, f"0{j}b")[::-1], 2) for j in range(1, g.n))
    return _graph6_from_rows(g.n, columns).decode("ascii")


def from_graph6(text: str) -> Graph:
    """Parse one standard graph6 line (optionally '>>graph6<<'-headed)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    if s[0] == "~":
        header = s[1:4]
        if len(header) < 3 or not all(63 <= ord(ch) < 127 for ch in header):
            raise ValueError(f"unsupported graph6 vertex count {s[:4]!r}")
        n = 0
        for ch in header:
            n = n << 6 | ord(ch) - 63
        body = s[4:]
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"unsupported graph6 vertex count {n}")
    else:
        n = ord(s[0]) - 63
        body = s[1:]
        if not 1 <= n <= 62:
            raise ValueError(f"unsupported graph6 vertex count byte {s[0]!r}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValueError(
            f"graph6 body length {len(body)} does not match n={n} (need {need})"
        )
    stream = 0
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"bad graph6 byte {ch!r}")
        stream = stream << 6 | val
    total_bits = 6 * len(body)
    # row j-1 is the j bits that end j(j+1)/2 bits into the stream
    return _graph_from_rows(
        n, [stream >> total_bits - j * (j + 1) // 2 & (1 << j) - 1 for j in range(1, n)]
    )


# ---------------------------------------------------------------------------
# edge-list text format


def from_edge_list_text(text: str) -> Graph:
    """Parse the plain edge-list format.

    First relevant line: "n m"; then m lines "u v" with distinct endpoints
    in 0..n-1 (either order).  Blank lines and lines starting with '#' are
    ignored anywhere.
    """
    lines = [line for raw in text.splitlines() if (line := raw.strip()) and line[0] != "#"]
    if not lines:
        raise ValueError("edge-list input is empty")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"non-integer header {lines[0]!r}") from exc
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    rows = [0] * n
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected edge line 'u v', got {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u > v:
            u, v = v, u
        if not 0 <= u < v < n:
            raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n={n}")
        if rows[u] >> v & 1:
            raise ValueError(f"duplicate edge ({u}, {v})")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, tuple(rows))


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"

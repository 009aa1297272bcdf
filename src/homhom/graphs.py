"""Small undirected graphs as bitmask adjacency rows, plus the core operations.

Vertices are always 0..n-1.  A set of vertices is an ``int`` bitmask (bit v set
iff vertex v is a member), which keeps the search loops in this package cheap.
``Graph.adj[v]`` is the bitmask of neighbours of v.  Everything here is
deterministic: vertex iteration is ascending unless stated otherwise.
``bits(mask)`` is the one way the package walks a mask: the tuple of its set
bits, ascending, for a mask of at most ``MAX_VERTICES`` bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import update_wrapper
from typing import Callable, Iterable, Sequence

MAX_VERTICES = 64


def _kept(fn: Callable) -> Callable:
    """``fn(g)``, computed once per graph object and kept in ``g.__dict__``
    under a dotted key no attribute has; a first call computes it through
    ``__wrapped__``.  This is the one place a graph keeps what it computed.
    No kept value refers back to its graph, so a graph is freed as soon as
    its caller drops it, and equality, hash and repr ignore what it keeps."""
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


def _chunk_tables() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each 8-bit chunk of a ``MAX_VERTICES``-bit mask, the tuple of
    set bits of every chunk value, ascending and offset to the chunk's
    place.  Built by doubling: for each bit i of a chunk, the table so far
    is followed by a copy with i appended to every entry."""
    tables = []
    for offset in range(0, MAX_VERTICES, 8):
        table: list[tuple[int, ...]] = [()]
        for i in range(offset, offset + 8):
            table += [t + (i,) for t in table]
        tables.append(tuple(table))
    return tuple(tables)


_CHUNK_BITS = _chunk_tables()
_LOW_BITS = _CHUNK_BITS[0]


def bits(mask: int) -> tuple[int, ...]:
    """The set bits of ``mask``, ascending, as a tuple.  ``mask`` is a
    nonnegative int of at most ``MAX_VERTICES`` bits; a higher bit raises
    ``IndexError``.  A mask below 256 is one table lookup; a wider one is
    read a byte at a time from its lowest nonzero byte up."""
    if mask < 256:
        return _LOW_BITS[mask]
    chunk = (mask & -mask).bit_length() - 1 >> 3
    mask >>= chunk << 3
    out: tuple[int, ...] = ()
    while mask:
        out += _CHUNK_BITS[chunk][mask & 255]
        mask >>= 8
        chunk += 1
    return out


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
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency is not symmetric at ({v}, {u})")

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges (u, v) with u < v, sorted ascending."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                out.append((u, v))
        return out

    def __reduce__(self) -> tuple:
        # a pickle or a copy carries the data alone, not what ``_kept`` keeps
        return Graph, (self.n, self.adj)

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
    old = bits(vertex_mask)
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


@_kept
def _components(g: Graph) -> tuple[int, ...]:
    """Masks of the connected components, ordered by their lowest vertex."""
    remaining = g.full_mask
    comps = []
    while remaining:
        comp = _reach(g.adj, remaining & -remaining, remaining)
        comps.append(comp)
        remaining &= ~comp
    return tuple(comps)


def is_connected(g: Graph) -> bool:
    return len(_components(g)) == 1


def connected_components(g: Graph) -> tuple[Graph, ...]:
    """The connected components as graphs, ordered by their lowest vertex
    and relabelled as ``induced_subgraph`` relabels.  A connected graph is
    its own one component, so it keeps no tuple that holds itself."""
    return (g,) if is_connected(g) else _component_graphs(g)


@_kept
def _component_graphs(g: Graph) -> tuple[Graph, ...]:
    return tuple(induced_subgraph(g, m) for m in _components(g))


@_kept
def bipartition(g: Graph) -> tuple[int, int] | None:
    """A 2-colouring (side_x_mask, side_y_mask) or None if none exists.

    One BFS per component, colouring by the parity of the distance from its
    lowest vertex, so that vertex goes to side x; then one check that no
    edge joins a side.
    """
    adj = g.adj
    x = 0
    for comp in _components(g):
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
    y = g.full_mask & ~x
    for v, row in enumerate(adj):
        if row & (x if x >> v & 1 else y):
            return None
    return x, y


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
                lengths.add(path_mask.bit_count() + 1)
                continue  # extending past w would leave a chord to start
            if path_mask.bit_count() + 1 < n:
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


# ---------------------------------------------------------------------------
# canonical form


def _refined_colors(adj: Sequence[int]) -> list[int]:
    """Iterated neighbourhood-refinement colours (isomorphism-invariant ids)
    of the graph with adjacency rows ``adj``.

    The first colours are the degrees.  Each round numbers the vertices by
    the rank of their signature (colour(v), sorted colours of v's
    neighbours) among the distinct signatures.  A signature begins with the
    previous colour, so a round only splits classes and never reorders
    them: the top colour class holds vertices of maximum degree only, which
    ``enumerate_graphs`` relies on to reject a child before labelling it.
    The ids are those of the first round that splits no class; they are the
    dense ranks of the colours before that round.

    A signature is packed into one int, colour(v) << w*n minus the sum over
    neighbours u of 1 << w*(n-1-colour(u)), with w = n.bit_length(), and
    the ints order as the signatures do.  The colours refine the degrees,
    so the vertices of one class have neighbour tuples of one length.  Of
    two sorted tuples of equal length, A < B exactly when A has the larger
    count at the least colour where their counts differ.  That is the order
    of the negated count vectors packed w bits a colour, least colour most
    significant: every count is below 2**w, and the packed value is below
    2**(w*n), so the colour term dominates.
    """
    n = len(adj)
    w = n.bit_length()
    top = w * n
    nbrs = [bits(row) for row in adj]
    colors = [len(vs) for vs in nbrs]
    classes = len(set(colors))
    while True:
        unit = [1 << top - w - w * c for c in colors].__getitem__
        sigs = [(c << top) - sum(map(unit, vs)) for c, vs in zip(colors, nbrs)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        colors = [rank[s] for s in sigs]
        if len(rank) == classes:
            return colors
        classes = len(rank)


def _canonical_labelling(
    adj: Sequence[int], colors: list[int] | None = None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Lexicographically-minimal upper-triangle rows over vertex relabellings
    of the graph with adjacency rows ``adj``, and the relabelling that first
    reached them.

    Returns ``(rows, perm)``: ``perm[i]`` is the vertex placed in slot i, and
    entry j-1 of ``rows`` holds the bits (slot i, slot j) for i < j, most
    significant first — the same bit order graph6 uses, so minimising this
    tuple minimises the graph6 string.  Relabellings are restricted to those
    listing the refined colour classes in ascending colour order (colour ids
    are isomorphism-invariant, so the minimum is too).  Branch-and-bound
    beyond that: a slot's candidates are tried by ascending row, then
    vertex, skipping a vertex that is a twin of one already tried with the
    same row.  Two relabellings that reach the minimum differ by an
    automorphism.  ``colors`` passes in ``_refined_colors(adj)`` when the
    caller has it already.
    """
    n = len(adj)
    if colors is None:
        colors = _refined_colors(adj)
    # each slot's colour class, as its vertices ascending and as a mask
    members: list[list[int]] = [[] for _ in range(n)]
    for v, c in enumerate(colors):
        members[c].append(v)
    slot_vertices = [vs for vs in members for _ in vs]
    slot_cell = [mask_of(vs) for vs in slot_vertices]
    best: list[int] | None = None
    best_perm: list[int] = []
    perm: list[int] = []
    rows: list[int] = []

    def place(i: int, tight: bool, free: int) -> None:
        nonlocal best, best_perm
        if i == n:
            if best is None or rows < best:
                best = rows.copy()
                best_perm = perm.copy()
            return
        cell = slot_cell[i] & free
        if not cell & cell - 1:
            # one free vertex: no options to sort, and no twin to skip
            v = cell.bit_length() - 1
            row = 0
            av = adj[v]
            for u in perm:
                row = row << 1 | (av >> u & 1)
            if i > 0:
                if best is not None and tight:
                    if row > best[i - 1]:
                        return
                    tight = row == best[i - 1]
                rows.append(row)
            perm.append(v)
            place(i + 1, tight, free & ~(1 << v))
            perm.pop()
            if i > 0:
                rows.pop()
            return
        options = []
        for v in slot_vertices[i]:
            if free >> v & 1:
                row = 0
                av = adj[v]
                for u in perm:
                    row = row << 1 | (av >> u & 1)
                options.append((row, v))
        options.sort()
        tried: list[tuple[int, int]] = []
        for row, v in options:
            # swapping twins (equal neighbourhoods apart from each other) is
            # an automorphism, so their subtrees are interchangeable
            if any(r == row and adj[u] & ~(1 << v) == adj[v] & ~(1 << u) for r, u in tried):
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
            place(i + 1, child_tight, free & ~(1 << v))
            perm.pop()
            if i > 0:
                rows.pop()

    place(0, True, (1 << n) - 1)
    assert best is not None
    return tuple(best), tuple(best_perm)


def canonical_form(g: Graph) -> bytes:
    """Canonical graph6 byte string: equal iff the graphs are isomorphic."""
    return _graph6_from_rows(g.n, _canonical_labelling(g.adj)[0])


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
    adj = [0] * n
    for j, row in enumerate(rows, 1):
        for b in bits(row):
            i = j - 1 - b
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


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

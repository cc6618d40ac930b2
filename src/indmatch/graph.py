"""Simple undirected graphs and the structural queries the engine needs.

Vertices are arbitrary non-negative integers. Induced subgraphs keep the
original ids, so a log of removals written against the input graph stays
meaningful at every intermediate stage.

Everything here is deterministic: iteration orders are pinned by sorting.
"""

from collections import deque
from types import MappingProxyType

from .errors import (
    DuplicateEdgeError,
    IdOutOfRangeError,
    SelfLoopError,
    UnknownVertexError,
)


class Graph:
    """Immutable simple graph backed by adjacency sets.

    Build instances with :func:`build_graph`, or derive them from an existing
    graph with :meth:`subgraph`.
    """

    __slots__ = ("_adj", "_m")

    def __init__(self, adjacency):
        adj = {}
        for v, nbrs in adjacency.items():
            adj[v] = frozenset(nbrs)
        half_edges = 0
        for v, nbrs in adj.items():
            for u in nbrs:
                if u == v:
                    raise SelfLoopError(f"vertex {v} listed as its own neighbor")
                if u not in adj:
                    raise UnknownVertexError(f"neighbor {u} of {v} is not a vertex")
                if v not in adj[u]:
                    raise UnknownVertexError(f"edge {v}-{u} is not symmetric")
            half_edges += len(nbrs)
        self._adj = adj
        self._m = half_edges // 2

    @classmethod
    def _trusted(cls, adj, m):
        # Internal fast path: adj must already be a dict of frozensets forming
        # a valid simple graph with exactly m edges.
        g = object.__new__(cls)
        g._adj = adj
        g._m = m
        return g

    @property
    def n(self):
        return len(self._adj)

    @property
    def m(self):
        return self._m

    @property
    def adjacency(self):
        """Read-only view of the underlying id -> neighbor-set mapping."""
        return MappingProxyType(self._adj)

    def __contains__(self, v):
        return v in self._adj

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    def vertices(self):
        return tuple(sorted(self._adj))

    def degree(self, v):
        try:
            return len(self._adj[v])
        except KeyError:
            raise UnknownVertexError(f"no vertex {v}") from None

    def neighbors(self, v):
        try:
            return self._adj[v]
        except KeyError:
            raise UnknownVertexError(f"no vertex {v}") from None

    def has_edge(self, u, v):
        if u not in self._adj:
            raise UnknownVertexError(f"no vertex {u}")
        if v not in self._adj:
            raise UnknownVertexError(f"no vertex {v}")
        return v in self._adj[u]

    def max_degree(self):
        return max((len(s) for s in self._adj.values()), default=0)

    def edges(self):
        """All edges as (min, max) pairs, sorted."""
        out = []
        for v, nbrs in self._adj.items():
            for u in nbrs:
                if v < u:
                    out.append((v, u))
        out.sort()
        return out

    def components(self):
        """Connected components as sorted vertex tuples, ordered by minimum id."""
        seen = set()
        comps = []
        for start in sorted(self._adj):
            if start in seen:
                continue
            seen.add(start)
            comp = [start]
            queue = deque((start,))
            while queue:
                x = queue.popleft()
                for y in self._adj[x]:
                    if y not in seen:
                        seen.add(y)
                        comp.append(y)
                        queue.append(y)
            comps.append(tuple(sorted(comp)))
        return comps

    def is_connected(self):
        if self.n <= 1:
            return True
        start = next(iter(self._adj))
        seen = {start}
        queue = deque((start,))
        while queue:
            x = queue.popleft()
            for y in self._adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return len(seen) == self.n

    def subgraph(self, keep):
        """Induced subgraph on the given vertices; every id must exist."""
        kept = set(keep)
        for x in kept:
            if x not in self._adj:
                raise UnknownVertexError(f"no vertex {x}")
        adj = {}
        m = 0
        for v in kept:
            adj[v] = frozenset(self._adj[v] & kept)
            m += len(adj[v])
        return Graph._trusted(adj, m // 2)


def build_graph(n, edges):
    """Graph on vertex ids 0..n-1 from an iterable of (u, v) pairs.

    Rejects self-loops, duplicate edges (in either orientation), and
    endpoints outside the id range.
    """
    if n < 0:
        raise IdOutOfRangeError(f"vertex count {n} is negative")
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise IdOutOfRangeError(f"edge {u}-{v} outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at {u}")
        if v in adj[u]:
            raise DuplicateEdgeError(f"edge {u}-{v} given twice")
        adj[u].add(v)
        adj[v].add(u)
    frozen = {v: frozenset(s) for v, s in adj.items()}
    m = sum(len(s) for s in frozen.values()) // 2
    return Graph._trusted(frozen, m)


def is_induced_matching(g, pairs):
    """Whether the pairs are edges of g forming an induced matching.

    Induced means no two matched edges share an endpoint or are joined by an
    edge of g. Unknown vertex ids raise; structural failures return False.
    """
    adj = g.adjacency
    matched = {}
    edges = []
    for a, b in pairs:
        if a not in adj:
            raise UnknownVertexError(f"no vertex {a}")
        if b not in adj:
            raise UnknownVertexError(f"no vertex {b}")
        if a == b or b not in adj[a]:
            return False
        if a in matched or b in matched:
            return False
        matched[a] = b
        matched[b] = a
        edges.append((a, b))
    for a, b in edges:
        for x in (a, b):
            for y in adj[x]:
                if y in matched and matched[x] != y:
                    return False
    return True


def _c25_adjacency():
    # The excluded graph: two 5-cycles blown up so that consecutive positions
    # are joined by all four cross edges. Vertices i and i+5 share a position
    # and are not adjacent; every vertex has degree 4 and the girth is 4.
    adj = {v: set() for v in range(10)}
    for i in range(5):
        j = (i + 1) % 5
        for a in (i, i + 5):
            for b in (j, j + 5):
                adj[a].add(b)
                adj[b].add(a)
    return adj


def is_isomorphic_c25(g):
    """Whether g is (isomorphic to) the excluded 10-vertex graph."""
    if g.n != 10 or g.m != 20:
        return False
    if any(g.degree(v) != 4 for v in g.vertices()):
        return False
    model = Graph({v: frozenset(s) for v, s in _c25_adjacency().items()})
    return _isomorphic(g, model)


def _isomorphic(g, h):
    """Backtracking isomorphism test for small graphs."""
    if g.n != h.n or g.m != h.m:
        return False
    gsig = {v: _vertex_signature(g, v) for v in g.vertices()}
    hsig = {v: _vertex_signature(h, v) for v in h.vertices()}
    if sorted(gsig.values()) != sorted(hsig.values()):
        return False
    order = _mapping_order(g, gsig)
    hverts = h.vertices()
    gadj = g.adjacency
    hadj = h.adjacency
    image = {}
    used = set()

    def extend(i):
        if i == len(order):
            return True
        v = order[i]
        want = gsig[v]
        nbrs_mapped = [(p, image[p]) for p in gadj[v] if p in image]
        for w in hverts:
            if w in used or hsig[w] != want:
                continue
            ok = True
            for p, wp in nbrs_mapped:
                if wp not in hadj[w]:
                    ok = False
                    break
            if ok:
                # Mapped non-neighbors must stay non-neighbors too.
                for p in image:
                    if p not in gadj[v] and image[p] in hadj[w]:
                        ok = False
                        break
            if ok:
                image[v] = w
                used.add(w)
                if extend(i + 1):
                    return True
                del image[v]
                used.discard(w)
        return False

    return extend(0)


def _vertex_signature(g, v):
    return (g.degree(v), tuple(sorted(g.degree(u) for u in g.neighbors(v))))


def _mapping_order(g, sigs):
    # Explore from the rarest-signature vertex outward so each new vertex is
    # constrained by already-mapped neighbors as early as possible.
    verts = g.vertices()
    if not verts:
        return []
    sig_count = {}
    for v in verts:
        sig_count[sigs[v]] = sig_count.get(sigs[v], 0) + 1
    start = min(verts, key=lambda v: (sig_count[sigs[v]], -g.degree(v), v))
    order = [start]
    placed = {start}
    while len(order) < len(verts):
        nxt = None
        best = None
        for v in verts:
            if v in placed:
                continue
            attached = sum(1 for u in g.neighbors(v) if u in placed)
            key = (-attached, v)
            if best is None or key < best:
                best = key
                nxt = v
        order.append(nxt)
        placed.add(nxt)
    return order

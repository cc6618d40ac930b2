"""Simple undirected graphs and the structural queries the engine needs.

Vertices are arbitrary non-negative integers. Induced subgraphs keep the
original ids, so a log of removals written against the input graph stays
meaningful at every intermediate stage.

Everything here is deterministic: iteration orders are pinned by sorting.
"""

import sys
from collections import Counter, deque
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

    def vertices(self):
        return tuple(sorted(self._adj))

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

    Each id is one int object: the neighbour sets hold the graph's own key
    objects, not the caller's ints, and each set is frozen and dropped in
    turn, so a set and its frozen copy are never both held for every vertex.
    """
    if n < 0:
        raise IdOutOfRangeError(f"vertex count {n} is negative")
    ids = _id_list(n)
    adj = [set() for _ in ids]
    for u, v in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise IdOutOfRangeError(f"edge {u}-{v} outside 0..{n - 1}")
        if u == v:
            raise SelfLoopError(f"self-loop at {u}")
        if v in adj[u]:
            raise DuplicateEdgeError(f"edge {u}-{v} given twice")
        adj[u].add(ids[v])
        adj[v].add(ids[u])
    return _freeze(ids, adj)


def _id_list(n):
    """The ids 0..n-1 as a list, not the range: indexing a range makes a
    new int every time. No list holds more than sys.maxsize items, so a
    larger count is refused here rather than overflow inside list()."""
    if n > sys.maxsize:
        raise IdOutOfRangeError(f"vertex count {n} is more than {sys.maxsize}")
    return list(range(n))


def _freeze(ids, adj):
    """The graph on ids whose neighbour sets are adj[v], each frozen and
    dropped in turn; the sets must hold the ids' own objects and form a
    valid simple graph."""
    frozen = {}
    half_edges = 0
    for v in ids:
        nbrs = frozenset(adj[v])
        adj[v] = None
        frozen[v] = nbrs
        half_edges += len(nbrs)
    return Graph._trusted(frozen, half_edges // 2)


def is_induced_matching(g, pairs):
    """Whether the pairs are edges of g forming an induced matching.

    Induced means no two matched edges share an endpoint or are joined by an
    edge of g. Unknown vertex ids raise; structural failures return False.
    """
    adj = g.adjacency
    pairs = tuple(pairs)
    for pair in pairs:
        for x in pair:
            if x not in adj:
                raise UnknownVertexError(f"no vertex {x}")
    return _induced(adj, pairs)


def _induced(adj, pairs):
    """is_induced_matching on a bare adjacency mapping; a missing vertex
    makes the answer False rather than an error."""
    matched = {}
    for a, b in pairs:
        if a not in adj or b not in adj[a] or a in matched or b in matched:
            return False
        matched[a] = b
        matched[b] = a
    for x, partner in matched.items():
        for y in adj[x]:
            if y != partner and y in matched:
                return False
    return True


def is_isomorphic_c25(g):
    """Whether g is (isomorphic to) the excluded 10-vertex graph.

    C25 is the 5-cycle with every vertex doubled, so it is recognised by its
    twin pairs: 10 vertices of degree 4 whose neighborhoods each occur
    exactly twice. That is exact. Twins are non-adjacent, and a neighborhood
    holds the twin of each of its members, so it is a union of two pairs;
    the quotient on the five pairs is then 2-regular, and the only 2-regular
    simple graph on five vertices is C5.
    """
    adj = g.adjacency
    if len(adj) != 10 or any(len(s) != 4 for s in adj.values()):
        return False
    return all(c == 2 for c in Counter(adj.values()).values())

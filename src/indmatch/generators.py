"""Deterministic instance generators.

Random instances are driven by splitmix64 so that a seed pins the exact byte
sequence of draws on every platform; nothing here touches `random` or any
other global state. The named constructions are the small graphs whose best
induced matching sits exactly on interesting boundaries.
"""

from dataclasses import dataclass

from .graph import Graph, _id_list, build_graph

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_next(state):
    """One splitmix64 step: returns (value, new state), both 64-bit."""
    state = (state + _GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    z ^= z >> 31
    return z, state


class SplitMix64:
    """Stateful splitmix64 stream with unbiased bounded draws.

    below(n) keeps only the top bit_length(n-1) bits of each 64-bit output
    and rejects values >= n, so the draw is uniform and consumes a
    deterministic-given-the-seed number of outputs. below(1) consumes
    nothing.
    """

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK64

    def next_u64(self):
        value, self.state = splitmix64_next(self.state)
        return value

    def below(self, n):
        if n <= 0:
            raise ValueError(f"below({n}) needs a positive bound")
        if n > 1 << 64:
            raise ValueError(f"below({n}) needs a bound of at most 2**64")
        if n == 1:
            return 0
        shift = 64 - (n - 1).bit_length()
        while True:
            r = self.next_u64() >> shift
            if r < n:
                return r


@dataclass(frozen=True)
class RandomGraphConfig:
    """Shape of one random instance: size, densification effort, seed."""

    n: int
    extra_edge_attempts: int
    seed: int


def gen_c25():
    """The excluded graph: a 5-cycle with every vertex doubled.

    Positions 0..4 hold vertex pairs {i, i+5}; consecutive positions are
    joined by all four cross edges and paired vertices stay non-adjacent.
    4-regular on 10 vertices, girth 4, and its best induced matching is a
    single edge, which is what disqualifies it from the n/9 guarantee.
    """
    edges = []
    for i in range(5):
        j = (i + 1) % 5
        edges += [(a, b) for a in (i, i + 5) for b in (j, j + 5)]
    return build_graph(10, edges)


def gen_k33plus():
    """Complete bipartite K_{3,3} minus one edge, plus a path through it.

    Parts {0,1,2} and {3,4,5} lose the edge 0-3; vertex 6 is joined to 0 and
    to 3 instead. 7 vertices, 10 edges, max degree 3, and still only one
    induced-matching edge: a witness that degree 3 alone cannot push the
    guarantee past n/7.
    """
    edges = [(i, j) for i in (0, 1, 2) for j in (3, 4, 5) if (i, j) != (0, 3)]
    edges += [(0, 6), (3, 6)]
    return build_graph(7, edges)


def gen_tight9():
    """The excluded 10-vertex graph minus one vertex.

    Nine vertices, connected, max degree 4, best induced matching one edge:
    the guarantee of one matched edge per nine vertices is exactly tight.
    """
    edges = [(u, v) for (u, v) in gen_c25().edges() if u != 9 and v != 9]
    return build_graph(9, edges)


def gen_path(n):
    """Path 0-1-...-(n-1)."""
    if n < 1:
        raise ValueError(f"gen_path needs n >= 1, got {n}")
    # Edges drawn lazily, so build_graph refuses a count too large for a
    # list before any edge is made.
    return build_graph(n, ((i, i + 1) for i in range(n - 1)))


def gen_cycle(n):
    """Cycle 0-1-...-(n-1)-0."""
    if n < 3:
        raise ValueError(f"gen_cycle needs n >= 3, got {n}")
    return build_graph(n, ((i, (i + 1) % n) for i in range(n)))


def gen_random_maxdeg4(config):
    """Connected random graph with max degree 4.

    Grows a random tree (each new vertex attaches to a uniformly re-drawn
    earlier vertex that still has spare degree), then makes
    extra_edge_attempts independent tries to add an edge between two fresh
    uniform vertices, skipping tries that would create a loop, a duplicate
    edge, or a fifth neighbor.
    """
    return _gen_random_capped(config, cap=4)


def _gen_random_capped(config, cap):
    n = config.n
    if n < 1:
        raise ValueError(f"random graph needs n >= 1, got {n}")
    if config.extra_edge_attempts < 0:
        raise ValueError("extra_edge_attempts must be >= 0")
    # _id_list runs first: it refuses a count past sys.maxsize and runs out
    # of memory on one too large to hold, so cap * n never overflows the
    # slot list's size (an OverflowError the CLI does not map to exit 4).
    ids = _id_list(n)
    # Vertex v's neighbours are slots[cap * v : cap * v + deg[v]], the
    # graph's own id objects, as build_graph's sets hold; the rest is None.
    deg = [0] * n
    slots = [None] * (cap * n)
    mask, gamma, m1, m2 = _MASK64, _GAMMA, _MIX1, _MIX2
    # Each draw below is SplitMix64.below inlined: one splitmix64_next step
    # per output, its top bits kept, values past the bound rejected.
    state = config.seed & mask
    if n > 1:
        # below(1) draws nothing: vertex 1 always joins vertex 0.
        slots[0] = ids[1]
        slots[cap] = ids[0]
        deg[0] = deg[1] = 1
    for v in range(2, n):
        shift = 64 - (v - 1).bit_length()
        while True:
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * m1) & mask
            z = ((z ^ (z >> 27)) * m2) & mask
            u = (z ^ (z >> 31)) >> shift
            # A full u is redrawn, as a rejected value is.
            if u < v and deg[u] < cap:
                break
        slots[cap * u + deg[u]] = ids[v]
        deg[u] += 1
        slots[cap * v] = ids[u]
        deg[v] = 1
    # A vertex below cap has at most cap - 1 neighbours, so while more than
    # cap vertices are below it some such pair is apart and an attempt may
    # still add an edge. Once every such pair is adjacent none can, and
    # nothing draws after the loop, so stopping there keeps the output of
    # any number of attempts.
    below_cap = n - deg.count(cap)
    attempts = config.extra_edge_attempts
    if below_cap <= cap and _saturated(deg, slots, cap):
        attempts = 0
    shift = 64 - (n - 1).bit_length()
    for _ in range(attempts):
        while True:
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * m1) & mask
            z = ((z ^ (z >> 27)) * m2) & mask
            u = (z ^ (z >> 31)) >> shift
            if u < n:
                break
        while True:
            state = (state + gamma) & mask
            z = ((state ^ (state >> 30)) * m1) & mask
            z = ((z ^ (z >> 27)) * m2) & mask
            v = (z ^ (z >> 31)) >> shift
            if v < n:
                break
        du = deg[u]
        dv = deg[v]
        if du >= cap or dv >= cap or u == v:
            continue
        base = cap * u
        if v in slots[base : base + du]:
            continue
        slots[base + du] = ids[v]
        slots[cap * v + dv] = ids[u]
        du += 1
        dv += 1
        deg[u] = du
        deg[v] = dv
        below_cap -= (du == cap) + (dv == cap)
        if below_cap <= cap and _saturated(deg, slots, cap):
            break
    frozen = {v: frozenset(slots[cap * v : cap * v + deg[v]]) for v in ids}
    return Graph._trusted(frozen, sum(deg) // 2)


def _saturated(deg, slots, cap):
    """Whether every two vertices below cap are adjacent."""
    below = [v for v, d in enumerate(deg) if d < cap]
    return all(
        v in slots[cap * u : cap * u + deg[u]]
        for i, u in enumerate(below)
        for v in below[i + 1 :]
    )

"""Exact maximum induced matching via branch and bound on the conflict graph.

Two edges conflict when they share an endpoint or some edge of the graph
joins them; an induced matching is exactly an independent set in the
conflict graph. The conflict graph is kept as bitmasks over the edges in
sorted order: with at[v] the bits of the edges at v and near[x] the bits at
x or at any neighbour of x, edge i = (a, b) conflicts with near[a] | near[b]
less its own bit. build_conflict_graph decodes the same masks into index
lists.

The search is fixed, so equal-size optima resolve the same way on every run:
a greedy first-fit incumbent, then a depth-first search that branches on the
most-conflicted remaining node (ties to the smallest index), tries inclusion
first, and prunes a node when its size plus a greedy clique-cover bound
cannot beat the incumbent. Every node taken off the stack, leaf or pruned,
counts once against max_nodes, so a budget names the same search tree on
every run.

Intended for small graphs (components up to a few dozen edges); the node
budget guards against larger accidental inputs.
"""

from dataclasses import dataclass

from .errors import BudgetExceededError


@dataclass(frozen=True)
class ConflictGraph:
    """Edges of a graph as nodes, with their mutual-exclusion lists.

    nodes[i] is the i-th edge as a (min, max) pair in sorted order;
    conflicts[i] are the indices that cannot join node i in an induced
    matching.
    """

    nodes: tuple
    conflicts: tuple


def _conflict_masks(g):
    """(nodes, conf): the sorted edges of g, and per edge the bitmask of the
    edges it conflicts with (bit j is nodes[j])."""
    nodes = g.edges()
    adj = g.adjacency
    at = dict.fromkeys(adj, 0)
    bit = 1
    for a, b in nodes:
        at[a] |= bit
        at[b] |= bit
        bit <<= 1
    near = {}
    for x, nbrs in adj.items():
        mask = at[x]
        for y in nbrs:
            mask |= at[y]
        near[x] = mask
    conf = []
    bit = 1
    for a, b in nodes:
        conf.append((near[a] | near[b]) & ~bit)
        bit <<= 1
    return nodes, conf


def _indices(mask):
    """The set bits of mask as ascending indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def build_conflict_graph(g):
    nodes, conf = _conflict_masks(g)
    return ConflictGraph(
        tuple(nodes), tuple(tuple(_indices(mask)) for mask in conf)
    )


def max_induced_matching(g, max_nodes=0):
    """A maximum induced matching of g as a sorted tuple of (min, max) pairs.

    max_nodes caps the number of search-tree nodes visited (0 = unlimited);
    exceeding it raises BudgetExceededError rather than returning a
    sub-optimal answer. A negative max_nodes raises ValueError.
    """
    if max_nodes < 0:
        raise ValueError(f"max_nodes must be at least 0, got {max_nodes}")
    nodes, conf = _conflict_masks(g)
    if not nodes:
        return ()
    full = (1 << len(nodes)) - 1

    # Greedy first-fit seed: a decent incumbent makes the cover bound bite
    # from the start.
    best_set = 0
    avail = full
    while avail:
        low = avail & -avail
        best_set |= low
        avail &= ~(low | conf[low.bit_length() - 1])
    best_size = best_set.bit_count()

    visited = 0
    # Explicit stack, include-branch explored first; an explicit stack keeps
    # deep exclude-chains on big inputs from tripping the interpreter's
    # recursion limit before the budget can fire.
    stack = [(full, 0, 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        mask, chosen, size = pop()
        visited += 1
        if max_nodes and visited > max_nodes:
            raise BudgetExceededError(visited, max_nodes)
        if not mask:
            if size > best_size:
                best_size = size
                best_set = chosen
            continue
        # Greedy clique cover of the remaining conflict nodes; an induced
        # matching takes at most one node per conflict clique.
        bound = size
        rest = mask
        while rest:
            low = rest & -rest
            clique = low
            cand = conf[low.bit_length() - 1] & rest
            while cand:
                u = cand & -cand
                clique |= u
                cand &= conf[u.bit_length() - 1]
            rest ^= clique
            bound += 1
        if bound <= best_size:
            continue
        pick = -1
        pick_deg = -1
        rest = mask
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            deg = (conf[i] & mask).bit_count()
            if deg > pick_deg:
                pick_deg = deg
                pick = i
            rest ^= low
        bit = 1 << pick
        push((mask ^ bit, chosen, size))
        push((mask & ~(bit | conf[pick]), chosen | bit, size + 1))
    # nodes are sorted, so ascending indices give a sorted matching.
    return tuple(nodes[i] for i in _indices(best_set))

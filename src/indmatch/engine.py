"""Reduction engine: certified induced matchings in max-degree-4 graphs.

solve() repeatedly deletes a small vertex set while matching one or two of
its edges, keeping every step inside a fixed exchange rate: nine deleted-or-
isolated vertices per matched edge. Components of at most EXACT_THRESHOLD
(18, fixed) vertices are finished by the exact solver instead. The step log
is the certificate that harness.verify_certificate replays.

Twelve reduction rules are tried in a fixed priority order, and within a
rule the lexicographically smallest witness fires, so a given graph always
produces the identical certificate. One 10-vertex graph (see gen_c25) admits
no such accounting and is rejected up front; everything else with max degree
4 yields at least one matched edge per nine non-isolated vertices.

The later, denser rules (R7 onward) sometimes need a second matched edge to
pay for their removals. The searches for that second edge re-validate the
candidate pair explicitly instead of trusting structure; if no candidate
survives, the engine raises InvariantViolationError rather than emit an
unpaid step.

Every rule step, and every EXACT finish of a component split off during
the reduction, passes the same _step_violations check against the live
graph before it is applied. The EXACT steps for components that are small
in the input skip that check; solve's final induced-and-bound check and
the replay in harness.verify_certificate cover them.
"""

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import (
    C25ComponentError,
    InvariantViolationError,
    MaxDegreeExceededError,
)
from .exact import max_induced_matching
from .graph import Graph, _induced, is_induced_matching, is_isomorphic_c25

EXACT_THRESHOLD = 18

RULE_NAMES = (
    "R1", "R2", "R3", "R4", "R5", "R6",
    "R7", "R8", "R9", "R10", "R11", "R12",
)

STEP_KINDS = RULE_NAMES + ("EXACT",)


@dataclass(frozen=True)
class ReductionStep:
    """One engine move: match these edges, then delete these vertices.

    rule is one of R1..R12 or EXACT. matched holds (min, max) pairs, removed
    the sorted tuple of deleted vertices.
    """

    rule: str
    matched: tuple
    removed: tuple


@dataclass(frozen=True)
class Certificate:
    """Replayable log of every step, in the order they were applied."""

    steps: tuple


@dataclass(frozen=True)
class SolveResult:
    """Matching plus the certificate that justifies it.

    isolated counts the input's degree-0 vertices, which no accounting can
    charge to an edge; the delivered guarantee is
    9 * len(matching) >= n - isolated.
    """

    matching: tuple
    certificate: Certificate
    n: int
    isolated: int


def solve(g):
    """Certified induced matching of at least (n - isolated) / 9 edges.

    Raises MaxDegreeExceededError on a vertex of degree five or more,
    C25ComponentError if some component is the one excluded 10-vertex graph,
    and InvariantViolationError if any internal consistency check fails
    (which would be a bug, not an input problem).
    """
    _check_input(g)
    comps = g.components()
    for comp in comps:
        if len(comp) == 10 and is_isomorphic_c25(g.subgraph(comp)):
            raise C25ComponentError(comp)
    isolated = sum(1 for comp in comps if len(comp) == 1)
    steps = []
    pool_adj = {}
    for comp in comps:
        if len(comp) == 1:
            continue
        if len(comp) <= EXACT_THRESHOLD:
            steps.append(_exact_step(g.adjacency, comp))
        else:
            for v in comp:
                pool_adj[v] = g.neighbors(v)
    if pool_adj:
        pool = _Pool(pool_adj, g.vertices())
        while pool.adj:
            step = pool.find_step()
            pool.check(step, step.matched)
            survivors = pool.apply(set(step.removed))
            steps.append(step)
            for comp in pool.split_small(survivors):
                estep = _exact_step(pool.adj, comp)
                pool.check(estep, tuple(comp))
                pool.apply(set(comp))
                steps.append(estep)
    matching = []
    for st in steps:
        matching.extend(st.matched)
    matching.sort()
    result = SolveResult(tuple(matching), Certificate(tuple(steps)), g.n, isolated)
    problem = None
    if not is_induced_matching(g, result.matching):
        problem = "assembled matching is not induced"
    elif 9 * len(result.matching) < g.n - isolated:
        problem = (
            f"only {len(result.matching)} edges for {g.n} vertices"
            f" ({isolated} isolated)"
        )
    if problem:
        raise InvariantViolationError(problem, rule="final", graph=g)
    return result


def next_reduction(g):
    """The one step the engine would take on g, without applying it.

    g must be connected, have more than EXACT_THRESHOLD vertices, and max
    degree at most 4; smaller graphs go straight to the exact solver and
    have no rule step defined.
    """
    _check_input(g)
    if g.n <= EXACT_THRESHOLD:
        raise ValueError(
            f"graph has {g.n} <= {EXACT_THRESHOLD} vertices;"
            " it belongs to the exact solver"
        )
    if len(g.components()) != 1:
        raise ValueError("graph is not connected")
    ids = g.vertices()
    pool = _Pool(dict(g.adjacency), ids)
    step = pool.find_step()
    pool.check(step, step.matched)
    return step


def _check_input(g):
    for v in g.vertices():
        if g.degree(v) > 4:
            raise MaxDegreeExceededError(v, g.degree(v))


def _exact_step(adj, comp):
    sub_adj = {v: frozenset(adj[v]) for v in comp}
    m = sum(len(s) for s in sub_adj.values()) // 2
    sub = Graph._trusted(sub_adj, m)
    return ReductionStep("EXACT", max_induced_matching(sub), tuple(comp))


def _step(rule, matched, removed):
    """A rule step in certificate form: normalized pairs, sorted removals.

    Whether the step is valid and paid for is decided by _step_violations,
    which both callers of _Pool.find_step run before using the step.
    """
    return ReductionStep(rule, _norm_pairs(matched), tuple(sorted(removed)))


def _norm_pairs(pairs):
    return tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs))


def _lex_first_2matching(adj, scope):
    verts = sorted(v for v in scope if v in adj)
    inside = set(verts)
    edges = []
    for a in verts:
        for b in adj[a]:
            if a < b and b in inside:
                edges.append((a, b))
    edges.sort()
    for i, (a, b) in enumerate(edges):
        na = adj[a]
        nb = adj[b]
        for c, d in edges[i + 1 :]:
            if c == a or c == b or d == a or d == b:
                continue
            if c in na or c in nb or d in na or d in nb:
                continue
            return ((a, b), (c, d))
    return None


def _step_violations(adj, matched, removed):
    """Check one step against the adjacency it claims to act on.

    Returns (kind, message) pairs, kind being 'structure' for matching-shape
    problems and 'accounting' for the size bound.
    """
    problems = []
    rset = set(removed)
    if len(rset) != len(tuple(removed)):
        problems.append(("structure", "removed list repeats a vertex"))
    for x in sorted(rset):
        if x not in adj:
            problems.append(("structure", f"removed vertex {x} is not present"))
            rset.discard(x)
    endpoints = [p for e in matched for p in e]
    if len(set(endpoints)) != len(endpoints):
        problems.append(("structure", "matched edges share endpoints"))
    usable = []
    for a, b in matched:
        if a not in adj or b not in adj:
            problems.append(
                ("structure", f"matched edge {a}-{b} uses a missing vertex")
            )
            continue
        if b not in adj[a]:
            problems.append(("structure", f"matched pair {a}-{b} is not an edge"))
            continue
        usable.append((a, b))
    for i in range(len(usable)):
        for j in range(i + 1, len(usable)):
            for x in usable[i]:
                for y in usable[j]:
                    if y in adj[x]:
                        problems.append((
                            "structure",
                            f"matched edges {usable[i]} and {usable[j]}"
                            f" touch via {x}-{y}",
                        ))
    for a, b in usable:
        for x in (a, b):
            if x not in rset:
                problems.append(
                    ("structure", f"matched endpoint {x} is not removed")
                )
            for y in adj[x]:
                if y not in rset:
                    problems.append((
                        "structure",
                        f"neighbor {y} of matched endpoint {x} survives",
                    ))
    newly_isolated = len(_isolated(adj, rset))
    if 9 * len(matched) < len(rset) + newly_isolated:
        problems.append((
            "accounting",
            f"9*{len(matched)} matched < {len(rset)} removed"
            f" + {newly_isolated} isolated",
        ))
    return problems


def _isolated(adj, removed):
    """Sorted vertices outside removed whose neighbors all lie in it."""
    out = []
    seen = set()
    for x in removed:
        for y in adj[x]:
            if y in removed or y in seen:
                continue
            seen.add(y)
            if adj[y] <= removed:
                out.append(y)
    out.sort()
    return out


class _Pool:
    """Mutable working graph plus lazily validated rule-candidate queues.

    Degrees only fall and edges only disappear while the pool shrinks, so a
    vertex enters each degree level at most once, and a vertex that is the
    smallest of no triangle, 4-cycle or edge never becomes one again. R9,
    R11 and R12 queue every vertex up front; every other entry is pushed at
    the event that could first make it fire. Each rule searches for its
    witness when the head is popped, and discards a stale head then.

    Rule Rk owns queues["Rk"] and the method _rk, which returns None for a
    stale queue head and the step for a live one.

    ids are the input's vertex ids; a violation's graph keeps all of them,
    deleted ones isolated, so its witness names the written graph's ids.

    big_at maps a vertex to its witness: a list of EXACT_THRESHOLD + 1
    vertices that one split_small probe found connected. An edge goes only
    with one of its ends, so a witness stays connected while every member
    lives, and apply empties it when a member goes; live witnesses are
    disjoint.

    adj starts out holding the input graph's own frozensets, shared and not
    copied. apply rebinds a shrunk vertex to a new frozenset and nothing
    mutates one, so the input graph never changes under the pool.
    """

    def __init__(self, adj, ids):
        self.adj = adj
        self.ids = ids
        self.big_at = {}
        order = sorted(adj)
        # A sorted list is already a heap.
        self.queues = {
            name: list(order) if name in ("R9", "R11", "R12") else []
            for name in RULE_NAMES
        }
        # The class's functions, not bound methods: a bound method held here
        # would make a reference cycle, which only the cyclic GC frees.
        self.rules = tuple(
            (self.queues[name], getattr(_Pool, f"_{name.lower()}"))
            for name in RULE_NAMES
        )
        for v in order:
            self._push_events(v)

    # ----- candidate events -------------------------------------------------

    def _push_events(self, v):
        d = len(self.adj[v])
        if d == 1:
            self._push_end_events(v)
        elif d == 2:
            self._push_deg2_events(v)
        elif d == 3:
            self._push_deg3_events(v)

    def _push_end_events(self, y):
        adj = self.adj
        queues = self.queues
        (v,) = adj[y]
        heappush(queues["R4"], y)
        if len(adj[v]) <= 3:
            heappush(queues["R1"], (y, v))
        for u in adj[v]:
            if u != y and len(adj[u]) == 1:
                pair = (y, u) if y < u else (u, y)
                heappush(queues["R2"], (pair[0], pair[1], v))
        # R3: while two ends live their neighbors are fixed and common
        # neighbors only disappear, so a pair that ever qualifies already
        # does when the younger end appears, and this scan finds it.
        nv = adj[v]
        for w in nv:
            if w == y:
                continue
            for v2 in adj[w]:
                if v2 == v or v2 in nv:
                    continue
                for u2 in adj[v2]:
                    if len(adj[u2]) == 1:
                        pair = (y, u2) if y < u2 else (u2, y)
                        heappush(queues["R3"], pair)

    def _push_deg2_events(self, y):
        queues = self.queues
        a, b = sorted(self.adj[y])
        for t in (a, b):
            if len(self.adj[t]) == 2:
                heappush(queues["R5"], (y, t))
                heappush(queues["R5"], (t, y))
            if len(self.adj[t]) == 1:
                heappush(queues["R1"], (t, y))
        if b in self.adj[a]:
            heappush(queues["R6"], y)
        # y itself is one common neighbor of a and b; R7 wants another.
        if len(self.adj[a] & self.adj[b]) > 1:
            heappush(queues["R7"], y)
        heappush(queues["R8"], y)

    def _push_deg3_events(self, y):
        # Like R8, R10 takes every entry and leaves the 4-cycle test to the
        # pop: a degree-3 vertex keeps its neighbors, and 4-cycles only
        # disappear, so an entry without one can never become live.
        heappush(self.queues["R10"], y)
        for u in self.adj[y]:
            if len(self.adj[u]) == 1:
                heappush(self.queues["R1"], (u, y))

    def _cycle4_through(self, u, above=-1):
        """The smallest (p, w, q), p < q, with u-p-w-q-u a 4-cycle and
        p, w, q all above the given id, or None."""
        adj = self.adj
        nbrs = sorted(p for p in adj[u] if p > above)
        return min(
            (
                (p, w, q)
                for i, p in enumerate(nbrs)
                for q in nbrs[i + 1 :]
                for w in adj[q]
                if w != u and w > above and w in adj[p]
            ),
            default=None,
        )

    # ----- mutation ---------------------------------------------------------

    def apply(self, removed):
        """Delete the removed set plus anyone it isolates.

        Returns the survivors, sorted: the boundary vertices that stay, i.e.
        the only places where a component can have shrunk.
        """
        big_at = self.big_at
        boundary = set()
        for x in removed:
            nbrs = self.adj.pop(x)
            if x in big_at:
                big_at.pop(x).clear()
            for y in nbrs:
                if y not in removed:
                    boundary.add(y)
        ordered = sorted(boundary)
        for y in ordered:
            # Rebinds to a new frozenset; the old one may be the input's.
            self.adj[y] -= removed
        survivors = []
        for y in ordered:
            if self.adj[y]:
                survivors.append(y)
            else:
                del self.adj[y]
                if y in big_at:
                    big_at.pop(y).clear()
        # Events fire only after every boundary degree is final, so the
        # degree tests inside the pushes never see half-applied state.
        for y in survivors:
            self._push_events(y)
        return survivors

    def split_small(self, seeds):
        """Components of at most EXACT_THRESHOLD vertices touching the seeds.

        Every component that lost a vertex contains a seed, so probing the
        seeds with a size-capped search finds each newly small component;
        returned sorted, smallest first vertex first.

        A probe ends "big" on reaching a live witness (connected while every
        member lives; live witnesses are disjoint) or its own
        EXACT_THRESHOLD + 1-th vertex. Only the latter records a witness,
        and no vertex it holds is in a live one, so no entry of big_at that
        points at a live witness is ever overwritten.
        """
        adj = self.adj
        big_at = self.big_at
        found = []
        seen = set()
        for s in seeds:
            if s in seen or s not in adj:
                continue
            comp_seen = {s}
            stack = [s]
            big = bool(big_at.get(s))
            while stack and not big:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp_seen:
                        if big_at.get(y):
                            big = True
                            break
                        comp_seen.add(y)
                        if len(comp_seen) > EXACT_THRESHOLD:
                            big = True
                            witness = list(comp_seen)
                            for v in witness:
                                big_at[v] = witness
                            break
                        stack.append(y)
            seen |= comp_seen
            if not big:
                found.append(sorted(comp_seen))
        found.sort()
        return found

    # ----- step construction ------------------------------------------------

    def find_step(self):
        """The highest-priority rule's step at its smallest live witness."""
        for queue, rule in self.rules:
            while queue:
                step = rule(self, queue[0])
                if step is not None:
                    return step
                heappop(queue)
        raise self.violation("R12", None, "no rule applies to a non-empty graph")

    def check(self, step, witness):
        """Raise InvariantViolationError unless the step is valid and paid
        for on the live graph."""
        problems = _step_violations(self.adj, step.matched, step.removed)
        if problems:
            raise self.violation(
                step.rule, witness, "; ".join(m for _, m in problems)
            )

    def violation(self, rule, witness, detail):
        snapshot = Graph({v: self.adj.get(v, ()) for v in self.ids})
        return InvariantViolationError(detail, rule, witness, graph=snapshot)


    # ----- the rules, in priority order --------------------------------------

    def _r1(self, entry):
        # Pendant edge at a low-degree neighbor: delete the neighbor's
        # closed neighborhood, match the pendant edge.
        u, v = entry
        adj = self.adj
        if not (
            u in adj and v in adj and len(adj[u]) == 1
            and v in adj[u] and len(adj[v]) <= 3
        ):
            return None
        removed = set(adj[v])
        removed.add(v)
        return _step("R1", ((u, v),), removed)

    def _r2(self, entry):
        # Two pendant vertices on one degree-4 center. Either deleting the
        # center's closed neighborhood isolates little, or the center's two
        # spare neighbors carry pendant edges of their own that pay for a
        # bigger removal.
        u1, u2, v = entry
        adj = self.adj
        if not (
            u1 in adj and u2 in adj and v in adj
            and len(adj[u1]) == 1 and len(adj[u2]) == 1
            and v in adj[u1] and v in adj[u2]
        ):
            return None
        x = set(adj[v])
        x.add(v)
        if len(_isolated(adj, x)) <= 4:
            return _step("R2", ((u1, v),), x)
        spare = sorted(adj[v] - {u1, u2})
        if len(spare) != 2:
            raise self.violation("R2", entry, "center is not degree 4")
        w1, w2 = spare
        if w2 in adj[w1]:
            raise self.violation("R2", entry, "spare neighbors are adjacent")
        for t1 in sorted(adj[w1]):
            if len(adj[t1]) != 1:
                continue
            for t2 in sorted(adj[w2]):
                if len(adj[t2]) != 1 or t2 == t1:
                    continue
                matched = ((w1, t1), (w2, t2))
                if _induced(adj, matched):
                    return _step("R2", matched, x | adj[w1] | adj[w2])
        raise self.violation("R2", entry, "no pendant pair on the spare neighbors")

    def _r3(self, entry):
        # Two pendant vertices exactly distance 4 apart: match both pendant
        # edges, delete both neighbors' closed neighborhoods.
        u1, u2 = entry
        adj = self.adj
        if u1 not in adj or u2 not in adj:
            return None
        if len(adj[u1]) != 1 or len(adj[u2]) != 1:
            return None
        (v1,) = adj[u1]
        (v2,) = adj[u2]
        # v1 and v2 are distinct and apart: _push_end_events never queues a
        # pair whose neighbours are equal or adjacent, an end keeps its one
        # neighbour while it lives, and edges never appear.
        if adj[v1].isdisjoint(adj[v2]):
            return None
        removed = {v1, v2} | adj[v1] | adj[v2]
        return _step("R3", ((u1, v1), (u2, v2)), removed)

    def _r4(self, u):
        # Any remaining pendant vertex: its neighbor has degree 4 (R1 would
        # have fired otherwise) and isolates at most 4 vertices here.
        adj = self.adj
        if u not in adj or len(adj[u]) != 1:
            return None
        (v,) = adj[u]
        x = set(adj[v])
        x.add(v)
        iso = _isolated(adj, x)
        if len(iso) > 4:
            raise self.violation("R4", u, f"isolates {len(iso)}, expected <= 4")
        return _step("R4", ((u, v),), x)

    def _r5(self, entry):
        # Adjacent degree-2 pair: match their edge, delete both
        # neighborhoods (at most 4 vertices).
        u, v = entry
        adj = self.adj
        if not (
            u in adj and v in adj and v in adj[u]
            and len(adj[u]) == 2 and len(adj[v]) == 2
        ):
            return None
        return _step("R5", (entry,), adj[u] | adj[v])

    def _r6(self, u):
        # Degree-2 vertex in a triangle: match it to its smaller neighbor.
        adj = self.adj
        if u not in adj or len(adj[u]) != 2:
            return None
        a, b = sorted(adj[u])
        if b not in adj[a]:
            return None
        return _step("R6", ((u, a),), adj[u] | adj[a])

    def _r7(self, u):
        # Degree-2 vertex on a 4-cycle u-v-w-t. Either few vertices drop
        # out, or one dropped vertex s reaches back into N(v) at some r
        # clear of t, giving the induced pair {ut, rs}.
        adj = self.adj
        if u not in adj or len(adj[u]) != 2:
            return None
        v, t = sorted(adj[u])
        nt = adj[t]
        w = min((w for w in adj[v] if w != u and w in nt), default=None)
        if w is None:
            return None
        x = adj[u] | adj[v]
        iso = _isolated(adj, x)
        if len(iso) <= 3:
            return _step("R7", ((u, v),), x)
        for s in iso:
            if s in nt:
                continue
            ns = adj[s]
            for r in sorted(adj[v]):
                if r == u or r in nt or r not in ns:
                    continue
                matched = ((u, t), (r, s))
                if _induced(adj, matched):
                    return _step("R7", matched, x | set(iso) | nt | adj[r])
        raise self.violation("R7", (u, v, w, t), "no pair clears the cycle")

    def _r8(self, u):
        # Any remaining degree-2 vertex; try both neighbor orientations.
        # Either the removal isolates little, or some dropped vertex s
        # reaches N(v) at t while missing w, giving {st, uw}.
        adj = self.adj
        if u not in adj or len(adj[u]) != 2:
            return None
        a, b = sorted(adj[u])
        for v, w in ((a, b), (b, a)):
            x = adj[u] | adj[v]
            iso = _isolated(adj, x)
            if len(iso) <= 3:
                return _step("R8", ((u, v),), x)
            nw = adj[w]
            for s in iso:
                if s in nw:
                    continue
                for t in sorted(adj[v] & adj[s]):
                    matched = ((s, t), (u, w))
                    if _induced(adj, matched):
                        return _step("R8", matched, x | set(iso) | adj[t] | nw)
        raise self.violation("R8", u, "both orientations failed")

    def _r9(self, u):
        # Smallest triangle u < v < w: match uv unless too much drops out,
        # in which case a dropped vertex s pairs with a neighbor r on the
        # side of the triangle it avoids.
        adj = self.adj
        if u not in adj:
            return None
        nu = adj[u]
        over = sorted(x for x in nu if x > u)
        pairs = [
            (v, w) for i, v in enumerate(over) for w in over[i + 1 :] if w in adj[v]
        ]
        if not pairs:
            return None
        v, w = pairs[0]
        nv = adj[v]
        x = nu | nv
        iso = _isolated(adj, x)
        if len(iso) <= 2:
            return _step("R9", ((u, v),), x)
        nw = adj[w]
        for s in iso:
            if s in nw:
                continue
            ns = adj[s]
            for r in sorted(x - {u, v, w}):
                if r not in ns:
                    continue
                r_u = r in nu
                r_v = r in nv
                if r_u == r_v:
                    continue
                matched = ((v, w) if r_u else (u, w), (r, s))
                if _induced(adj, matched):
                    return _step("R9", matched, x | set(iso) | nw | adj[r])
        raise self.violation("R9", (u, v, w), "no pair leaves the triangle")

    def _r10(self, u):
        # 4-cycle through a degree-3 vertex u, whose off-cycle neighbor v
        # pairs with it; if v has degree 4 and the removal isolates a lot,
        # fall back to the first induced pair inside the closed scope.
        adj = self.adj
        if u not in adj or len(adj[u]) != 3:
            return None
        cycle = self._cycle4_through(u)
        if cycle is None:
            return None
        p, w, q = cycle
        (v,) = adj[u] - {p, q}
        witness = (u, p, w, q)
        x = adj[u] | adj[v]
        iso = _isolated(adj, x)
        dv = len(adj[v])
        if len(iso) <= 2:
            return _step("R10", ((u, v),), x)
        if dv == 3:
            if len(iso) > 3:
                raise self.violation(
                    "R10", witness, f"isolates {len(iso)} beside a degree-3 partner"
                )
            return _step("R10", ((u, v),), x)
        if dv != 4:
            raise self.violation("R10", witness, f"partner has degree {dv}")
        return self._scope_pair_step("R10", x, iso, witness)

    def _r11(self, a):
        # Smallest 4-cycle (a, b, c, d) with a its smallest vertex and b < d
        # a's cycle neighbors: match the edge ab, or fall back to the first
        # induced pair inside the closed scope.
        adj = self.adj
        if a not in adj:
            return None
        cycle = self._cycle4_through(a, above=a)
        if cycle is None:
            return None
        entry = (a,) + cycle
        b = cycle[0]
        x = adj[a] | adj[b]
        iso = _isolated(adj, x)
        if len(iso) <= 1:
            return _step("R11", ((a, b),), x)
        for s in iso:
            if len(adj[s]) != 4:
                raise self.violation(
                    "R11", entry, f"isolated vertex {s} has degree {len(adj[s])}"
                )
        return self._scope_pair_step("R11", x, iso, entry)

    def _scope_pair_step(self, rule, x, iso, witness):
        # Shared R10/R11 fallback: the dropped vertices keep enough edges
        # inside X u I(G') that an induced pair exists there; removing the
        # pair's neighborhoods costs at most 4 more vertices.
        scope = x | set(iso)
        pair = _lex_first_2matching(self.adj, scope)
        if pair is None:
            raise self.violation(rule, witness, "no induced pair inside the scope")
        removed = set(scope)
        for a, b in pair:
            removed |= self.adj[a]
            removed |= self.adj[b]
        second_ring = removed - scope
        if len(second_ring) > 4:
            raise self.violation(
                rule, witness, f"{len(second_ring)} vertices beyond the scope"
            )
        return _step(rule, pair, removed)

    def _r12(self, u):
        # Base step at the smallest edge: minimum degree 3 and girth 5 or
        # more by now, so deleting any edge's two neighborhoods isolates
        # nothing.
        adj = self.adj
        if u not in adj:
            return None
        v = min((v for v in adj[u] if v > u), default=None)
        if v is None:
            return None
        entry = (u, v)
        x = adj[u] | adj[v]
        iso = _isolated(adj, x)
        if iso:
            raise self.violation(
                "R12", entry, f"base step isolates {len(iso)} vertices"
            )
        return _step("R12", (entry,), x)

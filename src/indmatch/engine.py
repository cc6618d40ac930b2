"""Reduction engine: certified induced matchings in max-degree-4 graphs.

solve() repeatedly deletes a small vertex set while matching one or two of
its edges, keeping every step inside a fixed exchange rate: nine deleted-or-
isolated vertices per matched edge. Components that shrink to at most
EXACT_THRESHOLD vertices are finished by the exact solver instead. The step
log is returned as a certificate that a replay can check independently.

Twelve reduction rules are tried in a fixed priority order, and within a
rule the lexicographically smallest witness fires, so a given graph always
produces the identical certificate. One 10-vertex graph (see gen_c25) admits
no such accounting and is rejected up front; everything else with max degree
4 yields at least one matched edge per nine non-isolated vertices.

The later, denser rules (R7 onward) sometimes need a second matched edge to
pay for their removals. The searches for that second edge re-validate the
candidate pair explicitly instead of trusting structure; if no candidate
survives, the engine raises InvariantViolationError rather than emit an
unpaid step, and the fuzz harness exists to prove that never happens.
Every step, rule or exact, passes the same _step_violations check against
the live graph before it is applied.
"""

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .errors import (
    C25ComponentError,
    InvariantViolationError,
    MaxDegreeExceededError,
)
from .exact import max_induced_matching
from .graph import Graph, is_induced_matching, is_isomorphic_c25

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


def solve(g, exact_threshold=EXACT_THRESHOLD):
    """Certified induced matching of at least (n - isolated) / 9 edges.

    Raises MaxDegreeExceededError on a vertex of degree five or more,
    C25ComponentError if some component is the one excluded 10-vertex graph,
    and InvariantViolationError if any internal consistency check fails
    (which would be a bug, not an input problem).
    """
    _check_input(g, exact_threshold)
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
        if len(comp) <= exact_threshold:
            steps.append(_exact_step(g.adjacency, comp))
        else:
            for v in comp:
                pool_adj[v] = set(g.neighbors(v))
    if pool_adj:
        pool = _Pool(pool_adj)
        while pool.adj:
            step = pool.find_step()
            pool.check(step, step.matched)
            survivors = pool.apply(set(step.removed))
            steps.append(step)
            for comp in pool.split_small(survivors, exact_threshold):
                estep = _exact_step(pool.adj, comp)
                pool.check(estep, tuple(comp))
                pool.apply(set(comp))
                steps.append(estep)
    matching = []
    for st in steps:
        matching.extend(st.matched)
    matching.sort()
    result = SolveResult(tuple(matching), Certificate(tuple(steps)), g.n, isolated)
    if not is_induced_matching(g, result.matching):
        raise InvariantViolationError(
            "assembled matching is not induced", rule="final"
        )
    if 9 * len(result.matching) < g.n - isolated:
        raise InvariantViolationError(
            f"only {len(result.matching)} edges for {g.n} vertices"
            f" ({isolated} isolated)",
            rule="final",
        )
    return result


def next_reduction(g, exact_threshold=EXACT_THRESHOLD):
    """The one step the engine would take on g, without applying it.

    g must be connected, have more than exact_threshold vertices, and max
    degree at most 4; smaller graphs go straight to the exact solver and
    have no rule step defined.
    """
    _check_input(g, exact_threshold)
    if g.n <= exact_threshold:
        raise ValueError(
            f"graph has {g.n} <= {exact_threshold} vertices;"
            " it belongs to the exact solver"
        )
    if len(g.components()) != 1:
        raise ValueError("graph is not connected")
    pool = _Pool({v: set(g.neighbors(v)) for v in g.vertices()})
    step = pool.find_step()
    pool.check(step, step.matched)
    return step


def _check_input(g, exact_threshold):
    if exact_threshold < 10:
        raise ValueError(
            f"exact_threshold must be at least 10, got {exact_threshold}"
        )
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
    vertex enters each degree level at most once and triangles / 4-cycles
    only die after the one up-front enumeration. Each queue entry is pushed
    at the event that could first make it fire and re-checked against the
    live adjacency when popped; stale entries are discarded then.

    Rule Rk owns queues["Rk"], the predicate _valid_rk that tells a live
    queue head from a stale one, and _build_rk that turns a live head into
    the step.
    """

    def __init__(self, adj):
        self.adj = adj
        self.queues = {name: [] for name in RULE_NAMES}
        self.rules = tuple(
            (
                name,
                self.queues[name],
                getattr(self, f"_valid_{name.lower()}"),
                getattr(self, f"_build_{name.lower()}"),
            )
            for name in RULE_NAMES
        )
        # anchors[w] lists ends u (with their neighbor v) having w in
        # N(v) - {u}; two ends meeting at an anchor sit at distance 4
        # unless their neighbors coincide or touch.
        self.anchors = {}
        # Triangles, 4-cycles, and plain edges only ever disappear, so their
        # queues (R9, R11, R12) are enumerated once, and lazily: a run
        # dominated by the earlier rules never pays for them.
        self._static_built = False
        for v in sorted(adj):
            d = len(adj[v])
            if d == 1:
                self._push_end_events(v)
            elif d == 2:
                self._push_deg2_events(v)
            elif d == 3:
                self._push_deg3_events(v)

    def _build_static(self):
        self._static_built = True
        adj = self.adj
        r9 = self.queues["R9"]
        r11 = self.queues["R11"]
        r12 = self.queues["R12"]
        for u in sorted(adj):
            over = sorted(x for x in adj[u] if x > u)
            for i, v in enumerate(over):
                av = adj[v]
                for w in over[i + 1 :]:
                    if w in av:
                        r9.append((u, v, w))
            for v in adj[u]:
                if u < v:
                    r12.append((u, v))
        pair_map = {}
        for b in sorted(adj):
            nbrs = sorted(adj[b])
            for i, p in enumerate(nbrs):
                for q in nbrs[i + 1 :]:
                    pair_map.setdefault((p, q), []).append(b)
        for (p, q), common in pair_map.items():
            # Cycle x-p-y-q is recorded once, from the diagonal holding its
            # smallest vertex; (x, p, y, q) is then already the canonical
            # walk (x smallest, p its smaller cycle-neighbor, y opposite).
            for i in range(len(common) - 1):
                x = common[i]
                if x > p:
                    continue
                for y in common[i + 1 :]:
                    r11.append((x, p, y, q))
        heapify(r9)
        heapify(r11)
        heapify(r12)

    # ----- candidate events -------------------------------------------------

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
        # Anchor sets N(v) - {u} only shrink while an end lives, so any two
        # ends that ever share an anchor already share it when the younger
        # one is born; scanning buckets here therefore finds every pair.
        for w in adj[v]:
            if w == y:
                continue
            bucket = self.anchors.get(w)
            if bucket is None:
                self.anchors[w] = [(y, v)]
                continue
            live = []
            for u2, v2 in bucket:
                if u2 in adj and len(adj[u2]) == 1:
                    live.append((u2, v2))
                    # Neighbors that coincide or touch stay that way until
                    # one of the ends dies, so those pairs are never viable.
                    if v2 != v and v2 not in adj[v]:
                        pair = (y, u2) if y < u2 else (u2, y)
                        heappush(queues["R3"], pair)
            live.append((y, v))
            self.anchors[w] = live

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
        if self._common_excluding(a, b, y):
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

    def _common_excluding(self, a, b, y):
        nb = self.adj[b]
        for w in self.adj[a]:
            if w != y and w in nb:
                return True
        return False

    def _cycle4_through(self, u):
        """The smallest (p, w, q), p < q, with u-p-w-q-u a 4-cycle, or None."""
        adj = self.adj
        nbrs = sorted(adj[u])
        return min(
            (
                (p, w, q)
                for i, p in enumerate(nbrs)
                for q in nbrs[i + 1 :]
                for w in adj[q]
                if w != u and w in adj[p]
            ),
            default=None,
        )

    # ----- mutation ---------------------------------------------------------

    def apply(self, removed):
        """Delete the removed set plus anyone it isolates.

        Returns the survivors, sorted: the boundary vertices that stay, i.e.
        the only places where a component can have shrunk.
        """
        boundary = set()
        for x in removed:
            nbrs = self.adj.pop(x)
            for y in nbrs:
                if y not in removed:
                    boundary.add(y)
        ordered = sorted(boundary)
        for y in ordered:
            self.adj[y] -= removed
        survivors = []
        for y in ordered:
            if self.adj[y]:
                survivors.append(y)
            else:
                del self.adj[y]
        # Events fire only after every boundary degree is final, so the
        # degree tests inside the pushes never see half-applied state.
        for y in survivors:
            d = len(self.adj[y])
            if d == 1:
                self._push_end_events(y)
            elif d == 2:
                self._push_deg2_events(y)
            elif d == 3:
                self._push_deg3_events(y)
        return survivors

    def split_small(self, seeds, threshold):
        """Components of at most threshold vertices touching the seeds.

        Every component that lost a vertex contains a seed, so probing the
        seeds with a size-capped search finds each newly small component;
        returned sorted, smallest first vertex first.
        """
        adj = self.adj
        found = []
        seen = set()
        for s in seeds:
            if s in seen or s not in adj:
                continue
            comp_seen = {s}
            stack = [s]
            big = False
            while stack and not big:
                x = stack.pop()
                for y in adj[x]:
                    if y not in comp_seen:
                        comp_seen.add(y)
                        if len(comp_seen) > threshold:
                            big = True
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
        for name, queue, valid, build in self.rules:
            if name == "R9" and not self._static_built:
                self._build_static()
            while queue:
                if valid(queue[0]):
                    return build(queue[0])
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
        from .formats import format_graph

        snapshot = Graph({v: frozenset(s) for v, s in self.adj.items()})
        return InvariantViolationError(
            detail, rule=rule, witness=witness, graph_text=format_graph(snapshot)
        )

    def _induced_ok(self, matched):
        endpoints = [p for e in matched for p in e]
        if len(set(endpoints)) != len(endpoints):
            return False
        adj = self.adj
        for a, b in matched:
            if a not in adj or b not in adj or b not in adj[a]:
                return False
        for i in range(len(matched)):
            for j in range(i + 1, len(matched)):
                for x in matched[i]:
                    for y in matched[j]:
                        if y in adj[x]:
                            return False
        return True

    # ----- the rules, in priority order --------------------------------------

    def _valid_r1(self, entry):
        u, v = entry
        adj = self.adj
        return (
            u in adj and v in adj and len(adj[u]) == 1
            and v in adj[u] and len(adj[v]) <= 3
        )

    def _build_r1(self, entry):
        # Pendant edge at a low-degree neighbor: delete the neighbor's
        # closed neighborhood, match the pendant edge.
        u, v = entry
        removed = set(self.adj[v])
        removed.add(v)
        return _step("R1", ((u, v),), removed)

    def _valid_r2(self, entry):
        u1, u2, v = entry
        adj = self.adj
        return (
            u1 in adj and u2 in adj and v in adj
            and len(adj[u1]) == 1 and len(adj[u2]) == 1
            and v in adj[u1] and v in adj[u2]
        )

    def _build_r2(self, entry):
        # Two pendant vertices on one degree-4 center. Either deleting the
        # center's closed neighborhood isolates little, or the center's two
        # spare neighbors carry pendant edges of their own that pay for a
        # bigger removal.
        u1, u2, v = entry
        x = set(self.adj[v])
        x.add(v)
        if len(_isolated(self.adj, x)) <= 4:
            return _step("R2", ((u1, v),), x)
        spare = sorted(self.adj[v] - {u1, u2})
        if len(spare) != 2:
            raise self.violation("R2", entry, "center is not degree 4")
        w1, w2 = spare
        if w2 in self.adj[w1]:
            raise self.violation("R2", entry, "spare neighbors are adjacent")
        for t1 in sorted(self.adj[w1]):
            if len(self.adj[t1]) != 1:
                continue
            for t2 in sorted(self.adj[w2]):
                if len(self.adj[t2]) != 1 or t2 == t1:
                    continue
                matched = ((w1, t1), (w2, t2))
                if self._induced_ok(matched):
                    removed = x | self.adj[w1] | self.adj[w2]
                    return _step("R2", matched, removed)
        raise self.violation("R2", entry, "no pendant pair on the spare neighbors")

    def _valid_r3(self, entry):
        u1, u2 = entry
        adj = self.adj
        if u1 not in adj or u2 not in adj:
            return False
        if len(adj[u1]) != 1 or len(adj[u2]) != 1:
            return False
        (v1,) = adj[u1]
        (v2,) = adj[u2]
        if v1 == v2 or v1 in adj[v2]:
            return False
        nv2 = adj[v2]
        return any(w in nv2 for w in adj[v1])

    def _build_r3(self, entry):
        # Two pendant vertices exactly distance 4 apart: match both pendant
        # edges, delete both neighbors' closed neighborhoods.
        u1, u2 = entry
        (v1,) = self.adj[u1]
        (v2,) = self.adj[u2]
        removed = {v1, v2} | self.adj[v1] | self.adj[v2]
        return _step("R3", ((u1, v1), (u2, v2)), removed)

    def _valid_r4(self, u):
        return u in self.adj and len(self.adj[u]) == 1

    def _build_r4(self, u):
        # Any remaining pendant vertex: its neighbor has degree 4 (R1 would
        # have fired otherwise) and isolates at most 4 vertices here.
        (v,) = self.adj[u]
        x = set(self.adj[v])
        x.add(v)
        iso = _isolated(self.adj, x)
        if len(iso) > 4:
            raise self.violation("R4", u, f"isolates {len(iso)}, expected <= 4")
        return _step("R4", ((u, v),), x)

    def _valid_r5(self, entry):
        u, v = entry
        adj = self.adj
        return (
            u in adj and v in adj and v in adj[u]
            and len(adj[u]) == 2 and len(adj[v]) == 2
        )

    def _build_r5(self, entry):
        # Adjacent degree-2 pair: match their edge, delete both
        # neighborhoods (at most 4 vertices).
        u, v = entry
        return _step("R5", (entry,), self.adj[u] | self.adj[v])

    def _valid_r6(self, u):
        adj = self.adj
        if u not in adj or len(adj[u]) != 2:
            return False
        a, b = adj[u]
        return b in adj[a]

    def _build_r6(self, u):
        # Degree-2 vertex in a triangle: match it to its smaller neighbor.
        v = min(self.adj[u])
        return _step("R6", ((u, v),), self.adj[u] | self.adj[v])

    def _valid_r7(self, u):
        adj = self.adj
        if u not in adj or len(adj[u]) != 2:
            return False
        a, b = sorted(adj[u])
        return self._common_excluding(a, b, u)

    def _build_r7(self, u):
        # Degree-2 vertex on a 4-cycle u-v-w-t. Either few vertices drop
        # out, or one dropped vertex s reaches back into N(v) at some r
        # clear of t, giving the induced pair {ut, rs}.
        v, t = sorted(self.adj[u])
        shared = sorted(
            w for w in self.adj[v] if w != u and w in self.adj[t]
        )
        witness = (u, v, shared[0], t)
        x = self.adj[u] | self.adj[v]
        iso = _isolated(self.adj, x)
        if len(iso) <= 3:
            return _step("R7", ((u, v),), x)
        nt = self.adj[t]
        for s in iso:
            if s in nt:
                continue
            ns = self.adj[s]
            for r in sorted(self.adj[v]):
                if r == u or r in nt or r not in ns:
                    continue
                matched = ((u, t), (r, s))
                if self._induced_ok(matched):
                    removed = x | set(iso) | nt | self.adj[r]
                    return _step("R7", matched, removed)
        raise self.violation("R7", witness, "no pair clears the cycle")

    def _valid_r8(self, u):
        return u in self.adj and len(self.adj[u]) == 2

    def _build_r8(self, u):
        # Any remaining degree-2 vertex; try both neighbor orientations.
        # Either the removal isolates little, or some dropped vertex s
        # reaches N(v) at t while missing w, giving {st, uw}.
        a, b = sorted(self.adj[u])
        for v, w in ((a, b), (b, a)):
            x = self.adj[u] | self.adj[v]
            iso = _isolated(self.adj, x)
            if len(iso) <= 3:
                return _step("R8", ((u, v),), x)
            nw = self.adj[w]
            for s in iso:
                if s in nw:
                    continue
                for t in sorted(self.adj[v] & self.adj[s]):
                    matched = ((s, t), (u, w))
                    if self._induced_ok(matched):
                        removed = x | set(iso) | self.adj[t] | nw
                        return _step("R8", matched, removed)
        raise self.violation("R8", u, "both orientations failed")

    def _valid_r9(self, entry):
        adj = self.adj
        return entry[0] in adj and entry[1] in adj and entry[2] in adj

    def _build_r9(self, entry):
        # Triangle u < v < w: match uv unless too much drops out, in which
        # case a dropped vertex s pairs with a neighbor r on the side of the
        # triangle it avoids.
        u, v, w = entry
        x = self.adj[u] | self.adj[v]
        iso = _isolated(self.adj, x)
        if len(iso) <= 2:
            return _step("R9", ((u, v),), x)
        nu = self.adj[u]
        nv = self.adj[v]
        nw = self.adj[w]
        for s in iso:
            if s in nw:
                continue
            ns = self.adj[s]
            for r in sorted(x - {u, v, w}):
                if r not in ns:
                    continue
                r_u = r in nu
                r_v = r in nv
                if r_u == r_v:
                    continue
                matched = ((v, w) if r_u else (u, w), (r, s))
                if self._induced_ok(matched):
                    removed = x | set(iso) | nw | self.adj[r]
                    return _step("R9", matched, removed)
        raise self.violation("R9", entry, "no pair leaves the triangle")

    def _valid_r10(self, u):
        return (
            u in self.adj and len(self.adj[u]) == 3
            and self._cycle4_through(u) is not None
        )

    def _build_r10(self, u):
        # 4-cycle through a degree-3 vertex u, whose off-cycle neighbor v
        # pairs with it; if v has degree 4 and the removal isolates a lot,
        # fall back to the first induced pair inside the closed scope.
        p, w, q = self._cycle4_through(u)
        (v,) = self.adj[u] - {p, q}
        witness = (u, p, w, q)
        x = self.adj[u] | self.adj[v]
        iso = _isolated(self.adj, x)
        dv = len(self.adj[v])
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

    def _valid_r11(self, entry):
        adj = self.adj
        return all(x in adj for x in entry)

    def _build_r11(self, entry):
        # Any remaining 4-cycle (a, b, c, d): match the edge ab, or fall
        # back to the first induced pair inside the closed scope.
        a, b, _, _ = entry
        x = self.adj[a] | self.adj[b]
        iso = _isolated(self.adj, x)
        if len(iso) <= 1:
            return _step("R11", ((a, b),), x)
        for s in iso:
            if len(self.adj[s]) != 4:
                raise self.violation(
                    "R11", entry, f"isolated vertex {s} has degree {len(self.adj[s])}"
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

    def _valid_r12(self, entry):
        return entry[0] in self.adj and entry[1] in self.adj

    def _build_r12(self, entry):
        # Base step: minimum degree 3 and girth 5 or more by now, so
        # deleting any edge's two neighborhoods isolates nothing.
        u, v = entry
        x = self.adj[u] | self.adj[v]
        iso = _isolated(self.adj, x)
        if iso:
            raise self.violation(
                "R12", entry, f"base step isolates {len(iso)} vertices"
            )
        return _step("R12", (entry,), x)

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

Some steps match two edges to pay for their removals: R3 always does, and
R2 and R7-R11 fall back to a second edge when one does not pay. The pair
searches only list candidate pairs and leave the decision to _induced
instead of trusting structure; if no candidate passes, the engine raises
InvariantViolationError rather than emit an unpaid step.

Rule candidates are queued lazily (see _Pool): the pendant rules R1-R4 at
the degree change that could first make an entry fire, through an index of
each vertex's pendant neighbours, and R5-R12 only once a search falls
through past R4. The pool only shrinks, so a queued candidate that is stale
stays stale, and when a candidate was queued changes no step.

Every step, a rule step or an EXACT finish, passes the same
_step_violations check against the live graph before it is applied; the
replay in harness.verify_certificate checks each one again with its own
code.
"""

from dataclasses import dataclass
from heapq import heappop, heappush

from .errors import (
    C25ComponentError,
    InvariantViolationError,
    MaxDegreeExceededError,
)
from .exact import max_induced_matching
from .graph import Graph, _induced, is_isomorphic_c25

EXACT_THRESHOLD = 18

RULE_NAMES = (
    "R1", "R2", "R3", "R4", "R5", "R6",
    "R7", "R8", "R9", "R10", "R11", "R12",
)

STEP_KINDS = RULE_NAMES + ("EXACT",)

# The pool queues R5 onward only when find_step first reaches R5.
_FIRST_DEFERRED = RULE_NAMES.index("R5")


@dataclass(frozen=True, slots=True)
class ReductionStep:
    """One engine move: match these edges, then delete these vertices.

    rule is one of R1..R12 or EXACT. matched holds (min, max) pairs, removed
    the sorted tuple of deleted vertices.
    """

    rule: str
    matched: tuple
    removed: tuple


@dataclass(frozen=True, slots=True)
class Certificate:
    """Replayable log of every step, in the order they were applied."""

    steps: tuple


@dataclass(frozen=True, slots=True)
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

    The whole graph, minus its isolated vertices, goes to one _Pool, and
    every step, an EXACT finish of an input component included, passes
    _Pool.check on the live pool before it is applied. So a step's pairs
    are live edges, induced among themselves, and every live neighbour of a
    matched endpoint goes in the same step. The union of the steps'
    matchings is therefore induced, with no pass over it: if an input edge
    x-y joined x, matched at step j, to y, matched at a later step, then y
    was live at step j, which would have removed it. Only the count is
    left to check here.
    """
    _check_input(g)
    adj = {v: nbrs for v, nbrs in g.adjacency.items() if nbrs}
    isolated = g.n - len(adj)
    pool = _Pool(adj, g.vertices())
    small = pool.split_small(sorted(adj))
    for comp in small:
        if len(comp) == 10 and is_isomorphic_c25(g.subgraph(comp)):
            raise C25ComponentError(comp)
    steps = tuple(pool.reduce(small))
    matching = tuple(sorted(p for st in steps for p in st.matched))
    if 9 * len(matching) < g.n - isolated:
        raise InvariantViolationError(
            f"only {len(matching)} edges for {g.n} vertices"
            f" ({isolated} isolated)",
            rule="final",
            graph=g,
        )
    return SolveResult(matching, Certificate(steps), g.n, isolated)


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
    return next(_Pool(dict(g.adjacency), g.vertices()).reduce())


def _check_input(g):
    for v in g.vertices():
        if g.degree(v) > 4:
            raise MaxDegreeExceededError(v, g.degree(v))


def _step(rule, matched, removed):
    """A rule step in certificate form: normalized pairs, sorted removals.

    Whether the step is valid and paid for is decided by _step_violations,
    which _Pool.reduce runs, through _Pool.check, before applying the step.
    """
    return ReductionStep(rule, _norm_pairs(matched), tuple(sorted(removed)))


def _norm_pairs(pairs):
    return tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs))


def _lex_first_2matching(adj, scope):
    edges = sorted((a, b) for a in scope for b in adj[a] if a < b and b in scope)
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            if _induced(adj, (e, f)):
                return (e, f)
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
    if not adj.keys() >= rset:
        for x in sorted(rset):
            if x not in adj:
                problems.append(
                    ("structure", f"removed vertex {x} is not present")
                )
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
            if adj[x] <= rset:  # the usual case: no neighbour survives
                continue
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

    Rule Rk owns queues["Rk"] and the method _rk, which returns None for a
    stale queue head and the step for a live one. Each rule searches for its
    witness when the head is popped, and discards a stale head then.

    Degrees only fall and edges only disappear while the pool shrinks, so a
    vertex enters each degree level at most once. An entry is queued only
    once its degree tests hold (R1's neighbour of degree at most 3, R10's
    vertex of degree exactly 3, and so on), and every other part of a
    rule's test (an end, an edge, a triangle, a 4-cycle, a common neighbour)
    can only disappear, so a queued entry that is stale stays stale. A queue
    therefore only has to hold every entry that is live when it is
    consulted; heap pops depend only on the queued values, so queueing an
    entry late, or twice, changes no step.

    The pendant rules R1-R4 are pushed at the event that could first make
    an entry fire: a vertex becoming an end, or the neighbour of ends
    falling to degree 3 or 2. ends_at[v] lists the vertices that became
    ends on v; an end keeps its one neighbour while it lives, so the live
    members of ends_at[v] (those still in adj) are exactly v's pendant
    neighbours, and R1-R3 read them there instead of testing the degree of
    every vertex in reach.

    R5-R12 are deferred to _flush, which find_step runs just before it
    consults R5. Until the first flush none of their queues holds anything;
    that flush queues every live vertex for R9, R11 and R12 (a sorted list
    is a heap) and checks every live vertex as below. After it, a vertex
    whose degree falls to 2 or 3 is only noted in dirty, and each later
    flush checks those. A degree-2 vertex is checked for R5-R8, a degree-3
    one queued for R10. Each push condition (its two neighbours adjacent,
    a second common neighbour) can only turn false once the vertex has
    reached its degree; R5's degree-2 neighbour can turn true, but then
    that neighbour is checked too. So checking at the flush, not at the
    event, queues every entry that can still be live.

    A rule tests only what a queued entry can lose, plus what decides the
    rule for any entry of its shape (the tests call each rule on every such
    entry). An end keeps its one neighbour while it lives, degrees only
    fall, and a vertex that reaches degree 0 is deleted, so a live end
    queued for R1-R4 is still an end on the same neighbour, and R1-R4 test
    only that their ends live. R5 does not test that v lives, since a u
    still at degree 2 still has v, nor split_small that its seeds, apply's
    survivors, live.

    reduce(small) is the one reduction loop, which solve and next_reduction
    share. It first checks, applies and yields an EXACT step for each
    component in small, the ones solve's split_small over the whole pool
    finds small in the input. Then it finds, checks and applies a rule
    step, yields it, and does the same for each small component that
    split_small finds the step cut off, until the pool is empty.

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
        self.ends_at = {}
        # None until the first flush, which checks every live vertex.
        self.dirty = None
        self.queues = {name: [] for name in RULE_NAMES}
        # The class's functions, not bound methods: a bound method held here
        # would make a reference cycle, which only the cyclic GC frees.
        self.rules = tuple(
            (self.queues[name], getattr(_Pool, f"_{name.lower()}"))
            for name in RULE_NAMES
        )
        # In any order: of two ends, the later one's events find the pair.
        for v, nbrs in adj.items():
            if len(nbrs) == 1:
                self._push_end_events(v)

    # ----- candidate events -------------------------------------------------

    def _push_events(self, v):
        # v lost a neighbour and kept at least one, so its degree is 1-3.
        adj = self.adj
        if len(adj[v]) == 1:
            self._push_end_events(v)
            return
        r1 = self.queues["R1"]
        for u in self.ends_at.get(v, ()):
            if u in adj:
                heappush(r1, (u, v))
        if self.dirty is not None:
            self.dirty.append(v)

    def _push_end_events(self, y):
        adj = self.adj
        queues = self.queues
        ends_at = self.ends_at
        (v,) = adj[y]
        heappush(queues["R4"], y)
        nv = adj[v]
        if len(nv) <= 3:
            heappush(queues["R1"], (y, v))
        ends = ends_at.get(v)
        if ends is None:
            ends_at[v] = [y]
        else:
            r2 = queues["R2"]
            for u in ends:
                if u in adj:
                    heappush(r2, (y, u, v) if y < u else (u, y, v))
            ends.append(y)
        # R3: while two ends live their neighbors are fixed and common
        # neighbors only disappear, so a pair that ever qualifies already
        # does when the younger end appears, and this scan finds it. From
        # w = y it reaches only v, which the test below skips.
        r3 = queues["R3"]
        for w in nv:
            for v2 in adj[w]:
                if v2 == v or v2 in nv:
                    continue
                for u2 in ends_at.get(v2, ()):
                    if u2 in adj:
                        heappush(r3, (y, u2) if y < u2 else (u2, y))

    def _flush(self):
        """Queue the R5-R10 entries of every vertex noted since the last
        flush; the first flush also queues every live vertex for R9, R11
        and R12 and checks every live vertex."""
        adj = self.adj
        queues = self.queues
        dirty = self.dirty
        if dirty is None:
            dirty = sorted(adj)
            for name in ("R9", "R11", "R12"):
                queues[name].extend(dirty)
        self.dirty = []
        for y in dirty:
            nbrs = adj.get(y)
            if nbrs is None:
                continue
            d = len(nbrs)
            if d == 3:
                # Like R8, R10 takes every entry and leaves the 4-cycle test
                # to the pop: a degree-3 vertex keeps its neighbors, and
                # 4-cycles only disappear, so an entry without one can never
                # become live.
                heappush(queues["R10"], y)
            elif d == 2:
                a, b = sorted(nbrs)
                na = adj[a]
                nb = adj[b]
                for t, nt in ((a, na), (b, nb)):
                    if len(nt) == 2:
                        heappush(queues["R5"], (y, t))
                        heappush(queues["R5"], (t, y))
                if b in na:
                    heappush(queues["R6"], y)
                # y itself is one common neighbor of a and b; R7 wants another.
                if len(na & nb) > 1:
                    heappush(queues["R7"], y)
                heappush(queues["R8"], y)

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
        ends_at = self.ends_at
        boundary = set()
        for x in removed:
            boundary |= self.adj.pop(x)
            if x in big_at:
                big_at.pop(x).clear()
            # Every end on x goes with x, as x's neighbour or isolated.
            ends_at.pop(x, None)
        ordered = sorted(boundary - removed)
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
                ends_at.pop(y, None)
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
            if s in seen:
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

    def reduce(self, small=()):
        """Reduce the pool to nothing, yielding each step once it is checked
        and applied: an EXACT step for each component in small, then a rule
        step and an EXACT step for each component that step split off, and
        so on."""
        adj = self.adj
        while True:
            for comp in small:
                sub_adj = {v: adj[v] for v in comp}
                m = sum(map(len, sub_adj.values())) // 2
                matched = max_induced_matching(Graph._trusted(sub_adj, m))
                step = ReductionStep("EXACT", matched, tuple(comp))
                self.check(step, step.removed)
                self.apply(set(comp))
                yield step
            if not adj:
                return
            step = self.find_step()
            self.check(step, step.matched)
            survivors = self.apply(set(step.removed))
            yield step
            small = self.split_small(survivors)

    def find_step(self):
        """The highest-priority rule's step at its smallest live witness."""
        for i, (queue, rule) in enumerate(self.rules):
            if i == _FIRST_DEFERRED:
                self._flush()
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
        # A live u is still an end on v (see the class docstring).
        if u not in adj or len(adj[v]) > 3:
            return None
        return _step("R1", ((u, v),), adj[v] | {v})

    def _r2(self, entry):
        # Two pendant vertices on one degree-4 center. Either deleting the
        # center's closed neighborhood isolates little, or the center's two
        # spare neighbors carry pendant edges of their own that pay for a
        # bigger removal.
        u1, u2, v = entry
        adj = self.adj
        if u1 not in adj or u2 not in adj:
            return None
        x = adj[v] | {v}
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
                if len(adj[t2]) != 1:
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
        if u not in adj:
            return None
        (v,) = adj[u]
        x = adj[v] | {v}
        iso = _isolated(adj, x)
        if len(iso) > 4:
            raise self.violation("R4", u, f"isolates {len(iso)}, expected <= 4")
        return _step("R4", ((u, v),), x)

    def _r5(self, entry):
        # Adjacent degree-2 pair: match their edge, delete both
        # neighborhoods (at most 4 vertices).
        u, v = entry
        adj = self.adj
        # Queued at degree 2 beside v, u keeps v while its degree stays 2.
        if u not in adj or len(adj[u]) != 2 or len(adj[v]) != 2:
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
            for r in sorted(adj[v] & adj[s]):
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
            for s in iso:
                for t in sorted(adj[v] & adj[s]):
                    matched = ((s, t), (u, w))
                    if _induced(adj, matched):
                        return _step("R8", matched, x | set(iso) | adj[t] | adj[w])
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
        # s is isolated, so its neighbours all lie in x. _induced refuses
        # the pairs listed in vain: s on w, or r on both u and v.
        for s in iso:
            for r in sorted(adj[s] - {u, v, w}):
                matched = ((v, w) if r in nu else (u, w), (r, s))
                if _induced(adj, matched):
                    return _step("R9", matched, x | set(iso) | adj[w] | adj[r])
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

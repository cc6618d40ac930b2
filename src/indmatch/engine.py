"""Reduction engine: certified induced matchings in max-degree-4 graphs.

solve() repeatedly deletes a small vertex set while matching one or two of
its edges, keeping every step inside a fixed exchange rate: nine deleted-or-
isolated vertices per matched edge. Components of at most EXACT_THRESHOLD
(18, fixed) vertices are finished by the exact solver instead. The step log
is the certificate that harness.verify_certificate replays.

Twelve reduction rules are tried in a fixed priority order, and within a
rule the lexicographically smallest witness fires, so a given graph always
produces the identical certificate. One 10-vertex graph (see gen_c25) admits
no such accounting; the exact finish tests each component for it, and since
only an input component can be that graph, it is rejected before any rule
step. Everything else with max degree 4 yields at least one matched edge per
nine non-isolated vertices.

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

Small components that a rule step cuts off are found late (see _Pool):
only when a later rule step lands in one, or in a sweep before a search
consults R5. Rules look only inside their own component, so this changes
no rule step, and each EXACT step is still placed right after the rule
step that cut its component off.

_Pool.reduce is the one reduction loop: it finds, checks and applies each
step and returns them all as the certificate's steps. A rule that raises,
or a rule step that fails its check, while a cut-off component may still
be unfinished is tried again after a sweep, in that loop and nowhere else.

Every step, a rule step or an EXACT finish, passes the same
_step_violations check against the live graph before it is applied; the
replay in harness.verify_certificate checks each one again with its own
code.
"""

from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter

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

_removed = attrgetter("removed")


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

    The whole graph, minus its isolated vertices, goes to one _Pool, whose
    reduce returns every step: an EXACT finish of each input component that
    is small, then the rule steps, each followed by the EXACT finishes of
    the components it cut off. Each finish tests its component for C25
    first; only an input component can be C25, so the first one in id
    order is rejected before any rule step.

    Every step passes _Pool.check on the live pool before it is applied. So
    a step's pairs are live edges, induced among themselves, and every live
    neighbour of a matched endpoint goes in the same step. The union of the
    steps' matchings is therefore induced, with no pass over it: if an input
    edge x-y joined x, matched at step j, to y, matched at a later step,
    then y was live at step j, which would have removed it. Only the count
    is left to check here.
    """
    _check_input(g)
    adj = {v: nbrs for v, nbrs in g.adjacency.items() if nbrs}
    isolated = g.n - len(adj)
    steps = _Pool(adj, g.adjacency).reduce()
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
    pool = _Pool(dict(g.adjacency), g.adjacency)
    pool._queue_ends()
    step = pool.find_step()
    pool.check(step, step.matched)
    return step


def _check_input(g):
    adj = g.adjacency
    over = [v for v, nbrs in adj.items() if len(nbrs) > 4]
    if over:
        v = min(over)
        raise MaxDegreeExceededError(v, len(adj[v]))


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
    ends on v. An end keeps its one neighbour while it lives and dies only
    with it: R1-R4 remove unions of closed neighbourhoods, R5 onward run
    only once R4 has taken every end, and an EXACT step removes a whole
    component; apply drops a deleted vertex's list. So every member of
    ends_at[v] is live, ends_at[v] is exactly v's pendant neighbours, and
    R1-R3 read them there instead of testing the degree of every vertex in
    reach.

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
    still at degree 2 still has v, nor split_small that its seeds, pending
    vertices, live. R7 and R8 share _degree2_step: R7's step, once its
    4-cycle test holds, is R8's with u matched towards its smaller
    neighbour, which R8 tries first.

    reduce is the one reduction loop, and returns the steps. It first
    finishes each component that is small in the input, and only then
    queues the end events of the pool's ends. Then it finds, checks and
    applies rule steps until the pool is empty. next_reduction queues the
    ends and finds and checks one step.

    Small components are found late. apply marks each survivor of rule
    step k pending with the stamp k, a later stamp overwriting an earlier
    one, unless the survivor sits in a live witness; a vertex leaves
    pending when it is deleted or joins a witness. A component that step k
    cuts off small holds a survivor of k, so every live component of at
    most EXACT_THRESHOLD vertices holds a pending vertex. While a vertex is
    pending, find_step probes each step it finds from the step's removed
    set, and a step in a small component finishes that component instead.
    Before find_step consults R5 it sweeps: split_small over the pending
    vertices finishes every small component left and clears pending. So
    the flush, R5-R12 and the "no rule applies" raise see the graph that
    finishing each component right after its rule step gives. reduce is
    the one place that retries: when a rule raises, or a rule step fails
    its check, while a vertex is pending, it sweeps and finds the step
    again, so a violation carries that same graph. Once find_step reaches a
    rule's queue every queue ahead of it is empty, and a sweep finishes
    whole components, which pushes no event; so the retry meets the same
    head, now stale and popped, or live and raising again with nothing
    pending. An EXACT step that fails its check raises at once.

    Rules look only inside their own component, and nothing touches a
    component once it is cut off, so finishing it late changes no rule
    step. Its EXACT step is filed in exact_after under the highest stamp
    among its vertices, the rule step that cut it off; reduce returns each
    rule step followed by its filed EXACT steps, sorted, which is the order
    finishing the components at once gives.

    _finish, which every EXACT step goes through, rejects a C25 component.
    Only an input component can be one: a component that a rule step cuts
    off holds a survivor that lost a neighbour, and C25 is 4-regular.

    ids iterates over the input's vertex ids; a violation's graph keeps all
    of them, deleted ones isolated, so its witness names the written
    graph's ids.

    big_at maps each vertex of a live witness to it: a list of
    EXACT_THRESHOLD + 1 vertices that one probe found connected. An edge
    goes only with one of its ends, so a witness stays connected while
    every member lives, and apply deletes the whole witness from big_at
    when a member goes; live witnesses are disjoint. A witness found by
    the probe of a step holds none of the step's removed vertices, so it
    outlives the step.

    adj starts out holding the input graph's own frozensets, shared and not
    copied. apply rebinds a shrunk vertex to a new frozenset and nothing
    mutates one, so the input graph never changes under the pool.
    """

    def __init__(self, adj, ids):
        self.adj = adj
        self.ids = ids
        self.big_at = {}
        self.ends_at = {}
        # The number of rule steps applied, the stamp apply gives.
        self.rule_steps = 0
        self.pending = {}
        self.exact_after = {}
        # None until the first flush, which checks every live vertex.
        self.dirty = None
        self.queues = {name: [] for name in RULE_NAMES}
        # The class's functions, not bound methods: a bound method held here
        # would make a reference cycle, which only the cyclic GC frees.
        self.rules = tuple(
            (self.queues[name], getattr(_Pool, f"_{name.lower()}"))
            for name in RULE_NAMES
        )

    # ----- candidate events -------------------------------------------------

    def _push_events(self, v):
        # v lost a neighbour and kept at least one, so its degree is 1-3.
        adj = self.adj
        if len(adj[v]) == 1:
            self._push_end_events(v)
            return
        r1 = self.queues["R1"]
        for u in self.ends_at.get(v, ()):
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

        The survivors, the boundary vertices that stay, are the only places
        where a component can have shrunk; each one outside a live witness
        is marked pending with the stamp rule_steps.
        """
        adj = self.adj
        big_at = self.big_at
        ends_at = self.ends_at
        pending = self.pending
        boundary = set()
        for x in removed:
            boundary |= adj.pop(x)
            if x in big_at:
                for v in big_at[x]:
                    del big_at[v]
            # Every end on x goes with x, as x's neighbour or isolated.
            ends_at.pop(x, None)
            pending.pop(x, None)
        boundary -= removed
        survivors = []
        for y in boundary:
            # Rebinds to a new frozenset; the old one may be the input's.
            nbrs = adj[y] = adj[y] - removed
            if nbrs:
                survivors.append(y)
            else:
                # A live witness is connected, so one holding y lost a
                # neighbour of y above and is gone already.
                del adj[y]
                ends_at.pop(y, None)
                pending.pop(y, None)
        # Events fire only after every boundary degree is final, so the
        # degree tests inside the pushes never see half-applied state; and
        # only then is a witness known to outlive the step.
        stamp = self.rule_steps
        for y in survivors:
            self._push_events(y)
            if y not in big_at:
                pending[y] = stamp

    def _probe(self, s, seen):
        """Search s's piece of the pool outside seen, adding what it visits
        to seen: the piece as a list when it has at most EXACT_THRESHOLD
        vertices, else None.

        The search ends "big" on reaching a live witness (connected while
        every member lives; live witnesses are disjoint) or its own
        EXACT_THRESHOLD + 1-th vertex. Only the latter records a witness,
        those vertices, and none of them is in a live one, so no entry of
        big_at is ever overwritten.
        """
        adj = self.adj
        big_at = self.big_at
        if s in big_at:
            return None
        seen.add(s)
        piece = [s]
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if y not in seen:
                    if y in big_at:
                        return None
                    seen.add(y)
                    piece.append(y)
                    if len(piece) > EXACT_THRESHOLD:
                        pending = self.pending
                        for v in piece:
                            big_at[v] = piece
                            pending.pop(v, None)
                        return None
                    stack.append(y)
        return piece

    def split_small(self, seeds):
        """Components of at most EXACT_THRESHOLD vertices touching the seeds,
        each sorted, smallest first vertex first. The seeds must be live."""
        found = []
        seen = set()
        for s in seeds:
            if s not in seen:
                comp = set()
                if self._probe(s, comp) is not None:
                    found.append(sorted(comp))
                seen |= comp
        found.sort()
        return found

    def _small_component(self, removed):
        """The sorted component holding the removed set if it has at most
        EXACT_THRESHOLD vertices, else None.

        The removed set lies in one component. The search starts with it
        seen and probes the pieces that hang off it one at a time, so a
        witness it records holds no removed vertex and outlives the step.
        """
        adj = self.adj
        big_at = self.big_at
        seen = set(removed)
        for x in removed:
            if x in big_at:
                return None
        for x in removed:
            for y in adj[x]:
                if y not in seen and self._probe(y, seen) is None:
                    return None
        if len(seen) > EXACT_THRESHOLD:
            return None
        return sorted(seen)

    def _sweep(self):
        """Finish every small component that holds a pending vertex, and
        clear pending."""
        stamps = self.pending
        if stamps:
            self.pending = {}
            for comp in self.split_small(stamps):
                self._finish_cut_off(comp, stamps)

    def _finish_cut_off(self, comp, stamps):
        # The rule step that cut comp off stamped its survivors there, and
        # no later rule step touched comp: its number is the highest stamp.
        k = max(stamps[v] for v in comp if v in stamps)
        self.exact_after.setdefault(k, []).append(self._finish(comp))

    # ----- step construction ------------------------------------------------

    def _queue_ends(self):
        """Queue the end events of every end in the pool, in any order: of
        two ends, the later one's events find the pair."""
        for v, nbrs in self.adj.items():
            if len(nbrs) == 1:
                self._push_end_events(v)

    def reduce(self):
        """Reduce the pool to nothing and return the steps, each checked
        and applied: an EXACT step for each component that is small in the
        input, then each rule step, each followed by the EXACT steps of the
        components it cut off, sorted."""
        adj = self.adj
        steps = [self._finish(comp) for comp in self.split_small(sorted(adj))]
        # Only now, so no end of an input component just finished is queued.
        self._queue_ends()
        applied = []  # the rule steps, in order
        while adj:
            try:
                step = self.find_step()
                if step is None:
                    break
                self.check(step, step.matched)
            except InvariantViolationError as exc:
                if exc.rule == "EXACT" or not self.pending:
                    raise
                self._sweep()
                continue
            applied.append(step)
            self.rule_steps += 1
            self.apply(set(step.removed))
        exact_after = self.exact_after
        for k, step in enumerate(applied, 1):
            steps.append(step)
            steps.extend(sorted(exact_after.pop(k, ()), key=_removed))
        return tuple(steps)

    def _finish(self, comp):
        """The checked and applied EXACT step for the small component comp.

        Raises C25ComponentError if comp is C25.
        """
        sub_adj = {v: self.adj[v] for v in comp}
        m = sum(map(len, sub_adj.values())) // 2
        sub = Graph._trusted(sub_adj, m)
        if is_isomorphic_c25(sub):
            raise C25ComponentError(comp)
        step = ReductionStep("EXACT", max_induced_matching(sub), tuple(comp))
        self.check(step, step.removed)
        self.apply(set(comp))
        return step

    def find_step(self):
        """The highest-priority rule's step at its smallest live witness in
        a component of more than EXACT_THRESHOLD vertices, or None once the
        pool is empty.

        A step found in a small component finishes that component instead,
        and pops its queue head, which the finish made stale.
        """
        for i, (queue, rule) in enumerate(self.rules):
            if i == _FIRST_DEFERRED:
                self._sweep()
                if not self.adj:
                    return None
                self._flush()
            while queue:
                step = rule(self, queue[0])
                if step is not None:
                    comp = (
                        self._small_component(step.removed)
                        if self.pending else None
                    )
                    if comp is None:
                        return step
                    self._finish_cut_off(comp, self.pending)
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
        # Degree-2 vertex on a 4-cycle u-v-w-t, v < t: the degree-2 step
        # with u matched towards v.
        adj = self.adj
        if u not in adj or len(adj[u]) != 2:
            return None
        v, t = sorted(adj[u])
        w = min((w for w in adj[v] if w != u and w in adj[t]), default=None)
        if w is None:
            return None
        step = self._degree2_step("R7", u, v, t)
        if step is None:
            raise self.violation("R7", (u, v, w, t), "no pair clears the cycle")
        return step

    def _r8(self, u):
        # Any remaining degree-2 vertex: the degree-2 step towards its
        # smaller neighbor, else towards its larger one.
        adj = self.adj
        if u not in adj or len(adj[u]) != 2:
            return None
        a, b = sorted(adj[u])
        for v, w in ((a, b), (b, a)):
            step = self._degree2_step("R8", u, v, w)
            if step is not None:
                return step
        raise self.violation("R8", u, "both orientations failed")

    def _degree2_step(self, rule, u, v, w):
        # Shared R7/R8 step for a degree-2 vertex u with neighbors v and w.
        # Either deleting N(u) | N(v) isolates little, or some dropped
        # vertex s reaches N(v) at t while missing w, giving the induced
        # pair {st, uw}; None if no candidate pair is induced.
        adj = self.adj
        x = adj[u] | adj[v]
        iso = _isolated(adj, x)
        if len(iso) <= 3:
            return _step(rule, ((u, v),), x)
        for s in iso:
            for t in sorted(adj[v] & adj[s]):
                matched = ((s, t), (u, w))
                if _induced(adj, matched):
                    return _step(rule, matched, x | set(iso) | adj[t] | adj[w])
        return None

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

"""Checking of matchings and certificates, plus a fuzz loop.

verify_certificate replays a solve log against a fresh copy of the graph:
every step must be a valid paid-for removal at the moment it runs, exact
steps must remove a whole component and match optimally, and the steps must
tile the graph exactly and assemble into the reported matching.

The replay checks each step with its own code, in the same pass that
deletes the step's vertices. It does not share the engine's exact solver:
an EXACT step that matched k edges is re-checked by a search over vertices,
where the engine searched over edges. The step's vertices are read into
neighbour masks in one pass; when they form a whole connected component
and the step's k pairs are an induced matching of it, the pairs show that
k edges exist and one search must refute k + 1. Otherwise the search must
find k edges and refute k + 1, and the step gets the full step check.
verify_solution shares no code with the engine either. The exact solver
serves only fuzz, which compares small trials with the optimum.

The fuzz loop is fully deterministic: trial t of a run with master seed s
derives its own seed by one splitmix64 step from s + t, so any failure can
be replayed in isolation. A failure carries the trial's Graph itself; the
command line writes it out as a replay file.
"""

from dataclasses import dataclass
from time import perf_counter

from .engine import EXACT_THRESHOLD, RULE_NAMES, solve
from .exact import max_induced_matching
from .errors import BudgetExceededError
from .generators import (
    RandomGraphConfig,
    SplitMix64,
    gen_random_maxdeg4,
    splitmix64_next,
)
from .graph import Graph, is_isomorphic_c25

_MASK64 = (1 << 64) - 1

# Exact steps are re-checked during replay by the vertex search of
# _has_induced_matching. The engine makes none larger than EXACT_THRESHOLD
# vertices, so a larger one is refused unsearched; the budget is a second
# guard on what a hand-written certificate can cost.
_RECHECK_BUDGET = 2_000_000

# Fuzz trials up to this size are also compared against the exact optimum.
_CROSS_CHECK_MAX_N = 20


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of a check: structural flag, accounting flag, and messages.

    induced_ok covers matching shape (edges exist, pairwise induced, steps
    well-formed); bound_ok covers the size guarantee and per-step
    accounting. details is empty exactly when both flags hold.
    """

    induced_ok: bool
    bound_ok: bool
    details: tuple

    @property
    def ok(self):
        return self.induced_ok and self.bound_ok


def verify_solution(g, matching):
    """Check a bare matching against g: induced, and at least (n - i)/9 edges."""
    adj = g.adjacency
    structure = []
    usable = []
    for a, b in matching:
        if a not in adj or b not in adj:
            structure.append(f"pair {a}-{b} uses a vertex the graph lacks")
            continue
        if a == b:
            structure.append(f"pair {a}-{b} is degenerate")
            continue
        if b not in adj[a]:
            structure.append(f"pair {a}-{b} is not an edge")
            continue
        usable.append((a, b))
    owner = {}
    for i, (a, b) in enumerate(usable):
        for x in (a, b):
            if x in owner:
                structure.append(f"vertex {x} appears in two matched pairs")
            else:
                owner[x] = i
    conflicts = set()
    for a, b in usable:
        for x in (a, b):
            for y in adj[x]:
                j = owner.get(y)
                if j is not None and j != owner.get(x):
                    conflicts.add((min(x, y), max(x, y)))
    for x, y in sorted(conflicts):
        structure.append(f"edge {x}-{y} joins two matched pairs")
    isolated = sum(1 for nbrs in adj.values() if not nbrs)
    accounting = []
    if 9 * len(tuple(matching)) < g.n - isolated:
        accounting.append(
            f"9*{len(tuple(matching))} matched < {g.n} vertices"
            f" - {isolated} isolated"
        )
    return VerifyReport(
        not structure, not accounting, tuple(structure + accounting)
    )


def verify_certificate(g, result):
    """Replay a solve log step by step and re-check every claim it makes.

    The replay graph starts out holding g's own frozensets, shared and not
    copied; a removal rebinds each shrunk vertex to a new frozenset and never
    mutates one, so g is left as it was.
    """
    return _replay_report(g, result, verify_solution(g, result.matching))


def _replay_report(g, result, solution):
    """verify_certificate's report, given solution, the report of
    verify_solution(g, result.matching); the CLI passes in the one it has."""
    structure = []
    accounting = []
    cur = dict(g.adjacency)
    pre_isolated = [v for v, nbrs in cur.items() if not nbrs]
    for v in pre_isolated:
        del cur[v]
    if result.n != g.n:
        structure.append(f"result says n={result.n}, the graph has {g.n}")
    if result.isolated != len(pre_isolated):
        structure.append(
            f"result says {result.isolated} isolated vertices,"
            f" the graph has {len(pre_isolated)}"
        )
    replayed = True
    for k, step in enumerate(result.certificate.steps, 1):
        rset = set(step.removed)
        if len(rset) != len(step.removed) or not cur.keys() >= rset:
            structure.append(
                f"step {k} removes unavailable or repeated vertices"
            )
            replayed = False
            break
        if step.rule == "EXACT":
            problems = _check_exact_step(cur, step.matched, rset)
        else:
            if step.rule not in RULE_NAMES:
                structure.append(f"step {k} names unknown rule {step.rule}")
            problems = _check_step(cur, step.matched, rset)
        for kind, msg in problems:
            if kind == "structure":
                structure.append(f"step {k} {msg}")
            else:
                accounting.append(f"step {k} {msg}")
    if replayed and cur:
        structure.append(f"{len(cur)} vertices are never processed")
    if replayed:
        claimed = sorted(p for st in result.certificate.steps for p in st.matched)
        if claimed != sorted(result.matching):
            structure.append(
                "step matchings do not assemble into the reported matching"
            )
    return VerifyReport(
        solution.induced_ok and not structure,
        solution.bound_ok and not accounting,
        solution.details + tuple(structure) + tuple(accounting),
    )


def _check_step(cur, matched, rset):
    """Check one step against the replay graph cur, and delete rset, its
    removed vertices, from cur in the same pass.

    Every vertex of rset must be in cur. Returns (kind, message) pairs, kind
    being 'structure' for matching-shape problems and 'accounting' for the
    nine-per-edge bound: the same list the engine's own step check gives.
    """
    problems = []
    endpoints = [x for pair in matched for x in pair]
    if len(set(endpoints)) != len(endpoints):
        problems.append(("structure", "matched edges share endpoints"))
    usable = []
    for a, b in matched:
        if a not in cur or b not in cur:
            problems.append(
                ("structure", f"matched edge {a}-{b} uses a missing vertex")
            )
        elif b not in cur[a]:
            problems.append(("structure", f"matched pair {a}-{b} is not an edge"))
        else:
            usable.append((a, b))
    if len(usable) > 1:
        # Touching pairs through the endpoints' owners, not every pair of
        # pairs: a forged step may match thousands of edges. Sorted as the
        # pairwise loop would meet them: by pair indices, then by position.
        owner = {}
        for j, f in enumerate(usable):
            for y in f:
                owner.setdefault(y, []).append(j)
        touches = []
        for i, e in enumerate(usable):
            for p, x in enumerate(e):
                for y in cur[x]:
                    for j in owner.get(y, ()):
                        if j > i:
                            touches.append((i, j, p, usable[j].index(y)))
        for i, j, p, q in sorted(touches):
            e, f = usable[i], usable[j]
            problems.append((
                "structure", f"matched edges {e} and {f} touch via {e[p]}-{f[q]}"
            ))
    for a, b in usable:
        for x in (a, b):
            if x not in rset:
                problems.append(
                    ("structure", f"matched endpoint {x} is not removed")
                )
            if cur[x] <= rset:  # the usual case: no neighbour survives
                continue
            for y in cur[x]:
                if y not in rset:
                    problems.append((
                        "structure",
                        f"neighbor {y} of matched endpoint {x} survives",
                    ))
    boundary = set()
    for x in rset:
        boundary.update(cur.pop(x))
    boundary -= rset
    isolated = 0
    for y in boundary:
        # Rebinds to a new frozenset; the old one may be g's.
        cur[y] -= rset
        if not cur[y]:
            del cur[y]
            isolated += 1
    return problems + _unpaid(len(matched), len(rset), isolated)


def _unpaid(k, removed, isolated):
    """The nine-per-edge count of a step that matched k edges, removed that
    many vertices and left that many isolated: [] if it pays, else its one
    'accounting' problem."""
    if 9 * k < removed + isolated:
        return [(
            "accounting",
            f"9*{k} matched < {removed} removed + {isolated} isolated",
        )]
    return []


def _check_exact_step(cur, matched, rset):
    """Check an EXACT step against the replay graph cur and delete rset, its
    removed vertices, from cur: the replay's _check_step for EXACT steps.

    Returns the re-check's 'structure' problems, then _check_step's. A step
    of at most EXACT_THRESHOLD vertices is read into neighbour masks in one
    pass. If no edge leaves it, it is connected, and its pairs are an
    induced matching of it, then the pairs show that k edges exist, so one
    search refuting k + 1 shows that k is the optimum; and none of
    _check_step's pair tests can fail and the step has no boundary, so only
    the count is left. Otherwise the search runs from k and _check_step
    checks the step as it does any other.
    """
    k = len(matched)
    if not rset or len(rset) > EXACT_THRESHOLD:
        problems = [("structure", _misfit(cur, rset))]
        return problems + _check_step(cur, matched, rset)
    order = sorted(rset)
    index = {v: i for i, v in enumerate(order)}
    nbrs = []
    leaks = []
    for v in order:
        mask = 0
        for y in cur[v]:
            i = index.get(y)
            if i is None:
                leaks.append(y)
            else:
                mask |= 1 << i
        nbrs.append(mask)
    full = (1 << len(order)) - 1
    if leaks:
        problems = [("structure", _leak_message(leaks))]
    elif _reach(nbrs) != full:
        problems = [("structure", "exact removal is not connected")]
    elif _is_induced_matching(nbrs, index, matched):
        problems = _optimum_problems(nbrs, full, k, True)
        for v in order:
            del cur[v]
        return problems + _unpaid(k, len(order), 0)
    else:
        problems = _optimum_problems(nbrs, full, k, False)
    return problems + _check_step(cur, matched, rset)


def _misfit(cur, rset):
    # Why an EXACT step that is empty or past EXACT_THRESHOLD vertices is
    # refused. A set, not a bitmask: a forged step may be huge.
    if not rset:
        return "exact step removes no vertices"
    leaks = [y for x in rset for y in cur[x] if y not in rset]
    if leaks:
        return _leak_message(leaks)
    # No edge leaves rset, so a search over cur from any one of its vertices
    # stays inside it.
    start = next(iter(rset))
    seen = {start}
    stack = [start]
    while stack:
        for y in cur[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    if len(seen) != len(rset):
        return "exact removal is not connected"
    return f"exact component of {len(rset)} vertices is too large to re-check"


def _leak_message(leaks):
    return (
        f"exact removal is not a whole component (edges to {sorted(leaks)[:4]})"
    )


def _reach(nbrs):
    """The mask of vertices joined by a path to vertex 0."""
    seen = todo = 1
    while todo:
        low = todo & -todo
        todo ^= low
        new = nbrs[low.bit_length() - 1] & ~seen
        seen |= new
        todo |= new
    return seen


def _is_induced_matching(nbrs, index, matched):
    """Whether matched is an induced matching of the graph of nbrs, whose
    vertex v is bit index[v]."""
    near = 0  # the matched endpoints so far and their neighbours
    for a, b in matched:
        i = index.get(a)
        j = index.get(b)
        if i is None or j is None or not nbrs[i] >> j & 1:
            return False
        ends = 1 << i | 1 << j
        if ends & near:
            return False
        near |= ends | nbrs[i] | nbrs[j]
    return True


def _optimum_problems(nbrs, full, k, shown):
    """The re-check of an EXACT step that matched k edges on the component
    of nbrs; shown says the step's own pairs already show k edges exist."""
    budget = [0]
    try:
        if shown or _has_induced_matching(nbrs, full, k, budget):
            best = k
            while _has_induced_matching(nbrs, full, best + 1, budget):
                best += 1
        else:
            best = k - 1
            while not _has_induced_matching(nbrs, full, best, budget):
                best -= 1
    except BudgetExceededError:
        problem = "exact component re-check ran out of search budget"
    else:
        if best == k:
            return []
        problem = f"exact step matched {k} edges, the optimum is {best}"
    return [("structure", problem)]


def _has_induced_matching(nbrs, full, need, budget):
    """Whether the vertices in mask full hold an induced matching of need
    edges; nbrs[i] is the neighbour mask of vertex i.

    The search branches on the lowest vertex v left in the mask: match v to
    a neighbour u still in the mask and delete N[u] | N[v], or drop v. A
    mask with fewer than 2*need vertices fails at once, and a mask that
    failed for some need is not searched again for that need or more.

    budget is a one-item list, the nodes popped so far by this and earlier
    searches of the same step. Each call pops one; popping more than
    _RECHECK_BUDGET raises BudgetExceededError.
    """
    return _search(nbrs, {}, budget, full, need)


def _search(nbrs, failed, budget, mask, need):
    # One node of _has_induced_matching's search; failed maps a mask to the
    # least need it failed for. A module function, not a closure: a closure
    # that calls itself is a reference cycle, and while the CLI pauses the
    # cyclic GC that would keep every search's memo alive.
    budget[0] += 1
    if budget[0] > _RECHECK_BUDGET:
        raise BudgetExceededError(budget[0], _RECHECK_BUDGET)
    if need <= 0:
        return True
    if mask.bit_count() < 2 * need or failed.get(mask, need + 1) <= need:
        return False
    low = mask & -mask
    v = low.bit_length() - 1
    closed_v = nbrs[v] | low
    cand = nbrs[v] & mask
    while cand:
        u = cand & -cand
        cand ^= u
        rest = mask & ~(closed_v | nbrs[u.bit_length() - 1] | u)
        if _search(nbrs, failed, budget, rest, need - 1):
            return True
    if _search(nbrs, failed, budget, mask ^ low, need):
        return True
    failed[mask] = need
    return False


@dataclass(frozen=True)
class FuzzConfig:
    """Shape of a fuzz run."""

    trials: int = 1000
    n_min: int = 2
    n_max: int = 300
    seed: int = 0


@dataclass(frozen=True)
class FuzzFailure:
    """One failed trial: its derived seed, what failed, and the instance."""

    trial: int
    seed: int
    kind: str
    graph: Graph
    details: tuple = ()


@dataclass(frozen=True)
class FuzzReport:
    """Deterministic summary of a fuzz run plus observed peak trial time.

    summary_lines() excludes the timing so that two runs with the same
    config produce byte-identical summaries.
    """

    trials: int
    skipped_c25: int
    failures: tuple
    max_seconds: float

    @property
    def ok(self):
        return not self.failures

    def summary_lines(self):
        lines = [
            f"trials {self.trials}",
            f"skipped {self.skipped_c25}",
            f"failures {len(self.failures)}",
        ]
        lines.extend(
            f"trial {f.trial} seed {f.seed} {f.kind}" for f in self.failures
        )
        return lines


def fuzz(config):
    """Solve and verify random instances; returns the report, raises nothing.

    Every exception inside a trial, from solve or from the checks that
    follow it, is recorded as a failure of that trial, so a run surveys the
    whole configured space even if one instance misbehaves.
    """
    if config.trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= config.n_min <= config.n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    failures = []
    skipped = 0
    max_seconds = 0.0
    span = config.n_max - config.n_min + 1
    for trial in range(config.trials):
        derived, _ = splitmix64_next((config.seed + trial) & _MASK64)
        prng = SplitMix64(derived)
        n = config.n_min + prng.below(span)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        if is_isomorphic_c25(g):
            skipped += 1
            continue

        def fail(kind, details=()):
            failures.append(
                FuzzFailure(trial, derived, kind, g, tuple(details))
            )

        started = perf_counter()
        stage = "solve"
        try:
            result = solve(g)
            stage = "check"
            solution = verify_solution(g, result.matching)
            if not solution.ok:
                fail("solution check failed", solution.details)
            certificate = _replay_report(g, result, solution)
            if not certificate.ok:
                fail("certificate check failed", certificate.details)
            if n <= _CROSS_CHECK_MAX_N:
                best = max_induced_matching(g)
                if len(result.matching) > len(best):
                    fail(
                        "matching exceeds the optimum",
                        (f"{len(result.matching)} > {len(best)}",),
                    )
                isolated = sum(1 for nbrs in g.adjacency.values() if not nbrs)
                if 9 * len(best) < g.n - isolated:
                    fail(
                        "optimum below the guarantee",
                        (f"9*{len(best)} < {g.n} - {isolated}",),
                    )
        except Exception as exc:  # any error here is a finding
            fail(f"{stage} raised {type(exc).__name__}", (str(exc),))
        max_seconds = max(max_seconds, perf_counter() - started)
    return FuzzReport(config.trials, skipped, tuple(failures), max_seconds)

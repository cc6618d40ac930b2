"""The replay's one-pass EXACT check against the two-stage reference.

harness._check_exact_step checks an EXACT step in one pass over its
component and skips the search for k edges and the step check when the
step's own pairs show them. The reference checks every EXACT step in two
stages: _oracles.exact_recheck_ref, with its own set-based tests and its own
optimum, then harness._check_step. Each example takes an EXACT step of a
solved random graph, tampers with it, and replays the whole certificate
twice, once as the package does and once with the reference in place of
_check_exact_step: the two reports must be equal.

Honest steps take the one-pass path; the tampers also reach the fallback,
which no certificate of the engine's does.
"""

import pytest

from indmatch import (
    Certificate,
    RandomGraphConfig,
    ReductionStep,
    SolveResult,
    build_graph,
    gen_random_maxdeg4,
    harness,
    solve,
    verify_certificate,
)
from indmatch.engine import EXACT_THRESHOLD

import _oracles

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TAMPERS = (
    "drop pair",  # claims k - 1
    "add pair",  # claims k + 1
    "pair off an edge",
    "pairs touch",
    "drop removed",
    "add removed",
    "add a component",
    "swap the component",
    "remove nothing",
    "split",
)


def _two_stage(cur, matched, rset):
    problems = [
        ("structure", msg)
        for msg in _oracles.exact_recheck_ref(cur, matched, rset, EXACT_THRESHOLD)
    ]
    return problems + harness._check_step(cur, matched, rset)


def _live(adjacency, gone):
    """The replay graph once the vertices in gone are deleted."""
    live = {}
    for v, nbrs in adjacency.items():
        if v not in gone:
            rest = nbrs - gone
            if rest:
                live[v] = rest
    return live


@st.composite
def tampered_results(draw):
    # One to four random components side by side, 11-40 vertices in all,
    # so that a step can be joined with, or swapped for, another component.
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    hypothesis.assume(11 <= sum(sizes) <= 40)
    edges = []
    n = 0
    for size in sizes:
        part = gen_random_maxdeg4(RandomGraphConfig(
            n=size, extra_edge_attempts=draw(st.integers(0, 4 * size)),
            seed=draw(st.integers(0, 2**32)),
        ))
        edges.extend((u + n, v + n) for u, v in part.edges())
        n += size
    g = build_graph(n, edges)
    result = solve(g)
    steps = list(result.certificate.steps)
    exact = [k for k, s in enumerate(steps) if s.rule == "EXACT"]
    hypothesis.assume(exact)
    k = draw(st.sampled_from(exact))
    live = _live(g.adjacency, {x for s in steps[:k] for x in s.removed})
    matched = list(steps[k].matched)
    removed = list(steps[k].removed)
    edges = sorted((a, b) for a in live for b in live[a] if a < b)
    for tamper in draw(st.lists(st.sampled_from(TAMPERS), max_size=4)):
        if tamper == "drop pair" and matched:
            matched.pop(draw(st.integers(0, len(matched) - 1)))
        elif tamper == "add pair":
            near = [e for e in edges if e[0] in removed or e[1] in removed]
            matched.append(draw(st.sampled_from(near or edges)))
        elif tamper == "pair off an edge" and matched:
            i = draw(st.integers(0, len(matched) - 1))
            a = matched[i][0]
            # A vertex of the step away from the other pairs, or any id of
            # g or one past them.
            near = {
                y for p in matched[:i] + matched[i + 1:] for x in p
                for y in live.get(x, frozenset()) | {x}
            }
            ids = range(g.n + 1)
            if draw(st.booleans()):
                ids = [v for v in removed if v not in near]
            others = [v for v in ids if v != a and v not in live[a]]
            if others:
                matched[i] = (a, draw(st.sampled_from(others)))
        elif tamper == "pairs touch" and matched:
            # An edge at a neighbour y of an endpoint x of a matched pair.
            i = draw(st.integers(0, len(matched) - 1))
            x = draw(st.sampled_from(matched[i]))
            ys = sorted(live.get(x, ()))
            if ys:
                y = draw(st.sampled_from(ys))
                matched.append((y, draw(st.sampled_from(sorted(live[y])))))
        elif tamper == "drop removed" and removed:
            removed.pop(draw(st.integers(0, len(removed) - 1)))
        elif tamper == "add removed":
            rest = [v for v in live if v not in removed]
            if rest:
                removed.append(draw(st.sampled_from(rest)))
        elif tamper == "add a component":
            # Another whole live component joined to the step: no edge
            # leaves the step, but it is not connected.
            rest = sorted(v for v in live if v not in removed)
            if rest:
                more = _oracles.reachable(live, draw(st.sampled_from(rest)))
                removed.extend(sorted(more - set(removed)))
        elif tamper == "swap the component":
            # The largest live component, at times past EXACT_THRESHOLD.
            parts = [_oracles.reachable(live, v) for v in live]
            removed[:] = sorted(max(parts, key=len))
        elif tamper == "remove nothing":
            removed.clear()
        elif tamper == "split" and len(removed) > 1:
            cut = draw(st.integers(1, len(removed) - 1))
            head = set(removed[:cut])
            first = [p for p in matched if p[0] in head]
            replaced = [
                ReductionStep("EXACT", tuple(first), tuple(removed[:cut])),
                ReductionStep(
                    "EXACT",
                    tuple(p for p in matched if p not in first),
                    tuple(removed[cut:]),
                ),
            ]
            break
    else:
        replaced = [ReductionStep("EXACT", tuple(matched), tuple(removed))]
    forged = Certificate(tuple(steps[:k] + replaced + steps[k + 1:]))
    return g, SolveResult(result.matching, forged, result.n, result.isolated)


@hypothesis.settings(max_examples=500, deadline=None, database=None, derandomize=True)
@hypothesis.given(tampered_results())
def test_exact_check_matches_the_two_stage_reference(case):
    g, result = case
    report = verify_certificate(g, result)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_check_exact_step", _two_stage)
        expected = verify_certificate(g, result)
    assert report == expected

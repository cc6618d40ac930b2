"""The verifier's step check against the engine's, on tampered steps.

harness._check_step is the replay's own copy of the rule-step check; it
imports nothing from the engine. Each example takes one step of a solved
random graph, tampers with it, and checks it on the live graph the replay
would hold at that step: the verifier must report exactly the (kind,
message) list engine._step_violations reports, and must leave the live
graph with the step's vertices deleted and the newly isolated ones gone.

The replay refuses a step that removes an absent or repeated vertex before
the step check runs, so every tampered removal here stays a set of live
vertices.
"""

import pytest

from indmatch import RandomGraphConfig, engine, gen_random_maxdeg4, harness, solve

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

TAMPERS = ("add removed", "drop removed", "pair off an edge", "pairs touch")


def _live(adjacency, gone):
    """The replay graph once the vertices in gone are deleted: every vertex
    left with a neighbour, holding its surviving neighbours."""
    live = {}
    for v, nbrs in adjacency.items():
        if v not in gone:
            rest = nbrs - gone
            if rest:
                live[v] = rest
    return live


@st.composite
def tampered_steps(draw):
    n = draw(st.integers(19, 60))
    seed = draw(st.integers(0, 2**32))
    g = gen_random_maxdeg4(RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=seed))
    steps = solve(g).certificate.steps
    k = draw(st.integers(0, len(steps) - 1))
    live = _live(g.adjacency, frozenset(x for s in steps[:k] for x in s.removed))
    matched = list(steps[k].matched)
    removed = list(steps[k].removed)
    verts = sorted(live)
    for tamper in draw(st.lists(st.sampled_from(TAMPERS), max_size=3)):
        if tamper == "add removed":
            rest = [v for v in verts if v not in removed]
            for _ in range(min(len(rest), draw(st.integers(1, 6)))):
                v = draw(st.sampled_from(rest))
                rest.remove(v)
                removed.append(v)
        elif tamper == "drop removed" and len(removed) > 1:
            removed.pop(draw(st.integers(0, len(removed) - 1)))
        elif tamper == "pair off an edge" and matched:
            i = draw(st.integers(0, len(matched) - 1))
            # Any other id of g, or one past them: a vertex deleted by an
            # earlier step or not in g at all is missing from the live graph.
            a = matched[i][0]
            others = [v for v in range(g.n + 1) if v != a and v not in live[a]]
            matched[i] = (a, draw(st.sampled_from(others)))
        elif tamper == "pairs touch" and matched:
            # An edge (y, z) with y a neighbour of an endpoint x of the first
            # matched pair: the two pairs are joined by the edge x-y, or
            # share x when z is x.
            x = draw(st.sampled_from(matched[0]))
            ys = sorted(live[x] - set(matched[0])) if x in live else []
            if ys:
                y = draw(st.sampled_from(ys))
                matched[1:] = [(y, draw(st.sampled_from(sorted(live[y]))))]
    return live, tuple(matched), tuple(removed)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(tampered_steps())
def test_step_check_matches_the_engine(case):
    live, matched, removed = case
    assert len(set(removed)) == len(removed) and set(removed) <= live.keys()
    expected = engine._step_violations(live, matched, removed)
    cur = dict(live)
    assert harness._check_step(cur, matched, set(removed)) == expected
    assert cur == _live(live, set(removed))

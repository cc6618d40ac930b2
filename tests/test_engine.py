import dataclasses
import hashlib
from collections import Counter

import pytest

from indmatch import (
    C25ComponentError,
    Graph,
    InvariantViolationError,
    MaxDegreeExceededError,
    RandomGraphConfig,
    ReductionStep,
    SplitMix64,
    build_graph,
    format_certificate,
    gen_c25,
    gen_cycle,
    gen_path,
    gen_random_maxdeg4,
    gen_tight9,
    is_induced_matching,
    max_induced_matching,
    next_reduction,
    solve,
    verify_certificate,
)
from indmatch import engine

import _oracles


def circulant(n, chords):
    edges = set()
    for i in range(n):
        for c in chords:
            edges.add(tuple(sorted((i, (i + c) % n))))
    return sorted(edges)


def minus(n, edges, cut):
    cutset = {tuple(sorted(e)) for e in cut}
    return build_graph(n, [e for e in edges if tuple(sorted(e)) not in cutset])


def dodecahedron():
    lcf = [10, 7, 4, -4, -7, 10, -4, 7, -7, 4] * 2
    edges = {tuple(sorted((i, (i + 1) % 20))) for i in range(20)}
    edges |= {tuple(sorted((i, (i + lcf[i]) % 20))) for i in range(20)}
    return build_graph(20, sorted(edges))


def test_first_step_path():
    step = next_reduction(gen_path(20))
    assert step.rule == "R1"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2)


def test_first_step_cycle():
    step = next_reduction(gen_cycle(20))
    assert step.rule == "R5"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2, 19)


def test_first_step_dodecahedron():
    # 3-regular with girth 5: nothing before the base rule applies
    step = next_reduction(dodecahedron())
    assert step.rule == "R12"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2, 8, 10, 19)


# One deterministic instance per remaining rule. Each is built so that all
# higher-priority rules are inapplicable: pendant neighbors have degree 4,
# degree-2 vertices appear exactly where the targeted rule wants them, and
# the rest is cycle or circulant filler.

def test_first_step_r2():
    # two pendants on one degree-4 hub
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (3, 5), (3, 6), (4, 12), (4, 13)]
    edges += [(i, i + 1) for i in range(5, 19)] + [(5, 19)]
    step = next_reduction(build_graph(20, edges))
    assert step.rule == "R2"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2, 3, 4)


def test_first_step_r3():
    # pendants 0 and 4 at distance exactly 4 via 1-2-3
    edges = [(0, 1), (1, 2), (1, 5), (1, 6), (4, 3), (3, 2), (3, 7), (3, 8)]
    edges += [(i, i + 1) for i in range(5, 18)] + [(5, 18)]
    step = next_reduction(build_graph(19, edges))
    assert step.rule == "R3"
    assert step.matched == ((0, 1), (3, 4))
    assert step.removed == (0, 1, 2, 3, 4, 5, 6, 7, 8)


def test_first_step_r4():
    # a lone pendant whose neighbor has degree 4
    edges = [(0, 1), (1, 2), (1, 3), (1, 4)]
    edges += [(i, i + 1) for i in range(2, 19)] + [(2, 19)]
    step = next_reduction(build_graph(20, edges))
    assert step.rule == "R4"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2, 3, 4)


def test_first_step_r6():
    # degree-2 vertex 0 inside triangle (0, 1, 20)
    g = minus(21, circulant(21, (1, 2)), [(0, 2), (0, 19)])
    assert len(g.adjacency[0]) == 2
    step = next_reduction(g)
    assert step.rule == "R6"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2, 3, 20)


def test_first_step_r7():
    # degree-2 vertex 0 on the 4-cycle 0-3-2-19
    g = minus(20, circulant(20, (1, 3)), [(0, 1), (0, 17)])
    step = next_reduction(g)
    assert step.rule == "R7"
    assert step.matched == ((0, 3),)
    assert step.removed == (0, 2, 3, 4, 6, 19)


def test_first_step_r8():
    # degree-2 vertex 0 on no triangle and no 4-cycle
    g = minus(20, circulant(20, (1, 3)), [(0, 1), (0, 19)])
    step = next_reduction(g)
    assert step.rule == "R8"
    assert step.matched == ((0, 3),)
    assert step.removed == (0, 2, 3, 4, 6, 17)


def test_first_step_r9():
    # 4-regular circulant with triangles and no smaller structure
    step = next_reduction(build_graph(21, circulant(21, (1, 2))))
    assert step.rule == "R9"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2, 3, 19, 20)


def test_first_step_r10():
    # cutting one edge of C20(1,3) leaves degree-3 vertices on 4-cycles
    g = minus(20, circulant(20, (1, 3)), [(0, 1)])
    step = next_reduction(g)
    assert step.rule == "R10"
    assert step.matched == ((0, 17),)
    assert step.removed == (0, 3, 14, 16, 17, 18, 19)


def test_first_step_r11():
    # C20(1,3) is 4-regular with girth 4
    step = next_reduction(build_graph(20, circulant(20, (1, 3))))
    assert step.rule == "R11"
    assert step.matched == ((0, 1),)
    assert step.removed == (0, 1, 2, 3, 4, 17, 18, 19)


def shifted_dodecahedron(k):
    return [(a + k, b + k) for a, b in dodecahedron().edges()]


def test_first_step_r9_two_edges():
    # Deleting N(0) | N(1) isolates 7, 8 and 9, so R9 pays with a second
    # edge; minimum degree 3 keeps every earlier rule quiet.
    edges = [
        (0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (1, 5), (1, 6), (2, 7),
        (3, 7), (5, 7), (2, 8), (4, 8), (6, 8), (3, 9), (4, 9), (5, 9),
    ]
    edges += shifted_dodecahedron(10) + [(3, 10), (4, 15), (5, 20), (6, 25)]
    g = build_graph(30, edges)
    step = next_reduction(g)
    assert step.rule == "R9"
    assert step.matched == ((1, 2), (3, 9))
    assert step.removed == tuple(range(11))
    result = solve(g)
    assert [s.rule for s in result.certificate.steps] == ["R9", "R8", "EXACT"]
    assert verify_certificate(g, result).ok


def test_first_step_r10_degree3_partner():
    # 0 lies on the 4-cycle 0-1-6-2 and pairs with its degree-3 neighbor
    # 3; deleting N(0) | N(3) isolates 6, 7 and 8, which a degree-3
    # partner may do.
    edges = [
        (0, 1), (0, 2), (0, 3), (3, 4), (3, 5), (6, 1), (6, 2), (6, 4),
        (7, 1), (7, 2), (7, 5), (8, 1), (8, 4), (8, 5),
    ]
    edges += shifted_dodecahedron(9) + [(2, 9), (4, 14), (5, 19)]
    g = build_graph(29, edges)
    assert len(g.adjacency[3]) == 3
    step = next_reduction(g)
    assert step.rule == "R10"
    assert step.matched == ((0, 3),)
    assert step.removed == (0, 1, 2, 3, 4, 5)
    assert engine._isolated(g.adjacency, set(step.removed)) == [6, 7, 8]
    result = solve(g)
    assert [s.rule for s in result.certificate.steps] == ["R10", "R12", "EXACT"]
    assert verify_certificate(g, result).ok


# Each core fires its rule first as a two-edge step, through the branch
# named beside it; the rest of the 30 or 31 vertices is a shifted
# dodecahedron, tied to the core by the edges that leave 0..9 (0..10 for
# R10).
TWO_EDGE_WITNESSES = {
    # R2's fallback: the center's spare neighbours 3 and 4 carry pendants.
    "R2": (
        [(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (3, 6), (3, 7), (4, 8),
         (4, 9), (4, 10)],
        10, ((3, 5), (4, 8)), tuple(range(11)),
    ),
    # R7's fallback: a dropped vertex reaches back into N(v).
    "R7": (
        [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (1, 5), (4, 6), (5, 6),
         (4, 7), (5, 7), (2, 8), (4, 8), (3, 9), (5, 9), (2, 10), (3, 15)],
        10, ((0, 2), (4, 6)), tuple(range(11)),
    ),
    # R8's fallback: a dropped vertex reaches N(v) while missing w.
    "R8": (
        [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (3, 6), (4, 6), (5, 6),
         (2, 7), (3, 7), (2, 8), (4, 8), (2, 9), (5, 9), (3, 10), (4, 15),
         (5, 20)],
        10, ((0, 2), (3, 6)), tuple(range(11)),
    ),
    # R11's fallback, through _scope_pair_step.
    "R11": (
        [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5), (1, 6), (1, 7),
         (3, 8), (4, 8), (6, 8), (7, 8), (2, 9), (5, 9), (6, 9), (7, 9),
         (2, 12), (3, 15), (4, 18), (4, 21), (5, 24), (5, 27), (6, 10),
         (7, 13)],
        10, ((0, 3), (6, 9)), tuple(range(11)) + (15,),
    ),
    # R10 with a degree-4 partner, through _scope_pair_step.
    "R10": (
        [(0, 1), (0, 3), (0, 4), (1, 2), (2, 3), (4, 5), (4, 6), (4, 7),
         (1, 8), (3, 8), (6, 8), (7, 8), (1, 9), (5, 9), (6, 9), (7, 9),
         (3, 10), (5, 10), (6, 10), (7, 10), (2, 14), (2, 25)],
        11, ((0, 1), (5, 10)), tuple(range(11)),
    ),
}


@pytest.mark.parametrize("rule", sorted(TWO_EDGE_WITNESSES))
def test_first_step_two_edge_witness(rule):
    core, shift, matched, removed = TWO_EDGE_WITNESSES[rule]
    g = build_graph(20 + shift, core + shifted_dodecahedron(shift))
    step = next_reduction(g)
    assert step.rule == rule
    assert step.matched == matched
    assert step.removed == removed
    assert verify_certificate(g, solve(g)).ok


# R9 on the triangle 0-1-2, where deleting N(0) | N(1) isolates three
# vertices: its pair search skips each dropped vertex s on w = 2, then each
# r of the triangle's other neighbours that s misses or that sits on both 0
# and 1. Core, shift, what N(0) | N(1) isolates, the step's matched pairs.
R9_SKIP_WITNESSES = {
    # 7 is on w; 8 misses r = 3, then pairs with 4.
    "r missed": (
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 5), (1, 6), (2, 7),
         (4, 7), (4, 8), (4, 9), (5, 7), (5, 8), (5, 9), (6, 8), (6, 9),
         (3, 24), (3, 28)],
        10, [7, 8, 9], ((1, 2), (4, 8)),
    ),
    # 6 and 7 are on w; r = 3 is on both 0 and 1, then 8 pairs with 4.
    "r on both": (
        [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 5), (2, 6),
         (2, 7), (3, 8), (4, 6), (4, 7), (4, 8), (5, 6), (5, 7), (5, 8),
         (3, 28)],
        9, [6, 7, 8], ((1, 2), (4, 8)),
    ),
}


@pytest.mark.parametrize("name", sorted(R9_SKIP_WITNESSES))
def test_first_step_r9_skip_witness(name):
    core, shift, iso, matched = R9_SKIP_WITNESSES[name]
    g = build_graph(20 + shift, core + shifted_dodecahedron(shift))
    near = {0, 1} | g.adjacency[0] | g.adjacency[1]
    assert engine._isolated(g.adjacency, near) == iso
    step = next_reduction(g)
    assert step.rule == "R9"
    assert step.matched == matched
    assert step.removed == tuple(range(shift))
    assert verify_certificate(g, solve(g)).ok


def _pool(g):
    return engine._Pool(dict(g.adjacency), g.adjacency)


def test_r8_takes_its_second_orientation():
    # 3 has neighbours 0 and 6 and lies on the 4-cycle 3-0-9-6. Towards 0,
    # deleting N(3) | N(0) isolates 1, 5, 7 and 8, and every candidate pair
    # touches 6; towards 6 it isolates only 1, 2 and 8. So R7, which tries
    # the first orientation alone, raises, and R8 matches 3-6.
    edges = [(0, 2), (0, 3), (0, 9), (1, 9), (2, 5), (3, 6), (5, 6), (6, 7),
             (6, 9), (8, 9)]
    g = build_graph(10, edges)
    pool = _pool(g)
    adj = pool.adj
    assert engine._isolated(adj, adj[3] | adj[0]) == [1, 5, 7, 8]
    for s, t in ((1, 9), (5, 2), (8, 9)):
        assert not engine._induced(adj, ((s, t), (3, 6)))
    assert engine._isolated(adj, adj[3] | adj[6]) == [1, 2, 8]
    with pytest.raises(InvariantViolationError) as info:
        engine._Pool._r7(pool, 3)
    assert info.value.rule == "R7"
    assert info.value.witness == (3, 0, 9, 6)
    assert info.value.detail == "no pair clears the cycle"
    step = engine._Pool._r8(pool, 3)
    assert step == ReductionStep("R8", ((3, 6),), (0, 3, 5, 6, 7, 9))
    assert not _problems(g, step)


@pytest.mark.parametrize("rule, u, edges, skipped, step", [
    # 3 has neighbours 1 and 5 and lies on no triangle or 4-cycle; deleting
    # N(3) | N(1) isolates 4, 7, 8 and 9. The pairs 4-6 and 7-6 touch 5.
    ("R8", 3,
     [(0, 1), (0, 6), (0, 8), (1, 2), (1, 3), (1, 6), (2, 8), (2, 9), (3, 5),
      (4, 5), (4, 6), (5, 7), (5, 9), (6, 7)],
     [(4, 6), (7, 6)], ((0, 8), (3, 5))),
    # 2 has neighbours 3 and 9 and lies on the 4-cycle 2-3-4-9; deleting
    # N(2) | N(3) isolates 0, 1, 5 and 7. The pair 0-4 touches 9.
    ("R7", 2,
     [(0, 4), (0, 6), (1, 4), (1, 6), (1, 8), (2, 3), (2, 9), (3, 4), (3, 6),
      (3, 8), (4, 9), (5, 8), (5, 9), (6, 7), (7, 9)],
     [(0, 4)], ((0, 6), (2, 9))),
])
def test_degree2_step_skips_a_pair_that_is_not_induced(
    rule, u, edges, skipped, step
):
    g = build_graph(10, edges)
    pool = _pool(g)
    adj = pool.adj
    v, w = sorted(adj[u])
    assert len(engine._isolated(adj, adj[u] | adj[v])) > 3
    for pair in skipped:
        assert not engine._induced(adj, (pair, (u, w)))
    got = getattr(engine._Pool, f"_{rule.lower()}")(pool, u)
    assert got == ReductionStep(rule, step, tuple(range(10)))
    assert not _problems(g, got)


def test_next_reduction_rejects_small_or_disconnected():
    with pytest.raises(ValueError):
        next_reduction(gen_path(10))  # at most the exact threshold
    big_but_split = build_graph(40, [(i, i + 1) for i in range(19)]
                                + [(i, i + 1) for i in range(20, 39)])
    with pytest.raises(ValueError):
        next_reduction(big_but_split)


def test_solve_named_graphs():
    for g, want in (
        (gen_tight9(), 1),
        (build_graph(2, [(0, 1)]), 1),
        (gen_path(20), 7),
        (gen_cycle(20), 6),
        (dodecahedron(), 6),
    ):
        result = solve(g)
        assert len(result.matching) == want
        assert is_induced_matching(g, result.matching)
        assert 9 * len(result.matching) >= result.n - result.isolated

    k2 = solve(build_graph(2, [(0, 1)]))
    assert [s.rule for s in k2.certificate.steps] == ["EXACT"]
    assert k2.matching == ((0, 1),)


def test_solve_rejects_c25(monkeypatch):
    # Only an input component can be C25, so it is rejected at the exact
    # finish of the input's small components, before any rule step.
    def find_step(pool):
        raise AssertionError("a rule step was sought")

    monkeypatch.setattr(engine._Pool, "find_step", find_step)
    with pytest.raises(C25ComponentError) as info:
        solve(gen_c25())
    assert info.value.component == tuple(range(10))
    # also when it is just one component among others
    edges = list(gen_c25().edges()) + [(10, 11)]
    with pytest.raises(C25ComponentError):
        solve(build_graph(12, edges))
    # and after a component too big to finish exactly
    edges = list(gen_path(20).edges())
    edges += [(u + 20, v + 20) for u, v in gen_c25().edges()]
    with pytest.raises(C25ComponentError) as info:
        solve(build_graph(30, edges))
    assert info.value.component == tuple(range(20, 30))
    # a relabeled copy is still caught
    perm = {v: (7 * v + 3) % 10 for v in range(10)}
    edges = [(perm[u], perm[v]) for u, v in gen_c25().edges()]
    with pytest.raises(C25ComponentError):
        solve(build_graph(10, edges))
    # of two relabeled copies, on the even and the odd ids of 10..29, after
    # a 5-vertex path and before a 30-cycle, the one with the lower ids
    edges = [(i, i + 1) for i in range(4)]
    for offset, mult in ((10, 3), (11, 7)):
        perm = {v: offset + 2 * ((mult * v) % 10) for v in range(10)}
        edges += [(perm[u], perm[v]) for u, v in gen_c25().edges()]
    edges += [(u + 30, v + 30) for u, v in gen_cycle(30).edges()]
    with pytest.raises(C25ComponentError) as info:
        solve(build_graph(60, edges))
    assert info.value.component == tuple(range(10, 30, 2))


def test_solve_rejects_degree_five():
    star5 = build_graph(6, [(0, i) for i in range(1, 6)])
    with pytest.raises(MaxDegreeExceededError) as info:
        solve(star5)
    assert info.value.vertex == 0
    assert info.value.degree == 5


def test_degree_error_names_the_smallest_offending_vertex():
    # Two hubs of degree 5; the larger is listed first in the second
    # graph's adjacency, so the error cannot come from iteration order.
    edges = [(9, i) for i in range(10, 15)] + [(2, i) for i in range(3, 8)]
    g = build_graph(15, edges)
    reordered = Graph({v: g.adjacency[v] for v in reversed(g.vertices())})
    for graph in (g, reordered):
        with pytest.raises(MaxDegreeExceededError) as info:
            solve(graph)
        assert (info.value.vertex, info.value.degree) == (2, 5)


def test_solve_handles_isolated_and_components():
    edges = [(i, i + 1) for i in range(8)]  # P9 on 0..8; 9..11 isolated
    g = build_graph(12, edges)
    result = solve(g)
    assert result.isolated == 3
    assert result.n == 12
    assert len(result.matching) == 3
    used = {v for e in result.matching for v in e}
    assert used <= set(range(9))

    two = build_graph(7, [(0, 1), (2, 3), (3, 4), (4, 5), (5, 6)])
    result = solve(two)
    assert len(result.matching) == len(max_induced_matching(two))


def test_solve_certificate_structure():
    prng = SplitMix64(1234)
    for _ in range(20):
        n = 2 + prng.below(60)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        result = solve(g)
        removed_all = []
        matched_all = []
        for step in result.certificate.steps:
            removed_all.extend(step.removed)
            matched_all.extend(step.matched)
            assert set(v for e in step.matched for v in e) <= set(step.removed)
            # each step pays for what it deletes plus what it strands
            assert 9 * len(step.matched) >= len(step.removed)
        # vertices isolated mid-reduction are dropped without appearing in
        # any removed tuple, so coverage is subset, not equality
        assert len(removed_all) == len(set(removed_all))
        assert set(removed_all) <= set(g.vertices())
        assert sorted(matched_all) == list(result.matching)


@pytest.mark.parametrize("removed", [(0, 1), tuple(range(11)) + (19,)])
def test_solve_refuses_an_invalid_rule_step(monkeypatch, removed):
    # The first removal leaves 0's and 1's other neighbors standing, the
    # second deletes 12 vertices for one edge; both must stop the solve.
    bad = ReductionStep("R5", ((0, 1),), removed)
    monkeypatch.setattr(engine._Pool, "find_step", lambda pool: bad)
    with pytest.raises(InvariantViolationError) as info:
        solve(gen_cycle(20))
    assert info.value.rule == "R5"
    assert info.value.witness == ((0, 1),)
    assert info.value.graph.n == 20


def test_solve_exact_on_small_components():
    prng = SplitMix64(31337)
    for _ in range(40):
        n = 2 + prng.below(17)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        result = solve(g)
        assert len(result.matching) == len(max_induced_matching(g))


def test_solved_steps_have_no_instance_dict():
    result = solve(gen_cycle(20))
    step = result.certificate.steps[0]
    for obj in (step, result.certificate, result):
        assert not hasattr(obj, "__dict__")
    copy = ReductionStep(step.rule, step.matched, step.removed)
    assert copy == step and hash(copy) == hash(step)
    assert repr(step).startswith("ReductionStep(rule=")
    assert dataclasses.replace(step, rule="R2").rule == "R2"
    with pytest.raises(dataclasses.FrozenInstanceError):
        step.rule = "R2"


def test_solve_deterministic():
    g = gen_random_maxdeg4(RandomGraphConfig(n=120, extra_edge_attempts=240, seed=5))
    assert solve(g) == solve(g)


def test_solve_matches_oracle_bound_on_random_graphs():
    prng = SplitMix64(271828)
    for _ in range(60):
        n = 2 + prng.below(40)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        result = solve(g)
        assert is_induced_matching(g, result.matching)
        assert 9 * len(result.matching) >= g.n
        if g.m <= 14:
            assert len(result.matching) <= _oracles.nu_s(g)


def _problems(g, step):
    problems = engine._step_violations(g.adjacency, step.matched, step.removed)
    return [m for _, m in problems]


def test_validate_step():
    c20 = gen_cycle(20)
    assert _problems(c20, next_reduction(c20)) == []

    p30 = gen_path(30)
    assert _problems(p30, ReductionStep("R1", ((0, 1),), tuple(range(12)))) == [
        "9*1 matched < 12 removed + 0 isolated"
    ]
    assert _problems(p30, ReductionStep("R5", ((0, 1), (1, 2)), (0, 1, 2, 3)))
    assert _problems(p30, ReductionStep("R5", ((0, 1), (2, 3)), tuple(range(5))))
    assert _problems(p30, ReductionStep("R1", ((0, 2),), (0, 1, 2, 3)))
    # neighbor of a matched endpoint must not survive
    assert _problems(p30, ReductionStep("R1", ((0, 1),), (0, 1)))
    assert _problems(p30, ReductionStep("R1", ((0, 1),), (0, 1, 1, 2))) == [
        "removed list repeats a vertex"
    ]
    assert _problems(p30, ReductionStep("R1", ((0, 1),), (0, 1, 2, 99))) == [
        "removed vertex 99 is not present"
    ]

    # the exact finish rejects C25 before its step is built; were that step
    # ever checked, this check would refuse it as unpaid
    c25 = gen_c25()
    assert engine._step_violations(
        c25.adjacency, max_induced_matching(c25), tuple(range(10))
    ) == [("accounting", "9*1 matched < 10 removed + 0 isolated")]


def test_find_induced_2matching_within():
    p6 = gen_path(6).adjacency
    assert engine._lex_first_2matching(p6, set(range(6))) == ((0, 1), (3, 4))
    assert engine._lex_first_2matching(p6, {0, 1, 2}) is None
    tri = build_graph(3, [(0, 1), (1, 2), (2, 0)]).adjacency
    assert engine._lex_first_2matching(tri, {0, 1, 2}) is None
    star = build_graph(5, [(0, i) for i in range(1, 5)]).adjacency
    assert engine._lex_first_2matching(star, set(range(5))) is None


def test_r10_after_a_degree_drop():
    # Vertex 2 starts at degree 4 and only reaches degree 3, on a 4-cycle,
    # when the R4 step deletes a neighbor.
    g = gen_random_maxdeg4(RandomGraphConfig(32, 128, 3995))
    assert len(g.adjacency[2]) == 4
    result = solve(g)
    assert [st.rule for st in result.certificate.steps] == ["R4", "R10", "R5", "EXACT"]
    assert format_certificate(result) == (
        "step 1 rule R4 match 11-25 remove 3,7,10,11,25\n"
        "step 2 rule R10 match 0-2 remove 0,1,2,5,6,8\n"
        "step 3 rule R5 match 12-19 remove 12,15,19,26\n"
        "step 4 rule EXACT match 4-16,9-13,18-24,20-23,21-31"
        " remove 4,9,13,14,16,17,18,20,21,22,23,24,27,28,29,30,31\n"
        "matching 0-2,4-16,9-13,11-25,12-19,18-24,20-23,21-31\n"
    )


def late_rule_graph(components):
    # Components of 19-40 vertices laid end to end, built the way the
    # mixed_rules benchmark workload is.
    prng = SplitMix64(1)
    edges = []
    n = 0
    for _ in range(components):
        size = 19 + prng.below(22)
        part = gen_random_maxdeg4(
            RandomGraphConfig(size, 4 * size, prng.next_u64())
        )
        edges.extend((u + n, v + n) for u, v in part.edges())
        n += size
    return build_graph(n, edges)


def test_late_rule_certificate_is_pinned():
    # 100 components: every rule up to R10 fires, so a change in which
    # stale queue head is skipped shows up in the digest.
    g = late_rule_graph(100)
    assert g.n == 2970
    result = solve(g)
    fired = {st.rule for st in result.certificate.steps}
    assert fired >= {f"R{k}" for k in range(1, 11)} | {"EXACT"}
    text = format_certificate(result)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "162aacb5842b154c442c6470001e79b122d7a7cd95fe8bba7c018319d5b42f1c"
    )


def generalized_petersen(size, k):
    edges = []
    for i in range(size):
        # outer cycle, spoke, inner chord of step k
        edges.append((i, (i + 1) % size))
        edges.append((i, size + i))
        edges.append((size + i, size + (i + k) % size))
    return edges


def test_cycle_and_edge_rules_mid_reduction_are_pinned():
    # Circulants and generalized Petersen graphs of 19-40 vertices per ring,
    # laid end to end: R9, R11 and R12 each fire many times after earlier
    # steps have cut into the graph, so the order in which their queue
    # heads go live and stale shows up in the digest.
    edges = []
    n = 0
    for size in range(19, 41):
        for chords in ((1, 2), (1, 3), (2, 5)):
            edges.extend((u + n, v + n) for u, v in circulant(size, chords))
            n += size
        for k in (2, 3):
            edges.extend((u + n, v + n) for u, v in generalized_petersen(size, k))
            n += 2 * size
    g = build_graph(n, edges)
    assert g.n == 4543
    result = solve(g)
    counts = Counter(st.rule for st in result.certificate.steps)
    assert (counts["R9"], counts["R11"], counts["R12"]) == (22, 44, 44)
    text = format_certificate(result)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fe2e4fe0d2d02e1081c465726218ba7838ea3017d43aa85073068de865ab9e98"
    )


def test_pool_path_certificate_is_pinned():
    # One 20,000-vertex random graph at the CLI's default density: the
    # reduction cuts off small components mid-run, so which ones
    # split_small finds and in what order shows up in the digest.
    g = gen_random_maxdeg4(RandomGraphConfig(20000, 40000, 7))
    result = solve(g)
    counts = Counter(st.rule for st in result.certificate.steps)
    assert counts == {"R1": 3619, "R2": 95, "R3": 241, "R4": 730, "EXACT": 65}
    text = format_certificate(result)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "fc322549d611e2f00f412c5e29eae3461e7982f93708cb17651091d4dd62fb04"
    )


def test_pool_path_reduction_never_flushes(monkeypatch):
    # R1-R4 and EXACT steps only: find_step never falls through past R4, so
    # no R5-R12 queue is ever filled.
    pools = []
    init = engine._Pool.__init__

    def recording_init(pool, adj, ids):
        init(pool, adj, ids)
        pools.append(pool)

    monkeypatch.setattr(engine._Pool, "__init__", recording_init)
    result = solve(gen_random_maxdeg4(RandomGraphConfig(20000, 40000, 7)))
    assert {st.rule for st in result.certificate.steps} == {
        "R1", "R2", "R3", "R4", "EXACT"
    }
    (pool,) = pools
    assert not pool.adj
    assert [pool.queues[name] for name in engine.RULE_NAMES[4:]] == [[]] * 8
    assert pool.dirty is None


def _small_components_oracle(adj, seeds):
    comps = []
    seen = set()
    for s in seeds:
        if s in adj and s not in seen:
            comp = _oracles.reachable(adj, s)
            seen |= comp
            if len(comp) <= engine.EXACT_THRESHOLD:
                comps.append(sorted(comp))
    return sorted(comps)


def _assert_witnesses_sound(pool):
    # No entry outlives its vertex; every live witness is 19 pool vertices
    # that induce a connected graph, each mapped to that same list, so
    # witnesses are pairwise disjoint and deleting any member reaches it.
    assert pool.big_at.keys() <= pool.adj.keys()
    live = {id(w): w for w in pool.big_at.values() if w}
    for w in live.values():
        assert len(w) == engine.EXACT_THRESHOLD + 1
        assert all(pool.big_at[v] is w for v in w)
        inside = set(w)
        sub = {v: pool.adj[v] & inside for v in w}
        assert _oracles.reachable(sub, w[0]) == inside


def _reduction(g):
    """solve's pool for g, reduced, and the steps it returned."""
    pool = engine._Pool(
        {v: nbrs for v, nbrs in g.adjacency.items() if nbrs}, g.vertices()
    )
    return pool, pool.reduce()


# Random graphs at one to four extra-edge attempts per vertex: the
# reduction cuts many small components off bigger ones.
REDUCTION_CORPUS = tuple(
    gen_random_maxdeg4(RandomGraphConfig(n, per_vertex * n, seed))
    for n, per_vertex, seed in (
        (200, 1, 11), (200, 4, 12), (500, 2, 13), (700, 3, 14),
        (1000, 1, 15), (1000, 4, 16), (2000, 2, 17),
    )
)


def test_split_small_matches_oracle_through_whole_reductions(monkeypatch):
    # Every split_small call and every probe of a rule step's component is
    # checked against the oracle, and the witnesses against the live pool
    # after every apply.
    found = []
    split_small = engine._Pool.split_small
    small_component = engine._Pool._small_component
    apply = engine._Pool.apply

    def checked(pool, seeds):
        comps = split_small(pool, seeds)
        assert comps == _small_components_oracle(pool.adj, seeds)
        found.extend(comps)
        return comps

    def checked_probe(pool, removed):
        comp = small_component(pool, removed)
        assert ([comp] if comp else []) == _small_components_oracle(
            pool.adj, removed[:1]
        )
        probed.append(comp)
        return comp

    def checked_apply(pool, removed):
        apply(pool, removed)
        _assert_witnesses_sound(pool)
        applied.append(removed)

    probed = []
    applied = []
    monkeypatch.setattr(engine._Pool, "split_small", checked)
    monkeypatch.setattr(engine._Pool, "_small_component", checked_probe)
    monkeypatch.setattr(engine._Pool, "apply", checked_apply)
    for g in REDUCTION_CORPUS:
        applied.clear()
        _, steps = _reduction(g)
        assert len(applied) == len(steps)
    assert found
    assert any(probed) and not all(probed)


def _live_small_components(adj):
    comps = []
    seen = set()
    for v in adj:
        if v not in seen:
            comp = _oracles.reachable(adj, v)
            seen |= comp
            if 1 < len(comp) <= engine.EXACT_THRESHOLD:
                comps.append(comp)
    return comps


def test_pool_invariants_hold_after_every_rule_step(monkeypatch):
    # Brute force: each rule step find_step returns lies in a component of
    # more than EXACT_THRESHOLD vertices, and after it is applied every
    # small component left holds a pending vertex, no vertex of a live
    # witness is pending, and the witnesses are sound.
    find_step = engine._Pool.find_step
    apply = engine._Pool.apply
    rule_steps = []

    def checked_find_step(pool):
        step = find_step(pool)
        if step is not None:
            comp = _oracles.reachable(pool.adj, step.removed[0])
            assert len(comp) > engine.EXACT_THRESHOLD
        return step

    def checked_apply(pool, removed):
        apply(pool, removed)
        if pool.rule_steps != len(rule_steps):
            rule_steps.append(removed)
            assert pool.pending.keys() <= pool.adj.keys()
            assert pool.pending.keys().isdisjoint(pool.big_at)
            for comp in _live_small_components(pool.adj):
                assert not comp.isdisjoint(pool.pending), sorted(comp)
            _assert_witnesses_sound(pool)

    monkeypatch.setattr(engine._Pool, "find_step", checked_find_step)
    monkeypatch.setattr(engine._Pool, "apply", checked_apply)
    for g in (*REDUCTION_CORPUS, late_rule_graph(20)):
        rule_steps.clear()
        pool, steps = _reduction(g)
        assert sum(step.rule != "EXACT" for step in steps) == len(rule_steps)
        assert not pool.adj and not pool.pending and not pool.exact_after


def test_next_reduction_applies_nothing(monkeypatch):
    # next_reduction finds and checks the first step of solve's reduction
    # of a connected graph, on a pool it never changes.
    graphs = (*REDUCTION_CORPUS, gen_cycle(20), dodecahedron())
    first = [solve(g).certificate.steps[0] for g in graphs]

    def no_apply(pool, removed):
        raise AssertionError("next_reduction applied a step")

    monkeypatch.setattr(engine._Pool, "apply", no_apply)
    assert [next_reduction(g) for g in graphs] == first


def _assert_exact_steps_placed(g, steps):
    """Replay steps on g with no engine code. Each EXACT step's vertices
    form a component of the live graph when it runs; after the first rule
    step, that component was not one before the rule step that opens the
    step's run of EXACT steps, so that rule step cut it off; and each run
    of EXACT steps is sorted."""
    adj = {v: set(nbrs) for v, nbrs in g.adjacency.items() if nbrs}
    cut = None  # what the rule step opening the current run deleted
    run = []
    for step in steps:
        removed = set(step.removed)
        if step.rule == "EXACT":
            assert removed <= adj.keys()
            assert _oracles.reachable(adj, step.removed[0]) == removed
            assert cut is None or any(g.adjacency[v] & cut for v in removed)
            run.append(step.removed)
        else:
            assert run == sorted(run)
            run = []
        gone = set(removed)
        for x in removed:
            for y in adj.pop(x):
                if y not in removed:
                    adj[y].discard(x)
                    if not adj[y]:
                        del adj[y]
                        gone.add(y)
        if step.rule != "EXACT":
            cut = gone
    assert run == sorted(run)
    assert not adj


def test_exact_steps_follow_the_rule_step_that_cut_them_off():
    graphs = (
        *REDUCTION_CORPUS,
        late_rule_graph(20),
        gen_random_maxdeg4(RandomGraphConfig(20000, 40000, 7)),
        # One rule step cuts off two components, and a later rule step
        # lands in the one with the larger first vertex first.
        gen_random_maxdeg4(RandomGraphConfig(200, 800, 2)),
    )
    runs = 0
    for g in graphs:
        steps = solve(g).certificate.steps
        _assert_exact_steps_placed(g, steps)
        runs += sum(
            a.rule != "EXACT" and b.rule == "EXACT"
            for a, b in zip(steps, steps[1:])
        )
    assert runs > 100


def _patch_rule(monkeypatch, name, fake):
    real = getattr(engine._Pool, f"_{name.lower()}")
    monkeypatch.setattr(
        engine._Pool, f"_{name.lower()}",
        lambda pool, entry: fake(pool, entry, real),
    )


def _first(entry):
    return entry[0] if isinstance(entry, tuple) else entry


def test_a_rule_raising_in_a_cut_off_component_is_tried_again(monkeypatch):
    # R1-R4 raise on every head in a small component. The engine finishes
    # the pending components and evaluates the head again, which is stale
    # by then, so the certificate does not change.
    g = REDUCTION_CORPUS[-1]
    expected = solve(g).certificate
    raised = []

    def fake(pool, entry, real):
        u = _first(entry)
        if u in pool.adj and len(
            _oracles.reachable(pool.adj, u)
        ) <= engine.EXACT_THRESHOLD:
            raised.append(u)
            raise pool.violation("R1", entry, "forced")
        return real(pool, entry)

    for name in engine.RULE_NAMES[:4]:
        _patch_rule(monkeypatch, name, fake)
    assert solve(g).certificate == expected
    assert raised


def test_raises_see_every_cut_off_component_finished(monkeypatch):
    # A rule that raises, or a rule step that fails its check, while small
    # components are pending: the violation's graph has them finished, as
    # it has when every component is finished right after its rule step.
    g = REDUCTION_CORPUS[-1]

    def small_ones_pending(pool):
        return pool.pending and _live_small_components(pool.adj)

    doomed = []  # the first head in a big component met with them pending

    def fake(pool, entry, real):
        u = _first(entry)
        if not doomed and u in pool.adj and small_ones_pending(pool) and len(
            _oracles.reachable(pool.adj, u)
        ) > engine.EXACT_THRESHOLD:
            doomed.append(entry)
        if entry in doomed:
            raise pool.violation("R1", entry, "forced")
        return real(pool, entry)

    with monkeypatch.context() as patch:
        for name in engine.RULE_NAMES[:4]:
            _patch_rule(patch, name, fake)
        with pytest.raises(InvariantViolationError) as info:
            solve(g)
    assert info.value.detail == "forced"
    assert _live_small_components(info.value.graph.adjacency) == []

    find_step = engine._Pool.find_step
    unpaid = []  # the step made unpaid, found again after the sweep

    def unpaid_step(pool):
        step = find_step(pool)
        if step is not None and (step in unpaid or small_ones_pending(pool)):
            unpaid.append(step)
            # Only the endpoints go, so their other neighbours survive.
            ends = tuple(sorted(p for e in step.matched for p in e))
            return ReductionStep(step.rule, step.matched, ends)
        return step

    monkeypatch.setattr(engine._Pool, "find_step", unpaid_step)
    with pytest.raises(InvariantViolationError) as info:
        solve(g)
    assert "survives" in info.value.detail
    assert _live_small_components(info.value.graph.adjacency) == []
    assert len(unpaid) == 2 and unpaid[0] == unpaid[1]


def test_an_unpaid_exact_step_on_a_cut_off_component_raises_once(monkeypatch):
    # The path's last 16 vertices are cut off by a rule step and finished
    # while their survivor is pending. The finish that fails its check must
    # not be swept up and finished a second time.
    monkeypatch.setattr(engine, "max_induced_matching", lambda g: ())
    with pytest.raises(InvariantViolationError) as info:
        solve(gen_path(40))
    assert info.value.rule == "EXACT"
    assert info.value.witness == tuple(range(24, 40))
    assert info.value.__context__ is None


def test_split_small_returns_a_piece_cut_from_a_live_witness():
    # On a path the first probe from 0 proves {0..18} big. Deleting 10
    # leaves 0..9 as a 10-vertex component inside that witness, which the
    # next probe must report instead of trusting the witness.
    path = gen_path(40)
    pool = engine._Pool({v: set(path.adjacency[v]) for v in range(40)}, range(40))
    assert pool.split_small([0]) == []
    assert sorted(pool.big_at[0]) == list(range(19))
    pool.apply({10})
    # The witness died with 10, so both survivors are pending.
    assert pool.pending == {9: 0, 11: 0}
    assert pool.big_at == {}
    assert pool.split_small(sorted(pool.pending)) == [list(range(10))]
    _assert_witnesses_sound(pool)


def _candidates(adj):
    """Every entry each rule's queue could hold on the live graph adj."""
    ends = sorted(u for u in adj if len(adj[u]) == 1)
    at = {u: next(iter(adj[u])) for u in ends}
    pairs = [(u1, u2) for i, u1 in enumerate(ends) for u2 in ends[i + 1 :]]
    verts = sorted(adj)
    yield "R1", [(u, at[u]) for u in ends]
    yield "R2", [(u1, u2, at[u1]) for u1, u2 in pairs if at[u1] == at[u2]]
    # R3 leaves "distance exactly 4" to its queue: the two ends' neighbours
    # must be distinct and apart.
    yield "R3", [
        (u1, u2) for u1, u2 in pairs
        if at[u1] != at[u2] and at[u1] not in adj[at[u2]]
    ]
    yield "R4", ends
    yield "R5", [(u, v) for u in verts for v in adj[u]]
    for name in engine.RULE_NAMES[5:]:
        yield name, verts


def _assert_queues_complete(pool):
    # Every entry on which its rule does not return None, i.e. returns a
    # step or raises, must be queued; and every live end is indexed.
    pool._flush()
    adj = pool.adj
    for name, entries in _candidates(adj):
        rule = getattr(engine._Pool, f"_{name.lower()}")
        queued = set(pool.queues[name])
        for entry in entries:
            try:
                live = rule(pool, entry) is not None
            except InvariantViolationError:
                live = True
            assert not live or entry in queued, (name, entry)
    for y in adj:
        if len(adj[y]) == 1:
            assert y in pool.ends_at[next(iter(adj[y]))]
    # The R1-R4 rules rest on this: an end keeps its one neighbour and dies
    # only with it, so every indexed end is live.
    for v, ends in pool.ends_at.items():
        for u in ends:
            assert u in adj and adj[u] == {v}, (v, u)


def _reduce_checking_queues(g, monkeypatch):
    """Reduce g with the rule queues checked against every entry a rule
    would fire on each time find_step consults them, which is after every
    rule step; returns the rules fired. The input's own small components
    are finished before any end is queued, so the queues are not complete
    until then."""
    find_step = engine._Pool.find_step
    consults = []

    def checked_find_step(pool):
        _assert_queues_complete(pool)
        consults.append(len(pool.adj))
        return find_step(pool)

    monkeypatch.setattr(engine._Pool, "find_step", checked_find_step)
    _, steps = _reduction(g)
    fired = Counter(step.rule for step in steps if step.rule != "EXACT")
    # Every rule step was found on a live pool that the checks saw.
    assert sum(map(bool, consults)) >= sum(fired.values())
    return fired


def test_rule_queues_hold_every_live_entry_through_whole_reductions(monkeypatch):
    # R1-R9 fire on the first graph and R10 on the second. On the third, at
    # the CLI's default density, ends outlive their centre's fall below
    # degree 4, so R1 entries come from the centre's event.
    fired = _reduce_checking_queues(late_rule_graph(20), monkeypatch)
    assert set(fired) == {f"R{k}" for k in range(1, 10)}
    fired = _reduce_checking_queues(
        gen_random_maxdeg4(RandomGraphConfig(32, 128, 3995)), monkeypatch
    )
    assert fired == {"R4": 1, "R10": 1, "R5": 1}
    fired = _reduce_checking_queues(
        gen_random_maxdeg4(RandomGraphConfig(100, 200, 2)), monkeypatch
    )
    assert fired == {"R1": 14, "R4": 5}


def test_ends_of_input_small_components_are_never_queued(monkeypatch):
    # The input's small components are finished before any end event is
    # queued, so when find_step first runs every R1-R4 entry names live
    # vertices only; the 5-vertex path's ends would otherwise be queued.
    big = gen_cycle(30)
    path = [(30 + i, 31 + i) for i in range(4)]
    g = build_graph(36, [*big.edges(), (0, 35), *path])
    find_step = engine._Pool.find_step
    queued = []

    def recording_find_step(pool):
        for name in engine.RULE_NAMES[:4]:
            for entry in pool.queues[name]:
                queued.extend(entry if isinstance(entry, tuple) else (entry,))
        return find_step(pool)

    monkeypatch.setattr(engine._Pool, "find_step", recording_find_step)
    rules = [step.rule for step in _reduction(g)[1]]
    assert rules[0] == "EXACT" and "R1" in rules
    assert queued and not set(queued) & set(range(30, 35))

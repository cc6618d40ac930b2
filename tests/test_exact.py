import pytest

from indmatch import (
    BudgetExceededError,
    RandomGraphConfig,
    SplitMix64,
    build_conflict_graph,
    build_graph,
    gen_c25,
    gen_cycle,
    gen_k33plus,
    gen_path,
    gen_random_maxdeg4,
    gen_tight9,
    is_induced_matching,
    max_induced_matching,
)

import _oracles


def test_conflict_graph_small_paths():
    cg = build_conflict_graph(gen_path(3))
    assert cg.nodes == ((0, 1), (1, 2))
    assert cg.conflicts == ((1,), (0,))  # shared vertex 1

    cg = build_conflict_graph(gen_path(4))
    assert cg.nodes == ((0, 1), (1, 2), (2, 3))
    # the end edges do not touch but the middle edge joins them
    assert cg.conflicts[0] == (1, 2)
    assert cg.conflicts[2] == (0, 1)

    far = build_graph(4, [(0, 1), (2, 3)])
    cg = build_conflict_graph(far)
    assert cg.conflicts == ((), ())

    assert build_conflict_graph(build_graph(3, [])).nodes == ()


def test_conflict_graph_matches_definition():
    prng = SplitMix64(11)
    for _ in range(30):
        n = 2 + prng.below(12)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        cg = build_conflict_graph(g)
        assert list(cg.nodes) == g.edges()
        for i, (a, b) in enumerate(cg.nodes):
            for j, (c, d) in enumerate(cg.nodes):
                if i == j:
                    continue
                touching = bool({a, b} & {c, d})
                joined = any(
                    g.has_edge(x, y) for x in (a, b) for y in (c, d)
                )
                assert (j in cg.conflicts[i]) == (touching or joined)


def test_known_optima():
    cases = [
        (gen_c25(), 1),
        (gen_k33plus(), 1),
        (gen_tight9(), 1),
        (gen_cycle(5), 1),
        (gen_cycle(7), 2),
        (gen_path(7), 2),
        (gen_path(20), 7),
        (gen_cycle(20), 6),
        (build_graph(3, []), 0),
        (build_graph(0, []), 0),
        (build_graph(2, [(0, 1)]), 1),
    ]
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    cases.append((petersen, 3))
    for g, want in cases:
        got = max_induced_matching(g)
        assert len(got) == want
        assert is_induced_matching(g, got)


def test_matches_subset_oracle():
    prng = SplitMix64(2718)
    checked = 0
    for _ in range(120):
        n = 2 + prng.below(9)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=n, seed=prng.next_u64())
        )
        if g.m > 14:
            continue
        checked += 1
        best = max_induced_matching(g)
        assert len(best) == _oracles.nu_s(g)
        adj = {v: set(g.neighbors(v)) for v in g.vertices()}
        assert _oracles.is_induced_matching_ref(adj, best)
    assert checked >= 100


def test_monotone_under_vertex_deletion():
    prng = SplitMix64(5150)
    for _ in range(25):
        n = 3 + prng.below(10)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=n, seed=prng.next_u64())
        )
        whole = len(max_induced_matching(g))
        keep = {v for v in g.vertices() if prng.below(3) != 0}
        sub = g.subgraph(keep)
        assert len(max_induced_matching(sub)) <= whole


def test_budget():
    g = gen_random_maxdeg4(RandomGraphConfig(n=40, extra_edge_attempts=80, seed=1))
    with pytest.raises(BudgetExceededError) as info:
        max_induced_matching(g, max_nodes=5)
    assert info.value.max_nodes == 5
    assert info.value.visited > 5
    # unlimited budget (the default) still finishes on small graphs
    assert max_induced_matching(gen_path(9), max_nodes=0) == (
        (0, 1),
        (3, 4),
        (6, 7),
    )


def test_deterministic_output():
    g = gen_random_maxdeg4(RandomGraphConfig(n=16, extra_edge_attempts=32, seed=9))
    assert max_induced_matching(g) == max_induced_matching(g)
    assert max_induced_matching(gen_path(5)) == ((0, 1), (3, 4))

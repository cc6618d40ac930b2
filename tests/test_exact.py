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
                    y in g.adjacency[x] for x in (a, b) for y in (c, d)
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
        adj = {v: set(g.adjacency[v]) for v in g.vertices()}
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


def test_negative_budget_is_rejected():
    with pytest.raises(ValueError, match="max_nodes"):
        max_induced_matching(gen_path(6), max_nodes=-3)


# (n, nodes visited, optimum returned) for gen_random_maxdeg4 with 4n
# extra-edge attempts and seed n, the density of the benchmark's components.
_PINNED_RANDOM = [
    (11, 15, ((0, 1), (4, 5))),
    (13, 9, ((2, 5), (3, 9), (10, 11))),
    (16, 25, ((0, 9), (5, 6), (7, 15), (10, 12))),
    (18, 69, ((0, 5), (4, 8), (6, 9), (13, 15))),
    (21, 119, ((1, 18), (2, 14), (6, 15), (8, 10), (9, 12))),
    (24, 275, ((1, 2), (4, 6), (12, 13), (15, 16), (17, 22))),
    (26, 127, ((0, 6), (2, 13), (4, 24), (10, 12), (14, 18), (16, 19))),
    (29, 313, ((0, 12), (3, 4), (8, 26), (9, 14), (13, 15), (18, 28),
               (21, 25))),
    (32, 517, ((0, 12), (2, 3), (4, 6), (9, 31), (13, 24), (14, 23), (15, 25),
               (20, 28))),
    (34, 273, ((0, 7), (3, 19), (4, 30), (5, 14), (9, 23), (11, 25), (16, 29),
               (20, 26), (32, 33))),
    (37, 1301, ((1, 7), (3, 30), (5, 8), (9, 13), (14, 32), (22, 26), (25, 35),
                (27, 36), (29, 31))),
    (40, 1129, ((2, 3), (4, 31), (8, 39), (9, 20), (10, 36), (12, 22),
                (13, 15), (18, 24), (25, 26), (27, 35))),
]


def test_search_tree_is_pinned():
    # The optimum chosen among equal-size ones and the number of search
    # nodes are part of the contract: certificates embed the former and
    # max_nodes budgets count the latter.
    cases = [
        (
            gen_random_maxdeg4(
                RandomGraphConfig(n=n, extra_edge_attempts=4 * n, seed=n)
            ),
            visited,
            want,
        )
        for n, visited, want in _PINNED_RANDOM
    ]
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    )
    cases.append((petersen, 1, ((0, 1), (3, 8), (7, 9))))
    cases.append((gen_tight9(), 1, ((0, 1),)))
    for g, visited, want in cases:
        assert max_induced_matching(g, max_nodes=visited) == want
        if visited > 1:  # max_nodes=0 means unlimited
            with pytest.raises(BudgetExceededError) as info:
                max_induced_matching(g, max_nodes=visited - 1)
            assert info.value.visited == visited
        if g.m <= 16:
            assert len(want) == _oracles.nu_s(g)


def test_deterministic_output():
    g = gen_random_maxdeg4(RandomGraphConfig(n=16, extra_edge_attempts=32, seed=9))
    assert max_induced_matching(g) == max_induced_matching(g)
    assert max_induced_matching(gen_path(5)) == ((0, 1), (3, 4))

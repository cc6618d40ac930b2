import pytest

from indmatch import (
    DuplicateEdgeError,
    Graph,
    IdOutOfRangeError,
    SelfLoopError,
    STEP_KINDS,
    SplitMix64,
    UnknownVertexError,
    build_graph,
    format_certificate,
    format_graph,
    format_matching,
    gen_c25,
    gen_path,
    gen_random_maxdeg4,
    gen_tight9,
    is_induced_matching,
    is_isomorphic_c25,
    parse_certificate_text,
    parse_graph_text,
    parse_matching_text,
    solve,
)
from indmatch.generators import RandomGraphConfig

import _enum
import _oracles


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_build_graph_basics():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2 and g.m == 1
    tri = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert all(tri.degree(v) == 2 for v in tri.vertices())
    assert tri.edges() == [(0, 1), (0, 2), (1, 2)]
    empty = build_graph(0, [])
    assert empty.n == 0 and empty.m == 0
    assert empty.max_degree() == 0


def test_build_graph_rejects_bad_edges():
    with pytest.raises(SelfLoopError):
        build_graph(3, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, [(0, 1), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(IdOutOfRangeError):
        build_graph(2, [(0, 2)])
    with pytest.raises(IdOutOfRangeError):
        build_graph(2, [(-1, 0)])
    with pytest.raises(IdOutOfRangeError):
        build_graph(-1, [])


def _neighbours_are_key_objects(g):
    own = {v: v for v in g.adjacency}
    return all(own[u] is u for nbrs in g.adjacency.values() for u in nbrs)


def test_each_id_is_one_int_object():
    # The graph's memory footprint rests on this, and no digest would show
    # its loss: every neighbour id is the graph's own key object for that
    # vertex, not an int made while parsing. CPython caches ints up to 256
    # only, so on 2,000 vertices a copy shows.
    g = gen_random_maxdeg4(
        RandomGraphConfig(n=2000, extra_edge_attempts=4000, seed=5)
    )
    assert _neighbours_are_key_objects(g)
    assert _neighbours_are_key_objects(parse_graph_text(format_graph(g)))
    fresh = [(int(str(u)), int(str(v))) for u, v in g.edges()]
    assert _neighbours_are_key_objects(build_graph(g.n, fresh))


def test_parsed_ids_are_the_graphs_int_objects():
    # indmatch verify parses the matching and the certificate with the
    # graph's ids, so no vertex id is held twice; each rule name is its
    # STEP_KINDS constant.
    g = parse_graph_text(format_graph(
        gen_random_maxdeg4(RandomGraphConfig(n=2000, extra_edge_attempts=4000, seed=5))
    ))
    result = solve(g)
    ids = g.vertices()
    own = {v: v for v in g.adjacency}
    matching = parse_matching_text(format_matching(result.matching), ids)
    cert, cert_matching = parse_certificate_text(format_certificate(result), ids)
    assert matching == cert_matching == result.matching
    assert cert == result.certificate
    kinds = {kind: kind for kind in STEP_KINDS}
    parsed = [x for pair in matching + cert_matching for x in pair]
    for step in cert.steps:
        assert kinds[step.rule] is step.rule
        parsed.extend(x for pair in step.matched for x in pair)
        parsed.extend(step.removed)
    assert len(parsed) > 2000 and all(own[x] is x for x in parsed)


def test_graph_constructor_validates():
    with pytest.raises(UnknownVertexError):
        Graph({0: {1}})
    with pytest.raises(UnknownVertexError):
        Graph({0: {1}, 1: set()})
    with pytest.raises(SelfLoopError):
        Graph({0: {0}})


def test_adjacency_view_is_read_only():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(TypeError):
        g.adjacency[0] = set()
    assert isinstance(g.neighbors(0), frozenset)


def test_degree_and_neighbors():
    g = path(3)
    assert g.degree(1) == 2
    assert g.neighbors(1) == {0, 2}
    assert g.max_degree() == 2
    for call in (lambda: g.degree(9), lambda: g.neighbors(9)):
        with pytest.raises(UnknownVertexError):
            call()
    c25 = gen_c25()
    assert all(c25.degree(v) == 4 for v in c25.vertices())
    lone = build_graph(1, [])
    assert lone.degree(0) == 0 and lone.neighbors(0) == frozenset()


def test_components():
    g = build_graph(4, [(0, 1), (2, 3)])
    assert g.components() == [(0, 1), (2, 3)]
    assert gen_c25().components() == [tuple(range(10))]
    assert build_graph(0, []).components() == []
    assert build_graph(1, []).components() == [(0,)]


def test_components_agree_with_reachability():
    prng = SplitMix64(5)
    for _ in range(20):
        n = 2 + prng.below(12)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=n, seed=prng.next_u64())
        )
        # random graphs are connected; punch them apart
        g = g.subgraph([v for v in g.vertices() if prng.below(4) != 0])
        comps = g.components()
        assert sorted(v for comp in comps for v in comp) == list(g.vertices())
        adj = {v: set(g.neighbors(v)) for v in g.vertices()}
        for comp in comps:
            assert _oracles.reachable(adj, comp[0]) == set(comp)


def test_subgraph():
    p = path(5)
    sub = p.subgraph({1, 2, 4})
    assert sub.vertices() == (1, 2, 4)
    assert sub.edges() == [(1, 2)]
    with pytest.raises(UnknownVertexError):
        p.subgraph({0, 9})


def test_is_induced_matching():
    p5 = path(5)
    assert is_induced_matching(p5, [(0, 1), (3, 4)])
    assert not is_induced_matching(path(4), [(0, 1), (2, 3)])
    assert is_induced_matching(p5, [])
    assert not is_induced_matching(p5, [(0, 2)])  # not an edge
    assert not is_induced_matching(p5, [(0, 0)])
    assert not is_induced_matching(p5, [(0, 1), (1, 2)])  # shared endpoint
    assert not is_induced_matching(p5, [(0, 1), (0, 1)])
    with pytest.raises(UnknownVertexError):
        is_induced_matching(p5, [(0, 9)])


def test_is_induced_matching_matches_reference():
    prng = SplitMix64(314)
    for _ in range(50):
        n = 4 + prng.below(10)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        edges = g.edges()
        k = 1 + prng.below(3)
        pairs = [edges[prng.below(len(edges))] for _ in range(k)]
        adj = {v: set(g.neighbors(v)) for v in g.vertices()}
        assert is_induced_matching(g, pairs) == _oracles.is_induced_matching_ref(
            adj, pairs
        )


def test_c25_recognition_positive():
    assert is_isomorphic_c25(gen_c25())
    # an explicit relabeling
    perm = {v: (3 * v + 1) % 10 for v in range(10)}
    edges = [(perm[u], perm[v]) for u, v in gen_c25().edges()]
    assert is_isomorphic_c25(build_graph(10, edges))
    # random relabelings
    prng = SplitMix64(7)
    for _ in range(20):
        order = list(range(10))
        for i in range(9, 0, -1):
            j = prng.below(i + 1)
            order[i], order[j] = order[j], order[i]
        edges = [(order[u], order[v]) for u, v in gen_c25().edges()]
        assert is_isomorphic_c25(build_graph(10, edges))


def test_c25_recognition_negative():
    assert not is_isomorphic_c25(gen_tight9())  # n = 9
    # K_{5,5} minus a perfect matching: 4-regular on 10 vertices but bipartite
    edges = [(i, 5 + j) for i in range(5) for j in range(5) if i != j]
    assert not is_isomorphic_c25(build_graph(10, edges))
    # circulant with chords 1 and 2: 4-regular on 10 vertices but has triangles
    edges = [(i, (i + 1) % 10) for i in range(10)]
    edges += [(i, (i + 2) % 10) for i in range(10)]
    assert not is_isomorphic_c25(build_graph(10, edges))
    assert not is_isomorphic_c25(gen_path(10))


def _pairing_model_4regular(prng, n):
    # Random pairing of 4n half-edges, redrawn until simple.
    while True:
        points = [v for v in range(n) for _ in range(4)]
        for i in range(len(points) - 1, 0, -1):
            j = prng.below(i + 1)
            points[i], points[j] = points[j], points[i]
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, len(points), 2)}
        if len(edges) == 2 * n and all(a != b for a, b in edges):
            return build_graph(n, sorted(edges))


def test_c25_recognition_matches_reference():
    c25 = gen_c25()
    model = {v: set(c25.neighbors(v)) for v in c25.vertices()}
    edges = c25.edges()
    candidates = [c25]
    # Every double-edge switch ab, cd -> ad, cb keeps the graph 4-regular.
    for i, e in enumerate(edges):
        for f in edges[i + 1 :]:
            for (a, b), (c, d) in ((e, f), (e, f[::-1])):
                if len({a, b, c, d}) < 4 or d in model[a] or b in model[c]:
                    continue
                kept = [x for x in edges if x != e and x != f]
                candidates.append(build_graph(10, kept + [(a, d), (c, b)]))
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    candidates.append(build_graph(10, k5 + [(i + 5, j + 5) for i, j in k5]))
    prng = SplitMix64(2510)
    candidates += [_pairing_model_4regular(prng, 10) for _ in range(60)]
    for g in candidates:
        assert all(g.degree(v) == 4 for v in g.vertices())
        adj = {v: set(g.neighbors(v)) for v in g.vertices()}
        assert is_isomorphic_c25(g) == _enum.isomorphic(adj, model), g.edges()

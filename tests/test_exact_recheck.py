"""The verifier's EXACT re-check against two references.

harness._has_induced_matching decides by a search over vertices whether a
graph holds an induced matching of a given size; the replay calls it at the
step's size k and at k + 1. Here it must answer yes at the oracle's optimum
and no one edge above it, on every small connected class and on generated
graphs of at most 16 edges (the oracle's cap). Past that cap, on the
component sizes the engine finishes exactly, the reference is the engine's
own solver, which searches over edges instead of vertices.
"""

import pytest

from indmatch import (
    RandomGraphConfig,
    SplitMix64,
    gen_random_maxdeg4,
    harness,
    max_induced_matching,
)

import _enum
import _oracles

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _masks(adjacency):
    order = sorted(adjacency)
    index = {v: i for i, v in enumerate(order)}
    nbrs = [sum(1 << index[y] for y in adjacency[v]) for v in order]
    return nbrs, (1 << len(order)) - 1


def _answers(n, edges):
    """(k, found k, found k + 1), k being the oracle's optimum on the graph
    with vertices 0..n-1 and the given edges."""
    adjacency = {v: set() for v in range(n)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    k = _oracles.conflict_free_subset_max(n, edges, adjacency)
    nbrs, full = _masks(adjacency)
    budget = [0]
    return (
        k,
        harness._has_induced_matching(nbrs, full, k, budget),
        harness._has_induced_matching(nbrs, full, k + 1, budget),
    )


def test_search_matches_the_oracle_on_every_class_up_to_seven_vertices():
    classes = _enum.connected_maxdeg4_classes(7)
    wrong = []
    for n, adjs in sorted(classes.items()):
        for adj in adjs:
            edges = sorted((a, b) for a in adj for b in adj[a] if a < b)
            k, at_k, above = _answers(n, edges)
            if not at_k or above:
                wrong.append((edges, k, at_k, above))
    assert sum(len(adjs) for adjs in classes.values()) == 462
    assert wrong == []


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 12))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    if not pairs:
        return n, []
    edges = draw(st.lists(st.sampled_from(pairs), max_size=16, unique=True))
    return n, sorted(edges)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(small_graphs())
def test_search_matches_the_oracle_on_generated_graphs(graph):
    n, edges = graph
    k, at_k, above = _answers(n, edges)
    assert at_k, f"no induced matching of {k} edges found"
    assert not above, f"an induced matching of {k + 1} edges found"


def test_search_matches_the_exact_solver_on_threshold_sized_components():
    # Random connected components of 11-18 vertices, as the small_components
    # workload draws them. The memo is only exercised in earnest here: small
    # graphs rarely meet one mask at two sizes.
    prng = SplitMix64(11)
    checked = 0
    wrong = []
    while checked < 1500:
        n = 11 + prng.below(8)
        g = gen_random_maxdeg4(RandomGraphConfig(
            n=n, extra_edge_attempts=prng.below(5 * n), seed=prng.next_u64()
        ))
        if len(g.components()) != 1:
            continue
        checked += 1
        k = len(max_induced_matching(g))
        nbrs, full = _masks(g.adjacency)
        budget = [0]
        at_k = harness._has_induced_matching(nbrs, full, k, budget)
        above = harness._has_induced_matching(nbrs, full, k + 1, budget)
        if not at_k or above:
            wrong.append(g.edges())
    assert wrong == []

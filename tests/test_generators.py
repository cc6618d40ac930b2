import hashlib

import hypothesis
import hypothesis.strategies as st
import pytest

from indmatch import (
    RandomGraphConfig,
    SplitMix64,
    format_graph,
    gen_c25,
    gen_cycle,
    gen_k33plus,
    gen_path,
    gen_random_maxdeg4,
    gen_tight9,
    is_isomorphic_c25,
    splitmix64_next,
)
from indmatch.generators import _gen_random_capped

import _oracles

MASK64 = (1 << 64) - 1


def test_splitmix64_frozen_vectors():
    assert _oracles.splitmix64_sequence(0, 5) == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
        0x1B39896A51A8749B,
    ]
    prng = SplitMix64(0)
    assert [prng.next_u64() for _ in range(5)] == _oracles.splitmix64_sequence(0, 5)

    prng = SplitMix64(42)
    assert [prng.next_u64() for _ in range(3)] == [
        0xBDD732262FEB6E95,
        0x28EFE333B266F103,
        0x47526757130F9F52,
    ]

    value, state = splitmix64_next(MASK64)
    assert value == 0xE4D971771B652C20
    assert state == (MASK64 + 0x9E3779B97F4A7C15) & MASK64


def test_splitmix64_matches_reference_on_random_seeds():
    seeds = SplitMix64(123)
    for _ in range(25):
        seed = seeds.next_u64()
        prng = SplitMix64(seed)
        assert [prng.next_u64() for _ in range(8)] == _oracles.splitmix64_sequence(
            seed, 8
        )


def test_below_draws():
    prng = SplitMix64(1)
    before = prng.state
    assert prng.below(1) == 0
    assert prng.state == before  # bound 1 consumes no output
    with pytest.raises(ValueError):
        prng.below(0)
    # A bound of 2**64 keeps whole outputs; a larger one cannot be drawn.
    assert SplitMix64(5).below(2**64) == SplitMix64(5).next_u64()
    with pytest.raises(ValueError) as info:
        prng.below(2**64 + 1)
    assert str(info.value) == f"below({2**64 + 1}) needs a bound of at most 2**64"
    for n in (2, 3, 7, 10, 1000):
        prng = SplitMix64(17)
        draws = [prng.below(n) for _ in range(200)]
        assert all(0 <= d < n for d in draws)
    # small bounds hit every residue
    prng = SplitMix64(6)
    assert {prng.below(3) for _ in range(100)} == {0, 1, 2}


def test_below_is_top_bits_rejection():
    # reimplements the documented draw straight from the reference stream
    def reference_below(seed, n, draws):
        stream = iter(_oracles.splitmix64_sequence(seed, 64))
        shift = 64 - (n - 1).bit_length()
        out = []
        for _ in range(draws):
            while True:
                r = next(stream) >> shift
                if r < n:
                    out.append(r)
                    break
        return out

    for seed, n in ((0, 5), (42, 6), (9, 12), (77, 100)):
        prng = SplitMix64(seed)
        assert [prng.below(n) for _ in range(10)] == reference_below(seed, n, 10)


def test_gen_c25():
    g = gen_c25()
    assert g.n == 10 and g.m == 20
    assert all(g.degree(v) == 4 for v in g.vertices())
    assert is_isomorphic_c25(g)
    for i in range(5):
        assert i + 5 not in g.neighbors(i)
        j = (i + 1) % 5
        for a in (i, i + 5):
            for b in (j, j + 5):
                assert b in g.neighbors(a)


def test_gen_k33plus():
    g = gen_k33plus()
    assert g.n == 7 and g.m == 10
    assert g.max_degree() == 3
    assert 3 not in g.neighbors(0)
    assert 6 in g.neighbors(0) and 6 in g.neighbors(3)
    assert sorted(g.degree(v) for v in g.vertices()) == [2, 3, 3, 3, 3, 3, 3]
    assert len(g.components()) == 1


def test_gen_tight9():
    g = gen_tight9()
    assert g.n == 9 and g.m == 16
    assert len(g.components()) == 1
    assert g.max_degree() == 4
    assert not is_isomorphic_c25(g)
    assert g.edges() == [e for e in gen_c25().edges() if 9 not in e]


def test_gen_path_and_cycle():
    p = gen_path(5)
    assert p.edges() == [(0, 1), (1, 2), (2, 3), (3, 4)]
    assert gen_path(1).n == 1 and gen_path(1).m == 0
    c = gen_cycle(5)
    assert c.edges() == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert all(c.degree(v) == 2 for v in c.vertices())
    with pytest.raises(ValueError):
        gen_path(0)
    with pytest.raises(ValueError):
        gen_cycle(2)


def test_gen_random_shape():
    prng = SplitMix64(404)
    for _ in range(40):
        n = 1 + prng.below(60)
        cfg = RandomGraphConfig(
            n=n, extra_edge_attempts=2 * n, seed=prng.next_u64()
        )
        g = gen_random_maxdeg4(cfg)
        assert g.n == n
        assert g.max_degree() <= 4
        assert len(g.components()) == 1
        again = gen_random_maxdeg4(cfg)
        assert again.edges() == g.edges()


def test_gen_random_edges():
    g = gen_random_maxdeg4(RandomGraphConfig(n=1, extra_edge_attempts=5, seed=0))
    assert g.n == 1 and g.m == 0
    tree = gen_random_maxdeg4(RandomGraphConfig(n=30, extra_edge_attempts=0, seed=3))
    assert tree.m == 29
    dense = gen_random_maxdeg4(RandomGraphConfig(n=30, extra_edge_attempts=60, seed=3))
    assert dense.m > tree.m
    with pytest.raises(ValueError):
        gen_random_maxdeg4(RandomGraphConfig(n=0, extra_edge_attempts=0, seed=0))
    with pytest.raises(ValueError):
        gen_random_maxdeg4(RandomGraphConfig(n=2, extra_edge_attempts=-1, seed=0))


def test_gen_random_capped_at_three():
    prng = SplitMix64(88)
    for _ in range(25):
        n = 2 + prng.below(17)
        cfg = RandomGraphConfig(
            n=n, extra_edge_attempts=2 * n, seed=prng.next_u64()
        )
        g = _gen_random_capped(cfg, cap=3)
        assert g.max_degree() <= 3
        assert len(g.components()) == 1


def _random_ref(n, attempts, seed, cap):
    """The random generator's edges with every attempt made, no early stop."""
    prng = SplitMix64(seed)
    adj = [set() for _ in range(n)]
    for v in range(1, n):
        u = prng.below(v)
        while len(adj[u]) >= cap:
            u = prng.below(v)
        adj[u].add(v)
        adj[v].add(u)
    for _ in range(attempts):
        u = prng.below(n)
        v = prng.below(n)
        if u != v and v not in adj[u] and max(len(adj[u]), len(adj[v])) < cap:
            adj[u].add(v)
            adj[v].add(u)
    return sorted((u, v) for u in range(n) for v in adj[u] if u < v)


def test_gen_random_stops_once_no_edge_can_be_added():
    # Past the point where every two vertices below the cap are adjacent no
    # attempt can change the graph, so 10**30 attempts end at once with the
    # graph that any number of attempts from there gives.
    for cap in (3, 4):
        for n in range(1, 13):
            for seed in range(4):
                many = _gen_random_capped(RandomGraphConfig(n, 10**30, seed), cap)
                fewer = _gen_random_capped(RandomGraphConfig(n, 10**5, seed), cap)
                assert many.edges() == fewer.edges()
                assert many.edges() == _random_ref(n, 2000, seed, cap)
                adj = many.adjacency
                below = [v for v in adj if len(adj[v]) < cap]
                assert all(v in adj[u] for u in below for v in below if u != v)


# The sizes where bit_length(n - 1), and so the draw's shift, changes.
_BIT_BOUNDARIES = sorted({m for k in range(11) for m in (2**k, 2**k + 1)})


@st.composite
def random_configs(draw):
    n = draw(st.one_of(st.integers(1, 70), st.sampled_from(_BIT_BOUNDARIES)))
    attempts = draw(st.integers(0, 60 * n))
    seed = draw(st.integers(-(2**64), 2**66))
    cap = draw(st.sampled_from((3, 4)))
    return n, attempts, seed, cap


# Each example saturates: every two vertices below the cap end adjacent long
# before the attempts run out, so the generator stops early and the
# reference makes every remaining draw.
@hypothesis.example((5, 300, 0, 4))
@hypothesis.example((9, 540, -1, 3))
@hypothesis.example((17, 1020, 2**64 + 5, 4))
@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(random_configs())
def test_gen_random_draws_the_reference_stream(config):
    n, attempts, seed, cap = config
    g = _gen_random_capped(RandomGraphConfig(n, attempts, seed), cap)
    assert g.edges() == _random_ref(n, attempts, seed, cap)


def test_gen_random_output_bytes_are_pinned():
    text = format_graph(gen_random_maxdeg4(RandomGraphConfig(1000, 2000, 7604)))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7a3c68ae4359765658e282d8ea240e1b2749b0358c371a9db92cedc76d5fa044"
    )

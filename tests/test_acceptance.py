"""End-to-end acceptance checks.

Each test covers one numbered delivery criterion and prints a single
"criterion N: PASS/FAIL" line so a log scan shows the whole scorecard.
Time limits are asserted with wide margins against the measured costs.
"""

import math
from contextlib import redirect_stdout
from io import StringIO
from time import perf_counter

from indmatch import (
    C25ComponentError,
    FuzzConfig,
    RandomGraphConfig,
    SplitMix64,
    build_graph,
    fuzz,
    gen_c25,
    gen_k33plus,
    gen_random_maxdeg4,
    gen_tight9,
    is_isomorphic_c25,
    max_induced_matching,
    solve,
    verify_certificate,
    verify_solution,
)
from indmatch.cli import run as cli_run
from indmatch.formats import format_graph
from indmatch.generators import _gen_random_capped

import _enum
import _oracles

EXPECTED_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 78, 7: 353, 8: 1929}


def _report(num, ok, detail=""):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {detail}"


def _edges(adj):
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def test_criterion_1_excluded_graphs_have_one_edge_optimum():
    started = perf_counter()
    nu_c25 = len(max_induced_matching(gen_c25()))
    t_c25 = perf_counter() - started
    started = perf_counter()
    nu_k33 = len(max_induced_matching(gen_k33plus()))
    t_k33 = perf_counter() - started
    ok = nu_c25 == 1 and nu_k33 == 1 and t_c25 < 1.0 and t_k33 < 1.0
    _report(1, ok, f"nu={nu_c25},{nu_k33} in {t_c25:.3f}s/{t_k33:.3f}s")


def test_criterion_2_nine_vertex_tight_instance():
    g = gen_tight9()
    started = perf_counter()
    result = solve(g)
    exact = max_induced_matching(g)
    elapsed = perf_counter() - started
    ok = (len(result.matching) == 1 and len(exact) == 1
          and verify_solution(g, result.matching).ok and elapsed < 1.0)
    _report(2, ok, f"solve={len(result.matching)} exact={len(exact)}"
                   f" in {elapsed:.3f}s")


def test_criterion_3_excluded_component_is_refused(tmp_path):
    raised = False
    try:
        solve(gen_c25())
    except C25ComponentError as exc:
        raised = exc.component == tuple(range(10))
    graph = tmp_path / "c25.txt"
    graph.write_text(format_graph(gen_c25()))
    with redirect_stdout(StringIO()):
        code = cli_run(["solve", str(graph)])
    _report(3, raised and code == 3, f"raised={raised} exit={code}")


def test_criterion_4_bound_holds_exhaustively_then_sampled():
    started = perf_counter()
    problems = []

    classes = _enum.connected_maxdeg4_classes(8)
    counts = {n: len(v) for n, v in classes.items()}
    if counts != EXPECTED_CLASS_COUNTS:
        problems.append(f"class counts {counts}")
    for n, adjs in sorted(classes.items()):
        if n < 2:
            continue  # a single vertex is isolated; the bound charges it to i(G)
        for adj in adjs:
            g = build_graph(n, _edges(adj))
            if len(max_induced_matching(g)) < 1:
                problems.append(f"n={n} class below bound: {g.edges()}")

    prng = SplitMix64(20260815)
    for _ in range(300):
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=9, extra_edge_attempts=18, seed=prng.next_u64())
        )
        if len(max_induced_matching(g)) < 1:
            problems.append(f"n=9 sample below bound: {g.edges()}")

    for _ in range(300):
        n = 10 + prng.below(11)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        if is_isomorphic_c25(g):
            continue
        if len(max_induced_matching(g)) < math.ceil(n / 9):
            problems.append(f"n={n} sample below bound: {g.edges()}")

    elapsed = perf_counter() - started
    if elapsed >= 120.0:
        problems.append(f"took {elapsed:.1f}s")
    _report(4, not problems,
            problems[0] if problems else f"{sum(counts.values())} classes"
                                         f" + 600 samples in {elapsed:.1f}s")


def test_criterion_5_fuzz_campaign_is_clean():
    started = perf_counter()
    report = fuzz(FuzzConfig(trials=1000, n_min=2, n_max=300, seed=42))
    elapsed = perf_counter() - started
    ok = report.ok and elapsed < 120.0
    _report(5, ok, f"failures={len(report.failures)}"
                   f" skipped={report.skipped_c25} in {elapsed:.1f}s")


def test_criterion_6_small_components_are_solved_exactly():
    prng = SplitMix64(606060)
    problems = []
    for _ in range(200):
        n = 2 + prng.below(17)  # connected, so the one component has <= 18
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        got = len(solve(g).matching)
        want = len(max_induced_matching(g))
        if got != want:
            problems.append(f"n={n}: solve {got} != optimum {want}")
    _report(6, not problems, problems[0] if problems else "200 instances")


def test_criterion_7_search_agrees_with_subset_enumeration():
    prng = SplitMix64(77777)
    checked = 0
    problems = []
    for _ in range(500):
        n = 2 + prng.below(11)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=n, seed=prng.next_u64())
        )
        if g.m > 12:
            continue
        checked += 1
        got = len(max_induced_matching(g))
        want = _oracles.nu_s(g)
        if got != want:
            problems.append(f"edges {g.edges()}: search {got} != naive {want}")
    if checked < 100:
        problems.append(f"only {checked} graphs had at most 12 edges")
    _report(7, not problems,
            problems[0] if problems else f"{checked} graphs agreed")


def _is_bipartite(g):
    color = {}
    for start in g.vertices():
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            x = queue.pop()
            for y in g.adjacency[x]:
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return False
    return True


def _is_k33(g):
    return (g.n == 6 and g.m == 9
            and all(len(s) == 3 for s in g.adjacency.values())
            and _is_bipartite(g))


def _is_k33plus(g):
    # the subdivided K33 also has one-edge optimum, so the n/6 bound
    # cannot hold for it; it is the only subcubic graph exempted
    if g.n != 7 or g.m != 10 or max(map(len, g.adjacency.values())) != 3:
        return False
    mine = {v: set(g.adjacency[v]) for v in g.vertices()}
    ref = gen_k33plus()
    return _enum.isomorphic(mine, {v: set(ref.adjacency[v])
                                   for v in ref.vertices()})


def test_criterion_8_subcubic_graphs_meet_the_sixth_bound():
    prng = SplitMix64(888888)
    checked = 0
    skipped = 0
    problems = []
    while checked < 200:
        n = 2 + prng.below(17)
        g = _gen_random_capped(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64()),
            cap=3,
        )
        if max(map(len, g.adjacency.values())) > 3:
            problems.append("generator exceeded the degree cap")
            break
        if _is_k33(g) or _is_k33plus(g):
            skipped += 1
            continue
        checked += 1
        if 6 * len(max_induced_matching(g)) < g.n:
            problems.append(f"n={g.n} below n/6: {g.edges()}")
    _report(8, not problems,
            problems[0] if problems else f"200 instances, {skipped} exempt")


def test_criterion_9_fifty_thousand_vertices_in_seconds():
    g = gen_random_maxdeg4(
        RandomGraphConfig(n=50_000, extra_edge_attempts=100_000, seed=7)
    )
    started = perf_counter()
    result = solve(g)
    t_solve = perf_counter() - started
    started = perf_counter()
    report = verify_certificate(g, result)
    t_verify = perf_counter() - started
    ok = report.ok and t_solve < 5.0 and t_verify < 5.0
    _report(9, ok, f"solve {t_solve:.2f}s verify {t_verify:.2f}s"
                   f" matched {len(result.matching)}")


def test_criterion_10_identical_seeds_identical_bytes(tmp_path):
    graph = tmp_path / "g.txt"
    with redirect_stdout(StringIO()):
        cli_run(["gen", "--family", "random", "--n", "500", "--seed", "13",
                 "--out", str(graph)])

    def run_bytes(argv):
        buf = StringIO()
        with redirect_stdout(buf):
            code = cli_run(argv)
        return code, buf.getvalue()

    solve_a = run_bytes(["solve", str(graph)])
    solve_b = run_bytes(["solve", str(graph)])
    fuzz_args = ["fuzz", "--trials", "60", "--nmin", "2", "--nmax", "50",
                 "--seed", "99"]
    fuzz_a = run_bytes(fuzz_args)
    fuzz_b = run_bytes(fuzz_args)
    ok = (solve_a == solve_b and fuzz_a == fuzz_b
          and solve_a[0] == 0 and fuzz_a[0] == 0)
    _report(10, ok, "solve and fuzz reruns matched byte for byte")

import dataclasses
from time import perf_counter

import pytest

from indmatch import (
    Certificate,
    FuzzConfig,
    RandomGraphConfig,
    ReductionStep,
    SolveResult,
    SplitMix64,
    build_graph,
    fuzz,
    gen_c25,
    gen_path,
    gen_random_maxdeg4,
    max_induced_matching,
    solve,
    splitmix64_next,
    verify_certificate,
    verify_solution,
)
from indmatch import harness


def test_verify_solution_accepts_good_matching():
    report = verify_solution(gen_path(5), [(0, 1), (3, 4)])
    assert report.ok
    assert report.induced_ok and report.bound_ok
    assert report.details == ()


def test_verify_solution_rejects_joined_pairs():
    report = verify_solution(gen_path(4), [(0, 1), (2, 3)])
    assert not report.induced_ok
    assert report.bound_ok
    assert report.details == ("edge 1-2 joins two matched pairs",)


def test_verify_solution_rejects_undersized_matching():
    report = verify_solution(build_graph(2, [(0, 1)]), [])
    assert report.induced_ok
    assert not report.bound_ok
    assert report.details == ("9*0 matched < 2 vertices - 0 isolated",)


def test_verify_solution_structural_details():
    g = gen_path(6)
    report = verify_solution(g, [(0, 9), (0, 2), (1, 1), (2, 3), (3, 4)])
    assert not report.induced_ok
    assert "pair 0-9 uses a vertex the graph lacks" in report.details
    assert "pair 0-2 is not an edge" in report.details
    assert "pair 1-1 is degenerate" in report.details
    assert "vertex 3 appears in two matched pairs" in report.details


def test_verify_solution_counts_isolated():
    g = build_graph(11, [(0, 1)])  # one edge, nine isolated vertices
    assert verify_solution(g, [(0, 1)]).ok
    assert not verify_solution(g, []).ok


def test_verify_certificate_accepts_solver_output():
    prng = SplitMix64(60221023)
    for _ in range(25):
        n = 2 + prng.below(120)
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=n, extra_edge_attempts=2 * n, seed=prng.next_u64())
        )
        result = solve(g)
        report = verify_certificate(g, result)
        assert report.ok, report.details


def _tampered(result, **changes):
    return dataclasses.replace(result, **changes)


def test_verify_certificate_catches_dropped_step():
    g = gen_path(20)
    result = solve(g)
    bad = _tampered(
        result, certificate=Certificate(result.certificate.steps[1:])
    )
    report = verify_certificate(g, bad)
    assert not report.induced_ok
    assert any("never processed" in d for d in report.details)


def test_verify_certificate_catches_shrunk_removed():
    g = gen_path(20)
    result = solve(g)
    first = result.certificate.steps[0]
    shrunk = ReductionStep(first.rule, first.matched, first.removed[:-1])
    bad = _tampered(
        result,
        certificate=Certificate((shrunk,) + result.certificate.steps[1:]),
    )
    report = verify_certificate(g, bad)
    assert not report.induced_ok
    assert any("survives" in d or "never processed" in d for d in report.details)


def test_verify_certificate_catches_overlapping_removed():
    g = gen_path(20)
    result = solve(g)
    first, second = result.certificate.steps
    widened = ReductionStep(second.rule, second.matched, (0,) + second.removed)
    bad = _tampered(result, certificate=Certificate((first, widened)))
    report = verify_certificate(g, bad)
    assert not report.induced_ok
    assert any("unavailable or repeated" in d for d in report.details)


def test_verify_certificate_catches_suboptimal_exact():
    g = gen_path(20)
    result = solve(g)
    first, second = result.certificate.steps
    assert second.rule == "EXACT"
    weakened = ReductionStep("EXACT", second.matched[:-1], second.removed)
    bad = _tampered(
        result,
        certificate=Certificate((first, weakened)),
        matching=first.matched + weakened.matched,
    )
    report = verify_certificate(g, bad)
    assert not report.ok
    assert "step 2 exact step matched 5 edges, the optimum is 6" in report.details


def test_verify_certificate_catches_an_exact_step_above_the_optimum():
    g = gen_path(20)
    result = solve(g)
    first, second = result.certificate.steps
    # One extra edge is refuted at once; two make the search step down.
    for extra in (((17, 18),), ((14, 15), (17, 18))):
        inflated = ReductionStep("EXACT", second.matched + extra, second.removed)
        bad = _tampered(
            result,
            certificate=Certificate((first, inflated)),
            matching=first.matched + inflated.matched,
        )
        report = verify_certificate(g, bad)
        assert not report.induced_ok
        claimed = 6 + len(extra)
        assert (
            f"step 2 exact step matched {claimed} edges, the optimum is 6"
            in report.details
        )


def test_verify_certificate_catches_corrupted_matching():
    g = gen_path(20)
    result = solve(g)
    bad = _tampered(result, matching=result.matching[:-1])
    report = verify_certificate(g, bad)
    assert not report.induced_ok
    assert any("do not assemble" in d for d in report.details)


def test_verify_certificate_catches_wrong_counts():
    g = gen_path(20)
    result = solve(g)
    report = verify_certificate(g, _tampered(result, n=21))
    assert any("says n=21" in d for d in report.details)
    report = verify_certificate(g, _tampered(result, isolated=2))
    assert any("says 2 isolated" in d for d in report.details)


def test_verify_certificate_catches_partial_component_exact():
    g = gen_path(6)
    fake = SolveResult(
        ((0, 1),),
        Certificate((
            ReductionStep("EXACT", ((0, 1),), (0, 1, 2)),
            ReductionStep("EXACT", ((3, 4),), (3, 4, 5)),
        )),
        6,
        0,
    )
    report = verify_certificate(g, fake)
    assert not report.induced_ok
    assert any("not a whole component" in d for d in report.details)
    assert any("do not assemble" in d for d in report.details)


def test_verify_certificate_catches_disconnected_exact():
    g = build_graph(4, [(0, 1), (2, 3)])
    fake = SolveResult(
        ((0, 1), (2, 3)),
        Certificate((ReductionStep("EXACT", ((0, 1), (2, 3)), (0, 1, 2, 3)),)),
        4,
        0,
    )
    report = verify_certificate(g, fake)
    assert not report.induced_ok
    assert any("not connected" in d for d in report.details)


def test_verify_certificate_catches_empty_exact():
    g = gen_path(4)
    fake = SolveResult((), Certificate((ReductionStep("EXACT", (), ()),)), 4, 0)
    report = verify_certificate(g, fake)
    assert not report.induced_ok
    assert "step 1 exact step removes no vertices" in report.details
    assert any("never processed" in d for d in report.details)


def test_verify_certificate_catches_unknown_rule():
    g = gen_path(20)
    result = solve(g)
    first, second = result.certificate.steps
    renamed = ReductionStep("R0", first.matched, first.removed)
    bad = _tampered(result, certificate=Certificate((renamed, second)))
    report = verify_certificate(g, bad)
    assert any("unknown rule R0" in d for d in report.details)


def test_verify_certificate_refuses_an_oversized_exact():
    g = gen_path(70)
    optimum = tuple((3 * i, 3 * i + 1) for i in range(23))
    forged = SolveResult(
        optimum,
        Certificate((ReductionStep("EXACT", optimum, tuple(range(70))),)),
        70,
        0,
    )
    report = verify_certificate(g, forged)
    assert not report.induced_ok
    assert report.details == (
        "step 1 exact component of 70 vertices is too large to re-check",
    )


def test_verify_certificate_refuses_a_huge_exact_in_linear_time():
    # The step check finds touching pairs through their endpoints, so the
    # 13,333 pairs of this forged step are not compared pairwise.
    g = gen_path(40_000)
    pairs = tuple((3 * i, 3 * i + 1) for i in range(13_333))
    forged = SolveResult(
        pairs,
        Certificate((ReductionStep("EXACT", pairs, g.vertices()),)),
        g.n,
        0,
    )
    started = perf_counter()
    report = verify_certificate(g, forged)
    assert perf_counter() - started < 10
    assert not report.ok
    assert report.details == (
        "step 1 exact component of 40000 vertices is too large to re-check",
    )


def _single_exact(g):
    # The whole of g as one EXACT step with its true optimum, so the size
    # is the only thing wrong with it when g has more than 18 vertices.
    optimum = max_induced_matching(g)
    step = ReductionStep("EXACT", optimum, g.vertices())
    return SolveResult(optimum, Certificate((step,)), g.n, 0)


def test_verify_certificate_rechecks_only_threshold_sized_exact(monkeypatch):
    calls = []
    search = harness._has_induced_matching

    def counting(nbrs, full, need, budget):
        calls.append(len(nbrs))
        return search(nbrs, full, need, budget)

    small = _single_exact(gen_path(18))
    big = _single_exact(gen_path(19))
    monkeypatch.setattr(harness, "_has_induced_matching", counting)
    assert verify_certificate(gen_path(18), small).ok
    # The step's own pairs show the claimed size; one search refutes a size
    # one larger.
    assert calls == [18]
    report = verify_certificate(gen_path(19), big)
    assert not report.induced_ok
    assert report.details == (
        "step 1 exact component of 19 vertices is too large to re-check",
    )
    assert calls == [18]


def test_verify_certificate_reports_an_exhausted_recheck(monkeypatch):
    # The step's 4 pairs show 4 edges exist, and the re-check of this
    # component pops 225 nodes refuting 5; a budget of one stops it at the
    # second.
    g = gen_random_maxdeg4(
        RandomGraphConfig(n=18, extra_edge_attempts=72, seed=18)
    )
    result = solve(g)
    assert [s.rule for s in result.certificate.steps] == ["EXACT"]
    assert verify_certificate(g, result).ok
    monkeypatch.setattr(harness, "_RECHECK_BUDGET", 1)
    report = verify_certificate(g, result)
    assert not report.induced_ok
    assert report.details == (
        "step 1 exact component re-check ran out of search budget",
    )


def test_fuzz_config_validation():
    with pytest.raises(ValueError):
        fuzz(FuzzConfig(trials=0))
    with pytest.raises(ValueError):
        fuzz(FuzzConfig(n_min=0))
    with pytest.raises(ValueError):
        fuzz(FuzzConfig(n_min=10, n_max=5))


def test_fuzz_defaults():
    config = FuzzConfig()
    assert config.trials == 1000
    assert config.n_min == 2
    assert config.n_max == 300
    assert config.seed == 0


def test_fuzz_small_run_passes_and_repeats():
    config = FuzzConfig(trials=40, n_min=2, n_max=40, seed=7)
    first = fuzz(config)
    second = fuzz(config)
    assert first.ok
    assert first.trials == 40
    assert first.failures == ()
    assert first.summary_lines() == second.summary_lines()
    assert first.summary_lines()[:3] == ["trials 40", "skipped 0", "failures 0"]
    # timing is observed, not part of the deterministic summary
    assert first.max_seconds > 0.0
    assert all("seconds" not in line for line in first.summary_lines())


def test_fuzz_trial_seeds_are_isolated():
    # the same trial index yields the same instance regardless of trials count
    a = fuzz(FuzzConfig(trials=3, n_min=2, n_max=30, seed=11))
    b = fuzz(FuzzConfig(trials=5, n_min=2, n_max=30, seed=11))
    assert a.ok and b.ok
    assert a.skipped_c25 == 0 and b.skipped_c25 == 0


def test_fuzz_records_a_check_that_raises(monkeypatch):
    def broken(g, result, solution):
        raise RuntimeError("replay crashed")

    # fuzz replays the certificate through _replay_report, handing it the
    # solution report it already has.
    monkeypatch.setattr("indmatch.harness._replay_report", broken)
    report = fuzz(FuzzConfig(trials=1, n_min=20, n_max=20, seed=3))
    assert not report.ok
    (failure,) = report.failures
    assert failure.kind == "check raised RuntimeError"
    assert failure.details == ("replay crashed",)
    assert report.summary_lines()[2:] == [
        "failures 1", f"trial 0 seed {failure.seed} check raised RuntimeError",
    ]


def test_fuzz_checks_each_solution_once(monkeypatch):
    # The certificate replay reuses the trial's solution report.
    calls = []
    real = harness.verify_solution

    def counted(g, matching):
        calls.append(g)
        return real(g, matching)

    monkeypatch.setattr(harness, "verify_solution", counted)
    report = fuzz(FuzzConfig(trials=6, n_min=2, n_max=40, seed=8))
    assert report.ok and report.skipped_c25 == 0
    assert len(calls) == 6


def test_fuzz_reports_each_failed_check_with_its_trial(monkeypatch):
    real_solve = harness.solve

    def repeats_a_pair(g):
        result = real_solve(g)
        return _tampered(result, matching=result.matching + result.matching[:1])

    monkeypatch.setattr(harness, "solve", repeats_a_pair)
    monkeypatch.setattr(harness, "max_induced_matching", lambda g: ())
    report = fuzz(FuzzConfig(trials=2, n_min=20, n_max=20, seed=5))
    kinds = (
        "solution check failed",
        "certificate check failed",
        "matching exceeds the optimum",
        "optimum below the guarantee",
    )
    assert [(f.trial, f.seed, f.kind) for f in report.failures] == [
        (t, splitmix64_next(5 + t)[0], kind) for t in range(2) for kind in kinds
    ]
    assert report.failures[3].details == ("9*0 < 20 - 0",)

    monkeypatch.setattr(harness, "gen_random_maxdeg4", lambda config: gen_c25())
    report = fuzz(FuzzConfig(trials=3, n_min=2, n_max=30, seed=5))
    assert report.skipped_c25 == 3
    assert report.failures == ()


def _forged(g, *steps):
    """A result whose matching is what its steps claim: (rule, matched,
    removed) triples, replayed in order."""
    steps = tuple(ReductionStep(*s) for s in steps)
    matching = tuple(sorted(p for s in steps for p in s.matched))
    isolated = sum(1 for nbrs in g.adjacency.values() if not nbrs)
    return SolveResult(matching, Certificate(steps), g.n, isolated)


def _replay_outcome(g, *steps):
    report = verify_certificate(g, _forged(g, *steps))
    return report.induced_ok, report.bound_ok, report.details


# Each rejection path of the replay's step check, with its exact message and
# the one flag it clears. The rest of each certificate is valid, so a problem
# filed under the wrong flag shows.

def test_replay_refuses_a_repeated_removal():
    assert _replay_outcome(
        gen_path(6), ("R1", ((0, 1),), (0, 1, 1, 2)), ("R1", ((3, 4),), (3, 4, 5)),
    ) == (False, True, ("step 1 removes unavailable or repeated vertices",))


def test_replay_refuses_an_absent_removed_vertex():
    assert _replay_outcome(
        gen_path(6), ("R1", ((0, 1),), (0, 1, 2, 99)), ("R1", ((3, 4),), (3, 4, 5)),
    ) == (False, True, ("step 1 removes unavailable or repeated vertices",))
    # A vertex that an earlier step already removed is absent too.
    assert _replay_outcome(
        gen_path(6), ("R1", ((0, 1),), (0, 1, 2)), ("R1", ((3, 4),), (2, 3, 4, 5)),
    ) == (False, True, ("step 2 removes unavailable or repeated vertices",))


def test_replay_flags_a_matched_edge_on_a_missing_vertex():
    assert _replay_outcome(
        gen_path(6), ("R1", ((0, 9),), (0, 1, 2)), ("R1", ((3, 4),), (3, 4, 5)),
    ) == (False, True, (
        "pair 0-9 uses a vertex the graph lacks",
        "step 1 matched edge 0-9 uses a missing vertex",
    ))


def test_replay_flags_a_matched_pair_that_is_not_an_edge():
    assert _replay_outcome(
        gen_path(6), ("R1", ((0, 2),), (0, 1, 2)), ("R1", ((3, 4),), (3, 4, 5)),
    ) == (False, True, (
        "pair 0-2 is not an edge",
        "step 1 matched pair 0-2 is not an edge",
    ))


def test_replay_flags_an_endpoint_that_is_not_removed():
    # Vertex 1 is left behind; both its neighbours go, so it is isolated.
    assert _replay_outcome(
        gen_path(6), ("R1", ((0, 1),), (0, 2)), ("R1", ((3, 4),), (3, 4, 5)),
    ) == (False, True, (
        "step 1 neighbor 1 of matched endpoint 0 survives",
        "step 1 matched endpoint 1 is not removed",
    ))


def test_replay_flags_a_neighbour_that_survives():
    assert _replay_outcome(
        gen_path(6), ("R1", ((0, 1),), (0, 1)), ("R1", ((3, 4),), (2, 3, 4, 5)),
    ) == (False, True, ("step 1 neighbor 2 of matched endpoint 1 survives",))


def test_replay_flags_matched_edges_that_touch():
    assert _replay_outcome(
        gen_path(5), ("R2", ((0, 1), (2, 3)), (0, 1, 2, 3, 4)),
    ) == (False, True, (
        "edge 1-2 joins two matched pairs",
        "step 1 matched edges (0, 1) and (2, 3) touch via 1-2",
    ))
    assert _replay_outcome(
        gen_path(5), ("R2", ((0, 1), (1, 2)), (0, 1, 2, 3, 4)),
    ) == (False, True, (
        "vertex 1 appears in two matched pairs",
        "edge 1-2 joins two matched pairs",
        "step 1 matched edges share endpoints",
        "step 1 matched edges (0, 1) and (1, 2) touch via 0-1",
        "step 1 matched edges (0, 1) and (1, 2) touch via 1-2",
    ))


def test_replay_flags_an_unpaid_rule_step():
    # Path 0..9 plus the edge 10-11. Step 1 removes 0..8 and leaves 9
    # isolated: ten vertices for one edge. The whole matching meets the bound.
    g = build_graph(12, [(i, i + 1) for i in range(9)] + [(10, 11)])
    assert _replay_outcome(
        g, ("R1", ((0, 1),), tuple(range(9))), ("EXACT", ((10, 11),), (10, 11)),
    ) == (True, False, ("step 1 9*1 matched < 9 removed + 1 isolated",))


def test_replay_on_a_graph_with_isolated_vertices():
    g = build_graph(23, [(i, i + 1) for i in range(19)])  # 20, 21, 22 isolated
    result = solve(g)
    assert result.isolated == 3
    assert verify_certificate(g, result).details == ()
    report = verify_certificate(g, _tampered(result, isolated=2))
    assert (report.induced_ok, report.bound_ok) == (False, True)
    assert report.details == ("result says 2 isolated vertices, the graph has 3",)
    # An isolated vertex is never in the replay graph, so no step removes it.
    first, second = result.certificate.steps
    widened = ReductionStep(second.rule, second.matched, second.removed + (20,))
    report = verify_certificate(
        g, _tampered(result, certificate=Certificate((first, widened)))
    )
    assert (report.induced_ok, report.bound_ok) == (False, True)
    assert report.details == ("step 2 removes unavailable or repeated vertices",)

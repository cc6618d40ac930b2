import argparse
import gc
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from indmatch import (
    FuzzConfig,
    RandomGraphConfig,
    ReductionStep,
    build_graph,
    fuzz,
    gen_c25,
    gen_cycle,
    gen_path,
    gen_random_maxdeg4,
    parse_certificate_text,
    parse_graph_text,
    solve,
    verify_certificate,
)
from indmatch import engine
from indmatch.cli import _EXACT_MAX_EDGES, _build_parser, run
from indmatch.formats import format_certificate, format_graph


def _run(argv):
    buf = StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_gen_named_families():
    code, out = _run(["gen", "--family", "c25"])
    assert code == 0
    assert out == format_graph(gen_c25())
    assert out.startswith("10 20\n")
    code, out = _run(["gen", "--family", "tight9"])
    assert code == 0
    assert out.startswith("9 16\n")
    code, out = _run(["gen", "--family", "k33plus"])
    assert code == 0
    assert out.startswith("7 10\n")


def test_gen_path_and_cycle():
    code, out = _run(["gen", "--family", "path", "--n", "5"])
    assert code == 0
    assert out == "5 4\n0 1\n1 2\n2 3\n3 4\n"
    code, out = _run(["gen", "--family", "cycle", "--n", "4"])
    assert code == 0
    assert out == "4 4\n0 1\n0 3\n1 2\n2 3\n"


def test_gen_random_deterministic():
    first = _run(["gen", "--family", "random", "--n", "40", "--seed", "9"])
    second = _run(["gen", "--family", "random", "--n", "40", "--seed", "9"])
    other = _run(["gen", "--family", "random", "--n", "40", "--seed", "10"])
    assert first == second
    assert first[0] == 0
    assert first[1] != other[1]


def test_gen_out_writes_file(tmp_path):
    target = tmp_path / "g.txt"
    code, out = _run(["gen", "--family", "c25", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == format_graph(gen_c25())


def test_gen_usage_errors():
    assert _run(["gen", "--family", "random"])[0] == 4  # --n required
    assert _run(["gen", "--family", "bogus"])[0] == 4
    assert _run(["gen"])[0] == 4
    assert _run(["gen", "--family", "path", "--n", "0"])[0] == 4  # ValueError


def test_solve_verify_flow(tmp_path):
    graph = tmp_path / "p20.txt"
    matching = tmp_path / "m.txt"
    cert = tmp_path / "c.txt"
    assert _run(["gen", "--family", "path", "--n", "20",
                 "--out", str(graph)])[0] == 0

    code, out = _run(["solve", str(graph), "--certificate", str(cert)])
    assert code == 0
    assert out.splitlines()[0] == "0 1"
    assert len(out.splitlines()) == 7
    matching.write_text(out)

    code, out = _run(["verify", str(graph), str(matching),
                      "--certificate", str(cert)])
    assert code == 0
    assert out == "ok\n"

    code, out = _run(["verify", str(graph), str(matching)])
    assert code == 0
    assert out == "ok\n"


def test_solve_rejects_excluded_graph(tmp_path):
    graph = tmp_path / "c25.txt"
    graph.write_text(format_graph(gen_c25()))
    assert _run(["solve", str(graph)])[0] == 3


def test_solve_rejects_high_degree(tmp_path):
    graph = tmp_path / "star5.txt"
    graph.write_text(format_graph(build_graph(6, [(0, i) for i in range(1, 6)])))
    assert _run(["solve", str(graph)])[0] == 2


def test_solve_threshold_validation(tmp_path):
    # The exact-finish size is fixed, so any threshold is a usage error.
    graph = tmp_path / "p20.txt"
    graph.write_text(format_graph(gen_path(20)))
    assert _run(["solve", str(graph), "--threshold", "9"])[0] == 4
    assert _run(["solve", str(graph), "--threshold", "19"])[0] == 4


def test_parse_and_io_failures(tmp_path):
    missing = tmp_path / "nope.txt"
    assert _run(["solve", str(missing)])[0] == 4
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 one\n")
    assert _run(["solve", str(bad)])[0] == 4
    assert _run([])[0] == 4
    assert _run(["frobnicate"])[0] == 4
    assert _run(["--help"])[0] == 0
    assert _run(["solve", "--help"])[0] == 0


def _run_child_in_1gib(argv):
    """Run the CLI on argv in a child process under a 1 GiB address-space
    limit, set on the child alone."""
    resource = pytest.importorskip("resource")

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "indmatch.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=limit_memory,
    )


def test_huge_header_exits_4_without_a_traceback(tmp_path):
    # An 11-byte file names fifty million isolated vertices, a legal graph
    # that does not fit under a 1 GiB address-space limit.
    graph = tmp_path / "huge.txt"
    graph.write_text("50000000 0\n")
    run = _run_child_in_1gib(["solve", str(graph)])
    assert run.returncode == 4
    assert run.stderr == "error: out of memory\n"
    assert run.stdout == ""


@pytest.mark.parametrize("count", [2**62, 2**63 - 1])
def test_gen_random_extreme_count_exits_4_without_a_traceback(tmp_path, count):
    # Counts a list may hold in principle but memory cannot: the id list is
    # refused as out of memory before the generator sizes cap * n slots,
    # which past sys.maxsize would raise OverflowError instead. The child
    # runs under a 1 GiB address-space limit.
    out = tmp_path / "g.txt"
    run = _run_child_in_1gib(
        ["gen", "--family", "random", "--n", str(count), "--out", str(out)]
    )
    assert run.returncode == 4
    assert run.stderr == "error: out of memory\n"
    assert run.stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "exact", "verify", "gen", "gen-path"])
def test_vertex_count_past_sys_maxsize_exits_4(tmp_path, capsys, command):
    # No list holds 2^63 ids, so the count is refused before anything is
    # allocated: one error line, no traceback.
    count = 2**63
    graph = tmp_path / "big.txt"
    graph.write_text(f"{count} 0\n")
    matching = tmp_path / "m.txt"
    matching.write_text("")
    argv = {
        "solve": ["solve", str(graph)],
        "exact": ["exact", str(graph)],
        "verify": ["verify", str(graph), str(matching)],
        "gen": ["gen", "--family", "random", "--n", str(count)],
        "gen-path": ["gen", "--family", "path", "--n", str(count)],
    }[command]
    assert _run(argv) == (4, "")
    assert capsys.readouterr().err == (
        f"error: vertex count {count} is more than {sys.maxsize}\n"
    )


def test_fuzz_size_span_past_64_bits_exits_4(capsys):
    assert _run(["fuzz", "--trials", "1", "--nmax", str(10**23)]) == (4, "")
    assert capsys.readouterr().err == (
        f"error: below({10**23 - 1}) needs a bound of at most 2**64\n"
    )


def test_exact_command(tmp_path):
    graph = tmp_path / "p9.txt"
    graph.write_text(format_graph(gen_path(9)))
    code, out = _run(["exact", str(graph)])
    assert code == 0
    assert len(out.splitlines()) == 3

    big = tmp_path / "big.txt"
    assert _run(["gen", "--family", "random", "--n", "60", "--seed", "1",
                 "--out", str(big)])[0] == 0
    assert _run(["exact", str(big), "--budget", "1"])[0] == 7
    assert _run(["exact", str(graph), "--budget", "-3"])[0] == 4


def test_exact_refuses_a_graph_past_its_edge_cap(tmp_path, capsys):
    # A path of cap + 1 vertices has cap edges and is solved; one vertex
    # more is refused before the search starts.
    at_cap = tmp_path / "at.txt"
    at_cap.write_text(format_graph(gen_path(_EXACT_MAX_EDGES + 1)))
    assert _run(["exact", str(at_cap)])[0] == 0
    capsys.readouterr()
    past = tmp_path / "past.txt"
    past.write_text(format_graph(gen_path(_EXACT_MAX_EDGES + 2)))
    assert _run(["exact", str(past)]) == (4, "")
    assert capsys.readouterr().err == (
        f"error: exact takes at most {_EXACT_MAX_EDGES} edges;"
        f" the graph has {_EXACT_MAX_EDGES + 1}\n"
    )


def test_exact_on_a_big_graph_exits_4_without_building_masks(tmp_path):
    # The 34,163 edges of this graph would need 266 MB of conflict masks
    # and about 0.3 s per search node, so without the edge cap the command
    # runs far past the timeout. The child runs under a 1 GiB address-space
    # limit, so a search that did start could not take the host's memory.
    graph = tmp_path / "g.txt"
    assert _run(["gen", "--family", "random", "--n", "20000", "--seed", "1",
                 "--out", str(graph)])[0] == 0
    run = _run_child_in_1gib(["exact", str(graph)])
    assert run.returncode == 4
    assert run.stderr == (
        f"error: exact takes at most {_EXACT_MAX_EDGES} edges;"
        " the graph has 34163\n"
    )
    assert run.stdout == ""


def test_verify_detects_bad_matching(tmp_path):
    graph = tmp_path / "p4.txt"
    matching = tmp_path / "m.txt"
    graph.write_text(format_graph(gen_path(4)))
    matching.write_text("0 1\n2 3\n")
    code, out = _run(["verify", str(graph), str(matching)])
    assert code == 6
    assert "edge 1-2 joins two matched pairs" in out


def test_verify_detects_matching_certificate_mismatch(tmp_path):
    graph = tmp_path / "p20.txt"
    matching = tmp_path / "m.txt"
    cert = tmp_path / "c.txt"
    graph.write_text(format_graph(gen_path(20)))
    assert _run(["solve", str(graph), "--certificate", str(cert)])[0] == 0
    matching.write_text("0 1\n")
    code, out = _run(["verify", str(graph), str(matching),
                      "--certificate", str(cert)])
    assert code == 6
    assert "certificate matching differs from the matching file" in out


def test_fuzz_command(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # any failure dumps land here, not in the repo
    code, out = _run(["fuzz", "--trials", "25", "--nmin", "2", "--nmax", "30",
                      "--seed", "3"])
    assert code == 0
    lines = out.splitlines()
    assert lines == ["trials 25", "skipped 0", "failures 0"]
    assert list(tmp_path.glob("fuzz-fail-*.txt")) == []


def test_fuzz_usage_errors():
    assert _run(["fuzz", "--trials", "0"])[0] == 4
    assert _run(["fuzz", "--trials", "x"])[0] == 4


def test_invariant_violation_leaves_a_replay_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "c20.txt"
    graph.write_text(format_graph(gen_cycle(20)))
    bad = ReductionStep("R5", ((0, 1),), (0, 1))
    monkeypatch.setattr(engine._Pool, "find_step", lambda pool: bad)
    code, out = _run(["solve", str(graph)])
    assert code == 5
    assert out == ""
    text = (tmp_path / "invariant-fail.txt").read_text()
    header = [line for line in text.splitlines() if line.startswith("#")]
    assert "# rule R5" in header
    assert "# witness ((0, 1),)" in header
    assert parse_graph_text(text).n == 20


def test_unpaid_exact_step_leaves_a_replay_file(tmp_path, monkeypatch):
    # A component that is small in the input is finished by the pool too,
    # so an EXACT step that matches nothing fails its own step check.
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "c12.txt"
    graph.write_text(format_graph(gen_cycle(12)))
    monkeypatch.setattr(engine, "max_induced_matching", lambda g: ())
    code, out = _run(["solve", str(graph)])
    assert code == 5
    text = (tmp_path / "invariant-fail.txt").read_text()
    lines = text.splitlines()
    assert "# rule EXACT" in lines
    assert f"# witness {tuple(range(12))}" in lines
    assert [line for line in lines if not line.startswith("#")][0] == "12 12"


def test_violation_replay_file_keeps_input_ids(tmp_path, monkeypatch):
    # After the first step the pool has lost 0, 1 and 2; the written graph
    # must still number vertex 3 as 3, the id the witness names.
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "p40.txt"
    graph.write_text(format_graph(gen_path(40)))
    real = engine._Pool.find_step
    calls = []

    def fail_from_second_call(pool):
        # Again on the retry after the sweep of pending vertices.
        calls.append(pool)
        if len(calls) >= 2:
            raise pool.violation("R4", (3,), "forced failure")
        return real(pool)

    monkeypatch.setattr(engine._Pool, "find_step", fail_from_second_call)
    assert _run(["solve", str(graph)])[0] == 5
    text = (tmp_path / "invariant-fail.txt").read_text()
    lines = text.splitlines()
    assert "# witness (3,)" in lines
    assert [line for line in lines if not line.startswith("#")][0] == "40 36"
    assert set(parse_graph_text(text).adjacency[3]) == {4}


def test_readme_lists_every_cli_flag():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("Subcommands:", 1)[1].split("Exit codes:", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", section))
    (subparsers,) = (
        a for a in _build_parser()._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    offered = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
        if flag.startswith("--") and flag != "--help"
    }
    assert documented == offered


def _verify_stdout(tmp_path, graph, matching, cert):
    paths = []
    for name, text in (("g.txt", graph), ("m.txt", matching), ("c.txt", cert)):
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    return _run(["verify", *paths[:2], "--certificate", paths[2]])


def test_verify_stdout_bytes_for_failing_inputs(tmp_path):
    p4 = format_graph(gen_path(4))
    # The matching file and the certificate hold the same bad matching: its
    # problems print once for the file and again in the certificate report.
    assert _verify_stdout(
        tmp_path, p4, "0 1\n2 3\n",
        "step 1 rule R2 match 0-1,2-3 remove 0,1,2,3\nmatching 0-1,2-3\n",
    ) == (6, (
        "edge 1-2 joins two matched pairs\n"
        "edge 1-2 joins two matched pairs\n"
        "step 1 matched edges (0, 1) and (2, 3) touch via 1-2\n"
    ))
    p20 = format_graph(gen_path(20))
    cert = (
        "step 1 rule R1 match 0-1 remove 0,1,2\n"
        "step 2 rule EXACT match 3-4,6-7,9-10,12-13,15-16,18-19"
        " remove 3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19\n"
        "matching 0-1,3-4,6-7,9-10,12-13,15-16,18-19\n"
    )
    good = "".join(f"{a} {a + 1}\n" for a in (0, 3, 6, 9, 12, 15, 18))
    assert _verify_stdout(tmp_path, p20, good, cert) == (0, "ok\n")
    assert _verify_stdout(tmp_path, p20, "0 1\n", cert) == (6, (
        "9*1 matched < 20 vertices - 0 isolated\n"
        "certificate matching differs from the matching file\n"
    ))
    tampered = cert.replace("remove 0,1,2\n", "remove 0,1\n")
    assert _verify_stdout(tmp_path, p20, good, tampered) == (6, (
        "step 1 neighbor 2 of matched endpoint 1 survives\n"
        "step 2 exact removal is not a whole component (edges to [2])\n"
        "step 2 neighbor 2 of matched endpoint 3 survives\n"
    ))
    # Ids that name no vertex (-1, n, 2^63) stay as parsed for the replay
    # to report; the ids of the graph's vertices are its own int objects.
    big = 2**63
    exact = "3-4,6-7,9-10,12-13,15-16,18-19"
    hostile = (
        f"step 1 rule R1 match 0-1,20-{big} remove 0,1,2\n"
        f"step 2 rule EXACT match {exact}"
        f" remove {','.join(map(str, range(3, 20)))}\n"
        f"step 3 rule R4 match 0-1 remove -1,20,{big}\n"
        f"matching 0-1,{exact},20-{big}\n"
    )
    assert _verify_stdout(tmp_path, p20, good + "-1 5\n", hostile) == (6, (
        "pair -1-5 uses a vertex the graph lacks\n"
        "certificate matching differs from the matching file\n"
        f"pair 20-{big} uses a vertex the graph lacks\n"
        f"step 1 matched edge 20-{big} uses a missing vertex\n"
        "step 3 removes unavailable or repeated vertices\n"
    ))


@pytest.mark.parametrize("enabled", (True, False))
def test_run_pauses_the_gc_and_restores_its_state(tmp_path, monkeypatch, enabled):
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "c20.txt"
    graph.write_text(format_graph(gen_cycle(20)))
    bad = tmp_path / "bad.txt"
    bad.write_text("2 1\n0 one\n")
    matching = tmp_path / "m.txt"
    matching.write_text("0 1\n1 2\n")
    during = []

    def unpaid_step(pool):
        during.append(gc.isenabled())
        return ReductionStep("R5", ((0, 1),), (0, 1))

    cases = (
        (0, ["gen", "--family", "path", "--n", "5"]),
        (4, ["solve", str(bad)]),
        (6, ["verify", str(graph), str(matching)]),
        (5, ["solve", str(graph)]),
    )
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for code, argv in cases:
            if code == 5:
                monkeypatch.setattr(engine._Pool, "find_step", unpaid_step)
            assert _run(argv)[0] == code
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert during == [False]


def test_commands_leave_no_cyclic_garbage():
    # Commands run with the cyclic GC paused, so whatever they drop must be
    # freed by reference counting alone.
    g = gen_random_maxdeg4(RandomGraphConfig(n=300, extra_edge_attempts=600, seed=5))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        parsed = parse_graph_text(format_graph(g))
        result = solve(parsed)
        cert, matching = parse_certificate_text(format_certificate(result))
        assert verify_certificate(parsed, result).ok
        assert fuzz(FuzzConfig(trials=5, n_min=20, n_max=60, seed=2)).ok
        del parsed, result, cert, matching
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()

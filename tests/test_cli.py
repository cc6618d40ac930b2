from contextlib import redirect_stdout
from io import StringIO

from indmatch import (
    ReductionStep,
    build_graph,
    gen_c25,
    gen_cycle,
    gen_path,
    parse_graph_text,
)
from indmatch import engine
from indmatch.cli import run
from indmatch.formats import format_graph


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
    graph = tmp_path / "p20.txt"
    graph.write_text(format_graph(gen_path(20)))
    assert _run(["solve", str(graph), "--threshold", "9"])[0] == 4
    code, out = _run(["solve", str(graph), "--threshold", "19"])
    assert code == 0
    assert len(out.splitlines()) == 7


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


def test_final_check_failure_leaves_a_replay_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    graph = tmp_path / "c20.txt"
    graph.write_text(format_graph(gen_cycle(20)))
    monkeypatch.setattr(engine, "is_induced_matching", lambda g, pairs: False)
    code, out = _run(["solve", str(graph)])
    assert code == 5
    text = (tmp_path / "invariant-fail.txt").read_text()
    assert "# rule final" in text.splitlines()
    assert parse_graph_text(text).n == 20

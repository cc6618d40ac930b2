"""Smoke test of the benchmark at tiny sizes.

    python -m pytest -q bench/test_smoke.py

Checks that every metric BENCHMARK.json declares is printed with its unit,
that the certificate digest and the engine counts repeat across runs and
between the timed and the traced run, and that the benchmark refuses to run
without the package's sources.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

TINY = {
    "tiny_union": {"components": 4, "n_min": 19, "n_max": 30, "extra_per_vertex": 4},
    "tiny_random": {"components": 1, "n_min": 300, "n_max": 300, "extra_per_vertex": 2},
}


def _load_run():
    spec = importlib.util.spec_from_file_location("indmatch_bench_run", BENCH_DIR / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bench(capsys, workload, trace):
    run = _load_run()
    code = run.main(
        ["--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        TINY,
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(line for line in lines if line.startswith("certificate_sha256 "))
    counts = json.loads(next(line for line in lines if line.startswith("counts "))[7:])
    return code, result, digest, counts, lines


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _assert_reports(result, lines, kind):
    """The JSON result and the printed table both carry every declared
    metric with its declared unit."""
    declared = _declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    table = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) > 2:
            table[fields[0]] = fields[2]
    for name, unit in declared.items():
        assert table[name] == unit


def test_every_metric_prints_with_its_unit_and_counts_repeat(capsys):
    for workload in TINY:
        code, timed, digest, counts, lines = _bench(capsys, workload, 0)
        assert code == 0
        assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] >= 1
        assert set(timed) == {"correct", "attempted", "failed", "metrics"}
        _assert_reports(timed, lines, "end_to_end")

        again = _bench(capsys, workload, 0)
        assert again[2:4] == (digest, counts)

        code, traced, traced_digest, traced_counts, lines = _bench(capsys, workload, 1)
        assert code == 0 and traced["correct"] and traced["failed"] == 0
        _assert_reports(traced, lines, "per_layer")
        assert (traced_digest, traced_counts) == (digest, counts)
        for name, value in counts.items():
            assert traced["metrics"][name]["value"] == value
        assert traced["metrics"]["exact.calls"]["value"] == counts["engine.steps.EXACT"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mixed_rules", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

"""indmatch benchmark: end-to-end timings of the library and the CLI, plus a
separate traced run that times each module from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload of spec.json, or `all` to run each of them in turn.
The run builds the workload's graph from the seed (spec.json says how) and
writes its graph file; that set-up is repeated SETUPS times. Then it runs
rounds until --seconds have passed and at least MIN_ROUNDS rounds ran. A
round is: in-process solve and verify_certificate, then the CLI children
`python -m indmatch.cli solve G --certificate C > M` and
`python -m indmatch.cli verify G M --certificate C`. Load model: one client
in a closed loop; calls run one after another and at most one CLI child is
alive at a time. Each metric is the median over its samples.

Every round's output is checked: verify_certificate(...).ok; the CLI verify
exits 0 and prints `ok`; the CLI's matching and certificate bytes equal
format_matching / format_certificate of the in-process result; the
certificate's sha256 and its per-rule counts are the same in every round
(and, at the default seed, equal the digest recorded in spec.json). Each
check is one attempted operation; a failed check counts in `failed`.

--trace 0 reports the end-to-end metrics. --trace 1 reports the per-layer
metrics instead: it keeps every timing as a span (name, start, end, parent,
run id) in memory and writes them to .bench_out/spans-<workload>-<seed>.json
at the end. Only the traced run makes the probe calls (components,
is_induced_matching, exact re-solves, format/parse round trips, ...), so they
never perturb the end-to-end timings.

The package under test is imported from this checkout's src/ and nowhere
else, in-process and in the CLI children. The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics. Exit status: 0
when every check passed, 1 when one failed, 2 when the package cannot be
imported from the checkout.
"""

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
SETUPS = 3
CHILD_TIMEOUT_S = 150

CLI = ("-m", "indmatch.cli")
KINDS = tuple(f"R{i}" for i in range(1, 13)) + ("EXACT",)

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "verify_s": "s",
    "cli_solve_s": "s",
    "cli_verify_s": "s",
    "peak_rss_mb": "MB",
    "n_per_edge": "ratio",
}

COUNTS = (
    ("engine.steps",)
    + tuple(f"engine.steps.{k}" for k in KINDS)
    + tuple(f"engine.removed.{k}" for k in KINDS)
    + ("engine.two_edge_steps", "engine.exact_vertices")
)

PER_LAYER = {
    "engine.solve_s": "s",
    **{name: "count" for name in COUNTS},
    "exact.max_induced_matching_s": "s",
    "exact.build_conflict_graph_s": "s",
    "exact.calls": "count",
    "exact.conflict_nodes": "count",
    "harness.verify_certificate_s": "s",
    "harness.verify_solution_s": "s",
    "formats.parse_graph_s": "s",
    "formats.format_graph_s": "s",
    "formats.format_certificate_s": "s",
    "formats.parse_certificate_s": "s",
    "formats.format_matching_s": "s",
    "formats.parse_matching_s": "s",
    "formats.graph_bytes": "bytes",
    "formats.certificate_bytes": "bytes",
    "graph.components_s": "s",
    "graph.is_induced_matching_s": "s",
    "graph.build_graph_s": "s",
    "generators.gen_s": "s",
    "cli.startup_s": "s",
    "cli.solve_rss_mb": "MB",
    "cli.verify_rss_mb": "MB",
    "trace.overhead_frac": "fraction",
}

# Per-layer metrics read from the samples of an end-to-end one.
LAYER_SOURCES = {
    "engine.solve_s": "solve_s",
    "harness.verify_certificate_s": "verify_s",
}


class SetupError(Exception):
    """The package under test cannot be run from this checkout."""


def import_checkout():
    """Import indmatch from this checkout's src/, refusing any other copy."""
    if not (SRC / "indmatch" / "__init__.py").is_file():
        raise SetupError(f"{SRC / 'indmatch'} is missing; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import indmatch

    if not Path(indmatch.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"indmatch resolves to {indmatch.__file__}, not under {SRC}")
    return indmatch


def step_counts(certificate):
    """Per-rule step and removed-vertex counts of a certificate."""
    counts = dict.fromkeys(COUNTS, 0)
    counts["engine.steps"] = len(certificate.steps)
    for step in certificate.steps:
        counts[f"engine.steps.{step.rule}"] += 1
        counts[f"engine.removed.{step.rule}"] += len(step.removed)
        if step.rule == "EXACT":
            counts["engine.exact_vertices"] += len(step.removed)
        elif len(step.matched) == 2:
            counts["engine.two_edge_steps"] += 1
    return counts


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Timing:
    __slots__ = ("start", "end")

    @property
    def seconds(self):
        return self.end - self.start


class Spans:
    """Times calls into the program. With keep, every timing is also kept
    in memory as a span: name, start, end, parent span index, run id."""

    def __init__(self, keep):
        self.records = [] if keep else None
        self.run = 0
        self._open = []

    @contextmanager
    def span(self, name):
        timing = Timing()
        record = None
        if self.records is not None:
            parent = self._open[-1] if self._open else None
            record = {"name": name, "parent": parent, "run": self.run}
            self._open.append(len(self.records))
            self.records.append(record)
        timing.start = perf_counter()
        try:
            yield timing
        finally:
            timing.end = perf_counter()
            if record is not None:
                self._open.pop()
                record["start"] = timing.start
                record["end"] = timing.end


class Launcher:
    """Handle on bench/spawn.py, which starts the CLI children.

    Start it before building anything large: see spawn.py for why.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, request):
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the child launcher exited")
        return json.loads(line)

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, im, workload, params, seed, trace, launcher, work,
                 recorded=None):
        self.im = im
        self.workload = workload
        self.params = params
        self.seed = seed
        self.trace = trace
        self.launcher = launcher
        self.work = work
        self.recorded = recorded
        self.spans = Spans(keep=trace)
        self.samples = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.n = self.m = 0
        self.graph_bytes = self.certificate_bytes = 0
        self.exact_calls = self.exact_nodes = 0
        self.graph_path = work / "graph.txt"
        self.cert_path = work / "cert.txt"
        self.match_path = work / "matching.txt"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )

    # ----- bookkeeping ----------------------------------------------------

    def check(self, op, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {op}: {detail}", file=sys.stderr)
        return ok

    def sample(self, name, value):
        self.samples[name].append(value)

    def span(self, name):
        return self.spans.span(name)

    # ----- the program under test -----------------------------------------

    def launch(self, args, stdout):
        """Run `python ARGS` in the work directory with stdout to a file."""
        stdout.unlink(missing_ok=True)
        stderr = self.work / "stderr.txt"
        reply = self.launcher.run({
            "argv": [sys.executable, *args],
            "cwd": str(self.work),
            "env": self.env,
            "stdout": str(stdout),
            "stderr": str(stderr),
            "timeout": CHILD_TIMEOUT_S,
        })
        if reply["status"] != 0:
            sys.stderr.write(stderr.read_text())
        return reply

    def check_child_import(self):
        out = self.work / "which.txt"
        reply = self.launch(["-c", "import indmatch; print(indmatch.__file__)"], out)
        where = out.read_text().strip() if out.exists() else ""
        if reply["status"] != 0 or not Path(where).resolve().is_relative_to(SRC):
            raise SetupError(f"CLI children import indmatch from {where!r}, not {SRC}")

    def set_up(self):
        """Build the workload graph from the seed and write its graph file."""
        im = self.im
        p = self.params
        with self.span("setup") as total:
            with self.span("generators.gen") as t:
                prng = im.SplitMix64(self.seed)
                edges = []
                n = 0
                for _ in range(p["components"]):
                    size = p["n_min"] + prng.below(p["n_max"] - p["n_min"] + 1)
                    part = im.gen_random_maxdeg4(im.RandomGraphConfig(
                        size, p["extra_per_vertex"] * size, prng.next_u64()
                    ))
                    edges.extend((u + n, v + n) for u, v in part.edges())
                    n += size
            self.sample("generators.gen_s", t.seconds)
            with self.span("graph.build_graph") as t:
                g = im.build_graph(n, edges)
            self.sample("graph.build_graph_s", t.seconds)
            del edges
            with self.span("formats.format_graph") as t:
                text = im.format_graph(g)
            self.sample("formats.format_graph_s", t.seconds)
            self.graph_path.write_text(text)
        self.sample("setup_s", total.seconds)
        self.graph_bytes = len(text)
        return g

    def check_solve(self, result):
        """Check one solve result against the run's first; returns its
        certificate text."""
        cert_text = self.im.format_certificate(result)
        digest = sha256(cert_text)
        counts = step_counts(result.certificate)
        size = len(result.matching)
        if self.reference is None:
            self.reference = (digest, counts)
        problems = []
        if (digest, counts) != self.reference:
            problems.append("certificate differs from the first round's")
        if size == 0 or 9 * size < result.n - result.isolated:
            problems.append(f"{size} edges for {result.n - result.isolated} vertices")
        self.check("solve", not problems, "; ".join(problems))
        if size:
            self.sample("n_per_edge", (result.n - result.isolated) / size)
        return cert_text

    def check_verify(self, report):
        self.check("verify", report.ok, "; ".join(report.details[:3]))

    # ----- one round ------------------------------------------------------

    def run_round(self, g):
        im = self.im
        self.spans.run += 1
        if self.trace:
            plain = self.untraced_pair(g)
        gc.collect()
        with self.span("engine.solve") as solve_t:
            result = im.solve(g)
        self.sample("solve_s", solve_t.seconds)
        cert_text = self.check_solve(result)
        gc.collect()
        with self.span("harness.verify_certificate") as verify_t:
            report = im.verify_certificate(g, result)
        self.sample("verify_s", verify_t.seconds)
        self.check_verify(report)
        match_text = im.format_matching(result.matching)
        if self.trace:
            traced = solve_t.seconds + verify_t.seconds
            self.sample("trace.overhead_frac", traced / plain - 1)
            self.probe(g, result, cert_text, match_text)
        del result, report
        self.cli_round(cert_text, match_text)

    def untraced_pair(self, g):
        """solve + verify_certificate without spans, as the timed run does
        them; the base of trace.overhead_frac."""
        im = self.im
        gc.collect()
        started = perf_counter()
        result = im.solve(g)
        solved = perf_counter()
        self.check_solve(result)
        gc.collect()
        verify_started = perf_counter()
        report = im.verify_certificate(g, result)
        done = perf_counter()
        self.check_verify(report)
        return (solved - started) + (done - verify_started)

    def cli_round(self, cert_text, match_text):
        with self.span("cli.solve"):
            run = self.launch(
                [*CLI, "solve", str(self.graph_path), "--certificate", str(self.cert_path)],
                self.match_path,
            )
        ok = (
            run["status"] == 0
            and self.match_path.read_bytes() == match_text.encode()
            and self.cert_path.read_bytes() == cert_text.encode()
        )
        self.check("cli solve", ok, f"exit {run['status']} or output bytes differ")
        self.sample("cli_solve_s", run["wall_s"])
        self.sample("cli.solve_rss_mb", run["maxrss_kb"] / 1024)
        if not ok:
            return
        out = self.work / "verify.txt"
        with self.span("cli.verify"):
            check = self.launch(
                [*CLI, "verify", str(self.graph_path), str(self.match_path),
                 "--certificate", str(self.cert_path)],
                out,
            )
        self.check(
            "cli verify", check["status"] == 0 and out.read_bytes() == b"ok\n",
            f"exit {check['status']}",
        )
        self.sample("cli_verify_s", check["wall_s"])
        self.sample("cli.verify_rss_mb", check["maxrss_kb"] / 1024)
        self.sample("peak_rss_mb", max(run["maxrss_kb"], check["maxrss_kb"]) / 1024)

    def probe(self, g, result, cert_text, match_text):
        """Per-layer calls made only in the traced run."""
        im = self.im
        with self.span("graph.components") as t:
            g.components()
        self.sample("graph.components_s", t.seconds)
        with self.span("graph.is_induced_matching") as t:
            induced = im.is_induced_matching(g, result.matching)
        self.sample("graph.is_induced_matching_s", t.seconds)
        self.check("is_induced_matching", induced)
        with self.span("harness.verify_solution") as t:
            report = im.verify_solution(g, result.matching)
        self.sample("harness.verify_solution_s", t.seconds)
        self.check_verify(report)

        graph_text = self.graph_path.read_text()
        with self.span("formats.parse_graph") as t:
            parsed = im.parse_graph_text(graph_text)
        self.sample("formats.parse_graph_s", t.seconds)
        self.check("graph round trip", dict(parsed.adjacency) == dict(g.adjacency))
        del parsed, graph_text
        with self.span("formats.format_certificate") as t:
            text = im.format_certificate(result)
        self.sample("formats.format_certificate_s", t.seconds)
        with self.span("formats.parse_certificate") as t:
            cert, matching = im.parse_certificate_text(text)
        self.sample("formats.parse_certificate_s", t.seconds)
        self.check(
            "certificate round trip",
            text == cert_text and cert == result.certificate
            and matching == result.matching,
        )
        with self.span("formats.format_matching") as t:
            text = im.format_matching(result.matching)
        self.sample("formats.format_matching_s", t.seconds)
        with self.span("formats.parse_matching") as t:
            matching = im.parse_matching_text(text)
        self.sample("formats.parse_matching_s", t.seconds)
        self.check(
            "matching round trip", text == match_text and matching == result.matching
        )

        # The engine only deletes whole vertices, so g.subgraph(removed) is
        # exactly the graph each EXACT step was solved on.
        solve_s = conflict_s = 0.0
        calls = nodes = 0
        agree = True
        with self.span("exact.resolve"):
            for step in result.certificate.steps:
                if step.rule != "EXACT":
                    continue
                sub = g.subgraph(step.removed)
                with self.span("exact.build_conflict_graph") as t:
                    nodes += len(im.build_conflict_graph(sub).nodes)
                conflict_s += t.seconds
                with self.span("exact.max_induced_matching") as t:
                    best = im.max_induced_matching(sub)
                solve_s += t.seconds
                calls += 1
                agree = agree and best == step.matched
        self.check("exact re-solve", agree, "an EXACT step is not the optimum found")
        self.sample("exact.max_induced_matching_s", solve_s)
        self.sample("exact.build_conflict_graph_s", conflict_s)
        self.exact_calls = calls
        self.exact_nodes = nodes
        self.certificate_bytes = len(cert_text)

        with self.span("cli.startup"):
            run = self.launch([*CLI, "--help"], self.work / "help.txt")
        self.check("cli --help", run["status"] == 0, f"exit {run['status']}")
        self.sample("cli.startup_s", run["wall_s"])

    # ----- the whole run --------------------------------------------------

    def run(self, seconds):
        self.check_child_import()
        g = None
        for _ in range(SETUPS):
            g = None  # free the previous graph before building the next
            g = self.set_up()
        self.n, self.m = g.n, g.m
        started = perf_counter()
        rounds = 0
        try:
            while rounds < MIN_ROUNDS or perf_counter() - started < seconds:
                self.run_round(g)
                rounds += 1
        except Exception:
            traceback.print_exc()
            self.check("round", False, "raised")
        if self.reference is not None and self.recorded is not None:
            self.check(
                "recorded digest", self.reference[0] == self.recorded["sha256"],
                "certificate differs from the digest recorded for the default seed",
            )

    def metrics(self):
        """(name -> (median, unit, samples)) for the run's mode."""
        out = {}
        if not self.trace:
            for name, unit in END_TO_END.items():
                values = self.samples.get(name)
                if values:
                    out[name] = (statistics.median(values), unit, values)
            return out
        fixed = dict(self.reference[1] if self.reference else dict.fromkeys(COUNTS, 0))
        fixed["exact.calls"] = self.exact_calls
        fixed["exact.conflict_nodes"] = self.exact_nodes
        fixed["formats.graph_bytes"] = self.graph_bytes
        fixed["formats.certificate_bytes"] = self.certificate_bytes
        for name, unit in PER_LAYER.items():
            if name in fixed:
                out[name] = (fixed[name], unit, [fixed[name]])
                continue
            values = self.samples.get(LAYER_SOURCES.get(name, name))
            if values:
                out[name] = (statistics.median(values), unit, values)
        return out

    def write_spans(self):
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{self.workload}-{self.seed}.json"
        path.write_text(json.dumps({
            "workload": self.workload,
            "seed": self.seed,
            "spans": self.spans.records,
        }))
        return path


def report(bench, im):
    """Print the human-readable table, then the one-line JSON result."""
    metrics = bench.metrics()
    expected = PER_LAYER if bench.trace else END_TO_END
    correct = bench.failed == 0 and set(metrics) == set(expected)
    print(f"workload {bench.workload} seed {bench.seed} trace {int(bench.trace)}"
          f" n {bench.n} m {bench.m}")
    print(f"python {platform.python_version()} indmatch {im.__file__}")
    if bench.reference is not None:
        print(f"certificate_sha256 {bench.reference[0]}")
        print(f"counts {json.dumps(bench.reference[1], sort_keys=True)}")
    for name, (value, unit, values) in metrics.items():
        spread = f"[{min(values):.6g} .. {max(values):.6g}]" if len(values) > 1 else ""
        shown = f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"{name:<32} {shown} {unit:<8} median of {len(values):<3} {spread}")
    share = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{'failed_ops':<32} {share:>14.6g} {'fraction':<8}"
          f" {bench.failed} of {bench.attempted} operations")
    for name in sorted(set(expected) - set(metrics)):
        print(f"missing metric {name}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _) in metrics.items()
        },
    }))
    return correct


def parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[*names, "all"],
        help="a workload of spec.json, or all of them one after another",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, workloads=None):
    spec = json.loads((BENCH_DIR / "spec.json").read_text())
    if workloads is None:
        workloads = spec["workloads"]
    args = parse_args(argv, workloads)
    try:
        im = import_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = list(workloads) if args.workload == "all" else [args.workload]
    # The launcher starts before any graph is built, while this process is small.
    with Launcher() as launcher:
        return max(
            run_workload(im, spec, name, workloads[name], args, launcher)
            for name in names
        )


def run_workload(im, spec, name, params, args, launcher):
    """One run of one workload; prints its report and returns the exit status."""
    recorded = None
    if args.seed == spec["default_seed"]:
        recorded = spec["recorded"].get(name)
    work = OUT / f"work-{name}-{args.seed}-{os.getpid()}"
    try:
        work.mkdir(parents=True, exist_ok=True)
        bench = Bench(
            im, name, params, args.seed, bool(args.trace), launcher, work, recorded
        )
        bench.run(args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if bench.trace:
        print(f"spans {bench.write_spans()}", file=sys.stderr)
    return 0 if report(bench, im) else 1


if __name__ == "__main__":
    sys.exit(main())

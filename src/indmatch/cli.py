"""Command-line front end.

Subcommands: gen, solve, exact, verify, fuzz. Results go to stdout and are
byte-identical across runs with the same arguments; anything timed or
diagnostic goes to stderr.

Exit codes: 0 success, 2 max degree exceeded, 3 excluded component in the
input, 4 usage or parse failure or out of memory, 5 internal invariant
violation, 6 checks found failures, 7 search budget exhausted. Fuzz failures
and invariant violations also leave a replay file in the working directory.
"""

import argparse
import gc
import sys
from pathlib import Path
from time import perf_counter

from .engine import SolveResult, solve
from .errors import (
    BudgetExceededError,
    C25ComponentError,
    FormatError,
    IndmatchError,
    InvariantViolationError,
    MaxDegreeExceededError,
)
from .exact import max_induced_matching
from .formats import (
    format_certificate,
    format_graph,
    format_matching,
    graph_lines,
    parse_certificate_file,
    parse_graph_file,
    parse_matching_file,
)
from .generators import (
    RandomGraphConfig,
    gen_c25,
    gen_cycle,
    gen_k33plus,
    gen_path,
    gen_random_maxdeg4,
    gen_tight9,
)
from .harness import FuzzConfig, _replay_report, fuzz, verify_solution

EXIT_OK = 0
EXIT_MAX_DEGREE = 2
EXIT_C25 = 3
EXIT_USAGE = 4
EXIT_INVARIANT = 5
EXIT_CHECKS_FAILED = 6
EXIT_BUDGET = 7


def _write_repro(name, header, graph):
    """Write a replay file: '# key value' header lines, then the graph, if any."""
    lines = "".join(f"# {key} {value}\n" for key, value in header)
    body = "" if graph is None else format_graph(graph)
    (Path.cwd() / name).write_text(lines + body)


def _cmd_gen(args):
    family = args.family
    if family in ("path", "cycle", "random") and args.n is None:
        print(f"error: gen --family {family} requires --n", file=sys.stderr)
        return EXIT_USAGE
    if family == "c25":
        g = gen_c25()
    elif family == "k33plus":
        g = gen_k33plus()
    elif family == "tight9":
        g = gen_tight9()
    elif family == "path":
        g = gen_path(args.n)
    elif family == "cycle":
        g = gen_cycle(args.n)
    else:
        extra = args.extra_attempts
        if extra is None:
            extra = 2 * args.n
        g = gen_random_maxdeg4(
            RandomGraphConfig(n=args.n, extra_edge_attempts=extra, seed=args.seed)
        )
    # Line by line: the file's text is never held whole beside the graph.
    if args.out is None:
        sys.stdout.writelines(graph_lines(g))
    else:
        with open(args.out, "w") as out:
            out.writelines(graph_lines(g))
    return EXIT_OK


def _cmd_solve(args):
    g = parse_graph_file(args.graph)
    started = perf_counter()
    result = solve(g)
    elapsed = perf_counter() - started
    sys.stdout.write(format_matching(result.matching))
    if args.certificate is not None:
        Path(args.certificate).write_text(format_certificate(result))
    print(
        f"matched {len(result.matching)} edges on {result.n} vertices in"
        f" {len(result.certificate.steps)} steps ({elapsed:.3f}s)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_exact(args):
    g = parse_graph_file(args.graph)
    started = perf_counter()
    matching = max_induced_matching(g, max_nodes=args.budget)
    elapsed = perf_counter() - started
    sys.stdout.write(format_matching(matching))
    print(
        f"optimum {len(matching)} edges on {g.n} vertices ({elapsed:.3f}s)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_verify(args):
    g = parse_graph_file(args.graph)
    # The graph file is positional, so ids[i] is vertex i: every parsed id
    # that names a vertex becomes the graph's own int object.
    ids = g.vertices()
    matching = parse_matching_file(args.matching, ids)
    report = verify_solution(g, matching)
    for line in report.details:
        print(line)
    failed = not report.ok
    if args.certificate is not None:
        cert, cert_matching = parse_certificate_file(args.certificate, ids)
        if cert_matching == matching:
            # Keep one copy of the pairs, and the report already made on it.
            cert_matching = matching
            solution = report
        else:
            print("certificate matching differs from the matching file")
            failed = True
            solution = verify_solution(g, cert_matching)
        isolated = sum(1 for nbrs in g.adjacency.values() if not nbrs)
        cert_report = _replay_report(
            g, SolveResult(cert_matching, cert, g.n, isolated), solution
        )
        for line in cert_report.details:
            print(line)
        failed = failed or not cert_report.ok
    if failed:
        return EXIT_CHECKS_FAILED
    print("ok")
    return EXIT_OK


def _cmd_fuzz(args):
    config = FuzzConfig(
        trials=args.trials,
        n_min=args.n_min,
        n_max=args.n_max,
        seed=args.seed,
    )
    report = fuzz(config)
    for line in report.summary_lines():
        print(line)
    print(f"slowest trial {report.max_seconds:.3f}s", file=sys.stderr)
    for failure in report.failures:
        _write_repro(
            f"fuzz-fail-{failure.trial}.txt",
            (
                ("fuzz failure:", failure.kind),
                ("trial", failure.trial),
                ("seed", failure.seed),
            ),
            failure.graph,
        )
        for detail in failure.details:
            print(f"trial {failure.trial}: {detail}", file=sys.stderr)
    return EXIT_CHECKS_FAILED if report.failures else EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="indmatch",
        description="Certified induced matchings in graphs of max degree 4.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a named or random instance")
    p.add_argument(
        "--family", required=True,
        choices=("c25", "k33plus", "tight9", "path", "cycle", "random"),
    )
    p.add_argument("--n", type=int, help="vertex count (path, cycle, random)")
    p.add_argument(
        "--extra-attempts", type=int, dest="extra_attempts",
        help="random only: edge-insertion attempts (default 2n)",
    )
    p.add_argument("--seed", type=int, default=0, help="random only (default 0)")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("solve", help="reduce a graph to a certified matching")
    p.add_argument("graph", help="graph file")
    p.add_argument("--certificate", help="also write the step log here")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exact", help="maximum induced matching, small graphs")
    p.add_argument("graph", help="graph file")
    p.add_argument(
        "--budget", type=int, default=10_000_000,
        help="search-node budget, 0 for unlimited (default 10^7)",
    )
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("verify", help="check a matching (and certificate)")
    p.add_argument("graph", help="graph file")
    p.add_argument("matching", help="matching file")
    p.add_argument("--certificate", help="certificate file to replay")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("fuzz", help="randomized solve/verify campaign")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--nmin", type=int, default=2, dest="n_min")
    p.add_argument("--nmax", type=int, default=300, dest="n_max")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def run(argv=None):
    """Parse arguments and dispatch; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into the parse-failure code.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    # A command holds its graph, certificate and results until it ends, and
    # nothing the package builds forms a reference cycle, so cyclic GC
    # passes over that heap free nothing; on a 10^5-vertex verify they took
    # a fifth of the run. Reference counting still frees what is dropped.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except MaxDegreeExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MAX_DEGREE
    except C25ComponentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_C25
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            _write_repro(
                "invariant-fail.txt",
                (
                    ("invariant violation:", exc.detail),
                    ("rule", exc.rule),
                    ("witness", exc.witness),
                ),
                exc.graph,
            )
        except OSError as write_exc:
            print(f"error: could not write invariant-fail.txt: {write_exc}",
                  file=sys.stderr)
        return EXIT_INVARIANT
    except (FormatError, IndmatchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        # A short file can still ask for too much: the header "50000000 0"
        # is a legal graph of fifty million isolated vertices. What the
        # failed command allocated is freed once its frames are gone.
        print("error: out of memory", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if gc_was_enabled:
            gc.enable()


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()

"""`indmatch verify` on mutated certificates ends in a documented exit code.

Each example takes the graph, matching and certificate files of a solved
graph, mutates the certificate text, and runs
`verify G M --certificate C` through cli.run. Whatever the mutation, the
command must return 0 (the certificate still checks), 4 (it does not
parse) or 6 (a check failed), write nothing to stderr but one `error:`
line, and raise nothing.
"""

import contextlib
import io

import pytest

from indmatch import (
    RandomGraphConfig,
    cli,
    format_certificate,
    format_graph,
    format_matching,
    gen_random_maxdeg4,
    gen_tight9,
    solve,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# tight9 is one EXACT step; the random graphs mix rule and EXACT steps.
GRAPHS = (
    gen_tight9(),
    gen_random_maxdeg4(RandomGraphConfig(n=30, extra_edge_attempts=60, seed=5)),
    gen_random_maxdeg4(RandomGraphConfig(n=60, extra_edge_attempts=120, seed=2)),
)
SOLVED = tuple((g, solve(g)) for g in GRAPHS)

MUTATIONS = (
    "rule EXACT",
    "id past n",
    "id 2^63",
    "repeat pair",
    "repeat removed id",
    "drop line",
    "repeat line",
    "truncate",
)


def _mutate(draw, text, n):
    lines = text.splitlines(keepends=True)
    for mutation in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        parts = lines[i].split()
        step = len(parts) == 8 and parts[0] == "step"
        if mutation == "rule EXACT" and step:
            parts[3] = "EXACT"
        elif mutation in ("id past n", "id 2^63") and step:
            # An id in the step's pairs or in its removed list.
            field = draw(st.sampled_from((5, 7)))
            ids = parts[field].replace("-", ",").split(",")
            j = draw(st.integers(0, len(ids) - 1))
            past = n + draw(st.integers(0, 2))
            ids[j] = str(past if mutation == "id past n" else 2**63)
            if field == 5:
                parts[5] = ",".join(f"{a}-{b}" for a, b in zip(ids[::2], ids[1::2]))
            else:
                parts[7] = ",".join(ids)
        elif mutation == "repeat pair" and (step or len(parts) == 2):
            # A pair of a step, or of the final matching line.
            field = 5 if step else 1
            pairs = parts[field].split(",")
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
            parts[field] = ",".join(pairs)
        elif mutation == "repeat removed id" and step:
            ids = parts[7].split(",")
            ids.append(draw(st.sampled_from(ids)))
            parts[7] = ",".join(ids)
        elif mutation == "drop line":
            del lines[i]
            continue
        elif mutation == "repeat line":
            lines.insert(i, lines[i])
            continue
        elif mutation == "truncate":
            text = "".join(lines)
            text = text[: draw(st.integers(0, len(text)))]
            lines = text.splitlines(keepends=True)
            continue
        lines[i] = " ".join(parts) + "\n"
    return "".join(lines)


@st.composite
def mutated_cases(draw):
    g, result = draw(st.sampled_from(SOLVED))
    return g, result, _mutate(draw, format_certificate(result), g.n)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("verify")


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(case=mutated_cases())
def test_verify_survives_a_mutated_certificate(files, case):
    g, result, cert_text = case
    graph = files / "g.txt"
    matching = files / "m.txt"
    cert = files / "c.txt"
    graph.write_text(format_graph(g))
    matching.write_text(format_matching(result.matching))
    cert.write_text(cert_text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(
            ["verify", str(graph), str(matching), "--certificate", str(cert)]
        )
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CHECKS_FAILED)
    errors = err.getvalue().splitlines()
    assert errors == [] or (len(errors) == 1 and errors[0].startswith("error: "))
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (code == cli.EXIT_USAGE) == bool(errors)

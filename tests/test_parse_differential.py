"""parse_graph_text against the plain reference parser in tests/_oracles.py.

On every generated graph file the package must build the same graph as the
reference, or raise the same exception type with the same message. The
files mix valid edges with duplicates (both orientations), self-loops,
ids out of range, negative or of 2^63 and more, comments, blank lines,
malformed lines and wrong edge-line counts, so a build error often comes
before a later format error in the same file, and the format error must
win.
"""

import pytest

import _oracles
from indmatch import parse_graph_text

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
example = hypothesis.example

BIG = 2**63

OUT_OF_RANGE = st.one_of(
    st.integers(8, 9),
    st.integers(-3, -1),
    st.integers(BIG - 1, BIG + 1),
    st.sampled_from((2**64, 10**30)),
)

FAULTS = ("range", "loop", "again", "bad", "count", "header")

NOTES = ("", "   ", "# a comment", "  # indented comment", "#", "\t")

BAD_LINES = ("1", "1 2 3", "a b", "0 x", "1.0 2", "0x1 2", "- 1")

BAD_HEADERS = ("-1 0", "2 -1", "3", "x 1", "1 2 3")


@st.composite
def graph_files(draw):
    n = draw(st.integers(0, 8))
    # Each file picks the faults it may hold, so clean graphs, single build
    # errors and files mixing build and format errors all come up often.
    faults = draw(st.frozensets(st.sampled_from(FAULTS)))
    kinds = ("edge",) * 4 + ("note",) + tuple(
        f for f in ("loop", "again", "bad") if f in faults
    )

    def end():
        if "range" in faults and draw(st.integers(0, 3)) == 0:
            return draw(OUT_OF_RANGE)
        return draw(st.integers(0, max(n - 1, 0)))

    edges = []
    body = []
    edge_lines = 0
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        if kind == "note":
            body.append(draw(st.sampled_from(NOTES)))
            continue
        if kind == "bad":
            line = draw(st.sampled_from(BAD_LINES))
        elif kind == "loop":
            u = end()
            line = f"{u} {u}"
        elif kind == "again" and edges:
            u, v = draw(st.sampled_from(edges))
            line = draw(st.sampled_from((f"{u} {v}", f"{v} {u}")))
        else:
            u, v = end(), end()
            if u == v or (u, v) in edges or (v, u) in edges:
                continue
            edges.append((u, v))
            sep = draw(st.sampled_from((" ", "\t", "   ")))
            line = f"{u}{sep}{v}"
        body.append(line)
        edge_lines += 1
    m = edge_lines
    if "count" in faults:
        m += draw(st.sampled_from((-2, -1, 1, 2)))
    if "header" in faults and draw(st.booleans()):
        header = draw(st.sampled_from(BAD_HEADERS))
    else:
        header = f"{n} {m}"
    lines = [draw(st.sampled_from(NOTES)) for _ in range(draw(st.integers(0, 2)))]
    lines.append(header)
    lines.extend(body)
    newline = draw(st.sampled_from(("\n", "\n", "\r\n")))
    trailer = draw(st.sampled_from(("", newline)))
    return newline.join(lines) + trailer


def _package(text):
    try:
        g = parse_graph_text(text)
    except Exception as exc:  # any type the reference does not name fails
        return ("error", type(exc).__name__, str(exc))
    return ("graph", g.n, g.m, {v: set(g.neighbors(v)) for v in g.vertices()})


def _reference(text):
    try:
        n, adjacency = _oracles.parse_graph_ref(text)
    except _oracles.RefParseError as exc:
        return ("error", exc.kind, exc.message)
    m = sum(len(s) for s in adjacency.values()) // 2
    return ("graph", n, m, adjacency)


@hypothesis.settings(max_examples=400, deadline=None, database=None, derandomize=True)
@hypothesis.given(graph_files())
# A build error (self-loop, duplicate, id out of range) followed by a
# format error: the format error is the one reported.
@example("3 3\n0 0\n1 x\n1 2\n")
@example("3 3\n0 1\n1 0\n0 1 2\n")
@example(f"2 2\n0 {BIG}\n0 1\n0 1\n")
@example("4 2\n-1 2\n")
# Build errors alone.
@example(f"2 1\n{BIG} 0\n")
@example(f"2 1\n0 {2**64}\n")
@example("3 2\n0 1\n1 0\n")
@example("3 1\n2 2\n")
# Valid files around comments and blank lines, and the degenerate ones.
@example("# c\n\n3 2\n  0 1 \n# x\n\n1\t2\n")
@example("0 0\n")
@example("")
@example("-1 0\n")
def test_parse_graph_text_matches_reference(text):
    assert _package(text) == _reference(text)

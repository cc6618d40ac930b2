"""parse_graph_text against the plain reference parser in tests/_oracles.py,
and the matching and certificate parsers with the graph's ids against the
same parsers without them.

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
from indmatch import (
    Certificate,
    FormatError,
    parse_certificate_text,
    parse_graph_text,
    parse_matching_text,
)

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
# A vertex count no list can hold, alone and before a format error.
@example(f"{BIG} 1\n0 1\n")
@example(f"{BIG} 1\n0 x\n")
# Valid files around comments and blank lines, and the degenerate ones.
@example("# c\n\n3 2\n  0 1 \n# x\n\n1\t2\n")
@example("0 0\n")
@example("")
@example("-1 0\n")
def test_parse_graph_text_matches_reference(text):
    assert _package(text) == _reference(text)


def _parsed(parse, text, *ids):
    try:
        return parse(text, *ids)
    except FormatError as exc:
        return ("error", str(exc))


def _id_lists(parsed):
    """The id lists of a parsed matching or certificate, each as one flat
    tuple, as the parsers map them: a matching file whole, a certificate
    step's pairs and its removals, and the certificate's matching line."""
    if parsed and parsed[0] == "error":
        return []
    if len(parsed) == 2 and isinstance(parsed[0], Certificate):
        cert, matching = parsed
        lists = [tuple(x for pair in matching for x in pair)]
        for step in cert.steps:
            lists.append(tuple(x for pair in step.matched for x in pair))
            lists.append(step.removed)
        return lists
    return [tuple(x for pair in parsed for x in pair)]


# Above 256, where CPython's cached ints would hide a copy; with ids that
# name no vertex (negative, n, 2^63 and more) and tokens that do not parse.
N = 600
# Mostly ids that name vertices, so that whole steps parse and map.
VERTEX = st.integers(N - 8, N - 1)
IDS = st.one_of(
    VERTEX, VERTEX, VERTEX, st.sampled_from((-1, -2, N, N + 1, BIG, 2**64))
)
TOKENS = st.one_of(*[IDS.map(str)] * 19, st.sampled_from(("x", "1-2", "")))


@st.composite
def matching_texts(draw):
    lines = draw(st.lists(st.lists(TOKENS, min_size=1, max_size=3), max_size=5))
    return "".join(" ".join(line) + "\n" for line in lines)


@st.composite
def certificate_texts(draw):
    def listed(token):
        return ",".join(draw(st.lists(token, min_size=1, max_size=3)))

    pair = st.builds(lambda a, b: f"{a}-{b}", TOKENS, TOKENS)
    lines = []
    for k in range(1, draw(st.integers(0, 3)) + 1):
        rule = draw(st.sampled_from(("R1", "EXACT") * 4 + ("R13",)))
        lines.append(
            f"step {k} rule {rule} match {listed(pair)} remove {listed(TOKENS)}"
        )
    if draw(st.integers(0, 9)):
        lines.append(f"matching {listed(pair)}")
    return "".join(line + "\n" for line in lines)


@hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
@hypothesis.given(matching_texts(), certificate_texts())
def test_parsing_with_the_graphs_ids_changes_only_id_objects(match_text, cert_text):
    # Same result or the same error with or without ids; each id list whose
    # ids all name vertices holds the graph's own ids, any other as parsed.
    ids = tuple(range(N))
    for parse, text in (
        (parse_matching_text, match_text), (parse_certificate_text, cert_text)
    ):
        plain = _parsed(parse, text)
        shared = _parsed(parse, text, ids)
        assert shared == plain
        for ids_list in _id_lists(shared):
            if all(0 <= x < N for x in ids_list):
                assert all(x is ids[x] for x in ids_list)
            else:
                assert not any(x is ids[x] for x in ids_list if 256 < x < N)

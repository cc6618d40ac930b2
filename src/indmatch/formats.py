"""Plain-text formats for graphs, matchings, and step certificates.

All three formats are line-oriented ASCII. Blank lines and lines starting
with '#' are ignored on input and never produced on output, so generated
files can be annotated by hand or by the fuzzer without breaking parsers.

Graph files: a header line "n m", then m lines "u v" with 0 <= u, v < n.
Serialization writes each edge with its smaller endpoint first and the edge
list sorted; a graph whose vertex ids are not exactly 0..n-1 is relabeled
in sorted-id order (the format is positional).

Matching files: one "u v" line per matched edge, sorted the same way.

Certificates: one line per step,
    step <k> rule <name> match <a>-<b>[,<c>-<d>...] remove <x>,<y>,...
with k counting from 1, followed by a final line
    matching <a>-<b>[,...]
(the word alone when the matching is empty).

The matching and certificate parsers take an optional ids argument, the
graph's vertex ids in order (ids[i] is vertex i, as parse_graph_text builds
them). Each parsed id list whose ids all name vertices then holds the
graph's own int objects, so the ids are not held twice; a list with an id
outside 0..len(ids) - 1 is kept as parsed, for the replay to report.
"""

from pathlib import Path

from .engine import Certificate, ReductionStep, STEP_KINDS
from .errors import FormatError
from .graph import build_graph


def format_graph(g):
    return "".join(graph_lines(g))


def graph_lines(g):
    """The lines of format_graph(g), each ending in a newline, one at a time
    and with no edge list built: each vertex's edges to larger ids, in id
    order, are the sorted edge list."""
    ids = g.vertices()
    adj = g.adjacency
    if ids and (ids[0] != 0 or ids[-1] != len(ids) - 1):
        # Relabelling by rank keeps the order of ids, and so of edges.
        rank = {v: i for i, v in enumerate(ids)}
        adj = {rank[v]: [rank[u] for u in nbrs] for v, nbrs in adj.items()}
        ids = range(len(ids))
    yield f"{g.n} {g.m}\n"
    for v in ids:
        for u in sorted(adj[v]):
            if u > v:
                yield f"{v} {u}\n"


def parse_graph_text(text):
    # One pass over the lines: the header loop hands its iterator on to the
    # edge loop. A well-formed edge line costs one split and two int calls;
    # blank, comment and malformed lines all land in the except branch.
    lines = enumerate(text.splitlines(), 1)
    for lineno, raw in lines:
        parts = raw.split()
        if parts and not parts[0].startswith("#"):
            break
    else:
        raise FormatError("empty graph file")
    if len(parts) != 2:
        raise FormatError(
            f"line {lineno}: expected two integers for the graph header"
        )
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: the graph header is not numeric") from None
    if n < 0 or m < 0:
        raise FormatError(f"line {lineno}: negative count in header")
    # Edge ends in one flat list: no tuple per edge. Every line is read
    # before build_graph sees an edge, so a format error anywhere in the
    # file wins over a bad edge before it.
    ends = []
    limit = 2 * m
    for lineno, raw in lines:
        try:
            u, v = raw.split()
            u, v = int(u), int(v)
        except ValueError:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            u = None  # malformed, but a surplus line is reported as such
        if len(ends) == limit:
            raise FormatError(f"line {lineno}: more than {m} edge lines")
        if u is None:
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected two integers for an edge")
            raise FormatError(f"line {lineno}: an edge is not numeric")
        ends.append(u)
        ends.append(v)
    if len(ends) != limit:
        raise FormatError(f"expected {m} edge lines, found {len(ends) // 2}")
    it = iter(ends)
    return build_graph(n, zip(it, it))


def parse_graph_file(path):
    return parse_graph_text(Path(path).read_text())


def format_matching(matching):
    pairs = sorted((a, b) if a < b else (b, a) for a, b in matching)
    return "".join(f"{a} {b}\n" for a, b in pairs)


def parse_matching_text(text, ids=None):
    ends = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        try:
            a, b = raw.split()
            a, b = int(a), int(b)
        except ValueError:
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            if len(parts) != 2:
                raise FormatError(
                    f"line {lineno}: expected two integers for a matched pair"
                ) from None
            raise FormatError(f"line {lineno}: a matched pair is not numeric") from None
        if a < b:
            ends.append(a)
            ends.append(b)
        else:
            ends.append(b)
            ends.append(a)
    if ids is not None and ends and min(ends) >= 0:
        ends = _own_ids(ends, ids)
    it = iter(ends)
    return tuple(sorted(zip(it, it)))


def parse_matching_file(path, ids=None):
    return parse_matching_text(Path(path).read_text(), ids)


def _own_ids(parsed, ids):
    """parsed, a sequence of non-negative ids, as a tuple of the graph's own
    int objects when ids is given and every id names a vertex; otherwise
    unchanged. The caller rules out negative ids, which would index ids
    from its end; an id of n or more, 2^63 and up included, is an
    IndexError. One pass per list, with no test per id."""
    if ids is None:
        return parsed
    try:
        return tuple(map(ids.__getitem__, parsed))
    except IndexError:
        return parsed


def _format_pairs(pairs):
    return ",".join(f"{a}-{b}" for a, b in pairs)


def format_certificate(result):
    lines = []
    for k, step in enumerate(result.certificate.steps, 1):
        lines.append(
            f"step {k} rule {step.rule}"
            f" match {_format_pairs(step.matched)}"
            f" remove {','.join(str(x) for x in step.removed)}"
        )
    if result.matching:
        lines.append(f"matching {_format_pairs(result.matching)}")
    else:
        lines.append("matching")
    return "\n".join(lines) + "\n"


# Each parsed rule name becomes its STEP_KINDS constant, not a new string.
_STEP_KIND = {kind: kind for kind in STEP_KINDS}


def parse_certificate_text(text, ids=None):
    """Certificate text -> (Certificate, matching)."""
    steps = []
    matching = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if matching is not None:
            raise FormatError(f"line {lineno}: content after the matching line")
        if parts[0] == "matching":
            if len(parts) == 1:
                matching = ()
                continue
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: malformed matching line")
            rule, token = None, parts[1]
        else:
            if len(parts) != 8 or (
                parts[0], parts[2], parts[4], parts[6]
            ) != ("step", "rule", "match", "remove"):
                raise FormatError(f"line {lineno}: malformed step line")
            try:
                k = int(parts[1])
            except ValueError:
                raise FormatError(f"line {lineno}: bad step number") from None
            if k != len(steps) + 1:
                raise FormatError(
                    f"line {lineno}: step {k} out of order,"
                    f" expected {len(steps) + 1}"
                )
            rule, token = _STEP_KIND.get(parts[3]), parts[5]
            if rule is None:
                raise FormatError(f"line {lineno}: unknown rule '{parts[3]}'")
        # Split on "-", so no id of a pair can be negative.
        ends = []
        try:
            for part in token.split(","):
                a, b = part.split("-")
                ends.append(int(a))
                ends.append(int(b))
        except ValueError:
            raise FormatError(f"line {lineno}: bad pair '{part}'") from None
        it = iter(_own_ids(ends, ids))
        if rule is None:
            matching = tuple(sorted(zip(it, it)))
            continue
        try:
            removed = tuple(map(int, parts[7].split(",")))
        except ValueError:
            raise FormatError(f"line {lineno}: bad id list '{parts[7]}'") from None
        if "-" not in parts[7]:
            removed = _own_ids(removed, ids)
        steps.append(ReductionStep(rule, tuple(zip(it, it)), removed))
    if matching is None:
        raise FormatError("certificate has no final matching line")
    return Certificate(tuple(steps)), matching


def parse_certificate_file(path, ids=None):
    return parse_certificate_text(Path(path).read_text(), ids)

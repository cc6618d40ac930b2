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
"""

from pathlib import Path

from .engine import Certificate, ReductionStep, STEP_KINDS
from .errors import FormatError
from .graph import build_graph


def format_graph(g):
    ids = g.vertices()
    if ids and (ids[0] != 0 or ids[-1] != len(ids) - 1):
        relabel = {v: i for i, v in enumerate(ids)}
        edges = [(relabel[u], relabel[v]) for u, v in g.edges()]
    else:
        edges = g.edges()
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


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


def parse_matching_text(text):
    pairs = []
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
        pairs.append((a, b) if a < b else (b, a))
    return tuple(sorted(pairs))


def parse_matching_file(path):
    return parse_matching_text(Path(path).read_text())


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


def parse_certificate_text(text):
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
            rule, token = parts[3], parts[5]
            if rule not in STEP_KINDS:
                raise FormatError(f"line {lineno}: unknown rule '{rule}'")
        pairs = []
        try:
            for part in token.split(","):
                a, b = part.split("-")
                pairs.append((int(a), int(b)))
        except ValueError:
            raise FormatError(f"line {lineno}: bad pair '{part}'") from None
        if rule is None:
            matching = tuple(sorted(pairs))
            continue
        try:
            removed = tuple(map(int, parts[7].split(",")))
        except ValueError:
            raise FormatError(f"line {lineno}: bad id list '{parts[7]}'") from None
        steps.append(ReductionStep(rule, tuple(pairs), removed))
    if matching is None:
        raise FormatError("certificate has no final matching line")
    return Certificate(tuple(steps)), matching


def parse_certificate_file(path):
    return parse_certificate_text(Path(path).read_text())

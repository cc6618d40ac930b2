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


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def _two_ints(line, lineno, what):
    parts = line.split()
    if len(parts) != 2:
        raise FormatError(f"line {lineno}: expected two integers for {what}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"line {lineno}: {what} is not numeric") from None


def format_graph(g):
    ids = g.vertices()
    if ids and (ids[0] != 0 or ids[-1] != len(ids) - 1):
        relabel = {v: i for i, v in enumerate(ids)}
        edges = sorted(
            (relabel[u], relabel[v]) if relabel[u] < relabel[v]
            else (relabel[v], relabel[u])
            for u, v in g.edges()
        )
    else:
        edges = g.edges()
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def parse_graph_text(text):
    lines = _content_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise FormatError("empty graph file") from None
    n, m = _two_ints(header, lineno, "the graph header")
    if n < 0 or m < 0:
        raise FormatError(f"line {lineno}: negative count in header")
    # Edge ends in one flat list: no tuple per edge. Every line is read
    # before build_graph sees an edge, so a format error anywhere in the
    # file wins over a bad edge before it.
    ends = []
    for lineno, line in lines:
        if len(ends) == 2 * m:
            raise FormatError(f"line {lineno}: more than {m} edge lines")
        ends.extend(_two_ints(line, lineno, "an edge"))
    if len(ends) != 2 * m:
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
    for lineno, line in _content_lines(text):
        a, b = _two_ints(line, lineno, "a matched pair")
        pairs.append((a, b) if a < b else (b, a))
    return tuple(sorted(pairs))


def parse_matching_file(path):
    return parse_matching_text(Path(path).read_text())


def _format_pairs(pairs):
    return ",".join(f"{a}-{b}" for a, b in pairs)


def _parse_pairs(token, lineno):
    pairs = []
    for part in token.split(","):
        bits = part.split("-")
        if len(bits) != 2:
            raise FormatError(f"line {lineno}: bad pair '{part}'")
        try:
            pairs.append((int(bits[0]), int(bits[1])))
        except ValueError:
            raise FormatError(f"line {lineno}: bad pair '{part}'") from None
    return tuple(pairs)


def _parse_ids(token, lineno):
    try:
        return tuple(int(part) for part in token.split(","))
    except ValueError:
        raise FormatError(f"line {lineno}: bad id list '{token}'") from None


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
    for lineno, line in _content_lines(text):
        if matching is not None:
            raise FormatError(f"line {lineno}: content after the matching line")
        parts = line.split()
        if parts[0] == "matching":
            if len(parts) == 1:
                matching = ()
            elif len(parts) == 2:
                matching = tuple(sorted(_parse_pairs(parts[1], lineno)))
            else:
                raise FormatError(f"line {lineno}: malformed matching line")
            continue
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
                f"line {lineno}: step {k} out of order, expected {len(steps) + 1}"
            )
        rule = parts[3]
        if rule not in STEP_KINDS:
            raise FormatError(f"line {lineno}: unknown rule '{rule}'")
        matched = _parse_pairs(parts[5], lineno)
        removed = _parse_ids(parts[7], lineno)
        steps.append(ReductionStep(rule, matched, removed))
    if matching is None:
        raise FormatError("certificate has no final matching line")
    return Certificate(tuple(steps)), matching


def parse_certificate_file(path):
    return parse_certificate_text(Path(path).read_text())

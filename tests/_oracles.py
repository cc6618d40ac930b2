"""Reference implementations the tests trust instead of the package.

Everything here is written for obviousness, not speed: the point is that a
bug in the package and a bug here would have to coincide to hide a wrong
answer. Only standard library code, no imports from the package.
"""

import sys


def splitmix64_sequence(seed, count):
    """First `count` outputs of splitmix64 started at `seed`."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def conflict_free_subset_max(n, edges, adjacency):
    """Maximum induced matching size by examining every edge subset.

    adjacency maps each vertex to a set of neighbors. Subset s is encoded as
    a bitmask over `edges`; validity comes from the one-step recurrence
    valid(s) = valid(s minus lowest edge) and that edge conflicts with
    nothing else in s, which visits all 2^m subsets in O(1) amortized each.
    """
    m = len(edges)
    if m > 16:
        raise ValueError(f"subset oracle capped at 16 edges, got {m}")
    conflict = [0] * m
    for i in range(m):
        a, b = edges[i]
        for j in range(i + 1, m):
            c, d = edges[j]
            clash = (
                a == c or a == d or b == c or b == d
                or c in adjacency[a] or d in adjacency[a]
                or c in adjacency[b] or d in adjacency[b]
            )
            if clash:
                conflict[i] |= 1 << j
                conflict[j] |= 1 << i
    best = 0
    valid = [False] * (1 << m)
    valid[0] = True
    for s in range(1, 1 << m):
        low = (s & -s).bit_length() - 1
        rest = s & (s - 1)
        if valid[rest] and not (conflict[low] & rest):
            valid[s] = True
            size = s.bit_count()
            if size > best:
                best = size
    return best


def nu_s(g):
    """Exact maximum induced matching size of a package Graph, m <= 16."""
    return conflict_free_subset_max(g.n, g.edges(), g.adjacency)


def reachable(adjacency, start):
    """Every vertex joined to start by a path, start included."""
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def is_induced_matching_ref(adjacency, pairs):
    """Direct transcription of the induced-matching definition."""
    used = set()
    for u, v in pairs:
        if u == v or v not in adjacency[u]:
            return False
        if u in used or v in used:
            return False
        used.add(u)
        used.add(v)
    pairs = list(pairs)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a, b = pairs[i]
            c, d = pairs[j]
            for x in (a, b):
                for y in (c, d):
                    if y in adjacency[x]:
                        return False
    return True


class RefParseError(Exception):
    """A rejection by parse_graph_ref: kind names the package exception the
    parser must raise for the same text, message its exact message."""

    def __init__(self, kind, message):
        super().__init__(kind, message)
        self.kind = kind
        self.message = message


def parse_graph_ref(text):
    """Graph-file text -> (n, adjacency), written out plainly.

    adjacency maps every id 0..n-1 to its neighbour set. The file is
    checked as a whole before any edge is: every format problem (header,
    line shape, edge-line count) is reported before an edge that is out of
    range, a self-loop or a duplicate.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            rows.append((lineno, line))
    if not rows:
        raise RefParseError("FormatError", "empty graph file")

    def two_ints(lineno, line, what):
        parts = line.split()
        if len(parts) != 2:
            raise RefParseError(
                "FormatError", f"line {lineno}: expected two integers for {what}"
            )
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            raise RefParseError(
                "FormatError", f"line {lineno}: {what} is not numeric"
            ) from None

    lineno, header = rows[0]
    n, m = two_ints(lineno, header, "the graph header")
    if n < 0 or m < 0:
        raise RefParseError("FormatError", f"line {lineno}: negative count in header")
    edges = []
    for lineno, line in rows[1:]:
        if len(edges) == m:
            raise RefParseError(
                "FormatError", f"line {lineno}: more than {m} edge lines"
            )
        edges.append(two_ints(lineno, line, "an edge"))
    if len(edges) != m:
        raise RefParseError(
            "FormatError", f"expected {m} edge lines, found {len(edges)}"
        )
    if n > sys.maxsize:
        raise RefParseError(
            "IdOutOfRangeError", f"vertex count {n} is more than {sys.maxsize}"
        )
    adjacency = {v: set() for v in range(n)}
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise RefParseError(
                "IdOutOfRangeError", f"edge {u}-{v} outside 0..{n - 1}"
            )
        if u == v:
            raise RefParseError("SelfLoopError", f"self-loop at {u}")
        if v in adjacency[u]:
            raise RefParseError("DuplicateEdgeError", f"edge {u}-{v} given twice")
        adjacency[u].add(v)
        adjacency[v].add(u)
    return n, adjacency

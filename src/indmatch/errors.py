"""Exception types shared across the package.

Every library error derives from IndmatchError so callers can catch one base
class. The command line maps the concrete types to distinct exit codes.
"""


class IndmatchError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoopError(IndmatchError):
    """An edge joins a vertex to itself."""


class DuplicateEdgeError(IndmatchError):
    """The same undirected edge was given twice."""


class IdOutOfRangeError(IndmatchError):
    """An edge endpoint is not a valid vertex id for the graph being built."""


class UnknownVertexError(IndmatchError):
    """An operation referenced a vertex the graph does not contain."""


class FormatError(IndmatchError):
    """A text payload does not parse as the expected file format."""


class MaxDegreeExceededError(IndmatchError):
    """The reduction engine was given a graph with a vertex of degree > 4."""

    def __init__(self, vertex, degree):
        super().__init__(f"vertex {vertex} has degree {degree}, expected at most 4")
        self.vertex = vertex
        self.degree = degree


class C25ComponentError(IndmatchError):
    """The input contains a component isomorphic to the one excluded graph.

    That component is the 4-regular 10-vertex blow-up of a 5-cycle; its best
    induced matching has a single edge, which is below the guarantee the
    engine certifies, so such inputs are rejected up front.
    """

    def __init__(self, component):
        comp = tuple(sorted(component))
        super().__init__(f"component {comp} is the excluded 10-vertex graph")
        self.component = comp


class BudgetExceededError(IndmatchError):
    """The exact search visited more nodes than its budget allows."""

    def __init__(self, visited, max_nodes):
        super().__init__(
            f"search budget exhausted after {visited} nodes (limit {max_nodes})"
        )
        self.visited = visited
        self.max_nodes = max_nodes


class InvariantViolationError(IndmatchError):
    """An internal consistency check failed while reducing a graph.

    This is the "should never happen" error: it means a reduction step failed
    validation on a graph the engine accepted. The offending rule, witness,
    and the graph being reduced ride along for debugging: the live graph with
    its deleted vertices left isolated, or the input graph for rule 'final'.
    """

    def __init__(self, detail, rule=None, witness=None, graph=None):
        msg = detail if rule is None else f"{rule}: {detail}"
        super().__init__(msg)
        self.detail = detail
        self.rule = rule
        self.witness = witness
        self.graph = graph

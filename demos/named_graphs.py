"""Tour of the named instances and their exact optima.

The solver guarantees at least one matched edge per nine non-isolated
vertices for every connected input of max degree 4 except one specific
10-vertex graph. This script shows that graph, why it has to be refused,
and the 9-vertex instance proving the ratio cannot be improved.
"""

from indmatch import (
    C25ComponentError,
    gen_c25,
    gen_k33plus,
    gen_tight9,
    max_induced_matching,
    solve,
)


def describe(name, g):
    best = max_induced_matching(g)
    degree = max(map(len, g.adjacency.values()))
    print(f"{name}: n={g.n} m={g.m} max degree {degree}"
          f" optimum {len(best)} {list(best)}")
    return best


def main():
    c25 = describe("excluded 10-vertex graph", gen_c25())
    print(f"  9 * {len(c25)} = {9 * len(c25)} < 10 vertices,"
          " so no algorithm can meet the bound here")
    try:
        solve(gen_c25())
    except C25ComponentError as exc:
        print(f"  solve refuses it up front: {exc}")

    print()
    tight = gen_tight9()
    describe("tight 9-vertex instance", tight)
    result = solve(tight)
    print(f"  solve matches {len(result.matching)} edge on 9 vertices:"
          " the one-per-nine ratio is exact, not slack")

    print()
    k33 = describe("subdivided complete bipartite graph", gen_k33plus())
    print(f"  subcubic with a one-edge optimum on {gen_k33plus().n} vertices;"
          " it is the lone exception to the stronger one-per-six"
          " bound that holds for max degree 3")
    assert len(k33) == 1


if __name__ == "__main__":
    main()

"""Follow one solve end to end and watch the checker catch tampering.

Every solve returns a certificate: the ordered list of local steps it
took, each naming the edges it matched and the vertices it deleted.
verify_certificate replays that list against a fresh copy of the graph,
so a wrong certificate cannot pass no matter what produced it.
"""

import dataclasses

from indmatch import (
    Certificate,
    RandomGraphConfig,
    gen_random_maxdeg4,
    format_certificate,
    solve,
    verify_certificate,
)


def main():
    g = gen_random_maxdeg4(RandomGraphConfig(n=60, extra_edge_attempts=120, seed=4))
    degree = max(map(len, g.adjacency.values()))
    print(f"instance: n={g.n} m={g.m} max degree {degree}")

    result = solve(g)
    print(f"matched {len(result.matching)} edges"
          f" in {len(result.certificate.steps)} steps\n")

    budget = 0
    for k, step in enumerate(result.certificate.steps, 1):
        budget += 9 * len(step.matched) - len(step.removed)
        print(f"  step {k}: {step.rule} matches {len(step.matched)},"
              f" removes {len(step.removed)} vertices"
              f" (slack so far {budget})")
    print("\nevery step pays for at most nine deletions per matched edge,"
          " which is the whole proof of the size bound\n")

    print("serialized form:")
    print(format_certificate(result))

    report = verify_certificate(g, result)
    print(f"replay of the honest certificate: ok={report.ok}")

    # drop the first step and watch the replay notice the hole
    tampered = dataclasses.replace(
        result, certificate=Certificate(result.certificate.steps[1:])
    )
    report = verify_certificate(g, tampered)
    print(f"replay with one step deleted: ok={report.ok}")
    for line in report.details:
        print(f"  {line}")


if __name__ == "__main__":
    main()

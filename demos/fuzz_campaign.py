"""Run a randomized solve/verify campaign and show it is replayable.

Each trial derives its own seed from the master seed and the trial index,
generates a connected instance, solves it, and re-checks both the matching
and the certificate. Small instances are additionally compared against the
exact optimum. The summary is byte-identical across runs with the same
configuration, so any reported failure can be replayed in isolation.
"""

from time import perf_counter

from indmatch import FuzzConfig, fuzz


def campaign(config):
    started = perf_counter()
    report = fuzz(config)
    elapsed = perf_counter() - started
    for line in report.summary_lines():
        print(f"  {line}")
    print(f"  wall time {elapsed:.2f}s, slowest trial {report.max_seconds:.3f}s")
    return report


def main():
    config = FuzzConfig(trials=300, n_min=2, n_max=120, seed=2026)
    print(f"campaign: {config.trials} trials,"
          f" n in [{config.n_min}, {config.n_max}], seed {config.seed}")
    first = campaign(config)

    print("same configuration again:")
    second = campaign(config)
    same = first.summary_lines() == second.summary_lines()
    print(f"summaries identical: {same}")

    print("\ninstances up to 20 vertices were also checked against"
          " the exact solver inside each trial")


if __name__ == "__main__":
    main()

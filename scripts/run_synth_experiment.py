#!/usr/bin/env python
"""Run the pinned synthetic experiment and print its summary table.

This is the quick from-source sanity loop: it reproduces the numbers
the golden tests pin (at the default seed and sample count) without
writing any files.  Use the `trajfuse synth` command instead when you
want the dumps and reports on disk.
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace

from trajfuse.fusion import STRATEGIES
from trajfuse.synth import (
    PINNED_PRIMARY,
    pinned_config,
    pinned_predictors,
    synth_experiment,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=None,
                        help="override the pinned seed")
    args = parser.parse_args()

    config = pinned_config(sample_count=args.samples)
    if args.seed is not None:
        config = replace(config, seed=args.seed)

    start = time.perf_counter()
    result = synth_experiment(
        config,
        pinned_predictors(),
        strategies=STRATEGIES,
        primary_model=PINNED_PRIMARY,
    )
    elapsed = time.perf_counter() - start

    columns = list(result.summary[0].keys())
    widths = [max(len(str(c)), 12) for c in columns]
    header = "  ".join(str(c).ljust(w) for c, w in zip(columns, widths))
    print(header)
    print("-" * len(header))
    for row in result.summary:
        cells = []
        for col, w in zip(columns, widths):
            v = row[col]
            cells.append((v if isinstance(v, str) else f"{v:.4f}").ljust(w))
        print("  ".join(cells))
    print(f"\n{config.sample_count} samples in {elapsed:.1f}s (seed {config.seed})")


if __name__ == "__main__":
    main()

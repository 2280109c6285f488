"""The benchmark workloads: the CLI commands of one pass, built from the seed.

Each command carries the check its output must pass. Checks run outside
the timed region and do not depend on the seed being a particular value.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

WORKLOADS = ("sweep", "dense", "torus")

# Small-window suites carry most of a sweep pass at this trial count; the
# one dense item is the n = 2000 Schur record of the radius suite. The pass
# also runs the configuration search, the other many-tiny-solves regime: as
# a workload of its own, its single-threaded pass time drifted by a factor
# of up to two between runs on a shared two-core machine.
SWEEP_TRIALS = 300
SWEEP_MAX_N = 12
DENSE_N = 2000
DENSE_CONFIGS = (("uniform", 1.0), ("random", 0.5), ("trig", 0.5))
RADIUS_TRIALS = 10
SEARCH_NS = (12, 24)
SEARCH_ALPHA = 0.5
# A climb stops early only after 18 step halvings, so an 18-round cap makes
# every climb run exactly 1 + 18 * 2(n+1) evaluations whatever its start.
# Uncapped, the length of the seeded random restart's climb varies the
# pass time by tens of percent from seed to seed.
SEARCH_ROUNDS = 18
FIGURE_GRID = (1, 25, 99)
FINE_GRID = (1, 40, 400)
# Worker count (HCL_THREADS) per workload; the others keep the program
# default. The torus scan is pure Python per point, so through the default
# two-worker pool its threads contend for the GIL: the pass was a third
# slower than with one worker and its run medians spread by 28% over ten
# runs on a shared two-core machine. The pool itself is measured by sweep.
WORKERS = {"torus": 1}

# Self-test sizes: every command and check still runs, at a fraction of the cost.
TINY_SWEEP_TRIALS = 3
TINY_DENSE_N = 60
TINY_RADIUS_TRIALS = 2


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[int, str], list[str]]
    # Single-threaded and interpreter-bound, so its time follows the gauge
    # (bench/gauge.py) and is reported scaled to the gauge's reference speed.
    gauged: bool = False


def _search(n: int, seed: int) -> Command:
    argv = ["constant", "--search", "--alpha", str(SEARCH_ALPHA), "--restarts", "1",
            "--rounds", str(SEARCH_ROUNDS), "--n", str(n), "--seed", str(seed)]
    return Command(argv, partial(checks.search, alpha=SEARCH_ALPHA, n=n, seed=seed), gauged=True)


def _verify(suite: str, trials: int, max_n: int, seed: int) -> Command:
    argv = ["verify", "--suite", suite, "--trials", str(trials),
            "--max-n", str(max_n), "--seed", str(seed)]
    return Command(argv, partial(checks.verify, suite=suite, trials=trials, seed=seed))


def commands(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Command]:
    """The commands of one pass of `workload`; outputs go under out_dir."""
    if workload == "sweep":
        trials = TINY_SWEEP_TRIALS if tiny else SWEEP_TRIALS
        return [_verify("all", trials, SWEEP_MAX_N, seed), *(_search(n, seed) for n in SEARCH_NS)]
    if workload == "dense":
        n = TINY_DENSE_N if tiny else DENSE_N
        out = [Command(["constant", "--n", str(n), "--config", config,
                        "--alpha", str(alpha), "--seed", str(seed)],
                       partial(checks.constant, config=config, alpha=alpha, n=n, seed=seed))
               for config, alpha in DENSE_CONFIGS]
        trials = TINY_RADIUS_TRIALS if tiny else RADIUS_TRIALS
        return out + [_verify("radius", trials, SWEEP_MAX_N, seed)]
    if workload == "torus":
        figure_csv = str(out_dir / "figure.csv")
        fine_csv = str(out_dir / "scan-fine.csv")
        fine_argv = ["lower-bound", "--scan", *map(str, FINE_GRID), "--out", fine_csv]
        json_argv = ["lower-bound", "--scan", *map(str, FIGURE_GRID)]
        return [
            Command(["figure", "--out", figure_csv],
                    partial(checks.torus, grid=FIGURE_GRID, csv_path=figure_csv), gauged=True),
            Command(fine_argv, partial(checks.torus, grid=FINE_GRID, csv_path=fine_csv),
                    gauged=True),
            Command(json_argv, partial(checks.torus, grid=FIGURE_GRID, csv_path=None),
                    gauged=True),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")

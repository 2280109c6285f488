"""Heuristic configuration search for the fixed-size extremal constants.

Nothing here is certified: the climb reports the best configuration it
found, which is always a valid lower estimate but carries no optimality
claim.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import count
from .gaps import GapSequence, generate_cluster, generate_random, generate_uniform
from .lowerbound import construction_config, periodize
from .quadforms import ConstantEstimate, estimate_constant, first_constant_above


# The most kernel entries a stack of trials holds (8 MB of floats), so a
# climb at large n keeps a few trial kernels in memory, not a whole round.
STACK_FLOATS = 1 << 20


@dataclass(frozen=True)
class SearchResult:
    label: str
    estimate: ConstantEstimate


def generate_trig_periodized(n: int) -> GapSequence:
    """Window of n active nodes of the periodized torus construction at
    K = 5, A = 0.14, L = 10 and u = 1."""
    n = count("n", n, 1)
    cfg = construction_config(5, 0.14, 10, u=1.0)
    periods = max(2, -(-(n + 2) // cfg.m))
    seq, _ = periodize(cfg, periods)
    return GapSequence(seq.nodes[: n + 2])


def _nodes_from_gaps(gaps: np.ndarray) -> np.ndarray:
    """Node vectors from gap vectors along the last axis, starting at 0."""
    return np.concatenate((np.zeros((*gaps.shape[:-1], 1)), np.cumsum(gaps, axis=-1)), axis=-1)


def hill_climb(alpha: float, seq: GapSequence, rounds: int) -> ConstantEstimate:
    """Coordinate ascent on the n+1 gaps with multiplicative step halving;
    `rounds` is a count of at least 0.

    A round tries each gap in turn scaled by 1 + step and then by
    1 / (1 + step), and keeps every trial that beats the best value so far
    by 1e-13; a round that keeps none halves the step. The next trials of
    a round are built together, as one stack from the current gaps, and
    `first_constant_above` finds the first that beats the best: it solves
    only the trials whose Collatz-Wielandt bound at the best's Perron
    vector can beat it, and hands on the kept trial's certified vector,
    which bounds the next stacks. The trials after a kept one are stacked
    again from the new gaps, so the climb keeps the trials a one-by-one
    loop keeps, with the same values. Trials stacked after a kept one are
    wasted, so stack lengths follow the climb: the first stack holds one
    trial, a stack that keeps a trial sets the next length to its trials
    up to that one, and a stack that keeps none doubles it, up to a round
    and to STACK_FLOATS kernel entries.

    The returned estimate is solved and certified on the final gaps, or
    is the start's own estimate when no trial was kept (rebuilding the
    start's nodes from its gaps can change their last bits).
    """
    rounds = count("rounds", rounds, 0)
    start = estimate_constant(alpha, seq)
    gaps, best, step = np.diff(seq.nodes), start.value, 0.25
    # the best's Perron vector, which bounds every trial from above
    witness = start.witness.values
    coords = np.repeat(np.arange(gaps.size), 2)
    longest = max(1, min(coords.size, STACK_FLOATS // seq.n ** 2))
    kept, size = False, 1
    for _ in range(rounds):
        factors = np.tile((1.0 + step, 1.0 / (1.0 + step)), gaps.size)
        improved, k = False, 0
        while k < coords.size:
            stop = min(k + size, coords.size)
            trials = np.tile(gaps, (stop - k, 1))
            trials[np.arange(stop - k), coords[k:stop]] *= factors[k:stop]
            hit = first_constant_above(alpha, _nodes_from_gaps(trials), best + 1e-13, witness)
            if hit is None:
                k, size = stop, min(2 * size, longest)
                continue
            j, best, witness = hit
            gaps = trials[j]
            improved = kept = True
            k, size = k + j + 1, j + 1
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    if not kept:
        return start
    return estimate_constant(alpha, GapSequence(_nodes_from_gaps(gaps)))


def candidate_configs(n: int, seed: int = 0, *, restarts: int) -> list[tuple[str, GapSequence]]:
    """The three reference configurations plus seeded random restarts."""
    restarts = count("restarts", restarts, 0)
    configs = [("uniform", generate_uniform(n, 1.0))]
    if n >= 2:
        configs.append(("cluster", generate_cluster(n)))
    configs.append(("trig-periodized", generate_trig_periodized(n)))
    for r in range(restarts):
        configs.append((f"random-{seed + r}", generate_random(n, 0.2, seed + r)))
    return configs


def search_constant(alpha: float, n: int, seed: int = 0, *, restarts: int,
                    rounds: int) -> SearchResult:
    """Best estimate over all candidate starts, each refined by the climb."""
    best: SearchResult | None = None
    for label, seq in candidate_configs(n, seed, restarts=restarts):
        estimate = hill_climb(alpha, seq, rounds)
        if best is None or estimate.value > best.estimate.value:
            best = SearchResult(label, estimate)
    assert best is not None
    return best

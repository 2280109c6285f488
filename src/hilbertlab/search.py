"""Heuristic configuration search for the fixed-size extremal constants.

Nothing here is certified: the climb reports the best configuration it
found, which is always a valid lower estimate but carries no optimality
claim.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gaps import GapSequence, generate_cluster, generate_random, generate_uniform
from .lowerbound import construction_config, periodize
from .quadforms import ConstantEstimate, estimate_constant


@dataclass(frozen=True)
class SearchResult:
    label: str
    estimate: ConstantEstimate


def generate_trig_periodized(n: int, k: int = 5, a: float = 0.14, l: int = 10) -> GapSequence:
    """Window of the periodized torus construction with n active nodes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    cfg = construction_config(k, a, l, u=1.0)
    periods = max(2, -(-(n + 2) // cfg.m))
    seq, _ = periodize(cfg, periods)
    return GapSequence(seq.nodes[: n + 2])


def _seq_from_gaps(gaps: np.ndarray) -> GapSequence:
    return GapSequence(np.concatenate(([0.0], np.cumsum(gaps))))


def hill_climb(alpha: float, seq: GapSequence, rounds: int = 200) -> ConstantEstimate:
    """Coordinate ascent on the n+1 gaps with multiplicative step halving."""
    gaps = np.diff(seq.nodes)
    best = estimate_constant(alpha, seq)
    step = 0.25
    for _ in range(rounds):
        improved = False
        for i in range(gaps.size):
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                trial = gaps.copy()
                trial[i] *= factor
                candidate = estimate_constant(alpha, _seq_from_gaps(trial))
                if candidate.value > best.value + 1e-13:
                    best, gaps, improved = candidate, trial, True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return best


def candidate_configs(n: int, seed: int = 0, restarts: int = 3) -> list[tuple[str, GapSequence]]:
    """The three reference configurations plus seeded random restarts."""
    configs = [("uniform", generate_uniform(n, 1.0))]
    if n >= 2:
        configs.append(("cluster", generate_cluster(n)))
    configs.append(("trig-periodized", generate_trig_periodized(n)))
    for r in range(restarts):
        configs.append((f"random-{seed + r}", generate_random(n, 0.2, seed + r)))
    return configs


def search_constant(alpha: float, n: int, seed: int = 0, restarts: int = 3,
                    rounds: int = 200) -> SearchResult:
    """Best estimate over all candidate starts, each refined by the climb."""
    if restarts < 0 or rounds < 0:
        raise ValueError(f"restarts and rounds must be >= 0, got {restarts} and {rounds}")
    best: SearchResult | None = None
    for label, seq in candidate_configs(n, seed, restarts):
        estimate = hill_climb(alpha, seq, rounds=rounds)
        if best is None or estimate.value > best.estimate.value:
            best = SearchResult(label, estimate)
    assert best is not None
    return best

import numpy as np
import pytest

from hilbertlab import estimate_constant, generate_uniform
from hilbertlab.search import (
    candidate_configs,
    generate_trig_periodized,
    hill_climb,
    search_constant,
)


def test_trig_periodized_window_size():
    for n in (1, 5, 40):
        assert generate_trig_periodized(n).n == n


def test_candidate_labels():
    labels = [label for label, _ in candidate_configs(6, seed=3, restarts=2)]
    assert labels == ["uniform", "cluster", "trig-periodized", "random-3", "random-4"]


def test_hill_climb_never_worse_than_start():
    seq = generate_uniform(6, 1.0)
    start = estimate_constant(1.0, seq).value
    best = hill_climb(1.0, seq, rounds=5)
    assert best.value >= start - 1e-13


def test_search_dominates_uniform_and_is_deterministic():
    baseline = estimate_constant(0.5, generate_uniform(5, 1.0)).value
    r1 = search_constant(0.5, 5, seed=0, restarts=1, rounds=4)
    r2 = search_constant(0.5, 5, seed=0, restarts=1, rounds=4)
    assert r1.estimate.value >= baseline - 1e-13
    assert r1.estimate.value == r2.estimate.value
    assert np.array_equal(r1.estimate.config.nodes, r2.estimate.config.nodes)


@pytest.mark.parametrize("restarts, rounds", ((-1, 4), (1, -1)))
def test_search_rejects_negative_counts(restarts, rounds):
    with pytest.raises(ValueError):
        search_constant(0.5, 4, restarts=restarts, rounds=rounds)

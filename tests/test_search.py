import hashlib
import json
import re

import numpy as np
import pytest

from hilbertlab import GapSequence, alpha_form_matrix, estimate_constant, generate_uniform
from hilbertlab import quadforms, search
from hilbertlab.cli import dispatch
from hilbertlab.quadforms import RESIDUAL_RTOL
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


def reference_hill_climb(alpha, seq, rounds):
    """The climb as a trial-by-trial loop that solves and certifies every
    trial in full: the oracle for the stacked climb."""
    gaps = np.diff(seq.nodes)
    best = estimate_constant(alpha, seq)
    step = 0.25
    for _ in range(rounds):
        improved = False
        for i in range(gaps.size):
            for factor in (1.0 + step, 1.0 / (1.0 + step)):
                trial = gaps.copy()
                trial[i] *= factor
                nodes = np.concatenate(([0.0], np.cumsum(trial)))
                candidate = estimate_constant(alpha, GapSequence(nodes))
                if candidate.value > best.value + 1e-13:
                    best, gaps, improved = candidate, trial, True
        if not improved:
            step *= 0.5
            if step < 1e-6:
                break
    return best


def reference_search(alpha, n, seed, restarts, rounds, climbs):
    """search_constant on the reference climb; `climbs` keeps the climbs by
    start label, since a start depends on the seed only through its label."""
    best = None
    for label, seq in candidate_configs(n, seed, restarts=restarts):
        if label not in climbs:
            climbs[label] = reference_hill_climb(alpha, seq, rounds)
        if best is None or climbs[label].value > best[1].value:
            best = (label, climbs[label])
    return best


class TestStackedClimb:
    """The climb values its trials in stacks; it must keep the trials, the
    value, the witness and the nodes of the trial-by-trial loop exactly."""

    @pytest.mark.parametrize("n", range(1, 15))
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 1.7))
    def test_search_equals_trial_by_trial_loop(self, n, alpha):
        climbs = {}
        for seed in (0, 1, 7):
            found = search_constant(alpha, n, seed=seed, restarts=2, rounds=12)
            label, oracle = reference_search(alpha, n, seed, 2, 12, climbs)
            assert found.label == label
            assert found.estimate.value == oracle.value
            assert np.array_equal(found.estimate.witness.values, oracle.witness.values)
            assert np.array_equal(found.estimate.config.nodes, oracle.config.nodes)

    def test_stacks_stay_within_the_memory_bound(self, monkeypatch):
        lengths = []
        values = search.constant_values

        def recording(alpha, nodes):
            lengths.append(len(nodes))
            return values(alpha, nodes)

        monkeypatch.setattr(search, "constant_values", recording)
        monkeypatch.setattr(search, "STACK_FLOATS", 3 * 8 ** 2)
        for _, seq in candidate_configs(8, seed=0, restarts=1):
            found = hill_climb(0.5, seq, rounds=12)
            oracle = reference_hill_climb(0.5, seq, rounds=12)
            assert found.value == oracle.value
            assert np.array_equal(found.config.nodes, oracle.config.nodes)
        assert max(lengths) == 3

    def test_returned_witness_is_certified(self):
        estimate = search_constant(0.5, 12, seed=0, restarts=1, rounds=18).estimate
        matrix = alpha_form_matrix(estimate.config, 0.5)
        sym = (matrix + matrix.T) / 2.0
        v = estimate.witness.values
        assert np.linalg.norm(sym @ v - estimate.value * v) <= RESIDUAL_RTOL * estimate.value

    def test_climb_without_a_kept_trial_returns_the_start(self):
        # rebuilding this start's nodes from its gaps changes their last bits
        seq = generate_trig_periodized(1)
        assert not np.array_equal(np.concatenate(([0.0], np.cumsum(np.diff(seq.nodes)))),
                                  seq.nodes)
        best = hill_climb(0.5, seq, rounds=12)
        assert best.config is seq
        assert best.value == reference_hill_climb(0.5, seq, rounds=12).value

    def test_mirrored_trials_take_the_half_size_fold(self, calls):
        # scaling the middle gap of a uniform window keeps it mirrored
        fold = quadforms._fold
        tested = calls(quadforms, "_fold")
        seq = generate_uniform(2, 1.0)
        best = hill_climb(1.0, seq, rounds=3)
        assert any(fold(*args) is not None for args in tested)
        assert best.value == reference_hill_climb(1.0, seq, rounds=3).value

    def test_fold_is_tested_only_on_mirrored_trials(self, calls):
        # the (0, 1) pair alone let 371 kernels of this search through, 70
        # mirrored; the uniform start's block is built from one row
        fold = quadforms._fold
        tested = calls(quadforms, "_fold")
        grid = calls(quadforms, "_toeplitz_fold")
        search_constant(0.5, 12, seed=0, restarts=1, rounds=18)
        assert (len(tested), len(grid)) == (69, 1)
        assert all(fold(*args) is not None for args in tested)


# the two searches of the benchmark as printed on the trial-by-trial loop:
# label, value, and sha256 of stdout with elapsed_ms zeroed
BENCH_SEARCHES = {
    12: ("search:uniform", 2.73882908766,
         "708cd6afe53df7b5335c09eccca00260734c2e7f919cedef2e73eb69bc77a66c"),
    24: ("search:cluster", 3.01066065806,
         "5f564bfd5197e0dcd6e1f2119fdb5b76a3638aa46710d643953312e6bd3fa021"),
}


@pytest.mark.parametrize("n", sorted(BENCH_SEARCHES))
def test_benchmark_search_output(capsys, n):
    assert dispatch(["constant", "--search", "--alpha", "0.5", "--restarts", "1",
                     "--rounds", "18", "--n", str(n), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    record = json.loads(out)["results"][0]
    label, value, digest = BENCH_SEARCHES[n]
    assert (record["config"], record["value"]) == (label, value)
    zeroed = re.sub(r'("elapsed_ms": ?)\d+', r"\g<1>0", out)
    assert hashlib.sha256(zeroed.encode()).hexdigest() == digest

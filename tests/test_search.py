import hashlib
import json
import re

import numpy as np
import pytest

from hilbertlab import GapSequence, alpha_form_matrix, estimate_constant, generate_uniform
from hilbertlab import eigen, quadforms, search
from hilbertlab.cli import dispatch
from hilbertlab.errors import NegativeEntry, NonFinite
from hilbertlab.gaps import generate_random
from hilbertlab.eigen import RESIDUAL_RTOL
from hilbertlab.quadforms import constant_values, first_constant_above
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
        first = search.first_constant_above

        def recording(alpha, nodes, floor, v):
            lengths.append(len(nodes))
            return first(alpha, nodes, floor, v)

        monkeypatch.setattr(search, "first_constant_above", recording)
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
        fold = eigen.fold
        tested = calls(eigen, "fold")
        seq = generate_uniform(2, 1.0)
        best = hill_climb(1.0, seq, rounds=3)
        assert any(fold(*args) is not None for args in tested)
        assert best.value == reference_hill_climb(1.0, seq, rounds=3).value

    def test_fold_is_tested_only_on_mirrored_trials(self, calls):
        # only trials that the bound cannot drop reach the fold test, and a
        # kept one again for its witness (69 calls before the bound), plus
        # the uniform start's block, folded from the rows of a Toeplitz view
        fold = eigen.fold
        tested = calls(eigen, "fold")
        grid = calls(eigen, "_toeplitz_view")
        search_constant(0.5, 12, seed=0, restarts=1, rounds=18)
        assert (len(tested), len(grid)) == (37, 1)
        assert all(fold(*args) is not None for args in tested)

    @pytest.mark.parametrize("n", (24, 48))
    @pytest.mark.parametrize("alpha", (0.5, 2.0))
    def test_larger_climbs_equal_the_trial_by_trial_loop(self, n, alpha):
        for _, seq in candidate_configs(n, seed=3, restarts=1):
            found = hill_climb(alpha, seq, rounds=6)
            oracle = reference_hill_climb(alpha, seq, rounds=6)
            assert found.value == oracle.value
            assert np.array_equal(found.witness.values, oracle.witness.values)
            assert np.array_equal(found.config.nodes, oracle.config.nodes)

    def test_negative_rounds_are_rejected(self):
        with pytest.raises(ValueError, match="rounds must be >= 0"):
            hill_climb(0.5, generate_uniform(4, 1.0), -1)


def climb_trials(seq, step):
    """The climb's trials of one round at this step, as a stack of node
    vectors: each gap of the window scaled by 1 + step, then by 1 / (1 + step)."""
    gaps = np.diff(seq.nodes)
    trials = np.tile(gaps, (2 * gaps.size, 1))
    rows = np.arange(2 * gaps.size)
    trials[rows, rows // 2] *= np.tile((1.0 + step, 1.0 / (1.0 + step)), gaps.size)
    return np.concatenate((np.zeros((len(trials), 1)), np.cumsum(trials, axis=1)), axis=1)


class TestCollatzWielandtPruning:
    """`first_constant_above` solves only the trials whose Collatz-Wielandt
    bound at the best's Perron vector can beat the best, and finds the
    first trial above the floor that solving every trial finds."""

    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 2.0))
    @pytest.mark.parametrize("n", (2, 5, 13, 30, 48))
    def test_a_dropped_trial_never_beats_the_best(self, alpha, n):
        dropped = 0
        for seed in range(3):
            start = estimate_constant(alpha, generate_random(n, 0.2, seed))
            floor = start.value + 1e-13
            for step in (0.25, 1e-3, 1e-6, 1e-9):
                nodes = climb_trials(start.config, step)
                kernels = quadforms._window_kernels(alpha, nodes)
                v = start.witness.values
                bounds = eigen.collatz_wielandt(kernels @ v, v)[1]
                drop = bounds * (1.0 + 1e-12) <= floor
                dropped += drop.sum()
                values = np.linalg.eigvalsh(kernels)[:, -1]
                assert (values[drop] <= floor).all()
                assert np.array_equal(values, constant_values(alpha, nodes))
                hits = np.flatnonzero(values > floor)
                found = first_constant_above(alpha, nodes, floor, start.witness.values)
                if hits.size:
                    assert found[:2] == (hits[0], values[hits[0]])
                else:
                    assert found is None
        assert dropped

    def test_a_nan_bound_or_a_zero_entry_drops_nothing(self, monkeypatch, calls):
        start = estimate_constant(0.5, generate_random(12, 0.2, 4))
        nodes = climb_trials(start.config, 1e-3)
        floor = start.value + 1e-13
        values = constant_values(0.5, nodes)
        hit = int(np.flatnonzero(values > floor)[0])
        solved = calls(eigen, "top_eigen")

        def solved_trials(v):
            solved.clear()
            found = first_constant_above(0.5, nodes, floor, v)
            assert found[:2] == (hit, values[hit])
            return len(solved[0][0])

        # the witness itself drops some of the trials
        assert solved_trials(start.witness.values) < len(nodes)
        zero = start.witness.values.copy()
        zero[3] = 0.0
        assert solved_trials(zero) == len(nodes)
        monkeypatch.setattr(eigen, "collatz_wielandt",
                            lambda product, v: (np.full(len(product), np.nan),) * 2)
        assert solved_trials(start.witness.values) == len(nodes)

    def test_entry_checks_run_before_any_bound(self, monkeypatch):
        def unread(product, v):
            raise AssertionError("bound read")

        monkeypatch.setattr(eigen, "collatz_wielandt", unread)
        monkeypatch.setattr(quadforms, "_window_kernels",
                            lambda alpha, nodes: np.array([[[0.0, np.nan], [np.nan, 0.0]]]))
        with pytest.raises(NonFinite):
            first_constant_above(0.5, None, 1.0, np.ones(2))
        monkeypatch.setattr(quadforms, "_window_kernels",
                            lambda alpha, nodes: np.array([[[0.0, -1.0], [-1.0, 0.0]]]))
        with pytest.raises(NegativeEntry):
            first_constant_above(0.5, None, 1.0, np.ones(2))

    def test_entry_checks_run_once_per_call(self, calls):
        # the whole stack is checked once; its scales go to the survivors'
        # solve and to the kept trial's re-solve
        start = estimate_constant(0.5, generate_random(12, 0.2, 4))
        nodes = climb_trials(start.config, 1e-3)
        values = constant_values(0.5, nodes)
        checks, solves = calls(eigen, "checked_scales"), calls(eigen, "top_eigen")
        for floor, solved in ((start.value + 1e-13, 2), (values.max(), 1), (1e6, 0)):
            checks.clear()
            solves.clear()
            first_constant_above(0.5, nodes, floor, start.witness.values)
            assert (len(checks), len(solves)) == (1, solved)
        checks.clear()
        constant_values(0.5, nodes)
        assert len(checks) == 1

    def test_most_trials_of_a_search_are_never_solved(self, monkeypatch):
        built, solved = [], []
        first, solve = search.first_constant_above, eigen.top_eigen

        def building(alpha, nodes, floor, v):
            built.append(len(nodes))
            return first(alpha, nodes, floor, v)

        def solving(stack, scales, vector, nonneg=False):
            if not vector:
                solved.append(len(stack))
            return solve(stack, scales, vector, nonneg)

        monkeypatch.setattr(search, "first_constant_above", building)
        monkeypatch.setattr(eigen, "top_eigen", solving)
        found = search_constant(0.5, 24, seed=5, restarts=1, rounds=18)
        assert (found.label, round(found.estimate.value, 11)) == ("cluster", 3.01066065806)
        # 1,175 of 4,625 when this was written
        assert sum(solved) <= 0.35 * sum(built)


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

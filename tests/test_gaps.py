import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertlab import (
    GapSequence,
    WeightVector,
    generate_cluster,
    generate_random,
    generate_uniform,
)
from hilbertlab.gaps import node_differences
from hilbertlab.errors import IndexOutOfRange, NegativeEntry, NonFinite, NotIncreasing, TooShort


class TestConstruction:
    def test_basic_window(self):
        seq = GapSequence([-1.0, 0.0, 1.0, 2.0])
        assert seq.n == 2
        assert np.allclose(seq.deltas, [1.0, 1.0])

    def test_delta_takes_minimum_side(self):
        seq = GapSequence([0.0, 1.0, 3.0, 4.0])
        assert seq.delta(1) == 1.0
        assert seq.delta(2) == 1.0

    def test_rejects_non_increasing(self):
        with pytest.raises(NotIncreasing):
            GapSequence([0.0, 1.0, 1.0])

    @pytest.mark.parametrize("nodes", ([0.0, 2.0, 1.0, 3.0], [-0.0, 0.0, 1.0],
                                       [0.0, 5e-324, 5e-324], [-1.7e308, 1.7e308, 1.0]))
    def test_rejects_equal_or_decreasing_pairs(self, nodes):
        with pytest.raises(NotIncreasing):
            GapSequence(nodes)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(nodes=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                    st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 1.7e308))),
                          min_size=3, max_size=8))
    def test_order_check_is_the_difference_check(self, nodes):
        # for finite floats, b > a exactly when the rounded b - a is above 0
        increasing = bool((np.diff(nodes) > 0).all())
        try:
            GapSequence(nodes)
        except NotIncreasing:
            assert not increasing
        else:
            assert increasing

    def test_rejects_too_short(self):
        with pytest.raises(TooShort):
            GapSequence([0.0, 1.0])

    @pytest.mark.parametrize("nodes", ([0.0, 1.0, 2.0, np.inf], [-np.inf, 0.0, 1.0],
                                       [0.0, np.nan, 2.0]))
    def test_rejects_non_finite(self, nodes):
        with pytest.raises(NonFinite):
            GapSequence(nodes)

    def test_delta_index_bounds(self):
        seq = generate_uniform(3, 1.0)
        with pytest.raises(IndexOutOfRange):
            seq.delta(0)
        with pytest.raises(IndexOutOfRange):
            seq.delta(4)

    def test_nodes_are_read_only(self):
        seq = generate_uniform(3, 1.0)
        with pytest.raises(ValueError):
            seq.nodes[0] = 5.0

    def test_adopts_a_read_only_array_it_owns(self):
        nodes = np.array([0.0, 1.0, 3.0])
        nodes.setflags(write=False)
        assert GapSequence(nodes).nodes is nodes

    @pytest.mark.parametrize("make", ("writable", "read-only view", "list"))
    def test_copies_every_other_input(self, make):
        buffer = np.array([0.0, 1.0, 3.0, 4.0])
        if make == "writable":
            seq = GapSequence(buffer)
        elif make == "read-only view":
            view = buffer[:]
            view.setflags(write=False)
            assert not view.flags.owndata
            seq = GapSequence(view)
        else:
            buffer = [0.0, 1.0, 3.0, 4.0]
            seq = GapSequence(buffer)
        buffer[1] = 2.0
        assert np.array_equal(seq.nodes, [0.0, 1.0, 3.0, 4.0])
        assert not seq.nodes.flags.writeable

    @pytest.mark.parametrize("seed", range(5))
    def test_delta_builds_no_deltas(self, seed):
        # each delta(k) is the float of the cached vector, read from the nodes
        seq = generate_random(40, 0.3, seed)
        values = [seq.delta(k) for k in range(1, seq.n + 1)]
        assert "deltas" not in vars(seq)
        assert values == seq.deltas.tolist()


class TestGenerators:
    def test_uniform_window_peak(self, traced_peak):
        # the nodes, built in place and adopted by the window; the window's
        # own copy of an arange read 2.13, and the float difference array of
        # the order check 3.1
        n = 2 * 10**5 + 1
        assert traced_peak(lambda: generate_uniform(n, 1.0)) <= 1.3 * 8 * n

    @pytest.mark.parametrize("spacing", (1.0, 0.3, 0.7, 3.5))
    def test_uniform_nodes_are_the_scaled_arange(self, spacing):
        n = 1000
        want = np.arange(n + 2) * spacing
        assert generate_uniform(n, spacing).nodes.tobytes() == want.tobytes()

    def test_uniform_small(self):
        seq = generate_uniform(3, 1.0)
        assert np.array_equal(seq.nodes, [0.0, 1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(seq.deltas, [1.0, 1.0, 1.0])

    def test_uniform_single_node(self):
        seq = generate_uniform(1, 0.5)
        assert np.array_equal(seq.nodes, [0.0, 0.5, 1.0])
        assert np.array_equal(seq.deltas, [0.5])

    def test_uniform_spacing_two(self):
        assert np.array_equal(generate_uniform(4, 2.0).deltas, [2.0] * 4)

    @pytest.mark.parametrize("bad", [(0, 1.0), (3, 0.0), (3, -1.0)])
    def test_uniform_preconditions(self, bad):
        with pytest.raises(ValueError):
            generate_uniform(*bad)

    def test_cluster_two(self):
        seq = generate_cluster(2)
        assert np.allclose(seq.nodes, [0.0, 1.0, 2.0, 2.5])
        assert np.allclose(seq.deltas, [1.0, 0.5])

    def test_cluster_four(self):
        assert np.allclose(generate_cluster(4).deltas, [1.0, 0.25, 0.25, 0.25])

    def test_cluster_ten_second_delta(self):
        assert generate_cluster(10).delta(2) == pytest.approx(0.1, abs=1e-15)

    def test_random_is_deterministic(self):
        a = generate_random(5, 1.0, 42)
        b = generate_random(5, 1.0, 42)
        assert np.array_equal(a.nodes, b.nodes)
        assert not np.array_equal(a.nodes, generate_random(5, 1.0, 43).nodes)

    def test_random_single(self):
        seq = generate_random(1, 0.1, 0)
        assert seq.n == 1
        assert seq.delta(1) > 0

    @pytest.mark.parametrize("min_gap", (np.nan, np.inf, 1e308))
    def test_random_rejects_non_finite_min_gap(self, min_gap):
        with pytest.raises(NonFinite):
            generate_random(5, min_gap, 0)

    def test_random_respects_min_gap(self):
        seq = generate_random(100, 1e-6, 7)
        gaps = np.diff(seq.nodes)
        assert gaps.min() >= 1e-6
        assert gaps.max() <= 1e-5


class TestGapInvariants:
    @pytest.mark.parametrize("seed", range(25))
    def test_delta_is_min_adjacent_gap(self, seed):
        seq = generate_random(int(np.random.default_rng(seed).integers(1, 30)), 0.3, seed)
        gaps = np.diff(seq.nodes)
        for k in range(1, seq.n + 1):
            d = seq.delta(k)
            assert d <= gaps[k - 1] and d <= gaps[k]
            assert d == gaps[k - 1] or d == gaps[k]

    def test_translation_exact_at_zero(self):
        seq = generate_random(10, 0.5, 1)
        shifted = GapSequence(seq.nodes + 0.0)
        assert np.array_equal(shifted.deltas, seq.deltas)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(c=st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    def test_translation_invariance(self, c):
        # |c| capped so node rounding (ulp(c)/2 per node) stays below the
        # 1e-12 relative tolerance against gaps of order 1
        seq = generate_random(12, 0.5, 3)
        shifted = GapSequence(seq.nodes + c)
        assert np.allclose(shifted.deltas, seq.deltas, rtol=1e-12, atol=0.0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(s=st.floats(min_value=1e-3, max_value=1e3, allow_nan=False))
    def test_scaling_covariance(self, s):
        seq = generate_random(12, 0.5, 4)
        scaled = GapSequence(seq.nodes * s)
        assert np.allclose(scaled.deltas, seq.deltas * s, rtol=1e-12, atol=0.0)


class TestDifferences:
    def test_entries_and_unit_diagonal(self):
        seq = GapSequence([0.0, 1.0, 3.0, 7.0, 8.0])
        assert np.array_equal(node_differences(seq.active), [[1.0, -2.0, -6.0],
                                                             [2.0, 1.0, -4.0],
                                                             [6.0, 4.0, 1.0]])

    def test_single_active_node(self):
        assert np.array_equal(node_differences(generate_uniform(1, 2.0).active), [[1.0]])

    def test_stack_gives_each_window_its_matrix(self):
        seqs = [generate_random(5, 0.3, s) for s in range(3)] + [generate_cluster(5)]
        stack = node_differences(np.array([seq.active for seq in seqs]))
        assert stack.shape == (4, 5, 5)
        for seq, diff in zip(seqs, stack):
            assert np.array_equal(node_differences(seq.active), diff)


class TestWeightVector:
    def test_rejects_negative(self):
        with pytest.raises(NegativeEntry):
            WeightVector(np.array([1.0, -0.1]))

    def test_values_read_only(self):
        w = WeightVector(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            w.values[0] = 3.0

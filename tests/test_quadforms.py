import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertlab import (
    GapSequence,
    cluster_lower_bound,
    estimate_constant,
    generate_cluster,
    generate_random,
    generate_uniform,
    WeightVector,
    q_alpha,
    top_eigen_nonneg_sym,
    uniform_lower_bound,
)
from hilbertlab.errors import (
    AlphaOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NoConvergence,
    NonFinite,
    NotIncreasing,
    NotSymmetric,
)
from hilbertlab import quadforms
from hilbertlab.quadforms import (
    RESIDUAL_RTOL,
    _alpha_kernels,
    _top_eigen,
    alpha_form_matrix,
    constant_values,
)
from hilbertlab.gaps import node_deltas, node_differences, pair_kernel
from hilbertlab.search import generate_trig_periodized

PI2_OVER_3 = math.pi ** 2 / 3.0
ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def _symmetrized(kernels: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of each kernel in a matrix or a stack of them."""
    sym = kernels + kernels.swapaxes(-1, -2)
    sym /= 2.0
    return sym


def jacobi_eigenvalues(matrix: np.ndarray, sweeps: int = 50) -> np.ndarray:
    """Cyclic Jacobi rotations; independent of the LAPACK route under test."""
    a = np.array(matrix, dtype=float)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off < 1e-14 * (1.0 + np.max(np.abs(np.diag(a)))):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))


def brute_force_q(seq, t, alpha):
    lam = seq.active
    delta = seq.deltas
    total = 0.0
    for m in range(seq.n):
        for n in range(seq.n):
            if m == n:
                continue
            total += (delta[m] ** (2 - alpha) * delta[n] ** alpha * t[m] * t[n]
                      / (lam[m] - lam[n]) ** 2)
    return total


class TestQAlpha:
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_two_nodes_unit_everything(self, alpha):
        seq = generate_uniform(2, 1.0)
        assert q_alpha(seq, [1.0, 1.0], alpha) == pytest.approx(2.0, rel=1e-14)

    def test_zero_weights(self):
        assert q_alpha(generate_uniform(5, 1.0), np.zeros(5), 1.0) == 0.0

    def test_uniform_hundred_matches_closed_form_and_oracle(self):
        seq = generate_uniform(100, 1.0)
        t = np.full(100, 1.0 / math.sqrt(100))
        value = q_alpha(seq, t, 1.0)
        assert value == pytest.approx(uniform_lower_bound(100), rel=1e-13)
        assert value == pytest.approx(brute_force_q(seq, t, 1.0), rel=1e-12)

    def test_random_matches_double_loop(self):
        rng = np.random.default_rng(5)
        seq = generate_random(9, 0.3, 5)
        t = rng.uniform(0.0, 1.0, 9)
        for alpha in (0.0, 0.7, 1.3):
            assert q_alpha(seq, t, alpha) == pytest.approx(
                brute_force_q(seq, t, alpha), rel=1e-12)

    def test_errors(self):
        seq = generate_uniform(3, 1.0)
        with pytest.raises(AlphaOutOfRange):
            q_alpha(seq, np.ones(3), 2.5)
        with pytest.raises(LengthMismatch):
            q_alpha(seq, np.ones(4), 1.0)


class TestAlphaFormMatrix:
    def test_transpose_symmetry_in_alpha(self):
        seq = generate_random(8, 0.4, 11)
        for alpha in (0.0, 0.3, 1.2):
            m1 = alpha_form_matrix(seq, alpha)
            m2 = alpha_form_matrix(seq, 2.0 - alpha)
            assert np.array_equal(m1.T, m2)

    def test_nonnegative_zero_diagonal(self):
        m = alpha_form_matrix(generate_random(6, 0.4, 2), 0.8)
        assert np.all(np.diag(m) == 0.0)
        assert np.all(m >= 0.0)


class TestTopEigen:
    def test_two_by_two(self):
        value, vector = top_eigen_nonneg_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert value == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(vector, [1 / math.sqrt(2)] * 2, atol=1e-12)

    def test_one_by_one_zero(self):
        value, vector = top_eigen_nonneg_sym(np.array([[0.0]]))
        assert value == 0.0
        assert np.array_equal(vector, [1.0])

    @pytest.mark.parametrize("seed", range(10))
    def test_against_jacobi_oracle(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.uniform(0.0, 1.0, (6, 6))
        m = (m + m.T) / 2.0
        value, vector = top_eigen_nonneg_sym(m)
        assert value == pytest.approx(jacobi_eigenvalues(m)[-1], abs=1e-9)
        assert np.min(vector) >= 0.0
        assert np.linalg.norm(m @ vector - value * vector) <= 1e-10 * value

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            top_eigen_nonneg_sym(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_rejects_negative_entries(self):
        with pytest.raises(NegativeEntry):
            top_eigen_nonneg_sym(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite):
            top_eigen_nonneg_sym(np.array([[0.0, bad], [bad, 0.0]]))

    @pytest.mark.parametrize("scale", (10.0, 1e6))
    def test_symmetry_tolerance(self, scale):
        # the tolerance is 1e-12 * (1 + max |M|); both sides of it at each scale
        m = np.full((3, 3), scale)
        near, far = m.copy(), m.copy()
        near[0, 1] += 5e-13 * scale
        far[0, 1] += 2e-12 * scale
        assert top_eigen_nonneg_sym(near)[0] == pytest.approx(3.0 * scale, rel=1e-12)
        with pytest.raises(NotSymmetric, match="not symmetric within 1e-12"):
            top_eigen_nonneg_sym(far)

    @pytest.mark.parametrize("matrix", ([[0.0, 1e308], [1e308, 0.0]],
                                        [[1e308, 1e308], [1e308, 1e308]]))
    def test_overflowing_solve_fails_the_certificate(self, matrix):
        # finite entries whose solve overflows leave a NaN witness behind
        with pytest.raises(NoConvergence):
            top_eigen_nonneg_sym(np.array(matrix))

    @pytest.mark.parametrize("shape", ((0, 0), (3,), (2, 3), (1, 2, 2)))
    def test_rejects_a_shape_that_is_not_square(self, shape):
        with pytest.raises(NotSymmetric, match=re.escape(f"got shape {shape}")):
            top_eigen_nonneg_sym(np.zeros(shape))

    def test_zero_matrix_keeps_start_vector(self):
        value, vector = top_eigen_nonneg_sym(np.zeros((4, 4)))
        assert value == 0.0
        assert np.array_equal(vector, np.full(4, 0.5))

    @pytest.mark.parametrize("n", range(1, 65))
    def test_random_nonneg_against_eigh_oracle(self, n):
        # odd sizes zero out about half the entries, so some of those
        # matrices are reducible with a repeated top eigenvalue
        rng = np.random.default_rng(1000 + n)
        m = rng.uniform(0.0, 1.0, (n, n))
        if n % 2:
            m *= rng.uniform(0.0, 1.0, (n, n)) < 0.5
        m = (m + m.T) / 2.0
        value, vector = top_eigen_nonneg_sym(m)
        oracle = float(np.linalg.eigh(m)[0][-1])
        assert abs(value - oracle) <= 1e-13 * abs(oracle)
        assert np.min(vector) >= 0.0
        assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(m @ vector - value * vector) <= RESIDUAL_RTOL * value


def centrosymmetric(n: int, rng, low: float = 0.0) -> np.ndarray:
    """A random symmetric matrix with M[::-1, ::-1] == M exactly."""
    a = rng.uniform(low, 1.0, (n, n))
    a = a + a.T
    return a + a[::-1, ::-1]


def lone_pair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """The solver's value and vector for m as a one-member stack."""
    values, vectors = _top_eigen(m[None], True)
    return values[0], vectors[0]


def assert_top_pair(m: np.ndarray, value: float, vector: np.ndarray) -> None:
    eigenvalues = np.linalg.eigh(m)[0]
    scale = float(np.max(np.abs(eigenvalues)))
    assert abs(value - eigenvalues[-1]) <= 1e-13 * scale
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(m @ vector - value * vector) <= RESIDUAL_RTOL * abs(value)


class TestReflectionFold:
    """Matrices with J M J = M are solved on their two half-size blocks."""

    @pytest.mark.parametrize("n", range(1, 65))
    @pytest.mark.parametrize("low", (0.0, -1.0))
    def test_against_eigh_oracle(self, n, low):
        m = centrosymmetric(n, np.random.default_rng(3000 + n), low)
        value, vector = lone_pair(m)
        assert_top_pair(m, value, vector)
        assert _top_eigen(m[None], False)[0][0] == value

    @pytest.mark.parametrize("n", range(2, 65))
    def test_odd_block_wins(self, n):
        # -J has +1 on the odd vectors and -1 on the even ones; a
        # perturbation of norm below 1/2 keeps the odd block on top
        rng = np.random.default_rng(4000 + n)
        m = -np.eye(n)[::-1] + centrosymmetric(n, rng, -1.0) / (8.0 * n)
        value, vector = lone_pair(m)
        assert_top_pair(m, value, vector)
        assert np.array_equal(vector[::-1], -vector)

    @pytest.mark.parametrize("n", range(2, 65, 2))
    def test_tie_between_blocks_takes_even(self, n):
        # diag(A, JAJ) has the same even and odd block A
        k = n // 2
        a = np.random.default_rng(5000 + n).uniform(-1.0, 1.0, (k, k))
        a = a + a.T
        m = np.zeros((n, n))
        m[:k, :k] = a
        m[k:, k:] = a[::-1, ::-1]
        value, vector = lone_pair(m)
        assert_top_pair(m, value, vector)
        assert np.array_equal(vector[::-1], vector)

    @pytest.mark.parametrize("n", (1, 2, 3, 8, 63, 64))
    def test_zero_matrix_keeps_start_vector(self, n):
        value, vector = lone_pair(np.zeros((n, n)))
        assert value == 0.0
        assert np.array_equal(vector, np.full(n, 1.0 / np.sqrt(n)))

    @pytest.mark.parametrize("n", (10, 11))
    def test_lifted_pair_is_certified_on_full_matrix(self, monkeypatch, n):
        # a wrong lift is caught by the certificate on the full matrix
        lift = quadforms._reflection_lift
        monkeypatch.setattr(quadforms, "_reflection_lift",
                            lambda y, size, even: lift(y, size, not even))
        with pytest.raises(NoConvergence):
            lone_pair(centrosymmetric(n, np.random.default_rng(1)))

    def test_fold_fires_on_uniform_window(self, eigvalsh_sizes):
        estimate_constant(1.0, generate_uniform(200, 1.0))
        assert eigvalsh_sizes == [100, 100]
        eigvalsh_sizes.clear()
        estimate_constant(1.0, generate_uniform(201, 1.0))
        assert eigvalsh_sizes == [101, 100]

    def test_fold_does_not_fire_on_random_window(self, eigvalsh_sizes):
        estimate_constant(1.0, generate_random(200, 0.5, 1))
        assert eigvalsh_sizes == [200]

    def test_odd_block_is_built_only_for_eigvalsh(self, calls):
        blocks = calls(quadforms, "_reflection_block")
        estimate_constant(1.0, generate_uniform(200, 1.0))
        assert [first for _, _, first in blocks] == [True, False]
        blocks.clear()
        # an even block of 300 rows goes to the Perron path, which never reads the odd one
        estimate_constant(1.0, generate_uniform(600, 1.0))
        assert [first for _, _, first in blocks] == [True]

    def test_folded_estimate_holds_a_quarter_kernel_besides_its_own(self, traced_peak):
        # building the unread odd block as well peaked at 1.53 kernels
        n = 2000
        seq = generate_uniform(n, 1.0)
        assert traced_peak(lambda: estimate_constant(0.5, seq)) <= 1.3 * 8 * n * n

    def test_one_stack_compare_rules_out_unmirrored_members(self, calls):
        rng = np.random.default_rng(12)
        stack = np.array([random_nonneg_sym(9, rng), centrosymmetric(9, rng),
                          random_nonneg_sym(9, rng), np.zeros((9, 9)), centrosymmetric(9, rng)])
        mirrored = calls(quadforms, "_mirrored")
        values, vectors = _top_eigen(stack, True, nonneg=True)
        # the zero member is not solved; the random ones fail the (0, 1) pair
        assert [len(args[0]) for args in mirrored] == [9, 9]
        for member, value, vector in zip(stack, values, vectors):
            lone = lone_pair(member)
            assert value == lone[0] and np.array_equal(vector, lone[1])


def random_nonneg_sym(n: int, rng) -> np.ndarray:
    m = rng.uniform(0.0, 1.0, (n, n))
    return (m + m.T) / 2.0


def stack_values(stack) -> np.ndarray:
    return _top_eigen(np.asarray(stack, dtype=float), False, nonneg=True)[0]


class TestStackedValues:
    """Each member of a stack gets the value and vector of a lone solve."""

    @staticmethod
    def assert_members(stack):
        values, vectors = _top_eigen(stack, True, nonneg=True)
        assert np.array_equal(_top_eigen(stack, False, nonneg=True)[0], values)
        assert values.shape == (len(stack),) and len(vectors) == len(stack)
        for member, value, vector in zip(stack, values, vectors):
            lone = lone_pair(member)
            assert value == lone[0]
            assert np.array_equal(vector, lone[1])

    @pytest.mark.parametrize("n", range(1, 27))
    def test_random_stack(self, n):
        rng = np.random.default_rng(6000 + n)
        self.assert_members(np.array([random_nonneg_sym(n, rng) for _ in range(7)]))

    @pytest.mark.parametrize("n", range(1, 27))
    def test_reflection_symmetric_stack(self, n, eigvalsh_sizes):
        rng = np.random.default_rng(7000 + n)
        stack = np.array([centrosymmetric(n, rng) for _ in range(5)])
        self.assert_members(stack)
        if n >= 2:
            # every member is folded, none goes through the stacked solve
            assert max(eigvalsh_sizes) <= (n + 1) // 2

    def test_zero_stack(self):
        assert np.array_equal(stack_values(np.zeros((3, 5, 5))), np.zeros(3))

    @pytest.mark.parametrize("n", (1, 2, 7, 8, 24))
    def test_mixed_stack(self, n):
        rng = np.random.default_rng(8000 + n)
        stack = np.array([random_nonneg_sym(n, rng), np.zeros((n, n)), centrosymmetric(n, rng),
                          random_nonneg_sym(n, rng), centrosymmetric(n, rng),
                          np.zeros((n, n))])
        self.assert_members(stack)

    def test_empty_stack(self):
        assert stack_values(np.zeros((0, 4, 4))).shape == (0,)

    @pytest.mark.parametrize("bad, error", ((np.nan, NonFinite), (np.inf, NonFinite),
                                            (-1.0, NegativeEntry)))
    def test_bad_member_raises(self, bad, error):
        stack = np.array([random_nonneg_sym(4, np.random.default_rng(i)) for i in range(3)])
        stack[1, 0, 2] = stack[1, 2, 0] = bad
        with pytest.raises(error):
            stack_values(stack)

    def test_asymmetric_member_raises(self):
        stack = np.full((3, 3, 3), 10.0)
        stack[0, 0, 1] += 5e-13 * 10.0
        stack[2, 0, 1] += 2e-12 * 10.0
        with pytest.raises(NotSymmetric, match="not symmetric within 1e-12"):
            stack_values(stack)
        assert stack_values(stack[:2]) == pytest.approx([30.0, 30.0], rel=1e-12)

    def test_members_checked_in_order(self):
        # a lone solve of each member in turn would meet the negative one first
        stack = np.ones((3, 2, 2))
        stack[1, 0, 0] = -1.0
        stack[2, 0, 0] = np.nan
        with pytest.raises(NegativeEntry):
            stack_values(stack)

    def test_overflowing_value_raises(self):
        # finite entries whose top eigenvalue overflows; no certificate runs here
        with pytest.raises(NoConvergence, match="overflows"):
            stack_values(np.full((1, 2, 2), 1e308))

    @pytest.mark.parametrize("shape", ((4, 4), (2, 3, 4)))
    def test_rejects_non_square_stack(self, shape):
        with pytest.raises(NotSymmetric):
            stack_values(np.ones(shape))


class TestConstantValues:
    """constant_values is estimate_constant's value over a stack of windows."""

    def windows(self, n):
        seqs = [generate_random(n, 0.3, s) for s in range(4)]
        seqs += [generate_uniform(n, 1.0), generate_uniform(n, 0.25), generate_cluster(n)]
        return seqs

    @pytest.mark.parametrize("n", (2, 3, 6, 13, 24))
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 1.7))
    def test_equals_estimate_constant(self, n, alpha):
        seqs = self.windows(n)
        values = constant_values(alpha, np.array([seq.nodes for seq in seqs]))
        assert list(values) == [estimate_constant(alpha, seq).value for seq in seqs]

    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.7))
    def test_alpha_form_matrix_is_the_one_window_case(self, alpha):
        seqs = self.windows(9)
        kernels = _alpha_kernels(np.array([seq.deltas for seq in seqs]),
                                 np.array([seq.active for seq in seqs]), alpha)
        for seq, kernel in zip(seqs, kernels):
            assert np.array_equal(alpha_form_matrix(seq, alpha), kernel)

    def test_rejects_bad_windows(self):
        nodes = np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.0, 3.0]])
        with pytest.raises(NotIncreasing):
            constant_values(0.5, nodes)
        nodes[1, 2] = np.inf
        with pytest.raises(NonFinite):
            constant_values(0.5, nodes)
        with pytest.raises(AlphaOutOfRange):
            constant_values(2.5, nodes[:1])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_kernel_overflow_raises(self):
        with pytest.raises(NonFinite):
            constant_values(1.0, np.array([[0.0, 1.0, 2.0, 3.0], [0.0, 1e-200, 2e-200, 1.0]]))


def perron_windows(n: int) -> list:
    """Windows of n active nodes whose kernels the Perron path solves at
    large n; uniform spacing 0.3 misses the fold, spacing 1.0 takes it."""
    return [*(generate_random(n, 0.3, s) for s in range(3)), generate_cluster(n),
            generate_trig_periodized(n), generate_uniform(n, 0.3), generate_uniform(n, 1.0)]


def assert_certified_witness(m: np.ndarray, value: float, witness: np.ndarray) -> None:
    """Unit, positive, with the residual certificate and a Collatz-Wielandt
    bracket [min (Mw)_i / w_i, max (Mw)_i / w_i] at most RESIDUAL_RTOL wide."""
    assert np.linalg.norm(witness) == pytest.approx(1.0, abs=1e-14)
    assert np.min(witness) > 0.0
    product = m @ witness
    assert np.linalg.norm(product - value * witness) <= RESIDUAL_RTOL * value
    ratios = product / witness
    assert np.max(ratios) - np.min(ratios) <= RESIDUAL_RTOL * value


class TestPerronPath:
    """Nonnegative matrices solved at PERRON_MIN_N rows or more take the
    Rayleigh-quotient path, certified by the Collatz-Wielandt bracket."""

    @pytest.mark.parametrize("n", (256, 300, 600))
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 2.0))
    def test_against_eigvalsh_oracle(self, n, alpha, eigvalsh_sizes):
        for seq in perron_windows(n):
            m = _symmetrized(alpha_form_matrix(seq, alpha))
            solved = (len(quadforms._reflection_block(m, 1.0, True))
                      if quadforms._mirrored(m, 1.0) else len(m))
            eigvalsh_sizes.clear()
            est = estimate_constant(alpha, seq)
            # the path follows the size of the matrix solved, the even block if folded
            if solved >= quadforms.PERRON_MIN_N:
                assert eigvalsh_sizes == []
            else:
                assert eigvalsh_sizes == [solved, n - solved]
            oracle = float(np.linalg.eigvalsh(m)[-1])
            assert abs(est.value - oracle) <= 1e-12 * oracle
            assert_certified_witness(m, est.value, est.witness.values)

    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 1.7))
    def test_constant_values_equals_estimate_constant(self, alpha):
        seqs = perron_windows(300)
        values = constant_values(alpha, np.array([seq.nodes for seq in seqs]))
        assert list(values) == [estimate_constant(alpha, seq).value for seq in seqs]

    def test_rank_one_breakdown(self, eigvalsh_sizes):
        # Lanczos stops after one step on the all-ones matrix, and its
        # Ritz value is the eigenvalue that the shift then makes singular
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, vector = quadforms._perron_pair(np.ones((300, 300)))
            assert value == pytest.approx(300.0, rel=1e-14)
            assert np.allclose(vector, 1.0 / np.sqrt(300.0), rtol=1e-14, atol=0.0)
            # mirrored, so 300 rows fold to eigvalsh blocks and 600 to a Perron block
            assert top_eigen_nonneg_sym(np.ones((300, 300)))[0] == pytest.approx(300.0, rel=1e-14)
            assert eigvalsh_sizes == [150, 150]
            eigvalsh_sizes.clear()
            value, vector = top_eigen_nonneg_sym(np.ones((600, 600)))
        assert eigvalsh_sizes == []
        assert value == pytest.approx(600.0, rel=1e-14)
        assert np.allclose(vector, 1.0 / np.sqrt(600.0), rtol=1e-14, atol=0.0)

    def test_reducible_matrix_falls_back(self, eigvalsh_sizes):
        # two positive blocks: the Perron vector has zeros, so no positive
        # vector can certify it, and eigvalsh gives the value
        rng = np.random.default_rng(11)
        m = np.zeros((300, 300))
        m[:140, :140] = random_nonneg_sym(140, rng)
        m[140:, 140:] = random_nonneg_sym(160, rng)
        assert quadforms._perron_pair(m) is None
        value, vector = top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == [300]
        assert value == np.linalg.eigvalsh(m)[-1]
        assert np.linalg.norm(m @ vector - value * vector) <= RESIDUAL_RTOL * value

    def test_eigenpair_below_the_top_falls_back(self, monkeypatch, eigvalsh_sizes):
        # seeded at the second eigenpair, RQI stays there; that vector has
        # entries of both signs and none zero, so every ratio (Mv)_i / v_i
        # is its eigenvalue and only the positivity test rejects it
        m = random_nonneg_sym(300, np.random.default_rng(14))
        values, vectors = np.linalg.eigh(m)
        monkeypatch.setattr(quadforms, "_lanczos_ritz",
                            lambda matrix: (float(values[-2]), vectors[:, -2].copy()))
        assert quadforms._perron_pair(m) is None
        value, vector = top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == [300]
        assert value == np.linalg.eigvalsh(m)[-1]

    @pytest.mark.parametrize("bad, error", ((-1.0, NegativeEntry), (np.nan, NonFinite),
                                            (np.inf, NonFinite)))
    def test_bad_entries_raise_before_any_solve(self, bad, error, eigvalsh_sizes,
                                                solve_sizes):
        m = random_nonneg_sym(300, np.random.default_rng(12))
        m[3, 7] = m[7, 3] = bad
        with pytest.raises(error):
            top_eigen_nonneg_sym(m)
        m = random_nonneg_sym(300, np.random.default_rng(13))
        m[3, 7] += 1e-6
        with pytest.raises(NotSymmetric):
            top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == [] and solve_sizes == []

    @pytest.mark.parametrize("seed", range(3))
    def test_large_window_skips_eigvalsh(self, seed, eigvalsh_sizes, solve_sizes):
        # a silent fallback would show here as a 600 in eigvalsh_sizes
        estimate_constant(0.5, generate_random(600, 0.2, seed))
        assert eigvalsh_sizes == []
        assert 1 <= len(solve_sizes) <= 3 and set(solve_sizes) == {600}

    @pytest.mark.parametrize("n", (200, 255))
    def test_small_window_keeps_eigvalsh(self, n, eigvalsh_sizes, solve_sizes):
        estimate_constant(0.5, generate_random(n, 0.2, 1))
        assert eigvalsh_sizes == [n]
        assert solve_sizes == [n, n]

    def test_threshold_applies_to_the_even_block(self, eigvalsh_sizes):
        # mirrored windows of 510 and 511 nodes have even blocks of 255 and 256
        estimate_constant(1.0, generate_uniform(510, 1.0))
        assert eigvalsh_sizes == [255, 255]
        eigvalsh_sizes.clear()
        estimate_constant(1.0, generate_uniform(511, 1.0))
        assert eigvalsh_sizes == []


def dense_kernels(delta: np.ndarray, lam: np.ndarray, alpha: float) -> np.ndarray:
    """The kernels as first assembled: one product and one divide over the
    whole N x N difference matrices, with no row blocks."""
    with np.errstate(all="ignore"):
        diff = node_differences(lam)
        entries = (delta ** (2.0 - alpha))[..., :, None] * (delta ** alpha)[..., None, :]
        entries /= np.square(diff, out=diff)
    np.einsum("...ii->...i", entries)[...] = 0.0
    return entries


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def kernel_windows(n: int) -> list:
    windows = [generate_uniform(n, 1.0), generate_uniform(n, 0.3), generate_random(n, 0.3, n),
               generate_trig_periodized(n)]
    return windows + [generate_cluster(n)] if n >= 2 else windows


class TestRowBlockedKernels:
    """Kernels built a block of rows at a time equal the whole-matrix
    assembly and its (M + M^T) / 2 bit for bit, at sizes around the block."""

    @pytest.mark.parametrize("alpha", (0.0, 0.37, 0.5, 1.0, 1.5, 2.0))
    @pytest.mark.parametrize("n", (1, 2, 31, 32, 33, 255, 256, 257, 600))
    def test_bit_identical_to_dense_assembly(self, n, alpha):
        seqs = kernel_windows(n)
        for seq in seqs:
            dense = dense_kernels(seq.deltas, seq.active, alpha)
            assert_same_bits(alpha_form_matrix(seq, alpha), dense)
            assert_same_bits(_alpha_kernels(seq.deltas, seq.active, alpha, symmetrized=True),
                             _symmetrized(dense))
        nodes = np.array([seq.nodes for seq in seqs])
        delta, lam = node_deltas(nodes), nodes[:, 1:-1]
        dense = dense_kernels(delta, lam, alpha)
        assert_same_bits(_alpha_kernels(delta, lam, alpha), dense)
        assert_same_bits(_alpha_kernels(delta, lam, alpha, symmetrized=True), _symmetrized(dense))

    @pytest.mark.parametrize("n", (1, 31, 32, 33, 65))
    def test_pair_kernel_power_two(self, n):
        rng = np.random.default_rng(n)
        seqs = kernel_windows(n)
        rows, cols = rng.uniform(0.5, 2.0, (2, len(seqs), n))
        lam = np.array([seq.active for seq in seqs])
        stacked = pair_kernel(rows, cols, lam, 2, "unused")
        sym_stacked = pair_kernel(rows, cols, lam, 2, "unused", symmetrized=True)
        for seq, row, col, in_stack, sym_in_stack in zip(seqs, rows, cols, stacked, sym_stacked):
            dense = np.outer(row, col) / np.square(node_differences(seq.active))
            np.fill_diagonal(dense, 0.0)
            kernel = pair_kernel(row, col, seq.active, 2, "unused")
            assert_same_bits(kernel, dense)
            assert_same_bits(in_stack, kernel)
            sym = pair_kernel(row, col, seq.active, 2, "unused", symmetrized=True)
            assert_same_bits(sym, _symmetrized(kernel))
            assert_same_bits(sym_in_stack, sym)

    @pytest.mark.parametrize("symmetrized", (False, True))
    def test_pair_kernel_raises_the_callers_message(self, symmetrized):
        # 0/0 in the third block, as below
        nodes = np.concatenate((np.arange(-70.0, 0.0), [0.0, 1e-200, 2e-200, 1.0]))
        delta = GapSequence(nodes).deltas
        with pytest.raises(NonFinite, match="^kernel underflows$"):
            pair_kernel(delta, delta, nodes[1:-1], 2, "kernel underflows", symmetrized)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_entry_in_a_later_block_raises(self):
        # the 0/0 entries couple active rows 69 to 71, all in the third block
        nodes = np.concatenate((np.arange(-70.0, 0.0), [0.0, 1e-200, 2e-200, 1.0]))
        seq = GapSequence(nodes)
        with pytest.raises(NonFinite, match="alpha = 1.0 kernel has non-finite entries"):
            estimate_constant(1.0, seq)
        with pytest.raises(NonFinite, match="alpha = 1.0 kernel has non-finite entries"):
            alpha_form_matrix(seq, 1.0)


class TestInPlaceShift:
    """`_top_eigen` shifts the matrix it solves in place and restores it
    bit for bit; the public solver works on a copy of its input unless
    told to overwrite it."""

    def test_perron_path_restores_the_stack(self, eigvalsh_sizes, solve_sizes):
        stack = random_nonneg_sym(300, np.random.default_rng(21))[None]
        before = stack.copy()
        _top_eigen(stack, True, nonneg=True)
        assert eigvalsh_sizes == [] and solve_sizes
        assert_same_bits(stack, before)

    def test_bracket_fallback_restores_the_stack(self, eigvalsh_sizes):
        # reducible, so the bracket rejects and eigvalsh and inverse iteration run
        rng = np.random.default_rng(11)
        stack = np.zeros((1, 300, 300))
        stack[0, :140, :140] = random_nonneg_sym(140, rng)
        stack[0, 140:, 140:] = random_nonneg_sym(160, rng)
        before = stack.copy()
        _top_eigen(stack, True, nonneg=True)
        assert eigvalsh_sizes == [300]
        assert_same_bits(stack, before)

    def test_failed_solve_restores_the_stack(self, monkeypatch):
        def singular(a, b):
            raise np.linalg.LinAlgError("Singular matrix")

        stack = random_nonneg_sym(300, np.random.default_rng(22))[None]
        before = stack.copy()
        monkeypatch.setattr(np.linalg, "solve", singular)
        # the Perron pair gives up and eigvalsh gives the value
        values, _ = _top_eigen(stack, False, nonneg=True)
        assert values[0] == np.linalg.eigvalsh(before[0])[-1]
        assert_same_bits(stack, before)
        # inverse iteration cannot recover, so the vector solve raises
        with pytest.raises(NoConvergence):
            _top_eigen(stack, True, nonneg=True)
        assert_same_bits(stack, before)

    @pytest.mark.parametrize("seq", (generate_random(300, 0.2, 3), generate_uniform(600, 1.0)))
    def test_public_solver_leaves_its_input_alone(self, seq):
        m = _symmetrized(alpha_form_matrix(seq, 0.5))
        before = m.copy()
        value, vector = top_eigen_nonneg_sym(m)
        assert_same_bits(m, before)
        assert value == estimate_constant(0.5, seq).value
        in_place = top_eigen_nonneg_sym(m, overwrite=True)
        assert_same_bits(m, before)
        assert in_place[0] == value
        assert_same_bits(in_place[1], vector)
        m.setflags(write=False)
        again = top_eigen_nonneg_sym(m)
        assert again[0] == value
        assert_same_bits(again[1], vector)

    def test_solve_takes_the_transpose_only_of_an_exactly_symmetric_matrix(self, monkeypatch):
        # an F-contiguous system is the transpose of the C-contiguous shift
        layouts = []
        solve = np.linalg.solve

        def recording(a, b):
            layouts.append(a.flags.f_contiguous and not a.flags.c_contiguous)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", recording)
        m = random_nonneg_sym(300, np.random.default_rng(23))
        top_eigen_nonneg_sym(m)
        assert layouts and all(layouts)
        layouts.clear()
        m[0, 5] *= 1.0 + 1e-13     # symmetric within the tolerance only
        top_eigen_nonneg_sym(m)
        assert layouts and not any(layouts)

    def test_estimate_constant_holds_about_one_kernel(self, traced_peak):
        # the whole-matrix assembly peaked at 2.125 kernels; LAPACK's copy is not traced
        n = 600
        seq = generate_random(n, 0.2, 5)
        assert traced_peak(lambda: estimate_constant(0.5, seq)) <= 1.5 * 8 * n * n


class TestNonFiniteInput:
    """Windows that once yielded a constant of 1.0 or NaN now raise."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("nodes", ([0.0, 1.0, 2.0, np.inf],
                                       [0.0, 1e-200, 2e-200, 1.0],
                                       [0.0, 1e300, 2e300, 3e300]))
    @pytest.mark.parametrize("alpha", (0.5, 1.0))
    def test_estimate_constant_raises(self, nodes, alpha):
        with pytest.raises(NonFinite):
            estimate_constant(alpha, GapSequence(nodes))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_q_alpha_raises_instead_of_nan(self):
        # the alpha = 1 kernel underflows to 0/0 at this gap scale
        seq = GapSequence([0.0, 1e-200, 2e-200, 1.0])
        with pytest.raises(NonFinite):
            q_alpha(seq, [1.0, 1.0], 1.0)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_weights_raise(self, bad):
        # a NaN weight passed the negativity check and made Q_alpha NaN
        with pytest.raises(NonFinite):
            WeightVector([1.0, bad])
        with pytest.raises(NonFinite):
            q_alpha(generate_uniform(3, 1.0), [1.0, bad, 1.0], 1.0)


class TestEstimateConstant:
    # two-node windows whose ghost gaps do not clip the central gap, so the
    # kernel entry is exactly 1 and the optimum is 1 for every alpha
    SATURATING = (
        generate_uniform(2, 1.0),
        generate_uniform(2, 0.37),
        GapSequence([-5.0, 0.0, 2.0, 9.0]),
    )

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_two_nodes_value_one(self, alpha):
        for seq in self.SATURATING:
            assert estimate_constant(alpha, seq).value == pytest.approx(1.0, abs=1e-12)

    def test_two_node_cluster_clips_below_one(self):
        # ghost gap 0.5 < central gap 1 shrinks the kernel entry
        seq = generate_cluster(2)
        value = estimate_constant(1.0, seq).value
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_single_node_zero(self):
        assert estimate_constant(1.0, generate_uniform(1, 1.0)).value == 0.0

    def test_uniform_two_hundred_bracket(self):
        value = estimate_constant(1.0, generate_uniform(200, 1.0)).value
        assert uniform_lower_bound(200) < value < PI2_OVER_3 + 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_alpha_mirror_symmetry(self, seed):
        seq = generate_random(3 + 2 * seed, 0.3, seed)
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            v1 = estimate_constant(alpha, seq).value
            v2 = estimate_constant(2.0 - alpha, seq).value
            assert abs(v1 - v2) <= 1e-11 * max(1.0, v1)

    def test_witness_is_feasible_and_optimal(self):
        seq = generate_random(12, 0.3, 21)
        est = estimate_constant(0.5, seq)
        t = est.witness.values
        assert np.min(t) >= 0.0
        assert np.linalg.norm(t) == pytest.approx(1.0, abs=1e-12)
        assert q_alpha(seq, t, 0.5) == pytest.approx(est.value, rel=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_on_unit_interval(self, seed):
        seq = generate_random(10, 0.4, seed)
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        values = [estimate_constant(a, seq).value for a in grid]
        for lo, hi in zip(values[:-1], values[1:]):
            assert hi <= lo + 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_hoelder_interpolation(self, seed):
        rng = np.random.default_rng(seed)
        seq = generate_random(10, 0.4, 100 + seed)
        t = rng.uniform(0.0, 1.0, 10)
        for _ in range(5):
            a1, a2 = np.sort(rng.uniform(0.0, 2.0, 2))
            if a2 - a1 < 1e-3:
                continue
            theta = float(rng.uniform(0.05, 0.95))
            lhs = q_alpha(seq, t, theta * a1 + (1 - theta) * a2)
            rhs = q_alpha(seq, t, a1) ** theta * q_alpha(seq, t, a2) ** (1 - theta)
            assert lhs <= rhs + 1e-10

    @pytest.mark.parametrize("seed", range(6))
    def test_pi2_over_3_cap_at_alpha_one(self, seed):
        seq = generate_random(15, 0.3, 200 + seed)
        assert estimate_constant(1.0, seq).value <= PI2_OVER_3 + 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_crude_cap(self, seed):
        seq = generate_random(9, 0.3, 300 + seed)
        for alpha in (0.0, 1.0, 2.0):
            assert estimate_constant(alpha, seq).value <= seq.n - 1 + 1e-9

    # |c| and 1/s bounded so node rounding (ulp(|s lam + c|)/2 per node)
    # stays far below 1e-10 of the scaled gaps
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(s=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
           c=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_affine_invariance(self, alpha, s, c):
        # delta_m^(2-alpha) delta_n^alpha / (lam_m - lam_n)^2 is unchanged
        # by lam -> s lam + c, so the optimal constant is too
        seq = generate_random(12, 0.5, 5)
        moved = GapSequence(s * seq.nodes + c)
        value = estimate_constant(alpha, seq).value
        assert estimate_constant(alpha, moved).value == pytest.approx(value, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_window_extension_monotone(self, seed):
        seq = generate_random(8, 0.3, 400 + seed)
        extended = GapSequence(
            np.append(seq.nodes, seq.nodes[-1] + (seq.nodes[-1] - seq.nodes[-2])))
        for alpha in (0.0, 0.7, 1.0):
            v1 = estimate_constant(alpha, seq).value
            v2 = estimate_constant(alpha, extended).value
            assert v2 >= v1 - 1e-10


class TestUniformLowerBound:
    def test_smallest_case(self):
        assert uniform_lower_bound(2) == pytest.approx(1.0, abs=1e-15)

    def test_matches_double_loop_oracle(self):
        n = 10**4
        k = np.arange(1, n, dtype=float)
        oracle = float((2.0 / n) * np.sum((n - k) / k ** 2))
        value = uniform_lower_bound(n)
        assert value == pytest.approx(oracle, rel=1e-12)
        # exact value 3.28771..., below pi^2/3 = 3.28987...
        assert 3.2877 < value < PI2_OVER_3

    def test_monotone_under_doubling(self):
        for n in (2, 4, 8, 64, 512, 4096):
            assert uniform_lower_bound(2 * n) > uniform_lower_bound(n)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            uniform_lower_bound(1)


class TestClusterLowerBound:
    def test_growth_at_alpha_zero(self):
        ratio = cluster_lower_bound(0.0, 400) / cluster_lower_bound(0.0, 100)
        assert ratio >= 1.8

    def test_bounded_at_alpha_half(self):
        values = [cluster_lower_bound(0.5, n) for n in (10, 100, 1000, 10000)]
        assert max(values) / min(values) < 3.0

    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
    def test_dominated_by_eigen_optimum(self, alpha):
        n = 30
        est = estimate_constant(alpha, generate_cluster(n)).value
        assert est >= cluster_lower_bound(alpha, n) - 1e-9

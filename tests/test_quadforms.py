import itertools
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
    spectral_radius,
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
from hilbertlab import eigen, quadforms
from hilbertlab.eigen import RESIDUAL_RTOL
from hilbertlab.quadforms import _alpha_kernels, alpha_form_matrix, constant_values
from hilbertlab.gaps import node_deltas, node_differences, pair_kernel, row_blocks
from hilbertlab.search import generate_trig_periodized

PI2_OVER_3 = math.pi ** 2 / 3.0
ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0)


def checked_solve(stack: np.ndarray, vector: bool, nonneg: bool = False):
    """eigen.top_eigen on a stack after its entry checks, as its callers run them."""
    return eigen.top_eigen(stack, eigen.checked_scales(stack, nonneg), vector, nonneg)


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

    def test_overflowing_value_raises_with_vectors(self):
        # finite entries whose top eigenvalue, 2e308, overflows
        with pytest.raises(NoConvergence, match="overflows"):
            top_eigen_nonneg_sym(np.full((2, 2), 1e308))

    @pytest.mark.parametrize("matrix", ([[0.0, 1e308], [1e308, 0.0]],
                                        [[1e308, 1e300], [1e300, 1e307]]))
    def test_largest_floats_certify(self, matrix):
        # LAPACK scales such a matrix into range, and the certificate takes
        # its residual norm in the unit of the value
        m = np.array(matrix)
        before = m.copy()
        value, vector = top_eigen_nonneg_sym(m, overwrite=True)
        assert_same_bits(m, before)
        assert value == np.linalg.eigvalsh(m)[-1]
        assert np.linalg.norm((m @ vector - value * vector) / value) <= RESIDUAL_RTOL
        assert np.linalg.norm(vector) == pytest.approx(1.0, rel=1e-15)

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

    def test_repeated_top_eigenvalue_gets_a_nonnegative_vector(self, calls):
        # a permuted diag(A, A) has a two-dimensional top eigenspace, from
        # which eigh can return a vector with mixed signs; its absolute value
        # is a top eigenvector too, and that is what is certified
        certified = calls(eigen, "certify")
        mixed = 0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            a = random_nonneg_sym(6, rng)
            m = np.zeros((12, 12))
            m[:6, :6] = m[6:, 6:] = a
            order = rng.permutation(12)
            m = m[np.ix_(order, order)]
            raw = np.linalg.eigh(m)[1][:, -1]
            mixed += raw.min() < 0.0 < raw.max()
            certified.clear()
            value, vector = top_eigen_nonneg_sym(m)
            assert len(certified) == 1 and certified[0][2].min() >= 0.0
            assert vector.min() >= 0.0
            assert np.linalg.norm(m @ vector - value * vector) <= RESIDUAL_RTOL * value
        assert mixed

    def test_certified_vectors_are_nonnegative(self, calls):
        # plain, folded, zero and Perron-path members
        certified = calls(eigen, "certify")
        rng = np.random.default_rng(8)
        checked_solve(np.array([random_nonneg_sym(9, rng), centrosymmetric(9, rng),
                             np.zeros((9, 9)), random_nonneg_sym(9, rng)]), True, nonneg=True)
        checked_solve(random_nonneg_sym(300, rng)[None], True, nonneg=True)
        assert len(certified) == 4
        assert all(args[2].min() >= 0.0 for args in certified)


def centrosymmetric(n: int, rng, low: float = 0.0) -> np.ndarray:
    """A random symmetric matrix with M[::-1, ::-1] == M exactly."""
    a = rng.uniform(low, 1.0, (n, n))
    a = a + a.T
    return a + a[::-1, ::-1]


def lone_pair(m: np.ndarray, nonneg: bool) -> tuple[float, np.ndarray]:
    """The solver's value and vector for m as a one-member stack."""
    values, vectors = checked_solve(m[None], True, nonneg)
    return values[0], vectors[0]


def assert_top_pair(m: np.ndarray, value: float, vector: np.ndarray) -> None:
    eigenvalues = np.linalg.eigh(m)[0]
    scale = float(np.max(np.abs(eigenvalues)))
    assert abs(value - eigenvalues[-1]) <= 1e-13 * scale
    assert np.linalg.norm(vector) == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(m @ vector - value * vector) <= RESIDUAL_RTOL * abs(value)


def assert_whole_solve(m: np.ndarray, eigvalsh_sizes: list[int]) -> np.ndarray:
    """A signed matrix is solved whole, with one full-size eigvalsh, and
    its pair holds against the eigh oracle; returns the vector."""
    value = checked_solve(m[None], False)[0][0]
    assert eigvalsh_sizes == [len(m)]
    pair = lone_pair(m, False)
    assert_top_pair(m, *pair)
    assert pair[0] == value
    return pair[1]


# signed matrices with J M J = M whose top eigenvector is odd
ODD_TOP = (np.array([[0.0, -1.0], [-1.0, 0.0]]),
           centrosymmetric(48, np.random.default_rng(3048), -1.0),
           -np.eye(20)[::-1] + centrosymmetric(20, np.random.default_rng(4020), -1.0) / 160.0)


class TestReflectionFold:
    """Nonnegative matrices with J M J = M are solved on their even
    half-size block, which holds the top eigenvalue; signed ones whole."""

    @pytest.mark.parametrize("n", range(1, 65))
    @pytest.mark.parametrize("low", (0.0, -1.0))
    def test_against_eigh_oracle(self, n, low, eigvalsh_sizes):
        m = centrosymmetric(n, np.random.default_rng(3000 + n), low)
        if low < 0.0:
            assert_whole_solve(m, eigvalsh_sizes)
            return
        value, vector = lone_pair(m, True)
        assert eigvalsh_sizes == [(n + 1) // 2]
        assert_top_pair(m, value, vector)
        assert np.array_equal(vector[::-1], vector)
        assert checked_solve(m[None], False, True)[0][0] == value

    @pytest.mark.parametrize("n", range(2, 65))
    def test_odd_block_wins(self, n, eigvalsh_sizes):
        # -J has +1 on the odd vectors and -1 on the even ones; a
        # perturbation of norm below 1/2 keeps an odd vector on top
        rng = np.random.default_rng(4000 + n)
        m = -np.eye(n)[::-1] + centrosymmetric(n, rng, -1.0) / (8.0 * n)
        vector = assert_whole_solve(m, eigvalsh_sizes)
        assert np.allclose(vector[::-1], -vector, rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize("m", ODD_TOP, ids=("n2", "n48", "n20"))
    def test_odd_top_vector_certifies_in_one_eigh(self, monkeypatch, m, eigh_sizes):
        # J M J = M with an odd top vector (J v = -v), which an iteration from
        # the ones vector, an even one, finds only through rounding
        value, vector = lone_pair(m, False)
        assert eigh_sizes == [len(m)]
        assert_top_pair(m, value, vector)
        assert np.allclose(vector[::-1], -vector, rtol=0.0, atol=1e-10)
        # a failed certificate raises at once: no second solve
        def fail(product, value, v):
            raise NoConvergence("residual")

        monkeypatch.setattr(eigen, "certify", fail)
        eigh_sizes.clear()
        with pytest.raises(NoConvergence):
            lone_pair(m, False)
        assert eigh_sizes == [len(m)]

    @pytest.mark.parametrize("n", range(2, 65, 2))
    def test_tie_between_blocks_takes_even(self, n, eigvalsh_sizes):
        # diag(A, JAJ) has the same even and odd block A: nonnegative, it is
        # solved on the even block and gets an even vector; signed, whole
        k = n // 2
        for low in (0.0, -1.0):
            a = np.random.default_rng(5000 + n).uniform(low, 1.0, (k, k))
            a = a + a.T
            m = np.zeros((n, n))
            m[:k, :k] = a
            m[k:, k:] = a[::-1, ::-1]
            eigvalsh_sizes.clear()
            if low < 0.0:
                assert_whole_solve(m, eigvalsh_sizes)
                continue
            value, vector = lone_pair(m, True)
            assert eigvalsh_sizes == [k]
            assert_top_pair(m, value, vector)
            assert np.array_equal(vector[::-1], vector)

    @pytest.mark.parametrize("n", (1, 2, 3, 8, 63, 64))
    def test_zero_matrix_keeps_start_vector(self, n):
        for nonneg in (False, True):
            value, vector = lone_pair(np.zeros((n, n)), nonneg)
            assert value == 0.0
            assert np.array_equal(vector, np.full(n, 1.0 / np.sqrt(n)))

    @pytest.mark.parametrize("n", (10, 11))
    def test_lifted_pair_is_certified_on_full_matrix(self, monkeypatch, n):
        # a wrong lift, (u, s, Ju) -> (u, s, u), is caught by the certificate
        # on the full matrix; a sign-only one, (u, s, -Ju), is not wrong for
        # a nonnegative member, whose vector's absolute value is certified
        lift = eigen.reflection_lift

        def wrong_lift(y, size):
            v = lift(y, size)
            v[size - size // 2:] = v[:size // 2]
            return v

        monkeypatch.setattr(eigen, "reflection_lift", wrong_lift)
        with pytest.raises(NoConvergence):
            lone_pair(centrosymmetric(n, np.random.default_rng(1)), True)

    def test_fold_fires_on_uniform_window(self, eigvalsh_sizes):
        estimate_constant(1.0, generate_uniform(200, 1.0))
        assert eigvalsh_sizes == [100]
        eigvalsh_sizes.clear()
        estimate_constant(1.0, generate_uniform(201, 1.0))
        assert eigvalsh_sizes == [101]

    def test_fold_does_not_fire_on_random_window(self, eigvalsh_sizes):
        estimate_constant(1.0, generate_random(200, 0.5, 1))
        assert eigvalsh_sizes == [200]

    def test_mirrored_member_makes_one_half_size_eigvalsh(self, calls, eigvalsh_sizes,
                                                          eigh_sizes):
        # below PERRON_MIN_N rows the even block is solved by one eigvalsh,
        # and by one eigh when a vector is asked for
        folds = calls(eigen, "fold")
        for n in (2, 3, 8, 9, 200, 201, 510):
            half = (n + 1) // 2
            assert half < eigen.PERRON_MIN_N
            m = centrosymmetric(n, np.random.default_rng(n))
            for vector in (False, True):
                folds.clear()
                eigvalsh_sizes.clear()
                eigh_sizes.clear()
                checked_solve(m[None].copy(), vector, nonneg=True)
                assert len(folds) == 1
                assert eigvalsh_sizes == [half]
                assert eigh_sizes == ([half] if vector else [])
        # an even block of 300 rows goes to the Perron path
        folds.clear()
        eigvalsh_sizes.clear()
        checked_solve(centrosymmetric(600, np.random.default_rng(600))[None], True, nonneg=True)
        assert (len(folds), eigvalsh_sizes) == (1, [])

    def test_folded_estimate_holds_a_quarter_kernel_besides_its_own(self, traced_peak):
        # building the odd block as well peaked at 1.53 kernels
        n = 2000
        seq = generate_uniform(n, 1.0)
        assert traced_peak(lambda: estimate_constant(0.5, seq)) <= 1.3 * 8 * n * n

    def test_one_stack_compare_rules_out_unmirrored_members(self, calls):
        rng = np.random.default_rng(12)
        stack = np.array([random_nonneg_sym(9, rng), centrosymmetric(9, rng),
                          random_nonneg_sym(9, rng), np.zeros((9, 9)), centrosymmetric(9, rng)])
        folds = calls(eigen, "fold")
        values, vectors = checked_solve(stack, True, nonneg=True)
        # the zero member is not solved; the random ones fail the first-row compare
        assert [args[1] for args in folds] == [9, 9]
        for member, value, vector in zip(stack, values, vectors):
            lone = lone_pair(member, True)
            assert value == lone[0] and np.array_equal(vector, lone[1])

    def test_first_row_compare_is_the_precheck(self, calls):
        rng = np.random.default_rng(5)
        # (0, 1) equals its mirror (n-1, n-2), as the old one-pair compare tested
        pair_only = random_nonneg_sym(9, rng)
        pair_only[0, 1] = pair_only[1, 0] = pair_only[8, 7] = pair_only[7, 8]
        # first and last rows mirror each other, an inner pair does not
        rows_only = centrosymmetric(9, rng)
        rows_only[3, 4] = rows_only[4, 3] = rows_only[3, 4] + 0.5
        folded = centrosymmetric(9, rng)
        stack = np.array([pair_only, rows_only, folded])
        folds = calls(eigen, "fold")
        values, vectors = checked_solve(stack, True, nonneg=True)
        # each call reads the rows of one member
        assert [next(i for i, m in enumerate(stack) if np.array_equal(args[0](slice(None)), m))
                for args in folds] == [1, 2]
        for member, value, vector in zip(stack, values, vectors):
            lone = lone_pair(member, True)
            assert value == lone[0] and np.array_equal(vector, lone[1])


def random_nonneg_sym(n: int, rng) -> np.ndarray:
    m = rng.uniform(0.0, 1.0, (n, n))
    return (m + m.T) / 2.0


def stack_values(stack) -> np.ndarray:
    return checked_solve(np.asarray(stack, dtype=float), False, nonneg=True)[0]


class TestStackedValues:
    """Each member of a stack gets the value and vector of a lone solve."""

    @staticmethod
    def assert_members(stack):
        values, vectors = checked_solve(stack, True, nonneg=True)
        assert np.array_equal(checked_solve(stack, False, nonneg=True)[0], values)
        assert values.shape == (len(stack),) and len(vectors) == len(stack)
        for member, value, vector in zip(stack, values, vectors):
            lone = lone_pair(member, True)
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
        # the stack takes its members exactly symmetric; the tolerance check
        # is the public entry's, which passes the first two and stops the third
        stack = np.full((3, 3, 3), 10.0)
        stack[0, 0, 1] += 5e-13 * 10.0
        stack[2, 0, 1] += 2e-12 * 10.0
        assert [top_eigen_nonneg_sym(m)[0] for m in stack[:2]] == pytest.approx([30.0, 30.0],
                                                                                rel=1e-12)
        with pytest.raises(NotSymmetric, match="not symmetric within 1e-12"):
            top_eigen_nonneg_sym(stack[2])

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


def block_sizes(n: int) -> list[int]:
    """The size of each diagonal block of an n x n factorization."""
    return [rows.stop - rows.start for rows in row_blocks(n)]


class TestPerronPath:
    """Nonnegative matrices solved at PERRON_MIN_N rows or more take the
    path of one in-place Cholesky factorization and inverse iteration,
    certified by the Collatz-Wielandt bracket."""

    @pytest.mark.parametrize("n", (256, 300, 600))
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 2.0))
    def test_against_eigvalsh_oracle(self, n, alpha, eigvalsh_sizes):
        for seq in perron_windows(n):
            m = _symmetrized(alpha_form_matrix(seq, alpha))
            fold = eigen.fold(m.__getitem__, n, 1.0)
            solved = n if fold is None else len(fold)
            eigvalsh_sizes.clear()
            est = estimate_constant(alpha, seq)
            # the path follows the size of the matrix solved, the even block if folded
            if solved >= eigen.PERRON_MIN_N:
                assert eigvalsh_sizes == []
            else:
                assert eigvalsh_sizes == [solved]
            oracle = float(np.linalg.eigvalsh(m)[-1])
            assert abs(est.value - oracle) <= 1e-12 * oracle
            assert_certified_witness(m, est.value, est.witness.values)

    @pytest.mark.parametrize("seq, alpha", ((generate_cluster(1000), 1.0),
                                            (generate_uniform(1500, 1.0), 0.0)))
    def test_witness_bracket_ends_at_rounding(self, seq, alpha):
        # the inverse steps run while each halves the bracket, so it ends far
        # inside RESIDUAL_RTOL; stopping at the first certified step left
        # these two near 1e-11
        est = estimate_constant(alpha, seq)
        m = _symmetrized(alpha_form_matrix(seq, alpha))
        ratios = m @ est.witness.values / est.witness.values
        assert ratios.max() - ratios.min() <= 1e-13 * est.value

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
            value, vector, _ = eigen._perron_pair(np.ones((300, 300)))
            assert value == pytest.approx(300.0, rel=1e-14)
            assert np.allclose(vector, 1.0 / np.sqrt(300.0), rtol=1e-14, atol=0.0)
            # mirrored, so 300 rows fold to an eigvalsh block and 600 to a Perron block
            assert top_eigen_nonneg_sym(np.ones((300, 300)))[0] == pytest.approx(300.0, rel=1e-14)
            assert eigvalsh_sizes == [150]
            eigvalsh_sizes.clear()
            value, vector = top_eigen_nonneg_sym(np.ones((600, 600)))
        assert eigvalsh_sizes == []
        assert value == pytest.approx(600.0, rel=1e-14)
        assert np.allclose(vector, 1.0 / np.sqrt(600.0), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n", (256, 300, 320, 600))
    @pytest.mark.parametrize("scale", (0.1, 1.0, 1.3))
    def test_rank_one_shift_keeps_a_floor(self, n, scale, cholesky_sizes):
        # the Ritz pair is exact, so the residual leaves the shift on the
        # eigenvalue; without the floor most of these factorizations fail
        value, vector, _ = eigen._perron_pair(np.full((n, n), scale))
        assert value == pytest.approx(scale * n, rel=1e-14)
        assert np.allclose(vector, 1.0 / np.sqrt(n), rtol=1e-14, atol=0.0)
        assert cholesky_sizes == block_sizes(n)

    def test_reducible_matrix_falls_back(self, eigvalsh_sizes):
        # two positive blocks: the Perron vector has zeros, so no positive
        # vector can certify it, and eigvalsh gives the value
        rng = np.random.default_rng(11)
        m = np.zeros((300, 300))
        m[:140, :140] = random_nonneg_sym(140, rng)
        m[140:, 140:] = random_nonneg_sym(160, rng)
        assert eigen._perron_pair(m) is None
        value, vector = top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == [300]
        assert value == np.linalg.eigvalsh(m)[-1]
        assert np.linalg.norm(m @ vector - value * vector) <= RESIDUAL_RTOL * value

    def test_eigenpair_below_the_top_falls_back(self, monkeypatch, eigvalsh_sizes):
        # seeded at the second eigenpair, the shift falls below the top
        # eigenvalue, so sigma I - M is indefinite and its factorization fails
        m = random_nonneg_sym(300, np.random.default_rng(14))
        values, vectors = np.linalg.eigh(m)
        monkeypatch.setattr(eigen, "_lanczos_ritz",
                            lambda matrix, scale: (float(values[-2]), vectors[:, -2].copy()))
        assert eigen._perron_pair(m) is None
        value, vector = top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == [300]
        assert value == np.linalg.eigvalsh(m)[-1]

    @pytest.mark.parametrize("bad, error", ((-1.0, NegativeEntry), (np.nan, NonFinite),
                                            (np.inf, NonFinite)))
    def test_bad_entries_raise_before_any_solve(self, bad, error, eigvalsh_sizes,
                                                eigh_sizes):
        m = random_nonneg_sym(300, np.random.default_rng(12))
        m[3, 7] = m[7, 3] = bad
        # `overwrite` skips only the copy and the symmetry check
        for overwrite in (False, True):
            with pytest.raises(error):
                top_eigen_nonneg_sym(m, overwrite=overwrite)
        m = random_nonneg_sym(300, np.random.default_rng(13))
        m[3, 7] += 1e-6
        with pytest.raises(NotSymmetric):
            top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == [] and eigh_sizes == []

    @pytest.mark.parametrize("seed", range(3))
    def test_large_window_skips_eigvalsh(self, seed, eigvalsh_sizes, cholesky_sizes):
        # a silent fallback would fail the recorder at eigvalsh's 600 rows;
        # the shifted matrix is factored once, a block of rows at a time
        estimate_constant(0.5, generate_random(600, 0.2, seed))
        assert eigvalsh_sizes == []
        assert cholesky_sizes == block_sizes(600)

    @pytest.mark.parametrize("n", (200, 255))
    def test_small_window_keeps_eigvalsh(self, n, eigvalsh_sizes, eigh_sizes):
        estimate_constant(0.5, generate_random(n, 0.2, 1))
        assert eigvalsh_sizes == [n]
        assert eigh_sizes == [n]

    def test_threshold_applies_to_the_even_block(self, eigvalsh_sizes):
        # mirrored windows of 510 and 511 nodes have even blocks of 255 and 256
        estimate_constant(1.0, generate_uniform(510, 1.0))
        assert eigvalsh_sizes == [255]
        eigvalsh_sizes.clear()
        estimate_constant(1.0, generate_uniform(511, 1.0))
        assert eigvalsh_sizes == []

    def test_own_member_reuses_its_scale_and_product(self, monkeypatch):
        # a member solved whole hands on its max and its certified product,
        # so neither n^2 pass runs twice
        seen, certified = [], []
        perron, certify = eigen._perron_pair, eigen.certify

        def recording_pair(matrix, scale=None):
            pair = perron(matrix, scale)
            seen.append((scale, pair))
            return pair

        def recording_certify(product, value, v):
            certified.append(product)
            return certify(product, value, v)

        monkeypatch.setattr(eigen, "_perron_pair", recording_pair)
        monkeypatch.setattr(eigen, "certify", recording_certify)
        m = random_nonneg_sym(300, np.random.default_rng(34))
        value, vector = top_eigen_nonneg_sym(m)
        [(scale, pair)] = seen
        assert scale == m.max()
        assert certified[0] is pair[2]
        assert_same_bits(pair[2], m @ vector)
        # a folded member's block has a max of its own, and its lifted vector
        # is certified on the member
        seen.clear()
        certified.clear()
        top_eigen_nonneg_sym(centrosymmetric(600, np.random.default_rng(35)))
        [(scale, pair)] = seen
        assert scale is None
        assert certified[0] is not pair[2]


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
    """`eigen.top_eigen` factors the shifted matrix it solves on the Perron path
    in place and restores it bit for bit; the public solver works on a copy
    of its input unless told to overwrite it."""

    def test_perron_path_restores_the_stack(self, eigvalsh_sizes, cholesky_sizes):
        stack = random_nonneg_sym(300, np.random.default_rng(21))[None]
        before = stack.copy()
        checked_solve(stack, True, nonneg=True)
        assert eigvalsh_sizes == []
        assert cholesky_sizes == block_sizes(300)
        assert_same_bits(stack, before)

    def test_bracket_fallback_restores_the_stack(self, eigvalsh_sizes):
        # reducible, so the bracket rejects and eigvalsh and eigh run
        rng = np.random.default_rng(11)
        stack = np.zeros((1, 300, 300))
        stack[0, :140, :140] = random_nonneg_sym(140, rng)
        stack[0, 140:, 140:] = random_nonneg_sym(160, rng)
        before = stack.copy()
        checked_solve(stack, True, nonneg=True)
        assert eigvalsh_sizes == [300]
        assert_same_bits(stack, before)

    def test_failed_solve_restores_the_stack(self, monkeypatch):
        stack = random_nonneg_sym(300, np.random.default_rng(22))[None]
        before = stack.copy()
        cholesky, written = np.linalg.cholesky, []

        def failing_fifth_block(error):
            count = itertools.count(1)

            def factor(a):
                if next(count) == 5:
                    # four blocks of the factor are in the matrix by now
                    written.append(not np.array_equal(stack, before))
                    raise error
                return cholesky(a)

            return factor

        eigh = np.linalg.eigh

        def failing_whole_eigh(a, *args, **kwargs):
            # the Lanczos steps' tridiagonal eigh still runs
            if np.shape(a)[-1] == len(before[0]):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky",
                            failing_fifth_block(np.linalg.LinAlgError("not positive definite")))
        # the Perron pair gives up and eigvalsh gives the value
        values, _ = checked_solve(stack, False, nonneg=True)
        assert values[0] == np.linalg.eigvalsh(before[0])[-1]
        assert_same_bits(stack, before)
        # any other error propagates, after the restore
        monkeypatch.setattr(np.linalg, "cholesky", failing_fifth_block(MemoryError()))
        with pytest.raises(MemoryError):
            checked_solve(stack, False, nonneg=True)
        assert_same_bits(stack, before)
        # after the fallback, a failed eigh raises for the vector
        monkeypatch.setattr(np.linalg, "cholesky",
                            failing_fifth_block(np.linalg.LinAlgError("not positive definite")))
        monkeypatch.setattr(np.linalg, "eigh", failing_whole_eigh)
        with pytest.raises(NoConvergence):
            checked_solve(stack, True, nonneg=True)
        assert_same_bits(stack, before)
        assert written == [True, True, True]

    def test_indefinite_shift_falls_back_and_restores_the_stack(self, monkeypatch, calls,
                                                               eigvalsh_sizes):
        # seeded at the second eigenpair, the shift is below the top eigenvalue
        m = random_nonneg_sym(300, np.random.default_rng(14))
        values, vectors = np.linalg.eigh(m)
        monkeypatch.setattr(eigen, "_lanczos_ritz",
                            lambda matrix, scale: (float(values[-2]), vectors[:, -2].copy()))
        steps = calls(eigen, "_solve_factor")
        stack = m[None].copy()
        tops, witnesses = checked_solve(stack, True, nonneg=True)
        # the factorization failed, so no step ran, and eigvalsh gave the value
        assert steps == [] and eigvalsh_sizes == [300]
        assert tops[0] == np.linalg.eigvalsh(m)[-1]
        assert np.linalg.norm(m @ witnesses[0] - tops[0] * witnesses[0]) <= RESIDUAL_RTOL * tops[0]
        assert_same_bits(stack[0], m)

    @pytest.mark.parametrize("lower, upper", ((None, None), (-0.0, 0.0)))
    def test_nearly_symmetric_matrix_is_solved_as_a_copy(self, lower, upper, eigvalsh_sizes):
        # the lower entry lies left of its diagonal block, where the factor is
        # made, and differs from its upper mirror: by 1e-13 relative, or as a
        # negative zero against a zero, which compare equal
        m = random_nonneg_sym(300, np.random.default_rng(25))
        if lower is None:
            m[200, 3] *= 1.0 + 1e-13
        else:
            m[200, 3], m[3, 200] = lower, upper
        before = m.copy()
        value, vector = top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == []
        assert_same_bits(m, before)
        assert abs(value - np.linalg.eigvalsh(m)[-1]) <= 1e-12 * value
        assert_certified_witness(m, value, vector)
        # the copy solved is the lower triangle mirrored into the upper one
        assert top_eigen_nonneg_sym(np.tril(m) + np.tril(m, -1).T)[0] == value

    @pytest.mark.parametrize("n", (9, 200))
    def test_copy_of_a_nearly_symmetric_member_folds(self, n, eigvalsh_sizes):
        # an upper entry of row 0 moved by 1e-13 relative: the copy, built
        # from the lower triangle, is the mirrored matrix itself
        m = centrosymmetric(n, np.random.default_rng(27))
        value, vector = top_eigen_nonneg_sym(m)
        eigvalsh_sizes.clear()
        near = m.copy()
        near[0, 5] *= 1.0 + 1e-13
        before = near.copy()
        got = top_eigen_nonneg_sym(near)
        assert got[0] == value
        assert_same_bits(got[1], vector)
        assert_same_bits(near, before)
        assert eigvalsh_sizes == [(n + 1) // 2]

    @pytest.mark.parametrize("scale", (1e150, 1e300))
    def test_huge_entries_certify_or_fall_back(self, scale):
        m = random_nonneg_sym(300, np.random.default_rng(26)) * scale
        stack = m[None].copy()
        pair = eigen._perron_pair(stack[0])
        assert_same_bits(stack[0], m)
        if pair is not None:
            assert np.isfinite(pair[0]) and np.isfinite(pair[1]).all()
            assert abs(pair[0] - np.linalg.eigvalsh(m)[-1]) <= 1e-12 * pair[0]
        values, _ = checked_solve(stack, False, nonneg=True)
        assert values[0] == pytest.approx(np.linalg.eigvalsh(m)[-1], rel=1e-12)
        assert_same_bits(stack[0], m)

    @pytest.mark.parametrize("scale", (1e154, 1e160))
    def test_huge_entries_certify_on_the_perron_path(self, scale, cholesky_sizes):
        # past ||Mq|| ~ 1.3e154 the sums of squares of unscaled Lanczos
        # products overflow; a fallback would reach eigvalsh, which the
        # fixture refuses at 300 rows
        m = random_nonneg_sym(300, np.random.default_rng(26))
        value, vector = top_eigen_nonneg_sym(m)
        cholesky_sizes.clear()
        scaled = m * scale
        huge, huge_vector = top_eigen_nonneg_sym(scaled, overwrite=True)
        assert cholesky_sizes == block_sizes(300)
        assert abs(huge / scale - value) <= 1e-12 * value
        assert np.allclose(huge_vector, vector, rtol=1e-10, atol=0.0)
        assert_same_bits(scaled, m * scale)

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

    def test_solve_takes_the_transpose_only_of_an_exactly_symmetric_matrix(self):
        # a matrix symmetric within the tolerance only is left as it was and
        # gets the value of its lower triangle mirrored
        m = random_nonneg_sym(200, np.random.default_rng(23))
        m[0, 5] *= 1.0 + 1e-13
        before = m.copy()
        value = top_eigen_nonneg_sym(m)[0]
        assert_same_bits(m, before)
        assert value == top_eigen_nonneg_sym(np.tril(m) + np.tril(m, -1).T)[0]

    def test_estimate_constant_holds_about_one_kernel(self, traced_peak):
        # the whole-matrix assembly peaked at 2.125 kernels; LAPACK's copy is not traced
        n = 600
        seq = generate_random(n, 0.2, 5)
        assert traced_peak(lambda: estimate_constant(0.5, seq)) <= 1.5 * 8 * n * n

    def test_overwrite_does_not_compare_the_triangles(self, calls):
        # the public entry compares the triangles of its copy once; `overwrite`
        # is for a matrix its caller built exactly symmetric, as
        # estimate_constant builds its kernel, and the core compares none
        compares = calls(eigen, "_asymmetry")
        m = random_nonneg_sym(300, np.random.default_rng(33))
        value = top_eigen_nonneg_sym(m)[0]
        assert len(compares) == 1
        assert top_eigen_nonneg_sym(m, overwrite=True)[0] == value
        estimate_constant(0.5, generate_random(300, 0.2, 4))
        estimate_constant(0.5, generate_uniform(300, 1.0))
        constant_values(0.5, np.array([generate_random(300, 0.2, 4).nodes]))
        assert len(compares) == 1


# near-symmetric inputs by the path their mirrored lower triangle takes, and
# one entry that differs from its mirror by 1e-13 relative: a lower one, or
# for the fold an upper one, so that the matrix mirrored is centrosymmetric
NEAR_SYMMETRIC = {"eigvalsh": (9, random_nonneg_sym, (7, 2), [9]),
                  "fold": (200, centrosymmetric, (1, 198), [100]),
                  "perron": (300, random_nonneg_sym, (200, 3), [])}


class TestSymmetryBoundary:
    """`top_eigen_nonneg_sym` is the one place that checks symmetry: it
    checks the entries of its copy, then compares the triangles, and only
    then mirrors the lower triangle into the upper one."""

    @pytest.mark.parametrize("n", (9, 300))
    @pytest.mark.parametrize("bad, error", ((np.nan, NonFinite), (np.inf, NonFinite),
                                            (-1.0, NegativeEntry)))
    def test_bad_upper_entry_raises(self, n, bad, error):
        # a mirror that ran first would copy the finite lower entry over it
        m = random_nonneg_sym(n, np.random.default_rng(n))
        m[1, n - 2] = bad
        before = m.copy()
        with pytest.raises(error):
            top_eigen_nonneg_sym(m)
        assert_same_bits(m, before)

    @pytest.mark.parametrize("path", NEAR_SYMMETRIC)
    @pytest.mark.parametrize("signed_zero", (False, True))
    def test_input_is_solved_as_its_lower_triangle_mirrored(self, path, signed_zero,
                                                            eigvalsh_sizes):
        n, build, entry, sizes = NEAR_SYMMETRIC[path]
        m = build(n, np.random.default_rng(40 + n))
        if signed_zero:
            # negative zeros below, zeros above, which compare equal; the
            # second pair is the reflection of the first, so J M J = M holds
            m[n - 1, 1] = m[n - 2, 0] = -0.0
            m[1, n - 1] = m[0, n - 2] = 0.0
        else:
            m[entry] *= 1.0 + 1e-13
        before = m.copy()
        value, vector = top_eigen_nonneg_sym(m)
        assert eigvalsh_sizes == sizes
        assert_same_bits(m, before)
        mirrored = np.where(np.tri(n, dtype=bool), m, m.T)
        assert not np.array_equal(mirrored.view(np.int64), m.view(np.int64))
        # solved in place, past the boundary's checks and mirror
        want = top_eigen_nonneg_sym(mirrored, overwrite=True)
        assert value == want[0]
        assert_same_bits(vector, want[1])

    @pytest.mark.parametrize("path", NEAR_SYMMETRIC)
    def test_entry_checks_run_once_per_solve(self, path, calls):
        # the core takes the scales of its caller's check and runs none of
        # its own: one check for an exact input, a near one and an overwrite
        n, build, entry, _ = NEAR_SYMMETRIC[path]
        m = build(n, np.random.default_rng(42 + n))
        near = m.copy()
        near[entry] *= 1.0 + 1e-13
        checks = calls(eigen, "checked_scales")
        for matrix, overwrite in ((m, False), (near, False), (m, True)):
            checks.clear()
            top_eigen_nonneg_sym(matrix, overwrite=overwrite)
            assert len(checks) == 1

    def test_mirror_that_clears_the_matrix_gives_the_start_vector(self):
        # the one nonzero entry sits above the diagonal, within the
        # tolerance, so the copy solved is the zero matrix
        m = np.zeros((4, 4))
        m[0, 3] = 1e-13
        value, vector = top_eigen_nonneg_sym(m)
        assert value == 0.0
        assert np.array_equal(vector, np.full(4, 0.5))

    def test_near_symmetric_input_holds_one_copy(self, traced_peak):
        # a second, mirrored copy of the caller's copy peaked at 2.21 matrices
        n = 600
        m = random_nonneg_sym(n, np.random.default_rng(41))
        m[400, 3] *= 1.0 + 1e-13
        assert traced_peak(lambda: top_eigen_nonneg_sym(m)) <= 1.5 * 8 * n * n


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


def toeplitz(column: np.ndarray, sign: float) -> np.ndarray:
    """The matrix with column[m - n] on and below the diagonal and
    sign * column[n - m] above it."""
    n = len(column)
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    upper = column if sign > 0 else np.negative(column)
    return np.where(offsets >= 0, column[np.abs(offsets)], upper[np.abs(offsets)])


def grid_kernel_factors(seq, sign: float) -> tuple:
    """Factors, power and symmetrization of a kernel `grid_fold` folds on
    seq: estimate_constant's at alpha = 1/2 for sign 1, and H with unit
    weights for sign -1."""
    if sign > 0:
        return (*quadforms._alpha_factors(seq.deltas, 0.5), 2, True)
    return np.ones(seq.n), np.ones(seq.n), 1, False


def moved_node(seq, index: int):
    nodes = seq.nodes.copy()
    nodes[index] = np.nextafter(nodes[index], np.inf)
    return GapSequence(nodes)


class TestToeplitzFold:
    """On nodes i h, (i + 1) h, ... for a power of two h, a kernel with
    constant factors is Toeplitz bit for bit, and its even block is folded
    from the rows of a strided view of one row (`grid_fold`,
    `_toeplitz_view`) instead of from the kernel."""

    @pytest.mark.parametrize("n", (2, 3, 4, 255, 256, 257, 601, 2000))
    @pytest.mark.parametrize("spacing", (1.0, 0.5, 4.0))
    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_grid_block_is_the_fold_of_the_kernel(self, n, spacing, sign):
        seq = generate_uniform(n, spacing)
        row, col, power, symmetrized = grid_kernel_factors(seq, sign)
        kernel = pair_kernel(row, col, seq.active, power, "overflow", symmetrized)
        block = eigen.grid_fold(row, col, seq.nodes, power, "overflow", symmetrized)
        assert_same_bits(block, eigen.fold(kernel.__getitem__, n, sign))

    @pytest.mark.parametrize("n", (2, 3, 4, 9, 64, 65))
    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_block_of_an_explicit_toeplitz_matrix(self, n, sign):
        # zeros of both signs, so a row that differs in its sign bit shows;
        # the rows are read as `fold` reads them, ROW_BLOCK at a time
        rng = np.random.default_rng(n)
        column = rng.uniform(-1.0, 1.0, n)
        column[rng.uniform(size=n) < 0.3] = 0.0
        column[rng.uniform(size=n) < 0.3] = -0.0
        if sign < 0:
            column[0] = 0.0    # the zero diagonal of a skew matrix
        m = toeplitz(column, sign)
        view = eigen._toeplitz_view(column, sign)
        assert not view.flags.writeable
        for rows in row_blocks(n):
            assert_same_bits(view[rows], m[rows])
        assert_same_bits(eigen.fold(view.__getitem__, n, sign), eigen.fold(m.__getitem__, n, sign))

    def test_grid_predicate(self):
        assert eigen._on_grid(generate_uniform(5, 0.25).nodes)
        assert eigen._on_grid(np.arange(-3.0, 10.0) * 8.0)
        assert eigen._on_grid(np.arange(2.0 ** 52, 2.0 ** 52 + 6.0))
        assert not eigen._on_grid(generate_uniform(5, 0.3).nodes)
        assert not eigen._on_grid(generate_uniform(5, 3.0).nodes)
        assert not eigen._on_grid(np.array([0.5, 1.5, 2.5]))
        assert not eigen._on_grid(moved_node(generate_uniform(5, 1.0), 3).nodes)
        assert not eigen._on_grid(np.array([0.0, 1.0, 2.0, 2.5]))

    @pytest.mark.parametrize("seq", (generate_uniform(300, 0.3),
                                     moved_node(generate_uniform(300, 1.0), 150)),
                             ids=("spacing-0.3", "one-ulp"))
    def test_off_grid_windows_take_the_generic_path(self, seq, calls):
        blocks = calls(eigen, "_toeplitz_view")
        kernel = _symmetrized(alpha_form_matrix(seq, 0.5))
        est = estimate_constant(0.5, seq)
        assert blocks == []
        value, vector = top_eigen_nonneg_sym(kernel)
        assert est.value == value
        assert_same_bits(est.witness.values, vector)

    def test_unequal_weights_take_the_generic_path(self, calls):
        blocks = calls(eigen, "_toeplitz_view")
        seq = generate_uniform(300, 1.0)
        spectral_radius(seq, np.r_[1.5, np.ones(seq.n - 1)])
        assert blocks == []
        spectral_radius(seq, np.ones(seq.n))
        assert len(blocks) == 1

    @pytest.mark.parametrize("n", (1, 2, 3, 200, 201, 600, 601))
    @pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0, 2.0))
    def test_estimate_matches_the_generic_path(self, n, alpha, monkeypatch):
        seq = generate_uniform(n, 0.5)
        grid = estimate_constant(alpha, seq)
        monkeypatch.setattr(eigen, "_on_grid", lambda nodes: False)
        generic = estimate_constant(alpha, seq)
        assert grid.value == generic.value
        assert_same_bits(grid.witness.values, generic.witness.values)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_grid_kernel_that_underflows_raises(self):
        # h^2 underflows to 0, so every entry is 0/0
        seq = generate_uniform(3, 2.0 ** -600)
        assert eigen._on_grid(seq.nodes)
        with pytest.raises(NonFinite, match="alpha = 1.0 kernel has non-finite entries"):
            estimate_constant(1.0, seq)

    def test_grid_estimate_holds_only_the_block(self, traced_peak):
        # the whole symmetrized kernel beside its even block peaked at 1.28
        # kernels; the block alone is a quarter of one
        n = 2000
        seq = generate_uniform(n, 1.0)
        assert traced_peak(lambda: estimate_constant(1.0, seq)) <= 0.35 * 8 * n * n


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

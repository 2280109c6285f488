"""The parametric quadratic form and its fixed-configuration optimum.

For alpha in [0, 2] the form on a window (lam, delta) with nonnegative
coefficients t is

    Q_alpha(t) = sum_{m != n} delta_m^(2-alpha) delta_n^alpha t_m t_n / (lam_m - lam_n)^2.

Its optimum over unit nonnegative t is the top eigenvalue of the
symmetrized kernel: the kernel is entrywise nonnegative, so a Perron
eigenvector can be chosen nonnegative and the sign constraint is free.
That optimum is a lower estimate for the best constant at this window
size, and exactly the optimal constant for the given configuration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NoConvergence,
    NonFinite,
    NotIncreasing,
    NotSymmetric,
    TooShort,
)
from .gaps import GapSequence, WeightVector, node_deltas, node_differences

RESIDUAL_RTOL = 1e-10
SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True, eq=False)
class AlphaFormMatrix:
    """Kernel matrix M_{mn} = delta_m^(2-alpha) delta_n^alpha / (lam_m-lam_n)^2."""

    alpha: float
    entries: np.ndarray
    source: GapSequence


@dataclass(frozen=True, eq=False)
class ConstantEstimate:
    """Best found value of the form at fixed alpha and configuration."""

    alpha: float
    n: int
    value: float
    config: GapSequence
    witness: WeightVector


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 2.0:
        raise AlphaOutOfRange(f"alpha must lie in [0, 2], got {alpha}")
    return alpha


def _alpha_kernels(delta: np.ndarray, lam: np.ndarray, alpha: float) -> np.ndarray:
    """The kernels of Q_alpha from the deltas and active nodes along the
    last axis: an N x N matrix for one window, a stack of them for a stack
    of windows. Raises NonFinite when a gap scale under- or overflows a
    kernel (0/0 or inf/inf) instead of passing NaN on."""
    with np.errstate(all="ignore"):
        diff = node_differences(lam)
        entries = (delta ** (2.0 - alpha))[..., :, None] * (delta ** alpha)[..., None, :]
        entries /= np.square(diff, out=diff)
    np.einsum("...ii->...i", entries)[...] = 0.0
    if not np.isfinite(entries).all():
        raise NonFinite(f"alpha = {alpha} kernel has non-finite entries")
    return entries


def _symmetrized(kernels: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of each kernel in a matrix or a stack of them."""
    sym = kernels + kernels.swapaxes(-1, -2)
    sym /= 2.0
    return sym


def alpha_form_matrix(seq: GapSequence, alpha: float) -> AlphaFormMatrix:
    """The kernel of Q_alpha; raises NonFinite when a gap scale under- or
    overflows it (0/0 or inf/inf) instead of passing NaN on."""
    alpha = _check_alpha(alpha)
    entries = _alpha_kernels(seq.deltas, seq.active, alpha)
    entries.setflags(write=False)
    return AlphaFormMatrix(alpha, entries, seq)


def _coerce_weights(seq: GapSequence, t) -> np.ndarray:
    values = t.values if isinstance(t, WeightVector) else WeightVector(np.asarray(t, dtype=float)).values
    if values.size != seq.n:
        raise LengthMismatch(f"{values.size} weights for {seq.n} active nodes")
    return values


def q_alpha(seq: GapSequence, t, alpha: float) -> float:
    """Q_alpha(t); np.sum's pairwise reduction keeps runs reproducible."""
    values = _coerce_weights(seq, t)
    matrix = alpha_form_matrix(seq, alpha).entries
    return float(np.sum(matrix * np.outer(values, values)))


def _reflection_blocks(matrix: np.ndarray, sign: float) -> tuple[np.ndarray, np.ndarray] | None:
    """The two half-size blocks of a square matrix with exact reflection
    symmetry J M J = sign * M, J the reversal, or None without it or when
    n < 2 (Cantoni & Butler, Linear Algebra Appl. 13, 1976).

    Even vectors (u, s, Ju) and odd vectors (u, 0, -Ju), with the centre
    entry s only for odd n, split R^n orthogonally; their orthonormal
    coordinates are (sqrt(2) u, s) and sqrt(2) u. The first block maps
    even coordinates and the second odd ones, into coordinates of the same
    parity when sign = 1 and of the other parity when sign = -1. With
    k = n // 2 they are M11 + M12 J and M11 - M12 J. For odd n the centre
    column, scaled by sqrt(2), joins the first block, and the centre row,
    scaled by sqrt(2), joins the block that maps into even coordinates;
    for sign = 1 that is the first block, which also takes the centre entry.
    """
    n = matrix.shape[0]
    # one mirrored pair rules out most matrices before the full comparison
    if n < 2 or matrix[0, 1] != sign * matrix[-1, -2]:
        return None
    if not np.array_equal(matrix[::-1, ::-1], matrix if sign > 0 else -matrix):
        return None
    k = n // 2
    m11, m12j = matrix[:k, :k], matrix[:k, ::-1][:, :k]
    even, odd = m11 + m12j, m11 - m12j
    if n % 2:
        even = np.hstack((even, SQRT2 * matrix[:k, k:k + 1]))
        centre_row = SQRT2 * matrix[k:k + 1, :k]
        if sign > 0:
            even = np.vstack((even, np.append(centre_row, matrix[k, k])))
        else:
            odd = np.vstack((odd, centre_row))
    return even, odd


def _reflection_lift(y: np.ndarray, n: int, even: bool) -> np.ndarray:
    """The length-n vector with even (or odd) coordinates y; the inverse
    of the coordinates in `_reflection_blocks`, so norms are kept."""
    k = n // 2
    half = y[:k] / SQRT2
    if even:
        return np.concatenate((half, y[k:], half[::-1]))
    return np.concatenate((half, np.zeros(n % 2), -half[::-1]))


def _certify(product: np.ndarray, value: float, v: np.ndarray) -> None:
    """Raise NoConvergence unless ||Mv - value*v|| <= RESIDUAL_RTOL * |value|,
    given the product Mv."""
    residual = float(np.linalg.norm(product - value * v))
    if residual > RESIDUAL_RTOL * max(abs(value), 1e-300):
        raise NoConvergence(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g}*|value|")


def _inverse_iteration(matrix: np.ndarray, value: float, scale: float) -> np.ndarray:
    """Two steps of inverse iteration (Wielandt) on sigma*I - M from the
    normalized ones vector, with the shift sigma just above the value."""
    n = matrix.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    shifted = -matrix
    shifted.flat[:: n + 1] += value + 1e-14 * (abs(value) + scale)
    for _ in range(2):
        v = np.linalg.solve(shifted, v)
        v /= np.linalg.norm(v)
    return v


def _checked_scales(stack: np.ndarray, nonneg: bool) -> np.ndarray:
    """max |M| of each matrix in a (B, n, n) stack, after the input checks
    run on each in turn: nonnegative entries when `nonneg` is set
    (NegativeEntry), finite entries (NonFinite), and symmetric within
    1e-12 * (1 + max |M|) (NotSymmetric). The first matrix that fails
    raises.

    max(max M, -min M) is max |M| without an n x n temporary, and the
    tolerance test runs only on a matrix that is not exactly symmetric.
    """
    low = stack.min(axis=(1, 2))
    scales = np.maximum(stack.max(axis=(1, 2)), -low)
    finite = np.isfinite(stack).all(axis=(1, 2))
    passed = finite & (stack == stack.swapaxes(1, 2)).all(axis=(1, 2))
    if nonneg:
        passed &= low >= 0.0
    if passed.all():
        return scales
    for b in np.flatnonzero(~passed):
        if nonneg and low[b] < 0.0:
            raise NegativeEntry("matrix entries must be nonnegative")
        if not finite[b]:
            raise NonFinite("matrix has non-finite entries")
        matrix = stack[b]
        if float(np.max(np.abs(matrix - matrix.T))) > 1e-12 * (1.0 + scales[b]):
            raise NotSymmetric("matrix is not symmetric within 1e-12")
    return scales


def _top_eigen(stack: np.ndarray, vector: bool,
               nonneg: bool = False) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Top eigenvalue of each square, finite, symmetric matrix in a (B, n, n)
    stack and, when `vector` is set, a certified unit eigenvector for each;
    with `nonneg` the entries must also be nonnegative. The checks run on
    each matrix in turn, and the first that fails raises.

    The values are LAPACK's eigvalsh, so no eigenvectors are formed, and
    each vector comes from `_inverse_iteration`. It is returned only when
    the residual certificate ||Mv - value*v|| <= RESIDUAL_RTOL * |value|
    holds on the full matrix. A zero matrix gives 0 and the normalized ones
    vector.

    A matrix with exact reflection symmetry J M J = M is solved on its two
    half-size blocks: the larger of their top values is the value (the even
    block wins a tie), and that block's vector is lifted back to length n.
    The other matrices share one stacked eigvalsh, which solves each as a
    lone call does.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise NotSymmetric(f"need a stack of square matrices, got shape {stack.shape}")
    scales = _checked_scales(stack, nonneg).tolist()
    count, n = stack.shape[:2]
    nonzero = [b for b, scale in enumerate(scales) if scale]
    values = np.zeros(count)
    folds, plain = {}, []
    try:
        for b in nonzero:
            blocks = _reflection_blocks(stack[b], 1.0)
            if blocks is None:
                plain.append(b)
                continue
            even, odd = (float(np.linalg.eigvalsh(block)[-1]) for block in blocks)
            values[b] = max(even, odd)
            folds[b] = (blocks[0], True) if even >= odd else (blocks[1], False)
        if plain:
            # a slice, unlike an index list, takes the whole stack without a copy
            index = slice(None) if len(plain) == count else plain
            values[index] = np.linalg.eigvalsh(stack[index])[:, -1]
        if not vector:
            return values, None
        vectors = [None if scale else np.full(n, 1.0 / np.sqrt(n)) for scale in scales]
        for b in nonzero:
            solved, even = folds.get(b, (stack[b], None))
            value = float(values[b])
            v = _inverse_iteration(solved, value, scales[b])
            if even is not None:
                v = _reflection_lift(v, n, even)
            _certify(stack[b] @ v, value, v)
            vectors[b] = v
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return values, vectors


def top_eigen_nonneg_sym(matrix) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a nonnegative unit eigenvector.

    Requires a finite symmetric matrix with nonnegative entries; the
    returned vector is the Perron direction with residual ||Mv - v*val||
    bounded by 1e-10 * val. Inverse iteration from a positive start stays
    positive on such a matrix, so the absolute value only clears the sign
    of entries that vanish to rounding.
    """
    values, vectors = _top_eigen(np.asarray(matrix, dtype=float)[None], True, nonneg=True)
    return float(values[0]), np.abs(vectors[0])


def estimate_constant(alpha: float, seq: GapSequence) -> ConstantEstimate:
    """Optimal constant for this configuration: top eigenvalue of the
    symmetrized kernel, witnessed by the unit nonnegative optimizer."""
    alpha = _check_alpha(alpha)
    sym = _symmetrized(alpha_form_matrix(seq, alpha).entries)
    value, vector = top_eigen_nonneg_sym(sym)
    return ConstantEstimate(alpha, seq.n, value, seq, WeightVector(vector))


def constant_values(alpha: float, nodes: np.ndarray) -> np.ndarray:
    """`estimate_constant`'s value on each window of a (B, N+2) stack of
    node vectors (ghosts included), bit for bit, without witnesses or
    certificates: the value-only path for searches that try many windows
    and keep few."""
    alpha = _check_alpha(alpha)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2 or nodes.shape[1] < 3:
        raise TooShort(f"need a stack of windows of at least 3 nodes, got shape {nodes.shape}")
    if not np.isfinite(nodes).all():
        raise NonFinite("nodes must be finite")
    if not (np.diff(nodes) > 0).all():
        raise NotIncreasing("nodes must be strictly increasing")
    kernels = _alpha_kernels(node_deltas(nodes), nodes[:, 1:-1], alpha)
    return _top_eigen(_symmetrized(kernels), False, nonneg=True)[0]


def uniform_lower_bound(n: int) -> float:
    """Value of the form at unit spacing with equal weights 1/sqrt(n):

        2 sum_{k<n} 1/k^2 - (2/n) sum_{k<n} 1/k,

    which increases to pi^2/3.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    k = np.arange(1, n, dtype=float)
    return float(2.0 * np.sum(k ** -2.0) - (2.0 / n) * np.sum(1.0 / k))


def cluster_lower_bound(alpha: float, n: int) -> float:
    """Head-to-cluster part of the form on the cluster configuration:

        sum_{j=2}^{n} sqrt(n+1) / (2 n^(alpha+1) (1 + (j-2)/n)^2),

    which grows like n^(1/2-alpha) and witnesses unboundedness below
    alpha = 1/2.
    """
    alpha = _check_alpha(alpha)
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    j = np.arange(2, n + 1, dtype=float)
    terms = (1.0 + (j - 2.0) / n) ** -2.0
    return float(np.sqrt(n + 1.0) / (2.0 * n ** (alpha + 1.0)) * np.sum(terms))

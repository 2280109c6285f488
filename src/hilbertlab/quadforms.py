"""The parametric quadratic form and its fixed-configuration optimum.

For alpha in [0, 2] the form on a window (lam, delta) with nonnegative
coefficients t is

    Q_alpha(t) = sum_{m != n} delta_m^(2-alpha) delta_n^alpha t_m t_n / (lam_m - lam_n)^2.

Its optimum over unit nonnegative t is the top eigenvalue of the
symmetrized kernel: the kernel is entrywise nonnegative, so a Perron
eigenvector can be chosen nonnegative and the sign constraint is free.
That optimum is a lower estimate for the best constant at this window
size, and exactly the optimal constant for the given configuration.

How the top eigenvalue is found depends on the matrix that is solved
(the even reflection block when the window is mirror-symmetric, else the
whole kernel). From PERRON_MIN_N = 256 rows on, a nonnegative matrix
gets its Perron pair by Rayleigh-quotient iteration, and the value is
certified to be the top one by the Collatz-Wielandt bracket; these values
are Rayleigh quotients that agree with LAPACK's eigvalsh within 1e-12
relative, not eigvalsh's own values. Smaller matrices, signed matrices
and any matrix the certificate rejects get eigvalsh.

Kernels are built a block of rows at a time, and `_top_eigen` shifts the
matrix it solves in place and restores it, so a Perron solve holds the
matrix and LAPACK's working copy; `top_eigen_nonneg_sym` solves a copy of
its input unless told to overwrite it, as `estimate_constant` does with
its own kernel.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    AlphaOutOfRange,
    LengthMismatch,
    NegativeEntry,
    NoConvergence,
    NonFinite,
    NotSymmetric,
    TooShort,
)
from .gaps import GapSequence, WeightVector, check_nodes, node_deltas, pair_kernel, row_blocks

RESIDUAL_RTOL = 1e-10
SQRT2 = float(np.sqrt(2.0))
# nonnegative matrices solved at this size or larger go to `_perron_pair`
PERRON_MIN_N = 256
LANCZOS_STEPS = 80
RQI_SWEEPS = 6
RQI_RTOL = 1e-13


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


def _alpha_kernels(delta: np.ndarray, lam: np.ndarray, alpha: float,
                   symmetrized: bool = False) -> np.ndarray:
    """The kernels of Q_alpha from the deltas and active nodes along the
    last axis: an N x N matrix for one window, a stack of them for a stack
    of windows; with `symmetrized`, each kernel's (M + M^T) / 2 instead
    (`pair_kernel` with delta^(2-alpha), delta^alpha and power 2). Raises
    NonFinite when a gap scale under- or overflows a kernel (0/0 or
    inf/inf) instead of passing NaN on.
    """
    with np.errstate(all="ignore"):
        a, b = delta ** (2.0 - alpha), delta ** alpha
    return pair_kernel(a, b, lam, 2, f"alpha = {alpha} kernel has non-finite entries",
                       symmetrized)


def alpha_form_matrix(seq: GapSequence, alpha: float) -> np.ndarray:
    """The read-only kernel M_{mn} = delta_m^(2-alpha) delta_n^alpha /
    (lam_m-lam_n)^2 of Q_alpha; raises NonFinite when a gap scale under- or
    overflows it (0/0 or inf/inf) instead of passing NaN on."""
    entries = _alpha_kernels(seq.deltas, seq.active, _check_alpha(alpha))
    entries.setflags(write=False)
    return entries


def _coerce_weights(seq: GapSequence, t) -> np.ndarray:
    values = t.values if isinstance(t, WeightVector) else WeightVector(np.asarray(t, dtype=float)).values
    if values.size != seq.n:
        raise LengthMismatch(f"{values.size} weights for {seq.n} active nodes")
    return values


def q_alpha(seq: GapSequence, t, alpha: float) -> float:
    """Q_alpha(t); np.sum's pairwise reduction keeps runs reproducible."""
    values = _coerce_weights(seq, t)
    return float(np.sum(alpha_form_matrix(seq, alpha) * np.outer(values, values)))


def _mirrored(matrix: np.ndarray, sign: float) -> bool:
    """Whether a square matrix has exact reflection symmetry J M J =
    sign * M, J the reversal; False when n < 2. One mirrored pair rules out
    most matrices; the rest are compared a block of rows of the upper half
    at a time against their mirror image, with no n x n temporary. Row m
    of J M J is row n - 1 - m of M reversed."""
    n = matrix.shape[0]
    if n < 2 or matrix[0, 1] != sign * matrix[-1, -2]:
        return False
    for rows in row_blocks((n + 1) // 2):
        mirror = matrix[n - rows.stop:n - rows.start, ::-1][::-1]
        if not np.array_equal(matrix[rows], sign * mirror):
            return False
    return True


def _reflection_block(matrix: np.ndarray, sign: float, first: bool) -> np.ndarray:
    """One of the two half-size blocks of a square matrix with exact
    reflection symmetry J M J = sign * M (`_mirrored`), n >= 2 (Cantoni &
    Butler, Linear Algebra Appl. 13, 1976); each is built only for a caller
    that solves it.

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
    k = n // 2
    m11, m12j = matrix[:k, :k], matrix[:k, ::-1][:, :k]
    with np.errstate(over="ignore"):    # an overflow fails the certificate
        block = m11 + m12j if first else m11 - m12j
    if n % 2:
        if first:
            block = np.hstack((block, SQRT2 * matrix[:k, k:k + 1]))
        if first == (sign > 0):
            centre_row = SQRT2 * matrix[k:k + 1, :k]
            block = np.vstack((block, np.append(centre_row, matrix[k, k]) if first
                               else centre_row))
    return block


def _reflection_lift(y: np.ndarray, n: int, even: bool) -> np.ndarray:
    """The length-n vector with even (or odd) coordinates y; the inverse
    of the coordinates in `_reflection_block`, so norms are kept."""
    k = n // 2
    half = y[:k] / SQRT2
    if even:
        return np.concatenate((half, y[k:], half[::-1]))
    return np.concatenate((half, np.zeros(n % 2), -half[::-1]))


def _certify(product: np.ndarray, value: float, v: np.ndarray) -> None:
    """Raise NoConvergence unless ||Mv - value*v|| <= RESIDUAL_RTOL * |value|,
    given the product Mv; a NaN residual fails."""
    residual = float(np.linalg.norm(product - value * v))
    if not residual <= RESIDUAL_RTOL * max(abs(value), 1e-300):
        raise NoConvergence(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g}*|value|")


@contextmanager
def _shifted(matrix: np.ndarray, shift: float, exact: bool):
    """Overwrite a square matrix with shift * I - M for the body of the
    block, and yield the array to hand np.linalg.solve: the F-contiguous
    view when M == M^T exactly, which solve copies without a strided
    transpose, to the same values. Negation is exact and the diagonal is
    kept, so the matrix is restored bit for bit on leaving, an exception
    included."""
    diagonal = matrix.diagonal().copy()
    np.negative(matrix, out=matrix)
    try:
        matrix.flat[:: len(matrix) + 1] += shift
        yield matrix.T if exact else matrix
    finally:
        np.negative(matrix, out=matrix)
        matrix.flat[:: len(matrix) + 1] = diagonal


def _inverse_iteration(matrix: np.ndarray, value: float, scale: float, exact: bool) -> np.ndarray:
    """Two steps of inverse iteration (Wielandt) on sigma*I - M from the
    normalized ones vector, with the shift sigma just above the value.
    The shift is made in `matrix` and undone (`_shifted`)."""
    n = matrix.shape[0]
    v = np.full(n, 1.0 / np.sqrt(n))
    # a shift or solve that overflows gives NaN, which the certificate fails
    with np.errstate(all="ignore"), \
            _shifted(matrix, value + 1e-14 * (abs(value) + scale), exact) as system:
        for _ in range(2):
            v = np.linalg.solve(system, v)
            v /= np.linalg.norm(v)
    return v


def _lanczos_ritz(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """The top Ritz pair of at most LANCZOS_STEPS Lanczos steps from the
    normalized ones vector, with full reorthogonalization. The run stops
    when the new direction vanishes against ||Mq|| (breakdown: the Krylov
    space is invariant, so its Ritz pairs are exact)."""
    n = matrix.shape[0]
    basis = np.empty((min(LANCZOS_STEPS, n), n))
    diag, off = np.empty(len(basis)), np.empty(len(basis))
    q = np.full(n, 1.0 / np.sqrt(n))
    for k in range(len(basis)):
        basis[k] = q
        w = matrix @ q
        diag[k] = q @ w
        reach = np.linalg.norm(w)
        # Gram-Schmidt against the whole basis, twice, as one pass loses
        # orthogonality once the top Ritz value converges
        for _ in range(2):
            w -= (basis[:k + 1] @ w) @ basis[:k + 1]
        off[k] = np.linalg.norm(w)
        if off[k] <= 1e-12 * reach:
            break
        q = w / off[k]
    steps = k + 1
    upper = np.diag(off[:steps - 1], 1)
    ritz, coords = np.linalg.eigh(np.diag(diag[:steps]) + upper + upper.T)
    return float(ritz[-1]), coords[:, -1] @ basis[:steps]


def _perron_pair(matrix: np.ndarray, exact: bool = True) -> tuple[float, np.ndarray] | None:
    """The top eigenvalue and positive unit eigenvector of a nonzero,
    nonnegative, symmetric matrix, or None when they cannot be certified;
    `exact` says the matrix equals its transpose entrywise.

    The Lanczos Ritz pair seeds Rayleigh-quotient iteration (Parlett, The
    Symmetric Eigenvalue Problem, ch. 4): solve (theta I - M) x = v by LU,
    normalize, set theta = v^T M v, until ||Mv - theta v|| <= RQI_RTOL *
    theta, with at least one and at most RQI_SWEEPS solves. Each shift is
    made in `matrix` itself and undone after its solve (`_shifted`), so
    the matrix is the only n x n array besides LAPACK's working copy.

    RQI finds an eigenpair, not necessarily the top one; the
    Collatz-Wielandt bracket certifies it. For nonnegative M and positive
    v the spectral radius lies in [min_i (Mv)_i / v_i, max_i (Mv)_i / v_i],
    and theta, the mean of those ratios weighted by v_i^2, too; so a
    positive v whose bracket is at most RESIDUAL_RTOL * theta wide makes
    theta the top eigenvalue within that width. A vector with a zero or
    negative entry, a wider or non-finite bracket, or a singular solve
    gives None.
    """
    try:
        theta, v = _lanczos_ritz(matrix)
        with np.errstate(all="ignore"):
            # at least one solve: a Ritz pair near RQI_RTOL can still leave
            # the bracket too wide where the vector has small entries
            for _ in range(RQI_SWEEPS):
                with _shifted(matrix, theta, exact) as system:
                    v = np.linalg.solve(system, v)
                v /= np.linalg.norm(v)
                product = matrix @ v
                theta = float(v @ product)
                if np.linalg.norm(product - theta * v) <= RQI_RTOL * theta:
                    break
            else:
                return None
            if v.sum() < 0.0:
                v, product = -v, -product
            if not v.min() > 0.0:
                return None
            ratios = product / v
            if not ratios.max() - ratios.min() <= RESIDUAL_RTOL * theta:
                return None
    except np.linalg.LinAlgError:
        return None
    return theta, v


def _exactly_symmetric(stack: np.ndarray) -> np.ndarray:
    """Whether M == M^T entrywise, for each matrix in a (B, n, n) stack;
    each block of rows is compared with its mirror columns from the
    diagonal on, so no n x n temporary is formed."""
    symmetric = np.ones(len(stack), dtype=bool)
    for rows in row_blocks(stack.shape[1]):
        upper = stack[:, rows, rows.start:]
        symmetric &= (upper == stack[:, rows.start:, rows].swapaxes(1, 2)).all(axis=(1, 2))
    return symmetric


def _asymmetry(matrix: np.ndarray) -> float:
    """max |M - M^T| of a square matrix, a block of rows at a time."""
    return max(float(np.max(np.abs(matrix[rows, rows.start:] - matrix[rows.start:, rows].T)))
               for rows in row_blocks(matrix.shape[0]))


def _checked_scales(stack: np.ndarray, nonneg: bool) -> tuple[np.ndarray, np.ndarray]:
    """max |M| of each matrix in a (B, n, n) stack, and whether each is
    exactly symmetric, after the input checks run on each in turn:
    nonnegative entries when `nonneg` is set (NegativeEntry), finite
    entries (NonFinite), and symmetric within 1e-12 * (1 + max |M|)
    (NotSymmetric). The first matrix that fails raises.

    max(max M, -min M) is max |M| without an n x n temporary, and it is
    finite exactly when every entry is: a NaN propagates through min and
    max, and an infinite entry is one of them. The tolerance test runs
    only on a matrix that is not exactly symmetric.
    """
    low = stack.min(axis=(1, 2))
    scales = np.maximum(stack.max(axis=(1, 2)), -low)
    finite = np.isfinite(scales)
    exact = _exactly_symmetric(stack)
    passed = finite & exact
    if nonneg:
        passed &= low >= 0.0
    if passed.all():
        return scales, exact
    for b in np.flatnonzero(~passed):
        if nonneg and low[b] < 0.0:
            raise NegativeEntry("matrix entries must be nonnegative")
        if not finite[b]:
            raise NonFinite("matrix has non-finite entries")
        if _asymmetry(stack[b]) > 1e-12 * (1.0 + scales[b]):
            raise NotSymmetric("matrix is not symmetric within 1e-12")
    return scales, exact


def _top_eigen(stack: np.ndarray, vector: bool,
               nonneg: bool = False) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Top eigenvalue of each square, finite, symmetric matrix in a (B, n, n)
    stack and, when `vector` is set, a certified unit eigenvector for each;
    with `nonneg` the entries must also be nonnegative. The checks run on
    each matrix in turn, and the first that fails raises.

    The method is chosen per matrix. The matrix solved is the even
    reflection block when the matrix has exact reflection symmetry
    J M J = M, else the matrix itself. With `nonneg` set and at least
    PERRON_MIN_N rows, it goes to `_perron_pair`: the value is a Rayleigh
    quotient that agrees with eigvalsh within 1e-12 relative, certified
    top by the Collatz-Wielandt bracket, and the positive vector comes
    with it. On a nonnegative matrix the Perron vector is even, so the
    odd block is not built. When the bracket or any other step of that
    path fails, the matrix falls back to the path of the smaller ones.

    There the values are LAPACK's eigvalsh, so no eigenvectors are
    formed, and each vector comes from `_inverse_iteration`. A mirrored
    matrix is solved on its two half-size blocks: the larger of their top
    values is the value (the even block wins a tie). The other matrices
    share one stacked eigvalsh, which solves each as a lone call does.

    A vector from a block is lifted back to length n, and every vector is
    returned only when the residual certificate ||Mv - value*v|| <=
    RESIDUAL_RTOL * |value| holds on the full matrix. A zero matrix gives
    0 and the normalized ones vector; a value that overflows raises
    NoConvergence, with or without vectors.

    The solves shift the matrix they solve in place, the member itself when
    it is not folded, and restore it bit for bit before they return or
    raise: `stack` must be writable, and callers hand over an array of
    their own, so a solve holds no n x n array besides the stack, the
    blocks of a folded member and LAPACK's working copy. One compare of
    each member's (0, 1) entry with its (n-1, n-2) mirror, over the whole
    stack, rules out the fold for most members before `_mirrored` runs.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise NotSymmetric(f"need a stack of square matrices, got shape {stack.shape}")
    scales, exact = _checked_scales(stack, nonneg)
    scales = scales.tolist()
    count, n = stack.shape[:2]
    nonzero = [b for b, scale in enumerate(scales) if scale]
    values = np.zeros(count)
    # one mirrored pair per member rules out most of the stack at once
    mirror = (stack[:, 0, 1] == stack[:, -1, -2]).tolist() if n >= 2 else [False] * count
    # member -> (matrix solved, parity of its block or None, vector or None)
    solved, plain = {}, []
    try:
        for b in nonzero:
            folded = mirror[b] and _mirrored(stack[b], 1.0)
            matrix = _reflection_block(stack[b], 1.0, True) if folded else stack[b]
            pair = (_perron_pair(matrix, exact[b]) if nonneg and len(matrix) >= PERRON_MIN_N
                    else None)
            if pair is not None:
                values[b] = pair[0]
                solved[b] = (matrix, True if folded else None, pair[1])
            elif not folded:
                plain.append(b)
            else:
                odd = _reflection_block(stack[b], 1.0, False)
                tops = [float(np.linalg.eigvalsh(block)[-1]) for block in (matrix, odd)]
                values[b] = max(tops)
                solved[b] = (matrix, True, None) if tops[0] >= tops[1] else (odd, False, None)
        if plain:
            # a slice, unlike an index list, takes the whole stack without a copy
            index = slice(None) if len(plain) == count else plain
            values[index] = np.linalg.eigvalsh(stack[index])[:, -1]
        if not np.isfinite(values).all():
            raise NoConvergence("a top eigenvalue overflows")
        if not vector:
            return values, None
        vectors = [None if scale else np.full(n, 1.0 / np.sqrt(n)) for scale in scales]
        for b in nonzero:
            matrix, even, v = solved.get(b, (stack[b], None, None))
            value = float(values[b])
            if v is None:
                v = _inverse_iteration(matrix, value, scales[b], exact[b])
            if even is not None:
                v = _reflection_lift(v, n, even)
            _certify(stack[b] @ v, value, v)
            vectors[b] = v
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return values, vectors


def top_eigen_nonneg_sym(matrix, overwrite: bool = False) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a nonnegative unit eigenvector.

    Requires a finite symmetric matrix with nonnegative entries; the
    returned vector is the Perron direction with residual ||Mv - v*val||
    bounded by 1e-10 * val. When the matrix solved (its even reflection
    block if it is mirror-symmetric) has at least PERRON_MIN_N rows, the
    pair comes from Rayleigh-quotient iteration and the value is certified
    top by the Collatz-Wielandt bracket, agreeing with eigvalsh within
    1e-12 relative; smaller matrices, and any the bracket does not
    certify, get eigvalsh and inverse iteration. Inverse iteration from a
    positive start stays positive on such a matrix, so the absolute value
    only clears the sign of entries that vanish to rounding. A matrix that
    is not n x n with n >= 1 raises NotSymmetric.

    The solve runs on a private copy, so the caller's array, read-only or
    not, is never written. With `overwrite`, a writable float64 matrix is
    solved in place instead: it is shifted and restored bit for bit before
    the call returns or raises (`_top_eigen`), which saves the copy for a
    caller that owns the matrix and does not read it during the call.
    """
    matrix = np.asarray(matrix, dtype=float) if overwrite else np.array(matrix, dtype=float)
    if matrix.ndim != 2 or not 0 < matrix.shape[0] == matrix.shape[1]:
        raise NotSymmetric(f"need a nonempty square matrix, got shape {matrix.shape}")
    values, vectors = _top_eigen(matrix[None], True, nonneg=True)
    return float(values[0]), np.abs(vectors[0])


def estimate_constant(alpha: float, seq: GapSequence) -> ConstantEstimate:
    """Optimal constant for this configuration: top eigenvalue of the
    symmetrized kernel, witnessed by the unit nonnegative optimizer."""
    alpha = _check_alpha(alpha)
    sym = _alpha_kernels(seq.deltas, seq.active, alpha, symmetrized=True)
    value, vector = top_eigen_nonneg_sym(sym, overwrite=True)
    return ConstantEstimate(alpha, seq.n, value, seq, WeightVector(vector))


def constant_values(alpha: float, nodes: np.ndarray) -> np.ndarray:
    """`estimate_constant`'s value on each window of a (B, N+2) stack of
    node vectors (ghosts included), bit for bit, without witnesses or
    certificates: the value-only path for searches that try many windows
    and keep few."""
    alpha = _check_alpha(alpha)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2:
        raise TooShort(f"need a stack of windows, got shape {nodes.shape}")
    check_nodes(nodes)
    kernels = _alpha_kernels(node_deltas(nodes), nodes[:, 1:-1], alpha, symmetrized=True)
    return _top_eigen(kernels, False, nonneg=True)[0]


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

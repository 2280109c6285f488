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
    NotSymmetric,
)
from .gaps import GapSequence, WeightVector

RESIDUAL_RTOL = 1e-10


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


def alpha_form_matrix(seq: GapSequence, alpha: float) -> AlphaFormMatrix:
    """The kernel of Q_alpha; raises NonFinite when a gap scale under- or
    overflows it (0/0 or inf/inf) instead of passing NaN on."""
    alpha = _check_alpha(alpha)
    delta = seq.deltas
    with np.errstate(all="ignore"):
        diff = seq.differences()
        entries = np.outer(delta ** (2.0 - alpha), delta ** alpha) / diff ** 2
    np.fill_diagonal(entries, 0.0)
    if not np.isfinite(entries).all():
        raise NonFinite(f"alpha = {alpha} kernel has non-finite entries")
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


def _top_eigen(matrix: np.ndarray, vector: bool = True) -> tuple[float, np.ndarray | None]:
    """Top eigenvalue of a square, finite, symmetric matrix and, when
    `vector` is set, a certified unit eigenvector for it.

    The value is LAPACK's eigvalsh, so no eigenvectors are formed. The
    vector comes from two steps of inverse iteration (Wielandt) on
    sigma*I - M from the normalized ones vector, with the shift sigma just
    above the value, and is returned only when the residual certificate
    ||Mv - value*v|| <= RESIDUAL_RTOL * |value| holds. A zero matrix keeps
    the start vector.
    """
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise NotSymmetric(f"need a square matrix, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise NonFinite("matrix has non-finite entries")
    scale = float(np.max(np.abs(matrix))) if matrix.size else 0.0
    if float(np.max(np.abs(matrix - matrix.T))) > 1e-12 * (1.0 + scale):
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    n = matrix.shape[0]
    try:
        value = float(np.linalg.eigvalsh(matrix)[-1])
        if not vector:
            return value, None
        v = np.full(n, 1.0 / np.sqrt(n))
        if scale > 0.0:
            shifted = -matrix
            shifted.flat[:: n + 1] += value + 1e-14 * (abs(value) + scale)
            for _ in range(2):
                v = np.linalg.solve(shifted, v)
                v /= np.linalg.norm(v)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    residual = float(np.linalg.norm(matrix @ v - value * v))
    if residual > RESIDUAL_RTOL * max(abs(value), 1e-300):
        raise NoConvergence(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g}*|value|")
    return value, v


def top_eigen_nonneg_sym(matrix) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a nonnegative unit eigenvector.

    Requires a finite symmetric matrix with nonnegative entries; the
    returned vector is the Perron direction with residual ||Mv - v*val||
    bounded by 1e-10 * val. Inverse iteration from a positive start stays
    positive on such a matrix, so the absolute value only clears the sign
    of entries that vanish to rounding.
    """
    matrix = np.asarray(matrix, dtype=float)
    if float(np.min(matrix)) < 0.0:
        raise NegativeEntry("matrix entries must be nonnegative")
    value, vector = _top_eigen(matrix)
    return value, np.abs(vector)


def estimate_constant(alpha: float, seq: GapSequence) -> ConstantEstimate:
    """Optimal constant for this configuration: top eigenvalue of the
    symmetrized kernel, witnessed by the unit nonnegative optimizer."""
    alpha = _check_alpha(alpha)
    matrix = alpha_form_matrix(seq, alpha).entries
    sym = (matrix + matrix.T) / 2.0
    value, vector = top_eigen_nonneg_sym(sym)
    return ConstantEstimate(alpha, seq.n, value, seq, WeightVector(vector))


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

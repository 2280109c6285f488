"""The parametric quadratic form and its fixed-configuration optimum.

For alpha in [0, 2] the form on a window (lam, delta) with nonnegative
coefficients t is

    Q_alpha(t) = sum_{m != n} delta_m^(2-alpha) delta_n^alpha t_m t_n / (lam_m - lam_n)^2.

Its optimum over unit nonnegative t is the top eigenvalue of the
symmetrized kernel: the kernel is entrywise nonnegative, so a Perron
eigenvector can be chosen nonnegative and the sign constraint is free.
That optimum is a lower estimate for the best constant at this window
size, and exactly the optimal constant for the given configuration.

The top eigenvalue and its certified witness come from `eigen`, reached
as `eigen.<name>`; `top_eigen_nonneg_sym` is re-exported under its old
name. Kernels are built a block of rows at a time.

A search that wants only the first window of a stack whose value beats a
floor calls `first_constant_above`, which solves only the windows whose
Collatz-Wielandt bound at a positive vector can beat it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import eigen
from ._util import count
from .eigen import top_eigen_nonneg_sym  # noqa: F401  (the solver's old name)
from .errors import AlphaOutOfRange, LengthMismatch, TooShort
from .gaps import GapSequence, WeightVector, check_nodes, node_deltas, pair_kernel

ALPHA_OVERFLOW = "alpha = {} kernel has non-finite entries"


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


def _alpha_factors(delta: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """The row and column factors delta^(2-alpha) and delta^alpha of the
    Q_alpha kernel."""
    with np.errstate(all="ignore"):
        return delta ** (2.0 - alpha), delta ** alpha


def _alpha_kernels(delta: np.ndarray, lam: np.ndarray, alpha: float,
                   symmetrized: bool = False) -> np.ndarray:
    """The kernels of Q_alpha from the deltas and active nodes along the
    last axis: an N x N matrix for one window, a stack of them for a stack
    of windows; with `symmetrized`, each kernel's (M + M^T) / 2 instead
    (`pair_kernel` with delta^(2-alpha), delta^alpha and power 2). Raises
    NonFinite when a gap scale under- or overflows a kernel (0/0 or
    inf/inf) instead of passing NaN on.
    """
    return pair_kernel(*_alpha_factors(delta, alpha), lam, 2, ALPHA_OVERFLOW.format(alpha),
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


def estimate_constant(alpha: float, seq: GapSequence) -> ConstantEstimate:
    """Optimal constant for this configuration: top eigenvalue of the
    symmetrized kernel, witnessed by the unit nonnegative optimizer.

    On a window whose nodes lie on a grid the kernel is Toeplitz and
    mirror-symmetric, so only its even block is built, from one row
    (`eigen.grid_fold`), and solved; the block holds the top eigenvalue,
    and its vector, certified on the block, is lifted to the window. The
    lift is an isometry that maps the block's residual to the kernel's.
    Elsewhere the whole kernel is built and solved in place."""
    alpha = _check_alpha(alpha)
    row, col = _alpha_factors(seq.deltas, alpha)
    message = ALPHA_OVERFLOW.format(alpha)
    block = eigen.grid_fold(row, col, seq.nodes, 2, message, symmetrized=True)
    if block is None:
        value, vector = eigen.top_eigen_nonneg_sym(
            pair_kernel(row, col, seq.active, 2, message, True), overwrite=True)
    else:
        value, half = eigen.top_eigen_nonneg_sym(block, overwrite=True)
        vector = eigen.reflection_lift(half, seq.n)
    return ConstantEstimate(alpha, seq.n, value, seq, WeightVector(vector))


def _window_kernels(alpha: float, nodes: np.ndarray) -> np.ndarray:
    """The symmetrized kernels of a (B, N+2) stack of node vectors (ghosts
    included), after the alpha and node checks."""
    alpha = _check_alpha(alpha)
    nodes = np.asarray(nodes, dtype=float)
    if nodes.ndim != 2:
        raise TooShort(f"need a stack of windows, got shape {nodes.shape}")
    check_nodes(nodes)
    return _alpha_kernels(node_deltas(nodes), nodes[:, 1:-1], alpha, symmetrized=True)


def constant_values(alpha: float, nodes: np.ndarray) -> np.ndarray:
    """`estimate_constant`'s value on each window of a (B, N+2) stack of
    node vectors (ghosts included), bit for bit, without witnesses or
    certificates; `first_constant_above` solves only the windows that can
    beat a floor, with these values."""
    kernels = _window_kernels(alpha, nodes)
    return eigen.top_eigen(kernels, eigen.checked_scales(kernels, True), False, nonneg=True)[0]


def first_constant_above(alpha: float, nodes: np.ndarray, floor: float,
                         v: np.ndarray) -> tuple[int, float, np.ndarray] | None:
    """The first window of a (B, N+2) stack of node vectors whose
    `constant_values` value exceeds `floor`: its index, that value bit for
    bit, and its witness, the certified unit vector of `eigen.top_eigen`;
    None when no window's value exceeds it.

    Only the windows that can exceed the floor are solved. All kernels are
    built and pass the entry checks (NegativeEntry, NonFinite) once, first,
    and their scales go with them to both solves below. Then,
    for a positive v, a window whose Collatz-Wielandt bound b = max_i (M
    v)_i / v_i has b (1 + 1e-12) <= floor is dropped. The test is written
    so that a NaN bound is kept; a v with an entry <= 0 drops nothing. The
    rest move to the front of the stack, in order, and are solved together
    as `constant_values` solves them.

    The margin makes the drop sound: a dropped window's value is at most
    the floor, so the first window above it is always solved.
    - The exact bound is at least lambda_max(M). LAPACK's backward error is
      p(n) eps ||M||_2, and ||M||_2 = lambda_max for a nonnegative
      symmetric M, so eigvalsh reads at most lambda_max (1 + p(n) eps). A
      mirrored member's even block has the same top eigenvalue and norm.
    - The bound sums nonnegative terms and divides once, so its own
      rounding is within gamma_{n+1} = (n+1) eps / (1 - (n+1) eps).
    - 1e-12 is about 4,500 ulps (eps = 2^-52), above both at the sizes a
      search tries.
    - From eigen.PERRON_MIN_N rows on the value is a Rayleigh quotient, which is
      at most lambda_max.
    """
    kernels = _window_kernels(alpha, nodes)
    scales = eigen.checked_scales(kernels, True)
    survivors = np.arange(len(kernels))
    if v.min() > 0.0:
        with np.errstate(over="ignore"):    # an overflowing bound is inf, and kept
            bounds = eigen.collatz_wielandt(kernels @ v, v)[1]
        survivors = survivors[~(bounds * (1.0 + 1e-12) <= floor)]
    if not survivors.size:
        return None
    # moving the survivors forward in place keeps the stack within its memory
    for i, b in enumerate(survivors.tolist()):
        if i != b:
            kernels[i] = kernels[b]
    solved, scales = kernels[:survivors.size], scales[survivors]
    values = eigen.top_eigen(solved, scales, False, nonneg=True)[0]
    hits = np.flatnonzero(values > floor)
    if not hits.size:
        return None
    j = int(hits[0])
    witness = eigen.top_eigen(solved[j:j + 1], scales[j:j + 1], True, nonneg=True)[1][0]
    return int(survivors[j]), float(values[j]), witness


def uniform_lower_bound(n: int) -> float:
    """Value of the form at unit spacing with equal weights 1/sqrt(n):

        2 sum_{k<n} 1/k^2 - (2/n) sum_{k<n} 1/k,

    which increases to pi^2/3.
    """
    n = count("n", n, 2)
    k = np.arange(1, n, dtype=float)
    return float(2.0 * np.sum(k ** -2.0) - (2.0 / n) * np.sum(1.0 / k))


def cluster_lower_bound(alpha: float, n: int) -> float:
    """Head-to-cluster part of the form on the cluster configuration:

        sum_{j=2}^{n} sqrt(n+1) / (2 n^(alpha+1) (1 + (j-2)/n)^2),

    which grows like n^(1/2-alpha) and witnesses unboundedness below
    alpha = 1/2.
    """
    alpha = _check_alpha(alpha)
    n = count("n", n, 2)
    j = np.arange(2, n + 1, dtype=float)
    terms = (1.0 + (j - 2.0) / n) ** -2.0
    return float(np.sqrt(n + 1.0) / (2.0 * n ** (alpha + 1.0)) * np.sum(terms))

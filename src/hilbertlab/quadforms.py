"""The parametric quadratic form and its fixed-configuration optimum.

For alpha in [0, 2] the form on a window (lam, delta) with nonnegative
coefficients t is

    Q_alpha(t) = sum_{m != n} delta_m^(2-alpha) delta_n^alpha t_m t_n / (lam_m - lam_n)^2.

Its optimum over unit nonnegative t is the top eigenvalue of the
symmetrized kernel: the kernel is entrywise nonnegative, so a Perron
eigenvector can be chosen nonnegative and the sign constraint is free.
That optimum is a lower estimate for the best constant at this window
size, and exactly the optimal constant for the given configuration.

How the top eigenvalue is found depends on the matrix that is solved:
the even reflection block when a nonnegative kernel is mirror-symmetric,
as that block holds its top eigenvalue, else the whole kernel. `_fold`
builds that half-size block from the rows of a kernel, for the kernels
here (J M J = M) and for spectra's skew H (J H J = -H). On a uniform
window whose nodes are exact multiples of a power of two, a kernel with
constant factors is Toeplitz, and `_toeplitz_fold` builds the same block,
bit for bit, from one row of it, so the kernel is never formed
(`_grid_fold`). The core, `_top_eigen`, takes each matrix to equal its
transpose bit for bit, as its caller builds it, and compares no triangle
with the other: `top_eigen_nonneg_sym` is the one place that checks
symmetry, within a tolerance, and it solves its own copy with the lower
triangle, which LAPACK reads, mirrored into the upper one. From
PERRON_MIN_N = 256 rows on, a nonnegative matrix gets its Perron pair
from Lanczos steps and inverse iteration on one Cholesky factorization
of sigma I - M made in the matrix itself, certified top by
the Collatz-Wielandt bracket; these values are Rayleigh quotients that
agree with LAPACK's eigvalsh within 1e-12 relative. Smaller and signed
matrices, and any that path fails on, get their values from eigvalsh and
their vectors from eigh.

Kernels are built a block of rows at a time. A Perron solve writes its
factor over the entries left of its 32 x 32 diagonal blocks of the matrix
it solves and restores them bit for bit, so it holds no n x n array
besides the matrix. `top_eigen_nonneg_sym` solves a copy of its input
unless told to overwrite it, which a caller does only with a matrix of its
own that it built exactly symmetric, as `estimate_constant` does with its
kernel or block; that matrix is not compared with its transpose.
"""
from __future__ import annotations

import math
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
from .gaps import (
    GapSequence,
    WeightVector,
    check_nodes,
    kernel_rows,
    node_deltas,
    pair_kernel,
    row_blocks,
)

RESIDUAL_RTOL = 1e-10
SQRT2 = float(np.sqrt(2.0))
# nonnegative matrices solved at this size or larger go to `_perron_pair`
PERRON_MIN_N = 256
LANCZOS_STEPS = 80
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


def _fold(rows, n: int, sign: float) -> np.ndarray | None:
    """The even block of an n x n matrix M with exact reflection symmetry
    J M J = sign * M, J the reversal (Cantoni & Butler, Linear Algebra
    Appl. 13, 1976), where rows(s) returns the rows s of M; None when the
    symmetry does not hold or n < 2.

    Even vectors (u, s, Ju) and odd vectors (u, 0, -Ju), with the centre
    entry s only for odd n, split R^n orthogonally; their orthonormal
    coordinates are (sqrt(2) u, s) and sqrt(2) u. With k = n // 2 the even
    block E = M11 + M12 J maps even coordinates to coordinates of the same
    parity when sign = 1 and to odd ones when sign = -1. For odd n the
    centre column, scaled by sqrt(2), joins E, and for sign = 1 so do the
    centre row, scaled by sqrt(2), and the centre entry. A nonnegative M
    with sign = 1 has its top eigenvalue in E: for a Perron vector v, Jv is
    one too, and v + Jv is an even one.

    The rows of the upper half are read ROW_BLOCK at a time, each block
    next to the mirror rows it is compared with, and written into E, so a
    source that builds its rows on demand never holds M. Row m of J M J
    is row n - 1 - m of M reversed.
    """
    if n < 2:
        return None
    k = n // 2
    fold = np.empty((n - k if sign > 0 else k, n - k))
    with np.errstate(over="ignore"):    # an overflow fails the certificate
        for block in row_blocks(n - k):
            top = rows(block)
            mirror = rows(slice(n - block.stop, n - block.start))[::-1, ::-1]
            if not np.array_equal(top, sign * mirror):
                return None
            out = fold[block.start:block.stop]
            top = top[:len(out)]    # for sign = -1 the centre row of odd n is only compared
            np.add(top[:, :k], top[:, ::-1][:, :k], out=out[:, :k])
            if n % 2:
                np.multiply(SQRT2, top[:, k], out=out[:, k])
        if n % 2 and sign > 0:
            # the last row read is the centre row
            np.multiply(SQRT2, top[-1, :k], out=fold[k, :k])
            fold[k, k] = top[-1, k]
    return fold


def _toeplitz_fold(column: np.ndarray, n: int, sign: float) -> np.ndarray:
    """`_fold`'s even block, bit for bit, of the n x n matrix M with
    M_mn = column[m - n] for m >= n and sign * column[n - m] above the
    diagonal: Toeplitz for sign = 1, skew-Toeplitz for sign = -1 (column[0]
    is then the zero diagonal), so that J M J = sign * M holds by
    construction and is not compared.

    Row i of M is diagonals[n - 1 - i : 2n - 1 - i] of the vector of its
    2n - 1 diagonals, so M and its columns reversed are strided views of
    that vector, and the block is one add of two views, as `_fold` adds
    the rows it reads: E_ij = M_ij + M_i,n-1-j.
    """
    k = n // 2
    upper = column[1:] if sign > 0 else np.negative(column[1:])
    diagonals = np.concatenate((column[:0:-1], column[:1], upper))
    m = np.lib.stride_tricks.sliding_window_view(diagonals, n)[::-1]
    fold = np.empty((n - k if sign > 0 else k, n - k))
    np.add(m[:k, :k], m[:k, ::-1][:, :k], out=fold[:k, :k])
    if n % 2:
        np.multiply(SQRT2, m[:k, k], out=fold[:k, k])
        if sign > 0:
            np.multiply(SQRT2, m[k, :k], out=fold[k, :k])
            fold[k, k] = m[k, k]
    return fold


def _on_grid(nodes: np.ndarray) -> bool:
    """Whether the nodes are exactly i h, (i + 1) h, (i + 2) h, ... for an
    integer i and a power of two h, as `generate_uniform(n, 1.0)` builds
    them: then every float difference lam_m - lam_n is exactly (m - n) h.
    (Strictly increasing nodes keep every i + k an exact float: past 2^53
    two of them would round to one.)"""
    with np.errstate(over="ignore"):
        h = float(nodes[1] - nodes[0])
        first = float(nodes[0]) / h
        return (math.frexp(h)[0] == 0.5 and first.is_integer()
                and np.array_equal((first + np.arange(nodes.size)) * h, nodes))


def _grid_fold(row: np.ndarray, col: np.ndarray, nodes: np.ndarray, power: int, message: str,
               symmetrized: bool = False) -> np.ndarray | None:
    """The even block (`_fold`) of pair_kernel(row, col, lam, power,
    message, symmetrized), lam the active nodes of `nodes`, bit for bit,
    when its factors are constant and the nodes on a grid (`_on_grid`);
    else None. The kernel is then Toeplitz (skew for odd power): each
    entry is fl(row col) / fl(((m - n) h)^power) and depends on m - n
    alone. Its last row, read backwards, is its first column, so one row
    of `kernel_rows`, with its NonFinite check, is built and
    `_toeplitz_fold` makes the block; the kernel itself is never formed.
    """
    if not ((row == row[0]).all() and (col == col[0]).all() and _on_grid(nodes)):
        return None
    n = nodes.size - 2
    last = kernel_rows(row, col, nodes[1:-1], power, message, slice(n - 1, n),
                       symmetrized=symmetrized)[0]
    return _toeplitz_fold(last[0, ::-1], n, -1.0 if power % 2 else 1.0)


def _reflection_lift(y: np.ndarray, n: int) -> np.ndarray:
    """The even length-n vector with coordinates y; the inverse of the
    coordinates in `_fold`, so norms are kept."""
    k = n // 2
    half = y[:k] / SQRT2
    return np.concatenate((half, y[k:], half[::-1]))


def _unit(magnitude: float) -> float:
    """A power of two for vectors of about this magnitude: 1.0 when it lies
    in [2^-256, 2^256), else the power that takes it into [1/2, 1), held
    within [2^-1020, 2^1020] so that it and its inverse are normal.

    Scaling by a power of two is exact, so the norm of x * unit, divided
    by the unit, is the norm np.linalg.norm gives in range, and the sum of
    squares of up to 2^30 entries of about that magnitude neither
    overflows nor underflows. In the normal range the unit is 1.0 and the
    arithmetic is unchanged."""
    exponent = math.frexp(magnitude)[1]
    if -256 < exponent <= 256:
        return 1.0
    return math.ldexp(1.0, -min(max(exponent, -1020), 1020))


def _scaled_norm(x: np.ndarray, unit: float) -> float:
    """||x||, taken of x * unit (`_unit`) so that its sum of squares stays
    in range."""
    return float(np.linalg.norm(x * unit)) / unit


def _certify(product: np.ndarray, value: float, v: np.ndarray) -> None:
    """Raise NoConvergence unless ||Mv - value*v|| <= RESIDUAL_RTOL * |value|,
    given the product Mv; a NaN residual fails. The norm is taken in the
    unit of the value, so a residual of a huge or tiny value does not
    overflow or underflow."""
    residual = _scaled_norm(product - value * v, _unit(abs(value)))
    if not residual <= RESIDUAL_RTOL * max(abs(value), 1e-300):
        raise NoConvergence(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g}*|value|")


def _lanczos_ritz(matrix: np.ndarray, scale: float) -> tuple[float, np.ndarray]:
    """The top Ritz pair of at most LANCZOS_STEPS Lanczos steps from the
    normalized ones vector, with full reorthogonalization. The run stops
    when the new direction vanishes against ||Mq|| (breakdown: the Krylov
    space is invariant, so its Ritz pairs are exact).

    The products M q are taken in the unit (`_unit`) of `scale`, max M, so
    that their norms neither overflow nor underflow for a huge or tiny
    matrix; the Ritz value is returned in the units of M."""
    n = matrix.shape[0]
    unit = _unit(scale)
    basis = np.empty((min(LANCZOS_STEPS, n), n))
    diag, off = np.empty(len(basis)), np.empty(len(basis))
    q = np.full(n, 1.0 / np.sqrt(n))
    for k in range(len(basis)):
        basis[k] = q
        w = matrix @ q
        w *= unit
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
    return float(ritz[-1]) / unit, coords[:, -1] @ basis[:steps]


def _factor(matrix: np.ndarray, shift: float, blocks: list[slice]) -> list[np.ndarray]:
    """The Cholesky factor L L^T = shift * I - M, made in `matrix` itself,
    left-looking over the blocks `blocks` (Golub & Van Loan, Matrix
    Computations, 4th ed., 4.2). M is read from its diagonal blocks and
    its upper triangle, which are never written; the entries of L left of
    its diagonal blocks overwrite those of M, which are not read.

    For each block, its rows of shift * I - M from the diagonal block on
    are updated by one GEMM with the columns of L made so far;
    np.linalg.cholesky factors the diagonal block, and the inverse of that
    factor turns the rest into the block's columns of L below it. Returns
    the inverses of the diagonal factors. Raises LinAlgError when a
    diagonal block is not positive definite, as when the shift is below
    the top eigenvalue.
    """
    inverses = []
    for block in blocks:
        start, width = block.start, block.stop - block.start
        panel = np.negative(matrix[block, start:])
        panel[:, :width].flat[:: width + 1] += shift
        if start:
            panel -= matrix[block, :start] @ matrix[start:, :start].T
        inverse = np.linalg.inv(np.linalg.cholesky(panel[:, :width]))
        matrix[block.stop:, block] = (inverse @ panel[:, width:]).T
        inverses.append(inverse)
    return inverses


def _solve_factor(matrix: np.ndarray, inverses: list[np.ndarray], blocks: list[slice],
                  v: np.ndarray) -> np.ndarray:
    """x with L L^T x = v for the factor `_factor` left in `matrix`: one
    forward and one backward triangular solve, a block at a time."""
    x = np.empty_like(v)
    for block, inverse in zip(blocks, inverses):
        x[block] = inverse @ (v[block] - matrix[block, :block.start] @ x[:block.start])
    for block, inverse in zip(blocks[::-1], inverses[::-1]):
        x[block] = inverse.T @ (x[block] - x[block.stop:] @ matrix[block.stop:, block])
    return x


def _upper_product(matrix: np.ndarray, blocks: list[slice], v: np.ndarray) -> np.ndarray:
    """M v for the symmetric M held in the diagonal blocks and the upper
    triangle of `matrix`, which `_factor` leaves as they were."""
    product = np.empty_like(v)
    for rows in blocks:
        product[rows] = (matrix[rows, rows.start:] @ v[rows.start:]
                         + v[:rows.start] @ matrix[:rows.start, rows])
    return product


def _bracket(product: np.ndarray, v: np.ndarray) -> float:
    """The width max_i (Mv)_i / v_i - min_i (Mv)_i / v_i of the
    Collatz-Wielandt bracket of v, given the product Mv; inf when v has a
    zero, negative or NaN entry."""
    if not v.min() > 0.0:
        return np.inf
    ratios = product / v
    return float(ratios.max() - ratios.min())


def _inverse_steps(matrix: np.ndarray, shift: float, v: np.ndarray) -> np.ndarray:
    """Inverse iteration at the fixed shift (Parlett, The Symmetric
    Eigenvalue Problem, ch. 4) from v, on one factorization of shift * I -
    M made in `matrix` itself (`_factor`). Steps run while each one at
    least halves the Collatz-Wielandt bracket of its unit iterate, so they
    stop once rounding limits the bracket; the last iterate that halved it
    is returned, v itself when none did. A failed factorization raises
    LinAlgError.

    The entries left of the diagonal blocks, where the factor is made, are
    restored bit for bit from the upper triangle, as M == M^T exactly,
    before the call returns or raises.
    """
    blocks = list(row_blocks(len(matrix)))
    # an iterate grows as 1 / (shift - lambda): in the unit of the shift
    # its sum of squares stays in range
    unit = _unit(shift)
    try:
        inverses = _factor(matrix, shift, blocks)
        narrowest = np.inf
        while True:
            x = _solve_factor(matrix, inverses, blocks, v) / unit
            x /= np.copysign(np.linalg.norm(x), x.sum())
            width = _bracket(_upper_product(matrix, blocks, x), x)
            if not width < 0.5 * narrowest:
                return v
            v, narrowest = x, width
    finally:
        for rows in blocks:
            matrix[rows, :rows.start] = matrix[:rows.start, rows].T


def _perron_pair(matrix: np.ndarray, scale: float | None = None
                 ) -> tuple[float, np.ndarray, np.ndarray] | None:
    """The top eigenvalue and positive unit eigenvector of a nonzero,
    nonnegative matrix that equals its transpose bit for bit, with the
    product Mv they were certified on, or None when they cannot be
    certified. `scale` is max M, when the caller has it.

    The Lanczos Ritz pair (theta, v) sets the shift sigma = theta +
    max(2 ||Mv - theta v||, RESIDUAL_RTOL * theta). A Ritz value is at most
    the top eigenvalue and some eigenvalue lies within the residual of it,
    so sigma is above the top one when that eigenvalue is the top; the
    floor keeps rounding from breaking the factorization when the residual
    vanishes. sigma * I - M is factored once, in the matrix itself, and
    inverse iteration from v runs on that factor (`_inverse_steps`), so
    the matrix is the only n x n array held: the factor takes the place of
    the entries left of its diagonal blocks, which are restored after. A
    shift below the top eigenvalue leaves sigma * I - M indefinite, its
    factorization fails, and the pair is None.

    The Collatz-Wielandt bracket certifies the value as the top one. For
    nonnegative M and positive v the spectral radius lies in [min_i (Mv)_i
    / v_i, max_i (Mv)_i / v_i], and theta = v^T M v, the mean of those
    ratios weighted by v_i^2, too; so a positive v whose bracket on the
    restored matrix is at most RESIDUAL_RTOL * theta wide makes theta the
    top eigenvalue within that width. A vector with a zero or negative
    entry, a wider or non-finite bracket, or a failed factorization gives
    None.

    The Lanczos products, the residual and the iterates are taken in
    power-of-two units (`_unit`), so a matrix near either end of the float
    range certifies as a copy of it scaled into the normal range does.
    """
    try:
        # an overflow gives inf or NaN, which the factorization or the bracket fails
        with np.errstate(all="ignore"):
            theta, v = _lanczos_ritz(matrix, float(matrix.max()) if scale is None else scale)
            residual = _scaled_norm(matrix @ v - theta * v, _unit(theta))
            v = _inverse_steps(matrix, theta + max(2.0 * residual, RESIDUAL_RTOL * theta), v)
            product = matrix @ v
            theta = float(v @ product)
            if not _bracket(product, v) <= RESIDUAL_RTOL * theta:
                return None
    except np.linalg.LinAlgError:
        return None
    return theta, v, product


def _asymmetry(matrix: np.ndarray) -> float:
    """max |M - M^T| of a square matrix, a block of rows at a time."""
    return max(float(np.max(np.abs(matrix[rows, rows.start:] - matrix[rows.start:, rows].T)))
               for rows in row_blocks(matrix.shape[0]))


def _checked_scales(stack: np.ndarray, nonneg: bool) -> np.ndarray:
    """max |M| of each matrix in a (B, n, n) stack, after the input checks
    run on each in turn: nonnegative entries when `nonneg` is set
    (NegativeEntry), then finite entries (NonFinite). The first matrix that
    fails raises. Symmetry is not checked here: `_top_eigen`'s callers build
    their matrices exactly symmetric, and `top_eigen_nonneg_sym` checks its
    input.

    max(max M, -min M) is max |M| without an n x n temporary, and it is
    finite exactly when every entry is: a NaN propagates through min and
    max, and an infinite entry is one of them.
    """
    low = stack.min(axis=(1, 2))
    scales = np.maximum(stack.max(axis=(1, 2)), -low)
    passed = np.isfinite(scales)
    if nonneg:
        passed &= low >= 0.0
    if not passed.all():
        first = int(np.argmin(passed))
        if nonneg and low[first] < 0.0:
            raise NegativeEntry("matrix entries must be nonnegative")
        raise NonFinite("matrix has non-finite entries")
    return scales


def _top_eigen(stack: np.ndarray, vector: bool,
               nonneg: bool = False) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Top eigenvalue of each square, finite matrix in a (B, n, n) stack
    and, when `vector` is set, a certified unit eigenvector for each; with
    `nonneg` the entries must also be nonnegative. The checks run on each
    matrix in turn, and the first that fails raises (`_checked_scales`).
    Each member must equal its transpose bit for bit, as its caller builds
    it; that is not compared here.

    A member is solved as itself or, with `nonneg` and J M J = M, as its
    even block `_fold`, which holds the top eigenvalue; a signed matrix is
    solved whole. A nonnegative matrix of PERRON_MIN_N rows or more goes to
    `_perron_pair`, whose Rayleigh quotient agrees with eigvalsh within
    1e-12 relative; when that gives None, it takes the path of the smaller
    ones. A member solved there whole hands on the max |M| and the product
    Mv already formed, so neither is taken twice.

    There the values are LAPACK's eigvalsh and the vectors LAPACK's eigh:
    one call each per even block and one stacked call each for the other
    members, which solves each as a lone call does. The vector of a block
    is lifted back to length n. A vector's sign makes its sum nonnegative;
    with `nonneg` its absolute value is taken, a top eigenvector too, as
    |v| has a Rayleigh quotient of at least the spectral radius. Every
    vector is returned only when the residual certificate ||Mv - value*v||
    <= RESIDUAL_RTOL * |value| holds on the member. A zero matrix gives 0
    and the normalized ones vector; a value that overflows raises
    NoConvergence, with or without vectors.

    The Perron path writes its factor over the strict lower triangle of
    the matrix it solves and restores it bit for bit before it returns or
    raises. `stack` must be writable, and callers hand over an array of
    their own, so a Perron solve holds no n x n array besides the stack and
    the blocks of a folded member. A compare of each member's first column
    with its last row reversed, over the whole stack, picks the members
    `_fold` runs on.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise NotSymmetric(f"need a stack of square matrices, got shape {stack.shape}")
    scales = _checked_scales(stack, nonneg).tolist()
    count, n = stack.shape[:2]
    nonzero = [b for b, scale in enumerate(scales) if scale]
    values = np.zeros(count)
    # row 0 of J M J is row n - 1 of M reversed; column 0 is row 0 of M
    mirror = ((stack[:, :, 0] == stack[:, -1, ::-1]).all(axis=1).tolist() if nonneg and n >= 2
              else [False] * count)
    # member -> (its even block or None, its Perron vector or None, and M v
    # when M is the member itself)
    solved, plain = {}, []
    try:
        for b in nonzero:
            fold = _fold(stack[b].__getitem__, n, 1.0) if mirror[b] else None
            matrix = stack[b] if fold is None else fold
            pair = (_perron_pair(matrix, scales[b] if fold is None else None)
                    if nonneg and len(matrix) >= PERRON_MIN_N else None)
            if pair is not None:
                values[b] = pair[0]
            elif fold is None:
                plain.append(b)
            else:
                values[b] = np.linalg.eigvalsh(fold)[-1]
            solved[b] = (fold, None, None) if pair is None else (fold, pair[1],
                                                                 pair[2] if fold is None else None)
        if plain:
            # a slice, unlike an index list, takes the whole stack without a copy
            members = stack[slice(None) if len(plain) == count else plain]
            values[plain] = np.linalg.eigvalsh(members)[:, -1]
        if not np.isfinite(values).all():
            raise NoConvergence("a top eigenvalue overflows")
        if not vector:
            return values, None
        tops = dict(zip(plain, np.linalg.eigh(members)[1][:, :, -1])) if plain else {}
        vectors = [None if scale else np.full(n, 1.0 / np.sqrt(n)) for scale in scales]
        for b in nonzero:
            fold, v, product = solved[b]
            if fold is not None:
                v = _reflection_lift(np.linalg.eigh(fold)[1][:, -1] if v is None else v, n)
            elif v is None:
                v = tops[b]
            v = np.abs(v) if nonneg else v * (1.0 if v.sum() >= 0.0 else -1.0)
            # a Perron vector is positive, so M v is the product of its absolute value
            _certify(stack[b] @ v if product is None else product, float(values[b]), v)
            vectors[b] = v
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return values, vectors


def top_eigen_nonneg_sym(matrix, overwrite: bool = False) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a nonnegative unit eigenvector.

    Requires a finite symmetric matrix with nonnegative entries; the
    returned vector is a Perron direction with residual ||Mv - v*val||
    bounded by 1e-10 * val, from `_top_eigen`: its even reflection block
    when the matrix is mirror-symmetric, the Perron path from PERRON_MIN_N
    rows on, eigvalsh and eigh below, with the absolute value of eigh's
    vector certified. A matrix that is not n x n with n >= 1 raises
    NotSymmetric.

    This is the one place that checks symmetry. The solve runs on a private
    copy, so the caller's array, read-only or not, is never written: the
    copy's entries are checked (NegativeEntry, then NonFinite), then its
    triangles are compared (NotSymmetric beyond 1e-12 * (1 + max |M|)), and
    only then is its lower triangle, the one LAPACK reads, mirrored into
    its upper one, in place, so that the matrix solved equals its transpose
    bit for bit; an exactly symmetric input is left as it is. Mirroring
    first would copy a finite lower entry over a NaN, inf or negative entry
    that sits only in the upper triangle.

    `overwrite` is for a caller that owns a writable float64 matrix it
    built exactly symmetric, as pair_kernel(..., symmetrized=True) builds
    it, and does not read it during the call: the matrix is solved in
    place, with no copy and no symmetry check, overwritten in part and
    restored bit for bit before the call returns or raises (`_top_eigen`).
    The entry checks run either way.
    """
    matrix = np.asarray(matrix, dtype=float) if overwrite else np.array(matrix, dtype=float)
    if matrix.ndim != 2 or not 0 < matrix.shape[0] == matrix.shape[1]:
        raise NotSymmetric(f"need a nonempty square matrix, got shape {matrix.shape}")
    if not overwrite:
        scale = _checked_scales(matrix[None], True)[0]
        if _asymmetry(matrix) > 1e-12 * (1.0 + scale):
            raise NotSymmetric("matrix is not symmetric within 1e-12")
        for i in range(len(matrix) - 1):
            matrix[i, i + 1:] = matrix[i + 1:, i]
    values, vectors = _top_eigen(matrix[None], True, nonneg=True)
    return float(values[0]), vectors[0]


def estimate_constant(alpha: float, seq: GapSequence) -> ConstantEstimate:
    """Optimal constant for this configuration: top eigenvalue of the
    symmetrized kernel, witnessed by the unit nonnegative optimizer.

    On a window whose nodes lie on a grid (`_on_grid`) the kernel is
    Toeplitz and mirror-symmetric, so only its even block is built, from
    one row (`_grid_fold`), and solved; the block holds the top eigenvalue,
    and its vector, certified on the block, is lifted to the window. The
    lift is an isometry that maps the block's residual to the kernel's.
    Elsewhere the whole kernel is built and solved in place."""
    alpha = _check_alpha(alpha)
    row, col = _alpha_factors(seq.deltas, alpha)
    message = ALPHA_OVERFLOW.format(alpha)
    block = _grid_fold(row, col, seq.nodes, 2, message, symmetrized=True)
    if block is None:
        value, vector = top_eigen_nonneg_sym(pair_kernel(row, col, seq.active, 2, message, True),
                                             overwrite=True)
    else:
        value, half = top_eigen_nonneg_sym(block, overwrite=True)
        vector = _reflection_lift(half, seq.n)
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

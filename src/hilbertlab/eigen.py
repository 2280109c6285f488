"""The certified top-eigen solver: the top eigenvalue of each symmetric
matrix of a stack and, when asked, a unit eigenvector that carries its
residual certificate (`certify`, RESIDUAL_RTOL).

A nonnegative matrix with J M J = M is solved as its even reflection
block, which holds its top eigenvalue, and any other matrix whole. `fold`
builds that block from the rows of a matrix, for the kernels of
`quadforms` (J M J = M) and the skew H of `spectra` (J H J = -H), and
it is the one place that lays that block out. On a grid window a kernel
with constant factors is Toeplitz, and `grid_fold` builds only one row of
it and hands `fold` the rows of a strided view of its diagonals.
`reflection_lift` maps a block's vector back.

The entry checks run once per solve: a caller of `top_eigen` runs
`checked_scales` on its stack and hands the scales it returns on. The
core takes each matrix to equal its transpose bit for bit, as its caller
builds it: `top_eigen_nonneg_sym` is the one place that checks symmetry,
and it solves a copy of its input with the lower triangle, which LAPACK
reads, mirrored into the upper one, unless told to overwrite a matrix its
caller built exactly symmetric. From PERRON_MIN_N = 256 rows on, a
nonnegative matrix gets its Perron pair from Lanczos steps and inverse
iteration on one Cholesky factorization of sigma I - M, made over the
matrix itself and restored bit for bit, certified top by the
Collatz-Wielandt bracket (`collatz_wielandt`); these values are Rayleigh
quotients that agree with eigvalsh within 1e-12 relative. Smaller and
signed matrices, and any that path fails on, get their values from
eigvalsh and their vectors from eigh.
"""
from __future__ import annotations

import math

import numpy as np

from ._util import unit_for
from .errors import NegativeEntry, NoConvergence, NonFinite, NotSymmetric
from .gaps import kernel_rows, row_blocks

RESIDUAL_RTOL = 1e-10
SQRT2 = float(np.sqrt(2.0))
# nonnegative matrices solved at this size or larger go to `_perron_pair`
PERRON_MIN_N = 256
LANCZOS_STEPS = 80


def fold(rows, n: int, sign: float) -> np.ndarray | None:
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
    even = np.empty((n - k if sign > 0 else k, n - k))
    with np.errstate(over="ignore"):    # an overflow fails the certificate
        for block in row_blocks(n - k):
            top = rows(block)
            mirror = rows(slice(n - block.stop, n - block.start))[::-1, ::-1]
            if not np.array_equal(top, sign * mirror):
                return None
            out = even[block.start:block.stop]
            top = top[:len(out)]    # for sign = -1 the centre row of odd n is only compared
            np.add(top[:, :k], top[:, ::-1][:, :k], out=out[:, :k])
            if n % 2:
                np.multiply(SQRT2, top[:, k], out=out[:, k])
        if n % 2 and sign > 0:
            # the last row read is the centre row
            np.multiply(SQRT2, top[-1, :k], out=even[k, :k])
            even[k, k] = top[-1, k]
    return even


def _toeplitz_view(column: np.ndarray, sign: float) -> np.ndarray:
    """The n x n matrix M with M_mn = column[m - n] for m >= n and sign *
    column[n - m] above the diagonal, as a strided, read-only view: Toeplitz
    for sign = 1, skew-Toeplitz for sign = -1 (column[0] is then the zero
    diagonal). Row i of M is diagonals[n - 1 - i : 2n - 1 - i] of the
    vector of its 2n - 1 diagonals, the one array behind the view."""
    upper = column[1:] if sign > 0 else np.negative(column[1:])
    diagonals = np.concatenate((column[:0:-1], column[:1], upper))
    return np.lib.stride_tricks.sliding_window_view(diagonals, len(column))[::-1]


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


def grid_fold(row: np.ndarray, col: np.ndarray, nodes: np.ndarray, power: int, message: str,
               symmetrized: bool = False) -> np.ndarray | None:
    """The even block (`fold`) of pair_kernel(row, col, lam, power,
    message, symmetrized), lam the active nodes of `nodes`, bit for bit,
    when its factors are constant and the nodes on a grid (`_on_grid`);
    else None, as for fewer than 2 nodes. The kernel is then Toeplitz
    (skew for odd power): each entry is fl(row col) / fl(((m - n) h)^power)
    and depends on m - n alone. Its last row, read backwards, is its first
    column, so one row of `kernel_rows`, with its NonFinite check, is built,
    and `fold` reads the rows of its strided view (`_toeplitz_view`); the
    kernel itself is never formed.
    """
    if not ((row == row[0]).all() and (col == col[0]).all() and _on_grid(nodes)):
        return None
    n = nodes.size - 2
    last = kernel_rows(row, col, nodes[1:-1], power, message, slice(n - 1, n),
                       symmetrized=symmetrized)
    sign = -1.0 if power % 2 else 1.0
    return fold(_toeplitz_view(last[0, ::-1], sign).__getitem__, n, sign)


def reflection_lift(y: np.ndarray, n: int) -> np.ndarray:
    """The even length-n vector with coordinates y; the inverse of the
    coordinates in `fold`, so norms are kept."""
    k = n // 2
    half = y[:k] / SQRT2
    return np.concatenate((half, y[k:], half[::-1]))


def _scaled_norm(x: np.ndarray, unit: float) -> float:
    """||x||, taken of x * unit (`unit_for`) so that its sum of squares stays
    in range."""
    return float(np.linalg.norm(x * unit)) / unit


def certify(product: np.ndarray, value: float, v: np.ndarray) -> None:
    """Raise NoConvergence unless ||Mv - value*v|| <= RESIDUAL_RTOL * |value|,
    given the product Mv; a NaN residual fails. The norm is taken in the
    unit of the value, so a residual of a huge or tiny value does not
    overflow or underflow."""
    residual = _scaled_norm(product - value * v, unit_for(abs(value)))
    if not residual <= RESIDUAL_RTOL * max(abs(value), 1e-300):
        raise NoConvergence(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g}*|value|")


def _lanczos_ritz(matrix: np.ndarray, scale: float) -> tuple[float, np.ndarray]:
    """The top Ritz pair of at most LANCZOS_STEPS Lanczos steps from the
    normalized ones vector, with full reorthogonalization. The run stops
    when the new direction vanishes against ||Mq|| (breakdown: the Krylov
    space is invariant, so its Ritz pairs are exact).

    The products M q are taken in the unit (`unit_for`) of `scale`, max M, so
    that their norms neither overflow nor underflow for a huge or tiny
    matrix; the Ritz value is returned in the units of M."""
    n = matrix.shape[0]
    unit = unit_for(scale)
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


def collatz_wielandt(product: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """min_i and max_i of (M v)_i / v_i over the last axis, given the
    product M v of one matrix or of a (B, n, n) stack of them. For
    nonnegative M and positive v they bracket M's top eigenvalue (Horn &
    Johnson, Matrix Analysis, 2nd ed., 8.1); the caller checks that v is
    positive. A ratio that overflows gives inf."""
    with np.errstate(over="ignore"):
        ratios = product / v
    return ratios.min(axis=-1), ratios.max(axis=-1)


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
    unit = unit_for(shift)
    try:
        inverses = _factor(matrix, shift, blocks)
        narrowest = np.inf
        while True:
            x = _solve_factor(matrix, inverses, blocks, v) / unit
            x /= np.copysign(np.linalg.norm(x), x.sum())
            low, high = collatz_wielandt(_upper_product(matrix, blocks, x), x)
            width = high - low if x.min() > 0.0 else np.inf
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
    power-of-two units (`unit_for`), so a matrix near either end of the float
    range certifies as a copy of it scaled into the normal range does.
    """
    try:
        # an overflow gives inf or NaN, which the factorization or the bracket fails
        with np.errstate(all="ignore"):
            theta, v = _lanczos_ritz(matrix, float(matrix.max()) if scale is None else scale)
            residual = _scaled_norm(matrix @ v - theta * v, unit_for(theta))
            v = _inverse_steps(matrix, theta + max(2.0 * residual, RESIDUAL_RTOL * theta), v)
            product = matrix @ v
            theta = float(v @ product)
            low, high = collatz_wielandt(product, v)
            if not (v.min() > 0.0 and high - low <= RESIDUAL_RTOL * theta):
                return None
    except np.linalg.LinAlgError:
        return None
    return theta, v, product


def _asymmetry(matrix: np.ndarray) -> float:
    """max |M - M^T| of a square matrix, a block of rows at a time."""
    return max(float(np.max(np.abs(matrix[rows, rows.start:] - matrix[rows.start:, rows].T)))
               for rows in row_blocks(matrix.shape[0]))


def checked_scales(stack: np.ndarray, nonneg: bool) -> np.ndarray:
    """max |M| of each matrix in a (B, n, n) stack, after the entry checks:
    a stack of square matrices (NotSymmetric), then, on each matrix in
    turn, nonnegative entries when `nonneg` is set (NegativeEntry) and
    finite entries (NonFinite). The first matrix that fails raises.
    Symmetry is not checked here: `top_eigen`'s callers build their
    matrices exactly symmetric, and `top_eigen_nonneg_sym` checks its input.

    max(max M, -min M) is max |M| without an n x n temporary, and it is
    finite exactly when every entry is: a NaN propagates through min and
    max, and an infinite entry is one of them.
    """
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise NotSymmetric(f"need a stack of square matrices, got shape {stack.shape}")
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


def top_eigen(stack: np.ndarray, scales: np.ndarray, vector: bool,
              nonneg: bool = False) -> tuple[np.ndarray, list[np.ndarray] | None]:
    """Top eigenvalue of each square, finite matrix in a (B, n, n) stack
    and, when `vector` is set, a certified unit eigenvector for each; with
    `nonneg` the entries must also be nonnegative. `scales` is what
    checked_scales(stack, nonneg) returned: the caller runs the entry
    checks once per solve and hands their max |M| on, so no solve skips
    them and none runs them twice. Each member must equal its transpose bit
    for bit, as its caller builds it; that is not compared here.

    A member is solved as itself or, with `nonneg` and J M J = M, as its
    even block `fold`, which holds the top eigenvalue; a signed matrix is
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
    `fold` runs on.
    """
    scales = scales.tolist()
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
            block = fold(stack[b].__getitem__, n, 1.0) if mirror[b] else None
            matrix = stack[b] if block is None else block
            pair = (_perron_pair(matrix, scales[b] if block is None else None)
                    if nonneg and len(matrix) >= PERRON_MIN_N else None)
            if pair is not None:
                values[b] = pair[0]
            elif block is None:
                plain.append(b)
            else:
                values[b] = np.linalg.eigvalsh(block)[-1]
            solved[b] = ((block, None, None) if pair is None
                         else (block, pair[1], pair[2] if block is None else None))
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
            block, v, product = solved[b]
            if block is not None:
                v = reflection_lift(np.linalg.eigh(block)[1][:, -1] if v is None else v, n)
            elif v is None:
                v = tops[b]
            v = np.abs(v) if nonneg else v * (1.0 if v.sum() >= 0.0 else -1.0)
            # a Perron vector is positive, so M v is the product of its absolute value
            certify(stack[b] @ v if product is None else product, float(values[b]), v)
            vectors[b] = v
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return values, vectors


def top_eigen_nonneg_sym(matrix, overwrite: bool = False) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and a nonnegative unit eigenvector.

    Requires a finite symmetric matrix with nonnegative entries; the
    returned vector is a Perron direction with residual ||Mv - v*val||
    bounded by 1e-10 * val, from `top_eigen`: its even reflection block
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
    restored bit for bit before the call returns or raises (`top_eigen`).
    The entry checks run once either way; a mirror that moved an entry can
    only lower the max, which is then read again from the mirrored copy.
    """
    matrix = np.asarray(matrix, dtype=float) if overwrite else np.array(matrix, dtype=float)
    if matrix.ndim != 2 or not 0 < matrix.shape[0] == matrix.shape[1]:
        raise NotSymmetric(f"need a nonempty square matrix, got shape {matrix.shape}")
    scales = checked_scales(matrix[None], True)
    if not overwrite:
        asymmetry = _asymmetry(matrix)
        if asymmetry > 1e-12 * (1.0 + scales[0]):
            raise NotSymmetric("matrix is not symmetric within 1e-12")
        for i in range(len(matrix) - 1):
            matrix[i, i + 1:] = matrix[i + 1:, i]
        if asymmetry:
            scales = matrix[None].max(axis=(1, 2))
    values, vectors = top_eigen(matrix[None], scales, True, nonneg=True)
    return float(values[0]), vectors[0]


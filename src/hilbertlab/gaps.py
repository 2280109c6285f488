"""Finite windows of strictly increasing sequences with their gap profile.

A window stores nodes lam_0, ..., lam_{N+1}. Indices 1..N are active; the
two endpoints are ghost nodes that exist only so that

    delta_k = min(lam_k - lam_{k-1}, lam_{k+1} - lam_k)

is defined for every active index. Instances are immutable and safe to
share across threads.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import count
from .errors import IndexOutOfRange, NegativeEntry, NonFinite, NotIncreasing, TooShort

# rows per block of an n x n kernel: 32 rows of 2,000 entries are 512 kB
ROW_BLOCK = 32


@dataclass(frozen=True, eq=False)
class GapSequence:
    """A window of nodes, held as a read-only float64 vector.

    A 1-D float64 array that owns its data and is already read-only, as
    `generate_uniform` builds, is adopted as it is; any other input is
    copied, so no caller's writable buffer is shared.
    """

    nodes: np.ndarray

    def __post_init__(self):
        arr = self.nodes
        if not (type(arr) is np.ndarray and arr.dtype == np.float64 and arr.ndim == 1
                and arr.flags.owndata and not arr.flags.writeable):
            arr = np.array(arr, dtype=float)
        if arr.ndim != 1:
            raise TooShort(f"need a vector of nodes, got shape {arr.shape}")
        check_nodes(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "nodes", arr)

    @property
    def n(self) -> int:
        """Number of active nodes."""
        return self.nodes.size - 2

    @property
    def active(self) -> np.ndarray:
        """The active nodes lam_1 .. lam_N."""
        return self.nodes[1:-1]

    @cached_property
    def deltas(self) -> np.ndarray:
        """delta_k for k = 1..N (0-indexed array of length N)."""
        out = node_deltas(self.nodes)
        out.setflags(write=False)
        return out

    def delta(self, k: int) -> float:
        """delta_k for a 1-indexed active index k, from its two gaps: the
        float of `deltas`, with no window-length array built."""
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"k={k} outside 1..{self.n}")
        lam = self.nodes
        return float(min(lam[k] - lam[k - 1], lam[k + 1] - lam[k]))


def check_nodes(nodes: np.ndarray) -> None:
    """Raise unless each window along the last axis of `nodes` has at least
    3 nodes (TooShort), all finite (NonFinite) and strictly increasing
    (NotIncreasing)."""
    if nodes.shape[-1] < 3:
        raise TooShort(f"need windows of at least 3 nodes, got shape {nodes.shape}")
    if not np.isfinite(nodes).all():
        raise NonFinite("nodes must be finite")
    # for finite nodes, b > a exactly when b - a > 0, with no float temporary
    if not (nodes[..., 1:] > nodes[..., :-1]).all():
        raise NotIncreasing("nodes must be strictly increasing")


def node_deltas(nodes: np.ndarray) -> np.ndarray:
    """delta_k of the active nodes along the last axis of `nodes`, a window
    (ghosts included) or a stack of them."""
    gaps = np.diff(nodes)
    return np.minimum(gaps[..., :-1], gaps[..., 1:])


def row_blocks(n: int):
    """Slices of ROW_BLOCK consecutive rows covering range(n): the unit in
    which n x n kernels are built and compared, so no step makes a second
    n x n array."""
    for start in range(0, n, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, n))


def block_diagonal(block: np.ndarray, rows: slice) -> np.ndarray:
    """Writable view of the entries (m, m) of a block of rows `rows` of an
    N x N matrix, or of a stack of such blocks."""
    return np.einsum("...ii->...i", block[..., rows])


def node_differences(lam: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """lam_m - lam_n over the last axis of `lam`, a window of N nodes or a
    stack of them, as N x N matrices with a unit diagonal so that kernels
    in 1/(lam_m - lam_n) can divide by them; only the rows m in `rows`
    when it is given."""
    diff = lam[..., rows, None] - lam[..., None, :]
    block_diagonal(diff, rows)[...] = 1.0
    return diff


def kernel_rows(row: np.ndarray, col: np.ndarray, lam: np.ndarray, power: int,
                message: str, rows: slice, out: np.ndarray | None = None,
                symmetrized: bool = False) -> np.ndarray:
    """Rows `rows` of the kernel of `pair_kernel`, symmetrized or not,
    written to `out` when it is given. Raises NonFinite(message) when an
    entry of the unsymmetrized kernel under- or overflows; each is checked
    once, before the mirror terms, which are those same entries, are added."""
    with np.errstate(all="ignore"):
        dp = node_differences(lam, rows)
        if power == 2:
            np.square(dp, out=dp)
        block = np.multiply(row[..., rows, None], col[..., None, :], out=out)
        block /= dp
    block_diagonal(block, rows)[...] = 0.0
    if not np.isfinite(block).all():
        raise NonFinite(message)
    if symmetrized:
        with np.errstate(all="ignore"):
            mirror = col[..., rows, None] * row[..., None, :]
            mirror /= dp
            block_diagonal(mirror, rows)[...] = 0.0
            if power % 2:
                np.negative(mirror, out=mirror)
            block += mirror
            block /= 2.0
    return block


def pair_kernel(row: np.ndarray, col: np.ndarray, lam: np.ndarray, power: int,
                message: str, symmetrized: bool = False) -> np.ndarray:
    """The kernel K_mn = row_m col_n / (lam_m - lam_n)^power, power 1 or 2,
    off the diagonal and 0 on it, over the last axis of `lam`: an N x N
    matrix for one window of N nodes, a stack of them for a stack of
    windows, with `row` and `col` shaped like `lam`. With `symmetrized`,
    each kernel's (K + K^T) / 2 instead. Raises NonFinite(message) when an
    entry under- or overflows (0/0, inf/inf or inf) instead of passing NaN on.

    The kernel is built ROW_BLOCK rows at a time (`kernel_rows`), with no
    difference matrix, unsymmetrized copy or transpose of the whole.
    Entry (m, n) is fl(row_m col_n) / fl(d^power), d = lam_m - lam_n.
    fl(lam_n - lam_m) is exactly -fl(d), so fl(col_m row_n) / fl(d^power),
    negated for odd power, is exactly entry (n, m), and adding it and
    halving gives (K + K^T) / 2 bit for bit.
    """
    n = lam.shape[-1]
    out = np.empty(lam.shape + (n,))
    for rows in row_blocks(n):
        kernel_rows(row, col, lam, power, message, rows, out[..., rows, :], symmetrized)
    return out


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Nonnegative coefficients paired with the active nodes of a window."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError(f"weights must be a nonempty vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise NonFinite("weights must be finite")
        if np.any(arr < 0):
            raise NegativeEntry("weights must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n(self) -> int:
        return self.values.size


def generate_uniform(n: int, spacing: float) -> GapSequence:
    """lam_k = k * spacing for k = 0..n+1, so every delta equals spacing."""
    n = count("n", n, 1)
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    # built in place and handed over read-only, so the window adopts it
    nodes = np.arange(n + 2, dtype=float)
    nodes *= spacing
    nodes.setflags(write=False)
    return GapSequence(nodes)


def generate_cluster(n: int) -> GapSequence:
    """Unit-spaced head followed by a cluster of n-1 nodes at spacing 1/n.

    Active deltas: delta_1 = 1 and delta_k = 1/n for 2 <= k <= n.
    """
    n = count("n", n, 2)
    tail = 2.0 + np.arange(1, n, dtype=float) / n
    return GapSequence(np.concatenate(([0.0, 1.0, 2.0], tail)))


def generate_random(n: int, min_gap: float, seed: int) -> GapSequence:
    """Seeded window with gaps drawn uniformly from [min_gap, 10*min_gap]."""
    n = count("n", n, 1)
    if min_gap <= 0:
        raise ValueError(f"min_gap must be positive, got {min_gap}")
    # NaN passes the test above; the bound on the last node also keeps
    # numpy's uniform and the cumulative sum from overflowing
    if not np.isfinite(10.0 * min_gap * (n + 1)):
        raise NonFinite(f"min_gap = {min_gap} gives non-finite nodes for n = {n}")
    rng = np.random.default_rng(seed)
    gaps = rng.uniform(min_gap, 10.0 * min_gap, size=n + 1)
    nodes = np.concatenate(([0.0], np.cumsum(gaps)))
    return GapSequence(nodes)


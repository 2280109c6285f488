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

from .errors import IndexOutOfRange, NegativeEntry, NonFinite, NotIncreasing, TooShort

# rows per block of an n x n kernel: 32 rows of 2,000 entries are 512 kB
ROW_BLOCK = 32


@dataclass(frozen=True, eq=False)
class GapSequence:
    nodes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.nodes, dtype=float)
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
        """delta_k for a 1-indexed active index k."""
        if not 1 <= k <= self.n:
            raise IndexOutOfRange(f"k={k} outside 1..{self.n}")
        return float(self.deltas[k - 1])

    def differences(self) -> np.ndarray:
        """The N x N matrix lam_m - lam_n over the active nodes, with a unit
        diagonal (see `node_differences`).

        Built fresh on each call: a cached copy would stay alive as long
        as the window does.
        """
        return node_differences(self.active)


def check_nodes(nodes: np.ndarray) -> None:
    """Raise unless each window along the last axis of `nodes` has at least
    3 nodes (TooShort), all finite (NonFinite) and strictly increasing
    (NotIncreasing)."""
    if nodes.shape[-1] < 3:
        raise TooShort(f"need windows of at least 3 nodes, got shape {nodes.shape}")
    if not np.isfinite(nodes).all():
        raise NonFinite("nodes must be finite")
    if not (np.diff(nodes) > 0).all():
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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if spacing <= 0:
        raise ValueError(f"spacing must be positive, got {spacing}")
    return GapSequence(np.arange(n + 2, dtype=float) * spacing)


def generate_cluster(n: int) -> GapSequence:
    """Unit-spaced head followed by a cluster of n-1 nodes at spacing 1/n.

    Active deltas: delta_1 = 1 and delta_k = 1/n for 2 <= k <= n.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    tail = 2.0 + np.arange(1, n, dtype=float) / n
    return GapSequence(np.concatenate(([0.0, 1.0, 2.0], tail)))


def generate_random(n: int, min_gap: float, seed: int) -> GapSequence:
    """Seeded window with gaps drawn uniformly from [min_gap, 10*min_gap]."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
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


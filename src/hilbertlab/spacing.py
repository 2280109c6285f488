"""Spacing-sum bounds for gap sequences and the power-weight lemmas behind them.

The central inequality bounds, for sigma > 1 and any active index ell,

    sum_{k != ell} delta_k / |lam_k - lam_ell|^sigma  <=  2 zeta(sigma) / delta_ell^(sigma-1),

together with the auxiliary functional

    F_n(x) = sum_{k<=n} min(x_k, x_{k+1}) (x_1 + ... + x_k)^-sigma

for the power weight x^-sigma, which is convex, decreasing, positive and
summable over the integers on [1, inf). All series checks run on
truncations; term positivity means truncation only lowers the left side,
so a "holds" verdict is sound.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from ._util import record, unit_for
from .errors import (
    EpsTooLarge,
    IndexOutOfRange,
    NonFinite,
    NotDescendingAtNu,
    SameIndex,
    SigmaOutOfRange,
)
from .gaps import GapSequence, node_deltas, pair_kernel

_ZETA_CUTOFF = 1_000_000
_CHUNK = 1 << 20
# most terms `spacing_sum` holds at once, one leaf of np.sum's tree
# (`_pairwise_sum`): 64 kB arrays, small beside a large window
_TERM_CHUNK = 1 << 13


def _check_sigma(sigma: float) -> float:
    """sigma as a float; raises SigmaOutOfRange unless 1 < sigma < inf, so a
    NaN or infinite exponent never reaches a series."""
    value = float(sigma)
    if not 1.0 < value < math.inf:
        raise SigmaOutOfRange(f"sigma must lie in (1, inf), got {sigma}")
    return value


def _finite_entries(x) -> np.ndarray:
    """x as a float array; raises NonFinite on a NaN or infinite entry, which
    would otherwise turn a verdict into a NaN comparison."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise NonFinite("entries must be finite")
    return x


@lru_cache(maxsize=None)
def zeta(sigma: float) -> float:
    """zeta(sigma) for sigma > 1 by direct summation plus tail correction.

    Sums the first 10^6 terms and closes with the integral term, half-term
    and the 1/x^(sigma+1) correction; the remainder is far below 1e-12
    relative accuracy for every sigma > 1.
    """
    sigma = _check_sigma(sigma)
    m = float(_ZETA_CUTOFF)
    tail = m ** (1 - sigma) / (sigma - 1) - 0.5 * m ** (-sigma) + sigma * m ** (-sigma - 1) / 12.0
    return _integer_weight_sum(sigma, _ZETA_CUTOFF) + tail


def _integer_weight_sum(sigma: float, upto: int) -> float:
    """sum_{j=1}^{upto} j^-sigma, chunked so huge ranges stay bounded in memory."""
    if upto <= 0:
        return 0.0
    parts = []
    start = 1
    while start <= upto:
        stop = min(upto, start + _CHUNK - 1)
        parts.append(float(np.sum(np.arange(start, stop + 1, dtype=float) ** -sigma)))
        start = stop + 1
    return math.fsum(parts)


def f_n_functional(x, sigma: float, n: int) -> float:
    """F_n(x) = sum_{k<=n} min(x_k, x_{k+1}) (x_1 + ... + x_k)^-sigma.

    Needs x_{n+1}, so n must satisfy 1 <= n <= len(x) - 1.
    """
    sigma = _check_sigma(sigma)
    x = _finite_entries(x)
    if not 1 <= n <= x.size - 1:
        raise IndexOutOfRange(f"n={n} needs 1 <= n <= {x.size - 1}")
    if np.any(x[: n + 1] <= 0):
        raise ValueError("entries must be positive")
    if x[0] < 1:
        raise ValueError("x_1 must be >= 1 so partial sums stay in [1, inf)")
    partial = np.cumsum(x[:n])
    mins = np.minimum(x[:n], x[1 : n + 1])
    return float(np.sum(mins * partial ** -sigma))


def check_equidistance(a, sigma: float, seed: int = 0) -> dict:
    """Weighted sample sums against the integer lattice:

        sum_{k<=n} a_k lam_k^-sigma <= sum_{j<=floor(L)} j^-sigma + {L} (floor(L)+1)^-sigma

    with lam_k = a_1+...+a_k, n = len(a) and L = lam_n, valid for a_k >= 1.
    """
    sigma = _check_sigma(sigma)
    a = _finite_entries(a)
    if np.any(a < 1):
        raise ValueError("entries must be >= 1")
    if a.size == 0:
        raise IndexOutOfRange("need at least one entry")
    lam = np.cumsum(a)
    lhs = float(np.sum(a * lam ** -sigma))
    total = float(lam[-1])
    floor_total = math.floor(total)
    frac = total - floor_total
    rhs = _integer_weight_sum(sigma, floor_total) \
        + frac * float((np.array([floor_total + 1.0]) ** -sigma)[0])
    return record("equidistance", lhs, rhs, "<=", 1e-12, seed=seed)


def check_smoothing_monovariant(a, nu: int, eps: float, sigma: float, seed: int = 0) -> dict:
    """Raising a_nu by eps <= a_{nu-1} - a_nu cannot decrease F_n, n = len(a) - 1."""
    sigma = _check_sigma(sigma)
    a = _finite_entries(a)
    if not 2 <= nu <= a.size:
        raise IndexOutOfRange(f"nu={nu} needs 2 <= nu <= {a.size}")
    gap = a[nu - 2] - a[nu - 1]
    if gap <= 0:
        raise NotDescendingAtNu(f"a[{nu - 1}]={a[nu - 2]} must exceed a[{nu}]={a[nu - 1]}")
    if not 0 < eps <= gap:
        raise EpsTooLarge(f"eps={eps} must lie in (0, {gap}]")
    b = a.copy()
    b[nu - 1] += eps
    lhs = f_n_functional(a, sigma, a.size - 1)
    rhs = f_n_functional(b, sigma, a.size - 1)
    return record("smoothing-monovariant", lhs, rhs, "<=", 1e-12, seed=seed)


def check_fn_upper(a, sigma: float, seed: int = 0) -> dict:
    """F_n(a), n = len(a) - 1, never exceeds zeta(sigma) = sum_{j>=1} j^-sigma."""
    sigma = _check_sigma(sigma)
    a = np.asarray(a, dtype=float)
    lhs = f_n_functional(a, sigma, a.size - 1)    # rejects a non-finite entry first
    rhs = zeta(sigma)
    return record("fn-upper", lhs, rhs, "<=", 1e-12, seed=seed)


def _pairwise_sum(start: int, stop: int, leaf) -> float:
    """np.sum of the entries start..stop-1 of a float64 vector, bit for bit,
    from leaf(a, b), the np.sum of its entries a..b-1, which is called on
    parts of at most _TERM_CHUNK entries, in index order.

    np.sum adds a contiguous float64 vector pairwise (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sec. 4.2): a part of c > 128
    entries is split after c//2 - (c//2) % 8 of them and the sums of its two
    sides are added. This walks the same splits down to parts of at most
    _TERM_CHUNK (> 128) entries and adds their sums in tree order, so it
    gives np.sum's float while no part larger than a leaf need exist.
    """
    count = stop - start
    if count <= _TERM_CHUNK:
        return leaf(start, stop)
    half = count // 2
    half -= half % 8
    return _pairwise_sum(start, start + half, leaf) + _pairwise_sum(start + half, stop, leaf)


def spacing_sum(seq: GapSequence, ell: int, sigma: float) -> float:
    """sum_{k != ell} delta_k / |lam_k - lam_ell|^sigma over every active
    index k of the window.

    The sum is np.sum of the n - 1 terms of the whole-window expression with
    the self term skipped, bit for bit, but that vector is never formed:
    `_pairwise_sum` walks np.sum's tree, and each leaf's terms are written
    into one array of at most _TERM_CHUNK entries, their deltas taken from
    the nodes, and summed there. So the window's cached `deltas` are neither
    read nor built. All terms are positive, so the window's sum is a lower
    bound for the full series.
    """
    _check_sigma(sigma)
    if not 1 <= ell <= seq.n:
        raise IndexOutOfRange(f"ell={ell} outside 1..{seq.n}")
    nodes, centre = seq.nodes, seq.active[ell - 1]
    buffer = np.empty(min(seq.n - 1, _TERM_CHUNK))

    def leaf(start: int, stop: int) -> float:
        # term i is that of active index i below the self term, i + 1 from it on
        terms = buffer[:stop - start]
        split = min(max(start, ell - 1), stop)
        for first, last, shift in ((start, split, 0), (split, stop, 1)):
            if first < last:
                k, end = first + shift, last + shift
                d, lam = node_deltas(nodes[k:end + 2]), nodes[k + 1:end + 1]
                terms[first - start:last - start] = d / np.abs(lam - centre) ** sigma
        return float(np.sum(terms))

    return _pairwise_sum(0, seq.n - 1, leaf)


def spacing_bound_report(seq: GapSequence, ell: int, sigma: float, seed: int = 0) -> dict:
    """Check the 2*zeta(sigma)/delta^(sigma-1) spacing bound at one index,
    summing over the whole window.

    tail_bound extrapolates the terms beyond the ghost nodes by an integral
    comparison (constant continuation of the boundary gap); it only flags
    how close a truncated check could come to the bound, the verdict stays
    sound.
    """
    lhs = spacing_sum(seq, ell, sigma)
    d_ell = seq.delta(ell)
    rhs = 2.0 * zeta(sigma) / d_ell ** (sigma - 1)
    centre = seq.active[ell - 1]
    tail = ((centre - seq.nodes[0]) ** (1 - sigma) / (sigma - 1)
            + (seq.nodes[-1] - centre) ** (1 - sigma) / (sigma - 1))
    return record("preissmann-spacing", lhs, rhs, "<=", 1e-12, seed=seed, tail_bound=tail)


def pair_spacing_sum(seq: GapSequence, ell: int, m: int, seed: int = 0) -> dict:
    """Two-point spacing bound over the whole window:

        sum_{k != ell, m} delta_k / ((lam_k-lam_ell)^2 (lam_k-lam_m)^2)
            <= pi^2 (d_ell+d_m) / (3 d_ell d_m (lam_ell-lam_m)^2)
               - 3 (d_ell+d_m) / (lam_ell-lam_m)^4.

    Both sides are evaluated on the lengths times the power-of-two unit of
    |lam_ell - lam_m| (`_util.unit_for`), where no product under- or
    overflows, and each is multiplied back by the unit's cube: exact
    scalings, and 1.0 in the normal range, where every bit is as it was.
    Raises NonFinite when a side is not finite in the window's units.
    """
    if ell == m:
        raise SameIndex(f"indices must differ, got ell=m={ell}")
    for idx in (ell, m):
        if not 1 <= idx <= seq.n:
            raise IndexOutOfRange(f"index {idx} outside 1..{seq.n}")
    lam = seq.active
    sep = lam[ell - 1] - lam[m - 1]
    unit = unit_for(abs(float(sep)))
    dl = (lam - lam[ell - 1]) * unit
    dm = (lam - lam[m - 1]) * unit
    with np.errstate(divide="ignore"):      # the two self terms, deleted below
        terms = seq.deltas * unit / (dl ** 2 * dm ** 2)
    lhs = float(np.sum(np.delete(terms, [ell - 1, m - 1])))
    d_ell, d_m = seq.delta(ell) * unit, seq.delta(m) * unit
    sep2 = (sep * unit) ** 2
    rhs = float(math.pi ** 2 * (d_ell + d_m) / (3.0 * d_ell * d_m * sep2)
                - 3.0 * (d_ell + d_m) / sep2 ** 2)
    lhs, rhs = lhs * unit * unit * unit, rhs * unit * unit * unit
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise NonFinite("pair spacing sides overflow: the gaps are too small")
    return record("pair-spacing", lhs, rhs, "<=", 1e-12, seed=seed)


def pair_spacing_margins(seq: GapSequence) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of `pair_spacing_sum` for every index pair at once, as
    N x N arrays lhs, rhs whose entry (ell-1, m-1) is that pair's lhs and
    rhs; the diagonal (ell = m, no bound) holds NaN in both.

    With inv = 1/(lam_k-lam_ell)^2 off the diagonal and 0 on it
    (`pair_kernel`), one array over (k, ell, m) holds the terms
    delta_k inv_{k,ell} inv_{k,m} and sums them over k; the zero diagonal
    of inv drops the terms k = ell and k = m. Raises IndexOutOfRange below
    two active nodes, where no pair exists, and NonFinite when a side of
    some pair overflows.
    """
    if seq.n < 2:
        raise IndexOutOfRange(f"need at least 2 active nodes for a pair, got {seq.n}")
    d = seq.deltas
    one = np.ones(seq.n)
    inv = pair_kernel(one, one, seq.active, 2, "pair spacing kernel has non-finite entries")
    d_sum = d[:, None] + d[None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = np.sum(d[:, None, None] * inv[:, :, None] * inv[:, None, :], axis=0)
        rhs = math.pi ** 2 * d_sum * inv / (3.0 * d[:, None] * d[None, :]) \
            - 3.0 * d_sum * inv * inv
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise NonFinite("pair spacing sides overflow: the gaps are too small")
    np.fill_diagonal(lhs, np.nan)
    np.fill_diagonal(rhs, np.nan)
    return lhs, rhs


def shan_split(seq: GapSequence, ell: int, sigma: float) -> tuple[float, float]:
    """The two one-sided functionals whose sum telescopes the spacing sum.

    With a_n = (lam_{ell+n} - lam_{ell+n-1})/delta_ell and b_n the mirror
    sequence, returns (F_{N-ell}(a), F_{ell-1}(b)); their sum equals
    delta_ell^(sigma-1) times the full-window spacing sum.
    """
    sigma = _check_sigma(sigma)
    if not 1 <= ell <= seq.n:
        raise IndexOutOfRange(f"ell={ell} outside 1..{seq.n}")
    d_ell = seq.delta(ell)
    forward = np.diff(seq.nodes[ell:]) / d_ell      # a_1 .. a_{N+1-ell}
    backward = np.diff(seq.nodes[:ell + 1])[::-1] / d_ell   # b_1 .. b_ell
    f_fwd = f_n_functional(forward, sigma, forward.size - 1) if forward.size >= 2 else 0.0
    f_bwd = f_n_functional(backward, sigma, backward.size - 1) if backward.size >= 2 else 0.0
    return f_fwd, f_bwd

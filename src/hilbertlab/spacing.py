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

from .errors import (
    EpsTooLarge,
    IndexOutOfRange,
    NonFinite,
    NotDescendingAtNu,
    SameIndex,
    SigmaOutOfRange,
)
from .gaps import GapSequence, node_differences
from .reports import record

_ZETA_CUTOFF = 1_000_000
_CHUNK = 1 << 20


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
    return record("equidistance", lhs, rhs, lhs <= rhs + 1e-12, seed=seed)


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
    return record("smoothing-monovariant", lhs, rhs, lhs <= rhs + 1e-12, seed=seed)


def check_fn_upper(a, sigma: float, seed: int = 0) -> dict:
    """F_n(a), n = len(a) - 1, never exceeds zeta(sigma) = sum_{j>=1} j^-sigma."""
    sigma = _check_sigma(sigma)
    a = np.asarray(a, dtype=float)
    lhs = f_n_functional(a, sigma, a.size - 1)    # rejects a non-finite entry first
    rhs = zeta(sigma)
    return record("fn-upper", lhs, rhs, lhs <= rhs + 1e-12, seed=seed)


def spacing_sum(seq: GapSequence, ell: int, sigma: float) -> float:
    """sum_{k != ell} delta_k / |lam_k - lam_ell|^sigma over every active
    index k of the window.

    All terms are positive, so the window's sum is a lower bound for the
    full series.
    """
    _check_sigma(sigma)
    if not 1 <= ell <= seq.n:
        raise IndexOutOfRange(f"ell={ell} outside 1..{seq.n}")
    lam = seq.active
    with np.errstate(divide="ignore"):      # the self term, deleted below
        terms = seq.deltas / np.abs(lam - lam[ell - 1]) ** sigma
    return float(np.sum(np.delete(terms, ell - 1)))


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
    return record("preissmann-spacing", lhs, rhs, lhs <= rhs + 1e-12,
                  seed=seed, tail_bound=tail)


def pair_spacing_sum(seq: GapSequence, ell: int, m: int, seed: int = 0) -> dict:
    """Two-point spacing bound over the whole window:

        sum_{k != ell, m} delta_k / ((lam_k-lam_ell)^2 (lam_k-lam_m)^2)
            <= pi^2 (d_ell+d_m) / (3 d_ell d_m (lam_ell-lam_m)^2)
               - 3 (d_ell+d_m) / (lam_ell-lam_m)^4.
    """
    if ell == m:
        raise SameIndex(f"indices must differ, got ell=m={ell}")
    for idx in (ell, m):
        if not 1 <= idx <= seq.n:
            raise IndexOutOfRange(f"index {idx} outside 1..{seq.n}")
    lam = seq.active
    dl = lam - lam[ell - 1]
    dm = lam - lam[m - 1]
    with np.errstate(divide="ignore"):      # the two self terms, deleted below
        terms = seq.deltas / (dl ** 2 * dm ** 2)
    lhs = float(np.sum(np.delete(terms, [ell - 1, m - 1])))
    d_ell, d_m = seq.delta(ell), seq.delta(m)
    sep2 = (lam[ell - 1] - lam[m - 1]) ** 2
    rhs = math.pi ** 2 * (d_ell + d_m) / (3.0 * d_ell * d_m * sep2) \
        - 3.0 * (d_ell + d_m) / sep2 ** 2
    return record("pair-spacing", lhs, rhs, lhs <= rhs + 1e-12, seed=seed)


def pair_spacing_margins(seq: GapSequence) -> tuple[np.ndarray, np.ndarray]:
    """The two sides of `pair_spacing_sum` for every index pair at once, as
    N x N arrays lhs, rhs whose entry (ell-1, m-1) is that pair's lhs and
    rhs; the diagonal (ell = m, no bound) holds NaN in both.

    One array over (k, ell, m) holds the terms delta_k / ((lam_k-lam_ell)^2
    (lam_k-lam_m)^2), with the terms k = ell and k = m set to zero, and
    sums them over k. Each term is the float expression of
    `pair_spacing_sum`. Raises IndexOutOfRange below two active nodes,
    where no pair exists.
    """
    if seq.n < 2:
        raise IndexOutOfRange(f"need at least 2 active nodes for a pair, got {seq.n}")
    d = seq.deltas
    sq = node_differences(seq.active) ** 2
    terms = d[:, None, None] / (sq[:, :, None] * sq[:, None, :])
    k = np.arange(seq.n)
    terms[k, k, :] = 0.0
    terms[k, :, k] = 0.0
    lhs = np.sum(terms, axis=0)
    np.fill_diagonal(lhs, np.nan)
    np.fill_diagonal(sq, np.nan)
    d_sum = d[:, None] + d[None, :]
    rhs = math.pi ** 2 * d_sum / (3.0 * d[:, None] * d[None, :] * sq) \
        - 3.0 * d_sum / sq ** 2
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

"""Convex-weight machinery and spacing-sum bounds for gap sequences.

The central inequality bounds, for sigma > 1 and any active index ell,

    sum_{k != ell} delta_k / |lam_k - lam_ell|^sigma  <=  2 zeta(sigma) / delta_ell^(sigma-1),

together with the auxiliary functional

    F_n(x) = sum_{k<=n} min(x_k, x_{k+1}) f(x_1 + ... + x_k)

for convex, weakly decreasing, nonnegative, summable f on [1, inf). All
series checks run on truncations; term positivity means truncation only
lowers the left side, so a "holds" verdict is sound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    EpsTooLarge,
    IndexOutOfRange,
    NotDescendingAtNu,
    SameIndex,
    SigmaOutOfRange,
)
from .gaps import GapSequence
from .reports import CheckReport

_ZETA_CUTOFF = 1_000_000
_CHUNK = 1 << 20


@dataclass(frozen=True)
class ConvexWeightFunction:
    """A weight f: [1, inf) -> R expected to be convex, weakly decreasing,
    nonnegative and summable over the integers.

    evaluator must act elementwise on numpy arrays. tail_sum, when known in
    closed form, is the full series sum_{j>=1} f(j).
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    tail_sum: float | None = None
    label: str = "f"

    def __call__(self, x):
        return self.evaluator(np.asarray(x, dtype=float))


def _check_sigma(sigma: float) -> float:
    """sigma as a float; raises SigmaOutOfRange unless 1 < sigma < inf, so a
    NaN or infinite exponent never reaches a series."""
    value = float(sigma)
    if not 1.0 < value < math.inf:
        raise SigmaOutOfRange(f"sigma must lie in (1, inf), got {sigma}")
    return value


def power_weight(sigma: float) -> ConvexWeightFunction:
    """f(x) = x^(-sigma), the weight behind every spacing bound here."""
    _check_sigma(sigma)
    return ConvexWeightFunction(
        evaluator=lambda x: x ** (-sigma),
        tail_sum=zeta(sigma),
        label=f"x^-{sigma:g}",
    )


def spot_check_shape(f: ConvexWeightFunction, seed: int = 0, trials: int = 1000) -> dict:
    """Sample-based diagnostic of the four weight conditions on [1, 1e6].

    Convexity is tested on random triples (midpoint under the chord),
    monotonicity on random pairs, nonnegativity and decay on the samples.
    Violations are reported, not raised.
    """
    rng = np.random.default_rng(seed)
    xy = np.sort(rng.uniform(1.0, 1e6, size=(trials, 2)), axis=1)
    theta = rng.uniform(0.0, 1.0, size=trials)
    mid = theta * xy[:, 0] + (1 - theta) * xy[:, 1]
    chord = theta * f(xy[:, 0]) + (1 - theta) * f(xy[:, 1])
    convex_bad = int(np.sum(f(mid) > chord + 1e-12))
    mono_bad = int(np.sum(f(xy[:, 0]) < f(xy[:, 1]) - 1e-12))
    nonneg_bad = int(np.sum(f(mid) < -1e-12))
    return {
        "label": f.label,
        "trials": trials,
        "convexity_violations": convex_bad,
        "monotonicity_violations": mono_bad,
        "negativity_violations": nonneg_bad,
        "ok": convex_bad == 0 and mono_bad == 0 and nonneg_bad == 0,
    }


@lru_cache(maxsize=None)
def zeta(sigma: float) -> float:
    """zeta(sigma) for sigma > 1 by direct summation plus tail correction.

    Sums the first 10^6 terms and closes with the integral term, half-term
    and the 1/x^(sigma+1) correction; the remainder is far below 1e-12
    relative accuracy for every sigma > 1.
    """
    sigma = _check_sigma(sigma)
    k = np.arange(1, _ZETA_CUTOFF + 1, dtype=float)
    head = float(np.sum(k ** (-sigma)))
    m = float(_ZETA_CUTOFF)
    tail = m ** (1 - sigma) / (sigma - 1) - 0.5 * m ** (-sigma) + sigma * m ** (-sigma - 1) / 12.0
    return head + tail


def _integer_weight_sum(f: ConvexWeightFunction, upto: int) -> float:
    """sum_{j=1}^{upto} f(j), chunked so huge ranges stay bounded in memory."""
    if upto <= 0:
        return 0.0
    parts = []
    start = 1
    while start <= upto:
        stop = min(upto, start + _CHUNK - 1)
        parts.append(float(np.sum(f(np.arange(start, stop + 1, dtype=float)))))
        start = stop + 1
    return math.fsum(parts)


def f_n_functional(x, f: ConvexWeightFunction, n: int) -> float:
    """F_n(x) = sum_{k<=n} min(x_k, x_{k+1}) f(x_1 + ... + x_k).

    Needs x_{n+1}, so n must satisfy 1 <= n <= len(x) - 1.
    """
    x = np.asarray(x, dtype=float)
    if not 1 <= n <= x.size - 1:
        raise IndexOutOfRange(f"n={n} needs 1 <= n <= {x.size - 1}")
    if np.any(x[: n + 1] <= 0):
        raise ValueError("entries must be positive")
    if x[0] < 1:
        raise ValueError("x_1 must be >= 1 so partial sums stay in f's domain")
    partial = np.cumsum(x[:n])
    mins = np.minimum(x[:n], x[1 : n + 1])
    return float(np.sum(mins * f(partial)))


def check_equidistance(a, f: ConvexWeightFunction, tol: float = 1e-12,
                       seed: int = 0) -> CheckReport:
    """Weighted sample sums against the integer lattice:

        sum_{k<=n} a_k f(a_1+...+a_k) <= sum_{j<=floor(L)} f(j) + {L} f(floor(L)+1)

    with n = len(a) and L the n-th partial sum, valid for a_k >= 1 and f
    convex decreasing.
    """
    a = np.asarray(a, dtype=float)
    if np.any(a < 1):
        raise ValueError("entries must be >= 1")
    if a.size == 0:
        raise IndexOutOfRange("need at least one entry")
    lam = np.cumsum(a)
    lhs = float(np.sum(a * f(lam)))
    total = float(lam[-1])
    floor_total = math.floor(total)
    frac = total - floor_total
    rhs = _integer_weight_sum(f, floor_total) + frac * float(f(np.array([floor_total + 1.0]))[0])
    return CheckReport("equidistance", lhs, rhs, lhs <= rhs + tol, seed=seed)


def check_smoothing_monovariant(a, nu: int, eps: float, f: ConvexWeightFunction,
                                n: int | None = None, tol: float = 1e-12,
                                seed: int = 0) -> CheckReport:
    """Raising a_nu by eps <= a_{nu-1} - a_nu cannot decrease F_n."""
    a = np.asarray(a, dtype=float)
    if n is None:
        n = a.size - 1
    if not 2 <= nu <= a.size:
        raise IndexOutOfRange(f"nu={nu} needs 2 <= nu <= {a.size}")
    gap = a[nu - 2] - a[nu - 1]
    if gap <= 0:
        raise NotDescendingAtNu(f"a[{nu - 1}]={a[nu - 2]} must exceed a[{nu}]={a[nu - 1]}")
    if not 0 < eps <= gap:
        raise EpsTooLarge(f"eps={eps} must lie in (0, {gap}]")
    b = a.copy()
    b[nu - 1] += eps
    lhs = f_n_functional(a, f, n)
    rhs = f_n_functional(b, f, n)
    return CheckReport("smoothing-monovariant", lhs, rhs, lhs <= rhs + tol, seed=seed)


def check_fn_upper(a, f: ConvexWeightFunction, tol: float = 1e-12,
                   seed: int = 0) -> CheckReport:
    """F_n(a), n = len(a) - 1, never exceeds the full integer series
    sum_{j>=1} f(j)."""
    a = np.asarray(a, dtype=float)
    lhs = f_n_functional(a, f, a.size - 1)
    if f.tail_sum is None:
        raise ValueError("weight needs a known series total for this check")
    rhs = float(f.tail_sum)
    return CheckReport("fn-upper", lhs, rhs, lhs <= rhs + tol, seed=seed)


def spacing_sum(seq: GapSequence, ell: int, sigma: float, window: int) -> float:
    """Truncated sum_{k != ell} delta_k / |lam_k - lam_ell|^sigma.

    window counts indices kept on each side of ell, capped at the data.
    All terms are positive, so the truncation is a lower bound for the
    full series.
    """
    _check_sigma(sigma)
    if not 1 <= ell <= seq.n:
        raise IndexOutOfRange(f"ell={ell} outside 1..{seq.n}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    lo = max(1, ell - window)
    hi = min(seq.n, ell + window)
    idx = np.arange(lo - 1, hi)          # 0-indexed active positions
    idx = idx[idx != ell - 1]
    lam = seq.active
    dist = np.abs(lam[idx] - lam[ell - 1])
    return float(np.sum(seq.deltas[idx] / dist ** sigma))


def spacing_bound_report(seq: GapSequence, ell: int, sigma: float, tol: float = 1e-12,
                         seed: int = 0) -> CheckReport:
    """Check the 2*zeta(sigma)/delta^(sigma-1) spacing bound at one index,
    summing over the whole window.

    tail_bound extrapolates the terms beyond the ghost nodes by an integral
    comparison (constant continuation of the boundary gap); it only flags
    how close a truncated check could come to the bound, the verdict stays
    sound.
    """
    lhs = spacing_sum(seq, ell, sigma, seq.n)
    d_ell = seq.delta(ell)
    rhs = 2.0 * zeta(sigma) / d_ell ** (sigma - 1)
    centre = seq.active[ell - 1]
    tail = ((centre - seq.nodes[0]) ** (1 - sigma) / (sigma - 1)
            + (seq.nodes[-1] - centre) ** (1 - sigma) / (sigma - 1))
    return CheckReport("preissmann-spacing", lhs, rhs, lhs <= rhs + tol,
                       tail_bound=tail, seed=seed)


def pair_spacing_sum(seq: GapSequence, ell: int, m: int, tol: float = 1e-12,
                     seed: int = 0) -> CheckReport:
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
    idx = np.arange(seq.n)
    idx = idx[(idx != ell - 1) & (idx != m - 1)]
    dl = lam[idx] - lam[ell - 1]
    dm = lam[idx] - lam[m - 1]
    lhs = float(np.sum(seq.deltas[idx] / (dl ** 2 * dm ** 2)))
    d_ell, d_m = seq.delta(ell), seq.delta(m)
    sep2 = (lam[ell - 1] - lam[m - 1]) ** 2
    rhs = math.pi ** 2 * (d_ell + d_m) / (3.0 * d_ell * d_m * sep2) \
        - 3.0 * (d_ell + d_m) / sep2 ** 2
    return CheckReport("pair-spacing", lhs, rhs, lhs <= rhs + tol, seed=seed)


def shan_split(seq: GapSequence, ell: int, sigma: float) -> tuple[float, float]:
    """The two one-sided functionals whose sum telescopes the spacing sum.

    With a_n = (lam_{ell+n} - lam_{ell+n-1})/delta_ell and b_n the mirror
    sequence, returns (F_{N-ell}(a), F_{ell-1}(b)); their sum equals
    delta_ell^(sigma-1) times the full-window spacing sum.
    """
    if not 1 <= ell <= seq.n:
        raise IndexOutOfRange(f"ell={ell} outside 1..{seq.n}")
    f = power_weight(sigma)
    d_ell = seq.delta(ell)
    forward = np.diff(seq.nodes[ell:]) / d_ell      # a_1 .. a_{N+1-ell}
    backward = np.diff(seq.nodes[:ell + 1])[::-1] / d_ell   # b_1 .. b_ell
    f_fwd = f_n_functional(forward, f, forward.size - 1) if forward.size >= 2 else 0.0
    f_bwd = f_n_functional(backward, f, backward.size - 1) if backward.size >= 2 else 0.0
    return f_fwd, f_bwd

"""Torus form of the half-exponent inequality and its lower-bound pipeline.

Points x_1..x_M distinct mod 1 carry nearest-neighbor torus gaps d_m and
nonnegative weights tau_m. The torus quadratic form

    (1/3) sum d_m^2 tau_m^2
      + sum_{m != n} d_m^(3/2) d_n^(1/2) tau_m tau_n / sin^2(pi (x_m - x_n))

bounds C3/pi^2 from below for every admissible constant C3 of the line
form; periodizing the points onto the line connects the two sides.

Periodizing over k periods puts the nodes p + x_m, 0 <= p < k, on the
line, with one ghost node past each end at the wrapped neighbour. The
ghosts make each node's line gap the torus gap d_m, so the line form
Q_{1/2} of the tiled window pairs (p, m) with (q, n) through
w_mn = d_m^(3/2) d_n^(1/2) tau_m tau_n / (x_m - x_n + p - q)^2. That
depends on the two periods only through s = p - q, and k - |s| pairs
(p, q) of periods share each s in (-k, k):

    Q_{1/2} = sum_{|s|<k} (k - |s|) sum_{(s,m,n) != (0,m,m)} w_mn / (x_m - x_n + s)^2.

Scaled by 1/(pi^2 k) it tends to the torus form as k grows, since
sum_s 1/(y + s)^2 = pi^2/sin^2(pi y) and sum_{s != 0} 1/s^2 = pi^2/3.

The K-point construction places K coarse points jA, j = 1..K, at gap A
and weight 1/sqrt(K), then a cluster of L+1 points (K+1)A + i h at gap
h = B/L and weight t = u/sqrt(L+1), spanning B = 1 - (K+1)A. A pair
inside either group depends only on its index difference, shared by a
count of pairs per difference, so the form of the construction has three
parts, each with its L -> infinity limit:

    kappa_0                                          (coarse points)
  + h^2 t^2 ((L+1)/3 + 2 l_sum(B, L))                (cluster, -> u^2/3)
  + sqrt(A h) (A + h) (t/sqrt(K)) sum_{j<=K} sum_{i<=L} 1/sin^2(pi (jA + iB/L))
                                                     (coarse-cluster, -> kappa_1 u)

The cluster limit is l_sum's growth L^3/(6B^2), and the coarse-cluster
limit is the Riemann sum of `cot_limit_check`; the last sum has O(K L)
terms in place of the (K+L+1)^2 of the dense form. The weights have
squared norm 1 + u^2, so the Rayleigh quotient tends to
g(u) = (kappa_0 + kappa_1 u + u^2/3)/(1 + u^2), and the best ratio u
gives the closed form

    G_K(A) = (1/2) (1/3 + kappa_0 + sqrt((1/3 - kappa_0)^2 + kappa_1^2)),

so pi^2 G_K(A) is a certified lower bound for the optimal constant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import cotpi, count, sinpi_abs, sinpi_abs_cotpi
from .errors import (
    AOutOfRange,
    CotangentPole,
    LengthMismatch,
    NegativeEntry,
    NonFinite,
    SeparationTooSmall,
)
from .gaps import GapSequence, WeightVector

SEPARATION_FLOOR = 1e-9
_KAPPA1_FLOOR = 1e-14
_BLOCK = 512


@dataclass(frozen=True, eq=False)
class TrigConfig:
    """Sorted torus points with their gap profile and weights."""

    points: np.ndarray
    gaps: np.ndarray
    weights: np.ndarray

    @property
    def m(self) -> int:
        return self.points.size


@dataclass(frozen=True)
class ConstructionResult:
    """One evaluation of the K-point construction at offset A."""

    k: int
    a: float
    b: float
    kappa0: float
    kappa1: float
    u_star: float
    g_value: float


@dataclass(frozen=True, eq=False)
class ScanTable:
    """A (K, x) grid scan as read-only 1-D columns in (K, x) order: one
    entry per grid point, holding the fields of its ConstructionResult
    and its offset fraction x = A (K+1). `best` indexes the first maximum
    of g_value."""

    k: np.ndarray
    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    kappa0: np.ndarray
    kappa1: np.ndarray
    u_star: np.ndarray
    g_value: np.ndarray
    best: int


@dataclass(frozen=True)
class EquivReport:
    line_side: float
    trig_side: float
    gap: float


@dataclass(frozen=True)
class CotLimitReport:
    finite: float
    finite_doubled: float
    closed: float
    gap: float
    gap_doubled: float

    @property
    def shrinks(self) -> bool:
        return abs(self.gap_doubled) < abs(self.gap)


def toroidal_gaps(points_sorted: np.ndarray) -> np.ndarray:
    """Nearest-neighbor torus distance per point; the single-point
    configuration gets the conventional gap 1."""
    m = points_sorted.size
    if m == 1:
        return np.array([1.0])
    diffs = np.diff(points_sorted)
    # same float expression as the canonical torus distance 1 - |x - y|,
    # so recomputation oracles can match bit for bit
    wrap = 1.0 - (points_sorted[-1] - points_sorted[0])
    left = np.concatenate(([wrap], diffs))
    right = np.concatenate((diffs, [wrap]))
    return np.minimum(left, right)


def trig_config(points, weights) -> TrigConfig:
    """Reduce mod 1, sort jointly with the weights, and validate; points or
    weights that are not vectors raise LengthMismatch."""
    pts = np.asarray(points, dtype=float)
    tau = np.asarray(weights, dtype=float)
    if pts.ndim != 1 or tau.ndim != 1:
        raise LengthMismatch(f"points of shape {pts.shape} and weights of shape {tau.shape}: "
                             "both must be vectors")
    # checked before np.mod, which warns on an infinite point
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tau))):
        raise NonFinite("points and weights must be finite")
    pts = np.mod(pts, 1.0)
    if pts.size != tau.size:
        raise LengthMismatch(f"{tau.size} weights for {pts.size} points")
    if pts.size == 0:
        raise ValueError("need at least one point")
    if np.any(tau < 0):
        raise NegativeEntry("weights must be nonnegative")
    order = np.argsort(pts, kind="stable")
    pts, tau = pts[order], tau[order]
    if pts.size > 1:
        sep = min(float(np.min(np.diff(pts))), float(pts[0] + 1.0 - pts[-1]))
        if sep < SEPARATION_FLOOR:
            raise SeparationTooSmall(f"minimal torus separation {sep:.3e} below {SEPARATION_FLOOR:g}")
    gaps = toroidal_gaps(pts)
    for arr in (pts, gaps, tau):
        arr.setflags(write=False)
    return TrigConfig(pts, gaps, tau)


def trig_form_value(cfg: TrigConfig) -> float:
    """Evaluate the torus quadratic form; row blocks keep memory bounded
    and give a fixed summation tree for reproducibility. Raises NonFinite
    when finite weights overflow the form instead of returning inf."""
    d, tau, x = cfg.gaps, cfg.weights, cfg.points
    with np.errstate(all="ignore"):
        diag = float(np.sum(d ** 2 * tau ** 2)) / 3.0
        row_coeff = d ** 1.5 * tau
        col_coeff = d ** 0.5 * tau
        blocks = []
        for start in range(0, cfg.m, _BLOCK):
            stop = min(cfg.m, start + _BLOCK)
            s2 = sinpi_abs(x[start:stop, None] - x[None, :]) ** 2
            num = np.outer(row_coeff[start:stop], col_coeff)
            diag_at = (np.arange(stop - start), np.arange(start, stop))
            s2[diag_at] = 1.0
            num[diag_at] = 0.0
            blocks.append(float(np.sum(num / s2)))
    try:
        value = diag + math.fsum(blocks)
    except OverflowError:       # finite blocks whose sum overflows
        value = math.inf
    if not math.isfinite(value):
        raise NonFinite("torus form overflows: the weights are too large")
    return value


def periodize(cfg: TrigConfig, k_periods: int) -> tuple[GapSequence, WeightVector]:
    """Tile the torus points onto the line: lam_{kM+m} = k + x_m with the
    weights repeated, plus periodic ghost nodes on both ends."""
    k_periods = count("k_periods", k_periods, 1)
    shifts = np.arange(k_periods, dtype=float)
    body = (shifts[:, None] + cfg.points[None, :]).ravel()
    nodes = np.concatenate(([cfg.points[-1] - 1.0], body, [k_periods + cfg.points[0]]))
    seq = GapSequence(nodes)
    return seq, WeightVector(np.tile(cfg.weights, k_periods))


def periodized_equivalence_check(cfg: TrigConfig, k_periods: int,
                                 trig_side: float | None = None) -> EquivReport:
    """Compare the half-exponent line form on the tiled configuration,
    scaled by 1/(pi^2 K), against the torus form. The gap decays like
    log(K)/K as the number of periods grows. A caller that checks one
    configuration at several K can pass its `trig_form_value` once.

    The line form is summed by period difference s (module docstring):
    the ghost nodes of `periodize` reproduce the torus gaps d_m, and
    K - |s| period pairs sit at difference s, so one (2K-1) x M x M array
    replaces the (KM) x (KM) kernel of the tiled window. `q_alpha` on
    `periodize(cfg, K)` is the same value up to rounding. Raises NonFinite
    on a non-finite term instead of passing NaN on.
    """
    k_periods = count("k_periods", k_periods, 2)
    shifts = np.arange(1 - k_periods, k_periods, dtype=float)
    d, tau, x = cfg.gaps, cfg.weights, cfg.points
    with np.errstate(all="ignore"):
        pairs = np.outer(d ** 1.5 * tau, d ** 0.5 * tau)
        terms = pairs / np.square(x[:, None] - x[None, :] + shifts[:, None, None])
    # s = 0 sits at index K - 1; its diagonal pairs a node with itself
    np.einsum("ii->i", terms[k_periods - 1])[...] = 0.0
    if not np.isfinite(terms).all():
        raise NonFinite("periodized line form has non-finite terms")
    terms *= (k_periods - np.abs(shifts))[:, None, None]
    line_side = float(np.sum(terms)) / (math.pi ** 2 * k_periods)
    if trig_side is None:
        trig_side = trig_form_value(cfg)
    return EquivReport(line_side, trig_side, line_side - trig_side)


def l_sum(b: float, l: int) -> float:
    """sum_{j=1}^{L} (L+1-j) / sin^2(pi j B / L) for 0 < B < 1."""
    if not 0.0 < b < 1.0:
        raise ValueError(f"B must lie in (0, 1), got {b}")
    l = count("L", l, 1)
    j = np.arange(1, l + 1, dtype=float)
    return float(np.sum((l + 1 - j) / sinpi_abs(j * b / l) ** 2))


def _pow_each(values: np.ndarray, exponent: int) -> np.ndarray:
    """values ** exponent through C pow (math.pow), element by element.

    The scan CSV digests pinned in tests/test_cli.py and bench/checks.py
    were written by the first release, which evaluated these powers with C
    pow. numpy's vectorized power differs from it in the last bit for some
    inputs: it moves kappa1 in 102 of the 2475 cells of the figure grid,
    and np.square alone moves 2 u_star cells and 1 G cell on the 1-40-400
    grid, which would break those digests.
    """
    return np.fromiter(map(math.pow, values.tolist(), [exponent] * values.size), float,
                       count=values.size)


def kappas(k: int, a):
    """The two construction coefficients at K coarse points, offset A:

        kappa_0 = A^2/3 + (2A^2/K) sum_{j<K} (K-j) / sin^2(pi j A),
        kappa_1 = (2/pi) sqrt(A^3/(B K)) sum_{j<=K} cot(pi j A),

    with B = 1 - (K+1)A required positive. A is a float or a 1-D array
    of offsets; a float gives two floats, an array two arrays.
    """
    k = count("K", k, 1)
    given = np.asarray(a, dtype=float)
    a = np.atleast_1d(given)
    bad = ~((0.0 < a) & (a < 1.0 / (k + 1)))
    if np.any(bad):
        raise AOutOfRange(f"A must lie in (0, 1/{k + 1}), got {float(a[bad][0])}")
    b = 1.0 - (k + 1) * a
    j = np.arange(1, k + 1, dtype=float)
    # one row per offset, one column per coarse point; each row sums in the
    # same order as a lone offset's 1-D sum
    ja = j * a[:, None]
    sines, cots = sinpi_abs_cotpi(ja)
    if np.any(sines < 1e-12):
        raise CotangentPole("sin(pi k A) vanished; A too close to a small-denominator rational")
    kappa0 = a * a / 3.0 + (2.0 * a * a / k) * np.sum((k - j[:-1]) / sines[:, :-1] ** 2, axis=1)
    kappa1 = (2.0 / math.pi) * np.sqrt(_pow_each(a, 3) / (b * k)) * np.sum(cots, axis=1)
    if given.ndim == 0:
        return float(kappa0[0]), float(kappa1[0])
    return kappa0, kappa1


def g_of_u(kappa0: float, kappa1: float, u: float) -> float:
    """g(u) = (kappa_0 + kappa_1 u + u^2/3) / (1 + u^2) for u >= 0."""
    if not all(map(math.isfinite, (kappa0, kappa1, u))):
        raise NonFinite(f"kappa0, kappa1 and u must be finite, got {kappa0}, {kappa1}, {u}")
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    return (kappa0 + kappa1 * u + u * u / 3.0) / (1.0 + u * u)


def maximize_g(kappa0, kappa1):
    """Supremum of g over u >= 0 with its maximizer.

    For kappa_1 > 0 the maximizer is
        u0 = (1/kappa_1)(1/3 - kappa_0 + sqrt((1/3 - kappa_0)^2 + kappa_1^2))
    and the value (1/2)(1/3 + kappa_0 + sqrt((1/3 - kappa_0)^2 + kappa_1^2)).
    For kappa_1 <= 0 that closed form would pick a negative u, so the
    supremum over u >= 0 degenerates to max(kappa_0, 1/3), attained at
    u = 0 or in the u -> infinity limit (reported as an inf sentinel).
    Floats give floats; equal-length 1-D arrays give arrays. A NaN or
    infinite kappa raises NonFinite.
    """
    given = np.asarray(kappa0, dtype=float)
    kappa0 = np.atleast_1d(given)
    kappa1 = np.atleast_1d(np.asarray(kappa1, dtype=float))
    if not (np.all(np.isfinite(kappa0)) and np.all(np.isfinite(kappa1))):
        raise NonFinite("kappa0 and kappa1 must be finite")
    third = 1.0 / 3.0
    low = kappa0 >= third
    u_star = np.where(low, 0.0, math.inf)
    g_value = np.where(low, kappa0, third)
    positive = kappa1 > _KAPPA1_FLOOR
    rise, slope = third - kappa0[positive], kappa1[positive]
    root = np.sqrt(_pow_each(rise, 2) + _pow_each(slope, 2))
    u_star[positive] = (rise + root) / slope
    g_value[positive] = 0.5 * (third + kappa0[positive] + root)
    if given.ndim == 0:
        return float(u_star[0]), float(g_value[0])
    return u_star, g_value


def big_g(k: int, a: float) -> ConstructionResult:
    """Evaluate the construction at (K, A) and close the u-optimization."""
    kappa0, kappa1 = kappas(k, a)
    b = 1.0 - (k + 1) * a
    u_star, g_value = maximize_g(kappa0, kappa1)
    return ConstructionResult(k, a, b, kappa0, kappa1, u_star, g_value)


def scan(k_min: int, k_max: int, a_steps: int) -> ScanTable:
    """Evaluate G_K(x/(K+1)) on the open grid x = i/(a_steps+1), one
    array pass per K, and collect the points as columns."""
    k_min = count("k_min", k_min, 1)
    k_max = count("k_max", k_max, k_min)
    a_steps = count("a_steps", a_steps, 2)
    x = np.arange(1, a_steps + 1) / (a_steps + 1)
    ks = np.arange(k_min, k_max + 1)
    per_k = []
    for k in ks.tolist():
        a = x / (k + 1)
        kappa0, kappa1 = kappas(k, a)
        per_k.append((a, 1.0 - (k + 1) * a, kappa0, kappa1, *maximize_g(kappa0, kappa1)))
    columns = [np.repeat(ks, a_steps), np.tile(x, ks.size),
               *(np.concatenate(column) for column in zip(*per_k))]
    for column in columns:
        column.setflags(write=False)
    return ScanTable(*columns, best=int(np.argmax(columns[-1])))


def cot_limit_check(k: int, a: float, l: int) -> CotLimitReport:
    """Riemann-sum check of

        (1/L) sum_{j<=K} sum_{i=0..L} 1/sin^2(pi (jA + iB/L))
            -> (2/(pi B)) sum_{j<=K} cot(pi j A),

    reporting the gap at L and 2L.
    """
    l = count("L", l, 10)
    kappas(k, a)     # validates (k, a)
    b = 1.0 - (k + 1) * a
    closed = (2.0 / (math.pi * b)) * float(np.sum(cotpi(np.arange(1, k + 1, dtype=float) * a)))
    f1, f2 = _cross_sum(k, a, b, l) / l, _cross_sum(k, a, b, 2 * l) / (2 * l)
    return CotLimitReport(f1, f2, closed, f1 - closed, f2 - closed)


def _cross_sum(k: int, a: float, b: float, l: int) -> float:
    """sum_{j<=K} sum_{i=0..L} 1/sin^2(pi (jA + iB/L)), one fsum term per j:
    the term (j, i) is the pair of coarse point (K+1-j)A and cluster point
    (K+1)A + iB/L."""
    offsets = np.arange(l + 1, dtype=float) * (b / l)
    return math.fsum(float(np.sum(sinpi_abs(j * a + offsets) ** -2.0)) for j in range(1, k + 1))


def _construction_points(k: int, a: float, l: int, u: float):
    """Validate a (K, A, L, u) construction: u finite (NonFinite) and
    nonnegative, (K, A) as `kappas` takes them, L an integer >= B/A so the
    coarse points keep gap A, and the cluster spacing h = B/L at least
    SEPARATION_FLOOR (SeparationTooSmall). Returns (kappa_0, B, h)."""
    if not math.isfinite(u):
        raise NonFinite(f"u must be finite, got {u}")
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    kappa0, _ = kappas(k, a)
    b = 1.0 - (k + 1) * a
    l = count("L", l, 1)
    if l < b / a:
        raise ValueError(f"L must be at least B/A = {b / a:.3f}, got {l}")
    h = b / l
    if h < SEPARATION_FLOOR:
        raise SeparationTooSmall(f"cluster spacing {h:.3e} below {SEPARATION_FLOOR:g}")
    return kappa0, b, h


def construction_config(k: int, a: float, l: int, u: float) -> TrigConfig:
    """The finite (K, A, B, L, u) torus configuration: K coarse points at
    spacing A, then L+1 cluster points at spacing B/L, weighted 1/sqrt(K)
    and u/sqrt(L+1) respectively. Needs L >= B/A so the coarse points keep
    gap A.
    """
    _, _, h = _construction_points(k, a, l, u)
    points = np.concatenate((np.arange(1, k + 1, dtype=float) * a,
                             (k + 1) * a + np.arange(l + 1, dtype=float) * h))
    weights = np.concatenate((np.full(k, 1.0 / math.sqrt(k)),
                              np.full(l + 1, u / math.sqrt(l + 1))))
    return trig_config(points, weights)


def construction_form_value(k: int, a: float, l: int, u: float) -> float:
    """trig_form_value(construction_config(k, a, l, u)) as the three parts
    of the module docstring: kappa_0 from `kappas`, the cluster part from
    `l_sum` and the coarse-cluster part from `_cross_sum`. Same input checks
    as `construction_config`; raises NonFinite when the form overflows.
    """
    kappa0, b, h = _construction_points(k, a, l, u)
    t = u / math.sqrt(l + 1)
    ht = h * t
    value = (kappa0 + ht * ht * ((l + 1) / 3.0 + 2.0 * l_sum(b, l))
             + math.sqrt(a * h) * (a + h) * (t / math.sqrt(k)) * _cross_sum(k, a, b, l))
    if not math.isfinite(value):
        raise NonFinite("torus form overflows: u is too large")
    return value

"""Skew-symmetric weighted Hilbert matrices and their spectral bounds.

H has entries c_m c_n / (lam_m - lam_n) off the diagonal, zero on it.
Purely imaginary eigenvalues i*mu come in conjugate pairs; the spectral
radius equals the numerical radius, so |mu_max| bounds the bilinear form
over all complex vectors. Complex eigenvectors are carried as real pairs
(u_re, u_im), which is lossless for real skew-symmetric matrices.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import eigen
from ._util import record
from .errors import LengthMismatch, NonFinite, NonpositiveWeight, ZeroSpectrum
from .gaps import GapSequence, kernel_rows, pair_kernel
from .quadforms import alpha_form_matrix, q_alpha

PI2_OVER_3 = math.pi ** 2 / 3.0
H_OVERFLOW = "H has non-finite entries: the weights are too large for the gaps"


@dataclass(frozen=True, eq=False)
class SkewHilbertMatrix:
    entries: np.ndarray
    weights: np.ndarray
    source: GapSequence

    @property
    def n(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class ComplexEigenpair:
    """Eigenpair (i*mu, u_re + i*u_im) of a skew matrix, mu > 0, unit norm."""

    mu: float
    u_re: np.ndarray
    u_im: np.ndarray

    @property
    def abs2(self) -> np.ndarray:
        return self.u_re ** 2 + self.u_im ** 2


@dataclass(frozen=True)
class ChainConstants:
    """Constants of the quadratic-inequality chain U^2 <= V(sV + tU)."""

    s_coeff: float
    t_coeff: float
    c3_upper: float
    c1_upper: float


def _weights(seq: GapSequence, weights) -> np.ndarray:
    """The weights c of H on `seq`: c_n = sqrt(delta_n) by default, else
    `weights` checked for shape (a vector of one weight per active node),
    finiteness and positivity."""
    if weights is None:
        return np.sqrt(seq.deltas)
    c = np.asarray(weights, dtype=float)
    if c.shape != (seq.n,):
        raise LengthMismatch(f"weights of shape {c.shape} for {seq.n} active nodes")
    if not np.all(np.isfinite(c)):
        raise NonFinite("weights must be finite")
    if np.any(c <= 0):
        raise NonpositiveWeight("weights must be strictly positive")
    return c


def build_h(seq: GapSequence, weights=None) -> SkewHilbertMatrix:
    """Assemble H; default weights are c_n = sqrt(delta_n).

    One divide gives exact skew-symmetry: fl(lam_m - lam_n) is exactly
    -fl(lam_n - lam_m) and c_m c_n = c_n c_m, so entries (m, n) and (n, m)
    round to the same magnitude with opposite signs. H is `pair_kernel`
    with c, c and power 1, so no second n x n array is formed. Raises
    NonFinite when finite weights overflow an entry.
    """
    c = _weights(seq, weights)
    entries = pair_kernel(c, c, seq.active, 1, H_OVERFLOW)
    entries.setflags(write=False)
    c = c.copy()
    c.setflags(write=False)
    return SkewHilbertMatrix(entries, c, seq)


def _gram(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A^T A, written to `out` when it is given. numpy forms it with one
    syrk and mirrors the triangle, so it is exactly symmetric with no
    symmetrizing pass. `eigen.top_eigen` requires that and does not compare
    it; a contract test over the suites checks it."""
    return np.matmul(a.T, a, out=out)


def _skew_gram(block, n: int, whole) -> tuple[np.ndarray, bool]:
    """The Gram whose top eigenvalue is mu^2 for the n x n skew H, and
    whether it is folded: when J H J = -H exactly, as on a
    reflection-symmetric window, H maps even vectors to odd ones by its
    even block C = block() (`eigen.fold`, None when the symmetry fails) and
    odd ones back by -C^T, so it is the half-size C^T C; else H^T H, with
    H = whole(), called only then.

    The Gram's buffer is allocated before C. C, allocated last, then lies
    above the Gram in the heap, and once it is freed on return, LAPACK's
    slightly larger working copy of the Gram in `eigen.top_eigen` reuses its
    memory; C allocated first leaves a hole that copy cannot use, and
    three such arrays are resident at once.
    """
    size = n - n // 2
    gram = np.empty((size, size))
    half = block()
    if half is None:
        del gram    # the whole H has a whole-size Gram
        return _gram(whole()), False
    return _gram(half, out=gram), True


def _top_grams(hs: list[SkewHilbertMatrix]) -> tuple[list[float], list[np.ndarray]]:
    """Top eigenvalue mu^2 of each H^T H and a certified unit eigenvector
    for it, from the Gram `_skew_gram` gives. The vector of a folded Gram,
    lifted to an even vector of length n, is certified against H^T H,
    applied as two products with H.

    The Grams solved are grouped by size, and each group is one
    `eigen.top_eigen` stack, checked once, which solves each member as a
    lone call does.
    """
    solved = [_skew_gram(lambda: eigen.fold(h.entries.__getitem__, h.n, -1.0), h.n,
                         lambda: h.entries) for h in hs]
    grams, folded = [gram for gram, _ in solved], [fold for _, fold in solved]
    groups: dict[int, list[int]] = {}
    for i, gram in enumerate(grams):
        groups.setdefault(len(gram), []).append(i)
    values, vectors = [0.0] * len(hs), [None] * len(hs)
    for members in groups.values():
        # a lone Gram is solved as it is, without the copy np.stack makes
        stack = (grams[members[0]][None] if len(members) == 1
                 else np.stack([grams[i] for i in members]))
        top, ys = eigen.top_eigen(stack, eigen.checked_scales(stack, False), True)
        for i, value, y in zip(members, top.tolist(), ys):
            if folded[i]:
                h = hs[i]
                y = eigen.reflection_lift(y, h.n)
                eigen.certify(h.entries.T @ (h.entries @ y), value, y)
            values[i], vectors[i] = value, y
    return values, vectors


def spectral_radius(seq: GapSequence, weights=None) -> float:
    """|mu_max| of H = build_h(seq, weights), the square root of the top
    eigenvalue of H^T H, with no eigenvectors formed; the value is bit for
    bit the mu of eigenpair_top(build_h(seq, weights)).

    The Gram is `_skew_gram`'s. With equal weights on a grid window H is
    skew-Toeplitz, and its block C is built from one row of H
    (`eigen.grid_fold`); else the rows of H are made a block at a time, so a
    folded H is never held whole; otherwise H is built whole.
    """
    c = _weights(seq, weights)
    lam = seq.active

    def half():
        block = eigen.grid_fold(c, c, seq.nodes, 1, H_OVERFLOW)
        if block is None:
            block = eigen.fold(lambda rows: kernel_rows(c, c, lam, 1, H_OVERFLOW, rows),
                               lam.size, -1.0)
        return block

    gram = _skew_gram(half, lam.size, lambda: pair_kernel(c, c, lam, 1, H_OVERFLOW))[0][None]
    value = float(eigen.top_eigen(gram, eigen.checked_scales(gram, False), False)[0][0])
    return math.sqrt(max(value, 0.0))


def eigenpairs_top(hs) -> list[ComplexEigenpair]:
    """Top-modulus eigenpair of each matrix in a sequence, built from its
    Gram eigenvector v:

    u = v - (i/mu) H v satisfies H u = i mu u whenever H^T H v = mu^2 v.

    The Grams are solved as one stack per size (`_top_grams`), and each
    pair is bit for bit the one a call on that matrix alone gives. A
    matrix whose spectrum vanishes raises ZeroSpectrum after all are solved.
    """
    hs = list(hs)
    values, vectors = _top_grams(hs)
    pairs = []
    for h, value, v in zip(hs, values, vectors):
        mu = math.sqrt(max(value, 0.0))
        if mu <= 0.0:
            raise ZeroSpectrum("all eigenvalues vanish")
        u_re = v
        u_im = -(h.entries @ v) / mu
        norm = math.sqrt(float(u_re @ u_re + u_im @ u_im))
        pairs.append(ComplexEigenpair(mu, u_re / norm, u_im / norm))
    return pairs


def eigenpair_top(h: SkewHilbertMatrix) -> ComplexEigenpair:
    """Top-modulus eigenpair of one matrix (`eigenpairs_top`)."""
    return eigenpairs_top([h])[0]


def check_selberg_identity(h: SkewHilbertMatrix, pair: ComplexEigenpair, seed: int = 0) -> dict:
    """Verify, for every m,

        mu^2 |u_m|^2 = sum_{n != m} c_m^2 c_n^2 |u_n|^2 / (lam_m-lam_n)^2
                     + 2 sum_{n != m} c_m^3 c_n Re(conj(u_m) u_n) / (lam_m-lam_n)^2.

    Both kernels are read off hh = H o H, the one n x n array formed:
    c_m^2 c_n^2 / (lam_m-lam_n)^2 = H_mn^2 and c_m^3 c_n / (lam_m-lam_n)^2
    = H_mn^2 c_m / c_n, so no power of the weights is formed. The
    record's lhs is the largest componentwise defect relative to mu^2; it
    holds below 1e-8.
    """
    c = h.weights
    hh = np.square(h.entries)
    abs2 = pair.abs2
    rhs = hh @ abs2
    rhs += 2.0 * c * (pair.u_re * (hh @ (pair.u_re / c)) + pair.u_im * (hh @ (pair.u_im / c)))
    lhs = pair.mu ** 2 * abs2
    rel = float(np.max(np.abs(lhs - rhs))) / pair.mu ** 2
    return record("selberg-identity", rel, 1e-8, "<", seed=seed)


def two_forms_bound(c3: float) -> float:
    """The weighted-inequality constant implied by a positive-form constant:
    sqrt(pi^2/3 + 2*c3)."""
    if not math.isfinite(c3):
        raise NonFinite(f"c3 must be finite, got {c3}")
    if c3 < 0:
        raise ValueError(f"c3 must be nonnegative, got {c3}")
    return math.sqrt(PI2_OVER_3 + 2.0 * c3)


def preissmann_chain() -> ChainConstants:
    """Solve U^2 <= V((pi^4/45)V + (2 pi^2/3)U) for the best U/V ratio.

    c3_upper is the positive root of x^2 - t*x - s = 0 with s = pi^4/45
    and t = 2 pi^2/3, and c1_upper the constant it implies.
    """
    s = math.pi ** 4 / 45.0
    t = 2.0 * math.pi ** 2 / 3.0
    c3 = (t + math.sqrt(t * t + 4.0 * s)) / 2.0
    return ChainConstants(s, t, c3, two_forms_bound(c3))


def bilinear_form(h: SkewHilbertMatrix, z_re, z_im) -> float:
    """|sum_{m != n} c_m c_n z_m conj(z_n) / (lam_m - lam_n)|.

    For skew H the symmetric part cancels, leaving |2 * z_im^T H z_re|.
    Vector parts that are not vectors of the matrix size raise
    LengthMismatch, and non-finite ones NonFinite.
    """
    z_re = np.asarray(z_re, dtype=float)
    z_im = np.asarray(z_im, dtype=float)
    if z_re.shape != (h.n,) or z_im.shape != (h.n,):
        raise LengthMismatch("vector parts must be vectors of the matrix size")
    if not (np.isfinite(z_re).all() and np.isfinite(z_im).all()):
        raise NonFinite("vector parts must be finite")
    return abs(2.0 * float(z_im @ (h.entries @ z_re)))


def numerical_radius_check(h: SkewHilbertMatrix, rho: float, seed: int = 0) -> list[dict]:
    """Check |B(z)| <= rho * sum |z_n|^2 and its c_n-normalized variant on
    one random complex vector z = zr + i zi drawn from `seed`, as two
    records. `rho` is the spectral radius of h: spectral_radius(h.source,
    h.weights), or the mu of eigenpair_top(h), which is the same float.
    A non-finite `rho` raises NonFinite and a negative one ValueError.
    """
    if not math.isfinite(rho):
        raise NonFinite(f"rho must be finite, got {rho}")
    if rho < 0:
        raise ValueError(f"rho must be nonnegative, got {rho}")
    rng = np.random.default_rng(seed)
    zr, zi = rng.standard_normal(h.n), rng.standard_normal(h.n)
    records = []
    for lemma, (vr, vi) in (("numerical-radius", (zr, zi)),
                            ("numerical-radius-normalized", (zr / h.weights, zi / h.weights))):
        lhs, rhs = bilinear_form(h, vr, vi), rho * float(vr @ vr + vi @ vi)
        records.append(record(lemma, lhs, rhs, "<=", 1e-9 * (1.0 + rhs), seed=seed))
    return records


def s_and_t(h: SkewHilbertMatrix, pair: ComplexEigenpair) -> tuple[float, float]:
    """The diagonal and rearranged parts of the eigenvector identity sum:

        S = sum_{m != n} delta_m delta_n |u_n|^2 / (lam_m - lam_n)^2,
        T = sum_{m != n} delta_m^(3/2) delta_n^(1/2) |u_m||u_n| / (lam_m - lam_n)^2,

    computed from the source gaps regardless of the matrix weights: S is
    the sum of the Q_1 kernel times |u|^2, and T is Q_{1/2}(|u|).
    """
    src = h.source
    s_val = float(np.sum(alpha_form_matrix(src, 1.0) @ pair.abs2))
    return s_val, q_alpha(src, np.sqrt(pair.abs2), 0.5)

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

from .errors import LengthMismatch, NonFinite, NonpositiveWeight, ZeroSpectrum
from .gaps import GapSequence, node_differences, pair_kernel
from .quadforms import _certify, _mirrored, _reflection_block, _reflection_lift, _top_eigen
from .reports import record

PI2_OVER_3 = math.pi ** 2 / 3.0


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


def build_h(seq: GapSequence, weights=None) -> SkewHilbertMatrix:
    """Assemble H; default weights are c_n = sqrt(delta_n).

    One divide gives exact skew-symmetry: fl(lam_m - lam_n) is exactly
    -fl(lam_n - lam_m) and c_m c_n = c_n c_m, so entries (m, n) and (n, m)
    round to the same magnitude with opposite signs. H is `pair_kernel`
    with c, c and power 1, so no second n x n array is formed. Raises
    NonFinite when finite weights overflow an entry.
    """
    if weights is None:
        c = np.sqrt(seq.deltas)
    else:
        c = np.asarray(weights, dtype=float)
        if c.size != seq.n:
            raise LengthMismatch(f"{c.size} weights for {seq.n} active nodes")
        if not np.all(np.isfinite(c)):
            raise NonFinite("weights must be finite")
        if np.any(c <= 0):
            raise NonpositiveWeight("weights must be strictly positive")
    entries = pair_kernel(c, c, seq.active, 1,
                          "H has non-finite entries: the weights are too large for the gaps")
    entries.setflags(write=False)
    c = c.copy()
    c.setflags(write=False)
    return SkewHilbertMatrix(entries, c, seq)


def _gram(a: np.ndarray) -> np.ndarray:
    """A^T A. numpy forms it with one syrk and mirrors the triangle, so it
    is exactly symmetric with no symmetrizing pass (`_top_eigen` checks)."""
    return a.T @ a


def _top_grams(hs: list[SkewHilbertMatrix],
               vector: bool) -> tuple[list[float], list[np.ndarray | None]]:
    """Top eigenvalue mu^2 of each H^T H and, when `vector` is set, a
    certified unit eigenvector for it.

    When J H J = -H exactly, as on a reflection-symmetric window, H maps
    even vectors to odd ones by the first block C of `_reflection_block`
    and odd vectors back by -C^T. So mu^2 is the top eigenvalue of the
    half-size Gram C^T C, and its vector, lifted to an even vector of
    length n, is certified against H^T H, applied as two products with H.

    The Grams solved are grouped by size, and each group is one
    `_top_eigen` stack, which solves each member as a lone call does.
    """
    folded = [_mirrored(h.entries, -1.0) for h in hs]
    grams = [_gram(_reflection_block(h.entries, -1.0, True) if fold else h.entries)
             for h, fold in zip(hs, folded)]
    groups: dict[int, list[int]] = {}
    for i, gram in enumerate(grams):
        groups.setdefault(len(gram), []).append(i)
    values, vectors = [0.0] * len(hs), [None] * len(hs)
    for members in groups.values():
        # a lone Gram is solved as it is, without the copy np.stack makes
        stack = (grams[members[0]][None] if len(members) == 1
                 else np.stack([grams[i] for i in members]))
        top, ys = _top_eigen(stack, vector)
        for i, value, y in zip(members, top.tolist(), ys or [None] * len(members)):
            if y is not None and folded[i]:
                h = hs[i]
                y = _reflection_lift(y, h.n, even=True)
                _certify(h.entries.T @ (h.entries @ y), value, y)
            values[i], vectors[i] = value, y
    return values, vectors


def spectral_radius(h: SkewHilbertMatrix) -> float:
    """|mu_max| = sqrt(top eigenvalue of H^T H)."""
    values, _ = _top_grams([h], vector=False)
    return math.sqrt(max(values[0], 0.0))


def eigenpairs_top(hs) -> list[ComplexEigenpair]:
    """Top-modulus eigenpair of each matrix in a sequence, built from its
    Gram eigenvector v:

    u = v - (i/mu) H v satisfies H u = i mu u whenever H^T H v = mu^2 v.

    The Grams are solved as one stack per size (`_top_grams`), and each
    pair is bit for bit the one a call on that matrix alone gives. A
    matrix whose spectrum vanishes raises ZeroSpectrum after all are solved.
    """
    hs = list(hs)
    values, vectors = _top_grams(hs, vector=True)
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


def _inverse_square(seq: GapSequence) -> np.ndarray:
    """1/(lam_m - lam_n)^2 off the diagonal, zero on it."""
    inv2 = node_differences(seq.active) ** -2.0
    np.fill_diagonal(inv2, 0.0)
    return inv2


def check_selberg_identity(h: SkewHilbertMatrix, pair: ComplexEigenpair, seed: int = 0) -> dict:
    """Verify, for every m,

        mu^2 |u_m|^2 = sum_{n != m} c_m^2 c_n^2 |u_n|^2 / (lam_m-lam_n)^2
                     + 2 sum_{n != m} c_m^3 c_n Re(conj(u_m) u_n) / (lam_m-lam_n)^2.

    The record's lhs is the largest componentwise defect relative to mu^2;
    it holds below 1e-8.
    """
    c = h.weights
    inv2 = _inverse_square(h.source)
    abs2 = pair.abs2
    quad = np.outer(c ** 2, c ** 2) * inv2
    cross_kernel = np.outer(c ** 3, c) * inv2
    rhs = quad @ abs2
    rhs += 2.0 * (pair.u_re * (cross_kernel @ pair.u_re) + pair.u_im * (cross_kernel @ pair.u_im))
    lhs = pair.mu ** 2 * abs2
    rel = float(np.max(np.abs(lhs - rhs))) / pair.mu ** 2
    return record("selberg-identity", rel, 1e-8, rel < 1e-8, seed=seed)


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
    """
    z_re = np.asarray(z_re, dtype=float)
    z_im = np.asarray(z_im, dtype=float)
    if z_re.size != h.n or z_im.size != h.n:
        raise LengthMismatch("vector parts must match the matrix size")
    return abs(2.0 * float(z_im @ (h.entries @ z_re)))


def numerical_radius_check(h: SkewHilbertMatrix, rho: float, seed: int = 0) -> list[dict]:
    """Check |B(z)| <= rho * sum |z_n|^2 and its c_n-normalized variant on
    one random complex vector z = zr + i zi drawn from `seed`, as two
    records. `rho` is the spectral radius of h: spectral_radius(h), or the
    mu of eigenpair_top(h), which is the same float.
    """
    rng = np.random.default_rng(seed)
    zr, zi = rng.standard_normal(h.n), rng.standard_normal(h.n)
    records = []
    for lemma, (vr, vi) in (("numerical-radius", (zr, zi)),
                            ("numerical-radius-normalized", (zr / h.weights, zi / h.weights))):
        lhs, rhs = bilinear_form(h, vr, vi), rho * float(vr @ vr + vi @ vi)
        records.append(record(lemma, lhs, rhs, lhs <= rhs + 1e-9 * (1.0 + rhs), seed=seed))
    return records


def s_and_t(h: SkewHilbertMatrix, pair: ComplexEigenpair) -> tuple[float, float]:
    """The diagonal and rearranged parts of the eigenvector identity sum:

        S = sum_{m != n} delta_m delta_n |u_n|^2 / (lam_m - lam_n)^2,
        T = sum_{m != n} delta_m^(3/2) delta_n^(1/2) |u_m||u_n| / (lam_m - lam_n)^2,

    computed from the source gaps regardless of the matrix weights.
    """
    delta = h.source.deltas
    inv2 = _inverse_square(h.source)
    abs_u = np.sqrt(pair.abs2)
    s_val = float(np.sum((inv2 @ delta) * (delta * pair.abs2)))
    t_val = float((delta ** 1.5 * abs_u) @ (inv2 @ (delta ** 0.5 * abs_u)))
    return s_val, t_val

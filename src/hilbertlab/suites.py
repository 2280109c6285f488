"""Seeded verification sweeps behind `verify`; each returns sweep records.

Every record carries the same keys: lemma, seed, lhs, rhs, holds,
tail_bound. Sweeps are deterministic given (trials, max_n, seed); only
selberg and radius take max_n. Each site states its verdict as a sense
and one fixed slack, and `_util.record` decides `holds` from them; a
clause that the printed sides cannot express goes in as `requires`.
"""
from __future__ import annotations

import math

import numpy as np

from ._util import parallel_map, record
from .gaps import GapSequence, generate_cluster, generate_random, generate_uniform
from .lowerbound import (
    big_g,
    construction_form_value,
    cot_limit_check,
    kappas,
    l_sum,
    periodized_equivalence_check,
    scan,
    toroidal_gaps,
    trig_config,
    trig_form_value,
)
from .quadforms import cluster_lower_bound, estimate_constant, q_alpha
from .spacing import (
    check_equidistance,
    check_fn_upper,
    check_smoothing_monovariant,
    pair_spacing_margins,
    pair_spacing_sum,
    shan_split,
    spacing_bound_report,
    spacing_sum,
    zeta,
)
from .spectra import (
    ComplexEigenpair,
    SkewHilbertMatrix,
    bilinear_form,
    build_h,
    check_selberg_identity,
    eigenpair_top,
    eigenpairs_top,
    numerical_radius_check,
    preissmann_chain,
    s_and_t,
    spectral_radius,
)

PI2_OVER_3 = math.pi ** 2 / 3.0
SIGMAS = (1.5, 2.0, 3.0, 4.0)
# largest window sizes of the suites that --max-n does not reach
SPACING_MAX_N = 40
PAIR_SPACING_MAX_N = 10
ALPHA_MAX_N = 25


def _random_seq(seed: int, max_n: int, min_n: int = 3) -> GapSequence:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(min_n, max_n + 1))
    min_gap = float(rng.uniform(0.05, 1.0))
    return generate_random(n, min_gap, seed)


def _random_windows(trials: int, max_n: int, seed: int,
                    shared: dict | None = None) -> list[tuple[SkewHilbertMatrix, ComplexEigenpair]]:
    """For seeds seed, ..., seed + trials - 1, a seeded random window of
    2..max_n nodes with random weights in [0.5, 2]: its skew matrix H and
    top eigenpair, all solved by one `eigenpairs_top` call. With `shared`,
    a dict that lives as long as one `run_suites` call, the table is built
    once per (trials, max_n, seed) and read by every suite given it."""
    shared = {} if shared is None else shared
    key = (trials, max_n, seed)
    if key not in shared:
        hs = []
        for s in range(seed, seed + trials):
            rng = np.random.default_rng(s)
            n = int(rng.integers(2, max_n + 1))
            seq = generate_random(n, float(rng.uniform(0.05, 1.0)), s)
            hs.append(build_h(seq, rng.uniform(0.5, 2.0, n)))
        shared[key] = list(zip(hs, eigenpairs_top(hs)))
    return shared[key]


def suite_selberg(trials: int = 100, max_n: int = 12, seed: int = 0, *,
                  _windows: dict | None = None) -> list[dict]:
    """Eigenvector identity residuals on random windows and weights."""
    table = _random_windows(trials, max_n, seed, _windows)

    def one(i: int) -> dict:
        return check_selberg_identity(*table[i], seed=seed + i)

    return parallel_map(one, range(trials))


def suite_spacing(trials: int = 100, seed: int = 0) -> list[dict]:
    """Spacing bound, equidistance, smoothing and series-cap sweeps."""
    records: list[dict] = []

    # one window per seed, read by the spacing and shan-chain records
    seqs = [_random_seq(seed + i, SPACING_MAX_N) for i in range(trials)]

    def spacing_case(i: int) -> list[dict]:
        s, seq = seed + i, seqs[i]
        rng = np.random.default_rng(s + 10**6)
        ell = int(rng.integers(1, seq.n + 1))
        return [spacing_bound_report(seq, ell, sigma, seed=s)
                | {"lemma": f"preissmann-spacing-sigma{sigma:g}"} for sigma in SIGMAS]

    for chunk in parallel_map(spacing_case, range(trials)):
        records.extend(chunk)

    # unit spacing saturates the bound: truncation at 10^6 terms per side
    # sits within 3e-6 of pi^2/3
    window = 10**6
    useq = generate_uniform(2 * window + 1, 1.0)
    defect = abs(spacing_sum(useq, window + 1, 2.0) - PI2_OVER_3)
    records.append(record("spacing-uniform-window", defect, 3e-6, "<",
                          seed=seed, tail_bound=2.0 / window))

    def other_cases(i: int) -> list[dict]:
        s = seed + i
        rng = np.random.default_rng(s + 2 * 10**6)
        out = []
        a = rng.uniform(1.0, 5.0, int(rng.integers(2, 31)))
        out.append(check_equidistance(a, 3.0, seed=s))
        a2 = rng.uniform(1.0, 5.0, int(rng.integers(3, 31)))
        if not a2[0] > a2[1]:
            a2[0], a2[1] = a2[1] + 0.5, a2[0]
        eps = float(rng.uniform(0.05, 1.0)) * (a2[0] - a2[1])
        out.append(check_smoothing_monovariant(a2, 2, eps, 2.0, seed=s))
        a3 = rng.uniform(0.2, 4.0, int(rng.integers(2, 31)))
        a3[0] = 1.0 + float(rng.uniform(0.0, 3.0))
        out.append(check_fn_upper(a3, 2.0, seed=s))
        return out

    for chunk in parallel_map(other_cases, range(trials)):
        records.extend(chunk)

    def shan_case(i: int) -> dict:
        s, seq = seed + i, seqs[i]
        rng = np.random.default_rng(s + 3 * 10**6)
        ell = int(rng.integers(1, seq.n + 1))
        sigma = float(rng.choice(SIGMAS))
        fa, fb = shan_split(seq, ell, sigma)
        combined = seq.delta(ell) ** (sigma - 1) * spacing_sum(seq, ell, sigma)
        rel = abs(fa + fb - combined) / max(combined, 1e-300)
        one_sided = fa <= zeta(sigma) + 1e-12 and fb <= zeta(sigma) + 1e-12
        return record("shan-chain", rel, 1e-10, "<", requires=one_sided, seed=s)

    records.extend(parallel_map(shan_case, range(min(trials, 100))))
    return records


def suite_pair_spacing(trials: int = 100, seed: int = 0) -> list[dict]:
    """Two-point bound over all index pairs of random short windows.

    One record per window: every pair ell < m comes from one
    `pair_spacing_margins` table, and the pair with the worst margin
    lhs-rhs is evaluated again by the scalar reference `pair_spacing_sum`,
    whose margin the record reports, held to the same 1e-12 slack. It
    requires that every pair of the table has lhs <= rhs + 1e-12 and that
    the reference holds at the worst pair.
    """
    def one(i: int) -> dict:
        s = seed + i
        seq = _random_seq(s, PAIR_SPACING_MAX_N, min_n=2)
        lhs, rhs = pair_spacing_margins(seq)
        ells, ms = np.triu_indices(seq.n, 1)
        lhs, rhs = lhs[ells, ms], rhs[ells, ms]
        worst = int(np.argmax(lhs - rhs))
        rep = pair_spacing_sum(seq, int(ells[worst]) + 1, int(ms[worst]) + 1, seed=s)
        ok = bool(np.all(lhs <= rhs + 1e-12)) and rep["holds"]
        return record("pair-spacing", rep["lhs"] - rep["rhs"], 0.0, "<=", 1e-12, requires=ok,
                      seed=s)

    return parallel_map(one, range(trials))


def suite_radius(trials: int = 100, max_n: int = 12, seed: int = 0, *,
                 _windows: dict | None = None) -> list[dict]:
    """Numerical-radius inequality on random vectors plus the extremal case,
    and the unit-spacing floor/ceiling at large size."""
    records: list[dict] = []
    table = _random_windows(trials, max_n, seed, _windows)

    def one(i: int) -> list[dict]:
        s = seed + i
        h, pair = table[i]
        rho = pair.mu
        out = numerical_radius_check(h, rho, seed=s)
        lhs = bilinear_form(h, pair.u_re, pair.u_im)
        out.append(record("numerical-radius-extremal", lhs, rho, "==", 1e-9 * (1.0 + rho), seed=s))
        return out

    for chunk in parallel_map(one, range(trials)):
        records.extend(chunk)

    seq = generate_uniform(2000, 1.0)
    rho = spectral_radius(seq, np.ones(2000))
    records.append(record("schur-floor", rho, math.pi - 0.05, ">", seed=seed))
    records.append(record("schur-ceiling", rho, math.pi, "<=", 1e-9, seed=seed))
    return records


def _chain_configs(trials: int, seed: int) -> list[tuple[int, GapSequence]]:
    configs = [(seed, generate_uniform(60, 1.0)), (seed, generate_cluster(40))]
    for i in range(trials):
        s = seed + i
        configs.append((s, _random_seq(s, 40, min_n=5)))
    return configs


def suite_chain(trials: int = 20, seed: int = 0) -> list[dict]:
    """Eigenvalue chain: the diagonal part stays under pi^2/3, the radius
    under sqrt(S + 2T), and the end-to-end proven constant."""
    proven = preissmann_chain().c1_upper
    records: list[dict] = []

    def one(arg: tuple[int, GapSequence]) -> list[dict]:
        s, seq = arg
        h = build_h(seq)
        pair = eigenpair_top(h)
        s_val, t_val = s_and_t(h, pair)
        rho, chain_sum = pair.mu, s_val + 2.0 * t_val
        return [
            record("s-bound", s_val, PI2_OVER_3, "<=", 1e-9, seed=s),
            record("mu-chain", rho ** 2, chain_sum, "<=", 1e-8, seed=s),
            record("mv2-proven", rho, proven, "<=", 1e-9, seed=s),
            # how much cancellation the chain discards
            record("chain-gap", chain_sum - rho ** 2, 0.0, "info", seed=s),
        ]

    for chunk in parallel_map(one, _chain_configs(trials, seed)):
        records.extend(chunk)
    return records


def suite_alpha(trials: int = 20, seed: int = 0) -> list[dict]:
    """Structure of the form in alpha: mirror symmetry, interpolation,
    monotonicity on [0, 1], the pi^2/3 cap at alpha 1, the crude cap, and
    window monotonicity."""
    records: list[dict] = []
    cluster = generate_cluster(30)
    configs: list[tuple[int, GapSequence]] = [(seed, generate_uniform(30, 1.0)), (seed, cluster)]
    for i in range(min(trials, 10)):
        s = seed + i
        configs.append((s, _random_seq(s, ALPHA_MAX_N)))

    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for s, seq in configs:
        values = {a: estimate_constant(a, seq).value for a in
                  sorted({*grid, *(2.0 - a for a in grid)})}
        if seq is cluster:
            cluster_values = values
        for a in grid:
            diff = abs(values[a] - values[2.0 - a])
            cap = 1e-11 * max(1.0, values[a])
            records.append(record(f"alpha-symmetry-{a:g}", diff, cap, "<=", seed=s))
        for lo, hi in zip(grid[:-1], grid[1:]):
            records.append(record(f"alpha-monotone-{lo:g}-{hi:g}", values[hi], values[lo],
                                  "<=", 1e-10, seed=s))
        records.append(record("alpha-pi2over3-at-1", values[1.0], PI2_OVER_3, "<=", 1e-9, seed=s))
        records.append(record("alpha-crude-bound", max(values.values()), seq.n - 1,
                              "<=", 1e-9, seed=s))

        rng = np.random.default_rng(s + 5 * 10**6)
        t = rng.uniform(0.0, 1.0, seq.n)
        for _ in range(3):
            a1, a2 = np.sort(rng.uniform(0.0, 2.0, 2))
            if a2 - a1 < 1e-3:
                continue
            theta = float(rng.uniform(0.05, 0.95))
            mid = theta * a1 + (1 - theta) * a2
            lhs = q_alpha(seq, t, mid)
            rhs = q_alpha(seq, t, a1) ** theta * q_alpha(seq, t, a2) ** (1 - theta)
            records.append(record("alpha-hoelder", lhs, rhs, "<=", 1e-10, seed=s))

        ext = GapSequence(np.append(seq.nodes, seq.nodes[-1] + (seq.nodes[-1] - seq.nodes[-2])))
        for a in (0.0, 1.0):
            v1 = values[a]
            v2 = estimate_constant(a, ext).value
            records.append(record(f"alpha-n-monotone-{a:g}", v1, v2, "<=", 1e-10, seed=s))

    ratio = cluster_lower_bound(0.0, 400) / cluster_lower_bound(0.0, 100)
    records.append(record("cluster-growth-alpha0", ratio, 1.8, ">=", seed=seed))
    for a in (0.0, 0.5, 1.0):
        low = cluster_lower_bound(a, 30)
        records.append(record(f"cluster-dominates-{a:g}", low, cluster_values[a], "<=", 1e-9,
                              seed=seed))
    return records


def _random_trig(seed: int):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, m))
        sep = min(float(np.min(np.diff(pts))), float(pts[0] + 1.0 - pts[-1]))
        if sep > 0.02:
            break
    return trig_config(pts, rng.uniform(0.1, 1.0, m))


def suite_trig(trials: int = 20, seed: int = 0) -> list[dict]:
    """Torus side: periodization convergence, cluster-sum asymptotics,
    cotangent limit, gap recomputation and closed-form consistency."""
    records: list[dict] = []

    def equiv_case(i: int) -> dict:
        s = seed + i
        cfg = _random_trig(s)
        trig_side = trig_form_value(cfg)
        g1 = abs(periodized_equivalence_check(cfg, 50, trig_side).gap)
        g2 = abs(periodized_equivalence_check(cfg, 100, trig_side).gap)
        return record("periodized-shrink", g2, g1, "<", seed=s)

    records.extend(parallel_map(equiv_case, range(trials)))

    ref = trig_config([0.0, 0.5], [1.0, 1.0])
    rep = periodized_equivalence_check(ref, 200)
    rel = abs(rep.gap) / rep.trig_side
    records.append(record("periodized-m2-k200", rel, 0.02, "<", seed=seed))

    for b in (0.3, 0.5, 0.7):
        def resid(ll: int) -> float:
            return (l_sum(b, ll) - ll ** 3 / (6.0 * b * b)
                    + ll * ll * math.log(ll) / (math.pi ** 2 * b * b)) / ll ** 2
        r1, r2 = resid(1000), resid(2000)
        var = abs(r2 / r1 - 1.0)
        records.append(record(f"l-sum-residual-b{b:g}", var, 0.05, "<", seed=seed))

    cot = cot_limit_check(1, 0.25, 4000)
    rel = abs(cot.gap) / abs(cot.closed)
    records.append(record("cot-limit-k1", rel, 1e-2, "<", requires=cot.shrinks, seed=seed))
    cot5 = cot_limit_check(5, 0.14, 500)
    records.append(record("cot-limit-shrinks", abs(cot5.gap_doubled), abs(cot5.gap), "<",
                          seed=seed))

    k0, k1 = kappas(5, 0.14)
    b5 = 1.0 - 6 * 0.14
    implied = cot5.closed * math.sqrt(0.14 ** 3 * b5 / 5.0)
    records.append(record("kappa1-consistency", abs(implied - k1), 1e-12 * max(1.0, abs(k1)),
                          "<=", seed=seed))

    def gap_case(i: int) -> dict:
        s = seed + 10**6 + i
        cfg = _random_trig(s)
        pts = cfg.points
        brute = np.array([
            min(min(abs(p - q), 1.0 - abs(p - q)) for q in np.delete(pts, j))
            for j, p in enumerate(pts)
        ]) if cfg.m > 1 else np.array([1.0])
        return record("torus-gaps", np.max(np.abs(cfg.gaps - brute)), 0.0, "<=",
                      requires=np.all(toroidal_gaps(pts) == brute), seed=s)

    records.extend(parallel_map(gap_case, range(min(trials, 50))))

    base = trig_config(np.arange(8) / 8.0, np.full(8, 0.7))
    v0 = trig_form_value(base)
    for shift in (0.123, 0.777):
        v1 = trig_form_value(trig_config(np.arange(8) / 8.0 + shift, np.full(8, 0.7)))
        rel = abs(v1 - v0) / v0
        records.append(record("trig-rotation-invariance", rel, 1e-12, "<=", seed=seed))

    res = big_g(5, 0.14)
    fin = construction_form_value(5, 0.14, 1000, res.u_star) / (1.0 + res.u_star ** 2)
    fin2 = construction_form_value(5, 0.14, 2000, res.u_star) / (1.0 + res.u_star ** 2)
    records.append(record("construction-finite-cap", fin2, res.g_value + 5e-3, "<=",
                          requires=fin2 > fin, seed=seed))

    cap = (1.0 + math.sqrt(1.2)) / 3.0
    worst = float(scan(1, 25, 33).g_value.max())
    records.append(record("lower-bound-soundness", worst, cap, "<=", 1e-9, seed=seed))
    return records


SUITES = {
    "selberg": suite_selberg,
    "spacing": suite_spacing,
    "pair-spacing": suite_pair_spacing,
    "radius": suite_radius,
    "chain": suite_chain,
    "alpha-properties": suite_alpha,
    "trig": suite_trig,
}

ALL_SUITES = tuple(SUITES)
# the only suites that take max_n, a bound on their window sizes
MAX_N_SUITES = ("selberg", "radius")
DEFAULT_MAX_N = 12


def run_suites(names, trials: int = 100, max_n: int = DEFAULT_MAX_N, seed: int = 0) -> list[dict]:
    """Run the named suites in order with shared sweep parameters. The
    suites that take max_n read one table of seeded windows and eigenpairs,
    built by the first of them and dropped when the call returns."""
    records: list[dict] = []
    windows: dict = {}
    for name in names:
        suite = SUITES[name]
        kwargs = {"trials": trials, "seed": seed}
        if name in MAX_N_SUITES:
            kwargs.update(max_n=max_n, _windows=windows)
        records.extend(suite(**kwargs))
    return records

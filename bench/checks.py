"""Output checks for the benchmark commands.

Each check takes the command's exit code and captured stdout and returns a
list of problems; an empty list means the output is correct. The checks
hold for every seed: they compare against counts derived from the sweep
definitions, against linear algebra recomputed here from the returned
witness, and against digests of the byte-stable scan CSVs.
"""
from __future__ import annotations

import hashlib
import json
import math
from collections import Counter

import numpy as np

RESIDUAL_RTOL = 1e-10
PI2_OVER_3 = math.pi ** 2 / 3.0
HEADLINE_G = 0.35047

# sha256 of the scan CSVs written by the initial release; the CSV format is
# byte-stable, so any change to these digests is a contract break.
CSV_SHA256 = {
    (1, 25, 99): "59b070ca056e60e9402604dfcc4402ae5e78299113a51624d150c816c13e1457",
    (1, 40, 400): "7fff3c5b79a1d3080a097ba289657d6ade524906b075378301b3eecfb25c83c0",
}
# (K, x) of the scan maximum on each grid; x = i / (steps + 1)
SCAN_ARGMAX = {(1, 25, 99): (5, 84 / 100), (1, 40, 400): (5, 338 / 401)}

# Best value the initial release's 18-round hill climb reaches at alpha = 1/2
# from the seed-independent starts (uniform, cluster, periodized torus).
SEARCH_FLOOR = {12: 2.738829087657973, 24: 3.010660658059363}

SIGMAS = (1.5, 2.0, 3.0, 4.0)
ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _load(code: int, stdout: str, problems: list[str]) -> dict | None:
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        return json.loads(stdout)
    except json.JSONDecodeError as exc:
        problems.append(f"stdout is not one JSON document: {exc}")
        return None


# ---- configurations, assembled independently of the program ------------

def uniform_nodes(n: int) -> np.ndarray:
    return np.arange(n + 2, dtype=float)


def cluster_nodes(n: int) -> np.ndarray:
    return np.concatenate(([0.0, 1.0, 2.0], 2.0 + np.arange(1, n, dtype=float) / n))


def random_nodes(n: int, seed: int, min_gap: float = 0.2) -> np.ndarray:
    gaps = np.random.default_rng(seed).uniform(min_gap, 10.0 * min_gap, size=n + 1)
    return np.concatenate(([0.0], np.cumsum(gaps)))


def trig_nodes(n: int, k: int = 5, a: float = 0.14, l: int = 10) -> np.ndarray:
    """First n+2 nodes of the periodized K-point torus construction."""
    b = 1.0 - (k + 1) * a
    coarse = np.arange(1, k + 1, dtype=float) * a
    cluster = (k + 1) * a + np.arange(l + 1, dtype=float) * (b / l)
    points = np.sort(np.mod(np.concatenate((coarse, cluster)), 1.0), kind="stable")
    periods = max(2, -(-(n + 2) // points.size))
    body = (np.arange(periods, dtype=float)[:, None] + points[None, :]).ravel()
    nodes = np.concatenate(([points[-1] - 1.0], body, [periods + points[0]]))
    return nodes[: n + 2]


def config_nodes(config: str, n: int, seed: int) -> np.ndarray:
    builders = {"uniform": uniform_nodes, "cluster": cluster_nodes, "trig": trig_nodes,
                "trig-periodized": trig_nodes}
    if config == "random" or config.startswith("random-"):
        return random_nodes(n, seed if config == "random" else int(config[len("random-"):]))
    return builders[config](n)


def sym_kernel(nodes: np.ndarray, alpha: float) -> np.ndarray:
    """Symmetrized Q_alpha kernel of the window's active nodes."""
    gaps = np.diff(nodes)
    delta = np.minimum(gaps[:-1], gaps[1:])
    lam = nodes[1:-1]
    diff2 = (lam[:, None] - lam[None, :]) ** 2
    np.fill_diagonal(diff2, np.inf)
    kernel = np.outer(delta ** (2.0 - alpha), delta ** alpha) / diff2
    return (kernel + kernel.T) / 2.0


def uniform_floor(n: int) -> float:
    """Value of the alpha = 1 form at unit spacing with equal weights."""
    k = np.arange(1, n, dtype=float)
    return float(2.0 * np.sum(k ** -2.0) - (2.0 / n) * np.sum(1.0 / k))


# ---- verify -------------------------------------------------------------

def _alpha_configs(trials: int, seed: int) -> list[tuple[int, int]]:
    """(seed, active count) of each window the alpha-properties suite uses."""
    configs = [(seed, 30), (seed, 30)]
    for i in range(min(trials, 10)):
        s = seed + i
        configs.append((s, int(np.random.default_rng(s).integers(3, 26))))
    return configs


def _hoelder_count(s: int, n: int) -> int:
    """Interpolation records of one window: draws closer than 1e-3 are skipped."""
    rng = np.random.default_rng(s + 5 * 10**6)
    rng.uniform(0.0, 1.0, n)
    count = 0
    for _ in range(3):
        a1, a2 = np.sort(rng.uniform(0.0, 2.0, 2))
        if a2 - a1 < 1e-3:
            continue
        rng.uniform(0.05, 0.95)
        count += 1
    return count


def expected_verify_counts(suite: str, trials: int, seed: int) -> Counter:
    """Record count per lemma that `verify --suite suite --trials trials` must emit."""
    want: Counter = Counter()
    every = suite == "all"
    if every or suite == "selberg":
        want["selberg-identity"] += trials
    if every or suite == "spacing":
        for sigma in SIGMAS:
            want[f"preissmann-spacing-sigma{sigma:g}"] += trials
        want["spacing-uniform-window"] += 1
        for lemma in ("equidistance", "smoothing-monovariant", "fn-upper"):
            want[lemma] += trials
        want["shan-chain"] += min(trials, 100)
    if every or suite == "pair-spacing":
        want["pair-spacing"] += trials
    if every or suite == "radius":
        for lemma in ("numerical-radius", "numerical-radius-normalized",
                      "numerical-radius-extremal"):
            want[lemma] += trials
        want["schur-floor"] += 1
        want["schur-ceiling"] += 1
    if every or suite == "chain":
        for lemma in ("s-bound", "mu-chain", "mv2-proven", "chain-gap"):
            want[lemma] += trials + 2
    if every or suite == "alpha-properties":
        configs = _alpha_configs(trials, seed)
        per_config = [f"alpha-symmetry-{a:g}" for a in ALPHA_GRID]
        per_config += [f"alpha-monotone-{lo:g}-{hi:g}"
                       for lo, hi in zip(ALPHA_GRID[:-1], ALPHA_GRID[1:])]
        per_config += ["alpha-pi2over3-at-1", "alpha-crude-bound",
                       "alpha-n-monotone-0", "alpha-n-monotone-1"]
        for lemma in per_config:
            want[lemma] += len(configs)
        want["alpha-hoelder"] += sum(_hoelder_count(s, n) for s, n in configs)
        want["cluster-growth-alpha0"] += 1
        for a in (0.0, 0.5, 1.0):
            want[f"cluster-dominates-{a:g}"] += 1
    if every or suite == "trig":
        want["periodized-shrink"] += trials
        want["torus-gaps"] += min(trials, 50)
        want["trig-rotation-invariance"] += 2
        for lemma in ("periodized-m2-k200", "l-sum-residual-b0.3", "l-sum-residual-b0.5",
                      "l-sum-residual-b0.7", "cot-limit-k1", "cot-limit-shrinks",
                      "kappa1-consistency", "construction-finite-cap",
                      "lower-bound-soundness"):
            want[lemma] += 1
    return +want


def verify(code: int, stdout: str, *, suite: str, trials: int, seed: int) -> list[str]:
    """Exit 0, every verdict holds, and no lemma is missing or short of records."""
    problems: list[str] = []
    payload = _load(code, stdout, problems)
    if payload is None:
        return problems
    if payload.get("all_hold") is not True:
        problems.append("all_hold is not true")
    got = Counter(rec["lemma"] for rec in payload.get("results", []))
    want = expected_verify_counts(suite, trials, seed)
    if got != want:
        diff = {lemma: (got[lemma], want[lemma]) for lemma in set(got) | set(want)
                if got[lemma] != want[lemma]}
        problems.append(f"record counts (got, want) differ: {diff}")
    return problems


# ---- constant -----------------------------------------------------------

def constant(code: int, stdout: str, *, config: str, alpha: float, n: int,
             seed: int) -> list[str]:
    """The witness is a unit nonnegative eigenvector of the kernel for the value."""
    problems: list[str] = []
    payload = _load(code, stdout, problems)
    if payload is None:
        return problems
    rec = payload["results"][0]
    value = float(rec["value"])
    witness = np.asarray(rec["witness"], dtype=float)
    if witness.size != n:
        return problems + [f"witness has {witness.size} entries, want {n}"]
    if np.min(witness) < 0.0:
        problems.append("witness has a negative entry")
    if abs(float(np.linalg.norm(witness)) - 1.0) > 1e-9:
        problems.append("witness is not a unit vector")
    kernel = sym_kernel(config_nodes(config, n, seed), alpha)
    residual = float(np.linalg.norm(kernel @ witness - value * witness))
    if not residual <= RESIDUAL_RTOL * value:
        problems.append(f"residual {residual:.3e} exceeds {RESIDUAL_RTOL:g} * {value}")
    if config == "uniform" and alpha == 1.0:
        floor = uniform_floor(n)
        if not floor < value < PI2_OVER_3:
            problems.append(f"value {value} outside ({floor}, pi^2/3)")
    return problems


# ---- search -------------------------------------------------------------

def search(code: int, stdout: str, *, alpha: float, n: int, seed: int) -> list[str]:
    """The climb ends no lower than any start and no lower than the reference floor."""
    problems: list[str] = []
    payload = _load(code, stdout, problems)
    if payload is None:
        return problems
    rec = payload["results"][0]
    value = float(rec["value"])
    starts = ("uniform", "cluster", "trig-periodized", f"random-{seed}")
    label = str(rec["config"]).removeprefix("search:")
    if label not in starts:
        problems.append(f"unknown start label {rec['config']!r}")
    start_best = max(float(np.linalg.eigvalsh(sym_kernel(config_nodes(s, n, seed), alpha))[-1])
                     for s in starts)
    if value < start_best * (1.0 - 1e-11):
        problems.append(f"value {value} below the best start value {start_best}")
    floor = SEARCH_FLOOR.get(n)
    if floor is not None and value < floor - 1e-9:
        problems.append(f"value {value} below the reference floor {floor}")
    return problems


# ---- torus --------------------------------------------------------------

def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def torus(code: int, stdout: str, *, grid: tuple[int, int, int],
          csv_path: str | None) -> list[str]:
    """Argmax at the known (K, x) with G above the headline bound; CSV bytes
    match the reference digest, or stdout carries every scan row."""
    problems: list[str] = []
    payload = _load(code, stdout, problems)
    if payload is None:
        return problems
    best = payload["results"][0]
    k_want, x_want = SCAN_ARGMAX[grid]
    if not (best.get("argmax") and best["K"] == k_want and abs(best["x"] - x_want) < 1e-11):
        problems.append(f"argmax at K={best.get('K')}, x={best.get('x')}; "
                        f"want K={k_want}, x={x_want:.12g}")
    if not best["G"] > HEADLINE_G:
        problems.append(f"max G {best['G']} not above {HEADLINE_G}")
    k_min, k_max, steps = grid
    rows = (k_max - k_min + 1) * steps
    if csv_path is None:
        if len(payload["results"]) != 1 + rows:
            problems.append(f"{len(payload['results']) - 1} scan rows on stdout, want {rows}")
        return problems
    want = CSV_SHA256[grid]
    try:
        got = sha256_file(csv_path)
    except OSError as exc:
        return problems + [f"cannot read {csv_path}: {exc}"]
    if got != want:
        problems.append(f"CSV sha256 {got} differs from reference {want}")
    return problems

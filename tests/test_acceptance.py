"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line."""
import json
import math
import time

import numpy as np
import pytest

from hilbertlab import (
    GapSequence,
    big_g,
    estimate_constant,
    generate_uniform,
    preissmann_chain,
    two_forms_bound,
    uniform_lower_bound,
)
from hilbertlab.cli import dispatch
from hilbertlab.suites import (
    suite_alpha,
    suite_pair_spacing,
    suite_selberg,
    suite_spacing,
    suite_trig,
)

PI2_OVER_3 = math.pi ** 2 / 3.0


def verdict(num: str, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def failing(records):
    return [r for r in records if not r["holds"]]


class TestAcceptance:
    def test_01_headline_lower_bound(self, capsys):
        start = time.perf_counter()
        code = dispatch(["lower-bound", "--point", "5", "0.14"])
        elapsed = time.perf_counter() - start
        out = capsys.readouterr().out
        g = json.loads(out)["results"][0]["G"]
        ok = code == 0 and 0.35047 < g < 0.3506 and elapsed < 1.0
        verdict("1", ok, f"G={g:.10f} in (0.35047, 0.3506), {elapsed:.3f}s < 1s")

    def test_02_barrier_constant(self):
        g = big_g(5, 0.14).g_value
        bound = two_forms_bound(math.pi ** 2 * g)
        ok = bound >= 3.19497
        verdict("2", ok, f"two_forms_bound(pi^2*G) = {bound:.7f} >= 3.19497")

    def test_03_preissmann_chain(self):
        chain = preissmann_chain()
        residual = abs(chain.c3_upper ** 2 - chain.t_coeff * chain.c3_upper - chain.s_coeff)
        closed = math.pi * math.sqrt(1.0 + (2.0 / 3.0) * math.sqrt(6.0 / 5.0))
        ok = (residual <= 1e-9
              and chain.c1_upper < 4.0 * math.pi / 3.0
              and abs(chain.c1_upper - closed) <= 1e-10)
        verdict("3", ok, f"root residual {residual:.2e} <= 1e-9, "
                         f"c1={chain.c1_upper:.9f} < 4pi/3, |c1 - closed| <= 1e-10")

    def test_04_figure_reproduction(self, capsys, tmp_path):
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        start = time.perf_counter()
        code = dispatch(["figure", "--out", str(paths[0])])
        elapsed = time.perf_counter() - start
        dispatch(["figure", "--out", str(paths[1])])
        out = capsys.readouterr().out
        argmax = json.loads(out.split("\n{", 1)[0])["results"][0]
        stable = paths[0].read_bytes() == paths[1].read_bytes()
        n_rows = len(paths[0].read_text().splitlines()) - 1
        ok = (code == 0 and elapsed < 60.0 and stable and n_rows == 25 * 99
              and argmax["K"] == 5 and argmax["x"] == pytest.approx(0.84)
              and argmax["G"] > 0.35047)
        verdict("4", ok, f"argmax (K={argmax['K']}, x={argmax['x']}), G={argmax['G']:.7f}, "
                         f"{n_rows} rows, byte-stable={stable}, {elapsed:.2f}s < 60s")

    def test_05_exact_finite_constants(self):
        configs = (generate_uniform(2, 1.0),
                   generate_uniform(2, 0.37),
                   GapSequence([-5.0, 0.0, 2.0, 9.0]))
        worst = 0.0
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0):
            for seq in configs:
                worst = max(worst, abs(estimate_constant(alpha, seq).value - 1.0))
        single = estimate_constant(1.0, generate_uniform(1, 1.0)).value
        ok = worst <= 1e-9 and single == 0.0
        verdict("5", ok, f"max |value-1| = {worst:.2e} over 5 alphas x 3 configs, N=1 gives {single}")

    def test_06a_uniform_lower_bound_floor(self):
        value = uniform_lower_bound(10 ** 4)
        # exact value is 3.2877106225 (brute-force double loop agrees to
        # 1e-12), so the stated floor 3.2878 is not attainable at n = 10^4
        ok = value >= 3.2878
        verdict("6a", ok, f"uniform_lower_bound(1e4) = {value:.10f} >= 3.2878")

    def test_06b_squeeze_at_desk_scale(self):
        start = time.perf_counter()
        lower = uniform_lower_bound(200)
        value = estimate_constant(1.0, generate_uniform(200, 1.0)).value
        elapsed = time.perf_counter() - start
        ok = lower < value < PI2_OVER_3 + 1e-9 and elapsed < 10.0
        verdict("6b", ok, f"{lower:.7f} < {value:.7f} < pi^2/3 + 1e-9, {elapsed:.2f}s < 10s")

    def test_07_identity_suite(self):
        records = suite_selberg(trials=100, max_n=12, seed=0)
        bad = failing(records)
        worst = max(r["lhs"] for r in records)
        ok = len(records) == 100 and not bad
        verdict("7", ok, f"selberg residuals over {len(records)} instances, "
                         f"worst rel {worst:.2e} < 1e-8, failures {len(bad)}")

    def test_08_spacing_suites(self):
        spacing = suite_spacing(trials=1000, seed=0)
        pairs = suite_pair_spacing(trials=500, seed=0)
        bad = failing(spacing) + failing(pairs)
        by_kind = {}
        for r in spacing:
            key = r["lemma"].split("-sigma")[0]
            by_kind[key] = by_kind.get(key, 0) + 1
        counts_ok = (by_kind.get("preissmann-spacing") == 4000
                     and by_kind.get("equidistance") == 1000
                     and by_kind.get("smoothing-monovariant") == 1000
                     and by_kind.get("fn-upper") == 1000
                     and by_kind.get("spacing-uniform-window") == 1
                     and len(pairs) == 500)
        window = next(r for r in spacing if r["lemma"] == "spacing-uniform-window")
        ok = not bad and counts_ok and window["holds"]
        verdict("8", ok, f"{len(spacing)} spacing + {len(pairs)} pair records, "
                         f"uniform window gap {window['lhs']:.2e} < 3e-6, failures {len(bad)}")

    def test_09_alpha_structure(self):
        records = suite_alpha(trials=20, seed=0)
        bad = failing(records)
        ratio = next(r for r in records if r["lemma"] == "cluster-growth-alpha0")
        ok = not bad and ratio["lhs"] >= 1.8
        verdict("9", ok, f"{len(records)} alpha-structure records, "
                         f"cluster ratio {ratio['lhs']:.3f} >= 1.8, failures {len(bad)}")

    def test_10_trig_line_equivalence(self):
        records = suite_trig(trials=20, seed=0)
        bad = failing(records)
        shrink = [r for r in records if r["lemma"] == "periodized-shrink"]
        k200 = next(r for r in records if r["lemma"] == "periodized-m2-k200")
        lsum = [r for r in records if r["lemma"].startswith("l-sum-residual")]
        ok = (not bad and len(shrink) == 20 and k200["lhs"] < 0.02 and len(lsum) == 3)
        verdict("10", ok, f"{len(shrink)} shrink configs, K=200 rel gap {k200['lhs']:.4f} < 2%, "
                          f"l-sum residual stable on {len(lsum)} B values, failures {len(bad)}")

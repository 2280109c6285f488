import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertlab import (
    big_g,
    construction_config,
    construction_form_value,
    cot_limit_check,
    g_of_u,
    kappas,
    l_sum,
    periodized_equivalence_check,
    scan,
    trig_config,
    trig_form_value,
)
import hilbertlab.lowerbound as lowerbound
from hilbertlab._util import cotpi, sinpi_abs
from hilbertlab.errors import (
    AOutOfRange,
    CotangentPole,
    LengthMismatch,
    NegativeEntry,
    NonFinite,
    SeparationTooSmall,
)
from hilbertlab.lowerbound import maximize_g, periodize, toroidal_gaps
from hilbertlab.quadforms import q_alpha

# independent high-precision values (mpmath, 40 digits) for K=5, A=0.14
KAPPA0_5_014 = 0.24397332105959524
KAPPA1_5_014 = 0.085449651042534327
G_5_014 = 0.35047333742141797


def scalar_scan_point(k, x):
    """One scan point by per-point arithmetic: Python floats, math.sqrt
    and ** around numpy sums over the coarse points j. Returns the fields
    (K, x, A, B, kappa0, kappa1, u_star, G) of its scan row."""
    a = x / (k + 1)
    b = 1.0 - (k + 1) * a
    kappa0 = a * a / 3.0
    if k > 1:
        j_head = np.arange(1, k, dtype=float)
        kappa0 += (2.0 * a * a / k) * float(np.sum((k - j_head) / sinpi_abs(j_head * a) ** 2))
    j_full = np.arange(1, k + 1, dtype=float)
    kappa1 = (2.0 / math.pi) * math.sqrt(a ** 3 / (b * k)) * float(np.sum(cotpi(j_full * a)))
    if kappa1 > 1e-14:
        root = math.sqrt((1.0 / 3.0 - kappa0) ** 2 + kappa1 ** 2)
        u_star, g = (1.0 / 3.0 - kappa0 + root) / kappa1, 0.5 * (1.0 / 3.0 + kappa0 + root)
    elif kappa0 >= 1.0 / 3.0:
        u_star, g = 0.0, kappa0
    else:
        u_star, g = math.inf, 1.0 / 3.0
    return (k, x, a, b, kappa0, kappa1, u_star, g)


def table_columns(table):
    """The scan's columns in the field order of scalar_scan_point."""
    return (table.k, table.x, table.a, table.b, table.kappa0, table.kappa1, table.u_star,
            table.g_value)


def random_config(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    while True:
        pts = np.sort(rng.uniform(0.0, 1.0, m))
        sep = min(float(np.min(np.diff(pts))), float(pts[0] + 1.0 - pts[-1]))
        if sep > 0.02:
            break
    return trig_config(pts, rng.uniform(0.1, 1.0, m))


class TestTrigConfig:
    def test_single_point_conventional_gap(self):
        cfg = trig_config([0.3], [1.0])
        assert np.array_equal(cfg.gaps, [1.0])

    def test_two_antipodal_points(self):
        cfg = trig_config([0.0, 0.5], [1.0, 1.0])
        assert np.allclose(cfg.gaps, [0.5, 0.5])

    def test_rejects_near_coincident_points(self):
        with pytest.raises(SeparationTooSmall):
            trig_config([0.1, 0.1 + 1e-12], [1.0, 1.0])

    def test_rejects_mismatched_weights(self):
        with pytest.raises(LengthMismatch):
            trig_config([0.1, 0.5], [1.0])

    def test_rejects_negative_weights(self):
        with pytest.raises(NegativeEntry):
            trig_config([0.1, 0.5], [1.0, -1.0])

    @pytest.mark.parametrize("seed", range(40))
    def test_gaps_match_all_pairs_oracle_exactly(self, seed):
        cfg = random_config(seed)
        pts = cfg.points
        brute = np.array([
            min(min(abs(p - q), 1.0 - abs(p - q)) for q in np.delete(pts, j))
            for j, p in enumerate(pts)
        ])
        assert np.array_equal(cfg.gaps, brute)
        assert np.array_equal(toroidal_gaps(pts), brute)


class TestNonFiniteInput:
    """Inputs that once flowed through as NaN now raise."""

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_trig_config_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite):
            trig_config([0.1, bad], [1.0, 1.0])
        with pytest.raises(NonFinite):
            trig_config([0.1, 0.5], [1.0, bad])

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_construction_config_rejects_non_finite_u(self, bad):
        with pytest.raises(NonFinite):
            construction_config(5, 0.14, 20, bad)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_g_of_u_rejects_non_finite(self, bad):
        for args in ((0.2, 0.1, bad), (bad, 0.1, 0.2), (0.2, bad, 0.2)):
            with pytest.raises(NonFinite):
                g_of_u(*args)

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_maximize_g_rejects_non_finite(self, bad):
        for args in ((bad, 0.1), (0.2, bad),
                     (np.array([0.2, bad]), np.array([0.1, 0.1])),
                     (np.array([0.2, 0.2]), np.array([0.1, bad]))):
            with pytest.raises(NonFinite):
                maximize_g(*args)


class TestTrigFormValue:
    def test_single_point(self):
        assert trig_form_value(trig_config([0.2], [1.0])) == pytest.approx(1 / 3, rel=1e-15)

    def test_two_antipodal_points(self):
        value = trig_form_value(trig_config([0.0, 0.5], [1.0, 1.0]))
        assert value == pytest.approx(1 / 6 + 1 / 2, rel=1e-14)

    @pytest.mark.parametrize("shift", [0.123, 0.777])
    def test_rotation_invariance_equal_weights(self, shift):
        pts = np.arange(8) / 8.0
        tau = np.full(8, 0.7)
        v0 = trig_form_value(trig_config(pts, tau))
        v1 = trig_form_value(trig_config(pts + shift, tau))
        assert v1 == pytest.approx(v0, rel=1e-12)

    def test_matches_double_loop_oracle(self):
        cfg = random_config(3)
        d, tau, x = cfg.gaps, cfg.weights, cfg.points
        total = float(np.sum(d ** 2 * tau ** 2)) / 3.0
        for m in range(cfg.m):
            for n in range(cfg.m):
                if m != n:
                    total += (d[m] ** 1.5 * d[n] ** 0.5 * tau[m] * tau[n]
                              / math.sin(math.pi * (x[m] - x[n])) ** 2)
        assert trig_form_value(cfg) == pytest.approx(total, rel=1e-12)

    def test_close_pair_against_mpmath(self):
        # differences of both signs, two of them within 3e-9 of zero
        cfg = trig_config([0.1, 0.1 + 3e-9, 0.6], [1.0, 0.5, 0.7])
        d, tau, x = ([mpmath.mpf(v) for v in arr.tolist()]
                     for arr in (cfg.gaps, cfg.weights, cfg.points))
        with mpmath.workdps(50):
            total = sum(d[m] ** 2 * tau[m] ** 2 for m in range(cfg.m)) / 3
            for m in range(cfg.m):
                for n in range(cfg.m):
                    if m != n:
                        total += (d[m] ** 1.5 * d[n] ** 0.5 * tau[m] * tau[n]
                                  / mpmath.sin(mpmath.pi * (x[m] - x[n])) ** 2)
            want = float(total)
        assert trig_form_value(cfg) == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("weight", (1e200, 3e154))
    def test_overflowing_weights_raise(self, weight):
        # 1e200 overflows each pair's product, 3e154 only their sum
        with pytest.raises(NonFinite):
            trig_form_value(trig_config([0.0, 0.5], [weight, weight]))

    def test_row_blocks_that_overflow_together_raise(self):
        # 1024 equispaced points: each 512-row block sums to about
        # 512 w^2 / 3 < 1.8e308, both blocks together overflow
        m = 2 * lowerbound._BLOCK
        cfg = trig_config(np.arange(m) / m, np.full(m, 8.5e152))
        with pytest.raises(NonFinite):
            trig_form_value(cfg)

    def test_finite_construction_approaches_closed_form(self):
        res = big_g(5, 0.14)
        cfg = construction_config(5, 0.14, 2000, res.u_star)
        value = trig_form_value(cfg) / (1.0 + res.u_star ** 2)
        assert abs(value - res.g_value) < 2e-3


class TestPeriodization:
    def test_line_deltas_reproduce_torus_gaps(self):
        cfg = random_config(11)
        seq, t = periodize(cfg, 5)
        assert seq.n == 5 * cfg.m
        assert np.allclose(seq.deltas, np.tile(cfg.gaps, 5), rtol=1e-12)
        assert np.array_equal(t.values, np.tile(cfg.weights, 5))

    @pytest.mark.parametrize("k", [2, 3, 50, 100])
    @pytest.mark.parametrize("m", range(1, 7))
    def test_line_side_matches_the_tiled_window(self, m, k):
        rng = np.random.default_rng(100 * m + k)
        pts = (np.arange(m) + rng.uniform(0.1, 0.9, m)) / m
        cfg = trig_config(pts, rng.uniform(0.1, 1.0, m))
        seq, t = periodize(cfg, k)
        tiled = q_alpha(seq, t, 0.5) / (math.pi ** 2 * k)
        assert periodized_equivalence_check(cfg, k).line_side == pytest.approx(tiled, rel=1e-12)

    def test_builds_no_tiled_window(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the tiled window was built")
        monkeypatch.setattr(lowerbound, "periodize", refuse)
        monkeypatch.setattr(lowerbound, "q_alpha", refuse, raising=False)
        rep = periodized_equivalence_check(random_config(4), 100)
        assert math.isfinite(rep.line_side) and rep.line_side > 0.0

    def test_overflowing_terms_raise(self):
        cfg = trig_config([0.0, 0.5], [1e200, 1e200])
        with pytest.raises(NonFinite):
            periodized_equivalence_check(cfg, 4, trig_side=1.0)

    def test_reference_gap_at_two_hundred_periods(self):
        cfg = trig_config([0.0, 0.5], [1.0, 1.0])
        rep = periodized_equivalence_check(cfg, 200)
        assert abs(rep.gap) < 0.02 * rep.trig_side

    def test_zero_weights_vanish(self):
        cfg = trig_config([0.0, 0.5], [0.0, 0.0])
        rep = periodized_equivalence_check(cfg, 4)
        assert rep.line_side == 0.0 and rep.trig_side == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_doubling_periods_shrinks_gap(self, seed):
        cfg = random_config(seed)
        g1 = abs(periodized_equivalence_check(cfg, 50).gap)
        g2 = abs(periodized_equivalence_check(cfg, 100).gap)
        assert g2 < g1

    def test_requires_two_periods(self):
        with pytest.raises(ValueError):
            periodized_equivalence_check(trig_config([0.0, 0.5], [1.0, 1.0]), 1)

    @pytest.mark.parametrize("seed", range(5))
    def test_given_trig_side_gives_the_same_report(self, seed):
        cfg = random_config(seed)
        assert (periodized_equivalence_check(cfg, 50, trig_form_value(cfg))
                == periodized_equivalence_check(cfg, 50))

    def test_trig_suite_computes_the_torus_form_once_per_trial(self, monkeypatch):
        from hilbertlab import suites
        configs = []

        def recording(cfg):
            configs.append(cfg)
            return trig_form_value(cfg)

        monkeypatch.setattr(suites, "trig_form_value", recording)
        monkeypatch.setattr(lowerbound, "trig_form_value", recording)
        trials = 4
        records = suites.suite_trig(trials=trials, seed=2)
        shrink = [r for r in records if r["lemma"] == "periodized-shrink"]
        assert len(shrink) == trials and all(r["holds"] for r in shrink)
        # each configuration the suite checks has its torus form computed once
        assert len(configs) == len({id(c) for c in configs})


class TestLSum:
    def test_single_term(self):
        assert l_sum(0.5, 1) == pytest.approx(1.0, rel=1e-15)

    def test_two_terms(self):
        assert l_sum(0.5, 2) == pytest.approx(5.0, rel=1e-14)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            l_sum(1.0, 5)
        with pytest.raises(ValueError):
            l_sum(0.5, 0)

    @pytest.mark.parametrize("b", [0.3, 0.5, 0.7])
    def test_residual_stable_under_doubling(self, b):
        def residual(ll):
            return (l_sum(b, ll) - ll ** 3 / (6 * b * b)
                    + ll * ll * math.log(ll) / (math.pi ** 2 * b * b)) / ll ** 2

        r = [residual(ll) for ll in (500, 1000, 2000)]
        assert abs(r[1] / r[0] - 1.0) < 0.05
        assert abs(r[2] / r[1] - 1.0) < 0.05


class TestKappas:
    def test_single_coarse_point_closed_form(self):
        kappa0, kappa1 = kappas(1, 0.25)
        assert kappa0 == pytest.approx(0.25 ** 2 / 3, rel=1e-15)
        # cot(pi/4) = 1, B = 1/2
        assert kappa1 == pytest.approx((2 / math.pi) * math.sqrt(0.25 ** 3 / 0.5), rel=1e-14)

    def test_headline_point_matches_high_precision_oracle(self):
        kappa0, kappa1 = kappas(5, 0.14)
        assert kappa0 == pytest.approx(KAPPA0_5_014, rel=1e-12)
        assert kappa1 == pytest.approx(KAPPA1_5_014, rel=1e-12)
        # spec-level rounding
        assert kappa0 == pytest.approx(0.2440, abs=5e-5)
        assert kappa1 == pytest.approx(0.0854, abs=5e-5)

    def test_small_offset_limits(self):
        kappa0, kappa1 = kappas(1, 1e-4)
        assert kappa0 < 1e-8
        assert kappa1 < 3e-3
        # with several coarse points only kappa_1 vanishes; kappa_0 tends to
        # (2/(pi^2 K)) sum_{j<K} (K-j)/j^2
        kappa0_5, kappa1_5 = kappas(5, 1e-4)
        limit = (2 / (math.pi ** 2 * 5)) * sum((5 - j) / j ** 2 for j in range(1, 5))
        assert kappa0_5 == pytest.approx(limit, abs=1e-6)
        assert kappa1_5 < 3e-3

    def test_rejects_out_of_range_offset(self):
        with pytest.raises(AOutOfRange):
            kappas(5, 1.0 / 6.0)
        with pytest.raises(AOutOfRange):
            kappas(5, 0.0)


class TestArrayForm:
    @pytest.mark.parametrize("k", (1, 2, 5, 9, 25))
    def test_kappas_array_matches_scalar_calls(self, k):
        a = np.linspace(0.01, 0.99, 97) / (k + 1)
        kappa0, kappa1 = kappas(k, a)
        assert kappa0.shape == kappa1.shape == a.shape
        pairs = [kappas(k, value) for value in a.tolist()]
        assert kappa0.tolist() == [p[0] for p in pairs]
        assert kappa1.tolist() == [p[1] for p in pairs]

    def test_maximize_g_array_matches_scalar_calls_on_every_branch(self):
        # closed form, then kappa1 <= 1e-14 with kappa0 above and below 1/3
        kappa0 = np.array([0.24397, 0.5, 0.2, 0.4, 1.0 / 3.0, 0.2, 0.4, 0.2])
        kappa1 = np.array([0.0854, 0.3, 0.0, 0.0, 0.0, -0.1, -0.1, 1e-14])
        u_star, g = maximize_g(kappa0, kappa1)
        pairs = [maximize_g(p, q) for p, q in zip(kappa0.tolist(), kappa1.tolist())]
        assert u_star.tolist() == [p[0] for p in pairs]
        assert g.tolist() == [p[1] for p in pairs]
        assert u_star.tolist()[2:] == [math.inf, 0.0, 0.0, math.inf, 0.0, math.inf]

    def test_one_out_of_range_offset_rejects_the_array(self):
        with pytest.raises(AOutOfRange, match=r"A must lie in \(0, 1/6\), got 0\.2$"):
            kappas(5, np.array([0.1, 0.12, 0.2, 0.14]))

    def test_offset_at_a_pole(self):
        with pytest.raises(CotangentPole):
            kappas(1, 1e-13)
        with pytest.raises(CotangentPole):
            kappas(3, np.array([0.1, 1e-13, 0.2]))

    def test_scalar_input_gives_floats(self):
        for a in (0.14, np.float64(0.14), np.array(0.14)):
            pair = kappas(5, a)
            assert [type(v) for v in pair] == [float, float]
            assert [type(v) for v in maximize_g(*pair)] == [float, float]


class TestGOfU:
    def test_endpoints(self):
        assert g_of_u(0.25, 0.1, 0.0) == 0.25
        assert g_of_u(0.25, 0.1, 1e6) == pytest.approx(1 / 3, abs=1e-5)

    def test_rejects_negative_u(self):
        with pytest.raises(ValueError):
            g_of_u(0.2, 0.1, -1.0)

    def test_stationary_at_maximizer(self):
        res = big_g(5, 0.14)
        val = g_of_u(res.kappa0, res.kappa1, res.u_star)
        assert val == pytest.approx(res.g_value, rel=1e-12)
        eps = 1e-7
        deriv = (g_of_u(res.kappa0, res.kappa1, res.u_star + eps)
                 - g_of_u(res.kappa0, res.kappa1, res.u_star - eps)) / (2 * eps)
        assert abs(deriv) < 1e-6

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(u=st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
    def test_closed_form_dominates_everywhere(self, u):
        res = big_g(5, 0.14)
        assert g_of_u(res.kappa0, res.kappa1, u) <= res.g_value + 1e-12


class TestMaximizeG:
    def test_degenerate_kappa1_above_third(self):
        u_star, g = maximize_g(0.4, 0.0)
        assert (u_star, g) == (0.0, 0.4)

    def test_degenerate_kappa1_below_third(self):
        u_star, g = maximize_g(0.2, 0.0)
        assert u_star == math.inf
        assert g == pytest.approx(1 / 3, rel=1e-15)

    def test_negative_kappa1_uses_endpoint_supremum(self):
        u_star, g = maximize_g(0.2, -0.1)
        assert g == pytest.approx(1 / 3, rel=1e-15)
        grid = np.linspace(0.0, 50.0, 2001)
        values = (0.2 - 0.1 * grid + grid ** 2 / 3) / (1 + grid ** 2)
        assert np.max(values) <= g + 1e-12


class TestBigG:
    def test_headline_bound(self):
        res = big_g(5, 0.14)
        assert res.g_value > 0.35047
        assert res.g_value == pytest.approx(G_5_014, rel=1e-12)
        assert res.b == pytest.approx(0.16, rel=1e-14)

    def test_never_below_one_third(self):
        for k in (1, 2, 5, 9):
            for frac in (0.05, 0.3, 0.6, 0.95):
                res = big_g(k, frac / (k + 1))
                assert res.g_value >= 1 / 3 - 1e-12


class TestScan:
    def test_figure_grid_argmax(self):
        table = scan(1, 25, 99)
        assert {column.shape for column in table_columns(table)} == {(25 * 99,)}
        assert (table.k[table.best], table.x[table.best]) == (5, 0.84)
        assert table.g_value[table.best] > 0.35047

    def test_rows_sorted_and_positive_b(self):
        table = scan(1, 1, 9)
        points = list(zip(table.k.tolist(), table.x.tolist()))
        assert points == sorted(points)
        assert np.all(table.b > 0)

    def test_grid_refinement_never_decreases_argmax(self):
        coarse = scan(1, 12, 49)
        fine = scan(1, 12, 99)
        assert fine.g_value[fine.best] >= coarse.g_value[coarse.best]

    def test_rows_equal_per_point_arithmetic_exactly(self):
        table = scan(1, 40, 400)
        expected = [scalar_scan_point(k, i / 401) for k in range(1, 41) for i in range(1, 401)]
        got = [column.tolist() for column in table_columns(table)]
        assert got == [list(field) for field in zip(*expected)]
        assert all(type(v) is int for v in got[0])
        assert all(type(v) is float for column in got[1:] for v in column)
        g_values = got[-1]
        assert table.best == g_values.index(max(g_values))

    def test_columns_read_only(self):
        table = scan(1, 3, 9)
        for column in table_columns(table):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_one_kappas_call_per_k(self, monkeypatch):
        calls = []
        real = lowerbound.kappas

        def counting(k, a):
            calls.append(k)
            return real(k, a)

        def per_point(*args):
            raise AssertionError("scan evaluated a single point")

        monkeypatch.setattr(lowerbound, "kappas", counting)
        monkeypatch.setattr(lowerbound, "big_g", per_point)
        table = scan(2, 6, 50)
        assert calls == [2, 3, 4, 5, 6]
        assert table.k.size == 5 * 50

    def test_soundness_against_chain_upper_bound(self):
        cap = (1 + math.sqrt(1.2)) / 3.0
        assert scan(1, 25, 33).g_value.max() <= cap + 1e-9


class TestCotLimit:
    def test_single_point_riemann_convergence(self):
        rep = cot_limit_check(1, 0.25, 4000)
        assert abs(rep.gap) / abs(rep.closed) < 1e-2
        assert rep.shrinks

    @pytest.mark.parametrize("k,a", [(1, 0.25), (5, 0.14), (3, 0.2)])
    def test_doubling_shrinks_gap(self, k, a):
        assert cot_limit_check(k, a, 400).shrinks

    def test_closed_form_consistent_with_kappa1(self):
        rep = cot_limit_check(5, 0.14, 10)
        b = 1.0 - 6 * 0.14
        implied = rep.closed * math.sqrt(0.14 ** 3 * b / 5.0)
        _, kappa1 = kappas(5, 0.14)
        assert implied == pytest.approx(kappa1, rel=1e-12)


class TestConstructionFormValue:
    @pytest.mark.parametrize("k, a", [(k, a) for k in (1, 2, 3, 5, 8)
                                      for a in (0.05, 0.1, 0.14) if (k + 1) * a < 1.0])
    def test_matches_the_dense_form(self, k, a):
        b = 1.0 - (k + 1) * a
        for ll in (math.ceil(b / a), 50, 300, 1200, 2000):
            for u in (0.0, 0.5, 1.0, 3.0):
                want = trig_form_value(construction_config(k, a, ll, u))
                got = construction_form_value(k, a, ll, u)
                assert got == pytest.approx(want, rel=1e-11, abs=0.0), (ll, u)

    @pytest.mark.parametrize("k, a, ll, u", (
        (5, 0.14, 20, -1.0),          # negative u
        (5, 0.14, 20, math.nan),      # u < 0 is False on NaN
        (5, 0.14, 20, math.inf),
        (5, 0.14, 20, -math.inf),
        (1, 0.1, 7, 1.0),             # L < B/A = 8
        (3, 0.1, 5, 1.0),             # L < B/A = 6
        (1, 0.1, 7, math.nan),
        (1, 0.1, 10 ** 9, 1.0),       # cluster spacing 8e-10, rejected before allocating
        (0, 0.14, 20, 1.0),           # K < 1
        (5, 0.2, 20, 1.0),            # A >= 1/(K+1)
        (5, -0.1, 20, 1.0),
        (1, 1e-13, 20, 1.0),          # sin(pi A) below the pole floor
    ))
    def test_rejects_what_construction_config_rejects(self, k, a, ll, u):
        with pytest.raises(Exception) as expected:
            construction_config(k, a, ll, u)
        with pytest.raises(Exception) as got:
            construction_form_value(k, a, ll, u)
        assert type(got.value) is type(expected.value)
        if not math.isfinite(u):
            assert type(got.value) is NonFinite
        if ll == 10 ** 9:
            assert type(got.value) is SeparationTooSmall

    def test_overflowing_u_raises(self):
        with pytest.raises(NonFinite):
            construction_form_value(5, 0.14, 20, 1e200)

    def test_rises_toward_the_closed_form(self):
        # the L -> infinity limit G_5(0.14), approached from below
        res = big_g(5, 0.14)
        values = [construction_form_value(5, 0.14, ll, res.u_star) / (1.0 + res.u_star ** 2)
                  for ll in (10 ** 3, 2 * 10 ** 3, 10 ** 4, 4 * 10 ** 4)]
        assert all(lo < hi for lo, hi in zip(values, values[1:]))
        assert values[-1] < res.g_value

    def test_trig_suite_forms_no_large_configuration_densely(self, monkeypatch):
        from hilbertlab import suites
        sizes = []

        def recording(cfg):
            sizes.append(cfg.m)
            return trig_form_value(cfg)

        monkeypatch.setattr(suites, "trig_form_value", recording)
        monkeypatch.setattr(lowerbound, "trig_form_value", recording)
        suites.suite_trig(trials=4, seed=2)
        assert sizes and max(sizes) <= 64


class TestConstructionConfig:
    def test_rejects_coarse_cluster(self):
        # B/A = 8, so L must be at least 8
        with pytest.raises(ValueError):
            construction_config(1, 0.1, 4, 1.0)

    def test_point_and_weight_layout(self):
        cfg = construction_config(5, 0.14, 20, 2.0)
        assert cfg.m == 5 + 21
        assert np.min(cfg.weights) > 0
        # coarse points keep gap A, cluster points B/L
        assert np.sum(np.isclose(cfg.gaps, 0.14, rtol=1e-9)) == 5
        assert np.sum(np.isclose(cfg.gaps, 0.16 / 20, rtol=1e-9)) == 21

    def test_finite_values_increase_toward_closed_form(self):
        res = big_g(5, 0.14)
        values = []
        for ll in (1000, 2000):
            cfg = construction_config(5, 0.14, ll, res.u_star)
            values.append(trig_form_value(cfg) / (1.0 + res.u_star ** 2))
        assert values[0] < values[1] <= res.g_value + 5e-3

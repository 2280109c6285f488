import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertlab import (
    check_equidistance,
    check_fn_upper,
    check_smoothing_monovariant,
    f_n_functional,
    generate_random,
    generate_uniform,
    pair_spacing_margins,
    pair_spacing_sum,
    spacing_sum,
    zeta,
)
from hilbertlab.errors import (
    EpsTooLarge,
    IndexOutOfRange,
    NonFinite,
    NotDescendingAtNu,
    SameIndex,
    SigmaOutOfRange,
)
from hilbertlab.spacing import _TERM_CHUNK, _pairwise_sum, shan_split, spacing_bound_report
from hilbertlab.suites import PAIR_SPACING_MAX_N, _random_seq, suite_pair_spacing

PI2_OVER_3 = math.pi ** 2 / 3.0

# 10^8-term brute sum of k^-1.5 plus the integral tail, frozen from the
# oracle below
ZETA_15_BRUTE = 2.612375348685990


def zeta_brute_force(sigma: float, terms: int = 10**8, chunk: int = 10**7) -> float:
    parts = []
    start = 1
    while start <= terms:
        stop = min(terms, start + chunk - 1)
        k = np.arange(start, stop + 1, dtype=float)
        parts.append(float(np.sum(k ** -sigma)))
        start = stop + 1
    return math.fsum(parts) + terms ** (1 - sigma) / (sigma - 1)


class TestZeta:
    def test_classical_values(self):
        assert zeta(2.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-12)
        assert zeta(4.0) == pytest.approx(math.pi ** 4 / 90, rel=1e-12)

    def test_against_brute_force_oracle(self):
        fresh = zeta_brute_force(1.5)
        assert fresh == pytest.approx(ZETA_15_BRUTE, abs=1e-12)
        assert zeta(1.5) == pytest.approx(ZETA_15_BRUTE, rel=1e-10)

    def test_rejects_sigma_at_most_one(self):
        with pytest.raises(SigmaOutOfRange):
            zeta(1.0)
        with pytest.raises(SigmaOutOfRange):
            zeta(0.5)

    def test_strictly_decreasing_to_one(self):
        values = [zeta(s) for s in (1.1, 1.5, 2.0, 3.0, 5.0, 10.0, 30.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        # zeta(sigma) - 1 ~ 2^-sigma
        assert abs(zeta(30.0) - 1.0 - 2.0 ** -30) < 1e-14


class TestFnFunctional:
    def test_unit_gaps_partial_zeta(self):
        value = f_n_functional(np.ones(4), 2.0, 3)
        assert value == pytest.approx(1 + 1 / 4 + 1 / 9, rel=1e-15)

    def test_two_entry_example(self):
        assert f_n_functional([2.0, 1.0], 2.0, 1) == pytest.approx(0.25, rel=1e-15)

    def test_needs_one_extra_entry(self):
        with pytest.raises(IndexOutOfRange):
            f_n_functional([2.0, 1.0], 2.0, 2)

    @pytest.mark.parametrize("seed", range(30))
    def test_bounded_by_zeta(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.2, 4.0, int(rng.integers(2, 40)))
        a[0] = 1.0 + rng.uniform(0.0, 3.0)
        rep = check_fn_upper(a, 2.0, seed=seed)
        assert rep["holds"]

    def test_sharp_for_unit_sequence(self):
        # F_N(1,1,...) climbs to zeta(2) like 1/N
        gap = zeta(2.0) - f_n_functional(np.ones(10001), 2.0, 10000)
        assert 0 < gap < 1.1e-4


class TestEquidistance:
    def test_integer_equality_case(self):
        rep = check_equidistance(np.ones(3), 2.0)
        assert rep["holds"]
        assert rep["lhs"] == pytest.approx(rep["rhs"], rel=1e-15)

    def test_fractional_case(self):
        rep = check_equidistance([1.5, 1.5], 2.0)
        # direct evaluation of both sides
        assert rep["lhs"] == pytest.approx(1.5 / 1.5 ** 2 + 1.5 / 3.0 ** 2, rel=1e-15)
        assert rep["rhs"] == pytest.approx(1 + 1 / 4 + 1 / 9, rel=1e-15)
        assert rep["holds"]

    def test_rejects_entries_below_one(self):
        with pytest.raises(ValueError):
            check_equidistance([0.5, 2.0], 2.0)

    def test_rejects_empty_input(self):
        with pytest.raises(IndexOutOfRange):
            check_equidistance([], 2.0)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_sweep_cubic_weight(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(1.0, 5.0, int(rng.integers(2, 30)))
        assert check_equidistance(a, 3.0, seed=seed)["holds"]


class TestSmoothingMonovariant:
    def test_basic_example(self):
        rep = check_smoothing_monovariant([2.0, 1.0, 1.0], 2, 1.0, 2.0)
        assert rep["lhs"] == pytest.approx(1 / 4 + 1 / 9, rel=1e-15)
        assert rep["rhs"] == pytest.approx(1 / 2 + 1 / 16, rel=1e-15)
        assert rep["holds"]

    def test_rejects_zero_eps(self):
        with pytest.raises(EpsTooLarge):
            check_smoothing_monovariant([2.0, 1.0, 1.0], 2, 0.0, 2.0)

    def test_rejects_oversized_eps(self):
        with pytest.raises(EpsTooLarge):
            check_smoothing_monovariant([2.0, 1.0, 1.0], 2, 1.5, 2.0)

    def test_rejects_non_descending(self):
        with pytest.raises(NotDescendingAtNu):
            check_smoothing_monovariant([1.0, 2.0, 1.0], 2, 0.5, 2.0)

    @pytest.mark.parametrize("seed", range(100))
    def test_random_sweep(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(1.0, 5.0, int(rng.integers(3, 30)))
        if not a[0] > a[1]:
            a[0], a[1] = a[1] + 0.5, a[0]
        eps = float(rng.uniform(0.05, 1.0)) * (a[0] - a[1])
        rep = check_smoothing_monovariant(a, 2, eps, 2.0, seed=seed)
        assert rep["holds"]


class TestSpacingSum:
    def test_uniform_large_window_sigma2(self):
        window = 10**6
        seq = generate_uniform(2 * window + 1, 1.0)
        value = spacing_sum(seq, window + 1, 2.0)
        # truncation misses ~2/window of the series
        assert abs(value - PI2_OVER_3) < 3e-6

    def test_uniform_window_sigma4(self):
        seq = generate_uniform(2001, 1.0)
        value = spacing_sum(seq, 1001, 4.0)
        assert abs(value - math.pi ** 4 / 45) < 1e-9

    def test_index_bounds(self):
        seq = generate_uniform(5, 1.0)
        with pytest.raises(IndexOutOfRange):
            spacing_sum(seq, 0, 2.0)
        with pytest.raises(IndexOutOfRange):
            spacing_sum(seq, 6, 2.0)

    @pytest.mark.parametrize("ell", [1, 7, 20])
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.5])
    def test_sums_every_other_index(self, ell, sigma):
        # the edge indices 1 and 20 and an interior one, against a term loop
        seq = generate_random(20, 0.3, 11)
        lam, delta = seq.active, seq.deltas
        terms = [delta[k] / abs(lam[k] - lam[ell - 1]) ** sigma
                 for k in range(seq.n) if k != ell - 1]
        assert len(terms) == seq.n - 1
        assert spacing_sum(seq, ell, sigma) == pytest.approx(math.fsum(terms), rel=1e-14)

    @pytest.mark.parametrize("seed", range(50))
    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0, 4.0])
    def test_bound_on_random_sequences(self, seed, sigma):
        rng = np.random.default_rng(seed)
        seq = generate_random(int(rng.integers(3, 40)), float(rng.uniform(0.05, 1.0)), seed)
        ell = int(rng.integers(1, seq.n + 1))
        rep = spacing_bound_report(seq, ell, sigma, seed=seed)
        assert rep["holds"]
        assert rep["tail_bound"] > 0

    def test_report_sums_the_whole_window(self):
        seq, ell, sigma = generate_random(8, 0.5, 3), 3, 2.5
        centre = seq.active[ell - 1]
        tail = ((centre - seq.nodes[0]) ** (1 - sigma)
                + (seq.nodes[-1] - centre) ** (1 - sigma)) / (sigma - 1)
        rep = spacing_bound_report(seq, ell, sigma)
        assert "deltas" not in vars(seq)
        assert rep["lhs"] == spacing_sum(seq, ell, sigma)
        assert rep["tail_bound"] == pytest.approx(tail, rel=1e-14)

    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0])
    def test_shan_split_reassembles_spacing_sum(self, sigma):
        seq = generate_random(30, 0.5, 7)
        for ell in (1, 11, 30):
            fa, fb = shan_split(seq, ell, sigma)
            combined = seq.delta(ell) ** (sigma - 1) * spacing_sum(seq, ell, sigma)
            assert fa + fb == pytest.approx(combined, rel=1e-10)
            assert fa <= zeta(sigma) + 1e-12
            assert fb <= zeta(sigma) + 1e-12


def spacing_sum_by_index(seq, ell, sigma):
    """spacing_sum as first written: the other indices picked by an index array."""
    idx = np.arange(seq.n)
    idx = idx[idx != ell - 1]
    lam = seq.active
    dist = np.abs(lam[idx] - lam[ell - 1])
    return float(np.sum(seq.deltas[idx] / dist ** sigma))


def pair_spacing_lhs_by_index(seq, ell, m):
    """pair_spacing_sum's lhs as first written, with an index array."""
    lam = seq.active
    idx = np.arange(seq.n)
    idx = idx[(idx != ell - 1) & (idx != m - 1)]
    dl = lam[idx] - lam[ell - 1]
    dm = lam[idx] - lam[m - 1]
    return float(np.sum(seq.deltas[idx] / (dl ** 2 * dm ** 2)))


# seeded random windows of 3 to 69 active nodes, then windows of 1 and 2
WHOLE_WINDOW_CASES = [
    *(generate_random(int(np.random.default_rng(s).integers(3, 70)), 0.05 + 0.1 * s, s)
      for s in range(12)),
    generate_uniform(1, 1.0), generate_random(1, 0.3, 5),
    generate_uniform(2, 0.7), generate_random(2, 0.3, 6),
]


class TestWholeWindowSums:
    """The spacing sums over the whole window, self terms deleted, equal
    the index-array sums bit for bit and hold fewer window-length arrays."""

    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("seq", WHOLE_WINDOW_CASES)
    def test_spacing_sum_every_index(self, seq, sigma):
        for ell in range(1, seq.n + 1):
            assert spacing_sum(seq, ell, sigma) == spacing_sum_by_index(seq, ell, sigma), ell

    @pytest.mark.parametrize("seq", WHOLE_WINDOW_CASES)
    def test_pair_spacing_sum_every_pair(self, seq):
        for ell in range(1, seq.n + 1):
            for m in range(1, seq.n + 1):
                if ell != m:
                    want = pair_spacing_lhs_by_index(seq, ell, m)
                    assert pair_spacing_sum(seq, ell, m)["lhs"] == want, (ell, m)

    def test_spacing_sum_peak(self, traced_peak):
        # the index arrays peaked at 4.0 window-length float arrays beside the
        # cached deltas, the whole-window terms with np.delete at 3.0 with the
        # deltas built, and one array of the n - 1 terms at 1.13; the terms of
        # one leaf of np.sum's tree read 0.13
        n = 2 * 10**5 + 1
        seq = generate_uniform(n, 1.0)
        peak = traced_peak(lambda: spacing_sum(seq, n // 2 + 1, 2.0))
        assert peak <= 0.25 * 8 * n


def spacing_sum_by_delete(seq, ell, sigma):
    """spacing_sum as last written: every term over the whole window, the
    self term deleted before the sum."""
    lam = seq.active
    with np.errstate(divide="ignore"):
        terms = seq.deltas / np.abs(lam - lam[ell - 1]) ** sigma
    return float(np.sum(np.delete(terms, ell - 1)))


def leaf_edges(count):
    """The inner edges of the leaves `_pairwise_sum` cuts count terms into."""
    edges = []

    def leaf(start, stop):
        edges.append(stop)
        return 0.0

    _pairwise_sum(0, count, leaf)
    return edges[:-1]


C = _TERM_CHUNK
# lengths of np.sum's tree splits: a part of c terms splits after
# c//2 - (c//2) % 8, so the leaves change at these counts
SPLIT_EDGES = sorted({c + d for c in (C, 2 * C, 3 * C) for d in (-8, -1, 0, 1, 7, 8, 9, 16, 17)})


class TestPairwiseSum:
    """The tree walk gives np.sum's float bit for bit, so a numpy that sums
    in another order fails here before it moves a pinned digest."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(count=st.one_of(st.integers(1, 3 * C), st.sampled_from(SPLIT_EDGES)),
           seed=st.integers(0, 2**32 - 1), spread=st.integers(0, 60))
    def test_equals_np_sum(self, count, seed, spread):
        # mixed signs and magnitudes up to 2^+-spread, so the order shows
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(count) * 2.0 ** rng.integers(-spread, spread + 1, count)
        got = _pairwise_sum(0, count, lambda start, stop: float(np.sum(x[start:stop])))
        assert np.float64(got).tobytes() == np.sum(x).tobytes()

    def test_leaves_are_at_most_a_chunk(self):
        assert leaf_edges(C) == []
        assert leaf_edges(C + 1) == [C // 2]
        assert leaf_edges(2 * C + 1) == [C, C + C // 2]


# windows of one to three chunks of terms, with the centre next to a chunk edge
CHUNKED_CASES = [(generate_random(n, 0.05 + 0.1 * s, s), ell)
                 for s, (n, ell) in enumerate(((C, C), (C + 1, 1), (C + 1, C + 1), (C + 2, C + 1),
                                               (2 * C + 999, C), (2 * C + 999, 2 * C + 1),
                                               (2 * C + 999, C + 500)))]
# windows of n - 1 terms at the tree's split counts, each summed with its
# self term on either side of every leaf edge and at both ends
LEAF_EDGE_CASES = [(n, ell) for n in (C + 1, C + 2, 2 * C + 1, 2 * C + 2, 3 * C + 8)
                   for ell in sorted({1, n, *(e for edge in leaf_edges(n - 1)
                                              for e in (edge, edge + 1, edge + 2))})]


class TestChunkedSpacingSum:
    """spacing_sum writes its terms a leaf of np.sum's tree at a time,
    skipping the self term, and equals the whole-window sum bit for bit."""

    @pytest.mark.parametrize("sigma", [1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("case", range(len(CHUNKED_CASES)))
    def test_windows_of_several_chunks(self, case, sigma):
        seq, ell = CHUNKED_CASES[case]
        assert spacing_sum(seq, ell, sigma) == spacing_sum_by_delete(seq, ell, sigma)

    @pytest.mark.parametrize("sigma", [1.5, 3.0])
    @pytest.mark.parametrize("n, ell", LEAF_EDGE_CASES)
    def test_self_term_at_leaf_edges(self, n, ell, sigma):
        seq = generate_random(n, 0.2, n)
        assert spacing_sum(seq, ell, sigma) == spacing_sum_by_delete(seq, ell, sigma)

    @pytest.mark.parametrize("n", (3, 2 * 10**5 + 1))
    def test_uniform_windows(self, n):
        seq = generate_uniform(n, 1.0)
        for ell in (1, n // 2 + 1, n):
            assert spacing_sum(seq, ell, 2.0) == spacing_sum_by_delete(seq, ell, 2.0)

    def test_one_node_window(self):
        assert spacing_sum(generate_uniform(1, 1.0), 1, 2.0) == 0.0

    def test_deltas_are_not_built(self):
        seq = generate_random(50, 0.3, 4)
        spacing_sum(seq, 20, 2.0)
        assert "deltas" not in vars(seq)


class TestPairSpacing:
    def test_uniform_adjacent_pair(self):
        rep = pair_spacing_sum(generate_uniform(50, 1.0), 1, 2)
        assert rep["rhs"] == pytest.approx(2 * math.pi ** 2 / 3 - 6, rel=1e-14)
        assert rep["lhs"] < rep["rhs"]
        assert rep["holds"]

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_scale_homogeneity(self, s):
        base = pair_spacing_sum(generate_uniform(40, 1.0), 3, 7)
        scaled = pair_spacing_sum(generate_uniform(40, s), 3, 7)
        assert scaled["lhs"] == pytest.approx(base["lhs"] / s ** 3, rel=1e-12)
        assert scaled["rhs"] == pytest.approx(base["rhs"] / s ** 3, rel=1e-12)
        assert scaled["holds"]

    def test_rejects_same_index(self):
        with pytest.raises(SameIndex):
            pair_spacing_sum(generate_uniform(5, 1.0), 2, 2)

    @pytest.mark.parametrize("spacing", (1e-80, 1e100))
    def test_extreme_spacing_keeps_its_digits(self, spacing):
        # at 1e-80 the squared lengths were subnormal and the lhs off by 1e-5
        # relative; at 1e100 both sides underflowed to 0
        base = pair_spacing_sum(generate_uniform(4, 1.0), 1, 2)
        far = pair_spacing_sum(generate_uniform(4, spacing), 1, 2)
        for side in ("lhs", "rhs"):
            assert far[side] == pytest.approx(base[side] / spacing ** 3, rel=1e-12, abs=0.0)
        assert far["holds"]

    @pytest.mark.parametrize("spacing", (1e-120, 1e-170))
    def test_overflowing_sides_raise(self, spacing):
        # at 1e-120 it returned lhs = inf and rhs = nan
        with pytest.raises(NonFinite):
            pair_spacing_sum(generate_uniform(4, spacing), 1, 2)

    @pytest.mark.parametrize("seed", range(60))
    def test_random_sweep_all_pairs(self, seed):
        rng = np.random.default_rng(seed)
        seq = generate_random(int(rng.integers(2, 11)), float(rng.uniform(0.05, 1.0)), seed)
        for ell in range(1, seq.n + 1):
            for m in range(ell + 1, seq.n + 1):
                assert pair_spacing_sum(seq, ell, m, seed=seed)["holds"]


class TestPairSpacingMargins:
    """The all-pairs table agrees with the scalar pair_spacing_sum."""

    @staticmethod
    def assert_matches_scalar(seq):
        lhs, rhs = pair_spacing_margins(seq)
        assert lhs.shape == rhs.shape == (seq.n, seq.n)
        for ell in range(1, seq.n + 1):
            for m in range(1, seq.n + 1):
                if ell == m:
                    continue
                rep = pair_spacing_sum(seq, ell, m)
                assert lhs[ell - 1, m - 1] == pytest.approx(rep["lhs"], rel=1e-12, abs=0.0)
                assert rhs[ell - 1, m - 1] == pytest.approx(rep["rhs"], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_windows(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_matches_scalar(generate_random(int(rng.integers(2, 11)),
                                                   float(rng.uniform(0.05, 1.0)), seed))

    @pytest.mark.parametrize("n", range(2, 11))
    def test_uniform_windows(self, n):
        self.assert_matches_scalar(generate_uniform(n, 0.7))

    def test_rejects_a_window_without_pairs(self):
        with pytest.raises(IndexOutOfRange):
            pair_spacing_margins(generate_uniform(1, 1.0))

    @pytest.mark.parametrize("spacing", (1e-120, 1e-170))
    def test_overflowing_window_raises(self, spacing):
        # at 1e-170 the kernel 1/(lam_k-lam_ell)^2 overflows, at 1e-120 the sides
        with pytest.raises(NonFinite):
            pair_spacing_margins(generate_uniform(4, spacing))

    @pytest.mark.parametrize("seed", [0, 7, 300])
    def test_suite_matches_the_scalar_loop(self, seed):
        trials = 40
        records = suite_pair_spacing(trials, seed)
        assert len(records) == trials
        for i, rec in enumerate(records):
            s = seed + i
            seq = _random_seq(s, PAIR_SPACING_MAX_N, min_n=2)
            reps = [pair_spacing_sum(seq, ell, m, seed=s)
                    for ell in range(1, seq.n + 1) for m in range(ell + 1, seq.n + 1)]
            margins = [rep["lhs"] - rep["rhs"] for rep in reps]
            assert rec["seed"] == s
            assert rec["holds"] == all(rep["holds"] for rep in reps)
            assert rec["lhs"] == pytest.approx(max(margins), rel=1e-12, abs=0.0)
            # the reported margin is the scalar reference's at one pair
            assert rec["lhs"] in margins


class TestNonFiniteSigma:
    """A NaN or infinite exponent is rejected, never summed into NaN."""

    SEQ = generate_random(8, 0.5, 3)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        zeta,
        lambda sigma: f_n_functional([2.0, 1.0], sigma, 1),
        lambda sigma: check_equidistance([1.5, 1.5], sigma),
        lambda sigma: check_fn_upper([2.0, 1.0], sigma),
        lambda sigma: check_smoothing_monovariant([2.0, 1.0, 1.0], 2, 1.0, sigma),
        lambda sigma: spacing_sum(TestNonFiniteSigma.SEQ, 4, sigma),
        lambda sigma: spacing_bound_report(TestNonFiniteSigma.SEQ, 2, sigma),
        lambda sigma: shan_split(TestNonFiniteSigma.SEQ, 4, sigma),
        lambda sigma: shan_split(generate_uniform(1, 1.0), 1, sigma),
    ], ids=["zeta", "f_n_functional", "check_equidistance", "check_fn_upper",
            "check_smoothing_monovariant", "spacing_sum", "spacing_bound_report",
            "shan_split", "shan_split_one_node"])
    def test_rejected(self, call, sigma):
        with pytest.raises(SigmaOutOfRange):
            call(sigma)


class TestNonFiniteEntries:
    """A NaN or infinite entry is rejected before any check on the sequence."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("call", [
        lambda bad: f_n_functional([2.0, bad, 1.0], 2.0, 1),
        lambda bad: check_equidistance([1.5, bad], 2.0),
        lambda bad: check_fn_upper([1.0, bad, 2.0], 2.0),
        lambda bad: check_smoothing_monovariant([2.0, 1.0, bad], 2, 0.5, 2.0),
    ], ids=["f_n_functional", "check_equidistance", "check_fn_upper",
            "check_smoothing_monovariant"])
    def test_rejected(self, call, bad):
        with pytest.raises(NonFinite):
            call(bad)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hilbertlab import (
    GapSequence,
    build_h,
    check_selberg_identity,
    eigenpair_top,
    estimate_constant,
    generate_cluster,
    generate_random,
    generate_uniform,
    numerical_radius_check,
    preissmann_chain,
    spectral_radius,
    two_forms_bound,
)
from hilbertlab import quadforms, spectra, suites
from hilbertlab.errors import (
    LengthMismatch,
    NoConvergence,
    NonFinite,
    NonpositiveWeight,
    ZeroSpectrum,
)
from hilbertlab.gaps import node_differences, pair_kernel
from hilbertlab.quadforms import alpha_form_matrix
from hilbertlab.spectra import bilinear_form, s_and_t

PI2_OVER_3 = math.pi ** 2 / 3.0


def pair_residual(h, pair):
    """max norm defect of H u_re = -mu u_im and H u_im = mu u_re."""
    r1 = np.linalg.norm(h.entries @ pair.u_re + pair.mu * pair.u_im)
    r2 = np.linalg.norm(h.entries @ pair.u_im - pair.mu * pair.u_re)
    return float(max(r1, r2))


def mirrored_window(gaps, centre: bool):
    """Nodes symmetric about 0 with the given gaps on each side, so every
    mirrored difference is the exact negative and J H J = -H holds exactly;
    n is odd with a centre node and even without one."""
    half = np.cumsum(gaps)
    return GapSequence(np.concatenate((-half[::-1], [0.0] if centre else [], half)))


def random_instance(seed, max_n=12):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    seq = generate_random(n, float(rng.uniform(0.05, 1.0)), seed)
    weights = rng.uniform(0.5, 2.0, n)
    return build_h(seq, weights), rng


def _random_h(seed, max_n):
    """The selberg and radius suites' window for one seed, drawn and solved
    on its own: H and its lone eigenpair."""
    h, _ = random_instance(seed, max_n)
    return h, eigenpair_top(h)


def assert_same_pair(got, want):
    # int64 views compare bits, signed zeros included
    assert got.mu == want.mu
    for a, b in ((got.u_re, want.u_re), (got.u_im, want.u_im)):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBuildH:
    def test_two_node_default_weights(self):
        h = build_h(generate_uniform(2, 1.0))
        assert h.entries[0, 1] == -1.0
        assert h.entries[1, 0] == 1.0

    def test_single_node_zero_matrix(self):
        h = build_h(generate_uniform(1, 1.0))
        assert np.array_equal(h.entries, [[0.0]])

    def test_unit_weights_three_nodes(self):
        h = build_h(generate_uniform(3, 1.0), weights=np.ones(3))
        assert h.entries[0, 2] == -0.5
        assert h.entries[2, 0] == 0.5

    def test_exact_skew_symmetry(self):
        h = build_h(generate_random(15, 0.3, 3))
        assert np.array_equal(h.entries, -h.entries.T)

    def test_default_weights_square_to_deltas(self):
        seq = generate_random(9, 0.4, 8)
        h = build_h(seq)
        assert np.allclose(h.weights ** 2, seq.deltas, rtol=1e-15)

    def test_rejects_bad_weights(self):
        seq = generate_uniform(3, 1.0)
        with pytest.raises(NonpositiveWeight):
            build_h(seq, weights=[1.0, 0.0, 1.0])
        with pytest.raises(LengthMismatch):
            build_h(seq, weights=[1.0, 1.0])

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_rejects_non_finite_weights(self, bad):
        # a NaN weight passed the c <= 0 guard and filled H with NaN
        with pytest.raises(NonFinite):
            build_h(generate_uniform(3, 1.0), weights=[1.0, bad, 1.0])

    @pytest.mark.parametrize("weights, nodes", (
        ([1e200, 1e200, 1.0], [0.0, 1.0, 2.0, 3.0, 4.0]),     # c_m c_n overflows
        ([1e150, 1e150, 1.0], [0.0, 1.0, 1.0 + 1e-10, 3.0, 4.0]),  # the divide does
    ))
    def test_overflowing_entries_raise(self, weights, nodes):
        with pytest.raises(NonFinite):
            build_h(GapSequence(nodes), weights=weights)


def triu_and_mirror(seq, c):
    """H as first assembled: the strict upper triangle of one divide,
    mirrored by negation."""
    upper = np.triu(np.outer(c, c) / node_differences(seq.active), k=1)
    return upper - upper.T


class TestOneDivideAssembly:
    WINDOWS = {
        "uniform": lambda n: generate_uniform(n, 1.0),
        "random": lambda n: generate_random(n, 0.05, n),
        "cluster": lambda n: generate_cluster(max(n, 2)),
    }

    @pytest.mark.parametrize("custom", (False, True))
    @pytest.mark.parametrize("kind", sorted(WINDOWS))
    def test_bit_identical_to_triu_and_mirror(self, kind, custom):
        rng = np.random.default_rng(7)
        for n in (*range(1, 41), 2000):
            seq = self.WINDOWS[kind](n)
            weights = rng.uniform(0.5, 2.0, seq.n) if custom else None
            h = build_h(seq, weights)
            assert np.array_equal(h.entries, triu_and_mirror(seq, h.weights)), (kind, n)
            assert (h.entries == -h.entries.T).all(), (kind, n)


def one_divide(seq, row, col):
    """H, or any power-1 pair kernel, as one divide of the whole matrix,
    outer(row, col) / (lam_m - lam_n), with the diagonal zeroed."""
    entries = np.outer(row, col) / node_differences(seq.active)
    np.fill_diagonal(entries, 0.0)
    return entries


class TestRowBlockedAssembly:
    @pytest.mark.parametrize("n", (1, 2, 31, 32, 33, 255, 256, 257, 600))
    def test_bit_identical_to_one_divide(self, n):
        rng = np.random.default_rng(n)
        windows = (generate_uniform(n, 1.0), generate_uniform(n, 0.3),
                   generate_random(n, 0.3, n), generate_cluster(max(n, 2)))
        for seq in windows:
            for weights in (None, rng.uniform(0.5, 2.0, seq.n)):
                h = build_h(seq, weights)
                want = one_divide(seq, h.weights, h.weights)
                assert h.entries.tobytes() == want.tobytes(), (seq.n, weights is None)

    @pytest.mark.parametrize("n", (1, 31, 32, 33, 65))
    def test_pair_kernel_power_one(self, n):
        # unequal row and col weights, so the symmetrization is not zero
        rng = np.random.default_rng(n)
        seqs = (generate_uniform(n, 0.3), generate_random(n, 0.3, n), generate_random(n, 0.05, 1))
        rows, cols = rng.uniform(0.5, 2.0, (2, len(seqs), n))
        lam = np.array([seq.active for seq in seqs])
        stacked = pair_kernel(rows, cols, lam, 1, "unused")
        sym_stacked = pair_kernel(rows, cols, lam, 1, "unused", symmetrized=True)
        for seq, row, col, in_stack, sym_in_stack in zip(seqs, rows, cols, stacked, sym_stacked):
            kernel = pair_kernel(row, col, seq.active, 1, "unused")
            assert kernel.tobytes() == one_divide(seq, row, col).tobytes()
            assert in_stack.tobytes() == kernel.tobytes()
            sym = pair_kernel(row, col, seq.active, 1, "unused", symmetrized=True)
            assert sym.tobytes() == ((kernel + kernel.T) / 2).tobytes()
            assert sym_in_stack.tobytes() == sym.tobytes()

    @pytest.mark.parametrize("symmetrized", (False, True))
    def test_pair_kernel_raises_the_callers_message(self, symmetrized):
        # the divide overflows in the second block
        nodes = np.concatenate((np.arange(-40.0, 0.0), [0.0, 1e-10, 3.0]))
        c = np.full(len(nodes) - 2, 1e150)
        with pytest.raises(NonFinite, match="^kernel too large$"):
            pair_kernel(c, c, GapSequence(nodes).active, 1, "kernel too large", symmetrized)


def assert_exactly_symmetric(matrix):
    # int64 views compare bits, signed zeros included
    assert np.array_equal(matrix.view(np.int64), matrix.T.view(np.int64))


class TestGram:
    """`_gram` forms A^T A with no symmetrizing pass: numpy's syrk leaves
    it exactly symmetric on the matrices and fold blocks the solver gives it."""

    def test_random_windows(self):
        for seed in range(600):
            h, rng = random_instance(seed, max_n=40)
            assert_exactly_symmetric(spectra._gram(h.entries))
            seq = mirrored_window(rng.uniform(0.1, 2.0, h.n // 2 + 1), bool(seed % 2))
            entries = build_h(seq).entries
            assert quadforms._mirrored(entries, -1.0)
            fold = quadforms._reflection_block(entries, -1.0, True)
            assert_exactly_symmetric(spectra._gram(fold))

    @pytest.mark.parametrize("n", (2, 3, 60, 1000, 2000, 2001))
    def test_uniform_windows(self, n):
        h = build_h(generate_uniform(n, 1.0))
        assert_exactly_symmetric(spectra._gram(h.entries))
        assert quadforms._mirrored(h.entries, -1.0)
        assert_exactly_symmetric(spectra._gram(quadforms._reflection_block(h.entries, -1.0, True)))

    def test_radius_holds_h_and_its_half_size_blocks(self, traced_peak):
        # the whole-matrix assembly and symmetrized Gram peaked at 2.13 n x n arrays
        n = 600
        seq = generate_uniform(n, 1.0)
        assert traced_peak(lambda: spectral_radius(build_h(seq, np.ones(n)))) <= 2.0 * 8 * n * n

    def test_schur_record_builds_only_the_block_it_solves(self, traced_peak):
        # building the unread second fold block as well peaked at 1.76 n x n arrays
        n = 2000
        seq = generate_uniform(n, 1.0)
        assert traced_peak(lambda: spectral_radius(build_h(seq, np.ones(n)))) <= 1.55 * 8 * n * n


class TestSpectralRadius:
    def test_two_node_uniform(self):
        assert spectral_radius(build_h(generate_uniform(2, 1.0))) == pytest.approx(1.0, abs=1e-12)

    def test_single_node(self):
        assert spectral_radius(build_h(generate_uniform(1, 1.0))) == 0.0

    def test_unit_weights_below_pi_and_increasing(self):
        values = []
        for n in (25, 50, 100):
            h = build_h(generate_uniform(n, 1.0), weights=np.ones(n))
            values.append(spectral_radius(h))
        assert all(v <= math.pi for v in values)
        assert values[0] < values[1] < values[2]

    # bounds as in TestEstimateConstant.test_affine_invariance
    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(s=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
           c=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False))
    def test_affine_invariance(self, s, c):
        # sqrt(delta_m delta_n) / (lam_m - lam_n) is unchanged by lam -> s lam + c
        seq = generate_random(12, 0.5, 6)
        moved = GapSequence(s * seq.nodes + c)
        rho = spectral_radius(build_h(seq))
        assert spectral_radius(build_h(moved)) == pytest.approx(rho, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_equals_eigenpair_mu_exactly(self, n):
        # the radius and chain suites read rho from the eigenpair they solve
        seq = generate_random(n, 0.3, n)
        weights = np.random.default_rng(n).uniform(0.5, 2.0, n)
        for h in (build_h(seq), build_h(seq, weights)):
            assert spectral_radius(h) == eigenpair_top(h).mu

    def test_schur_floor_at_two_thousand(self):
        n = 2000
        rho = spectral_radius(build_h(generate_uniform(n, 1.0), weights=np.ones(n)))
        assert rho > math.pi - 0.05
        assert rho <= math.pi


class TestEigenpairTop:
    def test_two_node_structure(self):
        h = build_h(generate_uniform(2, 1.0))
        pair = eigenpair_top(h)
        assert pair.mu == pytest.approx(1.0, abs=1e-12)
        # |u_m|^2 = 1/2 per component, up to a global phase
        assert np.allclose(pair.abs2, [0.5, 0.5], atol=1e-12)
        assert pair_residual(h, pair) < 1e-12

    def test_single_node_has_zero_spectrum(self):
        with pytest.raises(ZeroSpectrum):
            eigenpair_top(build_h(generate_uniform(1, 1.0)))

    @pytest.mark.parametrize("seed", range(100))
    def test_residual_sweep(self, seed):
        h, _ = random_instance(seed)
        pair = eigenpair_top(h)
        assert pair_residual(h, pair) <= 1e-9 * pair.mu
        assert math.hypot(np.linalg.norm(pair.u_re), np.linalg.norm(pair.u_im)) == \
            pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", range(2, 41))
    def test_inverse_iteration_accuracy(self, n):
        # the Gram's top eigenvalue is double; two inverse-iteration steps
        # bring the pair to about 1e-15 relative, one step leaves up to 7e-14
        rng = np.random.default_rng(2000 + n)
        seq = generate_random(n, float(rng.uniform(0.05, 1.0)), 2000 + n)
        h = build_h(seq, rng.uniform(0.5, 2.0, n))
        pair = eigenpair_top(h)
        assert pair_residual(h, pair) <= 1e-14 * pair.mu
        assert check_selberg_identity(h, pair)["lhs"] <= 1e-14

    def test_gram_pair_is_certified(self, monkeypatch):
        h, _ = random_instance(3)
        monkeypatch.setattr(quadforms, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(NoConvergence):
            eigenpair_top(h)


MIRRORED = [mirrored_window(np.random.default_rng(seed).uniform(0.1, 2.0, size), centre)
            for seed, (size, centre) in enumerate(((2, False), (2, True), (9, False),
                                                   (9, True), (40, False), (41, True)))]
SYMMETRIC_WINDOWS = [generate_uniform(n, 1.0) for n in (2, 3, 40, 41, 200, 201)] + MIRRORED


class TestEigenpairsTop:
    """One stacked solve per Gram size gives each window its lone pair."""

    def test_suite_windows(self, calls):
        hs = [random_instance(s, 12)[0] for s in range(300)]
        stacks = calls(spectra, "_top_eigen")
        pairs = spectra.eigenpairs_top(hs)
        # the Gram of a window with J H J = -H, every n = 2 one, is half size
        sizes = {(h.n + 1) // 2 if quadforms._mirrored(h.entries, -1.0) else h.n for h in hs}
        assert sorted(len(args[0][0]) for args in stacks) == sorted(sizes)
        assert 1 in sizes
        for h, pair in zip(hs, pairs):
            assert_same_pair(pair, eigenpair_top(h))

    def test_mixed_windows(self):
        hs = []
        for n in range(2, 41):
            rng = np.random.default_rng(9000 + n)
            seq = generate_random(n, float(rng.uniform(0.05, 1.0)), 9000 + n)
            hs += [build_h(seq, rng.uniform(0.5, 2.0, n)), build_h(seq)]
        for seq in SYMMETRIC_WINDOWS:
            hs += [build_h(seq), build_h(seq, np.ones(seq.n))]
        order = np.random.default_rng(5).permutation(len(hs))
        hs = [hs[i] for i in order]
        for h, pair in zip(hs, spectra.eigenpairs_top(hs)):
            assert_same_pair(pair, eigenpair_top(h))

    def test_lone_pair_is_the_one_member_call(self, calls):
        stacked = calls(spectra, "eigenpairs_top")
        h, _ = random_instance(8)
        eigenpair_top(h)
        assert [len(args[0]) for args in stacked] == [1]

    def test_zero_spectrum_raises(self):
        hs = [random_instance(1)[0], build_h(generate_uniform(1, 1.0))]
        with pytest.raises(ZeroSpectrum):
            spectra.eigenpairs_top(hs)


class TestSharedWindows:
    """`run_suites` draws and solves the windows of selberg and radius once."""

    def test_one_table_per_run(self, calls):
        built = calls(suites, "build_h")
        solved = calls(suites, "eigenpairs_top")
        for _ in range(2):
            built.clear()
            solved.clear()
            suites.run_suites(["selberg", "radius"], trials=5, max_n=8, seed=2)
            # five windows and the Schur record's H, in every run
            assert len(built) == 6 and built[-1][0].n == 2000
            assert [len(args[0]) for args in solved] == [5]

    def test_lone_suites_equal_their_slice(self):
        kwargs = {"trials": 4, "max_n": 9, "seed": 11}
        together = suites.run_suites(suites.ALL_SUITES, **kwargs)
        alone = [rec for name in suites.ALL_SUITES for rec in suites.run_suites([name], **kwargs)]
        assert together == alone

    def test_spacing_draws_each_window_once(self, calls):
        drawn = calls(suites, "_random_seq")
        suites.suite_spacing(trials=6, seed=3)
        assert [args[0] for args in drawn] == list(range(3, 9))


class TestReflectionFold:
    """Reflection-symmetric windows are solved on the half-size Gram C^T C."""

    @pytest.mark.parametrize("idx", range(len(SYMMETRIC_WINDOWS)))
    @pytest.mark.parametrize("unit", (False, True))
    def test_folded_pair_matches_radius_and_is_accurate(self, idx, unit):
        seq = SYMMETRIC_WINDOWS[idx]
        h = build_h(seq, np.ones(seq.n) if unit else None)
        assert np.array_equal(h.entries[::-1, ::-1], -h.entries)
        pair = eigenpair_top(h)
        assert spectral_radius(h) == pair.mu
        assert pair_residual(h, pair) <= 1e-14 * pair.mu
        assert check_selberg_identity(h, pair)["lhs"] <= 1e-14

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(gaps=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=2, max_size=30),
           centre=st.booleans(), alpha=st.sampled_from((0.0, 0.5, 1.0, 1.5)))
    def test_mirrored_gaps_against_dense_oracle(self, gaps, centre, alpha):
        seq = mirrored_window(gaps, centre)
        h = build_h(seq)
        oracle = float(np.max(np.abs(np.linalg.eigvals(h.entries))))
        assert spectral_radius(h) == pytest.approx(oracle, rel=1e-12)
        kernel = alpha_form_matrix(seq, alpha)
        assert np.array_equal(kernel[::-1, ::-1], kernel)
        top = float(np.linalg.eigh((kernel + kernel.T) / 2.0)[0][-1])
        assert estimate_constant(alpha, seq).value == pytest.approx(top, rel=1e-12)

    def test_gram_is_folded_only_on_symmetric_windows(self, eigvalsh_sizes):
        spectral_radius(build_h(generate_uniform(200, 1.0)))
        spectral_radius(build_h(generate_uniform(201, 1.0)))
        spectral_radius(build_h(generate_random(200, 0.5, 1)))
        assert eigvalsh_sizes == [100, 101, 200]

    @pytest.mark.parametrize("n", (12, 13))
    def test_lifted_pair_is_certified_on_full_matrix(self, monkeypatch, n):
        # a wrong lift passes the half-size certificate but not the full one
        lift = spectra._reflection_lift
        monkeypatch.setattr(spectra, "_reflection_lift",
                            lambda y, size, even: lift(y, size, not even))
        with pytest.raises(NoConvergence):
            eigenpair_top(build_h(generate_uniform(n, 1.0)))


class TestSelbergIdentity:
    def test_two_node_exact(self):
        h = build_h(generate_uniform(2, 1.0))
        pair = eigenpair_top(h)
        rep = check_selberg_identity(h, pair)
        assert np.allclose(pair.mu ** 2 * pair.abs2, [0.5, 0.5], atol=1e-12)
        assert rep["lhs"] < 1e-12

    @pytest.mark.parametrize("seed", range(100))
    def test_random_sweep(self, seed):
        h, _ = random_instance(seed)
        rep = check_selberg_identity(h, eigenpair_top(h), seed=seed)
        assert rep == {"lemma": "selberg-identity", "seed": seed, "lhs": rep["lhs"],
                       "rhs": 1e-8, "holds": True, "tail_bound": 0.0}

    def test_suite_records_are_the_checks(self):
        records = suites.suite_selberg(trials=6, max_n=8, seed=40)
        assert [rec["seed"] for rec in records] == list(range(40, 46))
        for rec in records:
            assert list(rec) == ["lemma", "seed", "lhs", "rhs", "holds", "tail_bound"]
            s = rec["seed"]
            assert rec == check_selberg_identity(*_random_h(s, 8), seed=s)

    def test_weight_scaling_homogeneity(self):
        seq = generate_random(7, 0.4, 9)
        rng = np.random.default_rng(9)
        w = rng.uniform(0.5, 2.0, 7)
        s = 3.0
        h1, h2 = build_h(seq, w), build_h(seq, s * w)
        p1, p2 = eigenpair_top(h1), eigenpair_top(h2)
        # eigenvalue scales with s^2, so each side of the identity scales s^4
        assert p2.mu == pytest.approx(s ** 2 * p1.mu, rel=1e-12)
        r1 = check_selberg_identity(h1, p1)
        r2 = check_selberg_identity(h2, p2)
        assert r1["lhs"] < 1e-10 and r2["lhs"] < 1e-10


class TestTwoFormsBound:
    def test_conjectural_endpoint(self):
        assert two_forms_bound(PI2_OVER_3) == pytest.approx(math.pi, abs=1e-14)

    def test_paper_barrier_prefix(self):
        # the published 5-decimal floor: value 3.1949755... truncates to 3.19497
        value = two_forms_bound(0.35047 * math.pi ** 2)
        assert math.floor(value * 1e5) == 319497

    def test_chain_endpoint_below_4pi_over_3(self):
        c3 = PI2_OVER_3 + PI2_OVER_3 * math.sqrt(1.2)
        value = two_forms_bound(c3)
        assert value == pytest.approx(math.pi * math.sqrt(1 + (2 / 3) * math.sqrt(1.2)), rel=1e-14)
        assert value < 4 * math.pi / 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError) as info:
            two_forms_bound(-0.1)
        assert not isinstance(info.value, NonFinite)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFinite):
            two_forms_bound(bad)


class TestPreissmannChain:
    def test_coefficients_and_root(self):
        chain = preissmann_chain()
        assert chain.s_coeff == pytest.approx(math.pi ** 4 / 45, rel=1e-15)
        assert chain.t_coeff == pytest.approx(2 * math.pi ** 2 / 3, rel=1e-15)
        residual = chain.c3_upper ** 2 - chain.t_coeff * chain.c3_upper - chain.s_coeff
        assert abs(residual) < 1e-9

    def test_closed_forms(self):
        chain = preissmann_chain()
        assert chain.c3_upper == pytest.approx(PI2_OVER_3 * (1 + math.sqrt(1.2)), rel=1e-14)
        assert chain.c3_upper == pytest.approx(6.8938, abs=1e-4)
        assert chain.c1_upper == pytest.approx(
            math.pi * math.sqrt(1 + (2 / 3) * math.sqrt(1.2)), rel=1e-12)
        assert chain.c1_upper < 4 * math.pi / 3


class TestNumericalRadius:
    def test_basis_vector_gives_zero(self):
        h = build_h(generate_uniform(4, 1.0))
        z = np.zeros(4)
        z[0] = 1.0
        assert bilinear_form(h, z, np.zeros(4)) == 0.0

    def test_extremal_equality(self):
        h, _ = random_instance(17)
        pair = eigenpair_top(h)
        lhs = bilinear_form(h, pair.u_re, pair.u_im)
        rho = spectral_radius(h)
        assert lhs == pytest.approx(rho, rel=1e-9)

    def test_thousand_random_vectors(self):
        held = 0
        for instance in range(10):
            h, _ = random_instance(instance)
            rho = spectral_radius(h)
            for seed in range(100 * instance, 100 * instance + 100):
                plain, normalized = numerical_radius_check(h, rho, seed=seed)
                assert plain["lemma"] == "numerical-radius"
                assert normalized["lemma"] == "numerical-radius-normalized"
                for rep in (plain, normalized):
                    assert rep["holds"] and rep["seed"] == seed
                    held += 1
        assert held == 2000  # 1000 vectors, plain and normalized form each

    def test_radius_suite_solves_each_window_once(self, monkeypatch):
        # the random windows take rho from their eigenpair; only the Schur
        # record calls spectral_radius
        sizes = []

        def counting(h):
            sizes.append(h.n)
            return spectral_radius(h)

        monkeypatch.setattr(spectra, "spectral_radius", counting)
        monkeypatch.setattr(suites, "spectral_radius", counting)
        records = suites.suite_radius(trials=5, seed=1)
        assert sizes == [2000]
        assert len(records) == 5 * 3 + 2


class TestChainInvariants:
    CONFIGS = [generate_uniform(60, 1.0), generate_cluster(40)] + [
        generate_random(5 + 3 * i, 0.3, 500 + i) for i in range(8)
    ]

    @pytest.mark.parametrize("idx", range(len(CONFIGS)))
    def test_s_bound_and_chain(self, idx):
        seq = self.CONFIGS[idx]
        h = build_h(seq)
        pair = eigenpair_top(h)
        s_val, t_val = s_and_t(h, pair)
        rho = spectral_radius(h)
        assert s_val <= PI2_OVER_3 + 1e-9
        assert rho ** 2 <= s_val + 2 * t_val + 1e-8
        assert rho <= two_forms_bound(preissmann_chain().c3_upper) + 1e-9

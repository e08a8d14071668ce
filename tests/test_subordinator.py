import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gamma

from fracfilt import subordinator
from fracfilt.subordinator import (
    InversePath,
    SubordinatorPath,
    inverse_density_grid,
    invert_path,
    laplace_identity_residual,
    sample_inverse_path,
    sample_stable_path,
    sample_standard_stable,
    stable_cdf,
    stable_density,
    tail_bound,
    tau_cutoff,
)


def closed_form_half_density(u):
    # one-sided 1/2-stable with Laplace transform exp(-sqrt(s))
    return 1.0 / (2.0 * np.sqrt(np.pi)) * u ** (-1.5) * np.exp(-1.0 / (4.0 * u))


def live_y(beta, n):
    """n geometric points of y = u**(-beta/(1-beta)) over the integral branch's
    live range, from the series switch to the underflow point a0 y = 708."""
    return np.geomspace(0.7 ** (1.0 / (1.0 - beta)),
                        subordinator._LOG_TINY / subordinator._a_zero(beta), n)


class TestSampling:
    def test_laplace_transform_monte_carlo(self):
        # E[exp(-s D_1)] = exp(-s**beta) at s = 1, beta = 0.7
        rng = np.random.Generator(np.random.Philox(key=42))
        s = sample_standard_stable(0.7, 100_000, rng)
        vals = np.exp(-s)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - np.exp(-1.0)) < 3.0 * se

    def test_path_increments_have_the_scaled_law(self):
        # sum of the first 1/step increments is D_1; check its Laplace transform
        paths = [sample_stable_path(0.7, 1.0, 0.1, seed=i) for i in range(4000)]
        d1 = np.array([p.values[-1] for p in paths])
        vals = np.exp(-d1)
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - np.exp(-1.0)) < 4.0 * se

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sample_stable_path(1.0, 1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            sample_stable_path(0.0, 1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            sample_stable_path(0.5, -1.0, 0.1, seed=0)
        with pytest.raises(ValueError):
            sample_stable_path(0.5, 1.0, 0.0, seed=0)

    def test_degenerate_limit_beta_near_one(self):
        rng = np.random.Generator(np.random.Philox(key=7))
        s = sample_standard_stable(0.999, 100_000, rng)
        assert abs(s.mean() - 1.0) < 0.05

    def test_half_stable_kolmogorov_smirnov(self):
        # oracle: CDF from numerical integration of the closed-form density on a
        # log-spaced grid (the law is heavy-tailed; the grid must cover the sample)
        rng = np.random.Generator(np.random.Philox(key=11))
        sample = sample_standard_stable(0.5, 100_000, rng)
        v = np.linspace(np.log(1e-4), np.log(sample.max() * 10.0), 20_000)
        xs = np.exp(v)
        integ = closed_form_half_density(xs) * xs          # f(e^v) e^v dv
        cdf = np.concatenate(([0.0], np.cumsum(0.5 * (integ[1:] + integ[:-1]) * np.diff(v))))
        ks = stats.kstest(sample, lambda q: np.interp(np.log(q), v, cdf))
        assert ks.statistic < 0.01

    def test_self_similarity_in_distribution(self):
        rng = np.random.Generator(np.random.Philox(key=13))
        beta, c = 0.6, 2.0
        d1 = sample_standard_stable(beta, 100_000, rng)
        d2 = sample_standard_stable(beta, 100_000, rng) + sample_standard_stable(beta, 100_000, rng)
        ks = stats.ks_2samp(d2, c ** (1.0 / beta) * d1)
        assert ks.statistic < 0.02

    def test_determinism_per_seed(self):
        a = sample_stable_path(0.6, 1.0, 0.01, seed=123)
        b = sample_stable_path(0.6, 1.0, 0.01, seed=123)
        assert np.array_equal(a.values, b.values)
        c = sample_stable_path(0.6, 1.0, 0.01, seed=124)
        assert not np.array_equal(a.values, c.values)

    def test_paths_strictly_increase(self):
        for seed in range(20):
            p = sample_stable_path(0.4, 1.0, 0.05, seed=seed)
            assert np.all(np.diff(p.values) > 0.0)
            assert p.values[0] == 0.0


class TestInversion:
    def test_unit_slope_identity(self):
        times = 0.01 * np.arange(401)
        fixture = SubordinatorPath(beta=0.5, times=times, values=times.copy())
        grid = np.linspace(0.0, 2.0, 201)
        T = invert_path(fixture, grid)
        assert np.allclose(T.values, grid, atol=1e-12)

    def test_monotone_and_zero_start(self):
        for seed in range(10):
            D = sample_stable_path(0.5, 4.0, 0.01, seed=seed)
            horizon = min(1.0, 0.5 * D.horizon_reached)
            T = invert_path(D, np.linspace(0.0, horizon, 101))
            assert T.values[0] == 0.0
            assert np.all(np.diff(T.values) >= 0.0)
            # first-hitting property up to interpolation error on the D grid
            d_at_T = np.interp(T.values, D.times, D.values)
            assert np.all(d_at_T >= np.linspace(0.0, horizon, 101) - 1e-9)

    def test_error_when_horizon_not_reached(self):
        times = 0.01 * np.arange(101)
        D = SubordinatorPath(beta=0.5, times=times, values=times.copy())
        with pytest.raises(ValueError, match="resample"):
            invert_path(D, np.linspace(0.0, 2.0, 21))

    def test_error_on_one_node_grid(self):
        times = 0.01 * np.arange(101)
        D = SubordinatorPath(beta=0.5, times=times, values=times.copy())
        with pytest.raises(ValueError, match="two nodes"):
            invert_path(D, np.zeros(1))

    def test_mean_of_inverse_at_t1(self):
        # E[T_1] = 1/Gamma(1.5) = 2/sqrt(pi); vectorized first-crossing of
        # sampled increment paths as the oracle for the path-based inversion.
        # step small enough that the crossing-interpolation bias (stable jumps
        # overshoot the level) stays below the Monte-Carlo band
        rng = np.random.Generator(np.random.Philox(key=21))
        beta, step, nsteps = 0.5, 0.01, 900
        inc = step ** (1.0 / beta) * sample_standard_stable(beta, (100_000, nsteps), rng)
        D = np.cumsum(inc, axis=1)
        assert np.all(D[:, -1] >= 1.0)
        idx = np.argmax(D >= 1.0, axis=1)
        rows = np.arange(len(idx))
        d_hi = D[rows, idx]
        d_lo = np.where(idx > 0, D[rows, np.maximum(idx - 1, 0)], 0.0)
        tau = step * idx + step * (1.0 - d_lo) / (d_hi - d_lo)
        target = 2.0 / np.sqrt(np.pi)
        se = tau.std(ddof=1) / np.sqrt(len(tau))
        assert abs(tau.mean() - target) < 3.0 * se

    def test_invert_path_matches_vectorized_oracle(self):
        D = sample_stable_path(0.5, 6.0, 0.05, seed=5)
        T = invert_path(D, np.array([0.0, 0.5, 1.0]))
        for t, tval in zip([0.5, 1.0], T.values[1:]):
            k = int(np.argmax(D.values >= t))
            lo, hi = D.values[k - 1], D.values[k]
            expected = D.times[k - 1] + D.step * (t - lo) / (hi - lo)
            assert abs(tval - expected) < 1e-12


class TestCoveringClock:
    @pytest.mark.parametrize("seed", range(1000, 1010))
    def test_first_covering_draw_is_returned_bit_for_bit(self, seed):
        # criterion 7's clocks: the draw on 4 x horizon covers at these seeds
        D0 = sample_stable_path(0.5, 4.0, 1e-2, seed)
        assert D0.horizon_reached >= 1.0
        D, T = sample_inverse_path(0.5, 1.0, 1e-2, seed, n_nodes=101)
        assert np.array_equal(D.values, D0.values)
        assert np.array_equal(T.values, invert_path(D0, np.linspace(0.0, 1.0, 101)).values)

    def test_doubles_until_covered(self):
        # horizon 0.01: T_0.01 = 0.1 T_1 often exceeds the first try's 0.04
        for op_horizon in (0.04, 0.08, 0.16):
            assert sample_stable_path(0.5, op_horizon, 1e-4, 1).horizon_reached < 0.01
        D, T = sample_inverse_path(0.5, 0.01, 1e-4, 1, n_nodes=51)
        assert np.array_equal(D.values, sample_stable_path(0.5, 0.32, 1e-4, 1).values)
        assert T.times[-1] == 0.01 and T.values[-1] <= D.times[-1]

    def test_gives_up_after_the_last_try(self, monkeypatch):
        monkeypatch.setattr(subordinator, "_CLOCK_TRIES", 3)
        with pytest.raises(RuntimeError, match="missed the horizon"):
            sample_inverse_path(0.5, 0.01, 1e-4, 1, n_nodes=51)

    @pytest.mark.parametrize("beta", [
        pytest.param(0.05, marks=pytest.mark.xfail(
            strict=True, raises=ValueError,
            reason="at beta = 0.05 one stable increment absorbs the later ones in "
                   "float64, and sample_stable_path rejects the path as not strictly "
                   "increasing")),
        0.5,
        0.95,
    ])
    def test_covers_the_horizon_at_extreme_beta_and_seed(self, beta):
        D, T = sample_inverse_path(beta, 1.0, 1e-2, 2 ** 63 - 5, n_nodes=101)
        assert D.horizon_reached >= 1.0
        assert T.times[-1] == 1.0 and np.all(np.diff(T.values) >= 0.0)


class TestStableDensity:
    def test_half_stable_closed_form(self):
        for u in (0.05, 0.3, 1.0, 2.0, 7.0, 40.0):
            assert stable_density(0.5, u) == pytest.approx(closed_form_half_density(u), rel=1e-9)
        assert stable_density(0.5, 1.0) == pytest.approx(
            1.0 / (2.0 * np.sqrt(np.pi)) * np.exp(-0.25), rel=1e-10
        )

    def test_tail_asymptotic_ratio(self):
        beta, u = 0.7, 1e3
        ratio = stable_density(beta, u) * gamma(1.0 - beta) * u ** (1.0 + beta) / beta
        assert abs(ratio - 1.0) < 0.02

    def test_normalization_adaptive_quadrature(self):
        for beta in (0.5, 0.7):
            val, _ = quad(lambda x: stable_density(beta, x), 0.0, np.inf, limit=300)
            assert abs(val - 1.0) < 1e-6

    def test_domain_error(self):
        with pytest.raises(ValueError):
            stable_density(0.5, 0.0)
        with pytest.raises(ValueError):
            stable_density(0.5, -1.0)
        with pytest.raises(ValueError):
            stable_density(1.2, 1.0)

    def test_nan_is_a_domain_error(self):
        with pytest.raises(ValueError):
            stable_density(0.5, np.nan)
        with pytest.raises(ValueError):
            stable_density(0.5, [1.0, np.nan])

    def test_cdf_nan_is_a_domain_error(self):
        with pytest.raises(ValueError):
            stable_cdf(0.5, np.nan)

    def test_super_exponential_underflow_region(self):
        # far below the concentration scale a double underflows; exact zero there
        assert stable_density(0.8, 1e-4) == 0.0

    def test_cdf_consistent_with_density(self):
        for beta in (0.1, 0.4, 0.6, 0.9):
            val, _ = quad(lambda x: stable_density(beta, x), 0.0, 2.0, limit=200)
            assert stable_cdf(beta, 2.0) == pytest.approx(val, abs=1e-8)

    def test_half_stable_closed_form_dense_on_integral_branch(self):
        u = np.geomspace(0.01, subordinator._series_switch(0.5), 2000, endpoint=False)
        exact = closed_form_half_density(u)
        got = stable_density(0.5, u)
        resolved = exact > 1e-300
        assert resolved.sum() > 1900
        assert np.max(np.abs(got[resolved] - exact[resolved]) / exact[resolved]) < 1e-12

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8])
    def test_batch_equals_point_by_point(self, beta):
        # 300 points span several evaluation blocks; blocking must not change values
        u = np.geomspace(0.01, 0.999 * subordinator._series_switch(beta), 300)
        batch = stable_density(beta, u)
        single = np.array([stable_density(beta, x) for x in u])
        assert np.array_equal(batch == 0.0, single == 0.0)
        live = single != 0.0
        assert live.sum() > 100
        assert np.max(np.abs(batch[live] - single[live]) / single[live]) <= 1e-14

    @pytest.mark.parametrize("beta", [0.001, 0.02, 0.3, 0.5, 0.8, 0.95, 0.99])
    def test_chebyshev_table_matches_its_quadrature(self, beta):
        # live range: from the series switch to the underflow point a0 y = 708
        _, _, coef = subordinator._chebyshev_table(beta)
        assert not coef.flags.writeable
        y = live_y(beta, 3000)
        table = subordinator._zolotarev_integral(y, beta)
        reference = subordinator._zolotarev_quadrature(y, beta)
        assert np.max(np.abs(table / reference - 1.0)) <= 1e-11

    @pytest.mark.parametrize("beta", [0.995, 0.999])
    def test_chebyshev_table_refused_falls_back_to_quadrature(self, beta):
        assert subordinator._chebyshev_table(beta) is None
        # interior points: the round trip through u may push an end point out
        u = live_y(beta, 502)[1:-1] ** (-(1.0 - beta) / beta)
        y = u ** (-beta / (1.0 - beta))
        a0 = subordinator._a_zero(beta)
        pref = beta / ((1.0 - beta) * np.pi)
        reference = (pref * u ** (-1.0 / (1.0 - beta)) * np.exp(-a0 * y)
                     * subordinator._zolotarev_quadrature(y, beta))
        assert np.array_equal(subordinator._stable_density_integral(u, beta), reference)

    @pytest.mark.parametrize("beta", [0.001, 0.3, 0.5, 0.8, 0.99])
    def test_chebyshev_panels_agree_at_their_edges(self, beta):
        lo, width, _ = subordinator._chebyshev_table(beta)
        for k in range(1, subordinator._CHEB_PANELS):
            edge = np.exp(lo + k * width)
            y = np.array([edge * (1.0 - 1e-13), edge * (1.0 + 1e-13)])
            # one point on each side of the edge
            assert np.array_equal(np.floor((np.log(y) - lo) / width), [k - 1, k])
            left, right = subordinator._zolotarev_integral(y, beta)
            assert abs(left / right - 1.0) <= 1e-12

    @pytest.mark.parametrize("beta", [0.8, 0.95, 0.99])
    def test_integral_meets_series_below_the_switch(self, beta):
        # the integral branch, table and all, must join the convergent series
        # where stable_density hands over to it
        u = subordinator._series_switch(beta) * np.array([1.0 - 1e-12, 1.0 - 1e-6, 0.999])
        integral = subordinator._stable_density_integral(u, beta)
        series = subordinator._stable_density_series(u, beta)
        assert np.max(np.abs(integral / series - 1.0)) <= 1e-12

    @pytest.mark.parametrize("beta", [0.02, 0.5, 0.99])
    def test_log_a_table_strictly_increasing(self, beta):
        log_a, phi = subordinator._log_a_table(beta)
        assert np.all(np.diff(phi) > 0.0)
        assert np.all(np.diff(log_a) > 0.0)
        assert phi[0] > 0.0 and phi[-1] < np.pi


class TestInverseDensity:
    def test_boundary_limit(self):
        assert float(inverse_density_grid(0.6, 2.0, 0.0)) == pytest.approx(
            2.0 ** (-0.6) / gamma(0.4), rel=1e-12)

    def test_half_closed_form(self):
        assert float(inverse_density_grid(0.5, 1.0, 0.0)) == pytest.approx(
            1.0 / np.sqrt(np.pi), rel=1e-12
        )
        assert float(inverse_density_grid(0.5, 1.0, 1.0)) == pytest.approx(
            np.exp(-0.25) / np.sqrt(np.pi), rel=1e-9
        )

    def test_normalization(self):
        # beta near 0 and 1 and extreme t, alone and combined
        for beta, t in [(0.3, 0.5), (0.5, 1.0), (0.8, 2.0), (0.05, 1.0), (0.95, 1.0),
                        (0.5, 1e-3), (0.5, 50.0), (0.05, 1e-3), (0.95, 50.0)]:
            hi = tau_cutoff(beta, t, 1e-14)
            val, _ = quad(lambda x: inverse_density_grid(beta, t, x)[()], 0.0, hi, limit=300)
            assert abs(val - 1.0) < 1e-6

    def test_nonnegative_and_vanishing_tail(self):
        taus = np.linspace(0.0, 6.0, 200)
        g = inverse_density_grid(0.5, 1.0, taus)
        assert np.all(g >= 0.0)
        tau_big = tau_cutoff(0.5, 1.0, 1e-9)
        assert float(inverse_density_grid(0.5, 1.0, tau_big)) < 1e-8
        assert tail_bound(0.5, 1.0, tau_big) < 1e-8

    @pytest.mark.parametrize("beta,t", [(1.2, 1.0), (0.0, 1.0), (0.5, -1.0), (0.5, 0.0)])
    def test_bound_helpers_reject_bad_beta_and_t(self, beta, t):
        with pytest.raises(ValueError):
            tau_cutoff(beta, t)
        with pytest.raises(ValueError):
            tail_bound(beta, t, 1.0)

    def test_tau_cutoff_tolerance(self):
        for tol in (0.0, -1e-9):
            with pytest.raises(ValueError):
                tau_cutoff(0.5, 1.0, tol)
        # a tolerance above the bound's tau = 0 value is met from tau = 0 on
        assert tau_cutoff(0.5, 1.0, 1e3) == 0.0

    @pytest.mark.parametrize("beta", [0.05, 0.3, 0.5, 0.8, 0.95])
    @pytest.mark.parametrize("t", [1e-3, 0.5, 2.0, 50.0])
    def test_tau_cutoff_inverts_tail_bound(self, beta, t):
        # the cutoff is where the bound meets the tolerance, not merely past it
        for tol in (1e-6, 1e-9, 1e-14):
            assert float(tail_bound(beta, t, tau_cutoff(beta, t, tol))) == pytest.approx(
                tol, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            inverse_density_grid(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            inverse_density_grid(0.5, 1.0, -0.5)
        with pytest.raises(ValueError):
            inverse_density_grid(0.5, -1.0, 0.5)

    @pytest.mark.parametrize("t,tau", [(np.nan, 1.0), (1.0, np.nan)])
    def test_nan_is_a_domain_error(self, t, tau):
        with pytest.raises(ValueError):
            inverse_density_grid(0.5, t, tau)


class TestLaplaceIdentity:
    def test_half_beta_grid(self):
        assert laplace_identity_residual(0.5, 1.0, [0.5, 1.0, 2.0]) < 1e-4

    def test_tau_zero(self):
        assert laplace_identity_residual(0.5, 0.0, [0.7, 1.3]) < 1e-4

    def test_other_beta(self):
        assert laplace_identity_residual(0.8, 2.0, [1.0]) < 1e-4
        for beta in (0.05, 0.95):     # near both ends of (0, 1)
            assert laplace_identity_residual(beta, 1.0, [0.5, 1.0, 2.0]) < 1e-4


class TestPathTypes:
    def test_subordinator_path_invariants(self):
        with pytest.raises(ValueError):
            SubordinatorPath(beta=0.5, times=np.array([0.0, 1.0]), values=np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            SubordinatorPath(beta=0.5, times=np.array([0.0, 1.0]), values=np.array([1.0, 2.0]))

    def test_inverse_path_invariants(self):
        with pytest.raises(ValueError):
            InversePath(times=np.array([0.0, 1.0]), values=np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            InversePath(times=np.array([0.0, 1.0, 2.0]), values=np.array([0.0, 1.0, 0.5]))

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gamma, roots_legendre

from fracfilt import subordinator
from fracfilt.sde_sim import ObservationRecord, StatePath
from fracfilt.subordinator import (
    InversePath,
    SubordinatorPath,
    inverse_density_grid,
    invert_path,
    laplace_identity_residual,
    sample_inverse_path,
    sample_stable_path,
    sample_standard_stable,
    stable_density,
    tail_bound,
    tau_cutoff,
    unit_slope_inverse,
)


def closed_form_half_density(u):
    # one-sided 1/2-stable with Laplace transform exp(-sqrt(s))
    return 1.0 / (2.0 * np.sqrt(np.pi)) * u ** (-1.5) * np.exp(-1.0 / (4.0 * u))


def stable_cdf(beta, u):
    """P(D_1 <= u) = (1/pi) int_0^pi exp(-a(phi) u^(-b/(1-b))) dphi by 256-point
    Gauss-Legendre: the density's independent check, sharing only a(phi)."""
    nodes, wts = roots_legendre(256)
    phi = 0.5 * np.pi * (nodes + 1.0)
    with np.errstate(over="ignore"):
        w = np.exp(subordinator._log_kanter_a(phi, beta)) * u ** (-beta / (1.0 - beta))
    return 0.5 * float(np.sum(wts * np.exp(-w)))


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

    def test_error_on_non_uniform_grid(self):
        # the test is relative: steps of 1e-9 and 2e-9 sit inside an absolute 1e-8
        times = 0.01 * np.arange(101)
        D = SubordinatorPath(beta=0.5, times=times, values=times.copy())
        for scale in (1e-2, 1e-9):
            with pytest.raises(ValueError, match="uniform"):
                invert_path(D, scale * np.array([0.0, 1.0, 3.0, 4.0]))

    @pytest.mark.parametrize("grid", [[0.1, 0.2, 0.3], [0.0, 0.2, 0.2], [0.0, 0.2, 0.1]])
    def test_error_when_grid_does_not_increase_from_zero(self, grid):
        # InversePath refuses the grid when it is built, and invert_path builds
        # one before it reads the grid
        times = 0.01 * np.arange(101)
        D = SubordinatorPath(beta=0.5, times=times, values=times.copy())
        match = "must start at 0" if grid[0] else "uniform with a positive step"
        with pytest.raises(ValueError, match=match):
            InversePath(times=np.array(grid), values=np.zeros(3))
        with pytest.raises(ValueError, match=match):
            invert_path(D, np.array(grid))

    def test_error_on_one_node_grid(self):
        times = 0.01 * np.arange(101)
        D = SubordinatorPath(beta=0.5, times=times, values=times.copy())
        with pytest.raises(ValueError, match="two nodes"):
            invert_path(D, np.zeros(1))

    def test_mean_of_inverse_at_t1(self):
        # E[T_1] = 1/Gamma(1.5) = 2/sqrt(pi); vectorized first-crossing of
        # sampled increment paths as the oracle for the path-based inversion.
        # step small enough that the crossing-interpolation bias (stable jumps
        # overshoot the level) stays below the Monte-Carlo band.  The increments
        # are sample_standard_stable(beta, (n, nsteps), Philox(key=21)), drawn in
        # row blocks with the same bits: its n uniforms take one 64-bit word
        # each, so its exponentials start n / 4 four-word Philox blocks in
        beta, step, n, nsteps, block = 0.5, 0.01, 100_000, 900, 4_000
        uniforms = np.random.Generator(np.random.Philox(key=21))
        exponentials = np.random.Generator(np.random.Philox(key=21).advance(n * nsteps // 4))
        tau = np.empty(n)
        rows = np.arange(block)
        for r in range(0, n, block):
            S = subordinator._cms_transform(uniforms.uniform(0.0, np.pi, (block, nsteps)),
                                            exponentials.standard_exponential((block, nsteps)),
                                            beta)
            D = np.cumsum(step ** (1.0 / beta) * S, axis=1)
            assert np.all(D[:, -1] >= 1.0)
            idx = np.argmax(D >= 1.0, axis=1)
            d_hi = D[rows, idx]
            d_lo = np.where(idx > 0, D[rows, np.maximum(idx - 1, 0)], 0.0)
            tau[r:r + block] = step * idx + step * (1.0 - d_lo) / (d_hi - d_lo)
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

    @pytest.mark.parametrize("beta", [0.001, 0.3, 0.5, 0.8, 0.995])
    def test_batch_equals_point_by_point(self, beta):
        # 300 integral-branch points span several evaluation blocks, and 40 more
        # sit on the series branch; neither the blocking, the one-point Clenshaw
        # sum nor the split into branches may change a bit (0.995 has no table,
        # and its density underflows below u = 0.94)
        switch = subordinator._series_switch(beta)
        lo = 0.9 if beta > 0.99 else 0.01
        u = np.concatenate([np.geomspace(lo, 0.999 * switch, 300),
                            switch * np.geomspace(1.0, 1e3, 40)])
        series = u >= switch
        batch = stable_density(beta, u)
        single = np.array([stable_density(beta, x) for x in u])
        assert np.array_equal(batch, single)
        assert np.array_equal(stable_density(beta, u[series]), batch[series])
        assert np.array_equal(stable_density(beta, u[~series]), batch[~series])
        assert (single[~series] != 0.0).sum() > 100

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

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 0.99])
    def test_table_bottom_matches_its_quadrature(self, beta):
        # the y of the 2,000 u just below the series switch, and the 100 y just
        # below the table's bottom exp(lo), some of which round to log y < lo
        lo, _, _ = subordinator._chebyshev_table(beta)
        switch = subordinator._series_switch(beta)
        u = switch - np.arange(1, 2001) * np.spacing(switch)
        bottom = np.exp(lo) - np.arange(100) * np.spacing(np.exp(lo))
        y = np.concatenate([u ** (-beta / (1.0 - beta)), bottom])
        assert np.any(np.log(y) < lo)
        table = subordinator._zolotarev_integral(y, beta)
        reference = subordinator._zolotarev_quadrature(y, beta)
        assert np.max(np.abs(table / reference - 1.0)) <= 1e-13

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

    @pytest.mark.parametrize("beta", [0.001, 0.3, 0.5, 0.8, 0.995])
    def test_batch_equals_point_by_point(self, beta):
        # tau = 0, a tau that takes the boundary value, and tau whose
        # t / tau^(1/beta) lies on each branch of stable_density
        switch = subordinator._series_switch(beta)
        u = np.concatenate([np.geomspace(0.01, 0.999 * switch, 30),
                            switch * np.geomspace(1.0, 1e3, 20)])
        t = np.array([0.5, 1.0, 2.0])[:, None]
        tau = np.concatenate([np.zeros((3, 1)), np.full((3, 1), 1e-260), (t / u) ** beta], axis=1)
        t = np.broadcast_to(t, tau.shape)
        x = t[:, 2:] / tau[:, 2:] ** (1.0 / beta)
        assert (x >= switch).any() and (x < switch).any()
        batch = inverse_density_grid(beta, t, tau)
        single = np.array([inverse_density_grid(beta, a, b) for a, b in zip(t.ravel(), tau.ravel())])
        assert np.array_equal(batch.ravel(), single)
        assert np.array_equal(batch[:, 1], t[:, 1] ** (-beta) / gamma(1.0 - beta))

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.8, 0.9, 0.95, 0.995])
    def test_finite_down_to_the_smallest_tau(self, beta):
        # just above the boundary rule the prefactor t / (beta tau^(1 + 1/beta))
        # overflows; g is continuous at 0, so there it takes the boundary value
        taus = np.geomspace(1e-320, 1.0, 3201)
        g = inverse_density_grid(beta, 1.0, taus)
        assert np.all(np.isfinite(g)) and np.all(g >= 0.0)
        g0 = 1.0 / gamma(1.0 - beta)
        assert np.max(np.abs(g[taus < 1e-60] - g0)) <= 1e-12 * g0

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


    @pytest.mark.parametrize("tau,s_grid,match", [
        (-0.1, [1.0], "tau must be nonnegative"),
        (1.0, [1.0, 0.0], "s_grid must be positive"),
        (1.0, [-2.0], "s_grid must be positive"),
    ])
    def test_refusals(self, tau, s_grid, match):
        with pytest.raises(ValueError, match=match):
            laplace_identity_residual(0.5, tau, s_grid)


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

    @pytest.mark.parametrize("times, match", [
        ([0.0], "at least two nodes"),
        ([], "at least two nodes"),
        ([0.0, 0.0, 0.0], "uniform with a positive step"),
        ([0.0, -0.1, -0.2], "uniform with a positive step"),
        ([0.0, 0.01, 0.03, 0.04], "uniform with a positive step"),
        ([0.0, 1e-9, 3e-9, 4e-9], "uniform with a positive step"),
        ([0.0, 0.1, np.nan], "uniform with a positive step"),
        ([0.1, 0.2, 0.3], "must start at 0"),
    ], ids=["one-node", "empty", "zero-steps", "negative-steps", "non-uniform",
            "non-uniform-1e-9", "nan", "late-start"])
    def test_inverse_path_refuses_its_grid(self, times, match):
        # the grid is checked before the values are read
        with pytest.raises(ValueError, match=match):
            InversePath(times=np.array(times), values=np.zeros(len(times)))

    @pytest.mark.parametrize("kind", ["SubordinatorPath", "InversePath", "StatePath",
                                      "ObservationRecord"])
    @pytest.mark.parametrize("case", ["row-count", "one-node", "zero-steps"])
    def test_every_path_type_refuses_values_that_do_not_fit_its_grid(self, kind, case):
        # the one base checks the rows against the grid, then the grid, before a
        # type's own rules read a value; each type names itself
        build = {"SubordinatorPath": lambda t, v: SubordinatorPath(times=t, values=v, beta=0.5),
                 "InversePath": InversePath, "StatePath": StatePath,
                 "ObservationRecord": ObservationRecord}[kind]
        rows = {"SubordinatorPath": ([0.0, 0.0, 5.0], [0.0, 1.0]),
                "InversePath": (np.linspace(0.0, 0.1, 11), np.zeros(3)),
                "StatePath": ([0.0, 0.5, 0.2], np.zeros(7)),
                "ObservationRecord": (np.linspace(0.0, 0.1, 11), np.zeros(5))}[kind]
        times, values, match = {
            "row-count": (*rows, "has values of shape"),
            "one-node": ([0.0], [0.0], "needs at least two nodes"),
            "zero-steps": ([0.0, 0.0, 0.0], [0.0, 1.0, 2.0], "must be uniform with a positive step"),
        }[case]
        with pytest.raises(ValueError, match=f"^{kind}('s time grid)? {match}"):
            build(np.array(times), np.array(values))

    @pytest.mark.parametrize("horizon, step, n", [(0.07, 0.01, 7), (0.14, 0.01, 14),
                                                  (0.28, 0.02, 14), (0.075, 0.01, 8)])
    def test_unit_slope_inverse_covers_the_horizon_without_overshoot(self, horizon, step, n):
        # 0.07 / 0.01 rounds to 7.000000000000001: still 7 steps, not one past
        T = unit_slope_inverse(horizon, step)
        assert len(T.times) == n + 1
        assert T.times[-1] >= horizon - 1e-12 and T.times[-2] < horizon
        assert np.array_equal(T.values, T.times)

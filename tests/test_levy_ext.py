import tracemalloc

import numpy as np
import pytest

from fracfilt import levy_ext
from fracfilt.models import JumpSpec, ModelSpec, SpatialGrid, gaussian_density, named_model
from fracfilt.sde_sim import (
    ObservationRecord,
    StatePath,
    kallianpur_striebel_estimate,
    likelihood_path,
    simulate_classical_pair,
    simulate_time_changed_state_direct,
)
from fracfilt.subordinator import sample_inverse_path, unit_slope_inverse
from fracfilt.zakai_fractional import solve_fractional_zakai, stable_step


def state_jump_model(lam0=2.0, marks=((0.3, 0.5), (-0.3, 0.5)), beta=0.5):
    base = named_model("ou-linear", beta)
    return ModelSpec(
        drift=base.drift, sigma=base.sigma, observation=base.observation,
        beta=beta, p0=base.p0,
        jumps=JumpSpec(intensity=lam0, atoms=list(marks),
                       state_jump_map=lambda x, w: np.full_like(np.asanyarray(x, dtype=float), w)),
        name="ou+state-jumps",
    )


def pure_jump_model(lam0=2.0):
    return ModelSpec(
        drift=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
        sigma=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
        observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
        beta=0.5, p0=gaussian_density(0.0, 1.0),
        jumps=JumpSpec(intensity=lam0, atoms=[(1.0, 1.0)],
                       state_jump_map=lambda x, w: np.full_like(np.asanyarray(x, dtype=float), w)),
    )


class TestJumpStateSimulation:
    def test_zero_rate_matches_classical_per_seed(self):
        m0 = state_jump_model(lam0=0.0)
        base = named_model("ou-linear", 0.5)
        jpath = levy_ext.simulate_jump_state(m0, horizon=1.0, step=1e-2, seed=61)
        ypath, _ = simulate_classical_pair(base, 1.0, 1e-2, seed=61)
        assert np.array_equal(jpath.values, ypath.values)
        assert jpath.jump_log == ()

    def test_jump_path_pinned(self):
        p = levy_ext.simulate_jump_state(state_jump_model(lam0=2.0), horizon=1.0, step=1e-2,
                                         seed=61)
        assert p.values[-1] == 1.3409487754641265
        assert p.jump_log == ((0.23295496768751967, -0.3),)

    def test_compound_poisson_mean(self):
        # b = sigma = 0, unit marks, lam0 = 2: E[X_t - X_0] = 2 t
        m = pure_jump_model(lam0=2.0)
        drift = []
        for i in range(3000):
            p = levy_ext.simulate_jump_state(m, horizon=1.0, step=0.02, seed=100 + i)
            drift.append(p.values[-1] - p.values[0])
        drift = np.array(drift)
        se = drift.std(ddof=1) / np.sqrt(len(drift))
        assert abs(drift.mean() - 2.0) < 3.0 * se

    def test_jump_counts_are_poisson(self):
        # at step 0.6 the grid ends at 1.2, past the horizon 1, and the
        # count covers the whole grid
        m = pure_jump_model(lam0=2.0)
        for step in (0.05, 0.6):
            paths = [levy_ext.simulate_jump_state(m, 1.0, step, seed=5000 + i)
                     for i in range(3000)]
            counts = np.array([len(p.jump_log) for p in paths])
            lam_t = 2.0 * paths[0].times[-1]
            se_mean = counts.std(ddof=1) / np.sqrt(len(counts))
            assert abs(counts.mean() - lam_t) < 3.0 * se_mean
            var = counts.var(ddof=1)
            se_var = var * np.sqrt(2.0 / (len(counts) - 1)) + 0.05
            assert abs(var - lam_t) < 3.0 * se_var

    def test_negative_rate_rejected(self):
        m = state_jump_model(lam0=1.0)
        bad = ModelSpec(drift=m.drift, sigma=m.sigma, observation=m.observation,
                        beta=0.5, p0=m.p0, jumps=None)
        with pytest.raises(ValueError):
            levy_ext.simulate_jump_state(bad, 1.0, 0.01, seed=0)


class TestJumpStateSolver:
    def test_zero_rate_degenerates_exactly(self):
        beta = 0.5
        grid = SpatialGrid(-6.0, 6.0, 32)
        m0 = state_jump_model(lam0=0.0)
        base = named_model("ou-linear", beta)
        step = 5e-3
        _, Z = simulate_classical_pair(base, 0.5 + step, step, seed=62)
        T = unit_slope_inverse(0.5, step)
        a = solve_fractional_zakai(m0, grid, T, Z)
        b = solve_fractional_zakai(base, grid, T, Z)
        assert np.array_equal(a.values, b.values)

    def test_against_jump_diffusion_histogram(self):
        # h = 0, kernel memory at beta = 0.999 with unit clock approximates the
        # jump-diffusion Fokker-Planck; oracle: vectorized Monte-Carlo histogram
        beta = 0.999
        grid = SpatialGrid(-8.0, 8.0, 64)
        base = named_model("ou-linear", beta)
        model = ModelSpec(
            drift=base.drift, sigma=base.sigma,
            observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
            beta=beta, p0=base.p0,
            jumps=JumpSpec(intensity=1.0, atoms=[(0.8, 0.5), (-0.8, 0.5)],
                           state_jump_map=lambda x, w: np.full_like(np.asanyarray(x, dtype=float), w)),
        )
        from fracfilt.models import adjoint_matrix
        A = adjoint_matrix(model, grid)
        dt = min(2e-3, stable_step(beta, A))
        horizon = 1.0
        n = int(np.ceil(horizon / dt))
        dt = horizon / n
        T = unit_slope_inverse(horizon, dt)
        nt = int(round(1.2 / 1e-2))
        zeros = ObservationRecord(times=1e-2 * np.arange(nt + 1), values=np.zeros(nt + 1))
        Phi = solve_fractional_zakai(model, grid, T, zeros, memory="kernel", adjoint=A)
        # oracle: per-step Poisson thinning of the jump times on a fixed grid
        rng = np.random.Generator(np.random.Philox(key=4321))
        npaths, steps = 100_000, 500
        h_step = horizon / steps
        x = rng.normal(0.0, 1.0, npaths)
        for _ in range(steps):
            x = x - x * h_step + np.sqrt(2.0 * h_step) * rng.standard_normal(npaths)
            njump = rng.poisson(1.0 * h_step, npaths)
            signs = rng.choice([-0.8, 0.8], npaths)
            x = x + signs * njump
        hist, edges = np.histogram(x, bins=np.concatenate([
            [grid.lower - 0.5 * grid.spacing],
            grid.nodes + 0.5 * grid.spacing,
        ]), density=True)
        final = Phi.at_time(horizon)
        l1 = np.sum(np.abs(final - hist)) * grid.spacing
        assert l1 < 5e-2

    def test_posterior_mean_matches_particles(self):
        # beta = 0.5, linear h: grid posterior vs weighted particles on one V path
        beta = 0.5
        grid = SpatialGrid(-6.0, 6.0, 48)
        model = state_jump_model(lam0=1.0, marks=((0.4, 0.5), (-0.4, 0.5)), beta=beta)
        _, T = sample_inverse_path(beta, 1.0, 1e-3, seed=63, n_nodes=501)
        tau_max = float(np.max(T.values))
        _, Z = simulate_classical_pair(model, tau_max * 1.02 + 1e-3, 1e-3, seed=64)
        Phi = solve_fractional_zakai(model, grid, T, Z)

        # particle oracle under the reference measure with the same clock
        rng = np.random.Generator(np.random.Philox(key=65))
        n = 20_000
        dT = np.diff(T.values)
        zmat = Z.matrix()[:, 0]
        V = np.interp(T.values, Z.times, zmat)
        dV = np.diff(V)
        x = rng.normal(0.0, 1.0, n)
        logw = np.zeros(n)
        for k in range(len(dT)):
            logw += x * dV[k] - 0.5 * x * x * dT[k]
            x = x - x * dT[k] + np.sqrt(2.0 * dT[k]) * rng.standard_normal(n)
            njump = rng.poisson(1.0 * dT[k], n)
            signs = rng.choice([-0.4, 0.4], n)
            x = x + signs * njump
        w = np.exp(logw - logw.max())
        est = float(np.sum(w * x) / np.sum(w))
        sd = float(np.sqrt(np.sum((w / w.sum()) ** 2 * (x - est) ** 2)))

        dens = Phi.at_time(1.0)
        dens = dens / (np.sum(dens) * grid.spacing)
        mean_grid = float(np.sum(dens * grid.nodes) * grid.spacing)
        assert abs(mean_grid - est) < 3.0 * sd + 2e-2


class TestJumpObservationLikelihood:
    def test_uninformative_rate_gives_unit_likelihood(self):
        m = named_model("jump-poisson", 0.5)
        flat = ModelSpec(drift=m.drift, sigma=m.sigma,
                         observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                         beta=0.5, p0=m.p0,
                         jumps=JumpSpec(intensity=1.0, atoms=[(1.0, 1.0)],
                                        obs_rate=lambda t, x, w: np.ones_like(np.asanyarray(x, dtype=float))))
        times = np.linspace(0.0, 1.0, 101)
        obs = ObservationRecord(times=times, values=np.zeros(101),
                                events=((0.25, 1.0), (0.8, 1.0)))
        X = StatePath(times=times, values=np.zeros(101))
        L = likelihood_path(flat, X, obs)
        assert np.allclose(L.values, 1.0, atol=1e-14)

    def test_hand_computed_single_event(self):
        base = named_model("ou-linear", 0.5)
        m = ModelSpec(drift=base.drift, sigma=base.sigma,
                      observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                      beta=0.5, p0=base.p0,
                      jumps=JumpSpec(intensity=1.0, atoms=[(1.0, 1.0)],
                                     obs_rate=lambda t, x, w: 2.0 * np.ones_like(np.asanyarray(x, dtype=float))))
        times = np.linspace(0.0, 1.0, 1001)
        obs = ObservationRecord(times=times, values=np.zeros(1001),
                                events=((0.5, 1.0),))
        X = StatePath(times=times, values=np.zeros(1001))
        L = likelihood_path(m, X, obs)
        assert abs(L.values[-1] - 2.0 * np.exp(-1.0)) < 1e-3

    def test_nonpositive_rate_rejected(self):
        base = named_model("ou-linear", 0.5)
        m = ModelSpec(drift=base.drift, sigma=base.sigma,
                      observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                      beta=0.5, p0=base.p0,
                      jumps=JumpSpec(intensity=1.0, atoms=[(1.0, 1.0)],
                                     obs_rate=lambda t, x, w: np.zeros_like(np.asanyarray(x, dtype=float))))
        times = np.linspace(0.0, 1.0, 101)
        obs = ObservationRecord(times=times, values=np.zeros(101),
                                events=((0.5, 1.0),))
        X = StatePath(times=times, values=np.zeros(101))
        with pytest.raises(ValueError, match="log undefined"):
            likelihood_path(m, X, obs)

    def test_martingale_mean_small(self):
        # quick version; the acceptance suite runs the 1e5-path variant
        m = named_model("jump-poisson", 0.5)
        rng = np.random.Generator(np.random.Philox(key=66))
        n, steps = 20_000, 100
        dt = 1.0 / steps
        xs = np.empty((n, steps + 1))
        xs[:, 0] = rng.normal(0.0, 1.0, n)
        for k in range(steps):
            xs[:, k + 1] = xs[:, k] - xs[:, k] * dt + np.sqrt(2.0 * dt) * rng.standard_normal(n)
        logw = np.zeros(n)
        for w_mark, p in m.jumps.atoms:
            lam = 1.0 + 0.5 * w_mark * np.tanh(xs[:, :-1])
            logw += m.jumps.intensity * p * (1.0 - lam).sum(axis=1) * dt
        counts = rng.poisson(m.jumps.intensity, n)
        for _ in range(int(counts.max())):
            alive = counts > 0
            tev = rng.uniform(0.0, 1.0, n)
            marks = rng.choice(m.jumps.marks, size=n, p=m.jumps.probabilities)
            idx = np.minimum((tev / dt).astype(int), steps - 1)
            lam_ev = 1.0 + 0.5 * marks * np.tanh(xs[np.arange(n), idx])
            logw += np.where(alive, np.log(lam_ev), 0.0)
            counts -= alive.astype(int)
        w = np.exp(logw)
        se = w.std(ddof=1) / np.sqrt(n)
        assert abs(w.mean() - 1.0) < 3.0 * se


class TestJumpObservationFilter:
    def setup_single_run(self, seed=70):
        beta = 0.5
        m = named_model("jump-poisson", beta)
        _, T = sample_inverse_path(beta, 1.0, 1e-3, seed=seed, n_nodes=501)
        X = simulate_time_changed_state_direct(m, T, seed=seed + 1)
        obs = levy_ext.simulate_jump_observation(m, X, T, seed=seed + 2)
        return m, T, X, obs

    def test_constant_functional_normalizes_to_one(self):
        m, T, X, obs = self.setup_single_run()
        res = levy_ext.fractional_filter_jump_obs(m, T, obs, lambda x: np.ones_like(x),
                                                  400, seed=71)
        assert np.allclose(res.posterior, 1.0, atol=1e-12)

    def test_nu_zero_matches_continuous_particles_exactly(self):
        m, T, X, obs = self.setup_single_run(seed=73)
        nu0 = ModelSpec(drift=m.drift, sigma=m.sigma, observation=m.observation,
                        beta=m.beta, p0=m.p0,
                        jumps=JumpSpec(intensity=0.0, atoms=[(1.0, 1.0)],
                                       obs_rate=m.jumps.obs_rate))
        obs0 = ObservationRecord(times=T.times, values=obs.values)
        res = levy_ext.fractional_filter_jump_obs(nu0, T, obs0, lambda x: x, 500, seed=74)
        ks = kallianpur_striebel_estimate(nu0, obs0, lambda x: x, 500, seed=74,
                                          dt_weights=np.diff(T.values))
        assert np.max(np.abs(res.posterior - ks.values)) < 1e-10

    def test_equation_residual_within_combined_errors(self):
        m, T, X, obs = self.setup_single_run(seed=75)
        f = lambda x: x
        res = levy_ext.fractional_filter_jump_obs(
            m, T, obs, f, 3000, seed=76,
            residual_test_functions=[(f, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))],
        )
        r = res.residuals[0]
        assert abs(r["residual"]) <= 3.0 * r["se"]

    def test_event_log_roundtrip(self):
        m, T, X, obs = self.setup_single_run(seed=77)
        ts = [t for t, _ in obs.events]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        for _, w in obs.events:
            assert w in (1.0, -1.0)

    def test_event_at_zero_rate_raises(self):
        # the rate is 2 at every node but 0 at the event time between two nodes
        step = 1e-2
        base = named_model("ou-linear", 0.5)
        m = ModelSpec(
            drift=base.drift, sigma=base.sigma, observation=base.observation,
            beta=0.5, p0=base.p0,
            jumps=JumpSpec(intensity=1.0, atoms=[(1.0, 1.0)],
                           obs_rate=lambda t, x, w: (1.0 + np.cos(2.0 * np.pi * t / step))
                           * np.ones_like(np.asanyarray(x, dtype=float))),
        )
        T = unit_slope_inverse(1.0, step)
        obs = ObservationRecord(times=T.times, values=np.zeros(len(T.times)),
                                events=((0.505, 1.0),))
        with pytest.raises(ValueError, match="log undefined"):
            levy_ext.fractional_filter_jump_obs(m, T, obs, lambda x: x, 200, seed=78)

    def test_event_where_some_particles_have_zero_rate(self):
        # lam = 2 1{x > 0}: particles at x <= 0 cannot have produced the event
        # and drop to weight 0; the compensator accepts lam = 0 at the nodes
        step = 1e-2
        base = named_model("ou-linear", 0.5)
        m = ModelSpec(
            drift=base.drift, sigma=base.sigma, observation=base.observation,
            beta=0.5, p0=base.p0,
            jumps=JumpSpec(intensity=2.0, atoms=[(1.0, 1.0)],
                           obs_rate=lambda t, x, w: 2.0 * (np.asanyarray(x, dtype=float) > 0.0)),
        )
        T = unit_slope_inverse(1.0, step)
        obs = ObservationRecord(times=T.times, values=np.zeros(len(T.times)),
                                events=((0.505, 1.0),))
        with np.errstate(all="raise"):
            res = levy_ext.fractional_filter_jump_obs(m, T, obs, lambda x: x, 200, seed=78)
        after = int(np.searchsorted(T.times, 0.505))
        assert np.all(np.isfinite(res.posterior))
        assert res.posterior[after] > 0.0

    def test_memory_peak_stays_below_twice_the_noise_array(self):
        # the (particles, steps) noise array is the only allocation that grows
        # with both sizes; state, weights and residual sums are per particle
        m = named_model("jump-poisson", 0.5)
        T = unit_slope_inverse(1.0, 1e-3)
        X = simulate_time_changed_state_direct(m, T, seed=80)
        obs = levy_ext.simulate_jump_observation(m, X, T, seed=81)
        n, M = 2000, len(T.times) - 1
        f = lambda x: x
        tracemalloc.start()
        try:
            levy_ext.fractional_filter_jump_obs(
                m, T, obs, f, n, seed=82,
                residual_test_functions=[(f, np.ones_like, np.zeros_like)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.0 * n * M * 8

import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracfilt import levy_ext
from fracfilt.models import JumpSpec, ModelSpec, SpatialGrid, gaussian_density, named_model
from fracfilt.sde_sim import (
    ObservationRecord,
    simulate_classical_pair,
    simulate_time_changed_state_direct,
)
from fracfilt.subordinator import InversePath, sample_inverse_path, unit_slope_inverse
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
        assert p.values[-1] == 1.3420492231642125
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
        Phi = solve_fractional_zakai(model, grid, T, zeros, memory="kernel")
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
        V = np.interp(T.values, Z.times, Z.values)
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
    # with h = 0 and a constant rate every particle carries the same weight,
    # so the unnormalized estimate of f = 1 is Lambda_t itself
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
        res = levy_ext.fractional_filter_jump_obs(flat, InversePath(times, times), obs,
                                                  np.ones_like, 100, seed=60)
        assert np.all(res.unnormalized == 1.0)

    def test_hand_computed_single_event(self):
        # lam = 2 and one event on [0, 1]: Lambda_1 = 2 exp(-(2 - 1))
        base = named_model("ou-linear", 0.5)
        m = ModelSpec(drift=base.drift, sigma=base.sigma,
                      observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                      beta=0.5, p0=base.p0,
                      jumps=JumpSpec(intensity=1.0, atoms=[(1.0, 1.0)],
                                     obs_rate=lambda t, x, w: 2.0 * np.ones_like(np.asanyarray(x, dtype=float))))
        times = np.linspace(0.0, 1.0, 1001)
        obs = ObservationRecord(times=times, values=np.zeros(1001),
                                events=((0.5, 1.0),))
        res = levy_ext.fractional_filter_jump_obs(m, InversePath(times, times), obs,
                                                  np.ones_like, 100, seed=61)
        assert res.unnormalized[-1] == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12, abs=0.0)


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
        # a channel at intensity 0 adds no term: the filter of the channel-free
        # model on the same time-changed pair and seed
        m, T, X, obs = self.setup_single_run(seed=73)
        nu0 = ModelSpec(drift=m.drift, sigma=m.sigma, observation=m.observation,
                        beta=m.beta, p0=m.p0,
                        jumps=JumpSpec(intensity=0.0, atoms=[(1.0, 1.0)],
                                       obs_rate=m.jumps.obs_rate))
        obs0 = ObservationRecord(times=T.times, values=obs.values)
        res = levy_ext.fractional_filter_jump_obs(nu0, T, obs0, lambda x: x, 500, seed=74)
        cont = levy_ext.fractional_filter_jump_obs(replace(m, jumps=None), T, obs0,
                                                   lambda x: x, 500, seed=74)
        assert np.max(np.abs(res.posterior - cont.posterior)) < 1e-10

    def test_record_off_the_clock_grid_raises(self):
        m, T, X, obs = self.setup_single_run(seed=79)
        stretched = ObservationRecord(times=2.0 * T.times, values=obs.values, events=obs.events)
        with pytest.raises(ValueError, match="real-time grid"):
            levy_ext.fractional_filter_jump_obs(m, T, stretched, lambda x: x, 200, seed=79)

    def test_one_node_clock_raises(self):
        # the clock and the record refuse the grid when they are built
        with pytest.raises(ValueError, match="at least two nodes"):
            InversePath(times=np.array([0.0]), values=np.array([0.0]))
        with pytest.raises(ValueError, match="at least two nodes"):
            ObservationRecord(times=np.array([0.0]), values=np.zeros(1))

    def test_equation_residual_within_combined_errors(self):
        m, T, X, obs = self.setup_single_run(seed=75)
        f = lambda x: x
        res = levy_ext.fractional_filter_jump_obs(
            m, T, obs, f, 3000, seed=76,
            residual_test_functions=[(f, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))],
        )
        r = res.residuals[0]
        assert abs(r["residual"]) <= 3.0 * r["se"]

    def test_simulation_refusals(self):
        jm = named_model("jump-poisson", 0.5)
        T = unit_slope_inverse(1.0, 1e-2)
        X = simulate_time_changed_state_direct(jm, T, seed=5)
        two_channels = replace(jm, observation=lambda x: np.column_stack([x, x]))
        negative = replace(jm, jumps=replace(jm.jumps, obs_rate=lambda t, x, w: -1.0 + 0.0 * x))
        for m, match in [(replace(jm, jumps=None), "no observation jump specification"),
                         (state_jump_model(), "no observation jump specification"),
                         (two_channels, "scalar-continuous-part only"),
                         (negative, "must be nonnegative")]:
            with pytest.raises(ValueError, match=match):
                levy_ext.simulate_jump_observation(m, X, T, seed=6)

    def test_plateau_steps_carry_no_events(self):
        # the clock is flat on [0.3, 0.7]: no observation time passes there
        jm = named_model("jump-poisson", 0.5)
        m = replace(jm, jumps=replace(jm.jumps, intensity=200.0))
        times = np.linspace(0.0, 1.0, 101)
        T = InversePath(times, np.minimum(times, 0.3) + np.maximum(times - 0.7, 0.0))
        X = simulate_time_changed_state_direct(m, T, seed=7)
        obs = levy_ext.simulate_jump_observation(m, X, T, seed=8)
        flat = (times >= 0.3) & (times <= 0.7)
        assert np.all(obs.values[flat] == obs.values[flat][0])
        ts = np.array([t for t, _ in obs.events])
        assert len(ts) > 50 and not np.any((ts > 0.3) & (ts < 0.7))

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

    def test_event_at_negative_rate_raises(self):
        # the rate is 1.5 at every node but -0.5 at the event time between two nodes
        step = 1e-2
        jm = named_model("jump-poisson", 0.5)
        m = replace(jm, jumps=JumpSpec(
            intensity=1.0, atoms=[(1.0, 1.0)],
            obs_rate=lambda t, x, w: (0.5 + np.cos(2.0 * np.pi * t / step))
            * np.ones_like(np.asanyarray(x, dtype=float))))
        T = unit_slope_inverse(1.0, step)
        obs = ObservationRecord(times=T.times, values=np.zeros(len(T.times)),
                                events=((0.505, 1.0),))
        with pytest.raises(ValueError, match="lam < 0 at event"):
            levy_ext.fractional_filter_jump_obs(m, T, obs, lambda x: x, 200, seed=78)

    def test_nan_rate_raises(self):
        # a NaN multiplier is no more a rate than a negative one: it would turn
        # the weights NaN without a word
        jm = named_model("jump-poisson", 0.5)
        m = replace(jm, jumps=replace(jm.jumps, obs_rate=lambda t, x, w: np.where(
            np.asanyarray(x, dtype=float) > 0.0, np.nan, 1.0)))
        T = unit_slope_inverse(0.1, 1e-2)
        obs = ObservationRecord(times=T.times, values=np.zeros(len(T.times)))
        with pytest.raises(ValueError, match="nonnegative"):
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

    def test_prefix_run_reproduces_the_full_run(self):
        # the first 200 steps of the clock and the record, events up to the
        # last kept node included, give the first 201 outputs of the full run
        m, T, X, obs = self.setup_single_run(seed=83)
        t_end = T.times[200]
        assert 0 < sum(s <= t_end for s, _ in obs.events) < len(obs.events)
        head_T = InversePath(times=T.times[:201], values=T.values[:201])
        head = ObservationRecord(times=obs.times[:201], values=obs.values[:201],
                                 events=tuple(e for e in obs.events if e[0] <= t_end))
        full = levy_ext.fractional_filter_jump_obs(m, T, obs, lambda x: x, 500, seed=84)
        part = levy_ext.fractional_filter_jump_obs(m, head_T, head, lambda x: x, 500, seed=84)
        assert np.array_equal(part.posterior, full.posterior[:201])
        assert np.array_equal(part.unnormalized, full.unnormalized[:201])
        assert np.array_equal(part.ess, full.ess[:201])

    def test_outputs_are_pinned(self):
        # 400 steps of a beta = 1/2 clock with 10 marked events and two
        # residual triples; every output array is pinned by its sha1
        jm = named_model("jump-poisson", 0.5, rate=5.0)
        _, T = sample_inverse_path(0.5, 1.0, 1e-3, seed=83, n_nodes=401)
        X = simulate_time_changed_state_direct(jm, T, seed=84)
        obs = levy_ext.simulate_jump_observation(jm, X, T, seed=85)
        assert len(obs.events) == 10
        f = lambda x: x
        sech2 = lambda x: 1.0 - np.tanh(x) ** 2
        res = levy_ext.fractional_filter_jump_obs(
            jm, T, obs, f, 500, seed=86,
            residual_test_functions=[(f, np.ones_like, np.zeros_like),
                                     (np.tanh, sech2, lambda x: -2.0 * np.tanh(x) * sech2(x))])
        assert res.posterior[-1] == -0.8974631884326035
        assert res.unnormalized[-1] == -0.8998532341269135
        assert res.ess[-1] == 82.28613220256183
        for a, digest in ((res.posterior, "7f0e6653ad8aa394ee00bbae08279444e17d9c8c"),
                          (res.unnormalized, "4852b24f7e2ac6d95ee1269fe62fe99dc71fc6d7"),
                          (res.ess, "f3d9cfdbf01a0da7c81e8219a9f2079fc31d98c6")):
            assert hashlib.sha1(a.tobytes()).hexdigest() == digest
        assert res.residuals == ({"residual": -0.10893361911608185, "se": 0.319165434189874},
                                 {"residual": -0.05176653887807373, "se": 0.1646404194262065})

    def test_memory_peak_stays_below_twice_the_noise_array(self):
        # state, weights, residual sums and each step's draws are per particle;
        # the bound is twice what one (particles, steps) array would take
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

import numpy as np
import pytest

from fracfilt import zakai_fractional
from fracfilt.models import JumpSpec, ModelSpec, SpatialGrid, gaussian_density, named_model
from fracfilt.sde_sim import ObservationRecord, simulate_classical_pair
from fracfilt.subordinator import InversePath, unit_slope_inverse
from fracfilt.zakai_classical import (
    grid_moments,
    kalman_bucy_reference,
    normalize,
    solve_zakai,
)
from fracfilt.zakai_fractional import solve_fractional_zakai


def zero_obs(horizon, step):
    n = int(round(horizon / step))
    t = step * np.arange(n + 1)
    return ObservationRecord(times=t, values=np.zeros(n + 1))


def ou_from_wide_start(beta=0.5):
    base = named_model("ou-linear", beta)
    return ModelSpec(
        drift=base.drift, sigma=base.sigma,
        observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
        beta=beta, p0=gaussian_density(0.0, 2.0), name="ou-wide",
    )


class TestFokkerPlanckLimit:
    def test_relaxation_to_stationary_density(self):
        # h = 0 reduces to Fokker-Planck; N(0, 4) initial relaxes to N(0, 1)
        grid = SpatialGrid(-16.0, 16.0, 1600)   # spacing 0.02, wide enough for N(0,2)
        model = ou_from_wide_start()
        U = solve_zakai(model, grid, zero_obs(10.0, 1e-3))
        dens, _ = normalize(U, 10.0)
        x = grid.nodes
        target = np.exp(-0.5 * x ** 2) / np.sqrt(2.0 * np.pi)
        l1 = np.sum(np.abs(dens - target)) * grid.spacing
        assert l1 < 1e-2

    def test_mass_exactly_conserved_without_observation(self):
        grid = SpatialGrid(-16.0, 16.0, 400)
        model = ou_from_wide_start()
        U = solve_zakai(model, grid, zero_obs(1.0, 1e-3))
        mass = U.mass()
        assert np.max(np.abs(mass - mass[0])) < 1e-8

    def test_nonnegativity_with_observations(self):
        model = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(model, 1.0, 1e-3, seed=41)
        grid = SpatialGrid(-8.0, 8.0, 200)
        U = solve_zakai(model, grid, Z)
        assert np.min(U.values) >= 0.0

    def test_jump_state_model_is_the_identity_clock_solve(self):
        base = named_model("ou-linear", 0.5)
        m = ModelSpec(drift=base.drift, sigma=base.sigma, observation=base.observation,
                      beta=0.5, p0=base.p0,
                      jumps=JumpSpec(intensity=1.0, atoms=[(1.0, 1.0)],
                                     state_jump_map=lambda x, w: np.full_like(x, w)))
        grid = SpatialGrid(-8.0, 8.0, 64)
        obs = zero_obs(0.1, 1e-2)
        U = solve_zakai(m, grid, obs)
        Phi = solve_fractional_zakai(m, grid, unit_slope_inverse(0.1, 1e-2), obs)
        assert np.array_equal(U.values, Phi.values)


class TestFrontDoor:
    """solve_zakai refuses what solve_fractional_zakai refuses."""

    def test_non_uniform_record_refused_by_both_solvers(self):
        # the test is relative: steps of 1e-9 and 2e-9 sit inside an absolute 1e-8;
        # the record and the clock refuse the grid when they are built, so
        # neither solver can be handed it
        for scale in (1e-2, 1e-9):
            t = scale * np.array([0.0, 1.0, 3.0, 4.0])
            with pytest.raises(ValueError, match="uniform with a positive step"):
                ObservationRecord(times=t, values=np.zeros(4))
            with pytest.raises(ValueError, match="uniform with a positive step"):
                InversePath(times=t, values=t)

    def test_step_limit_covers_classical_solves(self, monkeypatch):
        monkeypatch.setattr(zakai_fractional, "_MAX_STEPS", 100)
        model = named_model("ou-linear", 0.5)
        grid = SpatialGrid(-8.0, 8.0, 64)
        solve_zakai(model, grid, zero_obs(1.0, 1e-2))
        with pytest.raises(ValueError, match="101 steps"):
            solve_zakai(model, grid, zero_obs(1.01, 1e-2))


class TestNormalize:
    def test_unit_mass_output(self):
        grid = SpatialGrid(-8.0, 8.0, 300)
        model = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(model, 0.5, 1e-3, seed=43)
        U = solve_zakai(model, grid, Z)
        dens, norm = normalize(U, 0.5)
        assert abs(np.sum(dens) * grid.spacing - 1.0) < 1e-12
        assert norm > 0.0

    def test_scaling_invariance(self):
        grid = SpatialGrid(-8.0, 8.0, 300)
        model = named_model("ou-linear", 0.5)
        U = solve_zakai(model, grid, zero_obs(0.3, 1e-3))
        from dataclasses import replace
        dens1, _ = normalize(U, 0.3)
        dens2, _ = normalize(replace(U, values=7.5 * U.values), 0.3)
        assert np.allclose(dens1, dens2, atol=1e-15)

    def test_point_mass_profile(self):
        from fracfilt.zakai_classical import FilterDensityGrid
        grid = SpatialGrid(-1.0, 1.0, 10)
        vals = np.zeros((1, grid.n_nodes))
        vals[0, 4] = 3.0
        U = FilterDensityGrid(grid=grid, times=np.array([0.0]), values=vals)
        dens, _ = normalize(U, 0.0)
        assert dens[4] == pytest.approx(1.0 / grid.spacing)

    def test_at_time_outside_stored_times_raises(self):
        from fracfilt.zakai_classical import FilterDensityGrid
        grid = SpatialGrid(-1.0, 1.0, 10)
        times = 0.1 * np.arange(4)
        U = FilterDensityGrid(grid=grid, times=times,
                              values=np.outer(np.arange(1.0, 5.0), np.ones(grid.n_nodes)))
        assert np.all(U.at_time(0.15) == 2.5)
        # a query one ulp past either end is the end row
        assert np.all(U.at_time(np.nextafter(times[-1], 1.0)) == 4.0)
        assert np.all(U.at_time(-1e-17) == 1.0)
        for t in (-1e-6, times[-1] + 1e-6, 2.0):
            with pytest.raises(ValueError, match="outside"):
                U.at_time(t)

    def test_vanished_mass_raises(self):
        from fracfilt.zakai_classical import FilterDensityGrid
        grid = SpatialGrid(-1.0, 1.0, 10)
        U = FilterDensityGrid(grid=grid, times=np.array([0.0]),
                              values=np.zeros((1, grid.n_nodes)))
        with pytest.raises(ValueError, match="mass"):
            normalize(U, 0.0)


class TestKalmanBucy:
    def test_riccati_fixed_point(self):
        # a = 0, sigma = 1, c = 1: P* = 1
        obs = zero_obs(10.0, 1e-3)
        _, P = kalman_bucy_reference(0.0, 1.0, 1.0, obs, m0=0.0, p0=0.3)
        assert abs(P[-1] - 1.0) < 1e-4

    def test_pure_prediction_limit(self):
        # c = 0: dP/dt = 2aP + sigma^2; a = -1, sigma = sqrt(2) has P_inf = 1
        obs = zero_obs(10.0, 1e-3)
        _, P = kalman_bucy_reference(-1.0, np.sqrt(2.0), 0.0, obs, m0=0.0, p0=4.0)
        assert abs(P[-1] - 1.0) < 1e-6

    def test_no_dynamics_no_information(self):
        obs = zero_obs(1.0, 1e-3)
        m, P = kalman_bucy_reference(0.0, 0.0, 1.0, obs, m0=0.7, p0=0.0)
        assert np.all(P == 0.0)
        assert np.allclose(m, 0.7, atol=1e-12)

    def test_one_observation_column_only(self):
        _, Z = simulate_classical_pair(named_model("ou-linear", 0.5), 1.0, 1e-2, seed=3)
        flat = kalman_bucy_reference(-1.0, np.sqrt(2.0), 1.0, Z)
        column = kalman_bucy_reference(-1.0, np.sqrt(2.0), 1.0,
                                       ObservationRecord(Z.times, Z.values[:, None]))
        assert np.array_equal(flat, column)
        two = ObservationRecord(Z.times, np.column_stack([Z.values, Z.values]))
        with pytest.raises(ValueError, match="scalar-observation only"):
            kalman_bucy_reference(-1.0, np.sqrt(2.0), 1.0, two)

    def test_zakai_moments_track_reference(self):
        # short-horizon version of the linear-model oracle
        a, sig, c = -1.0, np.sqrt(2.0), 1.0
        model = named_model("ou-linear", 0.5, a=a, sigma_const=sig, c=c)
        _, Z = simulate_classical_pair(model, 1.0, 1e-3, seed=45)
        grid = SpatialGrid(-8.0, 8.0, 800)
        U = solve_zakai(model, grid, Z)
        mref, pref = kalman_bucy_reference(a, sig, c, Z, m0=0.0, p0=1.0)
        for k in (250, 500, 1000):
            dens, _ = normalize(U, Z.times[k])
            m, v = grid_moments(grid, dens)
            assert abs(m - mref[k]) < 5e-2
            assert abs(v - pref[k]) < 5e-2

    def test_vector_observation_components(self):
        # two observation channels: the solver, the likelihood weights, and the
        # particle estimate all consume (M, m) increments; cross-check posteriors
        from fracfilt.sde_sim import kallianpur_striebel_estimate
        model = ModelSpec(
            drift=lambda x: -x,
            sigma=lambda x: np.full_like(np.asanyarray(x, dtype=float), np.sqrt(2.0)),
            observation=lambda x: np.column_stack([x, np.tanh(x)]) if np.ndim(x) else None,
            beta=0.5, p0=gaussian_density(0.0, 1.0), name="two-channel",
        )
        _, Z = simulate_classical_pair(model, 0.5, 1e-3, seed=48)
        assert Z.values.shape[1] == 2
        grid = SpatialGrid(-8.0, 8.0, 400)
        U = solve_zakai(model, grid, Z)
        dens, _ = normalize(U, 0.5)
        m_grid, _ = grid_moments(grid, dens)
        ks = kallianpur_striebel_estimate(model, Z, lambda x: x, 8000, seed=49)
        se = ks.posterior_sd[-1]
        assert abs(ks.values[-1] - m_grid) < 3.0 * se + 1e-2

    def test_refinement_shrinks_reference_error(self):
        # 4x refinement in spacing and step must cut the sup error by >= 1.5
        a, sig, c = -1.0, np.sqrt(2.0), 1.0
        model = named_model("ou-linear", 0.5, a=a, sigma_const=sig, c=c)
        _, Z = simulate_classical_pair(model, 1.0, 1e-3, seed=46)
        mref, pref = kalman_bucy_reference(a, sig, c, Z, m0=0.0, p0=1.0)

        def sup_error(cells, stride):
            sub = ObservationRecord(times=Z.times[::stride], values=Z.values[::stride])
            grid = SpatialGrid(-8.0, 8.0, cells)
            U = solve_zakai(model, grid, sub)
            worst = 0.0
            for k in range(stride, len(Z.times), 200):
                kk = (k // stride) * stride
                dens, _ = normalize(U, Z.times[kk])
                m, v = grid_moments(grid, dens)
                worst = max(worst, abs(m - mref[kk]), abs(v - pref[kk]))
            return worst

        coarse = sup_error(200, 4)   # spacing 0.08, step 4e-3
        fine = sup_error(800, 1)     # spacing 0.02, step 1e-3
        assert coarse > 1.5 * fine

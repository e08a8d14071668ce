import numpy as np
import pytest
import scipy.sparse as sp

from fracfilt.models import JumpSpec, ModelSpec, SpatialGrid, gaussian_density, named_model
from fracfilt.sde_sim import ObservationRecord, simulate_classical_pair
from fracfilt.subordinator import (
    InversePath,
    sample_inverse_path,
    tau_cutoff,
    unit_slope_inverse,
)
from fracfilt.zakai_classical import solve_zakai
from fracfilt.zakai_fractional import (
    l1_distance,
    pathwise_oracle_report,
    solve_fractional_zakai,
    stable_step,
    subordinate_filter,
)

GRID = SpatialGrid(-6.0, 6.0, 48)


def relaxing_ou(beta=0.5, h_zero=False):
    base = named_model("ou-linear", beta, mean0=1.0, std0=0.7)
    if not h_zero:
        return base
    return ModelSpec(drift=base.drift, sigma=base.sigma,
                     observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                     beta=beta, p0=base.p0, name="ou-relax/h=0")


def zero_obs(horizon, step):
    n = int(round(horizon / step))
    t = step * np.arange(n + 1)
    return ObservationRecord(times=t, values=np.zeros(n + 1))


class TestClockMode:
    def test_unit_slope_reproduces_classical_solver(self):
        model = relaxing_ou()
        step = 2e-3
        _, Z = simulate_classical_pair(model, 1.0 + step, step, seed=51)
        U = solve_zakai(model, GRID, Z)
        T = unit_slope_inverse(1.0, step)
        Phi = solve_fractional_zakai(model, GRID, T, Z)
        assert np.array_equal(Phi.values, U.values[: len(T.times)])

    def test_chunked_plateau_clock_matches_classical_steps(self, monkeypatch):
        # clock steps of 0.1 take five CN chunks of 0.02 each, a plateau takes
        # none; solve_zakai at step 0.02 visits the same operational times.
        # The uniform clock factors once; one extra step of 0.01 makes the
        # chunks unequal, so every chunk goes through a banded solve instead
        import fracfilt.zakai_fractional as zf
        calls = []
        banded = zf.solve_banded

        def counted(*args, **kwargs):
            calls.append(1)
            return banded(*args, **kwargs)

        monkeypatch.setattr(zf, "solve_banded", counted)
        model = relaxing_ou()
        _, Z = simulate_classical_pair(model, 0.82, 0.02, seed=52)
        U = solve_zakai(model, GRID, Z)
        assert calls == []
        vals = np.array([0.0, 0.1, 0.2, 0.2, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        rows = U.values[np.rint(vals / 0.02).astype(int)]
        scale = np.max(np.abs(rows))
        uniform = InversePath(times=np.linspace(0.0, 1.0, 11), values=vals)
        Phi = solve_fractional_zakai(model, GRID, uniform, Z)
        assert calls == []
        assert np.max(np.abs(Phi.values - rows)) < 1e-12 * scale
        ragged = InversePath(times=np.linspace(0.0, 1.1, 12), values=np.append(vals, 0.81))
        Phi = solve_fractional_zakai(model, GRID, ragged, Z)
        assert len(calls) == 8 * 5 + 1
        assert np.max(np.abs(Phi.values[:-1] - rows)) < 1e-12 * scale

    def test_plateau_dormancy(self):
        model = relaxing_ou()
        step = 1e-2
        _, Z = simulate_classical_pair(model, 1.0, step, seed=52)
        times = np.linspace(0.0, 1.0, 101)
        vals = np.minimum(times, 0.3) + np.maximum(times - 0.6, 0.0)
        T = InversePath(times=times, values=vals)
        Phi = solve_fractional_zakai(model, GRID, T, Z)
        flat = np.where((times >= 0.3) & (times <= 0.6))[0]
        for k in flat[1:]:
            assert np.array_equal(Phi.values[k], Phi.values[flat[0]])

    def test_pathwise_oracle_beta_half(self):
        beta = 0.5
        model = relaxing_ou(beta)
        _, T = sample_inverse_path(beta, 1.0, 1e-3, seed=53, n_nodes=501)
        tau_max = float(np.max(T.values))
        _, Z = simulate_classical_pair(model, tau_max * 1.02 + 1e-3, 1e-3, seed=54)
        U = solve_zakai(model, GRID, Z)
        Phi = solve_fractional_zakai(model, GRID, T, Z)
        rows = pathwise_oracle_report(Phi, U, T, [0.25, 0.5, 1.0])
        assert all(r["l1"] < 5e-2 for r in rows)

    def test_oracle_at_time_zero_is_exact(self):
        beta = 0.5
        model = relaxing_ou(beta)
        _, T = sample_inverse_path(beta, 0.5, 1e-3, seed=55, n_nodes=501)
        tau_max = float(np.max(T.values))
        _, Z = simulate_classical_pair(model, tau_max * 1.02 + 1e-3, 1e-3, seed=56)
        U = solve_zakai(model, GRID, Z)
        Phi = solve_fractional_zakai(model, GRID, T, Z)
        rows = pathwise_oracle_report(Phi, U, T, [0.0])
        assert rows[0]["l1"] == 0.0

    def test_mass_conserved_without_observation(self):
        model = relaxing_ou(0.5, h_zero=True)
        _, T = sample_inverse_path(0.5, 1.0, 1e-3, seed=57, n_nodes=501)
        zeros = zero_obs(float(np.max(T.values)) * 1.1 + 0.1, 1e-2)
        Phi = solve_fractional_zakai(model, GRID, T, zeros)
        assert np.max(np.abs(Phi.mass() - 1.0)) < 1e-6


class TestClockLoopPinned:
    """Values of the clock-mode loop pinned to repr precision; a rewrite of the
    loop has to keep these bits."""

    def test_long_ragged_clock(self, monkeypatch):
        # 2,125 unequal chunks, so the loop crosses several blocks of chunk
        # factors; the stiff drift a = -4 makes undershoots that get clamped
        import fracfilt.zakai_fractional as zf
        calls = []
        banded = zf.solve_banded

        def counted(*args, **kwargs):
            calls.append(1)
            return banded(*args, **kwargs)

        monkeypatch.setattr(zf, "solve_banded", counted)
        model = named_model("ou-linear", 0.5, a=-4.0)
        _, T = sample_inverse_path(0.5, 4.0, 1e-3, seed=7, n_nodes=2001)
        _, Z = simulate_classical_pair(model, float(T.values.max()) * 1.02 + 1e-3, 1e-3, seed=8)
        Phi = solve_fractional_zakai(model, GRID, T, Z)
        assert len(calls) == 2125
        assert Phi.clamped_mass == 1.21080186252312e-05
        assert Phi.values[1, 20] == 0.1271797162902219
        assert Phi.values[700, 28] == 0.20486660047721394
        assert Phi.values[1400, 30] == 0.0029805728795336333
        assert Phi.values[2000, 24] == 0.7400856827853166

    def test_state_jump_model(self):
        base = named_model("ou-linear", 0.5)
        model = ModelSpec(
            drift=base.drift, sigma=base.sigma, observation=base.observation,
            beta=0.5, p0=base.p0,
            jumps=JumpSpec(intensity=2.0, atoms=[(0.3, 0.5), (-0.3, 0.5)],
                           state_jump_map=lambda x, w: np.full_like(np.asanyarray(x, dtype=float), w)),
        )
        _, T = sample_inverse_path(0.5, 1.0, 1e-3, seed=21, n_nodes=501)
        _, Z = simulate_classical_pair(base, float(T.values.max()) * 1.02 + 1e-3, 1e-3, seed=22)
        Phi = solve_fractional_zakai(model, GRID, T, Z)
        assert Phi.clamped_mass == 0.0
        assert Phi.values[250, 22] == 0.20226878183874944
        assert Phi.values[500, 24] == 0.32665583776204116
        assert Phi.values[500, 30] == 0.13149327854856663


class TestKernelMode:
    def test_mass_conserved_without_observation(self):
        model = relaxing_ou(0.5, h_zero=True)
        from fracfilt.models import adjoint_matrix
        A = adjoint_matrix(model, GRID)
        dt = stable_step(0.5, A)
        T = unit_slope_inverse(1.0, dt)
        zeros = zero_obs(1.2, 1e-2)
        Phi = solve_fractional_zakai(model, GRID, T, zeros, memory="kernel", adjoint=A)
        assert np.max(np.abs(Phi.mass() - 1.0)) < 1e-6

    def test_stability_guard_raises(self):
        model = relaxing_ou(0.5, h_zero=True)
        T = unit_slope_inverse(1.0, 1e-2)   # far above the admissible step
        zeros = zero_obs(1.2, 1e-2)
        with pytest.raises(ValueError, match="unstable"):
            solve_fractional_zakai(model, GRID, T, zeros, memory="kernel")

    def test_zero_generator_freezes_initial_density(self):
        # with A* = 0 and h = 0 both memory modes must return p0 for all t
        model = relaxing_ou(0.5, h_zero=True)
        zero_A = sp.csr_matrix((GRID.n_nodes, GRID.n_nodes))
        zeros = zero_obs(1.2, 1e-2)
        for mode in ("clock", "kernel"):
            T = unit_slope_inverse(1.0, 1e-2)
            Phi = solve_fractional_zakai(model, GRID, T, zeros, memory=mode, adjoint=zero_A)
            assert np.allclose(Phi.values, Phi.values[0], atol=1e-14)

    @pytest.mark.parametrize("beta,cells", [(0.3, 16), (0.5, 48), (0.8, 48)])
    def test_matches_subordination_quadrature(self, beta, cells):
        # kernel mode marches the time-fractional equation directly; its h = 0
        # solution must equal the g-weighted average of the classical flow.
        # the admissible explicit step scales like (z/mu)**(1/beta), so low
        # beta runs on a coarse grid
        grid = SpatialGrid(-6.0, 6.0, cells)
        model = ModelSpec(drift=lambda x: -x,
                          sigma=lambda x: np.full_like(np.asanyarray(x, dtype=float), np.sqrt(2.0)),
                          observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                          beta=beta, p0=gaussian_density(1.0, 0.7))
        from fracfilt.models import adjoint_matrix
        hi = tau_cutoff(beta, 1.0, 1e-9)
        zeros = zero_obs(hi, 2e-3)
        U = solve_zakai(model, grid, zeros)
        quadr = subordinate_filter(beta, 1.0, U)
        A = adjoint_matrix(model, grid)
        dt = min(2e-3, stable_step(beta, A))
        n = int(np.ceil(1.0 / dt))
        T = unit_slope_inverse(1.0, 1.0 / n)
        Phi = solve_fractional_zakai(model, grid, T, zeros, memory="kernel", adjoint=A)
        assert l1_distance(grid, quadr, Phi.at_time(1.0)) < 1e-3

    def test_classical_limit_beta_near_one(self):
        # bounded observation function (the kernel mode's additive observation
        # term carries noise error scaling with sup|h|^2 sqrt(dt))
        beta = 0.999
        base = named_model("benes-like", beta)
        model = ModelSpec(drift=base.drift, sigma=base.sigma, observation=base.observation,
                          beta=beta, p0=gaussian_density(-0.8, 0.8))
        step = 1e-3
        _, Z = simulate_classical_pair(model, 1.0 + step, step, seed=58)
        U = solve_zakai(model, GRID, Z)
        T = unit_slope_inverse(1.0, step)
        Phi = solve_fractional_zakai(model, GRID, T, Z, memory="kernel")
        assert l1_distance(GRID, Phi.at_time(1.0), U.at_time(1.0)) < 5e-2


class TestErrors:
    def test_unknown_mode(self):
        model = relaxing_ou()
        T = unit_slope_inverse(0.5, 1e-2)
        with pytest.raises(ValueError, match="memory"):
            solve_fractional_zakai(model, GRID, T, zero_obs(1.0, 1e-2), memory="bogus")

    def test_observation_must_cover_clock(self):
        model = relaxing_ou()
        T = unit_slope_inverse(1.0, 1e-2)
        with pytest.raises(ValueError, match="cover"):
            solve_fractional_zakai(model, GRID, T, zero_obs(0.5, 1e-2))

    def test_history_buffer_guard(self):
        model = relaxing_ou()
        T = unit_slope_inverse(1.0, 1e-3)
        with pytest.raises(ValueError, match="history"):
            solve_fractional_zakai(model, GRID, T, zero_obs(1.2, 1e-2), max_steps=100)

    def test_mismatched_grids_rejected_in_oracle(self):
        model = relaxing_ou()
        step = 5e-3
        _, Z = simulate_classical_pair(model, 1.0 + step, step, seed=59)
        T = unit_slope_inverse(1.0, step)
        Phi = solve_fractional_zakai(model, GRID, T, Z)
        other = SpatialGrid(-6.0, 6.0, 32)
        U = solve_zakai(model, other, Z)
        with pytest.raises(ValueError, match="grid"):
            pathwise_oracle_report(Phi, U, T, [0.5])


class TestSubordination:
    def test_quadrature_requires_covered_tail(self):
        model = relaxing_ou(0.5, h_zero=True)
        U = solve_zakai(model, GRID, zero_obs(0.5, 1e-2))   # horizon far too short
        with pytest.raises(ValueError, match="horizon"):
            subordinate_filter(0.5, 1.0, U)

    def test_small_time_limit_returns_initial_density(self):
        # the error scale is E[T_t] * ||A* p0||_1, so a gentle model keeps the
        # t = 1e-3 distance well inside the tolerance
        beta, t = 0.5, 1e-3
        model = ModelSpec(drift=lambda x: -0.15 * x,
                          sigma=lambda x: np.full_like(np.asanyarray(x, dtype=float), 0.5),
                          observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                          beta=beta, p0=gaussian_density(0.0, 1.0), name="gentle")
        U = solve_zakai(model, GRID, zero_obs(1.0, 2e-4))
        out = subordinate_filter(beta, t, U)
        p0 = model.p0(GRID.nodes)
        assert l1_distance(GRID, out, p0) < 1e-2
        finer = subordinate_filter(beta, 1e-4, U)
        assert l1_distance(GRID, finer, p0) < l1_distance(GRID, out, p0)

    def test_subordinated_density_keeps_unit_mass(self):
        beta, t = 0.5, 1.0
        model = relaxing_ou(beta, h_zero=True)
        hi = tau_cutoff(beta, t, 1e-9)
        U = solve_zakai(model, GRID, zero_obs(hi, 2e-3))
        out = subordinate_filter(beta, t, U)
        assert abs(np.sum(out) * GRID.spacing - 1.0) < 1e-6

    def test_ensemble_mode_accepts_fractional_solves(self):
        beta, t = 0.5, 0.5
        model = relaxing_ou(beta, h_zero=True)
        zeros = zero_obs(6.0, 2e-3)
        solves = [
            solve_fractional_zakai(
                model, GRID, sample_inverse_path(beta, t, 1e-3, seed=60 + i, n_nodes=51)[1], zeros)
            for i in range(16)
        ]
        out = subordinate_filter(beta, t, solves)
        assert out.shape == (GRID.n_nodes,)
        assert abs(np.sum(out) * GRID.spacing - 1.0) < 1e-6

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError, match="member"):
            subordinate_filter(0.5, 1.0, [])

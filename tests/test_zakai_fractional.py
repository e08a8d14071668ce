import hashlib
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal
from scipy.special import erfcx, gamma

import fracfilt.zakai_fractional as zf
from fracfilt.fraccalc import trapezoid_node_weights, trapezoid_weights
from fracfilt.models import (
    JumpSpec,
    ModelSpec,
    SpatialGrid,
    adjoint_diagonals,
    adjoint_matrix,
    gaussian_density,
    named_model,
)
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
    quadrature_and_kernel,
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


def direct_kernel_solve(model, grid, T, obs):
    """Kernel mode with the O(M^2) history: node weights rebuilt and the whole
    history summed at every step, then the memory increment taken and the
    observation factor applied.  Returns the profiles and the clamped mass."""
    M = len(T.times) - 1
    n = grid.n_nodes
    A = adjoint_matrix(model, grid)
    h = model.h_matrix(grid.nodes)
    dT = np.diff(T.values)
    dV = np.diff(np.interp(T.values, obs.times, obs.values))[:, None]
    P, Q = trapezoid_weights(model.beta, max(M, 1), T.step)
    p0 = np.maximum(model.p0(grid.nodes), 0.0)
    Phi = np.empty((M + 1, n))
    Phi[0] = p0
    hist = np.empty((M, n))
    m_prev = p0
    clamped = 0.0
    for k in range(M):
        hist[k] = A @ Phi[k]
        wts = trapezoid_node_weights(P, Q, k + 1)
        m = p0 + (wts[:k + 1] @ hist[:k + 1] + wts[k + 1] * hist[k]) / gamma(model.beta)
        factor = np.exp(h @ dV[k] - 0.5 * np.sum(h * h, axis=1) * dT[k])
        u = factor * (Phi[k] + (m - m_prev))
        m_prev = m
        neg = u < 0.0
        if neg.any():
            clamped += float(-u[neg].sum() * grid.spacing)
            u[neg] = 0.0
        Phi[k + 1] = u
    return Phi, clamped


def mittag_leffler_neg(beta, x, nodes=24):
    """E_beta(-x) at x >= 0: the inverse Laplace transform of s^(beta-1)/(s^beta + x)
    at t = 1 by the midpoint rule on the modified Talbot contour
    s(theta) = nodes (0.5017 theta cot(0.6407 theta) - 0.6122 + 0.2645 i theta)
    (Weideman & Trefethen, Math. Comp. 2007)."""
    theta = np.pi * (2.0 * np.arange(nodes) + 1.0 - nodes) / nodes
    a = 0.6407 * theta
    s = nodes * (0.5017 * theta / np.tan(a) - 0.6122 + 0.2645j * theta)
    ds = nodes * (0.5017 / np.tan(a) - 0.5017 * a / np.sin(a) ** 2 + 0.2645j)
    x = np.asarray(x, dtype=float)[..., None]
    return (np.exp(s) * s ** (beta - 1.0) / (s ** beta + x) * ds).sum(axis=-1).imag / nodes


def exact_flow(model, grid, decay):
    """decay(A*) p0 exact on the spatial grid (h is ignored): one row per row of
    decay(lam), which maps the eigenvalues lam <= 0 of A* to their factors.

    The diagonal similarity s_{j+1} / s_j = sqrt(lower_j / upper_j) makes the
    tridiagonal A* symmetric and eigh_tridiagonal diagonalizes it.  Raises
    when lower * upper <= 0 somewhere or the model has state jumps."""
    if model.jumps is not None and model.jumps.state_jump_map is not None:
        raise ValueError("the exact reference has no state jumps")
    lower, main, upper = adjoint_diagonals(model, grid)
    if np.any(lower * upper <= 0.0):
        raise ValueError("adjoint_diagonals needs lower * upper > 0 to be symmetrized")
    log_s = np.concatenate(([0.0], np.cumsum(0.5 * np.log(lower / upper))))
    lam, V = eigh_tridiagonal(main, np.sign(lower) * np.sqrt(lower * upper))
    p0 = np.maximum(model.p0(grid.nodes), 0.0)
    return np.exp(log_s) * ((decay(lam) * (V.T @ (np.exp(-log_s) * p0))) @ V.T)


def exact_fractional_profile(model, grid, t):
    """E_beta(t^beta A*) p0: the observation-free time-fractional equation,
    exact in time; each eigenvalue lam enters as E_beta(-t^beta |lam|)."""
    return exact_flow(model, grid, lambda lam: mittag_leffler_neg(
        model.beta, np.maximum(-lam, 0.0) * t ** model.beta))


def exact_classical_profiles(model, grid, taus):
    """exp(tau A*) p0 for each operational time tau: the observation-free
    classical flow, exact in time, one row per tau."""
    return exact_flow(model, grid, lambda lam: np.exp(np.multiply.outer(taus, lam)))


@lru_cache(maxsize=1)
def criterion_7_legs():
    """Criterion 7's h = 0 model, its quadrature and kernel profiles at t = 1,
    and the exact profile."""
    base = named_model("ou-linear", 0.5, mean0=1.0, std0=0.7)
    model, _, quadrature, kernel = quadrature_and_kernel(base, GRID, 1.0, 2e-3)
    return quadrature, kernel.at_time(1.0), exact_fractional_profile(model, GRID, 1.0)


def kernel_inputs(model, grid, M, scale, seed):
    """A unit-slope clock of M steps at the admissible step and a scalar
    observation path whose increments are scale * sqrt(dt) normals."""
    dt = stable_step(model.beta, adjoint_matrix(model, grid))
    t = dt * np.arange(M + 1)
    rng = np.random.default_rng(seed)
    z = np.concatenate(([0.0], np.cumsum(scale * np.sqrt(dt) * rng.standard_normal(M))))
    return InversePath(times=t, values=t.copy()), ObservationRecord(times=t, values=z)


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
        # Every chunk, equal or not, is one banded solve
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
        assert len(calls) == 41
        vals = np.array([0.0, 0.1, 0.2, 0.2, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8])
        rows = U.values[np.rint(vals / 0.02).astype(int)]
        scale = np.max(np.abs(rows))
        uniform = InversePath(times=np.linspace(0.0, 1.0, 11), values=vals)
        Phi = solve_fractional_zakai(model, GRID, uniform, Z)
        assert len(calls) == 41 + 8 * 5
        assert np.max(np.abs(Phi.values - rows)) < 1e-12 * scale
        ragged = InversePath(times=np.linspace(0.0, 1.1, 12), values=np.append(vals, 0.81))
        Phi = solve_fractional_zakai(model, GRID, ragged, Z)
        assert len(calls) == 41 + 8 * 5 + 8 * 5 + 1
        assert np.max(np.abs(Phi.values[:-1] - rows)) < 1e-12 * scale

    @pytest.mark.parametrize("h_zero", [False, True])
    def test_one_chunk_is_the_dense_crank_nicolson_map(self, h_zero):
        # one real-time step of 0.015 < _DTAU_MAX on a zero record: one chunk,
        # (I - d/2 A)^-1 (I + d/2 A) p0 times exp(-0.5 |h|^2 d), which is 1 when
        # h = 0 and the factor loop does not run
        model = relaxing_ou(0.5, h_zero=h_zero)
        d = 0.015
        T = InversePath(times=np.array([0.0, 1.0]), values=np.array([0.0, d]))
        Phi = solve_fractional_zakai(model, GRID, T, zero_obs(0.02, 0.01))
        A = adjoint_matrix(model, GRID).toarray()
        eye = np.eye(GRID.n_nodes)
        p0 = model.p0(GRID.nodes)
        h = model.h_matrix(GRID.nodes)
        ref = np.linalg.solve(eye - 0.5 * d * A, (eye + 0.5 * d * A) @ p0)
        ref *= np.exp(-0.5 * d * np.sum(h * h, axis=1))
        assert np.max(np.abs(Phi.values[1] - ref)) <= 1e-14 * np.max(np.abs(ref))

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
        assert Phi.clamped_mass == 1.2116802848898127e-05
        assert Phi.values[1, 20] == 0.1271355676786898
        assert Phi.values[700, 28] == 0.20487067421148716
        assert Phi.values[1400, 30] == 0.002980623571656304
        assert Phi.values[2000, 24] == 0.7400982530310642

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
        assert Phi.values[250, 22] == 0.2021505331233749
        assert Phi.values[500, 24] == 0.32672805323379456
        assert Phi.values[500, 30] == 0.1316541907811697

    def test_observation_free_members(self):
        # an ensemble-shape member (101 nodes, 48 cells): seed 6 has 93 steps
        # below 1e-4 and 6 of several chunks; the same clock delayed by ten
        # steps and floored to multiples of 0.01 has a leading plateau and 94
        # flat steps.  Every row of both solves is pinned by its sha1
        model = relaxing_ou(0.5, h_zero=True)
        _, T = sample_inverse_path(0.5, 1.0, 1e-2, seed=6, n_nodes=101)
        delayed = np.concatenate((np.zeros(10), T.values[:-10]))
        flat = InversePath(times=T.times, values=np.floor(delayed / 0.01) * 0.01)
        assert np.count_nonzero(flat.increments[:10]) == 0
        zeros = zero_obs(2.0, 1e-2)
        for clock, digest, value in (
                (T, "3a989ad1674163ede2b954eb308e61c6fae16696", 0.23264698751263801),
                (flat, "e78f4d5b1cf3633dbab2459245c5b84107424717", 0.23281897999526596)):
            Phi = solve_fractional_zakai(model, GRID, clock, zeros)
            assert Phi.clamped_mass == 0.0
            assert Phi.values[100, 30] == value
            assert hashlib.sha1(Phi.values.tobytes()).hexdigest() == digest


class TestClockEdges:
    """Clocks that stay at 0, for a while or throughout, and the working
    memory of a solve of several chunk blocks."""

    @pytest.mark.parametrize("c", [1.0, 0.0])
    def test_clock_that_never_leaves_zero(self, c):
        # no chunk at all: every row is the clamped initial density
        model = named_model("ou-linear", 0.5, c=c)
        T = InversePath(times=np.linspace(0.0, 1.0, 11), values=np.zeros(11))
        Phi = solve_fractional_zakai(model, GRID, T, zero_obs(0.1, 1e-2))
        p0 = np.maximum(model.p0(GRID.nodes), 0.0)
        assert Phi.clamped_mass == 0.0
        assert np.array_equal(Phi.values, np.broadcast_to(p0, Phi.values.shape))

    @pytest.mark.parametrize("c", [1.0, 0.0])
    def test_clock_flat_on_a_leading_stretch(self, c):
        # T = 0 on [0, 0.3], then it rises: the rows up to 0.3 are p0, and the
        # rest are the solve on the clock that starts rising at once
        model = named_model("ou-linear", 0.5, c=c)
        _, Z = simulate_classical_pair(model, 1.0, 1e-2, seed=58)
        times = np.linspace(0.0, 1.0, 11)
        vals = np.maximum(np.arange(11) - 3, 0) * 0.13
        Phi = solve_fractional_zakai(model, GRID, InversePath(times=times, values=vals), Z)
        rising = InversePath(times=times[:8], values=vals[3:])
        ref = solve_fractional_zakai(model, GRID, rising, Z)
        p0 = np.maximum(model.p0(GRID.nodes), 0.0)
        assert np.array_equal(Phi.values[:4], np.broadcast_to(p0, (4, GRID.n_nodes)))
        assert np.array_equal(Phi.values[3:], ref.values)
        assert Phi.clamped_mass == ref.clamped_mass

    def test_working_memory_is_one_chunk_block(self):
        # 400 steps of two chunks each on 801 nodes: 800 chunks, more than
        # three blocks.  Beyond Phi the solve may hold one block's four
        # (_CHUNK_BLOCK, n) arrays (factors and three diagonals) and a little
        # more, not two blocks at once
        grid = SpatialGrid(-8.0, 8.0, 800)
        model = named_model("ou-linear", 0.5)
        M = 400
        times = 1e-2 * np.arange(M + 1)
        T = InversePath(times=times, values=0.04 * np.arange(M + 1))
        _, Z = simulate_classical_pair(model, 0.04 * M + 0.02, 1e-2, seed=59)
        block = zf._CHUNK_BLOCK * grid.n_nodes * 8
        assert 2 * M > 3 * zf._CHUNK_BLOCK
        tracemalloc.start()
        try:
            Phi = solve_fractional_zakai(model, grid, T, Z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - Phi.values.nbytes < 4.5 * block


class TestKernelMode:
    def test_mass_conserved_without_observation(self):
        model = relaxing_ou(0.5, h_zero=True)
        from fracfilt.models import adjoint_matrix
        A = adjoint_matrix(model, GRID)
        dt = stable_step(0.5, A)
        T = unit_slope_inverse(1.0, dt)
        zeros = zero_obs(1.2, 1e-2)
        Phi = solve_fractional_zakai(model, GRID, T, zeros, memory="kernel")
        assert np.max(np.abs(Phi.mass() - 1.0)) < 1e-6

    def test_stability_guard_raises(self):
        model = relaxing_ou(0.5, h_zero=True)
        T = unit_slope_inverse(1.0, 1e-2)   # far above the admissible step
        zeros = zero_obs(1.2, 1e-2)
        with pytest.raises(ValueError, match="unstable"):
            solve_fractional_zakai(model, GRID, T, zeros, memory="kernel")

    def test_zero_generator_freezes_initial_density(self, monkeypatch):
        # with A* = 0 and h = 0 both memory modes must return p0 for all t
        import fracfilt.zakai_fractional as zf
        n = GRID.n_nodes
        monkeypatch.setattr(zf, "adjoint_diagonals",
                            lambda model, grid: (np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)))
        monkeypatch.setattr(zf, "adjoint_matrix", lambda model, grid: sp.csr_matrix((n, n)))
        model = relaxing_ou(0.5, h_zero=True)
        zeros = zero_obs(1.2, 1e-2)
        for mode in ("clock", "kernel"):
            T = unit_slope_inverse(1.0, 1e-2)
            Phi = solve_fractional_zakai(model, GRID, T, zeros, memory=mode)
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
        Phi = solve_fractional_zakai(model, grid, T, zeros, memory="kernel")
        assert l1_distance(grid, quadr, Phi.at_time(1.0)) < 1e-3

    def test_classical_limit_beta_near_one(self):
        # bounded observation function, as in criterion 8; the unbounded h = x
        # is the next test
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

    def test_classical_limit_with_unbounded_observation(self):
        # h(x) = x on ou-linear: the exact factor exp(h dV - 0.5 |h|^2 dT) keeps
        # kernel mode at 1.2e-4 from solve_zakai; the additive left-point sum
        # it replaced was 2.0e-2 away at this step
        beta = 0.999
        model = replace(named_model("ou-linear", beta), p0=gaussian_density(-0.8, 0.8))
        step = 1e-3
        _, Z = simulate_classical_pair(model, 1.0 + step, step, seed=58)
        U = solve_zakai(model, GRID, Z)
        T = unit_slope_inverse(1.0, step)
        Phi = solve_fractional_zakai(model, GRID, T, Z, memory="kernel")
        assert l1_distance(GRID, Phi.at_time(1.0), U.at_time(1.0)) < 2e-3


class TestKernelHistory:
    """The blocked FFT history against the direct per-step sum."""

    B = zf._HISTORY_BLOCK
    STEPS = [1, 2, 3, B - 1, B, B + 1, 2 * B + 3]

    @pytest.mark.parametrize("M, h_zero", [(M, False) for M in STEPS] + [(M, True) for M in STEPS],
                             ids=[str(M) for M in STEPS] + [f"{M}-h0" for M in STEPS])
    def test_matches_direct_history(self, M, h_zero):
        # h(x) = x runs the observation sum, h = 0 skips it; M = 1 has no lag weights
        model = relaxing_ou(0.5, h_zero=h_zero)
        T, obs = kernel_inputs(model, GRID, M, 1.0, seed=M)
        ref, _ = direct_kernel_solve(model, GRID, T, obs)
        Phi = solve_fractional_zakai(model, GRID, T, obs, memory="kernel")
        assert np.max(np.abs(Phi.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_clamped_mass_matches_direct_history(self):
        # large observation increments drive Phi_k + m_{k+1} - m_k negative
        # before its positive factor
        model = relaxing_ou(0.5)
        T, obs = kernel_inputs(model, GRID, 2 * self.B + 3, 30.0, seed=7)
        ref, clamped = direct_kernel_solve(model, GRID, T, obs)
        Phi = solve_fractional_zakai(model, GRID, T, obs, memory="kernel")
        assert clamped > 1.0
        assert Phi.clamped_mass == pytest.approx(clamped, rel=1e-12)
        assert np.max(np.abs(Phi.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_h_zero_profile_is_pinned(self):
        # with h = 0 a step skips the factor and keeps the bits it had when
        # the observation term was an additive sum
        M = 2 * self.B + 3
        T, obs = kernel_inputs(relaxing_ou(0.5), GRID, M, 0.0, seed=5)
        Phi = solve_fractional_zakai(relaxing_ou(0.5, h_zero=True), GRID, T, obs, memory="kernel")
        assert Phi.clamped_mass == 0.0
        assert Phi.values[1, 20] == 0.010847465987828913
        assert Phi.values[700, 28] == 0.46682422846064686
        assert Phi.values[1400, 30] == 0.31161475755433954
        assert Phi.values[M, 24] == 0.3264704893905918

    def test_many_small_blocks(self, monkeypatch):
        monkeypatch.setattr(zf, "_HISTORY_BLOCK", 7)
        model = relaxing_ou(0.5)
        T, obs = kernel_inputs(model, GRID, 100, 1.0, seed=3)
        ref, _ = direct_kernel_solve(model, GRID, T, obs)
        Phi = solve_fractional_zakai(model, GRID, T, obs, memory="kernel")
        assert np.max(np.abs(Phi.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_state_jump_model_matches_direct_history(self):
        # the stencil gives A* Phi without the jump part, which kernel mode adds
        # as its own term; the direct history keeps the csr adjoint_matrix
        base = relaxing_ou(0.5)
        model = replace(base, jumps=JumpSpec(
            intensity=2.0, atoms=[(0.3, 0.5), (-0.3, 0.5)],
            state_jump_map=lambda x, w: np.full_like(np.asanyarray(x, dtype=float), w)))
        T, obs = kernel_inputs(model, GRID, 100, 1.0, seed=4)
        ref, _ = direct_kernel_solve(model, GRID, T, obs)
        Phi = solve_fractional_zakai(model, GRID, T, obs, memory="kernel")
        assert not np.array_equal(ref, direct_kernel_solve(base, GRID, T, obs)[0])
        assert np.max(np.abs(Phi.values - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_working_memory_stays_near_history(self):
        # Phi and the A* Phi history are the solve's two (M, n) arrays; what the
        # FFT history needs on top must stay a fraction of one of them
        model = relaxing_ou(0.5)
        M, n = 3 * self.B + 5, GRID.n_nodes
        T, obs = kernel_inputs(model, GRID, M, 1.0, seed=11)
        tracemalloc.start()
        try:
            solve_fractional_zakai(model, GRID, T, obs, memory="kernel")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one = M * n * 8
        assert peak < one + (M + 1) * n * 8 + 0.25 * one


class TestExactReference:
    """The observation-free equation exact in time, E_beta(t^beta A*) p0."""

    def test_mittag_leffler_at_one_half_is_erfcx(self):
        x = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 400)))
        assert np.max(np.abs(mittag_leffler_neg(0.5, x) - erfcx(x))) < 1e-13

    def test_kernel_profile_is_near_exact(self):
        _, kernel, exact = criterion_7_legs()
        assert abs(GRID.integrate(exact) - 1.0) < 1e-12
        assert l1_distance(GRID, kernel, exact) < 5e-8

    def test_quadrature_is_near_exact(self):
        quadrature, _, exact = criterion_7_legs()
        assert l1_distance(GRID, quadrature, exact) < 2e-7

    @pytest.mark.parametrize("step, bound", [(1e-2, 1.5e-5), (5e-3, 4e-6), (2e-3, 6e-7)])
    def test_classical_solve_is_near_exact(self, step, bound):
        # solve_zakai on a zero record is the Crank-Nicolson flow exp(tau A*) p0
        # up to its time error; worst l1 1.00e-5, 2.51e-6 and 4.01e-7 at these
        # steps, a second-order fall
        model = relaxing_ou(0.5, h_zero=True)
        taus = np.array([0.5, 1.0, 2.0])
        U = solve_zakai(model, GRID, zero_obs(2.0, step))
        exact = exact_classical_profiles(model, GRID, taus)
        assert max(l1_distance(GRID, U.at_time(t), e) for t, e in zip(taus, exact)) < bound

    @pytest.mark.parametrize("seed", range(5))
    def test_clock_member_is_the_exact_flow_at_its_clock(self, seed):
        # an observation-free clock member is exp(T_t A*) p0 at every node, the
        # pathwise composition with no time error but the chunks' own; worst
        # l1 over seeds 0-4 is 4.94e-5 (chunks up to _DTAU_MAX = 0.02)
        model = relaxing_ou(0.5, h_zero=True)
        _, T = sample_inverse_path(0.5, 1.0, 1e-2, seed=seed, n_nodes=101)
        Phi = solve_fractional_zakai(model, GRID, T, zero_obs(float(T.values.max()) + 0.02, 1e-2))
        exact = exact_classical_profiles(model, GRID, T.values)
        assert max(l1_distance(GRID, a, b) for a, b in zip(Phi.values, exact)) < 7.5e-5

    def test_refuses_state_jumps_and_an_unsymmetrizable_stencil(self):
        base = named_model("ou-linear", 0.5)
        jumpy = replace(base, jumps=JumpSpec(intensity=1.0, atoms=[(0.3, 1.0)],
                                             state_jump_map=lambda x, w: np.full_like(x, w)))
        with pytest.raises(ValueError, match="state jumps"):
            exact_fractional_profile(jumpy, GRID, 1.0)
        steep = replace(base, drift=lambda x: -40.0 * np.asanyarray(x, dtype=float))
        with pytest.raises(ValueError, match="lower \\* upper"):
            exact_fractional_profile(steep, GRID, 1.0)


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

    def test_identity_clock_fits_a_classical_record_of_the_same_horizon(self):
        # 0.07 / 0.01 = 7.000000000000001: the clock must not step past the record
        m = relaxing_ou()
        _, Z = simulate_classical_pair(m, 0.07, 0.01, seed=5)
        Phi = solve_fractional_zakai(m, GRID, unit_slope_inverse(0.07, 0.01), Z)
        assert np.array_equal(Phi.values, solve_zakai(m, GRID, Z).values)

    @pytest.mark.parametrize("memory", ["clock", "kernel"])
    def test_one_node_clock_raises(self, memory):
        # the clock refuses its grid when it is built, so neither mode is reached
        with pytest.raises(ValueError, match="at least two nodes"):
            T = InversePath(times=np.array([0.0]), values=np.array([0.0]))
            solve_fractional_zakai(relaxing_ou(), GRID, T, zero_obs(1.0, 1e-2), memory=memory)

    def test_history_buffer_guard(self, monkeypatch):
        import fracfilt.zakai_fractional as zf
        monkeypatch.setattr(zf, "_MAX_STEPS", 100)
        model = relaxing_ou()
        T = unit_slope_inverse(1.0, 1e-3)
        with pytest.raises(ValueError, match="history"):
            solve_fractional_zakai(model, GRID, T, zero_obs(1.2, 1e-2))

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

import hashlib
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fracfilt import sde_sim
from fracfilt.levy_ext import fractional_filter_jump_obs, simulate_jump_observation
from fracfilt.models import JumpSpec, ModelSpec, gaussian_density, named_model
from fracfilt.sde_sim import (
    ObservationRecord,
    StatePath,
    _x0_sampler,
    kallianpur_striebel_estimate,
    simulate_classical_ensemble,
    simulate_classical_pair,
    simulate_time_changed_state_direct,
    time_change_pair,
)
from fracfilt.subordinator import InversePath, _rng, sample_inverse_path, unit_slope_inverse


def flat_model(h=0.0, sig=1.0):
    return ModelSpec(
        drift=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
        sigma=lambda x: np.full_like(np.asanyarray(x, dtype=float), sig),
        observation=lambda x: np.full_like(np.asanyarray(x, dtype=float), h),
        beta=0.5,
        p0=gaussian_density(0.0, 1.0),
    )


class TestClassicalPair:
    def test_degenerate_coefficients(self):
        m = ModelSpec(
            drift=lambda x: np.zeros_like(x), sigma=lambda x: np.zeros_like(x),
            observation=lambda x: np.zeros_like(x), beta=0.5,
            p0=gaussian_density(0.0, 1.0),
        )
        Y, Z = simulate_classical_pair(m, 1.0, 1e-3, seed=3)
        assert np.all(Y.values == Y.values[0])
        # Z is then a pure Brownian path: quadratic variation close to t
        qv = np.sum(np.diff(Z.values) ** 2)
        assert abs(qv - 1.0) < 0.2

    def test_ou_stationary_variance(self):
        m = named_model("ou-linear", 0.5)
        _, Y, _ = simulate_classical_ensemble(m, 5.0, 1e-2, seed=5, n_paths=10_000)
        v = Y[:, -1].var(ddof=1)
        se = np.sqrt(2.0 / (len(Y) - 1))  # var-of-variance for ~N data
        assert abs(v - 1.0) < 3.0 * se + 0.02

    def test_unit_h_observation_mean(self):
        m = flat_model(h=1.0)
        _, _, Z = simulate_classical_ensemble(m, 1.0, 1e-2, seed=6, n_paths=5000)
        zT = Z[:, -1, 0]
        se = zT.std(ddof=1) / np.sqrt(len(zT))
        assert abs(zT.mean() - 1.0) < 3.0 * se

    def test_determinism(self):
        m = named_model("ou-linear", 0.5)
        a = simulate_classical_pair(m, 1.0, 1e-2, seed=11)
        b = simulate_classical_pair(m, 1.0, 1e-2, seed=11)
        assert np.array_equal(a[0].values, b[0].values)
        assert np.array_equal(a[1].values, b[1].values)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            simulate_classical_pair(flat_model(), 1.0, 0.0, seed=0)


class TestTimeChange:
    def test_unit_slope_is_identity(self):
        m = named_model("ou-linear", 0.5)
        Y, Z = simulate_classical_pair(m, 2.0, 1e-2, seed=7)
        n = int(round(2.0 / 1e-2))
        T = InversePath(times=Y.times, values=Y.times.copy())
        X, V = time_change_pair(Y, Z, T)
        assert np.allclose(X.values, Y.values, atol=1e-12)
        assert np.allclose(V.values, Z.values, atol=1e-12)

    def test_plateau_gives_constant_stretch(self):
        m = named_model("ou-linear", 0.5)
        Y, Z = simulate_classical_pair(m, 2.0, 1e-2, seed=8)
        times = np.linspace(0.0, 1.0, 101)
        vals = np.minimum(times, 0.4) + np.maximum(times - 0.7, 0.0)
        T = InversePath(times=times, values=vals)
        X, V = time_change_pair(Y, Z, T)
        flat = (times >= 0.4) & (times <= 0.7)
        assert np.all(X.values[flat] == X.values[np.argmax(flat)])
        assert np.all(V.values[flat] == V.values[np.argmax(flat)])

    def test_variance_matches_mean_clock(self):
        # for b = 0 and sigma = 1: Var[X_1 - X_0] = E[T_1] = 2/sqrt(pi) at beta = 1/2
        rng_seed = 100
        m = flat_model()
        xs = []
        for i in range(4000):
            _, T = sample_inverse_path(0.5, 1.0, 0.02, seed=rng_seed + i, n_nodes=51)
            tau_max = float(T.values[-1])
            times, Y, Z = simulate_classical_ensemble(m, tau_max * 1.02 + 0.02, 0.02,
                                                      seed=10_000 + i, n_paths=1)
            Ypath = StatePath(times=times, values=Y[0])
            Zrec = ObservationRecord(times=times, values=Z[0, :, 0])
            X, _ = time_change_pair(Ypath, Zrec, T)
            xs.append(X.values[-1] - X.values[0])
        xs = np.array(xs)
        target = 2.0 / np.sqrt(np.pi)
        v = xs.var(ddof=1)
        se = v * np.sqrt(2.0 / (len(xs) - 1)) + 0.02
        assert abs(v - target) < 3.0 * se

    def test_error_when_clock_exceeds_horizon(self):
        m = flat_model()
        Y, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=9)
        T = InversePath(times=np.linspace(0.0, 1.0, 11), values=np.linspace(0.0, 2.0, 11))
        with pytest.raises(ValueError, match="resimulate"):
            time_change_pair(Y, Z, T)


class TestOneEulerLoop:
    """The classical, direct time-changed and jump-state simulators share one
    Euler-Maruyama loop; these pins hold its stream order and arithmetic."""

    def test_classical_pair_pinned(self):
        # criterion 5's record
        Y, Z = simulate_classical_pair(named_model("ou-linear", 0.5), 2.0, 1e-3, seed=2024)
        assert Y.values[0] == 0.6869880287118004
        assert Y.values[-1] == 1.0504796623129669
        assert Z.values[0] == 0.0
        assert Z.values[-1] == 0.8040771393784334

    @pytest.mark.parametrize("model", [
        named_model("ou-linear", 0.5), named_model("benes-like", 0.5),
        replace(named_model("benes-like", 0.5), observation=lambda x: np.column_stack([x, np.tanh(x)])),
    ], ids=["ou-linear", "benes-like", "two-channels"])
    def test_observation_is_the_step_by_step_sum(self, model):
        # Z_{k+1} = Z_k + h(Y_k) step + dW_k in that order, bit for bit, with dW
        # drawn after the state noise
        n, M, step = 7, 300, 1e-2
        times, Y, Z = simulate_classical_ensemble(model, M * step, step, seed=8, n_paths=n)
        rng = _rng(8)
        Y2, _ = sde_sim._euler_maruyama(model, np.full(M, step), rng, n)
        dW = np.sqrt(step) * rng.standard_normal((n, M, Z.shape[2]))
        ref = np.zeros_like(Z)
        for k in range(M):
            ref[:, k + 1] = ref[:, k] + model.h_matrix(Y[:, k]) * step + dW[:, k]
        assert np.array_equal(Y2, Y)
        assert np.array_equal(Z, ref)

    def test_direct_on_unit_clock_is_the_classical_path(self):
        # same seed, same stream order: pathwise equal up to the rounding of diff(T)
        m = named_model("ou-linear", 0.5)
        Y, _ = simulate_classical_pair(m, 2.0, 1e-3, seed=2024)
        X = simulate_time_changed_state_direct(m, unit_slope_inverse(2.0, 1e-3), seed=2024)
        assert np.max(np.abs(X.values - Y.values)) < 1e-12

    def test_state_path_rejects_non_finite_values_and_unordered_jumps(self):
        times = np.linspace(0.0, 1.0, 3)
        with pytest.raises(ValueError, match="finite"):
            StatePath(times=times, values=np.array([0.0, np.nan, 1.0]))
        with pytest.raises(ValueError, match="increasing"):
            StatePath(times=times, values=np.zeros(3), jump_log=((0.5, 1.0), (0.5, -1.0)))


class TestInitialStates:
    @pytest.mark.parametrize("mean0, std0", [(0.0, 5.0), (20.0, 5.0), (20.0, 1.0)])
    def test_moments_of_p0_reaching_past_twelve(self, mean0, std0):
        # the sampler's first window [-12, 12] cuts these p0; it has to widen.
        # At (20, 1) a draw half a grid cell low would move the mean by 4 SE
        n = 100_000
        m = named_model("ou-linear", 0.5, mean0=mean0, std0=std0)
        _, Y, _ = simulate_classical_ensemble(m, 1e-3, 1e-3, seed=3, n_paths=n)
        x0 = Y[:, 0]
        assert abs(x0.mean() - mean0) < 3.0 * std0 / np.sqrt(n)
        assert abs(x0.std(ddof=1) - std0) < 3.0 * std0 / np.sqrt(2.0 * n)

    def test_heavy_tailed_p0_raises(self):
        m = replace(flat_model(), p0=lambda x: 1.0 / (np.pi * (1.0 + np.asarray(x) ** 2)))
        with pytest.raises(ValueError, match="p0"):
            simulate_classical_ensemble(m, 1e-3, 1e-3, seed=3, n_paths=10)


class TestDirectTimeChanged:
    def test_flat_clock_freezes_state(self):
        times = np.linspace(0.0, 1.0, 101)
        vals = np.minimum(times, 0.3) + np.maximum(times - 0.6, 0.0)
        T = InversePath(times=times, values=vals)
        X = simulate_time_changed_state_direct(named_model("ou-linear", 0.5), T, seed=12)
        flat = (times >= 0.3) & (times <= 0.6)
        assert np.all(np.diff(X.values[flat]) == 0.0)

    def test_unit_slope_coincides_with_classical_law(self):
        # dT = step everywhere: the direct scheme is Euler-Maruyama; compare
        # first two moments of X_1 against a classical ensemble
        m = named_model("ou-linear", 0.5)
        T = InversePath(times=np.linspace(0.0, 1.0, 101),
                        values=np.linspace(0.0, 1.0, 101))
        direct = np.array([
            simulate_time_changed_state_direct(m, T, seed=90_000 + i).values[-1]
            for i in range(2000)
        ])
        _, Y, _ = simulate_classical_ensemble(m, 1.0, 1e-2, seed=91, n_paths=2000)
        ref = Y[:, -1]
        se_mean = np.sqrt(direct.var() / len(direct) + ref.var() / len(ref))
        assert abs(direct.mean() - ref.mean()) < 3.0 * se_mean
        se_var = np.sqrt(2.0 / (len(direct) - 1)) * (direct.var() + ref.var()) / 2.0
        assert abs(direct.var(ddof=1) - ref.var(ddof=1)) < 3.0 * se_var + 0.02

    def test_moments_match_composition(self):
        # two constructions of the same law: compare mean and variance of X_1
        m = flat_model()
        direct = []
        composed = []
        for i in range(3000):
            _, T = sample_inverse_path(0.5, 1.0, 0.02, seed=500 + i, n_nodes=51)
            X = simulate_time_changed_state_direct(m, T, seed=40_000 + i)
            direct.append(X.values[-1])
            tau_max = float(T.values[-1])
            Y, Z = simulate_classical_pair(m, tau_max * 1.02 + 0.02, 0.02, seed=70_000 + i)
            Xc, _ = time_change_pair(Y, Z, T)
            composed.append(Xc.values[-1])
        direct, composed = np.array(direct), np.array(composed)
        se_mean = np.sqrt(direct.var() / len(direct) + composed.var() / len(composed))
        assert abs(direct.mean() - composed.mean()) < 3.0 * se_mean
        v1, v2 = direct.var(ddof=1), composed.var(ddof=1)
        se_var = np.sqrt(2.0 / (len(direct) - 1)) * (v1 + v2) / 2.0 + 0.02
        assert abs(v1 - v2) < 3.0 * se_var


def unit_clock(times):
    return InversePath(times=times, values=times)


class TestLikelihood:
    """The weighted-particle loop is the one implementation of Lambda: with
    f = 1, fractional_filter_jump_obs's unnormalized estimate is the particle
    mean of Lambda_t."""

    def test_zero_h_gives_unit_likelihood(self):
        m = flat_model(h=0.0)
        _, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=21)
        res = fractional_filter_jump_obs(m, unit_clock(Z.times), Z, np.ones_like, 100, seed=22)
        assert np.all(res.unnormalized == 1.0)

    def test_events_without_rate_channel_raise(self):
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=25)
        obs = ObservationRecord(Z.times, Z.values, events=((0.5, 1.0),))
        with pytest.raises(ValueError, match="observation jump specification"):
            fractional_filter_jump_obs(m, unit_clock(Z.times), obs, lambda x: x, 100, seed=25)
        with pytest.raises(ValueError, match="observation jump specification"):
            kallianpur_striebel_estimate(m, obs, lambda x: x, 100, seed=25)

    def test_events_outside_the_record_raise(self):
        times = np.linspace(0.0, 1.0, 101)
        for t in (1.5, -0.1):
            with pytest.raises(ValueError, match="must lie in"):
                ObservationRecord(times, np.zeros(101), events=((t, 1.0),))
        ObservationRecord(times, np.zeros(101), events=((0.0, 1.0), (1.0, 1.0)))

    @pytest.mark.parametrize("values,events,match", [
        (np.full(101, 0.1), (), "start at 0"),
        (np.column_stack([np.zeros(101), np.ones(101)]), (), "start at 0"),
        (np.zeros(101), ((0.5, 1.0), (0.5, -1.0)), "strictly increasing"),
        (np.zeros(101), ((0.6, 1.0), (0.5, 1.0)), "strictly increasing"),
    ], ids=["start", "start-2d", "tie", "unordered"])
    def test_record_refusals(self, values, events, match):
        with pytest.raises(ValueError, match=match):
            ObservationRecord(np.linspace(0.0, 1.0, 101), values, events=events)

    @pytest.mark.parametrize("times, match", [
        ([0.0], "at least two nodes"),
        ([], "at least two nodes"),
        ([0.0, 0.0, 0.0], "uniform with a positive step"),
        ([0.0, -0.1, -0.2], "uniform with a positive step"),
        ([0.0, 0.01, 0.03, 0.04], "uniform with a positive step"),
        ([0.0, 1e-9, 3e-9, 4e-9], "uniform with a positive step"),
        ([0.0, 0.1, np.nan], "uniform with a positive step"),
    ], ids=["one-node", "empty", "zero-steps", "negative-steps", "non-uniform",
            "non-uniform-1e-9", "nan"])
    def test_record_refuses_its_grid(self, times, match):
        # the grid is checked before the values are read
        with pytest.raises(ValueError, match=match):
            ObservationRecord(np.array(times), np.zeros(len(times)))

    def test_record_grid_need_not_start_at_0(self):
        obs = ObservationRecord(0.5 + 0.01 * np.arange(11), np.zeros(11))
        assert obs.step == pytest.approx(0.01)

    def test_events_on_a_silent_channel_raise(self):
        # a channel at intensity 0 cannot have produced an event: the event
        # terms would be dropped without a word
        jm = named_model("jump-poisson", 0.5)
        silent = replace(jm, jumps=replace(jm.jumps, intensity=0.0))
        times = np.linspace(0.0, 1.0, 101)
        obs = ObservationRecord(times, np.zeros(101), events=((0.5, 1.0),))
        with pytest.raises(ValueError, match="observation jump specification"):
            fractional_filter_jump_obs(silent, unit_clock(times), obs, lambda x: x, 100, seed=25)
        with pytest.raises(ValueError, match="observation jump specification"):
            kallianpur_striebel_estimate(silent, obs, lambda x: x, 100, seed=25)

    def test_state_jumps_rejected_by_both_filters(self):
        # particles move by drift and diffusion only, so a state-jump channel
        # that fires would be dropped without a word
        base = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(base, 1.0, 1e-2, seed=24)

        def jumping(intensity, **rate):
            return replace(base, jumps=JumpSpec(
                intensity=intensity, atoms=[(2.0, 1.0)],
                state_jump_map=lambda x, w: np.full_like(x, w), **rate))

        with pytest.raises(ValueError, match="state-jump"):
            kallianpur_striebel_estimate(jumping(5.0), Z, lambda x: x, 100, seed=24)
        ones = dict(obs_rate=lambda t, x, w: np.ones_like(np.asanyarray(x, dtype=float)))
        with pytest.raises(ValueError, match="state-jump"):
            fractional_filter_jump_obs(jumping(5.0, **ones), unit_clock(Z.times), Z,
                                       lambda x: x, 100, seed=24)
        # a channel at intensity 0 never fires: the jump-free estimate
        silent = kallianpur_striebel_estimate(jumping(0.0), Z, lambda x: x, 100, seed=24)
        plain = kallianpur_striebel_estimate(base, Z, lambda x: x, 100, seed=24)
        assert np.array_equal(silent.values, plain.values)

    def test_two_dimensional_h_matches_hand_sum(self):
        # sigma = b = 0: every particle keeps its initial state, so Lambda is a
        # hand sum along a constant path
        m = ModelSpec(
            drift=lambda x: np.zeros_like(x), sigma=lambda x: np.zeros_like(x),
            observation=lambda x: np.stack([x, np.tanh(x)], axis=-1),
            beta=0.5, p0=gaussian_density(0.0, 1.0),
        )
        _, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=26)
        assert Z.values.shape == (101, 2)
        # a clock with a plateau: dT comes from T, not from the grid step
        T = InversePath(times=Z.times, values=np.minimum(Z.times, 0.4) + np.maximum(Z.times - 0.7, 0.0))
        dT = np.diff(T.values)
        n, seed = 100, 27
        x0 = _x0_sampler(m, _rng(seed), n)
        h = np.stack([x0, np.tanh(x0)], axis=-1)
        log_l = [np.zeros(n)]
        for k in range(100):
            log_l.append(log_l[-1] + h @ (Z.values[k + 1] - Z.values[k])
                         - 0.5 * np.sum(h * h, axis=1) * dT[k])
        hand = np.exp(log_l).mean(axis=1)
        res = fractional_filter_jump_obs(m, T, Z, np.ones_like, n, seed=seed)
        assert np.allclose(res.unnormalized, hand, rtol=1e-12, atol=0.0)

    def test_positivity(self):
        m = named_model("benes-like", 0.5)
        _, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=23)
        res = fractional_filter_jump_obs(m, unit_clock(Z.times), Z, np.ones_like, 100, seed=23)
        assert np.all(res.unnormalized > 0.0)
        assert res.unnormalized[0] == 1.0


class TestKallianpurStriebel:
    def test_zero_h_equals_plain_monte_carlo(self):
        m = flat_model(h=0.0)
        obs = ObservationRecord(times=np.linspace(0.0, 1.0, 101),
                                values=np.zeros(101))
        est = kallianpur_striebel_estimate(m, obs, lambda x: x ** 2, 4000, seed=31)
        # uniform weights: the estimate is the unweighted particle mean, which
        # must track E[Y_t^2] = 1 + t for this Brownian model from N(0, 1)
        assert np.all(est.ess == 4000.0)
        assert est.weight_collapse is False
        assert abs(est.values[-1] - 2.0) < 3.0 * np.sqrt(2.0) * 2.0 / np.sqrt(4000) + 0.05

    def test_constant_functional_is_one(self):
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 0.5, 1e-2, seed=33)
        est = kallianpur_striebel_estimate(m, Z, lambda x: np.ones_like(x), 400, seed=34)
        assert np.allclose(est.values, 1.0, atol=1e-12)

    def test_weight_collapse_is_flagged_not_fatal(self):
        m = ModelSpec(
            drift=lambda x: np.zeros_like(x), sigma=lambda x: np.ones_like(x),
            observation=lambda x: 40.0 * x, beta=0.5, p0=gaussian_density(0.0, 1.0),
        )
        _, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=35)
        est = kallianpur_striebel_estimate(m, Z, lambda x: x, 100, seed=36)
        assert est.weight_collapse is True

    def test_is_the_jump_filter_on_the_identity_clock(self):
        # one loop on two clocks: marked events included, the estimate equals
        # fractional_filter_jump_obs on T_t = t (dT = diff(times) against the
        # record's step differs in the last bits only)
        m = named_model("jump-poisson", 0.5, rate=5.0)
        T = unit_slope_inverse(1.0, 1e-3)
        X = simulate_time_changed_state_direct(m, T, seed=39)
        obs = simulate_jump_observation(m, X, T, seed=40)
        assert len(obs.events) > 0
        ks = kallianpur_striebel_estimate(m, obs, lambda x: x, 200, seed=41)
        jf = fractional_filter_jump_obs(m, T, obs, lambda x: x, 200, seed=41)
        assert np.max(np.abs(ks.values - jf.posterior)) < 1e-12
        assert np.max(np.abs(ks.ess - jf.ess)) < 1e-9

    def test_non_uniform_record_raises(self):
        # the test is relative: steps of 1e-9 and 2e-9 sit inside an absolute 1e-8;
        # the record refuses the grid when it is built
        for scale in (1e-2, 1e-9):
            with pytest.raises(ValueError, match="uniform with a positive step"):
                ObservationRecord(times=scale * np.array([0.0, 1.0, 3.0, 4.0]),
                                  values=np.zeros(4))

    def test_one_node_record_raises(self):
        with pytest.raises(ValueError, match="at least two nodes"):
            ObservationRecord(times=np.array([0.0]), values=np.zeros(1))

    @pytest.mark.parametrize("times", [[0.0, -0.1, -0.2], [0.0, 0.0, 0.0]],
                             ids=["negative-steps", "zero-steps"])
    def test_filters_cannot_be_handed_a_grid_that_does_not_increase(self, times):
        # KS once returned a NaN posterior on negative steps, and both filters
        # ran on zero steps; neither can be given such a record or clock now,
        # not even as a copy of a valid one
        m = named_model("ou-linear", 0.5)
        t = np.array(times)
        _, Z = simulate_classical_pair(m, 0.02, 1e-2, seed=39)
        with pytest.raises(ValueError, match="uniform with a positive step"):
            kallianpur_striebel_estimate(m, replace(Z, times=t), lambda x: x, 100, seed=39)
        with pytest.raises(ValueError, match="uniform with a positive step"):
            fractional_filter_jump_obs(m, replace(unit_clock(Z.times), times=t), Z,
                                       lambda x: x, 100, seed=39)

    def test_ks_and_clock_mode_cannot_be_handed_values_off_their_grid(self):
        # KS once said "cannot reshape array" and a clock-mode solve "fp and xp
        # are not of the same length"; the record and the clock now refuse
        # themselves when they are built, with their type named
        from fracfilt.models import SpatialGrid
        from fracfilt.zakai_fractional import solve_fractional_zakai
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 0.1, 1e-2, seed=42)
        T = unit_clock(Z.times)
        with pytest.raises(ValueError, match="ObservationRecord has values of shape"):
            kallianpur_striebel_estimate(m, replace(Z, values=Z.values[:5]), lambda x: x, 100, seed=42)
        with pytest.raises(ValueError, match="InversePath has values of shape"):
            solve_fractional_zakai(m, SpatialGrid(-6.0, 6.0, 48), replace(T, values=T.values[:3]), Z)

    def test_prefix_run_reproduces_the_full_run(self):
        # one sequential noise stream, drawn a block of S steps ahead: the estimate
        # is online, so a run on the first k steps gives the first k + 1 outputs of
        # the full run, also where k ends just before, at or just after a block edge
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 1.0, 2.5e-3, seed=40)
        S = sde_sim._NOISE_BLOCK // 500
        assert S + 1 < len(Z.times) - 1
        full = kallianpur_striebel_estimate(m, Z, lambda x: x, 500, seed=41)
        for k in (200, S - 1, S, S + 1):
            head = ObservationRecord(times=Z.times[:k + 1], values=Z.values[:k + 1])
            part = kallianpur_striebel_estimate(m, head, lambda x: x, 500, seed=41)
            assert np.array_equal(part.values, full.values[:k + 1])
            assert np.array_equal(part.posterior_sd, full.posterior_sd[:k + 1])
            assert np.array_equal(part.ess, full.ess[:k + 1])

    def test_memory_does_not_grow_with_particles_times_steps(self):
        # 10k particles over 2000 steps: an (n, M) noise array would be 160 MB,
        # the per-step state, weights and draws are 80 KB each
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 5.0, 2.5e-3, seed=42)
        assert len(Z.times) == 2001
        tracemalloc.start()
        try:
            kallianpur_striebel_estimate(m, Z, lambda x: x, 10_000, seed=43)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_outputs_are_pinned(self):
        # 400 steps of 500 particles cross a noise block edge; every output
        # array is pinned by its sha1
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 1.0, 2.5e-3, seed=40)
        est = kallianpur_striebel_estimate(m, Z, lambda x: x, 500, seed=41)
        assert est.values[-1] == -0.0506301021338233
        assert est.posterior_sd[-1] == 0.041258845637663216
        assert est.ess[-1] == 340.4615089705189
        for a, digest in ((est.values, "8049db84267560f75e6159515b94d23cdf122086"),
                          (est.posterior_sd, "13bde8323e17516ac9b92a2ceeacdadf9475f230"),
                          (est.ess, "d671b2d595b2b3772b2dd2ac53ef0e574833cafc")):
            assert hashlib.sha1(a.tobytes()).hexdigest() == digest

    def test_callables_that_return_their_argument(self):
        # drift, sigma, h and f may hand back the state array itself: the loop
        # writes only into arrays of its own, so a model whose callables return
        # their argument gives the bits of one whose callables copy it
        def model(same):
            ret = (lambda x: x) if same else (lambda x: np.array(x, dtype=float))
            return ModelSpec(drift=ret, sigma=ret, observation=ret, beta=0.5,
                             p0=gaussian_density(0.0, 1.0))

        jm = named_model("jump-poisson", 0.5, rate=5.0)
        T = unit_slope_inverse(0.5, 1e-2)
        obs = simulate_jump_observation(jm, simulate_time_changed_state_direct(jm, T, seed=44),
                                        T, seed=45)
        assert len(obs.events) > 0
        runs = []
        for same in (True, False):
            m = replace(model(same), jumps=jm.jumps)
            ret = model(same).drift
            ks = kallianpur_striebel_estimate(m, obs, ret, 300, seed=46)
            jf = fractional_filter_jump_obs(m, T, obs, ret, 300, seed=46,
                                            residual_test_functions=[(ret, np.ones_like,
                                                                      np.zeros_like)])
            runs.append((ks.values, ks.posterior_sd, ks.ess, jf.posterior, jf.unnormalized,
                         jf.ess, np.array([jf.residuals[0]["residual"], jf.residuals[0]["se"]])))
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_particle_floor(self):
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 0.2, 1e-2, seed=37)
        with pytest.raises(ValueError):
            kallianpur_striebel_estimate(m, Z, lambda x: x, 50, seed=38)


class TestNoiseBlocks:
    """The worker's blocks of S steps give the step-by-step stream, a record of
    one block starts no thread, and no thread outlives a call."""

    N = 4096                                  # S = _NOISE_BLOCK // N steps per block

    def test_one_step_blocks_give_the_same_bits(self, monkeypatch):
        S = sde_sim._NOISE_BLOCK // self.N
        M = 2 * S + 3                         # the last block is a short one
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, M * 1e-2, 1e-2, seed=50)
        jm = named_model("jump-poisson", 0.5, rate=20.0)
        T = unit_slope_inverse(M * 1e-2, 1e-2)
        obs = simulate_jump_observation(jm, simulate_time_changed_state_direct(jm, T, seed=51),
                                        T, seed=52)
        assert len(Z.times) == len(T.times) == M + 1 and len(obs.events) > 0
        f = lambda x: x

        def runs():
            ks = kallianpur_striebel_estimate(m, Z, f, self.N, seed=53)
            jf = fractional_filter_jump_obs(jm, T, obs, f, self.N, seed=54,
                                            residual_test_functions=[(f, np.ones_like,
                                                                      np.zeros_like)])
            return ks.values, ks.posterior_sd, ks.ess, jf.posterior, jf.unnormalized, jf.ess

        blocked = runs()
        monkeypatch.setattr(sde_sim, "_NOISE_BLOCK", 1)          # S = 1
        for a, b in zip(blocked, runs()):
            assert np.array_equal(a, b)

    def test_a_record_of_one_block_starts_no_thread(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start", lambda t: (started.append(t), start(t))[1])
        S = sde_sim._NOISE_BLOCK // self.N
        m = named_model("ou-linear", 0.5)
        for M, threads in ((S, 0), (S + 1, 1)):
            _, Z = simulate_classical_pair(m, M * 1e-2, 1e-2, seed=56)
            assert len(Z.times) == M + 1
            started.clear()
            kallianpur_striebel_estimate(m, Z, lambda x: x, self.N, seed=57)
            assert len(started) == threads

    def test_a_raise_leaves_no_worker_thread(self):
        # the rate turns negative two steps into the second block, while the
        # worker has the third in hand: the worker is joined before the raise
        S = sde_sim._NOISE_BLOCK // self.N
        step = 1e-2
        base = named_model("ou-linear", 0.5)
        m = replace(base, jumps=JumpSpec(
            intensity=1.0, atoms=[(1.0, 1.0)],
            obs_rate=lambda t, x, w: np.full_like(np.asanyarray(x, dtype=float),
                                                  1.0 if t < (S + 1.5) * step else -1.0)))
        T = unit_slope_inverse(3 * S * step, step)
        obs = ObservationRecord(times=T.times, values=np.zeros(len(T.times)))
        before = threading.active_count()
        with pytest.raises(ValueError, match="nonnegative"):
            fractional_filter_jump_obs(m, T, obs, lambda x: x, self.N, seed=55)
        assert threading.active_count() == before

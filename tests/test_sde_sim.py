from dataclasses import replace

import numpy as np
import pytest

from fracfilt.models import JumpSpec, ModelSpec, gaussian_density, named_model
from fracfilt.sde_sim import (
    ObservationRecord,
    StatePath,
    kallianpur_striebel_estimate,
    likelihood_path,
    simulate_classical_ensemble,
    simulate_classical_pair,
    simulate_time_changed_state_direct,
    time_change_pair,
)
from fracfilt.subordinator import InversePath, sample_inverse_path, unit_slope_inverse


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
        # for b = 0, sigma = 1 and X0 = 0: Var[X_1] = E[T_1] = 2/sqrt(pi) at beta = 1/2
        rng_seed = 100
        m = flat_model()
        xs = []
        for i in range(4000):
            _, T = sample_inverse_path(0.5, 1.0, 0.02, seed=rng_seed + i, n_nodes=51)
            tau_max = float(T.values[-1])
            times, Y, Z = simulate_classical_ensemble(
                m, tau_max * 1.02 + 0.02, 0.02, seed=10_000 + i, n_paths=1,
                x0=np.zeros(1),
            )
            Ypath = StatePath(times=times, values=Y[0])
            Zrec = ObservationRecord(times=times, values=Z[0, :, 0])
            X, _ = time_change_pair(Ypath, Zrec, T)
            xs.append(X.values[-1])
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
        assert Y.values[0] == 0.6839818830595102
        assert Y.values[-1] == 1.05007323164504
        assert Z.values[0] == 0.0
        assert Z.values[-1] == 0.8014774243940641

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
    @pytest.mark.parametrize("mean0, std0", [(0.0, 5.0), (20.0, 5.0)])
    def test_moments_of_p0_reaching_past_twelve(self, mean0, std0):
        # the sampler's first window [-12, 12] cuts these p0; it has to widen
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


class TestLikelihood:
    def test_zero_h_gives_unit_likelihood(self):
        m = flat_model(h=0.0)
        Y, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=21)
        L = likelihood_path(m, Y, Z)
        assert np.all(L.values == 1.0)

    def test_martingale_mean_under_reference(self):
        # under the reference measure Z is a Brownian motion independent of Y,
        # so E[Lambda_1] = 1
        m = named_model("ou-linear", 0.5)
        n, step = 4000, 1e-2
        times, Y, _ = simulate_classical_ensemble(m, 1.0, step, seed=99, n_paths=n)
        rng = np.random.Generator(np.random.Philox(key=98))
        dZ = np.sqrt(step) * rng.standard_normal((n, len(times) - 1))
        Z = np.concatenate((np.zeros((n, 1)), np.cumsum(dZ, axis=1)), axis=1)
        w = np.array([
            likelihood_path(m, StatePath(times, Y[i]), ObservationRecord(times, Z[i])).values[-1]
            for i in range(n)
        ])
        se = w.std(ddof=1) / np.sqrt(n)
        assert abs(w.mean() - 1.0) < 3.0 * se

    def test_model_without_rate_channel_gives_continuous_part(self):
        # a state-jump-only model carries no observation-jump channel
        base = named_model("ou-linear", 0.5)
        m = ModelSpec(drift=base.drift, sigma=base.sigma, observation=base.observation,
                      beta=0.5, p0=base.p0,
                      jumps=JumpSpec(intensity=2.0, atoms=[(0.3, 1.0)],
                                     state_jump_map=lambda x, w: np.full_like(x, w)))
        Y, Z = simulate_classical_pair(base, 1.0, 1e-2, seed=24)
        h = Y.values[:-1]
        hand = np.exp(np.concatenate(([0.0], np.cumsum(h * np.diff(Z.values) - 0.5 * h * h * 1e-2))))
        for model in (base, m):
            assert np.allclose(likelihood_path(model, Y, Z).values, hand, rtol=1e-12, atol=0.0)

    def test_events_without_rate_channel_raise(self):
        m = named_model("ou-linear", 0.5)
        Y, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=25)
        obs = ObservationRecord(Z.times, Z.values, events=((0.5, 1.0),))
        with pytest.raises(ValueError, match="observation-jump channel"):
            likelihood_path(m, Y, obs)

    def test_two_dimensional_h_matches_hand_sum(self):
        m = ModelSpec(
            drift=lambda x: -x, sigma=lambda x: np.ones_like(x),
            observation=lambda x: np.stack([x, np.tanh(x)], axis=-1),
            beta=0.5, p0=gaussian_density(0.0, 1.0),
        )
        Y, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=26)
        assert Z.values.shape == (101, 2)
        # a clock with a plateau: dT comes from T, not from the grid step
        T = InversePath(times=Z.times, values=np.minimum(Z.times, 0.4) + np.maximum(Z.times - 0.7, 0.0))
        dT = np.diff(T.values)
        log_l = [0.0]
        for k in range(100):
            y = Y.values[k]
            h = np.array([y, np.tanh(y)])
            log_l.append(log_l[-1] + h @ (Z.values[k + 1] - Z.values[k]) - 0.5 * (h @ h) * dT[k])
        L = likelihood_path(m, Y, Z, T)
        assert np.allclose(L.values, np.exp(log_l), rtol=1e-12, atol=0.0)

    def test_positivity(self):
        m = named_model("benes-like", 0.5)
        Y, Z = simulate_classical_pair(m, 1.0, 1e-2, seed=23)
        L = likelihood_path(m, Y, Z)
        assert np.all(L.values > 0.0)
        assert L.values[0] == 1.0


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

    def test_marked_events_rejected(self):
        # the estimate has no event term; fractional_filter_jump_obs filters events
        m = named_model("jump-poisson", 0.5)
        times = np.linspace(0.0, 1.0, 101)
        plain = ObservationRecord(times=times, values=np.zeros(101))
        kallianpur_striebel_estimate(m, plain, lambda x: x, 100, seed=39)
        marked = ObservationRecord(times=times, values=np.zeros(101), events=((0.5, 1.0),))
        with pytest.raises(ValueError, match="continuous-only"):
            kallianpur_striebel_estimate(m, marked, lambda x: x, 100, seed=39)

    def test_particle_floor(self):
        m = named_model("ou-linear", 0.5)
        _, Z = simulate_classical_pair(m, 0.2, 1e-2, seed=37)
        with pytest.raises(ValueError):
            kallianpur_striebel_estimate(m, Z, lambda x: x, 50, seed=38)

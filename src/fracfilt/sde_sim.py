"""Path simulation, observation likelihoods and Monte-Carlo filtering estimates.

Classical pair: dY = b(Y) dt + sigma(Y) dB, dZ = h(Y) dt + dW (independent noises).
Time-changed pair: X_t = Y_{T_t}, V_t = Z_{T_t} for an inverse-subordinator clock T,
or the direct discretization dX = b(X) dT + sigma(X) dB_T.

_euler_maruyama is the one loop of that state equation, for the classical
ensemble, the direct time-changed simulator and levy_ext.simulate_jump_state.

An ObservationRecord holds the continuous observation path and, for a model
with an observation-jump channel, its marked events.  likelihood_path is the
one single-path likelihood, marked-event terms included, and
_weighted_particles the one particle loop behind the Kallianpur-Striebel
estimate and levy_ext's jump-observation filter.

All stochastic integrals are left-point (Ito) sums.  Randomness is counter-based
(Philox keyed by the seed); ensemble draws are partitioned by row, so particle i
always owns row i of each noise array and runs are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .models import ModelSpec
from .subordinator import InversePath, _rng

__all__ = [
    "StatePath",
    "ObservationRecord",
    "LikelihoodPath",
    "simulate_classical_pair",
    "simulate_classical_ensemble",
    "time_change_pair",
    "simulate_time_changed_state_direct",
    "likelihood_path",
    "kallianpur_striebel_estimate",
    "KSEstimate",
]


@dataclass(frozen=True)
class StatePath:
    """State values on a time grid; jump_log holds the state jumps
    ((time, displacement), ...) in strictly increasing time, () for none."""

    times: np.ndarray
    values: np.ndarray
    jump_log: tuple = ()

    def __post_init__(self):
        ts = [t for t, _ in self.jump_log]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("jump log times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("state values must be finite")

    def at(self, t):
        return np.interp(t, self.times, self.values)


@dataclass(frozen=True)
class ObservationRecord:
    """Observation path on a uniform grid; values start at 0; shape (M+1,) or (M+1, m).

    events are the marked jump events ((time, mark), ...) of an observation-jump
    channel in strictly increasing time; () for a continuous-only observation.
    """

    times: np.ndarray
    values: np.ndarray
    events: tuple = ()

    def __post_init__(self):
        if not np.all(np.abs(np.atleast_1d(self.values[0])) == 0.0):
            raise ValueError("observation paths start at 0")
        ts = [t for t, _ in self.events]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("event times must be strictly increasing")

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def matrix(self) -> np.ndarray:
        """Values as (M+1, m)."""
        v = self.values
        return v[:, None] if v.ndim == 1 else v


@dataclass(frozen=True)
class LikelihoodPath:
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values[0] != 1.0:
            raise ValueError("likelihood starts at 1")
        if np.any(self.values <= 0.0):
            raise ValueError("likelihood must stay positive")


# widest window [-L, L] the initial-state sampler tries
_X0_MAX_HALF_WIDTH = 12.0 * 2.0 ** 10


def _x0_sampler(model: ModelSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw initial states from p0 by inverse-CDF on 4001 points of [-L, L].

    L starts at 12 and doubles until p0 at both ends is below 1e-16 of its
    largest sampled value; past _X0_MAX_HALF_WIDTH (or when p0 vanishes on every
    point) it raises ValueError.  A Gaussian p0 with |mean| + 8.6 std < 12, the
    built-in default among them, stops at L = 12.
    """
    half = 12.0
    while True:
        xs = np.linspace(-half, half, 4001)
        pdf = np.maximum(np.asarray(model.p0(xs), dtype=float), 0.0)
        if max(pdf[0], pdf[-1]) < 1e-16 * pdf.max():
            break
        half *= 2.0
        if half > _X0_MAX_HALF_WIDTH:
            raise ValueError(
                f"p0 keeps mass beyond |x| = {_X0_MAX_HALF_WIDTH:g} or none on the "
                "sampling grid; cannot draw initial states"
            )
    cdf = np.cumsum(pdf)
    cdf = cdf / cdf[-1]
    u = rng.uniform(0.0, 1.0, n)
    return np.interp(u, cdf, xs)


def _uniform_times(horizon: float, step: float) -> np.ndarray:
    """Nodes step * k, k = 0..round(horizon / step), of a uniform simulation grid."""
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and step must be positive")
    return step * np.arange(int(round(horizon / step)) + 1)


def _euler_maruyama(model: ModelSpec, dT: np.ndarray, rng: np.random.Generator,
                    n_paths: int = 1, x0: np.ndarray | None = None, jumps=None):
    """The one Euler-Maruyama loop of dX = b(X) dT + sigma(X) dB_T, n_paths at once.

    Draws x0 from p0 (unless given), then one (n_paths, M) block xi of normals
    from rng, and steps X_{k+1} = X_k + b(X_k) dT_k + sigma(X_k) dB_k with
    dB = sqrt(dT) xi.  jumps = (times, ((s, w), ...), jump_rng) splits a single
    path's step (times[k], times[k+1]] at the state-jump epochs s inside it:
    Euler pieces with noise from jump_rng, and a jump G(X_s-, w) at each s,
    G = model.jumps.state_jump_map.  Returns X and the jump log ((s, G), ...).
    """
    M = len(dT)
    X = np.empty((n_paths, M + 1))
    X[:, 0] = _x0_sampler(model, rng, n_paths) if x0 is None else x0
    dB = np.sqrt(dT) * rng.standard_normal((n_paths, M))
    times, epochs, jump_rng = jumps or (None, [], None)
    # the epochs in (times[k], times[k + 1]] are epochs[cut[k]:cut[k + 1]]
    cut = np.searchsorted([s for s, _ in epochs], times, side="right") if jumps else [0] * (M + 1)
    log = []
    for k in range(M):
        x = X[:, k]
        if cut[k] == cut[k + 1]:
            X[:, k + 1] = x + model.drift(x) * dT[k] + model.sigma(x) * dB[:, k]
            continue
        s = times[k]
        for se, w in epochs[cut[k]:cut[k + 1]] + [(times[k + 1], None)]:
            d = se - s
            if d > 0:
                x = x + model.drift(x) * d + model.sigma(x) * np.sqrt(d) * jump_rng.standard_normal()
            if w is not None:
                disp = np.broadcast_to(model.jumps.state_jump_map(x, w), x.shape)
                x = x + disp
                log.append((float(se), float(disp[0])))
            s = se
        X[:, k + 1] = x
    return X, tuple(log)


def simulate_classical_ensemble(
    model: ModelSpec,
    horizon: float,
    step: float,
    seed,
    n_paths: int,
    x0: np.ndarray | None = None,
):
    """Euler-Maruyama ensemble: Y (n_paths, M+1) and Z = int h(Y) dt + W (n_paths, M+1, m).

    Row i of every noise array belongs to path i; the observation noise is
    drawn after the state noise.  Returns (times, Y, Z).
    """
    times = _uniform_times(horizon, step)
    M = len(times) - 1
    rng = _rng(seed)
    Y, _ = _euler_maruyama(model, np.full(M, step), rng, n_paths, x0)
    m_obs = model.h_matrix(np.zeros(1)).shape[1]
    dW = np.sqrt(step) * rng.standard_normal((n_paths, M, m_obs))
    Z = np.zeros((n_paths, M + 1, m_obs))
    for k in range(M):
        Z[:, k + 1] = Z[:, k] + model.h_matrix(Y[:, k]) * step + dW[:, k]
    return times, Y, Z


def simulate_classical_pair(model: ModelSpec, horizon: float, step: float, seed):
    """One classical pair (StatePath, ObservationRecord); deterministic per seed."""
    times, Y, Z = simulate_classical_ensemble(model, horizon, step, seed, n_paths=1)
    z = Z[0, :, 0] if Z.shape[2] == 1 else Z[0]
    return StatePath(times=times, values=Y[0]), ObservationRecord(times=times, values=z)


def time_change_pair(
    Y: StatePath, Z: ObservationRecord, T: InversePath
) -> tuple[StatePath, ObservationRecord]:
    """Compose X = Y o T and V = Z o T by linear interpolation on the operational grid."""
    tau_max = float(np.max(T.values))
    if tau_max > Y.times[-1] + 1e-12 or tau_max > Z.times[-1] + 1e-12:
        raise ValueError(
            f"time change reaches operational time {tau_max:.6g} beyond the simulated "
            f"horizon {Y.times[-1]:.6g}; resimulate the pair with a longer horizon"
        )
    xv = np.interp(T.values, Y.times, Y.values)
    zmat = Z.matrix()
    vv = np.column_stack([np.interp(T.values, Z.times, zmat[:, j]) for j in range(zmat.shape[1])])
    if Z.values.ndim == 1:
        vv = vv[:, 0]
    return (
        StatePath(times=T.times, values=xv),
        ObservationRecord(times=T.times, values=vv),
    )


def simulate_time_changed_state_direct(model: ModelSpec, T: InversePath, seed) -> StatePath:
    """Direct discretization of dX = b(X) dT + sigma(X) N(0, dT).

    Independent construction of the same law as composing the classical path with
    T; flat stretches of T produce exactly constant stretches of X.
    """
    X, _ = _euler_maruyama(model, np.diff(T.values), _rng(seed))
    return StatePath(times=T.times, values=X[0])


# ---------------------------------------------------------------------------
# likelihoods and the Kallianpur-Striebel estimate
# ---------------------------------------------------------------------------

def likelihood_path(model: ModelSpec, X: StatePath, obs: ObservationRecord,
                    T: InversePath | None = None) -> LikelihoodPath:
    """Likelihood Lambda along one state path against one observation record.

    log Lambda_t = sum_k [h(X_k) . dZ_k - 0.5 |h(X_k)|^2 dT_k]
                   + sum_k sum_w nu_tot p_w (1 - lam(t_k, X_k, w)) dT_k
                   + sum_{events s <= t} ln lam(s, X_{k(s)}, w),

    left-point sums on obs.times, with X interpolated there and k(s) the left
    node of the interval holding the event.  dT is diff(T.values), or obs.step
    (the classical timing) when T is None.  The two marked-event sums are on
    when the model has an observation-jump channel (model.jumps.obs_rate).
    """
    times = obs.times
    M = len(times) - 1
    dT = np.diff(T.values) if T is not None else np.full(M, obs.step)
    xs = np.interp(times, X.times, X.values)
    h = model.h_matrix(xs[:-1])
    inc = np.sum(h * obs.increments.reshape(M, -1), axis=1) - 0.5 * np.sum(h * h, axis=1) * dT
    jumps = model.jumps
    rated = jumps is not None and jumps.obs_rate is not None
    if obs.events and not rated:
        raise ValueError("observation events need a model with an observation-jump channel")
    if rated:
        for w, p in jumps.atoms:
            lam = np.asarray(jumps.obs_rate(times[:-1], xs[:-1], w), dtype=float)
            inc = inc + jumps.intensity * p * (1.0 - lam) * dT
    logL = np.concatenate(([0.0], np.cumsum(inc)))
    for (se, w) in obs.events:
        k = min(max(int(np.searchsorted(times, se, side="left") - 1), 0), M - 1)
        lam = float(np.asarray(jumps.obs_rate(se, xs[k], w)))
        if lam <= 0.0:
            raise ValueError(f"rate multiplier lam = {lam} at event ({se}, {w}); log undefined")
        logL[k + 1:] += np.log(lam)
    return LikelihoodPath(times=times.copy(), values=np.exp(logL))


@dataclass(frozen=True)
class KSEstimate:
    """Weighted-particle posterior estimate of E[f(Y_t) | observations up to t]."""

    times: np.ndarray
    values: np.ndarray
    ess: np.ndarray                       # effective sample size per step
    weight_collapse: bool                 # flagged when min ESS < 2
    posterior_sd: np.ndarray = field(default=None)


def _weighted_particles(model: ModelSpec, times, dZ, dT, f, n_particles: int, seed,
                        jumps=None, events=(), test_functions=()):
    """The weighted-particle loop behind both particle filters.

    Particles follow the state equation under the reference measure on the
    clock increments dT and carry their log-likelihood against the observation
    increments dZ (M, m), every term taken at the left node.  jumps is the
    JumpSpec of an observed marked-event channel, None for a continuous-only
    observation; with intensity > 0 each step adds the compensator
    nu_tot p_w (1 - lam(t_k, x, w)) dT_k per atom, and each event (s_e, w) adds
    ln lam(s_e, x, w) at the state of the left node of its interval.

    For each (g, g', g'') in test_functions the per-particle residual of the
    filter equation at the horizon,

        R_i = g(X_T) L_T - g(X_0) - sum_k (Ag)(X_k) L_k dT_k - sum_k h g L dZ_k
              - [ sum_events (lam - 1) g L - sum_k int (lam - 1) nu(dw) g L dT_k ],

    with (Ag)(x) = 0.5 sigma^2 g'' + b g', is summed step by step.  Given the
    clock, the memory term acts along T as a left-point Stieltjes sum (the
    fractional kernel form is its T-average).  The standard error combines the
    spread of R_i over the cloud with the delta-method variance of the
    realized-quadratic-variation fluctuation sum_k c_k ((dZ_k)^2 - dT_k),
    which is common to every particle.

    Returns the per-node posterior mean of f, its delta-method standard error,
    the ESS and the log mean raw weight, plus one residual dict per triple.
    """
    if n_particles < 100:
        raise ValueError("use at least 100 particles")
    M = len(dT)
    dZ = np.asarray(dZ, dtype=float).reshape(M, -1)
    rated = jumps is not None and jumps.intensity > 0.0
    ev_at = [[] for _ in range(M)]
    for (se, w) in events:
        k = int(np.searchsorted(times, se, side="left") - 1)
        ev_at[min(max(k, 0), M - 1)].append((se, w))

    rng = _rng(seed)
    y = _x0_sampler(model, rng, n_particles)
    logw = np.zeros(n_particles)
    est, sd, ess, log_mean_w = (np.empty(M + 1) for _ in range(4))
    # per test function: g(X_0) plus the running sum of the right-hand terms
    rhs = [np.array(g(y), dtype=float) for g, _, _ in test_functions]
    qv_var = np.zeros(len(test_functions))

    def record(k, y, logw):
        top = logw.max()
        w = np.exp(logw - top)
        wsum = w.sum()
        fy = np.asarray(f(y), dtype=float)
        mean = float((w * fy).sum() / wsum)
        est[k] = mean
        # delta-method SE of the self-normalized estimator
        sd[k] = float(np.sqrt(np.sum((w / wsum) ** 2 * (fy - mean) ** 2)))
        ess[k] = float(wsum ** 2 / np.sum(w ** 2))
        log_mean_w[k] = top + np.log(wsum / n_particles)

    record(0, y, logw)
    dB = rng.standard_normal((n_particles, M))
    for k in range(M):
        h = model.h_matrix(y)
        hdz, hh = h @ dZ[k], np.sum(h * h, axis=1)
        b, s = model.drift(y), model.sigma(y)
        L = np.exp(logw) if test_functions else None
        gL = []
        for i, (g, g1, g2) in enumerate(test_functions):
            gL.append(np.asarray(g(y), dtype=float) * L)
            Ag = 0.5 * s ** 2 * np.asarray(g2(y), dtype=float) + b * np.asarray(g1(y), dtype=float)
            rhs[i] += Ag * L * dT[k] + hdz * gL[i]
            c = 0.5 * float(np.mean(hh * gL[i]))
            qv_var[i] += c * c * 2.0 * dT[k] ** 2
        logw = logw + hdz - 0.5 * hh * dT[k]
        if rated:
            for w, p in jumps.atoms:
                lam = np.asarray(jumps.obs_rate(times[k], y, w), dtype=float)
                if np.any(lam < 0.0):
                    raise ValueError("rate multiplier must stay nonnegative")
                logw = logw + jumps.intensity * p * (1.0 - lam) * dT[k]
                for r, gl in zip(rhs, gL):
                    r -= jumps.intensity * p * (lam - 1.0) * gl * dT[k]
            for (se, w) in ev_at[k]:
                lam = np.asarray(jumps.obs_rate(se, y, w), dtype=float)
                if np.any(lam < 0.0):
                    raise ValueError(f"rate multiplier lam < 0 at event ({se}, {w}); log undefined")
                # a particle with lam = 0 cannot have produced the event: weight 0
                logw = logw + np.log(lam, out=np.full_like(lam, -np.inf), where=lam > 0.0)
                if np.all(logw == -np.inf):
                    raise ValueError(f"no particle with weight has lam > 0 at event "
                                     f"({se}, {w}); log undefined")
                for r, gl in zip(rhs, gL):
                    r += (lam - 1.0) * gl
        y = y + b * dT[k] + s * np.sqrt(dT[k]) * dB[:, k]
        record(k + 1, y, logw)

    residuals = []
    for (g, _, _), r, qv in zip(test_functions, rhs, qv_var):
        lhs = np.asarray(g(y), dtype=float) * np.exp(logw)
        R = lhs - r
        se_particles = float(R.std(ddof=1) / np.sqrt(n_particles))
        residuals.append({
            "residual": float(R.mean()),
            "se": float(np.sqrt(se_particles ** 2 + qv)),
            "se_particles": se_particles,
            "se_quadratic_variation": float(np.sqrt(qv)),
            "lhs": float(lhs.mean()),
        })
    return est, sd, ess, log_mean_w, tuple(residuals)


def kallianpur_striebel_estimate(
    model: ModelSpec,
    observed: ObservationRecord,
    f,
    n_particles: int,
    seed,
    dt_weights=None,
) -> KSEstimate:
    """Reference-measure particle estimate sum_i f(Y^i) L^i / sum_i L^i per step.

    Particles are independent copies of the state simulated under the reference
    measure; each is weighted by its exponential likelihood evaluated against
    the GIVEN observation increments.  dt_weights overrides the clock increments
    of the state steps and of the quadratic penalty (pass diff(T) for
    time-changed problems).  Weight collapse (ESS < 2) is flagged in the
    output, not fatal.  A record with marked events is rejected: this
    estimate has no event term (levy_ext.fractional_filter_jump_obs has).
    """
    if observed.events:
        raise ValueError("the Kallianpur-Striebel estimate takes a continuous-only record; "
                         "filter marked events with levy_ext.fractional_filter_jump_obs")
    dt = np.broadcast_to(np.asarray(observed.step if dt_weights is None else dt_weights,
                                    dtype=float), (len(observed.times) - 1,))
    est, sd, ess, _, _ = _weighted_particles(
        model, observed.times, observed.increments, dt, f, n_particles, seed
    )
    return KSEstimate(
        times=observed.times,
        values=est,
        ess=ess,
        weight_collapse=bool(np.min(ess) < 2.0),
        posterior_sd=sd,
    )

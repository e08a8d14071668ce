"""Path simulation, observation likelihoods and Monte-Carlo filtering estimates.

Classical pair: dY = b(Y) dt + sigma(Y) dB, dZ = h(Y) dt + dW (independent noises).
Time-changed pair: X_t = Y_{T_t}, V_t = Z_{T_t} for an inverse-subordinator clock T,
or the direct discretization dX = b(X) dT + sigma(X) dB_T.

_euler_maruyama is the one loop of that state equation, for the classical
ensemble, the direct time-changed simulator and levy_ext.simulate_jump_state.

StatePath and ObservationRecord extend subordinator._SampledPath, which checks
the uniform grid and one value row per node.  An ObservationRecord also holds,
for a model with an observation-jump channel, its marked events.  _weighted_particles is
the one particle filter and the one implementation of the likelihood Lambda,
marked-event terms included: each particle carries log Lambda along its own
path.  levy_ext.fractional_filter_jump_obs runs it on any clock T, and the
Kallianpur-Striebel estimate runs it on the identity clock T_t = t.  Its steps
work in place on a few per-particle vectors allocated once per run.

All stochastic integrals are left-point (Ito) sums.  Randomness is counter-based
(Philox keyed by the seed), and runs are reproducible bit-for-bit.  The
Euler-Maruyama loop draws one (n_paths, M) block, so path i owns row i of each
noise array.  The particle loop reads one sequential stream: the n_particles
initial-state uniforms, then step k's n_particles normals for k = 0, 1, ...;
one worker thread draws the normals of later steps a block ahead from that
same stream, so the numbers are the ones a step-by-step draw would give.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .models import ModelSpec
from .subordinator import InversePath, _rng, _SampledPath

__all__ = [
    "StatePath",
    "ObservationRecord",
    "simulate_classical_pair",
    "simulate_classical_ensemble",
    "time_change_pair",
    "simulate_time_changed_state_direct",
    "kallianpur_striebel_estimate",
    "KSEstimate",
]


@dataclass(frozen=True)
class StatePath(_SampledPath):
    """State values on a time grid; jump_log holds the state jumps
    ((time, displacement), ...) in strictly increasing time, () for none."""

    jump_log: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        ts = [t for t, _ in self.jump_log]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("jump log times must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("state values must be finite")


@dataclass(frozen=True)
class ObservationRecord(_SampledPath):
    """Observation path on a uniform grid; values start at 0; shape (M+1,) or (M+1, m).

    The grid needs no start at 0.  events are the marked jump events
    ((time, mark), ...) of an observation-jump channel in strictly increasing
    time inside [times[0], times[-1]]; () for a continuous-only observation.
    """

    events: tuple = ()

    def __post_init__(self):
        super().__post_init__()
        if not np.all(np.abs(np.atleast_1d(self.values[0])) == 0.0):
            raise ValueError("observation paths start at 0")
        ts = [t for t, _ in self.events]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("event times must be strictly increasing")
        if ts and (ts[0] < self.times[0] or ts[-1] > self.times[-1]):
            raise ValueError("event times must lie in [times[0], times[-1]]")


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
    # trapezoid CDF: a left-point cumsum(pdf) puts every draw half a cell low
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]))))
    cdf = cdf / cdf[-1]
    u = rng.uniform(0.0, 1.0, n)
    return np.interp(u, cdf, xs)


def _uniform_times(horizon: float, step: float) -> np.ndarray:
    """Nodes step * k, k = 0..round(horizon / step), of a uniform simulation grid."""
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("horizon and step must be positive")
    return step * np.arange(int(round(horizon / step)) + 1)


def _euler_maruyama(model: ModelSpec, dT: np.ndarray, rng: np.random.Generator,
                    n_paths: int = 1, jumps=None):
    """The one Euler-Maruyama loop of dX = b(X) dT + sigma(X) dB_T, n_paths at once.

    Draws x0 from p0, then one (n_paths, M) block xi of normals
    from rng, and steps X_{k+1} = X_k + b(X_k) dT_k + sigma(X_k) dB_k with
    dB = sqrt(dT) xi.  jumps = (times, ((s, w), ...), jump_rng) splits a single
    path's step (times[k], times[k+1]] at the state-jump epochs s inside it:
    Euler pieces with noise from jump_rng, and a jump G(X_s-, w) at each s,
    G = model.jumps.state_jump_map.  Returns X and the jump log ((s, G), ...).
    """
    M = len(dT)
    X = np.empty((n_paths, M + 1))
    X[:, 0] = _x0_sampler(model, rng, n_paths)
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
):
    """Euler-Maruyama ensemble: Y (n_paths, M+1) and Z = int h(Y) dt + W (n_paths, M+1, m).

    Row i of every noise array belongs to path i; the observation noise is
    drawn after the state noise.  Returns (times, Y, Z).
    """
    times = _uniform_times(horizon, step)
    M = len(times) - 1
    rng = _rng(seed)
    Y, _ = _euler_maruyama(model, np.full(M, step), rng, n_paths)
    m_obs = model.h_matrix(np.zeros(1)).shape[1]
    dW = np.sqrt(step) * rng.standard_normal((n_paths, M, m_obs))
    # Z_{k+1} = (Z_k + h(Y_k) step) + dW_k: one cumsum over the interleaved
    # pairs (h(Y_k) step, dW_k) adds in that order, and its odd entries are Z
    pairs = np.empty((n_paths, 2 * M, m_obs))
    pairs[:, 0::2] = model.h_matrix(Y[:, :M].ravel()).reshape(n_paths, M, m_obs) * step
    pairs[:, 1::2] = dW
    np.cumsum(pairs, axis=1, out=pairs)
    Z = np.zeros((n_paths, M + 1, m_obs))
    Z[:, 1:] = pairs[:, 1::2]
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
    return (
        StatePath(times=T.times, values=Y.at(T.values)),
        ObservationRecord(times=T.times, values=Z.at(T.values)),
    )


def simulate_time_changed_state_direct(model: ModelSpec, T: InversePath, seed) -> StatePath:
    """Direct discretization of dX = b(X) dT + sigma(X) N(0, dT).

    Independent construction of the same law as composing the classical path with
    T; flat stretches of T produce exactly constant stretches of X.
    """
    X, _ = _euler_maruyama(model, T.increments, _rng(seed))
    return StatePath(times=T.times, values=X[0])


# ---------------------------------------------------------------------------
# the weighted-particle loop and the Kallianpur-Striebel estimate
# ---------------------------------------------------------------------------

# normals per block that the particle loop's worker draws ahead (1 MB); large
# enough that one handoff per block costs little against the draw it overlaps
_NOISE_BLOCK = 2 ** 17


@dataclass(frozen=True)
class KSEstimate:
    """Weighted-particle posterior estimate of E[f(Y_t) | observations up to t]."""

    times: np.ndarray
    values: np.ndarray
    ess: np.ndarray                       # effective sample size per step
    weight_collapse: bool                 # flagged when min ESS < 2
    posterior_sd: np.ndarray              # delta-method standard error of values


def _weighted_particles(model: ModelSpec, record: ObservationRecord, dT, f, n_particles: int,
                        seed, test_functions=()):
    """The weighted-particle loop behind both particle filters.

    Particles follow the state equation under the reference measure on the
    clock increments dT and carry their log-likelihood against the record's
    observation increments dZ (M, m) and marked events,

        log Lambda_t = sum_k [h(X_k) . dZ_k - 0.5 |h(X_k)|^2 dT_k]
                       + sum_k sum_w nu_tot p_w (1 - lam(t_k, X_k, w)) dT_k
                       + sum_{events s <= t} ln lam(s, X_k(s), w),

    every term taken at the left node, k(s) the left node of the interval
    holding the event.  The two event sums are on when model.jumps is an
    observation-jump channel with intensity > 0; a record with events and no
    such channel raises ValueError.  A particle with lam = 0 at an event gets
    weight 0.  The state moves by drift and diffusion only, so a model whose
    state-jump channel has intensity > 0 raises ValueError.

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

    The noise comes from the one Philox stream, after the initial states: step
    k takes the next n_particles normals.  They come in (S, n_particles) blocks,
    S = max(1, _NOISE_BLOCK // n_particles), that fill sequentially from the
    stream.  This thread draws block 0, and a worker thread draws each later
    block while this thread weights the one before (a pool starts its thread at
    the first submit, so a record of one block starts none); the worker is
    joined before the function returns or raises.
    Memory is O(n_particles) (at most two blocks alive), and a run on the first
    k steps of a record gives the first k + 1 outputs of the full run bit for bit.

    A step works in place: the state and the log-weights are updated where
    they are, and every product goes into a few n-vectors allocated once, in
    the operation order of the expressions above, so no array that a model
    callable, f or g returned is written (any may return the state itself).
    |h|^2 is one einsum, the sum of the plain expression for one or two
    observation channels.  A rate multiplier that is negative or NaN raises.

    Returns the per-node posterior mean of f, its delta-method standard error,
    the ESS and the log mean raw weight, plus one {residual, se} dict per triple.
    """
    if n_particles < 100:
        raise ValueError("use at least 100 particles")
    jumps = model.jumps
    live = jumps is not None and jumps.intensity > 0.0
    if live and jumps.state_jump_map is not None:
        raise ValueError("the particle filters move particles by drift and diffusion only; "
                         "filter a state-jump model with solve_fractional_zakai")
    rated = live and jumps.obs_rate is not None
    if record.events and not rated:
        raise ValueError("the record has marked events but the model has no observation jump "
                         "specification with intensity > 0")
    times = record.times
    M = len(dT)
    dZ = np.asarray(record.increments, dtype=float).reshape(M, -1)
    ev_at = [[] for _ in range(M)]
    for (se, w) in record.events:      # in [times[0], times[-1]]; times[0] is in step 0
        ev_at[max(int(np.searchsorted(times, se, side="left")) - 1, 0)].append((se, w))

    rng = _rng(seed)
    y = _x0_sampler(model, rng, n_particles)
    logw = np.zeros(n_particles)
    est, sd, ess, log_mean_w = (np.empty(M + 1) for _ in range(4))
    # per test function: g(X_0) plus the running sum of the right-hand terms
    rhs = [np.array(g(y), dtype=float) for g, _, _ in test_functions]
    qv_var = np.zeros(len(test_functions))
    # the loop's own n-vectors, which every product goes into (see above)
    wts, hdz, hh, t1, t2 = (np.empty(n_particles) for _ in range(5))
    L = np.empty(n_particles) if test_functions else None
    gL = [np.empty(n_particles) for _ in test_functions]
    sqrt_dT = np.sqrt(dT)

    def summarize(k):
        top = logw.max()
        np.subtract(logw, top, out=wts)
        np.exp(wts, out=wts)
        wsum = wts.sum()
        fy = np.asarray(f(y), dtype=float)
        np.multiply(wts, fy, out=t1)
        mean = float(t1.sum() / wsum)
        est[k] = mean
        # delta-method SE of the self-normalized estimator
        np.divide(wts, wsum, out=t1)
        np.square(t1, out=t1)
        np.subtract(fy, mean, out=t2)
        np.square(t2, out=t2)
        np.multiply(t1, t2, out=t1)
        sd[k] = float(np.sqrt(t1.sum()))
        np.square(wts, out=t1)
        ess[k] = float(wsum ** 2 / t1.sum())
        log_mean_w[k] = top + np.log(wsum / n_particles)

    summarize(0)
    S = max(1, _NOISE_BLOCK // n_particles)

    def draw(k):
        """The normals of steps k .. min(k + S, M) - 1, one row per step."""
        return rng.standard_normal((min(S, M - k), n_particles))

    noise = draw(0)
    with ThreadPoolExecutor(max_workers=1) as pool:
        for k in range(M):
            if k % S == 0:
                if k:
                    noise = pending.result()
                if k + S < M:
                    pending = pool.submit(draw, k + S)
            dt = dT[k]
            h = model.h_matrix(y)
            np.dot(h, dZ[k], out=hdz)
            np.einsum("ij,ij->i", h, h, out=hh)
            b, s = model.drift(y), model.sigma(y)
            if test_functions:
                np.exp(logw, out=L)
            for i, (g, g1, g2) in enumerate(test_functions):
                gl = gL[i]
                np.multiply(np.asarray(g(y), dtype=float), L, out=gl)
                # (A g) L dT + h g L dZ, with (A g) = 0.5 s^2 g'' + b g'
                np.square(s, out=t1)
                t1 *= 0.5
                t1 *= np.asarray(g2(y), dtype=float)
                np.multiply(b, np.asarray(g1(y), dtype=float), out=t2)
                t1 += t2
                t1 *= L
                t1 *= dt
                np.multiply(hdz, gl, out=t2)
                t1 += t2
                rhs[i] += t1
                np.multiply(hh, gl, out=t2)
                c = 0.5 * float(t2.sum() / n_particles)
                qv_var[i] += c * c * 2.0 * dt ** 2
            # logw + h . dZ - 0.5 |h|^2 dT
            np.multiply(0.5, hh, out=t1)
            t1 *= dt
            logw += hdz
            logw -= t1
            if rated:
                for mark, p in jumps.atoms:
                    lam = np.asarray(jumps.obs_rate(times[k], y, mark), dtype=float)
                    if not lam.min() >= 0.0:
                        raise ValueError("rate multiplier must stay nonnegative")
                    rate = jumps.intensity * p
                    np.subtract(1.0, lam, out=t1)
                    t1 *= rate
                    t1 *= dt
                    logw += t1
                    for r, gl in zip(rhs, gL):
                        np.subtract(lam, 1.0, out=t2)
                        t2 *= rate
                        t2 *= gl
                        t2 *= dt
                        r -= t2
                for (se, mark) in ev_at[k]:
                    lam = np.asarray(jumps.obs_rate(se, y, mark), dtype=float)
                    if not lam.min() >= 0.0:
                        raise ValueError(f"rate multiplier lam < 0 at event ({se}, {mark}); "
                                         "log undefined")
                    # a particle with lam = 0 cannot have produced the event: weight 0
                    logw += np.log(lam, out=np.full_like(lam, -np.inf), where=lam > 0.0)
                    if np.all(logw == -np.inf):
                        raise ValueError(f"no particle with weight has lam > 0 at event "
                                         f"({se}, {mark}); log undefined")
                    for r, gl in zip(rhs, gL):
                        r += (lam - 1.0) * gl
            # y + b dT + s sqrt(dT) xi
            np.multiply(b, dt, out=t1)
            np.multiply(s, sqrt_dT[k], out=t2)
            t2 *= noise[k % S]
            y += t1
            y += t2
            summarize(k + 1)

    residuals = []
    for (g, _, _), r, qv in zip(test_functions, rhs, qv_var):
        R = np.asarray(g(y), dtype=float) * np.exp(logw) - r
        se_particles = float(R.std(ddof=1) / np.sqrt(n_particles))
        residuals.append({"residual": float(R.mean()),
                          "se": float(np.sqrt(se_particles ** 2 + qv))})
    return est, sd, ess, log_mean_w, tuple(residuals)


def kallianpur_striebel_estimate(model: ModelSpec, observed: ObservationRecord, f,
                                 n_particles: int, seed) -> KSEstimate:
    """Reference-measure particle estimate sum_i f(Y^i) L^i / sum_i L^i per step.

    The weighted-particle filter of levy_ext.fractional_filter_jump_obs on the
    identity clock T_t = t, against the GIVEN record: marked-event terms
    included when the model's observation-jump channel has intensity > 0, and
    a state-jump channel that fires rejected.  Weight collapse (ESS < 2) is
    flagged, not fatal.
    """
    dT = np.full(len(observed.times) - 1, observed.step)
    est, sd, ess, _, _ = _weighted_particles(model, observed, dT, f, n_particles, seed)
    return KSEstimate(times=observed.times, values=est, ess=ess,
                      weight_collapse=bool(np.min(ess) < 2.0), posterior_sd=sd)

"""Finite-activity (compound-Poisson) jump filtering: state-jump and marked
observation-jump simulation, and the particle form of the fractional filter
driven by a jump observation.

Only finite atom lists are supported, so the small-jump compensated integral
of the general Levy calculus vanishes identically and every estimator has a
Monte-Carlo oracle.  State-jump models need no solver of their own:
zakai_fractional.solve_fractional_zakai extends the adjoint by the discrete
transpose of the jump generator, and zakai_classical.solve_zakai is that solver
on the identity clock.  A state-jump path is an sde_sim.StatePath with a jump
log, stepped by sde_sim's one Euler-Maruyama loop with its jump-epoch sub-step
switched on.  A jump observation is an sde_sim.ObservationRecord with events.
fractional_filter_jump_obs is sde_sim's weighted-particle loop (the one
implementation of the likelihood) on the clock T, for any observation model;
the Kallianpur-Striebel estimate is that loop on the identity clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .models import ModelSpec
from .sde_sim import (ObservationRecord, StatePath, _euler_maruyama, _uniform_times,
                      _weighted_particles)
from .subordinator import InversePath, _rng

__all__ = [
    "simulate_jump_state",
    "simulate_jump_observation",
    "fractional_filter_jump_obs",
    "JumpFilterResult",
]


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------

def simulate_jump_state(model: ModelSpec, horizon: float, step: float, seed) -> StatePath:
    """Euler-Maruyama between exponentially spaced jump epochs of rate lam0.

    The epochs cover the whole grid, which ends at step * round(horizon / step).

    Diffusion noise comes from stream 0 with the same draw pattern as the
    classical simulator, jump randomness from stream 1; with lam0 = 0 the
    output therefore matches the jump-free state path for the same seed.
    At each epoch the state jumps by G(X-, w) with w drawn from the atoms;
    the jumps are logged in the path's jump_log.
    """
    jumps = model.jumps
    if jumps is None or jumps.state_jump_map is None:
        raise ValueError("model carries no state jump specification")
    times = _uniform_times(horizon, step)
    jrng = _rng(seed, stream=1)
    n_jumps = jrng.poisson(jumps.intensity * times[-1])
    epochs = np.sort(jrng.uniform(0.0, times[-1], n_jumps))
    marks = jrng.choice(jumps.marks, size=n_jumps, p=jumps.probabilities)
    X, log = _euler_maruyama(model, np.full(len(times) - 1, step), _rng(seed),
                             jumps=(times, list(zip(epochs, marks)), jrng))
    return StatePath(times=times, values=X[0], jump_log=log)


def simulate_jump_observation(
    model: ModelSpec,
    X: StatePath,
    T: InversePath,
    seed,
) -> ObservationRecord:
    """Observation with jumps on the real-time grid of T.

    Continuous part dHc = h(X) dT + dW_T.  Marked events have compensator
    lam(t, X_t, w) dT_t nu(dw), realized per step as a Poisson draw with the
    rate frozen at the left node (first-order in the step) and the events
    placed uniformly in the step; a tie (about 1e-13 per pair) raises.
    """
    jumps = model.jumps
    if jumps is None or jumps.obs_rate is None:
        raise ValueError("model carries no observation jump specification")
    times = T.times
    dT = T.increments
    M = len(dT)
    rng = _rng(seed, stream=2)
    xs = X.at(times)
    h = model.h_matrix(xs[:-1])
    if h.shape[1] != 1:
        raise ValueError("jump observations are scalar-continuous-part only")
    dW = np.sqrt(np.maximum(dT, 0.0)) * rng.standard_normal(M)
    vals = np.concatenate(([0.0], np.cumsum(h[:, 0] * dT + dW)))

    nu_tot = jumps.intensity
    events = []
    if nu_tot > 0.0:
        for k in range(M):
            if dT[k] <= 0.0:
                continue
            for w, p in jumps.atoms:
                lam_eff = float(np.asarray(jumps.obs_rate(times[k], xs[k], w)))
                if lam_eff < 0.0:
                    raise ValueError("observation rate multiplier must be nonnegative")
                n_ev = rng.poisson(nu_tot * p * lam_eff * dT[k])
                for _ in range(n_ev):
                    events.append((float(times[k] + rng.uniform(0.0, times[k + 1] - times[k])), float(w)))
    events.sort()
    return ObservationRecord(times=times.copy(), values=vals, events=tuple(events))


# ---------------------------------------------------------------------------
# particle filter with observation jumps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpFilterResult:
    """Particle filter output for the jump-observation fractional filtering problem."""

    times: np.ndarray
    posterior: np.ndarray          # normalized E[f(X_t) | observations]
    unnormalized: np.ndarray       # phi_t(f) estimates (reference-measure averages)
    ess: np.ndarray
    weight_collapse: bool
    residuals: tuple               # per test function: dict(residual, se)


def fractional_filter_jump_obs(
    model: ModelSpec,
    T: InversePath,
    obs: ObservationRecord,
    f: Callable[[np.ndarray], np.ndarray],
    n_particles: int,
    seed,
    residual_test_functions: Sequence[tuple] = (),
) -> JumpFilterResult:
    """Weighted-particle filter phi_t(f) = E_ref[f(X_t) L_{T_t} | observations].

    Particles follow the time-changed state equation under the reference measure
    with the SHARED clock T; weights are the observation likelihoods along the
    time-changed clock, marked-event terms included when the model's
    observation-jump channel has intensity > 0.  obs must live on T.times, whose grid T checks.
    residual_test_functions is a sequence of (f, f', f'') triples; for each,
    the filter equation is evaluated residually at the final time with every
    term estimated from the same particle cloud, and the per-particle residual
    mean and standard error are reported.  A record with events and no live
    observation-jump channel raises, and so does a state-jump channel that fires.
    """
    if not np.array_equal(obs.times, T.times):
        raise ValueError("the observation record must live on the clock's real-time grid T.times")
    post, _, ess, log_mean_w, residuals = _weighted_particles(
        model, obs, T.increments, f, n_particles, seed, residual_test_functions)
    return JumpFilterResult(
        times=T.times.copy(),
        posterior=post,
        unnormalized=post * np.exp(log_mean_w),
        ess=ess,
        weight_collapse=bool(np.min(ess) < 2.0),
        residuals=residuals,
    )

"""Grid solver for the classical (adjoint) Zakai equation, plus linear-Gaussian references.

The classical filter is the fractional one on the identity clock T_t = t, so
`solve_zakai` runs the one Crank-Nicolson stepper of `zakai_fractional` on that
clock.  One step is Lie splitting: an implicit Crank-Nicolson sweep of
dU = A* U dt followed by the multiplicative observation update
U <- U exp(sum_k h_k(x) dZ_k - 0.5 |h(x)|^2 dt).  The adjoint matrix has zero
column sums, so with h = 0 the discrete mass sum(U) dx is conserved exactly.
"""

from __future__ import annotations

import numpy as np

from .models import ModelSpec, SpatialGrid
from .sde_sim import ObservationRecord
from .subordinator import InversePath
from .zakai_fractional import FilterDensityGrid, _solve_clock
# not called here; perfbench's tracer patches these names on this module
from .models import adjoint_matrix

__all__ = [
    "FilterDensityGrid",
    "solve_zakai",
    "normalize",
    "grid_moments",
    "kalman_bucy_reference",
]


def solve_zakai(
    model: ModelSpec,
    grid: SpatialGrid,
    obs: ObservationRecord,
) -> FilterDensityGrid:
    """March the adjoint Zakai equation along the supplied observation path.

    obs must live on a uniform time grid starting at 0; its values are
    consumed verbatim (the solver is a deterministic map from the observation
    path).  Steps longer than the stepper's chunk limit of 0.02 are split into
    equal Crank-Nicolson chunks.  Small CN undershoots are clamped to zero and
    the removed mass is accumulated in the diagnostics.  Requires a jump-free
    state model.
    """
    if model.jumps is not None and model.jumps.state_jump_map is not None:
        raise ValueError("solve_zakai handles diffusion state models only")
    model.validate_on_grid(grid)
    if not np.allclose(np.diff(obs.times), obs.step):
        raise ValueError("observation must live on a uniform time grid")
    identity = InversePath(times=obs.times, values=obs.times)
    return _solve_clock(model, grid, identity, obs)


def normalize(U: FilterDensityGrid, t: float) -> tuple[np.ndarray, float]:
    """Posterior density at time t: profile divided by its grid integral.

    Returns (density, normalizer); raises when the mass has vanished.
    """
    prof = U.at_time(t)
    mass = U.grid.integrate(prof)
    if mass <= 0.0:
        raise ValueError(f"filter mass vanished at t = {t}")
    return prof / mass, float(mass)


def grid_moments(grid: SpatialGrid, density: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a normalized density on the grid."""
    w = density * grid.spacing
    m = float(np.sum(w * grid.nodes))
    v = float(np.sum(w * (grid.nodes - m) ** 2))
    return m, v


def kalman_bucy_reference(
    a: float,
    sigma: float,
    c: float,
    obs: ObservationRecord,
    m0: float = 0.0,
    p0: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact linear-Gaussian filter for dY = a Y dt + sigma dB, dZ = c Y dt + dW.

    The deterministic error variance solves the Riccati equation
    dP/dt = 2 a P + sigma^2 - c^2 P^2 (integrated with classical RK4); the
    conditional mean follows dm = a m dt + P c (dZ - c m dt) with the observed
    increments (Euler).  Returns (mean path, variance path) on the obs grid.
    """
    dZ = obs.increments
    if dZ.ndim > 1:
        if dZ.shape[1] != 1:
            raise ValueError("kalman_bucy_reference is scalar-observation only")
        dZ = dZ[:, 0]
    dt = obs.step
    M = len(dZ)
    mpath = np.empty(M + 1)
    P = np.empty(M + 1)
    mpath[0], P[0] = m0, p0

    def ric(p):
        return 2.0 * a * p + sigma ** 2 - c ** 2 * p ** 2

    for k in range(M):
        p = P[k]
        k1 = ric(p)
        k2 = ric(p + 0.5 * dt * k1)
        k3 = ric(p + 0.5 * dt * k2)
        k4 = ric(p + dt * k3)
        P[k + 1] = p + dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
        m = mpath[k]
        mpath[k + 1] = m + a * m * dt + P[k] * c * (dZ[k] - c * m * dt)
    return mpath, P

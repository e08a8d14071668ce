"""Grid solver for the classical (adjoint) Zakai equation, plus linear-Gaussian references.

One step of the solver is Lie splitting: an implicit Crank-Nicolson sweep of
dU = A* U dt followed by the multiplicative observation update
U <- U exp(sum_k h_k(x) dZ_k - 0.5 |h(x)|^2 dt).  The adjoint matrix has zero
column sums, so with h = 0 the discrete mass sum(U) dx is conserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .models import ModelSpec, SpatialGrid, adjoint_matrix
from .sde_sim import ObservationRecord

__all__ = [
    "FilterDensityGrid",
    "solve_zakai",
    "normalize",
    "grid_moments",
    "kalman_bucy_reference",
]


@dataclass(frozen=True)
class FilterDensityGrid:
    """Unnormalized filtering density U(t_k, x_j) >= 0 on grid x time grid."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray               # (n_times, n_nodes)
    clamped_mass: float = 0.0        # total negative mass removed by clamping

    def at_time(self, t: float) -> np.ndarray:
        """Linear time interpolation of the density profile."""
        t = float(t)
        times = self.times
        if t <= times[0]:
            return self.values[0].copy()
        if t >= times[-1]:
            return self.values[-1].copy()
        k = int(np.searchsorted(times, t) - 1)
        w = (t - times[k]) / (times[k + 1] - times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def mass(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.spacing


def solve_zakai(
    model: ModelSpec,
    grid: SpatialGrid,
    obs: ObservationRecord,
) -> FilterDensityGrid:
    """March the adjoint Zakai equation along the supplied observation path.

    obs must live on a uniform time grid; its increments are consumed verbatim
    (the solver is a deterministic map from the observation path).  The
    diffusion step is Crank-Nicolson; small CN undershoots are clamped to zero
    and the removed mass is accumulated in the diagnostics.  Requires a
    jump-free state model.
    """
    if model.jumps is not None and model.jumps.state_jump_map is not None:
        raise ValueError("solve_zakai handles diffusion state models only")
    model.validate_on_grid(grid)
    if not np.allclose(np.diff(obs.times), obs.step):
        raise ValueError("observation must live on a uniform time grid")
    x = grid.nodes
    dt = obs.step
    dZ = obs.increments
    if dZ.ndim == 1:
        dZ = dZ[:, None]
    M = dZ.shape[0]

    A = adjoint_matrix(model, grid)
    n = grid.n_nodes
    eye = sp.identity(n, format="csc")
    lhs = spla.splu((eye - 0.5 * dt * A).tocsc())
    rhs = (eye + 0.5 * dt * A).tocsr()

    h = model.h_matrix(x)                       # (n, m)
    hsq = 0.5 * np.sum(h * h, axis=1) * dt

    U = np.empty((M + 1, n))
    U[0] = np.maximum(np.asarray(model.p0(x), dtype=float), 0.0)
    clamped = 0.0
    for k in range(M):
        u = lhs.solve(rhs @ U[k])
        neg = u < 0.0
        if neg.any():
            clamped += float(-u[neg].sum() * grid.spacing)
            u[neg] = 0.0
        U[k + 1] = u * np.exp(h @ dZ[k] - hsq)
    return FilterDensityGrid(grid=grid, times=obs.times.copy(), values=U, clamped_mass=clamped)


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

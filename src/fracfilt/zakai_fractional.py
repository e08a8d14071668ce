"""Solver for the fractional Zakai equation, the one Crank-Nicolson stepper, and
the subordination cross-checks.

Two discretizations of the same filtering object are provided, selected by the
``memory`` argument of :func:`solve_fractional_zakai`:

``clock`` (default)
    Pathwise semantics.  Conditionally on the realized inverse-subordinator
    path, the solution is the classical one run on the random clock, so the
    equation reduces to d Phi = A* Phi dT_t + h Phi dV_t with V = Z o T.  Each
    real-time step applies Crank-Nicolson over the clock increment dT (split
    into operational chunks of at most 0.02), each chunk followed by the
    multiplicative observation factor exp(h dV - 0.5 |h|^2 dT).  Each chunk
    is one LAPACK dgtsv call on the tridiagonal stencil of
    ``models.adjoint_diagonals``, with the observation factors and
    tridiagonals computed for a block of chunks at a time.  The classical solver
    ``zakai_classical.solve_zakai`` is this stepper on the identity clock
    T_t = t, and the pathwise oracle compares the two.

``kernel``
    Expectation semantics.  The memory term is the deterministic fractional
    integral J^beta of the stored A* Phi history (product-trapezoidal weights,
    fully explicit with the endpoint sample extrapolated), and the observation
    term is the accumulated left-point sum of h Phi dV.  The weights depend
    on the lag only and are built once.  The history stored before a block
    of _HISTORY_BLOCK steps enters the block by one FFT convolution per node
    (fraccalc._lag_convolution, as in fractional_integral), and each step
    adds only the rows of its own block, so M steps on n nodes cost
    O((M/B) M log M n + M B n) rather than O(M^2 n).  With h = 0 this
    marches the time-fractional Fokker-Planck equation, whose solution is the
    g-weighted subordination average of the classical flow; it is the beta -> 1
    classical-limit surrogate.  Explicit stepping imposes the restriction
    dt**beta * ||A*|| <= z(beta); thresholds were measured on the scalar
    recursion and are enforced with a safety margin.  The admissible step
    therefore collapses like (z/||A*||)**(1/beta): small indices need coarse
    spatial grids to stay at desk scale.

The two modes agree in distribution: averaging clock-mode solutions over
independent T paths converges at Monte-Carlo rate to the kernel-mode /
quadrature-subordination profile (observation-free case).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv as _dgtsv
from scipy.special import gamma as _gamma

from .fraccalc import _lag_convolution, trapezoid_weights
from .models import ModelSpec, SpatialGrid, adjoint_diagonals, adjoint_matrix, jump_generator_matrix
from .sde_sim import ObservationRecord, _uniform_times
from .subordinator import InversePath, inverse_density_grid, tail_bound, tau_cutoff, unit_slope_inverse

__all__ = [
    "FilterDensityGrid",
    "stable_step",
    "solve_fractional_zakai",
    "subordinate_filter",
    "quadrature_and_kernel",
    "pathwise_oracle_report",
    "l1_distance",
]

# measured stability thresholds z*(beta) = sup |lambda| dt^beta of the explicit
# history recursion (scalar test equation, trapezoidal weights with
# extrapolated endpoint); enforced with the safety factor below
_Z_TABLE_BETA = np.array([0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1.00])
_Z_TABLE_VAL = np.array([0.93, 0.913, 0.889, 0.877, 0.875, 0.883, 0.899, 0.925, 0.959, 0.980, 0.999, 1.003])
_Z_SAFETY = 0.7

# longest operational time one Crank-Nicolson chunk of clock mode covers
_DTAU_MAX = 0.02

# chunks whose observation factors and diagonals clock mode computes at once
_CHUNK_BLOCK = 256

# kernel-mode steps whose earlier history one FFT convolution covers
_HISTORY_BLOCK = 1024

# longest real-time grid whose history solve_fractional_zakai accepts
_MAX_STEPS = 400_000

# largest g_t weight mass beyond the stored horizon that subordinate_filter accepts
_TAIL_TOL = 1e-6


@dataclass(frozen=True)
class FilterDensityGrid:
    """Unnormalized filtering density U(t_k, x_j) >= 0 on grid x time grid."""

    grid: SpatialGrid
    times: np.ndarray
    values: np.ndarray               # (n_times, n_nodes)
    clamped_mass: float = 0.0        # total negative mass removed by clamping

    def at_time(self, t: float) -> np.ndarray:
        """Linear time interpolation of the density profile.

        Raises when t lies outside the stored times by more than 1e-9 of a
        step; that slack keeps end-of-grid queries working when the last
        stored time rounds one ulp short of the requested horizon.
        """
        t = float(t)
        times = self.times
        slack = 1e-9 * (times[-1] - times[0]) / max(len(times) - 1, 1)
        if not times[0] - slack <= t <= times[-1] + slack:
            raise ValueError(
                f"t = {t} lies outside the stored times [{times[0]}, {times[-1]}]"
            )
        if t <= times[0]:
            return self.values[0].copy()
        if t >= times[-1]:
            return self.values[-1].copy()
        k = int(np.searchsorted(times, t) - 1)
        w = (t - times[k]) / (times[k + 1] - times[k])
        return (1.0 - w) * self.values[k] + w * self.values[k + 1]

    def mass(self) -> np.ndarray:
        return self.values.sum(axis=1) * self.grid.spacing


def _spectral_bound(A: sp.spmatrix) -> float:
    """Gershgorin bound on |lambda| for the adjoint matrix: max absolute row sum."""
    return float(np.max(np.abs(A).sum(axis=1)))


def stable_step(beta: float, A: sp.spmatrix) -> float:
    """Largest admissible dt for the explicit kernel-mode stepping with operator A."""
    z = _Z_SAFETY * float(np.interp(beta, _Z_TABLE_BETA, _Z_TABLE_VAL))
    mu = _spectral_bound(A)
    if mu == 0.0:
        return np.inf
    return (z / mu) ** (1.0 / beta)


def solve_fractional_zakai(
    model: ModelSpec,
    grid: SpatialGrid,
    T: InversePath,
    obs_operational: ObservationRecord,
    memory: str = "clock",
) -> FilterDensityGrid:
    """Advance the fractional Zakai equation on the real-time grid of T.

    obs_operational is the classical observation Z on the operational grid; the
    driving increments are dV_k = Z(T(t_{k+1})) - Z(T(t_k)), always interpolated
    from the given record (never resampled).  See the module docstring for the
    two memory semantics.  Raises when Z does not cover max(T), when the
    history would exceed _MAX_STEPS, or (kernel mode) when the time step
    violates the explicit stability bound.
    """
    model.validate_on_grid(grid)
    times = T.times
    dt = T.step
    if not np.allclose(np.diff(times), dt):
        raise ValueError("the clock must live on a uniform real-time grid")
    if float(np.max(T.values)) > obs_operational.times[-1] + 1e-12:
        raise ValueError("operational observation does not cover max(T); simulate Z further")
    M = len(times) - 1
    if M > _MAX_STEPS:
        raise ValueError(f"history buffer would need {M} steps (> {_MAX_STEPS})")
    if memory not in ("clock", "kernel"):
        raise ValueError(f"unknown memory mode {memory!r}")

    if memory == "clock":
        return _solve_clock(model, grid, T, obs_operational)
    return _solve_kernel(model, grid, T, obs_operational)


# keeps scipy's name and is called through the module: the benchmark counts CN chunks by it
def solve_banded(dl, d, du, b):
    """Solve the tridiagonal system (dl, d, du) x = b with one LAPACK dgtsv call.

    dl, d and du are overwritten with the factorization; b is left as it is.
    Raises LinAlgError for a singular matrix, as scipy.linalg.solve_banded does.
    """
    x, info = _dgtsv(dl, d, du, b, 1, 1, 1, 0)[3:]
    if info > 0:
        raise LinAlgError("singular matrix")
    return x


def _solve_clock(model, grid, T, obs):
    """Crank-Nicolson along the clock T, the one stepper of every grid Zakai solve.

    Real-time step k covers dT_k in ceil(dT_k / _DTAU_MAX) equal chunks (none on
    a plateau).  A chunk of operational length d maps u to
    2 (I - d/2 A)^-1 (u + d/2 A_J u) - u, which is (I - d/2 A)^-1 (I + d/2 A) u
    plus the explicit step of the bounded state-jump operator A_J, and then
    multiplies by exp(h dV - 0.5 |h|^2 d).  A is the tridiagonal stencil of
    adjoint_diagonals, and each chunk is one LAPACK dgtsv call.  The
    observation factors and the diagonals of I - d/2 A are computed for
    _CHUNK_BLOCK chunks at a time, so the working memory does not grow with
    the number of chunks.  Negative undershoots are clamped to zero after each
    real-time step.
    """
    x = grid.nodes
    n = grid.n_nodes
    h = model.h_matrix(x)
    hsq = 0.5 * np.sum(h * h, axis=1)

    lower, main, upper = adjoint_diagonals(model, grid)
    has_jumps = model.jumps is not None and model.jumps.state_jump_map is not None \
        and model.jumps.intensity > 0.0
    if has_jumps:
        A_jump = jump_generator_matrix(model, grid).T.tocsr()

    # every chunk of the solve at once: step k owns chunks first[k]:first[k + 1],
    # whose edges are the points of linspace(T_k, T_{k+1}, n_sub[k] + 1); the
    # 1e-9 keeps a step that rounds a few ulp above a multiple of _DTAU_MAX
    # (0.06 - 0.04, say) from taking one extra chunk
    dtau = np.diff(T.values)
    n_sub = np.where(dtau > 0.0, np.maximum(np.ceil(dtau / _DTAU_MAX - 1e-9), 1.0), 0.0)
    n_sub = n_sub.astype(int)
    first = np.concatenate(([0], np.cumsum(n_sub)))
    owner = np.repeat(np.arange(dtau.size), n_sub)
    j = np.arange(first[-1]) - first[owner]
    edges = np.append(T.values[owner] + j * (dtau / np.maximum(n_sub, 1))[owner], T.values[-1])
    delta = np.diff(edges)
    dV = np.diff(obs.at(edges), axis=0).reshape(delta.size, -1)

    def block(c):
        """Observation factors and the diagonals of I - d/2 A for chunks
        c:c + _CHUNK_BLOCK, one row per chunk."""
        d = delta[c:c + _CHUNK_BLOCK, None]
        factor = dV[c:c + _CHUNK_BLOCK] @ h.T
        factor -= hsq * d
        np.exp(factor, out=factor)
        s = 0.5 * d                          # 0.0 - x keeps +0.0 where A has a zero entry
        return factor, 0.0 - s * lower, 1.0 - s * main, 0.0 - s * upper

    u = np.maximum(np.asarray(model.p0(x), dtype=float), 0.0)
    Phi = np.empty((len(T.times), n))
    Phi[0] = u
    clamped = 0.0
    for k in range(dtau.size):
        for c in range(first[k], first[k + 1]):
            i = c % _CHUNK_BLOCK
            if i == 0:
                factor = dl = dd = du = None        # one block alive at a time
                factor, dl, dd, du = block(c)
            rhs = u + (0.5 * delta[c]) * (A_jump @ u) if has_jumps else u
            v = solve_banded(dl[i], dd[i], du[i], rhs)
            v *= 2.0
            v -= u
            v *= factor[i]
            u = v
        neg = u < 0.0
        if neg.any():
            clamped += float(-u[neg].sum() * grid.spacing)
            u[neg] = 0.0
        Phi[k + 1] = u
    return FilterDensityGrid(grid=grid, times=T.times.copy(), values=Phi, clamped_mass=clamped)


def _solve_kernel(model, grid, T, obs):
    """Explicit product-trapezoid march of the memory form of the equation.

    Phi_{k+1} = p0 + J^beta[A* Phi](t_{k+1}) + sum_{i <= k} (h dV_i) Phi_i, with
    the unknown endpoint sample A* Phi_{k+1} extrapolated by A* Phi_k.  In
    Gamma(beta) J^beta the stored samples hist[j] = A* Phi_j carry weights
    from the arrays P, Q of trapezoid_weights: Q[k] on hist[0], the lag weight
    c[k - j] = Q[k - j] + P[k - j + 1] on hist[j] for 0 < j <= k, and P[0]
    more on hist[k] for the extrapolated endpoint.  The lag weights are built
    once, with no per-step weight array.  For each block of B = _HISTORY_BLOCK
    steps [K, E), the part of the sum over hist[1:K] is one FFT convolution
    per node (fraccalc._lag_convolution, shared with fractional_integral),
    written into the block's rows of Phi; each step then adds the rows of its
    own block with one dot.  A solve of M steps on n nodes costs
    O((M/B) M log M n + M B n) instead of O(M^2 n), and needs O(M) working
    memory beyond Phi and hist.
    """
    beta = model.beta
    times = T.times
    dt = T.step
    M = len(times) - 1
    A = adjoint_matrix(model, grid)
    dt_max = stable_step(beta, A)
    if dt > dt_max:
        raise ValueError(
            f"explicit kernel stepping unstable: dt = {dt:.3g} exceeds the admissible "
            f"{dt_max:.3g} for beta = {beta} on this grid; refine the time grid"
        )
    x = grid.nodes
    n = grid.n_nodes
    h = model.h_matrix(x)
    dV = np.diff(obs.at(T.values), axis=0).reshape(M, -1)

    P, Q = trapezoid_weights(beta, M, dt)
    # lag weights c[0..M - 2], and reversed: c[k - j] for j = J..k is c_rev[M - 2 - k + J:]
    c = Q[:-1] + P[1:]
    c_rev = c[::-1].copy()
    gamma_beta = _gamma(beta)
    p0 = np.maximum(np.asarray(model.p0(x), dtype=float), 0.0)

    Phi = np.empty((M + 1, n))
    Phi[0] = p0
    hist = np.empty((M, n))                    # hist[j] = A* Phi(t_j)
    obs_acc = np.zeros(n)
    clamped = 0.0
    for K in range(0, M, _HISTORY_BLOCK):
        E = min(K + _HISTORY_BLOCK, M)
        # Phi[k + 1] first holds the sum over hist[1:K], then becomes Phi_{k+1}
        # lags k - j run over 1..E - 2, so c[1:E - 1] against hist[1:K] gives
        # the steps k in [K, E) as rows K - 2..E - 3 of that convolution
        _lag_convolution(c[1:E - 1], hist[1:K], K - 2, E - 2, out=Phi[K + 1:E + 1])
        J = max(K, 1)
        for k in range(K, E):
            hist[k] = A @ Phi[k]
            u = Phi[k + 1]
            u += c_rev[M - 2 - k + J:] @ hist[J:k + 1]
            u += Q[k] * hist[0] + P[0] * hist[k]
            u /= gamma_beta
            u += p0
            obs_acc += np.dot(h, dV[k]) * Phi[k]
            u += obs_acc
            neg = u < 0.0
            if neg.any():
                clamped += float(-u[neg].sum() * grid.spacing)
                u[neg] = 0.0
    return FilterDensityGrid(grid=grid, times=times.copy(), values=Phi, clamped_mass=clamped)


# ---------------------------------------------------------------------------
# subordination identity
# ---------------------------------------------------------------------------

def subordinate_filter(
    beta: float,
    t: float,
    classical_solutions,
):
    """Average the classical solution over the inverse-subordinator clock.

    Deterministic case (classical_solutions is one FilterDensityGrid, valid when
    the solution is observation-free): returns integral g_t(tau) U(tau, x) dtau
    by trapezoid over the solution's operational grid, and raises when the
    weight mass beyond the stored horizon exceeds _TAIL_TOL.

    Stochastic case (an iterable of clock-mode solves, each on its own clock):
    returns the ensemble average of their profiles at real time t.
    """
    if isinstance(classical_solutions, FilterDensityGrid):
        U = classical_solutions
        taus = U.times
        g = inverse_density_grid(beta, t, taus)
        covered = np.trapezoid(g, taus)
        tail = max(1.0 - covered, float(tail_bound(beta, t, taus[-1])))
        if tail > _TAIL_TOL:
            raise ValueError(
                f"subordination weights leave {tail:.2e} mass beyond the stored "
                f"operational horizon {taus[-1]:.4g}; solve U on a larger tau range"
            )
        w = g / covered
        mid = 0.5 * (w[1:, None] * U.values[1:] + w[:-1, None] * U.values[:-1])
        return (mid * np.diff(taus)[:, None]).sum(axis=0)

    members = list(classical_solutions)
    if not members:
        raise ValueError("need at least one ensemble member")
    return sum(Phi.at_time(float(t)) for Phi in members) / len(members)


def quadrature_and_kernel(model: ModelSpec, grid: SpatialGrid, t: float, step: float):
    """The observation-free subordination identity at real time t, two ways.

    With h set to 0: the g_t-average (subordinate_filter) of the classical flow
    on a grid of the given step out to tau_cutoff(beta, t, 1e-9), and the
    kernel-mode solve on a unit-slope clock of step min(step, stable_step).
    Returns the h = 0 model, its zero record, the quadrature profile at t and
    the kernel-mode FilterDensityGrid, whose times show the step it ran.
    """
    from .zakai_classical import solve_zakai    # zakai_classical imports this module
    beta = model.beta
    free = replace(model, observation=lambda x: np.zeros_like(np.asanyarray(x, dtype=float)),
                   jumps=None, name=model.name + "/h=0")
    times = _uniform_times(tau_cutoff(beta, t, 1e-9), step)
    zeros = ObservationRecord(times=times, values=np.zeros(len(times)))
    quadrature = subordinate_filter(beta, t, solve_zakai(free, grid, zeros))
    A = adjoint_matrix(free, grid)
    T = unit_slope_inverse(t, min(step, stable_step(beta, A)))
    return free, zeros, quadrature, solve_fractional_zakai(free, grid, T, zeros, memory="kernel")


def l1_distance(grid: SpatialGrid, u: np.ndarray, v: np.ndarray) -> float:
    return float(np.sum(np.abs(u - v)) * grid.spacing)


def pathwise_oracle_report(
    Phi: FilterDensityGrid,
    U: FilterDensityGrid,
    T: InversePath,
    checkpoints: Sequence[float],
) -> list[dict]:
    """Distances between Phi(t, .) and U(T_t, .) built from the same (Z, T) pair.

    Packages the composition identity behind the fractional solution as a
    table of per-checkpoint L1 and sup errors (time-interpolated in both
    solutions).  Raises on mismatched spatial grids.
    """
    if Phi.grid != U.grid:
        raise ValueError("oracle comparison needs both solutions on one spatial grid")
    rows = []
    for t in checkpoints:
        a = Phi.at_time(float(t))
        b = U.at_time(float(T.at(t)))
        rows.append(
            {
                "checkpoint": float(t),
                "tau": float(T.at(t)),
                "l1": l1_distance(Phi.grid, a, b),
                "sup": float(np.max(np.abs(a - b))),
            }
        )
    return rows

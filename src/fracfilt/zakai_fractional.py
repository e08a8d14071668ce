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
    tridiagonals computed for a block of chunks at a time.  One loop walks
    the chunks, and a table of the real-time steps each chunk finishes says
    which rows of the solution it writes.  The classical solver
    ``zakai_classical.solve_zakai`` is this stepper on the identity clock
    T_t = t, and the pathwise oracle compares the two.

``kernel``
    Expectation semantics.  The memory term is the deterministic fractional
    integral J^beta of the stored A* Phi history (product-trapezoidal weights,
    fully explicit with the endpoint sample extrapolated); a step takes the
    memory increment, then clock mode's exact factor exp(h dV - 0.5 |h|^2 dT),
    so an unbounded h needs no finer step than a bounded one.  The weights
    depend on the lag only and are built once, scaled by 1/Gamma(beta), with
    the extrapolated endpoint's weight folded into lag 0.  The history stored
    before a block of _HISTORY_BLOCK steps enters the block by one FFT
    convolution per node (fraccalc._lag_convolution, as in
    fractional_integral), together with the terms no step changes, and each
    step adds only the rows of its own block, so M steps on n nodes cost
    O((M/B) M log M n + M B n) rather than O(M^2 n).  Each step's A* Phi comes
    from the stencil of ``models.adjoint_diagonals`` (plus the state-jump
    matrix for a model with a state jump map); the csr ``adjoint_matrix`` only
    feeds the stability bound.  With h = 0 the factor is exactly 1 and is
    skipped, and this marches the time-fractional Fokker-Planck equation,
    whose solution is the g-weighted subordination average of the classical
    flow; it is the beta -> 1 classical-limit surrogate.  Explicit stepping
    imposes the restriction dt**beta * ||A*|| <= z(beta); thresholds were
    measured on the scalar recursion and are enforced with a safety margin.
    The admissible step therefore collapses like (z/||A*||)**(1/beta): small
    indices need coarse spatial grids to stay at desk scale.

The two modes agree in distribution: averaging clock-mode solutions over
independent T paths converges at Monte-Carlo rate to the kernel-mode /
quadrature-subordination profile (observation-free case).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv as _dgtsv
from scipy.special import gamma as _gamma

from .fraccalc import _lag_convolution, trapezoid_node_weights, trapezoid_weights
from .models import ModelSpec, SpatialGrid, adjoint_diagonals, adjoint_matrix, jump_generator_matrix
from .sde_sim import ObservationRecord, _uniform_times
from .subordinator import (InversePath, inverse_density_grid, tail_bound, tau_cutoff,
                           unit_slope_inverse)

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

# kernel-mode steps whose observation factors and constant terms are computed at once
_SLAB = 64

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
    two memory semantics.  T checks its own grid.  Raises when Z does not cover
    max(T), when the history would exceed _MAX_STEPS, or (kernel mode) when
    the time step violates the explicit stability bound.
    """
    model.validate_on_grid(grid)
    if float(np.max(T.values)) > obs_operational.times[-1] + 1e-12:
        raise ValueError("operational observation does not cover max(T); simulate Z further")
    M = len(T.times) - 1
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


def _jump_adjoint(model, grid):
    """The adjoint of the state-jump generator as csr, or None for a model
    without state jumps."""
    jumps = model.jumps
    if jumps is not None and jumps.state_jump_map is not None and jumps.intensity > 0.0:
        return jump_generator_matrix(model, grid).T.tocsr()
    return None


def _observation_factors(dV, h, hsq, d):
    """exp(h dV - 0.5 |h|^2 d), one row per step of the increments dV and the
    operational lengths d (a column)."""
    factor = dV @ h.T
    factor -= hsq * d
    return np.exp(factor, out=factor)


def _clamp(u, spacing):
    """Set the negative entries of u to zero in place and return the mass they
    held.  u[u.argmin()] < 0.0 decides as a minimum would, NaN and -0.0
    included, at a third of the cost of np.minimum.reduce on a few dozen nodes."""
    if u[u.argmin()] < 0.0:
        neg = u < 0.0
        mass = float(-u[neg].sum() * spacing)
        u[neg] = 0.0
        return mass
    return 0.0


def _solve_clock(model, grid, T, obs):
    """Crank-Nicolson along the clock T, the one stepper of every grid Zakai solve.

    Real-time step k covers dT_k in ceil(dT_k / _DTAU_MAX) equal chunks (none on
    a plateau).  A chunk of operational length d maps u to
    2 (I - d/2 A)^-1 (u + d/2 A_J u) - u, which is (I - d/2 A)^-1 (I + d/2 A) u
    plus the explicit step of the bounded state-jump operator A_J, and then
    multiplies by exp(h dV - 0.5 |h|^2 d).  A is the tridiagonal stencil of
    adjoint_diagonals, and each chunk is one LAPACK dgtsv call on the halved
    system (I - d/2 A) / 2: halving is exact in floating point, so the call
    returns 2 (I - d/2 A)^-1 rhs with no further scaling.  When h = 0 every
    factor is exactly 1 and none is computed or applied, and the record is not
    read.  The observation factors and the diagonals are computed for
    _CHUNK_BLOCK chunks at a time, and only one block is alive at a time, so the
    working memory does not grow with the number of chunks.

    One loop walks the chunks.  A table gives, for each chunk, the number of
    real-time steps finished once it is done; a chunk that finishes steps
    clamps negative undershoots to zero and writes its profile to their rows,
    which covers the plateau steps right after it.  Plateau steps before the
    first chunk (all steps, for a clock that never leaves 0) keep the clamped
    initial density.
    """
    x = grid.nodes
    n = grid.n_nodes
    h = model.h_matrix(x)
    hsq = 0.5 * np.sum(h * h, axis=1)
    observed = bool(np.any(h))

    lower, main, upper = adjoint_diagonals(model, grid)
    A_jump = _jump_adjoint(model, grid)

    # every chunk of the solve at once: step k owns chunks first[k]:first[k + 1],
    # whose edges are the points of linspace(T_k, T_{k+1}, n_sub[k] + 1); the
    # 1e-9 keeps a step that rounds a few ulp above a multiple of _DTAU_MAX
    # (0.06 - 0.04, say) from taking one extra chunk
    dtau = T.increments
    n_sub = np.where(dtau > 0.0, np.maximum(np.ceil(dtau / _DTAU_MAX - 1e-9), 1.0), 0.0)
    n_sub = n_sub.astype(int)
    first = np.concatenate(([0], np.cumsum(n_sub)))
    owner = np.repeat(np.arange(dtau.size), n_sub)
    j = np.arange(first[-1]) - first[owner]
    edges = np.append(T.values[owner] + j * (dtau / np.maximum(n_sub, 1))[owner], T.values[-1])
    delta = np.diff(edges)
    dV = np.diff(obs.at(edges), axis=0).reshape(delta.size, h.shape[1]) if observed else None
    # last[c]: the real-time steps finished once chunk c is done
    last = np.searchsorted(first[1:], np.arange(1, delta.size + 1), side="right")

    def block(c):
        """The rows of chunks c:c + _CHUNK_BLOCK, one tuple per chunk: the
        diagonals of (I - d/2 A) / 2, the observation factor (None when
        h = 0), d/2 and last[c]."""
        rows = slice(c, c + _CHUNK_BLOCK)
        d = delta[rows, None]
        factor = _observation_factors(dV[rows], h, hsq, d) if observed else repeat(None)
        s = 0.25 * d
        # base - s * stencil over the product, with no temporary; 0.0 - x keeps
        # +0.0 where A has a zero entry
        dl, dd, du = [np.subtract(base, p, out=p)
                      for base, p in ((0.0, s * lower), (0.5, s * main), (0.0, s * upper))]
        return zip(dl, dd, du, factor, (0.5 * delta[rows]).tolist(), last[rows].tolist())

    u = np.maximum(np.asarray(model.p0(x), dtype=float), 0.0)
    Phi = np.empty((len(T.times), n))
    done = int(np.searchsorted(first[1:], 0, side="right"))   # leading plateau steps
    Phi[:done + 1] = u
    clamped = 0.0
    for c in range(0, delta.size, _CHUNK_BLOCK):
        dl = dd = du = factor = None          # the last block's row views hold it alive
        for dl, dd, du, factor, half, upto in block(c):
            rhs = u if A_jump is None else u + half * (A_jump @ u)
            v = solve_banded(dl, dd, du, rhs)
            v -= u
            if factor is not None:
                v *= factor
            u = v
            if upto > done:
                clamped += _clamp(u, grid.spacing)
                Phi[done + 1:upto + 1] = u
                done = upto
    return FilterDensityGrid(grid=grid, times=T.times.copy(), values=Phi, clamped_mass=clamped)


def _solve_kernel(model, grid, T, obs):
    """Explicit product-trapezoid march of the memory form of the equation.

    m_{k+1} = p0 + J^beta[A* Phi](t_{k+1}), with the unknown endpoint sample
    A* Phi_{k+1} extrapolated by A* Phi_k, is Phi_{k+1} when h = 0, and else
    Phi_{k+1} = exp(h dV_k - 0.5 |h|^2 dT_k) (Phi_k + m_{k+1} - m_k), m_0 = p0.  In
    J^beta the stored samples hist[j] = A* Phi_j carry weights from the
    arrays P, Q of trapezoid_weights, divided by Gamma(beta) once: Q[k] on
    hist[0], the lag weight c[k - j] = Q[k - j] + P[k - j + 1] on hist[j] for
    0 < j <= k, and P[0] more on hist[k] for the extrapolated endpoint.  That
    P[0] is folded into the lag-0 weight c[0], except at step 0, whose
    endpoint is hist[0].  The lag weights are built once, with no per-step
    weight array.  For each block of B = _HISTORY_BLOCK steps [K, E), the part
    of the sum over hist[1:K] is one FFT convolution per node
    (fraccalc._lag_convolution, shared with fractional_integral), written
    into the block's rows of Phi, and the terms that no step changes,
    Q[k] hist[0] + p0, are added to those rows in slabs of _SLAB rows; the
    observation factors are computed for a slab of steps at a time.  A step
    then computes only what depends on Phi_k: hist[k] from the stencil of
    adjoint_diagonals in the csr product's row order (bit for bit
    adjoint_matrix @ Phi_k without state jumps, whose matrix product is added
    after it), the dot over its own block's rows, the factor (skipped when
    h = 0, where it is exactly 1) and clock mode's clamp, _clamp, which
    zeroes negative undershoots.  adjoint_matrix only feeds stable_step.  A
    solve of M steps on n nodes costs O((M/B) M log M n + M B n) instead of
    O(M^2 n), and needs O(M) working memory beyond Phi and hist.
    """
    beta = model.beta
    dt = T.step
    M = len(T.times) - 1
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
    hsq = 0.5 * np.sum(h * h, axis=1)
    observed = bool(np.any(h))
    dV = np.diff(obs.at(T.values), axis=0).reshape(M, -1)
    dT = T.increments[:, None]
    lower, main, upper = adjoint_diagonals(model, grid)
    A_jump = _jump_adjoint(model, grid)
    spill = np.empty(n - 1)

    def adjoint(u, out):
        """out = A* u from the stencil, in the csr product's row order, plus the
        state-jump term for a model with a state jump map."""
        np.multiply(main, u, out=out)
        np.multiply(lower, u[:-1], out=spill)
        rows = out[1:]
        np.add(rows, spill, out=rows)
        np.multiply(upper, u[1:], out=spill)
        rows = out[:-1]
        np.add(rows, spill, out=rows)
        if A_jump is not None:
            out += A_jump @ u

    P, Q = trapezoid_weights(beta, M, dt)
    gamma_beta = _gamma(beta)
    P /= gamma_beta
    Q /= gamma_beta
    # lag weights c[0..M - 2], t_M's inner node weights, stored reversed: c[k - j]
    # for j = J..k is c_rev[M - 2 - k + J:], c = c_rev[::-1] is the view the
    # convolution reads, and lag 0 also carries the extrapolated endpoint's w_M
    w = trapezoid_node_weights(P, Q, M)
    c_rev = w[1:M]
    c_rev[-1:] += w[M]                         # a slice: c is empty when M = 1
    c = c_rev[::-1]
    p0 = np.maximum(np.asarray(model.p0(x), dtype=float), 0.0)

    Phi = np.empty((M + 1, n))
    Phi[0] = p0
    hist = np.empty((M, n))                    # hist[j] = A* Phi(t_j)
    adjoint(p0, hist[0])
    m_prev = p0.copy()                         # p0 + J^beta[A* Phi](t_k), before its factor
    work = np.empty(n)
    clamped = 0.0
    for K in range(0, M, _HISTORY_BLOCK):
        E = min(K + _HISTORY_BLOCK, M)
        # Phi[k + 1] first holds the sum over hist[1:K], then becomes Phi_{k+1}
        # lags k - j run over 1..E - 2, so c[1:E - 1] against hist[1:K] gives
        # the steps k in [K, E) as rows K - 2..E - 3 of that convolution
        _lag_convolution(c[1:E - 1], hist[1:K], K - 2, E - 2, out=Phi[K + 1:E + 1])
        # the terms no step changes, Q[k] hist[0] + p0, in slabs of rows that
        # keep the temporary small
        for r in range(K, E, _SLAB):
            s = min(r + _SLAB, E)
            rows = Phi[r + 1:s + 1]
            rows += Q[r:s, None] * hist[0]
            rows += p0
        if K == 0:
            Phi[1] += P[0] * hist[0]           # step 0's extrapolated endpoint
        J = max(K, 1)
        for k in range(K, E):
            adjoint(Phi[k], hist[k])
            u = Phi[k + 1]
            # np.dot into a scratch row: the BLAS call of @, without its dispatch
            u += np.dot(c_rev[M - 2 - k + J:], hist[J:k + 1], out=work)
            if observed:
                i = k % _SLAB
                if i == 0:
                    factor = _observation_factors(dV[k:k + _SLAB], h, hsq, dT[k:k + _SLAB])
                np.subtract(u, m_prev, out=work)
                m_prev[:] = u
                work += Phi[k]
                np.multiply(factor[i], work, out=u)
            clamped += _clamp(u, grid.spacing)
    return FilterDensityGrid(grid=grid, times=T.times.copy(), values=Phi, clamped_mass=clamped)


# ---------------------------------------------------------------------------
# subordination identity
# ---------------------------------------------------------------------------

def subordinate_filter(beta: float, t: float, U: FilterDensityGrid) -> np.ndarray:
    """Average the classical solution over the inverse-subordinator clock.

    Returns integral g_t(tau) U(tau, x) dtau by trapezoid over U's operational
    grid (valid when U is observation-free), and raises when the weight mass
    beyond the stored horizon exceeds _TAIL_TOL.  The ensemble form of the
    identity, the average of clock-mode solves over independent clocks, is
    acceptance criterion 7.
    """
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

"""Filtering-problem descriptions and grid-space generator machinery.

A ModelSpec bundles the coefficient functions of the state equation
dX = b(X) dt + sigma(X) dB, the observation function h, the stability index of
the time change, an optional finite-activity jump specification, and the
initial density.  Grid solvers are one-dimensional; Monte-Carlo paths may use
vector-valued h.

The discrete generator A phi = 0.5 a phi'' + b phi' (a = sigma^2) uses central
differences.  adjoint_diagonals holds the stencil of its exact transpose A*,
with zero-flux walls so that the adjoint conserves the grid sum exactly;
adjoint_matrix adds any state jumps, and the generator is adjoint_matrix(...).T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ModelSpec",
    "SpatialGrid",
    "JumpSpec",
    "adjoint_diagonals",
    "adjoint_matrix",
    "jump_generator_matrix",
    "gaussian_density",
    "named_model",
    "NAMED_MODELS",
]

# largest |grid mass of p0 - 1| that validate_on_grid accepts
_P0_MASS_TOL = 1e-6


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform 1D node grid on [lower, upper] with n_cells intervals."""

    lower: float
    upper: float
    n_cells: int

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError("grid needs lower < upper")
        if self.n_cells < 8:
            raise ValueError("grid too small: need at least 8 cells")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / self.n_cells

    @property
    def n_nodes(self) -> int:
        return self.n_cells + 1

    @property
    def nodes(self) -> np.ndarray:
        return self.lower + self.spacing * np.arange(self.n_nodes)

    def integrate(self, values: np.ndarray) -> float:
        """Grid functional sum(values) * spacing (the conserved discrete mass)."""
        return float(np.sum(values, axis=-1) * self.spacing)


@dataclass(frozen=True)
class JumpSpec:
    """Finite-activity jump data: atomic mark distribution plus either a state
    jump map G(x, w) or an observation rate multiplier lam(t, x, w) > 0."""

    intensity: float
    atoms: Sequence[tuple[float, float]]  # (mark w, probability)
    state_jump_map: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    obs_rate: Optional[Callable[[float, np.ndarray, float], np.ndarray]] = None

    def __post_init__(self):
        if self.intensity < 0.0:
            raise ValueError("jump intensity must be nonnegative")
        probs = np.array([p for _, p in self.atoms], dtype=float)
        if len(probs) == 0 or abs(probs.sum() - 1.0) > 1e-12 or np.any(probs < 0.0):
            raise ValueError("atom probabilities must be nonnegative and sum to 1")

    @property
    def marks(self) -> np.ndarray:
        return np.array([w for w, _ in self.atoms], dtype=float)

    @property
    def probabilities(self) -> np.ndarray:
        return np.array([p for _, p in self.atoms], dtype=float)


@dataclass(frozen=True)
class ModelSpec:
    """One filtering problem: drift b, diffusion sigma, observation h, index beta,
    optional jumps, and initial density p0."""

    drift: Callable[[np.ndarray], np.ndarray]
    sigma: Callable[[np.ndarray], np.ndarray]
    observation: Callable[[np.ndarray], np.ndarray]
    beta: float
    p0: Callable[[np.ndarray], np.ndarray]
    jumps: Optional[JumpSpec] = None
    name: str = "custom"

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")

    def h_matrix(self, x: np.ndarray) -> np.ndarray:
        """Observation values as an (n_x, m) array regardless of scalar/vector h."""
        x = np.asarray(x, dtype=float)
        h = np.asarray(self.observation(x), dtype=float)
        if h.ndim == 0:
            h = np.full(x.shape, float(h))
        if h.ndim == 1:
            h = h[:, None]
        return h

    def validate_on_grid(self, grid: SpatialGrid) -> None:
        """Check sigma > 0, coefficients finite, and p0 a unit-mass density on the grid."""
        x = grid.nodes
        sig = np.broadcast_to(np.asarray(self.sigma(x), dtype=float), x.shape)
        if np.any(sig <= 0.0):
            raise ValueError("sigma must be positive on the computational domain")
        b = np.broadcast_to(np.asarray(self.drift(x), dtype=float), x.shape)
        if not (np.all(np.isfinite(b)) and np.all(np.isfinite(sig))):
            raise ValueError("drift/sigma must be finite on the computational domain")
        if not np.all(np.isfinite(self.h_matrix(x))):
            raise ValueError("observation function must be finite on the domain")
        p = np.asarray(self.p0(x), dtype=float)
        if np.any(p < 0.0):
            raise ValueError("p0 must be nonnegative")
        mass = grid.integrate(p)
        if abs(mass - 1.0) > _P0_MASS_TOL:
            raise ValueError(
                f"p0 integrates to {mass:.8f} on the grid (tolerance {_P0_MASS_TOL}); "
                "enlarge the domain or renormalize"
            )


# ---------------------------------------------------------------------------
# discrete generator and adjoint
# ---------------------------------------------------------------------------

def adjoint_diagonals(model: ModelSpec, grid: SpatialGrid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Divergence-form discretization of A* p = 0.5 (a p)'' - (b p)' with zero-flux walls,
    as its (lower, main, upper) diagonals of lengths n - 1, n and n - 1.

    Every entry transposes the central-difference generator stencil except
    main[0] and main[-1], chosen so every column sums to zero, hence
    sum(A* p) * spacing == 0 for arbitrary p (discrete reflecting closure).
    """
    x = grid.nodes
    dx = grid.spacing
    a = np.broadcast_to(np.asarray(model.sigma(x), dtype=float) ** 2, x.shape).astype(float)
    b = np.broadcast_to(np.asarray(model.drift(x), dtype=float), x.shape).astype(float)

    diff = 0.5 * a / dx ** 2
    adv = b / (2.0 * dx)

    lower = diff[:-1] + adv[:-1]    # entry (j+1, j) carries a_j, b_j
    main = -2.0 * diff
    upper = diff[1:] - adv[1:]      # entry (j, j+1) carries a_{j+1}, b_{j+1}
    main[0] = -(diff[0] + adv[0])
    main[-1] = -(diff[-1] - adv[-1])
    return lower, main, upper


def adjoint_matrix(model: ModelSpec, grid: SpatialGrid) -> sp.csr_matrix:
    """The matrix of adjoint_diagonals, plus the transposed state-jump generator
    for a model with a state jump map."""
    A = sp.diags(adjoint_diagonals(model, grid), offsets=[-1, 0, 1], format="csr")
    if model.jumps is not None and model.jumps.state_jump_map is not None:
        A = A + jump_generator_matrix(model, grid).T.tocsr()
    return A


def jump_generator_matrix(model: ModelSpec, grid: SpatialGrid) -> sp.csr_matrix:
    """Finite-activity jump part: lam0 sum_w p_w [phi(x + G(x, w)) - phi(x)].

    Off-grid targets are evaluated by linear interpolation; targets beyond the
    domain are clamped to the nearest wall (mass cannot leave the box, matching
    the reflecting closure of the diffusion part).
    """
    jumps = model.jumps
    if jumps is None or jumps.state_jump_map is None:
        raise ValueError("model carries no state jump specification")
    x = grid.nodes
    n = grid.n_nodes
    dx = grid.spacing
    lam0 = jumps.intensity
    rows, cols, vals = [], [], []
    for w, p in jumps.atoms:
        target = np.clip(x + np.asarray(jumps.state_jump_map(x, w), dtype=float), grid.lower, grid.upper)
        pos = (target - grid.lower) / dx
        j0 = np.clip(np.floor(pos).astype(int), 0, n - 2)
        frac = pos - j0
        coef = lam0 * p
        idx = np.arange(n)
        rows.extend([idx, idx, idx])
        cols.extend([j0, j0 + 1, idx])
        vals.extend([coef * (1.0 - frac), coef * frac, -coef * np.ones(n)])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


# ---------------------------------------------------------------------------
# built-in models
# ---------------------------------------------------------------------------

def gaussian_density(mean: float, std: float) -> Callable[[np.ndarray], np.ndarray]:
    def p0(x):
        return np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * np.sqrt(2.0 * np.pi))
    return p0


def _ou_linear(beta: float, a: float = -1.0, sigma_const: float = np.sqrt(2.0),
               c: float = 1.0, mean0: float = 0.0, std0: float = 1.0) -> ModelSpec:
    return ModelSpec(
        drift=lambda x: a * x,
        sigma=lambda x: np.full_like(np.asanyarray(x, dtype=float), sigma_const),
        observation=lambda x: c * x,
        beta=beta,
        p0=gaussian_density(mean0, std0),
        name="ou-linear",
    )


def _benes_like(beta: float, sigma_const: float = 1.0, c: float = 1.0,
                mean0: float = 0.0, std0: float = 1.0) -> ModelSpec:
    return ModelSpec(
        drift=np.tanh,
        sigma=lambda x: np.full_like(np.asanyarray(x, dtype=float), sigma_const),
        observation=lambda x: c * np.tanh(x),
        beta=beta,
        p0=gaussian_density(mean0, std0),
        name="benes-like",
    )


def _jump_poisson(beta: float, a: float = -1.0, sigma_const: float = np.sqrt(2.0),
                  c: float = 1.0, rate: float = 1.0) -> ModelSpec:
    """OU state with finite-activity observation jumps: unit-rate marks +-1 whose
    intensity is modulated by lam(t, x, w) = 1 + 0.5 w tanh(x) (positive, bounded)."""
    jumps = JumpSpec(
        intensity=rate,
        atoms=[(1.0, 0.5), (-1.0, 0.5)],
        obs_rate=lambda t, x, w: 1.0 + 0.5 * w * np.tanh(x),
    )
    return ModelSpec(
        drift=lambda x: a * x,
        sigma=lambda x: np.full_like(np.asanyarray(x, dtype=float), sigma_const),
        observation=lambda x: c * x,
        beta=beta,
        p0=gaussian_density(0.0, 1.0),
        jumps=jumps,
        name="jump-poisson",
    )


NAMED_MODELS = {
    "ou-linear": _ou_linear,
    "benes-like": _benes_like,
    "jump-poisson": _jump_poisson,
}


def named_model(key: str, beta: float, **kwargs) -> ModelSpec:
    """Built-in model by key: 'ou-linear', 'benes-like', or 'jump-poisson'."""
    try:
        factory = NAMED_MODELS[key]
    except KeyError:
        raise KeyError(f"unknown model key {key!r}; choose from {sorted(NAMED_MODELS)}") from None
    return factory(beta, **kwargs)

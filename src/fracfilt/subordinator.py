"""Stable subordinators, their first-hitting-time inverses, and the associated densities.

The increasing process D has Laplace transform E[exp(-s * D_t)] = exp(-t * s**beta)
with stability index beta in (0, 1).  Its inverse T_t = min{tau : D_tau >= t} is the
random clock used by the time-changed filtering models.  This module provides

* _SampledPath, the base of D, T and sde_sim's state and observation paths,
  which refuses a grid that is not uniform or values without one row per node,
* exact-in-distribution path sampling of D (Chambers-Mallows-Stuck / Kanter form),
* path inversion onto a real-time grid, and the clock sampler that redraws D
  on a longer operational horizon until it covers the real-time one,
* the density f of D_1 (per-beta Chebyshev table of the Zolotarev integral,
  built from its quadrature, and a series in the tail),
* the density g_t(tau) of T_t and its Laplace-transform self-test.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import gamma, gammaln, roots_legendre

__all__ = [
    "SubordinatorPath",
    "InversePath",
    "sample_stable_path",
    "invert_path",
    "sample_inverse_path",
    "stable_density",
    "inverse_density_grid",
    "laplace_identity_residual",
    "tail_bound",
    "tau_cutoff",
]

# exp argument below which a double underflows to a subnormal; used as the
# super-exponential small-argument cutoff for the stable density
_LOG_TINY = 708.0

# Gauss-Legendre order per quadrature segment of the density integral
_GL_ORDER = 32
_GL_NODES, _GL_WEIGHTS = roots_legendre(_GL_ORDER)

# tries of sample_inverse_path, each doubling the operational horizon; T_t
# grows like t**beta, so a short horizon t needs about (1 - beta) log2(1/t)
# doublings of the first try's 4 t
_CLOCK_TRIES = 40

# terms of the large-argument series of the stable density
_SERIES_TERMS = 260

# points per (block, segments, nodes) array of the density integral; 128 keeps
# each temporary near half a megabyte
_BLOCK = 128

# segment breakpoints in w = (a(phi) - a(0)) * u**(-beta/(1-beta)) space; the
# integrand a * exp(-w) varies by a bounded factor inside each segment, so a
# fixed-order rule per segment resolves both the small-u and large-u layers
# (near the series switch at beta = 0.99, a grows ~1e11-fold before w = 1e-7)
_W_BREAKS = np.array(
    [1e-11, 1e-9, 1e-7, 1e-5, 1e-3, 1e-2, 0.05, 0.2, 0.5, 1.0, 2.0, 4.0, 7.0, 11.0, 17.0, 25.0, 35.0, 46.0]
)

# piecewise-Chebyshev table of log I(y) in log y: uniform panels, first-kind
# points per panel, and the largest tail coefficient a usable table may keep
_CHEB_PANELS = 8
_CHEB_ORDER = 24
_CHEB_TOL = 1e-11


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 < beta < 1.0:
        raise ValueError(f"stability index beta must lie in (0, 1), got {beta}")
    return beta


def _check_time(t: float) -> None:
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")


@dataclass(frozen=True)
class _SampledPath:
    """Values on a uniform time grid, one row per node, checked before a subtype's
    own rules read them: two or more nodes and every step within a relative
    1e-5 of a positive first step (an absolute tolerance would pass any grid
    whose steps are all below it)."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        name = type(self).__name__
        if np.shape(self.values)[:1] != np.shape(self.times):
            raise ValueError(f"{name} has values of shape {np.shape(self.values)} for "
                             f"{np.size(self.times)} time nodes")
        if np.size(self.times) < 2:
            raise ValueError(f"{name}'s time grid needs at least two nodes, got {np.size(self.times)}")
        d = np.diff(self.times)
        if not (d[0] > 0.0 and np.abs(d - d[0]).max() <= 1e-5 * d[0]):
            raise ValueError(f"{name}'s time grid must be uniform with a positive step")

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)

    def at(self, t):
        """Linear interpolation of the path at times t, one column per channel."""
        if np.ndim(self.values) == 1:
            return np.interp(t, self.times, self.values)
        return np.column_stack([np.interp(t, self.times, z) for z in self.values.T])


@dataclass(frozen=True)
class SubordinatorPath(_SampledPath):
    """Sampled path of the stable subordinator D on a uniform operational-time grid."""

    beta: float

    def __post_init__(self):
        super().__post_init__()
        _check_beta(self.beta)
        if self.values[0] != 0.0:
            raise ValueError("subordinator paths start at 0")
        if np.any(self.increments <= 0.0):
            raise ValueError("subordinator paths must be strictly increasing")

    @property
    def horizon_reached(self) -> float:
        """Largest real-time level the path crosses."""
        return float(self.values[-1])


@dataclass(frozen=True)
class InversePath(_SampledPath):
    """First-hitting-time inverse T on a uniform real-time grid from 0; nondecreasing."""

    def __post_init__(self):
        super().__post_init__()
        if self.times[0] != 0.0:
            raise ValueError("InversePath's time grid must start at 0")
        if self.values[0] != 0.0:
            raise ValueError("inverse paths start at 0")
        if np.any(self.increments < 0.0):
            raise ValueError("inverse paths must be nondecreasing")


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def _log_kanter_a(phi: np.ndarray, beta: float) -> np.ndarray:
    """log of a(phi) = [sin(b phi)/sin phi]^(b/(1-b)) sin((1-b) phi)/sin phi on (0, pi)."""
    ls = np.log(np.sin(phi))
    return (beta / (1.0 - beta)) * (np.log(np.sin(beta * phi)) - ls) + np.log(
        np.sin((1.0 - beta) * phi)
    ) - ls


@lru_cache(maxsize=16)
def _log_a_table(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Strictly increasing (log a(phi), phi) on [eps, pi - eps], clustered toward pi.

    log a diverges at pi, so the quartic map puts most of the 4096 points near
    it, and 200 geometric points fill the last 1e-2 on a log scale.  Inverting
    with np.interp gives the phi at which log a reaches a target.
    """
    eps = 1e-9
    t = np.linspace(0.0, 1.0, 4096)
    phi = np.union1d(eps + (np.pi - 2.0 * eps) * (1.0 - (1.0 - t) ** 4),
                     np.pi - np.geomspace(1e-2, eps, 200))
    log_a = _log_kanter_a(phi, beta)
    log_a.flags.writeable = phi.flags.writeable = False
    return log_a, phi


def _a_zero(beta: float) -> float:
    # a(0+) = (1-b) b^(b/(1-b)); also the constant in the super-exponential
    # small-argument decay of the stable density
    return (1.0 - beta) * beta ** (beta / (1.0 - beta))


def _rng(seed, stream: int = 0) -> np.random.Generator:
    # counter-based generator; (seed, stream) form the two words of the Philox
    # key, so distinct streams can never collide for any 64-bit seed
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_standard_stable(beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Totally skewed stable samples S with E[exp(-s S)] = exp(-s**beta).

    Chambers-Mallows-Stuck transformation specialized to the positive branch
    (equivalently Kanter's representation), evaluated in log space so extreme
    beta stays finite: S = (a(U)/E)**((1-beta)/beta) with U ~ U(0, pi), E ~ Exp(1).
    """
    beta = _check_beta(beta)
    return _cms_transform(rng.uniform(0.0, np.pi, size), rng.standard_exponential(size), beta)


def _cms_transform(U: np.ndarray, E: np.ndarray, beta: float) -> np.ndarray:
    """S = (a(U)/E)**((1-beta)/beta) of given U in (0, pi) and E > 0, in log space."""
    return np.exp(((1.0 - beta) / beta) * (_log_kanter_a(U, beta) - np.log(E)))


def sample_stable_path(beta: float, horizon: float, step: float, seed) -> SubordinatorPath:
    """Sample D on the grid {0, step, 2*step, ...} covering the operational horizon.

    Increments over step dtau are i.i.d. with Laplace transform exp(-dtau * s**beta),
    i.e. dtau**(1/beta) times a standard sample.  Deterministic per seed.
    """
    beta = _check_beta(beta)
    if horizon <= 0.0 or step <= 0.0:
        raise ValueError("horizon and step must be positive")
    n = int(np.ceil(horizon / step))
    rng = _rng(seed)
    inc = step ** (1.0 / beta) * sample_standard_stable(beta, n, rng)
    values = np.concatenate(([0.0], np.cumsum(inc)))
    times = step * np.arange(n + 1)
    return SubordinatorPath(beta=beta, times=times, values=values)


def unit_slope_inverse(horizon: float, step: float) -> InversePath:
    """Identity clock T_t = t on the grid {0, step, 2*step, ...} covering horizon."""
    # 1e-9: 0.07 / 0.01 = 7.000000000000001 is 7 steps, not 8
    n = int(np.ceil(horizon / step - 1e-9))
    times = step * np.arange(n + 1)
    return InversePath(times=times, values=times.copy())


def invert_path(path: SubordinatorPath, real_time_grid: np.ndarray) -> InversePath:
    """First-hitting-time inverse T_t = min{tau : D_tau >= t} on the given grid.

    D is linearly interpolated between operational grid points before inversion,
    which keeps T continuous and nondecreasing.  InversePath checks the grid;
    raises if the sampled path does not reach the requested real-time horizon
    (resample with a longer horizon).
    """
    grid = np.asarray(real_time_grid, dtype=float)
    # D strictly increasing from 0: the inverse is interp with axes swapped, 0 at t = 0
    T = InversePath(times=grid, values=np.interp(grid, path.values, path.times))
    if path.horizon_reached < grid[-1]:
        raise ValueError(
            f"subordinator path reaches {path.horizon_reached:.6g} < requested horizon "
            f"{grid[-1]:.6g}; resample with a longer operational horizon"
        )
    return T


def sample_inverse_path(beta: float, horizon: float, op_step: float, seed,
                        n_nodes: int) -> tuple[SubordinatorPath, InversePath]:
    """Clock T on linspace(0, horizon, n_nodes) and the path D it inverts.

    D is sampled with step op_step on an operational horizon of 4 * horizon,
    doubled until D crosses the real-time horizon; each try redraws D from the
    same seed.  Raises RuntimeError after _CLOCK_TRIES tries.
    """
    op_horizon = 4.0 * horizon
    for _ in range(_CLOCK_TRIES):
        D = sample_stable_path(beta, op_horizon, op_step, seed)
        if D.horizon_reached >= horizon:
            return D, invert_path(D, np.linspace(0.0, horizon, n_nodes))
        op_horizon *= 2.0
    raise RuntimeError(f"subordinator path missed the horizon {horizon:.6g} "
                       f"in {_CLOCK_TRIES} tries")


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def _split(mask: np.ndarray, on, off, *args: np.ndarray) -> np.ndarray:
    """on(*args) where mask holds and off(*args) elsewhere, each called on its own
    points only; a mask that is all true or all false sends the whole arrays to
    one of them, with no gather or scatter.  Callers pass functions whose value
    at a point does not depend on the other points of the batch."""
    if mask.all():
        return on(*args)
    if not mask.any():
        return off(*args)
    out = np.empty(mask.shape)
    out[mask] = on(*(a[mask] for a in args))
    out[~mask] = off(*(a[~mask] for a in args))
    return out


def _zolotarev_quadrature(y: np.ndarray, beta: float) -> np.ndarray:
    """I(y) = int_0^pi a(phi) exp(-(a(phi) - a0) y) dphi at y > 0 by segmented GL.

    (0, pi) is cut at the points where (a - a0) y crosses _W_BREAKS, so the
    integrand varies by a bounded factor per segment regardless of where the
    concentration layer sits.  The cut points are read off the per-beta table
    of log a(phi) by linear interpolation; they are approximate, which the GL
    rule on each segment allows.  Points are integrated _BLOCK at a time, all
    segments and nodes at once.  It builds the Chebyshev table, and gives I
    wherever the table does not reach.
    """
    a0 = _a_zero(beta)
    log_a_tab, phi_tab = _log_a_table(beta)
    total = np.empty(y.size)
    for s in range(0, y.size, _BLOCK):
        yb = y[s:s + _BLOCK, None]
        log_target = np.log(a0 + _W_BREAKS / yb)
        inner = np.where(log_target < log_a_tab[-1],
                         np.interp(log_target, log_a_tab, phi_tab), np.pi)
        bks = np.pad(inner, ((0, 0), (1, 1)), constant_values=(0.0, np.pi))
        lo, hi = bks[:, :-1], bks[:, 1:]
        half = 0.5 * (hi - lo)
        phi = (0.5 * (hi + lo))[..., None] + half[..., None] * _GL_NODES
        a = np.exp(np.minimum(_log_kanter_a(phi, beta), _LOG_TINY))
        # (a - a0) y may overflow to inf near pi; the integrand is 0 there
        with np.errstate(over="ignore"):
            w = (a - a0) * yb[..., None]
        integ = np.where(w > _LOG_TINY, 0.0, a * np.exp(-np.minimum(w, _LOG_TINY)))
        total[s:s + _BLOCK] = ((integ @ _GL_WEIGHTS) * half).sum(axis=1)
    return total


@lru_cache(maxsize=16)
def _chebyshev_table(beta: float) -> tuple[float, float, np.ndarray] | None:
    """Piecewise-Chebyshev table (lo, width, coef) of log I in log y, or None.

    log y runs from the series switch, y = 0.7**(1/(1-beta)), to the underflow
    point a0 y = _LOG_TINY, in _CHEB_PANELS uniform panels of the given width
    starting at lo.  coef[k, p] is the k-th Chebyshev coefficient on panel p,
    interpolating _zolotarev_quadrature at _CHEB_ORDER first-kind points.
    None where the last three coefficients exceed _CHEB_TOL on some panel:
    that beta stays on the quadrature.
    """
    lo = np.log(0.7) / (1.0 - beta)
    width = (np.log(_LOG_TINY / _a_zero(beta)) - lo) / _CHEB_PANELS
    theta = np.pi * (np.arange(_CHEB_ORDER) + 0.5) / _CHEB_ORDER
    log_y = lo + width * (np.arange(_CHEB_PANELS)[:, None] + 0.5 * (1.0 + np.cos(theta)))
    vals = np.log(_zolotarev_quadrature(np.exp(log_y).ravel(), beta))
    cos_kj = np.cos(np.outer(np.arange(_CHEB_ORDER), theta))
    coef = (2.0 / _CHEB_ORDER) * cos_kj @ vals.reshape(_CHEB_PANELS, _CHEB_ORDER).T
    coef[0] *= 0.5
    if np.abs(coef[-3:]).max() > _CHEB_TOL:
        return None
    coef.flags.writeable = False
    return lo, width, coef


def _zolotarev_integral(y: np.ndarray, beta: float) -> np.ndarray:
    """I(y) from the Chebyshev table of its beta, by a Clenshaw sum per point.

    Callers pass y on the integral branch: from the series switch,
    y = 0.7**(1/(1-beta)), to the underflow point a0 y = _LOG_TINY, which is
    the table's range up to rounding; a point that rounds just outside it is
    read on the end panel.  Every point of a beta whose table was refused goes
    to _zolotarev_quadrature.  Each Clenshaw step gathers one coefficient per
    point, so no temporary is larger than y.
    """
    table = _chebyshev_table(beta)
    if table is None:
        return _zolotarev_quadrature(y, beta)
    lo, width, coef = table
    if y.size == 1:
        # the same steps in Python floats, whose +, - and * round as numpy's
        # element-wise float64 ops do; log and exp stay numpy calls, which may
        # differ from libm in the last bit
        s = max((np.log(y).item() - float(lo)) / float(width), 0.0)
        p = min(int(s), _CHEB_PANELS - 1)
        x2 = 4.0 * (s - p) - 2.0
        col = coef[:, p].tolist()
        b1 = b2 = 0.0
        for c in col[:0:-1]:
            b1, b2 = c + x2 * b1 - b2, b1
        return np.exp(np.array([col[0] + 0.5 * x2 * b1 - b2]))
    s = np.maximum((np.log(y) - lo) / width, 0.0)
    p = np.minimum(s.astype(np.intp), _CHEB_PANELS - 1)
    x2 = 4.0 * (s - p) - 2.0
    b1 = b2 = 0.0
    for c in coef[:0:-1]:
        b1, b2 = c.take(p) + x2 * b1 - b2, b1
    return np.exp(coef[0].take(p) + 0.5 * x2 * b1 - b2)


def _stable_density_integral(u: np.ndarray, beta: float) -> np.ndarray:
    """Density f on the integral branch, from the Zolotarev/Kanter single integral.

    f(u) = b/((1-b) pi) u^(-1/(1-b)) int_0^pi a(phi) exp(-a(phi) y) dphi with
    y = u^(-b/(1-b)), written as pref u^(-1/(1-b)) exp(-a0 y) I(y); I comes
    from _zolotarev_integral.
    """
    with np.errstate(over="ignore"):
        y = u ** (-beta / (1.0 - beta))
    a0 = _a_zero(beta)
    pref = beta / ((1.0 - beta) * np.pi)
    # Eq-(10)-style super-exponential decay: below the double underflow threshold
    # the density is returned as exact 0
    return _split(np.isfinite(y) & (a0 * y <= _LOG_TINY),
                  lambda u, y: (pref * u ** (-1.0 / (1.0 - beta)) * np.exp(-a0 * y)
                                * _zolotarev_integral(y, beta)),
                  lambda u, y: np.zeros_like(u), u, y)


@lru_cache(maxsize=16)
def _series_coefficients(beta: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(log(Gamma(k b + 1)/k!), k b + 1, (-1)^(k+1) sin(pi k b)) for k = 1.._SERIES_TERMS."""
    k = np.arange(1, _SERIES_TERMS + 1)
    logc = gammaln(k * beta + 1.0) - gammaln(k + 1.0)
    power = k * beta + 1.0
    sgn = (-1.0) ** (k + 1) * np.sin(np.pi * k * beta)
    logc.flags.writeable = power.flags.writeable = sgn.flags.writeable = False
    return logc, power, sgn


def _stable_density_series(u: np.ndarray, beta: float) -> np.ndarray:
    """Convergent large-argument series for the one-sided stable density.

    f(u) = (1/pi) sum_{k>=1} (-1)^(k+1) Gamma(k b + 1)/k! sin(pi k b) u^(-k b - 1);
    used where u**(-beta) <= 0.7, which keeps the term ratio below ~0.7.
    """
    logc, power, sgn = _series_coefficients(beta)
    arg = logc - power * np.log(u)[..., None]
    return (sgn * np.exp(np.minimum(arg, 700.0))).sum(axis=-1) / np.pi


def _series_switch(beta: float) -> float:
    # smallest u on the series branch: u**(-beta) = 0.7 there
    return 0.7 ** (-1.0 / beta)


def stable_density(beta: float, u) -> np.ndarray | float:
    """Density f of D_1 (Laplace transform exp(-s**beta)) at u > 0.

    Deterministic evaluator.  For small and moderate u, the single-integral
    (Zolotarev) representation, its inner integral read from a piecewise-
    Chebyshev table in log y that is built once per beta from segmented
    fixed-order quadrature; a beta whose table cannot reach 1e-11 stays on the
    quadrature.  In the tail, the convergent power series.  The table is
    within 1e-11 relative of its quadrature for beta from 0.001 to 0.99 (5e-12
    measured), and within 1e-12 of the closed beta = 1/2 form.
    """
    beta = _check_beta(beta)
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if not np.all(u_arr > 0.0):
        raise ValueError("stable_density requires u > 0")
    switch = _series_switch(beta)
    with np.errstate(over="ignore", under="ignore"):
        y = u_arr ** (-beta / (1.0 - beta))
    out = _split((u_arr >= switch) | ((u_arr > 1.0) & (y == 0.0)),
                 lambda u: _stable_density_series(u, beta),
                 lambda u: _stable_density_integral(u, beta), u_arr)
    return out if np.ndim(u) else float(out[0])


def inverse_density_grid(beta: float, t, tau) -> np.ndarray:
    """Density g_t(tau) of the inverse subordinator T_t, vectorized over arrays of
    t > 0 and tau >= 0 (broadcast together).

    g_t(tau) = t / (beta tau^(1 + 1/beta)) f(t / tau^(1/beta)) for tau > 0, with
    the boundary value g_t(0) = t^(-beta) / Gamma(1 - beta).
    """
    beta = _check_beta(beta)
    t_b, tau_b = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(tau, dtype=float))
    shape = t_b.shape
    t_arr = np.atleast_1d(t_b).ravel()
    tau_arr = np.atleast_1d(tau_b).ravel()
    if not np.all(t_arr > 0.0):
        raise ValueError("inverse_density_grid requires t > 0")
    if not np.all(tau_arr >= 0.0):
        raise ValueError("inverse_density_grid requires tau >= 0")
    # the boundary value is also used for tau so small that t/tau^(1/beta) or
    # the prefactor would overflow; g extends continuously to tau = 0
    with np.errstate(over="ignore", divide="ignore"):
        pref = t_arr / (beta * tau_arr ** (1.0 + 1.0 / beta))
    out = _split((tau_arr ** (1.0 / beta) < t_arr * 1e-250) | np.isinf(pref),
                 lambda t, tau, pref: t ** (-beta) / gamma(1.0 - beta),
                 lambda t, tau, pref: pref * stable_density(beta, t / tau ** (1.0 / beta)),
                 t_arr, tau_arr, pref)
    return out.reshape(shape)


def _tail_constants(beta: float, t: float) -> tuple[float, float, float]:
    """(beta, c, C) for checked beta and t, of the tail envelope
    C exp(-c tau^(1/(1-b)) / t^(b/(1-b))): c = a(0+), and C bounds g by its
    tau -> 0 limit scale times a margin."""
    beta = _check_beta(beta)
    _check_time(t)
    return beta, _a_zero(beta), 10.0 * (1.0 + t ** (-beta) / gamma(1.0 - beta))


def tail_bound(beta: float, t: float, tau) -> np.ndarray | float:
    """Upper-envelope estimate of g_t(tau) for large tau.

    Substituting the small-argument asymptotic of the stable density into the
    g representation gives, up to an algebraic prefactor handled by a safety
    factor, g_t(tau) ~ C exp(-(1-beta) beta^(b/(1-b)) tau^(1/(1-b)) / t^(b/(1-b))).
    Used to truncate integrals over tau once the bound drops below tolerance.
    """
    beta, c, pref = _tail_constants(beta, t)
    tau = np.asarray(tau, dtype=float)
    expo = c * tau ** (1.0 / (1.0 - beta)) / t ** (beta / (1.0 - beta))
    with np.errstate(over="ignore"):
        return pref * np.exp(-np.minimum(expo, _LOG_TINY))


def tau_cutoff(beta: float, t: float, tol: float = 1e-12) -> float:
    """Smallest tau beyond which tail_bound(beta, t, tau) < tol."""
    beta, c, pref = _tail_constants(beta, t)
    if tol <= 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    # a tol at or above the bound's value at tau = 0 is met everywhere
    return float((max(np.log(pref / tol), 0.0) / c) ** (1.0 - beta) * t ** beta)


def laplace_identity_residual(beta: float, tau: float, s_grid) -> float:
    """Self-test of the Laplace identity L_{t->s}[g_t(tau)] = s^(b-1) exp(-tau s^b).

    Computes the transform by adaptive quadrature over t and returns the max
    absolute deviation from the closed form over s_grid.
    """
    from scipy.integrate import quad  # scipy.integrate would slow every fracfilt import

    beta = _check_beta(beta)
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    s_arr = np.atleast_1d(np.asarray(s_grid, dtype=float))
    if np.any(s_arr <= 0.0):
        raise ValueError("s_grid must be positive")
    worst = 0.0
    for s in s_arr:
        if tau == 0.0:
            # g_t(0) = t^(-beta)/Gamma(1-beta); integrable endpoint singularity
            integrand = lambda t: np.exp(-s * t) * t ** (-beta) / gamma(1.0 - beta)
        else:
            integrand = lambda t: np.exp(-s * t) * inverse_density_grid(beta, t, tau)[()]
        val, _ = quad(integrand, 0.0, np.inf, limit=400)
        target = s ** (beta - 1.0) * np.exp(-tau * s ** beta)
        worst = max(worst, abs(val - target))
    return worst

"""Built-in acceptance suite: one callable per criterion, shared by the CLI
`check` command and the pytest acceptance module.

Each criterion is declared once, by `_criterion(number, name, budget_s)` over a
body that returns (passed, details); the declaration registers it in
ALL_CRITERIA, times it, fails it past its wall-clock budget and builds its
CheckResult.  Every check pins its tolerance explicitly and reports the
measured quantities in its details dict.  Randomized checks use fixed seeds;
nothing reads entropy from the environment.
"""

from __future__ import annotations

import filecmp
import functools
import math
import os
import tempfile
import time
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import beta as beta_fn
from scipy.special import betainc, gamma, roots_legendre

from .config import parse_config
from .fraccalc import (
    GridFunction,
    fractional_integral,
    riemann_liouville_derivative,
    trapezoid_node_weights,
    trapezoid_weights,
)
from .models import JumpSpec, ModelSpec, SpatialGrid, gaussian_density, named_model
from .sde_sim import (
    ObservationRecord,
    StatePath,
    kallianpur_striebel_estimate,
    likelihood_path,
    simulate_classical_pair,
    simulate_time_changed_state_direct,
)
from . import levy_ext
from .subordinator import (
    inverse_density_grid,
    laplace_identity_residual,
    sample_inverse_path,
    tau_cutoff,
    unit_slope_inverse,
)
from .zakai_classical import grid_moments, kalman_bucy_reference, normalize, solve_zakai
from .zakai_fractional import (
    l1_distance,
    pathwise_oracle_report,
    quadrature_and_kernel,
    solve_fractional_zakai,
    subordinate_filter,
)


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in self.details.items())
        return f"criterion {self.number:02d} {status}  {self.name}  ({self.runtime_s:.1f}s)  [{extras}]"


def _panel_quad(fn, lo: float, hi: float, panels: int = 8, order: int = 64) -> float:
    nodes, wts = roots_legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        x = 0.5 * (a + b) + half * nodes
        total += half * float(np.dot(fn(x), wts))
    return total


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

ALL_CRITERIA = []


def _criterion(number: int, name: str, budget_s: float = math.inf):
    """Declare a criterion; its CheckResult fails when the body runs for budget_s or longer."""
    def register(body):
        @functools.wraps(body)
        def run() -> CheckResult:
            clock = time.perf_counter
            t0 = clock()
            passed, details = body()
            rt = clock() - t0
            return CheckResult(number, name, bool(passed) and rt < budget_s, rt, details)

        run.number = number
        run.budget_s = budget_s
        ALL_CRITERIA.append(run)
        return run

    return register


@_criterion(1, "inverse-density closed form (beta=1/2)", budget_s=10.0)
def criterion_1():
    """beta = 1/2 closed form of the inverse density on a 100 x 100 (t, tau) grid."""
    ts = np.linspace(0.05, 2.0, 100)
    taus = np.linspace(0.0, 4.0, 100)
    T, TAU = np.meshgrid(ts, taus, indexing="ij")
    G = inverse_density_grid(0.5, T.ravel(), TAU.ravel()).reshape(T.shape)
    exact = np.exp(-TAU ** 2 / (4.0 * T)) / np.sqrt(np.pi * T)
    err = float(np.max(np.abs(G - exact)) / exact.max())
    return err < 1e-6, {"scaled_error": err, "tolerance": 1e-6}


@_criterion(2, "boundary, Laplace, and normalization suite for g_t", budget_s=60.0)
def criterion_2():
    """Boundary value, Laplace identity, and normalization of g_t."""
    details = {}
    ok = True

    worst_b = 0.0
    for beta, t in [(0.6, 2.0), (0.3, 0.5), (0.8, 1.5)]:
        target = t ** (-beta) / gamma(1.0 - beta)
        val0, val_eps = inverse_density_grid(beta, t, [0.0, 1e-8])
        worst_b = max(worst_b, abs(val0 - target), abs(val_eps - target))
    details["boundary_error"] = worst_b
    ok &= worst_b < 1e-6

    triples = [(0.5, 1.0, 0.5), (0.5, 1.0, 1.0), (0.5, 1.0, 2.0),
               (0.5, 0.0, 1.0), (0.8, 2.0, 1.0), (0.3, 0.5, 1.0)]
    worst_d = 0.0
    for beta, tau, s in triples:
        worst_d = max(worst_d, laplace_identity_residual(beta, tau, [s]))
    details["laplace_residual"] = worst_d
    ok &= worst_d < 1e-4

    worst_n = 0.0
    for beta in (0.3, 0.5, 0.8):
        for t in (0.5, 1.0, 2.0):
            hi = tau_cutoff(beta, t, 1e-14)
            mass = _panel_quad(lambda x: inverse_density_grid(beta, t, x), 0.0, hi,
                               panels=12, order=64)
            worst_n = max(worst_n, abs(mass - 1.0))
    details["normalization_error"] = worst_n
    ok &= worst_n < 1e-6
    return ok, details


@_criterion(3, "memory-kernel relation for g (fractional identity)", budget_s=60.0)
def criterion_3():
    """g_t(tau) = -d/dtau J^beta_t g_t(tau) at interior points of a 50-point tau grid."""
    # tau >= 0.5 keeps the t-integrand's startup layer (width ~ tau**(1/beta))
    # resolvable by the uniform grid at every beta tested
    tgrid = np.linspace(0.0, 1.0, 1025)
    dt = tgrid[1] - tgrid[0]
    taus = np.linspace(0.5, 3.0, 50)
    h = 1e-4
    worst = 0.0
    for beta in (0.3, 0.5, 0.8):
        inner = taus[1:-1]
        shifted = np.concatenate([inner + h, inner - h])
        # g on the (t, tau +/- h) product grid, J^beta over t per column
        gmat = inverse_density_grid(beta, tgrid[1:, None], shifted[None, :])
        gmat = np.vstack([np.zeros((1, shifted.size)), gmat])  # g_0+(tau) = 0 for tau > 0
        M = len(tgrid) - 1
        wts = trapezoid_node_weights(*trapezoid_weights(beta, M, dt), M)
        J = (wts @ gmat) / gamma(beta)
        n = inner.size
        deriv = -(J[:n] - J[n:]) / (2.0 * h)
        gval = inverse_density_grid(beta, 1.0, inner)
        worst = max(worst, float(np.max(np.abs(deriv - gval) / gval)))
    return worst < 1e-3, {"worst_relative_residual": worst, "tolerance": 1e-3}


@_criterion(4, "Riemann-Liouville identities", budget_s=10.0)
def criterion_4():
    """Discrete fractional-calculus identities."""
    details = {}
    step = 1e-3
    t = step * np.arange(1001)
    ok = True

    worst = 0.0
    for beta in (0.3, 0.5, 0.8):
        J = fractional_integral(GridFunction(step=step, values=np.ones_like(t)), beta).values
        worst = max(worst, float(np.max(np.abs(J - t ** beta / gamma(1.0 + beta)))))
    details["const_identity_error"] = worst
    ok &= worst < 1e-4

    # singular test with the analytic-endpoint variant: the first few kernel
    # subintervals (where t**-beta bends hardest) are evaluated exactly via the
    # incomplete beta function, the rest by the product-trapezoid weights
    beta = 0.5
    vals = np.zeros_like(t)
    vals[1:] = t[1:] ** (-beta)
    J = fractional_integral(GridFunction(step=step, values=vals), beta).values
    M = len(t) - 1
    P, Q = trapezoid_weights(beta, M, step)
    target = gamma(0.5)
    worst_s = 0.0
    K = 4
    for n in (200, 500, 1000):
        tn = t[n]
        exact_head = betainc(1.0 - beta, beta, K * step / tn) * beta_fn(1.0 - beta, beta)
        linear_head = sum(
            vals[j] * Q[n - j - 1] + vals[j + 1] * P[n - j - 1] for j in range(K)
        )
        fixed = J[n] + (exact_head - linear_head) / gamma(beta)
        worst_s = max(worst_s, abs(fixed - target))
    details["singular_identity_error"] = worst_s
    ok &= worst_s < 1e-3

    worst_i = 0.0
    for beta in (0.3, 0.6):
        f = np.sin(2.0 * t) * t
        Jf = fractional_integral(GridFunction(step=step, values=f), 1.0 - beta)
        d = riemann_liouville_derivative(Jf, beta).values   # order 1-beta derivative
        worst_i = max(worst_i, float(np.max(np.abs(d - f)) / np.max(np.abs(f))))
    details["inversion_relative_error"] = worst_i
    ok &= worst_i < 1e-2
    return ok, details


@_criterion(5, "Kalman-Bucy oracle for the classical solver", budget_s=120.0)
def criterion_5():
    """Normalized Zakai moments track the Kalman-Bucy reference on a linear model."""
    a, sig, c = -1.0, np.sqrt(2.0), 1.0
    model = named_model("ou-linear", 0.5, a=a, sigma_const=sig, c=c)
    step = 1e-3
    _, Z = simulate_classical_pair(model, 2.0, step, seed=2024)
    grid = SpatialGrid(-8.0, 8.0, 800)
    U = solve_zakai(model, grid, Z)
    mref, pref = kalman_bucy_reference(a, sig, c, Z, m0=0.0, p0=1.0)
    sup_m = 0.0
    sup_v = 0.0
    for k in range(0, len(Z.times), 20):
        dens, _ = normalize(U, Z.times[k])
        m, v = grid_moments(grid, dens)
        sup_m = max(sup_m, abs(m - mref[k]))
        sup_v = max(sup_v, abs(v - pref[k]))
    tol = 5e-2
    return (sup_m < tol and sup_v < tol,
            {"sup_mean_error": sup_m, "sup_var_error": sup_v, "tolerance": tol})


@_criterion(6, "pathwise fractional oracle (composition identity)", budget_s=300.0)
def criterion_6():
    """Pathwise oracle: fractional solution equals the classical one at the random clock."""
    beta = 0.5
    # relaxing (non-stationary) initial density so the comparison has dynamics
    model = named_model("ou-linear", beta, mean0=1.0, std0=0.7)
    grid = SpatialGrid(-6.0, 6.0, 48)
    step = 1e-3
    D, T = sample_inverse_path(beta, 1.0, step, seed=7, n_nodes=1001)
    tau_max = float(np.max(T.values))
    _, Z = simulate_classical_pair(model, tau_max * 1.02 + step, step, seed=8)
    U = solve_zakai(model, grid, Z)
    Phi = solve_fractional_zakai(model, grid, T, Z)
    rows = pathwise_oracle_report(Phi, U, T, [0.25, 0.5, 1.0])
    worst = max(r["l1"] for r in rows)
    tol = 5e-2
    return worst < tol, {"worst_l1": worst, "tolerance": tol, "tau_max": tau_max}


@_criterion(7, "subordination identity (quadrature vs ensemble vs kernel solver)",
            budget_s=600.0)
def criterion_7():
    """Subordination identity, observation-free case: g-quadrature of the classical
    flow vs the average of 1000 fractional solves vs the kernel-mode solve."""
    beta, t_eval = 0.5, 1.0
    base = named_model("ou-linear", beta, mean0=1.0, std0=0.7)
    grid = SpatialGrid(-6.0, 6.0, 48)
    # g-quadrature of the h = 0 classical flow, and the kernel-mode solve, which
    # marches the deterministic time-fractional equation directly
    model, zeros, quadr, kernel = quadrature_and_kernel(base, grid, t_eval, 2e-3)

    solves = []
    for i in range(1000):
        _, T = sample_inverse_path(beta, t_eval, 1e-2, seed=1000 + i, n_nodes=101)
        solves.append(solve_fractional_zakai(model, grid, T, zeros))
    ens = subordinate_filter(beta, t_eval, solves)
    dist_ens = l1_distance(grid, quadr, ens)
    dist_kernel = l1_distance(grid, quadr, kernel.at_time(t_eval))
    tol = 1e-2
    return (dist_ens < tol and dist_kernel < tol,
            {"l1_ensemble": dist_ens, "l1_kernel": dist_kernel, "tolerance": tol})


@_criterion(8, "classical limit beta=0.999 (kernel memory, unit clock)", budget_s=120.0)
def criterion_8():
    """beta -> 1 limit of the fractional kernel: unit-slope clock reproduces solve_zakai.

    Uses the bounded-observation model (the theory's boundedness condition);
    the kernel mode's additive observation coupling has noise error scaling
    with sup|h|^2 sqrt(dt), so an unbounded h would need impractical steps.
    """
    beta = 0.999
    base = named_model("benes-like", beta)
    model = replace(base, p0=gaussian_density(-0.8, 0.8), name="benes-relax")
    grid = SpatialGrid(-6.0, 6.0, 48)
    step = 1e-3
    horizon = 1.0
    _, Z = simulate_classical_pair(model, horizon + step, step, seed=99)
    U = solve_zakai(model, grid, Z)
    T = unit_slope_inverse(horizon, step)
    Phi = solve_fractional_zakai(model, grid, T, Z, memory="kernel")
    dist = l1_distance(grid, Phi.at_time(horizon), U.at_time(horizon))
    tol = 5e-2
    return dist < tol, {"l1": dist, "tolerance": tol}


@_criterion(9, "Monte-Carlo consistency (particles vs grid posterior)", budget_s=300.0)
def criterion_9():
    """Particle Kallianpur-Striebel estimate vs normalized Zakai posterior mean."""
    model = named_model("ou-linear", 0.5)
    step = 1e-3
    _, Z = simulate_classical_pair(model, 2.0, step, seed=314)
    grid = SpatialGrid(-8.0, 8.0, 800)
    U = solve_zakai(model, grid, Z)
    ks = kallianpur_striebel_estimate(model, Z, lambda x: x, n_particles=10_000, seed=55)
    checkpoints = [0.4, 0.8, 1.2, 1.6, 2.0]
    worst_ratio = 0.0
    for t in checkpoints:
        k = int(round(t / step))
        dens, _ = normalize(U, t)
        m, _ = grid_moments(grid, dens)
        se = max(ks.posterior_sd[k], 1e-12)
        worst_ratio = max(worst_ratio, abs(ks.values[k] - m) / (3.0 * se))
    return (worst_ratio < 1.0 and not ks.weight_collapse,
            {"worst_error_over_3se": worst_ratio, "weight_collapse": ks.weight_collapse})


@_criterion(10, "jump suite (finite-activity filters)", budget_s=600.0)
def criterion_10():
    """Jump suite: degenerations, martingale means, hand-computed likelihood, equation residual."""
    details = {}
    ok = True
    beta = 0.5

    # (a) lam0 = 0 state-jump solver degenerates to the diffusion solver exactly
    base = named_model("ou-linear", beta)
    jump_model = replace(base, name="ou+jumps0", jumps=JumpSpec(
        intensity=0.0, atoms=[(0.3, 1.0)], state_jump_map=lambda x, w: np.full_like(x, w)))
    grid = SpatialGrid(-6.0, 6.0, 32)
    step = 2e-3
    horizon = 0.25
    _, Z = simulate_classical_pair(base, horizon + step, step, seed=17)
    T = unit_slope_inverse(horizon, step)
    Phi_a = solve_fractional_zakai(jump_model, grid, T, Z)
    Phi_b = solve_fractional_zakai(base, grid, T, Z)
    d_deg = float(np.max(np.abs(Phi_a.values - Phi_b.values)))
    details["state_jump_degeneration"] = d_deg
    ok &= d_deg == 0.0

    # lam0 = 0 path simulation equals the classical state path per seed
    jpath = levy_ext.simulate_jump_state(jump_model, horizon=1.0, step=1e-3, seed=23)
    ypath, _ = simulate_classical_pair(base, 1.0, 1e-3, seed=23)
    d_path = float(np.max(np.abs(jpath.values - ypath.values)))
    details["state_path_degeneration"] = d_path
    ok &= d_path == 0.0

    # (b) martingale means under the reference measure, 1e5 paths
    rng = np.random.Generator(np.random.Philox(key=777))
    n, m = 100_000, 200
    dt_m = 1.0 / m
    y = rng.normal(0.0, 1.0, n)
    logw = np.zeros(n)
    for _ in range(m):
        dz = np.sqrt(dt_m) * rng.standard_normal(n)
        logw += y * dz - 0.5 * y * y * dt_m
        y += -y * dt_m + np.sqrt(2.0 * dt_m) * rng.standard_normal(n)
    lam_mean = np.exp(logw)
    err_cont = abs(lam_mean.mean() - 1.0) / (lam_mean.std(ddof=1) / np.sqrt(n))
    details["continuous_martingale_z"] = float(err_cont)
    ok &= err_cont < 3.0

    jm = named_model("jump-poisson", beta)
    nu_tot = jm.jumps.intensity
    xs = np.empty((n, m + 1))
    xs[:, 0] = rng.normal(0.0, 1.0, n)
    for k in range(m):
        xs[:, k + 1] = xs[:, k] - xs[:, k] * dt_m + np.sqrt(2.0 * dt_m) * rng.standard_normal(n)
    logw = np.zeros(n)
    for w, p in jm.jumps.atoms:
        lam_grid = 1.0 + 0.5 * w * np.tanh(xs[:, :-1])
        logw += nu_tot * p * (1.0 - lam_grid).sum(axis=1) * dt_m
    counts = rng.poisson(nu_tot * 1.0, n)
    maxc = counts.max()
    for _ in range(maxc):
        alive = counts > 0
        times_ev = rng.uniform(0.0, 1.0, n)
        marks = rng.choice(jm.jumps.marks, size=n, p=jm.jumps.probabilities)
        idx = np.minimum((times_ev / dt_m).astype(int), m - 1)
        lam_ev = 1.0 + 0.5 * marks * np.tanh(xs[np.arange(n), idx])
        logw += np.where(alive, np.log(lam_ev), 0.0)
        counts -= alive.astype(int)
    jump_weights = np.exp(logw)
    err_jump = abs(jump_weights.mean() - 1.0) / (jump_weights.std(ddof=1) / np.sqrt(n))
    details["jump_martingale_z"] = float(err_jump)
    ok &= err_jump < 3.0

    # (c) hand-computed single-event likelihood: lam = 2, one event at s = 0.5, t = 1
    const_model = ModelSpec(
        drift=lambda x: np.zeros_like(np.asanyarray(x, float)),
        sigma=lambda x: np.ones_like(np.asanyarray(x, float)),
        observation=lambda x: np.zeros_like(np.asanyarray(x, float)),
        beta=beta, p0=base.p0,
        jumps=JumpSpec(intensity=1.0, atoms=[(1.0, 1.0)],
                       obs_rate=lambda t, x, w: 2.0 * np.ones_like(np.asanyarray(x, float))),
    )
    times = np.linspace(0.0, 1.0, 1001)
    obs = ObservationRecord(times=times, values=np.zeros(1001), events=((0.5, 1.0),))
    Xconst = StatePath(times=times, values=np.zeros(1001))
    L = likelihood_path(const_model, Xconst, obs)
    errL = abs(L.values[-1] - 2.0 * np.exp(-1.0))
    details["single_event_error"] = float(errL)
    ok &= errL < 1e-3

    # (d) equation residual of the jump-observation filter on f(x) = x
    _, T = sample_inverse_path(beta, 1.0, 1e-3, seed=909, n_nodes=2001)
    X = simulate_time_changed_state_direct(jm, T, seed=910)
    obs = levy_ext.simulate_jump_observation(jm, X, T, seed=911)
    f = lambda x: x
    res = levy_ext.fractional_filter_jump_obs(
        jm, T, obs, f, n_particles=4000, seed=912,
        residual_test_functions=[(f, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))],
    )
    r = res.residuals[0]
    z_resid = abs(r["residual"]) / max(r["se"], 1e-300)
    details["equation_residual_z"] = float(z_resid)
    ok &= z_resid < 3.0

    # nu = 0 degeneration: filter equals the continuous-observation particle
    # estimate on the time-changed pair, same seed, to machine precision
    nu0 = replace(jm, jumps=JumpSpec(intensity=0.0, atoms=[(1.0, 1.0)], obs_rate=jm.jumps.obs_rate))
    obs0 = ObservationRecord(times=T.times, values=obs.values)
    res0 = levy_ext.fractional_filter_jump_obs(nu0, T, obs0, f, n_particles=500, seed=321)
    ks = kallianpur_striebel_estimate(nu0, obs0, f, n_particles=500, seed=321,
                                      dt_weights=np.diff(T.values))
    d_nu0 = float(np.max(np.abs(res0.posterior - ks.values)))
    details["nu0_degeneration"] = d_nu0
    ok &= d_nu0 < 1e-10
    return ok, details


@_criterion(11, "determinism: byte-identical CSV per seed")
def criterion_11():
    """Identical seeds produce byte-identical CSV artifacts."""
    from .cli import run_experiment

    cfg_text = "\n".join([
        "run = density",
        "beta = 0.5",
        "seed = 4242",
    ])
    cfg_oracle = "\n".join([
        "run = oracle",
        "beta = 0.5",
        "seed = 4242",
        "horizon = 0.25",
        "step = 2e-3",
        "grid.cells = 32",
        "checkpoints = 0.1 0.25",
    ])
    identical = True
    produced = 0
    with tempfile.TemporaryDirectory() as tmp:
        for text, tag in [(cfg_text, "density"), (cfg_oracle, "oracle")]:
            outs = []
            for rep in ("a", "b"):
                cfg = parse_config(text)
                cfg.out_dir = os.path.join(tmp, f"{tag}_{rep}")
                status, files = run_experiment(cfg)
                outs.append(sorted(f for f in files if f.endswith(".csv")))
            if [os.path.basename(f) for f in outs[0]] != [os.path.basename(f) for f in outs[1]]:
                identical = False
                continue
            for fa, fb in zip(*outs):
                produced += 1
                if not filecmp.cmp(fa, fb, shallow=False):
                    identical = False
    return identical and produced > 0, {"csv_files_compared": produced}


def run_all(only=None, verbose: bool = False) -> list[CheckResult]:
    results = []
    for fn in ALL_CRITERIA:
        if only is not None and fn.number not in only:
            continue
        res = fn()
        results.append(res)
        if verbose:
            print(res.line(), flush=True)
    return results

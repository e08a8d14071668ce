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
import json
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
    kallianpur_striebel_estimate,
    simulate_classical_pair,
    simulate_time_changed_state_direct,
)
from . import levy_ext
from .subordinator import (
    InversePath,
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
)


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    runtime_s: float
    details: dict = field(default_factory=dict)
    budget_s: float = math.inf

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extras = ", ".join(f"{k}={v:.3g}" if isinstance(v, float) else f"{k}={v}"
                           for k, v in self.details.items())
        return f"criterion {self.number:02d} {status}  {self.name}  ({self.runtime_s:.1f}s)  [{extras}]"

    def as_json(self) -> str:
        """One JSON object: the result, its budget and the margin runtime_s / budget_s,
        both null where the budget is not finite and positive."""
        finite = 0.0 < self.budget_s < math.inf
        return json.dumps({
            "number": self.number, "name": self.name, "passed": self.passed,
            "details": self.details, "runtime_s": self.runtime_s,
            "budget_s": self.budget_s if finite else None,
            "margin": self.runtime_s / self.budget_s if finite else None,
        }, default=lambda v: v.item())   # numpy scalars in details


def _panel_quad(fn, lo: float, hi: float, panels: int = 8, order: int = 64) -> float:
    nodes, wts = roots_legendre(order)
    edges = np.linspace(lo, hi, panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        half = 0.5 * (b - a)
        x = 0.5 * (a + b) + half * nodes
        total += half * float(np.dot(fn(x), wts))
    return total


# pass rules that `fracfilt run` kinds share with a criterion
CLOSED_FORM_TOL = 1e-6       # criterion 1, run = density: beta = 1/2 scaled error
PATHWISE_L1_TOL = 5e-2       # criterion 6, run = oracle: l1 at each checkpoint
SUBORDINATION_L1_TOL = 1e-2  # criterion 7, run = subordinate: l1 to the quadrature
RESIDUAL_Z_TOL = 3.0         # criterion 10(d), run = jump-filter: |residual| / se below this


def density_table(beta: float):
    """(T, TAU, G, err): g_t(tau) on the 100 x 100 (t, tau) table, and its scaled
    error from the beta = 1/2 closed form, or None at any other beta."""
    ts = np.linspace(0.05, 2.0, 100)
    taus = np.linspace(0.0, 4.0, 100)
    T, TAU = np.meshgrid(ts, taus, indexing="ij")
    G = inverse_density_grid(beta, T.ravel(), TAU.ravel()).reshape(T.shape)
    if abs(beta - 0.5) >= 1e-12:
        return T, TAU, G, None
    exact = np.exp(-TAU ** 2 / (4.0 * T)) / np.sqrt(np.pi * T)
    return T, TAU, G, float(np.max(np.abs(G - exact)) / exact.max())


def jump_residual_filter(model: ModelSpec, T: InversePath, n_particles: int, seed: int):
    """(X, obs, res, z): a state path on the clock T, its jump observation, the
    jump-observation filter of f(x) = x with the equation residual of that f, and
    the residual's |residual| / se; the draws use seeds seed, seed + 1 and seed + 2."""
    X = simulate_time_changed_state_direct(model, T, seed)
    obs = levy_ext.simulate_jump_observation(model, X, T, seed + 1)
    f = lambda x: x
    res = levy_ext.fractional_filter_jump_obs(
        model, T, obs, f, n_particles, seed + 2,
        residual_test_functions=[(f, lambda x: np.ones_like(x), lambda x: np.zeros_like(x))],
    )
    r = res.residuals[0]
    return X, obs, res, float(abs(r["residual"]) / max(r["se"], 1e-300))


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
            return CheckResult(number, name, bool(passed) and rt < budget_s, rt, details, budget_s)

        run.number = number
        run.budget_s = budget_s
        ALL_CRITERIA.append(run)
        return run

    return register


@_criterion(1, "inverse-density closed form (beta=1/2)", budget_s=10.0)
def criterion_1():
    """beta = 1/2 closed form of the inverse density on a 100 x 100 (t, tau) grid."""
    err = density_table(0.5)[3]
    return err < CLOSED_FORM_TOL, {"scaled_error": err, "tolerance": CLOSED_FORM_TOL}


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
    return worst < PATHWISE_L1_TOL, {"worst_l1": worst, "tolerance": PATHWISE_L1_TOL,
                                     "tau_max": tau_max}


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

    n_solves = 1000
    total = 0
    for i in range(n_solves):
        _, T = sample_inverse_path(beta, t_eval, 1e-2, seed=1000 + i, n_nodes=101)
        total += solve_fractional_zakai(model, grid, T, zeros).at_time(t_eval)
    ens = total / n_solves
    dist_ens = l1_distance(grid, quadr, ens)
    dist_kernel = l1_distance(grid, quadr, kernel.at_time(t_eval))
    tol = SUBORDINATION_L1_TOL
    return (dist_ens < tol and dist_kernel < tol,
            {"l1_ensemble": dist_ens, "l1_kernel": dist_kernel, "tolerance": tol})


@_criterion(8, "classical limit beta=0.999 (kernel memory, unit clock)", budget_s=120.0)
def criterion_8():
    """beta -> 1 limit of the fractional kernel: unit-slope clock reproduces solve_zakai.

    Uses the bounded-observation model (the theory's boundedness condition);
    kernel mode's exact observation factor serves an unbounded h at this step too.
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
    """Jump suite: degenerations, E_ref[Lambda_1] = 1 for the library's likelihood
    (continuous and marked-event), hand-computed likelihood, equation residual."""
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

    # (b) E_ref[Lambda_1] = 1 for the library's likelihood: the particle loop with
    # f = 1 gives the particle mean of Lambda_1, on independent reference-measure
    # records (Z a Brownian motion; Poisson(nu) events, marks drawn from the atoms)
    rng = np.random.Generator(np.random.Philox(key=777))
    clock = unit_slope_inverse(1.0, 0.04)
    sqrt_dt = np.sqrt(np.diff(clock.times))

    def martingale_z(model):
        lam1 = np.empty(400)
        for i in range(len(lam1)):
            z = np.concatenate(([0.0], np.cumsum(sqrt_dt * rng.standard_normal(sqrt_dt.size))))
            events = ()
            if model.jumps is not None:
                n_ev = rng.poisson(model.jumps.intensity)
                ev_times = np.sort(rng.uniform(0.0, 1.0, n_ev))
                marks = rng.choice(model.jumps.marks, n_ev, p=model.jumps.probabilities)
                events = tuple(zip(ev_times.tolist(), marks.tolist()))
            lam1[i] = levy_ext.fractional_filter_jump_obs(
                model, clock, ObservationRecord(clock.times, z, events),
                np.ones_like, 100, seed=i).unnormalized[-1]
        return float(abs(lam1.mean() - 1.0) / (lam1.std(ddof=1) / np.sqrt(len(lam1))))

    err_cont = martingale_z(base)
    details["continuous_martingale_z"] = err_cont
    ok &= err_cont < 3.0

    # jump-poisson's rate 1 + 0.5 w tanh(x) averages to 1 over its marks +-1, so its
    # compensator sum_w p_w (1 - lam(x, w)) is 0 at every x and no fault there can
    # show; this rate averages to 1 + 0.5 tanh(x)^2 and never drops below 0.5
    jm = named_model("jump-poisson", beta)
    err_jump = martingale_z(replace(jm, jumps=JumpSpec(
        intensity=2.0, atoms=jm.jumps.atoms,
        obs_rate=lambda t, x, w: 1.0 + 0.5 * w * np.tanh(x) + 0.5 * np.tanh(x) ** 2)))
    details["jump_martingale_z"] = err_jump
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
    # with h = 0 and lam = 2 every particle carries the same weight, Lambda_1
    times = np.linspace(0.0, 1.0, 1001)
    obs = ObservationRecord(times=times, values=np.zeros(1001), events=((0.5, 1.0),))
    L1 = levy_ext.fractional_filter_jump_obs(const_model, InversePath(times, times), obs,
                                             np.ones_like, n_particles=100, seed=0).unnormalized[-1]
    errL = abs(L1 - 2.0 * np.exp(-1.0))
    details["single_event_error"] = float(errL)
    ok &= errL < 1e-3

    # (d) equation residual of the jump-observation filter on f(x) = x
    _, T = sample_inverse_path(beta, 1.0, 1e-3, seed=909, n_nodes=2001)
    _, obs, _, z_resid = jump_residual_filter(jm, T, n_particles=4000, seed=910)
    details["equation_residual_z"] = z_resid
    ok &= z_resid < RESIDUAL_Z_TOL

    # nu = 0 degeneration: filter equals the continuous-observation filter of
    # the channel-free model on the time-changed pair, same seed, to machine precision
    nu0 = replace(jm, jumps=JumpSpec(intensity=0.0, atoms=[(1.0, 1.0)], obs_rate=jm.jumps.obs_rate))
    obs0 = ObservationRecord(times=T.times, values=obs.values)
    f = lambda x: x
    res0 = levy_ext.fractional_filter_jump_obs(nu0, T, obs0, f, n_particles=500, seed=321)
    cont = levy_ext.fractional_filter_jump_obs(replace(jm, jumps=None), T, obs0, f,
                                               n_particles=500, seed=321)
    d_nu0 = float(np.max(np.abs(res0.posterior - cont.posterior)))
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


def run_all(only=None, report=None) -> list[CheckResult]:
    """Run the criteria numbered in only (all by default), calling report(result)
    as each one finishes."""
    results = []
    for fn in ALL_CRITERIA:
        if only is not None and fn.number not in only:
            continue
        res = fn()
        results.append(res)
        if report is not None:
            report(res)
    return results

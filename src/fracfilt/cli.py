"""Experiment runner: `fracfilt run <config> [--seed N] [--out DIR]` and
`fracfilt check [--only N,M] [--json]`.

Every run writes CSV artifacts plus a `run_summary.txt` of key = value pairs
including tolerances and pass flags; the process exits 0 only when every
enabled check passed.  Exit codes: 0 pass, 1 check failure, 2 usage or config
error, 3 numerical failure.  The output directory is the config's `out` key,
or `--out`; `--seed` gets the same parse and range check as the config's `seed`.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import acceptance
from .config import ConfigError, ExperimentConfig, parse_config, parse_value
from .csvio import write_csv, write_summary
from .models import ModelSpec, SpatialGrid, named_model
from .sde_sim import simulate_classical_pair, time_change_pair
from .subordinator import sample_inverse_path
from .zakai_classical import grid_moments, solve_zakai
from .zakai_fractional import (
    l1_distance,
    pathwise_oracle_report,
    quadrature_and_kernel,
    solve_fractional_zakai,
)
# not called here; perfbench's tracer patches these names on this module
from .models import adjoint_matrix
from .subordinator import invert_path, sample_stable_path
from .zakai_fractional import subordinate_filter


def _build_model(cfg: ExperimentConfig) -> ModelSpec:
    base = named_model(cfg.model, cfg.beta)
    drift, sigma, obs = cfg.coefficient_overrides()
    if drift is None and sigma is None and obs is None:
        return base
    return replace(base, drift=drift or base.drift, sigma=sigma or base.sigma,
                   observation=obs or base.observation, name=cfg.model + "+custom")


def _grid(cfg: ExperimentConfig) -> SpatialGrid:
    return SpatialGrid(cfg.grid_lower, cfg.grid_upper, cfg.grid_cells)


def _clock(cfg: ExperimentConfig):
    """(D, T): the run's clock T on one node per step of [0, horizon], and the D it inverts."""
    return sample_inverse_path(cfg.beta, cfg.horizon, cfg.step, cfg.seed,
                               round(cfg.horizon / cfg.step) + 1)


def _clock_run(cfg: ExperimentConfig):
    """(model, T, Y, Z): a clock run's model and clock, and the classical pair over
    the operational horizon of the D that T inverts."""
    model = _build_model(cfg)
    D, T = _clock(cfg)
    Y, Z = simulate_classical_pair(model, D.times[-1], cfg.step, cfg.seed + 1)
    return model, T, Y, Z


# ---------------------------------------------------------------------------
# run kinds
# ---------------------------------------------------------------------------

def _run_density(cfg, out):
    T, TAU, G, err = acceptance.density_table(cfg.beta)
    rows = zip(T.ravel(), TAU.ravel(), G.ravel())
    files = [write_csv(os.path.join(out, "g_density.csv"), ["t", "tau", "g"], rows)]
    summary = {"run": "density", "beta": cfg.beta,
               "tolerance_closed_form": acceptance.CLOSED_FORM_TOL}
    passed = True
    if err is not None:
        passed = err < acceptance.CLOSED_FORM_TOL
        summary["closed_form_scaled_error"] = err
        summary["closed_form_pass"] = passed
    summary["pass"] = passed
    return passed, summary, files


def _run_simulate(cfg, out):
    _, T, Y, Z = _clock_run(cfg)
    X, V = time_change_pair(Y, Z, T)
    rows = zip(T.times, Y.at(T.times), Z.at(T.times), T.values, X.values, V.values)
    files = [write_csv(os.path.join(out, "paths.csv"), ["t", "Y", "Z", "T", "X", "V"], rows)]
    summary = {"run": "simulate", "beta": cfg.beta, "pass": True}
    return True, summary, files


def _run_zakai(cfg, out):
    model = _build_model(cfg)
    _, Z = simulate_classical_pair(model, cfg.horizon, cfg.step, cfg.seed)
    return _density_run(cfg, out, "zakai", solve_zakai(model, _grid(cfg), Z))


def _run_frac_zakai(cfg, out):
    model, T, _, Z = _clock_run(cfg)
    return _density_run(cfg, out, "frac-zakai", solve_fractional_zakai(model, _grid(cfg), T, Z), T)


def _run_oracle(cfg, out):
    model, T, _, Z = _clock_run(cfg)
    grid = _grid(cfg)
    U = solve_zakai(model, grid, Z)
    Phi = solve_fractional_zakai(model, grid, T, Z)
    rows = pathwise_oracle_report(Phi, U, T, cfg.checkpoints)
    passed = all(r["l1"] < acceptance.PATHWISE_L1_TOL for r in rows)
    files = [
        write_csv(
            os.path.join(out, "oracle_report.csv"),
            ["checkpoint", "tau", "l1", "sup"],
            [(r["checkpoint"], r["tau"], r["l1"], r["sup"]) for r in rows],
        )
    ]
    summary = {
        "run": "oracle", "beta": cfg.beta, "tolerance_l1": acceptance.PATHWISE_L1_TOL,
        "clamped_mass": Phi.clamped_mass, "classical_clamped_mass": U.clamped_mass,
        "pass": passed,
    }
    for r in rows:
        summary[f"l1_at_{r['checkpoint']:g}"] = r["l1"]
    return passed, summary, files


def _run_subordinate(cfg, out):
    grid = _grid(cfg)
    _, _, quadr, Phi = quadrature_and_kernel(_build_model(cfg), grid, cfg.horizon, cfg.step)
    frac = Phi.at_time(cfg.horizon)
    dist = l1_distance(grid, quadr, frac)
    passed = dist < acceptance.SUBORDINATION_L1_TOL
    rows = zip(grid.nodes, quadr, frac)
    files = [
        write_csv(os.path.join(out, "subordination.csv"), ["x", "subordinated", "fractional"], rows)
    ]
    summary = {
        "run": "subordinate", "beta": cfg.beta, "t": cfg.horizon,
        "kernel_step": float(Phi.times[1] - Phi.times[0]), "kernel_steps": len(Phi.times) - 1,
        "l1_distance": dist, "tolerance_l1": acceptance.SUBORDINATION_L1_TOL, "pass": passed,
    }
    return passed, summary, files


def _run_jump_filter(cfg, out):
    model = named_model("jump-poisson", cfg.beta)
    _, T = _clock(cfg)
    X, obs, res, z = acceptance.jump_residual_filter(model, T, cfg.particles, cfg.seed + 1)
    files = [
        write_csv(
            os.path.join(out, "jump_posterior.csv"),
            ["t", "posterior_mean", "unnormalized", "ess"],
            zip(res.times, res.posterior, res.unnormalized, res.ess),
        ),
        write_csv(
            os.path.join(out, "jump_events.csv"),
            ["time", "mark", "rate_multiplier"],
            [
                (t, w, float(np.asarray(model.jumps.obs_rate(t, X.at(t), w))))
                for (t, w) in obs.events
            ],
        ),
    ]
    r = res.residuals[0]
    passed = z < acceptance.RESIDUAL_Z_TOL and not res.weight_collapse
    summary = {
        "run": "jump-filter", "model": model.name, "beta": cfg.beta, "particles": cfg.particles,
        "equation_residual": r["residual"], "residual_se": r["se"],
        "tolerance": f"{acceptance.RESIDUAL_Z_TOL:g} standard errors",
        "weight_collapse": res.weight_collapse, "pass": passed,
    }
    return passed, summary, files


def _density_run(cfg, out, run, U, clock=None):
    """Snapshot and per-step summary CSVs of the density solution U, with the
    clock's value T_t on each snapshot row when a clock is given, and the run's
    summary; the mass of each row is read once, from U.mass()."""
    grid, times, values = U.grid, U.times, U.values
    mass = U.mass()
    header = ["t", "x", "U", "U_normalized"] + ([] if clock is None else ["beta", "T_t"])
    stride = max(1, (len(times) - 1) // 20)
    snap_rows = []
    for k in range(0, len(times), stride):
        norm = values[k] / mass[k] if mass[k] > 0 else np.zeros_like(values[k])
        extra = [] if clock is None else [cfg.beta, float(clock.values[k])]
        snap_rows += [[times[k], x, u, v, *extra] for x, u, v in zip(grid.nodes, values[k], norm)]
    sum_rows = []
    for k, m in enumerate(mass.tolist()):
        mean, var = grid_moments(grid, values[k] / m) if m > 0 else (float("nan"), float("nan"))
        sum_rows.append((times[k], m, mean, var))
    prefix = run.replace("-", "_")
    files = [
        write_csv(os.path.join(out, f"{prefix}_snapshots.csv"), header, snap_rows),
        write_csv(os.path.join(out, f"{prefix}_summary.csv"), ["t", "mass", "mean", "variance"],
                  sum_rows),
    ]
    ok = bool(np.all(np.isfinite(mass)))
    summary = {"run": run, "beta": cfg.beta, "final_mass": float(mass[-1])}
    if clock is None:
        ok = ok and bool(mass[-1] > 0.0)
    else:
        summary["time_steps"] = len(times) - 1
    summary.update({"clamped_mass": U.clamped_mass, "pass": ok})
    return ok, summary, files


_RUNNERS = {
    "density": _run_density,
    "simulate": _run_simulate,
    "zakai": _run_zakai,
    "frac-zakai": _run_frac_zakai,
    "oracle": _run_oracle,
    "subordinate": _run_subordinate,
    "jump-filter": _run_jump_filter,
}


def run_experiment(cfg: ExperimentConfig) -> tuple[int, list[str]]:
    """Execute one run kind; returns (exit status, emitted file paths)."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    try:
        passed, summary, files = _RUNNERS[cfg.run](cfg, out)
    except (ValueError, RuntimeError, FloatingPointError, MemoryError) as exc:
        write_summary(os.path.join(out, "run_summary.txt"),
                      {"run": cfg.run, "error": str(exc), "pass": False})
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3, []
    summary.setdefault("seed", cfg.seed)
    files.append(write_summary(os.path.join(out, "run_summary.txt"), summary))
    return (0 if passed else 1), files


def _criterion_numbers(text: str) -> set[int]:
    """--only value: comma-separated numbers of existing acceptance criteria."""
    count = len(acceptance.ALL_CRITERIA)
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isdecimal() and 1 <= int(p) <= count for p in parts):
        raise argparse.ArgumentTypeError(f"expected criterion numbers 1-{count}, got {text!r}")
    return {int(p) for p in parts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fracfilt", description=__doc__)
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="execute a config file")
    runp.add_argument("config_path")
    runp.add_argument("--seed", default=None, help="override the config seed")
    runp.add_argument("--out", default=None, help="override the output directory")
    checkp = sub.add_parser("check", help="run the built-in acceptance suite")
    checkp.add_argument("--only", type=_criterion_numbers, default=None,
                        help="comma-separated criterion numbers")
    checkp.add_argument("--json", action="store_true",
                        help="one JSON object per criterion, with its budget and margin")
    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            with open(args.config_path) as fh:
                cfg = parse_config(fh.read())
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return 2
        except ConfigError as exc:
            for p in exc.problems:
                print(f"config error: {p}", file=sys.stderr)
            return 2
        if args.seed is not None:
            try:
                cfg.seed = parse_value("seed", args.seed)
            except ValueError as exc:
                print(f"config error: {exc} (--seed {args.seed})", file=sys.stderr)
                return 2
        if args.out is not None:
            cfg.out_dir = args.out
        status, files = run_experiment(cfg)
        for f in files:
            print(f"wrote {f}")
        return status

    if args.command == "check":
        show = acceptance.CheckResult.as_json if args.json else acceptance.CheckResult.line
        results = acceptance.run_all(only=args.only, report=lambda r: print(show(r), flush=True))
        return 0 if all(r.passed for r in results) else 1

    parser.print_help()
    return 2


if __name__ == "__main__":
    sys.exit(main())

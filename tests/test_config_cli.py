import hashlib
import json
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from fracfilt import acceptance, cli, config
from fracfilt.cli import main, run_experiment
from fracfilt.config import ConfigError, ExperimentConfig, compile_expression, parse_config


class TestExpressionGrammar:
    def test_basic_arithmetic_over_x(self):
        f = compile_expression("-x + 2*x/4")
        xs = np.linspace(-2, 2, 11)
        assert np.allclose(f(xs), -xs + 0.5 * xs)

    def test_whitelisted_functions(self):
        f = compile_expression("tanh(x) + exp(-x) * sin(2*x)")
        xs = np.linspace(-1, 1, 7)
        assert np.allclose(f(xs), np.tanh(xs) + np.exp(-xs) * np.sin(2 * xs))

    def test_constants(self):
        f = compile_expression("pi * x + e")
        assert f(np.array([1.0]))[0] == pytest.approx(np.pi + np.e)

    def test_scalar_broadcast(self):
        f = compile_expression("1.5")
        out = f(np.linspace(0, 1, 5))
        assert out.shape == (5,)
        assert np.all(out == 1.5)

    REJECTIONS = [
        ("x ** 2", "operator Pow"),          # power operator not in the grammar
        ("cos(x)", "only tanh/exp/sin"),     # function not whitelisted
        ("__import__('os')", "only tanh/exp/sin"),
        ("y + 1", "unknown name 'y'"),
        ("x; x", "bad expression"),          # not an expression
        ("tanh(x, 2)", "exactly one argument"),
        ("not x", "unary Not"),
        ("~x", "unary Invert"),
        ("'a' + x", "only numeric literals"),
        ("1j * x", "only numeric literals"),
        ("x[0]", "construct Subscript"),
        ("x if x else 1", "construct IfExp"),
    ]

    @pytest.mark.parametrize("bad,match", REJECTIONS, ids=[bad for bad, _ in REJECTIONS])
    def test_rejections(self, bad, match):
        with pytest.raises(ValueError, match=match):
            compile_expression(bad)


class TestParseConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config("model = ou-linear\nbeta = 0.5\nrun = oracle\n")
        assert cfg.run == "oracle"
        assert cfg.model == "ou-linear"
        assert cfg.beta == 0.5
        assert cfg.seed == 12345
        assert cfg.particles == 10_000

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# header\n\nbeta = 0.25  # inline comment\n")
        assert cfg.beta == 0.25

    def test_beta_range_rejected_with_line(self):
        with pytest.raises(ConfigError) as err:
            parse_config("run = density\nbeta = 1.5\n")
        assert any("line 2" in p and "(0, 1)" in p for p in err.value.problems)

    def test_line_without_equals_sign(self):
        with pytest.raises(ConfigError) as err:
            parse_config("beta = 0.5\nseed 7\n")
        assert err.value.problems == ["line 2: expected key = value, got 'seed 7'"]

    def test_duplicate_key_reports_both_lines(self):
        with pytest.raises(ConfigError) as err:
            parse_config("beta = 0.5\nseed = 1\nbeta = 0.7\n")
        msg = "; ".join(err.value.problems)
        assert "line 3" in msg and "line 1" in msg and "duplicate" in msg

    def test_unknown_key(self):
        # ensemble was a key that no run kind read
        for line in ("bogus = 1", "ensemble = 5"):
            with pytest.raises(ConfigError) as err:
                parse_config(line + "\n")
            assert "unknown key" in err.value.problems[0]

    def test_unknown_model(self):
        with pytest.raises(ConfigError) as err:
            parse_config("run = zakai\nmodel = bogus\n")
        assert "line 2" in err.value.problems[0] and "unknown model" in err.value.problems[0]

    @pytest.mark.parametrize("kind", ["bogus", "benchmark"])
    def test_unknown_run_kind_rejected_with_line(self, kind):
        # benchmark was a timing table; perfbench/ times those operations now
        with pytest.raises(ConfigError) as err:
            parse_config(f"beta = 0.5\nrun = {kind}\n")
        assert "line 2" in err.value.problems[0] and "unknown run kind" in err.value.problems[0]

    def test_run_kinds_match_runners(self):
        assert set(config.RUN_KINDS) == set(cli._RUNNERS)

    @pytest.mark.parametrize("checkpoints", ["0.25 0.5 1.0", "0 0.25", "-0.1"])
    def test_oracle_checkpoint_outside_horizon_rejected(self, checkpoints):
        text = f"run = oracle\nhorizon = 0.5\nstep = 2e-3\ncheckpoints = {checkpoints}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "checkpoints must lie in (0, horizon" in err.value.problems[0]

    def test_checkpoints_beyond_horizon_allowed_for_other_runs(self):
        # the checkpoints only mean something to run = oracle
        cfg = parse_config("run = subordinate\nhorizon = 0.5\nstep = 1e-3\n")
        assert cfg.checkpoints == (0.25, 0.5, 1.0)

    @pytest.mark.parametrize("horizon,step", [(1.0, 0.75), (1.0, 0.3), (0.25, 2.4e-3)])
    def test_horizon_not_whole_steps_rejected(self, horizon, step):
        with pytest.raises(ConfigError) as err:
            parse_config(f"run = zakai\nhorizon = {horizon}\nstep = {step}\n")
        assert "whole number of steps" in err.value.problems[0]

    @pytest.mark.parametrize("horizon,step", [(0.05, 1e-3), (0.1, 1e-3), (0.25, 2e-3)])
    def test_horizon_whole_steps_accepted_despite_rounding(self, horizon, step):
        # 0.05 / 1e-3 is 50.000000000000004 in float64
        cfg = parse_config(f"run = zakai\nhorizon = {horizon}\nstep = {step}\n")
        assert cfg.horizon == horizon and cfg.step == step

    def test_bad_number(self):
        with pytest.raises(ConfigError) as err:
            parse_config("step = fast\n")
        assert "line 1" in err.value.problems[0]

    def test_empty_checkpoints_rejected_with_line(self):
        # an empty list let run = oracle pass having compared nothing
        with pytest.raises(ConfigError) as err:
            parse_config("run = oracle\ncheckpoints =\n")
        assert "line 2" in err.value.problems[0] and "checkpoints" in err.value.problems[0]

    def test_expression_validation_at_parse_time(self):
        with pytest.raises(ConfigError) as err:
            parse_config("model.drift = x ** 3\n")
        assert "line 1" in err.value.problems[0]

    def test_custom_coefficients_compile(self):
        cfg = parse_config("model.drift = tanh(x)\nmodel.sigma = 1 + 0*x\n")
        drift, sigma, obs = cfg.coefficient_overrides()
        assert obs is None
        assert np.allclose(drift(np.array([0.3])), np.tanh(0.3))
        assert sigma(np.array([2.0]))[0] == 1.0

    # a value other than the default for every field, each valid on its own
    SAMPLES = {
        "run": "zakai", "model": "benes-like", "beta": 0.25, "seed": 2 ** 63 - 1,
        "horizon": 2.0, "step": 2e-3, "particles": 500, "out_dir": "elsewhere",
        "grid_lower": -5.5, "grid_upper": 6.0, "grid_cells": 40,
        "drift_expr": "tanh(x)", "sigma_expr": "1 + 0*x", "obs_expr": "2*x",
        "checkpoints": (0.125, 0.75),
    }

    def test_every_field_has_one_key(self):
        keys = [f.metadata.get("key") for f in fields(ExperimentConfig)]
        assert None not in keys
        assert len(set(keys)) == len(keys)
        assert set(self.SAMPLES) == {f.name for f in fields(ExperimentConfig)}

    @pytest.mark.parametrize("name", sorted(SAMPLES))
    def test_every_key_round_trips(self, name):
        value = self.SAMPLES[name]
        key = next(f.metadata["key"] for f in fields(ExperimentConfig) if f.name == name)
        text = " ".join(map(repr, value)) if isinstance(value, tuple) else str(value)
        cfg = parse_config(f"{key} = {text}\n")
        assert getattr(cfg, name) == value
        default = ExperimentConfig()
        assert all(getattr(cfg, f.name) == getattr(default, f.name)
                   for f in fields(ExperimentConfig) if f.name != name)


# sha1 of every file each run writes, recorded before the run kinds were moved
# onto the acceptance module's shared helpers (numpy 2.4.6, scipy 1.17.1, x86-64)
_PINNED_RUNS = {
    "density-0.5": ("run = density\nbeta = 0.5\nseed = 7\n", {
        "g_density.csv": "b5f5041f48d88f6cb4bf30d544cd267027e31891",
        "run_summary.txt": "58f0d44af899dc8ec41be28615472b1fadf6ae8f"}),
    "density-0.3": ("run = density\nbeta = 0.3\nseed = 7\n", {
        "g_density.csv": "1f3b93a07aed8c9b6d2160e616feca7f8ec46cfe",
        "run_summary.txt": "f125de7ca17dca89c1aba061ad06210078ca495e"}),
    "simulate": ("run = simulate\nbeta = 0.5\nseed = 9\nstep = 0.01\nhorizon = 0.5\n", {
        "paths.csv": "f5919fc3db9158e37a9c3df94dab0a63f2d9857a",
        "run_summary.txt": "58f84d84e7159d7068d70d6773908ccdf04ceb97"}),
    "zakai": ("run = zakai\nbeta = 0.5\nseed = 11\nhorizon = 0.25\nstep = 2e-3\ngrid.cells = 32\n", {
        "run_summary.txt": "1b0b0792be5eb728d4c913daa687cce77bd793f7",
        "zakai_snapshots.csv": "68dff2f997a8d34322bd64f1fdae085824cb1b06",
        "zakai_summary.csv": "e4b7c9fa323be3df5c844da1b6ec56cc729877e0"}),
    "frac-zakai": ("run = frac-zakai\nbeta = 0.5\nseed = 13\nhorizon = 0.25\nstep = 2e-3\n"
                   "grid.cells = 32\n", {
        "frac_zakai_snapshots.csv": "7aa768d975c3787e3fc5692becb68a8dc6b0562c",
        "frac_zakai_summary.csv": "cc21752b4892d265c57a202d8b54b36575234b57",
        "run_summary.txt": "bcb326c8b6caffffb1abb925f1d7f2e9c2214620"}),
    "oracle": ("run = oracle\nbeta = 0.5\nseed = 4242\nhorizon = 0.25\nstep = 2e-3\n"
               "grid.cells = 32\ncheckpoints = 0.1 0.25\n", {
        "oracle_report.csv": "299a679d2540ccfa114d42757d2593f949a88609",
        "run_summary.txt": "4b84ea43a8281239e83cfd07bc8ccea3347a4f44"}),
    "subordinate": ("run = subordinate\nbeta = 0.5\nhorizon = 0.25\nstep = 1e-3\n"
                    "grid.lower = -6\ngrid.upper = 6\ngrid.cells = 32\n", {
        "run_summary.txt": "dfc9633a9a3cf757aa8ea38d938a8ac6151c009e",
        "subordination.csv": "e88cd208dbf063e8124ab1afe0445cdd51aeecef"}),
    "jump-filter": ("run = jump-filter\nbeta = 0.5\nseed = 4242\nhorizon = 0.25\nstep = 2e-3\n"
                    "particles = 500\n", {
        "jump_events.csv": "6b4f1e40a7d78b893433e7868874564361ac1bcc",
        "jump_posterior.csv": "a6b763531a2c0ae0a17c36993bff2e0928e520e1",
        "run_summary.txt": "610d89c3b86771fcd07358b4cd309ea1ae74173d"}),
}


class TestRunner:
    @pytest.mark.parametrize("tag", sorted(_PINNED_RUNS))
    def test_outputs_match_pinned_sha1(self, tmp_path, tag):
        text, pinned = _PINNED_RUNS[tag]
        cfg = parse_config(text)
        cfg.out_dir = str(tmp_path / "out")
        status, _ = run_experiment(cfg)
        assert status == 0
        written = {p.name: hashlib.sha1(p.read_bytes()).hexdigest()
                   for p in (tmp_path / "out").iterdir()}
        assert written == pinned

    @pytest.mark.parametrize("tag,name,key", [
        ("density-0.5", "CLOSED_FORM_TOL", "tolerance_closed_form"),
        ("oracle", "PATHWISE_L1_TOL", "tolerance_l1"),
        ("subordinate", "SUBORDINATION_L1_TOL", "tolerance_l1"),
        ("jump-filter", "RESIDUAL_Z_TOL", "tolerance"),
    ])
    def test_run_reads_the_criterion_tolerance(self, tmp_path, monkeypatch, tag, name, key):
        # a tolerance shared with a criterion is read from the acceptance module,
        # so tightening it there moves the run's verdict too
        cfg = parse_config(_PINNED_RUNS[tag][0])
        for tol, status, verdict in [(0.0, 1, "false"), (1e300, 0, "true")]:
            monkeypatch.setattr(acceptance, name, tol)
            cfg.out_dir = str(tmp_path / f"out_{tol:g}")
            assert run_experiment(cfg)[0] == status
            summary = dict(line.split(" = ", 1) for line in
                           (tmp_path / f"out_{tol:g}" / "run_summary.txt").read_text().splitlines())
            assert summary["pass"] == verdict
            shown = f"{tol:g} standard errors" if key == "tolerance" else f"{tol:.17g}"
            assert summary[key] == shown

    def test_density_run_emits_table_and_pass_flag(self, tmp_path):
        cfg = parse_config("run = density\nbeta = 0.5\nseed = 7\n")
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 0
        names = {os.path.basename(f) for f in files}
        assert names == {"g_density.csv", "run_summary.txt"}
        summary = (tmp_path / "out" / "run_summary.txt").read_text()
        assert "pass = true" in summary
        assert "closed_form_scaled_error" in summary

    def test_simulate_run_emits_paths(self, tmp_path):
        cfg = parse_config("run = simulate\nbeta = 0.5\nseed = 9\nstep = 0.01\nhorizon = 0.5\n")
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 0
        path_csv = [f for f in files if f.endswith("paths.csv")][0]
        header = open(path_csv).readline().strip()
        assert header == "t,Y,Z,T,X,V"

    def test_zakai_run(self, tmp_path):
        cfg = parse_config(
            "run = zakai\nbeta = 0.5\nseed = 11\nhorizon = 0.25\nstep = 1e-3\ngrid.cells = 64\n"
        )
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 0
        names = {os.path.basename(f) for f in files}
        assert "zakai_summary.csv" in names and "zakai_snapshots.csv" in names

    def test_frac_zakai_run_emits_clock_columns(self, tmp_path):
        cfg = parse_config(
            "run = frac-zakai\nbeta = 0.5\nseed = 13\nhorizon = 0.25\nstep = 2e-3\ngrid.cells = 32\n"
        )
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 0
        snap = [f for f in files if f.endswith("frac_zakai_snapshots.csv")][0]
        assert open(snap).readline().strip() == "t,x,U,U_normalized,beta,T_t"

    def test_oracle_run_pass(self, tmp_path):
        cfg = parse_config(
            "run = oracle\nbeta = 0.5\nseed = 4242\nhorizon = 0.25\nstep = 2e-3\n"
            "grid.cells = 32\ncheckpoints = 0.1 0.25\n"
        )
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 0
        report = [f for f in files if f.endswith("oracle_report.csv")][0]
        lines = open(report).read().splitlines()
        assert lines[0] == "checkpoint,tau,l1,sup"
        assert len(lines) == 3

    @pytest.mark.parametrize("kind,keys", [
        ("frac-zakai", ["clamped_mass"]),
        ("oracle", ["clamped_mass", "classical_clamped_mass"]),
    ])
    def test_clock_runs_report_clamped_mass(self, tmp_path, kind, keys):
        cfg = parse_config(
            f"run = {kind}\nbeta = 0.5\nseed = 4242\nhorizon = 0.25\nstep = 2e-3\n"
            "grid.cells = 32\ncheckpoints = 0.1 0.25\n"
        )
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "out" / "run_summary.txt").read_text().splitlines())
        for key in keys:
            assert float(summary[key]) >= 0.0
        # the CSVs, which must repeat byte for byte, carry no diagnostics
        for f in files:
            if f.endswith(".csv"):
                assert "clamped" not in open(f).readline()

    def test_env_var_does_not_move_out_dir(self, tmp_path, monkeypatch):
        # the output directory comes from the out key or --out, never the environment
        monkeypatch.setenv("FRACFILT_OUT", str(tmp_path / "env_out"))
        cfg = parse_config("run = density\nbeta = 0.5\n")
        cfg.out_dir = str(tmp_path / "cfg_out")
        status, files = run_experiment(cfg)
        assert status == 0
        assert files and all(f.startswith(str(tmp_path / "cfg_out")) for f in files)
        assert not (tmp_path / "env_out").exists()

    def test_numerical_failure_exits_three(self, tmp_path):
        # domain too small for the initial density: the solver rejects the grid
        cfg = parse_config("run = zakai\nbeta = 0.5\nseed = 5\nhorizon = 0.1\n"
                           "step = 1e-3\ngrid.lower = -1\ngrid.upper = 1\ngrid.cells = 16\n")
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 3
        summary = (tmp_path / "out" / "run_summary.txt").read_text()
        assert "error" in summary and "pass = false" in summary

    def test_grid_too_large_to_allocate_exits_three(self, tmp_path, capsys):
        # 1e15 steps can be indexed but not allocated: a MemoryError is a run failure
        cfg = parse_config("run = frac-zakai\nhorizon = 1e12\nstep = 1e-3\n")
        cfg.out_dir = str(tmp_path / "out")
        status, files = run_experiment(cfg)
        assert status == 3 and files == []
        summary = (tmp_path / "out" / "run_summary.txt").read_text()
        assert "error = Unable to allocate" in summary and "pass = false" in summary
        assert "numerical failure: Unable to allocate" in capsys.readouterr().err

    def test_subordinate_run_reports_its_kernel_step(self, tmp_path):
        # the config asks for 1e-3; the explicit stability cap on 48 cells runs less
        cfg = parse_config("run = subordinate\nbeta = 0.5\nhorizon = 0.5\nstep = 1e-3\n"
                           "grid.lower = -6\ngrid.upper = 6\ngrid.cells = 48\n")
        cfg.out_dir = str(tmp_path / "out")
        status, _ = run_experiment(cfg)
        assert status == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "out" / "run_summary.txt").read_text().splitlines())
        assert int(summary["kernel_steps"]) == 5631
        assert float(summary["kernel_step"]) == 8.879437869822479e-05

    def test_jump_filter_run_repeats_byte_for_byte(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            cfg = parse_config("run = jump-filter\nbeta = 0.5\nseed = 4242\nhorizon = 0.25\n"
                               "step = 2e-3\nparticles = 500\n")
            cfg.out_dir = str(tmp_path / tag)
            status, files = run_experiment(cfg)
            assert status == 0
            names = sorted(os.path.basename(f) for f in files)
            assert names == ["jump_events.csv", "jump_posterior.csv", "run_summary.txt"]
            outs.append({n: (tmp_path / tag / n).read_bytes() for n in names})
        assert outs[0] == outs[1]
        summary = outs[0]["run_summary.txt"].decode()
        assert "equation_residual = " in summary and "residual_se = " in summary

    def test_jump_filter_run_names_the_model_it_ran(self, tmp_path):
        # the run kind has one model; a config that asks for another is told so
        cfg = parse_config("run = jump-filter\nmodel = benes-like\nbeta = 0.5\nseed = 4242\n"
                           "horizon = 0.25\nstep = 2e-3\nparticles = 500\n")
        cfg.out_dir = str(tmp_path / "out")
        status, _ = run_experiment(cfg)
        assert status == 0
        summary = dict(line.split(" = ", 1) for line in
                       (tmp_path / "out" / "run_summary.txt").read_text().splitlines())
        assert summary["model"] == "jump-poisson"

    def test_zakai_run_without_observation_conserves_mass(self, tmp_path):
        # the model.observation override reaches the solver: h = 0 leaves the mass alone
        cfg = parse_config("run = zakai\nbeta = 0.5\nseed = 11\nhorizon = 0.25\nstep = 1e-3\n"
                           "grid.cells = 64\nmodel.observation = 0*x\n")
        cfg.out_dir = str(tmp_path / "out")
        status, _ = run_experiment(cfg)
        assert status == 0
        mass = np.loadtxt(tmp_path / "out" / "zakai_summary.csv", delimiter=",",
                          skiprows=1, usecols=1)
        assert len(mass) == 251
        assert np.max(np.abs(mass - mass[0])) < 1e-12

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            cfg = parse_config("run = simulate\nbeta = 0.5\nseed = 77\nstep = 0.01\nhorizon = 0.5\n")
            cfg.out_dir = str(tmp_path / tag)
            run_experiment(cfg)
            outs.append((tmp_path / tag / "paths.csv").read_bytes())
        assert outs[0] == outs[1]


class TestCLIEntry:
    def test_missing_config_is_usage_error(self, capsys):
        assert main(["run", "/nonexistent/config.txt"]) == 2

    def test_config_error_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("beta = 2.0\n")
        assert main(["run", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_horizon_below_one_step_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "short.cfg"
        p.write_text("run = frac-zakai\nhorizon = 1e-4\nstep = 1e-3\n")
        assert main(["run", str(p)]) == 2
        assert "at least one step" in capsys.readouterr().err

    def test_oracle_checkpoint_past_horizon_is_usage_error(self, tmp_path, capsys):
        # default checkpoints 0.25 0.5 1.0; 1.0 lies past the horizon
        p = tmp_path / "short.cfg"
        p.write_text("run = oracle\nhorizon = 0.5\nstep = 2e-3\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "checkpoints must lie in (0, horizon" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind", ["zakai", "frac-zakai"])
    def test_horizon_not_whole_steps_is_usage_error(self, tmp_path, capsys, kind):
        # zakai stopped at t = 0.75, frac-zakai ran to t = 1 on a step of 1.0
        p = tmp_path / "ragged.cfg"
        p.write_text(f"run = {kind}\nhorizon = 1.0\nstep = 0.75\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "whole number of steps" in capsys.readouterr().err

    def test_run_via_main_with_overrides(self, tmp_path, capsys):
        p = tmp_path / "ok.cfg"
        p.write_text("run = density\nbeta = 0.5\nseed = 1\n")
        code = main(["run", str(p), "--seed", "2", "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "run_summary.txt").exists()
        assert "seed = 2" in (tmp_path / "o" / "run_summary.txt").read_text()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_override_out_of_range_is_usage_error(self, tmp_path, capsys, seed):
        # the override gets the config file's range check, not an OverflowError
        p = tmp_path / "ok.cfg"
        p.write_text("run = density\nbeta = 0.5\nseed = 1\n")
        assert main(["run", str(p), "--seed", seed, "--out", str(tmp_path / "o")]) == 2
        assert "config error: seed must be a 64-bit value" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", ["abc", "2**64", "1.5"])
    def test_seed_override_not_an_integer_is_usage_error(self, tmp_path, capsys, seed):
        # --seed text gets the seed key's own parse, so a non-integer is a config error
        p = tmp_path / "ok.cfg"
        p.write_text("run = density\nbeta = 0.5\nseed = 1\n")
        assert main(["run", str(p), "--seed", seed, "--out", str(tmp_path / "o")]) == 2
        assert "config error: cannot parse" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("line", ["horizon = inf", "step = 1e-320", "grid.lower = nan",
                                      "grid.upper = inf", "checkpoints = 0.1 inf"])
    def test_non_finite_config_is_usage_error(self, tmp_path, capsys, line):
        # none of these can run: horizon / step overflows, or a bound or time is not a number
        p = tmp_path / "inf.cfg"
        p.write_text(f"run = frac-zakai\n{line}\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_node_count_past_array_index_is_usage_error(self, tmp_path, capsys):
        # 1e303 steps: no array can hold the grid, so nothing is written
        p = tmp_path / "huge.cfg"
        p.write_text("run = frac-zakai\nhorizon = 1e300\nstep = 1e-3\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "more nodes than an array can index" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_grid_bounds_out_of_order_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "grid.cfg"
        p.write_text("run = zakai\ngrid.lower = 2\ngrid.upper = 2\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "grid.lower must be below grid.upper" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_check_only_runs_the_named_criterion(self, capsys):
        assert main(["check", "--only", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("criterion 01 PASS")

    def test_check_json_prints_one_object_per_criterion(self, capsys):
        assert main(["check", "--only", "1", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        result = json.loads(lines[0])
        assert set(result) == {"number", "name", "passed", "details", "runtime_s",
                               "budget_s", "margin"}
        assert (result["number"], result["passed"], result["budget_s"]) == (1, True, 10.0)
        assert result["details"]["tolerance"] == 1e-6
        assert 0.0 < result["details"]["scaled_error"] < 1e-6
        assert result["margin"] == result["runtime_s"] / 10.0

    def test_unknown_model_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_text("run = zakai\nmodel = bogus\n")
        assert main(["run", str(p), "--out", str(tmp_path / "o")]) == 2
        assert "unknown model" in capsys.readouterr().err

    @pytest.mark.parametrize("only", ["99", "0", "12", "1,x", "x", "1,,2"])
    def test_unknown_criterion_is_usage_error(self, only, capsys):
        # at least one entry names no criterion: nothing runs, exit 2
        with pytest.raises(SystemExit) as exc:
            main(["check", "--only", only])
        assert exc.value.code == 2
        assert "criterion numbers 1-11" in capsys.readouterr().err

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2

    def test_console_script_installed(self):
        # pytest puts src/ on its own path only; hand it to the child as well
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-m", "fracfilt.cli", "--help"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert "run" in out.stdout and "check" in out.stdout

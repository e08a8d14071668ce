"""Experiment configuration: flat key = value files and a tiny coefficient grammar.

Config files are line-oriented: one `key = value` pair per line, `#` starts a
comment, dotted keys group related settings (model.drift, grid.lower, ...).
Coefficient expressions admit the variable x, numeric literals, the constants
pi and e, operators + - * /, unary minus, and the functions tanh, exp, sin.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .models import NAMED_MODELS

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "compile_expression"]

RUN_KINDS = (
    "density",
    "simulate",
    "zakai",
    "frac-zakai",
    "oracle",
    "subordinate",
    "jump-filter",
)


class ConfigError(ValueError):
    """Config rejection; collects per-line messages."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


_ALLOWED_CALLS = {"tanh": np.tanh, "exp": np.exp, "sin": np.sin}
_ALLOWED_CONSTS = {"pi": np.pi, "e": np.e}
_ALLOWED_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div)


def compile_expression(text: str) -> Callable[[np.ndarray], np.ndarray]:
    """Compile a coefficient expression over x into a vectorized function.

    Only the whitelisted arithmetic subset is accepted; anything else raises
    ValueError naming the offending construct.
    """
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"bad expression {text!r}: {exc.msg}") from None

    def check(node: ast.AST) -> None:
        if isinstance(node, ast.Expression):
            check(node.body)
        elif isinstance(node, ast.BinOp):
            if not isinstance(node.op, _ALLOWED_BINOPS):
                raise ValueError(f"operator {type(node.op).__name__} not allowed in {text!r}")
            check(node.left)
            check(node.right)
        elif isinstance(node, ast.UnaryOp):
            if not isinstance(node.op, (ast.USub, ast.UAdd)):
                raise ValueError(f"unary {type(node.op).__name__} not allowed in {text!r}")
            check(node.operand)
        elif isinstance(node, ast.Call):
            if not (isinstance(node.func, ast.Name) and node.func.id in _ALLOWED_CALLS):
                raise ValueError(f"only tanh/exp/sin calls are allowed in {text!r}")
            if len(node.args) != 1 or node.keywords:
                raise ValueError(f"calls take exactly one argument in {text!r}")
            check(node.args[0])
        elif isinstance(node, ast.Name):
            if node.id != "x" and node.id not in _ALLOWED_CONSTS:
                raise ValueError(f"unknown name {node.id!r} in {text!r}")
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError(f"only numeric literals allowed in {text!r}")
        else:
            raise ValueError(f"construct {type(node).__name__} not allowed in {text!r}")

    check(tree)
    code = compile(tree, "<coefficient>", "eval")
    env = dict(_ALLOWED_CALLS, **_ALLOWED_CONSTS)

    def func(x):
        out = eval(code, {"__builtins__": {}}, dict(env, x=np.asarray(x, dtype=float)))
        return np.broadcast_to(np.asarray(out, dtype=float), np.shape(x)).copy() if np.shape(x) else out

    return func


@dataclass
class ExperimentConfig:
    """Validated run description; every field has a documented default."""

    run: str = "oracle"
    model: str = "ou-linear"
    beta: float = 0.5
    seed: int = 12345
    horizon: float = 1.0
    step: float = 1e-3
    particles: int = 10_000
    out_dir: str = "out"
    # default domain: initial-density location +- 8 scales (built-ins start
    # from a unit-scale density centered at 0)
    grid_lower: float = -8.0
    grid_upper: float = 8.0
    grid_cells: int = 64
    drift_expr: Optional[str] = None
    sigma_expr: Optional[str] = None
    obs_expr: Optional[str] = None
    checkpoints: tuple = (0.25, 0.5, 1.0)

    def coefficient_overrides(self):
        """Compiled (drift, sigma, observation) overrides, None where not given."""
        c = lambda s: compile_expression(s) if s else None
        return c(self.drift_expr), c(self.sigma_expr), c(self.obs_expr)


_KEY_MAP = {
    "run": ("run", str),
    "model": ("model", str),
    "beta": ("beta", float),
    "seed": ("seed", int),
    "horizon": ("horizon", float),
    "step": ("step", float),
    "particles": ("particles", int),
    "out": ("out_dir", str),
    "grid.lower": ("grid_lower", float),
    "grid.upper": ("grid_upper", float),
    "grid.cells": ("grid_cells", int),
    "model.drift": ("drift_expr", str),
    "model.sigma": ("sigma_expr", str),
    "model.observation": ("obs_expr", str),
    "checkpoints": ("checkpoints", "floats"),
}

_RANGES = {
    "beta": (lambda v: 0.0 < v < 1.0, "beta must lie in (0, 1) exclusive"),
    "horizon": (lambda v: v > 0.0, "horizon must be positive"),
    "step": (lambda v: v > 0.0, "step must be positive"),
    "particles": (lambda v: v >= 100, "particles must be >= 100"),
    "grid_cells": (lambda v: v >= 8, "grid.cells must be >= 8"),
    "seed": (lambda v: 0 <= v < 2 ** 63, "seed must be a 64-bit value"),
    "checkpoints": (lambda v: len(v) > 0, "checkpoints must list at least one time"),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a flat key = value config; raises ConfigError with
    one message per offending line (unknown key, bad value, duplicate, range)."""
    problems: list[str] = []
    seen: dict[str, int] = {}
    cfg = ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key = value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        if key not in _KEY_MAP:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        attr, conv = _KEY_MAP[key]
        try:
            if conv == "floats":
                parsed = tuple(float(v) for v in value.replace(",", " ").split())
            elif conv is str:
                parsed = value.strip("\"'")
            else:
                parsed = conv(value)
        except ValueError:
            problems.append(f"line {lineno}: cannot parse {value!r} as {getattr(conv, '__name__', conv)}")
            continue
        if attr in _RANGES:
            ok, msg = _RANGES[attr]
            if not ok(parsed):
                problems.append(f"line {lineno}: {msg} (got {parsed})")
                continue
        if attr == "run" and parsed not in RUN_KINDS:
            problems.append(f"line {lineno}: unknown run kind {parsed!r}; choose from {RUN_KINDS}")
            continue
        if attr == "model" and parsed not in NAMED_MODELS:
            problems.append(f"line {lineno}: unknown model {parsed!r}; choose from {sorted(NAMED_MODELS)}")
            continue
        if attr in ("drift_expr", "sigma_expr", "obs_expr"):
            try:
                compile_expression(parsed)
            except ValueError as exc:
                problems.append(f"line {lineno}: {exc}")
                continue
        setattr(cfg, attr, parsed)
    if cfg.grid_lower >= cfg.grid_upper:
        problems.append("grid.lower must be below grid.upper")
    steps = cfg.horizon / cfg.step
    if cfg.horizon < cfg.step:
        problems.append(f"horizon {cfg.horizon} must be at least one step ({cfg.step})")
    elif abs(steps - round(steps)) > 1e-9 * steps:
        problems.append(f"horizon {cfg.horizon} must be a whole number of steps ({cfg.step})")
    if cfg.run == "oracle" and not all(0.0 < t <= cfg.horizon for t in cfg.checkpoints):
        problems.append(f"oracle checkpoints must lie in (0, horizon {cfg.horizon}]")
    if problems:
        raise ConfigError(problems)
    return cfg

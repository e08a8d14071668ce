"""Experiment configuration: flat key = value files and a tiny coefficient grammar.

Config files are line-oriented: one `key = value` pair per line, `#` starts a
comment, dotted keys group related settings (model.drift, grid.lower, ...).
Each key is declared once, on its ExperimentConfig field, together with its
default, the kind of value it takes and the check that value must pass.
Coefficient expressions admit the variable x, numeric literals, the constants
pi and e, operators + - * /, unary minus, and the functions tanh, exp, sin.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .models import NAMED_MODELS

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "parse_value", "compile_expression"]

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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


# how each kind of value is read from its text; the kind names the value in errors
_PARSERS = {
    "finite float": _finite,
    "int": int,
    "text": lambda text: text.strip("\"'"),
    "finite floats": lambda text: tuple(_finite(v) for v in text.replace(",", " ").split()),
}


def _key(key: str, default, kind: str, ok=None, problem: str = ""):
    """A config field: its key, default and kind of value, and the test a value must
    pass; ok returns false, or raises ValueError, for a bad value."""
    return field(default=default, metadata={"key": key, "kind": kind, "ok": ok, "problem": problem})


@dataclass
class ExperimentConfig:
    """Validated run description; every field has a documented default."""

    run: str = _key("run", "oracle", "text", lambda v: v in RUN_KINDS,
                    f"unknown run kind; choose from {RUN_KINDS}")
    model: str = _key("model", "ou-linear", "text", lambda v: v in NAMED_MODELS,
                      f"unknown model; choose from {sorted(NAMED_MODELS)}")
    beta: float = _key("beta", 0.5, "finite float", lambda v: 0.0 < v < 1.0,
                       "beta must lie in (0, 1) exclusive")
    seed: int = _key("seed", 12345, "int", lambda v: 0 <= v < 2 ** 63, "seed must be a 64-bit value")
    horizon: float = _key("horizon", 1.0, "finite float", lambda v: v > 0.0, "horizon must be positive")
    step: float = _key("step", 1e-3, "finite float", lambda v: v > 0.0, "step must be positive")
    particles: int = _key("particles", 10_000, "int", lambda v: v >= 100, "particles must be >= 100")
    out_dir: str = _key("out", "out", "text")
    # default domain: initial-density location +- 8 scales (built-ins start
    # from a unit-scale density centered at 0)
    grid_lower: float = _key("grid.lower", -8.0, "finite float")
    grid_upper: float = _key("grid.upper", 8.0, "finite float")
    grid_cells: int = _key("grid.cells", 64, "int", lambda v: v >= 8, "grid.cells must be >= 8")
    # expressions: compile_expression raises ValueError naming what it refuses
    drift_expr: Optional[str] = _key("model.drift", None, "text", compile_expression)
    sigma_expr: Optional[str] = _key("model.sigma", None, "text", compile_expression)
    obs_expr: Optional[str] = _key("model.observation", None, "text", compile_expression)
    checkpoints: tuple = _key("checkpoints", (0.25, 0.5, 1.0), "finite floats", lambda v: len(v) > 0,
                              "checkpoints must list at least one time")

    def coefficient_overrides(self):
        """Compiled (drift, sigma, observation) overrides, None where not given."""
        c = lambda s: compile_expression(s) if s else None
        return c(self.drift_expr), c(self.sigma_expr), c(self.obs_expr)


# config key -> ExperimentConfig field
_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def parse_value(key: str, text: str):
    """The value of config key `key` read from `text` and checked; raises
    ValueError naming the problem."""
    meta = _FIELDS[key].metadata
    try:
        value = _PARSERS[meta["kind"]](text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} as {meta['kind']}") from None
    if meta["ok"] is not None and not meta["ok"](value):
        raise ValueError(f"{meta['problem']} (got {value!r})")
    return value


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
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        if key not in _FIELDS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            setattr(cfg, _FIELDS[key].name, parse_value(key, value.strip()))
        except ValueError as exc:
            problems.append(f"line {lineno}: {exc}")
    if cfg.grid_lower >= cfg.grid_upper:
        problems.append("grid.lower must be below grid.upper")
    steps = cfg.horizon / cfg.step
    if cfg.horizon < cfg.step:
        problems.append(f"horizon {cfg.horizon} must be at least one step ({cfg.step})")
    elif not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        problems.append(f"horizon {cfg.horizon} must be a whole number of steps ({cfg.step})")
    elif steps >= np.iinfo(np.intp).max:
        problems.append(f"horizon {cfg.horizon} / step {cfg.step} gives {steps:.3g} steps, more "
                        f"nodes than an array can index ({np.iinfo(np.intp).max})")
    if cfg.run == "oracle" and not all(0.0 < t <= cfg.horizon for t in cfg.checkpoints):
        problems.append(f"oracle checkpoints must lie in (0, horizon {cfg.horizon}]")
    if problems:
        raise ConfigError(problems)
    return cfg

"""Spans and per-layer counters, recorded around fracfilt's module-level functions.

The tracer replaces module attributes with wrappers from the benchmark's own
files; nothing under src/ changes.  A function is patched in every module that
resolves it by name (for example `zakai_classical.solve_zakai` and
`cli.solve_zakai`), so calls from the library, from the CLI and from the
workloads are all seen.  Spans (name, start, end, parent) stay in memory and
are written when the run ends.  A layer's busy time is its self time: the
duration of its spans minus the part covered by their traced child spans.
"""

from __future__ import annotations

import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np
from fracfilt import cli, csvio, fraccalc, levy_ext, models, sde_sim, subordinator
from fracfilt import zakai_classical, zakai_fractional


class Tracer:
    """Patches layer functions; with spans off only the hooks' counters run."""

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.count: dict[str, float] = defaultdict(float)
        self.member_ms: list[float] = []
        self.dt_max = float("nan")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def patch(self, module, attr: str, name: str, hook=None) -> None:
        orig = getattr(module, attr)
        sig = inspect.signature(orig) if hook else None
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.record_spans:
                result = orig(*args, **kwargs)
                hook(tracer, sig.bind(*args, **kwargs).arguments, result, 0.0)
                return result
            span = [name, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if hook:
                hook(tracer, sig.bind(*args, **kwargs).arguments, result, span[2] - span[1])
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def __enter__(self):
        table = LAYERS if self.record_spans else COUNTERS
        for module, attr, name, hook in table:
            self.patch(module, attr, name, hook)
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()
        return False

    def self_times(self) -> tuple[dict, dict]:
        """(calls, busy seconds) per span name; busy excludes traced children."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            busy[name] += end - start - child[i]
        return calls, busy

    def write(self, path: str) -> None:
        """Spans as a JSON list of [name, start, end, parent index]."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


# ---------------------------------------------------------------------------
# hooks: counts taken at the layer boundary from arguments and results
# ---------------------------------------------------------------------------

def _points(key):
    def hook(tr, a, result, dur):
        tr.count[key] += np.size(a["u"])
    return hook


def _clock(tr, a, result, dur):
    dtau = np.diff(a["T"].values)
    tr.count["clock.steps"] += dtau.size
    tr.count["clock.plateau_steps"] += int(np.count_nonzero(dtau <= 0.0))
    tr.count["clock.clamped_mass"] += result.clamped_mass
    tr.member_ms.append(1e3 * dur)


def _dt_max(tr, a, result, dur):
    tr.dt_max = float(result)


def _kernel(tr, a, result, dur):
    T, n = a["T"], a["grid"].n_nodes
    steps = len(T.times) - 1
    tr.count["kernel.steps"] += steps
    tr.count["kernel.dt_over_dtmax"] = max(tr.count["kernel.dt_over_dtmax"], T.step / tr.dt_max)
    # computed, not measured: the float64 A* Phi history buffer of one solve
    tr.count["kernel.history_mb"] = max(tr.count["kernel.history_mb"], steps * n * 8 / 1e6)


def _zakai(tr, a, result, dur):
    tr.count["zakai.node_steps"] += a["grid"].n_nodes * (len(a["obs"].times) - 1)
    tr.count["zakai.clamped_mass"] += result.clamped_mass


def _ks(tr, a, result, dur):
    tr.count["ks.particle_steps"] += a["n_particles"] * (len(a["observed"].times) - 1)
    _min(tr, "ks.min_ess", float(np.min(result.ess)))


def _jump(tr, a, result, dur):
    tr.count["jump.particle_steps"] += a["n_particles"] * (len(a["T"].times) - 1)
    tr.count["jump.events"] += len(a["obs"].events)
    _min(tr, "jump.min_ess", float(np.min(result.ess)))


def _csv(tr, a, result, dur):
    tr.count["csv.bytes"] += os.path.getsize(result)


def _min(tr, key, value):
    tr.count[key] = min(tr.count.get(key, np.inf), value)


# counters the workload checks need; patched in untraced runs as well
COUNTERS = [
    (subordinator, "_stable_density_integral", "subordinator.stable_density.integral",
     _points("integral.points")),
    (subordinator, "_stable_density_series", "subordinator.stable_density.series",
     _points("series.points")),
]

LAYERS = COUNTERS + [
    (subordinator, "stable_density", "subordinator.stable_density", _points("density.points")),
    (subordinator, "sample_stable_path", "subordinator.sample_stable_path", None),
    (cli, "sample_stable_path", "subordinator.sample_stable_path", None),
    (subordinator, "invert_path", "subordinator.invert_path", None),
    (cli, "invert_path", "subordinator.invert_path", None),
    (fraccalc, "trapezoid_weights", "fraccalc.trapezoid_weights", None),
    (zakai_fractional, "trapezoid_weights", "fraccalc.trapezoid_weights", None),
    (models, "adjoint_matrix", "models.adjoint_matrix", None),
    (zakai_classical, "adjoint_matrix", "models.adjoint_matrix", None),
    (zakai_fractional, "adjoint_matrix", "models.adjoint_matrix", None),
    (cli, "adjoint_matrix", "models.adjoint_matrix", None),
    (zakai_fractional, "_solve_clock", "zakai_fractional.clock", _clock),
    (zakai_fractional, "solve_banded", "zakai_fractional.clock.solve_banded", None),
    (zakai_fractional, "stable_step", "zakai_fractional.stable_step", _dt_max),
    (zakai_fractional, "_solve_kernel", "zakai_fractional.kernel", _kernel),
    (zakai_fractional, "subordinate_filter", "zakai_fractional.subordinate_filter", None),
    (cli, "subordinate_filter", "zakai_fractional.subordinate_filter", None),
    (zakai_classical, "solve_zakai", "zakai_classical.solve_zakai", _zakai),
    (cli, "solve_zakai", "zakai_classical.solve_zakai", _zakai),
    (zakai_classical, "kalman_bucy_reference", "zakai_classical.kalman_bucy_reference", None),
    (sde_sim, "kallianpur_striebel_estimate", "sde_sim.kallianpur_striebel_estimate", _ks),
    (sde_sim, "simulate_classical_pair", "sde_sim.simulate_classical_pair", None),
    (cli, "simulate_classical_pair", "sde_sim.simulate_classical_pair", None),
    (levy_ext, "fractional_filter_jump_obs", "levy_ext.fractional_filter_jump_obs", _jump),
    (levy_ext, "simulate_jump_observation", "levy_ext.simulate_jump_observation", None),
    (cli, "run_experiment", "cli.run_experiment", None),
    (csvio, "write_csv", "csvio.write_csv", _csv),
    (cli, "write_csv", "csvio.write_csv", _csv),
]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

_UNITS = (  # metric-name suffix -> unit; first match wins
    ("_s", "s"), ("_ms", "ms"), (".us_per_point", "us"), (".us_per_step", "us"),
    ("ns_per_node_step", "ns"), ("ns_per_particle_step", "ns"), (".history_mb", "MB"),
    (".bytes", "B"), (".clamped_mass", "prob_mass"), (".min_ess", "particles"), (".z", "sd"),
    (".accept_ratio", "ratio"), (".plateau_frac", "ratio"), (".dt_over_dtmax", "ratio"),
    (".err_ratio", "ratio"),
)


def unit(name: str) -> str:
    for suffix, u in _UNITS:
        if name.endswith(suffix):
            return u
    return "count"


def _ratio(num, den, scale=1.0):
    return scale * num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the traced run (0 where a layer was not called)."""
    calls, busy = tracer.self_times()
    c = tracer.count
    sd, integral, series = ("subordinator.stable_density",
                            "subordinator.stable_density.integral",
                            "subordinator.stable_density.series")
    clock, kernel = "zakai_fractional.clock", "zakai_fractional.kernel"
    zk, ks, jf = ("zakai_classical.solve_zakai", "sde_sim.kallianpur_striebel_estimate",
                  "levy_ext.fractional_filter_jump_obs")
    members = calls[clock]
    chunks = calls[clock + ".solve_banded"]
    sampled = calls["subordinator.sample_stable_path"]
    ms = np.array(tracer.member_ms) if tracer.member_ms else np.zeros(1)
    out = {
        sd + ".calls": calls[sd],
        sd + ".points": c["density.points"],
        sd + ".points_per_call": _ratio(c["density.points"], calls[sd]),
        sd + ".busy_s": busy[sd],
        integral + ".points": c["integral.points"],
        integral + ".busy_s": busy[integral],
        integral + ".us_per_point": _ratio(busy[integral], c["integral.points"], 1e6),
        series + ".points": c["series.points"],
        series + ".busy_s": busy[series],
        "subordinator.sample_stable_path.calls": sampled,
        "subordinator.sample_stable_path.busy_s": busy["subordinator.sample_stable_path"],
        "subordinator.invert_path.calls": calls["subordinator.invert_path"],
        "subordinator.invert_path.busy_s": busy["subordinator.invert_path"],
        "subordinator.clock.accept_ratio": _ratio(calls["subordinator.invert_path"], sampled),
        "fraccalc.trapezoid_weights.calls": calls["fraccalc.trapezoid_weights"],
        "fraccalc.trapezoid_weights.busy_s": busy["fraccalc.trapezoid_weights"],
        "models.adjoint_matrix.calls": calls["models.adjoint_matrix"],
        "models.adjoint_matrix.busy_s": busy["models.adjoint_matrix"],
        clock + ".members": members,
        clock + ".busy_s": busy[clock],
        clock + ".member_p50_ms": float(np.percentile(ms, 50)),
        clock + ".member_p95_ms": float(np.percentile(ms, 95)),
        clock + ".cn_chunks": chunks,
        clock + ".chunks_per_member": _ratio(chunks, members),
        clock + ".plateau_frac": _ratio(c["clock.plateau_steps"], c["clock.steps"]),
        clock + ".clamped_mass": c["clock.clamped_mass"],
        clock + ".solve_banded.busy_s": busy[clock + ".solve_banded"],
        kernel + ".steps": c["kernel.steps"],
        kernel + ".busy_s": busy[kernel],
        kernel + ".us_per_step": _ratio(busy[kernel], c["kernel.steps"], 1e6),
        kernel + ".dt_over_dtmax": c["kernel.dt_over_dtmax"],
        kernel + ".history_mb": c["kernel.history_mb"],
        "zakai_fractional.subordinate_filter.busy_s": busy["zakai_fractional.subordinate_filter"],
        zk + ".calls": calls[zk],
        zk + ".node_steps": c["zakai.node_steps"],
        zk + ".busy_s": busy[zk],
        zk + ".ns_per_node_step": _ratio(busy[zk], c["zakai.node_steps"], 1e9),
        zk + ".clamped_mass": c["zakai.clamped_mass"],
        "zakai_classical.kalman_bucy_reference.busy_s":
            busy["zakai_classical.kalman_bucy_reference"],
        ks + ".particle_steps": c["ks.particle_steps"],
        ks + ".busy_s": busy[ks],
        ks + ".ns_per_particle_step": _ratio(busy[ks], c["ks.particle_steps"], 1e9),
        ks + ".min_ess": c.get("ks.min_ess", 0.0),
        "sde_sim.simulate_classical_pair.busy_s": busy["sde_sim.simulate_classical_pair"],
        jf + ".particle_steps": c["jump.particle_steps"],
        jf + ".busy_s": busy[jf],
        jf + ".ns_per_particle_step": _ratio(busy[jf], c["jump.particle_steps"], 1e9),
        jf + ".events": c["jump.events"],
        jf + ".min_ess": c.get("jump.min_ess", 0.0),
        "levy_ext.simulate_jump_observation.busy_s": busy["levy_ext.simulate_jump_observation"],
        "cli.run_experiment.busy_s": busy["cli.run_experiment"],
        "csvio.write_csv.calls": calls["csvio.write_csv"],
        "csvio.write_csv.bytes": c["csv.bytes"],
        "csvio.write_csv.busy_s": busy["csvio.write_csv"],
    }
    return {k: float(v) for k, v in out.items()}

"""Per-layer spans recorded from outside the library.

Every hook wraps one function *as it is bound in the calling module*, so a
span measures the calls that cross from one layer into another. Layers are
the modules under ``src/fractal_impedance/``. A span's self time is its
duration minus the time of the spans it directly contains; a layer's self
time is the sum over its spans.

Spans are aggregated into per-hook totals as they close: a traced run makes
millions of calls, too many to keep one record per span.

A hook whose target was renamed or deleted is reported as unresolved by name
and skipped, so the traced run never depends on a private name existing.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

PKG = "fractal_impedance"

# (binding module, attribute path, layer of the callee). This table is the
# only place that names hook targets.
HOOKS = (
    # benchmark -> library entry points
    (PKG, "run_scenario", "sim_harness"),
    (PKG, "calibrate_sweep", "sim_harness"),
    (f"{PKG}.cli", "main", "cli"),
    # cli -> its own emitters and parser, and into the harness
    (f"{PKG}.cli", "parse_config", "cli.parse"),
    (f"{PKG}.cli", "emit_csv", "cli.emit"),
    (f"{PKG}.cli", "run_scenario", "sim_harness"),
    # harness internals and its calls into the other layers
    (f"{PKG}.sim_harness", "run_scenario", "sim_harness"),
    (f"{PKG}.sim_harness", "detect_oscillation", "sim_harness"),
    (f"{PKG}.sim_harness", "_arm_task_state", "sim_harness.task_state"),
    (f"{PKG}.sim_harness", "_advance", "dynamics"),
    (f"{PKG}.sim_harness", "_arm_accel", "dynamics"),
    (f"{PKG}.sim_harness", "_point_mass_accel", "dynamics"),
    (f"{PKG}.sim_harness", "forward_kinematics", "dynamics"),
    (f"{PKG}.sim_harness", "contact_force", "dynamics"),
    (f"{PKG}.sim_harness", "external_wrench", "dynamics"),
    (f"{PKG}.sim_harness", "fic_task_wrench", "controllers"),
    (f"{PKG}.sim_harness", "fic_control_torques", "controllers"),
    (f"{PKG}.sim_harness", "baseline_impedance_wrench", "controllers"),
    (f"{PKG}.sim_harness", "baseline_control_torques", "controllers"),
    (f"{PKG}.sim_harness", "spring_energy", "fic_core"),
    (f"{PKG}.sim_harness", "LyapunovTracker.update", "energy_audit"),
    (f"{PKG}.sim_harness", "LyapunovTracker.change_params", "energy_audit"),
    # controllers -> plant kinematics/dynamics and the spring law
    (f"{PKG}.controllers", "arm_dynamics", "dynamics"),
    (f"{PKG}.controllers", "task_space_quantities", "dynamics"),
    (f"{PKG}.controllers", "forward_kinematics", "dynamics"),
    (f"{PKG}.controllers", "update_attractor", "fic_core"),
    (f"{PKG}.controllers", "fic_wrench", "fic_core"),
)

# Hooks whose call counts feed a named per-layer count.
EPISODE_HOOKS = (
    f"{PKG}.run_scenario",
    f"{PKG}.cli.run_scenario",
    f"{PKG}.sim_harness.run_scenario",
)
STEP_HOOKS = (f"{PKG}.sim_harness._advance",)
ACCEL_HOOKS = (f"{PKG}.sim_harness._arm_accel", f"{PKG}.sim_harness._point_mass_accel")
TICK_HOOKS = tuple(
    f"{PKG}.sim_harness.{name}"
    for name in (
        "fic_task_wrench",
        "fic_control_torques",
        "baseline_impedance_wrench",
        "baseline_control_torques",
    )
)
SWITCH_HOOK = f"{PKG}.controllers.update_attractor"


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value) or None when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    if not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """Installs the hooks, aggregates span self time, restores on exit.

    Totals accumulate over every ``with`` block the same tracer is used in.
    """

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.self_s = defaultdict(float)  # hook name -> self seconds
        self.calls = defaultdict(int)  # hook name -> completed calls
        self.layer_of = {}
        self.switches = 0
        self.unresolved = []
        self._stack = []
        self._installed = []

    def __enter__(self):
        self.unresolved = []
        for module_name, path, layer in self.hooks:
            name = f"{module_name}.{path}"
            found = _resolve(module_name, path)
            if found is None:
                self.unresolved.append(name)
                continue
            owner, attr, fn = found
            self.layer_of[name] = layer
            setattr(owner, attr, self._wrap(fn, name))
            self._installed.append((owner, attr, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()
        return False

    def _wrap(self, fn, name):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter
        count_switch = name == SWITCH_HOOK

        def span(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                self_s[name] += dur - child[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
            if count_switch and getattr(result, "phase", None) is not getattr(
                args[0] if args else None, "phase", None
            ):
                self.switches += 1
            return result

        return span

    def layer_self_s(self, layer: str) -> float:
        return sum(s for name, s in self.self_s.items() if self.layer_of[name] == layer)

    def count(self, names) -> int:
        return sum(self.calls.get(n, 0) for n in names)

    def layer_calls(self, layer: str) -> int:
        return sum(c for name, c in self.calls.items() if self.layer_of[name] == layer)

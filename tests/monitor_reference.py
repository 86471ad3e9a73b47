"""The Lyapunov descent monitor that only the tests use: criterion 05 and
the energy-audit tests check that a record's monitored V does not rise
outside forced steps."""

from dataclasses import dataclass

import numpy as np

DESCENT_TOL = 1e-6  # J per step, autonomous undamped fine-step runs


@dataclass(frozen=True)
class MonitorReport:
    """Descent check: V must not rise beyond tolerance outside forced steps."""

    flagged_steps: np.ndarray
    max_increase: float
    passed: bool


def lyapunov_monitor(
    t: np.ndarray, v: np.ndarray, forced: np.ndarray | None = None
) -> MonitorReport:
    """Flag steps where V increases by more than ``DESCENT_TOL`` outside
    forced spans.

    A step k -> k+1 is exempt when either endpoint lies in an externally
    forced interval (``forced`` true).
    """
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    if v.shape != t.shape:
        raise ValueError("t and v must have equal lengths")
    if v.size < 2:
        return MonitorReport(np.zeros(0, dtype=int), 0.0, True)
    dv = np.diff(v)
    exempt = np.zeros(dv.shape, dtype=bool)
    if forced is not None:
        forced = np.asarray(forced, dtype=bool)
        exempt = forced[:-1] | forced[1:]
    bad = np.flatnonzero((dv > DESCENT_TOL) & ~exempt)
    free = dv[~exempt]
    max_rise = float(np.max(free)) if free.size else 0.0
    return MonitorReport(flagged_steps=bad, max_increase=max_rise, passed=bad.size == 0)

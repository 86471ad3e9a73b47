"""Randomized pulse trains for the perturbation episodes of the tests: the
acceptance criteria's passivity, Lyapunov and low-bandwidth sweeps and the
episode tests draw their pulses here, as plain dicts a ``Scenario`` takes."""

import numpy as np


def random_pulse_profile(
    n_dof: int,
    seed: int,
    n_pulses: int = 3,
    t_first: float = 0.5,
    gap: tuple = (1.2, 2.0),
    magnitude: tuple = (2.0, 12.0),
    length: tuple = (0.08, 0.25),
    axis: int | None = None,
) -> tuple:
    """Reproducible pulse dicts for randomized perturbation episodes."""
    rng = np.random.default_rng(seed)
    pulses = []
    t = float(t_first)
    for _ in range(n_pulses):
        dur = float(rng.uniform(*length))
        wrench = [0.0] * n_dof
        ax = int(rng.integers(n_dof)) if axis is None else axis
        sign = 1.0 if rng.random() < 0.5 else -1.0
        wrench[ax] = sign * float(rng.uniform(*magnitude))
        pulses.append({"start": t, "duration": dur, "wrench": tuple(wrench)})
        t += dur + float(rng.uniform(*gap))
    return tuple(pulses)

"""Fractal impedance controller simulation library.

A passive variable-impedance controller built from a saturating nonlinear
spring and divergence/convergence phase switching, together with rigid-body
plants (task-space point mass, planar 3-link arm), an energy/passivity audit,
a scenario harness with zero-order-hold feedback, and a CLI.

A module's ``__all__`` is its public API; the package re-exports exactly
those names.
"""

from . import controllers, dynamics, energy_audit, fic_core, sim_harness
from .controllers import *  # noqa: F403
from .dynamics import *  # noqa: F403
from .energy_audit import *  # noqa: F403
from .fic_core import *  # noqa: F403
from .sim_harness import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *fic_core.__all__,
    *dynamics.__all__,
    *controllers.__all__,
    *energy_audit.__all__,
    *sim_harness.__all__,
]

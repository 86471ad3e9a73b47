"""Fractal impedance controller simulation library.

A passive variable-impedance controller built from a saturating nonlinear
spring and divergence/convergence phase switching, together with rigid-body
plants (task-space point mass, planar 3-link arm), an energy/passivity audit,
a scenario harness with zero-order-hold feedback, and a CLI.
"""

from .controllers import (
    BaselineConfig,
    ControlResult,
    FicConfig,
    baseline_control_torques,
    baseline_impedance_wrench,
    fic_control_torques,
    fic_task_wrench,
    new_attractor_states,
    null_space_torque,
)
from .dynamics import (
    ArmDynamics,
    ContactWall,
    IntegrationBlowupError,
    PerturbationProfile,
    PlanarArm,
    PointMassPlant,
    Pulse,
    SingularConfigurationError,
    TaskSpace,
    arm_dynamics,
    contact_force,
    external_wrench,
    forward_kinematics,
    joint_positions,
    kinetic_energy,
    potential_energy,
    task_space_quantities,
)
from .energy_audit import (
    EnergyLedger,
    LyapunovTracker,
    MonitorReport,
    SwitchEvent,
    fic_work,
    ic_work_discrete,
    lyapunov_monitor,
)
from .fic_core import (
    AttractorState,
    Phase,
    StiffnessParams,
    beta_squared,
    classify_phase,
    convergence_force,
    fic_wrench,
    spring_energy,
    spring_force,
    stiffness,
    update_attractor,
)
from .sim_harness import (
    EpisodeRecord,
    Scenario,
    calibrate_sweep,
    compute_metrics,
    detect_oscillation,
    random_pulse_profile,
    run_scenario,
    zoh_sample,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # fic_core
    "Phase",
    "StiffnessParams",
    "AttractorState",
    "beta_squared",
    "stiffness",
    "spring_force",
    "spring_energy",
    "classify_phase",
    "update_attractor",
    "convergence_force",
    "fic_wrench",
    # dynamics
    "PointMassPlant",
    "PlanarArm",
    "ArmDynamics",
    "TaskSpace",
    "ContactWall",
    "Pulse",
    "PerturbationProfile",
    "IntegrationBlowupError",
    "SingularConfigurationError",
    "arm_dynamics",
    "forward_kinematics",
    "joint_positions",
    "potential_energy",
    "kinetic_energy",
    "task_space_quantities",
    "contact_force",
    "external_wrench",
    # controllers
    "FicConfig",
    "BaselineConfig",
    "ControlResult",
    "new_attractor_states",
    "fic_task_wrench",
    "fic_control_torques",
    "baseline_impedance_wrench",
    "baseline_control_torques",
    "null_space_torque",
    # energy_audit
    "EnergyLedger",
    "SwitchEvent",
    "MonitorReport",
    "LyapunovTracker",
    "fic_work",
    "ic_work_discrete",
    "lyapunov_monitor",
    # sim_harness
    "Scenario",
    "EpisodeRecord",
    "zoh_sample",
    "run_scenario",
    "compute_metrics",
    "detect_oscillation",
    "calibrate_sweep",
    "random_pulse_profile",
]

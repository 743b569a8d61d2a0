"""Two Coulomb-coupled nanoparticles in a linear Paul trap.

Normal-mode theory, stochastic dynamics with measurement-based feedback
(sympathetic cooling and parametric squeezing of one particle via the
other), and the spectral estimators used to characterise the pair.
"""

from ._kernel import NUMBA_ENABLED  # read by cotrap_bench/
from .analysis import (
    ModeTraces,
    Psd,
    QuadratureTrace,
    SqueezingResult,
    TemperatureEstimate,
    demodulate,
    fit_r_pm,
    mode_temperature,
    project_modes,
    squeezing_db,
    welch_psd,
)
from .dynamics import (
    NoiseModel,
    Trajectory,
    simulate,
    thermal_equilibrium_state,
    total_energy,
)
from .errors import (
    AnalysisError,
    ConfigError,
    CotrapError,
    IntegrationFault,
    UnstableAxisError,
    UnstableModeError,
)
from .feedback import (
    Controller,
    ControllerConfig,
    DetectionModel,
    design_controller,
    detect,
    parametric_threshold,
)
from .trap import (
    ModeStructure,
    ParticleSpec,
    StabilityParams,
    TrapConfig,
    charge_from_radial,
    energy_fractions,
    epstein_gamma,
    equilibrium_positions,
    mathieu_trajectory,
    mode_structure,
    stability_params,
)

__version__ = "0.1.0"

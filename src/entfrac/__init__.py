"""Fully entangled fraction and protocol fidelities for two-qubit mixed states."""

from .applications import (
    AnalysisReport,
    analyze_state,
    bell_canonical,
    bell_chsh,
    bell_max,
    dense_coding_fidelity,
    fiducial_gap,
    swapping_fidelity,
    swapping_outcomes,
    teleportation_fidelity,
)
from .campaign import SampleRecord, run_campaign
from .concurrence import ConcurrenceResult, concurrence
from .ddim import clock_shift_unitaries, dense_coding_fidelity_d, fef_numeric_d, teleport_max_d
from .errors import (
    DensityMatrixError,
    DimensionMismatchError,
    EntfracError,
    IdentityCheckError,
    NoConvergenceError,
    NonOrthonormalEncodingError,
    NotHermitianError,
    NotPsdError,
    OutOfRangeError,
)
from .fef import FefResult, fully_entangled_fraction
from .optimize import SearchBudget
from .states import (
    MAGIC,
    PHI1,
    check_density,
    fig2_mixture,
    load_density_json,
    lower_family,
    random_density,
    save_density_json,
    upper_family,
    werner,
)
from .verify import IdentityResult, run_identity_suite

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "ConcurrenceResult",
    "DensityMatrixError",
    "DimensionMismatchError",
    "EntfracError",
    "FefResult",
    "IdentityCheckError",
    "IdentityResult",
    "MAGIC",
    "NoConvergenceError",
    "NonOrthonormalEncodingError",
    "NotHermitianError",
    "NotPsdError",
    "OutOfRangeError",
    "PHI1",
    "SampleRecord",
    "SearchBudget",
    "analyze_state",
    "bell_canonical",
    "bell_chsh",
    "bell_max",
    "check_density",
    "clock_shift_unitaries",
    "concurrence",
    "dense_coding_fidelity",
    "dense_coding_fidelity_d",
    "fef_numeric_d",
    "fiducial_gap",
    "fig2_mixture",
    "fully_entangled_fraction",
    "load_density_json",
    "lower_family",
    "random_density",
    "run_campaign",
    "run_identity_suite",
    "save_density_json",
    "swapping_fidelity",
    "swapping_outcomes",
    "teleportation_fidelity",
    "teleport_max_d",
    "upper_family",
    "werner",
    "__version__",
]

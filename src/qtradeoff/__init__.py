"""Optimal information-disturbance tradeoff for discriminating two pure qubit states."""

__version__ = "0.1.0"

from .qubit import (
    ID2,
    SIGMA_X,
    SIGMA_XX,
    SIGMA_Z,
    StatePair,
    projector,
    symmetric_pair,
    tensor,
)
from .instruments import (
    Ensemble,
    Instrument,
    disturbance,
    povm,
    success_probability,
)
from .choi import (
    OMEGA,
    choi_apply,
    choi_functionals,
    choi_to_kraus,
    kraus_to_choi,
    partial_trace_first,
    partial_trace_second,
    symmetrize,
)
from .tradeoff import (
    TradeoffPoint,
    helstrom_min_disturbance,
    helstrom_probability,
    no_feedback_instrument,
    normalized,
    optimal_instrument,
    optimal_tilt,
    tilt_disturbance,
    tilt_t,
    tradeoff_identity_residual,
    tradeoff_point,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    VerificationReport,
    constraint_residuals,
    maximize,
    sigma_objective,
    verify_closed_form,
)
from .simulate import (
    RNG_ALGORITHM,
    SimulationConfig,
    SimulationResult,
    run,
)

__all__ = [
    "__version__",
    "ID2", "SIGMA_X", "SIGMA_XX", "SIGMA_Z", "StatePair", "projector", "symmetric_pair", "tensor",
    "Ensemble", "Instrument", "disturbance", "povm", "success_probability",
    "OMEGA", "choi_apply", "choi_functionals", "choi_to_kraus", "kraus_to_choi",
    "partial_trace_first", "partial_trace_second", "symmetrize",
    "TradeoffPoint", "helstrom_min_disturbance", "helstrom_probability", "no_feedback_instrument",
    "normalized", "optimal_instrument", "optimal_tilt", "tilt_disturbance", "tilt_t",
    "tradeoff_identity_residual", "tradeoff_point",
    "OracleConfig", "OracleResult", "VerificationReport", "constraint_residuals", "maximize",
    "sigma_objective", "verify_closed_form",
    "RNG_ALGORITHM", "SimulationConfig", "SimulationResult", "run",
]

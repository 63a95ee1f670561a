"""Optimal information-disturbance tradeoff for discriminating two pure qubit states.

The exports below are resolved on first use (PEP 562), so that importing the
package, or running the CLI's closed-form commands, does not import numpy.
"""
import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "qubit": ("ID2", "SIGMA_X", "SIGMA_XX", "SIGMA_Z", "projector",
              "symmetric_pair", "tensor"),
    "instruments": ("Ensemble", "Instrument", "disturbance", "povm", "success_probability"),
    "choi": ("OMEGA", "choi_functionals", "kraus_to_choi", "partial_trace_first", "symmetrize"),
    "tradeoff": ("TradeoffPoint", "helstrom_min_disturbance", "helstrom_probability",
                 "no_feedback_instrument", "normalized", "optimal_instrument", "tilt_disturbance",
                 "tilt_t", "tradeoff_identity_residual", "tradeoff_point"),
    "oracle": ("OracleConfig", "OracleResult", "VerificationReport", "constraint_residuals",
               "maximize", "sigma_objective", "verify_closed_form"),
    "simulate": ("RNG_ALGORITHM", "SimulationConfig", "SimulationResult", "run"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


"""Stepped-plate parametric array loudspeaker design and analysis toolkit.

Submodules
----------
medium      air properties and atmospheric absorption
radiator    pistons, plate modes, stepped-plate velocity profiles
linfield    linear field engine (Rayleigh integral, beam patterns, ER)
nlfield     quasilinear difference-frequency (audio) field solver
transducer  Langevin stack models, response surrogates, objectives
optimizer   NSGA-II design optimization, audio capability, sweeps
config, io, cli   run configuration and artifact plumbing
"""

__version__ = "0.1.0"

from .errors import (
    BoundaryPeakWarning,
    ConfigError,
    InfeasibleDesignError,
    NoDualResonanceError,
    NumericalFailureError,
    ParameterDomainError,
    SppalError,
    TruncationTailWarning,
)

_MEDIUM_NAMES = ("Medium", "build_medium", "absorption_coeff", "absorption_coeff_db")


def __getattr__(name: str):
    # the medium's names load on first use (PEP 562), so that
    # ``import sppal`` loads no numpy and ``python -m sppal`` can pin the
    # BLAS threads before numpy does
    if name in _MEDIUM_NAMES:
        from . import medium
        return getattr(medium, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "Medium", "build_medium", "absorption_coeff", "absorption_coeff_db",
    "SppalError", "ParameterDomainError", "InfeasibleDesignError",
    "NumericalFailureError", "NoDualResonanceError", "ConfigError",
    "TruncationTailWarning", "BoundaryPeakWarning",
]

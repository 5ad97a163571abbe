"""Elementary-landscape decomposition of the quadratic assignment problem
under the swap neighborhood, with brute-force verification oracles.

The package root exports what users call; oracle internals and helpers
import from their modules (for example `qaplandscape.decomposition.omega`).
"""

from .core import GeneralTensor, Permutation, QapInstance
from .decomposition import (
    ComponentTriple,
    average_triple,
    component_variances,
    decompose,
    neighborhood_avg_wave,
)
from .oracle import (
    ElementarityReport,
    check_elementary,
    neighborhood_avg_brute,
    variance_triple,
)
from .qaplib import ParseError, generate_instance, parse_qaplib, serialize_qaplib
from .spectral import (
    AutocorrReport,
    WalkSeries,
    analyze_autocorr,
    autocorr_coefficient,
    empirical_autocorr,
    random_walk,
    theoretical_autocorr,
)
from .verification import ClaimResult, run_verification

__version__ = "0.1.0"

__all__ = [
    "AutocorrReport",
    "ClaimResult",
    "ComponentTriple",
    "ElementarityReport",
    "GeneralTensor",
    "ParseError",
    "Permutation",
    "QapInstance",
    "WalkSeries",
    "analyze_autocorr",
    "autocorr_coefficient",
    "average_triple",
    "check_elementary",
    "component_variances",
    "decompose",
    "empirical_autocorr",
    "generate_instance",
    "neighborhood_avg_brute",
    "neighborhood_avg_wave",
    "parse_qaplib",
    "random_walk",
    "run_verification",
    "serialize_qaplib",
    "theoretical_autocorr",
    "variance_triple",
]

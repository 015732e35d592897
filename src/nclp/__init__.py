"""Induced Schatten-norm toolkit for density-weighted matrix maps.

Builds the weighted action U(Y) = G^((1-theta)/p) T(G^(-(1-theta)/p) Y
G^(-theta/p)) G^(theta/p) of a superoperator T against a faithful density G,
estimates its S^p -> S^p norm from below with certified witnesses, evaluates
the known upper bounds, scans a 2x2 family for norms above 1, and classifies
(p, theta) pairs as bounded / unbounded / unknown.
"""

from .cpmap import (
    CompatibilityReport,
    State,
    SuperOperator,
    compatibility,
    is_completely_positive,
)
from .embed import (
    EmbeddedMap,
    Source,
    Status,
    build_embedded,
    classify_region,
    exact_norm_p2,
    theta_thresholds,
    upper_bound,
)
from .matcore import dual_element, schatten_norm
from .normest import NormEstimate, estimate_norm
from .qubitfamily import (
    QubitWitness,
    alpha,
    alpha1,
    family_max,
    family_witness,
    qubit_map,
    qubit_state,
)
from .tensor import kron_state, kron_superop

__version__ = "0.1.0"

__all__ = [
    "CompatibilityReport",
    "EmbeddedMap",
    "NormEstimate",
    "QubitWitness",
    "Source",
    "State",
    "Status",
    "SuperOperator",
    "alpha",
    "alpha1",
    "build_embedded",
    "classify_region",
    "compatibility",
    "dual_element",
    "estimate_norm",
    "exact_norm_p2",
    "family_max",
    "family_witness",
    "is_completely_positive",
    "kron_state",
    "kron_superop",
    "qubit_map",
    "qubit_state",
    "schatten_norm",
    "theta_thresholds",
    "upper_bound",
]

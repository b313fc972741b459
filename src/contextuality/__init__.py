"""Exact contextuality analysis of bipartite compound systems.

Decides, in rational arithmetic, whether a non-signaling system of random
variables is a mixture of its non-signaling deterministic realizations,
returning an explicit decomposition or a Bell-type infeasibility witness;
includes the Peres 33-ray / 40-triad Kochen-Specker construction.
"""

from .analysis import (
    BellWitness,
    CertificateError,
    Decomposition,
    RealizationLimitExceeded,
    SignalingSystemError,
    Verdict,
    chsh,
    classify,
    decomposition_reproduces,
    enumerate_ns_realizations,
    witness_score,
)
from .catalog import NamedSystem, conspiracy_system, get
from .feasibility import (
    FarkasCertificate,
    FeasibleSolution,
    incidence_tableau,
    solve_feasibility,
)
from .peres import (
    Ray,
    Triad,
    Zr2,
    build_ksp_support,
    canonical_ray,
    dot,
    ks_support,
    orthogonal_triads,
    peres_rays,
)
from .systems import (
    Context,
    InvalidSystemError,
    Realization,
    SignalingWitness,
    SupportSpec,
    SystemSpec,
    check_nonsignaling,
    count_assignments,
    make_support,
    make_system,
    marginal,
    mix_context_dependent,
    support_of,
    validate,
)

__all__ = [
    "BellWitness",
    "CertificateError",
    "Context",
    "Decomposition",
    "FarkasCertificate",
    "FeasibleSolution",
    "InvalidSystemError",
    "NamedSystem",
    "Ray",
    "Realization",
    "RealizationLimitExceeded",
    "SignalingSystemError",
    "SignalingWitness",
    "SupportSpec",
    "SystemSpec",
    "Triad",
    "Verdict",
    "Zr2",
    "build_ksp_support",
    "canonical_ray",
    "check_nonsignaling",
    "chsh",
    "classify",
    "conspiracy_system",
    "count_assignments",
    "decomposition_reproduces",
    "dot",
    "enumerate_ns_realizations",
    "get",
    "incidence_tableau",
    "ks_support",
    "make_support",
    "make_system",
    "marginal",
    "mix_context_dependent",
    "orthogonal_triads",
    "peres_rays",
    "solve_feasibility",
    "support_of",
    "validate",
    "witness_score",
]

__version__ = "0.1.0"

"""Exact twisted-conjugacy certificates for classical matrix groups.

The library builds classical matrix groups (special linear, symplectic,
orthogonal and their projective quotients) over finite fields or over
localizations of F_q[t], realizes their automorphisms in a normal form
(inner part, ring part, graph part), and computes the certificates that
separate twisted conjugacy classes: trace degree laws, power identities,
unit obstructions, and exact Reidemeister counts for finite instances.
"""

from . import errors
from .gf import Fq, FqElem
from .polyring import (
    Poly,
    RatFrac,
    RingAut,
    RingDesc,
    factorize,
    fixed_element,
    is_irreducible,
    parse_frac,
    parse_poly,
    poly_gcd,
    ring_automorphisms,
)
from .matrices import Mat, parse_matrix
from .groups import (
    GroupCtx,
    GroupKind,
    GrpElem,
    center,
    enumerate_group,
    form_matrix,
    generators,
    is_member,
    projective_canonicalize,
)
from .auts import GroupAut, aut_order_on, b_matrix, parse_group_aut
from .twist import (
    ReidemeisterResult,
    TwistedOrbitReport,
    are_twisted_conjugate,
    power_reduction_check,
    quotient_count_comparison,
    reidemeister_count,
    twist_step,
    twisted_orbit_of,
    twisted_orbits,
)
from .witness import (
    ObstructionReport,
    TraceCertificate,
    WitnessConfig,
    block_constraint_check,
    d4_tau_suite,
    explicit_conjugator,
    obstruction_report,
    power_identity_check,
    trace_certificate,
    witness_sl,
    witness_so,
    witness_sp,
)

__all__ = [
    "errors",
    "Fq",
    "FqElem",
    "Poly",
    "RatFrac",
    "RingAut",
    "RingDesc",
    "factorize",
    "fixed_element",
    "is_irreducible",
    "parse_frac",
    "parse_poly",
    "poly_gcd",
    "ring_automorphisms",
    "Mat",
    "parse_matrix",
    "GroupCtx",
    "GroupKind",
    "GrpElem",
    "center",
    "enumerate_group",
    "form_matrix",
    "generators",
    "is_member",
    "projective_canonicalize",
    "GroupAut",
    "aut_order_on",
    "b_matrix",
    "parse_group_aut",
    "ReidemeisterResult",
    "TwistedOrbitReport",
    "are_twisted_conjugate",
    "power_reduction_check",
    "quotient_count_comparison",
    "reidemeister_count",
    "twist_step",
    "twisted_orbit_of",
    "twisted_orbits",
    "ObstructionReport",
    "TraceCertificate",
    "WitnessConfig",
    "block_constraint_check",
    "d4_tau_suite",
    "explicit_conjugator",
    "obstruction_report",
    "power_identity_check",
    "trace_certificate",
    "witness_sl",
    "witness_so",
    "witness_sp",
]

__version__ = "0.1.0"

"""Exact modular invariant theory toolkit.

Finite fields, sparse multivariate polynomials, Groebner bases, classical
invariant constructions (Dickson, symplectic, alternating), and a registry
of machine-checkable verification claims with replayable witnesses.
"""

from .errors import (
    ContextMismatch,
    FieldZeroDivision,
    ParseError,
    ResourceLimit,
    UsageError,
)
from .gf import FieldElement, FieldSpec, field, find_irreducible, is_irreducible
from .mpoly import (
    TermOrder,
    Polynomial,
    PolyRing,
    frobenius_power,
)
from .groebner import (
    GroebnerBasis,
    MembershipCertificate,
    buchberger,
    frobenius_closure_search,
    frobenius_power_ideal,
    ideal_member,
    normal_form,
)
from .invariants import (
    MatrixGF,
    apply_matrix,
    dickson_at_point,
    dickson_invariants,
    elementary_symmetric,
    symplectic_relation_sides,
    symplectic_xi,
    vandermonde,
    xring,
)
from .fsing import (
    RunConfig,
    VerificationReport,
    replay_document,
    replay_witness,
    run_claim,
    run_suite,
    suite_claims,
    witness_document,
)

__version__ = "0.1.0"

__all__ = [
    "ContextMismatch",
    "FieldZeroDivision",
    "ParseError",
    "ResourceLimit",
    "UsageError",
    "FieldElement",
    "FieldSpec",
    "field",
    "find_irreducible",
    "is_irreducible",
    "TermOrder",
    "Polynomial",
    "PolyRing",
    "frobenius_power",
    "GroebnerBasis",
    "MembershipCertificate",
    "buchberger",
    "frobenius_closure_search",
    "frobenius_power_ideal",
    "ideal_member",
    "normal_form",
    "MatrixGF",
    "apply_matrix",
    "dickson_at_point",
    "dickson_invariants",
    "elementary_symmetric",
    "symplectic_relation_sides",
    "symplectic_xi",
    "vandermonde",
    "xring",
    "RunConfig",
    "VerificationReport",
    "replay_document",
    "replay_witness",
    "run_claim",
    "run_suite",
    "suite_claims",
    "witness_document",
    "__version__",
]

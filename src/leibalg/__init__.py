"""Exact tools for finite-dimensional left Leibniz algebras.

Structure-constant algebras over Q or GF(p) with exact arithmetic
throughout: central series, coclass, Frattini subalgebra, complete
maximal-subalgebra enumeration over finite fields, brute-force
isomorphism testing, the P1/P2 properties, a catalog of the classified
families with field-dependent constraints, and symbolic extraction of the
constraints the defining identity imposes on parametric tables.
"""

from .catalog import (
    CatalogEntry,
    ConstraintReport,
    instantiate,
    list_catalog,
    sample_params,
    validate_params,
)
from .constraints import (
    ParametricAlgebra,
    VerificationReport,
    eval_at,
    leibniz_constraints,
    verify_implied_relations,
)
from .core import LeibnizAlgebra, LeibnizViolation, QuotientMap, is_nilpotent
from .errors import (
    BadIndex,
    BadVector,
    ConstraintViolated,
    ConstructionError,
    DivisionByZero,
    DuplicateEntry,
    FieldMismatch,
    IncompleteAssignment,
    InternalError,
    LeibalgError,
    NeedsFiniteField,
    NoSuchEntry,
    NotAnIdeal,
    NotApplicable,
    NotASubalgebra,
    NotNilpotent,
    ParseError,
    SearchBoundExceeded,
    UnknownVariable,
)
from .fields import GF, QQ, Field, FieldElement, is_square, sqrt
from .formats import (
    format_algebra,
    format_parametric,
    parse_algebra,
    parse_parametric,
    parse_poly,
    parse_relations,
)
from .linalg import Subspace, Vector
from .maximal import (
    Fingerprint,
    IsoVerdict,
    MaximalPairWitness,
    MaximalSubalgebra,
    check_p1,
    check_p2,
    enumerate_maximal,
    fingerprint,
    frattini_by_intersection,
    is_isomorphic,
)
from .poly import MultiPoly
from .series import (
    SeriesProfile,
    frattini,
    is_cyclic,
    lower_central_series,
    nilpotency_data,
    upper_central_series,
)

__all__ = [
    "BadIndex",
    "BadVector",
    "CatalogEntry",
    "ConstraintReport",
    "ConstraintViolated",
    "ConstructionError",
    "DivisionByZero",
    "DuplicateEntry",
    "Field",
    "FieldElement",
    "FieldMismatch",
    "Fingerprint",
    "GF",
    "IncompleteAssignment",
    "InternalError",
    "IsoVerdict",
    "LeibalgError",
    "LeibnizAlgebra",
    "LeibnizViolation",
    "MaximalPairWitness",
    "MaximalSubalgebra",
    "MultiPoly",
    "NeedsFiniteField",
    "NoSuchEntry",
    "NotAnIdeal",
    "NotApplicable",
    "NotASubalgebra",
    "NotNilpotent",
    "ParametricAlgebra",
    "ParseError",
    "QQ",
    "QuotientMap",
    "SearchBoundExceeded",
    "SeriesProfile",
    "Subspace",
    "UnknownVariable",
    "Vector",
    "VerificationReport",
    "check_p1",
    "check_p2",
    "enumerate_maximal",
    "eval_at",
    "fingerprint",
    "format_algebra",
    "format_parametric",
    "frattini",
    "frattini_by_intersection",
    "instantiate",
    "is_cyclic",
    "is_isomorphic",
    "is_nilpotent",
    "is_square",
    "leibniz_constraints",
    "list_catalog",
    "lower_central_series",
    "nilpotency_data",
    "parse_algebra",
    "parse_parametric",
    "parse_poly",
    "parse_relations",
    "sample_params",
    "sqrt",
    "upper_central_series",
    "validate_params",
    "verify_implied_relations",
]

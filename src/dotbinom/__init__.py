"""Exact dot-analogue counts over odd finite fields.

Counts subspaces of F_q^n by the square class of the Gram determinant of
the standard dot product (and its lambda-scaled companion), in closed form
and by brute-force enumeration, together with the polynomial families the
counts trace out in q.

Importing the package loads the closed forms and what they need, not numpy.
The brute-force oracle (which needs numpy), the polynomial families and
``run_verify`` are loaded on first use: the names this package re-exports
from ``oracle``, ``polyq`` and ``verify``, and those three modules, are
resolved by the module ``__getattr__`` below and then kept as ordinary
attributes.
"""

import importlib

from .closed import (
    Flavor,
    Variant,
    asymptotic_gap,
    bracket,
    bracket_factorial,
    dot_binom,
    dot_binom_variant,
    gaussian_binom,
    group_order,
    limit_value,
    line_counts,
    mobius_sequence,
    pascal_check,
    pascal_row,
    quotient_identity_check,
    shape_checks,
    verbatim_flavor,
    verbatim_group_order,
    verbatim_line_count,
)
from .errors import (
    AmbientMismatch,
    BudgetExceeded,
    DegreeOutOfRange,
    DimensionMismatch,
    DivisionByZero,
    DotAnalogueError,
    EvenCharacteristic,
    ExactDivisionFailed,
    IdentityViolated,
    InvalidQ,
    Mismatch,
    NeitherSign,
    NotALine,
    NotPrime,
    UndefinedForParameters,
    UnsupportedFlavor,
)
from .gf import FieldElement, FieldSpec, SquareClass, make_field
from .quadspace import (
    AmbientForm,
    AmbientKind,
    LineType,
    PosetKind,
    Subspace,
    SubspaceClass,
    ambient_space,
    classify,
    dot_space,
    lambda_dot_space,
    line_type,
)
from .report import CheckRecord, Status, VerifyReport
from .symsets import count_symmetric_ksets

_LAZY_MODULES = ("oracle", "polyq", "verify")
# re-exported name -> the lazily loaded module that defines it
_LAZY_NAMES = {
    **dict.fromkeys((
        "CountReport",
        "PosetSnapshot",
        "build_poset",
        "count_flags",
        "count_lines",
        "count_subspaces_by_class",
        "enumerate_orthogonal_group",
        "enumerate_subspaces",
        "export_hasse",
        "full_count_report",
        "mobius_bottom",
    ), "oracle"),
    **dict.fromkeys((
        "FunctionalSign",
        "PolyFamilyKey",
        "RatPoly",
        "coefficient_symmetry_report",
        "depressed_coefficients",
        "dot_binom_poly",
        "eval_consistency",
        "functional_equation_check",
        "functional_sign_report",
        "gaussian_binom_poly",
        "limit_check",
        "published_functional_sign",
        "row_symmetric",
    ), "polyq"),
    "run_verify": "verify",
}


def __getattr__(name):
    """Import a lazily loaded module or name on first access (PEP 562)."""
    if name in _LAZY_MODULES:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _LAZY_NAMES:
        module = importlib.import_module(f".{_LAZY_NAMES[name]}", __name__)
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_LAZY_MODULES))


__version__ = "0.1.0"

__all__ = [
    "AmbientForm",
    "AmbientKind",
    "AmbientMismatch",
    "BudgetExceeded",
    "CheckRecord",
    "CountReport",
    "DegreeOutOfRange",
    "DimensionMismatch",
    "DivisionByZero",
    "DotAnalogueError",
    "EvenCharacteristic",
    "ExactDivisionFailed",
    "FieldElement",
    "FieldSpec",
    "Flavor",
    "FunctionalSign",
    "IdentityViolated",
    "InvalidQ",
    "LineType",
    "Mismatch",
    "NeitherSign",
    "NotALine",
    "NotPrime",
    "PolyFamilyKey",
    "PosetKind",
    "PosetSnapshot",
    "RatPoly",
    "SquareClass",
    "Status",
    "Subspace",
    "SubspaceClass",
    "UndefinedForParameters",
    "UnsupportedFlavor",
    "Variant",
    "VerifyReport",
    "ambient_space",
    "asymptotic_gap",
    "bracket",
    "bracket_factorial",
    "build_poset",
    "classify",
    "coefficient_symmetry_report",
    "count_flags",
    "count_lines",
    "count_subspaces_by_class",
    "count_symmetric_ksets",
    "depressed_coefficients",
    "dot_binom",
    "dot_binom_poly",
    "dot_binom_variant",
    "dot_space",
    "enumerate_orthogonal_group",
    "enumerate_subspaces",
    "eval_consistency",
    "export_hasse",
    "full_count_report",
    "functional_equation_check",
    "functional_sign_report",
    "gaussian_binom",
    "gaussian_binom_poly",
    "group_order",
    "lambda_dot_space",
    "limit_check",
    "limit_value",
    "line_counts",
    "line_type",
    "make_field",
    "mobius_bottom",
    "mobius_sequence",
    "pascal_check",
    "pascal_row",
    "published_functional_sign",
    "quotient_identity_check",
    "row_symmetric",
    "run_verify",
    "shape_checks",
    "verbatim_flavor",
    "verbatim_group_order",
    "verbatim_line_count",
]

"""Exact descent from rational to integral zeros of quadratic polynomials.

The package works over normed integral domains (rational integers, Gaussian
integers, polynomials over a prime field) with all arithmetic exact.  Given
a quadratic polynomial f and a non-integral rational zero x = a/b, the
descent engine produces a new zero with strictly smaller denominator norm
and iterates down to an integral zero, certifying every algebraic identity
it relies on at runtime.  Around the engine: a rounding/search oracle with
bounded-box Euclideanness checking, an ADC-style representation wrapper
(integral values of a form are attained on integral points), a norm-one
implies-unit checker, a small form/element parser, and brute-force search
tools that generate and cross-check inputs.
"""

from .domains import (
    Domain,
    DomainElement,
    FractionElement,
    FractionPoint,
    GFpT,
    NormAxiomReport,
    ZI,
    ZZ,
    check_norm_axioms,
    domain_from_name,
)
from .errors import (
    DescentAborted,
    DimensionMismatchError,
    DomainMismatchError,
    ExactDivisionError,
    FormCoefficientError,
    FormDegreeError,
    FormError,
    FormSyntaxError,
    FormVariableError,
    IntegralPointError,
    InternalInvariantError,
    IsotropicDirectionError,
    NotAFormError,
    NotAZeroError,
    OracleNotFound,
    SearchBudgetError,
    ValueNotIntegralError,
    ZeroDenominatorError,
)
from .quadratic import LineExpansion, QuadraticPolynomial
from .formparse import format_form, parse_element, parse_form
from .oracle import (
    EuclideanFailure,
    EuclideanReport,
    OracleResult,
    check_euclidean,
    euclidean_step,
    round_point,
)
from .descent import (
    DescentStep,
    DescentTrace,
    N2Failure,
    N2Report,
    adc_represent,
    adc_trace,
    check_n2,
    descend,
    descent_step,
)
from .zerotools import (
    AdcFinding,
    AdcReport,
    SearchBox,
    brute_integral_zero,
    chord_zero,
    random_quadratic,
    random_rational_zero,
    verify_adc,
)

__version__ = "0.1.0"

__all__ = [
    "Domain",
    "DomainElement",
    "FractionElement",
    "FractionPoint",
    "GFpT",
    "ZI",
    "ZZ",
    "domain_from_name",
    "NormAxiomReport",
    "check_norm_axioms",
    "QuadraticPolynomial",
    "LineExpansion",
    "parse_form",
    "parse_element",
    "format_form",
    "OracleResult",
    "EuclideanFailure",
    "EuclideanReport",
    "round_point",
    "euclidean_step",
    "check_euclidean",
    "DescentStep",
    "DescentTrace",
    "descent_step",
    "descend",
    "adc_trace",
    "adc_represent",
    "N2Failure",
    "N2Report",
    "check_n2",
    "SearchBox",
    "AdcFinding",
    "AdcReport",
    "brute_integral_zero",
    "chord_zero",
    "random_rational_zero",
    "random_quadratic",
    "verify_adc",
    "DomainMismatchError",
    "DimensionMismatchError",
    "ZeroDenominatorError",
    "ExactDivisionError",
    "NotAZeroError",
    "IntegralPointError",
    "NotAFormError",
    "ValueNotIntegralError",
    "IsotropicDirectionError",
    "SearchBudgetError",
    "InternalInvariantError",
    "FormError",
    "FormSyntaxError",
    "FormVariableError",
    "FormDegreeError",
    "FormCoefficientError",
    "OracleNotFound",
    "DescentAborted",
]

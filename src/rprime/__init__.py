"""Counting relatively r-prime tuples of ideals in a number field.

Exact counts two independent ways (a Mobius-sum identity over norms
and a brute-force enumeration oracle), density main terms against the
zeta function, theoretical error-exponent tables, and a scan harness
that measures empirical exponents on geometric grids.
"""

__version__ = "0.1.0"

from .analytic import (
    ExponentResult,
    abelian_exponent,
    dedekind_zeta,
    dedekind_zeta_with_cutoff,
    error_term_exponent,
    ideal_remainder_exponent,
    is_sharper,
    main_term,
    sittinger_exponent,
)
from .errors import (
    BudgetExceededError,
    FieldSpecError,
    IndexDivisorError,
    RPrimeError,
    ToleranceError,
)
from .fields import (
    FieldInvariants,
    FieldSpec,
    SplittingType,
    ideal_density_constant,
    load_field_file,
    parse_field_spec,
    splitting_type,
)
from .ideals import count_rprime_direct, count_rprime_direct_upto, enumerate_ideals
from .scan import ScanRecord, SlopeFit, fit_slope, run_error_scan
from .sieve import (
    CoefficientTable,
    build_tables,
    count_rprime_mobius,
    ideal_count,
    load_table,
    local_series,
    save_table,
)

__all__ = [
    "BudgetExceededError",
    "CoefficientTable",
    "ExponentResult",
    "FieldInvariants",
    "FieldSpec",
    "FieldSpecError",
    "IndexDivisorError",
    "RPrimeError",
    "ScanRecord",
    "SlopeFit",
    "SplittingType",
    "ToleranceError",
    "abelian_exponent",
    "build_tables",
    "count_rprime_direct",
    "count_rprime_direct_upto",
    "count_rprime_mobius",
    "dedekind_zeta",
    "dedekind_zeta_with_cutoff",
    "enumerate_ideals",
    "error_term_exponent",
    "fit_slope",
    "ideal_count",
    "ideal_density_constant",
    "ideal_remainder_exponent",
    "is_sharper",
    "load_field_file",
    "load_table",
    "local_series",
    "main_term",
    "parse_field_spec",
    "run_error_scan",
    "save_table",
    "sittinger_exponent",
    "splitting_type",
]

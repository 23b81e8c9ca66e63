"""Exact-arithmetic reconstruction of the Plimpton 322 diagonal calculation.

The pipeline runs entirely on exact rationals: base-60 numerals with
floating place value, the column-0 -> I -> II/III calculation with
stretching and shortening, the embedded tablet dataset with its erratum
registry, conversions to modern function values, exhaustive enumeration
of the valid gradient triangles, and mechanical reproduction of the
scribal errors.
"""

from .enumeration import EnumerationConfig, EnumeratedRow, cadence_map, gap_analysis, generate
from .numerics import (
    NotPerfectSquare,
    NotRegular,
    RegularFactorization,
    factor_regular,
    is_regular,
    least_integer_multiplier,
    rational_sqrt_exact,
    regular_numbers,
)
from .reconstruction import (
    ArrowValue,
    GradientTriangle,
    InconsistentTriangle,
    NotDivisible,
    OutOfDefinitionRange,
    col0_to_col_i,
    col_i_to_function_values,
    definition_range_report,
    reconstruct_line,
    shorten,
    stretch_to_integers,
    verify_all,
)
from .scribal import ErrorReport, classify, refute, simulate
from .sexagesimal import (
    AnchoredSexagesimal,
    NonTerminating,
    ParseError,
    Sexagesimal,
    from_rational,
    parse,
    reciprocal,
    to_rational,
)
from .tablet import DatasetCorrupt, ErratumRecord, RowOutOfRange, TabletLine, get_line, load_dataset
from .trig import (
    FunctionValueSet,
    NotPythagorean,
    approx_diagonal,
    cos_arrow_identity_check,
    double_angle_check,
    forty_five_degree_row,
    from_triple,
    sine_ratio,
    ybc7289_check,
)

__version__ = "0.1.0"

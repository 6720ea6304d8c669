"""polyrec: an exact-arithmetic laboratory for polynomial sequences driven
by differential-difference recurrences.

The pipeline, end to end:

    recurrence  P_n = gamma P_{n-1} + m x P'_{n-1} + lag terms   (exact rows)
    families    named instances with closed-form EGF exponents
    oracle      weighted partition counts over block-size profiles
                (independent witness)
    distribution  exact PMFs, moments, distance-to-normal diagnostics
    asymptotics saddle-point predictions: mean ~ d n / log n,
                variance ~ d^2 n / log^2 n, coefficient estimates
    speclang    text format for custom recurrences
    cli         polyrec triangle / pmf / moments / clt / asymptotics /
                verify / families
"""

from types import ModuleType as _ModuleType

from .algebra import (
    ONE,
    X,
    ZERO,
    ExactPolynomial,
    monomial,
    series_exp,
)
from .asymptotics import (
    ComparisonRecord,
    Partials,
    SaddleReport,
    compare_exact,
    compare_scan,
    f_partials,
    saddle_report,
    solve_saddle,
)
from .distribution import (
    MeanIdentityReport,
    NormalityReport,
    PMFTable,
    clt_scan,
    mean_identity_check,
    normality,
    pmf,
    standard_normal_cdf,
)
from .errors import (
    InvalidDistributionError,
    InvalidIndexError,
    NonzeroConstantTermError,
    ParameterError,
    ParseError,
    PolyrecError,
    SaddleFailureError,
    SaddleOverflowError,
    SizeGuardError,
    UnitMassError,
    UnknownFamilyError,
    UnsupportedShapeError,
    ZeroMassError,
    ZeroVarianceError,
)
from .families import (
    FamilyDescriptor,
    SaddleFunction,
    TheoremConstants,
    build_exponent,
    catalog,
    catalog_names,
    egf_rows,
    family_parameters,
    theorem_constants,
    verify_egf_identity,
)
from .oracle import Check, OracleReport, count_partitions, verify, verify_family
from .recurrence import (
    LagTerm,
    RecurrenceSpec,
    TriangleRow,
    advance,
    generate,
    triangle,
    triangle_linear,
)
from .speclang import FamilyRequest, SpecSource, format_spec, load, parse

__version__ = "0.1.0"

# every public name bound above, less the submodules
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)

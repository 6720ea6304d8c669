"""The package namespace and what importing it costs."""

import os
import subprocess
import sys

import polyrec

PUBLIC_NAMES = [
    "Check",
    "ComparisonRecord",
    "ExactPolynomial",
    "FamilyDescriptor",
    "FamilyRequest",
    "InvalidDistributionError",
    "InvalidIndexError",
    "LagTerm",
    "MeanIdentityReport",
    "NonnegativityReport",
    "NonzeroConstantTermError",
    "NormalityReport",
    "ONE",
    "OracleReport",
    "PMFTable",
    "ParameterError",
    "ParseError",
    "Partials",
    "PartitionConstraint",
    "PolyrecError",
    "RecurrenceSpec",
    "SaddleFailureError",
    "SaddleFunction",
    "SaddleOverflowError",
    "SaddleReport",
    "SizeGuardError",
    "SpecSource",
    "TheoremConstants",
    "TriangleRow",
    "UnitMassError",
    "UnknownFamilyError",
    "UnsupportedShapeError",
    "X",
    "ZERO",
    "ZeroMassError",
    "ZeroVarianceError",
    "advance",
    "build_exponent",
    "catalog",
    "catalog_names",
    "clt_scan",
    "compare_exact",
    "count_partitions",
    "egf_rows",
    "f_partials",
    "family_parameters",
    "format_spec",
    "generate",
    "load",
    "mean_identity_check",
    "monomial",
    "normality",
    "parse",
    "pmf",
    "saddle_report",
    "series_exp",
    "solve_saddle",
    "standard_normal_cdf",
    "theorem_constants",
    "triangle",
    "triangle_linear",
    "validate_nonnegativity",
    "verify",
    "verify_egf_identity",
    "verify_family",
]


def test_public_names():
    # an independent list: a helper imported into the package (a typing
    # name, say) would show up here as an extra public name
    assert len(PUBLIC_NAMES) == 65
    assert polyrec.__all__ == PUBLIC_NAMES


SUBMODULES = [
    "algebra",
    "asymptotics",
    "cli",
    "distribution",
    "errors",
    "families",
    "oracle",
    "recurrence",
    "speclang",
]


def test_cli_start_up_imports():
    # a fresh `import polyrec.cli` loads every polyrec module (the bench
    # tracer looks its targets up in sys.modules) and none of the heavy
    # introspection modules that `dataclasses` pulls in
    src = os.path.dirname(os.path.dirname(polyrec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = "import sys, polyrec.cli; print(*sorted(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded
    ours = [name for name in loaded if name.startswith("polyrec.")]
    assert ours == ["polyrec." + name for name in SUBMODULES]

"""The package namespace and what importing it costs."""

import copy
import gc
import importlib
import os
import pickle
import subprocess
import sys
import weakref

import pytest

import polyrec
from polyrec import errors

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
    "NonzeroConstantTermError",
    "NormalityReport",
    "ONE",
    "OracleReport",
    "PMFTable",
    "ParameterError",
    "ParseError",
    "Partials",
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
    "compare_scan",
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
    "verify",
    "verify_egf_identity",
    "verify_family",
]


def test_public_names():
    # an independent list: a helper imported into the package (a typing
    # name, say) would show up here as an extra public name
    assert len(PUBLIC_NAMES) == 63
    assert polyrec.__all__ == PUBLIC_NAMES


# every exception class of polyrec.errors and the exit code README gives it:
# 3 for a numeric failure, 2 for the rest
EXIT_CODES = {
    "PolyrecError": 2,
    "InvalidIndexError": 2,
    "UnsupportedShapeError": 2,
    "UnknownFamilyError": 2,
    "ParameterError": 2,
    "SizeGuardError": 2,
    "ParseError": 2,
    "NonzeroConstantTermError": 3,
    "InvalidDistributionError": 3,
    "ZeroMassError": 3,
    "ZeroVarianceError": 3,
    "UnitMassError": 3,
    "SaddleFailureError": 3,
    "SaddleOverflowError": 3,
}


def test_every_error_class_has_its_documented_exit_code():
    classes = {
        name: cls
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, Exception) and not name.startswith("_")
    }
    assert {name: cls.exit_code for name, cls in classes.items()} == EXIT_CODES
    assert all(issubclass(cls, errors.PolyrecError) for cls in classes.values())


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


# one run of every command, as `main` arguments: the CSV runs first, then
# the one JSON run, the first to need `json`
RUNS = [
    ["triangle", "--family", "stirling2", "--max-n", "5"],
    ["pmf", "--family", "stirling2", "--n", "5"],
    ["clt", "--family", "stirling2", "--ns", "10"],
    ["asymptotics", "--family", "stirling2", "--ns", "20"],
    ["verify", "--family", "stirling2", "--max-n", "5"],
    ["families"],
    ["moments", "--family", "stirling2", "--ns", "5,6", "--format", "json"],
]


def test_cli_start_up_imports():
    # a fresh `import polyrec.cli` loads every polyrec module (the bench
    # tracer looks its targets up in sys.modules) and none of the heavy
    # introspection modules that `dataclasses` pulls in.  A well-formed
    # line is read without argparse, so no run loads it, nor the gettext
    # and locale modules it imports; help does.  `json` is loaded only to
    # write JSON (or an error)
    src = os.path.dirname(os.path.dirname(polyrec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = f"""
import os, sys
def show():
    print(*sorted(sys.modules), file=sys.stderr)
show()
import polyrec.cli
show()
for argv in {RUNS!r}:
    print(polyrec.cli.main([*argv, "--out", os.devnull]), file=sys.stderr)
    show()
try:
    polyrec.cli.main(["--help"])
except SystemExit:
    show()
"""
    bare, imported, *runs, helped = (
        line.split()
        for line in subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        ).stderr.splitlines()
    )
    codes, ran = runs[::2], runs[1::2]
    assert codes == [["0"]] * len(RUNS)
    assert "dataclasses" not in imported
    assert "inspect" not in imported
    ours = [name for name in imported if name.startswith("polyrec.")]
    assert ours == ["polyrec." + name for name in SUBMODULES]
    parsing = {"argparse", "gettext", "locale"}
    assert parsing.isdisjoint(imported)
    assert all(parsing.isdisjoint(modules) for modules in ran)
    # no CSV run loads `json` that the bare interpreter did not; the JSON one does
    assert all("json" not in set(modules) - set(bare) for modules in [imported, *ran[:-1]])
    assert "json" in ran[-1]
    assert parsing <= set(helped)


def test_cli_import_loads_no_typing():
    # without site (a .pth file may import typing before any of our code),
    # after the stdlib modules the package needs: `typing` costs about 4 ms
    # of a site-free `import polyrec.cli`
    probe = """
import collections.abc, contextlib, decimal, fractions, sys
before = set(sys.modules)
import polyrec.cli
print(*sorted(set(sys.modules) - before))
"""
    src = os.path.dirname(os.path.dirname(polyrec.__file__))
    added = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    assert "polyrec.cli" in added
    assert "typing" not in added


class Node:
    pass


def test_only_the_cli_import_freezes_the_heap(capsys):
    # `import polyrec` leaves a host program's collector alone; importing
    # the command-line module freezes the start-up heap once, and a run
    # freezes nothing, so an in-process caller's garbage is still collected
    src = os.path.dirname(os.path.dirname(polyrec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    # a bare 3.12 interpreter already holds a few hundred frozen objects
    probe = (
        "import gc; bare = gc.get_freeze_count(); "
        "import polyrec; package = gc.get_freeze_count(); "
        "import polyrec.cli; print(bare, package, gc.get_freeze_count())"
    )
    counts = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    ).stdout.split()
    bare, package, cli = map(int, counts)
    assert package == bare < cli
    from polyrec.cli import main

    # a cycle alive during the runs and garbage after them; a freeze inside
    # a run would keep it for good.  Frozen objects freed by reference
    # counting leave the count, so it may fall but must not grow
    cycle = Node()
    cycle.self = cycle
    witness = weakref.ref(cycle)
    before = gc.get_freeze_count()
    assert main(["triangle", "--family", "stirling2", "--max-n", "5"]) == 0
    assert main(["families"]) == 0
    assert gc.get_freeze_count() <= before
    del cycle
    gc.collect()
    assert witness() is None
    capsys.readouterr()


def test_cli_runs_without_named_tuple():
    # `collections.namedtuple` compiles each class's `__new__` with `eval`
    # at import: no polyrec record may be built with it.  The stdlib
    # modules the package uses are imported first, with the real one;
    # argparse imports shutil, which calls it, on its first help formatter
    probe = """
import collections, fractions, decimal, argparse, json, shutil, typing

def refuse(*args, **kwargs):
    raise AssertionError("collections.namedtuple called")

collections.namedtuple = refuse
from polyrec.cli import main
raise SystemExit(main(["triangle", "--family", "stirling2", "--max-n", "3"]))
"""
    src = os.path.dirname(os.path.dirname(polyrec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "3,0,1,3,1"


# every plain record with its fields in order and its defaults, written out
# here as a witness independent of the classes
RECORDS = [
    (
        "asymptotics",
        "ComparisonRecord",
        "n exact_mean predicted_mean mean_rel_err exact_variance predicted_variance"
        " variance_rel_err exact_log_total estimate_log_total log_total_rel_err report",
        {},
    ),
    ("asymptotics", "Partials", "f f_z f_zz f_x f_zx f_xx", {}),
    (
        "asymptotics",
        "SaddleReport",
        "n rho rho_prime predicted_mean predicted_variance b_value coeff_estimate_log"
        " leading_mean leading_variance",
        {},
    ),
    (
        "distribution",
        "MeanIdentityReport",
        "family n_max ok first_mismatch",
        {"first_mismatch": None},
    ),
    (
        "distribution",
        "NormalityReport",
        "n ks_plain ks_continuity standardized_third standardized_fourth center scale"
        " ks_plain_limit ks_continuity_limit",
        {},
    ),
    (
        "families",
        "Family",
        "params listed model oeis depths",
        {"oeis": (), "depths": ()},
    ),
    ("families", "TheoremConstants", "d alpha_d hypothesis_ok", {}),
    ("oracle", "Check", "name ok detail", {}),
    (
        "oracle",
        "OracleReport",
        "family n_max ok skipped notice first_mismatch",
        {"skipped": False, "notice": "", "first_mismatch": None},
    ),
    ("recurrence", "ScaledData", "denominator gamma m lags", {}),
    ("recurrence", "TriangleRow", "n poly", {}),
    ("speclang", "FamilyRequest", "name params", {}),
    ("speclang", "SpecSource", "text origin", {"origin": "<inline>"}),
    ("speclang", "_Token", "kind text line column", {}),
]


@pytest.mark.parametrize(
    "module,name,fields,defaults", RECORDS, ids=[record[1] for record in RECORDS]
)
def test_records_are_plain_tuples(module, name, fields, defaults):
    cls = getattr(importlib.import_module("polyrec." + module), name)
    fields = tuple(fields.split())
    assert cls._fields == fields
    # Family's `oeis` default is a function of the parameters: compare what
    # it gives for none
    given = cls._field_defaults.items()
    assert {key: value() if callable(value) else value for key, value in given} == defaults
    values = tuple(range(len(fields)))
    record = cls(*values)
    assert not hasattr(record, "__dict__")
    assert record == values and isinstance(record, tuple)
    assert record._asdict() == dict(zip(fields, values))
    changed = record._replace(**{fields[0]: "x"})
    assert type(changed) is cls and changed == ("x", *values[1:])
    assert repr(record) == f"{name}({', '.join(f'{f}={v}' for f, v in zip(fields, values))})"
    assert cls._make(values) == record and type(cls._make(values)) is cls
    for twin in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is cls
    with pytest.raises(AttributeError):
        setattr(record, fields[0], "x")
    with pytest.raises(ValueError):
        record._replace(bogus=1)
    assert cls.__match_args__ == fields


def test_family_descriptor_carries_no_model():
    # the partition model is read off `spec`: the descriptor holds no copy
    cls = polyrec.FamilyDescriptor
    assert cls._fields == ("name", "parameters", "spec", "oeis_refs")
    assert cls._field_defaults == {"oeis_refs": ()}


@pytest.mark.parametrize("module", SUBMODULES)
def test_no_module_binds_named_tuple(module):
    for name in ("NamedTuple", "namedtuple"):
        assert not hasattr(importlib.import_module("polyrec." + module), name)

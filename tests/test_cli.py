"""End-to-end command-line behavior: outputs, exit codes, determinism."""

import argparse
import contextlib
import decimal
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from polyrec import asymptotics, cli, distribution, errors, families, oracle, recurrence
from polyrec.algebra import ExactPolynomial
from polyrec.cli import main
from polyrec.errors import InvalidIndexError, ParameterError, UnsupportedShapeError
from polyrec.families import (
    FAMILIES,
    FamilyDescriptor,
    catalog,
    verify_egf_identity,
)
from polyrec.recurrence import LagTerm, RecurrenceSpec, triangle
from polyrec.speclang import format_spec, load


def run_cli(capsys, *argv):
    # argparse reports flag misuse by raising SystemExit(2); fold that into
    # the same (code, out, err) shape as a normal return
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_triangle_csv_last_row(capsys):
    code, out, err = run_cli(
        capsys, "triangle", "--family", "stirling2", "--max-n", "4", "--format", "csv"
    )
    assert code == 0 and err == ""
    lines = out.strip().split("\n")
    assert lines[0] == "n,c0,c1,c2,c3,c4"
    assert lines[-1] == "4,0,1,7,6,1"


def test_triangle_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "triangle", "--family", "dowling(m=2)", "--max-n", "6",
        "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    rows = triangle(catalog("dowling", m=2).spec, 6)
    assert len(payload["rows"]) == 7
    for row, entry in zip(rows, payload["rows"]):
        assert entry["n"] == row.n
        assert [str(c) for c in row.coeffs] == entry["coeffs"]


SHIFTED_RATIONAL = "gamma: x + 1/2; m: 2/3; start: {index: 2, poly: 3/4x^2};"
SIGNED_BINOMIAL = "gamma: x - 3; m: 2; lag: {s: 2, coeff: -x + 1, binom: true};"
INLINE_IDS = {SHIFTED_RATIONAL: "inline", SIGNED_BINOMIAL: "signed-binomial"}

# sha256 of stdout, recorded while rows were still Fraction tuples
GOLDEN_DIGESTS = {
    ("triangle", "--family", "stirling2", "--max-n", "60", "--format", "csv"):
        "46c219509b85ea8faeaa6c05655084dd5988b1a0e270b5e8c61756b52ce5368d",
    ("triangle", "--family", "stirling2", "--max-n", "60", "--format", "json"):
        "2d1e6344ffff935d320d71cfd1ecd61078b51a66d111e2b1205f19aa2f255325",
    ("triangle", "--inline", SHIFTED_RATIONAL, "--max-n", "30", "--format", "csv"):
        "3438b6dbb686361bfd3d8449cf092357be7254812a1a6ae1a8a0be7b0776add3",
    ("triangle", "--inline", SHIFTED_RATIONAL, "--max-n", "30", "--format", "json"):
        "17db872376f9207b4cb1ca57b9e2e897c8c0e8e9cf54c3ea6f534b74257dd2ff",
    ("pmf", "--family", "dowling(m=2)", "--n", "40", "--format", "csv"):
        "721a81c9d807a9c2f5a8a9bae3f69180a7bd7033702604bd6d4bfb533b6a05f3",
    ("pmf", "--family", "dowling(m=2)", "--n", "40", "--format", "json"):
        "b229fad93a558939a76f7064ca30b9dddab78487655785bb1efb5a689dd2da9c",
    ("clt", "--family", "dowling(m=2)", "--ns", "20,40,80", "--format", "csv"):
        "0b91c6718adc9e7dd2dfbfead25986f44f681c161ac2d1f17396d054ddb83792",
    ("clt", "--family", "dowling(m=2)", "--ns", "20,40,80", "--format", "json"):
        "e5dc418fe179c397a2cd0217cc422c114ae28c5e3c488ba63525bf8ec3aa3ae8",
    ("asymptotics", "--family", "dowling(m=2)", "--ns", "30,60", "--format", "csv"):
        "0ead224811813430183180dc8a3e3c1de2350e33aa1bb16841082db600772927",
    ("asymptotics", "--family", "dowling(m=2)", "--ns", "30,60", "--format", "json"):
        "0b8c1f5dba2b1a3216046e3b38f2c8e194f2757caf53aee67fbf7bdb2656a2e0",
    # recorded while the whole triangle text was built before writing: a zero
    # row ("coeffs": []) and an integer spec starting at row 3
    ("triangle", "--family", "assoc_stirling(s=2)", "--max-n", "12", "--format", "json"):
        "ff0f668366ab3d1528224fdfea7106015f4768e3ca2d08bd7d90132276727bb1",
    ("triangle", "--family", "r_stirling(r=3)", "--max-n", "20", "--format", "csv"):
        "6ed879fee1286bbca03a854bcc009d26d617d0ec50b9bd30a2cd1f6e292fb837",
    ("triangle", "--family", "r_stirling(r=3)", "--max-n", "20", "--format", "json"):
        "700060140b4f77eafaa8d872b3b5d2589d5bc0036a65fc4cd537cd82e63bfcd1",
    # recorded while the result records were dataclasses: the enumeration
    # detail is str(OracleReport)
    ("verify", "--family", "dowling(m=2)", "--max-n", "30", "--format", "csv"):
        "8e28ddb633133fdfc55b2bbbd824a804c320bfd99edb6079320c90adfcb3fe03",
    ("verify", "--family", "dowling(m=2)", "--max-n", "30", "--format", "json"):
        "ac4cba1ceac54471c059058310efc6fbda3a4eed4032300c37d1f482f8cb0204",
    # re-recorded once the model was read off the spec: sheffer(d, a) is the
    # model (a, d, 1, d), enumerated through row 8 (exit 0)
    ("verify", "--family", "sheffer(d=2,a=1)", "--max-n", "10", "--format", "csv"):
        "968a93b1f70ca309f73d6180e4dcdb93d2d6ea8843c0d899c68ed03a3fd95a5f",
    # recorded while integer triangles were printed with str(int): signed
    # entries, and galton(m=1,c=-1) has zero entries amid negative ones
    ("triangle", "--inline", SIGNED_BINOMIAL, "--max-n", "40", "--format", "csv"):
        "dcc065d6007499fdc2b460a88fff227072bb470de20d9cbb1e89724147c7eefa",
    ("triangle", "--inline", SIGNED_BINOMIAL, "--max-n", "40", "--format", "json"):
        "f573ec5b88717c036f8e5d876ce433d3334df2de8ca96a540b320030205b3c6d",
    ("triangle", "--family", "galton(m=1,c=-1)", "--max-n", "60", "--format", "csv"):
        "895bf153f5240328939fab046a706ab7e062acc7f08fad3e8eef8c57fd5fd7eb",
    ("triangle", "--family", "galton(m=1,c=-1)", "--max-n", "60", "--format", "json"):
        "a3834f4184b7d6c1e52048155d421dfc5c752680e828c0ac76a8404660af0c3e",
}


@pytest.mark.parametrize(
    "argv",
    list(GOLDEN_DIGESTS),
    ids=[f"{a[0]}-{a[2] if a[1] == '--family' else INLINE_IDS[a[2]]}-{a[-1]}" for a in GOLDEN_DIGESTS],
)
def test_output_matches_golden_digest(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_DIGESTS[argv]


class RecordingStdout(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_triangle_is_written_row_by_row(monkeypatch, fmt):
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["triangle", "--family", "stirling2", "--max-n", "40", "--format", fmt]) == 0
    assert len(stdout.writes) >= 41
    if fmt == "csv":
        header, *lines = stdout.getvalue().splitlines()
        assert len(lines) == 41
        assert max(map(len, stdout.writes)) <= len(header) + max(map(len, lines))
    else:
        assert len(json.loads(stdout.getvalue())["rows"]) == 41
        assert max(map(len, stdout.writes)) < len(stdout.getvalue()) / 10


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "source", [("--family", "stirling2"), ("--inline", SHIFTED_RATIONAL)]
)
def test_out_file_matches_stdout(tmp_path, capsys, source, fmt):
    argv = ("triangle", *source, "--max-n", "30", "--format", fmt)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    target = tmp_path / "rows"
    code, second, err = run_cli(capsys, *argv, "--out", str(target))
    assert code == 0 and second == "" and err == ""
    assert target.read_bytes() == out.encode()


# m = 10^30 makes row 160's entries far longer than Python's 4300-digit
# int-to-str limit (the benchmark's contract probe)
OVERLONG = f"gamma: x + 1; m: {10**30};"
# row 0 is 9e4299 + 9e4299 x (4300 digits, printable); row 1 is
# 1.8e4300 + 3.6e4300 x + 9e4299 x^2, the first entry past the limit by one
# digit, and later rows are longer still
NINE_E4299 = "9" + "0" * 4299
BOUNDARY = f"gamma: x + 2; m: 1; start: {{index: 0, poly: {NINE_E4299}x + {NINE_E4299}}};"
# row n is 1 / (9e4299)^n: short numerators, and row 2's denominator is the
# first entry past the limit
DENOMINATOR = f"gamma: 1/{NINE_E4299}; m: 1;"
# rows 2^n x, but gamma x + 1 and the lag -x cancel at every bound degree past
# the start, so the majorant cannot prove the CSV width
TOP_BAND_CANCELS = "gamma: x + 1; m: 1; lag: {s: 1, coeff: -x}; start: {index: 0, poly: x};"


def run_module(*argv):
    """`python -m polyrec.cli ARGV` in a fresh interpreter, stdout and
    stderr on pipes, as bytes.  Its stdout is buffered, as a shell's is,
    whatever PYTHONUNBUFFERED says here."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "polyrec.cli", *argv],
        capture_output=True,
        env={**env, "PYTHONPATH": path},
        timeout=120,
    )


def test_exit_delivers_every_byte(tmp_path, capsys):
    # 2.4 MB of rows on a pipe, far past any buffer: what is still buffered
    # when `main` returns is flushed at interpreter exit, frozen heap or not
    argv = ("triangle", "--family", "stirling2", "--max-n", "200")
    piped = run_module(*argv)
    assert piped.returncode == 0 and piped.stderr == b""
    assert len(piped.stdout) > 2_000_000
    target = tmp_path / "rows.csv"
    written = run_module(*argv, "--out", str(target))
    assert written.returncode == 0 and written.stdout == written.stderr == b""
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    digests = {hashlib.sha256(b).hexdigest() for b in (piped.stdout, target.read_bytes())}
    assert digests == {hashlib.sha256(out.encode()).hexdigest()}
    # an entry past the digit limit: exit 4, one JSON line, nothing written
    probe = run_module("triangle", "--inline", OVERLONG, "--max-n", "160")
    assert probe.returncode == 4 and probe.stdout == b""
    assert probe.stderr.decode() == first_conversion_error(OVERLONG, 160)


@functools.lru_cache(maxsize=None)
def first_conversion_error(text, max_n):
    """The stderr line of the first entry, in row then column order, whose
    text conversion fails."""
    for row in triangle(load(text), max_n):
        for c in row.coeffs:
            try:
                str(c)
            except ValueError as err:
                return json.dumps({"error": {"type": "ValueError", "message": str(err)}}) + "\n"
    return None


@pytest.mark.parametrize("use_out", [False, True], ids=["stdout", "out"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "text,max_n", [(OVERLONG, 160), (BOUNDARY, 1), (BOUNDARY, 3), (DENOMINATOR, 2)],
    ids=["overlong", "boundary-1", "boundary-3", "denominator"],
)
def test_overlong_entry_writes_nothing(tmp_path, capsys, text, max_n, fmt, use_out):
    target = tmp_path / "rows"
    extra = ("--out", str(target)) if use_out else ()
    code, out, err = run_cli(
        capsys, "triangle", "--inline", text, "--max-n", str(max_n), "--format", fmt, *extra
    )
    assert code == 4 and out == ""
    assert err == first_conversion_error(text, max_n)
    assert "Exceeds the limit (4300" in err
    assert not target.exists()


def test_overlong_check_stops_at_the_first_failing_row(capsys, monkeypatch):
    # row 0's entries have enough bits to need a look but print; row 1 fails,
    # and rows 2 and 3, longer still, are never converted
    seen = []

    def spy(poly, row_texts=cli._row_texts):
        seen.append(poly.degree)
        return row_texts(poly)

    monkeypatch.setattr(cli, "_row_texts", spy)
    code, out, _ = run_cli(capsys, "triangle", "--inline", BOUNDARY, "--max-n", "3")
    assert code == 4 and out == ""
    assert seen == [1, 2]


@pytest.mark.parametrize(
    "text,row",
    [
        # 4300 nines: the longest printable entry
        (f"gamma: x; m: 1; start: {{index: 0, poly: {'9' * 4300}}};", ["0", "9" * 4300]),
        # the scaled numerator 2 * 8e4299 has 4301 digits, the reduced ones fewer
        (
            f"gamma: x + 1/2; m: 1; start: {{index: 0, poly: 8{'0' * 4299}}};",
            ["4" + "0" * 4299, "8" + "0" * 4299],
        ),
        (f"gamma: x; m: 1; start: {{index: 0, poly: 1/{'9' * 4300}}};", ["0", "1/" + "9" * 4300]),
    ],
    ids=["nines", "reduced", "denominator"],
)
def test_longest_printable_entries_are_written(capsys, text, row):
    code, out, err = run_cli(capsys, "triangle", "--inline", text, "--max-n", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[2].split(",") == ["1"] + row


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_no_digit_limit_prints_everything(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = run_cli(capsys, "triangle", "--inline", BOUNDARY, "--max-n", "1")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and err == ""
    assert out.splitlines()[2].split(",")[1:3] == ["18" + "0" * 4299, "36" + "0" * 4299]


# column 0 of row n >= 1 is 0 * -1: a Decimal row holds -0 there
NEGATIVE_START = "gamma: x; m: 1; start: {index: 0, poly: -1};"

@st.composite
def _triangle_specs(draw, coeffs, rates):
    poly = st.lists(coeffs, max_size=3).map(ExactPolynomial)
    depths = draw(st.lists(st.integers(1, 3), max_size=2, unique=True))
    return RecurrenceSpec(
        gamma=draw(poly),
        m=draw(rates),
        lags=tuple(LagTerm(s, draw(poly), draw(st.booleans())) for s in depths),
        start_index=draw(st.integers(0, 3)),
        start_poly=ExactPolynomial(draw(st.lists(coeffs, max_size=4).filter(any))),
    )


# integer data print through Decimal rows, rational data through the int
# rows of recurrence.rows, in one pass whatever the signs when the majorant
# proves the width, after a check pass for CSV when it does not; every route
# must print str(Fraction) of each coefficient
_RATES = st.fractions(Fraction(1, 4), 3, max_denominator=4)
_INTEGER_SPECS = _triangle_specs(st.integers(-4, 4), st.integers(1, 3))
_NONNEGATIVE_INTEGER_SPECS = _triangle_specs(st.integers(0, 4), st.integers(1, 3))
_RATIONAL_SPECS = _triangle_specs(st.fractions(-4, 4, max_denominator=4), _RATES)
_NONNEGATIVE_RATIONAL_SPECS = _triangle_specs(st.fractions(0, 4, max_denominator=4), _RATES)


class ContextRecordingStdout(io.StringIO):
    """A stdout that notes the decimal context in force at every write."""

    def __init__(self):
        super().__init__()
        self.contexts = set()

    def write(self, text):
        self.contexts.add(repr(decimal.getcontext()))
        return super().write(text)


@settings(max_examples=160, deadline=None)
@given(
    st.one_of(
        _INTEGER_SPECS,
        _NONNEGATIVE_INTEGER_SPECS,
        _RATIONAL_SPECS,
        _NONNEGATIVE_RATIONAL_SPECS,
    ),
    st.integers(0, 16),
)
@example(load(NEGATIVE_START), 3)
@example(load(TOP_BAND_CANCELS), 5)
# a constant gamma plus a binomial lag, as r_whitney_assoc: no gamma pass at all
@example(catalog("r_whitney_assoc", m=2, r=1, s=2).spec, 12)
@example(load("gamma: -2; m: 1; lag: {s: 2, coeff: 3x - 1, binom: true};"), 12)
# rational data whose rows past the first are zero ("coeffs": [])
@example(load("gamma: 0; m: 1/2; start: {index: 0, poly: 3/4};"), 2)
def test_integer_triangle_text_is_the_int_rows(spec, rows):
    # the rows of recurrence.triangle, which the command never calls, are
    # the witness for the text printed
    max_n = spec.start_index + rows
    want = [(row.n, list(map(str, row.coeffs))) for row in triangle(spec, max_n)]
    argv = ["triangle", "--inline", format_spec(spec), "--max-n", str(max_n)]
    caller = repr(decimal.getcontext())
    for fmt in ("csv", "json"):
        stdout = ContextRecordingStdout()
        with contextlib.redirect_stdout(stdout):
            assert main(argv + ["--format", fmt]) == 0
        assert stdout.contexts == {caller}
        if fmt == "json":
            # the rows are written as text, byte for byte what json.dumps writes
            rows = [{"n": n, "coeffs": t} for n, t in want]
            assert stdout.getvalue() == json.dumps({"rows": rows}, indent=2) + "\n"
            continue
        header, *lines = stdout.getvalue().splitlines()
        width = len(header.split(",")) - 1
        assert width == max(len(t) for _, t in want)
        got = [line.split(",") for line in lines]
        assert got == [[str(n)] + t + ["0"] * (width - len(t)) for n, t in want]
        assert "-0" not in {entry for line in got for entry in line}
    assert repr(decimal.getcontext()) == caller


def test_negative_zero_prints_as_zero(capsys):
    spec = load(NEGATIVE_START)
    with decimal.localcontext(cli._EXACT):
        raw = [q for _, q in recurrence.scaled_rows(spec, 2, [decimal.Decimal(-1)])]
    assert [list(map(str, q)) for q in raw] == [["-1"], ["-0", "-1"], ["-0", "-1", "-1"]]
    code, out, err = run_cli(capsys, "triangle", "--inline", NEGATIVE_START, "--max-n", "2")
    assert code == 0 and err == ""
    assert out.splitlines() == ["n,c0,c1,c2", "0,-1,0,0", "1,0,-1,0", "2,0,-1,-1"]


@st.composite
def _scaled_rows(draw):
    """(numerators, denominator) of a rational row: the denominator 1, a
    power of two up to 2^700, odd, or both; signed numerators with interior
    zeros, with more trailing zero bits than the denominator, and sharing
    its odd part."""
    odd = 2 * draw(st.integers(0, 10**40)) + 1
    power = 1 << draw(st.integers(1, 700))
    den = draw(st.sampled_from([1, power, odd, odd * power]))
    shifted = st.builds(operator.lshift, st.integers(-(10**6), 10**6), st.integers(0, 720))
    numerator = st.one_of(
        st.just(0),
        st.integers(-(10**60), 10**60),
        shifted,
        shifted.map(lambda q: q * odd),
    )
    return draw(st.lists(numerator, max_size=8)), den


@settings(max_examples=300, deadline=None)
@given(_scaled_rows())
@example(([-3, 0, -12], 16))
def test_row_texts_are_the_fraction_texts(row):
    poly = ExactPolynomial.from_scaled(*row)
    assert cli._row_texts(poly) == [str(c) for c in poly.coeffs]


# row 2 is (-3 + 0x - 12x^2) / 16: a zero entry over a power of two, which
# takes no shift step and prints as 0, not as 0/16
HALVES_WITH_ZERO = "gamma: x - 1/2; m: 1; start: {index: 0, poly: -3/4};"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_zero_entry_over_a_power_of_two(capsys, fmt):
    code, out, err = run_cli(
        capsys, "triangle", "--inline", HALVES_WITH_ZERO, "--max-n", "3", "--format", fmt
    )
    assert code == 0 and err == ""
    if fmt == "csv":
        assert out.splitlines()[3] == "2,-3/16,0,-3/4,0"
    else:
        assert json.loads(out)["rows"][2]["coeffs"] == ["-3/16", "0", "-3/4"]


def test_pmf_json_probs(capsys):
    code, out, _ = run_cli(
        capsys, "pmf", "--family", "stirling2", "--n", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["probs"] == {"1": "1/5", "2": "3/5", "3": "1/5"}
    assert payload["mean"] == "2"
    assert payload["variance"] == "2/5"


def test_outputs_are_deterministic(capsys):
    argv = ("clt", "--family", "stirling2", "--ns", "20,40", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_clt_csv_ks_decreases(capsys):
    code, out, _ = run_cli(
        capsys, "clt", "--family", "stirling2", "--ns", "50,400", "--format", "csv"
    )
    assert code == 0
    header, first, second = out.strip().split("\n")
    columns = header.split(",")
    ks_index = columns.index("ks_continuity")
    assert float(second.split(",")[ks_index]) < float(first.split(",")[ks_index])


def test_clt_empty_ns_gives_header_only(capsys):
    code, out, _ = run_cli(
        capsys, "clt", "--family", "stirling2", "--ns", "", "--format", "csv"
    )
    assert code == 0
    assert out.strip().count("\n") == 0
    assert out.startswith("n,")


def test_verify_family_ok(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "dowling(m=2)")
    assert code == 0
    assert "fail" not in out.lower()


@pytest.mark.parametrize(
    "text",
    [
        "gamma: x; m: 1; lag: {s: 3, coeff: x, binom: true}; "
        "lag: {s: 2, coeff: 1, binom: true};",
        "gamma: x + 1; m: 2; start: {index: 2, poly: 3x^2};",
    ],
)
def test_custom_spec_with_closed_form(capsys, text):
    # several binomial lags, or a shifted monomial start c x^r: the series
    # check runs, and the predictions account for the c x^r prefactor
    code, out, _ = run_cli(
        capsys, "verify", "--inline", text, "--max-n", "12", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["checks"][0]["detail"] == "rows 0..12 match"
    code, out, _ = run_cli(
        capsys, "asymptotics", "--inline", text, "--ns", "200", "--format", "json"
    )
    assert code == 0
    record = json.loads(out)[0]
    assert float(record["mean_rel_err"]) < 0.01
    assert float(record["log_total_rel_err"]) < 1e-4


NO_CLOSED_FORM = "gamma: x; m: 1; lag: {s: 2, coeff: 1};"


def test_custom_spec_without_closed_form(capsys):
    # a unit-weight lag: verify skips the series check, the commands that
    # need the exponent refuse before any row is generated
    code, out, err = run_cli(
        capsys, "verify", "--inline", NO_CLOSED_FORM, "--max-n", "6"
    )
    assert (code, err) == (0, "")
    assert out == (
        "check,status,detail\n"
        "egf_identity,pass,skipped: only binomially weighted lags have a "
        "closed-form exponent\n"
        "enumeration,pass,skipped: custom spec has no model\n"
        "nonnegativity,pass,all entries >= 0\n"
    )
    for command, ns in [
        ("clt", "10"), ("clt", "10,1"), ("asymptotics", "10"), ("asymptotics", "2")
    ]:
        code, out, err = run_cli(capsys, command, "--inline", NO_CLOSED_FORM, "--ns", ns)
        assert (code, out) == (2, ""), (command, ns)
        assert err.count("\n") == 1
        assert json.loads(err)["error"]["type"] == "UnsupportedShapeError"


@pytest.mark.parametrize(
    "family,detail",
    [
        ("whitney(m=2,c=7)", "whitney(m=2;c=7): rows up to 8 match enumeration"),
        (
            "r_whitney_assoc(m=2,r=8,s=2)",
            "r_whitney_assoc(m=2;r=8;s=2): rows up to 8 match enumeration",
        ),
        ("whitney(m=1,c=14)", "whitney(m=1;c=14): rows up to 8 match enumeration"),
        # the first row is 10, past the enumeration's row 8
        ("r_stirling(r=10)", "skipped: no row up to 8: the first row is 10"),
        ("whitney(m=2,c=20)", "whitney(m=2;c=20): rows up to 8 match enumeration"),
    ],
)
def test_verify_enumerates_only_inside_the_guard(capsys, family, detail):
    # r distinguished elements are only a weight of the walk: the
    # enumeration reaches row 8 whatever r is
    code, out, err = run_cli(capsys, "verify", "--family", family, "--max-n", "20")
    assert (code, err) == (0, "")
    assert out.splitlines()[2] == f"enumeration,pass,{detail}"


def test_verify_catches_negative_rows(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inline", "gamma: x - 3; m: 1;")
    assert code == 1
    assert "negative" in out.lower()


def test_parse_error_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "triangle", "--inline", "gamma: x; m: 0;", "--max-n", "4"
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"]["type"] == "ParseError"
    assert payload["error"]["line"] == 1
    assert payload["error"]["column"] == 14


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="no int-to-str digit limit",
)
def test_overlong_literal_exits_2(capsys):
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    code, out, err = run_cli(
        capsys, "triangle", "--inline", f"gamma: {digits}; m: 1;", "--max-n", "2"
    )
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    payload = json.loads(err)["error"]
    assert payload["type"] == "ParseError"
    assert (payload["line"], payload["column"]) == (1, 8)


@pytest.mark.parametrize("source", ["--family", "--inline"])
@pytest.mark.parametrize("family,name", [("r_stirling(r={})", "r"), ("assoc_stirling(s={})", "s")])
def test_catalog_depth_cap(capsys, source, family, name):
    # a start degree or lag depth of 10,000 runs; one more is refused
    def run(value):
        text = family.format(value)
        text = text if source == "--family" else f"family: {text};"
        return run_cli(capsys, "triangle", source, text, "--max-n", "10000")

    code, out, err = run(10_000)
    assert code == 0 and err == ""
    assert out.splitlines()[-1].startswith("10000,")
    code, out, err = run(10_001)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and json.loads(err)["error"] == {
        "type": "ParameterError",
        "message": f"parameter '{name}' must be <= 10000, got 10001",
    }


def test_usage_error_for_conflicting_sources(capsys):
    code, _, err = run_cli(
        capsys, "triangle", "--family", "stirling2", "--inline", "gamma: x; m: 1;",
        "--max-n", "3",
    )
    assert code == 2
    assert err != ""


def test_zero_mass_exits_3(capsys):
    code, _, err = run_cli(
        capsys, "pmf", "--family", "assoc_stirling(s=2)", "--n", "1"
    )
    assert code == 3
    payload = json.loads(err)
    assert payload["error"]["type"] == "ZeroMassError"


@pytest.mark.parametrize("command", ["clt", "moments"])
def test_rows_below_the_start_exit_3(capsys, command):
    # r_stirling(r=3) starts at row 3: row 2 has no mass, whichever
    # subcommand asks for it
    code, out, err = run_cli(
        capsys, command, "--family", "r_stirling(r=3)", "--ns", "2"
    )
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "ZeroMassError",
        "message": "row 2 precedes the first row 3",
    }


# row n is (x + N)^n plus lower terms: the variance of row n is about 1/N,
# below the float range, and the EGF exponent's coefficient N is past it
NINES = f"gamma: x + {'9' * 2200}; m: 1;"
# f = 10^-400 x (e^z - 1): the saddle of row 3 sits near z = 915, where e^z
# is past the double range and the coefficient 10^-400 below it
TINY = f"gamma: 1/1{'0' * 400}x; m: 1;"
# row 3 has mass 1 + 3 10^-100: its log total is 3e-100, not 0
NEAR_ONE = f"gamma: x; m: 1/1{'0' * 100};"
# the depth-1100 term x has the coefficient 2^1100 on its e^{z/2}
STEEP = "gamma: x; m: 1/2; lag: {s: 1100, coeff: x, binom: true};"
# m = 10^400 is past the double range
HUGE_M = f"gamma: x; m: 1{'0' * 400};"
# a constant gamma fails the saddle theorem, and 10^2200 - 1 the float range
FLAT_NINES = f"gamma: {'9' * 2200}; m: 1;"


@pytest.mark.parametrize(
    "source,error",
    [
        (("--family", "assoc_stirling(s=2)"), "ZeroVarianceError"),
        (("--inline", "gamma: 1/8x + 3/8; m: 2;"), "UnitMassError"),
        (("--inline", NINES), "SaddleOverflowError"),
        (("--inline", TINY), "SaddleFailureError"),
        (("--inline", STEEP), "SaddleOverflowError"),
        (("--family", "assoc_stirling(s=40)", "--ns", "10"), "ZeroMassError"),
        (("--inline", "gamma: -x; m: 1;"), "SaddleFailureError"),
        (("--inline", HUGE_M), "SaddleOverflowError"),
    ],
)
def test_asymptotics_degenerate_row_exits_3(capsys, source, error):
    # row 3 has zero variance, or total mass P_3(1) = 1: no relative error;
    # or a float saddle function cannot hold m or a coefficient of the exponent,
    # or the saddle sits past the double range; or the row has no mass, which
    # is found before the saddle is solved; or the saddle equation has no
    # root, which is found before the row's negative entries
    argv = source if "--ns" in source else (*source, "--ns", "3")
    code, out, err = run_cli(capsys, "asymptotics", *argv)
    assert code == 3 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == error


@pytest.mark.parametrize("s,n", [(60, 200), (100, 300), (300, 600)])
def test_asymptotics_solves_deep_lags(capsys, s, n):
    # the partial sums of x T_s(z) cancel its e^z at these saddles
    code, out, err = run_cli(
        capsys, "asymptotics", "--family", f"assoc_stirling(s={s})", "--ns", str(n)
    )
    assert code == 0 and err == ""
    (line,) = out.splitlines()[1:]
    assert line.startswith(f"{n},")


def test_asymptotics_solves_at_a_tiny_m(capsys):
    # at m = 10^-100 the first bracket end is about 10^100 and the saddles
    # sit at 1.5 and 50: the bisection runs to float resolution, where a
    # fixed 200 steps left Newton a bracket near 10^40
    m = "1/1" + "0" * 100
    code, out, err = run_cli(
        capsys, "asymptotics", "--inline", f"gamma: 2x; m: {m};", "--ns", "3,100"
    )
    assert code == 0 and err == ""
    rows = [line.split(",")[:2] for line in out.splitlines()[1:]]
    assert rows == [["3", "1.5"], ["100", "50"]]


def test_asymptotics_keeps_a_mass_just_above_one(capsys):
    code, out, err = run_cli(capsys, "asymptotics", "--inline", NEAR_ONE, "--ns", "3")
    assert code == 0 and err == ""
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["exact_log_total"] == "3e-100"


@st.composite
def _sources(draw):
    """A drawn spec's --inline text, or a catalog family with small, possibly
    invalid parameters."""
    if draw(st.booleans()):
        spec = draw(st.one_of(_INTEGER_SPECS, _RATIONAL_SPECS, _NONNEGATIVE_RATIONAL_SPECS))
        return ["--inline", format_spec(spec)]
    name = draw(st.sampled_from(sorted(FAMILIES)))
    values = ",".join(f"{k}={draw(st.integers(-1, 4))}" for k in FAMILIES[name].params)
    return ["--family", f"{name}({values})"]


@settings(max_examples=200, deadline=None)
@given(
    _sources(),
    st.integers(0, 8),
    st.lists(st.integers(0, 9), max_size=3).map(lambda ns: ",".join(map(str, ns))),
    st.sampled_from(["csv", "json"]),
)
# row 3 is 2x: zero variance, which only the variance check reports, as its
# mass is not 1
@example(["--family", "r_whitney_assoc(m=2,r=0,s=2)"], 3, "3", "csv")
# row 3's mass is not exactly 1, though a float rounds it to 1
@example(["--inline", NEAR_ONE], 3, "3", "csv")
# a start that is not a monomial has no closed-form exponent to check
@example(["--inline", "gamma: x; m: 1; start: {index: 0, poly: x + 1};"], 3, "3", "json")
def test_every_command_exits_as_documented(source, n, ns, fmt):
    # exit 0-3, or 4 only for the digit limit; an error (exit 2-4) writes
    # one JSON line to stderr and nothing to stdout; only verify exits 1,
    # with its report on stdout, and only on its nonnegativity check
    argvs = [
        ["triangle", *source, "--max-n", str(n)],
        ["pmf", *source, "--n", str(n)],
        ["moments", *source, "--ns", ns],
        ["clt", *source, "--ns", ns],
        ["asymptotics", *source, "--ns", ns],
        ["verify", *source, "--max-n", str(n)],
        ["families"],
    ]
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--format", fmt])
        out, err = stdout.getvalue(), stderr.getvalue()
        assert code in (0, 1, 2, 3) or code == 4 and "Exceeds the limit" in err, (argv, err)
        if code in (0, 1):
            assert err == "", argv
        else:
            (line,) = err.splitlines()
            assert set(json.loads(line)) == {"error"} and out == "", argv
        if argv[0] != "verify":
            assert code != 1, argv
        elif code in (0, 1):
            if fmt == "json":
                failed = {c["name"] for c in json.loads(out)["checks"] if not c["ok"]}
            else:
                failed = {line.split(",")[0] for line in out.splitlines() if ",fail," in line}
            assert failed <= {"nonnegativity"} and code == (1 if failed else 0), (argv, out)


def test_variance_below_the_float_range(capsys):
    # the shape moments are past the float range: pmf works, the normal
    # law's standardization fails
    code, out, err = run_cli(capsys, "pmf", "--inline", NINES, "--n", "1")
    assert code == 0 and err == ""
    assert out.splitlines()[2].startswith("1,1/1000")
    code, out, err = run_cli(capsys, "clt", "--inline", NINES, "--ns", "2")
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "ZeroVarianceError"


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def boom(args):
        raise RuntimeError("unexpected\nfailure")

    # main looks the command up when it reads the line, so it binds the patch
    monkeypatch.setattr(cli, "_cmd_families", boom)
    code, out, err = run_cli(capsys, "families")
    assert code == 4 and out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["error"] == {
        "type": "RuntimeError",
        "message": "unexpected\nfailure",
    }


COMMANDS = ["triangle", "pmf", "moments", "clt", "asymptotics", "verify", "families"]


@pytest.fixture
def subparsers_built(monkeypatch):
    # the name of every subcommand parser argparse builds, in order
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counting_add_parser(self, name, **kwargs):
        built.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add_parser)
    return built


@pytest.mark.parametrize(
    "argv,built",
    [
        # a well-formed line is read from the command table: no parser
        (["triangle", "--family", "stirling2", "--max-n", "3"], []),
        (["--help"], COMMANDS),
        (["bogus"], COMMANDS),
        # any other line goes to the one full parser, whatever it names
        (["triangle"], COMMANDS),
        (["triangle", "--help"], COMMANDS),
        (["pmf", "--family", "stirling2", "--n", "x"], COMMANDS),
    ],
)
def test_a_run_builds_only_the_parser_it_names(capsys, subparsers_built, argv, built):
    run_cli(capsys, *argv)
    assert subparsers_built == built


def parse_to_exit(capsys, parser, argv):
    """(exit code, stdout, stderr) of a parse that exits: help or a usage error."""
    with pytest.raises(SystemExit) as stop:
        parser.parse_args(argv)
    return (stop.value.code, *capsys.readouterr())


@pytest.mark.parametrize("command", [None, *COMMANDS])
def test_help_of_one_command_is_the_full_parsers(capsys, command):
    argv = ["--help"] if command is None else [command, "--help"]
    code, out, err = parse_to_exit(capsys, cli.build_parser(), argv)
    assert code == 0 and err == ""
    assert out.startswith(f"usage: polyrec {command or ''}".rstrip())


@pytest.mark.parametrize(
    "argv,shown",
    [
        # a help flag before the command is the top level's: every command
        (["-h", "triangle"], "{" + ",".join(COMMANDS) + "}"),
        (["triangle", "--help"], "--max-n"),
    ],
)
def test_help_names_the_commands_or_the_flags(capsys, argv, shown):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert shown in out


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["-h", "triangle"],
        ["triangle"],
        ["triangle", "--family", "stirling2", "--inline", "gamma: x; m: 1;", "--max-n", "3"],
        ["pmf", "--family", "stirling2", "--n", "x"],
        # an argument no subcommand takes is the top level's error, under
        # its own usage line
        ["triangle", "--family", "stirling2", "--max-n", "3", "--bogus"],
    ],
)
def test_usage_errors_are_the_full_parsers(capsys, argv):
    full = parse_to_exit(capsys, cli.build_parser(), argv)
    assert full[0] == (0 if argv[:1] == ["-h"] else 2)
    assert run_cli(capsys, *argv) == full
    if "--bogus" in argv:
        usage = "usage: polyrec [-h] {triangle,pmf,moments,clt,asymptotics,verify,families}"
        assert full[2].startswith(usage)


# one well-formed line per command, each of which the reader takes
WELL_FORMED = [
    ["triangle", "--family", "stirling2", "--max-n", "3"],
    ["pmf", "--inline", "gamma: x; m: 1;", "--n", "4", "--format", "json"],
    ["moments", "--family", "stirling2", "--ns", "5,,6", "--n", "1_0"],
    ["clt", "--spec", "a b", "--ns", "٣", "--out", ""],
    ["asymptotics", "--family", "dowling(m=2)", "--ns", "30,300"],
    ["verify", "--family", "stirling2"],
    ["families", "--format", "csv"],
]

READER_WORDS = [*COMMANDS, "bogus", "-h", "--help"]
READER_FLAGS = [
    "--family",
    "--spec",
    "--inline",
    "--max-n",
    "--n",
    "--ns",
    "--format",
    "--out",
    "--max",
    "--fam",
    "--max-n=3",
    "--",
    "-h",
]
READER_VALUES = ["stirling2", "3", "2,3", "csv", "json", "xml", "1_0", "٣", "5,,6", "a b", ""]
# values starting with "-", which the reader never takes
READER_VALUES += ["-1", "-x"]


@st.composite
def command_lines(draw):
    """Words drawn at random, or a well-formed line with up to three words
    replaced, inserted or dropped and a flag-value pair added."""
    words = st.sampled_from(READER_WORDS + READER_FLAGS + READER_VALUES)
    if draw(st.booleans()):
        return draw(st.lists(words, max_size=8))
    argv = list(draw(st.sampled_from(WELL_FORMED)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["replace", "insert", "drop", "pair"]))
        if edit == "insert":
            argv.insert(i, draw(words))
        elif edit == "pair":
            argv += [draw(st.sampled_from(READER_FLAGS)), draw(st.sampled_from(READER_VALUES))]
        elif i < len(argv):
            argv[i : i + 1] = [draw(words)] if edit == "replace" else []
    return argv


@settings(max_examples=400, deadline=None)
@given(command_lines())
@example(WELL_FORMED[0])
@example(WELL_FORMED[1])
@example(WELL_FORMED[2])
@example(WELL_FORMED[3])
@example(WELL_FORMED[4])
@example(WELL_FORMED[5])
@example(WELL_FORMED[6])
# a value outside the choices, a value the parser reads as a flag, and a
# negative number, which the parser takes and the reader leaves to it
@example(["families", "--format", "xml"])
@example(["triangle", "--family", "-x", "--max-n", "3"])
@example(["triangle", "--family", "stirling2", "--max-n", "-1"])
# a required flag left out
@example(["triangle", "--family", "stirling2", "--format", "csv"])
def test_reader_gives_the_parsers_namespace_or_none(argv):
    read = cli._read(argv)
    if argv in WELL_FORMED:
        assert read is not None
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            parsed = vars(cli.build_parser().parse_args(argv))
    except SystemExit:
        # help and every usage error are the parser's
        assert read is None
    else:
        assert read is None or vars(read) == parsed


def test_undecodable_spec_file_exits_2(tmp_path, capsys):
    # the bad byte follows a CRLF line end and a two-byte character: the
    # column counts characters of the text as read
    path = tmp_path / "bad.spec"
    path.write_bytes("gamma: x;\r\nm: 1; λ".encode() + b"\xff")
    code, out, err = run_cli(capsys, "triangle", "--spec", str(path), "--max-n", "2")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == {
        "type": "ParseError",
        "message": f"{path}:2:8: invalid UTF-8 byte 0xff",
        "origin": str(path),
        "line": 2,
        "column": 8,
    }


def test_spec_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # as Windows editors write it; a bad byte after it is counted from the
    # first character of the spec
    plain, marked, bad = tmp_path / "plain.spec", tmp_path / "marked.spec", tmp_path / "bad.spec"
    plain.write_bytes(b"gamma: x; m: 1;")
    marked.write_bytes(b"\xef\xbb\xbfgamma: x; m: 1;")
    bad.write_bytes(b"\xef\xbb\xbfgamma: x; m: \xff1;")
    runs = [run_cli(capsys, "triangle", "--spec", str(p), "--max-n", "3") for p in (plain, marked)]
    assert runs[0] == runs[1] == (0, "n,c0,c1,c2,c3\n0,1,0,0,0\n1,0,1,0,0\n2,0,1,1,0\n3,0,1,3,1\n", "")
    code, out, err = run_cli(capsys, "triangle", "--spec", str(bad), "--max-n", "3")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["message"] == f"{bad}:1:14: invalid UTF-8 byte 0xff"


def test_moments_flag_validation(capsys):
    code, _, err = run_cli(capsys, "moments", "--family", "stirling2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "moments", "--family", "stirling2", "--n", "3", "--ns", "3,4"
    )
    assert code == 2


def test_moments_table(capsys):
    code, out, _ = run_cli(
        capsys, "moments", "--family", "stirling2", "--ns", "3,5", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 3
    assert lines[1].startswith("3,")
    assert "2,2/5" in lines[1]


@pytest.fixture
def drawn(monkeypatch):
    """The `upto` of every `recurrence.rows` call and the n of every
    `recurrence.advance` call, in order."""
    generated, advanced = [], []

    def counting_rows(spec, upto, source=recurrence.rows):
        generated.append(upto)
        return source(spec, upto)

    def counting_advance(spec, history, n, advance=recurrence.advance):
        advanced.append(n)
        return advance(spec, history, n)

    monkeypatch.setattr(recurrence, "rows", counting_rows)
    monkeypatch.setattr(recurrence, "advance", counting_advance)
    return generated, advanced


@pytest.fixture
def tabled(monkeypatch):
    """The n of every `distribution.pmf` call, in order."""
    built = []

    def counting_pmf(poly, n, source=distribution.pmf):
        built.append(n)
        return source(poly, n)

    monkeypatch.setattr(distribution, "pmf", counting_pmf)
    return built


@pytest.mark.parametrize(
    "argv,rows",
    [
        (("moments", "--family", "stirling2", "--ns", "10,30,20"), 30),
        # rows 1..30 once for the EGF check, the scan and the enumeration
        (("verify", "--family", "dowling(m=2)", "--max-n", "30"), 30),
        (("asymptotics", "--family", "stirling2", "--ns", "10,30,20"), 30),
        (("pmf", "--family", "stirling2", "--n", "30"), 30),
        (("clt", "--family", "stirling2", "--ns", "10,30,20"), 30),
    ],
)
def test_rows_are_generated_once(capsys, drawn, tabled, argv, rows):
    # every command draws its rows from the one row source, once, and
    # builds one PMF per asked-for row, in ascending order
    generated, advanced = drawn
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    assert generated == [30]
    assert advanced == list(range(1, rows + 1))
    assert tabled == {"pmf": [30], "verify": []}.get(argv[0], [10, 20, 30])


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "text,max_n,passes",
    [
        # within the limit the majorant proves the width and the digit
        # limit whatever the signs, and each row is advanced once
        ("gamma: x; m: 1;", 30, ["decimal"]),
        (SHIFTED_RATIONAL, 30, ["rows"]),
        (OVERLONG, 130, ["decimal"]),
        (SIGNED_BINOMIAL, 30, ["decimal"]),
        ("gamma: x - 1/2; m: 1;", 30, ["rows"]),
        # the top band cancels at every bound: the digit limit is proved,
        # which is all JSON needs; CSV needs the width, so a check pass over
        # int rows finds it, then the text pass
        (TOP_BAND_CANCELS, 30, {"csv": ["rows", "decimal"], "json": ["decimal"]}),
        # the bound passes the limit at row 137, the entries only at 144
        (OVERLONG, 140, ["rows", "decimal"]),
        # M_1 = 1, but row 1's denominator has 14,285 bits: it prints (4,300
        # digits), though past what the proof allows
        (DENOMINATOR, 1, ["rows", "rows"]),
    ],
    ids=[
        "integer", "rational", "overlong-130", "signed", "signed-rational",
        "top-band-cancels", "overlong-140", "denominator",
    ],
)
def test_triangle_route(capsys, drawn, monkeypatch, text, max_n, passes, fmt):
    generated, advanced = drawn
    if isinstance(passes, dict):
        passes = passes[fmt]

    def held(spec, upto):
        raise AssertionError("a triangle run held the whole triangle")

    monkeypatch.setattr(recurrence, "triangle", held)
    code, out, err = run_cli(
        capsys, "triangle", "--inline", text, "--max-n", str(max_n), "--format", fmt
    )
    assert code == 0 and out and err == ""
    assert generated == [max_n] * passes.count("rows")
    start = load(text).start_index
    assert advanced == list(range(start + 1, max_n + 1)) * len(passes)


def test_check_pass_finds_a_width_the_majorant_cannot_prove(capsys, drawn):
    # every bound degree past row 0 is one more than the row's degree: the
    # digits are proved, which is all JSON needs; the width is not, so CSV
    # takes one check pass
    generated, _ = drawn
    assert cli._width(load(TOP_BAND_CANCELS), 5, csv=False) == 0
    assert generated == []
    assert cli._width(load(TOP_BAND_CANCELS), 5, csv=True) == 2
    assert generated == [5]
    code, out, err = run_cli(capsys, "triangle", "--inline", TOP_BAND_CANCELS, "--max-n", "5")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert (lines[0], lines[-1]) == ("n,c0,c1", "5,0,32")


@pytest.fixture
def bounded(monkeypatch):
    """The n of every bound the majorant yields, in order."""
    seen = []

    def counting_majorant(spec, upto, majorant=recurrence.majorant):
        for bound in majorant(spec, upto):
            seen.append(bound[0])
            yield bound

    monkeypatch.setattr(recurrence, "majorant", counting_majorant)
    return seen


def test_proof_stops_at_the_first_bound_past_the_limit(tmp_path, capsys, drawn, bounded):
    # the bound passes the limit at row 137 and the entries at row 144: the
    # proof gives up at 137 and the check pass at 144, not at --max-n (kept
    # small enough that bounding every row, the fault this guards against,
    # would still end)
    _, advanced = drawn
    target = tmp_path / "rows"
    code, out, err = run_cli(
        capsys, "triangle", "--inline", OVERLONG, "--max-n", "2000", "--out", str(target)
    )
    assert code == 4 and out == "" and "Exceeds the limit (4300" in err
    assert not target.exists()
    assert bounded == list(range(138))
    assert advanced == list(range(1, 145))


def test_proof_checks_the_denominator_first(drawn, bounded):
    # row n of gamma = 1/2 is 1/2^n, each M_n = 1: only the denominators,
    # 2^n, decide, and the walk stops at the first one past the limit
    generated, _ = drawn
    spec = load("gamma: 1/2; m: 1;")
    bits = int(cli._safe_bits())
    assert cli._width(spec, bits - 1, csv=True) == 1
    assert bounded == list(range(bits)) and generated == []
    bounded.clear()
    # 2^bits still prints, as the check pass finds; 2^(bits + 1) does not
    assert cli._width(spec, bits, csv=True) == 1
    with pytest.raises(ValueError, match="Exceeds the limit"):
        cli._width(spec, 10**6, csv=False)
    assert bounded == list(range(bits + 1)) * 2 and generated == [bits, 10**6]


def _width_or_error(width, *args):
    try:
        return width(*args)
    except (ValueError, InvalidIndexError) as err:
        return type(err), str(err)


def _printed_width(spec, upto):
    """The longest row's length, from every row drawn and converted."""
    width = 0
    for row in recurrence.rows(spec, upto):
        cli._row_texts(row.poly)
        width = max(width, len(row.poly.numerators))
    return width


_SMALL_DENOMINATORS = st.sampled_from([2, 3, 8, 1024])
_SIGNED = st.builds(Fraction, st.integers(-9, 9), _SMALL_DENOMINATORS)
_SIGNED_POLY = st.lists(_SIGNED, min_size=1, max_size=2).map(ExactPolynomial)
_NEAR_LIMIT_SPECS = st.builds(
    RecurrenceSpec,
    gamma=_SIGNED_POLY,
    m=st.builds(Fraction, st.integers(1, 9), _SMALL_DENOMINATORS),
    lags=st.lists(st.builds(LagTerm, st.integers(1, 2), _SIGNED_POLY, st.booleans()), max_size=1),
    start_index=st.integers(0, 3),
    start_poly=_SIGNED_POLY.filter(lambda poly: not poly.is_zero),
)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@settings(max_examples=30, deadline=None)
@given(_NEAR_LIMIT_SPECS, st.integers(0, 300))
# 640 digits hold 2^2126 but not 2^2127: the denominator decides
@example(load("gamma: 1/2; m: 1;"), 2126)
@example(load("gamma: 1/2; m: 1;"), 2127)
# the numerators decide, past the limit by row 20
@example(load(OVERLONG), 30)
@example(load(TOP_BAND_CANCELS), 5)
def test_width_is_what_printing_every_row_finds(spec, upto):
    # at the smallest digit limit _safe_bits is 2126, so the walk and the
    # check pass both meet it within a few hundred rows
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        want = _width_or_error(_printed_width, spec, upto)
        assert _width_or_error(cli._width, spec, upto, True) == want
        # JSON needs no width, only the same error
        json_want = 0 if isinstance(want, int) else want
        assert _width_or_error(cli._width, spec, upto, False) == json_want
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_no_digit_limit_needs_no_size_proof(capsys, drawn):
    # without a limit only the width needs proving: nonnegative data past
    # the usual limit take one pass
    generated, advanced = drawn
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, err = run_cli(capsys, "triangle", "--inline", OVERLONG, "--max-n", "150")
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0 and len(out.splitlines()) == 152 and err == ""
    assert generated == [] and advanced == list(range(1, 151))


@pytest.mark.parametrize(
    "argv,upto",
    [
        # one pass reaches the EGF check, the scan and the enumeration: for a
        # model it runs through row 8 even when max_n is below it
        (("verify", "--family", "dowling(m=2)", "--max-n", "5"), [8]),
        (("verify", "--family", "dowling(m=2)", "--max-n", "0"), [8]),
        # no partition model, no enumeration rows: a unit-weight lag, and
        # gamma of degree 2
        (("verify", "--inline", NO_CLOSED_FORM, "--max-n", "5"), 5),
        (("verify", "--inline", "gamma: x^2; m: 1;", "--max-n", "3"), 3),
        # the model is read off any spec, catalog or custom
        (("verify", "--family", "sheffer(d=2,a=1)", "--max-n", "5"), [8]),
        (("verify", "--inline", "gamma: x; m: 1;", "--max-n", "3"), [8]),
    ],
)
def test_verify_draws_rows_once(capsys, drawn, argv, upto):
    generated, advanced = drawn
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    passes = upto if isinstance(upto, list) else [upto]
    assert generated == passes
    assert advanced == [n for last in passes for n in range(1, last + 1)]


@pytest.mark.parametrize(
    "text,max_n,budget,upto",
    [
        # max_n below 8 on a model: the pass runs on to row 8 for it
        ("family: dowling(m=2);", 3, None, 8),
        ("gamma: 2/3x - 1/2; m: 3/2; start: {index: 2, poly: 4/3x^2};", 2, None, 8),
        # a start past 8: nothing to enumerate, and no row past the EGF
        # check's max_n + start
        ("family: r_stirling(r=15);", 20, None, 35),
        # no model: the pass stops at max_n
        (NO_CLOSED_FORM, 5, None, 5),
        # dowling's walk holds 45 profiles through row 8: a budget of 44
        # stops it after row 7
        ("family: dowling(m=2);", 20, 44, 20),
        ("family: dowling(m=2);", 4, 44, 8),
    ],
    ids=["below_8", "rational_below_8", "start_past_8", "no_model", "budget", "budget_below_8"],
)
def test_verify_enumerates_the_rows_of_its_pass(
    capsys, drawn, monkeypatch, text, max_n, budget, upto
):
    # the one pass hands the enumeration its rows, and the check reads as
    # verify_family's own report on rows up to 8
    generated, advanced = drawn
    if budget is not None:
        monkeypatch.setattr(oracle, "MAX_VISITS", budget)
    code, out, err = run_cli(capsys, "verify", "--inline", text, "--max-n", str(max_n))
    assert (code, err) == (0, "")
    descriptor = load(text)
    if isinstance(descriptor, RecurrenceSpec):
        descriptor = FamilyDescriptor("custom", {}, descriptor)
    start = descriptor.spec.start_index
    assert generated == [upto]
    assert advanced == list(range(start + 1, upto + 1))
    report = oracle.verify_family(descriptor, 8)
    detail = f"skipped: {report.notice}" if report.skipped else str(report)
    assert out.splitlines()[2] == f"enumeration,pass,{detail.replace(',', ';')}"


@pytest.mark.parametrize("ns,low", [("4,40", 4), ("1,40", 1)])
def test_asymptotics_checks_the_range_before_drawing(capsys, drawn, ns, low):
    # r_stirling(r=3) starts at row 3, and the saddle needs three rows past it
    code, out, err = run_cli(
        capsys, "asymptotics", "--family", "r_stirling(r=3)", "--ns", ns
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ParameterError",
        "message": f"n must be >= 6, got {low}",
    }
    assert drawn == ([], [])


def test_asymptotics_checks_the_float_range_before_drawing(capsys, drawn):
    # NINES' exponent coefficient is past the float range at every n: the
    # refusal comes before the rows and the PMF that the saddle would follow
    code, out, err = run_cli(capsys, "asymptotics", "--inline", NINES, "--ns", "40")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == {
        "type": "SaddleOverflowError",
        "message": "a coefficient of the EGF exponent is past the float range",
    }
    assert drawn == ([], [])


@pytest.mark.parametrize(
    "text,n,error",
    [
        (FLAT_NINES, 5, "SaddleOverflowError"),
        (NO_CLOSED_FORM, 2, "UnsupportedShapeError"),
        (NINES, 2, "ParameterError"),
    ],
    ids=["FLAT_NINES", "NO_CLOSED_FORM", "NINES"],
)
def test_asymptotics_refuses_as_compare_exact_does(capsys, text, n, error):
    # each spec has several faults: the library and the command refuse the
    # same one, so they name the same class
    code, out, err = run_cli(capsys, "asymptotics", "--inline", text, "--ns", str(n))
    assert code in (2, 3) and out == ""
    assert json.loads(err)["error"]["type"] == error
    descriptor = FamilyDescriptor(name="custom", parameters={}, spec=load(text))
    with pytest.raises(errors.PolyrecError) as caught:
        asymptotics.compare_exact(descriptor, n)
    assert type(caught.value).__name__ == error


def test_verify_reports_an_egf_mismatch(capsys, monkeypatch):
    drawn = []

    def doubled_row_2(descriptor, order, egf_series=oracle.egf_series):
        for n, row in enumerate(egf_series(descriptor, order)):
            drawn.append(n)
            yield row + row if n == 2 else row

    monkeypatch.setattr(oracle, "egf_series", doubled_row_2)
    code, out, err = run_cli(capsys, "verify", "--family", "stirling2", "--max-n", "5")
    assert code == 1 and err == ""
    assert "egf_identity,fail,row 2: recurrence x^2 + x; series 2x^2 + 2x" in out.splitlines()
    # the series stops at the first mismatch
    assert drawn == [0, 1, 2]


@st.composite
def _verify_descriptors(draw):
    """A catalog family with small parameters, or a drawn spec as the custom
    descriptor `polyrec verify --inline` builds."""
    if draw(st.booleans()):
        spec = draw(st.one_of(_INTEGER_SPECS, _RATIONAL_SPECS))
        return FamilyDescriptor(name="custom", parameters={}, spec=spec)
    name = draw(st.sampled_from(sorted(FAMILIES)))
    params = {k: draw(st.integers(-1, 3)) for k in FAMILIES[name].params}
    try:
        return catalog(name, **params)
    except ParameterError:
        reject()


@settings(max_examples=150, deadline=None)
@given(_verify_descriptors(), st.integers(0, 12), st.none() | st.integers(0, 12))
# row 3 is the first row: EGF row 5 is row 8, which the scan does not read
@example(catalog("r_stirling", r=3), 5, 5)
@example(catalog("r_stirling", r=3), 2, None)
def test_verify_agrees_with_the_public_checks(descriptor, max_n, sabotaged):
    # verify compares the EGF rows inline, in the pass that feeds the scan:
    # each check must read as the public function it stands for says, also
    # when EGF row `sabotaged` of the series is off by one
    def series(descriptor, order, egf_series=families.egf_series):
        for j, row in enumerate(egf_series(descriptor, order)):
            yield row + ExactPolynomial([1]) if j == sabotaged else row

    spec, start = descriptor.spec, descriptor.spec.start_index
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "egf_series", series)
        patch.setattr(families, "egf_series", series)
        if max_n < start:
            with pytest.raises(InvalidIndexError, match=f"upper index {max_n} is below"):
                oracle.verify(descriptor, max_n)
            return
        egf, enumeration, nonnegativity = oracle.verify(descriptor, max_n)
        try:
            descriptor.saddle
        except UnsupportedShapeError as err:
            assert egf == oracle.Check("egf_identity", True, f"skipped: {err}")
        else:
            mismatch = verify_egf_identity(descriptor, max_n)
            if mismatch is None:
                assert egf == oracle.Check("egf_identity", True, f"rows 0..{max_n} match")
            else:
                detail = "row {}: recurrence {}, series {}".format(*mismatch)
                assert egf == oracle.Check("egf_identity", False, detail)

    # catalog or custom, the enumeration is verify_family's
    report = oracle.verify_family(descriptor, 8)
    detail = f"skipped: {report.notice}" if report.skipped else str(report)
    assert enumeration == oracle.Check("enumeration", report.ok, detail)

    # the sign scan, read off the rows: the first negative entry, the zero-mass rows
    rows = list(recurrence.rows(spec, max_n))
    negatives = [(row.n, k) for row in rows for k, c in enumerate(row.coeffs) if c < 0]
    zeros = [row.n for row in rows if not row.row_sum()]
    assert nonnegativity.ok == (not negatives)
    if negatives:
        assert nonnegativity.detail == f"negative entry at (n,k)={negatives[0]}"
    elif zeros:
        assert nonnegativity.detail == f"all entries >= 0; zero-mass rows {zeros}"
    else:
        assert nonnegativity.detail == "all entries >= 0"


def test_ns_must_be_integers(capsys):
    code, out, err = run_cli(capsys, "clt", "--family", "stirling2", "--ns", "3,x")
    assert code == 2 and out == ""
    assert "argument --ns: expected comma-separated integers, got '3,x'" in err


SHIFTED_CLOSED_FORM = "gamma: x + 1; m: 2; start: {index: 2, poly: 3x^2};"


@pytest.mark.parametrize(
    "text,max_n,upper",
    [
        (SHIFTED_CLOSED_FORM, "-2", -2),
        (SHIFTED_CLOSED_FORM, "1", 1),
        (NO_CLOSED_FORM + " start: {index: 2, poly: 1};", "-1", -1),
        (NO_CLOSED_FORM + " start: {index: 2, poly: 1};", "1", 1),
    ],
)
def test_verify_refuses_rows_below_the_start(capsys, text, max_n, upper):
    code, out, err = run_cli(capsys, "verify", "--inline", text, "--max-n", max_n)
    assert out == ""
    assert json.loads(err) == {
        "error": {
            "type": "InvalidIndexError",
            "message": f"upper index {upper} is below start index 2",
        }
    }
    assert code == 2


@pytest.mark.parametrize("max_n", ["-1", "2"])
def test_verify_refuses_rows_below_the_start_before_drawing(capsys, drawn, max_n):
    # r_stirling(r=3) starts at row 3 and has a closed form: the refusal
    # names the --max-n given, and no check draws a row first
    code, out, err = run_cli(
        capsys, "verify", "--family", "r_stirling(r=3)", "--max-n", max_n
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == {
        "type": "InvalidIndexError",
        "message": f"upper index {max_n} is below start index 3",
    }
    assert drawn == ([], [])


def test_asymptotics_json_fields(capsys):
    code, out, _ = run_cli(
        capsys,
        "asymptotics",
        "--family",
        "stirling2",
        "--ns",
        "50",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1 and payload[0]["n"] == 50
    assert set(payload[0]) >= {
        "exact_mean",
        "predicted_mean",
        "mean_rel_err",
        "report",
    }
    assert float(payload[0]["report"]["rho"]) > 0


def test_families_listing(capsys):
    code, out, _ = run_cli(capsys, "families", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    names = {entry["name"] for entry in payload}
    assert len(names) == 11
    assert {"stirling2", "dowling", "type_b"} <= names


def test_families_csv_golden(capsys):
    code, out, err = run_cli(capsys, "families", "--format", "csv")
    assert code == 0 and err == ""
    assert out.split("\n") == [
        "name,parameters,oeis",
        "stirling2,,A048993",
        "whitney,m c,A039755 A039756",
        "translated_whitney,m,A075497",
        "dowling,m,A007405 A039755",
        "r_stirling,r,A143494",
        "sheffer,d a,A039755",
        "stirling_frobenius,m,A039755",
        "galton,m c,A186695",
        "assoc_stirling,s,",
        "r_whitney_assoc,m r s,",
        "type_b,m c,",
        "",
    ]


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys,
        "triangle",
        "--family",
        "stirling2",
        "--max-n",
        "4",
        "--format",
        "csv",
        "--out",
        str(target),
    )
    assert code == 0 and out == ""
    assert target.read_text().strip().split("\n")[-1] == "4,0,1,7,6,1"


def test_spec_file_source(tmp_path, capsys):
    path = tmp_path / "custom.spec"
    path.write_text("gamma: x; m: 1;\n")
    code, out, _ = run_cli(
        capsys, "triangle", "--spec", str(path), "--max-n", "3", "--format", "csv"
    )
    assert code == 0
    assert out.strip().split("\n")[-1] == "3,0,1,3,1"

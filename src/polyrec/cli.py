"""Command-line front door.

Subcommands: triangle, pmf, moments, clt, asymptotics, verify, families.
The input is one recurrence, named by --family "name(k=v,...)", by --spec
FILE, or by --inline "TEXT" (the spec language).  Output is CSV (default)
or JSON (--format json) to stdout or --out PATH.  This module parses the
arguments, resolves the spec and renders the library's records as text; it
holds no check logic (`verify` is `oracle.verify`).

A well-formed command line (a command, then each flag written out in full,
once, with one value not starting with "-") is read straight from
`_COMMANDS` without argparse.  Help, and every line that is not of that
shape, goes to the argparse parser, so help and usage errors read as
argparse writes them.

Serialization rules: exact rationals are rendered as strings ("p/q" or a
plain decimal string) because triangle entries outgrow every fixed-width
numeric type almost immediately; floats carry 12 significant digits; rows
are ordered by n, columns by k, so identical invocations produce identical
bytes.

Exit codes: 0 ok, 1 verification mismatch, 2 usage error (bad flags, bad
spec text, unsupported shape, unreadable file, a spec file that is not
UTF-8), 3 numeric failure (saddle solve, zero mass, zero variance, unit
mass), 4 internal error (any other exception).  Each error class carries
its code as `exit_code`.  Every error after argument parsing prints a
one-line JSON object to stderr.
"""

from __future__ import annotations

import decimal
import gc
import math
import sys
from collections.abc import Iterable, Iterator, Sequence
from contextlib import nullcontext
from itertools import chain
from types import SimpleNamespace

from . import asymptotics as asym
from . import distribution as dist
from . import recurrence
from .errors import ParameterError, ParseError, PolyrecError
from .families import FAMILIES, FamilyDescriptor, catalog
from .oracle import verify
from .speclang import SpecSource, load


def _fmt_float(v: float) -> str:
    return format(v, ".12g")


def _parse_ns(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _resolve(args) -> FamilyDescriptor:
    """Turn the chosen spec source into a descriptor; a custom spec is the
    descriptor named "custom"."""
    if args.family is not None:
        text = args.family if "(" in args.family else args.family + "()"
        source = SpecSource(f"family: {text};", "<family>")
    elif args.spec is not None:
        # a byte-order mark is dropped; an undecodable byte reads as a lone
        # surrogate, which no text encodes: the first is the spec's parse error
        with open(args.spec, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
            text = handle.read()
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as err:
            head, byte = text[: err.start], ord(text[err.start]) - 0xDC00
            message = f"invalid UTF-8 byte 0x{byte:02x}"
            raise ParseError(args.spec, head.count("\n") + 1, err.start - head.rfind("\n"), message)
        source = SpecSource(text, args.spec)
    else:
        source = SpecSource(args.inline, "<inline>")
    loaded = load(source)
    if isinstance(loaded, FamilyDescriptor):
        return loaded
    return FamilyDescriptor(name="custom", parameters={}, spec=loaded)


def _emit(args, pieces: Iterable[str]) -> None:
    """Write the text pieces to --out or stdout as they arrive, then the
    final newline: no text ends with one (CSV lines start with theirs).

    Anything that can fail must be computed before this is called: the
    --out file is opened, and stdout written to, as soon as it starts.
    """
    sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
    with sink as handle:
        handle.writelines(pieces)
        handle.write("\n")


def _render(args, header: Sequence[str], rows: Iterable[Sequence[str]], payload) -> None:
    """Write `payload()` as JSON, or `header` and `rows` as CSV, as --format
    asks; only the form asked for is built, and it is built whole before
    `_emit` writes its first byte."""
    if args.format == "json":
        import json

        _emit(args, [json.dumps(payload(), indent=2)])
    else:
        _emit(args, ["\n".join(map(",".join, [header, *rows]))])


# command bodies ---------------------------------------------------------


def _row_texts(poly) -> list[str]:
    """The row's coefficients as text, each byte-identical to str(Fraction).

    Over a row denominator 2^t, entry q reduces by 2^s, s = min(t, tz(q))
    for tz(q) its trailing zero bits: a shift, not a gcd, and the text of
    den >> s is built once per s.  A zero prints as 0 before tz is read.
    Any other denominator takes one gcd per entry, against the whole of it:
    splitting its power of two off costs as much as it saves when the odd
    part is large.
    """
    den = poly.denominator
    t = den.bit_length() - 1
    texts = []
    if den != 1 << t:
        for q in poly.numerators:
            g = math.gcd(q, den)
            texts.append(str(q // g) if g == den else f"{q // g}/{den // g}")
        return texts
    shifted = [None] * t
    for q in poly.numerators:
        if not q:
            texts.append("0")
            continue
        s = min(t, (q & -q).bit_length() - 1)
        # the numerator is printed first, as str(Fraction) does, so the
        # first text past the digit limit raises the same error
        text = str(q >> s)
        if s < t:
            name = shifted[s]
            if name is None:
                name = shifted[s] = str(den >> s)
            text = f"{text}/{name}"
        texts.append(text)
    return texts


def _safe_bits() -> float:
    """The most bits an int may have and still print under Python's
    int-to-str digit limit (infinite when there is none)."""
    # the limit arrived in 3.10.7; 0 means none
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # log2(10) > 3.321928, so an int of at most this many bits is below
    # 10**limit and has at most `limit` digits
    return limit * 3321928 // 1000000 if limit else math.inf


def _width(spec, upto: int, csv: bool) -> int:
    """What the print pass needs: the longest row's length for CSV, 0 for
    JSON.  Raises the ValueError that `_row_texts` would raise on the first
    coefficient past Python's int-to-str digit limit, before a byte is
    written.

    One walk of the majorant proves it without drawing a row.  Row n's size
    is the larger of M_n, which bounds its numerators whatever the signs,
    and d0 D^(n - start), which its denominator divides; the walk stops at
    the first size past `_safe_bits`, so it builds no number much longer.
    The width is max e_n + 1 when a row at the largest e_n has L_n != 0,
    read off the largest (e_n, L_n != 0): that row's degree is e_n, and no
    row's degree passes its e_n.  Where the walk stops, one pass over `int`
    rows measures the width and converts each row that could reach the limit.
    """
    safe_bits = _safe_bits()
    top = (-1, False)
    den = spec.start_poly.denominator
    # an upto below the start raises in the majorant
    for _, mass, e, lead in recurrence.majorant(spec, upto):
        if max(mass, den).bit_length() > safe_bits:
            break
        top = max(top, (e, lead != 0))
        den *= spec.scaled.denominator
    else:
        if not csv:
            return 0
        if top[1]:
            return top[0] + 1
    width = 0
    for row in recurrence.rows(spec, upto):
        poly = row.poly
        width = max(width, len(poly.numerators))
        if max(map(int.bit_length, (poly.denominator, *poly.numerators))) > safe_bits:
            _row_texts(poly)
    return width if csv else 0


# exact Decimal arithmetic: a result that would need rounding raises
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC,
    Emax=decimal.MAX_EMAX,
    Emin=decimal.MIN_EMIN,
    traps=[decimal.InvalidOperation, decimal.Overflow, decimal.Inexact, decimal.Rounded],
)


def _decimal_texts(spec, upto: int) -> Iterator[tuple[int, list[str]]]:
    """(n, entry texts) for each row of an integer-data spec.

    The rows are stepped on `Decimal`s, whose text is linear in the digit
    count where `str(int)` is quadratic; every value is an integer with
    exponent 0, so `str` prints its digits; a row's "-0" texts are rebuilt as 0.
    """
    source = recurrence.scaled_rows(
        spec, upto, [decimal.Decimal(q) for q in spec.start_poly.numerators]
    )
    while True:
        # entered per row, not around the loop: a context entered inside a
        # generator stays in force while the generator is suspended
        with decimal.localcontext(_EXACT):
            row = next(source, None)
        if row is None:
            return
        n, texts = row[0], list(map(str, row[1]))
        yield n, ["0" if t == "-0" else t for t in texts] if "-0" in texts else texts


def _json_rows(rows: Iterable[tuple[int, list[str]]]) -> Iterator[str]:
    """The JSON text of {"rows": [{"n": n, "coeffs": texts}, ...]} for a
    non-empty `rows`, one row per piece, indented as `_render` indents; an
    entry holds only digits, "-" and "/", so none needs escaping."""
    sep = '{\n  "rows": [\n'
    for n, texts in rows:
        coeffs = '[\n        "' + '",\n        "'.join(texts) + '"\n      ]' if texts else "[]"
        yield f'{sep}    {{\n      "n": {n},\n      "coeffs": {coeffs}\n    }}'
        sep = ",\n"
    yield "\n  ]\n}"


def _cmd_triangle(args) -> int:
    """Write the triangle's rows as they are converted to text; no run holds
    the triangle.

    `_width` reads what the print pass needs, and raises any conversion
    failure, before the first byte is written: from the majorant alone when
    it proves it, whatever the signs, else after one check pass over `int`
    rows.  Integer data print from exact `Decimal` rows, rational data from
    the `int` rows of `recurrence.rows` through `_row_texts`.
    """
    spec = _resolve(args).spec
    width = _width(spec, args.max_n, args.format == "csv")
    if spec.scaled.denominator == spec.start_poly.denominator == 1:
        texts = _decimal_texts(spec, args.max_n)
    else:
        rows = recurrence.rows(spec, args.max_n)
        texts = ((row.n, _row_texts(row.poly)) for row in rows)
    if args.format == "json":
        _emit(args, _json_rows(texts))
    else:
        lines = (",".join([f"\n{n}", *t, *["0"] * (width - len(t))]) for n, t in texts)
        _emit(args, chain([",".join(["n", *(f"c{k}" for k in range(width))])], lines))
    return 0


def _moments(table: dist.PMFTable) -> dict:
    """The exact mean and variance and the two shape moments, as text."""
    return {
        "mean": str(table.mean),
        "variance": str(table.variance),
        "skewness": _fmt_float(table.skewness),
        "excess_kurtosis": _fmt_float(table.excess_kurtosis),
    }


def _pmf_payload(table: dist.PMFTable) -> dict:
    probs = {str(k): str(table.probs[k]) for k in sorted(table.probs)}
    return {"n": table.n, "probs": probs, **_moments(table)}


def _floats(record) -> dict:
    """A record whose first field is n and whose other fields are floats."""
    return {"n": record.n, **dict(zip(record._fields[1:], map(_fmt_float, record[1:])))}


def _cmd_pmf(args) -> int:
    (table,) = dist._row_pmfs(_resolve(args).spec, [args.n])
    lines = ([str(k), str(p), _fmt_float(float(p))] for k, p in sorted(table.probs.items()))
    _render(args, ("k", "prob", "prob_float"), lines, lambda: _pmf_payload(table))
    return 0


def _cmd_moments(args) -> int:
    spec = _resolve(args).spec
    if args.ns is not None and args.n is not None:
        raise ParameterError("give either --n or --ns, not both")
    if args.ns is None and args.n is None:
        raise ParameterError("moments needs --n or --ns")
    ns = args.ns if args.ns is not None else [args.n]
    tables = list(dist._row_pmfs(spec, ns))
    lines = ([str(t.n), *_moments(t).values()] for t in tables)
    header = ("n", "mean", "variance", "skewness", "excess_kurtosis")
    _render(args, header, lines, lambda: [_pmf_payload(t) for t in tables])
    return 0


def _cmd_clt(args) -> int:
    reports = dist.clt_scan(_resolve(args), args.ns)
    # the columns are the record's own fields, in its order
    lines = ([str(r.n)] + [_fmt_float(v) for v in r[1:]] for r in reports)
    _render(args, dist.NormalityReport._fields, lines, lambda: [_floats(r) for r in reports])
    return 0


def _cmd_asymptotics(args) -> int:
    descriptor = _resolve(args)
    descriptor.saddle  # a spec without a closed form fails before any work
    ns = set(args.ns)
    if ns and min(ns) < descriptor.spec.start_index + 3:
        asym.compare_exact(descriptor, min(ns))  # raises before any row is drawn
    # one pass over the rows serves every n
    rows = recurrence.rows(descriptor.spec, max(ns)) if ns else ()
    records = [asym.compare_exact(descriptor, r.n, r.poly) for r in rows if r.n in ns]
    # the columns after n are the records' own fields, in their order; a
    # comparison's last field is the saddle report itself.  The flat CSV
    # prefixes the report's own predictions, so the header is unambiguous
    # (the bare columns carry the offset-adjusted values the comparison used)
    compare_fields = asym.ComparisonRecord._fields[1:-1]
    report_fields = tuple("saddle_" + f for f in asym.SaddleReport._fields[1:])
    header = ("n",) + report_fields + compare_fields
    lines = (
        [str(rec.n)] + [_fmt_float(v) for v in rec.report[1:] + rec[1:-1]]
        for rec in records
    )

    def payload():
        return [
            {
                "n": rec.n,
                "report": _floats(rec.report),
                **dict(zip(compare_fields, map(_fmt_float, rec[1:-1]))),
            }
            for rec in records
        ]

    _render(args, header, lines, payload)
    return 0


def _cmd_verify(args) -> int:
    descriptor = _resolve(args)
    checks = verify(descriptor, args.max_n)
    ok = all(check.ok for check in checks)
    lines = (
        [name, "pass" if passed else "fail", detail.replace(",", ";")]
        for name, passed, detail in checks
    )

    def payload():
        return {"family": descriptor.label, "ok": ok, "checks": [c._asdict() for c in checks]}

    _render(args, ("check", "status", "detail"), lines, payload)
    return 0 if ok else 1


def _cmd_families(args) -> int:
    entries = [
        (name, list(family.params), list(catalog(name, **family.listed).oeis_refs))
        for name, family in FAMILIES.items()
    ]
    lines = ([name, " ".join(params), " ".join(oeis)] for name, params, oeis in entries)
    header = ("name", "parameters", "oeis")
    _render(args, header, lines, lambda: [dict(zip(header, entry)) for entry in entries])
    return 0


# wiring ------------------------------------------------------------------


# Every subcommand in help order, with its help and its own arguments: flag
# and add_argument keywords, or None for `families`, which reads no
# recurrence.  `name` runs `_cmd_<name>`, looked up when the line is read.
_COMMANDS = {
    "triangle": (
        "emit coefficient rows",
        [("--max-n", dict(type=int, required=True, help="last row index"))],
    ),
    "pmf": (
        "exact distribution of one row",
        [("--n", dict(type=int, required=True, help="row index"))],
    ),
    "moments": (
        "exact mean/variance and shape moments",
        [
            ("--n", dict(type=int, help="single row index")),
            ("--ns", dict(type=_parse_ns, help="comma-separated row indices")),
        ],
    ),
    "clt": ("distance-to-normal diagnostics", [("--ns", dict(type=_parse_ns, required=True))]),
    "asymptotics": (
        "saddle-point predictions vs exact",
        [("--ns", dict(type=_parse_ns, required=True))],
    ),
    "verify": (
        "EGF identity, enumeration, nonnegativity",
        [("--max-n", dict(type=int, default=30, help="rows to check (default 30)"))],
    ),
    "families": ("list the catalog", None),
}

# the spec sources, exactly one of which every command but `families` takes
_SOURCES = {
    "--family": dict(help='catalog family, e.g. "dowling(m=2)"'),
    "--spec": dict(help="path to a spec file"),
    "--inline": dict(help="spec text given directly"),
}

# the output flags of every command
_OUTPUT = {
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--out": dict(help="write output to this path instead of stdout"),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="polyrec",
        description="Exact triangles, distributions, and saddle-point "
        "asymptotics for differential-difference recurrences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(run=globals()["_cmd_" + name])
        if arguments is not None:
            group = p.add_mutually_exclusive_group(required=True)
            for flag, keywords in _SOURCES.items():
                group.add_argument(flag, **keywords)
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
        for flag, keywords in _OUTPUT.items():
            p.add_argument(flag, **keywords)
    return parser


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The attributes `build_parser().parse_args(argv)` sets, read from
    `_COMMANDS` alone, or None unless `argv` is a well-formed line.

    That is a command, then only flags it takes, each written out in full,
    given once and followed by one value that does not start with "-"; one
    spec source (none for `families`) and every required flag; every value
    converted by its `type` and within its `choices`.  Help, `--flag=value`,
    abbreviations, negative numbers and every usage error read None, and
    are left to the parser.
    """
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    arguments = _COMMANDS[argv[0]][1]
    flags = _OUTPUT if arguments is None else {**_SOURCES, **dict(arguments), **_OUTPUT}
    given = dict(zip(argv[1::2], argv[2::2]))
    if (
        len(given) < len(argv) // 2
        or not given.keys() <= flags.keys()
        or any(value.startswith("-") for value in given.values())
        or arguments is not None and sum(flag in given for flag in _SOURCES) != 1
    ):
        return None
    args = SimpleNamespace(command=argv[0], run=globals()["_cmd_" + argv[0]])
    for flag, keywords in flags.items():
        if flag not in given:
            if keywords.get("required"):
                return None
            value = keywords.get("default")
        else:
            try:
                value = keywords.get("type", str)(given[flag])
            except Exception:  # the parser converts it again and reports it
                return None
            if value not in keywords.get("choices", [value]):
                return None
        # the parser's dest: the flag without its dashes, "-" as "_"
        setattr(args, flag[2:].replace("-", "_"), value)
    return args


def _error_payload(err: Exception) -> dict:
    payload = {"type": type(err).__name__, "message": str(err)}
    if isinstance(err, ParseError):
        payload.update(origin=err.origin, line=err.line, column=err.column)
    return {"error": payload}


def main(argv: Sequence[str] | None = None) -> int:
    # a well-formed line is read without a parser; any other line, help and
    # usage errors included, goes to the parser
    argv = sys.argv[1:] if argv is None else argv
    args = _read(argv) or build_parser().parse_args(argv)
    try:
        return args.run(args)
    except Exception as err:
        import json

        sys.stderr.write(json.dumps(_error_payload(err)) + "\n")
        if isinstance(err, PolyrecError):
            return err.exit_code
        return 2 if isinstance(err, OSError) else 4


# frozen once, at import: the collections at exit skip the start-up heap, which
# lives until then anyway (in `main` it would freeze a caller's heap per call)
gc.freeze()

if __name__ == "__main__":
    sys.exit(main())

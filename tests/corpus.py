"""Byte-identity corpus: seeded command lines and a digest of what each does.

    PYTHONPATH=src python tests/corpus.py

re-records tests/corpus_digests.json from the tree on PYTHONPATH and prints
the key of every command line whose digest changed, is new or is gone.
test_corpus.py runs the same lines in process through `cli.main` and names
every line whose digest differs from the file.

The lines: every command on every catalog family (bare, at its `listed`
parameters and at the instances of EXTRA_INSTANCES), on the named edge
specs of test_cli.py, on seeded signed and rational specs with lags and
shifted starts and on the spec files of SPEC_FILES; each in CSV and JSON,
to stdout and to `--out`; the same for the malformed specs of MALFORMED;
plus `families`, the edges of `verify`'s enumeration, the PROBES once each,
a missing spec file, a few usage errors and USAGE_COUNT lines drawn from
test_cli.py's reader words, most of them usage errors.

A digest covers the exit code, stdout, the bytes of any file the line
writes (the `--out` file, or a stray one) and polyrec's one-line JSON
stderr.  Of an error that is not a PolyrecError (Python's own, such as the
digit limit's ValueError) only the type counts, and of argparse's help and
usage errors only the exit code: their texts differ between Python
versions, and the corpus runs on every version CI does.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import test_cli  # the named edge specs
from polyrec import cli, errors
from polyrec.families import FAMILIES

DIGESTS = Path(__file__).resolve().parent / "corpus_digests.json"
OUT = "corpus.out"

# (name in the keys, spec text, depths); depths are (triangle --max-n,
# verify --max-n, pmf and moments --n, --ns of moments, clt and asymptotics)
EDGE_SPECS = [
    ("OVERLONG", test_cli.OVERLONG, (140, 5, 3, "3,20")),
    ("OVERLONG", test_cli.OVERLONG, (160, 6, 6, "6")),
    ("NINES", test_cli.NINES, (4, 4, 1, "1,3")),
    ("TINY", test_cli.TINY, (5, 5, 3, "3")),
    ("STEEP", test_cli.STEEP, (5, 5, 3, "3")),
    ("NEAR_ONE", test_cli.NEAR_ONE, (5, 5, 3, "3,12")),
    ("HUGE_M", test_cli.HUGE_M, (5, 5, 3, "3")),
    ("TOP_BAND_CANCELS", test_cli.TOP_BAND_CANCELS, (5, 5, 4, "2,5")),
    ("SHIFTED_RATIONAL", test_cli.SHIFTED_RATIONAL, (12, 12, 8, "4,12")),
    ("SIGNED_BINOMIAL", test_cli.SIGNED_BINOMIAL, (12, 12, 8, "4,12")),
    ("HALVES_WITH_ZERO", test_cli.HALVES_WITH_ZERO, (6, 6, 4, "2,6")),
    ("NEGATIVE_START", test_cli.NEGATIVE_START, (6, 6, 4, "2,6")),
    ("NO_CLOSED_FORM", test_cli.NO_CLOSED_FORM, (8, 8, 6, "2,10")),
    ("BOUNDARY", test_cli.BOUNDARY, (1, 1, 0, "0,1")),
    ("DENOMINATOR", test_cli.DENOMINATOR, (2, 2, 1, "1,2")),
]
CATALOG_DEPTHS = (12, 12, 9, "5,12")

# catalog instances off `listed`: the s = 1 edges of the lag families, the
# model families at other parameters, whitney and galton at another c, and
# r_stirling at the start degrees 0 and 1
EXTRA_INSTANCES = [
    "assoc_stirling(s=1)",
    "assoc_stirling(s=3)",
    "r_whitney_assoc(m=2,r=1,s=1)",
    "r_whitney_assoc(m=3,r=0,s=1)",
    "r_whitney_assoc(m=2,r=2,s=3)",
    "stirling_frobenius(m=3)",
    "type_b(m=3,c=2)",
    "translated_whitney(m=5)",
    "dowling(m=4)",
    "whitney(m=3,c=-2)",
    "galton(m=3,c=2)",
    "r_stirling(r=0)",
    "r_stirling(r=1)",
]

# spec files, written under these names in the scratch directory the lines
# run in: NEGATIVE_START as is, after a byte-order mark and with CRLF line
# ends; a bad byte after a two-byte character on line 2; a family request
SPEC_FILES = {
    "negative_start.spec": test_cli.NEGATIVE_START.encode(),
    "marked.spec": b"\xef\xbb\xbf" + test_cli.NEGATIVE_START.encode(),
    "crlf.spec": test_cli.NEGATIVE_START.replace("; ", ";\r\n").encode() + b"\r\n",
    "undecodable.spec": "gamma: x;\nm: 1; λ".encode() + b"\xff",
    "family.spec": b"family: dowling(m=3);",
}
SPEC_FILE_DEPTHS = (6, 6, 4, "2,6")

# specs the reader refuses, each shown as its own text in the keys: one or
# more for every rejection of speclang, and a family parameter value the
# catalog refuses after parsing
MALFORMED = [
    "",
    "gamma: x m: 1;",
    "gamma: x; m: 1",
    "gamma x; m: 1;",
    "gamma: x; m: 0;",
    "gamma: x; m: -1/2;",
    "gamma: x; gamma: x; m: 1;",
    "gamma: x;",
    "m: 1;",
    "gamma: x; m: 1; bogus: 2;",
    "gamma: ; m: 1;",
    "gamma: 1.5x; m: 1;",
    "gamma: x^; m: 1;",
    "gamma: y; m: 1;",
    "gamma: 1/0x; m: 1;",
    "gamma: x; m: 1/0;",
    "gamma: x; m: 1; lag: {s: 0, coeff: x};",
    "gamma: x; m: 1; lag: {s: 1, coeff: x, binom: maybe};",
    "gamma: x; m: 1; lag: {s: 1, coeff: x, binom: 1};",
    "gamma: x; m: 1; lag: {s: 1, coef: x};",
    "gamma: x; m: 1; lag: {s: 1, s: 2, coeff: x};",
    "gamma: x; m: 1; lag: {coeff: x};",
    "gamma: x; m: 1; lag: {s: 1};",
    "gamma: x; m: 1; lag: {s: 1, coeff: x;",
    "gamma: x; m: 1; lag: {s: 1, coeff: x}; lag: {s: 1, coeff: 1};",
    "gamma: x; m: 1; start: {poly: 0};",
    "gamma: x; m: 1; start: {index: -1};",
    "family: stirling2(); m: 1;",
    "gamma: x; family: stirling2();",
    "family: bogus();",
    "family: 3;",
    "family: dowling(q=2);",
    "family: dowling(m);",
    "family: dowling(m=2, m=3);",
    "family: dowling(m=2",
    "family: dowling(m=2/3);",
]
MALFORMED_DEPTHS = (3, 3, 2, "3")
MISSING_SPEC = ["triangle", "--spec", "missing.spec", "--max-n", "3"]
SEEDED_DEPTHS = (7, 7, 5, "3,7")
SEED, SEEDED_COUNT, USAGE_COUNT = 39, 64, 200

# verify's enumeration edges: many distinguished elements, a first row at
# or past the enumeration's row 8, a --max-n below the first row
VERIFY_EDGES = [
    ("whitney(m=2,c=7)", 20),
    ("whitney(m=2,c=20)", 20),
    ("whitney(m=1,c=14)", 20),
    ("r_whitney_assoc(m=2,r=8,s=2)", 20),
    ("r_whitney_assoc(m=2,r=1,s=3)", 30),
    ("r_stirling(r=8)", 20),
    ("r_stirling(r=15)", 20),
    ("r_stirling(r=3)", -1),
    ("galton(m=2,c=-1)", 20),
    ("dowling(m=2)", 20),
    ("r_whitney_assoc(m=2,r=1,s=3)", 20),
    ("r_stirling(r=10)", 20),
    # models with a negative r or with w != 1
    ("whitney(m=2,c=-7)", 12),
    ("galton(m=3,c=-2)", 12),
    ("sheffer(d=3,a=2)", 12),
]
# specs of partition shape written out: dowling(m=2), and a rational model
# with w = 2/3 and a shifted monomial start
VERIFY_INLINE = [
    ("gamma: x + 1; m: 2;", 12),
    ("gamma: 2/3x - 1/2; m: 3/2; start: {index: 2, poly: 4/3x^2};", 12),
]

# single lines, each run as written plus the default --format csv: edges of
# printing, of the digit limit and the caps, of deep lags and of the saddle's
# float range; a word that names a spec of PROBE_SPECS stands for its text,
# in the argv only
PROBE_SPECS = {
    **{name: text for name, text, _ in EDGE_SPECS},
    "LONG_LITERAL": f"gamma: {'1' * 5000}; m: 1;",
    "SMALL_M": f"gamma: 2x; m: 1/1{'0' * 100};",
    "FLAT_NINES": test_cli.FLAT_NINES,
}
PROBES = [
    # a zero entry over a power of two prints as 0; gamma's constant folded
    # into the rate; a constant gamma; signed data the majorant proves
    "triangle --family stirling2 --max-n 5 --format json",
    "triangle --inline HALVES_WITH_ZERO --max-n 3",
    "triangle --family dowling(m=2) --max-n 3",
    "triangle --family r_whitney_assoc(m=2,r=1,s=2) --max-n 4",
    "triangle --family galton(m=1,c=-1) --max-n 5",
    # row 14285's denominator is the first past the digit limit: exit 4; a
    # literal past it, an exponent and a lag depth past the cap: exit 2
    "triangle --inline 'gamma: 1/2; m: 1;' --max-n 15000",
    "triangle --inline LONG_LITERAL --max-n 2",
    "triangle --inline 'gamma: x^1000000000; m: 1;' --max-n 1",
    "verify --inline 'gamma: x; m: 1; lag: {s: 1000000000, coeff: x, binom: true};' --max-n 3",
    # deep lags: verify and clt never build Q1; the saddle of s = 60 solves
    "verify --family assoc_stirling(s=10000) --max-n 5",
    "clt --family r_whitney_assoc(m=7,r=1,s=10000) --ns 5",
    "asymptotics --family assoc_stirling(s=60) --ns 200",
    # a bracket end near 10^100, a log total of 3e-100, a row with no mass
    # and an exponent coefficient past the float range
    "asymptotics --inline SMALL_M --ns 3",
    "asymptotics --inline NEAR_ONE --ns 3",
    "asymptotics --family assoc_stirling(s=40) --ns 10",
    "asymptotics --inline NINES --ns 10",
    # specs with several faults: no closed form and a row below the saddle's
    # first; a row below it and an exponent coefficient past the float
    # range; that coefficient and a constant gamma, which fails the theorem
    "asymptotics --inline NO_CLOSED_FORM --ns 2",
    "asymptotics --inline NINES --ns 2",
    "asymptotics --inline FLAT_NINES --ns 5",
    # refusals a command reaches after the reader: moments with neither --n
    # nor --ns; a row below the start; a row of unit mass; family parameters
    # below and above their bounds
    "moments --family stirling2",
    "moments --family r_stirling(r=3) --ns 2",
    "asymptotics --inline 'gamma: 1/8x + 3/8; m: 2;' --ns 3",
    "triangle --family dowling(m=0) --max-n 3",
    "triangle --family assoc_stirling(s=10001) --max-n 3",
]

# argparse's lines: help, and usage errors the reader leaves to the parser
USAGE_LINES = [
    ["--help"],
    ["triangle", "-h"],
    ["bogus"],
    ["triangle", "--family", "stirling2"],
    ["triangle", "--family", "stirling2", "--max-n", "3", "--format", "xml"],
    ["pmf", "--family", "stirling2", "--inline", "gamma: x; m: 1;", "--n", "3"],
    ["verify", "--family", "stirling2", "--max-n", "x"],
    ["clt", "--family", "stirling2", "--ns", "1,a"],
    ["families", "--family", "stirling2"],
]


def _term(c: Fraction, k: int) -> str:
    power = "" if k == 0 else "x" if k == 1 else f"x^{k}"
    if power and abs(c) == 1:
        return power
    return f"{abs(c)}{power}"


def _poly(coeffs: list) -> str:
    terms = [(c, k) for k, c in enumerate(coeffs) if c][::-1]
    if not terms:
        return "0"
    text = ("-" if terms[0][0] < 0 else "") + _term(*terms[0])
    for c, k in terms[1:]:
        text += (" - " if c < 0 else " + ") + _term(c, k)
    return text


def seeded_specs() -> list[str]:
    """Spec texts in four equal groups: signed or nonnegative coefficients,
    each integer or rational; up to two lags and a start index up to 3.  A
    nonnegative spec's lags are binomial and its start is a monomial, so
    that its distribution and saddle commands have a closed form to run."""
    rng = random.Random(SEED)
    texts = []
    for i in range(SEEDED_COUNT):
        signed = i % 2 == 0
        denominators = (1,) if i % 4 < 2 else (1, 2, 3, 4)

        def number(high):
            d = rng.choice(denominators)
            return Fraction(rng.randint(-high * d if signed else 0, high * d), d)

        def poly(degree):
            return _poly([number(3) for _ in range(rng.randint(1, degree + 1))])

        m = Fraction(rng.randint(1, 12), rng.choice(denominators))
        text = f"gamma: {poly(2)}; m: {m};"
        for s in sorted(rng.sample((1, 2, 3), rng.randint(0, 2))):
            binom = "true" if not signed or rng.random() < 0.5 else "false"
            text += f" lag: {{s: {s}, coeff: {poly(1)}, binom: {binom}}};"
        index = rng.choice((0, 0, 1, 2, 3))
        if signed:
            start = _poly([number(2) for _ in range(index + 1)] + [Fraction(rng.randint(1, 2))])
        else:
            start = _poly([0] * index + [Fraction(rng.randint(1, 3), rng.choice(denominators))])
        if index or rng.random() < 0.5:
            text += f" start: {{index: {index}, poly: {start}}};"
        texts.append(text)
    return texts


def _sources():
    """(name in the keys, source flags, depths) for every spec the corpus runs."""
    for name, family in FAMILIES.items():
        yield name, ["--family", name], CATALOG_DEPTHS
        listed = ",".join(f"{k}={v}" for k, v in family.listed.items())
        yield f"{name}({listed})", ["--family", f"{name}({listed})"], CATALOG_DEPTHS
    for label in EXTRA_INSTANCES:
        yield label, ["--family", label], CATALOG_DEPTHS
    for name, text, depths in EDGE_SPECS:
        yield name, ["--inline", text], depths
    for i, text in enumerate(seeded_specs()):
        yield f"seeded[{i}]", ["--inline", text], SEEDED_DEPTHS
    for name in SPEC_FILES:
        yield name, ["--spec", name], SPEC_FILE_DEPTHS
    for text in MALFORMED:
        yield text, ["--inline", text], MALFORMED_DEPTHS


def drawn_lines() -> list[list[str]]:
    """USAGE_COUNT distinct lines drawn as test_cli.py's reader property
    draws them: words at random, or a well-formed line with up to three
    words replaced, inserted or dropped and a flag-value pair added."""
    rng = random.Random(SEED)
    words = test_cli.READER_WORDS + test_cli.READER_FLAGS + test_cli.READER_VALUES
    drawn = {}
    while len(drawn) < USAGE_COUNT:
        if rng.random() < 0.5:
            argv = [rng.choice(words) for _ in range(rng.randint(0, 8))]
        else:
            argv = list(rng.choice(test_cli.WELL_FORMED))
            for _ in range(rng.randint(0, 3)):
                i = rng.randint(0, len(argv))
                edit = rng.choice(["replace", "insert", "drop", "pair"])
                if edit == "insert":
                    argv.insert(i, rng.choice(words))
                elif edit == "pair":
                    argv += [rng.choice(test_cli.READER_FLAGS), rng.choice(test_cli.READER_VALUES)]
                elif i < len(argv):
                    argv[i : i + 1] = [rng.choice(words)] if edit == "replace" else []
        drawn.setdefault(shlex.join(argv), argv)
    return list(drawn.values())


def command_lines() -> dict[str, list[str]]:
    """{key: argv}; a key is the argv with each spec text replaced by its
    name: EDGE_SPECS' and PROBE_SPECS' names, and seeded[i] for
    seeded_specs()[i]."""
    lines = {}

    def add(argv, shown):
        for fmt in ("csv", "json"):
            for out in ([], ["--out", OUT]):
                key = shlex.join([*shown, "--format", fmt, *out])
                assert key not in lines, key
                lines[key] = [*argv, "--format", fmt, *out]

    add(["families"], ["families"])
    for name, source, (max_n, verify_n, n, ns) in _sources():
        shown = [source[0], name]
        for command, flags in [
            ("triangle", ["--max-n", str(max_n)]),
            ("pmf", ["--n", str(n)]),
            ("moments", ["--n", str(n)]),
            ("moments", ["--ns", ns]),
            ("clt", ["--ns", ns]),
            ("asymptotics", ["--ns", ns]),
            ("verify", ["--max-n", str(verify_n)]),
        ]:
            add([command, *source, *flags], [command, *shown, *flags])
    edges = [(["--family", family], max_n) for family, max_n in VERIFY_EDGES]
    for source, max_n in edges + [(["--inline", text], max_n) for text, max_n in VERIFY_INLINE]:
        argv = ["verify", *source, "--max-n", str(max_n)]
        add(argv, argv)
    for probe in PROBES:
        shown = shlex.split(probe) + ["--format", "csv"] * ("--format" not in probe)
        key = shlex.join(shown)
        assert key not in lines, key
        lines[key] = [PROBE_SPECS.get(word, word) for word in shown]
    # a drawn line may be one of the lines above, argv for argv
    for argv in [MISSING_SPEC, *USAGE_LINES, *drawn_lines()]:
        lines.setdefault(shlex.join(argv), argv)
    return lines


def digest(argv: list[str]) -> str:
    """The first 16 hex digits of the sha256 of what `cli.main(argv)` does,
    run in the current directory.  The files it writes there are read, in
    name order, and removed."""
    before = set(os.listdir())
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse's own text
            code = f"argparse {stop.code}"
    written = b""
    for name in sorted(set(os.listdir()) - before):
        written += Path(name).read_bytes()
        os.remove(name)
    if isinstance(code, str):
        return hashlib.sha256(code.encode()).hexdigest()[:16]
    err = stderr.getvalue()
    if err:
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        if not issubclass(getattr(errors, error["type"], Exception), errors.PolyrecError):
            err = error["type"]
    text = f"{code}\0{stdout.getvalue()}\0{err}\0".encode() + written
    return hashlib.sha256(text).hexdigest()[:16]


def digests(lines: dict[str, list[str]]) -> dict[str, str]:
    """{key: digest}, every line run in process in one scratch directory
    that holds SPEC_FILES."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, data in SPEC_FILES.items():
                Path(name).write_bytes(data)
            return {key: digest(argv) for key, argv in lines.items()}
        finally:
            os.chdir(here)


def differences(recorded: dict[str, str], now: dict[str, str]) -> list[str]:
    """'changed: KEY', 'new: KEY' or 'gone: KEY' for every key whose digest
    is not the recorded one, sorted by key."""
    return [
        ("changed" if key in recorded and key in now else "new" if key in now else "gone") + ": " + key
        for key in sorted(recorded.keys() | now.keys())
        if recorded.get(key) != now.get(key)
    ]


def main() -> int:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    now = digests(command_lines())
    for line in differences(recorded, now):
        print(line)
    DIGESTS.write_text(json.dumps(now, indent=0) + "\n")
    print(f"{len(now)} command lines recorded in {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

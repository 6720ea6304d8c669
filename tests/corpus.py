"""Byte-identity corpus: seeded command lines and a digest of what each does.

    PYTHONPATH=src python tests/corpus.py

re-records tests/corpus_digests.json from the tree on PYTHONPATH and prints
the key of every command line whose digest changed, is new or is gone.
test_corpus.py runs the same lines in process through `cli.main` and names
every line whose digest differs from the file.

The lines: every command on every catalog family (bare and at its `listed`
parameters), on the named edge specs of test_cli.py and on seeded signed
and rational specs with lags and shifted starts; each in CSV and JSON, to
stdout and to `--out`; plus `families`, the edges of `verify`'s
enumeration and a few usage errors.

A digest covers the exit code, stdout, the `--out` file's bytes and
polyrec's one-line JSON stderr.  Of an error that is not a PolyrecError
(Python's own, such as the digit limit's ValueError) only the type counts,
and of argparse's help and usage errors only the exit code: their texts
differ between Python versions, and the corpus runs on every version CI
does.
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
SEEDED_DEPTHS = (7, 7, 5, "3,7")
SEED, SEEDED_COUNT = 39, 64

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
    for name, text, depths in EDGE_SPECS:
        yield name, ["--inline", text], depths
    for i, text in enumerate(seeded_specs()):
        yield f"seeded[{i}]", ["--inline", text], SEEDED_DEPTHS


def command_lines() -> dict[str, list[str]]:
    """{key: argv}; a key is the argv with each spec text replaced by its
    name: EDGE_SPECS' names, and seeded[i] for seeded_specs()[i]."""
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
    for family, max_n in VERIFY_EDGES:
        argv = ["verify", "--family", family, "--max-n", str(max_n)]
        add(argv, argv)
    for argv in USAGE_LINES:
        lines[shlex.join(argv)] = argv
    return lines


def digest(argv: list[str]) -> str:
    """The first 16 hex digits of the sha256 of what `cli.main(argv)` does,
    run in the current directory."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as stop:  # argparse's own text
            return hashlib.sha256(f"argparse {stop.code}".encode()).hexdigest()[:16]
    written = b""
    if os.path.exists(OUT):
        written = Path(OUT).read_bytes()
        os.remove(OUT)
    err = stderr.getvalue()
    if err:
        (line,) = err.splitlines()
        error = json.loads(line)["error"]
        if not issubclass(getattr(errors, error["type"], Exception), errors.PolyrecError):
            err = error["type"]
    text = f"{code}\0{stdout.getvalue()}\0{err}\0".encode() + written
    return hashlib.sha256(text).hexdigest()[:16]


def digests(lines: dict[str, list[str]]) -> dict[str, str]:
    """{key: digest}, every line run in process in one scratch directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
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

"""Weighted partition counting for validating triangles at small n.

The counting model: partitions of r + n elements where the first r
(distinguished) elements lie in pairwise different blocks, every block
containing no distinguished element has at least s elements, and each such
non-distinguished block B carries multiplicative weight m^(|B| - 1).
Counts are grouped by the number of non-distinguished blocks.

The n plain elements are placed one at a time, each making one of three
choices: join one of the r distinguished blocks, join an existing
non-distinguished block (one more color factor m), or open a new block.
Only the block-size profile matters to what follows, so the walk keeps one
weight per profile (how many blocks have size 1, 2, ..., s - 1 and at least
s) and merges equal profiles after each element; its cost is polynomial in
n rather than the number of partitions.  This module shares no code with
the recurrence engine beyond exact integers, which is the point: it is the
independent witness.

`verify_family` compares a triangle with one walk, which yields the counts
of every row until its budget of MAX_VISITS profiles is spent; the report
names the last row compared.  Only `count_partitions` raises SizeGuardError.
`verify` gathers the three checks of `polyrec verify`: the EGF identity and
the nonnegativity scan, in one pass over the rows, and this enumeration up
to row 8.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import mul

from . import recurrence
from .algebra import Record
from .errors import InvalidIndexError, ParameterError, SizeGuardError, UnsupportedShapeError
from .families import FAMILIES, FamilyDescriptor, egf_series, validate_nonnegativity

MAX_VISITS = 20_000


class PartitionConstraint(Record):
    """Enumeration parameters: n non-distinguished elements, r distinguished
    elements (pairwise separated), m colors, minimum non-distinguished block
    size s; all ints."""

    __slots__ = ()

    def __new__(cls, n, r=0, m=1, s=1):
        for name, value, minimum in zip("nrms", (n, r, m, s), (0, 0, 1, 1)):
            if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
                raise ParameterError(f"{name} must be an integer >= {minimum}")
        return tuple.__new__(cls, (n, r, m, s))


def _walk(r: int, m: int, s: int, n: int) -> Iterator[dict[int, int]]:
    """Yield the counts of 0, 1, ..., n plain elements, as `count_partitions`
    returns them, while its layers hold at most MAX_VISITS profiles in all."""
    # profile[i] counts the non-distinguished blocks of size i + 1 for
    # i < s - 1, and profile[s - 1] those of size >= s.  A profile is
    # dropped once its need, the elements its undersized blocks lack, passes
    # the elements left before row n; a row counts the profiles with none.
    layer: dict[tuple[int, ...], int] = {(0,) * s: 1}
    visits = 1
    yield {0: 1}
    for left in range(n - 1, -1, -1):
        following: dict[tuple[int, ...], int] = {}
        for profile, weight in layer.items():
            need = sum(map(mul, profile, range(s - 1, -1, -1)))
            # join one of the r distinguished blocks or, as a non-smallest
            # member (one color factor m), one of the blocks of size >= s:
            # the profile stays put (a move of weight 0 is no move)
            moves = [(profile, weight * (r + profile[-1] * m), need)]
            # join one of the c blocks of size i + 1 < s, likewise
            for i, c in enumerate(profile[:-1]):
                if c:
                    grown = profile[:i] + (c - 1, profile[i + 1] + 1) + profile[i + 2 :]
                    moves.append((grown, weight * c * m, need - 1))
            # open a new non-distinguished block
            moves.append(((profile[0] + 1,) + profile[1:], weight, need + s - 1))
            for after, w, short in moves:
                if w and short <= left:
                    following[after] = following.get(after, 0) + w
        if (visits := visits + len(following)) > MAX_VISITS:
            return
        layer = following
        yield {p[-1]: w for p, w in layer.items() if not any(p[:-1])}


def count_partitions(constraint: PartitionConstraint) -> dict[int, int]:
    """Count the constrained partitions, weighted, over block-size profiles.

    Returns {number of non-distinguished blocks: total weight}, omitting
    zero entries.  Raises SizeGuardError if the walk's budget ends it early.
    """
    n, r, m, s = constraint
    *rows, counts = _walk(r, m, s, n)
    if len(rows) < n:
        raise SizeGuardError(f"the walk to n = {n} holds more than {MAX_VISITS} profiles")
    return counts


class OracleReport(Record):
    """Outcome of checking one family's triangle against enumeration;
    `first_mismatch` is (n, k, triangle, oracle) or None."""

    __slots__ = ()

    def __new__(cls, family, n_max, ok, skipped=False, notice="", first_mismatch=None):
        return tuple.__new__(cls, (family, n_max, ok, skipped, notice, first_mismatch))

    def __str__(self) -> str:
        if self.skipped:
            return f"{self.family}: skipped ({self.notice})"
        if self.ok:
            return f"{self.family}: rows up to {self.n_max} match enumeration"
        n, k, got, want = self.first_mismatch
        return f"{self.family}: mismatch at (n={n}, k={k}): triangle {got}, oracle {want}"


def verify_family(descriptor: FamilyDescriptor, n_max: int) -> OracleReport:
    """Check the recurrence triangle against enumeration for rows <= n_max.

    Row `start_index` holds no plain element and equals `start_poly`, so
    row start_index + n counts the model's partitions of n plain elements,
    shifted up by deg start_poly columns.  The report names the last row
    compared: n_max, or the last row within the walk's budget.  Families
    without a registered combinatorial model (galton, sheffer, whitney with
    negative c), or with no row up to `n_max`, come back skipped-with-notice.
    """
    label, model = descriptor.label, descriptor.oracle_model
    start = descriptor.spec.start_index
    if model is None:
        notice = "no combinatorial model registered"
    elif n_max < start:
        notice = f"no row up to {n_max}: the first row is {start}"
    else:
        r, m, s = model
        col_offset = descriptor.spec.start_poly.degree
        walk = _walk(r, m, s, n_max - start)
        for counts, (n, poly) in zip(walk, recurrence.rows(descriptor.spec, n_max)):
            top = max([poly.degree] + [k + col_offset for k in counts])
            for k in range(top + 1):
                want = counts.get(k - col_offset, 0)
                if (got := poly.coefficient(k)) != want:
                    return OracleReport(label, n_max, False, first_mismatch=(n, k, int(got), want))
        return OracleReport(label, n, ok=True)
    return OracleReport(label, n_max, ok=True, skipped=True, notice=notice)


class Check(Record):
    """One check of `verify`: its name, whether it passed, and what it saw."""

    __slots__ = ()

    def __new__(cls, name, ok, detail):
        return tuple.__new__(cls, (name, ok, detail))


def verify(descriptor: FamilyDescriptor, max_n: int) -> tuple[Check, ...]:
    """The egf_identity, enumeration and nonnegativity checks, in that order.

    The EGF identity covers EGF rows 0..max_n, the enumeration rows up to
    8 (fewer where the walk's budget ends it) and the nonnegativity scan
    rows up to max_n.  A spec with no closed-form exponent skips the EGF
    check, and one with no partition model or no row in reach skips the
    enumeration; a skipped check passes.  A `max_n` below the start index
    raises InvalidIndexError before any row is drawn.
    """
    spec = descriptor.spec
    start = spec.start_index
    if max_n < start:
        raise InvalidIndexError(f"upper index {max_n} is below start index {start}")

    # one pass: EGF row j is spec row start + j, so the EGF check reads rows
    # through max_n + start and the scan through max_n
    try:
        descriptor.saddle  # the shape check, before any row is generated
        series, upto = egf_series(descriptor, max_n), max_n + start
        egf = Check("egf_identity", True, f"rows 0..{max_n} match")
    except UnsupportedShapeError as err:
        series, upto = iter(()), max_n
        egf = Check("egf_identity", True, f"skipped: {err}")

    def checked_rows():
        nonlocal egf
        for row in recurrence.rows(spec, upto):
            # a spent series reads as agreeing
            if egf.ok and (want := next(series, row.poly)) != row.poly:
                detail = f"row {row.n}: recurrence {row.poly}, series {want}"
                egf = Check("egf_identity", False, detail)
            if row.n <= max_n:
                yield row

    scan = validate_nonnegativity(checked_rows())

    if descriptor.name in FAMILIES:
        report = verify_family(descriptor, 8)
        detail = f"skipped: {report.notice}" if report.skipped else str(report)
        enumeration = Check("enumeration", report.ok, detail)
    else:
        enumeration = Check("enumeration", True, "skipped: custom spec has no model")

    if not scan.ok:
        detail = f"negative entry at (n,k)={scan.first_negative}"
    elif scan.zero_sum_rows:
        detail = f"all entries >= 0; zero-mass rows {list(scan.zero_sum_rows)}"
    else:
        detail = "all entries >= 0"
    return egf, enumeration, Check("nonnegativity", scan.ok, detail)

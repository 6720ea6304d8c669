"""Weighted partition counting for validating triangles at small n.

The counting model (r, m, s, w): partitions of r + n elements where the
first r (distinguished) elements lie in pairwise different blocks, every
block containing no distinguished element has at least s elements, and each
such non-distinguished block B carries weight w m^(|B| - 1).  Counts are
grouped by the number of non-distinguished blocks.

The n plain elements are placed one at a time, each making one of three
choices: join one of the r distinguished blocks, join an existing
non-distinguished block (one more color factor m), or open a new block (w).
Only the block-size profile matters to what follows, so the walk keeps one
weight per profile (how many blocks have size 1, 2, ..., s - 1 and at least
s) and merges equal profiles after each element; its cost is polynomial in
n rather than the number of partitions.  `_model` reads the model off the
coefficients of any spec; it and the walk share no code with the recurrence
engine or the EGF route beyond exact numbers, which is the point: they are
the independent witness.

`verify_family` compares a triangle with one walk, which yields the counts
of every row until its budget of MAX_VISITS profiles is spent; the report
names the last row compared.  Only `count_partitions` raises SizeGuardError.
`verify` gathers the three checks of `polyrec verify` in one pass over the
rows: the EGF identity, the nonnegativity scan, and this enumeration of the
rows up to 8, which the pass keeps for it.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import mul

from . import recurrence
from .algebra import ZERO, Record
from .errors import ParameterError, SizeGuardError, UnsupportedShapeError
from .families import FamilyDescriptor, egf_series, validate_nonnegativity

MAX_VISITS = 20_000


def _walk(r, m, s: int, w, n: int) -> Iterator[dict]:
    """Yield the counts of 0, 1, ..., n plain elements in the model (r, m, s,
    w), exact numbers, while its layers hold at most MAX_VISITS profiles."""
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
            moves.append(((profile[0] + 1,) + profile[1:], weight * w, need + s - 1))
            for after, value, short in moves:
                if value and short <= left:
                    following[after] = following.get(after, 0) + value
        if (visits := visits + len(following)) > MAX_VISITS:
            return
        layer = following
        yield {p[-1]: value for p, value in layer.items() if not any(p[:-1])}


def count_partitions(n: int, r: int = 0, m: int = 1, s: int = 1) -> dict[int, int]:
    """Count the partitions of n plain elements in the model (r, m, s, 1),
    weighted, over block-size profiles; n, r >= 0 and m, s >= 1 are ints,
    else ParameterError.

    Returns {number of non-distinguished blocks: total weight}, omitting
    zero entries.  Raises SizeGuardError if the walk's budget ends it early.
    """
    for name, value, minimum in zip("nrms", (n, r, m, s), (0, 0, 1, 1)):
        if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
            raise ParameterError(f"{name} must be an integer >= {minimum}")
    *rows, counts = _walk(r, m, s, 1, n)
    if len(rows) < n:
        raise SizeGuardError(f"the walk to n = {n} holds more than {MAX_VISITS} profiles")
    return counts


def _model(spec: recurrence.RecurrenceSpec) -> tuple | None:
    """(r, m, s, w, c0, d), integral numbers as ints, when `spec` is the model
    (r, m, s, w) started at c0 x^d, else None.  Lags must be binomial, and
    absent past start index 0.  Folded as `build_exponent` folds it (m d in
    gamma, a depth-1 lag merged in), it reads gamma = r + w x, or gamma = r
    and one lag c x of depth s >= 2, w = c / m^(s - 1)."""
    start, m, deep = spec.start_poly, spec.m, {lag.s: lag.kappa for lag in spec.lags}
    one = deep.pop(1, ZERO)
    r, w = (spec.gamma.coefficient(j) + one.coefficient(j) for j in (0, 1))
    (s, kappa), *more = deep.items() or [(1, None)]
    if (
        any(start.numerators[:-1])
        or (spec.lags and spec.start_index)
        or not all(lag.binom_weight for lag in spec.lags)
        or max(spec.gamma.degree, one.degree) > 1
        or more
        or (s > 1 and (w or kappa.degree != 1 or kappa.numerators[0]))
    ):
        return None
    if s > 1:
        w = kappa.coefficient(1) / m ** (s - 1)
    model = (r + m * start.degree, m, s, w, start.leading_coefficient, start.degree)
    return tuple(q.numerator if q.denominator == 1 else q for q in model)


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
    """Check the recurrence triangle against enumeration for rows <= n_max."""
    return _enumeration(descriptor, n_max, recurrence.rows(descriptor.spec, n_max))


def _enumeration(descriptor: FamilyDescriptor, n_max: int, rows) -> OracleReport:
    """Compare the walk with `rows`, the spec's rows from its start through
    n_max.  The model (r, m, s, w) is read off the spec by `_model`.  Row
    `start_index` holds no plain element and equals the start c0 x^d, so
    row start_index + n is c0 times the model's counts of n plain elements,
    shifted up by d columns.  The report names the last row compared: n_max,
    or the last row within the walk's budget; a mismatch gives both entries
    exactly.  A spec with no partition model, or with no row up to `n_max`,
    comes back skipped-with-notice and reads no row.
    """
    label, spec = descriptor.label, descriptor.spec
    model, start = _model(spec), spec.start_index
    if model is None:
        notice = "custom spec has no model"
    elif n_max < start:
        notice = f"no row up to {n_max}: the first row is {start}"
    else:
        *weights, c0, d = model
        for counts, (n, poly) in zip(_walk(*weights, n_max - start), rows):
            top = max([poly.degree] + [k + d for k in counts])
            for k in range(top + 1):
                want = c0 * counts.get(k - d, 0)
                if (got := poly.coefficient(k)) != want:
                    return OracleReport(label, n_max, False, first_mismatch=(n, k, got, want))
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
    rows up to max_n, all read in one pass.  A spec with no closed-form
    exponent skips the EGF check, and one, catalog or custom, with no
    partition model or no row in reach skips the enumeration; a skipped
    check passes.  A `max_n` below the start index raises InvalidIndexError
    before any row is drawn.
    """
    spec = descriptor.spec
    start = spec.start_index
    recurrence._check_upto(spec, max_n)

    # one pass: EGF row j is spec row start + j, so the EGF check reads rows
    # through max_n + start, the scan through max_n and a model's
    # enumeration through 8 (none when the spec starts past 8)
    try:
        descriptor.saddle  # the shape check, before any row is generated
        series, upto = egf_series(descriptor, max_n), max_n + start
        egf = Check("egf_identity", True, f"rows 0..{max_n} match")
    except UnsupportedShapeError as err:
        series, upto = iter(()), max_n
        egf = Check("egf_identity", True, f"skipped: {err}")
    kept = []

    def checked_rows():
        nonlocal egf
        for row in recurrence.rows(spec, max(upto, 8) if _model(spec) else upto):
            # a spent series reads as agreeing
            if egf.ok and (want := next(series, row.poly)) != row.poly:
                detail = f"row {row.n}: recurrence {row.poly}, series {want}"
                egf = Check("egf_identity", False, detail)
            if row.n <= 8:
                kept.append(row)
            if row.n <= max_n:
                yield row

    scan = validate_nonnegativity(checked_rows())

    report = _enumeration(descriptor, 8, kept)
    detail = f"skipped: {report.notice}" if report.skipped else str(report)
    enumeration = Check("enumeration", report.ok, detail)

    if not scan.ok:
        detail = f"negative entry at (n,k)={scan.first_negative}"
    elif scan.zero_sum_rows:
        detail = f"all entries >= 0; zero-mass rows {list(scan.zero_sum_rows)}"
    else:
        detail = "all entries >= 0"
    return egf, enumeration, Check("nonnegativity", scan.ok, detail)

"""Differential-difference recurrence engine.

Advances polynomial sequences of the form

    P_n(x) = gamma(x) P_{n-1}(x) + m x P'_{n-1}(x)
             + sum over lag terms  w(n, s) kappa(x) P_{n-s}(x)

where the lag weight w(n, s) is C(n-1, s-1) for binomial-weighted terms and
1 otherwise.  Polynomials at indices below the start index are treated as
zero, so lag terms reaching below the start contribute nothing.

The rows are advanced on integers.  With D the common denominator of gamma,
m and every kappa, and d0 that of the start polynomial, the scaled rows
Q_n = d0 D^(n - start) P_n have integer coefficients and obey

    Q_n = (D gamma) Q_{n-1} + (D m) x Q'_{n-1} + sum w(n, s) (D^s kappa) Q_{n-s},

so `advance` is one call of the kernel `algebra.add_products` on plain `int`
lists: entry j of Q_n starts as the rate (D gamma_0 + D m j) times q_j of
Q_{n-1}, then takes gamma's higher terms and each lag's in turn.
`scaled_rows` steps them, keeping only the last `max_lag`, and also runs on
`Decimal` rows, whose text is linear in the digits, for printing an integer
triangle.  `rows`, the one row source, wraps it and hands each row over as
the pair (Q_n, d0 D^(n - start)) without touching a coefficient (the
denominator is 1 when the data are integers, as for every catalog family);
`generate` and `triangle` are lists over it.  `majorant` bounds the size and
degree of every scaled row without drawing one, and gives each row's exact
coefficient at its degree bound, whatever the signs: the size bound lets the
command line print a triangle in one pass, and a nonzero top coefficient at
the widest bound proves a CSV width.  `triangle_linear` gives the rows of
gamma = a + u x, m = b by their explicit sum, sharing no step with the engine.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .algebra import ONE, ExactPolynomial, Record, Scalar, add_products, as_fraction, scaled_ints
from .errors import InvalidIndexError

Row = list[int]


class LagTerm(Record):
    """One lagged term of the recurrence.

    `s` is the lag depth (an int >= 1), `kappa` the x-dependent factor (an
    ExactPolynomial) with any constant scaling pre-folded in, and
    `binom_weight` selects the n-dependent factor C(n-1, s-1) instead of 1.
    """

    __slots__ = ()

    def __new__(cls, s, kappa, binom_weight=False):
        if s < 1:
            raise ValueError("lag depth s must be >= 1")
        return tuple.__new__(cls, (s, kappa, binom_weight))

    def weight(self, n: int) -> int:
        return math.comb(n - 1, self.s - 1) if self.binom_weight else 1


class ScaledData(Record):
    """A spec's data as integers: gamma and m times D, and each kappa times
    D^s (lowest power first)."""

    __slots__ = ()

    def __new__(cls, denominator, gamma, m, lags):
        return tuple.__new__(cls, (denominator, gamma, m, lags))


class RecurrenceSpec(Record):
    """Full data of one recurrence instance; `m` is kept as a Fraction."""

    # no __slots__: the cached `scaled` lives in the instance dict

    def __new__(cls, gamma, m, lags=(), start_index=0, start_poly=ONE):
        m = as_fraction(m)
        # keep lag order canonical so equality is order-insensitive
        lags = tuple(sorted(lags, key=lambda t: t.s))
        if m <= 0:
            raise ValueError("m must be > 0 (positive derivative weight)")
        if start_poly.is_zero:
            raise ValueError("start polynomial must be nonzero")
        if start_index < 0:
            raise ValueError("start index must be >= 0")
        depths = [lag.s for lag in lags]
        if len(set(depths)) != len(depths):
            raise ValueError("lag depths must be distinct")
        return tuple.__new__(cls, (gamma, m, lags, start_index, start_poly))

    @property
    def max_lag(self) -> int:
        return max((lag.s for lag in self.lags), default=1)

    @functools.cached_property
    def scaled(self) -> ScaledData:
        """The integer data `advance` runs on, computed once per spec."""
        d = math.lcm(
            self.gamma.denominator,
            self.m.denominator,
            *(lag.kappa.denominator for lag in self.lags),
        )
        return ScaledData(
            denominator=d,
            gamma=scaled_ints(self.gamma, d),
            m=self.m.numerator * (d // self.m.denominator),
            lags=tuple((lag, scaled_ints(lag.kappa, d**lag.s)) for lag in self.lags),
        )


def advance(spec: RecurrenceSpec, history: Sequence[Row], n: int) -> Row:
    """Compute the scaled row Q_n = d0 D^(n - start) P_n from recent ones.

    `history[i]` must be Q_{n-1-i} as a list of ints (or of exact numbers
    that mix with ints, as in `scaled_rows`), lowest power first, with no
    trailing zeros; the result has the same form.  Entries for indices
    below the start index may be anything (they are ignored, those rows are
    zero by convention), but every index in [start_index, n-1] that a term
    needs must be present.
    """
    if n <= spec.start_index:
        raise InvalidIndexError(
            f"advance needs n > start index {spec.start_index}, got {n}"
        )

    def lookup(idx: int) -> Sequence[int]:
        if idx < spec.start_index:
            return ()
        pos = n - 1 - idx
        if pos >= len(history):
            raise InvalidIndexError(f"history does not reach back to index {idx}")
        return history[pos]

    _, gamma, m, lags = spec.scaled
    prev = lookup(n - 1)
    # prefill (D gamma_0 + D m j) q_j, then add gamma less its constant and each lag
    c = gamma[0] if gamma else 0
    terms = [((0, *gamma[1:]), prev, 1)]
    terms += [(kappa, lookup(n - lag.s), lag.weight(n)) for lag, kappa in lags]
    return add_products(terms, list(map(operator.mul, range(c, c + m * len(prev), m), prev)))


class TriangleRow(Record):
    """Row n of a coefficient triangle: its entries are the coefficients of
    `poly`, trailing zeros stripped (the zero polynomial gives none)."""

    __slots__ = ()

    def __new__(cls, n, poly):
        return tuple.__new__(cls, (n, poly))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.poly.coeffs

    def row_sum(self) -> Fraction:
        return self.poly(1)


def _check_upto(spec: RecurrenceSpec, upto: int) -> None:
    if upto < spec.start_index:
        raise InvalidIndexError(
            f"upper index {upto} is below start index {spec.start_index}"
        )


def majorant(spec: RecurrenceSpec, upto: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, M_n, e_n, L_n) for n = start_index .. upto, without drawing a row.

    M_n bounds the sum of |q| over the scaled row Q_n, so every entry, e_n
    bounds its degree (-1 where M_n = 0: the row is zero), and L_n is its
    coefficient of x^{e_n}.  With g = sum |D gamma_j| and
    k_s = sum |D^s kappa_{s,j}|,

        M_n = (g + D m e_{n-1}) M_{n-1} + sum w(n, s) k_s M_{n-s},

    from M_start = sum |d0 P_start|, since |gamma Q|_1 <= |gamma|_1 |Q|_1 and
    x Q' scales each coefficient by at most deg Q; a lag reaching below the
    start contributes nothing, and x Q' of a constant row is zero.  Whatever
    the signs, only the earlier rows' coefficients at their bound degrees
    reach e_n, so L_n is exactly the sum of gamma_top L_{n-1},
    D m e_{n-1} L_{n-1} and w(n, s) kappa_top L_{n-s} over the terms with
    mass whose degree bound is e_n.  Each row costs a few `int` operations,
    and an `upto` below the start index raises when the first bound is drawn.
    """
    _check_upto(spec, upto)
    _, gamma, m, lags = spec.scaled

    def band(poly):  # an int list's sum of |q|, degree and top coefficient
        return sum(map(abs, poly)), len(poly) - 1, poly[-1] if poly else 0

    gamma, lags = band(gamma), [(lag, band(kappa)) for lag, kappa in lags]
    # (M, e, L) of the last max_lag rows; those below the start are zero rows
    history = deque([(0, -1, 0)] * spec.max_lag, maxlen=spec.max_lag)
    history.appendleft(band(spec.start_poly.numerators))
    yield spec.start_index, *history[0]
    for n in range(spec.start_index + 1, upto + 1):
        # each term: a weight, a factor's band and a row's (M, e, L)
        prev = history[0]
        factors = [(1, gamma, prev), (1, (m * prev[1], 0, m * prev[1]), prev)]
        factors += [(lag.weight(n), kappa, history[lag.s - 1]) for lag, kappa in lags]
        mass, degree, top = 0, -1, 0
        for w, (a, da, ta), (b, db, tb) in factors:
            t = w * a * b
            mass += t
            if t and da + db >= degree:
                top = w * ta * tb + (top if da + db == degree else 0)
                degree = da + db
        history.appendleft((mass, degree, top))
        yield n, *history[0]


def scaled_rows(
    spec: RecurrenceSpec, upto: int, first: Sequence
) -> Iterator[tuple[int, Sequence]]:
    """The raw scaled rows (n, Q_n) for n = start_index .. upto, in order.

    `first` is the start row Q_start = d0 P_start, lowest power first and
    without trailing zeros, in whatever number type the rows should hold:
    `int` for `rows`, `decimal.Decimal` for the text of an integer triangle
    (the caller then supplies an exact context for each draw).  Only the
    last `max_lag` rows are kept, as the history `advance` reads, and this
    is the one loop that calls `advance`.  An `upto` below the start index
    raises when the first row is drawn.
    """
    _check_upto(spec, upto)
    history = deque([first], maxlen=spec.max_lag)
    yield spec.start_index, first
    for n in range(spec.start_index + 1, upto + 1):
        history.appendleft(advance(spec, history, n))
        yield n, history[0]


def rows(spec: RecurrenceSpec, upto: int) -> Iterator[TriangleRow]:
    """Rows n = start_index .. upto in order, each built as it is drawn.

    The `int` rows of `scaled_rows`, each handed over with its denominator
    d0 D^(n - start), so drawing row n holds a window of rows, not the
    triangle.  An `upto` below the start index raises when the first row is
    drawn.
    """
    d, denominator = spec.scaled.denominator, spec.start_poly.denominator
    for n, q in scaled_rows(spec, upto, spec.start_poly.numerators):
        yield TriangleRow(n, ExactPolynomial.from_scaled(q, denominator))
        denominator *= d


def generate(spec: RecurrenceSpec, upto: int) -> list[ExactPolynomial]:
    """All polynomials P_n for n = start_index .. upto (inclusive)."""
    return [row.poly for row in rows(spec, upto)]


def triangle(spec: RecurrenceSpec, upto: int) -> list[TriangleRow]:
    """Coefficient triangle of the polynomial sequence."""
    return list(rows(spec, upto))


def triangle_linear(
    u: Scalar, a: Scalar, b: Scalar, upto: int
) -> list[TriangleRow]:
    """The triangle of T_{n,k} = u T_{n-1,k-1} + (a + b k) T_{n-1,k}, T_{0,0} = 1,
    not by that recurrence but by inclusion-exclusion, with each (a + b j)^n a
    running product: T_{n,k} = u^k / (b^k k!) sum_{j<=k} (-1)^(k-j) C(k,j)
    (a + b j)^n, or C(n,k) u^k a^(n-k) when b = 0."""
    if upto < 0:
        raise InvalidIndexError("triangle_linear needs upto >= 0")
    u, a, b = as_fraction(u), as_fraction(a), as_fraction(b)
    rows, powers = [], [Fraction(1)] * (upto + 1)
    for n in range(upto + 1):
        if b:
            sums = (
                sum((-1) ** (k - j) * math.comb(k, j) * powers[j] for j in range(k + 1))
                for k in range(n + 1)
            )
            row = [(u / b) ** k / math.factorial(k) * total for k, total in enumerate(sums)]
        else:
            row = [math.comb(n, k) * u**k * a ** (n - k) for k in range(n + 1)]
        rows.append(TriangleRow(n, ExactPolynomial(row)))
        powers = [p * (a + b * j) for j, p in enumerate(powers)]
    return rows

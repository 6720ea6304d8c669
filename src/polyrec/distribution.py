"""Probability layer: from row polynomials to exact PMFs and normal-law
diagnostics.

A row polynomial with nonnegative coefficients is read as a probability
generating function: P(X_n = k) = p_{n,k} / P_n(1).  Mean and variance stay
exact rationals; third and fourth standardized moments are floats computed
from exact central moments, converted only at the end so no cancellation
happens in floating point.

The distance-to-normal diagnostics report sup_k |F(k) - Phi((k - mu)/sigma)|
both with the PMF's own mean and standard deviation (self-standardization,
which makes convergence visible at desk scale) and with the limit
normalization center = d n / log n, scale = d sqrt(n) / log n whose first
order terms the asymptotic layer predicts.  Because X_n is lattice-valued,
the headline statistic evaluates at half-integers k + 1/2; the plain
integer-k statistic is kept alongside.
"""

from __future__ import annotations

import decimal
import functools
import math
from collections.abc import Iterator, Sequence
from fractions import Fraction
from itertools import pairwise

from . import recurrence
from .algebra import ExactPolynomial, ONE, Record
from .errors import (
    InvalidDistributionError,
    ParameterError,
    UnsupportedShapeError,
    ZeroMassError,
    ZeroVarianceError,
)
from .families import FamilyDescriptor
from .recurrence import RecurrenceSpec, TriangleRow


def standard_normal_cdf(t: float) -> float:
    """Phi(t) via the error function; absolute error below 1e-12."""
    return 0.5 * (1.0 + math.erf(t / math.sqrt(2.0)))


# 40 digits over the whole exponent range, for moments whose variance
# underflows a float; a ratio past the float range converts to +-inf
_WIDE = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


class PMFTable(Record):
    """Exact distribution of X_n extracted from one row polynomial:
    P(X_n = k) = weights[k] / total, with int weights."""

    # no __slots__: the cached `probs` lives in the instance dict

    def __new__(cls, n, weights, total, mean, variance, skewness, excess_kurtosis):
        return tuple.__new__(cls, (n, weights, total, mean, variance, skewness, excess_kurtosis))

    @functools.cached_property
    def probs(self) -> dict[int, Fraction]:
        """P(X_n = k) for every k of positive probability, built on first read."""
        return {k: Fraction(a, self.total) for k, a in enumerate(self.weights) if a}


def pmf(p: ExactPolynomial, n: int) -> PMFTable:
    """Normalize a row polynomial into an exact PMF with exact low moments.

    The weights are the row's numerators divided by their gcd, so equal
    distributions give equal tables, and the moments come from their
    integer power sums S_j = sum k^j a_k with one division each at the end.
    Rejects negative coefficients (not a distribution) and zero total mass
    (rows below the first nonzero row of block-size-restricted families).
    """
    weights = p.numerators
    g = math.gcd(*weights)
    if g > 1:
        weights = tuple(a // g for a in weights)
    s0 = s1 = s2 = s3 = s4 = 0
    for k, a in enumerate(weights):
        if a < 0:
            raise InvalidDistributionError(
                f"coefficient of x^{k} is negative ({p.coefficient(k)}); "
                "not a distribution"
            )
        s0 += a
        a *= k
        s1 += a
        a *= k
        s2 += a
        a *= k
        s3 += a
        s4 += a * k
    if s0 == 0:
        raise ZeroMassError(f"row {n} has zero total mass")

    # central moments E[(X - mean)^j] times s0^j
    mean = Fraction(s1, s0)
    c2 = s0 * s2 - s1 * s1
    m2 = Fraction(c2, s0 * s0)
    if c2 == 0:
        skew = 0.0
        kurt = 0.0
    else:
        c3 = s0 * s0 * s3 - 3 * s0 * s1 * s2 + 2 * s1**3
        c4 = s0**3 * s4 - 4 * s0 * s0 * s1 * s3 + 6 * s0 * s1 * s1 * s2 - 3 * s1**4
        sigma = math.sqrt(float(m2))
        if sigma**4 > 0.0:
            # int / int rounds correctly, so this is float(m3), float(m4)
            skew = (c3 / s0**3) / sigma**3
            kurt = (c4 / s0**4) / sigma**4 - 3.0
        else:  # the variance underflows: ratios of the exact c2, c3, c4
            with decimal.localcontext(_WIDE):
                c2 = decimal.Decimal(c2)
                skew = float(c3 / (c2 * c2.sqrt()))
                kurt = float(c4 / (c2 * c2)) - 3.0
    return PMFTable(n, weights, s0, mean, m2, skew, kurt)


class NormalityReport(Record):
    """Distance of one exact PMF to the standard normal law.

    ks_plain / ks_continuity self-standardize with the exact mean and
    standard deviation; the _limit pair uses center = d n / log n and
    scale = d sqrt(n) / log n instead.
    """

    __slots__ = ()

    def __new__(cls, n, ks_plain, ks_continuity, standardized_third, standardized_fourth,
                center, scale, ks_plain_limit, ks_continuity_limit):
        return tuple.__new__(cls, (n, ks_plain, ks_continuity, standardized_third,
                                   standardized_fourth, center, scale, ks_plain_limit,
                                   ks_continuity_limit))


def float_variance(table: PMFTable) -> float:
    """The exact variance as a float for the normal law and the saddle
    comparison: ZeroVarianceError when it is 0 or below the float range."""
    if table.variance == 0:
        raise ZeroVarianceError(f"row {table.n} has zero variance")
    variance = float(table.variance)
    if variance == 0.0:
        raise ZeroVarianceError(
            f"row {table.n} has a variance below the float range: "
            "its standard deviation underflows to 0.0"
        )
    return variance


def normality(table: PMFTable, d: int) -> NormalityReport:
    """Compare an exact PMF to the normal law under both normalizations.

    Each distance is sup over lattice points k of |F(k) - Phi((k + shift -
    center)/scale)|, shift 0 (plain) or 1/2 (continuity), all four from one
    pass.  F(k) is an integer partial sum of the weights over their total;
    int / int rounds correctly, so it is the same float as float(Fraction).
    """
    if table.n < 2:
        raise ParameterError(f"n must be >= 2 (log {table.n} breaks the scaling)")
    sigma = math.sqrt(float_variance(table))
    if d < 1:
        raise ParameterError("limit normalization requires d >= 1")
    mu = float(table.mean)
    log_n = math.log(table.n)
    center = d * table.n / log_n
    scale = d * math.sqrt(table.n) / log_n
    weights, total = table.weights, table.total
    lo = next(k for k, a in enumerate(weights) if a)
    cumulative = 0
    plain = continuity = plain_limit = continuity_limit = 0.0
    for k in range(lo - 1, len(weights)):
        if k >= lo:
            cumulative += weights[k]
        f = cumulative / total
        plain = max(plain, abs(f - standard_normal_cdf((k - mu) / sigma)))
        continuity = max(continuity, abs(f - standard_normal_cdf((k + 0.5 - mu) / sigma)))
        plain_limit = max(plain_limit, abs(f - standard_normal_cdf((k - center) / scale)))
        continuity_limit = max(
            continuity_limit, abs(f - standard_normal_cdf((k + 0.5 - center) / scale))
        )
    return NormalityReport(
        n=table.n,
        ks_plain=plain,
        ks_continuity=continuity,
        standardized_third=table.skewness,
        standardized_fourth=table.excess_kurtosis + 3.0,
        center=center,
        scale=scale,
        ks_plain_limit=plain_limit,
        ks_continuity_limit=continuity_limit,
    )


def _row_pmfs(spec: RecurrenceSpec, ns: Sequence[int]) -> Iterator[tuple[TriangleRow, PMFTable]]:
    """Each distinct row of ns with its PMF, as (row, table) in ascending
    order from one row pass: the scan of pmf, moments, clt and asymptotics.

    A row below the start index has no mass: ZeroMassError, raised before
    any row is drawn.  Each table is built as its row is drawn, so a
    caller's own check on one row runs before the next row's PMF.
    """
    wanted, start = set(ns), spec.start_index
    if wanted and min(wanted) < start:
        raise ZeroMassError(f"row {min(wanted)} precedes the first row {start}")
    rows = recurrence.rows(spec, max(wanted)) if wanted else ()
    for row in rows:
        if row.n in wanted:
            yield row, pmf(row.poly, row.n)


def clt_scan(
    descriptor: FamilyDescriptor, ns: Sequence[int]
) -> list[NormalityReport]:
    """Normality reports for several row indices of one family."""
    d = descriptor.constants().d
    for n in ns:
        if n < 2:
            raise ParameterError(f"n must be >= 2, got {n}")
    return [normality(table, d) for _, table in _row_pmfs(descriptor.spec, ns)]


class MeanIdentityReport(Record):
    """Exact check of the ratio formula E X_n = T_{n+1}(1)/(m T_n(1)) - (1+c)/m;
    `first_mismatch` is (n, mean, formula) or None."""

    __slots__ = ()

    def __new__(cls, family, n_max, ok, first_mismatch=None):
        return tuple.__new__(cls, (family, n_max, ok, first_mismatch))

    def __str__(self) -> str:
        if self.ok:
            return f"{self.family}: mean identity holds exactly for n <= {self.n_max}"
        n, mean, formula = self.first_mismatch
        return f"{self.family}: mean identity fails at n={n}: pmf {mean}, formula {formula}"


def _ratio_shape(descriptor: FamilyDescriptor) -> Fraction:
    """Return c for a family of shape gamma = x + c, no lags, default start."""
    spec = descriptor.spec
    if (
        spec.lags
        or spec.start_index != 0
        or spec.start_poly != ONE
        or spec.gamma.degree != 1
        or spec.gamma.coefficient(1) != 1
    ):
        raise UnsupportedShapeError(
            "ratio identities require gamma = x + c with no lag terms"
        )
    return spec.gamma.coefficient(0)


def mean_identity_check(descriptor: FamilyDescriptor, n_max: int) -> MeanIdentityReport:
    """Verify the exact mean formula for a gamma = x + c family, n <= n_max."""
    c = _ratio_shape(descriptor)
    m = descriptor.spec.m
    label = descriptor.label
    for row, after in pairwise(recurrence.rows(descriptor.spec, n_max + 1)):
        mean = pmf(row.poly, row.n).mean
        formula = after.row_sum() / (m * row.row_sum()) - (1 + c) / m
        if mean != formula:
            return MeanIdentityReport(label, n_max, False, (row.n, mean, formula))
    return MeanIdentityReport(label, n_max, True)


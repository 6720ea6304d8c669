"""Saddle-point asymptotics for the EGF exponent f(z, x), from its factors.

The pipeline: solve z f_z(z, x) = n for the saddle radius rho, then read off

    predicted mean      f_x(rho, 1)
    predicted variance  f_x + rho' f_zx + f_xx      (all at (rho, 1))
    rho'                -rho f_zx / (f_z + rho f_zz)
    b                   rho f_z + rho^2 f_zz
    log [z^n] e^f       -n log rho + f(rho,1) - log(2 pi b)/2

with leading terms d n / log n for the mean and d^2 n / log^2 n for the
variance, where d and alpha_d are the degree and leading coefficient of Q2.
compare_scan sets exact rows beside them, each with its PMF from
distribution's one row scan, after refusing, in turn: no closed form,
n < start_index + 3, an overflow, a failed hypothesis.

Everything here is floating point, summed term by term over the exact
factors: each tail T_s is taken in the form that cancels at most about 4
digits, and in log scale where it is large, so probes far beyond the saddle
degrade into an explicit overflow error instead of silently producing inf.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .algebra import Record
from .distribution import PMFTable, _row_pmfs, float_variance
from .errors import (
    ParameterError,
    SaddleFailureError,
    SaddleOverflowError,
    UnitMassError,
)
from .families import FamilyDescriptor, SaddleFunction, theorem_constants

_LOG_SCALE_THRESHOLD = 300.0
_FLOAT_LOG_MAX = 709.0  # log of the largest finite double, minus headroom
# P <= 1e4 T for the partial sum P and T = e^w - P: at most about 4 digits cancel
_LOG_MOST_CANCELLED = math.log(1e4 / (1e4 + 1))


class Partials(Record):
    """f and its partial derivatives up to second order at one point."""

    __slots__ = ()

    def __new__(cls, f, f_z, f_zz, f_x, f_zx, f_xx):
        return tuple.__new__(cls, (f, f_z, f_zz, f_x, f_zx, f_xx))


def _exp(log_value: float, z: float, x: float) -> float:
    if log_value > _FLOAT_LOG_MAX:
        raise SaddleOverflowError(f"a term of f exceeds double range at z={z!r}, x={x!r}")
    return math.exp(log_value)


def f_partials(sf: SaddleFunction, z: float, x: float) -> Partials:
    """Evaluate f and its first and second partials at (z, x), x > 0.

    Term by term over the factors: k x^j of a depth-s factor adds k z^s/s!
    when j = 0, else c x^j T_s(w), with c = k/(j m)^s, w = j m z and
    T_s(w) = e^w - sum_{i<s} w^i/i!, whose z-derivatives are (j m) T_{s-1}
    and (j m)^2 T_{s-2} (T_r = e^w for r <= 0); x-derivatives take j/x.

    T_s is the direct difference while its partial sum is at most 1e4 T_s.
    Its e^w parts then add up as t = c u^j, u = x e^{m z}, in log scale once
    m z crosses 300: with A = sum j t and B = sum j (j - 1) t, f_z gains
    m A, f_zz m^2 (A + B), f_x A/x, f_zx m (A + B)/x and f_xx B/x^2.
    Otherwise T_s is the series (w^s/s!) sum_{i>=0} w^i s!/(s+i)!, in log
    scale.  A value past the double range raises SaddleOverflowError.
    """
    if x <= 0:
        raise ParameterError(f"x must be > 0, got {x!r}")
    m, terms = sf.floats
    log_u = m * z + math.log(x)
    scaled = m * z > _LOG_SCALE_THRESHOLD or log_u * max(sf.q2.degree, 1) > _FLOAT_LOG_MAX
    powers = [1.0, 0.0 if scaled else math.exp(log_u)]  # u^j, built by products
    f = f_z = f_zz = f_x = f_zx = f_xx = e = a = b = 0.0
    for s, j, c in terms:
        lo = mid = hi = 0.0
        t = 1.0
        if not j:
            # z^r/r! for r = s - 2, s - 1, s
            for i in range(1, s + 1):
                lo, mid, t = mid, t, t * z / i
            g, gz, gzz = c * t, c * mid, c * lo
        else:
            jm = j * m
            w = jm * z
            # the partial sums P_r(w) = sum_{i<r} w^i/i! for r = s - 2, s - 1, s
            for i in range(1, s + 1):
                lo, mid, hi = mid, hi, hi + t
                t = t * w / i
            if w <= 0 or math.log(hi) - w <= _LOG_MOST_CANCELLED:
                cx = c * (x**j if j * math.log(x) < _FLOAT_LOG_MAX else math.inf)
                g, gz, gzz = -cx * hi, -cx * jm * mid, -cx * jm * jm * lo
                if scaled:
                    t = math.copysign(_exp(math.log(abs(c)) + j * log_u, z, x), c)
                else:
                    while len(powers) <= j:
                        powers.append(powers[-1] * powers[1])
                    t = c * powers[j]
                e += t
                a += j * t
                b += j * (j - 1) * t
            else:
                # T_s = L_s S with L_r = w^r/r! and S = sum_{i>=0} w^i s!/(s+i)!;
                # then T_{s-1} = T_s + L_{s-1} and T_{s-2} = T_{s-1} + L_{s-2}
                series = t = 1.0
                i = s
                while t > 1e-17 * series:
                    i += 1
                    t *= w / i
                    series += t
                # c x^j L_r for r = s - 2, s - 1, s (0 for r < 0), by products
                # from one log-scaled L_r
                r, lo, mid = max(s - 2, 0), 0.0, 0.0
                log_r = math.log(abs(c)) + j * math.log(x) + r * math.log(w) - math.lgamma(r + 1)
                t = math.copysign(_exp(log_r, z, x), c)
                for i in range(r + 1, s + 1):
                    lo, mid, t = mid, t, t * w / i
                g = t * series
                gz = jm * (g + mid)
                gzz = jm * (gz + jm * lo)
        f += g
        f_z += gz
        f_zz += gzz
        f_x += j * g / x
        f_zx += j * gz / x
        f_xx += j * (j - 1) * g / x / x

    f += e
    f_z += m * a
    f_x += a / x
    f_zz += m * m * (a + b)
    f_zx += m * (a + b) / x
    f_xx += b / x / x
    partials = Partials(f=f, f_z=f_z, f_zz=f_zz, f_x=f_x, f_zx=f_zx, f_xx=f_xx)
    if not all(map(math.isfinite, partials)):
        raise SaddleOverflowError(f"f exceeds double range at z={z!r}, x={x!r}")
    return partials


def _saddle_residual(sf: SaddleFunction, z: float, x: float, n: int) -> float:
    """z f_z(z, x) - n, with overflow far above the root read as +inf."""
    try:
        return z * f_partials(sf, z, x).f_z - n
    except SaddleOverflowError:
        return math.inf


def solve_saddle(sf: SaddleFunction, n: int, x: float = 1.0) -> float:
    """Solve z f_z(z, x) = n for the saddle radius.

    Bracketed bisection (initial upper end 2 log n / (m d) + 4, doubled
    until the residual turns positive), run until the bracket is at float
    resolution or hits an exact root, refined by Newton steps.  The
    residual of the returned root satisfies |rho f_z - n| <= max(1e-9 n,
    1e-12), and b = rho f_z + rho^2 f_zz must come out positive; either
    failure raises SaddleFailureError.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if math.log(n) > _FLOAT_LOG_MAX:
        raise SaddleOverflowError("n is past the float range")
    if x <= 0:
        raise ParameterError(f"x must be > 0, got {x!r}")
    constants = theorem_constants(sf)
    if not constants.hypothesis_ok:
        raise SaddleFailureError(
            "saddle equation needs deg Q2 >= 1 with positive leading "
            f"coefficient and m > 0 (got d={constants.d}, "
            f"alpha_d={constants.alpha_d}, m={sf.m})"
        )
    m = sf.floats[0]
    d = constants.d

    lo = 0.0
    hi = 2.0 * math.log(max(n, 2)) / (m * d) + 4.0
    for _ in range(200):
        if _saddle_residual(sf, hi, x, n) > 0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise SaddleFailureError(f"could not bracket the saddle for n={n}")

    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval at float resolution
        s_mid = _saddle_residual(sf, mid, x, n)
        if s_mid == 0:
            lo = hi = mid
            break
        if s_mid < 0:
            lo = mid
        else:
            hi = mid

    rho = 0.5 * (lo + hi)
    for _ in range(6):
        p = f_partials(sf, rho, x)
        residual = rho * p.f_z - n
        slope = p.f_z + rho * p.f_zz
        if slope <= 0:
            break
        step = residual / slope
        if rho - step <= 0:
            break  # rho stays > 0: saddle_report takes its log
        rho -= step
        if abs(step) <= 1e-16 * max(rho, 1.0):
            break

    p = f_partials(sf, rho, x)
    residual = rho * p.f_z - n
    if abs(residual) > max(1e-9 * n, 1e-12):
        raise SaddleFailureError(
            f"saddle residual {residual!r} out of tolerance at n={n}"
        )
    if rho * p.f_z + rho * rho * p.f_zz <= 0:
        raise SaddleFailureError(
            f"b(rho, x) <= 0 at n={n}: input is not admissible"
        )
    return rho


class SaddleReport(Record):
    """Saddle-point predictions for one row index n (evaluated at x = 1)."""

    __slots__ = ()

    def __new__(cls, n, rho, rho_prime, predicted_mean, predicted_variance, b_value,
                coeff_estimate_log, leading_mean, leading_variance):
        return tuple.__new__(cls, (n, rho, rho_prime, predicted_mean, predicted_variance,
                                   b_value, coeff_estimate_log, leading_mean, leading_variance))


def saddle_report(sf: SaddleFunction, n: int) -> SaddleReport:
    """Full prediction set at x = 1: saddle radius, its x-derivative,
    predicted mean and variance, and the log of the coefficient estimate
    rho^{-n} e^{f(rho,1)} / sqrt(2 pi b).  A field past the float range
    raises SaddleOverflowError."""
    if n < 3:
        raise ParameterError(f"n must be >= 3, got {n}")
    rho = solve_saddle(sf, n, 1.0)
    p = f_partials(sf, rho, 1.0)
    b = rho * p.f_z + rho * rho * p.f_zz
    rho_prime = -rho * p.f_zx / (p.f_z + rho * p.f_zz)
    predicted_mean = p.f_x
    predicted_variance = p.f_x + rho_prime * p.f_zx + p.f_xx
    d = theorem_constants(sf).d
    log_n = math.log(n)
    try:
        report = SaddleReport(
            n=n,
            rho=rho,
            rho_prime=rho_prime,
            predicted_mean=predicted_mean,
            predicted_variance=predicted_variance,
            b_value=b,
            coeff_estimate_log=-n * math.log(rho) + p.f - 0.5 * math.log(2.0 * math.pi * b),
            leading_mean=d * n / log_n,
            leading_variance=d * d * n / (log_n * log_n),
        )
        finite = all(map(math.isfinite, report[1:]))
    except OverflowError:  # d n past the float range
        finite = False
    if not finite:
        raise SaddleOverflowError("a saddle-point prediction is past the float range")
    return report


def log_fraction(q: Fraction) -> float:
    """log of a positive rational whose parts may exceed double range;
    within 1/2 of 1, log1p of the exact excess, which no rounding loses."""
    if abs(q - 1) <= Fraction(1, 2):
        return math.log1p(float(q - 1))
    return math.log(q.numerator) - math.log(q.denominator)


class ComparisonRecord(Record):
    """Exact row statistics against the saddle-point predictions."""

    __slots__ = ()

    def __new__(cls, n, exact_mean, predicted_mean, mean_rel_err, exact_variance,
                predicted_variance, variance_rel_err, exact_log_total, estimate_log_total,
                log_total_rel_err, report):
        return tuple.__new__(cls, (n, exact_mean, predicted_mean, mean_rel_err, exact_variance,
                                   predicted_variance, variance_rel_err, exact_log_total,
                                   estimate_log_total, log_total_rel_err, report))


def compare_exact(descriptor: FamilyDescriptor, n: int) -> ComparisonRecord:
    """Compare row n's exact mean, variance, and log total mass with the
    saddle-point predictions: `compare_scan(descriptor, [n])[0]`.  Before the
    row is drawn it refuses, in order, a spec with no closed form
    (UnsupportedShapeError), n below start_index + 3 (ParameterError), an
    exponent term past the float range (SaddleOverflowError) and a failed
    theorem hypothesis (SaddleFailureError).  Row n is c x^r n'! [z^{n'}] e^f
    with n' = n - start_index and c x^r the start polynomial: x^r moves the
    mean up by r and leaves the variance alone, and log P_n(1) is matched as
    log c + log n'! + log [z^{n'}] e^{f(z,1)}.  A row whose variance is 0 or
    below the float range, or whose P_n(1) is exactly 1, has no relative error
    and raises ZeroVarianceError or UnitMassError; a row with no mass raises
    ZeroMassError before the saddle is solved.
    """
    return compare_scan(descriptor, [n])[0]


def compare_scan(descriptor: FamilyDescriptor, ns: Sequence[int]) -> list[ComparisonRecord]:
    """compare_exact of each distinct n in ns, ascending: its refusals, then one row pass."""
    sf, wanted, start = descriptor.saddle, set(ns), descriptor.spec.start_index
    if wanted and min(wanted) < start + 3:
        raise ParameterError(f"n must be >= {start + 3}, got {min(wanted)}")
    sf.floats  # raises past the float range
    if wanted and not theorem_constants(sf).hypothesis_ok:
        solve_saddle(sf, 3)  # raises the hypothesis' failure, whatever the n
    rows = _row_pmfs(descriptor.spec, wanted)
    return [_compare_row(descriptor, table, row.row_sum()) for row, table in rows]


def _compare_row(descriptor: FamilyDescriptor, table: PMFTable, mass: Fraction) -> ComparisonRecord:
    n, prefactor = table.n, descriptor.spec.start_poly
    report = saddle_report(descriptor.saddle, n - descriptor.spec.start_index)
    exact_mean = float(table.mean)
    exact_variance = float_variance(table)
    if mass == 1:
        raise UnitMassError(f"row {n} has total mass 1, so its log total is 0")
    exact_log_total = log_fraction(mass)
    estimate_log_total = (
        report.coeff_estimate_log
        + math.lgamma(report.n + 1)
        + log_fraction(abs(prefactor.leading_coefficient))
    )
    predicted_mean = report.predicted_mean + prefactor.degree
    return ComparisonRecord(
        n=n,
        exact_mean=exact_mean,
        predicted_mean=predicted_mean,
        mean_rel_err=abs(exact_mean - predicted_mean) / abs(exact_mean),
        exact_variance=exact_variance,
        predicted_variance=report.predicted_variance,
        variance_rel_err=abs(exact_variance - report.predicted_variance)
        / abs(exact_variance),
        exact_log_total=exact_log_total,
        estimate_log_total=estimate_log_total,
        log_total_rel_err=abs(estimate_log_total - exact_log_total)
        / abs(exact_log_total),
        report=report,
    )

"""Saddle-point solver and prediction pipeline, floats checked hard."""

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polyrec import asymptotics, recurrence
from polyrec.algebra import ExactPolynomial, X, monomial
from polyrec.asymptotics import (
    compare_exact,
    compare_scan,
    f_partials,
    log_fraction,
    saddle_report,
    solve_saddle,
)
from polyrec.errors import (
    ParameterError,
    PolyrecError,
    SaddleFailureError,
    SaddleOverflowError,
    ZeroVarianceError,
)
from polyrec.families import (
    FAMILIES,
    FamilyDescriptor,
    SaddleFunction,
    build_exponent,
    catalog,
    theorem_constants,
)
from polyrec.recurrence import LagTerm, RecurrenceSpec, TriangleRow


STIRLING = catalog("stirling2").saddle


def test_partials_worked_values():
    # f = x(e^z - 1): at (z=0, x=1) the value is 0, all first and second
    # z-derivatives of e^z are 1, mixed xz likewise
    p = f_partials(STIRLING, 0.0, 1.0)
    assert (p.f, p.f_z, p.f_zz, p.f_x, p.f_zx, p.f_xx) == (0, 1, 1, 0, 1, 0)

    p = f_partials(STIRLING, 1.0, 1.0)
    e = math.e
    assert math.isclose(p.f, e - 1, rel_tol=1e-15)
    assert math.isclose(p.f_z, e, rel_tol=1e-15)
    assert math.isclose(p.f_x, e - 1, rel_tol=1e-15)

    # f = x(e^z - 1 - z): first z-derivative vanishes at 0, second does not
    assoc = catalog("assoc_stirling", s=2).saddle
    p = f_partials(assoc, 0.0, 1.0)
    assert (p.f, p.f_z, p.f_x, p.f_zx, p.f_xx) == (0, 0, 0, 0, 0)
    assert p.f_zz == 1


@pytest.mark.parametrize(
    "name,params",
    [
        ("stirling2", {}),
        ("dowling", dict(m=2)),
        ("whitney", dict(m=3, c=2)),
        ("assoc_stirling", dict(s=3)),
        ("r_whitney_assoc", dict(m=2, r=1, s=2)),
        ("galton", dict(m=2, c=-1)),
    ],
)
def test_partials_match_finite_differences(name, params):
    sf = catalog(name, **params).saddle
    rng = random.Random(20240517)
    h = 1e-5
    for _ in range(6):
        z = rng.uniform(0.1, 5.0)
        x = rng.uniform(0.5, 2.0)
        p = f_partials(sf, z, x)

        def check(got, numeric):
            scale = max(abs(numeric), 1.0)
            assert abs(got - numeric) <= 1e-6 * scale, (name, z, x)

        check(p.f_z, (f_partials(sf, z + h, x).f - f_partials(sf, z - h, x).f) / (2 * h))
        check(p.f_x, (f_partials(sf, z, x + h).f - f_partials(sf, z, x - h).f) / (2 * h))
        check(
            p.f_zz,
            (f_partials(sf, z + h, x).f_z - f_partials(sf, z - h, x).f_z) / (2 * h),
        )
        check(
            p.f_zx,
            (f_partials(sf, z, x + h).f_z - f_partials(sf, z, x - h).f_z) / (2 * h),
        )
        check(
            p.f_xx,
            (f_partials(sf, z, x + h).f_x - f_partials(sf, z, x - h).f_x) / (2 * h),
        )


def test_saddle_is_lambert_w_for_stirling():
    # rho e^rho = n, so rho(1) is the omega constant
    assert abs(solve_saddle(STIRLING, 1) - 0.5671432904097838) <= 1e-12


def test_saddle_against_independent_bisection():
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if mid * math.exp(mid) < 100.0:
            lo = mid
        else:
            hi = mid
    assert abs(solve_saddle(STIRLING, 100) - (lo + hi) / 2) <= 1e-9


def test_saddle_residual_and_growth():
    for name, params in [
        ("stirling2", {}),
        ("dowling", dict(m=2)),
        ("assoc_stirling", dict(s=2)),
        ("type_b", dict(m=2, c=1)),
    ]:
        sf = catalog(name, **params).saddle
        for n in (10, 100, 1000, 10000):
            rho = solve_saddle(sf, n)
            p = f_partials(sf, rho, 1.0)
            assert abs(rho * p.f_z - n) <= max(1e-9 * n, 1e-12)
            assert rho * p.f_z + rho * rho * p.f_zz > 0


def test_saddle_bracket_reads_overflow_as_above_the_root(monkeypatch):
    # the first bracket end, 2 log n + 4 ~ 1385, is past the double range of
    # e^z: its residual reads as +inf and the bisection runs below it
    overflowed = []

    def watched(sf, z, x, f_partials=asymptotics.f_partials):
        try:
            return f_partials(sf, z, x)
        except SaddleOverflowError:
            overflowed.append(z)
            raise

    monkeypatch.setattr(asymptotics, "f_partials", watched)
    n = 10**300
    rho = solve_saddle(STIRLING, n)
    assert overflowed
    assert abs(rho * math.exp(rho) / n - 1) <= 1e-12


def test_saddle_tracks_log_n():
    # for the Stirling exponent rho = log n - log log n + o(1)
    for n in (100, 1000, 10000):
        rho = solve_saddle(STIRLING, n)
        assert abs(rho - math.log(n)) <= 2 * math.log(math.log(n)) + 3


def test_rho_prime_matches_numeric_derivative():
    h = 1e-4
    for descriptor in (catalog("stirling2"), catalog("dowling", m=2)):
        sf = descriptor.saddle
        for n in (50, 200):
            report = saddle_report(sf, n)
            numeric = (solve_saddle(sf, n, 1.0 + h) - solve_saddle(sf, n, 1.0 - h)) / (
                2 * h
            )
            assert abs(report.rho_prime - numeric) <= 1e-3 * max(abs(numeric), 1e-12)


def test_predictions_are_ordered():
    for n in (50, 100, 200, 500):
        report = saddle_report(STIRLING, n)
        assert 0 < report.predicted_variance < report.predicted_mean
        assert report.leading_mean == n / math.log(n)
        assert report.leading_variance == n / math.log(n) ** 2


def test_predictions_approach_leading_order():
    # the correction to dn/log n is O(log log n / log n), so convergence is
    # slow: check the ratio sits above 1, shrinks with n, and stays bounded
    small = saddle_report(STIRLING, 100)
    large = saddle_report(STIRLING, 10000)
    ratio_small = small.predicted_mean / small.leading_mean
    ratio_large = large.predicted_mean / large.leading_mean
    assert 1.0 < ratio_large < ratio_small < 1.6
    assert 1.0 < large.predicted_variance / large.leading_variance < 1.6


def test_saddle_rejects_flat_exponent():
    flat = build_exponent(RecurrenceSpec(gamma=ExactPolynomial([7]), m=1))
    with pytest.raises(SaddleFailureError):
        solve_saddle(flat, 10)
    with pytest.raises(ParameterError):
        saddle_report(STIRLING, 2)


def test_saddle_and_partials_reject_bad_arguments():
    with pytest.raises(ParameterError, match="x must be > 0"):
        f_partials(STIRLING, 1.0, 0.0)
    with pytest.raises(ParameterError, match="n must be >= 1"):
        solve_saddle(STIRLING, 0)
    with pytest.raises(ParameterError, match="x must be > 0"):
        solve_saddle(STIRLING, 5, -1.0)


def test_saddle_refuses_a_root_where_z_f_z_falls():
    # z f_z = 12z - 13/2 z^2 + z^3, plus 10^-300 z e^{mz}, too small to move
    # a float beside it, meets 5 rising at 2 - sqrt 2, falling at 5/2 and
    # rising at 2 + sqrt 2.  With m = 2 log 5 the first bracket end,
    # 2 log 5 / m + 4, is 5, so the first bisection midpoint is the falling
    # root, whose residual is exactly 0.  Newton stops on its slope
    # f_z + z f_zz = -7/4, and b = rho (f_z + rho f_zz) < 0 is refused
    sf = SaddleFunction(
        factors=(
            (1, ExactPolynomial([12, Fraction(1, 10**300)])),
            (2, ExactPolynomial([Fraction(-13, 2)])),
            (3, ExactPolynomial([2])),
        ),
        m=Fraction(2.0 * math.log(5)),
    )
    assert theorem_constants(sf).hypothesis_ok
    p = f_partials(sf, 2.5, 1.0)
    assert (2.5 * p.f_z - 5, p.f_z + 2.5 * p.f_zz) == (0.0, -1.75)
    with pytest.raises(SaddleFailureError, match=r"b\(rho, x\) <= 0 at n=5"):
        solve_saddle(sf, 5)


def test_saddle_refuses_a_residual_out_of_tolerance(monkeypatch):
    # a stand-in f_z whose z f_z jumps from n/2 to 3n/2 at z = 1: the
    # bisection closes on the jump, Newton steps down by z/3 from above it
    # and up by z from below it, and the last residual, -n/2, is refused
    n = 10

    def jumping(sf, z, x):
        f_z = (1.5 if z > 1 else 0.5) * n / z
        return asymptotics.Partials(f=0.0, f_z=f_z, f_zz=0.0, f_x=0.0, f_zx=0.0, f_xx=0.0)

    monkeypatch.setattr(asymptotics, "f_partials", jumping)
    with pytest.raises(SaddleFailureError, match="residual -5.0 out of tolerance at n=10"):
        solve_saddle(STIRLING, n)


def test_partials_refuse_a_second_derivative_past_the_double_range():
    # gamma = x at m = 10^200: near the saddle of n = 10, z ~ 4.6e-198, every
    # term of f is in range, but f_zz = m^2 (A + B) is not
    sf = build_exponent(RecurrenceSpec(gamma=X, m=10**200))
    with pytest.raises(SaddleOverflowError, match="^f exceeds double range at z=4.6e-198"):
        f_partials(sf, 4.6e-198, 1.0)


def test_overflow_paths():
    with pytest.raises(SaddleOverflowError):
        f_partials(STIRLING, 800.0, 1.0)
    # log-scaled evaluation agrees with direct evaluation where both run
    direct = f_partials(STIRLING, 200.0, 1.0)
    assert math.isclose(direct.f, math.exp(200.0) - 1, rel_tol=1e-12)
    scaled = f_partials(STIRLING, 400.0, 1.0)
    assert math.isclose(scaled.f, math.exp(400.0) - 1, rel_tol=1e-9)
    assert math.isclose(scaled.f_zz, math.exp(400.0), rel_tol=1e-9)
    # a deep lag is finite wherever its tail is: x T_300(z) is about e^z past
    # z = 300, and e^720 is past the double range
    deep = catalog("assoc_stirling", s=300).saddle
    for z in (7.0, 20.0, 300.0, 700.0):
        assert math.isfinite(f_partials(deep, z, 1.0).f_zz)
    with pytest.raises(SaddleOverflowError):
        f_partials(deep, 720.0, 1.0)
    # x T_3000(2800) is about 2800^3000/3000! = e^2787, whose partial sum is
    # past the double range too
    with pytest.raises(SaddleOverflowError):
        f_partials(catalog("assoc_stirling", s=3000).saddle, 2800.0, 1.0)


def test_log_fraction_handles_huge_rationals():
    q = Fraction(10**500 + 3, 7)
    assert math.isclose(log_fraction(q), 500 * math.log(10) - math.log(7), rel_tol=1e-12)
    assert log_fraction(Fraction(1)) == 0.0
    # near 1 the exact excess goes to log1p: no rounding to 1 first
    assert math.isclose(log_fraction(1 + Fraction(3, 10**100)), 3e-100, rel_tol=1e-12)
    assert math.isclose(log_fraction(1 - Fraction(1, 10**30)), -1e-30, rel_tol=1e-12)


def test_compare_exact_improves_with_n():
    near = compare_exact(catalog("stirling2"), 20)
    far = compare_exact(catalog("stirling2"), 100)
    assert far.mean_rel_err < near.mean_rel_err
    assert far.variance_rel_err < near.variance_rel_err
    assert far.log_total_rel_err < near.log_total_rel_err
    assert far.log_total_rel_err < 1e-3


def test_compare_exact_names_a_variance_below_the_float_range(monkeypatch):
    # a row source whose row 5 is 1 + 10^-400 x, of variance about 10^-400:
    # not zero, but no float
    row = TriangleRow(5, ExactPolynomial([1, Fraction(1, 10**400)]))
    monkeypatch.setattr(recurrence, "rows", lambda spec, upto: iter([row]))
    with pytest.raises(ZeroVarianceError, match="below the float range"):
        compare_exact(catalog("dowling", m=2), 5)


def test_compare_exact_refuses_the_float_range_before_drawing(monkeypatch):
    # the exponent's coefficient 10^2200 - 1 is past the float range at every
    # n: the spec alone refuses row 40, so no row or PMF is built for it
    def no_rows(spec, upto):
        raise AssertionError("a row was drawn")

    monkeypatch.setattr(recurrence, "rows", no_rows)
    spec = RecurrenceSpec(gamma=ExactPolynomial([10**2200 - 1, 1]), m=1)
    descriptor = FamilyDescriptor(name="custom", parameters={}, spec=spec)
    with pytest.raises(SaddleOverflowError, match="past the float range"):
        compare_exact(descriptor, 40)


def test_compare_exact_r_stirling_offset():
    # shifted triangle: the x^r prefactor adds r to the mean and nothing to
    # the variance; predictions must line up against the exact row
    record = compare_exact(catalog("r_stirling", r=2), 60)
    assert record.mean_rel_err < 0.2
    assert record.variance_rel_err < 0.2
    assert record.log_total_rel_err < 0.01


_NONNEGATIVE = st.fractions(min_value=0, max_value=3, max_denominator=4)


@st.composite
def _admissible(draw):
    """A spec the saddle route admits: binomially weighted lags, a monomial
    start c x^r with c > 0, nonnegative data, and deg Q2 >= 1 (so its
    leading coefficient alpha_d is positive)."""
    depths = draw(st.lists(st.integers(1, 4), max_size=3, unique=True))
    lags = tuple(
        LagTerm(s, ExactPolynomial(draw(st.lists(_NONNEGATIVE, max_size=3))), True)
        for s in depths
    )
    spec = RecurrenceSpec(
        gamma=ExactPolynomial(draw(st.lists(_NONNEGATIVE, max_size=3))),
        m=draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)),
        lags=lags,
        start_index=0 if lags else draw(st.integers(0, 3)),
        start_poly=monomial(
            draw(st.integers(0, 2)),
            draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)),
        ),
    )
    descriptor = FamilyDescriptor(name="custom", parameters={}, spec=spec)
    assume(theorem_constants(descriptor.saddle).hypothesis_ok)
    return descriptor


@settings(max_examples=100, deadline=None)
@given(_admissible())
def test_saddle_meets_its_tolerance_on_random_specs(descriptor):
    sf = descriptor.saddle
    for n in (10, 100, 1000, 10000):
        rho = solve_saddle(sf, n)
        p = f_partials(sf, rho, 1.0)
        assert abs(rho * p.f_z - n) <= max(1e-9 * n, 1e-12)
        assert rho * p.f_z + rho * rho * p.f_zz > 0


_CATALOG_SADDLES = [catalog(name, **family.listed).saddle for name, family in FAMILIES.items()]
# x log-uniform from the least subnormal to 1e300
_X = st.floats(math.log(5e-324), math.log(1e300)).map(lambda t: min(max(math.exp(t), 5e-324), 1e300))


@settings(max_examples=100, deadline=None)
@given(
    st.one_of(st.sampled_from(_CATALOG_SADDLES), _admissible().map(lambda d: d.saddle)),
    st.floats(0.0, 1000.0),
    _X,
    st.integers(1, 10**400),
)
# x * x is 0.0 below about 1e-162; n = 10^400 and (10^200)^2 have no float
@example(STIRLING, 1.0, 1e-170, 5)
@example(STIRLING, 1.0, 5e-324, 5)
@example(STIRLING, 1.0, 1.0, 10**400)
@example(SaddleFunction([(1, ExactPolynomial([0, 0, 1]))], 1), 0.0, 1e200, 5)
def test_saddle_raises_only_documented_errors(sf, z, x, n):
    # a value past the float range ends in SaddleOverflowError, not in
    # Python's ZeroDivisionError or OverflowError
    for call in (lambda: f_partials(sf, z, x), lambda: solve_saddle(sf, n, x)):
        try:
            call()
        except PolyrecError:
            pass


def test_saddle_refuses_an_n_past_the_float_range():
    with pytest.raises(SaddleOverflowError, match="^n is past the float range$"):
        solve_saddle(STIRLING, 10**400)
    with pytest.raises(SaddleOverflowError, match="^n is past the float range$"):
        saddle_report(STIRLING, 10**5000)  # more digits than int-to-str allows
    # 10^300 is inside it: z e^z = 10^300
    assert math.isclose(solve_saddle(STIRLING, 10**300), 684.2472086297608, rel_tol=1e-12)


@pytest.mark.parametrize("degree", [1, 3])
def test_saddle_report_refuses_a_prediction_past_the_float_range(degree):
    # gamma = x^d: every field is finite at 10^300; just inside solve_saddle's
    # guard b overflows at 10^307, and at 8 10^307 so does d n for d = 3
    sf = build_exponent(RecurrenceSpec(gamma=monomial(degree), m=1))
    report = saddle_report(sf, 10**300)
    assert all(map(math.isfinite, report[1:]))
    assert report.leading_mean == degree * 10**300 / math.log(10**300)
    for n in (10**307, 8 * 10**307):
        with pytest.raises(SaddleOverflowError, match="^a saddle-point prediction is past"):
            saddle_report(sf, n)


def test_partials_divide_by_a_tiny_x():
    # x * x is 0.0 below about x = 1e-162; dividing by x twice is not
    p = f_partials(STIRLING, 1.0, 1e-170)
    assert math.isclose(p.f_x, math.e - 1, rel_tol=1e-12) and p.f_xx == 0.0
    assert all(map(math.isfinite, f_partials(STIRLING, 1.0, 5e-324)))


@settings(max_examples=40, deadline=None)
@given(_admissible(), st.lists(st.integers(1, 30), max_size=4))
def test_compare_scan_matches_single_comparisons(descriptor, ns):
    # one row pass gives what a row source per n gives, in ascending order;
    # a failure is the first failure of those calls, message and all
    try:
        want = [compare_exact(descriptor, n) for n in sorted(set(ns))]
    except PolyrecError as err:
        with pytest.raises(type(err)) as caught:
            compare_scan(descriptor, ns)
        assert str(caught.value) == str(err)
    else:
        assert compare_scan(descriptor, ns) == want


@settings(max_examples=60, deadline=None)
@given(_admissible(), st.integers(1, 80))
def test_compare_exact_raises_only_documented_errors(descriptor, n):
    # no accuracy bound: only that a failure is one of the package's errors
    try:
        compare_exact(descriptor, n)
    except PolyrecError:
        pass


def _decimal_partials(sf, z, x):
    """The six partials of f at Decimals (z, x), z > 0, summed term by term
    from the tails R_r(z) = (j m)^{-r} T_r(j m z) = sum_{i >= r} (j m)^{i-r} z^i/i!
    (R_r = (j m)^{-r} e^{j m z} for r < 0), whose terms are all positive;
    z^r/r! (0 for r < 0) when j = 0.  Returns the partials and the sums of
    the magnitudes of their terms."""
    values, sizes = [Decimal(0)] * 6, [Decimal(0)] * 6
    for s, kappa in sf.factors:
        for j, k in enumerate(kappa.coeffs):
            jm = Decimal(j) * Decimal(sf.m.numerator) / Decimal(sf.m.denominator)
            tails = []
            for r in (s, s - 1, s - 2):
                if r < 0:
                    tails.append(jm ** -r * (jm * z).exp())
                    continue
                term = z**r / math.factorial(r)
                total, i = Decimal(0), r
                while j and (i <= jm * z or term > total * Decimal("1e-70")):
                    total += term
                    i += 1
                    term *= jm * z / i
                tails.append(total if j else term)
            g, gz, gzz = (Decimal(k.numerator) / k.denominator * x**j * t for t in tails)
            for p, term in enumerate((g, gz, gzz, j * g / x, j * gz / x, j * (j - 1) * g / x**2)):
                values[p] += term
                sizes[p] += abs(term)
    return values, sizes


def _decimal_report(sf, n, rho):
    """(rho, predicted mean, predicted variance) at x = 1 in Decimals, by
    Newton steps on z f_z = n from the float root."""
    z, one = Decimal(rho), Decimal(1)
    for _ in range(5):
        _, f_z, f_zz, _, _, _ = _decimal_partials(sf, z, one)[0]
        z -= (z * f_z - n) / (f_z + z * f_zz)
    _, f_z, f_zz, f_x, f_zx, f_xx = _decimal_partials(sf, z, one)[0]
    rho_prime = -z * f_zx / (f_z + z * f_zz)
    return z, f_x, f_x + rho_prime * f_zx + f_xx


@pytest.mark.parametrize(
    "s,n,root", [(60, 200, 23.4695988565), (100, 300, 38.2291840016), (300, 600, 111.844794219)]
)
def test_deep_lag_saddles_match_a_decimal_evaluation(s, n, root):
    # the partial sum of x T_s(z) is past T_s by far more than 4 digits at
    # these roots, so the series form carries the solve
    sf = catalog("assoc_stirling", s=s).saddle
    report = saddle_report(sf, n)
    assert math.isclose(report.rho, root, rel_tol=1e-11)
    with localcontext() as ctx:
        ctx.prec = 60
        want = _decimal_report(sf, n, report.rho)
    got = (report.rho, report.predicted_mean, report.predicted_variance)
    for g, w in zip(got, want):
        assert abs(Decimal(g) - w) <= Decimal("1e-9") * abs(w), (g, w)


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _factor_sets(draw):
    """Factors at depths 1 to 120 with cubic kappa.  Every draw holds a
    depth-1 term x, in the direct form for every z >= 0.01, and a term x at
    depth 100-120, in the series form for every z <= 20; the depths between
    hold up to three more factors."""
    cubic = st.lists(_SMALL, min_size=4, max_size=4)
    factors = [(1, ExactPolynomial([draw(_SMALL), 1, *draw(cubic)[2:]]))]
    for s in draw(st.lists(st.integers(2, 99), max_size=3)):
        factors.append((s, ExactPolynomial(draw(cubic))))
    factors.append((draw(st.integers(100, 120)), ExactPolynomial([0, 1, *draw(cubic)[2:]])))
    return SaddleFunction(factors, draw(st.sampled_from([Fraction(1, 2), 1, 2, 3])))


@settings(max_examples=60, deadline=None)
@given(
    _factor_sets(),
    st.floats(min_value=0.01, max_value=20.0),
    st.floats(min_value=0.5, max_value=2.0),
)
# x^3 in the direct form, whose u^3 is built by products
@example(
    SaddleFunction([(1, ExactPolynomial([0, 1, 0, 1])), (100, ExactPolynomial([0, 1]))], 1), 1.0, 1.0
)
def test_partials_match_a_decimal_evaluation_on_random_factors(sf, z, x):
    # each term on its own, so that no form hides behind a larger term, and
    # then their sum: each partial to 1e-9 of the sum of its terms'
    # magnitudes, which is the relative error wherever the terms do not
    # cancel, or to 1e-300, where the double range ends
    terms = [
        SaddleFunction([(s, monomial(j, k))], sf.m)
        for s, kappa in sf.factors
        for j, k in enumerate(kappa.coeffs)
        if k
    ]
    with localcontext() as ctx:
        ctx.prec = 60
        for one in [*terms, sf]:
            want, sizes = _decimal_partials(one, Decimal(z), Decimal(x))
            got = f_partials(one, z, x)
            for name, g, w, size in zip(got._fields, got, want, sizes):
                bound = Decimal("1e-9") * size + Decimal("1e-300")
                assert abs(Decimal(g) - w) <= bound, (name, one.factors)

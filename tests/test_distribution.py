"""Exact PMFs, moment identities, and normal-law diagnostics."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from polyrec import distribution
from polyrec.algebra import ExactPolynomial, ONE
from polyrec.distribution import (
    _row_pmfs,
    clt_scan,
    mean_identity_check,
    normality,
    pmf,
    standard_normal_cdf,
)
from polyrec.errors import (
    InvalidDistributionError,
    ParameterError,
    UnsupportedShapeError,
    ZeroMassError,
    ZeroVarianceError,
)
from polyrec.families import catalog
from polyrec.recurrence import generate


def test_pmf_stirling_row_three():
    table = pmf(ExactPolynomial([0, 1, 3, 1]), 3)
    assert table.probs == {
        1: Fraction(1, 5),
        2: Fraction(3, 5),
        3: Fraction(1, 5),
    }
    assert table.mean == 2
    assert table.variance == Fraction(2, 5)
    assert table.weights == (0, 1, 3, 1) and table.total == 5
    # a rescaled row, over any common denominator, is the same distribution
    rescaled = ExactPolynomial.from_scaled([0, 2, 6, 2], 7)
    assert pmf(3 * rescaled, 3) == pmf(rescaled, 3) == table


def test_pmf_point_mass():
    table = pmf(ONE, 0)
    assert table.probs == {0: Fraction(1)}
    assert table.mean == 0 and table.variance == 0
    assert table.skewness == 0.0 and table.excess_kurtosis == 0.0


def test_pmf_errors():
    with pytest.raises(InvalidDistributionError):
        pmf(ExactPolynomial([1, -1]), 1)
    with pytest.raises(ZeroMassError):
        pmf(generate(catalog("assoc_stirling", s=2).spec, 1)[1], 1)


def test_moments_of_a_variance_below_the_float_range():
    # variance about 1e-400: sigma**4 underflows, so the shape moments come
    # from the exact central moments; skewness is about -1e200, the excess
    # kurtosis about 1e400
    table = pmf(ExactPolynomial([1, 10**400]), 1)
    assert math.isclose(table.skewness, -1e200, rel_tol=1e-12)
    assert table.excess_kurtosis == math.inf
    assert pmf(ExactPolynomial([1, 10**2200]), 1).skewness == -math.inf


def test_probabilities_sum_to_one_exactly():
    for name, params in [
        ("stirling2", {}),
        ("dowling", dict(m=3)),
        ("r_stirling", dict(r=2)),
        ("assoc_stirling", dict(s=2)),
    ]:
        spec = catalog(name, **params).spec
        for n, poly in enumerate(generate(spec, 12)):
            if poly(Fraction(1)) == 0:
                continue
            table = pmf(poly, n)
            assert sum(table.probs.values()) == 1


def test_mean_is_log_derivative_at_one():
    for name, params in [("stirling2", {}), ("whitney", dict(m=2, c=1))]:
        spec = catalog(name, **params).spec
        for n, poly in enumerate(generate(spec, 30)):
            table = pmf(poly, n)
            assert table.mean == poly.derivative()(Fraction(1)) / poly(Fraction(1))


def test_mean_identity_stirling_row_three():
    report = mean_identity_check(catalog("stirling2"), 3)
    assert report.ok and report.first_mismatch is None
    assert str(report) == "stirling2: mean identity holds exactly for n <= 3"
    # B_4 / B_3 - 1 = 15/5 - 1 = 2, the pmf mean of row 3
    assert pmf(generate(catalog("stirling2").spec, 3)[3], 3).mean == 2


def test_mean_identity_reports_mismatch(monkeypatch):
    # squaring each row before its pmf doubles the mean: row 1 is x, so the
    # pmf mean of x^2 is 2 where the formula gives 1
    monkeypatch.setattr(distribution, "pmf", lambda poly, n: pmf(poly * poly, n))
    report = mean_identity_check(catalog("stirling2"), 3)
    assert not report.ok
    assert report.first_mismatch == (1, 2, 1)
    assert str(report) == "stirling2: mean identity fails at n=1: pmf 2, formula 1"


def test_mean_identity_families():
    for name, params in [
        ("dowling", dict(m=2)),
        ("whitney", dict(m=3, c=2)),
        ("type_b", dict(m=2, c=1)),
    ]:
        assert mean_identity_check(catalog(name, **params), 10).ok


def test_mean_identity_shape_guard():
    with pytest.raises(UnsupportedShapeError):
        mean_identity_check(catalog("sheffer", d=2, a=1), 5)
    with pytest.raises(UnsupportedShapeError):
        mean_identity_check(catalog("assoc_stirling", s=2), 5)


def test_standard_normal_cdf():
    assert abs(standard_normal_cdf(0.0) - 0.5) <= 1e-12
    for t in (0.1, 0.5, 1.0, 2.5, 6.0):
        assert abs(standard_normal_cdf(-t) - (1 - standard_normal_cdf(t))) <= 1e-12
    # classic table value at t=1.96
    assert abs(standard_normal_cdf(1.96) - 0.9750021048517795) <= 1e-12
    assert standard_normal_cdf(40.0) == 1.0
    assert standard_normal_cdf(-40.0) == 0.0


def test_normality_requires_spread():
    with pytest.raises(ParameterError):
        normality(pmf(ExactPolynomial([0, 1]), 1), 1)
    with pytest.raises(ZeroVarianceError):
        normality(pmf(ExactPolynomial([0, 0, 1]), 2), 1)
    with pytest.raises(ZeroVarianceError, match="underflows"):
        normality(pmf(ExactPolynomial([1, 10**700]), 2), 1)
    with pytest.raises(ParameterError):
        normality(pmf(generate(catalog("stirling2").spec, 5)[5], 5), 0)


def _sup_gap(table, center, scale, shift):
    """One distance of the normality report, written out on its own."""
    lo = min(k for k, a in enumerate(table.weights) if a)
    sup = 0.0
    for k in range(lo - 1, len(table.weights)):
        cdf = sum(table.weights[: k + 1]) / table.total
        sup = max(sup, abs(cdf - standard_normal_cdf((k + shift - center) / scale)))
    return sup


@pytest.mark.parametrize(
    "poly,n",
    [
        (generate(catalog("stirling2").spec, 30)[30], 30),
        (generate(catalog("dowling", m=2).spec, 25)[25], 25),
        (ExactPolynomial([0, 0, 0, 2, 5, 1]), 5),
    ],
)
def test_normality_distances_match_one_pass_each(poly, n):
    table = pmf(poly, n)
    report = normality(table, 2)
    mu, sigma = float(table.mean), math.sqrt(float(table.variance))
    assert report.ks_plain == _sup_gap(table, mu, sigma, 0.0)
    assert report.ks_continuity == _sup_gap(table, mu, sigma, 0.5)
    assert report.ks_plain_limit == _sup_gap(table, report.center, report.scale, 0.0)
    assert report.ks_continuity_limit == _sup_gap(table, report.center, report.scale, 0.5)


def test_normality_report_bounds():
    poly = generate(catalog("stirling2").spec, 60)[60]
    report = normality(pmf(poly, 60), 1)
    for value in (
        report.ks_plain,
        report.ks_continuity,
        report.ks_plain_limit,
        report.ks_continuity_limit,
    ):
        assert 0.0 <= value <= 1.0
    assert report.center == 60 / math.log(60)
    assert report.scale == math.sqrt(60) / math.log(60)


def test_lattice_jump_bound():
    for n in (20, 60, 120):
        poly = generate(catalog("dowling", m=2).spec, n)[n]
        table = pmf(poly, n)
        report = normality(table, 1)
        biggest = max(float(p) for p in table.probs.values())
        assert report.ks_continuity <= report.ks_plain + biggest + 1e-15


def test_clt_scan_converges():
    first, second = clt_scan(catalog("stirling2"), [50, 200])
    assert second.ks_continuity < first.ks_continuity
    assert abs(second.standardized_third) < abs(first.standardized_third)


def test_clt_scan_rejects_n_one():
    with pytest.raises(ParameterError):
        clt_scan(catalog("stirling2"), [1])


def test_clt_scan_rejects_rows_below_the_start():
    with pytest.raises(ZeroMassError, match="row 2 precedes the first row 3"):
        clt_scan(catalog("r_stirling", r=3), [2])


def test_one_row_holds_a_window_not_the_triangle():
    # drawing row 400 keeps the last rows the recurrence reads, so its
    # peak stays far below what the whole triangle through 400 retains
    spec = catalog("stirling2").spec
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        polys = generate(spec, 400)
        retained = tracemalloc.get_traced_memory()[0] - base
        del polys
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        ((row, table),) = _row_pmfs(spec, [400])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert row.n == table.n == 400 and table.total == generate(spec, 400)[400](1)
    assert peak < retained / 4, (peak, retained)

"""Recurrence engine: row generation, triangles, and the entrywise form."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import algebra, recurrence
from polyrec.algebra import ONE, X, ZERO, ExactPolynomial, monomial
from polyrec.errors import InvalidIndexError
from polyrec.families import catalog
from polyrec.recurrence import (
    LagTerm,
    RecurrenceSpec,
    advance,
    generate,
    triangle,
    triangle_linear,
)

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975]


def test_stirling_rows():
    rows = triangle(catalog("stirling2").spec, 5)
    assert [r.coeffs for r in rows] == [
        (Fraction(1),),
        (Fraction(0), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(3), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(7), Fraction(6), Fraction(1)),
        (Fraction(0), Fraction(1), Fraction(15), Fraction(25), Fraction(10), Fraction(1)),
    ]


def test_stirling_row_sums_are_bell_numbers():
    rows = triangle(catalog("stirling2").spec, 10)
    assert [row.row_sum() for row in rows] == BELL


def test_whitney_2_1_rows():
    # A039755 rows
    rows = triangle(catalog("whitney", m=2, c=1).spec, 3)
    assert rows[2].coeffs == (Fraction(1), Fraction(4), Fraction(1))
    assert rows[3].coeffs == (Fraction(1), Fraction(13), Fraction(9), Fraction(1))


def test_assoc_stirling_rows():
    # A008299 rows: blocks of size >= 2
    rows = triangle(catalog("assoc_stirling", s=2).spec, 6)
    assert rows[1].coeffs == ()  # zero row
    assert rows[4].coeffs == (Fraction(0), Fraction(1), Fraction(3))
    assert rows[6].coeffs == (Fraction(0), Fraction(1), Fraction(25), Fraction(15))


def test_r_stirling_rows():
    # A143494: 2-restricted Stirling, rows start at n=2 with x^2
    rows = triangle(catalog("r_stirling", r=2).spec, 6)
    assert rows[0].n == 2 and rows[0].coeffs == (0, 0, 1)
    assert rows[1].coeffs == (0, 0, 2, 1)
    assert rows[2].coeffs == (0, 0, 4, 5, 1)
    assert rows[3].coeffs == (0, 0, 8, 19, 9, 1)
    assert rows[4].coeffs == (0, 0, 16, 65, 55, 14, 1)


def test_r_stirling_counts_restricted_partitions():
    # {n, k}_r: partitions of [n] with 1..r in distinct blocks.  Strip the
    # r forced blocks and the remaining structure is counted by the plain
    # Stirling triangle over subsets that join the distinguished blocks:
    # {n+1, k+1}_1 = S(n+1, k+1) for r=1 (every partition separates one
    # element trivially).
    plain = generate(catalog("stirling2").spec, 12)
    one_restricted = generate(catalog("r_stirling", r=1).spec, 12)
    for n in range(1, 12):
        assert one_restricted[n - 1] == plain[n]


def test_dowling_rows_match_whitney():
    assert triangle(catalog("dowling", m=2).spec, 8) == triangle(
        catalog("whitney", m=2, c=1).spec, 8
    )


def test_degree_bound():
    for name, params in [
        ("stirling2", {}),
        ("sheffer", dict(d=3, a=1)),
        ("assoc_stirling", dict(s=3)),
        ("galton", dict(m=2, c=-1)),
    ]:
        spec = catalog(name, **params).spec
        bound = max(
            [spec.gamma.degree] + [lag.kappa.degree for lag in spec.lags] + [1]
        )
        for i, p in enumerate(generate(spec, 15)):
            n = spec.start_index + i
            if not p.is_zero:
                assert p.degree <= n * bound + spec.start_poly.degree


def scaled_rows(spec, polys):
    """The rows advance works on: Q_k = d0 D^k P_k as int lists."""
    d, d0 = spec.scaled.denominator, spec.start_poly.denominator
    out = []
    for k, p in enumerate(polys):
        row = [c * d0 * d**k for c in p.coeffs]
        assert all(c.denominator == 1 for c in row)
        out.append([int(c) for c in row])
    return out


def test_triangle_linear_rejects_a_negative_upto():
    with pytest.raises(InvalidIndexError, match="upto >= 0"):
        triangle_linear(1, 0, 1, -1)


def test_advance_needs_enough_history():
    spec = catalog("assoc_stirling", s=3).spec
    history = [[]]  # Q_4 needs Q_1 via the depth-3 lag
    with pytest.raises(InvalidIndexError):
        advance(spec, history, 4)
    with pytest.raises(InvalidIndexError):
        advance(spec, [[1]], 0)


RATIONAL_SPEC = RecurrenceSpec(
    gamma=ExactPolynomial([Fraction(1, 3), Fraction(1, 2)]),
    m=Fraction(3, 2),
    lags=(LagTerm(2, ExactPolynomial([0, Fraction(1, 5)]), True),),
    start_index=1,
    start_poly=monomial(1, Fraction(2, 7)),
)


def test_advance_matches_generate():
    for spec in (
        catalog("dowling", m=3).spec,
        RATIONAL_SPEC,
        catalog("r_whitney_assoc", m=2, r=1, s=2).spec,  # a depth-2 lag
        catalog("r_stirling", r=2).spec,  # rows start at n = 2
    ):
        start = spec.start_index
        polys = generate(spec, start + 8)
        # the row source keeps a window of max_lag rows; the triangle and
        # generate are lists over it, and match the reference recurrence
        drawn = list(recurrence.rows(spec, start + 8))
        assert drawn == triangle(spec, start + 8)
        assert [row.n for row in drawn] == list(range(start, start + 9))
        assert [row.poly for row in drawn] == polys
        assert polys == reference_generate(spec, start + 8)
        rows = scaled_rows(spec, polys)
        for i in range(1, len(rows)):
            assert advance(spec, rows[i - 1 :: -1], start + i) == rows[i]


def test_advance_runs_on_the_shared_kernel(monkeypatch):
    # advance's convolutions run through algebra.add_products, the kernel
    # series_exp uses too; recording its calls leaves the rows unchanged
    assert recurrence.add_products is algebra.add_products
    calls = []

    def recording(terms, out=None):
        terms = list(terms)
        calls.append([scale for _, _, scale in terms])
        return algebra.add_products(terms, out)

    spec = catalog("dowling", m=3).spec
    rows = scaled_rows(spec, generate(spec, 8))
    monkeypatch.setattr(recurrence, "add_products", recording)
    for i in range(1, len(rows)):
        assert advance(spec, rows[i - 1 :: -1], i) == rows[i]
    # one call per row, with gamma's unit-scale term (dowling has no lags)
    assert calls == [[1]] * (len(rows) - 1)


def test_scaled_data():
    scaled = RATIONAL_SPEC.scaled
    assert scaled.denominator == 30
    assert scaled.gamma == (10, 15) and scaled.m == 45
    assert scaled.lags == ((RATIONAL_SPEC.lags[0], (0, 180)),)
    start = RATIONAL_SPEC.start_poly
    assert (start.numerators, start.denominator) == ((0, 2), 7)
    assert catalog("dowling", m=3).spec.scaled.denominator == 1


def reference_generate(spec, upto):
    """The recurrence on ExactPolynomial arithmetic, straight from its
    definition: rows below the start index are zero."""
    polys = {spec.start_index: spec.start_poly}
    for n in range(spec.start_index + 1, upto + 1):
        prev = polys[n - 1]
        row = spec.gamma * prev + spec.m * (X * prev.derivative())
        for lag in spec.lags:
            row = row + lag.weight(n) * (lag.kappa * polys.get(n - lag.s, ZERO))
        polys[n] = row
    return [polys[n] for n in range(spec.start_index, upto + 1)]


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=6)
_POLYS = st.lists(_RATIONALS, max_size=3).map(ExactPolynomial)
_NONZERO = _RATIONALS.filter(bool)


@st.composite
def _random_specs(draw):
    depths = draw(st.lists(st.integers(1, 4), max_size=3, unique=True))
    if draw(st.booleans()):
        start_poly = monomial(draw(st.integers(0, 3)), draw(_NONZERO))
    else:
        start_poly = draw(_POLYS.filter(lambda p: not p.is_zero))
    spec = RecurrenceSpec(
        gamma=draw(_POLYS),
        m=draw(st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6)),
        lags=tuple(LagTerm(s, draw(_POLYS), draw(st.booleans())) for s in depths),
        start_index=draw(st.integers(0, 2)),
        start_poly=start_poly,
    )
    return spec, spec.start_index + draw(st.integers(0, 10))


@settings(max_examples=80, deadline=None)
@given(_random_specs())
def test_generate_matches_reference_recurrence(case):
    spec, upto = case
    assert generate(spec, upto) == reference_generate(spec, upto)


@st.composite
def _majorant_specs(draw, coeffs, rates):
    """A spec with data drawn from `coeffs`, lags up to depth 4 and a start
    offset, and the last row to bound."""
    poly = st.lists(coeffs, max_size=3).map(ExactPolynomial)
    depths = draw(st.lists(st.integers(1, 4), max_size=3, unique=True))
    spec = RecurrenceSpec(
        gamma=draw(poly),
        m=draw(rates),
        lags=tuple(LagTerm(s, draw(poly), draw(st.booleans())) for s in depths),
        start_index=draw(st.integers(0, 3)),
        start_poly=ExactPolynomial(draw(st.lists(coeffs, max_size=4).filter(any))),
    )
    return spec, spec.start_index + draw(st.integers(0, 14))


_RATES = st.fractions(Fraction(1, 4), 3, max_denominator=4)
_MAJORANT_DATA = {
    "signed": (st.integers(-3, 3), st.integers(1, 3)),
    "nonnegative": (st.integers(0, 3), st.integers(1, 3)),
    "signed-rational": (st.fractions(-3, 3, max_denominator=4), _RATES),
    "nonnegative-rational": (st.fractions(0, 3, max_denominator=4), _RATES),
}


# rows 2^n x, but gamma x + 1 and the lag -x cancel at every bound degree
# past the start: L_n = 0 for n >= 1
TOP_BAND_CANCELS = RecurrenceSpec(
    gamma=X + ONE, m=1, lags=(LagTerm(1, monomial(1, -1)),), start_poly=X
)


def _nonnegative(spec):
    """Whether gamma, every kappa and the start have no negative coefficient
    (m is always positive), so that no term of any row cancels."""
    polys = (spec.gamma, spec.start_poly, *(lag.kappa for lag in spec.lags))
    return all(q >= 0 for poly in polys for q in poly.numerators)


def check_majorant(spec, upto):
    """Every scaled row's sum of |q| is at most M_n, its degree at most e_n,
    and its coefficient at e_n is L_n; when a row at the largest e_n has
    L_n != 0, the largest e_n + 1 is the longest row's length.  For
    nonnegative data e_n is the degree and M_n = 0 marks exactly the zero
    rows."""
    bounds = list(recurrence.majorant(spec, upto))
    drawn = list(recurrence.scaled_rows(spec, upto, spec.start_poly.numerators))
    assert [n for n, *_ in bounds] == [n for n, _ in drawn]
    for (_, q), (_, mass, degree, top) in zip(drawn, bounds):
        assert sum(map(abs, q)) <= mass
        assert len(q) - 1 <= degree
        assert top == (q[degree] if 0 <= degree < len(q) else 0)
        if _nonnegative(spec):
            assert len(q) - 1 == degree
            assert (mass == 0) == (not q)
    widest = max(degree for _, _, degree, _ in bounds)
    if any(top for _, _, degree, top in bounds if degree == widest):
        assert widest + 1 == max(len(q) for _, q in drawn)


@pytest.mark.parametrize("kind", list(_MAJORANT_DATA))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_majorant_bounds_every_scaled_row(kind, data):
    spec, upto = data.draw(_majorant_specs(*_MAJORANT_DATA[kind]))
    if kind.startswith("nonnegative"):
        assert _nonnegative(spec)
    check_majorant(spec, upto)


@pytest.mark.parametrize(
    "spec,nonnegative",
    [
        # row 1 is x Q' of the constant row 0, with gamma = 0: a zero row
        (catalog("assoc_stirling", s=2).spec, True),
        # the depth-2 lag reaches below the start at row 3
        (RecurrenceSpec(gamma=X, m=1, lags=(LagTerm(2, X, True),), start_index=2), True),
        (catalog("r_whitney_assoc", m=2, r=1, s=3).spec, True),
        (RATIONAL_SPEC, True),
        (catalog("galton", m=1, c=-1).spec, False),
        # gamma x and the depth-1 lag -x cancel: row 1 is zero, M_1 = 2
        (RecurrenceSpec(gamma=X, m=1, lags=(LagTerm(1, monomial(1, -1)),)), False),
        (RecurrenceSpec(gamma=X, m=1, start_poly=ExactPolynomial([1, -1])), False),
        (TOP_BAND_CANCELS, False),
    ],
    ids=[
        "zero-row", "lag-below-start", "r_whitney_assoc", "rational",
        "galton", "signed-lag", "signed-start", "top-band-cancels",
    ],
)
def test_majorant_edge_cases(spec, nonnegative):
    assert _nonnegative(spec) == nonnegative
    check_majorant(spec, spec.start_index + 30)


def test_majorant_of_the_first_rows():
    # stirling2: g = D m = 1 and e_n = n, so M_n = n M_{n-1} = n!; the top
    # coefficient S(n, n) is 1
    bounds = list(recurrence.majorant(catalog("stirling2").spec, 5))
    assert bounds == [
        (0, 1, 0, 1), (1, 1, 1, 1), (2, 2, 2, 1), (3, 6, 3, 1), (4, 24, 4, 1), (5, 120, 5, 1)
    ]
    # assoc_stirling(s=2): row 1 is zero, row 2 is x (w = C(1, 1) = 1)
    bounds = list(recurrence.majorant(catalog("assoc_stirling", s=2).spec, 2))
    assert bounds == [(0, 1, 0, 1), (1, 0, -1, 0), (2, 1, 1, 1)]
    # e_n = n + 1 bounds rows 2^n x, and L_n = 0 past the start shows it is
    # not their degree
    assert list(recurrence.majorant(TOP_BAND_CANCELS, 3)) == [
        (0, 1, 1, 1), (1, 4, 2, 0), (2, 20, 3, 0), (3, 120, 4, 0)
    ]
    with pytest.raises(InvalidIndexError, match="upper index 2 is below start index 3"):
        next(recurrence.majorant(catalog("r_stirling", r=3).spec, 2))


def test_spec_validation():
    with pytest.raises(ValueError):
        RecurrenceSpec(gamma=X, m=Fraction(0))
    with pytest.raises(ValueError):
        RecurrenceSpec(gamma=X, m=Fraction(-1))
    with pytest.raises(ValueError):
        RecurrenceSpec(gamma=X, m=1, start_poly=ZERO)
    with pytest.raises(ValueError):
        RecurrenceSpec(gamma=X, m=1, start_index=-1)
    with pytest.raises(ValueError):
        RecurrenceSpec(
            gamma=X,
            m=1,
            lags=(LagTerm(2, X, True), LagTerm(2, ONE, False)),
        )
    with pytest.raises(ValueError):
        LagTerm(0, X, True)


def test_replace_checks_and_normalises():
    # `_replace` goes through the constructor: the same checks and the same
    # canonical form as a spec built directly
    a, b = LagTerm(1, X), LagTerm(2, ONE, True)
    spec = RecurrenceSpec(gamma=X, m=1, lags=(a, b))
    with pytest.raises(ValueError, match="m must be > 0"):
        spec._replace(m=Fraction(0))
    swapped = spec._replace(lags=(b, a))
    assert swapped == spec and swapped.lags == (a, b)
    assert type(swapped) is RecurrenceSpec
    assert isinstance(spec._replace(m=2).m, Fraction)
    with pytest.raises(ValueError, match="lag depth s must be >= 1"):
        LagTerm(2, X)._replace(s=0)
    with pytest.raises(ValueError, match="lag depth s must be >= 1"):
        LagTerm._make((0, X, False))
    gamma, m, lags, start_index, start_poly = spec
    assert (gamma, m, lags, start_index, start_poly) == (X, 1, (a, b), 0, ONE)


def test_lag_weight():
    binom = LagTerm(3, X, binom_weight=True)
    plain = LagTerm(3, X, binom_weight=False)
    assert binom.weight(7) == 15  # C(6, 2)
    assert plain.weight(7) == 1


def test_triangle_linear_matches_sheffer():
    # entrywise T(n,k) = d T(n-1,k-1) + (a + d k) T(n-1,k) against the
    # polynomial route, a couple of (d, a) pairs at unit-test scale
    for d, a in [(1, 0), (2, 1), (3, 0)]:
        poly_rows = triangle(catalog("sheffer", d=d, a=a).spec, 12)
        linear_rows = triangle_linear(u=d, a=a, b=d, upto=12)
        assert poly_rows == linear_rows


_SMALL_FRACTIONS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(
    u=_SMALL_FRACTIONS,
    a=_SMALL_FRACTIONS,
    b=st.fractions(min_value=Fraction(1, 6), max_value=5, max_denominator=6),
    upto=st.integers(0, 12),
)
# a constant gamma, signed: its whole pass is folded into the derivative's rate
@example(u=Fraction(0), a=Fraction(-3), b=Fraction(2), upto=8)
# gamma_0 = 0: the rate is D m j alone
@example(u=Fraction(3, 2), a=Fraction(0), b=Fraction(1, 2), upto=8)
def test_triangle_linear_is_the_spec_gamma_a_plus_u_x(u, a, b, upto):
    # T(n,k) = u T(n-1,k-1) + (a + b k) T(n-1,k) is the recurrence with
    # gamma = a + u x and m = b, read coefficient by coefficient
    spec = RecurrenceSpec(gamma=ExactPolynomial((a, u)), m=b)
    assert triangle_linear(u, a, b, upto) == triangle(spec, upto)


def test_triangle_linear_stirling():
    rows = triangle_linear(u=1, a=0, b=1, upto=6)
    assert rows[4].coeffs == (0, 1, 7, 6, 1)


def test_start_conventions():
    spec = RecurrenceSpec(gamma=X, m=1, start_index=2, start_poly=monomial(2))
    polys = generate(spec, 4)
    assert polys[0] == monomial(2)
    # below the start index everything is zero; the first advance sees
    # only the start polynomial
    assert polys[1] == ExactPolynomial([0, 0, 2, 1])


def test_generate_rejects_range_below_start():
    spec = catalog("r_stirling", r=3).spec
    with pytest.raises(InvalidIndexError):
        generate(spec, 2)

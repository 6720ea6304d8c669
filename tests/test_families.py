"""Catalog descriptors: EGF identities, exponent construction, constants."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import algebra, families, oracle, speclang
from polyrec.algebra import MAX_EXPONENT, ONE, X, ZERO, ExactPolynomial, _exp_scale, monomial
from polyrec.errors import (
    InvalidIndexError,
    ParameterError,
    SaddleOverflowError,
    UnknownFamilyError,
    UnsupportedShapeError,
)
from polyrec.families import (
    FamilyDescriptor,
    SaddleFunction,
    build_exponent,
    catalog,
    catalog_names,
    egf_rows,
    family_parameters,
    theorem_constants,
    validate_nonnegativity,
    verify_egf_identity,
)
from polyrec.recurrence import LagTerm, RecurrenceSpec, generate, triangle

ALL_DEFAULT_INSTANCES = [
    ("stirling2", {}),
    ("whitney", dict(m=2, c=1)),
    ("translated_whitney", dict(m=3)),
    ("dowling", dict(m=2)),
    ("r_stirling", dict(r=2)),
    ("sheffer", dict(d=3, a=2)),
    ("stirling_frobenius", dict(m=4)),
    ("galton", dict(m=2, c=-1)),
    ("assoc_stirling", dict(s=2)),
    ("r_whitney_assoc", dict(m=2, r=1, s=3)),
    ("type_b", dict(m=2, c=1)),
]


@pytest.mark.parametrize("name,params", ALL_DEFAULT_INSTANCES)
def test_egf_identity(name, params):
    descriptor = catalog(name, **params)
    assert verify_egf_identity(descriptor, 16) is None


def test_egf_rows_prefactor():
    # r-restricted families: row r+n is x^r * n! [z^n] exp(f)
    descriptor = catalog("r_stirling", r=3)
    rows = egf_rows(descriptor, 4)
    assert rows[0] == monomial(3)
    polys = generate(descriptor.spec, 7)
    assert rows[4] == polys[4]


def test_egf_rows_skip_a_unit_start_polynomial(monkeypatch):
    # with start polynomial 1 the series rows are the rows: no product
    descriptor = catalog("stirling2")
    want = generate(descriptor.spec, 10)

    def refuse(self, other):
        raise AssertionError("unexpected polynomial product")

    monkeypatch.setattr(ExactPolynomial, "__mul__", refuse)
    assert egf_rows(descriptor, 10) == want


def test_verify_egf_identity_reports_the_spec_row(monkeypatch):
    # r_stirling(r=3) with the exponent of stirling2: EGF row 0 (spec row 3)
    # agrees, EGF row 1 is x^4 against the spec's x^4 + 3x^3
    stirling = build_exponent(catalog("stirling2").spec)
    monkeypatch.setattr(families, "build_exponent", lambda spec: stirling)
    shifted = catalog("r_stirling", r=3)
    rows = triangle(shifted.spec, 8)
    mismatch = (4, rows[1].poly, monomial(4))
    assert verify_egf_identity(shifted, 5) == mismatch


def test_the_exponent_follows_the_spec():
    # a descriptor given another family's spec checks against that spec's
    # own exponent, not one left over from the family it was copied from
    moved = catalog("stirling2")._replace(spec=catalog("dowling", m=2).spec)
    assert moved.saddle == build_exponent(moved.spec)
    assert verify_egf_identity(moved, 10) is None


def test_replace_rebuilds_the_exponent():
    # the cached exponent belongs to the old spec; `_replace` starts afresh
    stirling = catalog("stirling2")
    old = stirling.saddle
    dowling_spec = catalog("dowling", m=2).spec
    moved = stirling._replace(spec=dowling_spec)
    assert moved.saddle == build_exponent(dowling_spec) != old
    assert stirling.saddle is old
    # the exponent's own `_replace` merges, drops and checks as its
    # constructor does
    assert old._replace(factors=old.factors + ((7, ZERO),)) == old
    with pytest.raises(ValueError, match="m must be > 0"):
        old._replace(m=0)


def test_egf_rows_order_bounds():
    descriptor = catalog("r_stirling", r=3)
    assert egf_rows(descriptor, 0) == [monomial(3)]
    with pytest.raises(InvalidIndexError):
        egf_rows(descriptor, -1)


def _tail_split(factors, m):
    """The split f = Q1(z, x) + Q2(x e^{m z}) of the factors, term by term.
    Since (j m)^{-s} T_s(j m z) = (j m)^{-s} e^{j m z} - sum_{i<s} (j m)^{i-s} z^i/i!,
    a term k x^j of a depth-s factor adds k/(j m)^s to Q2[j] and
    -k (j m)^{i-s}/i! to Q1[i][j], i < s, when j >= 1, and k/s! to Q1[s][0]
    when j = 0.  Q1 is its z-power coefficients without trailing zeros."""
    depth = max((s for s, _ in factors), default=0)
    width = max((kappa.degree for _, kappa in factors), default=0) + 1
    q1 = [[Fraction(0)] * width for _ in range(depth + 1)]
    q2 = [Fraction(0)] * width
    for s, kappa in factors:
        for j, k in enumerate(kappa.coeffs):
            if j == 0:
                q1[s][0] += k / math.factorial(s)
            else:
                q2[j] += k / (j * m) ** s
                for i in range(s):
                    q1[i][j] -= k * (j * m) ** (i - s) / math.factorial(i)
    q1 = [ExactPolynomial(q) for q in q1]
    while q1 and q1[-1].is_zero:
        q1.pop()
    return tuple(q1), ExactPolynomial(q2)


def test_build_exponent_stirling():
    sf = build_exponent(catalog("stirling2").spec)
    # f = x(e^z - 1): one depth-1 factor x, whose tail splits as Q1 = -x,
    # Q2(u) = u
    assert sf.factors == ((1, X),)
    assert _tail_split(sf.factors, sf.m) == ((ExactPolynomial([0, -1]),), X)
    assert sf.q2 == X
    assert sf.m == 1


def test_build_exponent_matches_stored_closed_forms():
    # the hand-split exponents these families carried before the general
    # formula, written out as the reference:
    #   assoc_stirling(s):     f = x (e^z - sum_{j<s} z^j/j!)
    #   r_whitney_assoc(m,r,s): f = r z + (x/m)(e^{mz} - sum_{j<s} (mz)^j/j!)
    # compared as (Q1, Q2, m) with the factors' tails split term by term, Q1
    # without trailing zero entries
    def split(sf):
        q1, q2 = _tail_split(sf.factors, sf.m)
        assert q2 == sf.q2
        return q1, q2, sf.m

    for s in range(1, 5):
        q1 = tuple(monomial(1, Fraction(-1, math.factorial(j))) for j in range(s))
        expected = (q1, X, Fraction(1))
        assert split(build_exponent(catalog("assoc_stirling", s=s).spec)) == expected
        for m, r in [(1, 0), (1, 3), (2, 1), (3, 2), (5, 0)]:
            q1 = [
                monomial(1, -(Fraction(m) ** (j - 1)) / math.factorial(j))
                for j in range(s)
            ] + [ZERO]
            q1[1] = q1[1] + ExactPolynomial((r,))
            while q1[-1].is_zero:
                q1.pop()
            expected = (tuple(q1), monomial(1, Fraction(1, m)), Fraction(m))
            spec = catalog("r_whitney_assoc", m=m, r=r, s=s).spec
            assert split(build_exponent(spec)) == expected, (m, r, s)


def test_build_exponent_shape_guard():
    # deeper lags and shifted monomial starts have closed forms
    assoc = catalog("assoc_stirling", s=3)
    assert build_exponent(assoc.spec).q2 == X
    assert verify_egf_identity(assoc, 12) is None
    # r_stirling(r): row r+n is x^r n! [z^n] exp(r z + x (e^z - 1))
    shifted = build_exponent(catalog("r_stirling", r=2).spec)
    assert shifted == build_exponent(RecurrenceSpec(gamma=ExactPolynomial([2, 1]), m=1))

    lag = LagTerm(2, X, binom_weight=True)
    for spec in [
        RecurrenceSpec(gamma=X, m=1, lags=(LagTerm(2, X, binom_weight=False),)),
        RecurrenceSpec(gamma=X, m=1, start_poly=ExactPolynomial([1, 1])),
        RecurrenceSpec(gamma=X, m=1, lags=(lag,), start_index=1, start_poly=X),
    ]:
        with pytest.raises(UnsupportedShapeError):
            build_exponent(spec)
def test_theorem_constants_catalog():
    cases = [
        ("stirling2", {}, 1, Fraction(1)),
        ("dowling", dict(m=3), 1, Fraction(1, 3)),
        ("whitney", dict(m=2, c=1), 1, Fraction(1, 2)),
        ("sheffer", dict(d=4, a=1), 1, Fraction(1)),
        ("galton", dict(m=3, c=-2), 1, Fraction(1, 3)),
        ("assoc_stirling", dict(s=3), 1, Fraction(1)),
        ("r_whitney_assoc", dict(m=2, r=1, s=2), 1, Fraction(1, 2)),
    ]
    for name, params, d, alpha in cases:
        constants = catalog(name, **params).constants()
        assert constants.d == d
        assert constants.alpha_d == alpha
        assert constants.hypothesis_ok


def test_theorem_constants_with_gamma_and_lag():
    # gamma of degree 1 plus a depth-2 lag of degree 2: alpha_d comes from
    # the lag alone at degree 2, gamma contributes at degree 1
    spec = RecurrenceSpec(
        gamma=X,
        m=Fraction(2),
        lags=(LagTerm(2, ExactPolynomial([0, 3, 5]), binom_weight=True),),
    )
    sf = build_exponent(spec)
    # q2 = (gamma_1/m + c_1/m^2) u + (c_2/(2 m^2 2)) u^2
    assert sf.q2.coefficient(1) == Fraction(1, 2) + Fraction(3, 4)
    assert sf.q2.coefficient(2) == Fraction(5, 16)
    constants = theorem_constants(sf)
    assert (constants.d, constants.alpha_d) == (2, Fraction(5, 16))
    assert constants.hypothesis_ok


def test_theorem_constants_rejects_constant_gamma():
    # gamma constant and no lag: Q2 vanishes, no growth, flag off
    sf = build_exponent(RecurrenceSpec(gamma=ExactPolynomial([5]), m=1))
    constants = theorem_constants(sf)
    assert constants == (0, 0, False)


def test_saddle_function_validation():
    with pytest.raises(ValueError):
        SaddleFunction(factors=((1, X),), m=Fraction(0))
    # no depth below 1: the equation has no z^{-1} term
    with pytest.raises(ValueError, match="factor depths >= 1"):
        SaddleFunction(factors=((0, X),), m=Fraction(1))
    # a zero kappa is dropped
    assert SaddleFunction(((1, X), (3, ZERO)), 2).factors == ((1, X),)
    # two kappa at one depth merge; a depth whose kappa cancel goes
    merged = SaddleFunction(((2, X), (1, ONE), (2, X + ONE)), 1)
    assert merged.factors == ((1, ONE), (2, ExactPolynomial([1, 2])))
    assert SaddleFunction(((1, X), (1, -X)), 1).factors == ()
    # the order of the factors changes neither equality nor the hash
    first = SaddleFunction(((1, X), (3, ONE)), Fraction(1, 2))
    again = SaddleFunction(((3, ONE), (1, X)), Fraction(1, 2))
    assert first == again and hash(first) == hash(again)


def test_egf_coefficients_closed_forms():
    order = 12
    # stirling2: f = x (e^z - 1), so G_p = x for p >= 1
    assert catalog("stirling2").saddle.egf_coefficients(order)[1:] == [X] * order
    # dowling(m=2): f = z + x (e^{2z} - 1)/2, so G_p = [p = 1] + 2^{p-1} x
    g = catalog("dowling", m=2).saddle.egf_coefficients(order)
    for p in range(1, order + 1):
        assert g[p] == ExactPolynomial([int(p == 1), 2 ** (p - 1)]), p
    # G_0 = 0, and every G_p is an integer polynomial, so series_exp
    # divides nothing
    for name, params in ALL_DEFAULT_INSTANCES:
        g = catalog(name, **params).saddle.egf_coefficients(order)
        assert g[0] == ZERO and _exp_scale(g) == 1, name


def test_catalog_unknown_and_bad_params():
    with pytest.raises(UnknownFamilyError):
        catalog("nope")
    with pytest.raises(ParameterError):
        catalog("dowling")  # missing m
    with pytest.raises(ParameterError):
        catalog("dowling", m=0)
    with pytest.raises(ParameterError):
        catalog("stirling2", m=2)  # takes no parameters
    with pytest.raises(ParameterError):
        catalog("type_b", m=2, c=0)  # needs c >= 1
    with pytest.raises(ParameterError):
        catalog("sheffer", d=2, a=Fraction(1, 2))
    with pytest.raises(ParameterError):
        catalog("r_stirling", r=-1)


def test_catalog_takes_integral_fractions():
    # `--family "dowling(m=4/2)"` reaches catalog with m = Fraction(2)
    built = catalog("dowling", m=Fraction(2))
    assert built == catalog("dowling", m=2)
    assert type(built.parameters["m"]) is int


@pytest.mark.parametrize(
    "name,params,depth",
    [
        ("r_stirling", {}, "r"),
        ("assoc_stirling", {}, "s"),
        ("r_whitney_assoc", {"m": 2, "r": 1}, "s"),
    ],
)
def test_catalog_caps_degrees_and_depths(monkeypatch, name, params, depth):
    # the cap spec text puts on an exponent or a lag depth: x^r is the
    # start polynomial of r_stirling, and s a lag depth
    assert speclang.MAX_EXPONENT is algebra.MAX_EXPONENT
    descriptor = catalog(name, **params, **{depth: MAX_EXPONENT})
    assert descriptor.parameters[depth] == MAX_EXPONENT == 10_000
    # refused before the family's recurrence is built
    family = families.FAMILIES[name]

    def unbuilt(**values):
        raise AssertionError("the recurrence was built")

    monkeypatch.setitem(families.FAMILIES, name, family._replace(spec=unbuilt))
    with pytest.raises(ParameterError, match=f"parameter '{depth}' must be <= 10000, got 10001"):
        catalog(name, **params, **{depth: MAX_EXPONENT + 1})


def test_catalog_rejects_bool_parameters():
    for name, params in [
        ("dowling", dict(m=True)),
        ("r_stirling", dict(r=False)),
        ("r_whitney_assoc", dict(m=2, r=1, s=True)),
    ]:
        with pytest.raises(ParameterError):
            catalog(name, **params)


def test_oeis_tags():
    assert catalog("stirling2").oeis_refs == ("A048993",)
    assert catalog("dowling", m=2).oeis_refs == ("A007405", "A039755")
    assert catalog("dowling", m=3).oeis_refs == ("A003575",)
    assert catalog("dowling", m=10).oeis_refs == ("A003582",)
    assert catalog("dowling", m=64).oeis_refs == ("A364069",)
    assert catalog("dowling", m=624).oeis_refs == ("A364070",)
    assert catalog("dowling", m=11).oeis_refs == ()
    assert catalog("translated_whitney", m=2).oeis_refs == ("A075497",)
    assert catalog("translated_whitney", m=10).oeis_refs == ("A075505",)
    assert catalog("r_stirling", r=2).oeis_refs == ("A143494",)
    assert catalog("r_stirling", r=4).oeis_refs == ("A143496",)
    assert catalog("sheffer", d=1, a=0).oeis_refs == ("A048993",)
    assert catalog("sheffer", d=4, a=3).oeis_refs == ("A225469",)
    assert catalog("stirling_frobenius", m=3).oeis_refs == ("A225468",)
    assert catalog("galton", m=2, c=-1).oeis_refs == ("A186695",)
    assert catalog("galton", m=3, c=-2).oeis_refs == ("A111577",)


def test_sheffer_scales_stirling_frobenius():
    # S2[m, m-1] is the column-scaled variant: entry (n, k) carries an
    # extra m^k, so the polynomials satisfy P_n(x) = W_n(m x)
    for m in range(1, 5):
        scaled = generate(catalog("sheffer", d=m, a=m - 1).spec, 8)
        plain = generate(catalog("stirling_frobenius", m=m).spec, 8)
        for p_s, p_w in zip(scaled, plain):
            rescaled = ExactPolynomial(
                [Fraction(m) ** k * p_w.coefficient(k) for k in range(p_w.degree + 1)]
            )
            assert p_s == rescaled


def _binom_lag(s, *kappa):
    return (LagTerm(s=s, kappa=ExactPolynomial(kappa), binom_weight=True),)


# each family's recurrence as its source states it, written out by hand:
# two instances each (stirling2 has one), independent of how the catalog
# builds them
TEXTBOOK_SPECS = [
    ("stirling2()", RecurrenceSpec(gamma=X, m=1)),
    ("whitney(m=2,c=1)", RecurrenceSpec(gamma=ExactPolynomial((1, 1)), m=2)),
    ("whitney(m=3,c=-2)", RecurrenceSpec(gamma=ExactPolynomial((-2, 1)), m=3)),
    ("translated_whitney(m=2)", RecurrenceSpec(gamma=X, m=2)),
    ("translated_whitney(m=5)", RecurrenceSpec(gamma=X, m=5)),
    ("dowling(m=2)", RecurrenceSpec(gamma=ExactPolynomial((1, 1)), m=2)),
    ("dowling(m=3)", RecurrenceSpec(gamma=ExactPolynomial((1, 1)), m=3)),
    ("r_stirling(r=0)", RecurrenceSpec(gamma=X, m=1)),
    ("r_stirling(r=2)", RecurrenceSpec(gamma=X, m=1, start_index=2, start_poly=monomial(2))),
    ("sheffer(d=2,a=1)", RecurrenceSpec(gamma=ExactPolynomial((1, 2)), m=2)),
    ("sheffer(d=3,a=0)", RecurrenceSpec(gamma=ExactPolynomial((0, 3)), m=3)),
    ("stirling_frobenius(m=2)", RecurrenceSpec(gamma=ExactPolynomial((1, 1)), m=2)),
    ("stirling_frobenius(m=3)", RecurrenceSpec(gamma=ExactPolynomial((2, 1)), m=3)),
    ("galton(m=2,c=-1)", RecurrenceSpec(gamma=ExactPolynomial((-1, 1)), m=2)),
    ("galton(m=3,c=2)", RecurrenceSpec(gamma=ExactPolynomial((2, 1)), m=3)),
    ("assoc_stirling(s=2)", RecurrenceSpec(gamma=ZERO, m=1, lags=_binom_lag(2, 0, 1))),
    ("assoc_stirling(s=3)", RecurrenceSpec(gamma=ZERO, m=1, lags=_binom_lag(3, 0, 1))),
    (
        "r_whitney_assoc(m=2,r=1,s=2)",
        RecurrenceSpec(gamma=ONE, m=2, lags=_binom_lag(2, 0, 2)),
    ),
    (
        "r_whitney_assoc(m=2,r=1,s=3)",
        RecurrenceSpec(gamma=ONE, m=2, lags=_binom_lag(3, 0, 4)),
    ),
    ("type_b(m=2,c=1)", RecurrenceSpec(gamma=ExactPolynomial((1, 1)), m=2)),
    ("type_b(m=3,c=2)", RecurrenceSpec(gamma=ExactPolynomial((2, 1)), m=3)),
]


def test_every_family_has_its_textbook_recurrence():
    assert {label.split("(")[0] for label, _ in TEXTBOOK_SPECS} == set(families.FAMILIES)
    for label, want in TEXTBOOK_SPECS:
        request = speclang.parse(f"family: {label};")
        assert catalog(request.name, **request.params).spec == want, label


def test_an_s_1_lag_family_is_its_gamma_form_twin():
    # at s = 1 the binomial lag m^0 x at depth 1 is the gamma term x itself
    assert catalog("assoc_stirling", s=1).spec == catalog("stirling2").spec
    assert catalog("r_whitney_assoc", m=2, r=1, s=1).spec == catalog("whitney", m=2, c=1).spec


def test_equal_descriptors_hash_equal():
    # the parameters dict takes no part in the hash, so descriptors can be
    # set members and dict keys
    first, again = catalog("dowling", m=2), catalog("dowling", m=2)
    assert first == again and hash(first) == hash(again)
    assert hash(catalog("stirling2")) == hash(catalog("stirling2"))
    assert len({first, again, catalog("stirling2"), catalog("dowling", m=3)}) == 3


def test_catalog_names_and_parameters():
    names = catalog_names()
    assert len(names) == 11
    assert family_parameters("r_whitney_assoc") == ("m", "r", "s")
    assert family_parameters("stirling2") == ()
    with pytest.raises(UnknownFamilyError):
        family_parameters("smith")


def test_validate_nonnegativity():
    good = validate_nonnegativity(triangle(catalog("dowling", m=2).spec, 10))
    assert good.ok and good.first_negative is None and good.zero_sum_rows == ()

    gaps = validate_nonnegativity(triangle(catalog("assoc_stirling", s=3).spec, 8))
    assert gaps.ok
    assert gaps.zero_sum_rows == (1, 2)

    bad = validate_nonnegativity(
        triangle(RecurrenceSpec(gamma=X - 3 * ONE, m=1), 4)
    )
    assert not bad.ok
    assert bad.first_negative == (1, 0)


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def _polys():
    return st.lists(_RATIONALS, max_size=3).map(ExactPolynomial)


@st.composite
def _specs(draw, unit_weight=False):
    depths = draw(st.lists(st.integers(1, 4), max_size=3, unique=True))
    if unit_weight and not depths:
        depths = [draw(st.integers(1, 4))]
    lags = tuple(
        LagTerm(s, draw(_polys()), binom_weight=not (unit_weight and i == 0))
        for i, s in enumerate(depths)
    )
    coeff = draw(_RATIONALS.filter(bool))
    return RecurrenceSpec(
        gamma=draw(_polys()),
        m=draw(st.fractions(min_value=Fraction(1, 4), max_value=3, max_denominator=4)),
        lags=lags,
        start_index=0 if lags else draw(st.integers(0, 3)),
        start_poly=monomial(draw(st.integers(0, 2)), coeff),
    )


def _custom(spec):
    return FamilyDescriptor(name="custom", parameters={}, spec=spec)


@settings(max_examples=40, deadline=None)
@given(_specs())
def test_build_exponent_reproduces_random_specs(spec):
    assert verify_egf_identity(_custom(spec), 12) is None


@settings(max_examples=40, deadline=None)
@given(_specs())
def test_exponent_matches_its_closed_forms(spec):
    # the spec's own factors: gamma + m r at depth 1, then the lags
    sf, m = build_exponent(spec), spec.m
    factors = [(1, spec.gamma + ExactPolynomial((m * spec.start_poly.degree,)))]
    factors += [(lag.s, lag.kappa) for lag in spec.lags]
    # G_p = sum_{s <= p} sum_{j >= 1} kappa_{s,j} (j m)^{p-s} x^j, plus kappa_{p,0}
    order = max(s for s, _ in factors) + 4
    for p, g in enumerate(sf.egf_coefficients(order)):
        want = [Fraction(0)] * 4
        for s, kappa in factors:
            for j, k in enumerate(kappa.coeffs):
                if j and s <= p:
                    want[j] += k * (j * m) ** (p - s)
                elif not j and s == p:
                    want[0] += k
        assert g == ExactPolynomial(want), p
    # the tails of the factors, split term by term, sum to the exponent whose
    # series egf_coefficients steps: G_p = p! Q1[p] + sum_j Q2[j] (j m)^p x^j
    q1, q2 = _tail_split(factors, m)
    assert sf.q2 == q2
    for p, g in enumerate(sf.egf_coefficients(order)):
        poly = q1[p] if p < len(q1) else ZERO
        want = [math.factorial(p) * poly.coefficient(j) for j in range(4)]
        for j, k in enumerate(q2.coeffs):
            want[j] += k * (j * m) ** p
        assert g == ExactPolynomial(want), p


def test_deep_lags_build_no_q1_for_verify_or_constants():
    # verify reads G_0..G_5 and the constants read Q2: neither builds the
    # saddle solver's floats, which hold one entry per term, whatever the depth
    assoc = catalog("assoc_stirling", s=10000)
    assert all(check.ok for check in oracle.verify(assoc, 5))
    whitney = catalog("r_whitney_assoc", m=7, r=1, s=10000)
    assert whitney.constants() == (1, Fraction(1, 7), True)
    assert "floats" not in assoc.saddle.__dict__
    assert "floats" not in whitney.saddle.__dict__
    assert assoc.saddle.floats == (1.0, ((10000, 1, 1.0),))
    assert whitney.saddle.floats == (7.0, ((1, 0, 1.0), (10000, 1, 1 / 7)))


def _int_pair_floats(sf):
    # the saddle floats through int / int on the unreduced stored pairs, which
    # rounds correctly: k/(j m)^s = q_j b^s / (den (j a)^s) for m = a/b, k = q_j/den
    a, b = sf.m.numerator, sf.m.denominator
    terms = []
    for s, kappa in sf.factors:
        den = kappa.denominator
        for j, q in enumerate(kappa.numerators):
            c = q * b**s / (den * (j * a) ** s) if j else q / den
            if c:
                terms.append((s, j, c))
    return float(sf.m), tuple(terms)


@pytest.mark.parametrize(
    "name,params",
    ALL_DEFAULT_INSTANCES
    + [("assoc_stirling", dict(s=40)), ("r_whitney_assoc", dict(m=3, r=2, s=5))]
    # a deep lag: the e^{7z} coefficient 7^299/7^300, from 840-bit ints
    + [("r_whitney_assoc", dict(m=7, r=1, s=300))],
)
def test_saddle_floats_are_the_fraction_floats(name, params):
    # the reduced Fraction k/(j m)^s and the unreduced int pair give the same
    # float, one per term, in factor order
    sf = catalog(name, **params).saddle
    assert sf.floats == _int_pair_floats(sf)


@settings(max_examples=40, deadline=None)
@given(_specs())
# cubic factors: the second derivative's weights j(j - 1) differ from j at x^3
@example(
    speclang.load("gamma: x^3 - 1/3x; m: 3/2; lag: {s: 3, coeff: 2/5x^3 - x^2 + 1, binom: true};")
)
def test_saddle_floats_are_the_fraction_floats_on_random_specs(spec):
    sf = build_exponent(spec)
    assert sf.floats == _int_pair_floats(sf)


def test_saddle_floats_overflow_as_the_fraction_floats_do():
    spec = speclang.load("gamma: x + %s; m: 1;" % ("9" * 2200))
    sf = _custom(spec).saddle
    with pytest.raises(OverflowError):
        _int_pair_floats(sf)
    with pytest.raises(SaddleOverflowError):
        sf.floats


@settings(max_examples=20, deadline=None)
@given(_specs(unit_weight=True))
def test_build_exponent_rejects_unit_weight_lags(spec):
    with pytest.raises(UnsupportedShapeError):
        build_exponent(spec)


def test_label_is_built_from_name_and_parameters():
    assert catalog("dowling", m=2).label == "dowling(m=2)"
    assert catalog("whitney", m=2, c=-1).label == "whitney(m=2,c=-1)"
    assert catalog("stirling2").label == "stirling2"
    spec = catalog("dowling", m=2).spec
    assert _custom(spec).label == "custom"

"""Parser and formatter for the recurrence text format."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_families import _specs

from polyrec.algebra import ExactPolynomial, ONE, X
from polyrec.errors import ParseError
from polyrec.families import FamilyDescriptor, catalog, catalog_names, family_parameters
from polyrec.recurrence import LagTerm, RecurrenceSpec
from polyrec.speclang import (
    MAX_EXPONENT,
    FamilyRequest,
    SpecSource,
    format_spec,
    load,
    parse,
)


def test_parse_stirling():
    spec = parse("gamma: x; m: 1;")
    assert spec == RecurrenceSpec(gamma=X, m=Fraction(1))
    assert spec.start_index == 0 and spec.start_poly == ONE and spec.lags == ()


def test_parse_assoc_shape():
    spec = parse("gamma: 0; m: 1; lag: {s: 2, coeff: x, binom: true};")
    assert spec.gamma == ExactPolynomial([])
    assert spec.lags == (LagTerm(2, X, binom_weight=True),)


def test_parse_family_request():
    request = parse("family: dowling(m=2);")
    assert isinstance(request, FamilyRequest)
    assert request.name == "dowling" and request.params == {"m": 2}
    # an integral value reaches the caller as an int, a fraction as a Fraction
    assert type(request.params["m"]) is int
    assert type(parse("family: dowling(m=4/2);").params["m"]) is int
    assert parse("family: dowling(m=5/2);").params == {"m": Fraction(5, 2)}
    descriptor = load("family: dowling(m=2);")
    assert descriptor.name == "dowling"


def test_parse_polynomial_sums_like_terms():
    spec = parse("gamma: 2x + x; m: 1;")
    assert spec.gamma == ExactPolynomial([0, 3])


def test_parse_rationals_and_spacing():
    spec = parse("gamma:  -1/2 x^3 + 4x - 7 ;\n m: 5/3;")
    assert spec.gamma == ExactPolynomial([-7, 4, 0, Fraction(-1, 2)])
    assert spec.m == Fraction(5, 3)


def test_parse_start_object():
    spec = parse("gamma: x; m: 2; start: {index: 2, poly: x^2};")
    assert spec.start_index == 2
    assert spec.start_poly == ExactPolynomial([0, 0, 1])


def test_m_positivity_is_explained():
    with pytest.raises(ParseError) as info:
        parse("gamma: x; m: 0;")
    assert "m must be > 0" in str(info.value)
    assert "positive derivative weight" in str(info.value)


ROUND_TRIP_PARAMS = {
    "stirling2": {},
    "whitney": dict(m=2, c=1),
    "translated_whitney": dict(m=3),
    "dowling": dict(m=2),
    "r_stirling": dict(r=2),
    "sheffer": dict(d=3, a=1),
    "stirling_frobenius": dict(m=3),
    "galton": dict(m=2, c=-1),
    "assoc_stirling": dict(s=3),
    "r_whitney_assoc": dict(m=2, r=1, s=2),
    "type_b": dict(m=2, c=1),
}


def test_round_trip_every_catalog_family():
    assert set(ROUND_TRIP_PARAMS) == set(catalog_names())
    for name in catalog_names():
        descriptor = catalog(name, **ROUND_TRIP_PARAMS[name])
        assert parse(format_spec(descriptor.spec)) == descriptor.spec
        rendered = format_spec(descriptor)
        request = parse(rendered)
        assert isinstance(request, FamilyRequest)
        assert request.build().spec == descriptor.spec


def test_format_canonical_examples():
    assert format_spec(RecurrenceSpec(gamma=X, m=Fraction(1))) == "gamma: x; m: 1;"
    spec = parse("m: 1; lag: {s: 2, coeff: x, binom: true}; gamma: 0;")
    assert (
        format_spec(spec)
        == "gamma: 0; m: 1; lag: {s: 2, coeff: x, binom: true};"
    )
    shifted = parse("gamma: x; m: 2; start: {index: 1, poly: x};")
    assert format_spec(shifted) == "gamma: x; m: 2; start: {index: 1, poly: x};"
    # the command line's descriptor of a spec is named "custom", which is no
    # catalog family: it renders as its spec
    custom = FamilyDescriptor(name="custom", parameters={}, spec=shifted)
    assert parse(format_spec(custom)) == shifted


def test_positions_are_one_based():
    with pytest.raises(ParseError) as info:
        parse("gamma: x; m: @;")
    err = info.value
    assert (err.line, err.column) == (1, 14)
    with pytest.raises(ParseError) as info:
        parse(SpecSource("gamma: x;\nm: -3;", origin="test.spec"))
    err = info.value
    assert err.origin == "test.spec"
    assert err.line == 2
    assert str(err).startswith("test.spec:2:")


MALFORMED = [
    "",
    "gamma x; m: 1;",
    "gamma: x m: 1;",
    "gamma: x; m: 1",
    "gamma: x; m: 0;",
    "gamma: x; m: -3;",
    "gamma: x; m: 1; lag: {s: 2, coeff: x, binom: true}; lag: {s: 2, coeff: 1, binom: false};",
    "gamma: x; gamma: x; m: 1;",
    "gamma: x; m: 1; zeta: 4;",
    "family: dowling(m=2); gamma: x;",
    "gamma: x; family: dowling(m=2);",
    "gamma: y; m: 1;",
    "gamma: x^; m: 1;",
    "gamma: x^-2; m: 1;",
    "gamma: 1/0; m: 1;",
    "gamma: 1/2/3; m: 1;",
    "gamma: x; m: one;",
    "gamma: x; m: 1; lag: {coeff: x, binom: true};",
    "gamma: x; m: 1; lag: {s: 0, coeff: x, binom: true};",
    "gamma: x; m: 1; start: {index: -1, poly: 1};",
    "gamma: x; m: 1; start: {index: 0, poly: 0};",
    "family: klein(m=2);",
    "family: dowling(q=2);",
    "family: dowling(m=2, m=3);",
    "family: dowling(m);",
    "gamma: x; m: 1; lag: {s: 2, coeff: x, binom: maybe};",
    "gamma: x; m: 1.5;",
    "gamma: ; m: 1;",
    "gamma: x; m: 1; extra",
    "gamma: x +; m: 1;",
    "gamma: x; m: 1; lag: {s: 2 coeff: x, binom: true};",
]


@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_inputs_rejected_with_position(text):
    with pytest.raises(ParseError) as info:
        load(text)
    err = info.value
    lines = text.split("\n")
    assert 1 <= err.line <= len(lines)
    assert err.column >= 1
    # column may point just past the end for truncated input
    assert err.column <= len(lines[err.line - 1]) + 2
    assert str(err).startswith(f"<inline>:{err.line}:{err.column}:")


def test_exact_positions_for_canonical_failures():
    cases = [
        ("gamma: x; m: 0;", 1, 14),
        ("gamma: y; m: 1;", 1, 8),
        ("gamma: x; zeta: 4;", 1, 11),
        ("gamma: x;\nm: -3;", 2, 4),
        ("gamma: x; m: 1; lag: {s: 0, coeff: x, binom: true};", 1, 26),
        ("family: klein();", 1, 9),
        ("gamma: x m: 1;", 1, 10),
        ("gamma: 1/0; m: 1;", 1, 10),
        ("gamma: x; m: 1; lag: {s: 2, s: 3, coeff: x};", 1, 29),
        ("gamma: x; m: 1; lag: {s: 2, sign: x};", 1, 29),
        ("gamma: x; m: 1; start: {index: 0, sign: 1};", 1, 35),
        ("gamma: x; m: 1; lag: {s: 2};", 1, 17),
        ("gamma: x;", 1, 10),
        # number tokens are ASCII digits only; str.isdigit admits superscript
        # two and Arabic-Indic three
        ("gamma: x + \u00b2; m: 1;", 1, 12),
        ("gamma: x + \u0663; m: 1;", 1, 12),
    ]
    for text, line, column in cases:
        with pytest.raises(ParseError) as info:
            load(text)
        assert (info.value.line, info.value.column) == (line, column), text
        if not text.isascii():
            assert f"unexpected character {text[column - 1]!r}" in str(info.value)


def test_exponent_cap():
    assert parse(f"gamma: x^{MAX_EXPONENT}; m: 1;").gamma.degree == MAX_EXPONENT == 10_000
    # one coefficient slot per power: a larger exponent is refused at its
    # token before anything is allocated
    text = "gamma: x; m: 1; lag: {s: 2, coeff: 3x^10001};"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.column) == (1, text.index("^") + 2)
    assert info.value.reason == "exponent must be <= 10000, got 10001"
    # the EGF exponent holds one z-power per lag depth: the depth has the
    # same cap
    spec = parse(f"gamma: x; m: 1; lag: {{s: {MAX_EXPONENT}, coeff: x}};")
    assert spec.max_lag == MAX_EXPONENT
    text = "gamma: x; m: 1; lag: {coeff: x, s: 10001, binom: true};"
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (info.value.line, info.value.column) == (1, text.index("10001") + 1)
    assert info.value.reason == "lag depth s must be <= 10000, got 10001"


# 0 means no limit; before 3.10.7 there is none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no int-to-str digit limit")
@pytest.mark.parametrize(
    "template",
    [
        "gamma: {}; m: 1;",
        "gamma: x; m: 1/{};",
        "gamma: x^{}; m: 1;",
        "gamma: x; m: 1; lag: {{s: {}, coeff: x}};",
        "gamma: x; m: 1; start: {{index: {}}};",
        "family: dowling(m={});",
    ],
    ids=["coefficient", "denominator", "exponent", "lag-depth", "start-index", "parameter"],
)
def test_overlong_number_is_a_parse_error_at_its_token(template):
    digits = "1" * (DIGIT_LIMIT + 1)
    text = template.format(digits)
    with pytest.raises(ParseError) as info:
        load(text)
    assert (info.value.line, info.value.column) == (1, text.index(digits) + 1)
    assert f"the limit is {DIGIT_LIMIT}" in str(info.value)


@settings(max_examples=250, deadline=None)
@given(st.one_of(_specs(), _specs(unit_weight=True)))
def test_format_then_parse_round_trips_random_specs(spec):
    # binomial and unit-weight lags; shifted starts come without lags
    assert parse(format_spec(spec)) == spec



# spec text for the fuzz: gamma and m statements, some lag, start or family
# statements, in any order, each a valid statement; then up to three noise
# pieces inserted anywhere
_SMALL = st.integers(0, 12).map(str)
_EXPONENT = st.one_of(_SMALL, st.integers(0, 2 * MAX_EXPONENT).map(str))
_RATIONAL = st.one_of(_SMALL, st.builds("{}/{}".format, _SMALL, st.integers(1, 12)))
_TERM = st.one_of(
    _RATIONAL,
    st.builds("{}x^{}".format, _RATIONAL, _EXPONENT),
    st.builds("x^{}".format, _EXPONENT),
    st.just("x"),
)
_SIGNED_TERM = st.builds("{}{}".format, st.sampled_from(["+", "-", " - "]), _TERM)
_POLY = st.lists(_SIGNED_TERM, min_size=1, max_size=3).map("".join)
_GAMMA = st.builds("gamma: {};".format, _POLY)
_M = st.builds("m: {};".format, _RATIONAL)
_STATEMENT = st.one_of(
    st.builds("lag: {{s: {}, coeff: {}, binom: true}};".format, _SMALL, _POLY),
    st.builds("start: {{index: {}, poly: {}}};".format, _SMALL, _POLY),
    st.builds("family: galton(m={}, c=-{});".format, _SMALL, _RATIONAL),
)
_NOISE = st.one_of(
    st.sampled_from(
        ["gamma", "m", "lag", "x^", "binom", "true", *":;{}(),=^/+-", "\n", "\t", "\r"]
    ),
    st.sampled_from(["\u00b2", "\u0663"]),  # digits to str.isdigit, not to the parser
    _EXPONENT,
    st.text(max_size=2),
)


@st.composite
def _spec_texts(draw):
    statements = [draw(_GAMMA), draw(_M), *draw(st.lists(_STATEMENT, max_size=2))]
    text = "\n".join(draw(st.permutations(statements)))
    for at, piece in draw(st.lists(st.tuples(st.integers(0, 10**4), _NOISE), max_size=3)):
        at %= len(text) + 1
        text = text[:at] + piece + text[at:]
    return text


@settings(max_examples=400, deadline=None)
@given(_spec_texts())
def test_parse_raises_only_parse_errors(text):
    try:
        parsed = parse(text)
    except ParseError as err:
        assert 1 <= err.line <= text.count("\n") + 1
        assert err.column >= 1
        return
    assert parse(format_spec(parsed)) == parsed

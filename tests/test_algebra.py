"""Exact polynomial arithmetic and the EGF-domain exponential."""

import decimal
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec.algebra import (
    ONE,
    X,
    ZERO,
    ExactPolynomial,
    _exp_scale,
    add_products,
    as_fraction,
    format_terms,
    monomial,
    series_exp,
)
from polyrec.cli import _EXACT
from polyrec.errors import NonzeroConstantTermError

rationals = st.fractions(
    min_value=Fraction(-10), max_value=Fraction(10), max_denominator=6
)
polys = st.lists(rationals, min_size=0, max_size=5).map(ExactPolynomial)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def test_trailing_zeros_are_normalized():
    assert ExactPolynomial([1, 2, 0, 0]) == ExactPolynomial([1, 2])
    assert ExactPolynomial([0, 0]).is_zero
    assert ExactPolynomial([0, 0]).degree == -1
    assert (X + (-X)) == ZERO
    assert (X + (-X)).degree == -1


def test_basic_arithmetic():
    p = ExactPolynomial([1, 2])  # 1 + 2x
    q = ExactPolynomial([0, 1, 1])  # x + x^2
    assert p + q == ExactPolynomial([1, 3, 1])
    assert p - p == ZERO
    assert p * q == ExactPolynomial([0, 1, 3, 2])
    assert 3 * p == ExactPolynomial([3, 6])
    assert p * Fraction(1, 2) == ExactPolynomial([Fraction(1, 2), 1])


def test_operators_decline_other_types():
    # an int added or a float multiplied is neither a polynomial nor an
    # exact scalar: both sides return NotImplemented, so Python raises, and
    # == against an int falls back to identity
    p = ExactPolynomial([1, 2])
    with pytest.raises(TypeError):
        p + 1
    with pytest.raises(TypeError):
        p * 1.5
    assert (p == 0) is False


def test_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)
    with pytest.raises(TypeError):
        ExactPolynomial([0.5])


def test_evaluation_and_derivative():
    p = ExactPolynomial([1, -2, 3])  # 1 - 2x + 3x^2
    assert p(Fraction(2)) == 1 - 4 + 12
    assert p.derivative() == ExactPolynomial([-2, 6])
    assert ZERO.derivative() == ZERO


def test_format_terms():
    assert format_terms([Fraction(1), Fraction(4), Fraction(1)]) == "x^2 + 4x + 1"
    assert format_terms([Fraction(0)]) == "0"
    assert format_terms([Fraction(-1), Fraction(1, 2)]) == "1/2x - 1"
    assert str(monomial(3)) == "x^3"


@given(polys, polys)
def test_degree_of_product(p, q):
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(polys, polys)
def test_derivative_product_rule(p, q):
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert lhs == rhs


@given(polys, polys, rationals)
def test_mul_is_evaluation_compatible(p, q, t):
    assert (p * q)(t) == p(t) * q(t)


def _fraction_row(values):
    """values as Fractions with trailing zeros stripped: the reference row."""
    out = [Fraction(v) for v in values]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


@st.composite
def rows_with_reference(draw):
    """A polynomial with its Fraction reference, built either from Fractions
    or from a scaled int pair that keeps an extra common factor (and maybe
    trailing zeros), so that it is not in lowest terms."""
    values = draw(st.lists(rationals, max_size=6))
    if draw(st.booleans()):
        return ExactPolynomial(values), _fraction_row(values)
    den = math.lcm(1, *(v.denominator for v in values)) * draw(st.integers(1, 12))
    nums = [v.numerator * (den // v.denominator) for v in values]
    nums += [0] * draw(st.integers(0, 2))
    return ExactPolynomial.from_scaled(nums, den), _fraction_row(values)


def _ref_add(a, b):
    out = [Fraction(0)] * max(len(a), len(b))
    for row in (a, b):
        for j, c in enumerate(row):
            out[j] += c
    return _fraction_row(out)


def _ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _fraction_row(out)


@given(rows_with_reference())
def test_row_type_is_canonical(pair):
    p, ref = pair
    nums, den = p.numerators, p.denominator
    # reduced when built: no comparison has run on p yet
    assert math.gcd(*nums, den) == 1
    assert tuple(Fraction(q, den) for q in nums) == ref
    assert p.coeffs == ref
    assert p.denominator == math.lcm(1, *(c.denominator for c in ref))
    assert p.degree == len(ref) - 1


@given(rows_with_reference(), rows_with_reference())
def test_row_type_equality_and_hash(a, b):
    (p, p_ref), (q, q_ref) = a, b
    assert (p == q) == (p_ref == q_ref)
    twin = ExactPolynomial(p_ref)
    assert p == twin and hash(p) == hash(twin)


@given(rows_with_reference(), rows_with_reference(), rationals)
def test_row_type_arithmetic_matches_fractions(a, b, t):
    (p, p_ref), (q, q_ref) = a, b
    assert (p + q).coeffs == _ref_add(p_ref, q_ref)
    assert (p - q).coeffs == _ref_add(p_ref, [-c for c in q_ref])
    assert (p * q).coeffs == _ref_mul(p_ref, q_ref)
    assert (p * t).coeffs == (t * p).coeffs == _ref_mul(p_ref, [t])
    assert p.derivative().coeffs == _fraction_row([j * c for j, c in enumerate(p_ref)][1:])
    assert p(t) == sum((c * t**j for j, c in enumerate(p_ref)), Fraction(0))


def test_from_scaled_rejects_a_nonpositive_denominator():
    with pytest.raises(ValueError):
        ExactPolynomial.from_scaled([1, 2], 0)


def test_series_exp_of_z():
    # f = z has EGF coefficients [0, 1, 0, ...]; n! [z^n] exp(z) = 1
    g = [ZERO, ONE] + [ZERO] * 5
    assert series_exp(g) == [ONE] * 7


def test_series_exp_of_empty_input():
    assert series_exp([]) == []
    assert series_exp([ZERO]) == [ONE]


_digits = st.lists(st.integers(-3, 3), max_size=5)  # zeros are frequent
_kernel_terms = st.lists(
    st.tuples(_digits, _digits, st.sampled_from([0, 1, -1, 2, 7])), max_size=4
)


@settings(max_examples=200, deadline=None)
@given(
    _kernel_terms,
    st.none() | _digits | st.lists(st.integers(-3, 3), min_size=6, max_size=10),
    st.booleans(),
)
@example([([1, 2], [0, 3, 1], 5), ([0, 0], [7, 7], 1)], [1, 0, 0, 0], False)
@example([], [4, 0, 0], False)
def test_add_product(terms, out, as_decimal):
    # the one convolution kernel against a naive double loop: the list is
    # extended to the longest product, accumulated into and trimmed
    want = list(out or [])
    for a, b, scale in terms:
        want += [0] * (len(a) + len(b) - 1 - len(want))
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                want[i + j] += scale * ai * bj
    while want and not want[-1]:
        want.pop()
    if as_decimal:  # b and out may hold Decimals, stepped in an exact context
        terms = [(a, list(map(decimal.Decimal, b)), scale) for a, b, scale in terms]
        out = None if out is None else list(map(decimal.Decimal, out))
    with decimal.localcontext(_EXACT):
        got = add_products(iter(terms), out)
    assert got == want
    assert out is None or got is out


def test_add_product_skips_zero_terms():
    # a zero scale adds nothing at all: not even 0 to a Decimal -0
    out = [decimal.Decimal("-0"), 5]
    with decimal.localcontext(_EXACT):
        assert add_products([([1], [decimal.Decimal(7)], 0), ([], [1], 3)], out) is out
    assert list(map(str, out)) == ["-0", "5"]


def test_exp_scale():
    # integer data need no scaling at all
    assert _exp_scale([ZERO, X, 3 * X, ExactPolynomial([2, 5])]) == 1
    # g_p = (3/4)^p x: den 4^p, so c = 4 (not 4^N)
    g = [ZERO] + [ExactPolynomial([0, Fraction(3, 4) ** p]) for p in range(1, 12)]
    assert _exp_scale(g) == 4
    # g_1 = 1/2 gives c = 2; g_2 = 1/8 needs 8 | c^2, so c = 4
    assert _exp_scale([ZERO, ONE * Fraction(1, 2), ONE * Fraction(1, 8)]) == 4


def test_series_exp_rejects_constant_term():
    g = [ONE, ONE, ZERO, ZERO]
    with pytest.raises(NonzeroConstantTermError):
        series_exp(g)


small_egfs = st.lists(polys, min_size=2, max_size=4).map(lambda ps: [ZERO] + ps)


@settings(max_examples=40)
@given(small_egfs)
def test_series_exp_inverse(g):
    # exp(f) exp(-f) = 1: the binomial convolution of the two EGF
    # coefficient lists is [1, 0, 0, ...]
    a, b = series_exp(g), series_exp([-p for p in g])
    product = [
        sum((math.comb(n, i) * a[i] * b[n - i] for i in range(n + 1)), ZERO)
        for n in range(len(g))
    ]
    assert product == [ONE] + [ZERO] * (len(g) - 1)


def reference_exp(g):
    """T_0 = 1, T_{n+1} = sum C(n, i) g_{i+1} T_{n-i} on plain Fractions."""
    rows = [[Fraction(1)]]
    for n in range(len(g) - 1):
        size = max(len(g[i + 1]) + len(rows[n - i]) for i in range(n + 1))
        out = [Fraction(0)] * size
        for i in range(n + 1):
            for j, a in enumerate(g[i + 1]):
                for k, b in enumerate(rows[n - i]):
                    out[j + k] += math.comb(n, i) * a * b
        rows.append(out)
    return [ExactPolynomial(row) for row in rows]


@st.composite
def egf_inputs(draw):
    """EGF coefficient lists of order 0..16: integer, geometric
    g_p = (a/b)^p q_p (denominators growing like b^p, the shape of a
    rational rate m), or small arbitrary rationals."""
    order = draw(st.integers(0, 16))
    shape = draw(st.sampled_from(["integer", "geometric", "rational"]))
    if shape == "rational":
        entries = st.lists(rationals, max_size=3)
    else:
        entries = st.lists(st.integers(-20, 20), max_size=4)
    tail = draw(st.lists(entries, min_size=order, max_size=order))
    if shape == "geometric":
        r = Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 9)))
        tail = [[c * r**p for c in q] for p, q in enumerate(tail, 1)]
    return [[]] + [[Fraction(c) for c in q] for q in tail]


@settings(max_examples=80, deadline=None)
@given(egf_inputs())
def test_series_exp_matches_fraction_reference(g):
    assert series_exp([ExactPolynomial(q) for q in g]) == reference_exp(g)

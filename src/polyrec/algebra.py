"""Exact arithmetic layer: dense rational polynomials and the exponential
of a power series in z, both sides given by EGF coefficients.

`ExactPolynomial` holds `fractions.Fraction` coefficients, fully reduced,
so identity tests are exact; it is immutable and is the exchange format
between layers.  The heavy loops do not run on it: both int kernels step
plain `int` coefficient lists through the one convolution `add_product` and
convert once per finished row.  `recurrence.advance` scales its rows by one
common denominator D^n; `series_exp` scales row n by c^n for one integer c
chosen from the denominators of its input (c = 1 for integer input).
Floating point enters the picture only in the distribution and asymptotics
layers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import NonzeroConstantTermError

Scalar = Union[int, Fraction]


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats outright."""
    # int first: isinstance(int_value, Fraction) is a slow ABC check
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


class ExactPolynomial:
    """Dense univariate polynomial over exact rationals.

    Index j of the coefficient tuple is the power of x.  The representation
    is normalized: no trailing zero coefficients, and the zero polynomial is
    the empty tuple with degree -1.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self._coeffs = tuple(cs)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of x^j (zero beyond the degree)."""
        if 0 <= j < len(self._coeffs):
            return self._coeffs[j]
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        return self._coeffs[-1] if self._coeffs else Fraction(0)

    def __add__(self, other: ExactPolynomial) -> ExactPolynomial:
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] += c
        return ExactPolynomial(out)

    def __neg__(self) -> ExactPolynomial:
        return ExactPolynomial(-c for c in self._coeffs)

    def __sub__(self, other: ExactPolynomial) -> ExactPolynomial:
        return self + (-other)

    def __mul__(self, other) -> ExactPolynomial:
        if isinstance(other, ExactPolynomial):
            if not self._coeffs or not other._coeffs:
                return ZERO
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a:
                    for j, b in enumerate(other._coeffs):
                        out[i + j] += a * b
            return ExactPolynomial(out)
        if isinstance(other, (int, Fraction)):
            t = as_fraction(other)
            return ExactPolynomial(c * t for c in self._coeffs)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> ExactPolynomial:
        """Formal derivative with respect to x."""
        return ExactPolynomial(j * c for j, c in enumerate(self._coeffs) if j)

    def __call__(self, t: Scalar) -> Fraction:
        """Exact Horner evaluation."""
        t = as_fraction(t)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return format_terms(self._coeffs)

    def __repr__(self) -> str:
        return f"ExactPolynomial({self})"


def format_terms(coeffs: Sequence[Fraction]) -> str:
    """Render a coefficient vector as a human-readable sum of monomials,
    highest power first (canonical form shared with the spec language)."""
    if not any(coeffs):
        return "0"
    parts: list[str] = []
    for j in range(len(coeffs) - 1, -1, -1):
        c = coeffs[j]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if j == 0:
            body = str(mag)
        else:
            xpart = "x" if j == 1 else f"x^{j}"
            body = xpart if mag == 1 else f"{mag}{xpart}"
        if not parts:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def monomial(power: int, coeff: Scalar = 1) -> ExactPolynomial:
    """The polynomial coeff * x^power."""
    return ExactPolynomial((Fraction(0),) * power + (as_fraction(coeff),))


ZERO = ExactPolynomial()
ONE = ExactPolynomial((1,))
X = ExactPolynomial((0, 1))


def lcm_of_denominators(values: Sequence[Fraction]) -> int:
    return math.lcm(1, *(v.denominator for v in values))


def scaled_ints(values: Sequence[Fraction], factor: int) -> tuple[int, ...]:
    """factor * values as ints; factor must be a multiple of each denominator."""
    return tuple(v.numerator * (factor // v.denominator) for v in values)


def add_product(
    out: list[int], a: Sequence[int], b: Sequence[int], scale: int = 1
) -> None:
    """out += scale * a * b for int coefficient lists (lowest power first);
    out must be long enough.  The one convolution kernel of the package."""
    for i, ai in enumerate(a):
        if ai:
            f = scale * ai
            for j, bj in enumerate(b, i):
                out[j] += f * bj


def _exp_scale(g: Sequence[ExactPolynomial]) -> int:
    """An integer c >= 1 with c^p g[p] integral for every p >= 1.

    Starts from the denominators of g[1] and multiplies in only what each
    later g[p] still lacks, so data whose denominators grow like b^p (as
    for a rational rate m = a/b) get c of order b, not b^N.  It is 1 when
    every g[p] has integer coefficients.
    """
    c = 1
    for p, poly in enumerate(g[1:], 1):
        need = lcm_of_denominators(poly.coeffs)
        power = c**p
        if power % need:
            c *= need // math.gcd(need, power)
    return c


def series_exp(g: Sequence[ExactPolynomial]) -> list[ExactPolynomial]:
    """EGF coefficients of exp(f), given those of f.

    `g[p]` is p! [z^p] f(z, x) for p = 0..N; the result T has
    T[n] = n! [z^n] exp(f) for n = 0..N, from the binomial convolution

        T_0 = 1,   T_{n+1} = sum_{i=0..n} C(n, i) g_{i+1} T_{n-i}

    (the Bell-number recurrence, read off from (e^f)' = f' e^f).  It runs
    on `int` lists: with c from `_exp_scale` and h_p = c^p g_p, the rows
    U_n = c^n T_n obey the same recurrence with h in place of g, and each
    is divided by c^n once at the end (not at all when c = 1).  A nonzero
    constant term is rejected since exp of it is transcendental; an empty
    g gives an empty result.
    """
    if not g:
        return []
    if not g[0].is_zero:
        raise NonzeroConstantTermError(
            "series_exp needs a zero constant term, got %s" % (g[0],)
        )
    c = _exp_scale(g)
    h = [scaled_ints(poly.coeffs, c**p) for p, poly in enumerate(g)]
    rows: list[list[int]] = [[1]]
    for n in range(len(g) - 1):
        terms = [
            (h[i + 1], rows[n - i], i) for i in range(n + 1) if h[i + 1] and rows[n - i]
        ]
        out = [0] * max((len(a) + len(b) - 1 for a, b, _ in terms), default=0)
        for a, b, i in terms:
            add_product(out, a, b, math.comb(n, i))
        while out and not out[-1]:
            out.pop()
        rows.append(out)
    return [
        ExactPolynomial(row if c == 1 else [Fraction(u, c**n) for u in row])
        for n, row in enumerate(rows)
    ]

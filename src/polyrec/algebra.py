"""Exact arithmetic layer: dense rational polynomials and the exponential
of a power series in z, both sides given by EGF coefficients.

`ExactPolynomial`, the package's one row type, is a tuple of `int`
numerators over one `int` denominator.  The int kernels hand their rows
over as such pairs without touching a coefficient: `recurrence.advance`
scales row n by one common denominator d0 D^n, and `exp_rows` scales row n
by c^n for one integer c chosen from the denominators of its input; both
build plain `int` lists through the one convolution `add_products`.  For
integer data the denominator is 1.  A pair is brought to lowest terms when
the row is built (integer rows skip the gcd), so the stored pair is the
value and `==` and `hash` compare it directly; `coeffs`, the `Fraction`
view, is built on each read.  Floating point enters the picture only in the
distribution and asymptotics layers.  `Record` is the tuple base of the
package's records: a record's `__new__` parameters name its fields.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import NonzeroConstantTermError

Scalar = Union[int, Fraction]

# the largest exponent and lag depth a spec may name, in spec text or as a
# catalog parameter: a polynomial holds one coefficient per power up to its
# degree, and the EGF exponent one z-power per lag depth
MAX_EXPONENT = 10_000


def as_fraction(value: Scalar) -> Fraction:
    """Coerce an int or Fraction to Fraction, rejecting floats outright."""
    # int first: isinstance(int_value, Fraction) is a slow ABC check
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    raise TypeError(f"exact scalar expected, got {type(value).__name__}")


class Record(tuple):
    """A tuple with named, read-only fields: the parameters of the subclass's
    `__new__`, which returns `tuple.__new__(cls, (field, ...))`.  `_make`
    and `_replace` build through it, so its checks run on them too."""

    __slots__ = ()

    def __init_subclass__(cls):
        code, defaults = cls.__new__.__code__, cls.__new__.__defaults__ or ()
        fields = cls._fields = cls.__match_args__ = code.co_varnames[1 : code.co_argcount]
        cls._field_defaults = dict(zip(fields[len(fields) - len(defaults) :], defaults))
        for i, name in enumerate(fields):
            setattr(cls, name, property(operator.itemgetter(i)))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, **changes):
        values = [changes.pop(name, value) for name, value in zip(self._fields, self)]
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return self._make(values)

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(map('{}={!r}'.format, self._fields, self))})"

    def __getnewargs__(self) -> tuple:  # copy and pickle rebuild through `__new__`
        return tuple(self)


class ExactPolynomial:
    """Dense univariate polynomial over exact rationals: coefficient j, of
    x^j, is numerator j over one positive denominator.

    The pair is in lowest terms and has no trailing zero numerators; the
    zero polynomial has none, denominator 1 and degree -1.  The value is
    immutable.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [as_fraction(c) for c in coeffs]
        den = math.lcm(1, *(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def from_scaled(
        cls, numerators: Iterable[int], denominator: int = 1
    ) -> ExactPolynomial:
        """The polynomial with coefficients numerators[j] / denominator; the
        pair need not be in lowest terms, it is reduced here."""
        if denominator < 1:
            raise ValueError(f"denominator must be >= 1, got {denominator}")
        poly = cls.__new__(cls)
        poly._set(numerators, denominator)
        return poly

    def _set(self, nums: Iterable[int], den: int) -> None:
        nums = tuple(nums)
        end = len(nums)
        while end and not nums[end - 1]:
            end -= 1
        nums = nums[:end]
        if den > 1:
            g = math.gcd(den, *nums)
            if g > 1:
                nums, den = tuple(q // g for q in nums), den // g
        self._nums, self._den = nums, den

    @property
    def numerators(self) -> tuple[int, ...]:
        """Numerators over `denominator`, in lowest terms."""
        return self._nums

    @property
    def denominator(self) -> int:
        """The lcm of the coefficients' reduced denominators."""
        return self._den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on each read."""
        return tuple(Fraction(q, self._den) for q in self._nums)

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def coefficient(self, j: int) -> Fraction:
        """Coefficient of x^j (zero beyond the degree)."""
        if 0 <= j < len(self._nums):
            return Fraction(self._nums[j], self._den)
        return Fraction(0)

    @property
    def leading_coefficient(self) -> Fraction:
        return self.coefficient(self.degree)

    def __add__(self, other: ExactPolynomial) -> ExactPolynomial:
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        den = math.lcm(self._den, other._den)
        terms = [((den // p._den,), p._nums, 1) for p in (self, other)]
        return ExactPolynomial.from_scaled(add_products(terms), den)

    def __neg__(self) -> ExactPolynomial:
        return ExactPolynomial.from_scaled([-q for q in self._nums], self._den)

    def __sub__(self, other: ExactPolynomial) -> ExactPolynomial:
        return self + (-other)

    def __mul__(self, other) -> ExactPolynomial:
        if isinstance(other, (int, Fraction)):
            other = ExactPolynomial((other,))
        if not isinstance(other, ExactPolynomial):
            return NotImplemented
        out = add_products([(self._nums, other._nums, 1)])
        return ExactPolynomial.from_scaled(out, self._den * other._den)

    __rmul__ = __mul__

    def derivative(self) -> ExactPolynomial:
        """Formal derivative with respect to x."""
        return ExactPolynomial.from_scaled(
            [j * q for j, q in enumerate(self._nums) if j], self._den
        )

    def __call__(self, t: Scalar) -> Fraction:
        """Exact evaluation: sum_j q_j a^j b^(deg - j) / (den b^deg) at
        t = a/b, by Horner on ints."""
        t = as_fraction(t)
        a, b = t.numerator, t.denominator
        acc, scale = 0, 1
        for q in reversed(self._nums):
            acc = acc * a + q * scale
            scale *= b
        return Fraction(acc * b, self._den * scale)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactPolynomial):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __str__(self) -> str:
        return format_terms(self.coeffs)

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


def scaled_ints(poly: ExactPolynomial, factor: int) -> tuple[int, ...]:
    """factor * poly as ints; factor must be a multiple of poly.denominator."""
    k = factor // poly.denominator
    return tuple(q * k for q in poly.numerators)


def add_products(terms: Iterable[tuple], out: Optional[list] = None) -> list:
    """out plus the sum of scale * a * b over the (a, b, scale) terms, as a
    coefficient list (lowest power first) without trailing zeros: the one
    convolution kernel of the package.

    `out` (a new list when omitted) is extended to the longest product,
    accumulated into, trimmed and returned; a term with an empty list or a
    zero scale adds nothing.  `scale` and `a` are ints; `b` and `out` may
    hold any numbers that add and multiply with ints (`recurrence` steps
    `Decimal` rows through here).  A cell receives its additions in term
    order, then in the order of a's entries.  A unit factor adds b by one
    slice assignment, saving a multiply or an int-to-number conversion per entry.
    """
    terms = [(a, b, scale) for a, b, scale in terms if a and b and scale]
    out = [] if out is None else out
    size = max((len(a) + len(b) - 1 for a, b, _ in terms), default=0)
    out += [0] * (size - len(out))
    for a, b, scale in terms:
        for i, ai in enumerate(a):
            if ai:
                f = scale * ai
                if f == 1:
                    out[i : i + len(b)] = map(operator.add, out[i : i + len(b)], b)
                else:
                    for j, bj in enumerate(b, i):
                        out[j] += f * bj
    while out and not out[-1]:
        out.pop()
    return out


def _exp_scale(g: Sequence[ExactPolynomial]) -> int:
    """An integer c >= 1 with c^p g[p] integral for every p >= 1.

    Starts from the denominators of g[1] and multiplies in only what each
    later g[p] still lacks, so data whose denominators grow like b^p (as
    for a rational rate m = a/b) get c of order b, not b^N.  It is 1 when
    every g[p] has integer coefficients.
    """
    c = 1
    for p, poly in enumerate(g[1:], 1):
        need = poly.denominator
        power = c**p
        if power % need:
            c *= need // math.gcd(need, power)
    return c


def exp_rows(g: Sequence[ExactPolynomial]) -> Iterator[ExactPolynomial]:
    """EGF coefficients of exp(f), given those of f, each yielded as it is built.

    `g[p]` is p! [z^p] f(z, x) for p = 0..N; row n is
    T[n] = n! [z^n] exp(f) for n = 0..N, from the binomial convolution

        T_0 = 1,   T_{n+1} = sum_{i=0..n} C(n, i) g_{i+1} T_{n-i}

    (the Bell-number recurrence, read off from (e^f)' = f' e^f).  It runs
    on `int` lists: with c from `_exp_scale` and h_p = c^p g_p, the rows
    U_n = c^n T_n obey the same recurrence with h in place of g, and each
    is handed over as the pair (U_n, c^n); every U is kept for the
    convolution.  A nonzero constant term is rejected at the first draw
    since exp of it is transcendental; an empty g gives no rows.
    """
    if not g:
        return
    if not g[0].is_zero:
        raise NonzeroConstantTermError(
            "series_exp needs a zero constant term, got %s" % (g[0],)
        )
    c = _exp_scale(g)
    h = [scaled_ints(poly, c**p) for p, poly in enumerate(g)]
    rows: list[list[int]] = [[1]]
    pascal = [1]  # C(n, i) for i = 0..n
    yield ONE
    for n in range(len(g) - 1):
        # the terms (h_{i+1}, U_{n-i}, C(n, i)) for i = 0..n
        rows.append(add_products(zip(h[1:], reversed(rows), pascal)))
        pascal = [1, *map(operator.add, pascal, pascal[1:]), 1]
        yield ExactPolynomial.from_scaled(rows[-1], c ** (n + 1))


def series_exp(g: Sequence[ExactPolynomial]) -> list[ExactPolynomial]:
    """The rows of `exp_rows` as a list."""
    return list(exp_rows(g))

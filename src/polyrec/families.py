"""Catalog of named polynomial families.

Each family is one record in FAMILIES: its parameters, OEIS ids, and its
partition model (r, m, s, w), or its own recurrence where it has no model.
A descriptor bundles the recurrence data, the OEIS ids, and, built from the
recurrence by `build_exponent` on first read, the closed-form exponent of
the exponential generating function and the constants (d, alpha_d) that
decide whether the n/log n normal limit applies.

The exponent is stored as the factors of the equation it solves.  A term
k x^j of a depth-s factor contributes k z^s/s! to f when j = 0, and

    k x^j (j m)^{-s} T_s(j m z),    T_s(w) = e^w - sum_{i<s} w^i/i!,

when j >= 1.  Summed over the depths, the coefficients k/(j m)^s of
x^j e^{j m z} = u^j, u = x e^{m z}, make up the polynomial Q2(u), with zero
constant term: the growth-carrying part of f, whose degree d and leading
coefficient alpha_d drive all of the asymptotics.  `egf_series` expands
e^f in the EGF (binomial) domain: `SaddleFunction.egf_coefficients` gives
p! [z^p] f and `algebra.exp_rows` turns them into n! [z^n] e^f, one row at
a time, so no 1/p! denominators appear on the way.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Iterator
from fractions import Fraction

from . import recurrence
from .algebra import (
    MAX_EXPONENT,
    ONE,
    X,
    ZERO,
    ExactPolynomial,
    Record,
    monomial,
    as_fraction,
    exp_rows,
)
from .errors import (
    InvalidIndexError,
    ParameterError,
    SaddleOverflowError,
    UnknownFamilyError,
    UnsupportedShapeError,
)
from .recurrence import LagTerm, RecurrenceSpec, TriangleRow


class SaddleFunction(Record):
    """Exponent f(z, x) of a family's EGF, stored as the factors (s, kappa)
    of its equation f_z - m x f_x = sum kappa(x) z^{s-1}/(s-1)!, f(0, x) = 0:
    one kappa per depth s >= 1, merged by depth, zero kappa dropped, sorted
    by depth.  `m` is kept as a Fraction.  A term k x^j of a depth-s factor
    contributes k z^s/s! to f when j = 0, and k x^j (j m)^{-s} T_s(j m z)
    when j >= 1, where T_s(w) = e^w - sum_{i<s} w^i/i!.
    """

    # no __slots__: the cached `q2` and `floats` live in the instance dict

    def __new__(cls, factors, m):
        merged = {}
        for s, kappa in factors:
            merged[s] = merged.get(s, ZERO) + kappa
        m = as_fraction(m)
        if m <= 0 or min(merged, default=1) < 1:
            raise ValueError("m must be > 0 and factor depths >= 1")
        factors = tuple((s, merged[s]) for s in sorted(merged) if not merged[s].is_zero)
        return tuple.__new__(cls, (factors, m))

    def egf_coefficients(self, order: int) -> list[ExactPolynomial]:
        """G_p = p! [z^p] f(z, x) for p = 0..order, read off the equation at
        z^p: G_0 = 0, G_{p+1} = m x G_p' + kappa_{p+1}."""
        kappa, a, b = dict(self.factors), self.m.numerator, self.m.denominator
        out = [ZERO]
        for p in range(1, order + 1):
            nums, den = out[-1].numerators, out[-1].denominator
            d = ExactPolynomial.from_scaled([a * j * q for j, q in enumerate(nums)], den * b)
            out.append(d + kappa[p] if p in kappa else d)
        return out

    @functools.cached_property
    def q2(self) -> ExactPolynomial:
        """Q2(u) = sum_j Q2[j] u^j, the part of f that grows with u = x e^{m z}:
        a term k x^j (j >= 1) of a depth-s factor adds k/(j m)^s to Q2[j]."""
        m, factors = self.m, self.factors
        width = max((kappa.degree for _, kappa in factors), default=0) + 1
        sums = [sum(k.coefficient(j) / (j * m) ** s for s, k in factors) for j in range(1, width)]
        return ExactPolynomial([0, *sums])

    @functools.cached_property
    def floats(self) -> tuple[float, tuple[tuple[int, int, float], ...]]:
        """(m, terms) as floats for the saddle solver: one (s, j, c) per term
        k x^j of a depth-s factor, in factor order, with c = k/(j m)^s, the
        coefficient of its e^{j m z}, when j >= 1, and c = k when j = 0.  A c
        that rounds to 0 is left out."""
        m, what = self.m, "a coefficient of the EGF exponent"
        try:
            terms = [
                (s, j, float(k / (j * m) ** s if j else k))
                for s, kappa in self.factors
                for j, k in enumerate(kappa.coeffs)
                if k
            ]
            what = "m"
            m = float(m)
        except OverflowError:
            raise SaddleOverflowError(f"{what} is past the float range") from None
        return m, tuple(term for term in terms if term[2])


class TheoremConstants(Record):
    """Degree and leading coefficient of Q2, plus the hypothesis flag for
    the n/log n normal limit (d >= 1, alpha_d > 0, m > 0)."""

    __slots__ = ()

    def __new__(cls, d, alpha_d, hypothesis_ok):
        return tuple.__new__(cls, (d, alpha_d, hypothesis_ok))


def theorem_constants(saddle: SaddleFunction) -> TheoremConstants:
    # a zero Q2 reads as degree 0 with leading coefficient 0; m > 0 always
    d, alpha = max(saddle.q2.degree, 0), saddle.q2.leading_coefficient
    return TheoremConstants(d, alpha, d >= 1 and alpha > 0)


def build_exponent(spec: RecurrenceSpec) -> SaddleFunction:
    """Closed-form EGF exponent of a spec whose lags are all binomially
    weighted and whose start polynomial is a monomial c x^r.

    Writing row start_index + n as c x^r R_n, the exponent f with
    R_n = n! [z^n] e^f solves

        f_z - m x f_x = gamma(x) + m r + sum_lags kappa(x) z^{s-1}/(s-1)!,

    f(0, x) = 0, where gamma + m r counts as a factor of depth 1: these are
    the factors stored.  A shifted start index moves the binomial lag
    weights, so it is supported only without lags.
    """
    start = spec.start_poly
    if any(start.coeffs[:-1]):
        raise UnsupportedShapeError(
            "closed-form exponent requires a monomial start polynomial c x^r"
        )
    if spec.start_index != 0 and spec.lags:
        raise UnsupportedShapeError(
            "closed-form exponent requires start index 0 when lags are present"
        )
    if not all(lag.binom_weight for lag in spec.lags):
        raise UnsupportedShapeError(
            "only binomially weighted lags have a closed-form exponent"
        )
    gamma = spec.gamma + ExactPolynomial((spec.m * start.degree,))
    return SaddleFunction([(1, gamma), *((lag.s, lag.kappa) for lag in spec.lags)], spec.m)


class FamilyDescriptor(Record):
    """A named family: recurrence and metadata.

    Row `spec.start_index + n` of the spec equals
    `spec.start_poly * n! * [z^n] exp(f)`, where f is `saddle`.
    `parameters` maps each parameter name to its value, in order.  The
    partition model that the enumeration oracle checks is read off `spec`.
    """

    # no __slots__: the cached `saddle` lives in the instance dict

    def __new__(cls, name, parameters, spec, oeis_refs=()):
        return tuple.__new__(cls, (name, parameters, spec, oeis_refs))

    def __hash__(self) -> int:
        # leave out the parameters: a dict has no hash
        return hash((self.name, self.spec, self.oeis_refs))

    @property
    def label(self) -> str:
        """The name and parameters in order, e.g. "dowling(m=2)", or the bare
        name when there are none."""
        inner = ",".join(f"{key}={value}" for key, value in self.parameters.items())
        return f"{self.name}({inner})" if inner else self.name

    @functools.cached_property
    def saddle(self) -> SaddleFunction:
        """The EGF exponent f, built from `spec` on first read; raises
        UnsupportedShapeError when the spec has no closed form."""
        return build_exponent(self.spec)

    def constants(self) -> TheoremConstants:
        return theorem_constants(self.saddle)


def egf_series(descriptor: FamilyDescriptor, order: int) -> Iterator[ExactPolynomial]:
    """Rows predicted by the EGF: start_poly * n! * [z^n] exp(f), n = 0..order."""
    if order < 0:
        raise InvalidIndexError(f"egf_rows needs order >= 0, got {order}")
    series = exp_rows(descriptor.saddle.egf_coefficients(order))
    start_poly = descriptor.spec.start_poly
    yield from series if start_poly == ONE else (start_poly * t for t in series)


def egf_rows(descriptor: FamilyDescriptor, order: int) -> list[ExactPolynomial]:
    """The rows of `egf_series` as a list."""
    return list(egf_series(descriptor, order))


def verify_egf_identity(
    descriptor: FamilyDescriptor, order: int
) -> tuple[int, ExactPolynomial, ExactPolynomial] | None:
    """Cross-check the recurrence against the EGF exponent.

    Returns None when EGF rows 0..order all match exactly, else the first
    (row, from_recurrence, from_egf) mismatch; the series stops there.
    """
    rows = recurrence.rows(descriptor.spec, order + descriptor.spec.start_index)
    for want, row in zip(egf_series(descriptor, order), rows):
        if row.poly != want:
            return (row.n, row.poly, want)
    return None


class NonnegativityReport(Record):
    """No entry negative; the first negative entry's (n, k) or None; the rows summing to 0."""

    __slots__ = ()

    def __new__(cls, ok, first_negative, zero_sum_rows):
        return tuple.__new__(cls, (ok, first_negative, zero_sum_rows))


def validate_nonnegativity(rows: Iterable[TriangleRow]) -> NonnegativityReport:
    """Scan triangle rows for negative entries and zero row sums.

    Zero-sum rows are legal (they occur for block-size-restricted families
    at small n) but carry no probability mass, so they are reported for the
    distribution layer to skip.
    """
    first_negative = None
    zero_sums = []
    for row in rows:
        nums = row.poly.numerators
        if first_negative is None and min(nums, default=0) < 0:
            first_negative = (row.n, next(k for k, q in enumerate(nums) if q < 0))
        if not sum(nums):
            zero_sums.append(row.n)
    return NonnegativityReport(first_negative is None, first_negative, tuple(zero_sums))


def _require_int(params: dict, key: str, minimum: int | None, maximum: int | None) -> int:
    if key not in params:
        raise ParameterError(f"missing parameter {key!r}")
    value = params[key]
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ParameterError(f"parameter {key!r} must be an integer, got {value}")
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParameterError(f"parameter {key!r} must be an integer")
    if minimum is not None and value < minimum:
        raise ParameterError(f"parameter {key!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ParameterError(f"parameter {key!r} must be <= {maximum}, got {value}")
    return value


def _ids(table: dict, key) -> tuple[str, ...]:
    return (table[key],) if key in table else ()


def _model_spec(r: int, m: int, s: int, w: int) -> RecurrenceSpec:
    """The recurrence of the partition model (r, m, s, w): gamma = r + w x
    when s = 1, else gamma = r and the binomial lag w m^(s-1) x at depth s."""
    if s == 1:
        return RecurrenceSpec(gamma=ExactPolynomial((r, w)), m=m)
    lag = LagTerm(s=s, kappa=monomial(1, w * m ** (s - 1)), binom_weight=True)
    return RecurrenceSpec(gamma=ExactPolynomial((r,)), m=m, lags=(lag,))


_DOWLING_ROWSUM_IDS = {
    2: "A007405",
    **{m: f"A{3575 + m - 3:06d}" for m in range(3, 11)},
    64: "A364069",
    624: "A364070",
}

_TRANSLATED_WHITNEY_IDS = {m: f"A{75497 + m - 2:06d}" for m in range(2, 11)}

_R_STIRLING_IDS = {2: "A143494", 3: "A143495", 4: "A143496"}

# also the stirling_frobenius(m) ids, keyed (m, m - 1)
_SHEFFER_IDS = {
    (1, 0): "A048993",
    (2, 1): "A039755",
    (3, 2): "A225468",
    (4, 3): "A225469",
}

_GALTON_IDS = {(2, -1): "A186695", (3, -2): "A111577"}


class Family(Record):
    """Everything the package knows about one catalog family.

    `params` maps each parameter, in label order, to its minimum (None for
    any integer); `depths` names those that set a start degree or a lag
    depth, each at most MAX_EXPONENT as in spec text.  `listed` is the
    instance whose ids `polyrec families` shows.  `spec`, `oeis` and `model`
    take the parameters as keywords and give the recurrence, the OEIS ids
    and the partition model (r, m, s, w).  A family names its spec or its
    model; the recurrence of a model is `_model_spec(r, m, s, w)`.
    """

    __slots__ = ()

    def __new__(cls, params, listed, spec=None, oeis=lambda **_: (), model=None, depths=()):
        return tuple.__new__(cls, (params, listed, spec, oeis, model, depths))


FAMILIES: dict[str, Family] = {
    "stirling2": Family(
        params={},
        listed={},
        oeis=lambda: ("A048993",),
        model=lambda: (0, 1, 1, 1),
    ),
    "whitney": Family(
        params={"m": 1, "c": None},
        listed={"m": 2, "c": 1},
        oeis=lambda m, c: ("A039755", "A039756") if (m, c) == (2, 1) else (),
        model=lambda m, c: (c, m, 1, 1),
    ),
    "translated_whitney": Family(
        params={"m": 1},
        listed={"m": 2},
        oeis=lambda m: _ids(_TRANSLATED_WHITNEY_IDS, m),
        model=lambda m: (0, m, 1, 1),
    ),
    "dowling": Family(
        params={"m": 1},
        listed={"m": 2},
        oeis=lambda m: _ids(_DOWLING_ROWSUM_IDS, m)
        + (("A039755",) if m == 2 else ()),
        model=lambda m: (1, m, 1, 1),
    ),
    "r_stirling": Family(
        params={"r": 0},
        listed={"r": 2},
        spec=lambda r: RecurrenceSpec(gamma=X, m=1, start_index=r, start_poly=monomial(r)),
        oeis=lambda r: _ids(_R_STIRLING_IDS, r),
        depths=("r",),
    ),
    "sheffer": Family(
        params={"d": 1, "a": 0},
        listed={"d": 2, "a": 1},
        oeis=lambda d, a: _ids(_SHEFFER_IDS, (d, a)),
        model=lambda d, a: (a, d, 1, d),
    ),
    "stirling_frobenius": Family(
        params={"m": 1},
        listed={"m": 2},
        oeis=lambda m: _ids(_SHEFFER_IDS, (m, m - 1)),
        model=lambda m: (m - 1, m, 1, 1),
    ),
    "galton": Family(
        params={"m": 1, "c": None},
        listed={"m": 2, "c": -1},
        oeis=lambda m, c: _ids(_GALTON_IDS, (m, c)),
        model=lambda m, c: (c, m, 1, 1),
    ),
    "assoc_stirling": Family(
        params={"s": 1},
        listed={"s": 2},
        model=lambda s: (0, 1, s, 1),
        depths=("s",),
    ),
    "r_whitney_assoc": Family(
        params={"m": 1, "r": 0, "s": 1},
        listed={"m": 2, "r": 1, "s": 2},
        model=lambda m, r, s: (r, m, s, 1),
        depths=("s",),
    ),
    "type_b": Family(
        params={"m": 1, "c": 1},
        listed={"m": 2, "c": 1},
        model=lambda m, c: (c, m, 1, 1),
    ),
}


def _family(name: str) -> Family:
    if name not in FAMILIES:
        raise UnknownFamilyError(f"unknown family {name!r}")
    return FAMILIES[name]


def catalog_names() -> tuple[str, ...]:
    return tuple(FAMILIES)


def family_parameters(name: str) -> tuple[str, ...]:
    return tuple(_family(name).params)


def catalog(name: str, **params) -> FamilyDescriptor:
    """Build the named family descriptor from its FAMILIES record.

    The parameters keep record order.
    """
    family = _family(name)
    if extra := set(params) - set(family.params):
        raise ParameterError(f"family {name!r} does not take parameter(s) {sorted(extra)}")
    values = {
        key: _require_int(params, key, minimum, MAX_EXPONENT if key in family.depths else None)
        for key, minimum in family.params.items()
    }
    return FamilyDescriptor(
        name=name,
        parameters=values,
        spec=family.spec(**values) if family.spec else _model_spec(*family.model(**values)),
        oeis_refs=family.oeis(**values),
    )

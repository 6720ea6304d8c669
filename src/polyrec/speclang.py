"""Text format for recurrence specifications and family invocations.

Grammar, informally (every statement ends with a semicolon):

    spec     := stmt+
    stmt     := "gamma" ":" poly ";"
              | "m" ":" rational ";"
              | "lag" ":" "{" s / coeff / binom pairs "}" ";"
              | "start" ":" "{" index / poly pairs "}" ";"
              | "family" ":" name "(" [param "=" rational, ...] ")" ";"
    poly     := ["+"|"-"] term { ("+"|"-") term }
    term     := rational ["x" ["^" int]] | "x" ["^" int]
    rational := int ["/" int]

An exponent and a lag depth s are each at most MAX_EXPONENT: a polynomial
holds one coefficient per power up to its degree, and the EGF exponent one
z-power per lag depth.

"family" cannot be combined with the other keys.  Defaults: start index 0,
start polynomial 1, no lags, binom false.  Coefficients are exact rationals;
floating literals are rejected.  A ParseError carries the 1-based
line:column of the offending token; a family's parameter values are checked
by `catalog` after parsing, and its ParameterError carries no position.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .algebra import MAX_EXPONENT, ONE, ExactPolynomial, Record
from .errors import ParseError
from .families import FamilyDescriptor, catalog, catalog_names, family_parameters
from .recurrence import LagTerm, RecurrenceSpec

_SYMBOLS = ":;{}(),=^/+-"

_M_POSITIVITY = (
    "m must be > 0: the normal limit law requires a positive derivative weight"
)


class SpecSource(Record):
    """Raw spec text plus where it came from (for error rendering)."""

    __slots__ = ()

    def __new__(cls, text, origin="<inline>"):
        return tuple.__new__(cls, (text, origin))


class FamilyRequest(Record):
    """A parsed catalog invocation, not yet built."""

    __slots__ = ()

    def __new__(cls, name, params):
        return tuple.__new__(cls, (name, params))

    def build(self) -> FamilyDescriptor:
        return catalog(self.name, **self.params)


class _Token(Record):
    # kind is "ident", "number", or the symbol itself
    __slots__ = ()

    def __new__(cls, kind, text, line, column):
        return tuple.__new__(cls, (kind, text, line, column))


def _tokenize(src: SpecSource) -> list[_Token]:
    text = src.text
    tokens = []
    line, line_start, i = 1, 0, 0
    while i < len(text):
        ch, j, kind = text[i], i + 1, None
        if ch == "\n":
            line, line_start = line + 1, j
        elif "0" <= ch <= "9":  # str.isdigit also admits '²' and '٣'
            kind = "number"
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
        elif ch.isalpha() or ch == "_":
            kind = "ident"
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
        elif ch in _SYMBOLS:
            kind = ch
        elif not ch.isspace():
            raise ParseError(src.origin, line, i - line_start + 1, f"unexpected character {ch!r}")
        if kind:
            tokens.append(_Token(kind, text[i:j], line, i - line_start + 1))
        i = j
    tokens.append(_Token("<eof>", "", line, i - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, src: SpecSource):
        self.origin = src.origin
        self.tokens = _tokenize(src)
        self.pos = 0
        self.values: dict = {}  # statement key -> parsed value

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "<eof>":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        raise ParseError(self.origin, tok.line, tok.column, message)

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.text else "end of input"
            self.fail(tok, f"expected {what}, found {found}")
        return self.next()

    # value parsers ----------------------------------------------------

    def number(self, tok: _Token) -> int:
        """The value of a number token; a literal past Python's int-to-str
        digit limit is rejected at the token."""
        try:
            return int(tok.text)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            self.fail(tok, f"number has {len(tok.text)} digits; the limit is {limit}")

    def rational(self) -> Fraction:
        sign = self.peek().kind
        if sign in ("+", "-"):
            self.next()
        value = Fraction(self.number(self.expect("number", "a number")))
        if sign == "-":
            value = -value
        if self.peek().kind == "/":
            self.next()
            den_tok = self.expect("number", "a denominator")
            den = self.number(den_tok)
            if den == 0:
                self.fail(den_tok, "zero denominator")
            value /= den
        return value

    def integer(self, what: str, minimum: int, maximum: int | None = None) -> int:
        tok = self.expect("number", f"{what} (a nonnegative integer)")
        value = self.number(tok)
        if value < minimum:
            self.fail(tok, f"{what} must be >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            self.fail(tok, f"{what} must be <= {maximum}, got {value}")
        return value

    def polynomial(self) -> ExactPolynomial:
        coeffs: dict[int, Fraction] = {}
        while True:
            sign = self.peek().kind
            if sign in ("+", "-"):
                self.next()
            term_tok = self.peek()
            if term_tok.kind == "number":
                coeff = self.rational()
            elif term_tok.kind == "ident":
                coeff = Fraction(1)
            else:
                self.fail(term_tok, "expected a polynomial term")
            power = 0
            var = self.peek()
            if var.kind == "ident":
                if var.text != "x":
                    self.fail(var, f"unknown variable {var.text!r} (only x is allowed)")
                self.next()
                power = 1
                if self.peek().kind == "^":
                    self.next()
                    power = self.integer("exponent", 0, MAX_EXPONENT)
            coeffs[power] = coeffs.get(power, 0) + (-coeff if sign == "-" else coeff)
            if self.peek().kind not in ("+", "-"):
                break
        top = max(coeffs, default=0)
        return ExactPolynomial([coeffs.get(j, Fraction(0)) for j in range(top + 1)])

    def boolean(self) -> bool:
        tok = self.expect("ident", "true or false")
        if tok.text not in ("true", "false"):
            self.fail(tok, f"expected true or false, found {tok.text!r}")
        return tok.text == "true"

    def object_pairs(self, what: str, keys: dict) -> dict:
        """Parse { key: value, ... } with per-key sub-parsers, into
        key -> (value, key token)."""
        self.expect("{", "'{'")
        seen: dict = {}
        while True:
            key_tok = self.expect("ident", f"a {what} field name")
            if key_tok.text not in keys:
                self.fail(
                    key_tok,
                    f"unknown {what} field {key_tok.text!r} "
                    f"(expected one of {', '.join(keys)})",
                )
            if key_tok.text in seen:
                self.fail(key_tok, f"duplicate {what} field {key_tok.text!r}")
            self.expect(":", "':'")
            seen[key_tok.text] = (keys[key_tok.text](), key_tok)
            if self.peek().kind != ",":
                self.expect("}", "',' or '}'")
                return seen
            self.next()

    # statements: each handler takes the key token and returns its value

    def m_value(self, key: _Token) -> Fraction:
        tok = self.peek()
        value = self.rational()
        if value <= 0:
            self.fail(tok, _M_POSITIVITY)
        return value

    def lag_value(self, key: _Token) -> dict[int, LagTerm]:
        """Every lag so far by depth, this one added."""
        fields = self.object_pairs(
            "lag",
            {
                "s": lambda: self.integer("lag depth s", 1, MAX_EXPONENT),
                "coeff": self.polynomial,
                "binom": self.boolean,
            },
        )
        if "s" not in fields:
            self.fail(key, "lag needs a depth field s")
        if "coeff" not in fields:
            self.fail(key, "lag needs a coefficient field coeff")
        (s, s_tok), (kappa, _) = fields["s"], fields["coeff"]
        lags = self.values.get("lag", {})
        if s in lags:
            self.fail(s_tok, f"duplicate lag depth {s}")
        binom = fields["binom"][0] if "binom" in fields else False
        return {**lags, s: LagTerm(s=s, kappa=kappa, binom_weight=binom)}

    def start_value(self, key: _Token) -> tuple[int, ExactPolynomial]:
        fields = self.object_pairs(
            "start",
            {"index": lambda: self.integer("start index", 0), "poly": self.polynomial},
        )
        poly, poly_tok = fields.get("poly", (ONE, key))
        if poly.is_zero:
            self.fail(poly_tok, "start polynomial must be nonzero")
        return fields["index"][0] if "index" in fields else 0, poly

    def family_value(self, key: _Token) -> FamilyRequest:
        name_tok = self.expect("ident", "a family name")
        if name_tok.text not in catalog_names():
            self.fail(
                name_tok,
                f"unknown family {name_tok.text!r} "
                f"(known: {', '.join(catalog_names())})",
            )
        allowed = family_parameters(name_tok.text)
        params: dict[str, int | Fraction] = {}
        self.expect("(", "'('")
        if self.peek().kind != ")":
            while True:
                p_tok = self.expect("ident", "a parameter name")
                if p_tok.text not in allowed:
                    self.fail(
                        p_tok,
                        f"family {name_tok.text!r} has no parameter {p_tok.text!r} "
                        f"(expected {', '.join(allowed) or 'none'})",
                    )
                if p_tok.text in params:
                    self.fail(p_tok, f"duplicate parameter {p_tok.text!r}")
                self.expect("=", "'='")
                value = self.rational()
                params[p_tok.text] = (
                    int(value) if value.denominator == 1 else value
                )
                if self.peek().kind != ",":
                    break
                self.next()
        self.expect(")", "')'")
        return FamilyRequest(name=name_tok.text, params=params)

    def parse(self) -> RecurrenceSpec | FamilyRequest:
        handlers = {
            "gamma": lambda key: self.polynomial(),
            "m": self.m_value,
            "lag": self.lag_value,
            "start": self.start_value,
            "family": self.family_value,
        }
        values = self.values
        if self.peek().kind == "<eof>":
            self.fail(self.peek(), "empty specification: expected at least one statement")
        while self.peek().kind != "<eof>":
            key = self.expect("ident", "a statement key")
            if "family" in values or (key.text == "family" and values):
                self.fail(key, "family cannot be combined with other statements")
            self.expect(":", "':'")
            if key.text not in handlers:
                self.fail(
                    key,
                    f"unknown key {key.text!r} "
                    "(expected gamma, m, lag, start, or family)",
                )
            if key.text in values and key.text != "lag":
                self.fail(key, f"duplicate key {key.text!r}")
            values[key.text] = handlers[key.text](key)
            self.expect(";", "';'")

        if "family" in values:
            return values["family"]
        for required in ("gamma", "m"):
            if required not in values:
                self.fail(self.peek(), f"missing required key: {required}")
        index, poly = values.get("start", (0, ONE))
        return RecurrenceSpec(
            gamma=values["gamma"],
            m=values["m"],
            lags=tuple(values.get("lag", {}).values()),
            start_index=index,
            start_poly=poly,
        )


def parse(src: SpecSource | str) -> RecurrenceSpec | FamilyRequest:
    """Parse spec text into a RecurrenceSpec or a FamilyRequest."""
    if isinstance(src, str):
        src = SpecSource(src)
    return _Parser(src).parse()


def load(src: SpecSource | str) -> RecurrenceSpec | FamilyDescriptor:
    """Parse, and additionally build the descriptor for family requests."""
    parsed = parse(src)
    if isinstance(parsed, FamilyRequest):
        return parsed.build()
    return parsed


def format_spec(obj: RecurrenceSpec | FamilyRequest | FamilyDescriptor) -> str:
    """Canonical rendering; parse(format_spec(s)) reproduces s when no
    degree or lag depth exceeds MAX_EXPONENT.

    A catalog descriptor renders as its family invocation, any other (such
    as the "custom" one of a spec) as its spec.  Field order: gamma, m, lags
    (ascending depth), start (only when it is not the default).
    """
    if isinstance(obj, FamilyDescriptor):
        if obj.name in catalog_names():
            params = {k: obj.parameters[k] for k in family_parameters(obj.name)}
            obj = FamilyRequest(obj.name, params)
        else:
            obj = obj.spec
    if isinstance(obj, FamilyRequest):
        inner = ",".join(f"{k}={v}" for k, v in obj.params.items())
        return f"family: {obj.name}({inner});"
    parts = [f"gamma: {obj.gamma}", f"m: {obj.m}"]
    for lag in sorted(obj.lags, key=lambda t: t.s):
        parts.append(
            "lag: {s: %d, coeff: %s, binom: %s}"
            % (lag.s, lag.kappa, "true" if lag.binom_weight else "false")
        )
    if obj.start_index != 0 or obj.start_poly != ONE:
        parts.append(
            "start: {index: %d, poly: %s}" % (obj.start_index, obj.start_poly)
        )
    return "; ".join(parts) + ";"

"""Independent references for the correctness gate.

Plain-int and plain-Fraction-list code that shares nothing with polyrec.
`expected(ref)` returns the sha256 and byte count of the exact stdout that
`polyrec` must print for a job (see workloads.Job.ref).  The integer
triangles are checked here against Bell and Dowling numbers computed by
other recurrences before any digest is taken.
"""

from __future__ import annotations

import functools
import hashlib
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Sequence


class ReferenceMismatch(Exception):
    """The bench's own references disagree with each other."""


def bell_numbers(n_max: int) -> list[int]:
    """B_0 .. B_n_max from the Bell triangle."""
    row, out = [1], [1]
    for _ in range(n_max):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
        out.append(row[0])
    return out


def dowling_numbers(m: int, n_max: int) -> list[int]:
    """Row sums of the Dowling triangle, EGF exp(z + (e^{mz} - 1)/m), from
    D_{n+1} = D_n + sum_k C(n,k) m^k D_{n-k}."""
    out = [1]
    for n in range(n_max):
        out.append(out[n] + sum(math.comb(n, k) * m**k * out[n - k] for k in range(n + 1)))
    return out


def wang_rows(m: int, c: int, n_max: int) -> list[list[int]]:
    """T(n,k) = T(n-1,k-1) + (c + m k) T(n-1,k), T(0,0) = 1."""
    rows = [[1]]
    for _ in range(n_max):
        prev = rows[-1]
        nxt = [0] * (len(prev) + 1)
        for k, value in enumerate(prev):
            nxt[k + 1] += value
            nxt[k] += (c + m * k) * value
        rows.append(nxt)
    return rows


@functools.lru_cache(maxsize=16)
def recurrence_rows(rec, n_max: int) -> list[list[Fraction]]:
    """Rows of P_n = gamma P_{n-1} + m x P'_{n-1} + sum w kappa P_{n-s}, P_0 = 1.

    Cached because a spec's triangle and moments jobs need the same rows;
    callers must not modify the result."""
    rows = [[Fraction(1)]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        terms = [(rec.gamma, prev, 1)]
        for s, kappa, binom in rec.lags:
            if n - s >= 0:
                terms.append((kappa, rows[n - s], math.comb(n - 1, s - 1) if binom else 1))
        width = max(len(poly) + len(row) - 1 for poly, row, _ in terms)
        nxt = [Fraction(0)] * max(width, len(prev))
        for k, value in enumerate(prev):
            nxt[k] += rec.m * k * value
        for poly, row, weight in terms:
            for j, coeff in enumerate(poly):
                if coeff:
                    for k, value in enumerate(row):
                        nxt[j + k] += weight * coeff * value
        while nxt and nxt[-1] == 0:
            nxt.pop()
        rows.append(nxt)
    return rows


def _digest(lines: Iterable[str]) -> tuple[str, int]:
    """Digest of the lines joined by newlines plus the final newline."""
    h = hashlib.sha256()
    size = 0
    sep = ""
    for line in lines:
        data = (sep + line).encode()
        h.update(data)
        size += len(data)
        sep = "\n"
    h.update(b"\n")
    return h.hexdigest(), size + 1


def _triangle_lines(rows: Sequence[Sequence]) -> Iterable[str]:
    width = max(len(row) for row in rows)
    yield ",".join(["n"] + [f"c{k}" for k in range(width)])
    for n, row in enumerate(rows):
        yield ",".join([str(n)] + [str(v) for v in row] + ["0"] * (width - len(row)))


def _moment_lines(rows: Sequence[Sequence[Fraction]], ns: Sequence[int]) -> Iterable[str]:
    yield "n,mean,variance,skewness,excess_kurtosis"
    for n in sorted(set(ns)):
        total = sum(rows[n])
        probs = [(k, c / total) for k, c in enumerate(rows[n]) if c > 0]
        mean = sum(k * q for k, q in probs)
        central = [sum((k - mean) ** j * q for k, q in probs) for j in (2, 3, 4)]
        if central[0] == 0:
            skew = kurt = 0.0
        else:
            sigma = math.sqrt(float(central[0]))
            skew = float(central[1]) / sigma**3
            kurt = float(central[2]) / sigma**4 - 3.0
        fields = [str(n), str(mean), str(central[0]), format(skew, ".12g"), format(kurt, ".12g")]
        yield ",".join(fields)


@contextmanager
def _unlimited_int_str():
    """Lift the int-to-str digit limit in this process only; children keep
    the interpreter default."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _wang_digest(m: int, c: int, n: int, sums) -> tuple[str, int]:
    rows = wang_rows(m, c, n)
    if sums is not None:
        want = bell_numbers(n) if sums == "bell" else dowling_numbers(m, n)
        if [sum(row) for row in rows] != want:
            raise ReferenceMismatch(f"wang_rows(m={m}, c={c}) row sums differ from {sums} numbers")
    with _unlimited_int_str():
        return _digest(_triangle_lines(rows))


def expected(ref: tuple) -> tuple[str, int]:
    """(sha256, bytes) of the stdout that the job with this reference must print."""
    kind = ref[0]
    if kind == "wang":
        return _wang_digest(*ref[1:])
    if kind == "rational_triangle":
        _, rec, n = ref
        return _digest(_triangle_lines(recurrence_rows(rec, n)))
    if kind == "rational_moments":
        _, rec, ns = ref
        return _digest(_moment_lines(recurrence_rows(rec, max(ns)), ns))
    raise KeyError(kind)

"""Spans around polyrec's public functions, recorded from the bench's files.

`Tracer.install()` wraps each function in TARGETS and rebinds the wrapper
wherever a polyrec module holds the original, so that `from .recurrence
import generate` in cli, distribution and families and the lazy imports
inside functions all reach it.  `algebra.poly_mul` is
`ExactPolynomial.__mul__` and `__rmul__`.  Spans stay in memory; `dump`
writes them as JSON lines `[name, start, end, parent]` where parent is the
index of the enclosing span or -1.  `aggregate` turns them into per-function
calls, busy time (outermost spans of the name only) and self time (span
minus its direct children).
"""

from __future__ import annotations

import functools
import json
import sys
import time

TARGETS = (
    ("recurrence", "advance"),
    ("recurrence", "generate"),
    ("recurrence", "triangle"),
    ("algebra", "series_exp"),
    ("families", "catalog"),
    ("families", "build_exponent"),
    ("families", "egf_rows"),
    ("families", "verify_egf_identity"),
    ("oracle", "count_partitions"),
    ("oracle", "verify_family"),
    ("distribution", "pmf"),
    ("distribution", "normality"),
    ("distribution", "clt_scan"),
    ("asymptotics", "solve_saddle"),
    ("asymptotics", "compare_exact"),
    ("cli", "main"),
    ("speclang", "parse"),
)
POLY_MUL = "algebra.poly_mul"
SPAN_NAMES = tuple(f"{module}.{name}" for module, name in TARGETS) + (POLY_MUL,)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self.coeff_mults = 0
        self._stack: list[int] = []
        self._rows: set = set()
        self._last_rows: list = []

    def _wrap(self, name, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid] = (name, start, clock(), parent)
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count_row(self, args, kwargs):
        spec = args[0] if args else kwargs.get("spec")
        n = args[2] if len(args) > 2 else kwargs.get("n")
        self._rows.add((id(spec), n))

    def _count_mults(self, args, kwargs):
        other = getattr(args[1] if len(args) > 1 else None, "coeffs", None)
        if isinstance(other, tuple):
            self.coeff_mults += len(args[0].coeffs) * len(other)

    def _keep_last_row(self, rows):
        if rows:
            self._last_rows.append(rows[-1])

    def install(self) -> None:
        from polyrec import algebra

        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "polyrec" or name.startswith("polyrec."))
        ]
        hooks = {
            "recurrence.advance": (self._count_row, None),
            "recurrence.generate": (None, self._keep_last_row),
        }
        for module, fname in TARGETS:
            name = f"{module}.{fname}"
            original = getattr(sys.modules.get(f"polyrec.{module}"), fname, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original, *hooks.get(name, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
        cls = algebra.ExactPolynomial
        for attr in ("__mul__", "__rmul__"):
            setattr(cls, attr, self._wrap(POLY_MUL, getattr(cls, attr), self._count_mults))

    def counters(self) -> dict:
        bits = 0
        for row in self._last_rows:
            for c in row.coeffs:
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
        return {
            "rows_distinct": len(self._rows),
            "coeff_mults": self.coeff_mults,
            "max_coeff_bits": bits,
            "missing": self.missing,
        }

    def dump(self, out) -> None:
        for span in self.spans:
            out.write(json.dumps(span) + "\n")


def aggregate(spans: list) -> tuple[dict, float]:
    """({name: [calls, busy_s, self_s]}, total time of top-level spans)."""
    stats = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
        else:
            top += end - start
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[2] += end - start - child_time[i]
        outer = parent
        while outer >= 0 and spans[outer][0] != name:
            outer = spans[outer][3]
        if outer < 0:
            entry[1] += end - start
    return stats, top

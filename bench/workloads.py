"""The benchmark's workloads: seeded command lines for `polyrec`.

A workload is a list of jobs run one after another, each in a fresh
interpreter.  A job's argv is either a `polyrec` command line or
`@verify_family NAME PARAMS_JSON N`, the library call
`oracle.verify_family(families.catalog(NAME, **PARAMS), N)`.

The seed chooses only what keeps the cost of a pass steady from seed to
seed, because the bench is judged by how little its figures spread over
seeds: the order of the jobs, offsets of about 1% to the row indices (none
for the N^3 `verify` of dowling), and the coefficients of the rational
specs, drawn without replacement from primes of nearly equal size over
fixed denominators.  Every argv that the integer,
row-statistics and EGF workloads can generate has a digest recorded in
`digests.json`; the rational specs are open-ended, so their outputs are
checked against `reference.py` instead.

Each job may carry `ref`, the independent reference its output bytes are
compared with (see `reference.expected`):

    ("wang", m, c, n, sums)       triangle of T(n,k) = T(n-1,k-1) + (c+mk) T(n-1,k)
                                  with row sums checked against "bell",
                                  "dowling" or nothing (None)
    ("rational_triangle", rec, n) triangle of a `Recurrence`
    ("rational_moments", rec, ns) `moments --ns` of a `Recurrence`
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

DEFAULT_SEED = 0

# Numerators of the rational coefficients: primes within 12% of each other,
# drawn without replacement so that no two coefficients share a factor.
RATIONAL_NUMERATORS = (89, 97, 101, 103, 107, 109, 113)


class Recurrence(NamedTuple):
    """P_n = gamma P_{n-1} + m x P'_{n-1} + sum w(n,s) kappa P_{n-s}, P_0 = 1.

    `gamma` and each lag's `kappa` are coefficient tuples, lowest power
    first; a lag is (s, kappa, binom) with w = C(n-1, s-1) when binom is set
    and 1 otherwise.
    """

    gamma: tuple[Fraction, ...]
    m: Fraction
    lags: tuple[tuple[int, tuple[Fraction, ...], bool], ...]

    def text(self) -> str:
        parts = [f"gamma: {_poly_text(self.gamma)}", f"m: {self.m}"]
        for s, kappa, binom in self.lags:
            parts.append(
                f"lag: {{s: {s}, coeff: {_poly_text(kappa)}, "
                f"binom: {'true' if binom else 'false'}}}"
            )
        return "; ".join(parts) + ";"


def _poly_text(coeffs: tuple[Fraction, ...]) -> str:
    terms = []
    for j in range(len(coeffs) - 1, -1, -1):
        if coeffs[j]:
            power = "" if j == 0 else "x" if j == 1 else f"x^{j}"
            terms.append(f"{coeffs[j]}{power}")
    return " + ".join(terms)


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    ref: Optional[tuple] = None


@dataclass(frozen=True)
class Size:
    """The row indices of every workload, at one scale."""

    rows_integer: tuple[tuple[str, int, Optional[tuple]], ...]
    row_offsets: tuple[int, ...]
    rational_specs: int
    rational_max_n: int
    rational_ns: tuple[int, ...]
    moments_ns: tuple[int, ...]
    clt_ns: tuple[int, ...]
    asymptotics_ns: tuple[int, ...]
    ns_offsets: tuple[int, ...]
    verify_dowling: int
    verify_assoc: int
    verify_offsets: tuple[int, ...]
    oracle_n: int


FULL = Size(
    rows_integer=(
        ("stirling2", 400, (1, 0, "bell")),
        ("dowling(m=2)", 250, (2, 1, "dowling")),
        ("r_whitney_assoc(m=2,r=1,s=2)", 200, None),
    ),
    row_offsets=(-1, 0, 1),
    rational_specs=4,
    rational_max_n=100,
    rational_ns=(50, 100),
    moments_ns=(60, 120, 180, 240),
    clt_ns=(40, 80, 160, 240),
    asymptotics_ns=(60, 120, 180),
    ns_offsets=(-1, 0, 1),
    verify_dowling=80,
    verify_assoc=64,
    verify_offsets=(-2, -1, 0, 1, 2),
    oracle_n=10,
)

SMOKE = Size(
    rows_integer=(
        ("stirling2", 30, (1, 0, "bell")),
        ("dowling(m=2)", 20, (2, 1, "dowling")),
        ("r_whitney_assoc(m=2,r=1,s=2)", 20, None),
    ),
    row_offsets=(0, 1),
    rational_specs=1,
    rational_max_n=12,
    rational_ns=(6, 12),
    moments_ns=(10, 20),
    clt_ns=(10, 20),
    asymptotics_ns=(10, 20),
    ns_offsets=(0, 1),
    verify_dowling=10,
    verify_assoc=8,
    verify_offsets=(0,),
    oracle_n=6,
)

# A slot is one job whose argv depends on an offset the seed picks.
Slot = Callable[[int], Job]


def _triangle_slot(family: str, n: int, wang: Optional[tuple]) -> Slot:
    def job(offset: int) -> Job:
        ref = None if wang is None else ("wang", *wang[:2], n + offset, wang[2])
        return Job(("triangle", "--family", family, "--max-n", str(n + offset)), ref)

    return job


def _ns_slot(command: str, family: str, ns: tuple[int, ...]) -> Slot:
    def job(offset: int) -> Job:
        text = ",".join(str(n + offset) for n in ns)
        return Job((command, "--family", family, "--ns", text))

    return job


def _verify_slot(family: str, n: int) -> Slot:
    return lambda offset: Job(("verify", "--family", family, "--max-n", str(n + offset)))


def _slots(name: str, size: Size) -> list[tuple[Slot, tuple[int, ...]]]:
    """The workload's jobs, each with the offsets the seed picks from."""
    if name == "rows_integer":
        return [(_triangle_slot(*entry), size.row_offsets) for entry in size.rows_integer]
    if name == "row_stats":
        return [
            (_ns_slot("moments", "dowling(m=2)", size.moments_ns), size.ns_offsets),
            (_ns_slot("clt", "stirling2", size.clt_ns), size.ns_offsets),
            (_ns_slot("asymptotics", "dowling(m=2)", size.asymptotics_ns), size.ns_offsets),
        ]
    if name == "verify_egf":
        oracle = Job(("@verify_family", "dowling", json.dumps({"m": 2}), str(size.oracle_n)))
        return [
            (_verify_slot("dowling(m=2)", size.verify_dowling), (0,)),
            (_verify_slot("assoc_stirling(s=2)", size.verify_assoc), size.verify_offsets),
            (lambda offset: oracle, (0,)),
        ]
    raise KeyError(name)


def random_recurrence(rng: random.Random) -> Recurrence:
    """gamma = a x + b, one binomial lag c x at depth 2, one unit lag d at
    depth 3; each coefficient a prime from RATIONAL_NUMERATORS over a fixed
    power of two."""
    a, b, m, c, d = rng.sample(RATIONAL_NUMERATORS, 5)
    return Recurrence(
        gamma=(Fraction(b, 32), Fraction(a, 64)),
        m=Fraction(m, 64),
        lags=((2, (Fraction(0), Fraction(c, 64)), True), (3, (Fraction(d, 32),), False)),
    )


def _rational_jobs(rng: random.Random, size: Size) -> list[Job]:
    jobs = []
    ns = ",".join(map(str, size.rational_ns))
    for _ in range(size.rational_specs):
        rec = random_recurrence(rng)
        text = rec.text()
        jobs.append(
            Job(
                ("triangle", "--inline", text, "--max-n", str(size.rational_max_n)),
                ("rational_triangle", rec, size.rational_max_n),
            )
        )
        jobs.append(
            Job(("moments", "--inline", text, "--ns", ns), ("rational_moments", rec, size.rational_ns))
        )
    return jobs


NAMES = ("rows_integer", "rows_rational", "row_stats", "verify_egf")


def jobs(name: str, seed: int, size: Size) -> list[Job]:
    """The jobs of one pass of workload `name` for `seed`."""
    rng = random.Random(seed)
    if name == "rows_rational":
        return _rational_jobs(rng, size)
    out = [slot(rng.choice(offsets)) for slot, offsets in _slots(name, size)]
    rng.shuffle(out)
    return out


def variants(name: str, size: Size) -> list[Job]:
    """Every job the workload can generate, or for the open-ended rational
    workload those of the default seed."""
    if name == "rows_rational":
        return jobs(name, DEFAULT_SEED, size)
    unique = {}
    for slot, offsets in _slots(name, size):
        for offset in offsets:
            job = slot(offset)
            unique[job.argv] = job
    return list(unique.values())


# Contract probes: untimed invocations that must either succeed with correct
# output or fail with an exit code >= 2 and a one-line JSON error on stderr.
HUGE_M = 10**30
PROBES = {
    "rows_integer": (
        Job(
            ("triangle", "--inline", f"gamma: x + 1; m: {HUGE_M};", "--max-n", "160"),
            ("wang", HUGE_M, 1, 160, None),
        ),
    ),
    "row_stats": (Job(("asymptotics", "--family", "assoc_stirling(s=2)", "--ns", "3")),),
}

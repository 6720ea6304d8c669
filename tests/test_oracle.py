"""The partition-counting oracle against brute-force enumeration and the
recurrence engine."""

import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from polyrec import cli, oracle, recurrence
from polyrec.algebra import ONE, X, ExactPolynomial, monomial
from polyrec.errors import ParameterError, SizeGuardError
from polyrec.families import FAMILIES, FamilyDescriptor, _model_spec, catalog
from polyrec.oracle import Check, count_partitions, verify, verify_family
from polyrec.recurrence import LagTerm, RecurrenceSpec, generate, triangle

BELL = [
    1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975,
    678570, 4213597, 27644437, 190899322,
]


def test_counts_match_worked_examples():
    # unrestricted 4-set: Stirling row 4
    assert count_partitions(n=4) == {1: 1, 2: 7, 3: 6, 4: 1}
    # 4 plain elements, blocks of size >= 2
    assert count_partitions(n=4, s=2) == {1: 1, 2: 3}
    # 2 elements, 2 colors: one 2-block with weight 2, one 1+1 with weight 1
    assert count_partitions(n=2, m=2) == {1: 2, 2: 1}
    # weighted: 4 elements, weight 2 per extra element in a plain block
    assert count_partitions(n=4, m=2) == {
        1: 8,
        2: 28,
        3: 12,
        4: 1,
    }


def test_unweighted_totals_are_bell_numbers():
    for n in range(len(BELL)):
        counts = count_partitions(n=n)
        assert sum(counts.values()) == BELL[n]


def test_dowling_totals():
    # m=2, one distinguished element: 1, 2, 6, 24, 116, 648, 4088
    expected = [1, 2, 6, 24, 116, 648, 4088]
    polys = generate(catalog("dowling", m=2).spec, len(expected) - 1)
    for n, value in enumerate(expected):
        counts = count_partitions(n=n, r=1, m=2)
        assert sum(counts.values()) == value
        assert polys[n](Fraction(1)) == value


def test_counts_match_independent_rgs_enumeration():
    # cross-check the weighted walk against a restricted-growth-string
    # enumeration written from scratch
    def rgs_counts(n, m, s):
        out = {}

        def rec(prefix):
            if len(prefix) == n:
                blocks = max(prefix) + 1 if prefix else 0
                sizes = [prefix.count(b) for b in range(blocks)]
                if any(size < s for size in sizes):
                    return
                weight = 1
                for size in sizes:
                    weight *= m ** (size - 1)
                out[blocks] = out.get(blocks, 0) + weight
                return
            top = max(prefix) + 1 if prefix else 0
            for b in range(top + 1):
                rec(prefix + [b])

        rec([])
        return out

    for n in range(7):
        for m in (1, 2, 3):
            for s in (1, 2):
                expected = rgs_counts(n, m, s)
                got = count_partitions(n=n, m=m, s=s)
                assert got == expected, (n, m, s)


def test_counts_match_brute_force_with_distinguished_elements():
    # restricted-growth strings over the r + n elements, written from
    # scratch: the r distinguished elements come first and open blocks
    # 0..r-1, so they lie in pairwise different blocks
    def brute_force(n, r, m, s):
        out = {}

        def rec(prefix, blocks):
            if len(prefix) == r + n:
                sizes = [prefix.count(b) for b in range(r, blocks)]
                if all(size >= s for size in sizes):
                    weight = 1
                    for size in sizes:
                        weight *= m ** (size - 1)
                    out[len(sizes)] = out.get(len(sizes), 0) + weight
                return
            for b in range(blocks + 1):
                rec(prefix + [b], max(blocks, b + 1))

        rec(list(range(r)), r)
        return out

    for r in (0, 1, 2):
        for m in (1, 2, 3):
            for s in (1, 2, 3):
                for n in range(9 - r):
                    expected = brute_force(n, r, m, s)
                    got = count_partitions(n=n, r=r, m=m, s=s)
                    assert got == expected, (n, r, m, s)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 4),
    r=st.integers(0, 20),
    s=st.integers(1, 4),
)
def test_random_models_match_the_recurrence_up_to_the_guard(m, r, s):
    # r is only a weight of the walk: its profiles, and so its budget of
    # MAX_VISITS, are the same for every r, and each r reaches row 14
    report = verify_family(catalog("r_whitney_assoc", m=m, r=r, s=s), 14)
    assert str(report) == f"{report.family}: rows up to 14 match enumeration"
    # r_stirling(r) row r + n counts partitions of r + n elements, r of
    # them distinguished
    report = verify_family(catalog("r_stirling", r=r), r + 14)
    assert str(report) == f"{report.family}: rows up to {r + 14} match enumeration"


def test_constraint_validation():
    # the four integers are checked before the walk starts
    for arguments, message in [
        (dict(n=-1), "n must be an integer >= 0"),
        (dict(n=2, m=0), "m must be an integer >= 1"),
        (dict(n=2, s=0), "s must be an integer >= 1"),
        (dict(n=2, r=-1), "r must be an integer >= 0"),
        (dict(n=True), "n must be an integer >= 0"),
        (dict(n=2, s=True), "s must be an integer >= 1"),
        (dict(n=2, m=2.0), "m must be an integer >= 1"),
    ]:
        with pytest.raises(ParameterError, match=f"^{message}$"):
            count_partitions(**arguments)
    # positional and keyword calls count the same partitions
    assert count_partitions(3, 0, 1, 2) == count_partitions(n=3, s=2) == {1: 1}


def row_counts(name, n, **params):
    poly = generate(catalog(name, **params).spec, n)[n]
    return {k: c for k, c in enumerate(poly.coeffs) if c}


def test_count_partitions_stops_at_the_budget(monkeypatch):
    # dowling's walk holds 1 + 2 + ... + 8 = 36 profiles through n = 7,
    # and 45 through n = 8
    monkeypatch.setattr(oracle, "MAX_VISITS", 44)
    assert count_partitions(n=7, r=1, m=2) == row_counts("dowling", 7, m=2)
    with pytest.raises(SizeGuardError, match="the walk to n = 8 holds more than 44 profiles"):
        count_partitions(n=8, r=1, m=2)
    # verify_family reports the last row inside the budget instead
    report = verify_family(catalog("dowling", m=2), 20)
    assert str(report) == "dowling(m=2): rows up to 7 match enumeration"


def test_walk_stops_at_the_real_budget_for_large_blocks():
    # blocks of size >= 20: profiles of 20 counts, MAX_VISITS unpatched.  A
    # walk asked for row 200 keeps every profile its 200 elements can
    # complete; count_partitions prunes to its own n, and so reaches further
    assert oracle.MAX_VISITS == 20_000
    for args, last in [((0, 1, 20, 1, 200), 29), ((1, 2, 20, 1, 200), 22)]:
        assert len(list(oracle._walk(*args))) - 1 == last, args
    with pytest.raises(SizeGuardError, match="the walk to n = 83 holds more than 20000"):
        count_partitions(n=83, s=20)
    counts = count_partitions(n=82, s=20)
    assert counts == row_counts("assoc_stirling", 82, s=20)


def test_many_distinguished_elements_are_only_a_weight():
    # 20 distinguished elements and 10 plain ones: 30 elements, well inside
    # the budget
    counts = count_partitions(n=10, r=20, m=2)
    assert counts == row_counts("whitney", 10, m=2, c=20)


def test_verify_family_ok():
    for name, params, n_max in [
        ("stirling2", {}, 9),
        ("dowling", dict(m=2), 8),
        ("whitney", dict(m=3, c=1), 8),
        ("r_stirling", dict(r=2), 8),
        ("assoc_stirling", dict(s=2), 9),
        ("assoc_stirling", dict(s=3), 9),
        ("r_whitney_assoc", dict(m=2, r=1, s=2), 8),
        ("translated_whitney", dict(m=2), 8),
        ("type_b", dict(m=2, c=1), 8),
    ]:
        report = verify_family(catalog(name, **params), n_max)
        assert report.ok and not report.skipped, report
    report = verify_family(catalog("stirling2"), 5)
    assert str(report) == "stirling2: rows up to 5 match enumeration"


def test_verify_family_reads_the_given_rows(monkeypatch):
    # verify_family checks the rows `recurrence.rows` hands it, up to n_max
    descriptor = catalog("stirling2")
    rows = triangle(descriptor.spec, 7)
    asked = []

    def given_rows(spec, upto):
        asked.append(upto)
        return iter(given[: upto + 1])

    given = rows
    monkeypatch.setattr(recurrence, "rows", given_rows)
    report = verify_family(descriptor, 5)
    assert report.ok
    assert str(report) == "stirling2: rows up to 5 match enumeration"
    given = rows[:3] + [rows[3]._replace(poly=rows[3].poly * 2)] + rows[4:]
    report = verify_family(descriptor, 5)
    assert not report.ok
    assert report.first_mismatch == (3, 1, 2, 1)
    assert str(report) == "stirling2: mismatch at (n=3, k=1): triangle 2, oracle 1"
    assert asked == [5, 5]


@pytest.mark.parametrize("r", range(4))
def test_r_stirling_offsets_come_from_the_spec(r):
    # row r holds no plain element and equals x^r: the oracle's row and
    # column offsets are the start index and the start degree, both r; the
    # start degree folds m r = r into gamma = x, so the model is (r, 1, 1, 1)
    descriptor = catalog("r_stirling", r=r)
    assert oracle._model(descriptor.spec) == (r, 1, 1, 1, 1, r)
    report = verify_family(descriptor, r + 7)
    assert report.ok and not report.skipped, report


def test_the_model_is_read_off_the_spec():
    # every family is modelled; sheffer(d, a) opens a block with weight d
    for name, params, model in [
        ("galton", dict(m=3, c=-2), (-2, 3, 1, 1, 1, 0)),
        ("whitney", dict(m=2, c=-7), (-7, 2, 1, 1, 1, 0)),
        ("sheffer", dict(d=3, a=2), (2, 3, 1, 3, 1, 0)),
        ("r_whitney_assoc", dict(m=2, r=1, s=3), (1, 2, 3, 1, 1, 0)),
    ]:
        assert oracle._model(catalog(name, **params).spec) == model
    # w = c / m^(s - 1), a depth-1 lag merged into gamma, m d folded into r
    lags = (LagTerm(1, ONE, True), LagTerm(3, monomial(1, 3), True))
    spec = RecurrenceSpec(gamma=ExactPolynomial((Fraction(1, 2),)), m=2, lags=lags)
    assert oracle._model(spec) == (Fraction(3, 2), 2, 3, Fraction(3, 4), 1, 0)
    spec = RecurrenceSpec(gamma=X, m=Fraction(1, 2), start_index=2, start_poly=monomial(2, 5))
    assert oracle._model(spec) == (1, Fraction(1, 2), 1, 1, 5, 2)


@pytest.mark.parametrize("name", FAMILIES)
def test_the_catalog_writes_what_the_oracle_reads(name):
    # every family's recurrence is `_model_spec` of its declared model, and
    # `_model` reads that model back, with start coefficient 1 and degree d,
    # at `listed` and at each parameter one above it
    family = FAMILIES[name]
    for params in (family.listed, {k: v + 1 for k, v in family.listed.items()}):
        r, m, s, w, d = (*family.model(**params), 0)[:5]
        assert oracle._model(catalog(name, **params).spec) == (r, m, s, w, 1, d)


# specs that have no partition model
UNMODELLED = [
    # a unit-weight lag
    RecurrenceSpec(gamma=X, m=1, lags=(LagTerm(2, ONE),)),
    # two lags
    RecurrenceSpec(gamma=ONE, m=1, lags=(LagTerm(2, X, True), LagTerm(3, X, True))),
    # gamma of degree 2
    RecurrenceSpec(gamma=monomial(2), m=1),
    # a start that is not a monomial
    RecurrenceSpec(gamma=X, m=1, start_poly=ExactPolynomial((1, 1))),
    # a lag with a start index above 0
    RecurrenceSpec(gamma=ONE, m=1, lags=(LagTerm(2, X, True),), start_index=1),
]


def test_verify_family_skips_unmodelled_shapes():
    for spec in UNMODELLED:
        assert oracle._model(spec) is None, spec
        descriptor = FamilyDescriptor("custom", {}, spec)
        report = verify_family(descriptor, 6)
        assert report.skipped and report.ok
        assert str(report) == "custom: skipped (custom spec has no model)"
        (_, enumeration, _) = verify(descriptor, 6)
        assert enumeration == Check("enumeration", True, "skipped: custom spec has no model")


_SIGNED = st.fractions(-5, 5, max_denominator=3)


@st.composite
def _partition_specs(draw):
    """The spec of a drawn model (r, m, s, w): gamma = r + w x for s = 1,
    else gamma = r and the binomial lag w m^(s-1) x; a monomial start on a
    third of the draws, and a start index above 0 on some s = 1 draws."""
    r, s = draw(_SIGNED), draw(st.integers(1, 4))
    m = draw(st.fractions(Fraction(1, 3), 4, max_denominator=3))
    # a zero lag is no lag: w = 0 is drawn for s = 1 only
    w = draw(_SIGNED if s == 1 else _SIGNED.filter(bool))
    start = {}
    if draw(st.integers(0, 2)) == 0:
        start["start_poly"] = monomial(draw(st.integers(0, 3)), draw(_SIGNED.filter(bool)))
    if s == 1 and draw(st.booleans()):
        start["start_index"] = draw(st.integers(1, 3))
    if s == 1:
        return RecurrenceSpec(gamma=ExactPolynomial((r, w)), m=m, **start)
    lag = LagTerm(s, monomial(1, w * m ** (s - 1)), True)
    return RecurrenceSpec(gamma=ExactPolynomial((r,)), m=m, lags=(lag,), **start)


@seed(2024)
@settings(max_examples=60, deadline=None)
@given(_partition_specs())
def test_signed_rational_models_match_the_recurrence(spec):
    # the walk only multiplies and adds weights: signed and rational r, m
    # and w count as well as the catalog's integers
    report = verify_family(FamilyDescriptor("custom", {}, spec), 25)
    assert report.ok and not report.skipped, report


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_model_spec_and_model_are_inverses(data):
    # a signed rational model (r, m, s, w) from x^d: s = 1 takes any start
    # degree d, s >= 2 takes d = 0 (lags need it) and w != 0 (a zero lag is
    # no lag)
    r, s = data.draw(_SIGNED), data.draw(st.integers(1, 4))
    m = data.draw(st.fractions(Fraction(1, 3), 4, max_denominator=3))
    w = data.draw(_SIGNED if s == 1 else _SIGNED.filter(bool))
    d = data.draw(st.integers(0, 5)) if s == 1 else 0
    assert oracle._model(_model_spec(r, m, s, w, d)) == (r, m, s, w, 1, d)


def test_verify_family_reports_mismatch(monkeypatch):
    # the model is read off the spec, so a sabotaged spec agrees with its
    # own model: sabotage the rows, those of stirling2's spec with m = 2
    descriptor = catalog("stirling2")
    broken = triangle(descriptor.spec._replace(m=Fraction(2)), 5)
    # a rational model, gamma = 1/2 + 2/3 x and m = 3/2, with row 2 halved
    gamma = ExactPolynomial((Fraction(1, 2), Fraction(2, 3)))
    spec = RecurrenceSpec(gamma=gamma, m=Fraction(3, 2))
    rows = triangle(spec, 2)
    assert rows[2].poly == ExactPolynomial((Fraction(1, 4), Fraction(5, 3), Fraction(4, 9)))
    halved = rows[:2] + [rows[2]._replace(poly=rows[2].poly * Fraction(1, 2))]

    monkeypatch.setattr(recurrence, "rows", lambda spec, upto: iter(broken[: upto + 1]))
    report = verify_family(descriptor, 5)
    assert not report.ok and not report.skipped
    assert report.first_mismatch is not None
    n, k, got, want = report.first_mismatch
    assert got != want
    assert str(report) == "stirling2: mismatch at (n=2, k=1): triangle 2, oracle 1"
    # both entries are given exactly, not truncated
    monkeypatch.setattr(recurrence, "rows", lambda spec, upto: iter(halved))
    report = verify_family(FamilyDescriptor("custom", {}, spec), 2)
    assert report.first_mismatch == (2, 0, Fraction(1, 8), Fraction(1, 4))
    assert str(report) == "custom: mismatch at (n=2, k=0): triangle 1/8, oracle 1/4"


def test_verify_holds_no_triangle():
    # one pass: verify holds the series' own integer rows, which the
    # convolution reads, but no list of spec rows
    descriptor = catalog("dowling", m=2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rows = triangle(descriptor.spec, 150)
        retained = tracemalloc.get_traced_memory()[0] - base
        del rows
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        checks = verify(descriptor, 150)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert all(check.ok for check in checks)
    assert peak < 1.5 * retained, (peak, retained)


@pytest.mark.parametrize(
    "name,params,n_max,notice",
    [
        # row 10 is the first row, so rows up to 8 hold nothing to count
        ("r_stirling", dict(r=10), 8, "no row up to 8: the first row is 10"),
        # 20 distinguished elements weigh the walk, they do not shorten it
        ("whitney", dict(m=2, c=20), -6, "no row up to -6: the first row is 0"),
    ],
)
def test_verify_family_skips_when_no_row_is_in_reach(name, params, n_max, notice):
    descriptor = catalog(name, **params)
    report = verify_family(descriptor, n_max)
    assert report.ok and report.skipped
    assert report.notice == notice
    # verify enumerates the rows up to 8
    if n_max == 8:
        (_, enumeration, _) = verify(descriptor, 20)
        assert enumeration == Check("enumeration", True, f"skipped: {notice}")


@pytest.mark.parametrize(
    "name,params,n_max,text",
    [
        # row n holds c + n elements, more than 14 from row 8 on
        ("whitney", dict(m=2, c=7), 20, "whitney(m=2,c=7): rows up to 20 match enumeration"),
        (
            "r_whitney_assoc",
            dict(m=2, r=8, s=2),
            20,
            "r_whitney_assoc(m=2,r=8,s=2): rows up to 20 match enumeration",
        ),
        # row 15, the first, already holds 15 elements
        ("r_stirling", dict(r=15), 30, "r_stirling(r=15): rows up to 30 match enumeration"),
    ],
)
def test_verify_family_stops_at_the_guard(name, params, n_max, text):
    # inside the budget verify_family compares every row up to n_max
    report = verify_family(catalog(name, **params), n_max)
    assert report.ok and not report.skipped
    assert str(report) == text


def test_verify_family_makes_one_walk(monkeypatch):
    # every row's counts come from one walk, not a count_partitions call per row
    def refuse(*args, **kwargs):
        raise AssertionError(f"count_partitions{args} called")

    monkeypatch.setattr(oracle, "count_partitions", refuse)
    report = verify_family(catalog("dowling", m=2), 13)
    assert report.ok and not report.skipped
    assert str(report) == "dowling(m=2): rows up to 13 match enumeration"


# the instances of the frozen acceptance tests
CATALOG_DEFAULTS = [
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


@pytest.mark.parametrize("name,params", CATALOG_DEFAULTS, ids=[n for n, _ in CATALOG_DEFAULTS])
def test_verify_is_what_the_cli_renders(capsys, name, params):
    descriptor = catalog(name, **params)
    checks = verify(descriptor, 30)
    assert all(isinstance(check, Check) for check in checks)
    assert [check.name for check in checks] == ["egf_identity", "enumeration", "nonnegativity"]
    failed = [check.name for check in checks if not check.ok]
    # galton's entries are signed by design
    assert failed == (["nonnegativity"] if name == "galton" else [])
    code = cli.main(["verify", "--family", descriptor.label, "--max-n", "30"])
    assert code == (1 if failed else 0)
    assert capsys.readouterr().out == "check,status,detail\n" + "".join(
        f"{check.name},{'pass' if check.ok else 'fail'},{check.detail.replace(',', ';')}\n"
        for check in checks
    )

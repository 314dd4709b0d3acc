"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The sweeps over the degree-2 coefficients default to m <= 200 (the
fast subset); set MULTIBROT_ACCEPTANCE_M_MAX=1000 to run every criterion
over the full range Zagier's observation was originally checked on.  The
full-range test checks criteria 3-5 and 9 to m = 1000 on every run.

Criterion 7 is expected to FAIL, deliberately: it asserts that the
floor-form prime-degree bound floor(nu_p((pm+p)!)/(p-1)) coincides with the
additive form a + nu_p(a!) for p in {2,3,5}, m <= 200.  That identity is
arithmetically false for odd p (first gaps: p=3 at m=9, p=5 at m=35; the
floor of a sum dominates the sum of floors, it does not equal it), and where
the forms differ the floor-form equality clause is refuted by the exact
coefficient (e.g. p=3, m=29: attained 21, floor bound 22, equality
predicted).  The additive-form bound itself is confirmed everywhere; the
companion test below pins the corrected relationship.  The criterion is kept
red rather than rewritten so the refutation stays visible.
"""

import hashlib
import os
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

import multibrot.cli as cli
from multibrot.cache import load_coefficients
from multibrot.checks import (
    check_integrality,
    check_levin,
    check_main,
    check_vanishing,
    check_yamashita,
    check_zagier,
    check_ewing_schober,
    suite_verdicts,
)
from multibrot.coeffs import (
    METHOD_SWEEP,
    CoeffRecord,
    CoeffTable,
    choose_n,
    coefficient_by_partition_sum,
    coefficient_by_residue,
    laurent_coefficient,
    zero_census,
)
from multibrot.exact import (
    factorial_valuation,
    floor_rational,
    is_prime,
    padic_valuation,
    rational,
)

M_SUBSET = 200
M_MAX = max(int(os.environ.get("MULTIBROT_ACCEPTANCE_M_MAX", M_SUBSET)), M_SUBSET)
MAIN_DEGREES = (2, 3, 4, 6, 9, 12)


def _criterion(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


@pytest.fixture(scope="module")
def table():
    t = CoeffTable()
    cli._fill_table(t, [(2, m) for m in range(M_MAX + 1)], METHOD_SWEEP)
    return t


def _ensure_main_degree_pairs(t):
    pairs = [
        (d, m)
        for d in MAIN_DEGREES
        for m in range(M_SUBSET + 1)
        if (m + 1) % (d - 1) == 0
    ]
    cli._fill_table(t, pairs, METHOD_SWEEP)


def test_criterion_01_known_constants():
    ok = laurent_coefficient(2, 0).value == rational(-1, 2)
    for d in (3, 4, 5):
        ok = ok and laurent_coefficient(d, 0).value == 0
    assert _criterion(1, "known m=0 constants", ok)


def test_criterion_02_oracle_equivalence():
    start = time.perf_counter()
    mismatches = []
    for d in (2, 3, 4):
        for m in range(1, 61):
            n = choose_n(d, m)
            if coefficient_by_residue(d, m, n) != coefficient_by_partition_sum(d, m, n):
                mismatches.append((d, m))
    order_dependent = []
    for m in range(1, 41):
        n = choose_n(2, m)
        values = {
            coefficient_by_partition_sum(2, m, n),
            coefficient_by_partition_sum(2, m, n + 1),
            coefficient_by_residue(2, m, n),
            coefficient_by_residue(2, m, n + 1),
        }
        if len(values) != 1:
            order_dependent.append(m)
    ok = not mismatches and not order_dependent
    detail = f"{time.perf_counter() - start:.1f}s"
    assert _criterion(2, "residue = partition sum, n-independence", ok, detail), (
        mismatches,
        order_dependent,
    )


def test_criterion_03_zagier_observation(table):
    start = time.perf_counter()
    bad = [m for m in range(M_MAX + 1) if not check_zagier(m, table).passed]
    detail = f"m<={M_MAX}, {time.perf_counter() - start:.1f}s"
    assert _criterion(3, "Zagier bound + equality biconditional", not bad, detail), bad


def test_criterion_04_ewing_schober_bound(table):
    bad = [m for m in range(M_MAX + 1) if not check_ewing_schober(m, table).passed]
    assert _criterion(4, "Ewing-Schober 2m+1 bound", not bad, f"m<={M_MAX}"), bad


def test_criterion_05_levin_equality(table):
    bad = [m for m in range(1, M_MAX + 1, 2) if not check_levin(m, table).passed]
    assert _criterion(5, "Levin equality at odd m", not bad, f"odd m<={M_MAX}"), bad


def test_criterion_06_main_bound(table):
    start = time.perf_counter()
    _ensure_main_degree_pairs(table)
    verdicts = suite_verdicts(MAIN_DEGREES, M_SUBSET, ["main"], table)
    failures = [v for v in verdicts if not v.passed]
    degrees_seen = {v.d for v in verdicts}
    ok = not failures and degrees_seen == set(MAIN_DEGREES)
    detail = f"{len(verdicts)} verdicts, {time.perf_counter() - start:.1f}s"
    assert _criterion(6, "main bound + equality biconditional", ok, detail), failures[:5]


def test_criterion_07_yamashita_consistency(table):
    # faithful to the stated criterion; see the module docstring for why
    # this fails and what the corrected relationship is
    form_gaps = []
    verdict_gaps = []
    for p in (2, 3, 5):
        for m in range(M_SUBSET + 1):
            if (m + 1) % (p - 1) != 0:
                continue
            a = (m + 1) // (p - 1)
            floor_form = factorial_valuation(p * m + p, p) // (p - 1)
            additive_form = a + factorial_valuation(a, p)
            if floor_form != additive_form:
                form_gaps.append((p, m, floor_form, additive_form))
            ya = check_yamashita(p, m, table)
            (main,) = check_main(p, m, table)
            if (ya.bound, ya.attained, ya.equality_predicted, ya.passed) != (
                main.bound,
                main.attained,
                main.equality_predicted,
                main.passed,
            ):
                verdict_gaps.append((p, m))
    ok = not form_gaps and not verdict_gaps
    _criterion(7, "floor-form = additive-form, identical verdicts", ok,
               f"{len(form_gaps)} bound-form gaps")
    assert ok, (
        "the floor-form bound floor(nu_p((pm+p)!)/(p-1)) exceeds the additive "
        f"form a + nu_p(a!) at {form_gaps[:4]}...: the floor of a sum dominates "
        "the sum of floors (superadditivity), it does not equal it, so the "
        "stated identity and the floor-form equality clause are arithmetically "
        "false for odd p; the additive-form bound (criterion 6) holds everywhere"
    )


def test_corrected_prime_degree_relationship(table):
    # what exact arithmetic actually supports: the floor form dominates the
    # additive form (so it is a valid, weaker bound), the two coincide for
    # p = 2, and nu_p((p*a)!) = a + nu_p(a!) is the exact floor-free identity
    for p in (2, 3, 5):
        for m in range(M_SUBSET + 1):
            if (m + 1) % (p - 1) != 0:
                continue
            a = (m + 1) // (p - 1)
            floor_form = factorial_valuation(p * m + p, p) // (p - 1)
            additive_form = a + factorial_valuation(a, p)
            assert floor_form >= additive_form
            assert additive_form == factorial_valuation(p * a, p)
            if p == 2:
                assert floor_form == additive_form
                ya = check_yamashita(p, m, table)
                assert ya.passed
            # the bound itself (not its equality clause) always holds
            ya = check_yamashita(p, m, table)
            assert ya.attained <= ya.bound


def test_criterion_08_vanishing_by_full_computation():
    rng = random.Random(0x5EED)
    start = time.perf_counter()
    failures = []
    for d in (3, 4, 5):
        candidates = [m for m in range(1, M_SUBSET + 1) if (m + 1) % (d - 1) != 0]
        for m in sorted(rng.sample(candidates, 30)):
            if not check_vanishing(d, m).passed:
                failures.append((d, m))
    ok = not failures
    detail = f"30 indices per degree, {time.perf_counter() - start:.1f}s"
    assert _criterion(8, "full computation vanishes off the divisibility grid", ok, detail), failures


def test_criterion_09_integrality(table):
    _ensure_main_degree_pairs(table)
    failures = []
    for rec in table.records_sorted():
        if (rec.m + 1) % (rec.d - 1) != 0:
            continue
        if not check_integrality(rec.d, rec.m, table).passed:
            failures.append((rec.d, rec.m))
    count = sum(1 for rec in table.records_sorted() if (rec.m + 1) % (rec.d - 1) == 0)
    assert _criterion(9, "b * d^x(m) is an integer", not failures,
                      f"{count} coefficients"), failures


def test_criterion_10_zero_census(table):
    zeros = zero_census(2, M_SUBSET, table)
    zero_indices = {m for m, _ in zeros}
    ok = (4, False) in zeros
    odd_zeros = [m for m in zero_indices if m % 2 == 1]
    ok = ok and not odd_zeros
    detail = f"zeros at {sorted(zero_indices)}"
    assert _criterion(10, "census flags m=4 unexplained, no odd zeros", ok, detail)


def test_criterion_11_property_suites():
    rng = random.Random(97)
    primes = [p for p in range(2, 98) if is_prime(p)]

    def random_nonzero_rational():
        num = rng.randint(-10**6, 10**6) or 1
        den = rng.randint(1, 10**4)
        return Fraction(num, den)

    start = time.perf_counter()
    for _ in range(10_000):
        p = rng.choice(primes)
        x = random_nonzero_rational()
        y = random_nonzero_rational()
        shift = rng.randint(0, 10**6)
        div = rng.randint(1, 10**4)
        mm = rng.randint(-10**9, 10**9)
        nn = rng.randint(-10**9, 10**9)
        assert floor_rational(x) + shift == floor_rational(x + shift)
        assert floor_rational(x) + floor_rational(y) <= floor_rational(x + y)
        assert floor_rational(Fraction(floor_rational(x), div)) == floor_rational(x / div)
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)
        assert padic_valuation(x / y, p) == padic_valuation(x, p) - padic_valuation(y, p)
        assert padic_valuation(mm + nn, p) >= min(
            padic_valuation(mm, p), padic_valuation(nn, p)
        )
    legendre_ok = True
    f = 1
    for m in range(0, 501):
        if m:
            f *= m
        for p in (2, 3, 5, 7):
            legendre_ok = legendre_ok and factorial_valuation(m, p) == padic_valuation(f, p)
    detail = f"10^4 randomized tuples + Legendre m<=500, {time.perf_counter() - start:.1f}s"
    assert _criterion(11, "valuation/floor identities and Legendre formula",
                      legendre_ok, detail)


def test_criterion_12_determinism(tmp_path):
    t1 = tmp_path / "t1.csv"
    t4 = tmp_path / "t4.csv"
    base = ["compute", "--d", "2", "--m-max", "40"]
    assert cli.main(base + ["--threads", "1", "--cache", str(t1)]) == 0
    assert cli.main(base + ["--threads", "4", "--cache", str(t4)]) == 0
    compute_ok = t1.read_bytes() == t4.read_bytes()
    assert load_coefficients(t1)[3] == (2, 3, rational(15, 128))

    r1 = tmp_path / "r1.csv"
    r4 = tmp_path / "r4.csv"
    vbase = ["verify", "--d", "3", "--m-max", "25", "--checks", "main,vanishing,dadic"]
    assert cli.main(vbase + ["--threads", "1", "--report", str(r1)]) == 0
    assert cli.main(vbase + ["--threads", "4", "--report", str(r4)]) == 0
    verify_ok = r1.read_bytes() == r4.read_bytes()
    assert _criterion(12, "byte-identical output across worker counts",
                      compute_ok and verify_ok)


def test_full_range_sweep_m1000(degree_two_table_m1000):
    """Criteria 3-5 and 9 over the full stated range m <= 1000, on the
    table ``compute --d 2 --m-max 1000`` prints."""
    start = time.perf_counter()
    t = CoeffTable()
    for d, m, value in degree_two_table_m1000[1]:
        t.add(CoeffRecord(d, m, value, "cached", -1))
    bad = []
    for m in range(1001):
        if not check_zagier(m, t).passed:
            bad.append(("zagier", m))
        if not check_ewing_schober(m, t).passed:
            bad.append(("ewing-schober", m))
        if m % 2 == 1 and not check_levin(m, t).passed:
            bad.append(("levin", m))
        if not check_integrality(2, m, t).passed:
            bad.append(("integrality", m))
    detail = f"m<=1000, {time.perf_counter() - start:.0f}s"
    assert _criterion(3, "full-range Zagier/Ewing-Schober/Levin/integrality",
                      not bad, detail), bad[:10]


@pytest.mark.slow
def test_all_checks_to_m2000(capsys):
    """Every check for d = 2..7 over m <= 2000, about 75 s on one core.

    Only the refuted Yamashita floor form fails (see criterion 07); the
    report's bytes are pinned so any other change in a verdict shows.
    """
    code = cli.main(["verify", "--d", "2,3,4,5,6,7", "--m-max", "2000", "--threads", "1"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_VERIFICATION
    failures = Counter((fields[0], fields[3]) for fields in
                       (line.split(",") for line in out.splitlines()[1:-1])
                       if fields[-1] == "false")
    assert failures == {("yamashita", "3"): 727, ("yamashita", "5"): 369,
                        ("yamashita", "7"): 221}
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9efcf40d76b5c0320037a854168f3e2219ffbf00e7ab31fc4aeb4430b12ddc51"
    )

import pytest

from multibrot.checks import (
    CHECK_NAMES,
    REPORT_HEADER,
    check_dadic,
    check_ewing_schober,
    check_integrality,
    check_levin,
    check_main,
    check_vanishing,
    check_yamashita,
    check_zagier,
    denominator_exponent,
    format_report,
    suite_verdicts,
    verdict_line,
)
from multibrot import checks, coeffs
from multibrot.coeffs import CoeffRecord, CoeffTable, zero_census
from multibrot.exact import NEG_INF, POS_INF, factorial_valuation, rational


@pytest.fixture(scope="module")
def table():
    t = CoeffTable()
    t.fill([(d, m) for d in range(2, 13) for m in range(61)])
    return t


def test_denominator_exponent():
    assert denominator_exponent(rational(1, 8), 2) == 3
    assert denominator_exponent(rational(5, 4), 3) == 0
    assert denominator_exponent(rational(3, 4), 3) == -1  # p divides the numerator
    assert denominator_exponent(rational(9, 4), 3) == -2
    assert denominator_exponent(rational(0), 2) is NEG_INF


class TestMain:
    def test_m_zero_degree_two(self, table):
        (v,) = check_main(2, 0, table.value(2, 0))
        assert (v.bound, v.attained) == (1, 1)
        assert v.equality_predicted and v.equality_observed and v.passed

    def test_equality_from_odd_index(self, table):
        (v,) = check_main(2, 1, table.value(2, 1))
        assert (v.bound, v.attained) == (3, 3)
        assert v.equality_predicted and v.passed

    def test_strict_inequality(self, table):
        (v,) = check_main(2, 2, table.value(2, 2))
        assert (v.bound, v.attained) == (4, 2)
        assert not v.equality_predicted and not v.equality_observed
        assert v.passed

    def test_prime_power_degree(self, table):
        (v,) = check_main(4, 2, table.value(4, 2))
        assert v.p == 2
        assert (v.bound, v.attained) == (2, 2)
        assert v.equality_predicted and v.passed

    def test_composite_degree_yields_one_verdict_per_prime(self, table):
        verdicts = check_main(6, 4, table.value(6, 4))
        assert [v.p for v in verdicts] == [2, 3]
        assert all(v.passed for v in verdicts)

    def test_rejects_non_divisible_index(self):
        with pytest.raises(ValueError):
            check_main(3, 2, rational(0))


class TestZagier:
    @pytest.mark.parametrize(
        "m, bound, attained, equal",
        [(0, 1, 1, True), (1, 3, 3, True), (2, 4, 2, False), (3, 7, 7, True)],
    )
    def test_small_indices(self, table, m, bound, attained, equal):
        v = check_zagier(m, table.value(2, m))
        assert (v.bound, v.attained) == (bound, attained)
        assert v.equality_predicted == equal == v.equality_observed
        assert v.passed

    def test_zero_coefficient_attains_minus_infinity(self, table):
        v = check_zagier(4, table.value(2, 4))
        assert v.attained is NEG_INF
        assert not v.equality_predicted and not v.equality_observed
        assert v.passed


class TestEwingSchober:
    @pytest.mark.parametrize("m, bound", [(0, 1), (1, 3), (4, 9)])
    def test_bound(self, table, m, bound):
        v = check_ewing_schober(m, table.value(2, m))
        assert v.bound == bound
        assert v.equality_predicted is None and v.equality_observed is None
        assert v.passed

    def test_zero_coefficient(self, table):
        assert check_ewing_schober(4, table.value(2, 4)).attained is NEG_INF


class TestLevin:
    @pytest.mark.parametrize("m, attained", [(1, 3), (3, 7), (5, 10)])
    def test_exact_equality(self, table, m, attained):
        v = check_levin(m, table.value(2, m))
        assert v.attained == attained == v.bound == factorial_valuation(2 * m + 2, 2)
        assert v.equality_predicted and v.equality_observed and v.passed

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            check_levin(4, rational(0))


class TestYamashita:
    def test_prime_two(self, table):
        v = check_yamashita(2, 1, table.value(2, 1))
        assert v.bound == 3 and v.attained == 3
        assert v.equality_predicted and v.passed

    def test_non_divisible_index_vanishes(self, table):
        v = check_yamashita(3, 2, table.value(3, 2))
        assert v.bound is NEG_INF and v.attained is NEG_INF
        assert v.passed

    def test_equality_at_m_equals_p_minus_2(self, table):
        v = check_yamashita(3, 1, table.value(3, 1))
        assert v.bound == 1 and v.attained == 1
        assert v.equality_predicted and v.passed

    def test_rejects_composite_degree(self):
        with pytest.raises(ValueError):
            check_yamashita(4, 1, rational(0))
        with pytest.raises(ValueError):
            check_yamashita(1, 1, rational(0))

    def test_agrees_with_main_for_degree_two(self, table):
        # for p = 2 the floor-form bound coincides with the additive form
        for m in range(0, 41):
            ya = check_yamashita(2, m, table.value(2, m))
            (main,) = check_main(2, m, table.value(2, m))
            assert ya.bound == main.bound
            assert ya.attained == main.attained
            assert ya.equality_predicted == main.equality_predicted
            assert ya.passed and main.passed

    @pytest.mark.parametrize("p", [3, 5])
    def test_floor_form_is_weaker_for_odd_primes(self, table, p):
        # floor(nu_p((pm+p)!)/(p-1)) >= a + nu_p(a!), with equality often
        # but not always (first gaps: p=3 at m=9, p=5 at m=35).  Where the
        # forms differ the printed equality clause is refuted by the exact
        # coefficient, and the check reports exactly those failures.
        for m in range(0, 41):
            if (m + 1) % (p - 1) != 0:
                continue
            a = (m + 1) // (p - 1)
            floor_form = factorial_valuation(p * m + p, p) // (p - 1)
            additive_form = a + factorial_valuation(a, p)
            assert floor_form >= additive_form
            ya = check_yamashita(p, m, table.value(p, m))
            (main,) = check_main(p, m, table.value(p, m))
            assert main.passed
            assert ya.bound == floor_form and main.bound == additive_form
            assert ya.passed == (floor_form == additive_form)

    def test_known_counterexample_to_floor_form_equality(self, table):
        # m = 29, p = 3: attained 21 = additive form, floor form 22, and
        # 3 does not divide 29, so the floor-form clause predicts an
        # equality that does not happen
        v = check_yamashita(3, 29, table.value(3, 29))
        assert v.bound == 22 and v.attained == 21
        assert v.equality_predicted and not v.equality_observed
        assert not v.passed
        (main,) = check_main(3, 29, table.value(3, 29))
        assert main.bound == 21 and main.passed


class TestVanishing:
    @pytest.mark.parametrize("d, m", [(3, 2), (4, 1), (5, 10)])
    def test_full_computation_returns_zero(self, table, d, m):
        v = check_vanishing(d, m, table.value(d, m))
        assert v.attained is NEG_INF
        assert v.passed

    def test_rejects_degree_two_and_divisible_cases(self):
        with pytest.raises(ValueError):
            check_vanishing(2, 2, rational(0))
        with pytest.raises(ValueError):
            check_vanishing(3, 1, rational(0))
        with pytest.raises(ValueError):
            check_vanishing(3, 0, rational(0))

    def test_ignores_shortcut_records_in_full_table(self):
        # a poisoned shortcut or cached record must not make the check vacuous
        for method in ("special-case", "cached"):
            poisoned = CoeffTable()
            poisoned.add(CoeffRecord(3, 2, rational(1, 9), method))
            (v,) = suite_verdicts([3], 2, ["vanishing"], poisoned)
            assert v.passed, method
            assert poisoned.get(3, 2) == CoeffRecord(3, 2, 0, "sweep"), method

    def test_trusts_genuine_full_records(self):
        full = CoeffTable()
        full.add(CoeffRecord(3, 2, rational(1, 9), "residue"))
        (v,) = suite_verdicts([3], 2, ["vanishing"], full)
        assert not v.passed


class TestIntegrality:
    @pytest.mark.parametrize(
        "d, m, bound, attained",
        [(2, 1, 3, 3), (2, 0, 1, 1), (4, 2, 1, 1), (2, 4, 8, 0)],
    )
    def test_exponent_clears_denominator(self, table, d, m, bound, attained):
        v = check_integrality(d, m, table.value(d, m))
        assert (v.bound, v.attained) == (bound, attained)
        assert v.passed
        value = table.value(d, m)
        assert (value * rational(d) ** v.bound).denominator == 1

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            check_integrality(3, 2, rational(0))

    def test_non_dadic_value_cannot_be_cleared(self):
        v = check_integrality(2, 1, rational(1, 3))
        assert v.attained is POS_INF
        assert not v.passed


class TestDadic:
    def test_computed_values_pass(self, table):
        for d, m in [(2, 5), (3, 3), (6, 9), (12, 10)]:
            assert check_dadic(d, m, table.value(d, m)).passed

    def test_foreign_denominator_fails(self):
        assert not check_dadic(2, 1, rational(1, 3)).passed


@pytest.mark.parametrize("name, call", [
    ("main", check_main),
    ("levin", lambda d, m, value: check_levin(m, value)),
    ("yamashita", check_yamashita),
    ("vanishing", check_vanishing),
    ("integrality", check_integrality),
])
def test_checks_raise_exactly_where_they_do_not_apply(table, name, call):
    # CHECKS[name].applies is the only statement of where a check applies;
    # levin is a d = 2 statement, so it is asked at d = 2 only
    degrees = [2] if name == "levin" else range(2, 13)
    for d in degrees:
        for m in range(41):
            if checks.CHECKS[name].applies(d, m):
                call(d, m, table.value(d, m))
            else:
                with pytest.raises(ValueError):
                    call(d, m, table.value(d, m))


class TestNonvanishingConsequence:
    def test_predicted_equality_forces_nonzero(self, table):
        # when some prime factor of d does not divide m (or m = d-2),
        # the coefficient cannot vanish
        for d in (2, 3, 4):
            for m in range(0, 31):
                if (m + 1) % (d - 1) != 0:
                    continue
                for v in check_main(d, m, table.value(d, m)):
                    if v.equality_predicted:
                        assert table.value(d, m) != 0


class TestSuite:
    def test_zagier_suite_counts_and_passes(self, table):
        verdicts = suite_verdicts([2], 10, ["zagier"], table)
        assert len(verdicts) == 11
        assert all(v.passed for v in verdicts)

    def test_empty_checks_empty_report(self, table):
        assert suite_verdicts([2], 10, [], table) == []
        assert format_report([]).startswith(REPORT_HEADER)

    def test_unknown_check_rejected(self, table):
        with pytest.raises(ValueError, match="unknown"):
            suite_verdicts([2], 5, ["bogus"], table)

    def test_composite_degree_covers_both_primes(self, table):
        verdicts = suite_verdicts([6], 50, ["main"], table)
        assert {v.p for v in verdicts} == {2, 3}
        assert len(verdicts) == 2 * len([m for m in range(51) if (m + 1) % 5 == 0])
        assert all(v.passed for v in verdicts)

    def test_degree_restrictions(self, table):
        # zagier/ewing-schober/levin are degree-2 statements; yamashita
        # needs a prime degree; vanishing needs d >= 3
        assert suite_verdicts([3], 5, ["zagier", "ewing-schober", "levin"], table) == []
        assert suite_verdicts([4], 5, ["yamashita"], table) == []
        assert suite_verdicts([2], 5, ["vanishing"], table) == []

    def test_duplicate_check_names_collapse(self, table):
        once = suite_verdicts([2], 5, ["zagier"], table)
        twice = suite_verdicts([2], 5, ["zagier", "zagier"], table)
        assert once == twice

    def test_small_composite_sweep(self, table):
        # everything passes except the yamashita floor-form check at the
        # indices where that form exceeds the (verified) additive bound
        verdicts = suite_verdicts([2, 3, 4, 6], 25, list(CHECK_NAMES), table)
        failures = [v for v in verdicts if not v.passed]
        assert {(v.check, v.d, v.m) for v in failures} == {
            ("yamashita", 3, 9),
            ("yamashita", 3, 15),
        }

    def test_verdicts_sorted(self, table):
        verdicts = suite_verdicts([2, 6], 8, ["main", "dadic"], table)
        keys = [(v.check, v.d, v.m, v.p if v.p is not None else -1) for v in verdicts]
        assert keys == sorted(keys)


class TestOneFillPath:
    """A library caller's table is filled by one sweep per degree, as the
    command line's is; nothing falls back to a per-index route."""

    @pytest.fixture
    def calls(self, monkeypatch):
        made = []

        def counting(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                made.append((name, args[0]))
                return real(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(coeffs, "coefficients_by_sweep")
        counting(coeffs, "laurent_coefficient")
        counting(coeffs, "coefficient_by_residue")
        return made

    def test_suite_verdicts(self, calls):
        verdicts = suite_verdicts([2, 3], 60, CHECK_NAMES)
        assert verdicts
        assert calls == [("coefficients_by_sweep", 2), ("coefficients_by_sweep", 3)]

    def test_zero_census(self, calls):
        assert (4, False) in zero_census(2, 60)
        assert calls == [("coefficients_by_sweep", 2)]

    def test_trusted_full_records_are_not_swept_again(self, calls):
        table = CoeffTable()
        first = suite_verdicts([3], 60, ["vanishing"], table)
        assert calls == [("coefficients_by_sweep", 3)]
        calls.clear()
        assert suite_verdicts([3], 60, ["vanishing"], table) == first
        assert calls == []


class TestReportFormat:
    def test_line_fields(self, table):
        v = check_zagier(4, table.value(2, 4))
        line = verdict_line(v)
        assert line == "zagier,2,4,2,8,neg_inf,false,false,true"

    def test_bound_only_checks_serialize_dashes(self, table):
        line = verdict_line(check_ewing_schober(4, table.value(2, 4)))
        fields = line.split(",")
        assert fields[6] == "-" and fields[7] == "-"

    def test_report_has_header_and_checksum(self, table):
        verdicts = suite_verdicts([2], 5, ["zagier"], table)
        text = format_report(verdicts)
        lines = text.splitlines()
        assert lines[0] == REPORT_HEADER
        assert lines[-1].startswith("#sha256:")
        assert len(lines) == len(verdicts) + 2

    def test_report_is_deterministic(self, table):
        verdicts = suite_verdicts([2, 3], 12, ["main", "vanishing"], table)
        assert format_report(verdicts) == format_report(list(reversed(verdicts)))

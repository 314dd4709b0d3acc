import random

import pytest
from hypothesis import given, settings, strategies as st

from multibrot.checks import (
    CHECK_NAMES,
    REPORT_HEADER,
    Verdict,
    check_dadic,
    check_ewing_schober,
    check_integrality,
    check_levin,
    check_main,
    check_vanishing,
    check_yamashita,
    check_zagier,
    format_report,
    suite_verdicts,
    verdict_line,
)
from multibrot import checks, coeffs
from multibrot.coeffs import coefficients_by_sweep, zero_census
from multibrot.exact import NEG_INF, POS_INF, factorial_valuation, rational


@pytest.fixture(scope="module")
def values():
    return {(d, m): value for d in range(2, 13)
            for m, value in enumerate(coefficients_by_sweep(d, 60))}


def test_denominator_exponent():
    assert checks._exponent({}, rational(1, 8), 2) == 3
    assert checks._exponent({}, rational(5, 4), 3) == 0
    assert checks._exponent({}, rational(3, 4), 3) == -1  # p divides the numerator
    assert checks._exponent({}, rational(9, 4), 3) == -2
    assert checks._exponent({}, rational(0), 2) is NEG_INF


class TestMain:
    def test_m_zero_degree_two(self, values):
        (v,) = check_main(2, 0, values[2, 0])
        assert (v.bound, v.attained) == (1, 1)
        assert v.equality_predicted and v.equality_observed and v.passed

    def test_equality_from_odd_index(self, values):
        (v,) = check_main(2, 1, values[2, 1])
        assert (v.bound, v.attained) == (3, 3)
        assert v.equality_predicted and v.passed

    def test_strict_inequality(self, values):
        (v,) = check_main(2, 2, values[2, 2])
        assert (v.bound, v.attained) == (4, 2)
        assert not v.equality_predicted and not v.equality_observed
        assert v.passed

    def test_prime_power_degree(self, values):
        (v,) = check_main(4, 2, values[4, 2])
        assert v.p == 2
        assert (v.bound, v.attained) == (2, 2)
        assert v.equality_predicted and v.passed

    def test_composite_degree_yields_one_verdict_per_prime(self, values):
        verdicts = check_main(6, 4, values[6, 4])
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
    def test_small_indices(self, values, m, bound, attained, equal):
        v = check_zagier(m, values[2, m])
        assert (v.bound, v.attained) == (bound, attained)
        assert v.equality_predicted == equal == v.equality_observed
        assert v.passed

    def test_zero_coefficient_attains_minus_infinity(self, values):
        v = check_zagier(4, values[2, 4])
        assert v.attained is NEG_INF
        assert not v.equality_predicted and not v.equality_observed
        assert v.passed


class TestEwingSchober:
    @pytest.mark.parametrize("m, bound", [(0, 1), (1, 3), (4, 9)])
    def test_bound(self, values, m, bound):
        v = check_ewing_schober(m, values[2, m])
        assert v.bound == bound
        assert v.equality_predicted is None and v.equality_observed is None
        assert v.passed

    def test_zero_coefficient(self, values):
        assert check_ewing_schober(4, values[2, 4]).attained is NEG_INF


class TestLevin:
    @pytest.mark.parametrize("m, attained", [(1, 3), (3, 7), (5, 10)])
    def test_exact_equality(self, values, m, attained):
        v = check_levin(m, values[2, m])
        assert v.attained == attained == v.bound == factorial_valuation(2 * m + 2, 2)
        assert v.equality_predicted and v.equality_observed and v.passed

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            check_levin(4, rational(0))


class TestYamashita:
    def test_prime_two(self, values):
        v = check_yamashita(2, 1, values[2, 1])
        assert v.bound == 3 and v.attained == 3
        assert v.equality_predicted and v.passed

    def test_non_divisible_index_vanishes(self, values):
        v = check_yamashita(3, 2, values[3, 2])
        assert v.bound is NEG_INF and v.attained is NEG_INF
        assert v.passed

    def test_equality_at_m_equals_p_minus_2(self, values):
        v = check_yamashita(3, 1, values[3, 1])
        assert v.bound == 1 and v.attained == 1
        assert v.equality_predicted and v.passed

    def test_rejects_composite_degree(self):
        with pytest.raises(ValueError):
            check_yamashita(4, 1, rational(0))
        with pytest.raises(ValueError):
            check_yamashita(1, 1, rational(0))

    def test_agrees_with_main_for_degree_two(self, values):
        # for p = 2 the floor-form bound coincides with the additive form
        for m in range(0, 41):
            ya = check_yamashita(2, m, values[2, m])
            (main,) = check_main(2, m, values[2, m])
            assert ya.bound == main.bound
            assert ya.attained == main.attained
            assert ya.equality_predicted == main.equality_predicted
            assert ya.passed and main.passed

    @pytest.mark.parametrize("p", [3, 5])
    def test_floor_form_is_weaker_for_odd_primes(self, values, p):
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
            ya = check_yamashita(p, m, values[p, m])
            (main,) = check_main(p, m, values[p, m])
            assert main.passed
            assert ya.bound == floor_form and main.bound == additive_form
            assert ya.passed == (floor_form == additive_form)

    def test_form_gap_is_the_floor_of_the_multinomial_valuation(self):
        # F - A = floor(c/(p-1)) with c = nu_p(((p-1)a)!/(a!)^(p-1)), from
        # Legendre's nu_p((px)!) = x + nu_p(x!); for p = 2 the multinomial
        # is 1, so the forms never differ there; each odd p first differs
        # at a = 2p - 1
        cases, gaps = 0, {}
        for p in (2, 3, 5, 7, 11, 13):
            for m in range(p - 2, 5001, p - 1):
                a = (m + 1) // (p - 1)
                floor_form = factorial_valuation(p * (m + 1), p) // (p - 1)
                additive_form = a + factorial_valuation(a, p)
                c = factorial_valuation((p - 1) * a, p) - (p - 1) * factorial_valuation(a, p)
                assert floor_form - additive_form == c // (p - 1), (p, m)
                cases += 1
                if floor_form != additive_form:
                    gaps.setdefault(p, m)
        assert cases == 10500
        assert gaps == {p: (2 * p - 1) * (p - 1) - 1 for p in (3, 5, 7, 11, 13)}

    def test_known_counterexample_to_floor_form_equality(self, values):
        # m = 29, p = 3: attained 21 = additive form, floor form 22, and
        # 3 does not divide 29, so the floor-form clause predicts an
        # equality that does not happen
        v = check_yamashita(3, 29, values[3, 29])
        assert v.bound == 22 and v.attained == 21
        assert v.equality_predicted and not v.equality_observed
        assert not v.passed
        (main,) = check_main(3, 29, values[3, 29])
        assert main.bound == 21 and main.passed


class TestVanishing:
    @pytest.mark.parametrize("d, m", [(3, 2), (4, 1), (5, 10)])
    def test_full_computation_returns_zero(self, values, d, m):
        v = check_vanishing(d, m, values[d, m])
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
        # a poisoned cached value must not make the check vacuous, whatever
        # route it claims to come from: a full pair is always computed anew
        poisoned = {(3, 2): rational(1, 9)}
        (v,) = suite_verdicts([3], 2, ["vanishing"], poisoned)
        assert v.passed
        assert poisoned == {(3, 2): rational(1, 9)}  # the caller's mapping is not written


class TestIntegrality:
    @pytest.mark.parametrize(
        "d, m, bound, attained",
        [(2, 1, 3, 3), (2, 0, 1, 1), (4, 2, 1, 1), (2, 4, 8, 0)],
    )
    def test_exponent_clears_denominator(self, values, d, m, bound, attained):
        v = check_integrality(d, m, values[d, m])
        assert (v.bound, v.attained) == (bound, attained)
        assert v.passed
        value = values[d, m]
        assert (value * rational(d) ** v.bound).denominator == 1

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            check_integrality(3, 2, rational(0))

    def test_non_dadic_value_cannot_be_cleared(self):
        v = check_integrality(2, 1, rational(1, 3))
        assert v.attained is POS_INF
        assert not v.passed


class TestDadic:
    def test_computed_values_pass(self, values):
        for d, m in [(2, 5), (3, 3), (6, 9), (12, 10)]:
            assert check_dadic(d, m, values[d, m]).passed

    def test_foreign_denominator_fails(self):
        assert not check_dadic(2, 1, rational(1, 3)).passed


@pytest.mark.parametrize("name, call", [
    ("main", check_main),
    ("levin", lambda d, m, value: check_levin(m, value)),
    ("yamashita", check_yamashita),
    ("vanishing", check_vanishing),
    ("integrality", check_integrality),
])
def test_checks_raise_exactly_where_they_do_not_apply(values, name, call):
    # CHECKS[name].applies is the only statement of where a check applies;
    # levin is a d = 2 statement, so it is asked at d = 2 only
    degrees = [2] if name == "levin" else range(2, 13)
    for d in degrees:
        for m in range(41):
            if checks.CHECKS[name].applies(d, m):
                call(d, m, values[d, m])
            else:
                with pytest.raises(ValueError):
                    call(d, m, values[d, m])


class TestNonvanishingConsequence:
    def test_predicted_equality_forces_nonzero(self, values):
        # when some prime factor of d does not divide m (or m = d-2),
        # the coefficient cannot vanish
        for d in (2, 3, 4):
            for m in range(0, 31):
                if (m + 1) % (d - 1) != 0:
                    continue
                for v in check_main(d, m, values[d, m]):
                    if v.equality_predicted:
                        assert values[d, m] != 0


class TestSuite:
    def test_zagier_suite_counts_and_passes(self, values):
        verdicts = suite_verdicts([2], 10, ["zagier"], values)
        assert len(verdicts) == 11
        assert all(v.passed for v in verdicts)

    def test_empty_checks_empty_report(self, values):
        assert suite_verdicts([2], 10, [], values) == []
        assert format_report([]).startswith(REPORT_HEADER)

    def test_unknown_check_rejected(self, values):
        with pytest.raises(ValueError, match="unknown"):
            suite_verdicts([2], 5, ["bogus"], values)

    def test_composite_degree_covers_both_primes(self, values):
        verdicts = suite_verdicts([6], 50, ["main"], values)
        assert {v.p for v in verdicts} == {2, 3}
        assert len(verdicts) == 2 * len([m for m in range(51) if (m + 1) % 5 == 0])
        assert all(v.passed for v in verdicts)

    def test_degree_restrictions(self, values):
        # zagier/ewing-schober/levin are degree-2 statements; yamashita
        # needs a prime degree; vanishing needs d >= 3
        assert suite_verdicts([3], 5, ["zagier", "ewing-schober", "levin"], values) == []
        assert suite_verdicts([4], 5, ["yamashita"], values) == []
        assert suite_verdicts([2], 5, ["vanishing"], values) == []

    def test_duplicate_check_names_collapse(self, values):
        once = suite_verdicts([2], 5, ["zagier"], values)
        twice = suite_verdicts([2], 5, ["zagier", "zagier"], values)
        assert once == twice

    def test_small_composite_sweep(self, values):
        # everything passes except the yamashita floor-form check at the
        # indices where that form exceeds the (verified) additive bound
        verdicts = suite_verdicts([2, 3, 4, 6], 25, list(CHECK_NAMES), values)
        failures = [v for v in verdicts if not v.passed]
        assert {(v.check, v.d, v.m) for v in failures} == {
            ("yamashita", 3, 9),
            ("yamashita", 3, 15),
        }

    def test_verdicts_sorted(self, values):
        verdicts = suite_verdicts([2, 6], 8, ["main", "dadic"], values)
        keys = [(v.check, v.d, v.m, v.p if v.p is not None else -1) for v in verdicts]
        assert keys == sorted(keys)

    def test_shuffled_duplicated_requests_come_sorted(self, values):
        # the suite lists (check, d, m) in order and check_main takes the
        # primes in order, so the suite's verdicts need no sort of their own
        names = list(CHECK_NAMES) * 2
        degrees = [2, 3, 4, 5, 6, 9, 12] * 2
        rng = random.Random(23)
        rng.shuffle(names)
        rng.shuffle(degrees)
        verdicts = suite_verdicts(degrees, 60, names, values)
        keys = [v[:4] for v in verdicts]
        assert keys == sorted(set(keys))
        assert len(verdicts) == 1350
        assert verdicts == suite_verdicts([2, 3, 4, 5, 6, 9, 12], 60, list(CHECK_NAMES), values)


class TestSuiteReadsLittle:
    """``suite_verdicts`` looks up only the pairs it judges and values
    each (d, m, p) once, however many checks read it."""

    def test_only_judged_pairs_are_looked_up(self, values):
        looked_up = []

        class LookupsOnly(dict):
            def __contains__(self, key):
                looked_up.append(key)
                return super().__contains__(key)

            def __iter__(self):
                raise AssertionError("the suite walked the whole cache")

            def items(self):
                raise AssertionError("the suite walked the whole cache")

        cached = LookupsOnly(values)
        names = ["zagier", "dadic"]
        assert suite_verdicts([2], 10, names, cached) == suite_verdicts([2], 10, names)
        assert sorted(looked_up) == [(2, m) for m in range(11)]

    def test_one_valuation_per_pair_and_prime(self, values, monkeypatch):
        primes = []
        real = checks.padic_valuation

        def counting(x, p):
            primes.append(p)
            return real(x, p)

        monkeypatch.setattr(checks, "padic_valuation", counting)
        names = [name for name in CHECK_NAMES if name != "vanishing"]
        verdicts = suite_verdicts([2, 6], 40, names, values)
        # d = 2 has five checks reading nu_2 at each m, d = 6 two reading
        # nu_2 and nu_3 at each divisible m
        assert len(verdicts) > len(primes)
        assert primes.count(2) <= 41 + 41 and primes.count(3) <= 41
        assert set(primes) == {2, 3}


LADDER = (2, 3, 4, 5, 6, 7, 8, 9, 12, 30)


@pytest.fixture(scope="module")
def ladder():
    return {(d, m): value for d in LADDER
            for m, value in enumerate(coefficients_by_sweep(d, 60))}


# Each check's public function, called as the suite's judges are: at one
# (d, m) on one value, returning a list of verdicts.
PUBLIC = {
    "main": check_main,
    "zagier": lambda d, m, v: [check_zagier(m, v)],
    "ewing-schober": lambda d, m, v: [check_ewing_schober(m, v)],
    "levin": lambda d, m, v: [check_levin(m, v)],
    "yamashita": lambda d, m, v: [check_yamashita(d, m, v)],
    "vanishing": lambda d, m, v: [check_vanishing(d, m, v)],
    "integrality": lambda d, m, v: [check_integrality(d, m, v)],
    "dadic": lambda d, m, v: [check_dadic(d, m, v)],
}


def test_every_verdict_is_a_verdict(values):
    # tuple equality cannot tell a plain tuple from a Verdict, but callers
    # read the fields by name (``v.passed``)
    verdicts = suite_verdicts([*range(2, 10), 12, 30], 40, CHECK_NAMES)
    assert {v.check for v in verdicts} == set(CHECK_NAMES)
    assert not all(v.passed for v in verdicts)  # the refuted yamashita verdicts too
    assert all(type(v) is Verdict for v in verdicts)
    public = [v for name, call in PUBLIC.items() for d in [*range(2, 10), 12]
              for m in range(41) if checks.CHECKS[name].applies(d, m)
              for v in call(d, m, values[d, m])]
    public += [check_integrality(2, 1, rational(1, 3)), check_dadic(2, 1, rational(1, 3))]
    assert {v.check for v in public} == set(CHECK_NAMES)
    assert all(type(v) is Verdict for v in public)


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_public_checks_judge_by_their_checks_row(values, name, monkeypatch):
    # a public check reaches its judge only through CHECKS, so replacing
    # the row replaces what the public function returns
    sentinel = object()
    calls = []

    def judge(d, m, value, exps):
        calls.append((d, m, value, exps))
        return [sentinel]

    row = checks.CHECKS[name]
    monkeypatch.setitem(checks.CHECKS, name, row._replace(verdicts=judge))
    d, m = next((d, m) for d in range(2, 13) for m in range(61) if row.applies(d, m))
    assert PUBLIC[name](d, m, values[d, m]) == [sentinel]
    assert calls == [(d, m, values[d, m], {})]


@st.composite
def suite_requests(draw):
    """Degrees, m_max, check names, and None (no cache) or the requested
    pair whose cached value is wrong but d-adic."""
    degrees = draw(st.lists(st.sampled_from(LADDER), min_size=1, max_size=3))
    m_max = draw(st.integers(0, 60))
    names = draw(st.lists(st.sampled_from(CHECK_NAMES), min_size=1, unique=True))
    wrong = draw(st.none() | st.tuples(st.sampled_from(degrees), st.integers(0, m_max)))
    return degrees, m_max, names, wrong


@settings(max_examples=60, deadline=None)
@given(asked=suite_requests())
def test_suite_agrees_with_the_public_checks(ladder, asked):
    # the suite reads a cached value except where a full check applies,
    # and each public function judges the value the suite reads
    degrees, m_max, names, wrong = asked
    cached = None
    if wrong is not None:
        cached = dict(ladder)
        cached[wrong] += rational(1, wrong[0])
    expected = []
    for name in names:
        for d in set(degrees):
            for m in range(m_max + 1):
                if not checks.CHECKS[name].applies(d, m):
                    continue
                fresh = cached is None or any(
                    checks.CHECKS[other].full and checks.CHECKS[other].applies(d, m)
                    for other in names)
                value = ladder[d, m] if fresh else cached[d, m]
                expected += PUBLIC[name](d, m, value)
    assert suite_verdicts(degrees, m_max, names, cached) == sorted(expected)


class TestOneFillPath:
    """A library caller's values come from one sweep per degree, as the
    command line's do; nothing falls back to a per-index route."""

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

    def test_zero_census(self, calls, monkeypatch):
        assert (4, False) in zero_census(2, 60)
        assert calls == [("coefficients_by_sweep", 2)]
        # every zero is computed, also where the criterion covers the whole range
        calls.clear()
        counted, swept_to = coeffs.coefficients_by_sweep, []

        def recording(d, m_max):
            swept_to.append(m_max)
            return counted(d, m_max)

        monkeypatch.setattr(coeffs, "coefficients_by_sweep", recording)
        assert zero_census(5, 2) == [(0, True), (1, True), (2, True)]
        assert calls == [("coefficients_by_sweep", 5)] and swept_to == [2]

    def test_full_pairs_are_swept_despite_a_cache(self, calls, values):
        cached = {key: value for key, value in values.items() if key[0] == 3}
        assert suite_verdicts([3], 60, ["vanishing"], cached)
        assert calls == [("coefficients_by_sweep", 3)]
        calls.clear()
        assert suite_verdicts([3], 60, ["main"], cached)
        assert calls == []


class TestCacheRule:
    """``suite_verdicts`` judges a cached value as given, except at the
    pairs of full checks, and sweeps each degree once, up to the largest
    index the cache does not cover or a full pair needs."""

    @pytest.fixture
    def sweeps(self, monkeypatch):
        made = []
        real = coeffs.coefficients_by_sweep

        def sweep(d, m_max):
            made.append((d, m_max))
            return real(d, m_max)

        monkeypatch.setattr(coeffs, "coefficients_by_sweep", sweep)
        return made

    def test_sweeps_uncached_and_full_pairs_only(self, sweeps, values):
        # wrong but d-adic b_1 = 1/2 for d = 2 is judged as given; foreign
        # b_2 = 1/5 for d = 3 sits at a vanishing pair, so every check there
        # reads the swept value instead
        cached = {(2, 1): rational(1, 2), (2, 3): values[2, 3],
                  (3, 1): values[3, 1], (3, 2): rational(1, 5), (3, 3): values[3, 3]}
        verdicts = suite_verdicts([2, 3], 3, ["zagier", "vanishing", "dadic"], cached)
        assert sweeps == [(2, 2), (3, 2)]
        assert [(v.check, v.d, v.m) for v in verdicts if not v.passed] == [("zagier", 2, 1)]
        assert {(v.check, v.d, v.m) for v in verdicts if v.d == 3 and v.m == 2} == {
            ("dadic", 3, 2), ("vanishing", 3, 2)}

    def test_no_sweep_when_the_cache_covers_every_pair(self, sweeps, values):
        cached = {(2, m): values[2, m] for m in range(11)}
        assert suite_verdicts([2], 10, ["zagier", "levin"], cached) == \
            suite_verdicts([2], 10, ["zagier", "levin"])
        assert sweeps == [(2, 10)]  # only the uncached call swept


class TestVerdict:
    def test_fields_cannot_be_assigned(self, values):
        # a verdict, a coefficient record and a CHECKS row are all tuples
        v = check_zagier(4, values[2, 4])
        record = coeffs.laurent_coefficient(2, 4)
        row = checks.CHECKS["vanishing"]
        for obj, field, new in ((v, "passed", False), (record, "value", 1),
                                (row, "full", False)):
            old = getattr(obj, field)
            with pytest.raises(AttributeError):
                setattr(obj, field, new)
            assert getattr(obj, field) is old
        assert v.passed and record.value == 0 and row.full

    def test_field_names_and_order(self):
        assert checks.Verdict._fields == (
            "check", "d", "m", "p", "bound", "attained",
            "equality_predicted", "equality_observed", "passed",
        )
        assert coeffs.CoeffRecord._fields == ("d", "m", "value", "method")
        assert checks.Check._fields == ("applies", "verdicts", "full")
        assert checks.Check(None, None).full is False

    def test_yamashita_forced_failure_changes_only_passed(self, values):
        # at p=3, m=9 the floor form 7 exceeds the additive form 5 + nu_3(5!) = 6
        v = check_yamashita(3, 9, values[3, 9])
        assert v.bound == 7 != 5 + factorial_valuation(5, 3)
        plain = checks._bound_verdict("yamashita", 3, 9, 3, v.bound, v.attained,
                                      v.equality_predicted)
        assert plain.passed and not v.passed
        assert v == plain._replace(passed=False)


# attained, bound, equality_predicted, and the verdict line's last five
# fields: bound, attained, predicted, observed, passed
BOUND_VERDICTS = [
    (3, 5, None, "5,3,-,-,true"),
    (5, 5, None, "5,5,-,-,true"),
    (7, 5, None, "5,7,-,-,false"),
    (NEG_INF, 5, None, "5,neg_inf,-,-,true"),
    (NEG_INF, NEG_INF, None, "neg_inf,neg_inf,-,-,true"),
    (POS_INF, 5, None, "5,inf,-,-,false"),
    (3, 5, True, "5,3,true,false,false"),
    (5, 5, True, "5,5,true,true,true"),
    (7, 5, True, "5,7,true,false,false"),
    (NEG_INF, 5, True, "5,neg_inf,true,false,false"),
    (NEG_INF, NEG_INF, True, "neg_inf,neg_inf,true,true,true"),
    (POS_INF, 5, True, "5,inf,true,false,false"),
    (3, 5, False, "5,3,false,false,true"),
    (5, 5, False, "5,5,false,true,false"),
    (7, 5, False, "5,7,false,false,false"),
    (NEG_INF, 5, False, "5,neg_inf,false,false,true"),
    (NEG_INF, NEG_INF, False, "neg_inf,neg_inf,false,true,false"),
    (POS_INF, 5, False, "5,inf,false,false,false"),
]


@pytest.mark.parametrize("attained,bound,predicted,fields", BOUND_VERDICTS,
                         ids=[row[3] for row in BOUND_VERDICTS])
def test_bound_verdict_truth_table(attained, bound, predicted, fields):
    v = checks._bound_verdict("t", 2, 1, 2, bound, attained, predicted)
    assert verdict_line(v) == "t,2,1,2," + fields
    assert v.bound is bound and v.attained is attained
    assert v.equality_predicted is predicted
    # bools and None themselves, not values that merely print as them
    observed, passed = fields.split(",")[3:]
    as_bool = {"-": None, "true": True, "false": False}
    assert v.equality_observed is as_bool[observed]
    assert v.passed is as_bool[passed]


class TestReportFormat:
    def test_line_fields(self, values):
        v = check_zagier(4, values[2, 4])
        line = verdict_line(v)
        assert line == "zagier,2,4,2,8,neg_inf,false,false,true"

    @pytest.mark.parametrize("verdict, line", [
        (check_ewing_schober(0, rational(-1, 2)), "ewing-schober,2,0,2,1,1,-,-,true"),
        (*check_main(2, 0, rational(-1, 2)), "main,2,0,2,1,1,true,true,true"),
    ], ids=["ewing-schober", "main"])
    def test_numbers_zero_and_one_are_not_flags(self, verdict, line):
        # as dict keys True equals 1 and False equals 0, so a number read
        # as a flag would print as true or false
        assert verdict_line(verdict) == line

    def test_bound_only_checks_serialize_dashes(self, values):
        line = verdict_line(check_ewing_schober(4, values[2, 4]))
        fields = line.split(",")
        assert fields[6] == "-" and fields[7] == "-"

    def test_report_has_header_and_checksum(self, values):
        verdicts = suite_verdicts([2], 5, ["zagier"], values)
        text = format_report(verdicts)
        lines = text.splitlines()
        assert lines[0] == REPORT_HEADER
        assert lines[-1].startswith("#sha256:")
        assert len(lines) == len(verdicts) + 2

    def test_report_is_deterministic(self, values):
        verdicts = suite_verdicts([2, 3], 12, ["main", "vanishing"], values)
        assert format_report(verdicts) == format_report(list(reversed(verdicts)))


@pytest.mark.parametrize("call", [
    lambda v: check_zagier(-1, v),
    lambda v: check_ewing_schober(-1, v),
    lambda v: check_levin(-1, v),
    lambda v: check_main(2, -1, v),
    lambda v: check_integrality(2, -1, v),
    lambda v: check_yamashita(2, -1, v),
    lambda v: check_vanishing(3, -2, v),
    lambda v: check_dadic(2, -5, v),
    lambda v: check_dadic(1, 3, v),
    lambda v: check_main(2.0, 1, v),
    lambda v: check_zagier(1.0, v),
], ids=["zagier", "ewing-schober", "levin", "main", "integrality", "yamashita",
        "vanishing", "dadic", "dadic-d1", "main-float-d", "zagier-float-m"])
def test_checks_reject_indices_that_do_not_exist(call):
    # b_m exists for integer d >= 2 and m >= 0 only; a verdict at any
    # other index would judge a coefficient that is not there
    with pytest.raises(ValueError):
        call(rational(1, 2))


@pytest.mark.parametrize("degrees, m_max, names", [
    ([1], 3, ["zagier"]),
    ([1], 3, ["levin"]),
    ([1], 3, ["yamashita"]),
    ([0], 3, ["zagier"]),
    ([0], 3, ["dadic"]),
    ([2, 1], 3, ["ewing-schober"]),
    ([2], -1, ["zagier"]),
    ([2], -1, list(CHECK_NAMES)),
    ([2.0], 3, ["zagier"]),
    ([2], 3.0, ["zagier"]),
])
def test_suite_rejects_indices_that_do_not_exist(degrees, m_max, names):
    # rejected before any check's `applies` is read and before any sweep
    with pytest.raises(ValueError, match="must be >= "):
        suite_verdicts(degrees, m_max, names)

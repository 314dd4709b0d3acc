import gc
import itertools
import math
import re
import sys

import pytest

from multibrot import coeffs, exact, series
from multibrot.checks import (
    check_dadic,
    check_integrality,
    check_main,
    check_yamashita,
    suite_verdicts,
)
from multibrot.coeffs import (
    METHOD_COMBINATORIAL,
    METHOD_RESIDUE,
    METHOD_SPECIAL,
    choose_n,
    coefficient_by_partition_sum,
    coefficient_by_residue,
    coefficients_by_sweep,
    laurent_coefficient,
    partition_index_tuples,
    zero_census,
)
from multibrot.exact import binomial_general, padic_valuation, rational

# Exact values cross-checked between the residue and partition-sum routes
# (and, for odd m, against the known denominator exponent nu_2((2m+2)!)).
KNOWN_D2 = {
    0: rational(-1, 2),
    1: rational(1, 8),
    2: rational(-1, 4),
    3: rational(15, 128),
    4: rational(0),
    5: rational(-47, 1024),
    6: rational(-1, 16),
    7: rational(987, 32768),
    8: rational(0),
    9: rational(-3673, 262144),
}

# The unexplained zeros of d = 4..7 to m <= 2000, observed by the census.
UNEXPLAINED_ZEROS_TO_M2000 = {
    4: [8, 20, 32, 56, 68, 80, 116, 128, 176, 224, 272, 320, 368, 416, 464, 512, 560,
        608, 656, 704, 752, 800, 848, 896, 992, 1040, 1088, 1184, 1232, 1280, 1376,
        1424, 1472, 1568, 1616, 1664, 1760, 1808, 1856, 2000],
    5: [15, 35, 55, 75, 115, 135, 155, 175, 235, 255, 275, 355, 375, 475, 575, 675, 775,
        875, 975, 1075, 1175, 1275, 1375, 1475, 1575, 1675, 1775, 1875, 1975],
    6: [24, 54, 84, 114, 144, 204, 234, 264, 294, 324, 414, 444, 474, 504, 624, 654, 684,
        834, 864, 1044, 1224, 1404, 1584, 1764, 1944],
    7: [35, 77, 119, 161, 203, 245, 329, 371, 413, 455, 497, 539, 665, 707, 749, 791, 833,
        1001, 1043, 1085, 1127, 1337, 1379, 1421, 1673, 1715],
}


def degree_two_zero_block_rule(m_max):
    """The d = 2 zeros to m_max that the block rule predicts (a conjecture
    fitted to the census): m = 2^(n+1) k with 2^n - 1 <= k <= 4 (2^n - 1),
    n >= 1, in increasing order."""
    zeros = []
    n = 1
    while 2 ** (n + 1) * (2**n - 1) <= m_max:
        step, low = 2 ** (n + 1), 2**n - 1
        zeros += [step * k for k in range(low, 4 * low + 1) if step * k <= m_max]
        n += 1
    return zeros


def exponent_bands(values, p, top):
    """Data, no rule: -nu_p(b_m) / a at each m from 200 to len(values) - 1
    with (p-1) | (m+1) and p | m, where the main bound predicts a strict
    inequality; a = m for p = 2 and a = (m+1)/(p-1) otherwise.  Keyed by
    nu_p(m), with key ``top`` gathering every nu_p(m) from it up; each
    entry is (nonzero count, count, least ratio, greatest ratio)."""
    bands = {}
    for m in range(200, len(values)):
        if (m + 1) % (p - 1) == 0 and m % p == 0:
            a = m if p == 2 else (m + 1) // (p - 1)
            ratio = rational(-padic_valuation(values[m], p), a) if values[m] else None
            bands.setdefault(min(padic_valuation(m, p), top), []).append(ratio)
    found = {}
    for nu, ratios in bands.items():
        nonzero = [r for r in ratios if r is not None]
        found[nu] = (len(nonzero), len(ratios), min(nonzero, default=None),
                     max(nonzero, default=None))
    return found


# exponent_bands of the sweeps to m = 2000.  b_1952 is the one nonzero b_m
# with nu_2(m) >= 5 there; to m = 1000 every such b_m is zero.
BANDS_TO_M2000 = {
    2: {1: (450, 450, rational(9, 14), rational(1025, 1538)),
        2: (225, 225, rational(29, 110), rational(517, 1812)),
        3: (113, 113, rational(29, 264), rational(141, 1064)),
        4: (49, 57, rational(17, 308), rational(15, 232)),
        5: (1, 28, rational(31, 976), rational(31, 976)), 6: (0, 28, None, None)},
    3: {1: (200, 200, rational(36, 107), rational(367, 980)),
        2: (63, 67, rational(45, 428), rational(3, 26)), 3: (0, 33, None, None)},
    5: {1: (69, 72, rational(29, 149), rational(6, 29)), 2: (0, 18, None, None)},
    7: {1: (21, 37, rational(47, 328), rational(7, 48)), 2: (0, 6, None, None)},
}


def keep_sweeps(monkeypatch):
    """Patch ``coeffs.coefficients_by_sweep`` to keep the last table it
    returns per degree; returns the dict {d: table} it fills."""
    swept = {}
    real = coeffs.coefficients_by_sweep

    def keep(d, m_max):
        swept[d] = real(d, m_max)
        return swept[d]

    monkeypatch.setattr(coeffs, "coefficients_by_sweep", keep)
    return swept


class TestChooseN:
    @pytest.mark.parametrize(
        "d, m, expected",
        [(2, 1, 1), (2, 5, 2), (3, 6, 1), (2, 6, 3), (2, 1021, 9), (12, 141, 1), (12, 142, 2)],
    )
    def test_known(self, d, m, expected):
        assert choose_n(d, m) == expected

    def test_minimality_and_validity(self):
        for d in (2, 3, 5):
            for m in range(1, 120):
                n = choose_n(d, m)
                assert m <= d ** (n + 1) - 3
                assert n == 1 or m > d**n - 3

    def test_rejects_m_zero(self):
        with pytest.raises(ValueError):
            choose_n(2, 0)


class TestResidueRoute:
    @pytest.mark.parametrize("m, expected", [(m, v) for m, v in KNOWN_D2.items() if m >= 1])
    def test_degree_two_values(self, m, expected):
        assert coefficient_by_residue(2, m) == expected

    def test_equality_case_at_m_equals_d_minus_2(self):
        # degree 9 = 3^2, index m = d-2 = 7: denominator is exactly 9
        value = coefficient_by_residue(9, 7)
        assert value == rational(-1, 9)
        assert -padic_valuation(value, 3) == 2

    def test_parity_vanishing_degree_three(self):
        # (d-1) does not divide (m+1) here, so the full series sum collapses
        assert coefficient_by_residue(3, 2) == 0
        assert coefficient_by_residue(3, 4) == 0

    def test_any_admissible_order_gives_the_same_value(self):
        # Q_n and Q_{n+1} are different polynomial data, so agreement is also
        # an oracle that needs no second route: past m ~ 1000 the partition
        # sum takes seconds to minutes a call (d = 2: 6 s at m = 1021).
        for d, m in ((2, 1), (2, 3), (2, 5), (2, 11), (2, 150), (2, 200), (2, 260),
                     (3, 101), (3, 161)):
            n0 = choose_n(d, m)
            assert coefficient_by_residue(d, m, n0) == coefficient_by_residue(d, m, n0 + 1)

    def test_rejects_out_of_range_order(self):
        with pytest.raises(ValueError):
            coefficient_by_residue(2, 5, 1)  # 5 > 2^2 - 3
        with pytest.raises(ValueError):
            coefficient_by_residue(2, 1, 0)

    def test_builds_a_bounded_number_of_rationals(self, monkeypatch):
        # the series builds only the one tail term it returns, however many
        # terms the recurrence runs through
        calls = []

        def counting(*args):
            calls.append(args)
            return rational(*args)

        monkeypatch.setattr(series, "rational", counting)
        for d in (2, 3, 5):
            for m in range(1, 41):
                before = len(calls)
                coefficient_by_residue(d, m)
                assert len(calls) - before == 1, (d, m)


class TestPartitionIndexTuples:
    def test_single_weight(self):
        assert list(partition_index_tuples(2, 1, 2)) == [(2,)]

    def test_two_weights(self):
        # weights (3, 1) for d=2, n=2: 3*j1 + j2 = 5
        assert list(partition_index_tuples(2, 2, 5)) == [(0, 5), (1, 2)]

    def test_lexicographic_order(self):
        tuples = list(partition_index_tuples(2, 3, 11))
        assert tuples == sorted(tuples)

    @pytest.mark.parametrize("d, n, target", [(2, 2, 9), (2, 3, 12), (3, 2, 10), (4, 2, 17)])
    def test_matches_brute_force(self, d, n, target):
        weights = [d ** (n - k) - 1 for k in range(n)]
        ranges = [range(target // w + 1) for w in weights]
        expected = [
            tup
            for tup in itertools.product(*ranges)
            if sum(w * j for w, j in zip(weights, tup)) == target
        ]
        assert list(partition_index_tuples(d, n, target)) == expected

    def test_every_tuple_satisfies_the_constraint(self):
        d, n, target = 2, 4, 25
        weights = [d ** (n - k) - 1 for k in range(n)]
        for tup in partition_index_tuples(d, n, target):
            assert sum(w * j for w, j in zip(weights, tup)) == target
            assert all(j >= 0 for j in tup)


def fraction_partition_sum(d, m, n):
    """The partition sum as per-tuple products of ``binomial_general``
    on rationals: an independent reference for the int kernel."""
    total = 0
    for tup in partition_index_tuples(d, n, m + 1):
        product = 1
        shift = 0
        for k, j in enumerate(tup, start=1):
            product *= binomial_general(rational(m, d ** (n - k + 1)) - shift, j)
            if product == 0:
                break
            shift = d * (shift + j)
        total += product
    return -total / m


class TestPartitionSumRoute:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_fraction_reference(self, d):
        # the reference at order n only: order n + 1 must give the same value
        for m in range(1, 121):
            n = choose_n(d, m)
            value = coefficient_by_partition_sum(d, m, n)
            assert value == fraction_partition_sum(d, m, n), (d, m)
            assert coefficient_by_partition_sum(d, m, n + 1) == value, (d, m)

    @pytest.mark.parametrize("d", [7, 8, 9])
    def test_equals_fraction_reference_at_three_orders(self, d):
        # leaves read the falling-product table: a leaf range holds the zero
        # factor first at m = 35, 48 and 63, and every nonempty leaf range
        # reaches negative factors (the whole range from m = 293 for d = 7)
        for m in range(1, 301):
            n = choose_n(d, m)
            for order in (n, n + 1, n + 2):
                assert coefficient_by_partition_sum(d, m, order) == \
                    fraction_partition_sum(d, m, order), (d, m, order)

    @pytest.mark.parametrize("d, m, n", [
        (2, 253, 7), (2, 254, 8), (2, 509, 8), (2, 510, 9), (3, 727, 6),
        # about 6 s and 5 s for the partition sum (7 s and 5.5 s when its
        # leaves formed each product in full)
        pytest.param(2, 1021, 9, marks=pytest.mark.slow),
        pytest.param(2, 1022, 10, marks=pytest.mark.slow),
    ])
    def test_equals_residue_route_at_level_boundaries(self, d, m, n):
        # past the m <= 120 of the reference: for d = 2 the last index at
        # orders 7, 8 and 9 and the first at orders 8, 9 and 10, for d = 3
        # the first at order 6
        assert choose_n(d, m) == n
        assert coefficient_by_partition_sum(d, m, n) == coefficient_by_residue(d, m)

    @pytest.mark.slow
    def test_equals_residue_route_at_m2000(self):
        # about 2 s for the partition sum and 1 s for the residue route; the
        # partition sum took 9-11 s when its leaves formed each product in full
        assert coefficient_by_partition_sum(2, 2000, 10) == coefficient_by_residue(2, 2000)

    def test_inexact_division_names_the_state(self, monkeypatch):
        # a divmod that leaves remainder 1 except at the leaves' d - 1 = 1
        # fails the first Horner division reached (b_39 != 0 at d = 2)
        def inexact(a, b):
            return (a // b, 0 if b == 1 else 1)
        monkeypatch.setattr(coeffs, "divmod", inexact, raising=False)
        n = choose_n(2, 39)
        assert n == 5
        with pytest.raises(ArithmeticError, match=r"^state \(level 2, remaining 9, "
                                                  r"shift 4\): inexact division at j = 0$"):
            coefficient_by_partition_sum(2, 39, n)

    def test_leaves_no_reference_cycle(self):
        # the walk and its memo are freed at return, not at a later collection
        gc.collect()
        gc.disable()
        try:
            coefficient_by_partition_sum(2, 80, choose_n(2, 80))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_builds_one_rational_per_index(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return rational(*args)

        # exact.rational too, so that a call to binomial_general would count
        monkeypatch.setattr(coeffs, "rational", counting)
        monkeypatch.setattr(exact, "rational", counting)
        for d in (2, 3, 5):
            for m in range(1, 41):
                before = len(calls)
                coefficient_by_partition_sum(d, m, choose_n(d, m) + 1)
                assert len(calls) - before == 1, (d, m)

    def test_single_tuple_cases(self):
        assert coefficient_by_partition_sum(2, 1, 1) == rational(1, 8)
        assert coefficient_by_partition_sum(4, 2, 1) == rational(-1, 4)

    def test_full_enumeration_zero(self):
        assert coefficient_by_partition_sum(2, 4, 2) == 0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            coefficient_by_partition_sum(2, 4, 1)


class TestSweep:
    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_equals_residue_route(self, d):
        values = coefficients_by_sweep(d, 200)
        assert len(values) == 201
        assert values[0] == laurent_coefficient(d, 0).value  # the m = 0 constants
        for m in range(1, 201):
            assert values[m] == coefficient_by_residue(d, m), (d, m)

    def test_equals_residue_route_near_m_1000(self, degree_two_table_m1000):
        # the sweep's values as ``compute --d 2 --m-max 1000`` prints them
        values = [value for _, _, value in degree_two_table_m1000[1]]
        for m in range(997, 1001):
            assert values[m] == coefficient_by_residue(2, m), m

    def test_degree_two_prefixes(self):
        # every cut-off of the lifts and of the last column, and the k* steps
        # at columns 3, 7, 15, 31 and 63
        full = coefficients_by_sweep(2, 80)
        for m_max in range(81):
            assert coefficients_by_sweep(2, m_max) == full[:m_max + 1], m_max

    @pytest.mark.parametrize("d", [7, 8, 9, 10, 12])
    def test_equals_residue_route_past_degree_six(self, d):
        # at every index, the zeros of the divisibility criterion included:
        # the sweep skips only terms with a factor it computed to be zero
        values = coefficients_by_sweep(d, 100)
        for m in range(1, 101):
            assert values[m] == coefficient_by_residue(d, m), (d, m)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7])
    def test_prefixes_past_degree_two(self, d):
        # every cut-off around each column d^(k+1) - 1 <= 61, where level k's
        # lift is first read and, for k >= 1, its rows are made; for d >= 3
        # the skip follows the indices of the entries computed so far, which
        # depend only on the columns already swept
        full = coefficients_by_sweep(d, 60)
        for m_max in range(61):
            assert coefficients_by_sweep(d, m_max) == full[:m_max + 1], (d, m_max)

    def test_reads_no_divisibility_criterion(self, monkeypatch):
        # the skip assumes no vanishing theorem, so check_vanishing still
        # judges a full computation
        expected = {d: coefficients_by_sweep(d, 120) for d in range(3, 7)}

        def refuse(d, m):
            raise AssertionError(f"_divisible({d}, {m}) read by the sweep")

        monkeypatch.setattr(coeffs, "_divisible", refuse)
        for d, values in expected.items():
            assert coefficients_by_sweep(d, 120) == values, d

    def test_degree_two_equals_residue_route_at_level_boundaries(self):
        # column j = m + 1: k* steps at j = 255 and 511, where level
        # lo = 2^(k+1) - 1 = 255 and 511 is first swept, and the diagonal
        # term of level lo = 127 and 255 first enters at j = 2 lo = 254 and 510
        values = coefficients_by_sweep(2, 512)
        for m in [*range(252, 257), *range(508, 513)]:
            assert values[m] == coefficient_by_residue(2, m), m

    def test_huge_degree(self):
        # the lift S^(d-1) of level 0 is never read below m = d - 2
        assert coefficients_by_sweep(10**11, 3) == [0, 0, 0, 0]

    @pytest.mark.parametrize("d, m_max", [(3, 60), (7, 60), (10**13, 200)])
    def test_zero_columns_form_no_scale(self, monkeypatch, d, m_max):
        # a zero column is returned as ZERO, never as rational(0, S^j): at
        # d = 10^13, S^j has 13 j digits and would cost far more than the column
        expected = coefficients_by_sweep(d, m_max)
        real = coeffs.rational

        def nonzero_only(numerator, denominator=1):
            if numerator == 0:
                raise AssertionError(f"rational(0, {denominator}) formed by the sweep")
            return real(numerator, denominator)

        monkeypatch.setattr(coeffs, "rational", nonzero_only)
        assert coefficients_by_sweep(d, m_max) == expected

    @pytest.mark.parametrize("d, m_max", [(3, 40), (7, 120), (10**13, 300)])
    def test_only_stride_columns_solve(self, monkeypatch, d, m_max):
        # a column off the stride g = d - 1, and every column before d - 1,
        # is an exact zero and takes no level: no division by d^k* solves it
        expected = coefficients_by_sweep(d, m_max)
        solved = []

        def record(a, b):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_sweep":  # the solve, not the Miller sum's division
                solved.append(caller.f_locals["j"])
            return divmod(a, b)

        monkeypatch.setattr(coeffs, "divmod", record, raising=False)
        assert coefficients_by_sweep(d, m_max) == expected
        assert solved == list(range(d - 1, m_max + 2, d - 1))  # b_m is column m + 1
        assert len(solved) == m_max // (d - 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_empty_convolution(self, monkeypatch, d):
        # level k's convolution pairs indices i, j - i >= lo = d^(k+1) - 1,
        # so it has a term only from column 2 lo on; below that, no sum
        expected = coefficients_by_sweep(d, 64)
        pairs = set()

        def record(terms):
            caller = sys._getframe(1)
            if caller.f_code.co_name == "rest":
                pairs.add((caller.f_locals["j"], caller.f_locals["lo"]))
            return sum(terms)

        monkeypatch.setattr(coeffs, "sum", record, raising=False)
        assert coefficients_by_sweep(d, 64) == expected
        los = [d ** (k + 1) - 1 for k in range(6)]
        stride = 1 if d == 2 else d - 1  # d >= 3 sums no column off the stride
        assert pairs == {(j, lo) for j in range(1, 66) for lo in los
                         if j >= 2 * lo and j % stride == 0}

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            coefficients_by_sweep(1, 5)
        with pytest.raises(ValueError):
            coefficients_by_sweep(2, -1)


def area_partial_sum(values):
    """S_M = sum(m b_m^2 for m <= M) over the list [b_0, ..., b_M]."""
    return sum(m * b * b for m, b in enumerate(values))


class TestAreaTheorem:
    # Gronwall's area theorem: area(M_d) = pi (1 - sum(m b_m^2)), so every
    # partial sum S_M lies below 1.  The d = 2 set contains the main
    # cardioid (area 3 pi / 8) and the period-2 disk (pi / 16), so there
    # S_M <= 9/16.  A wrong numerator over the right denominator passes
    # every valuation check but moves S_M.
    def test_degree_two_to_m1000(self, degree_two_table_m1000):
        values = [value for _, _, value in degree_two_table_m1000[1]]
        assert len(values) == 1001
        assert area_partial_sum(values) < rational(9, 16)  # S_1000 = 0.39578...

    @pytest.mark.parametrize("d", [3, 4, 5, 6])
    def test_degrees_three_to_six_to_m400(self, d):
        assert area_partial_sum(coefficients_by_sweep(d, 400)) < 1


class TestMethodAgreement:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_routes_agree(self, d):
        for m in range(1, 26):
            n = choose_n(d, m)
            assert coefficient_by_residue(d, m, n) == coefficient_by_partition_sum(d, m, n)

    def test_order_independence_of_partition_sum(self):
        for m in range(1, 13):
            n = choose_n(2, m)
            assert coefficient_by_partition_sum(2, m, n) == coefficient_by_partition_sum(
                2, m, n + 1
            )


class TestDispatch:
    def test_m_zero_constants(self):
        rec = laurent_coefficient(2, 0)
        assert rec.value == rational(-1, 2)
        assert rec.method == METHOD_SPECIAL
        for d in (3, 4, 5, 9):
            rec = laurent_coefficient(d, 0)
            assert rec.value == 0
            assert rec.method == METHOD_SPECIAL

    def test_every_index_is_computed_by_its_route(self, monkeypatch):
        # the zeros of the divisibility criterion included: no index is
        # answered from the criterion
        def refuse(d, m):
            raise AssertionError(f"_divisible({d}, {m}) read per index")

        monkeypatch.setattr(coeffs, "_divisible", refuse)
        for d in range(3, 8):
            swept = coefficients_by_sweep(d, 60)
            for method in (METHOD_RESIDUE, METHOD_COMBINATORIAL):
                for m in range(1, 61):
                    rec = laurent_coefficient(d, m, method=method)
                    assert (rec.value, rec.method) == (swept[m], method)
        assert laurent_coefficient(3, 2).method == METHOD_RESIDUE

    def test_shortcut_can_be_disabled(self):
        # the residue route computes a vanishing index's zero in full
        assert coefficient_by_residue(3, 2) == 0

    def test_huge_degree_is_computed_by_both_routes(self):
        d = 10**13
        for method in (METHOD_RESIDUE, METHOD_COMBINATORIAL):
            for m in (1, 2, 3, 10**5):  # the window to w^(m+1) holds no term of Q_1
                assert laurent_coefficient(d, m, method=method) == (d, m, 0, method)
        assert coeffs._poly_cache[d, 1] == {d: 1, 1: 1}  # a two-term Q_1

    def test_degree_two_never_shortcuts(self):
        rec = laurent_coefficient(2, 4)
        assert rec.method == METHOD_RESIDUE
        assert rec.value == 0

    def test_combinatorial_method_selection(self):
        rec = laurent_coefficient(2, 3, method=METHOD_COMBINATORIAL)
        assert rec.value == rational(15, 128)
        assert rec.method == METHOD_COMBINATORIAL

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            laurent_coefficient(1, 3)
        with pytest.raises(ValueError):
            laurent_coefficient(2, -1)
        with pytest.raises(ValueError):
            laurent_coefficient(2, 3, method="quadrature")


class TestDadicRationality:
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 12])
    def test_denominator_prime_factors_divide_degree(self, d):
        for m in range(0, 30):
            value = laurent_coefficient(d, m).value
            den = int(value.denominator)
            for p, _ in exact._trial_division(d):
                while den % p == 0:
                    den //= p
            assert den == 1, f"b({d},{m}) = {value} is not {d}-adic"

    def test_degree_two_exponent_bands_at_even_m(self, degree_two_table_m1000):
        # Data, no rule: at even m in 200..1000, -nu_2(b_m) / m sits in a
        # band set by nu_2(m), far below the zagier bound ~2m of odd m.  The
        # values come from the session's d = 2 sweep; each entry is
        # (nonzero count, least ratio, greatest ratio).
        values = [value for _, _, value in degree_two_table_m1000[1]]
        bands = {}
        for m in range(200, 1001, 2):
            if values[m]:
                ratio = rational(-padic_valuation(values[m], 2), m)
                bands.setdefault(padic_valuation(m, 2), []).append(ratio)
        assert {k: (len(r), min(r), max(r)) for k, r in bands.items()} == {
            1: (200, rational(9, 14), rational(513, 770)),
            2: (100, rational(29, 110), rational(261, 916)),
            3: (51, rational(29, 264), rational(77, 584)),
            4: (17, rational(1, 16), rational(15, 232)),
        }
        deep = [m for m in range(2, 1001, 2) if padic_valuation(m, 2) >= 5]
        assert len(deep) == 31 and not any(values[m] for m in deep)

    @pytest.mark.parametrize("p, expected", [
        (3, {1: (89, 89, rational(36, 107), rational(31, 83)),
             2: (26, 30, rational(45, 428), rational(3, 26)), 3: (0, 15, None, None)}),
        (5, {1: (29, 32, rational(29, 149), rational(6, 29)), 2: (0, 8, None, None)}),
        (7, {1: (6, 16, rational(23, 160), rational(7, 48)), 2: (0, 3, None, None)}),
    ])
    def test_prime_degree_exponent_bands_where_main_is_strict(self, p, expected):
        # at m in 200..1000, -nu_p(b_m) / a sits in a band set by nu_p(m),
        # and every b_m in the last band is zero.  The sweeps take about
        # 0.3, 0.08 and 0.03 s on a 2-vCPU VM.
        assert exponent_bands(coefficients_by_sweep(p, 1000), p, max(expected)) == expected


class TestDynamicalInversion:
    """End-to-end sanity: the series really is the inverse uniformization.

    Evaluate z + sum(b_m z^-m) at a real z0 > 1 to get a parameter c
    outside the Multibrot set, then recover z0 from c with the escape
    rate of the iteration itself, lim (P_c^n(c))^(1/d^n).  This ties the
    exact coefficients to the dynamical definition through an oracle
    that shares no code with either computation route.
    """

    @pytest.mark.parametrize("d, z0", [(2, 4.0), (2, 2.5), (3, 3.0)])
    def test_escape_rate_recovers_the_series_argument(self, d, z0):
        c = z0
        for m, value in enumerate(coefficients_by_sweep(d, 60)):
            c += float(value) * z0 ** (-m)
        z = c
        n = 0
        while abs(z) < 1e100 and n < 80:
            z = z**d + c
            n += 1
        recovered = math.exp(math.log(abs(z)) / d**n)
        assert recovered == pytest.approx(z0, abs=1e-9)


class TestVanishesByDivisibility:
    def test_never_for_degree_two(self):
        assert all(coeffs._divisible(2, m) for m in range(100))

    def test_degree_four(self):
        # (d-1) = 3 divides m+1 exactly at m = 2, 5, 8, ...
        assert [m for m in range(10) if coeffs._divisible(4, m)] == [2, 5, 8]

    @pytest.mark.parametrize("d", [1, 0, -1])
    def test_degrees_below_two_are_value_errors(self, d):
        # d = 1 would divide by d - 1 = 0 in every caller that reaches the criterion
        with pytest.raises(ValueError, match="degree d must be >= 2"):
            zero_census(d, 5)
        with pytest.raises(ValueError, match="degree d must be >= 2"):
            suite_verdicts([d], 3, ["main"])
        with pytest.raises(ValueError, match="degree d must be >= 2"):
            check_main(d, 1, 0)


class TestZeroCensus:
    def test_degree_two_small(self):
        assert zero_census(2, 3) == []
        assert zero_census(2, 4) == [(4, False)]

    def test_degree_three_flags(self):
        zeros = zero_census(3, 4)
        assert (0, True) in zeros
        assert (2, True) in zeros
        assert (4, True) in zeros

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            zero_census(2, -1)

    def test_lists_only_computed_zeros(self, monkeypatch):
        # a sweep that computes b_2 != 0 at d = 3 gets no (2, True): the
        # criterion flags a computed zero, it never stands in for one
        real = coeffs.coefficients_by_sweep

        def faulty(d, m_max):
            values = real(d, m_max)
            values[2] = rational(1, 3)
            return values

        monkeypatch.setattr(coeffs, "coefficients_by_sweep", faulty)
        assert zero_census(3, 4) == [(0, True), (3, False), (4, True)]

    def test_degree_two_zeros_to_m1000(self, degree_two_table_m1000, monkeypatch):
        # step 4 to 16, step 8 from 24 to 96, step 16 from 112 to 448, then
        # step 32; none is explained by the divisibility criterion.  The
        # census reads the session's d = 2 sweep instead of sweeping again.
        swept = [value for _, _, value in degree_two_table_m1000[1]]

        def session_sweep(d, m_max):
            assert d == 2 and m_max <= 1000
            return swept[:m_max + 1]

        monkeypatch.setattr(coeffs, "coefficients_by_sweep", session_sweep)
        zeros = zero_census(2, 1000)
        assert zeros == [(m, False) for m in [*range(4, 17, 4), *range(24, 97, 8),
                                              *range(112, 449, 16), *range(480, 993, 32)]]
        assert len(zeros) == 53
        assert [m for m, _ in zeros] == degree_two_zero_block_rule(1000)

    @staticmethod
    def assert_zeros_of_degrees_four_to_seven(d, m_max):
        zeros = zero_census(d, m_max)
        assert [m for m, explained in zeros if explained] == [
            m for m in range(m_max + 1) if not coeffs._divisible(d, m)]
        assert [m for m, explained in zeros if not explained] == [
            m for m in UNEXPLAINED_ZEROS_TO_M2000[d] if m <= m_max]

    @pytest.mark.parametrize("d", sorted(UNEXPLAINED_ZEROS_TO_M2000))
    def test_zeros_to_m1000_for_degrees_four_to_seven(self, d):
        # about 0.1-0.3 s each; observed, not explained
        self.assert_zeros_of_degrees_four_to_seven(d, 1000)

    @pytest.mark.slow
    @pytest.mark.parametrize("d", sorted(UNEXPLAINED_ZEROS_TO_M2000))
    def test_zeros_to_m2000_for_degrees_four_to_seven(self, d, monkeypatch):
        # about 1-3 s each; observed, not explained.  The exponent bands of
        # the prime degrees read the same sweep.
        swept = keep_sweeps(monkeypatch)
        self.assert_zeros_of_degrees_four_to_seven(d, 2000)
        if d in BANDS_TO_M2000:
            assert exponent_bands(swept[d], d, max(BANDS_TO_M2000[d])) == BANDS_TO_M2000[d]

    def test_degree_three_odd_zeros_to_m1000(self):
        # the even indices vanish by the divisibility criterion; these odd
        # ones are observed, not explained: gaps 6, 12, 6, then 18s, 36s
        # and 54s, not a single arithmetic progression
        zeros = zero_census(3, 1000)
        assert [m for m, explained in zeros if explained] == list(range(0, 1001, 2))
        assert [m for m, explained in zeros if not explained] == [
            3, 9, 21, 27, 45, 63, 81, 99, 117, 135, 153, 171, 189, 225, 243, 279,
            297, 333, 351, 387, 405, 459, 513, 567, 621, 675, 729, 783, 837, 891, 945, 999,
        ]

    @pytest.mark.slow
    def test_zeros_to_m2000(self, monkeypatch):
        # about 55 s on one core: the d = 2 sweep 25-30 s, the d = 3 sweep
        # 4-6 s and the five residue calls 12 s.  d = 2: the blocks have steps
        # 4, 8, 16, 32, 64; each runs from its start s to 4s, and the next
        # starts one (doubled) step after that, so the fifth block starts
        # at 1920 + 64 = 1984.  d = 3: the odd zeros keep
        # the step 54 from 405 to 1971.  Observed, not explained; so are the
        # exponent bands, which read the same two sweeps.
        swept = keep_sweeps(monkeypatch)
        zeros = zero_census(2, 2000)
        assert zeros == [(m, False) for m in [*range(4, 17, 4), *range(24, 97, 8),
                                              *range(112, 449, 16), *range(480, 1921, 32),
                                              1984]]
        assert len(zeros) == 83
        assert [m for m, _ in zeros] == degree_two_zero_block_rule(2000)
        # the residue route as the oracle at the far end, about 2 s a call
        for m in [1984, *range(1997, 2001)]:
            assert swept[2][m] == coefficient_by_residue(2, m), m
        zeros = zero_census(3, 2000)
        assert [m for m, explained in zeros if explained] == list(range(0, 2001, 2))
        assert [m for m, explained in zeros if not explained] == [
            3, 9, 21, 27, 45, 63, 81, 99, 117, 135, 153, 171, 189, 225, 243, 279,
            297, 333, 351, 387, 405, *range(459, 1972, 54),
        ]
        for d in (2, 3):
            assert exponent_bands(swept[d], d, max(BANDS_TO_M2000[d])) == BANDS_TO_M2000[d]


# Coefficients far past every exact table, each by the residue route at its
# least order n and, where listed, at n + 1 too, with -nu_p(b_m) or None for
# a zero.  Every m has (p-1) | (m+1), so the divisibility criterion explains
# none of the zeros, and nu_p(m) >= 2.  About 20-24 s in all, 15 s of it
# b_4032; the next order costs far more (b_16415 at n = 5, 74 s).
SAMPLED_PAST_THE_TABLES = [
    (7, 16415, (4,), 56),
    (7, 15827, (4,), None),
    (5, 2975, (4, 5), 30),
    (5, 11775, (5,), None),  # the last zero with nu_5(m) = 2 to m <= 15622
    (3, 2079, (6, 7), 39),
    (3, 4077, (7,), None),  # the last zero with nu_3(m) = 3 to m <= 6558
    (2, 4032, (11,), None),  # predicted by the block rule, a conjecture
]


@pytest.mark.slow
@pytest.mark.parametrize("d, m, orders, exponent", SAMPLED_PAST_THE_TABLES)
def test_sampled_coefficients_past_the_tables(d, m, orders, exponent):
    # observed, not explained: the exponents are data, as the bands are
    assert choose_n(d, m) == orders[0]
    value, *others = [coefficient_by_residue(d, m, n) for n in orders]
    assert others == [value] * len(others)
    assert coeffs._divisible(d, m)
    if exponent is None:
        assert value == 0
    else:
        nu = padic_valuation(m, d)
        assert nu >= 2
        # the leading term a(m') of the bands at m' = m / p^nu_p(m)
        assert -padic_valuation(value, d) == exponent == (m // d**nu + 1) // (d - 1)
    assert all(v.passed for v in check_main(d, m, value))
    assert check_integrality(d, m, value).passed
    assert check_dadic(d, m, value).passed
    # the floor and additive forms differ at every odd-prime sample
    assert check_yamashita(d, m, value).passed == (d == 2)


# Each row keeps the id it was first collected under (its position then),
# so adding or removing a row renames no other.
@pytest.mark.parametrize("call, args, name, least", [
    pytest.param(coefficients_by_sweep, (2.0, 3), "degree d", 2,
                 id="coefficients_by_sweep-args0-degree d-2"),
    pytest.param(coefficients_by_sweep, (2, 2.5), "m_max", 0,
                 id="coefficients_by_sweep-args1-m_max-0"),
    pytest.param(zero_census, (3, 4.0), "m_max", 0,
                 id="zero_census-args2-m_max-0"),
    pytest.param(coefficient_by_residue, (2.0, 3), "degree d", 2,
                 id="coefficient_by_residue-args3-degree d-2"),
    pytest.param(coefficient_by_residue, (2, 3.0), "index m", 1,
                 id="coefficient_by_residue-args4-index m-1"),
    pytest.param(coefficient_by_residue, (2, 5, 1), "iteration order n", 2,
                 id="coefficient_by_residue-args5-iteration order n-2"),
    pytest.param(coefficient_by_partition_sum, (1, 3, 1), "degree d", 2,
                 id="coefficient_by_partition_sum-args6-degree d-2"),
    pytest.param(laurent_coefficient, (2, 1.0), "index m", 0,
                 id="laurent_coefficient-args7-index m-0"),
    pytest.param(partition_index_tuples, (2, 0, 3), "iteration order n", 1,
                 id="partition_index_tuples-args8-iteration order n-1"),
    pytest.param(partition_index_tuples, (2, 1, -2), "target", 0,
                 id="partition_index_tuples-args9-target-0"),
    pytest.param(choose_n, (2, 2.5), "index m", 1,
                 id="choose_n-args10-index m-1"),
    pytest.param(choose_n, (2.5, 3), "degree d", 2,
                 id="choose_n-args11-degree d-2"),
    pytest.param(partition_index_tuples, (1, 2, 3), "degree d", 2,
                 id="partition_index_tuples-args12-degree d-2"),
    pytest.param(series.iterate_parameter_polynomial, (2.0, 1), "degree d", 2,
                 id="iterate_parameter_polynomial-args13-degree d-2"),
    pytest.param(series.rational_power_tail, ({2: 1, 1: 1}, rational(1, 2), 2.0), "order", 0,
                 id="rational_power_tail-args14-order-0"),
    pytest.param(exact.factorial_valuation, (2.5, 2), "m", 0,
                 id="factorial_valuation-args15-m-0"),
    pytest.param(binomial_general, (rational(1, 2), 1.0), "j", 0,
                 id="binomial_general-args16-j-0"),
])
def test_bad_arguments_are_one_value_error(call, args, name, least):
    # one message for every integer argument, raised before any kernel runs
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {least} and an int, got "):
        call(*args)

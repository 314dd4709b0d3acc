import itertools
import math
import re

import pytest

from multibrot import coeffs, exact, series
from multibrot.checks import check_main, suite_verdicts
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
    vanishes_by_divisibility,
    zero_census,
)
from multibrot.exact import binomial_general, factorize, padic_valuation, rational

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

# The unexplained zeros of d = 4..7 to m <= 1000, observed by the census.
UNEXPLAINED_ZEROS_TO_M1000 = {
    4: [8, 20, 32, 56, 68, 80, 116, 128, 176, 224, 272, 320, 368, 416, 464, 512, 560,
        608, 656, 704, 752, 800, 848, 896, 992],
    5: [15, 35, 55, 75, 115, 135, 155, 175, 235, 255, 275, 355, 375, 475, 575, 675, 775,
        875, 975],
    6: [24, 54, 84, 114, 144, 204, 234, 264, 294, 324, 414, 444, 474, 504, 624, 654, 684,
        834, 864],
    7: [35, 77, 119, 161, 203, 245, 329, 371, 413, 455, 497, 539, 665, 707, 749, 791, 833],
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
        # an oracle for the large indices the partition-sum route cannot reach.
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
        # the series builds the exponent and the one tail term it returns,
        # however many terms the recurrence runs through
        calls = []

        def counting(*args):
            calls.append(args)
            return rational(*args)

        monkeypatch.setattr(series, "rational", counting)
        for d in (2, 3, 5):
            for m in range(1, 41):
                before = len(calls)
                coefficient_by_residue(d, m)
                assert len(calls) - before == 2, (d, m)


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

    def test_vanishing_shortcut(self):
        rec = laurent_coefficient(3, 2)
        assert rec.value == 0 and rec.method == METHOD_SPECIAL

    def test_shortcut_can_be_disabled(self):
        # the full computation behind the shortcut's zero
        assert coefficient_by_residue(3, 2) == 0

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
            for p, _ in factorize(d):
                while den % p == 0:
                    den //= p
            assert den == 1, f"b({d},{m}) = {value} is not {d}-adic"


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
        assert not any(vanishes_by_divisibility(2, m) for m in range(100))

    def test_degree_four(self):
        # (d-1) = 3 divides m+1 exactly at m = 2, 5, 8, ...
        assert [m for m in range(10) if not vanishes_by_divisibility(4, m)] == [2, 5, 8]

    @pytest.mark.parametrize("d", [1, 0, -1])
    def test_degrees_below_two_are_value_errors(self, d):
        # d = 1 would divide by d - 1 = 0 in every caller that reaches the criterion
        with pytest.raises(ValueError, match="degree d must be >= 2"):
            vanishes_by_divisibility(d, 3)
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

    @pytest.mark.parametrize("d", sorted(UNEXPLAINED_ZEROS_TO_M1000))
    def test_zeros_to_m1000_for_degrees_four_to_seven(self, d):
        # about 0.4-0.8 s each; observed, not explained
        zeros = zero_census(d, 1000)
        assert [m for m, explained in zeros if explained] == [
            m for m in range(1001) if vanishes_by_divisibility(d, m)]
        assert [m for m, explained in zeros if not explained] == UNEXPLAINED_ZEROS_TO_M1000[d]

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
        # about 60 s on one core: the d = 2 sweep 25-30 s, the d = 3 sweep
        # 9 s and the five residue calls 12 s.  d = 2: the blocks have steps
        # 4, 8, 16, 32, 64; each runs from its start s to 4s, and the next
        # starts one (doubled) step after that, so the fifth block starts
        # at 1920 + 64 = 1984.  d = 3: the odd zeros keep
        # the step 54 from 405 to 1971.  Observed, not explained.
        swept = {}
        real = coeffs.coefficients_by_sweep

        def keep(d, m_max):
            swept[d] = real(d, m_max)
            return swept[d]

        monkeypatch.setattr(coeffs, "coefficients_by_sweep", keep)
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


@pytest.mark.parametrize("call, args, name, least", [
    (coefficients_by_sweep, (2.0, 3), "degree d", 2),
    (coefficients_by_sweep, (2, 2.5), "m_max", 0),
    (zero_census, (3, 4.0), "m_max", 0),
    (coefficient_by_residue, (2.0, 3), "degree d", 2),
    (coefficient_by_residue, (2, 3.0), "index m", 1),
    (coefficient_by_residue, (2, 5, 1), "iteration order n", 2),
    (coefficient_by_partition_sum, (1, 3, 1), "degree d", 2),
    (laurent_coefficient, (2, 1.0), "index m", 0),
    (partition_index_tuples, (2, 0, 3), "iteration order n", 1),
    (partition_index_tuples, (2, 1, -2), "target", 0),
    (choose_n, (2, 2.5), "index m", 1),
    (vanishes_by_divisibility, (2.5, 3), "degree d", 2),
    (vanishes_by_divisibility, (2, -1), "index m", 0),
    (series.iterate_parameter_polynomial, (2.0, 1), "degree d", 2),
    (series.rational_power_tail, ((0, 1, 1), rational(1, 2), 2.0), "order", 0),
    (exact.factorial_valuation, (2.5, 2), "m", 0),
    (exact.is_d_adic, (-8, 2), "den", 1),
    (exact.is_d_adic, (0, 2), "den", 1),
    (binomial_general, (rational(1, 2), 1.0), "j", 0),
])
def test_bad_arguments_are_one_value_error(call, args, name, least):
    # one message for every integer argument, raised before any kernel runs
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be >= {least} and an int, got "):
        call(*args)

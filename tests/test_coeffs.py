import itertools
import math

import pytest

from multibrot import coeffs, exact
from multibrot.coeffs import (
    METHOD_COMBINATORIAL,
    METHOD_RESIDUE,
    METHOD_SPECIAL,
    CoeffTable,
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
        for m in range(1, 121):
            n = choose_n(d, m)
            for order in (n, n + 1):
                assert coefficient_by_partition_sum(d, m, order) == \
                    fraction_partition_sum(d, m, order), (d, m, order)

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

    def test_huge_degree(self):
        # the lift S^(d-1) of level 0 is never read below m = d - 2
        assert coefficients_by_sweep(10**11, 3) == [0, 0, 0, 0]

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            coefficients_by_sweep(1, 5)
        with pytest.raises(ValueError):
            coefficients_by_sweep(2, -1)


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
        assert rec.method == METHOD_SPECIAL and rec.n_used == 0
        for d in (3, 4, 5, 9):
            rec = laurent_coefficient(d, 0)
            assert rec.value == 0
            assert rec.method == METHOD_SPECIAL

    def test_vanishing_shortcut(self):
        rec = laurent_coefficient(3, 2)
        assert rec.value == 0 and rec.method == METHOD_SPECIAL

    def test_shortcut_can_be_disabled(self):
        rec = laurent_coefficient(3, 2, use_vanishing_shortcut=False)
        assert rec.value == 0
        assert rec.method == METHOD_RESIDUE
        assert rec.n_used == choose_n(3, 2)

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
        table = CoeffTable()
        c = z0
        for m in range(0, 61):
            c += float(table.value(d, m)) * z0 ** (-m)
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


class TestCoeffTable:
    def test_memoizes(self):
        table = CoeffTable()
        first = table.record(2, 3)
        assert table.record(2, 3) is first
        assert table.value(2, 3) == rational(15, 128)
        assert len(table) == 1
        assert (2, 3) in table

    def test_sorted_listing(self):
        table = CoeffTable()
        for d, m in [(3, 1), (2, 5), (2, 0)]:
            table.record(d, m)
        keys = [(r.d, r.m) for r in table.records_sorted()]
        assert keys == [(2, 0), (2, 5), (3, 1)]

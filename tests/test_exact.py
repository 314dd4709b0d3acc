import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multibrot import exact
from multibrot.exact import (
    NEG_INF,
    POS_INF,
    binomial_general,
    divides_power,
    factorial_valuation,
    is_prime,
    padic_valuation,
    rational,
)

PRIMES_TO_97 = [p for p in range(2, 98) if is_prime(p)]

nonzero_rationals = st.fractions(
    min_value=-10**6, max_value=10**6, max_denominator=10**4
).filter(lambda x: x != 0)


class TestPadicValuation:
    def test_zero_is_positive_infinity(self):
        assert padic_valuation(0, 7) is POS_INF
        assert padic_valuation(rational(0), 2) is POS_INF

    @pytest.mark.parametrize(
        "x, p, expected",
        [
            (18, 3, 2),
            (rational(7, 25), 5, -2),
            (rational(-1, 2), 2, -1),
            (1, 2, 0),
            (-8, 2, 3),
            (rational(9, 4), 3, 2),
        ],
    )
    def test_known_values(self, x, p, expected):
        assert padic_valuation(x, p) == expected

    @pytest.mark.parametrize("p", [0, 1, 4, 9, -3, 15])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError):
            padic_valuation(6, p)

    @given(x=nonzero_rationals, y=nonzero_rationals, p=st.sampled_from(PRIMES_TO_97))
    def test_multiplicative(self, x, y, p):
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)

    @given(x=nonzero_rationals, y=nonzero_rationals, p=st.sampled_from(PRIMES_TO_97))
    def test_quotient(self, x, y, p):
        assert padic_valuation(x / y, p) == padic_valuation(x, p) - padic_valuation(y, p)

    @given(
        m=st.integers(-10**9, 10**9),
        n=st.integers(-10**9, 10**9),
        p=st.sampled_from(PRIMES_TO_97),
    )
    def test_ultrametric_sum(self, m, n, p):
        lhs = padic_valuation(m + n, p)
        assert lhs >= min(padic_valuation(m, p), padic_valuation(n, p))

    def test_large_exponents(self):
        assert padic_valuation(rational(1, 2**66439), 2) == -66439
        assert padic_valuation(rational(3**15000 * 7, 2**20000 * 5), 3) == 15000
        assert padic_valuation(-(5**4097), 5) == 4097

    def test_recover_prime_part(self):
        # x = p^v * r/q with p dividing neither r nor q
        x = rational(3**4 * 7, 2 * 3)
        v = padic_valuation(x, 3)
        assert v == 3
        reduced = x / rational(3) ** v
        assert reduced.numerator % 3 != 0 and reduced.denominator % 3 != 0


def _multiplicity_by_division(n, p):
    # the generic loop of exact._multiplicity, kept here as the oracle of
    # its p = 2 bit-count path
    powers = []
    q = p
    while n % q == 0:
        n //= q
        powers.append(q)
        q *= q
    v = (1 << len(powers)) - 1
    for i in reversed(range(len(powers))):
        if n % powers[i] == 0:
            n //= powers[i]
            v += 1 << i
    return v


# odd * 2^k with either sign: exponents and sizes to thousands of bits
_nonzero_ints = st.builds(
    lambda odd, k, sign: sign * (2 * odd + 1) << k,
    st.integers(0, 2**4000), st.integers(0, 5000), st.sampled_from([1, -1]),
)


class TestValuationsAtTwo:
    @given(n=_nonzero_ints)
    def test_ints_match_the_division_loop(self, n):
        assert padic_valuation(n, 2) == _multiplicity_by_division(n, 2)

    @given(num=_nonzero_ints, den=_nonzero_ints)
    def test_rationals_match_the_division_loop(self, num, den):
        x = rational(num, abs(den))
        expected = (_multiplicity_by_division(x.numerator, 2)
                    - _multiplicity_by_division(x.denominator, 2))
        assert padic_valuation(x, 2) == expected

    @given(m=st.integers(0, 10**4))
    def test_factorial_matches_legendre_sum(self, m):
        assert factorial_valuation(m, 2) == sum(m >> k for k in range(1, m.bit_length() + 1))

    @pytest.mark.parametrize("m", [10**30 - 1, 10**30, 10**30 + 1, 2**100 - 1, 2**100])
    def test_factorial_near_ten_to_the_thirty(self, m):
        assert factorial_valuation(m, 2) == sum(m >> k for k in range(1, m.bit_length() + 1))


class TestFactorialValuation:
    def test_small_cases(self):
        assert factorial_valuation(4, 2) == 3
        assert factorial_valuation(0, 5) == 0

    def test_against_direct_factorization_of_factorial(self):
        # independent oracle: factorize 9! = 362880 directly
        assert math.factorial(9) == 362880
        assert factorial_valuation(9, 3) == padic_valuation(362880, 3) == 4

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_matches_valuation_of_factorial(self, p):
        f = 1
        for m in range(0, 200):
            if m:
                f *= m
            assert factorial_valuation(m, p) == padic_valuation(f, p)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            factorial_valuation(-1, 2)


class TestFactorize:
    @pytest.mark.parametrize(
        "d, expected",
        [(2, [(2, 1)]), (12, [(2, 2), (3, 1)]), (97, [(97, 1)]), (360, [(2, 3), (3, 2), (5, 1)])],
    )
    def test_known(self, d, expected):
        assert list(exact._trial_division(d)) == expected

    def test_trial_division_runs_once_per_degree(self):
        exact._trial_division.cache_clear()
        exact._trial_division(360)
        assert exact._trial_division(360) == ((2, 3), (3, 2), (5, 1))
        assert exact._trial_division.cache_info().misses == 1

    @given(d=st.integers(2, 10**6))
    def test_reconstructs_and_is_sorted(self, d):
        factors = exact._trial_division(d)
        product = 1
        for p, t in factors:
            assert is_prime(p) and t >= 1
            product *= p**t
        assert product == d
        assert [p for p, _ in factors] == sorted(p for p, _ in factors)


class TestIsPrime:
    @pytest.mark.parametrize("p", [2.5, 7.0, rational(7), "7", None])
    def test_non_ints_are_value_errors(self, p):
        assert is_prime(7)  # a memoized int does not answer for an equal non-int
        with pytest.raises(ValueError, match="^p must be an int, got "):
            is_prime(p)

    @pytest.mark.parametrize("p", [1, 0, -7, True, False])
    def test_ints_below_two_are_not_prime(self, p):
        assert is_prime(p) is False


class TestIsDAdic:
    """``divides_power`` decides whether a denominator is d-adic."""

    def test_matches_dividing_out_each_prime(self):
        # the same loop also counts each prime's exponent for padic_valuation
        for d in range(2, 13):
            for den in range(1, 2000):
                rest = den
                for p, _ in exact._trial_division(d):
                    v = 0
                    while rest % p == 0:
                        rest //= p
                        v += 1
                    assert padic_valuation(den, p) == v, (den, p)
                assert divides_power(den, d) == (rest == 1), (den, d)

    def test_large_powers(self):
        assert divides_power(2**66439, 2)
        assert divides_power(2**20000 * 3**15000, 6)
        assert not divides_power(2**66439 * 7, 2)


class TestBinomialGeneral:
    def test_j_zero_is_one(self):
        for a in (0, 5, rational(-7, 3), rational(1, 2)):
            assert binomial_general(a, 0) == 1

    def test_half_exponent(self):
        assert binomial_general(rational(1, 2), 2) == rational(-1, 8)
        assert binomial_general(rational(1, 2), 3) == rational(1, 16)

    def test_integer_case(self):
        assert binomial_general(5, 3) == 10

    @given(n=st.integers(0, 60), j=st.integers(0, 60))
    def test_matches_integer_binomial(self, n, j):
        expected = math.comb(n, j) if j <= n else 0
        assert binomial_general(n, j) == expected

    def test_rejects_negative_j(self):
        with pytest.raises(ValueError):
            binomial_general(rational(1, 2), -1)

    def test_matches_factor_by_factor_product(self):
        # 2000 seeded (a, j) pairs, integer, d-adic and arbitrary a, against
        # a(a-1)...(a-j+1)/j! accumulated one rational factor at a time
        rng = random.Random(2000)
        for _ in range(2000):
            kind = rng.randrange(3)
            if kind == 0:
                a = rng.randint(-50, 50)
            elif kind == 1:
                a = rational(rng.randint(-10**6, 10**6), rng.choice((2, 3, 5, 6)) ** rng.randint(1, 9))
            else:
                a = rational(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
            j = rng.randint(0, 50)
            expected = rational(1)
            for i in range(j):
                expected = expected * (a - i) / (i + 1)
            assert binomial_general(a, j) == expected


class TestSignedInfinity:
    """POS_INF and NEG_INF, the two ``decimal.Decimal`` infinities."""

    def test_are_the_decimal_infinities(self):
        assert POS_INF == Decimal("Infinity") and NEG_INF == Decimal("-Infinity")
        assert POS_INF.is_infinite() and NEG_INF.is_infinite()

    def test_ordering_against_ints(self):
        assert POS_INF > 10**100
        assert POS_INF >= 10**100
        assert not POS_INF < 10**100
        assert NEG_INF < -(10**100)
        assert NEG_INF <= -(10**100)
        assert NEG_INF < POS_INF
        assert POS_INF > NEG_INF

    def test_ordering_against_ints_past_the_digit_cap(self):
        # 5001 digits: past the default 4300-digit int<->str cap, so any
        # comparison by way of str would raise
        big = 10**5000
        assert NEG_INF < -big < big < POS_INF
        assert not POS_INF <= big and not NEG_INF >= -big
        assert -big > NEG_INF and big < POS_INF
        assert POS_INF != big and NEG_INF != -big

    def test_reflected_comparisons(self):
        assert 5 < POS_INF
        assert 5 > NEG_INF
        assert not 5 >= POS_INF

    def test_self_comparison(self):
        assert POS_INF == POS_INF
        assert POS_INF <= POS_INF and POS_INF >= POS_INF
        assert not POS_INF < POS_INF
        assert NEG_INF == NEG_INF
        assert POS_INF != NEG_INF

    def test_negation(self):
        assert -POS_INF == NEG_INF
        assert -NEG_INF == POS_INF

    def test_absorbs_finite_addends(self):
        assert POS_INF + 7 == POS_INF
        assert 7 + POS_INF == POS_INF
        assert NEG_INF + (-3) == NEG_INF

    def test_opposite_infinities_do_not_add(self):
        with pytest.raises(ArithmeticError):
            POS_INF + NEG_INF

    def test_hashable(self):
        assert len({POS_INF, NEG_INF, POS_INF}) == 2


def test_rational_interoperates_with_fraction():
    assert rational(1, 8) == Fraction(1, 8)
    assert rational(-2, 4) == Fraction(-1, 2)
    assert rational(Fraction(7, 25)) == rational(7, 25)


class TestIsDAdicByOneModularPower:
    """``divides_power`` decides d-adicity by one modular power."""

    @pytest.fixture
    def no_factoring(self, monkeypatch):
        def refuse(d):
            raise AssertionError(f"factored {d}")
        monkeypatch.setattr(exact, "_trial_division", refuse)

    @pytest.mark.parametrize("d", [2**40 * 3, 10**12 + 39])
    def test_never_factorizes_the_degree(self, no_factoring, d):
        # degrees no other test asks about, so no memoized factorization
        # of them can exist; 7 divides neither
        assert divides_power(1, d)
        assert divides_power(d, d)
        assert divides_power(d**5, d)
        assert not divides_power(7 * d, d)
        assert not divides_power(7, d)

    def test_composite_degree_without_factoring(self, no_factoring):
        d = 2**40 * 3
        assert divides_power(2**123, d) and divides_power(3**200, d)
        assert divides_power(2**7 * 3**90, d)
        assert not divides_power(2**7 * 3**90 * 5, d)

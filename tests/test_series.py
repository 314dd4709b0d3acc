import pytest
from hypothesis import given, settings, strategies as st

from multibrot import series
from multibrot.exact import ZERO, binomial_general, rational
from multibrot.series import iterate_parameter_polynomial, poly_mul, rational_power_tail


def poly_eval(coeffs, x):
    """Evaluate a sparse polynomial {power: coefficient} at x."""
    return sum(c * x**power for power, c in coeffs.items())


def truncated_product(a, b):
    """Product of two tails, truncated to the shorter window."""
    order = min(len(a), len(b)) - 1
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(order + 1)]


def power_tail(q_coeffs, alpha, order):
    """The whole tail [f_0, ..., f_order], one rational_power_tail call per term."""
    return [rational_power_tail(q_coeffs, alpha, k) for k in range(order + 1)]


def naive_power_tail(q_coeffs, alpha, order):
    """Oracle: expand (1+u)^alpha by summing binomial powers of u directly,
    each power truncated at the window."""
    degree = max(q_coeffs)
    u = {degree - p: c for p, c in q_coeffs.items() if p < degree and c}
    u = {i: c for i, c in u.items() if i <= order}
    total = {0: rational(1)}
    if not u:
        return [total.get(k, ZERO) for k in range(order + 1)]
    lowest = min(u)
    power = {0: 1}
    j = 0
    while (j + 1) * lowest <= order:
        j += 1
        nxt = {}
        for a, ca in power.items():
            for b, cb in u.items():
                if a + b <= order:
                    nxt[a + b] = nxt.get(a + b, 0) + ca * cb
        power = nxt
        coeff = binomial_general(alpha, j)
        for k, v in power.items():
            total[k] = total.get(k, ZERO) + coeff * v
    return [total.get(k, ZERO) for k in range(order + 1)]


class TestIterateParameterPolynomial:
    def test_first_iterates(self):
        assert iterate_parameter_polynomial(2, 1) == {2: 1, 1: 1}
        assert iterate_parameter_polynomial(2, 2) == {4: 1, 3: 2, 2: 1, 1: 1}
        assert iterate_parameter_polynomial(3, 1) == {3: 1, 1: 1}

    def test_huge_degree_is_two_terms(self):
        assert iterate_parameter_polynomial(10**13, 1) == {10**13: 1, 1: 1}

    @pytest.mark.parametrize("d, n", [(2, 1), (2, 3), (2, 5), (3, 2), (4, 2), (5, 1), (7, 2)])
    def test_monic_with_expected_shape(self, d, n):
        q = iterate_parameter_polynomial(d, n)
        assert max(q) == d**n
        assert q[d**n] == 1
        assert 0 not in q
        assert q[1] == 1
        assert all(q.values())  # nonzero terms only

    def test_recursion_step(self):
        # Q_{k+1} = Q_k^d + z
        d = 3
        q2 = iterate_parameter_polynomial(d, 2)
        q1 = iterate_parameter_polynomial(d, 1)
        cubed = poly_mul(poly_mul(q1, q1), q1)
        expected = dict(cubed)
        expected[1] = expected.get(1, 0) + 1
        assert q2 == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            iterate_parameter_polynomial(2, 0)
        with pytest.raises(ValueError):
            iterate_parameter_polynomial(1, 1)


class TestRationalPowerTail:
    def test_square_root_of_quadratic(self):
        # (z^2+z)^(1/2) = z * (1 + w)^(1/2); tail terms are the binomial series
        tail = power_tail({2: 1, 1: 1}, rational(1, 2), 3)
        expected = [binomial_general(rational(1, 2), j) for j in range(4)]
        assert tail == expected
        assert tail == [1, rational(1, 2), rational(-1, 8), rational(1, 16)]

    def test_pure_power_has_trivial_tail(self):
        for degree, m in [(3, 2), (5, 5), (4, 0)]:
            q = {degree: 1}
            tail = power_tail(q, rational(m, degree), 6)
            assert len(tail) == 7
            assert tail[0] == 1
            assert all(c == 0 for c in tail[1:])

    def test_cube_root_of_cubic(self):
        tail = power_tail({3: 1, 1: 1}, rational(1, 3), 2)
        assert tail == [1, ZERO, rational(1, 3)]

    def test_rejects_non_monic(self):
        with pytest.raises(ValueError):
            rational_power_tail({2: 2, 1: 1}, rational(1, 2), 3)

    def test_rejects_non_integer_leading_power(self):
        with pytest.raises(ValueError):
            rational_power_tail({2: 1, 1: 1}, rational(1, 3), 3)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            rational_power_tail({2: 1, 1: 1}, rational(1, 2), -1)

    def test_denominator_prime_outside_the_exponent_is_an_error(self, monkeypatch):
        # With gcd reporting no common factors, the scale would have to
        # grow by a factor not confirmed to be a power of b's primes.
        monkeypatch.setattr(series, "gcd", lambda x, y: 1)
        with pytest.raises(ArithmeticError):
            rational_power_tail({2: 1, 1: 1}, rational(1, 2), 3)

    @settings(deadline=None, max_examples=40)
    @given(
        d=st.integers(2, 4),
        n=st.integers(1, 3),
        m=st.integers(1, 20),
        order=st.integers(0, 16),
    )
    def test_matches_naive_binomial_expansion(self, d, n, m, order):
        q = iterate_parameter_polynomial(d, n)
        alpha = rational(m, d**n)
        assert power_tail(q, alpha, order) == naive_power_tail(q, alpha, order)

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(1, 4), m=st.integers(1, 12), order=st.integers(0, 14))
    def test_squaring_doubles_the_exponent(self, n, m, order):
        q = iterate_parameter_polynomial(2, n)
        half = power_tail(q, rational(m, 2**n), order)
        doubled = power_tail(q, rational(2 * m, 2**n), order)
        assert truncated_product(half, half) == doubled

    @pytest.mark.parametrize("q, alpha", [
        ({7: 1, 4: 3, 1: 1}, rational(2, 7)),  # u at w^3 and w^6: a series in w^3
        ({6: 1, 2: -2}, rational(1, 2)),  # u at w^4 only
        ({5: 1, 3: 1, 0: 2}, rational(3, 5)),  # u at w^2 and w^5: gcd 1
    ])
    def test_stride_of_the_support_matches_naive_expansion(self, q, alpha):
        assert power_tail(q, alpha, 15) == naive_power_tail(q, alpha, 15)

    @pytest.mark.parametrize("d, n, k", [(2, 1, 2), (2, 2, 3), (3, 1, 2), (4, 1, 1)])
    def test_integer_exponent_reproduces_polynomial_power(self, d, n, k):
        q = iterate_parameter_polynomial(d, n)
        power = q
        for _ in range(k - 1):
            power = poly_mul(power, q)
        order = max(power)
        tail = power_tail(q, rational(k), order)
        top = max(power)
        for i in range(order + 1):
            assert tail[i] == power.get(top - i, 0)


def test_poly_eval_matches_direct_iteration():
    for d, n in [(2, 3), (3, 2), (4, 2)]:
        q = iterate_parameter_polynomial(d, n)
        for z in range(-3, 4):
            v = z
            for _ in range(n):
                v = v**d + z
            assert poly_eval(q, z) == v


def test_integer_exponent_admits_no_scale_growth(monkeypatch):
    # with b = 1 the terms are integers, so any growth factor at all is
    # an arithmetic error (b^e mod grow is 1, never 0)
    monkeypatch.setattr(series, "gcd", lambda x, y: 1)
    with pytest.raises(ArithmeticError):
        rational_power_tail({2: 1, 1: 1}, 2, 3)

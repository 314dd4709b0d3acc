"""Formal expansions at infinity of iterated parameter polynomials.

Polynomials are dense integer coefficient tuples, index = degree.  The
central object is the expansion of Q(z)^(m/D) at infinity for a monic
degree-D polynomial Q: factoring Q(z) = z^D * (1 + u(1/z)) removes the
fractional power from the data model, leaving an ordinary truncated
series in w = 1/z with exact rational coefficients.

Those coefficients are computed on Python ints: the recurrence runs on
the terms times one common denominator, which grows as the terms need
it and may only contain primes of the exponent's denominator (any other
prime is an ``ArithmeticError``); the one term asked for becomes a
rational at the end.
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd

from .exact import rational, require_int


def poly_mul(a, b):
    """Schoolbook product of dense coefficient sequences."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return tuple(out)


def iterate_parameter_polynomial(d: int, n: int) -> tuple[int, ...]:
    """n-th iterate of z -> z^d + c with the parameter tied to c = z.

    Q_1(z) = z^d + z and Q_{k+1}(z) = Q_k(z)^d + z; the result is monic
    of degree d^n with zero constant term and z-coefficient 1.
    """
    require_int("degree d", d, 2)
    require_int("iteration order n", n, 1)
    q = [0] * (d + 1)
    q[1] = 1
    q[d] = 1
    q = tuple(q)
    for _ in range(n - 1):
        p = q
        for _ in range(d - 1):
            p = poly_mul(p, q)
        p = list(p)
        p[1] += 1
        q = tuple(p)
    return q


def rational_power_tail(q_coeffs, exponent, order: int):
    """Tail term ``order`` of the expansion of Q(z)^exponent at infinity.

    Q must be monic of some degree D and exponent * D must be an integer
    m, so that Q(z)^exponent = z^m * sum(f_k z^-k); the result is the
    rational f_order (f_0 = 1).  Writing Q(z) = z^D (1 + u) with
    u a polynomial in w = 1/z vanishing at w = 0, the tail is the
    binomial series (1 + u)^exponent mod w^(order+1), computed by the
    first-order recurrence obtained from f' (1+u) = exponent * u' f:

        k f_k = sum_i (exponent*i - (k-i)) u_i f_{k-i}

    which evaluates the same finite sum of generalized binomial terms as
    expanding the powers u^j directly, one coefficient at a time.

    With exponent = a/b in lowest terms, the recurrence runs on the
    integers g_k = f_k * S for one common scale S,

        b k g_k = sum_i (a*i - b(k-i)) u_i g_{k-i}.

    S starts at 1.  When b*k does not divide the right-hand side, S and
    every earlier g_j are multiplied by the missing factor, so S stays
    the least common denominator of the terms computed so far (597 bits
    for d = 2, m = 299, where the a-priori bound order! * b^order has
    4442).  Every f_k is a sum of binomial terms in a/b, so that factor
    divides b^e for e its bit length, which one modular power tests; any
    other factor (every one when b = 1) raises ``ArithmeticError``.  Only
    f_order is returned, as the one rational g_order / S.
    """
    require_int("order", order, 0)
    degree = len(q_coeffs) - 1
    while degree > 0 and q_coeffs[degree] == 0:
        degree -= 1
    if degree < 1 or q_coeffs[degree] != 1:
        raise ValueError("Q must be monic of degree >= 1")
    alpha = rational(exponent)
    if (alpha * degree).denominator != 1:
        raise ValueError(
            f"exponent {alpha} times degree {degree} must be an integer leading power"
        )
    a, b = alpha.numerator, alpha.denominator

    # u_i is the coefficient of z^(D-i), i.e. of w^i after factoring z^D.
    # Step k weighs u_i g_{k-i} by a*i - b(k-i) = (a+b)*i - b*k, so the
    # part that does not depend on k is multiplied in once, here.
    window = min(degree, order)
    support = [i for i in range(1, window + 1) if q_coeffs[degree - i]]
    terms = [(i, (a + b) * i * q_coeffs[degree - i], q_coeffs[degree - i]) for i in support]

    scale = 1
    g = [0] * (order + 1)
    g[0] = 1
    for k in range(1, order + 1):
        bk = b * k
        acc = 0
        for i, v_i, u_i in terms[: bisect_right(support, k)]:
            acc += (v_i - bk * u_i) * g[k - i]
        grow = bk // gcd(acc, bk)
        if grow > 1:
            if pow(b, grow.bit_length(), grow) != 0:
                raise ArithmeticError(
                    f"tail term {k} of the power {alpha} has a denominator prime "
                    f"not dividing {b}"
                )
            scale *= grow
            g[:k] = [g_j * grow for g_j in g[:k]]
            acc *= grow
        g[k] = acc // bk
    return rational(g[order], scale)

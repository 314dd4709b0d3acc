"""Formal expansions at infinity of iterated parameter polynomials.

Polynomials are maps {power: coefficient} of their nonzero terms.  The
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
from functools import reduce
from math import gcd

from .exact import divides_power, rational, require_int


def poly_mul(a, b):
    """Schoolbook product of sparse polynomials {power: coefficient}."""
    out = {}
    for i, ai in a.items():
        for j, bj in b.items():
            out[i + j] = out.get(i + j, 0) + ai * bj
    return {power: c for power, c in out.items() if c}


def iterate_parameter_polynomial(d: int, n: int) -> dict[int, int]:
    """n-th iterate of z -> z^d + c with the parameter tied to c = z.

    Q_1(z) = z^d + z and Q_{k+1}(z) = Q_k(z)^d + z; the result is monic
    of degree d^n with zero constant term and z-coefficient 1.
    """
    require_int("degree d", d, 2)
    require_int("iteration order n", n, 1)
    q = {d: 1, 1: 1}
    for _ in range(n - 1):
        q = reduce(poly_mul, [q] * d) | {1: 1}  # Q_k^d starts at z^d
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
    every earlier g_j are multiplied by the missing factor times
    b^(bit length of k) as headroom, so that the next steps' factors are
    mostly absorbed and the earlier terms are rescaled at few steps, not
    at almost every one.  S is then a common denominator of the terms
    computed so far, not the least one.  Every f_k is a sum of binomial
    terms in a/b, so the missing factor divides b^e for e its bit length,
    which one modular power tests; any other factor (every one when
    b = 1) raises ``ArithmeticError``.  Only f_order is returned, as the
    one rational g_order / S, which reduces to lowest terms.

    Only the u_i with i <= order are read, in one pass over Q's terms, so
    the cost does not grow with D.  With s the gcd of their indices (any
    s > order if there are none), u(w) = v(w^s): f_k = 0 off the multiples
    of s, and f_(s k) is term k of (1 + v)^exponent, as s cancels from the
    weights and from b s k.
    """
    require_int("order", order, 0)
    degree = max(q_coeffs, default=0)
    if degree < 1 or q_coeffs[degree] != 1:
        raise ValueError("Q must be monic of degree >= 1")
    a, b = exponent.numerator, exponent.denominator
    if degree % b:
        raise ValueError(
            f"exponent {exponent} times degree {degree} must be an integer leading power"
        )

    # u_i is the coefficient of z^(D-i), i.e. of w^i after factoring z^D.
    u, stride = {}, 0
    for power, c in q_coeffs.items():
        if 0 < degree - power <= order:
            u[degree - power] = c
            stride = gcd(stride, degree - power)
    stride = stride or order + 1  # u = 0 to w^order: f_k = 0 for 0 < k <= order
    order, off_stride = divmod(order, stride)
    if off_stride:
        return rational(0)
    # On indices divided by s, step k weighs u_i g_{k-i} by a*i - b(k-i) =
    # (a+b)*i - b*k, so the part that does not depend on k is multiplied in once.
    support = sorted(i // stride for i in u)
    terms = [(i, (a + b) * i * u[i * stride], u[i * stride]) for i in support]

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
            if not divides_power(grow, b):
                raise ArithmeticError(
                    f"tail term {k * stride} of the power {exponent} has a denominator prime "
                    f"not dividing {b}"
                )
            grow *= b ** k.bit_length()
            scale *= grow
            g[:k] = [g_j * grow for g_j in g[:k]]
            acc *= grow
        g[k] = acc // bk
    return rational(g[order], scale)

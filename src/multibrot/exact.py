"""Exact arithmetic substrate: rationals, p-adic valuations, factorizations.

Every quantity in this package is an exact rational, a
``fractions.Fraction`` (``rational`` here), which keeps values in lowest
terms with a positive denominator; ints stand for themselves wherever a
rational is expected.  The hot kernels (the series recurrence, the
column sweep and the partition sum) run on Python ints and build one
rational per result.

``binomial_general`` is no longer on any kernel's path: the partition
sum forms its binomial products on ints over a common denominator.  It
stays because it is public API, because the series and partition-sum
tests use it as an oracle, and because ``perfbench/trace.py`` looks it
up by name without a default, so removing it would break traced runs.

The library's integer arguments (degrees, indices, orders, bounds) pass
through ``require_int``: one that is not an int, or is below its least
admissible value, raises one ``ValueError`` naming the argument.
``divides_power``, the one d-adic test, runs no guards: its callers
(the table parser, the checks and the series tail) have checked both
arguments already.  Nor does ``_legendre``, the Legendre sum behind
``factorial_valuation``'s guards, which the checks' judges call.

At p = 2 valuations are read off the binary digits: ``padic_valuation``
by the position of the lowest set bit, ``factorial_valuation`` by
counting set bits.  Other primes divide by repeated squares of p.

Valuations take values in the integers extended by infinity:
``padic_valuation(0, p)`` is ``POS_INF``, and the negated valuation of a
zero coefficient downstream is ``NEG_INF``.  The two are the
``decimal.Decimal`` infinities, not sentinel integers: they order
exactly against every int, however many digits it has, and adding
opposite infinities raises.
"""

from __future__ import annotations

import functools
import math
from decimal import Decimal
from fractions import Fraction

rational = Fraction
# No other backend exists; the flag stays because perfbench/run.py reads
# it for the environment record of each benchmark run.
GMP_BACKEND = False

ZERO = rational(0)

# Largest degree the command line and table files accept.  Primality and
# factorization share one trial division up to sqrt(d): under a second
# up to here, minutes at 2^61 - 1.
MAX_DEGREE = 10**13

# ``fractions`` imports ``decimal`` anyway.  Arithmetic on an infinity
# returns an equal Decimal, not one of these objects, so ``is`` tests
# only values that the library returns as they are.  Report text matches
# an infinity by equality, so an equal Decimal prints as these do.
POS_INF = Decimal("Infinity")
NEG_INF = -POS_INF


def require_int(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless value is an int no smaller than least."""
    if not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be >= {least} and an int, got {value!r}")


@functools.lru_cache(maxsize=1024)
def is_prime(p: int) -> bool:
    """Deterministic primality by ``_trial_division``, memoized: the
    checks ask it of the same degree at every index.

    A non-int raises ``ValueError``; an int below 2 is not prime."""
    if not isinstance(p, int):
        raise ValueError(f"p must be an int, got {p!r}")
    return p >= 2 and _trial_division(p) == ((p, 1),)


def _require_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be a prime number, got {p!r}")


def padic_valuation(x, p: int) -> int | Decimal:
    """p-adic valuation of a rational x: the exponent of p in x.

    Returns ``POS_INF`` for x = 0.  For x = p^v * r/q with p dividing
    neither r nor q, returns v (negative when p divides the denominator).

    >>> padic_valuation(18, 3)
    2
    >>> padic_valuation(rational(7, 25), 5)
    -2
    """
    _require_prime(p)
    numerator = x.numerator
    if numerator == 0:
        return POS_INF
    return _multiplicity(numerator, p) - _multiplicity(x.denominator, p)


def _multiplicity(n: int, p: int) -> int:
    """Exponent of p in the nonzero int n.

    For p = 2 it is the position of n's lowest set bit, which ``n & -n``
    isolates in two's complement, negative n included.  Otherwise it
    divides out p, p^2, p^4, ... while each divides, then tries each of
    those powers once more, largest first, so an exponent v costs about
    2*log2(v) big divisions instead of v.
    """
    if p == 2:
        return (n & -n).bit_length() - 1
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


def factorial_valuation(m: int, p: int) -> int:
    """Exponent of the prime p in m!, by Legendre's formula.

    Computes sum(floor(m / p^l) for l >= 1); the sum is finite because
    terms vanish once p^l > m.  For p = 2 the sum equals m minus the
    number of ones in m's binary digits.
    """
    _require_prime(p)
    require_int("m", m, 0)
    return _legendre(m, p)


def _legendre(m: int, p: int) -> int:
    """``factorial_valuation`` unguarded, for callers that have checked
    that m >= 0 is an int and p a prime."""
    if p == 2:
        return m - m.bit_count()
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


@functools.lru_cache(maxsize=1024)
def _trial_division(d: int) -> tuple[tuple[int, int], ...]:
    """The sorted (prime, exponent) pairs of the int d >= 2, once per d."""
    factors = []
    rest = d
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            t = 0
            while rest % f == 0:
                rest //= f
                t += 1
            factors.append((f, t))
        f += 1 if f == 2 else 2
    if rest > 1:
        factors.append((rest, 1))
    return tuple(factors)


def divides_power(den: int, d: int) -> bool:
    """Whether every prime factor of the int den >= 1 divides the int d >= 1.

    Exactly then den divides d^e for e = den's bit length (no exponent in
    den exceeds it), so one modular power decides it without factoring d,
    however large den is.  For d = 1 it holds only at den = 1.  The
    arguments are not checked.
    """
    return pow(d, den.bit_length(), den) == 0


def binomial_general(a, j: int):
    """Generalized binomial coefficient a(a-1)...(a-j+1) / j! for rational a.

    Equals the ordinary binomial coefficient for integer a >= j, and 1
    for j = 0 regardless of a.  With a = p/q, the value is
    prod(p - i*q) / prod((i+1)*q) over i < j; both products are taken
    on ints and reduced once.
    """
    require_int("j", j, 0)
    p, q = a.numerator, a.denominator
    numerator = 1
    for i in range(j):
        numerator *= p - i * q
    return rational(numerator, math.factorial(j) * q**j)

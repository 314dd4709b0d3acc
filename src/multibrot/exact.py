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

Valuations take values in the integers extended by infinity:
``padic_valuation(0, p)`` is ``POS_INF``, and the negated valuation of a
zero coefficient downstream is ``NEG_INF``.  Infinities are distinct
singletons, not sentinel integers, so arithmetic with them is total and
unambiguous.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Union

rational = Fraction
# No other backend exists; the flag stays because perfbench/run.py reads
# it for the environment record of each benchmark run.
GMP_BACKEND = False

ZERO = rational(0)

# Largest degree the command line and table files accept.  Primality and
# factorization share one trial division up to sqrt(d): under a second
# up to here, minutes at 2^61 - 1.
MAX_DEGREE = 10**13


class SignedInfinity:
    """One of the two infinite endpoints of the extended integers.

    Only the module-level instances ``POS_INF`` and ``NEG_INF`` exist.
    They compare against every int (and each other), negate into each
    other, and absorb finite addends.
    """

    __slots__ = ("_sign",)

    def __init__(self, sign: int):
        self._sign = sign

    def __repr__(self):
        return "+inf" if self._sign > 0 else "-inf"

    def __neg__(self):
        return NEG_INF if self._sign > 0 else POS_INF

    def __eq__(self, other):
        return self is other

    def __hash__(self):
        return hash(("SignedInfinity", self._sign))

    def __lt__(self, other):
        if self is other:
            return False
        return self._sign < 0

    def __le__(self, other):
        return self is other or self._sign < 0

    def __gt__(self, other):
        if self is other:
            return False
        return self._sign > 0

    def __ge__(self, other):
        return self is other or self._sign > 0

    def __add__(self, other):
        if isinstance(other, SignedInfinity) and other._sign != self._sign:
            raise ArithmeticError("opposite infinities cannot be added")
        return self

    __radd__ = __add__


POS_INF = SignedInfinity(+1)
NEG_INF = SignedInfinity(-1)

ExtendedInt = Union[int, SignedInfinity]


def require_int(name: str, value, least: int) -> None:
    """Raise ``ValueError`` unless value is an int no smaller than least."""
    if not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be >= {least} and an int, got {value!r}")


@functools.lru_cache(maxsize=1024)
def is_prime(p: int) -> bool:
    """Deterministic primality by the trial division that ``factorize``
    runs, memoized: the checks ask it of the same degree at every index."""
    return p >= 2 and _trial_division(p) == ((p, 1),)


def _require_prime(p):
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be a prime number, got {p!r}")


def padic_valuation(x, p: int) -> ExtendedInt:
    """p-adic valuation of a rational x: the exponent of p in x.

    Returns ``POS_INF`` for x = 0.  For x = p^v * r/q with p dividing
    neither r nor q, returns v (negative when p divides the denominator).

    >>> padic_valuation(18, 3)
    2
    >>> padic_valuation(rational(7, 25), 5)
    -2
    """
    _require_prime(p)
    if x == 0:
        return POS_INF
    return _multiplicity(x.numerator, p) - _multiplicity(x.denominator, p)


def _multiplicity(n: int, p: int) -> int:
    """Exponent of p in the nonzero int n.

    Divides out p, p^2, p^4, ... while each divides, then tries each of
    those powers once more, largest first, so an exponent v costs about
    2*log2(v) big divisions instead of v.
    """
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
    terms vanish once p^l > m.
    """
    _require_prime(p)
    require_int("m", m, 0)
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def factorize(d: int) -> list[tuple[int, int]]:
    """Prime factorization of d >= 2 as a sorted list of (prime, exponent).

    Trial division, done once per d: the checks ask for the factors of
    the same degree at every index.
    """
    require_int("degree d", d, 2)
    return list(_trial_division(d))


@functools.lru_cache(maxsize=1024)
def _trial_division(d: int) -> tuple[tuple[int, int], ...]:
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


def is_d_adic(den: int, d: int) -> bool:
    """Whether every prime factor of the positive integer den divides d.

    Exactly then den divides d^e for e = den's bit length (no exponent in
    den exceeds it), so one modular power decides it without factoring d,
    however large den is.
    """
    require_int("degree d", d, 2)
    require_int("den", den, 1)
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

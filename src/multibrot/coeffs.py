"""Laurent coefficients of the normalized exterior map of the Multibrot set.

The degree-d Multibrot set is the connectedness locus of z -> z^d + c;
the conformal map from the exterior of the closed unit disk onto its
complement expands as z + sum(b_m * z^-m, m >= 0).  Every b_m is a
d-adic rational, and this module computes it exactly by two independent
routes:

* ``coefficient_by_residue``: the residue at infinity of the n-th
  iterate of z^d + c, specialized at c = z and raised to the power
  m / d^n, divided by -m.  Purely formal series arithmetic, no
  quadrature.
* ``coefficient_by_partition_sum``: a finite sum of products of
  generalized binomial coefficients over weighted partitions of m + 1,
  obtained by unrolling the iteration one composition step at a time.
  The sum over a prefix's completions depends only on its state (level,
  remaining weight, shift), so each state's subtree is summed once, as
  an int over one common denominator, and cached; the divisions by
  each step's j! D^j are exact.  ``partition_index_tuples`` enumerates
  the tuples one by one; it is public API and the enumeration the tests'
  ``Fraction`` reference sums over, not the route's.

Agreement of the two routes on every input is a tested invariant, as is
independence of the choice of admissible iteration order n.

Whole tables b_0..b_M come from ``coefficients_by_sweep``, one pass
over the series of the iterates Q_k(Psi(w)); every command runs one
sweep per degree, and the residue route is its independent oracle.
"""

from __future__ import annotations

import functools
import math
from itertools import count, islice
from operator import mul
from typing import NamedTuple

from .exact import ZERO, rational, require_int
from .series import iterate_parameter_polynomial, rational_power_tail

METHOD_RESIDUE = "residue"
METHOD_COMBINATORIAL = "combinatorial"
METHOD_SPECIAL = "special-case"
METHOD_SWEEP = "sweep"


class CoeffRecord(NamedTuple):
    """One computed coefficient with the method that produced it;
    immutable, as a tuple is."""

    d: int
    m: int
    value: object
    method: str


_poly_cache: dict[tuple[int, int], dict[int, int]] = {}


def _iterated_polynomial(d, n):
    key = (d, n)
    poly = _poly_cache.get(key)
    if poly is None:
        poly = _poly_cache[key] = iterate_parameter_polynomial(d, n)
    return poly


def _divisible(d, m):
    """Whether (d-1) divides (m+1); where not, b_m = 0 (at m = 0 for every
    d >= 3, never for d = 2).  The criterion's one reader, unguarded: d and
    m are not checked."""
    return (m + 1) % (d - 1) == 0


def choose_n(d: int, m: int) -> int:
    """Smallest iteration order n >= 1 whose series window covers index m.

    The residue and partition-sum formulas are valid for
    1 <= m <= d^(n+1) - 3, a window that grows with n; this is the one
    place that spells it.
    """
    require_int("degree d", d, 2)
    require_int("index m", m, 1)
    n = 1
    while m > d ** (n + 1) - 3:
        n += 1
    return n


def coefficient_by_residue(d: int, m: int, n: int | None = None):
    """Exact b_m via the residue at infinity of Q_n(z)^(m/d^n).

    The contour-integral form of the coefficient reduces, for series
    expanded at infinity, to -1/m times the coefficient of z^-1; that
    term sits exactly at tail order m + 1 past the leading power.
    """
    least = choose_n(d, m)
    n = least if n is None else n
    require_int("iteration order n", n, least)
    q = _iterated_polynomial(d, n)
    tail = rational_power_tail(q, rational(m, d**n), m + 1)
    return rational(-tail.numerator, tail.denominator * m)


def partition_index_tuples(d, n, target):
    """Non-negative (j_1..j_n) with sum((d^(n-k+1) - 1) * j_k) = target.

    Yields lexicographically, pruning each branch by remaining weight.
    ``coefficient_by_partition_sum`` sums over the same tuples, but by
    state, without listing them.  The arguments are checked at the call,
    not at the first tuple.
    """
    require_int("degree d", d, 2)
    require_int("iteration order n", n, 1)
    require_int("target", target, 0)
    weights = [d ** (n - k + 1) - 1 for k in range(1, n + 1)]

    def descend(k, remaining, prefix):
        w = weights[k]
        if k == n - 1:
            q, r = divmod(remaining, w)
            if r == 0:
                yield prefix + (q,)
            return
        for j in range(remaining // w + 1):
            yield from descend(k + 1, remaining - j * w, prefix + (j,))

    return descend(0, target, ())


def _inexact(k, remaining, shift, j):
    return ArithmeticError(f"state (level {k}, remaining {remaining}, shift {shift}): "
                           f"inexact division at j = {j}")


def coefficient_by_partition_sum(d: int, m: int, n: int):
    """Exact b_m as -1/m times a sum over weighted index tuples.

    Each tuple (j_1..j_n) contributes a product of generalized binomial
    coefficients binom(m/D_k - s_k, j_k), with D_k = d^(n-k+1) and s_k
    the shift left by the prefix of indices already consumed, that is

        prod_k prod_{i<j_k} (m - s_k D_k - i D_k) / prod_k j_k! D_k^j_k.

    The sum over all completions of a prefix depends only on its state
    (level k, remaining weight r, shift s), because the next factor
    starts at m - s D_k; so each state's subtree is summed once, as an
    int times C = T! d^T with T = T(m+1), T(r) = r // (d-1), and
    memoized by ``functools.cache`` on the state.  With c_j the sum of the child state reached by
    j_k = j, a state's sum is folded by Horner's rule,

        c_0 + a_0 / b_0 (c_1 + a_1 / b_1 (c_2 + ...)),
        a_i = m - s D_k - i D_k,  b_i = (i+1) D_k,

    one product and one division by a small int per edge, from the
    largest j down; no j past the first zero a_i is summed.

    Those divisions are exact.  Every completion from remaining weight r
    has a denominator dividing T(r)! d^T(r): at the last level j = T(r),
    and (D_k-1)/(d-1) is an integer >= n-k+1, so an edge j takes r to r'
    with T(r) - T(r') = j (D_k-1)/(d-1) >= j, and j! D_k^j divides
    T(r)! d^T(r) / (T(r')! d^T(r')).  Each c_j is therefore a multiple of
    C / (T(r')! d^T(r')) and so of j! D_k^j, and the division at b_j
    leaves sum_{i>j} c_i prod_{j<=l<i} a_l / ((i!/j!) D_k^(i-j)), an int.
    A remainder raises ``ArithmeticError`` naming the state.  The last
    level's j = T(r) <= T is forced by r, and its scale C / (j! d^j) is
    multiplied out once per j, down from 1 at j = T.

    A leaf (shift s, j) is prod(m - i d, s <= i < s+j) times that scale.
    One table per call holds F[t], the product of the factors m - i d for
    i < t, leaving out the one zero factor, at i = m/d when d divides m;
    it grows as leaves reach further.  A leaf whose range holds that i is
    0, without a product.  Any other leaf is F[s+j] // F[s]: F[s+j] is
    F[s] times the leaf's own factors, none of them the left-out one, so
    the division is exact by construction and needs no check.  The route
    builds one rational at the end.
    """
    require_int("iteration order n", n, choose_n(d, m))
    top = (m + 1) // (d - 1)
    leaf = [1] * (top + 1)  # leaf[j] = C / (j! d^j), from leaf[T] = 1 down
    for j in range(top, 0, -1):
        leaf[j - 1] = leaf[j] * j * d
    common = leaf[0]
    falling = [1]  # F[t] above: prod(m - i d for i < t) without the zero factor
    zero = m // d if m % d == 0 else -1  # the i of that factor, if any

    @functools.cache
    def subtree(k, remaining, shift):
        if k == n - 1:
            j, r = divmod(remaining, d - 1)
            if r:
                return 0
            end = shift + j
            if shift <= zero < end:
                return 0
            while len(falling) <= end:
                falling.append(falling[-1] * (m - (len(falling) - 1) * d or 1))
            return falling[end] // falling[shift] * leaf[j]
        step = d ** (n - k)
        start = m - shift * step
        weight = step - 1
        top_j = remaining // weight
        if start % step == 0 and 0 <= start // step < top_j:
            top_j = start // step  # every larger j has the factor start - top_j * step = 0
        total = 0  # Horner: child_j + (start - j step) / ((j+1) step) * (the sum past j)
        for j in range(top_j, -1, -1):
            if total:
                total, r = divmod((start - j * step) * total, (j + 1) * step)
                if r:
                    raise _inexact(k, remaining, shift, j)
            total += subtree(k + 1, remaining - j * weight, d * (shift + j))
        return total

    total = subtree(0, m + 1, 0)
    del subtree  # it refers to itself; free it and its cache now, not at a collection
    return rational(-total, common * m)


def coefficients_by_sweep(d: int, m_max: int) -> list:
    """Exact [b_0, ..., b_m_max], a prefix of one open-ended sweep of the iterates' columns.

    With Psi(w) = w (1 + sum_j beta_{0,j} w^-j), so beta_{0,j} = b_{j-1},
    the iterates Psi_k = Q_k(Psi) = w^(d^k) (1 + B_k(1/w)) obey

        1 + B_{k+1}(x) = (1 + B_k(x))^d + x^(d^(k+1) - 1) (1 + B_0(x)),

    and beta_{k,j} = 0 for 1 <= j <= d^(k+1) - 2.  Column j is swept at
    every level k below k* = choose_n(d, j - 1) (and k* = 1 for j = 1).
    H_{k,j} = [x^j](1 + B_k)^d is d beta_{k,j} plus terms of earlier
    columns, so the unknown b_{j-1} enters beta_{k,j} as d^k b_{j-1} plus
    terms of earlier columns, and the zero at level k* solves for it.

    For d = 2 the square is formed directly, the recurrence of Ewing and
    Schober (The areas of Mandelbrot and Julia sets, Numer. Math. 61,
    1992): with lo = 2^(k+1) - 1,

        beta_{k+1,j} = 2 beta_{k,j} + sum_{i=lo..j-lo} beta_{k,i} beta_{k,j-i}
                       + beta_{0,j-lo},

    the sum taken by symmetry, twice each product with i < j/2 plus the
    diagonal term when j is even.  For d >= 3, J.C.P. Miller's power
    recurrence

        j H_{k,j} = sum_{i=1..j} ((d+1) i - j) beta_{k,i} H_{k,j-i}

    (whose i = j term is d j beta_{k,j}) costs one convolution per level,
    where building (1 + B_k)^d from squares would cost more; it keeps a
    row of H per level.

    Column j is stored times S^j, with S = 4 for d = 2 and S = d
    otherwise; the main bound makes every stored value an integer, and a
    product of columns i and j - i lands on scale S^j.  The only
    divisions are by d^k* and, for d >= 3, by j; a remainder raises
    ``ArithmeticError``.  No value is read off the vanishing theorem (by
    which g below settles at d - 1): work is skipped only where the
    recurrence or values already computed make it zero.  Level k's
    convolution pairs indices i, j - i >= lo = d^(k+1) - 1, so it is
    summed only from column 2 lo on.  For d >= 3, g is the gcd of the
    indices >= 1 of every nonzero beta_{k,j} or H_{k,j} written so far
    (g = 0 before the first), so every entry at an index >= 1 off the
    multiples of g is an exact zero, and a term of column j pairs two
    nonzero entries only at an i that g divides.  A column j that g does
    not divide, or j < d - 1 while g = 0, is stored as 0 at every level
    with no sum: no lift is read before column d - 1, whose first lift
    makes b_{d-2} = -1/d nonzero, so from there g divides d - 1 and hence
    every lo, and a lift into column j reads beta_{0,j-lo}, off the
    multiples of g too.  No level starts at a skipped column, since each
    starts at its lo.  A zero column is returned without forming S^j,
    which for a large degree costs far more than the column itself.
    """
    require_int("degree d", d, 2)
    require_int("m_max", m_max, 0)
    return list(islice(_sweep(d), m_max + 1))


def _sweep(d):
    scale = 4 if d == 2 else d
    beta, lifts, dk = [[1]], [], [1, d]  # level 0 holds column 0; dk[k] = d^k for k <= len(beta)
    power = None if d == 2 else [[1]]  # the square reads no row of H
    g = 0  # gcd of the indices >= 1 of the nonzero entries written so far; stays 0 for d = 2
    if d == 2:
        def rest(k, row, j, lo):  # [x^j](1 + B_k)^2 - 2 beta_{k,j}, row = beta[k], j >= 2 lo
            r = 2 * sum(map(mul, row[lo:(j + 1) // 2], row[j - lo:j // 2:-1]))
            return r + row[j // 2] ** 2 if j % 2 == 0 else r
    else:
        def rest(k, row_b, j, lo):  # H_{k,j} - d beta_{k,j}, row_b = beta[k], j >= 2 lo, g | j
            row_h = power[k]
            a = -(-lo // g) * g  # the first multiple of g from lo
            weights = range((d + 1) * a - j, d * j, (d + 1) * g)  # (d + 1) i - j for i < j
            r, rem = divmod(sum(map(mul, map(mul, weights, row_b[a:j - lo + 1:g]),
                                    row_h[j - a:lo - 1:-g])), j)
            if rem:
                raise ArithmeticError(f"d={d}, column {j}, level {k}: inexact division by {j}")
            return r
    for j in count(1):
        if j % g if g else j < d - 1:  # every entry of column j is an exact zero
            for row in (*beta, *power):
                row.append(0)
            yield ZERO
            continue
        if j == dk[-1] * d - 1:  # the next level k is first read at its lo = d^(k+1) - 1
            for rows in (beta,) if power is None else (beta, power):
                rows.append([1] + [0] * (j - 1))  # beta_{k,i} = H_{k,i} = 0 for 0 < i < lo
            dk.append(dk[-1] * d)
        p = 0  # beta_{k,j} less its term d^k b_{j-1}; h is H_{k,j} less d^(k+1) b_{j-1}
        for k, row in enumerate(beta):
            lo = dk[k + 1] - 1
            if j == lo:  # lifts[k] = S^lo, not formed sooner: S^(d-1) can be huge
                lifts.append(scale**lo)
            h = d * p + rest(k, row, j, lo) if j >= 2 * lo else d * p  # no i, j - i >= lo below
            row.append(p)
            if power is not None:
                power[k].append(h)
            p = h + beta[0][j - lo] * lifts[k] if j >= lo else h  # the lift of 1 + B_0
        u, rem = divmod(-p, dk[-1])  # beta_{k*,j} = 0
        if rem:
            raise ArithmeticError(f"d={d}, column {j}: inexact division by {d}^{len(beta)}")
        for k, row in enumerate(beta):
            row[j] += dk[k] * u
            if power is not None:
                power[k][j] += dk[k + 1] * u
                if row[j] or power[k][j]:
                    g = math.gcd(g, j)
        yield rational(beta[0][j], scale**j) if beta[0][j] else ZERO


def laurent_coefficient(d: int, m: int, *, method: str = METHOD_RESIDUE) -> CoeffRecord:
    """The m-th exterior-map coefficient for degree d, with provenance.

    m = 0 is handled by the two directly-computed constants (-1/2 for
    d = 2, 0 for d >= 3), recorded as ``METHOD_SPECIAL``; every m >= 1 is
    computed in full by the route ``method`` names, at any degree.
    """
    require_int("degree d", d, 2)
    require_int("index m", m, 0)
    if method not in (METHOD_RESIDUE, METHOD_COMBINATORIAL):
        raise ValueError(f"unknown method {method!r}")
    if m == 0:
        value = rational(-1, 2) if d == 2 else ZERO
        return CoeffRecord(d, m, value, METHOD_SPECIAL)
    if method == METHOD_RESIDUE:
        value = coefficient_by_residue(d, m)
    else:
        value = coefficient_by_partition_sum(d, m, choose_n(d, m))
    return CoeffRecord(d, m, value, method)


def zero_census(d: int, m_max: int):
    """Every m <= m_max at which ``coefficients_by_sweep(d, m_max)`` computed
    b_m = 0, as (m, explained), in increasing m.

    Every listed zero is a value the sweep computed; ``explained`` is
    ``not _divisible(d, m)``, the divisibility criterion read at that
    zero (it covers m = 0 for d >= 3).  No pattern beyond it is assumed.
    """
    values = coefficients_by_sweep(d, m_max)
    return [(m, not _divisible(d, m)) for m, value in enumerate(values) if value == 0]

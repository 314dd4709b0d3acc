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
  obtained by unrolling the iteration one composition step at a time;
  the products are summed as ints over one common denominator.

Agreement of the two routes on every input is a tested invariant, as is
independence of the choice of admissible iteration order n.

Whole tables b_0..b_M come from ``coefficients_by_sweep``, one pass
over the series of the iterates Q_k(Psi(w)); every command runs one
sweep per degree, and the residue route is its independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

from .exact import ZERO, rational, require_int
from .series import iterate_parameter_polynomial, rational_power_tail

METHOD_RESIDUE = "residue"
METHOD_COMBINATORIAL = "combinatorial"
METHOD_SPECIAL = "special-case"
METHOD_SWEEP = "sweep"


@dataclass(frozen=True)
class CoeffRecord:
    """One computed coefficient with the method that produced it."""

    d: int
    m: int
    value: object
    method: str


_poly_cache: dict[tuple[int, int], tuple[int, ...]] = {}


def _iterated_polynomial(d, n):
    key = (d, n)
    poly = _poly_cache.get(key)
    if poly is None:
        poly = _poly_cache[key] = iterate_parameter_polynomial(d, n)
    return poly


def vanishes_by_divisibility(d: int, m: int) -> bool:
    """True when (d-1) does not divide (m+1), which forces b_m = 0.

    Never true for d = 2; true at m = 0 for every d >= 3.
    """
    require_int("degree d", d, 2)
    require_int("index m", m, 0)
    return (m + 1) % (d - 1) != 0


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


def _check_order(d, m, n):
    require_int("iteration order n", n, choose_n(d, m))


def coefficient_by_residue(d: int, m: int, n: int | None = None):
    """Exact b_m via the residue at infinity of Q_n(z)^(m/d^n).

    The contour-integral form of the coefficient reduces, for series
    expanded at infinity, to -1/m times the coefficient of z^-1; that
    term sits exactly at tail order m + 1 past the leading power.
    """
    if n is None:
        n = choose_n(d, m)
    _check_order(d, m, n)
    q = _iterated_polynomial(d, n)
    return -rational_power_tail(q, rational(m, d**n), m + 1) / m


def partition_index_tuples(d, n, target):
    """Non-negative (j_1..j_n) with sum((d^(n-k+1) - 1) * j_k) = target.

    Yields lexicographically, pruning each branch by remaining weight;
    the enumeration order fixes the downstream summation order so runs
    are diffable.  The arguments are checked at the call, not at the
    first tuple.
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


def coefficient_by_partition_sum(d: int, m: int, n: int):
    """Exact b_m as -1/m times a sum over weighted index tuples.

    Each tuple (j_1..j_n) contributes a product of generalized binomial
    coefficients binom(m/D_k - s_k, j_k), with D_k = d^(n-k+1) and s_k
    the shift left by the prefix of indices already consumed, that is

        prod_k prod_{i<j_k} (m - s_k D_k - i D_k) / prod_k j_k! D_k^j_k.

    Every such denominator divides C = T! d^T with T = (m+1)//(d-1):
    sum_k j_k <= T, and sum_k (n-k+1) j_k <= sum_k (D_k-1) j_k / (d-1)
    = (m+1)/(d-1).  The sum therefore runs on ints scaled by C and
    builds one rational at the end; a tuple whose denominator does not
    divide C raises ``ArithmeticError``.
    """
    _check_order(d, m, n)
    top = (m + 1) // (d - 1)
    common = math.factorial(top) * d**top
    steps = [d ** (n - k) for k in range(n)]
    total = 0
    for tup in partition_index_tuples(d, n, m + 1):
        num, den, shift = 1, 1, 0
        for step, j in zip(steps, tup):
            start = m - shift * step
            for i in range(j):
                num *= start - i * step
            if num == 0:
                break
            den *= math.factorial(j) * step**j
            shift = d * (shift + j)
        else:
            q, rem = divmod(common, den)
            if rem:
                raise ArithmeticError(f"tuple {tup}: denominator {den} does not divide {common}")
            total += num * q
    return rational(-total, common * m)


def coefficients_by_sweep(d: int, m_max: int) -> list:
    """Exact [b_0, ..., b_m_max] in one sweep over the columns of the iterates.

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
    ``ArithmeticError``.  Columns are computed in full, without the
    vanishing shortcut; terms are skipped only where level k is zero by
    the recurrence above.
    """
    require_int("degree d", d, 2)
    require_int("m_max", m_max, 0)
    scale = 4 if d == 2 else d
    top = m_max + 1
    levels = choose_n(d, max(m_max, 1))
    offsets = [d ** (k + 1) - 1 for k in range(levels)]
    # column j - offset of 1 + B_0 enters column j of level k + 1 times S^offset;
    # an offset past the last column is never read, and S^offset can be huge
    lifts = [scale**offset if offset <= top else None for offset in offsets]
    beta = [[1] + [0] * top for _ in range(levels)]
    if d == 2:
        power = None

        def rest(k, j, lo):  # [x^j](1 + B_k)^2 - 2 beta_{k,j}
            row = beta[k]
            r = 2 * sum(map(mul, row[lo:(j + 1) // 2], row[j - lo:j // 2:-1]))
            return r + row[j // 2] ** 2 if j % 2 == 0 and j >= 2 * lo else r
    else:
        power = [[1] + [0] * top for _ in range(levels)]

        def rest(k, j, lo):  # H_{k,j} - d beta_{k,j}
            row_b, row_h = beta[k], power[k]
            r, rem = divmod(sum(((d + 1) * i - j) * row_b[i] * row_h[j - i]
                                for i in range(lo, j - lo + 1)), j)
            if rem:
                raise ArithmeticError(f"column {j}, level {k}: inexact division by {j}")
            return r
    for j in range(1, top + 1):
        k_star = choose_n(d, max(j - 1, 1))
        # beta_{k,j} - d^k b_{j-1} and H_{k,j} - d beta_{k,j}, per level
        provisional, rests, p = [], [], 0
        for k in range(k_star):
            lo = offsets[k]
            r = rest(k, j, lo)
            provisional.append(p)
            rests.append(r)
            p = d * p + r + (beta[0][j - lo] * lifts[k] if j >= lo else 0)
        u, rem = divmod(-p, d**k_star)
        if rem:
            raise ArithmeticError(f"column {j}: inexact division by {d}^{k_star}")
        for k in range(k_star):
            beta[k][j] = d**k * u + provisional[k]
            if power is not None:
                power[k][j] = d * beta[k][j] + rests[k]
    return [rational(beta[0][j], scale**j) for j in range(1, top + 1)]


def laurent_coefficient(d: int, m: int, *, method: str = METHOD_RESIDUE) -> CoeffRecord:
    """The m-th exterior-map coefficient for degree d, with provenance.

    m = 0 is handled by the two directly-computed constants (-1/2 for
    d = 2, 0 for d >= 3).  For d >= 3 and (d-1) not dividing (m+1) the
    coefficient vanishes identically, and that zero is recorded without
    series work; ``coefficient_by_residue`` computes it in full.
    """
    require_int("degree d", d, 2)
    require_int("index m", m, 0)
    if method not in (METHOD_RESIDUE, METHOD_COMBINATORIAL):
        raise ValueError(f"unknown method {method!r}")
    if m == 0:
        value = rational(-1, 2) if d == 2 else ZERO
        return CoeffRecord(d, m, value, METHOD_SPECIAL)
    if vanishes_by_divisibility(d, m):
        return CoeffRecord(d, m, ZERO, METHOD_SPECIAL)
    if method == METHOD_RESIDUE:
        value = coefficient_by_residue(d, m)
    else:
        value = coefficient_by_partition_sum(d, m, choose_n(d, m))
    return CoeffRecord(d, m, value, method)


def zero_census(d: int, m_max: int):
    """All m <= m_max with b_m = 0, flagged by whether the vanishing is
    explained by ``vanishes_by_divisibility`` (which covers m = 0 for d >= 3).

    Unexplained candidates are found by full computation, one sweep up to
    the last index the criterion leaves open (none when it leaves none
    open); no pattern beyond the divisibility criterion is assumed.
    """
    require_int("degree d", d, 2)
    require_int("m_max", m_max, 0)
    top = (m_max + 1) // (d - 1) * (d - 1) - 1
    values = coefficients_by_sweep(d, top) if top >= 0 else []
    zeros = []
    for m in range(m_max + 1):
        if vanishes_by_divisibility(d, m):
            zeros.append((m, True))
        elif values[m] == 0:
            zeros.append((m, False))
    return zeros

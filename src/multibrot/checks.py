"""Mechanical checks of the known denominator bounds on the coefficients.

Each check turns one published statement about -nu_p(b_{d,m}) into a
predicate over exactly computed coefficients and returns a ``Verdict``:

* ``main``: for (d-1) | (m+1) and a = (m+1)/(d-1), every prime power
  p^t exactly dividing d satisfies -nu_p(b) <= nu_p(a!) + t*a, with
  equality precisely when m = d-2 or p does not divide m.
* ``zagier``: d = 2, -nu_2(b) <= nu_2((2m+2)!), equality iff m = 0 or
  m odd (Zagier's observation).
* ``ewing-schober``: d = 2, -nu_2(b) <= 2m+1 (area-theorem bound).
* ``levin``: d = 2 and odd m, -nu_2(b) = nu_2((2m+2)!) exactly.
* ``yamashita``: prime degree p; the floor-form bound
  floor(nu_p((pm+p)!)/(p-1)) with the same equality clause as ``main``,
  and -nu_p(b) = -inf when (p-1) does not divide (m+1).  The check also
  asserts that the floor form coincides with ``main``'s additive form
  a + nu_p(a!); that coincidence is real for p = 2 but FAILS for odd p
  at infinitely many m (first: p=3, m=9), where the equality clause is
  then refuted by the exact coefficient too, so failing verdicts from
  this check are expected and are a finding, not a bug.
* ``vanishing``: d >= 3 and (d-1) not dividing (m+1): the full,
  non-shortcut computation returns exactly zero.
* ``integrality``: b * d^x is an integer for
  x = max_i ceil((nu_{p_i}(a!) + t_i*a) / t_i).
* ``dadic``: every prime factor of the denominator divides d.

All comparisons are exact; a zero coefficient attains -inf, which
satisfies every bound and never counts as equality against a finite one.

Every ``check_*`` function judges the one coefficient value it is
passed and computes none.  ``CHECKS`` is the one place that declares at
which (d, m) each check applies and whether it reads fully computed
coefficients; ``suite_verdicts`` reads it through ``applicable`` and
sweeps each degree once before any check runs, and every ``check_*``
function raises ``ValueError`` where it says the check does not apply
and at every (d, m) that indexes no coefficient.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

from .cache import checksummed_text
from .exact import (
    NEG_INF,
    POS_INF,
    factorial_valuation,
    factorize,
    is_d_adic,
    is_prime,
    padic_valuation,
    require_int,
)
from . import coeffs
from .coeffs import vanishes_by_divisibility

REPORT_HEADER = "#multibrot-verdicts v1"


@dataclass(frozen=True)
class Verdict:
    check: str
    d: int
    m: int
    p: int | None
    bound: object
    attained: object
    equality_predicted: bool | None
    equality_observed: bool | None
    passed: bool


def denominator_exponent(value, p: int):
    """-nu_p(value): how strongly p divides the denominator.

    NEG_INF for value = 0, matching nu_p(0) = +inf.
    """
    v = padic_valuation(value, p)
    return NEG_INF if v is POS_INF else -v


def _bound_verdict(check, d, m, p, bound, attained, equality_predicted=None):
    within = attained <= bound
    if equality_predicted is None:
        return Verdict(check, d, m, p, bound, attained, None, None, bool(within))
    equality_observed = attained == bound
    return Verdict(
        check,
        d,
        m,
        p,
        bound,
        attained,
        equality_predicted,
        equality_observed,
        bool(within and equality_predicted == equality_observed),
    )


def _require(name, d, m):
    require_int("degree d", d, 2)
    require_int("index m", m, 0)
    if not CHECKS[name].applies(d, m):
        raise ValueError(f"check {name!r} does not apply at d={d}, m={m}")


def check_main(d: int, m: int, value) -> list[Verdict]:
    """One verdict per prime factor of d; requires (d-1) | (m+1)."""
    _require("main", d, m)
    a = (m + 1) // (d - 1)
    verdicts = []
    for p, t in factorize(d):
        bound = factorial_valuation(a, p) + t * a
        attained = denominator_exponent(value, p)
        equality_predicted = m == d - 2 or m % p != 0
        verdicts.append(_bound_verdict("main", d, m, p, bound, attained, equality_predicted))
    return verdicts


def check_zagier(m: int, value) -> Verdict:
    _require("zagier", 2, m)
    bound = factorial_valuation(2 * m + 2, 2)
    attained = denominator_exponent(value, 2)
    equality_predicted = m == 0 or m % 2 == 1
    return _bound_verdict("zagier", 2, m, 2, bound, attained, equality_predicted)


def check_ewing_schober(m: int, value) -> Verdict:
    _require("ewing-schober", 2, m)
    attained = denominator_exponent(value, 2)
    return _bound_verdict("ewing-schober", 2, m, 2, 2 * m + 1, attained)


def check_levin(m: int, value) -> Verdict:
    _require("levin", 2, m)
    bound = factorial_valuation(2 * m + 2, 2)
    attained = denominator_exponent(value, 2)
    return _bound_verdict("levin", 2, m, 2, bound, attained, equality_predicted=True)


def check_yamashita(p: int, m: int, value) -> Verdict:
    """Prime-degree bound in floor form, checked against the additive form."""
    _require("yamashita", p, m)
    attained = denominator_exponent(value, p)
    if vanishes_by_divisibility(p, m):
        return _bound_verdict("yamashita", p, m, p, NEG_INF, attained, equality_predicted=True)
    a = (m + 1) // (p - 1)
    bound = factorial_valuation(p * m + p, p) // (p - 1)
    forms_agree = bound == a + factorial_valuation(a, p)
    equality_predicted = m == p - 2 or m % p != 0
    verdict = _bound_verdict("yamashita", p, m, p, bound, attained, equality_predicted)
    if not forms_agree:
        verdict = replace(verdict, passed=False)
    return verdict


def check_vanishing(d: int, m: int, value) -> Verdict:
    """Full computation (shortcut disabled) must return exactly zero.

    ``value`` must come from a full computation, such as the degree's
    sweep (which ``suite_verdicts`` runs for every ``full`` pair, whatever
    it was passed) or ``coefficient_by_residue``; a shortcut or cached
    value would make the check vacuous.
    """
    _require("vanishing", d, m)
    p_smallest = factorize(d)[0][0]
    attained = denominator_exponent(value, p_smallest)
    return _bound_verdict("vanishing", d, m, None, NEG_INF, attained, equality_predicted=True)


def check_integrality(d: int, m: int, value) -> Verdict:
    """value * d^x integral for the ceiling exponent x derived from the main bound."""
    _require("integrality", d, m)
    a = (m + 1) // (d - 1)
    factors = factorize(d)
    bound = max(-(-(factorial_valuation(a, p) + t * a) // t) for p, t in factors)
    # smallest e >= 0 with value * d^e integral; +inf if no power of d clears it
    den = value.denominator
    if is_d_adic(den, d):
        attained = max(-(-padic_valuation(den, p) // t) for p, t in factors)
    else:
        attained = POS_INF
    return _bound_verdict("integrality", d, m, None, bound, attained)


def check_dadic(d: int, m: int, value) -> Verdict:
    """Every prime factor of the denominator divides d."""
    _require("dadic", d, m)
    passed = is_d_adic(value.denominator, d)
    return Verdict("dadic", d, m, None, None, None, None, None, passed)


def _sort_key(v: Verdict):
    return (v.check, v.d, v.m, v.p if v.p is not None else -1)


@dataclass(frozen=True)
class Check:
    """Where a check applies, and its verdicts on the value at one (d, m).

    ``full`` checks need their coefficients computed without the
    vanishing shortcut, so ``suite_verdicts`` computes those pairs in full.
    """

    applies: Callable[[int, int], bool]
    verdicts: Callable[[int, int, object], list[Verdict]]
    full: bool = False


def _divisible(d, m):
    return not vanishes_by_divisibility(d, m)


CHECKS = {
    "main": Check(_divisible, check_main),
    "zagier": Check(lambda d, m: d == 2, lambda d, m, v: [check_zagier(m, v)]),
    "ewing-schober": Check(lambda d, m: d == 2, lambda d, m, v: [check_ewing_schober(m, v)]),
    "levin": Check(lambda d, m: d == 2 and m % 2 == 1, lambda d, m, v: [check_levin(m, v)]),
    "yamashita": Check(lambda d, m: is_prime(d), lambda d, m, v: [check_yamashita(d, m, v)]),
    "vanishing": Check(
        lambda d, m: m >= 1 and vanishes_by_divisibility(d, m),
        lambda d, m, v: [check_vanishing(d, m, v)],
        full=True,
    ),
    "integrality": Check(_divisible, lambda d, m, v: [check_integrality(d, m, v)]),
    "dadic": Check(lambda d, m: True, lambda d, m, v: [check_dadic(d, m, v)]),
}
CHECK_NAMES = tuple(CHECKS)


def applicable(degrees, m_max: int, checks):
    """(name, d, m) for every requested check at every index where it applies."""
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(unknown)}")
    for d in degrees:
        require_int("degree d", d, 2)
    require_int("m_max", m_max, 0)
    for name in dict.fromkeys(checks):
        applies = CHECKS[name].applies
        for d in sorted(set(degrees)):
            for m in range(m_max + 1):
                if applies(d, m):
                    yield name, d, m


def suite_verdicts(degrees, m_max: int, checks, cached=None) -> list[Verdict]:
    """Every applicable verdict for the requested checks, sorted by
    (check, d, m, p) so that two runs diff cleanly.

    ``cached`` maps (d, m) to a value that is judged as given, except at
    the pairs of ``full`` checks: every check at such a pair reads the
    value computed anew.  Each degree is swept once, up to the largest
    index that the cache does not cover or that a full pair needs.
    """
    todo = list(applicable(degrees, m_max, checks))
    full = {(d, m) for name, d, m in todo if CHECKS[name].full}
    kept = {key: value for key, value in (cached or {}).items() if key not in full}
    tops = {}
    for _, d, m in todo:
        if (d, m) not in kept:
            tops[d] = max(tops.get(d, 0), m)
    values = {(d, m): value for d, top in sorted(tops.items())
              for m, value in enumerate(coeffs.coefficients_by_sweep(d, top))}
    values.update(kept)
    verdicts: list[Verdict] = []
    for name, d, m in todo:
        verdicts.extend(CHECKS[name].verdicts(d, m, values[d, m]))
    verdicts.sort(key=_sort_key)
    return verdicts


def _extended_str(x) -> str:
    if x is None:
        return "-"
    if x is NEG_INF:
        return "neg_inf"
    if x is POS_INF:
        return "inf"
    return str(x)


def _bool_str(x) -> str:
    if x is None:
        return "-"
    return "true" if x else "false"


def verdict_line(v: Verdict) -> str:
    return ",".join(
        (
            v.check,
            str(v.d),
            str(v.m),
            str(v.p) if v.p is not None else "-",
            _extended_str(v.bound),
            _extended_str(v.attained),
            _bool_str(v.equality_predicted),
            _bool_str(v.equality_observed),
            _bool_str(v.passed),
        )
    )


def format_report(verdicts) -> str:
    lines = [verdict_line(v) for v in sorted(verdicts, key=_sort_key)]
    return checksummed_text(REPORT_HEADER, lines)

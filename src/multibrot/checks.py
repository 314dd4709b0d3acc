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
* ``vanishing``: d >= 3 and (d-1) not dividing (m+1): the computed
  coefficient is exactly zero.
* ``integrality``: b * d^x is an integer for
  x = max_i ceil((nu_{p_i}(a!) + t_i*a) / t_i).
* ``dadic``: every prime factor of the denominator divides d.

All comparisons are exact; a zero coefficient attains -inf, which
satisfies every bound and never counts as equality against a finite one.

Every ``check_*`` function judges the one coefficient value it is
passed and computes none.  ``CHECKS`` is the one place that declares at
which (d, m) each check applies and whether it reads fully computed
coefficients; ``suite_verdicts`` lists its own (check, d, m) from it and
sweeps each degree once before any check runs, and every ``check_*``
function raises ``ValueError`` where it says the check does not apply
and at every (d, m) that indexes no coefficient.  A report lists the
verdicts in their own field order, in which (check, d, m, p) is unique.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .cache import checksummed_text
from .exact import (
    NEG_INF,
    POS_INF,
    divides_power,
    factorial_valuation,
    factorize,
    is_prime,
    padic_valuation,
    require_int,
)
from . import coeffs
from .coeffs import _divisible

REPORT_HEADER = "#multibrot-verdicts v1"


class Verdict(NamedTuple):
    """One check's judgement at one (d, m) and, for the per-prime
    checks, one prime p; immutable, as a tuple is."""

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
    equality_observed = None if equality_predicted is None else attained == bound
    passed = attained <= bound and equality_predicted == equality_observed
    return Verdict(check, d, m, p, bound, attained, equality_predicted, equality_observed,
                   passed)


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
    if not _divisible(p, m):
        return _bound_verdict("yamashita", p, m, p, NEG_INF, attained, equality_predicted=True)
    a = (m + 1) // (p - 1)
    bound = factorial_valuation(p * m + p, p) // (p - 1)
    forms_agree = bound == a + factorial_valuation(a, p)
    equality_predicted = m == p - 2 or m % p != 0
    verdict = _bound_verdict("yamashita", p, m, p, bound, attained, equality_predicted)
    if not forms_agree:
        verdict = verdict._replace(passed=False)
    return verdict


def check_vanishing(d: int, m: int, value) -> Verdict:
    """A computed coefficient, not a cached one, must be exactly zero.

    ``value`` must come from a full computation, such as the degree's
    sweep (which ``suite_verdicts`` runs for every ``full`` pair, whatever
    it was passed) or either per-index route; a cached value would make
    the check vacuous.
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
    if divides_power(den, d):
        attained = max(-(-padic_valuation(den, p) // t) for p, t in factors)
    else:
        attained = POS_INF
    return _bound_verdict("integrality", d, m, None, bound, attained)


def check_dadic(d: int, m: int, value) -> Verdict:
    """Every prime factor of the denominator divides d."""
    _require("dadic", d, m)
    passed = divides_power(value.denominator, d)
    return Verdict("dadic", d, m, None, None, None, None, None, passed)


class Check(NamedTuple):
    """Where a check applies, and its verdicts on the value at one (d, m).

    ``full`` checks need their coefficients computed, not read from a
    cache, so ``suite_verdicts`` computes those pairs in full.
    """

    applies: Callable[[int, int], bool]
    verdicts: Callable[[int, int, object], list[Verdict]]
    full: bool = False


CHECKS = {
    "main": Check(_divisible, check_main),
    "zagier": Check(lambda d, m: d == 2, lambda d, m, v: [check_zagier(m, v)]),
    "ewing-schober": Check(lambda d, m: d == 2, lambda d, m, v: [check_ewing_schober(m, v)]),
    "levin": Check(lambda d, m: d == 2 and m % 2 == 1, lambda d, m, v: [check_levin(m, v)]),
    "yamashita": Check(lambda d, m: is_prime(d), lambda d, m, v: [check_yamashita(d, m, v)]),
    "vanishing": Check(
        lambda d, m: m >= 1 and not _divisible(d, m),
        lambda d, m, v: [check_vanishing(d, m, v)],
        full=True,
    ),
    "integrality": Check(_divisible, lambda d, m, v: [check_integrality(d, m, v)]),
    "dadic": Check(lambda d, m: True, lambda d, m, v: [check_dadic(d, m, v)]),
}
CHECK_NAMES = tuple(CHECKS)


def suite_verdicts(degrees, m_max: int, checks, cached=None) -> list[Verdict]:
    """Every applicable verdict for the requested checks, sorted by
    (check, d, m, p) so that two runs diff cleanly: the suite lists its
    own (check, d, m) where ``CHECKS[check].applies``, each once and in
    ascending order, and ``check_main`` judges d's primes in the
    ascending order ``factorize`` lists them.

    ``cached`` maps (d, m) to a value that is judged as given, except at
    the pairs of ``full`` checks: every check at such a pair reads the
    value computed anew.  Each degree is swept once, up to the largest
    index that the cache does not cover or that a full pair needs.
    """
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(unknown)}")
    for d in degrees:
        require_int("degree d", d, 2)
    require_int("m_max", m_max, 0)
    todo = [(name, d, m) for name in sorted(set(checks)) for d in sorted(set(degrees))
            for m in range(m_max + 1) if CHECKS[name].applies(d, m)]
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
    return verdicts


# The report text of the values that ``str`` does not spell.  The tables
# stay apart: as a key, True equals 1 and False equals 0.
_NUMBER_TEXT = {None: "-", NEG_INF: "neg_inf", POS_INF: "inf"}
_FLAG_TEXT = {None: "-", True: "true", False: "false"}


def verdict_line(v: Verdict) -> str:
    check, d, m, p, bound, attained, predicted, observed, passed = v
    number = _NUMBER_TEXT.get
    return ",".join((check, str(d), str(m), number(p) or str(p),
                     number(bound) or str(bound), number(attained) or str(attained),
                     _FLAG_TEXT[predicted], _FLAG_TEXT[observed], _FLAG_TEXT[passed]))


def format_report(verdicts) -> str:
    """The checksummed report, one line per verdict in the Verdict's own
    field order.  (check, d, m, p) is unique per verdict the library
    makes, and each check sets p always or never, so the sort compares
    no later field and no None with an int."""
    lines = [verdict_line(v) for v in sorted(verdicts)]
    return checksummed_text(REPORT_HEADER, lines)

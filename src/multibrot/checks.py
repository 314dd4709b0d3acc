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
  this check are expected and are a finding, not a bug.  The floor form
  exceeds the additive one by exactly floor(c/(p-1)), where
  c = nu_p(((p-1)a)!/(a!)^(p-1)) (Legendre's formula; README Findings).
* ``vanishing``: d >= 3 and (d-1) not dividing (m+1): the computed
  coefficient is exactly zero.
* ``integrality``: b * d^x is an integer for
  x = max_i ceil((nu_{p_i}(a!) + t_i*a) / t_i).
* ``dadic``: every prime factor of the denominator divides d.

All comparisons are exact; a zero coefficient attains -inf, which
satisfies every bound and never counts as equality against a finite one.

``CHECKS`` is the one place that declares at which (d, m) each check
applies, whether it reads fully computed coefficients, and its judge:
the one spelling of its bound, which runs no guard.  Each public
``check_*`` function reaches its judge only through ``CHECKS``, by
``_judged``: it raises ``ValueError`` where ``CHECKS`` says the check
does not apply and at every (d, m) that indexes no coefficient, then
judges the one value it is passed and computes none.  ``suite_verdicts``
checks its own arguments once, lists each check's (d, m) from
``CHECKS``, sweeps each degree once and calls the judges unguarded; the
judges at one (d, m) share a memo, so each -nu_p(b_m) goes once through
``exact.padic_valuation``.  A report lists the verdicts in their own
field order, in which (check, d, m, p) is unique.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from .cache import checksummed_text
from .exact import (
    NEG_INF,
    POS_INF,
    _legendre,
    _trial_division,
    divides_power,
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


# ``tuple.__new__(Verdict, fields)`` is what ``Verdict._make`` does, without
# the Python-level frame of the namedtuple's own ``__new__``: the judges
# build every verdict through it.
_verdict = tuple.__new__


def _exponent(exps, value, p):
    """-nu_p(value), read from or written to ``exps``, the memo of one
    (d, m): every judge at the pair shares it, so each prime is valued once."""
    if p not in exps:
        v = padic_valuation(value, p)
        exps[p] = NEG_INF if v is POS_INF else -v
    return exps[p]


def _bound_verdict(check, d, m, p, bound, attained, equality_predicted=None):
    equality_observed = None if equality_predicted is None else attained == bound
    passed = attained <= bound and equality_predicted == equality_observed
    return _verdict(Verdict, (check, d, m, p, bound, attained, equality_predicted,
                              equality_observed, passed))


def _judged(name, d, m, value):
    """Check ``name``'s verdicts on ``value``, by its judge in ``CHECKS``."""
    require_int("degree d", d, 2)
    require_int("index m", m, 0)
    check = CHECKS[name]
    if not check.applies(d, m):
        raise ValueError(f"check {name!r} does not apply at d={d}, m={m}")
    return check.verdicts(d, m, value, {})


# The judges: one per check, each the one spelling of its bound.  They
# run no guard, so they are called only where ``CHECKS`` says the check
# applies; ``exps`` is the pair's valuation memo (see ``_exponent``).

def _main(d, m, value, exps):
    a = (m + 1) // (d - 1)
    return [_bound_verdict("main", d, m, p, _legendre(a, p) + t * a, _exponent(exps, value, p),
                           m == d - 2 or m % p != 0)
            for p, t in _trial_division(d)]


def _zagier(d, m, value, exps):
    return [_bound_verdict("zagier", 2, m, 2, _legendre(2 * m + 2, 2), _exponent(exps, value, 2),
                           m == 0 or m % 2 == 1)]


def _ewing_schober(d, m, value, exps):
    return [_bound_verdict("ewing-schober", 2, m, 2, 2 * m + 1, _exponent(exps, value, 2))]


def _levin(d, m, value, exps):
    return [_bound_verdict("levin", 2, m, 2, _legendre(2 * m + 2, 2), _exponent(exps, value, 2),
                           equality_predicted=True)]


def _yamashita(p, m, value, exps):
    attained = _exponent(exps, value, p)
    if not _divisible(p, m):
        return [_bound_verdict("yamashita", p, m, p, NEG_INF, attained, equality_predicted=True)]
    a = (m + 1) // (p - 1)
    bound = _legendre(p * m + p, p) // (p - 1)
    verdict = _bound_verdict("yamashita", p, m, p, bound, attained, m == p - 2 or m % p != 0)
    if bound != a + _legendre(a, p):  # the floor and additive forms disagree
        verdict = verdict._replace(passed=False)
    return [verdict]


def _vanishing(d, m, value, exps):
    attained = _exponent(exps, value, _trial_division(d)[0][0])
    return [_bound_verdict("vanishing", d, m, None, NEG_INF, attained, equality_predicted=True)]


def _integrality(d, m, value, exps):
    a = (m + 1) // (d - 1)
    factors = _trial_division(d)
    bound = max(-(-(_legendre(a, p) + t * a) // t) for p, t in factors)
    # smallest e >= 0 with value * d^e integral; +inf if no power of d
    # clears it.  nu_p(den) = max(0, -nu_p(value)): in lowest terms p
    # divides the numerator or the denominator, not both.
    if divides_power(value.denominator, d):
        attained = max(-(-max(0, _exponent(exps, value, p)) // t) for p, t in factors)
    else:
        attained = POS_INF
    return [_bound_verdict("integrality", d, m, None, bound, attained)]


def _dadic(d, m, value, exps):
    return [_verdict(Verdict, ("dadic", d, m, None, None, None, None, None,
                               divides_power(value.denominator, d)))]


def check_main(d: int, m: int, value) -> list[Verdict]:
    """One verdict per prime factor of d; requires (d-1) | (m+1)."""
    return _judged("main", d, m, value)


def check_zagier(m: int, value) -> Verdict:
    return _judged("zagier", 2, m, value)[0]


def check_ewing_schober(m: int, value) -> Verdict:
    return _judged("ewing-schober", 2, m, value)[0]


def check_levin(m: int, value) -> Verdict:
    return _judged("levin", 2, m, value)[0]


def check_yamashita(p: int, m: int, value) -> Verdict:
    """Prime-degree bound in floor form, checked against the additive form."""
    return _judged("yamashita", p, m, value)[0]


def check_vanishing(d: int, m: int, value) -> Verdict:
    """A computed coefficient, not a cached one, must be exactly zero.

    ``value`` must come from a full computation, such as the degree's
    sweep (which ``suite_verdicts`` runs for every ``full`` pair, whatever
    it was passed) or either per-index route; a cached value would make
    the check vacuous.
    """
    return _judged("vanishing", d, m, value)[0]


def check_integrality(d: int, m: int, value) -> Verdict:
    """value * d^x integral for the ceiling exponent x derived from the main bound."""
    return _judged("integrality", d, m, value)[0]


def check_dadic(d: int, m: int, value) -> Verdict:
    """Every prime factor of the denominator divides d."""
    return _judged("dadic", d, m, value)[0]


class Check(NamedTuple):
    """Where a check applies, and its judge: the verdicts on the value at
    one (d, m), given that pair's valuation memo.  The public ``check_*``
    functions and ``suite_verdicts`` both reach the judge through here.

    ``full`` checks need their coefficients computed, not read from a
    cache, so ``suite_verdicts`` computes those pairs in full.
    """

    applies: Callable[[int, int], bool]
    verdicts: Callable[[int, int, object, dict], list[Verdict]]
    full: bool = False


CHECKS = {
    "main": Check(_divisible, _main),
    "zagier": Check(lambda d, m: d == 2, _zagier),
    "ewing-schober": Check(lambda d, m: d == 2, _ewing_schober),
    "levin": Check(lambda d, m: d == 2 and m % 2 == 1, _levin),
    "yamashita": Check(lambda d, m: is_prime(d), _yamashita),
    "vanishing": Check(lambda d, m: m >= 1 and not _divisible(d, m), _vanishing, full=True),
    "integrality": Check(_divisible, _integrality),
    "dadic": Check(lambda d, m: True, _dadic),
}
CHECK_NAMES = tuple(CHECKS)


def suite_verdicts(degrees, m_max: int, checks, cached=None) -> list[Verdict]:
    """Every applicable verdict for the requested checks, sorted by
    (check, d, m, p) so that two runs diff cleanly: the suite walks each
    degree once, in ascending order, lists each check's m there where
    ``CHECKS[check].applies``, each once and in ascending order, and
    ``check_main``'s judge takes d's primes in the ascending order
    ``_trial_division`` lists them; so each check's verdicts come sorted, and
    the checks are joined in name order, with no sort.

    ``cached`` maps (d, m) to a value that is judged as given, except at
    the pairs of ``full`` checks: every check at such a pair reads the
    value computed anew.  Only the judged pairs are looked up.  Each
    degree is swept once, up to the largest judged index that the cache
    does not cover or that a full pair needs.
    """
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ValueError(f"unknown check names: {', '.join(unknown)}")
    for d in degrees:
        require_int("degree d", d, 2)
    require_int("m_max", m_max, 0)
    rows = [CHECKS[name] for name in sorted(set(checks))]
    cached = cached or {}
    parts = [[] for _ in rows]  # each check's verdicts, in (d, m, p) order
    for d in sorted(set(degrees)):
        lists = [[m for m in range(m_max + 1) if check.applies(d, m)] for check in rows]
        judged = set().union(*lists)
        fresh = {m for check, ms in zip(rows, lists) if check.full for m in ms}
        kept = {m: cached[d, m] for m in judged - fresh if (d, m) in cached}
        top = max(judged.difference(kept), default=-1)
        values = dict(enumerate(coeffs.coefficients_by_sweep(d, top))) if top >= 0 else {}
        values.update(kept)
        memo = {m: {} for m in judged}
        for check, ms, part in zip(rows, lists, parts):
            judge = check.verdicts
            for m in ms:
                part += judge(d, m, values[m], memo[m])
    return [v for part in parts for v in part]


# The report text of the values that ``str`` does not spell.  The tables
# stay apart: as a key, True equals 1 and False equals 0.
_NUMBER_TEXT = {None: "-", NEG_INF: "neg_inf", POS_INF: "inf"}
_FLAG_TEXT = {None: "-", True: "true", False: "false"}


def verdict_line(v: Verdict) -> str:
    check, d, m, p, bound, attained, predicted, observed, passed = v
    number = _NUMBER_TEXT.get
    return (f"{check},{d},{m},{number(p, p)},{number(bound, bound)},"
            f"{number(attained, attained)},{_FLAG_TEXT[predicted]},"
            f"{_FLAG_TEXT[observed]},{_FLAG_TEXT[passed]}")


def format_report(verdicts) -> str:
    """The checksummed report, one line per verdict in the Verdict's own
    field order.  (check, d, m, p) is unique per verdict the library
    makes, and each check sets p always or never, so the sort compares
    no later field and no None with an int."""
    lines = [verdict_line(v) for v in sorted(verdicts)]
    return checksummed_text(REPORT_HEADER, lines)

"""Persistent coefficient tables.

Text format, one record per line, bit-exact round-trip:

    #multibrot-coeffs v1
    d,m,numerator,denominator
    ...
    #sha256:<hex>

A record matches one pattern: four comma-separated integers, each
spelled as ``str`` spells an int (``0|-?[1-9][0-9]*``: ASCII digits, no
plus sign, leading zeros, underscores or spaces); loading rejects any
other spelling with ``fields not in canonical form``.  The degree is at
most ``exact.MAX_DEGREE``, the denominator is positive and the fraction
in lowest terms, lines are sorted by (d, m), and the trailing checksum
is the SHA-256 of the payload lines (each with its newline).  Loading
rejects any line whose denominator has a prime factor not dividing d:
every genuine coefficient is a d-adic rational, so such a line can only
be corruption.

Numerators and denominators grow past Python's int<->str digit cap
(4300 digits by default) for large m, so the cap is lifted around the
conversions and put back when the last concurrent holder is done.
"""

from __future__ import annotations

import hashlib
import re
import sys
import threading
from contextlib import contextmanager

from .exact import MAX_DEGREE, divides_power, rational

HEADER = "#multibrot-coeffs v1"
_CHECKSUM_PREFIX = "#sha256:"
# Any run of canonical records, each with its newline: matched against a
# whole payload, it ends where the first non-canonical line starts.
_RECORDS = re.compile("(?:%s\n)*" % ",".join(["(?:0|-?[1-9][0-9]*)"] * 4))


class CacheFormatError(ValueError):
    """Malformed coefficient table; message carries the offending line number."""


class CacheChecksumError(CacheFormatError):
    """Payload does not match the table's recorded checksum."""


_digit_cap_lock = threading.Lock()
_digit_cap_holders = 0
_digit_cap_saved = None


@contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit cap inside the block (or the decorated
    call), then restore it.  A no-op on interpreters without the cap.

    The cap is interpreter-wide, so holders are counted: the first to
    enter saves the cap and the last to leave restores it, however the
    blocks of concurrent holders interleave."""
    global _digit_cap_holders, _digit_cap_saved
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    with _digit_cap_lock:
        if _digit_cap_holders == 0:
            _digit_cap_saved = sys.get_int_max_str_digits()
            sys.set_int_max_str_digits(0)
        _digit_cap_holders += 1
    try:
        yield
    finally:
        with _digit_cap_lock:
            _digit_cap_holders -= 1
            if _digit_cap_holders == 0:
                sys.set_int_max_str_digits(_digit_cap_saved)


def _payload_digest(body: str) -> str:
    """SHA-256 hex of the payload: its lines, each followed by its newline."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def checksummed_text(header: str, lines) -> str:
    """The header, the payload lines and the ``#sha256:`` footer over them:
    the layout shared by coefficient tables and verification reports."""
    body = "\n".join([*lines, ""])
    return f"{header}\n{body}{_CHECKSUM_PREFIX}{_payload_digest(body)}\n"


@unlimited_int_digits()
def format_table(rows) -> str:
    """Render (d, m, value) triples as the full table text (header,
    payload, checksum), in the order given.  Raises ``ValueError`` unless
    (d, m) strictly increases from row to row, as one sweep per degree
    yields them."""
    lines = []
    previous = None
    for d, m, value in rows:
        if previous is not None and (d, m) <= previous:
            raise ValueError(f"rows not strictly increasing in (d, m) at d={d}, m={m}")
        previous = (d, m)
        lines.append(f"{d},{m},{value.numerator},{value.denominator}")
    return checksummed_text(HEADER, lines)


@unlimited_int_digits()
def parse_table(text: str) -> list[tuple[int, int, object]]:
    """Parse table text into (d, m, value) triples, validating the format."""
    if text.strip() == "":
        return []
    lines = text.splitlines()
    if lines[0] != HEADER:
        raise CacheFormatError(f"line 1: expected header {HEADER!r}")
    if len(lines) < 2 or not lines[-1].startswith(_CHECKSUM_PREFIX):
        raise CacheFormatError(f"line {len(lines)}: missing trailing {_CHECKSUM_PREFIX}<hex> line")
    body = "\n".join([*lines[1:-1], ""])

    computed = _payload_digest(body)
    recorded = lines[-1][len(_CHECKSUM_PREFIX):].strip()
    if recorded != computed:
        raise CacheChecksumError(
            f"line {len(lines)}: checksum mismatch "
            f"(recorded {recorded[:12]}..., computed {computed[:12]}...)"
        )

    canonical = _RECORDS.match(body).end()
    # the canonical records' fields in file order, taken four at a time
    fields = map(int, body[:canonical].replace(",", " ").split())
    triples = []
    previous_key = None
    for offset, (d, m, num, den) in enumerate(zip(fields, fields, fields, fields), start=2):
        if not 2 <= d <= MAX_DEGREE or m < 0:
            raise CacheFormatError(f"line {offset}: invalid indices d={d}, m={m}")
        if den <= 0:
            raise CacheFormatError(f"line {offset}: denominator must be positive")
        value = rational(num, den)
        if value.denominator != den:
            raise CacheFormatError(f"line {offset}: {num}/{den} is not in lowest terms")
        if not divides_power(den, d):
            raise CacheFormatError(
                f"line {offset}: denominator {den} has a prime factor not dividing d={d}"
            )
        key = (d, m)
        if previous_key is not None and key <= previous_key:
            raise CacheFormatError(f"line {offset}: records not sorted by (d, m)")
        previous_key = key
        triples.append((d, m, value))
    if canonical < len(body):
        # every record before the first non-canonical line has been judged
        raise CacheFormatError(f"line {len(triples) + 2}: fields not in canonical form")
    return triples


def load_coefficients(path) -> list[tuple[int, int, object]]:
    """Load a table from path; an empty file yields an empty table and
    bytes that are not UTF-8 a ``CacheFormatError``."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CacheFormatError(f"byte {exc.start}: not UTF-8 text") from None
    return parse_table(text)

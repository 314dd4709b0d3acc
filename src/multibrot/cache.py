"""Persistent coefficient tables.

Text format, one record per line, bit-exact round-trip:

    #multibrot-coeffs v1
    d,m,numerator,denominator
    ...
    #sha256:<hex>

Integers are base 10, the denominator is positive and the fraction is in
lowest terms, lines are sorted by (d, m), and the trailing checksum is
the SHA-256 of the payload lines (each with its newline).  Loading
rejects any line whose denominator has a prime factor not dividing d:
every genuine coefficient is a d-adic rational, so such a line can only
be corruption.

Numerators and denominators grow past Python's int<->str digit cap
(4300 digits by default) for large m, so the cap is lifted around the
conversions and put back afterwards.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import contextmanager
from math import gcd

from .exact import is_d_adic, rational

HEADER = "#multibrot-coeffs v1"
_CHECKSUM_PREFIX = "#sha256:"


class CacheFormatError(ValueError):
    """Malformed coefficient table; message carries the offending line number."""


class CacheChecksumError(CacheFormatError):
    """Payload does not match the table's recorded checksum."""


@contextmanager
def unlimited_int_digits():
    """Lift the int<->str digit cap inside the block (or the decorated
    call), then restore it.  A no-op on interpreters without the cap."""
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is None:
        yield
        return
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _payload_digest(lines) -> str:
    """SHA-256 hex of the payload lines, each followed by its newline."""
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode("utf-8") + b"\n")
    return digest.hexdigest()


def checksummed_text(header: str, lines) -> str:
    """The header, the payload lines and the ``#sha256:`` footer over them:
    the layout shared by coefficient tables and verification reports."""
    return "\n".join([header, *lines, _CHECKSUM_PREFIX + _payload_digest(lines)]) + "\n"


def coefficient_line(d: int, m: int, value) -> str:
    value = rational(value)
    return f"{d},{m},{value.numerator},{value.denominator}"


def _as_triple(record):
    if hasattr(record, "d"):
        return (record.d, record.m, record.value)
    d, m, value = record
    return (d, m, value)


@unlimited_int_digits()
def format_table(records) -> str:
    """Render records as the full table text (header, payload, checksum)."""
    triples = sorted((_as_triple(r) for r in records), key=lambda t: (t[0], t[1]))
    for (d1, m1, v1), (d2, m2, v2) in zip(triples, triples[1:]):
        if (d1, m1) == (d2, m2) and v1 != v2:
            raise ValueError(f"conflicting values for (d={d1}, m={m1})")
    seen = set()
    lines = []
    for d, m, value in triples:
        if (d, m) in seen:
            continue
        seen.add((d, m))
        lines.append(coefficient_line(d, m, value))
    return checksummed_text(HEADER, lines)


def store_coefficients(path, records) -> None:
    """Write records to path in the canonical table format."""
    text = format_table(records)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


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
    payload = lines[1:-1]

    computed = _payload_digest(payload)
    recorded = lines[-1][len(_CHECKSUM_PREFIX):].strip()
    if recorded != computed:
        raise CacheChecksumError(
            f"line {len(lines)}: checksum mismatch "
            f"(recorded {recorded[:12]}..., computed {computed[:12]}...)"
        )

    triples = []
    previous_key = None
    for offset, line in enumerate(payload, start=2):
        fields = line.split(",")
        if len(fields) != 4:
            raise CacheFormatError(f"line {offset}: expected 4 comma-separated fields")
        try:
            d, m, num, den = (int(f) for f in fields)
        except ValueError:
            raise CacheFormatError(f"line {offset}: non-integer field") from None
        if d < 2 or m < 0:
            raise CacheFormatError(f"line {offset}: invalid indices d={d}, m={m}")
        if den <= 0:
            raise CacheFormatError(f"line {offset}: denominator must be positive")
        if gcd(abs(num), den) != 1:
            raise CacheFormatError(f"line {offset}: {num}/{den} is not in lowest terms")
        if not is_d_adic(den, d):
            raise CacheFormatError(
                f"line {offset}: denominator {den} has a prime factor not dividing d={d}"
            )
        key = (d, m)
        if previous_key is not None and key <= previous_key:
            raise CacheFormatError(f"line {offset}: records not sorted by (d, m)")
        previous_key = key
        triples.append((d, m, rational(num, den)))
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

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

Loading decides d-adicity first.  A d-adic denominator has no prime
outside ``gcd(den, d)``, so the fraction is in lowest terms exactly when
``gcd(num, gcd(den, d)) == 1``, a test linear in the fields' size; any
other denominator takes the full ``gcd(num, den)``, so that a line both
reducible and not d-adic is reported as not in lowest terms.  Every
record is validated, but a caller may select rows by degree and largest
index, and only the selected rows are built into rationals.

Loading reads the records in three steps.  One regular expression,
``_RECORDS``, the only statement of the record grammar, matches the run
of canonical records from the start of the payload.  Every field of that
run is then decoded by one C-level call: a canonical field is also a
JSON number, so the run with its newlines turned into commas is one
JSON array for ``json.loads``.  Where that call refuses a field past the
digit cap, the fields are converted one by one with ``text_to_int``.

Numerators and denominators grow past Python's int<->str digit cap
(4300 digits by default) for large m; ``int_to_text`` and
``text_to_int`` convert past it, and nothing here changes the cap.
"""

from __future__ import annotations

import codecs
import hashlib
import json
import re
from math import gcd

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


def int_to_text(n: int) -> str:
    """``str(n)`` at any length: where the interpreter's int<->str digit
    cap refuses, the decimal halves of ``n`` are converted apart."""
    try:
        return str(n)
    except ValueError:
        half = n.bit_length() * 3 // 20  # about half of n's decimal digits
        high, low = divmod(abs(n), 10**half)
        return "-" * (n < 0) + int_to_text(high) + int_to_text(low).zfill(half)


def text_to_int(text: str) -> int:
    """``int(text)`` at any length of a spelling ``-?[0-9]+``: where the
    digit cap refuses (never at 640 characters or fewer, the least cap there
    is), the halves of the digits are converted apart.  Text that ``int``
    refuses for another reason raises its ``ValueError``."""
    try:
        return int(text)
    except ValueError:
        digits = text.removeprefix("-")
        if not digits.isdecimal():
            raise
    half = len(digits) // 2
    value = text_to_int(digits[:-half]) * 10**half + text_to_int(digits[-half:])
    return -value if text.startswith("-") else value


def _payload_digest(body: str) -> str:
    """SHA-256 hex of the payload: its lines, each followed by its newline."""
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def checksummed_text(header: str, lines) -> str:
    """The header, the payload lines and the ``#sha256:`` footer over them:
    the layout shared by coefficient tables and verification reports."""
    body = "\n".join([*lines, ""])
    return f"{header}\n{body}{_CHECKSUM_PREFIX}{_payload_digest(body)}\n"


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
        try:
            lines.append(f"{d},{m},{value.numerator},{value.denominator}")
        except ValueError:  # a field past the digit cap
            lines.append(",".join(map(int_to_text, (d, m, value.numerator, value.denominator))))
    return checksummed_text(HEADER, lines)


def parse_table(text: str, degrees=None, m_max=None) -> list[tuple[int, int, object]]:
    """Parse table text into (d, m, value) triples, validating the format.

    Every record is validated; with ``degrees`` (a collection of ints)
    only the rows of those degrees are returned, and with ``m_max`` only
    the rows with m <= m_max."""
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
    records = body[:canonical]
    try:
        fields = iter(json.loads("[" + records.replace("\n", ",")[:-1] + "]"))
    except ValueError:  # a field past the digit cap
        fields = map(text_to_int, records.replace(",", " ").split())
    triples = []
    previous_key = None
    for offset, (d, m, num, den) in enumerate(zip(fields, fields, fields, fields), start=2):
        if not 2 <= d <= MAX_DEGREE or m < 0:
            raise CacheFormatError(f"line {offset}: invalid indices "
                                   f"d={int_to_text(d)}, m={int_to_text(m)}")
        if den <= 0:
            raise CacheFormatError(f"line {offset}: denominator must be positive")
        d_adic = divides_power(den, d)
        if gcd(num, gcd(den, d) if d_adic else den) != 1:
            raise CacheFormatError(f"line {offset}: {int_to_text(num)}/"
                                   f"{int_to_text(den)} is not in lowest terms")
        if not d_adic:
            raise CacheFormatError(f"line {offset}: denominator {int_to_text(den)} has a "
                                   f"prime factor not dividing d={d}")
        key = (d, m)
        if previous_key is not None and key <= previous_key:
            raise CacheFormatError(f"line {offset}: records not sorted by (d, m)")
        previous_key = key
        if (degrees is None or d in degrees) and (m_max is None or m <= m_max):
            triples.append((d, m, rational(num, den)))
    if canonical < len(body):
        # every record before the first non-canonical line has been judged;
        # each ends with a newline, selected or not
        line = body.count("\n", 0, canonical) + 2
        raise CacheFormatError(f"line {line}: fields not in canonical form")
    return triples


def load_coefficients(path, degrees=None, m_max=None) -> list[tuple[int, int, object]]:
    """Load a table from path, selecting rows as ``parse_table`` does; an
    empty or blank file yields an empty table and bytes that are not
    UTF-8 a ``CacheFormatError`` naming the offset of the first.

    The file is read past its first ``len(HEADER) + 1`` bytes only when
    they begin with the header or are blank: any other start is passed to
    ``parse_table`` alone, which rejects it at line 1, so that a device
    such as ``/dev/zero`` ends in that error instead of an endless read."""
    with open(path, "rb") as fh:
        data = fh.read(len(HEADER) + 1)
        text = _utf8(data, final=len(data) <= len(HEADER))
        if text.startswith(HEADER) or text.isspace():
            text = _utf8(data + fh.read())
    return parse_table(text, degrees, m_max)


def _utf8(data: bytes, final: bool = True) -> str:
    """``data`` decoded as UTF-8, leaving out a character cut off at its
    end unless ``final``; an invalid byte raises ``CacheFormatError``."""
    try:
        return codecs.getincrementaldecoder("utf-8")().decode(data, final)
    except UnicodeDecodeError as exc:
        raise CacheFormatError(f"byte {exc.start}: not UTF-8 text") from None

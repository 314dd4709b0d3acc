import hashlib
import random
import re
import sys
import threading
from math import gcd

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from multibrot import cache
from multibrot.cache import (
    HEADER,
    CacheChecksumError,
    CacheFormatError,
    checksummed_text,
    text_to_int,
    format_table,
    int_to_text,
    load_coefficients,
    parse_table,
)
from multibrot.exact import MAX_DEGREE, rational


def _with_payload(lines):
    digest = hashlib.sha256()
    for line in lines:
        digest.update(line.encode() + b"\n")
    return "\n".join([HEADER, *lines, "#sha256:" + digest.hexdigest()]) + "\n"


def test_round_trip_single_record(tmp_path):
    path = tmp_path / "coeffs.csv"
    rows = [(2, 0, rational(-1, 2))]
    path.write_text(format_table(rows))
    assert load_coefficients(path) == rows


def test_round_trip_many_records_bit_exact(tmp_path):
    path = tmp_path / "coeffs.csv"
    rows = [
        (2, 0, rational(-1, 2)),
        (2, 1, rational(1, 8)),
        (2, 4, rational(0)),
        (2, 99, rational(3**40, 2**200)),
        (6, 4, rational(-7, 36)),
    ]
    path.write_text(format_table(rows))
    loaded = load_coefficients(path)
    assert loaded == rows
    # storing what was loaded reproduces the file byte for byte
    text_once = path.read_bytes()
    path.write_text(format_table(loaded))
    assert path.read_bytes() == text_once


def test_unordered_rows_rejected_on_store():
    # rows are written as given, so a later (d, m) before an earlier one is an error
    for rows in ([(3, 1, rational(-1, 3)), (2, 5, rational(-47, 1024))],
                 [(2, 5, rational(-47, 1024)), (2, 1, rational(1, 8))]):
        with pytest.raises(ValueError, match="^rows not strictly increasing in"):
            format_table(rows)


def test_empty_file_is_empty_table(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    assert load_coefficients(path) == []


@pytest.mark.parametrize("body", [b" \n" * 100, "\u3000".encode() * 100], ids=["ascii", "ideographic"])
def test_blank_file_is_empty_table(tmp_path, body):
    # blank past the first bytes too: read to the end, as any blank file
    path = tmp_path / "blank.csv"
    path.write_bytes(body)
    assert load_coefficients(path) == []


def test_blank_start_then_text_is_no_table(tmp_path):
    path = tmp_path / "late.csv"
    path.write_bytes(b" " * 100 + format_table([]).encode())
    with pytest.raises(CacheFormatError, match=f"^line 1: expected header {re.escape(repr(HEADER))}$"):
        load_coefficients(path)


def test_crlf_table_loads_as_its_lf_text(tmp_path):
    text = format_table([(2, 0, rational(-1, 2)), (2, 1, rational(1, 8))])
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert load_coefficients(path) == parse_table(text)


class EndlessFile:
    """A file of endless bytes, as ``/dev/zero`` is; reading it to its end
    fails the test instead of exhausting memory."""

    def __init__(self, byte):
        self.byte = byte

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self, size=-1):
        assert size >= 0, "read to the end of an endless file"
        return self.byte * size


@pytest.mark.parametrize("byte", [b"\0", b"x"])
def test_non_table_is_read_no_further_than_its_first_bytes(monkeypatch, byte):
    monkeypatch.setattr(cache, "open", lambda path, mode: EndlessFile(byte), raising=False)
    with pytest.raises(CacheFormatError,
                       match=f"^line 1: expected header {re.escape(repr(HEADER))}$"):
        load_coefficients("endless")


def test_character_cut_at_the_first_bytes_is_not_a_decoding_error(tmp_path):
    # the first bytes may end inside a character that the rest completes
    path = tmp_path / "cut.csv"
    path.write_bytes(b"x" * len(HEADER) + "\u00e9\n".encode() * 10)
    with pytest.raises(CacheFormatError, match="^line 1: expected header"):
        load_coefficients(path)


def test_invalid_byte_is_named_by_its_offset_in_the_file(tmp_path):
    text = format_table([(2, 0, rational(-1, 2)), (2, 1, rational(1, 8))]).encode()
    path = tmp_path / "bad.csv"
    path.write_bytes(text[:40] + b"\xff" + text[40:])
    with pytest.raises(CacheFormatError, match="^byte 40: not UTF-8 text$"):
        load_coefficients(path)


def test_header_and_checksum_only_is_empty_table():
    assert parse_table(format_table([])) == []


def test_missing_header_rejected():
    with pytest.raises(CacheFormatError, match="line 1"):
        parse_table("2,0,-1,2\n")


def test_malformed_line_reports_line_number():
    # checksum recomputed so the malformed field itself is what gets reported
    text = _with_payload(["2,0,-1,2", "2,1,not-a-number,8"])
    with pytest.raises(CacheFormatError, match="line 3"):
        parse_table(text)


def test_wrong_field_count_rejected():
    with pytest.raises(CacheFormatError, match="line 2"):
        parse_table(_with_payload(["2,0,-1"]))


def test_checksum_mismatch_rejected():
    good = format_table([(2, 0, rational(-1, 2))])
    tampered = good.replace("2,0,-1,2", "2,0,-3,2")
    with pytest.raises(CacheChecksumError):
        parse_table(tampered)


def test_missing_checksum_line_rejected():
    good = format_table([(2, 0, rational(-1, 2))])
    truncated = "\n".join(good.splitlines()[:-1]) + "\n"
    with pytest.raises(CacheFormatError, match="sha256"):
        parse_table(truncated)


def test_non_lowest_terms_rejected():
    with pytest.raises(CacheFormatError, match="lowest terms"):
        parse_table(_with_payload(["2,1,2,16"]))
    # zero is lowest only over 1; a negative numerator shares factors too
    for num, den in ((0, 3), (-2, 4)):
        with pytest.raises(CacheFormatError,
                           match=f"^line 3: {num}/{den} is not in lowest terms$"):
            parse_table(_with_payload(["2,0,-1,2", f"2,1,{num},{den}"]))


@pytest.mark.parametrize("line", [
    "2,1,+1,8",   # explicit plus sign
    "2,1,1,0_8",  # underscore between digits
    "2,01,1,8",   # leading zero
    "2, 1,1,8",   # space inside a field
    "2,1,\u0663,8",  # Arabic-Indic digit three
])
def test_non_canonical_spelling_rejected(line):
    # int() accepts each of these, so each parses to a value, but the
    # table spells every value one way only
    with pytest.raises(CacheFormatError, match="^line 3: fields not in canonical form$"):
        parse_table(_with_payload(["2,0,-1,2", line]))


def test_non_positive_denominator_rejected():
    with pytest.raises(CacheFormatError, match="positive"):
        parse_table(_with_payload(["2,1,1,-8"]))


def test_foreign_prime_in_denominator_rejected():
    # a 3 in the denominator cannot occur for degree 2
    with pytest.raises(CacheFormatError, match="prime factor"):
        parse_table(_with_payload(["2,1,1,3"]))


def test_degree_out_of_reach_rejected():
    # factoring 2^61 - 1 by trial division for the d-adic test takes minutes
    with pytest.raises(CacheFormatError, match="line 2: invalid indices"):
        parse_table(_with_payload([f"{2**61 - 1},1,0,1"]))


def test_composite_degree_denominator_accepted():
    # 36 = 2^2 * 3^2 divides a power of 6
    rows = parse_table(_with_payload(["6,4,-7,36"]))
    assert rows == [(6, 4, rational(-7, 36))]


@pytest.mark.parametrize("line", ["6,1,9,4", "6,1,-25,1", "6,1,0,1"])
def test_composite_degree_coprime_numerators_accepted(line):
    # the numerator shares no prime with gcd(den, 6), here 2 or 1
    d, m, num, den = map(int, line.split(","))
    assert parse_table(_with_payload([line])) == [(d, m, rational(num, den))]


@pytest.mark.parametrize("line, fraction", [
    ("6,1,2,4", "2/4"),    # shares 2 with a 2-power denominator
    ("6,1,3,9", "3/9"),    # shares 3 with a 3-power denominator
    ("6,1,2,10", "2/10"),  # reducible and not 6-adic: lowest terms is reported
    ("6,1,0,6", "0/6"),
])
def test_composite_degree_reducible_fractions_rejected(line, fraction):
    with pytest.raises(CacheFormatError, match=f"^line 2: {fraction} is not in lowest terms$"):
        parse_table(_with_payload([line]))


def test_unsorted_payload_rejected():
    with pytest.raises(CacheFormatError, match="sorted"):
        parse_table(_with_payload(["2,1,1,8", "2,0,-1,2"]))


def test_conflicting_duplicates_rejected_on_store():
    with pytest.raises(ValueError, match="^rows not strictly increasing in"):
        format_table([(2, 1, rational(1, 8)), (2, 1, rational(1, 4))])


def test_round_trip_above_the_int_str_digit_cap(tmp_path):
    # 20001-digit numerator over a 20001-digit power of two, far past
    # Python's default 4300-digit int<->str limit
    limit = sys.get_int_max_str_digits()
    path = tmp_path / "big.csv"
    rows = [(2, 9999, rational(10**20000 + 1, 2**66439))]
    path.write_text(format_table(rows))
    assert load_coefficients(path) == rows
    assert sys.get_int_max_str_digits() == limit


def test_concurrent_parses_leave_the_cap_as_found(default_digit_cap):
    # two threads parse a table past the cap at the same time
    rows = [(2, m, rational(10**5000 + 2 * m + 1, 2**(16600 + m))) for m in range(20)]
    text = format_table(rows)
    results = []

    def parse_five_times():
        results.extend(parse_table(text) == rows for _ in range(5))

    threads = [threading.Thread(target=parse_five_times) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert results == [True] * 10
    assert sys.get_int_max_str_digits() == default_digit_cap


def test_no_other_thread_sees_the_cap_lifted(default_digit_cap):
    # table I/O past the cap must not switch the interpreter-wide cap
    rows = [(2, m, rational(10**4999 + 2 * m + 1, 2**(16600 + m))) for m in range(40)]
    seen = set()
    done = threading.Event()

    def poll():
        while not done.is_set():
            seen.add(sys.get_int_max_str_digits())

    poller = threading.Thread(target=poll)
    poller.start()
    try:
        assert parse_table(format_table(rows)) == rows
    finally:
        done.set()
        poller.join()
    assert seen == {default_digit_cap}


@pytest.mark.parametrize("cap", [640, 4300, 0])
def test_table_bytes_do_not_depend_on_the_host_cap(set_digit_cap, cap):
    rows = [(2, m, rational((-1) ** m * (10**k + 7), 2**(3 * k + m)))
            for m, k in enumerate([5, 639, 640, 641, 4299, 4300, 4301, 8601])]
    set_digit_cap(0)
    expected = checksummed_text(HEADER, [f"{d},{m},{v.numerator},{v.denominator}"
                                         for d, m, v in rows])
    set_digit_cap(cap)
    text = format_table(rows)
    assert text == expected
    assert parse_table(text) == rows


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(
    digits=st.sampled_from([1, 639, 640, 641, 4299, 4300, 4301, 8600, 8601, 8602]),
    negative=st.booleans(),
    zeros=st.booleans(),
    cap=st.sampled_from([640, 4300]),
    rng=st.randoms(use_true_random=False),
)
def test_conversions_agree_with_str_and_int_without_the_cap(
        set_digit_cap, digits, negative, zeros, cap, rng):
    # with zeros, a run of zeros crosses every split point
    magnitude = (10 ** (digits - 1) + rng.randrange(10) if zeros
                 else rng.randrange(10 ** (digits - 1), 10**digits))
    n = -magnitude if negative else magnitude
    set_digit_cap(0)
    text = str(n)
    set_digit_cap(cap)
    assert int_to_text(n) == text
    assert text_to_int(text) == n


@pytest.mark.parametrize("text", ["12a", "", "-", "--5", "1__0", "0x10",
                                  "1" * 5000 + "x", "+" + "1" * 5000, " " + "1" * 5000])
def test_text_to_int_refuses_other_text_without_splitting(
        default_digit_cap, monkeypatch, text):
    calls = []
    real = cache.text_to_int
    monkeypatch.setattr(cache, "text_to_int", lambda t: calls.append(t) or real(t))
    with pytest.raises(ValueError):
        cache.text_to_int(text)
    assert calls == [text]
    # a digit string past the cap is split: the count above sees recursion
    calls.clear()
    assert cache.text_to_int("1" * 5000) == (10**5000 - 1) // 9
    assert len(calls) > 1


@pytest.mark.parametrize("fields, message", [
    ((2, 0, 2 * (10**4300 + 7), 2**14300), "{num}/{den} is not in lowest terms"),
    ((2, 0, 10**4300 + 7, 3 * 2**14300),
     "denominator {den} has a prime factor not dividing d=2"),
    ((10**4300 + 7, 0, 1, 1), "invalid indices d={d}, m=0"),
])
def test_messages_quote_fields_past_the_cap(set_digit_cap, fields, message):
    d, m, num, den = fields
    set_digit_cap(0)
    text = _with_payload([",".join(map(str, fields))])
    expected = "line 2: " + message.format(d=d, num=num, den=den)
    set_digit_cap(4300)
    with pytest.raises(CacheFormatError) as info:
        parse_table(text)
    assert str(info.value) == expected


def test_records_around_one_above_the_digit_cap_round_trip():
    # the fields of every record are converted together; one past the
    # 4300-digit cap must neither fail nor shift the line count
    rows = [(2, 0, rational(-1, 2)), (2, 9999, rational(-(10**5000) - 1, 2**66439)),
            (3, 1, rational(1, 3))]
    text = format_table(rows)
    assert parse_table(text) == rows
    lines = text.splitlines()[1:-1]
    with pytest.raises(CacheFormatError, match="^line 5: fields not in canonical form$"):
        parse_table(_with_payload([*lines, "3,2,+1,9"]))


@pytest.mark.parametrize("payload, message", [
    (["2,0,-1,2", "2,1,2,16", "2,2,-1,4", "2,3,+15,128"],
     "^line 3: 2/16 is not in lowest terms$"),
    (["2,0,-1,2", "2,1,+1,8", "2,2,-1,4", "2,3,30,256"],
     "^line 3: fields not in canonical form$"),
])
def test_first_faulty_line_in_file_order_is_reported(payload, message):
    # a semantic fault before a non-canonical line, and the reverse
    with pytest.raises(CacheFormatError, match=message):
        parse_table(_with_payload(payload))


def test_large_foreign_prime_in_denominator_rejected():
    text = format_table([(2, 9999, rational(1, 2**66439 * 3))])
    with pytest.raises(CacheFormatError, match="prime factor"):
        parse_table(text)


def test_agreeing_duplicates_rejected_on_store():
    # each (d, m) is written once, even when both rows carry the same value
    with pytest.raises(ValueError, match=r"^rows not strictly increasing in \(d, m\) at d=2, m=1$"):
        format_table([(2, 1, rational(1, 8)), (2, 1, rational(1, 8))])


# any d-adic rational is representable: numerator over a power of the degree
dadic_rows = st.lists(
    st.tuples(
        st.integers(2, 12),
        st.integers(0, 500),
        st.integers(-(10**12), 10**12),
        st.integers(0, 40),
    ),
    max_size=25,
)


@given(rows=dadic_rows)
def test_round_trip_of_arbitrary_dadic_tables(rows):
    seen = {}
    for d, m, num, e in rows:
        seen.setdefault((d, m), rational(num, d**e))
    table = [(d, m, v) for (d, m), v in sorted(seen.items())]
    assert parse_table(format_table(table)) == table


@given(
    position=st.integers(0, 10**6),
    replacement=st.sampled_from("0123456789,-#abcdef xz."),
)
def test_single_character_corruption_never_silently_changes_values(position, replacement):
    rows = [(2, 0, rational(-1, 2)), (2, 7, rational(987, 32768)), (6, 4, rational(-7, 36))]
    text = format_table(rows)
    position %= len(text)
    if text[position] == replacement:
        return
    mutated = text[:position] + replacement + text[position + 1:]
    try:
        parsed = parse_table(mutated)
    except CacheFormatError:
        return
    # mutations in insignificant whitespace may survive; values must not move
    assert parsed == rows


def _old_per_field_rule(line):
    """The record rule before it became one pattern: split on commas,
    int() each field, check the value, then require the spelling that
    formatting gives back.  The triple, or None where a line is refused."""
    fields = line.split(",")
    if len(fields) != 4:
        return None
    try:
        d, m, num, den = (int(f) for f in fields)
    except ValueError:
        return None
    if not 2 <= d <= MAX_DEGREE or m < 0 or den <= 0 or gcd(num, den) != 1:
        return None
    if line != f"{d},{m},{num},{den}":
        return None
    rest = den
    while (common := gcd(rest, d)) > 1:
        rest //= common
    return (d, m, rational(num, den)) if rest == 1 else None


_TOKENS = [*"0123456789" * 4, "-", "+", "_", " ", "\u0663", "00"]


def _random_line(rng):
    return ",".join("".join(rng.choices(_TOKENS, k=rng.randint(1, 3)))
                    for _ in range(rng.randint(3, 5)))


def test_acceptance_set_matches_the_per_field_rule():
    rng = random.Random(20131)
    accepted = 0
    for _ in range(20000):
        line = _random_line(rng)
        expected = _old_per_field_rule(line)
        try:
            rows = parse_table(_with_payload([line]))
        except CacheFormatError:
            assert expected is None, line
            continue
        assert rows == [expected], line
        accepted += 1
    assert 100 < accepted < 19000  # both outcomes are exercised


@pytest.mark.parametrize("line", ["2,0,-1", "2,0,-1,2,0", "2,x,1,8"])
def test_field_count_and_non_integer_fields_are_not_canonical(line):
    with pytest.raises(CacheFormatError, match="^line 3: fields not in canonical form$"):
        parse_table(_with_payload(["2,0,-1,2", line]))


# A table of degrees 2 and 3; a request for d = 2 selects its first two rows.
_TWO_DEGREES = ["2,0,-1,2", "2,1,1,8", "3,0,-1,3", "3,1,1,9"]


@pytest.mark.parametrize("bad, message", [
    ("3,2,+1,9", "fields not in canonical form"),
    ("3,2,3,9", "3/9 is not in lowest terms"),
    ("3,2,1,4", "denominator 4 has a prime factor not dividing d=3"),
    ("3,1,1,27", "records not sorted by (d, m)"),
    (f"{2**61 - 1},0,0,1", f"invalid indices d={2**61 - 1}, m=0"),
])
def test_unselected_faulty_last_line_is_named(bad, message):
    # a d = 2 request validates the d = 3 rows it does not return, and the
    # line number counts every record, selected or not
    with pytest.raises(CacheFormatError, match=f"^line 6: {re.escape(message)}$"):
        parse_table(_with_payload([*_TWO_DEGREES, bad]), [2], 1)


@pytest.mark.parametrize("payload, message", [
    (["2,0,-1,2", "5,1,5,25", "5,2,1,25"], "line 3: 5/25 is not in lowest terms"),
    (["2,0,-1,2", "2,1,1,8", "1,1,0,1"], "line 4: invalid indices d=1, m=1"),
])
def test_faulty_row_outside_the_selection_is_reported(tmp_path, payload, message):
    path = tmp_path / "bad.csv"
    path.write_text(_with_payload(payload))
    with pytest.raises(CacheFormatError, match=f"^{message}$"):
        load_coefficients(path, [2], 1)


@given(rows=dadic_rows,
       degrees=st.none() | st.sets(st.integers(2, 12)),
       m_max=st.none() | st.integers(0, 500))
def test_selection_equals_the_filtered_full_parse(rows, degrees, m_max):
    seen = {}
    for d, m, num, e in rows:
        seen.setdefault((d, m), rational(num, d**e))
    text = format_table([(d, m, v) for (d, m), v in sorted(seen.items())])
    assert parse_table(text, degrees, m_max) == [
        (d, m, v) for d, m, v in parse_table(text)
        if (degrees is None or d in degrees) and (m_max is None or m <= m_max)]


def _decoded_by_int(text, degrees, m_max):
    """The records of a valid table decoded field by field with ``int``,
    then selected by degree and largest index as ``parse_table`` selects."""
    rows = []
    for line in text.splitlines()[1:-1]:
        d, m, num, den = map(int, line.split(","))
        if (degrees is None or d in degrees) and (m_max is None or m <= m_max):
            rows.append((d, m, rational(num, den)))
    return rows


# A row of degree 13 and index 600, which only the full selection returns,
# with a numerator of 4401 digits: past both caps the test runs under.
_PAST_CAP_ROW = (13, 600, rational(10**4400 + 1, 13**3))


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture], deadline=None)
@given(rows=dadic_rows,
       past_cap=st.booleans(),
       degrees=st.none() | st.sets(st.integers(2, 12)),
       m_max=st.none() | st.integers(0, 500),
       cap=st.sampled_from([640, 4300]))
@example(rows=[], past_cap=False, degrees=None, m_max=None, cap=640)
@example(rows=[], past_cap=True, degrees={2}, m_max=None, cap=4300)
@example(rows=[(2, 0, -1, 1), (3, 4, 7, 2)], past_cap=True, degrees=None, m_max=10, cap=640)
def test_decode_equals_the_per_field_int_decode(set_digit_cap, rows, past_cap, degrees, m_max,
                                                cap):
    # the one C-level decode, and the per-field fallback it takes past the
    # cap, read the same values as int() on each field read under no cap
    seen = {}
    for d, m, num, e in rows:
        seen.setdefault((d, m), rational(num, d**e))
    table = [(d, m, v) for (d, m), v in sorted(seen.items())]
    if past_cap:
        table.append(_PAST_CAP_ROW)
    set_digit_cap(0)
    text = format_table(table)
    expected = _decoded_by_int(text, degrees, m_max)
    set_digit_cap(cap)
    assert parse_table(text, degrees, m_max) == expected

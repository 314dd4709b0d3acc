import argparse
import doctest
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import multibrot
from multibrot import cache, cli, coeffs, exact
from multibrot.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
    MAX_M,
    _records_json_lines,
    main,
)
from multibrot.coeffs import CoeffRecord
from multibrot.exact import rational


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pools(monkeypatch):
    """Every ProcessPoolExecutor constructed while the test runs."""
    import concurrent.futures

    made = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return made


class TestCompute:
    def test_basic_table(self, capsys):
        code, out, _ = run(capsys, "compute", "--d", "2", "--m-max", "5", "--threads", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == cache.HEADER
        assert lines[-1].startswith("#sha256:")
        records = lines[1:-1]
        assert len(records) == 6
        assert records[-1] == "2,5,-47,1024"

    def test_m_zero_degree_three(self, capsys):
        code, out, _ = run(capsys, "compute", "--d", "3", "--m-max", "0", "--threads", "1")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "3,0,0,1"

    def test_m_zero_degree_two(self, capsys):
        code, out, _ = run(capsys, "compute", "--d", "2", "--m-max", "0", "--threads", "1")
        assert code == EXIT_OK
        assert out.splitlines()[1] == "2,0,-1,2"

    def test_output_is_loadable_cache_format(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(capsys, "compute", "--d", "2,3", "--m-max", "8",
                           "--threads", "1", "--cache", str(path))
        assert code == EXIT_OK
        assert out == ""
        rows = cache.load_coefficients(path)
        assert (2, 3, rational(15, 128)) in rows
        assert (3, 1, rational(-1, 3)) in rows

    def test_cache_dir_env_resolves_relative_paths(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("MULTIBROT_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "compute", "--d", "2", "--m-max", "3",
                         "--threads", "1", "--cache", "rel.csv")
        assert code == EXIT_OK
        assert (tmp_path / "rel.csv").exists()

    def test_json_lines_output(self, capsys):
        code, out, _ = run(capsys, "compute", "--d", "2", "--m-max", "2",
                           "--threads", "1", "--output", "json-lines")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[0] == {"d": 2, "m": 0, "numerator": "-1", "denominator": "2"}
        assert len(rows) == 3

    def test_json_lines_above_the_int_str_digit_cap(self):
        limit = sys.get_int_max_str_digits()
        value = rational(-(10**20000 + 1), 2**66439)
        row = json.loads(_records_json_lines([(2, 9999, value)]))
        assert row["numerator"] == "-1" + "0" * 19999 + "1"
        assert len(row["denominator"]) == 20001
        assert sys.get_int_max_str_digits() == limit

    def test_table_digest_for_degrees_two_to_six(self, capsys):
        # Byte-exact table for d = 2..6, m <= 200, recorded with a
        # term-by-term Fraction evaluation of the same recurrence; most of
        # these indices are beyond the reach of the partition-sum cross-check.
        code, out, _ = run(capsys, "compute", "--d", "2,3,4,5,6", "--m-max", "200",
                           "--threads", "1")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7d5392641310bc839a0a1a6b5c64b4cfa4a22ae9df7f8b05cd1fd81a131238bd"
        )

    def test_table_digest_for_degree_two_to_m1000(self, degree_two_table_m1000):
        # Byte-exact table for d = 2, m <= 1000; the residue route and the
        # sweep were both measured to produce it.
        out, _ = degree_two_table_m1000
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7e260d940c8a0e2a13ee80fde729e2229f10b1b2c31b1ba59564403f169c3293"
        )

    def test_both_methods_agree(self, capsys):
        code, out, _ = run(capsys, "compute", "--d", "2,4", "--m-max", "10",
                           "--threads", "1", "--method", "both")
        assert code == EXIT_OK
        assert out.splitlines()[0] == cache.HEADER

    def test_method_disagreement_aborts(self, capsys, monkeypatch):
        import multibrot.cli as cli_mod

        real = cli_mod.laurent_coefficient

        def skewed(d, m, *, method="residue"):
            rec = real(d, m, method=method)
            if method == "combinatorial" and m == 2:
                return CoeffRecord(d, m, rec.value + 1, rec.method)
            return rec

        monkeypatch.setattr(cli_mod, "laurent_coefficient", skewed)
        code, _, err = run(capsys, "compute", "--d", "2", "--m-max", "3",
                           "--threads", "1", "--method", "both")
        assert code == EXIT_VERIFICATION
        assert "disagreement" in err

    def test_method_disagreement_past_the_digit_cap_is_one_stderr_line(
            self, capsys, monkeypatch, default_digit_cap):
        # a 5001-digit numerator can only be printed past the cap
        value = rational(10**5000 + 1, 2)
        monkeypatch.setattr(cli.coeffs, "coefficients_by_sweep", lambda d, m_max: [value])
        monkeypatch.setattr(cli, "laurent_coefficient",
                            lambda d, m, *, method: CoeffRecord(d, m, value + 1, method))
        code, out, err = run(capsys, "compute", "--d", "2", "--m-max", "0", "--method", "both")
        assert code == EXIT_VERIFICATION
        assert out == ""
        assert err == ("multibrot: method disagreement at d=2, m=0: "
                       f"sweep=1{'0' * 4999}1/2, combinatorial=1{'0' * 4999}3/2\n")


class TestVerify:
    def test_passing_checks(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "2", "--m-max", "100",
                           "--threads", "1", "--checks", "zagier,levin")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "#multibrot-verdicts v1"
        assert lines[-1].startswith("#sha256:")
        # 101 zagier + 50 levin verdicts
        assert len(lines) == 2 + 101 + 50
        assert all(line.endswith(",true") for line in lines[1:-1])

    def test_detects_refuted_equality_clause(self, capsys):
        # the floor-form prime-degree check genuinely fails at d=3, m=9
        code, out, _ = run(capsys, "verify", "--d", "3", "--m-max", "12",
                           "--threads", "1", "--checks", "yamashita")
        assert code == EXIT_VERIFICATION
        failing = [line for line in out.splitlines() if line.endswith(",false")]
        assert any(line.startswith("yamashita,3,9,") for line in failing)

    def test_composite_degree_covers_both_primes(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "6", "--m-max", "60",
                           "--threads", "1", "--checks", "main,integrality")
        assert code == EXIT_OK
        payload = [line for line in out.splitlines() if line.startswith("main,")]
        assert {line.split(",")[3] for line in payload} == {"2", "3"}

    def test_report_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        code, out, _ = run(capsys, "verify", "--d", "2", "--m-max", "10",
                           "--threads", "1", "--checks", "main", "--report", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert path.read_text().startswith("#multibrot-verdicts v1")

    def test_unknown_check_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "--checks", "bogus", "--m-max", "5")
        assert code == EXIT_USAGE
        assert "unknown check" in err

    def test_empty_check_list_is_usage_error(self, capsys):
        # like an empty --d: a run that checks nothing is a mistake, not a pass
        for checks in ("", ",", " , "):
            code, out, err = run(capsys, "verify", "--d", "2", "--m-max", "5",
                                 "--threads", "1", "--checks", checks)
            assert code == EXIT_USAGE, checks
            assert out == ""
            assert "at least one check is required" in err

    def test_preload_cache(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        assert run(capsys, "compute", "--d", "2", "--m-max", "20", "--threads", "1",
                   "--cache", str(path))[0] == EXIT_OK
        code, out, _ = run(capsys, "verify", "--d", "2", "--m-max", "20",
                           "--threads", "1", "--checks", "zagier", "--cache", str(path))
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2 + 21

    def test_corrupt_cache_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("#multibrot-coeffs v1\n2,1,1,3\n#sha256:0\n")
        code, _, err = run(capsys, "verify", "--d", "2", "--m-max", "5",
                           "--threads", "1", "--checks", "zagier", "--cache", str(path))
        assert code == EXIT_IO
        assert "bad coefficient table" in err

    @pytest.mark.parametrize("fields", [(2, 1, 2 * (10**4300 + 7), 2**14300),
                                        (2, 1, 10**4300 + 7, 3 * 2**14300),
                                        (10**4300 + 7, 1, 1, 1)])
    def test_faulty_record_past_the_digit_cap_is_io_error(self, capsys, tmp_path,
                                                          set_digit_cap, fields):
        # not in lowest terms, a prime not dividing d, invalid indices
        set_digit_cap(0)
        path = tmp_path / "bad.csv"
        path.write_text(cache.checksummed_text(cache.HEADER, [",".join(map(str, fields))]))
        set_digit_cap(4300)
        code, _, err = run(capsys, "verify", "--d", "2", "--m-max", "1", "--cache", str(path))
        assert code == EXIT_IO
        [line] = err.splitlines()
        assert line.startswith("multibrot: bad coefficient table: line 2: ")

    @pytest.mark.parametrize("payload, message", [
        (["2,0,-1,2", "2,1,1,8", "5,1,5,25"], "line 4: 5/25 is not in lowest terms"),
        (["2,0,-1,2", "2,1,1,8", f"{2**61 - 1},0,0,1"],
         f"line 4: invalid indices d={2**61 - 1}, m=0"),
        (["2,0,-1,2", "2,1,1,8", "3,0,-1,3", "3,1,+1,9"],
         "line 5: fields not in canonical form"),
    ])
    def test_faulty_row_at_an_unrequested_degree_is_io_error(self, capsys, tmp_path,
                                                             payload, message):
        # every record is validated, though a d = 2 request reads none of these
        path = tmp_path / "bad.csv"
        path.write_text(cache.checksummed_text(cache.HEADER, payload))
        code, out, err = run(capsys, "verify", "--d", "2", "--m-max", "1",
                             "--checks", "zagier", "--cache", str(path))
        assert (code, out) == (EXIT_IO, "")
        assert err == f"multibrot: bad coefficient table: {message}\n"

    def test_cache_builds_only_the_requested_rows(self, capsys, tmp_path, monkeypatch):
        # the small-requests table: d = 2..6, m <= 40, 205 records
        path = tmp_path / "table.csv"
        assert run(capsys, "compute", "--d", "2,3,4,5,6", "--m-max", "40",
                   "--cache", str(path))[0] == EXIT_OK
        built = []
        real = cache.rational
        monkeypatch.setattr(cache, "rational", lambda *a: built.append(a) or real(*a))
        code, _, _ = run(capsys, "verify", "--d", "3", "--m-max", "20", "--cache", str(path))
        assert code == EXIT_VERIFICATION  # yamashita fails at odd prime degrees
        assert len(built) == 21

    def test_non_utf8_cache_is_io_error(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00garbage\n")
        code, _, err = run(capsys, "verify", "--d", "2", "--m-max", "3",
                           "--threads", "1", "--cache", str(path))
        assert code == EXIT_IO
        assert "bad coefficient table" in err and "UTF-8" in err

    def test_report_digest_for_degrees_two_to_six(self, capsys):
        # Byte-exact report for d = 2..6, m <= 200, all checks; the 71
        # failures are the refuted Yamashita floor form (criterion 07).
        code, out, _ = run(capsys, "verify", "--d", "2,3,4,5,6", "--m-max", "200",
                           "--threads", "1")
        assert code == EXIT_VERIFICATION
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "9686911a6167be45387c466c771400384f0aa343fdb628b22e94c7ac4aded104"
        )

    @pytest.mark.parametrize("degrees, m_max, code, digest", [
        # its 140 failures are the refuted Yamashita floor form at p = 3, 5, 7
        ("2,3,4,5,6,7", "300", EXIT_VERIFICATION,
         "1e6b3c50abed7d4a971bf9c852892a1942eb71904075677f5e3e584aecd59e49"),
        ("8,9,12,16,30", "200", EXIT_OK,
         "e073872eae22424b65ff6ff29725d54c09e0ba153a0008d77cd6cf5b18f5cb3c"),
    ])
    def test_report_digests_are_pinned(self, capsys, degrees, m_max, code, digest):
        # byte-exact reports over every check, prime and composite degrees
        result, out, _ = run(capsys, "verify", "--d", degrees, "--m-max", m_max)
        assert result == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_checks_compute_no_coefficient_lazily(self, capsys, monkeypatch):
        # Every coefficient a check reads must come from the sweeps that
        # suite_verdicts runs up front.
        import multibrot.cli as cli_mod
        import multibrot.coeffs as coeffs_mod

        inside = []
        lazy = []

        def counting(real):
            def wrapper(d, m, **kwargs):
                if inside:
                    lazy.append((d, m))
                return real(d, m, **kwargs)
            return wrapper

        # a value computed outside the table would come from one of the
        # per-index routes
        for name in ("laurent_coefficient", "coefficient_by_residue"):
            monkeypatch.setattr(coeffs_mod, name, counting(getattr(coeffs_mod, name)))
        real_suite = cli_mod.suite_verdicts

        def suite(*args, **kwargs):
            inside.append(True)
            try:
                return real_suite(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(cli_mod, "suite_verdicts", suite)
        code, out, _ = run(capsys, "verify", "--d", "2,3,4,5,6", "--m-max", "30",
                           "--threads", "1")
        assert code == EXIT_VERIFICATION
        assert len(out.splitlines()) > 2
        assert lazy == []

    def test_cached_values_at_vanishing_indices_are_recomputed(self, capsys, tmp_path):
        # a checksummed but wrong b_2 = 1/9 for d = 3: the vanishing check
        # needs (3, 2) computed in full, and yamashita reads that record too
        path = tmp_path / "table.csv"
        path.write_text(cache.format_table([(3, 2, rational(1, 9))]))
        code, out, _ = run(capsys, "verify", "--d", "3", "--m-max", "4", "--threads", "1",
                           "--checks", "vanishing,yamashita", "--cache", str(path))
        assert code == EXIT_OK
        assert "vanishing,3,2,-,neg_inf,neg_inf,true,true,true" in out.splitlines()

    def test_cached_values_below_computed_indices_are_kept(self, capsys, tmp_path):
        # a checksummed but wrong b_1 = 1/2 for d = 2: computing m = 2..5
        # must not replace it, so zagier reads it and fails at m = 1
        path = tmp_path / "table.csv"
        path.write_text(cache.format_table([(2, 0, rational(-1, 2)), (2, 1, rational(1, 2))]))
        code, out, _ = run(capsys, "verify", "--d", "2", "--m-max", "5", "--threads", "1",
                           "--checks", "zagier", "--cache", str(path))
        assert code == EXIT_VERIFICATION
        failing = [line for line in out.splitlines() if line.endswith(",false")]
        assert failing == ["zagier,2,1,2,3,1,true,false,false"]

    def test_failure_summary_on_stderr(self, capsys, tmp_path):
        code, out, err = run(capsys, "verify", "--d", "2", "--m-max", "20", "--threads", "1")
        assert code == EXIT_OK
        assert err == "multibrot verify: 136 verdicts, 0 failures\n"
        # checksummed but wrong b_1 = b_3 = 2^-40 for d = 2 fail six checks twice
        path = tmp_path / "table.csv"
        path.write_text(cache.format_table([(2, 0, rational(-1, 2)), (2, 1, rational(1, 2**40)),
                                            (2, 3, rational(1, 2**40))]))
        code, out, err = run(capsys, "verify", "--d", "2", "--m-max", "20", "--threads", "1",
                             "--cache", str(path))
        assert code == EXIT_VERIFICATION
        assert err.splitlines() == [
            "multibrot verify: 136 verdicts, 12 failures",
            "multibrot verify: ewing-schober p=2: 2 failures",
            "multibrot verify: integrality p=-: 2 failures",
            "multibrot verify: levin p=2: 2 failures",
            "multibrot verify: main p=2: 2 failures",
            "multibrot verify: yamashita p=2: 2 failures",
            "multibrot verify: zagier p=2: 2 failures",
            "multibrot verify: failed ewing-schober d=2 m=1 p=2",
            "multibrot verify: failed ewing-schober d=2 m=3 p=2",
            "multibrot verify: failed integrality d=2 m=1 p=-",
            "multibrot verify: failed integrality d=2 m=3 p=-",
            "multibrot verify: failed levin d=2 m=1 p=2",
        ]
        failing = [line for line in out.splitlines() if line.endswith(",false")]
        assert len(failing) == 12 and failing[0].startswith("ewing-schober,2,1,")

    def test_unwritable_report_is_io_error(self, capsys, tmp_path):
        code, _, _ = run(capsys, "verify", "--d", "2", "--m-max", "3", "--threads", "1",
                         "--checks", "zagier",
                         "--report", str(tmp_path / "missing" / "report.csv"))
        assert code == EXIT_IO


class TestCensus:
    def test_census_digest_for_degrees_two_to_six(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "2,3,4,5,6", "--m-max", "200",
                           "--threads", "1")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0676723c5026df14ee077d6c637a044fc7440d4cef54b741e1be9ced05deecd2"
        )

    def test_degree_two(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "2", "--m-max", "10", "--threads", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert "2,4,false" in lines
        assert "2,8,false" in lines
        assert "# d=2: zeros=2 explained=0 unexplained=2" in lines

    def test_degree_three_parity_zeros_are_explained(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "3", "--m-max", "10", "--threads", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        for m in range(0, 11, 2):
            assert f"3,{m},true" in lines

    def test_no_zeros_below_four(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "2", "--m-max", "3", "--threads", "1")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "# d=2: zeros=0 explained=0 unexplained=0"

    def test_json_lines(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "2", "--m-max", "5",
                           "--threads", "1", "--output", "json-lines")
        assert code == EXIT_OK
        assert json.loads(out.splitlines()[0]) == {"d": 2, "explained": False, "m": 4}

    def test_json_lines_summaries_are_json(self, capsys):
        code, out, _ = run(capsys, "census", "--d", "2,3", "--m-max", "10",
                           "--threads", "1", "--output", "json-lines")
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.splitlines()]
        assert rows[-2:] == [
            {"d": 2, "zeros": 2, "explained_zeros": 0, "unexplained_zeros": 2},
            {"d": 3, "zeros": 8, "explained_zeros": 6, "unexplained_zeros": 2},
        ]
        assert len(rows) == 2 + 8 + 2


class TestBench:
    def test_hashes_match_across_methods_and_thread_counts(self, capsys):
        hashes = set()
        for threads in ("1", "4"):
            code, out, _ = run(capsys, "bench", "--d", "2", "--m-max", "12",
                               "--threads", threads)
            assert code == EXIT_OK
            lines = out.splitlines()
            assert lines[0] == "method,seconds,peak_coeff_bits,sha256"
            rows = [line.split(",") for line in lines[1:]]
            assert [row[0] for row in rows] == ["residue", "combinatorial"]
            hashes |= {row[3] for row in rows}
        assert len(hashes) == 1

    def test_sweep_row_hash_equals_residue_row(self, capsys):
        hashes = []
        for method in ("sweep", "residue"):
            code, out, _ = run(capsys, "bench", "--d", "2,3", "--m-max", "80",
                               "--method", method)
            assert code == EXIT_OK
            lines = out.splitlines()
            assert lines[0] == "method,seconds,peak_coeff_bits,sha256"
            (row,) = [line.split(",") for line in lines[1:]]
            assert row[0] == method
            assert row[2] == "159"
            hashes.append(row[3])
        assert hashes == [
            "238188d3e6fec32ff419bc25b0b7e7b0774c4cb089b296827008ef34ebbb6bbf"] * 2

    def test_trivial_range(self, capsys):
        code, out, _ = run(capsys, "bench", "--d", "2", "--m-max", "0", "--threads", "1")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len({row[3] for row in rows}) == 1

    def test_method_disagreement_names_its_index(self, capsys, monkeypatch):
        real = cli.laurent_coefficient

        def skewed(d, m, *, method="residue"):
            rec = real(d, m, method=method)
            if method == "combinatorial" and m == 2:
                return CoeffRecord(d, m, rec.value + 1, rec.method)
            return rec

        monkeypatch.setattr(cli, "laurent_coefficient", skewed)
        code, out, err = run(capsys, "bench", "--d", "2", "--m-max", "3", "--method", "both")
        assert code == EXIT_VERIFICATION
        lines = out.splitlines()
        assert lines[0] == "method,seconds,peak_coeff_bits,sha256"
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == ["residue", "combinatorial"]
        assert rows[0][3] != rows[1][3]
        assert err == ("multibrot: method disagreement at d=2, m=2: "
                       "residue=-1/4, combinatorial=3/4\n")

    def test_both_compares_computed_zeros(self, capsys, monkeypatch):
        # b_2 = 0 at d = 3 by the divisibility criterion; both routes must
        # compute it, so a wrong partition sum there is a disagreement
        real = coeffs.coefficient_by_partition_sum

        def skewed(d, m, n):
            return rational(1) if (d, m) == (3, 2) else real(d, m, n)

        monkeypatch.setattr(coeffs, "coefficient_by_partition_sum", skewed)
        code, _, err = run(capsys, "bench", "--d", "3", "--m-max", "4", "--method", "both")
        assert code == EXIT_VERIFICATION
        assert err == ("multibrot: method disagreement at d=3, m=2: "
                       "residue=0/1, combinatorial=1/1\n")

    def test_huge_degree_runs_both_routes(self, capsys):
        code, out, err = run(capsys, "bench", "--d", "1000000000", "--m-max", "3",
                             "--method", "both")
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [row[0] for row in rows] == ["residue", "combinatorial"]
        assert rows[0][3] == rows[1][3]

    def test_threads_compare_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--d", "2", "--m-max", "4", "--threads-compare", "2"])
        assert excinfo.value.code == EXIT_USAGE
        assert "--threads-compare" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["compute", "verify", "census", "bench"])
def test_no_command_starts_processes(capsys, pools, command):
    code, out, _ = run(capsys, command, "--d", "2,3", "--m-max", "30", "--threads", "4")
    assert code in (EXIT_OK, EXIT_VERIFICATION)
    assert out
    assert pools == []


@pytest.mark.parametrize("command", ["compute", "verify", "census"])
def test_out_of_memory_exits_3(capsys, monkeypatch, command):
    # the sweep's MemoryError is simulated once, where the sweep is defined;
    # it must reach each command, whichever module calls the sweep
    import multibrot.coeffs as coeffs_mod

    def exhausted(d, m_max):
        raise MemoryError

    monkeypatch.setattr(coeffs_mod, "coefficients_by_sweep", exhausted)
    code, out, err = run(capsys, command, "--d", "2", "--m-max", "50", "--threads", "1")
    assert code == EXIT_IO
    assert out == ""
    assert err == "multibrot: out of memory\n"


@pytest.mark.parametrize("command", ["compute", "verify"])
def test_inexact_division_exits_1(capsys, monkeypatch, command):
    # a divmod that always leaves a remainder fails the sweep's division by
    # d^k* at column 1; the error names the degree and the column
    import multibrot.coeffs as coeffs_mod

    def inexact(a, b):
        return (a // b, 1)

    monkeypatch.setattr(coeffs_mod, "divmod", inexact, raising=False)
    code, out, err = run(capsys, command, "--d", "2", "--m-max", "10", "--threads", "1")
    assert code == EXIT_VERIFICATION
    assert out == ""
    assert err == "multibrot: inexact division: d=2, column 1: inexact division by 2^1\n"


def test_inexact_miller_sum_exits_1(capsys, monkeypatch):
    # at d >= 3 the sweep divides each column's Miller sum by j; a product
    # that is off by one leaves a remainder there, first at column 6
    monkeypatch.setattr(coeffs, "mul", lambda a, b: a * b + 1)
    assert run(capsys, "compute", "--d", "4", "--m-max", "40") == (
        EXIT_VERIFICATION, "",
        "multibrot: inexact division: d=4, column 6, level 0: inexact division by 6\n")


@pytest.mark.parametrize("command", ["compute", "verify", "census"])
def test_huge_degree(capsys, command):
    # every b_m with m <= 3 vanishes at d = 10^11; no power of size ~d is formed
    code, out, _ = run(capsys, command, "--d", str(10**11), "--m-max", "3", "--threads", "1")
    assert code == EXIT_OK
    assert out


def test_degree_limit(capsys, tmp_path):
    # trial division of 2^61 - 1 takes minutes; MAX_DEGREE itself is accepted
    for command in ("compute", "verify", "census", "bench"):
        code, out, err = run(capsys, command, "--d", str(2**61 - 1), "--m-max", "3",
                             "--threads", "1")
        assert code == EXIT_USAGE and out == "", command
        assert f"degree must be <= {exact.MAX_DEGREE}" in err
    code, out, _ = run(capsys, "verify", "--d", str(exact.MAX_DEGREE), "--m-max", "3",
                       "--threads", "1")
    assert code == EXIT_OK and out
    path = tmp_path / "table.csv"
    path.write_text(cache.checksummed_text(cache.HEADER, [f"{2**61 - 1},1,0,1"]))
    code, _, err = run(capsys, "verify", "--d", "2", "--m-max", "3", "--threads", "1",
                       "--cache", str(path))
    assert code == EXIT_IO
    assert "bad coefficient table: line 2: invalid indices" in err


def test_each_degree_is_factored_once(capsys):
    # the checks ask for the primality and the factors of d at every m
    exact._trial_division.cache_clear()
    exact.is_prime.cache_clear()
    code, _, _ = run(capsys, "verify", "--d", "1000000000039", "--m-max", "50",
                     "--threads", "1")
    assert code == EXIT_OK
    assert exact._trial_division.cache_info().misses == 1
    assert exact.is_prime.cache_info().misses == 1


class TestDeterminism:
    def test_compute_identical_across_worker_counts(self, capsys):
        _, out1, _ = run(capsys, "compute", "--d", "2,3", "--m-max", "25", "--threads", "1")
        _, out4, _ = run(capsys, "compute", "--d", "2,3", "--m-max", "25", "--threads", "4")
        assert out1 == out4

    def test_verify_identical_across_worker_counts(self, capsys, tmp_path):
        r1, r4 = tmp_path / "r1.csv", tmp_path / "r4.csv"
        args = ["verify", "--d", "3", "--m-max", "20", "--checks", "main,vanishing,dadic"]
        assert main(args + ["--threads", "1", "--report", str(r1)]) == EXIT_OK
        assert main(args + ["--threads", "4", "--report", str(r4)]) == EXIT_OK
        capsys.readouterr()
        assert r1.read_bytes() == r4.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--d", "1", "--m-max", "5"],
            ["compute", "--d", "2", "--m-max", "-1"],
            ["compute", "--d", "2", "--m-max", "5", "--threads", "0"],
            ["compute", "--d", "x", "--m-max", "5"],
            ["compute", "--d", " ", "--m-max", "5"],
            ["verify", "--m-max", "5", "--checks", ","],
        ],
    )
    def test_bad_values(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err

    @pytest.mark.parametrize("option, value", [
        ("--m-max", "1_0"), ("--m-max", "+3"), ("--m-max", " 7"), ("--m-max", "7 "),
        ("--m-max", "\u0663"), ("--m-max", "\uff17"), ("--m-max", "7.0"), ("--m-max", "0x7"),
        ("--d", "1_2"), ("--d", "+3"), ("--d", "\u0663"), ("--d", "2,\uff13"),
        ("--threads", "\uff12"), ("--threads", "+1"), ("--threads", "1_0"),
        # past int()'s digit cap: a usage error, not a traceback
        *(pytest.param(option, "1" * 5000, id=f"{option}-5000 digits")
          for option in ("--m-max", "--threads", "--d")),
    ], ids=ascii)
    def test_integers_are_ascii_decimal(self, capsys, option, value):
        # every integer option takes -?[0-9]+ only, the table format's
        # digits; a --d item is still stripped, a whole option value is not
        argv = {"--m-max": "3", "--d": "2", "--threads": "1", option: value}
        try:
            code = main(["census", *(word for pair in argv.items() for word in pair)])
        except SystemExit as exc:  # argparse's usage error
            code = exc.code
        out, err = capsys.readouterr()
        assert code == EXIT_USAGE and out == ""
        assert err.splitlines()[-1] in (
            f"multibrot census: error: argument {option}: invalid int value: {value!r}",
            f"multibrot: invalid degree {value.split(',')[-1]!r}")

    def test_ascii_decimal_spellings_are_accepted(self, capsys):
        # leading zeros and a stripped --d item keep their meaning
        plain = run(capsys, "census", "--d", "3", "--m-max", "7", "--threads", "1")
        assert plain[0] == EXIT_OK
        assert run(capsys, "census", "--d", " 03 ", "--m-max", "007", "--threads", "01") == plain

    def test_negative_m_max_keeps_its_message(self, capsys):
        assert run(capsys, "census", "--m-max", "-1") == (
            EXIT_USAGE, "", "multibrot: --m-max must be >= 0\n")

    def test_blank_list_items_are_skipped(self, capsys):
        split = run(capsys, "compute", "--d", "2,,3", "--m-max", "5")
        repeated = run(capsys, "compute", "--d", "2", "--d", " 3 ", "--m-max", "5")
        assert split[0] == EXIT_OK
        assert split == repeated

    @pytest.mark.parametrize("command", ["compute", "verify", "census", "bench"])
    def test_m_max_above_the_cap(self, capsys, command):
        # rejected before any pair list is built
        code, out, err = run(capsys, command, "--d", "2", "--m-max", str(10**12))
        assert code == EXIT_USAGE and out == ""
        assert err == f"multibrot: --m-max must be <= {MAX_M}, got {10**12}\n"

    def test_m_max_cap_itself_is_accepted(self, capsys):
        # every index vanishes by divisibility at this degree: nothing is swept
        code, out, _ = run(capsys, "census", "--d", str(10**11), "--m-max", str(MAX_M))
        assert code == EXIT_OK
        assert out.splitlines()[-1] == (
            f"# d={10**11}: zeros={MAX_M + 1} explained={MAX_M + 1} unexplained=0")

    def test_compute_has_no_combinatorial_method(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--d", "2", "--m-max", "5", "--method", "combinatorial"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_missing_m_max_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compute", "--d", "2"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == EXIT_USAGE
        capsys.readouterr()


class TestParserReuse:
    """``main`` builds its parser once per process; later calls share it."""

    SEQUENCE = [
        ["compute", "--d", "3", "--d", "4,5", "--m-max", "6"],
        ["compute", "--m-max", "6"],
        ["compute", "--m-max", "-1"],
        ["frobnicate"],
        ["verify", "--d", "3", "--m-max", "8", "--checks", "main"],
        ["census", "--d", "4", "--m-max", "12", "--output", "json-lines"],
    ]

    @staticmethod
    def in_process(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, capsys.readouterr().out.encode("utf-8")

    @staticmethod
    def fresh_process(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(multibrot.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "multibrot", *argv],
                              capture_output=True, env=env, timeout=120)
        return proc.returncode, proc.stdout

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        results = [self.in_process(capsys, argv) for argv in self.SEQUENCE]
        assert [code for code, _ in results] == [EXIT_OK, EXIT_OK, EXIT_USAGE,
                                                 EXIT_USAGE, EXIT_OK, EXIT_OK]
        # the second call defaults to d = 2: no degree list leaks from the first
        assert {line.split(b",")[0] for line in results[1][1].splitlines()[1:-1]} == {b"2"}
        for argv, result in zip(self.SEQUENCE, results):
            assert result == self.fresh_process(argv), argv

    def test_later_calls_construct_no_parser(self, capsys, monkeypatch):
        run(capsys, "compute", "--d", "2", "--m-max", "1")
        made = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            made.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for argv in (["compute", "--d", "2", "--m-max", "3"],
                     ["verify", "--d", "3", "--m-max", "3"],
                     ["census", "--d", "2", "--m-max", "3"]):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK and out, argv
        assert made == []


@pytest.mark.parametrize("command", ["compute", "verify", "census"])
def test_interrupt_exits_130(capsys, monkeypatch, command):
    def interrupted(d, m_max):
        raise KeyboardInterrupt

    monkeypatch.setattr(coeffs, "coefficients_by_sweep", interrupted)
    code, out, err = run(capsys, command, "--d", "2", "--m-max", "50")
    assert code == cli.EXIT_INTERRUPTED == 130
    assert out == ""
    assert err == "multibrot: interrupted\n"


def test_interrupt_during_argument_normalization_exits_130(capsys, monkeypatch):
    def interrupted(raw):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_parse_degrees", interrupted)
    assert run(capsys, "census", "--d", "2", "--m-max", "5") == (
        cli.EXIT_INTERRUPTED, "", "multibrot: interrupted\n")


# Runs every command in one interpreter started without site-packages and
# prints the top-level modules it loaded that the standard library lacks.
_STDLIB_ONLY_SCRIPT = """
import contextlib, io, sys
from multibrot.cli import main
table = sys.argv[1]
for argv in (["compute", "--d", "2", "--m-max", "12", "--cache", table],
             ["verify", "--d", "2", "--m-max", "12", "--cache", table],
             ["verify", "--d", "3", "--m-max", "8"],
             ["census", "--d", "3", "--m-max", "10"],
             ["bench", "--d", "2", "--m-max", "6"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    # table I/O takes no lock and starts no thread
    assert "threading" not in sys.modules, argv
allowed = set(sys.stdlib_module_names) | {"multibrot", "__main__"}
print(sorted({name.partition(".")[0] for name in sys.modules} - allowed))
# records are tuples: no start-up pays for dataclasses and what it imports
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_commands_load_only_the_standard_library(tmp_path):
    # pyproject declares no dependencies; an import of an installed
    # package (numpy, say) would go unnoticed in the test interpreter
    env = dict(os.environ, PYTHONPATH=str(Path(multibrot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-S", "-c", _STDLIB_ONLY_SCRIPT,
                           str(tmp_path / "table.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def _readme_cli_lines():
    """The ``multibrot ...`` lines of the first block under README's ## CLI."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("multibrot ")]


def test_readme_cli_block_is_not_empty():
    assert len(_readme_cli_lines()) >= 6


@pytest.mark.parametrize("line", _readme_cli_lines())
def test_readme_cli_line_parses(line):
    # a renamed option or --method value fails here before the docs go stale
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    cli.normalize_args(args)


def _readme_library_examples():
    """The import statement of the first block under README's ## Library,
    and each (expression, result comment) of the paragraph after it; a
    comment on a line of its own belongs to the expression above it."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```", 2)[1].removeprefix("python\n")
    imports, results = block.split("\n\n")[:2]
    examples = []
    for line in results.splitlines():
        code, _, comment = line.partition("#")
        if code.strip():
            examples.append((code.strip(), comment.strip()))
        else:
            examples[-1] = (examples[-1][0], comment.strip())
    return imports, examples


def test_readme_library_results():
    # each result the README states is the repr of what its line returns,
    # up to the comment's first non-name character after it
    imports, examples = _readme_library_examples()
    namespace = {}
    exec(imports, namespace)
    assert [code.partition("(")[0] for code, _ in examples] == [
        "laurent_coefficient", "coefficients_by_sweep", "coefficient_by_residue",
        "choose_n", "zero_census", "[v.passed for v in check_main"]
    for code, comment in examples:
        result = repr(eval(code, namespace))
        assert re.match(re.escape(result) + r"(?![\w.])", comment), (code, result, comment)
    tests = doctest.DocTestFinder().find(exact.padic_valuation, "padic_valuation",
                                         globs=vars(exact))
    outcome = doctest.DocTestRunner().run(tests[0])
    assert (outcome.attempted, outcome.failed) == (2, 0)


@pytest.mark.parametrize("module", ["multibrot.cli", "multibrot"])
def test_module_entry_points(capsys, module):
    # `python -m multibrot.cli` runs cli's __main__ block, `python -m
    # multibrot` the package's __main__; both behave as main does in process
    env = dict(os.environ, PYTHONPATH=str(Path(multibrot.__file__).parents[1]))
    for argv, code in ((["compute", "--d", "2", "--m-max", "5"], EXIT_OK),
                       (["compute", "--d", "2", "--m-max", "-1"], EXIT_USAGE)):
        proc = subprocess.run([sys.executable, "-m", module, *argv],
                              capture_output=True, env=env, timeout=120)
        assert main(argv) == proc.returncode == code
        out, err = capsys.readouterr()
        assert proc.stdout == out.encode("utf-8")
        assert proc.stderr == err.encode("utf-8")
    assert err == "multibrot: --m-max must be >= 0\n"


class TestDispatch:
    """A request whose first word names a command is parsed once, by that
    command's subparser; any other argv reaches the top-level parser."""

    VALID = [
        ["compute", "--m-max", "0"],
        ["compute", "--d", "3", "--d", "4,5", "--m-max", "6", "--method", "both",
         "--output", "json-lines", "--cache", "t.csv", "--threads", "2"],
        ["verify", "--m-max", "5"],
        ["verify", "--d", "2,3", "--m-max", "9", "--checks", "main", "--checks", "zagier,dadic",
         "--report", "r.csv", "--cache", "/abs/t.csv"],
        ["census", "--d", "6", "--m-max", "10", "--output", "json-lines"],
        ["bench", "--m-max=4", "--method", "sweep"],
        ["bench", "--d=7", "--m-max", "4", "--threads=3"],
    ]

    @staticmethod
    def namespace_of_main(monkeypatch, argv):
        """The namespace ``main`` passes on after ``normalize_args``; the
        command does not run."""
        seen = []
        normalize = cli.normalize_args

        def recording(args):
            normalize(args)
            seen.append(args)
            raise cli.UsageError("stop")

        with monkeypatch.context() as patch:
            patch.setattr(cli, "normalize_args", recording)
            assert main(argv) == EXIT_USAGE
        return seen[0]

    @pytest.mark.parametrize("argv", [shlex.split(line)[1:] for line in _readme_cli_lines()]
                             + VALID, ids=" ".join)
    def test_namespace_equals_the_full_parse(self, capsys, monkeypatch, argv):
        expected = cli.build_parser().parse_args(argv)
        cli.normalize_args(expected)
        assert self.namespace_of_main(monkeypatch, argv) == expected
        capsys.readouterr()

    @pytest.fixture
    def top_level_parses(self, monkeypatch):
        """The calls of the top-level parser's ``parse_known_args``."""
        parser = cli.build_parser()
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return type(parser).parse_known_args(parser, *args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        return calls

    def test_valid_requests_skip_the_top_level_parser(self, capsys, top_level_parses):
        for argv in (["compute", "--d", "2", "--m-max", "3"],
                     ["verify", "--d", "3", "--m-max", "3", "--checks", "main"],
                     ["census", "--d", "2", "--m-max", "3"],
                     ["bench", "--d", "2", "--m-max", "3", "--method", "sweep"]):
            code, out, _ = run(capsys, *argv)
            assert code == EXIT_OK and out, argv
        assert top_level_parses == []

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--help"]], ids=repr)
    def test_other_argv_reach_the_top_level_parser(self, capsys, top_level_parses, argv):
        with pytest.raises(SystemExit):
            main(argv)
        capsys.readouterr()
        assert len(top_level_parses) >= 1

    @pytest.mark.parametrize("argv, code, usage", [
        (["-h"], EXIT_OK, "usage: multibrot [-h]"),
        (["--help"], EXIT_OK, "usage: multibrot [-h]"),
        (["compute", "-h"], EXIT_OK, "usage: multibrot compute [-h]"),
        ([], EXIT_USAGE, "multibrot: error: the following arguments are required: command"),
        (["frobnicate"], EXIT_USAGE, "multibrot: error: argument command: invalid choice"),
        (["compute", "--d", "2"], EXIT_USAGE,
         "multibrot compute: error: the following arguments are required: --m-max"),
        (["census", "--m-max", "3", "extra"], EXIT_USAGE,
         "multibrot census: error: unrecognized arguments: extra"),
    ], ids=repr)
    def test_help_and_usage_errors(self, capsys, argv, code, usage):
        # help goes to stdout; a usage error leaves stdout empty and ends
        # stderr with the parser's one error line
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out, err = capsys.readouterr()
        assert excinfo.value.code == code
        if code == EXIT_OK:
            assert out.startswith(usage) and err == ""
        else:
            assert out == "" and err.splitlines()[-1].startswith(usage)

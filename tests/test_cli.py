import hashlib
import json
import multiprocessing
import os
import sys

import pytest

from multibrot import cache
from multibrot.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFICATION,
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
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        value = rational(-(10**20000 + 1), 2**66439)
        row = json.loads(_records_json_lines([CoeffRecord(2, 9999, value, "residue", 13)]))
        assert row["numerator"] == "-1" + "0" * 19999 + "1"
        assert len(row["denominator"]) == 20001
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

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

        def skewed(d, m, *, method="residue", use_vanishing_shortcut=True, n=None):
            rec = real(d, m, method=method, use_vanishing_shortcut=use_vanishing_shortcut, n=n)
            if method == "combinatorial" and m == 2:
                return CoeffRecord(d, m, rec.value + 1, rec.method, rec.n_used)
            return rec

        monkeypatch.setattr(cli_mod, "laurent_coefficient", skewed)
        code, _, err = run(capsys, "compute", "--d", "2", "--m-max", "3",
                           "--threads", "1", "--method", "both")
        assert code == EXIT_VERIFICATION
        assert "disagreement" in err


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

    def test_empty_check_list_is_empty_report_and_success(self, capsys):
        code, out, _ = run(capsys, "verify", "--d", "2", "--m-max", "5",
                           "--threads", "1", "--checks", "")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "#multibrot-verdicts v1"
        assert len(lines) == 2

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

    def test_checks_compute_no_coefficient_lazily(self, capsys, monkeypatch):
        # Every coefficient a check reads must come from the table that
        # cmd_verify fills up front.
        import multibrot.checks as checks_mod
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

        for module in (coeffs_mod, checks_mod):
            monkeypatch.setattr(module, "laurent_coefficient",
                                counting(module.laurent_coefficient))
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
        cache.store_coefficients(path, [(3, 2, rational(1, 9))])
        code, out, _ = run(capsys, "verify", "--d", "3", "--m-max", "4", "--threads", "1",
                           "--checks", "vanishing,yamashita", "--cache", str(path))
        assert code == EXIT_OK
        assert "vanishing,3,2,-,neg_inf,neg_inf,true,true,true" in out.splitlines()

    def test_cached_values_below_computed_indices_are_kept(self, capsys, tmp_path):
        # a checksummed but wrong b_1 = 1/2 for d = 2: computing m = 2..5
        # must not replace it, so zagier reads it and fails at m = 1
        path = tmp_path / "table.csv"
        cache.store_coefficients(path, [(2, 0, rational(-1, 2)), (2, 1, rational(1, 2))])
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
        cache.store_coefficients(path, [(2, 0, rational(-1, 2)), (2, 1, rational(1, 2**40)),
                                        (2, 3, rational(1, 2**40))])
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


class TestBench:
    def test_hashes_match_across_methods_and_thread_counts(self, capsys):
        code, out, _ = run(capsys, "bench", "--d", "2", "--m-max", "12",
                           "--threads", "1", "--threads-compare", "2")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "method,threads,seconds,peak_coeff_bits,sha256"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4  # two methods x two thread counts
        assert len({row[4] for row in rows}) == 1
        assert {row[0] for row in rows} == {"residue", "combinatorial"}

    def test_trivial_range(self, capsys):
        code, out, _ = run(capsys, "bench", "--d", "2", "--m-max", "0", "--threads", "1")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len({row[4] for row in rows}) == 1

    def test_one_process_pool(self, capsys, pools):
        code, _, _ = run(capsys, "bench", "--d", "3", "--m-max", "30",
                         "--method", "residue", "--threads", "2")
        assert code == EXIT_OK
        assert len(pools) == 1

    def test_no_more_workers_than_tasks(self, capsys, pools):
        code, _, _ = run(capsys, "bench", "--d", "2", "--m-max", "4", "--threads", "8")
        assert code == EXIT_OK
        assert len(pools) == 2  # one per method
        assert all(pool._max_workers <= 5 for pool in pools)


@pytest.mark.parametrize("command", ["compute", "verify", "census"])
def test_only_bench_starts_processes(capsys, pools, command):
    code, out, _ = run(capsys, command, "--d", "2,3", "--m-max", "30", "--threads", "4")
    assert code in (EXIT_OK, EXIT_VERIFICATION)
    assert out
    assert pools == []


@pytest.mark.parametrize("command", ["compute", "verify", "census"])
def test_huge_degree(capsys, command):
    # every b_m with m <= 3 vanishes at d = 10^11; no power of size ~d is formed
    code, out, _ = run(capsys, command, "--d", str(10**11), "--m-max", "3", "--threads", "1")
    assert code == EXIT_OK
    assert out


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


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="workers must inherit the patched function")
def test_broken_process_pool_exits_3(capsys, monkeypatch):
    import multibrot.cli as cli_mod

    real = cli_mod.laurent_coefficient

    def dying(d, m, **kwargs):
        if m == 7:
            os._exit(1)
        return real(d, m, **kwargs)

    monkeypatch.setattr(cli_mod, "laurent_coefficient", dying)
    code, out, err = run(capsys, "bench", "--d", "2", "--m-max", "12",
                         "--method", "residue", "--threads", "2")
    assert code == EXIT_IO
    assert out == "method,threads,seconds,peak_coeff_bits,sha256\n"
    assert "worker pool broke" in err and "Traceback" not in err


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--d", "1", "--m-max", "5"],
            ["compute", "--d", "2", "--m-max", "-1"],
            ["compute", "--d", "2", "--m-max", "5", "--threads", "0"],
            ["compute", "--d", "x", "--m-max", "5"],
        ],
    )
    def test_bad_values(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert err

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

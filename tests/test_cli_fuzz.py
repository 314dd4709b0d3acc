"""Seeded argv over the four commands: every run ends in a documented exit
code (0-3), never a traceback, and a failing run's last stderr line is the
program's own.

Tables that no parse can stop early on (``/dev/zero`` and ``/dev/full``
read as endless NUL bytes) are loaded only in a child process whose
address space is capped, so that an unbounded read fails this test
instead of exhausting the machine's memory.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import multibrot
from multibrot import cache, cli
from multibrot.checks import CHECK_NAMES

SEED = 0x5EED21
ARGV_COUNT = 300
DEVICES = ("/dev/zero", "/dev/full")
ADDRESS_SPACE_LIMIT = 400 * 2**20
NOT_A_TABLE = ("multibrot: bad coefficient table: line 1: expected header "
               f"{cache.HEADER!r}\n")

# (valid, invalid) values of each option; an invalid one is drawn at a
# rate of INVALID, so that most argv get past the parse
INVALID = 0.08
# integers are ASCII decimal: a plus sign, an underscore, a space around a
# whole option value and any non-ASCII digit are invalid
DEGREES = (["2", "3", "2,3", "4,6", "7", "5,3,5", "2,,3", " 5 ", "03", "10000000000000"],
           [",", "", "1", "0", "-2", "x", "2.5", "10000000000001", "\u0663", "1_2", "+3",
            "2,\uff13"])
M_MAX = ([str(m) for m in range(21)] + ["007"],
         ["-1", "x", "", "1e3", "100001", " 7", "1_0", "+3", "\u0663", "\uff17"])
THREADS = (["1", "2"], ["0", "-1", "x", "\uff12", "+1", "1_0"])
METHODS = {"compute": (["sweep", "both"], ["combinatorial", "x"]),
           "bench": (["residue", "combinatorial", "sweep", "both"], ["x"])}
OUTPUTS = (["csv", "json-lines"], ["xml"])
CHECKS = (list(CHECK_NAMES), ["bogus", "", " "])


def _tables(rng, root: Path) -> list[str]:
    """A valid d = 2, 3 table and corruptions of it, some re-checksummed,
    with other files and paths that are no table."""
    text = cache.format_table([(d, m, value) for d in (2, 3)
                               for m, value in enumerate(multibrot.coefficients_by_sweep(d, 12))])
    lines = text.splitlines()
    payload = lines[1:-1]
    variants = {"valid": text, "empty": "", "blank": " \n\n  \n", "header": lines[0] + "\n",
                "crlf": text.replace("\n", "\r\n"), "truncated": text[:len(text) // 2]}
    for i in range(24):
        rows = list(payload)
        k = rng.randrange(len(rows))
        kind = rng.choice(["char", "drop", "swap", "dup"])
        if kind == "char":
            row = rows[k]
            j = rng.randrange(len(row))
            rows[k] = row[:j] + rng.choice("0123456789-,+ x/") + row[j + 1:]
        elif kind == "drop":
            del rows[k]
        elif kind == "swap":
            j = rng.randrange(len(rows))
            rows[k], rows[j] = rows[j], rows[k]
        else:
            rows.insert(k, rows[k])
        if rng.random() < 0.7:
            variants[f"{kind}{i}"] = cache.checksummed_text(cache.HEADER, rows)
        else:
            variants[f"{kind}{i}-stale"] = "\n".join([lines[0], *rows, lines[-1]]) + "\n"
    paths = []
    for name, body in variants.items():
        path = root / f"{name}.csv"
        path.write_text(body, encoding="utf-8", newline="")
        paths.append(str(path))
    bad_bytes = root / "latin1.csv"
    bad_bytes.write_bytes(text.encode() + "é\n".encode("latin-1"))
    return paths + [str(bad_bytes), str(root), str(root / "missing.csv")]


def _pick(rng, values):
    valid, invalid = values
    return rng.choice(invalid if rng.random() < INVALID else valid)


def _argv(rng, tables, outputs) -> list[str]:
    command = rng.choice(["compute", "verify", "census", "bench"])
    options = []
    for _ in range(rng.choice([0, 1, 1, 2])):
        options.append(["--d", _pick(rng, DEGREES)])
    if rng.random() < 0.97:
        options.append(["--m-max", _pick(rng, M_MAX)])
    if rng.random() < 0.3:
        options.append(["--threads", _pick(rng, THREADS)])
    if command in METHODS and rng.random() < 0.6:
        options.append(["--method", _pick(rng, METHODS[command])])
    if command in ("compute", "census") and rng.random() < 0.4:
        options.append(["--output", _pick(rng, OUTPUTS)])
    if command == "compute" and rng.random() < 0.4:
        options.append(["--cache", rng.choice(outputs)])
    if command == "verify":
        if rng.random() < 0.6:
            names = [_pick(rng, CHECKS) for _ in range(rng.randint(1, 4))]
            options.append(["--checks", ",".join(names)])
        if rng.random() < 0.3:
            options.append(["--report", rng.choice(outputs)])
        if rng.random() < 0.7:
            options.append(["--cache", rng.choice([*tables, *DEVICES])])
    rng.shuffle(options)
    argv = [command] + [word for option in options for word in option]
    if rng.random() < 0.05:
        argv.append(rng.choice(["extra", "--bogus", "-"]))
    return argv


def _outcome(capsys, argv):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse's help and usage errors
        code = exc.code
    except BaseException as exc:
        pytest.fail(f"{argv} raised {exc!r}")
    captured = capsys.readouterr()
    return code, captured.err


# Runs each argv of a JSON list under an address-space limit and prints
# one [exit code, stderr] pair per argv.
_LIMITED_SCRIPT = """
import contextlib, io, json, resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from multibrot.cli import main
results = []
for argv in json.loads(sys.argv[2]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, err.getvalue()])
print(json.dumps(results))
"""


def _limited_outcomes(argvs):
    env = dict(os.environ, PYTHONPATH=str(Path(multibrot.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _LIMITED_SCRIPT, str(ADDRESS_SPACE_LIMIT),
                           json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _assert_documented(argv, code, err):
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFICATION, cli.EXIT_USAGE, cli.EXIT_IO), (argv, err)
    assert "Traceback" not in err, argv
    if code != cli.EXIT_OK:
        assert err.splitlines()[-1].startswith("multibrot"), (argv, err)


def test_seeded_argv_end_in_documented_exit_codes(capsys, tmp_path):
    rng = random.Random(SEED)
    tables = _tables(rng, tmp_path)
    plain_file = tmp_path / "plain"
    plain_file.write_text("")
    outputs = [str(tmp_path / "out.csv"), str(tmp_path), str(plain_file / "out.csv"),
               str(tmp_path / "no" / "out.csv"), "/dev/full"]
    argvs = [_argv(rng, tables, outputs) for _ in range(ARGV_COUNT)]
    device_reads = [argv for argv in argvs
                    if argv[0] == "verify" and any(device in argv for device in DEVICES)]
    seen = set()
    for argv in argvs:
        if argv in device_reads:
            continue
        code, err = _outcome(capsys, argv)
        _assert_documented(argv, code, err)
        seen.add(code)
    assert seen == {cli.EXIT_OK, cli.EXIT_VERIFICATION, cli.EXIT_USAGE, cli.EXIT_IO}

    fixed = [["verify", "--d", "2", "--m-max", "3", "--cache", device] for device in DEVICES]
    outcomes = _limited_outcomes(fixed + device_reads)
    for argv, (code, err) in zip(fixed + device_reads, outcomes):
        _assert_documented(argv, code, err)
    # a bounded read stops at the first bytes: neither device is read to
    # the memory limit ("out of memory")
    assert outcomes[:len(fixed)] == [[cli.EXIT_IO, NOT_A_TABLE]] * len(fixed)
    assert device_reads

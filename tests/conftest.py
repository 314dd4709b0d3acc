import contextlib
import io

import pytest

from multibrot import cli
from multibrot.cache import parse_table


@pytest.fixture(scope="session")
def degree_two_table_m1000():
    """Stdout of ``compute --d 2 --m-max 1000 --threads 1`` and its parsed
    (d, m, value) triples.

    The d = 2 sweep to m = 1000 takes about 5 s; it runs once per session
    and serves the golden digest, the full-range checks and the residue
    cross-check at m = 997..1000.
    """
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["compute", "--d", "2", "--m-max", "1000", "--threads", "1"])
    assert code == cli.EXIT_OK
    return out.getvalue(), parse_table(out.getvalue())

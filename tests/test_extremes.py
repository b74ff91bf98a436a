"""Extreme command lines end cleanly: a result or a refusal, never a crash.

Each line runs as ``python -m lineparadox`` in its own process, one at a
time, under an address-space limit and a 20 s timeout.  It must exit 0, 2
or 3 with no traceback; exit 1, a failed check, is allowed only for
``verify`` and ``connect``, with their report on stdout.  A line joins the
list together with the change that makes it end cleanly.
"""

import os
import resource
import shlex
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

OMEGA_FAR = 57896044618658097711785492504343953926634992332820282019728792003956564819968

# (argument line, address-space limit in KB, exit code today)
LINES = [
    ("classify --k 1000000000000 --window -3..3", 120_000, 0),
    ("verify --k omega --J 10000 --window 0..0 --free-check 1", 120_000, 3),
    ("plot-cayley --k 2 --radius 100000000", 120_000, 3),
    ('plot-fn --k 2 --word "x1^99999" --window 0..2', 120_000, 3),
    (f"connect --k omega {OMEGA_FAR} 5", 120_000, 3),
    ("line-strip --k omega --J 0 --window -3..3", 120_000, 2),
    ("plot-cayley --k 2 --radius 9", 120_000, 0),
    ("verify --k 2 --window -1000000..1000000", 120_000, 0),
    ("verify --k omega --J 10 --window -1000000..1000000", 120_000, 0),
    # A type's verdict keeps no slot per pair, so k = 1000 fits.
    ("verify --k 1000 --window -3000..3000", 60_000, 0),
    # The SVG emitters write a chunk of lines at a time, so the widest
    # figures hold no list of every line.
    ("line-strip --k 2 --window -50000..49999", 60_000, 0),
    ("plot-fn --k omega --word x1 --window -9000..9000", 60_000, 0),
]


def _run(line, limit_kb):
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (limit_kb * 1024, limit_kb * 1024))

    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "lineparadox", *shlex.split(line)],
        capture_output=True, text=True, timeout=20, preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": path},
    )


@pytest.mark.parametrize("line, limit_kb, code", LINES, ids=[line for line, _, _ in LINES])
def test_extreme_line_ends_cleanly(line, limit_kb, code):
    proc = _run(line, limit_kb)
    assert "Traceback" not in proc.stderr
    reported_failure = proc.returncode == 1 and line.split()[0] in ("verify", "connect")
    assert proc.returncode in (0, 2, 3) or (reported_failure and proc.stdout)
    assert proc.returncode == code

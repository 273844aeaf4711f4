"""The benchmark's tracer (``bench/tracer.py``) still wraps the sampler the
CLI calls, although ``qdialogue.cli`` resolves ``run_session`` only on
first access: installed in a fresh interpreter that has run only
``import qdialogue``, it counts the one session an ``mc`` call runs, and
its ``uninstall`` leaves the CLI's name bound to the sampler itself."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """\
import contextlib
import importlib.util
import io
import sys

import qdialogue  # all that the benchmark's worker imports first

spec = importlib.util.spec_from_file_location("_bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

t = tracer.Tracer()
t.install()
import qdialogue.cli  # loaded by install(); bound here

with contextlib.redirect_stdout(io.StringIO()):
    assert qdialogue.cli.run_cli(["mc", "--rounds", "50", "--seed", "1"]) == 0
assert t.calls("protocol.run_session") == 1, t.calls("protocol.run_session")
t.uninstall()
import qdialogue.sampling
assert qdialogue.cli.run_session is qdialogue.sampling.run_session
"""


def test_tracer_counts_the_session_of_a_cli_mc_call():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", PROGRAM, str(ROOT / "bench" / "tracer.py")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr

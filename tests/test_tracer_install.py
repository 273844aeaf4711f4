"""The benchmark's tracer (``bench/tracer.py``) installs in a fresh
interpreter that has run only ``import qdialogue``, as the benchmark's
worker has, and its ``uninstall`` restores every attribute it wrapped.

``tests/test_tracer_sites.py`` imports each lookup site's module itself, so
it cannot see a package that stops loading a module the tracer looks up in
``sys.modules``; this test does."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROGRAM = """\
import importlib.util
import sys

import qdialogue  # noqa: F401  (all that the benchmark's worker imports first)

spec = importlib.util.spec_from_file_location("_bench_tracer", sys.argv[1])
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

t = tracer.Tracer()
t.install()
saved = list(t._saved)
wrapped = [(owner, attr) for owner, attr, original in saved
           if getattr(owner, attr) is not original]
t.uninstall()
restored = [(owner, attr) for owner, attr, original in saved
            if getattr(owner, attr) is original]
expected = len(tracer.SPAN_SITES) + len(tracer.ROUND_CONFIG_SITES) + 3
assert len(saved) == expected, (len(saved), expected)
assert len(wrapped) == len(saved), [attr for _, attr in wrapped]
assert len(restored) == len(saved), sorted(
    {attr for owner, attr, _ in saved} - {attr for _, attr in restored})
"""


def test_tracer_installs_after_importing_the_package_only():
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", PROGRAM, str(ROOT / "bench" / "tracer.py")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr

"""Every lookup site that the benchmark's tracer (``bench/tracer.py``) wraps
still names a callable, so that moving or renaming a wrapped name fails
here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qdialogue import protocol
from qdialogue.qcore import RandomSource

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("_bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("module,attr,span", tracer.SPAN_SITES,
                         ids=[f"{module}.{attr}" for module, attr, _ in tracer.SPAN_SITES])
def test_span_site_exists(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr)), span


@pytest.mark.parametrize("module", tracer.ROUND_CONFIG_SITES)
def test_round_config_site_exists(module):
    assert getattr(importlib.import_module(module), "RoundConfig") is protocol.RoundConfig


@pytest.mark.parametrize("owner,attr", [(protocol, "apply_eve"), (RandomSource, "child"),
                                        (RandomSource, "random")],
                         ids=["protocol.apply_eve", "RandomSource.child",
                              "RandomSource.random"])
def test_other_wrapped_site_exists(owner, attr):
    assert callable(getattr(owner, attr))
